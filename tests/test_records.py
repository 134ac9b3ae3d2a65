"""Value-type contracts of the package's records: field names, order and
defaults, immutability, equality and the constructor checks."""

import pytest

from wpec import circuits, cli, protocol, verifier
from wpec.decoder import build_correction_table
from wpec.pauli import PauliOp
from wpec.verifier import FaultNumberCombination

# (field names in order, defaults): each record keeps the fields it had
# as a frozen dataclass, so positional and keyword construction read the same
RECORDS = {
    PauliOp: (("n", "x_bits", "z_bits"), {"x_bits": 0, "z_bits": 0}),
    circuits.ExtractionCircuit: (
        ("name", "family", "level", "index", "target_generator", "gates", "flag_bit"),
        {"flag_bit": None},
    ),
    verifier.FaultAtom: (("label", "error", "flag"), {}),
    verifier.FaultModel: (("gate1", "gate2", "wait", "flag"), {}),
    FaultNumberCombination: (
        ("v_g1a", "v_g1b", "v_g2", "v_w", "v_f", "v_s"),
        dict.fromkeys(("v_g1a", "v_g1b", "v_g2", "v_w", "v_f", "v_s"), 0),
    ),
    verifier.FaultCombination: (
        ("counts", "error", "flag", "faults", "error_a"),
        {"flag": 0, "faults": (), "error_a": None},
    ),
    verifier.Claim2Violation: (
        ("stilde", "tau", "s", "f", "parity_a", "parity_b", "witness_a", "witness_b"),
        {},
    ),
    verifier.Claim2Report: (
        ("max_faults", "flagged", "interleaved", "n_records", "n_groups",
         "n_condition1", "n_condition2", "n_violated_groups", "n_violations",
         "violations", "combination_counts"),
        {},
    ),
    verifier.MarkedCombination: (("combination", "min_weight"), {}),
    verifier.CompletionAnalysis: (
        ("feasible_completions", "worst_residual", "harmful"), {}
    ),
    verifier.FinalRoundReport: (
        ("max_faults", "n_number_combinations", "n_effect_combinations",
         "marked", "analyses"),
        {},
    ),
    verifier.Table1Row: (("form", "m_values", "stilde", "tau", "block_parity"), {}),
    protocol.ScheduledFault: (
        ("round", "kind", "circuit", "position", "local", "qubit", "phase",
         "side", "meas_field", "bit"),
        {"circuit": "", "position": 0, "local": "", "qubit": 0, "phase": 0,
         "side": "", "meas_field": "", "bit": 0},
    ),
    protocol.Trial: (("input_error", "schedule", "name"), {"schedule": (), "name": ""}),
    protocol.FtecReport: (
        ("n_trials", "n_condition1", "n_condition2", "n_fallback",
         "max_rounds_used", "n_failures", "failures"),
        {},
    ),
    cli.CheckResult: (("name", "ok", "detail"), {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields(cls):
    fields, defaults = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults


def test_records_are_immutable():
    fnc = FaultNumberCombination(v_g2=1)
    with pytest.raises(AttributeError):
        fnc.v_g2 = 2
    with pytest.raises(AttributeError):
        protocol.Trial(PauliOp(49)).name = "renamed"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"v_w": -1}, "v_w must be non-negative, got -1"),
        ({"v_g1a": 2, "v_f": 2}, "at most 3 faults supported, got 4"),
        ({"v_g2": 5, "v_s": -2}, "v_s must be non-negative, got -2"),
    ],
)
def test_fault_number_combination_checks(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FaultNumberCombination(**kwargs)


def test_fault_number_combination_value():
    fnc = FaultNumberCombination(1, 0, 1, v_w=1)
    assert fnc == FaultNumberCombination(v_g1a=1, v_g2=1, v_w=1)
    assert str(fnc) == "(G1a 1, G1b 0, G2 1, W 1, F 0, S 0)"
    assert repr(fnc) == (
        "FaultNumberCombination(v_g1a=1, v_g1b=0, v_g2=1, v_w=1, v_f=0, v_s=0)"
    )


def test_correction_table_equality_and_lazy_golay_leaders():
    a, b = build_correction_table(), build_correction_table()
    assert (a.wt1, a.wt2) == (b.wt1, b.wt2) and a is not b
    assert "golay_min" not in vars(a)
    assert len(a.golay_min) == 2048
    assert "golay_min" in vars(a)
    assert a.golay_min is a.golay_min
