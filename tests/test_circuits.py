"""Circuit and fault-propagation tests.

The flagged-circuit fault catalog is frozen by hand here: ten distinct
nonzero effects per inner circuit, 55 per outer circuit (27 proper
suffixes + the full support + 28 singles, with one overlap).  Everything
else checks the propagation rules against independent recomputation.
"""

import hashlib
import itertools
import random

import pytest

from wpec.circuits import (
    ROUND_ORDER,
    circuit_phases,
    circuits_by_name,
    level1_circuits,
    level2_circuits,
    run_circuit,
    unit_results,
)
from wpec.codes import GEN7, LEVEL2_GENS, level1_syndrome
from wpec.pauli import PauliOp, parity
from wpec.verifier import fault_model

Z1 = level1_circuits("z")[0]
Z2L = level2_circuits("z")[0]


def propagate(c, position, local_error):
    """Effect of one fault on an otherwise clean run: the data error it
    leaves behind, its flag contribution as a 21-bit vector in this
    family's flag space, and whether this circuit's own outcome flips."""
    r = run_circuit(c, injections=[(position, local_error)])
    flag21 = r.flag << c.flag_bit if c.flag_bit is not None and r.flag else 0
    return PauliOp(49, r.data_x, r.data_z), flag21, r.outcome


# --- construction ---------------------------------------------------------------


def test_level2_interleaved_order():
    # support subblocks 1,3,4,5 visited round-robin, first qubits first
    assert Z2L.cnot_order[:8] == (0, 14, 21, 28, 1, 15, 22, 29)
    assert Z2L.cnot_order[-4:] == (6, 20, 27, 34)
    assert len(Z2L.cnot_order) == 28
    assert Z2L.flag_bit is None
    assert Z2L.name == "z~1"


def test_level2_blockwise_order():
    c = level2_circuits("z", interleaved=False)[0]
    assert c.cnot_order == tuple(q for q in range(49) if (LEVEL2_GENS[0] >> q) & 1)
    assert c.name == "z~1#"


def test_level1_gate_layout():
    assert Z1.gates == (0, -1, 2, 3, -1, 4)
    assert Z1.cnot_order == (0, 2, 3, 4)
    assert Z1.flag_bit == 0
    assert Z1.name == "z1"


def test_level1_flag_bit_indexing():
    cs = level1_circuits("z")
    assert len(cs) == 21
    for j, c in enumerate(cs):
        assert c.flag_bit == j
        assert c.index == j
        assert c.target_generator.z_bits == GEN7[j % 3] << (7 * (j // 3))


def test_x_family_construction():
    c = level2_circuits("x")[1]
    assert c.family == "x" and c.name == "x~2"
    assert c.cnot_order[:4] == (7, 21, 28, 35)  # subblocks 2,4,5,6


# --- fault-free runs ----------------------------------------------------------------


def test_clean_run_measures_the_generator():
    rng = random.Random(1)
    circuits = (
        level2_circuits("z")
        + level2_circuits("x")
        + level1_circuits("z")
        + level1_circuits("x")
    )
    for c in circuits:
        support = c.target_generator.x_bits | c.target_generator.z_bits
        for _ in range(20):
            dx, dz = rng.getrandbits(49), rng.getrandbits(49)
            r = run_circuit(c, dx, dz)
            assert (r.data_x, r.data_z) == (dx, dz)
            assert r.flag == 0
            want = parity((dx if c.family == "z" else dz) & support)
            assert r.outcome == want


def test_catalog_holds_four_families_in_round_order():
    # both circuit models read the catalog: every family's phases follow
    # ROUND_ORDER in generator order, and one name resolves each circuit
    by_name = circuits_by_name()
    assert len(by_name) == 96
    for flagged, interleaved in itertools.product((True, False), repeat=2):
        phases = circuit_phases(flagged, interleaved)
        assert len(phases) == len(ROUND_ORDER)
        for (family, level), phase in zip(ROUND_ORDER, phases):
            assert [(c.family, c.level, c.index) for c in phase] == [
                (family, level, i) for i in range(len(phase))
            ]
            real = flagged if level == 1 else interleaved
            for c in phase:
                assert by_name[c.name] == c
                assert c.name.endswith("#") != real



# --- single-fault propagation ---------------------------------------------------------


def test_ancilla_fault_makes_consecutive_error_blockwise():
    c = level2_circuits("z", interleaved=False)[0]
    e, flag21, outcome = propagate(c, 13, "ZZ")  # after the 14th CNOT
    want = (1 << 20) | (0x7F << 21) | (0x7F << 28)
    assert e.z_bits == want and e.x_bits == 0
    assert flag21 == 0 and outcome == 0
    # reads as all-Z on subblocks 4,5 and one Z at the end of subblock 3
    assert e.block_form() == "IIIIIII IIIIIII IIIIIIZ ZZZZZZZ ZZZZZZZ IIIIIII IIIIIII"


def test_data_only_fault_stays_put():
    e, flag21, _ = propagate(Z1, 5, "IZ")  # last CNOT, error on the data wire
    assert e.z_bits == 1 << 4 and e.weight() == 1
    assert flag21 == 0


def test_premeasure_ancilla_z_flips_x_family_outcome():
    c = level1_circuits("x")[0]
    e, flag21, outcome = propagate(c, len(c.gates), "Z")
    assert e.weight() == 0 and flag21 == 0
    assert outcome == 1


def test_prep_z_footprint_is_the_whole_generator():
    # physically Z|0> is a non-event; in the frame picture it spreads to
    # every data qubit, i.e. to the generator itself, which is invisible
    e, flag21, outcome = propagate(Z1, -1, "Z")
    assert e.z_bits == GEN7[0]
    assert level1_syndrome(e.z_bits) == 0
    assert flag21 == 0 and outcome == 0


def test_flag_wire_fault_flags_without_data():
    e, flag21, outcome = propagate(Z1, 1, "IZ")
    assert e.weight() == 0 and outcome == 0
    assert flag21 == 1


def test_propagate_validates():
    with pytest.raises(ValueError):
        propagate(Z1, 99, "ZZ")
    with pytest.raises(ValueError):
        propagate(Z1, 2, "Z")  # gate faults are two-wire
    with pytest.raises(ValueError):
        propagate(Z2L, -1, "IZ")  # no flag wire on outer circuits
    with pytest.raises(ValueError):
        propagate(Z1, 0, "QI")


def _atoms(pool, name):
    """The fault-model atoms of circuit ``name`` in ``pool``, in order."""
    return [a for a in pool if f"[{name}]@" in a.label]


def _z_units(name):
    """Every Z-type unit result of circuit ``name``: the ancilla's and the
    other wire's Z at each position."""
    return [r for units in unit_results(name) for r in units[1::2]]


def test_inner_circuit_fault_catalog_frozen():
    a, b, c, d = 1 << 0, 1 << 2, 1 << 3, 1 << 4
    atoms = _atoms(fault_model().gate1, "z1")
    got = {(f.error, f.flag) for f in atoms}
    assert got == {
        (a, 0),
        (b, 0),
        (c, 0),
        (d, 0),
        (a | b | c | d, 0),  # ancilla Z between the flag CNOTs, caught twice
        (b | c | d, 0),
        (b | c | d, 1),
        (c | d, 1),
        (d, 1),
        (0, 1),
    }
    assert len(atoms) == 10
    assert all(r.outcome == 0 and r.data_x == 0 for r in _z_units("z1"))


def test_outer_circuit_fault_catalog_structure():
    # the interleaved circuit of the real family and the ascending one of
    # its control, each with the suffixes of its own CNOT order
    for interleaved in (True, False):
        circuit = level2_circuits("z", interleaved)[0]
        atoms = _atoms(fault_model(True, interleaved).gate2, circuit.name)
        assert len(atoms) == 55
        assert all(f.flag == 0 for f in atoms)
        assert all(r.outcome == 0 for r in _z_units(circuit.name))
        order = circuit.cnot_order
        suffixes = set()
        for k in range(28):
            m = 0
            for q in order[k:]:
                m |= 1 << q
            suffixes.add(m)
        singles = {1 << q for q in order}
        assert {f.error for f in atoms} == suffixes | singles
        assert len(suffixes | singles) == 55


def test_x_family_is_the_exact_dual():
    # at every position of every circuit, each X-family unit with X and Z
    # swapped is its Z-family twin's unit of the other letter
    for name in circuits_by_name():
        if name[0] != "x":
            continue
        twin = unit_results("z" + name[1:])
        for units, z_units in zip(unit_results(name), twin, strict=True):
            assert len(units) == len(z_units)
            for i, r in enumerate(units):
                z = z_units[i ^ 1]
                assert (r.data_x, r.data_z, r.outcome, r.flag) == (
                    z.data_z, z.data_x, z.outcome, z.flag
                ), (name, i)


# --- golden propagation digest ------------------------------------------------------

_LOCALS = tuple("IXYZQ") + tuple(a + b for a in "IXYZQ" for b in "IXYZQ")
_GATE_LOCALS = tuple(a + b for a in "IXYZ" for b in "IXYZ")


def _digest_line(c, dx, dz, injections) -> str:
    try:
        got = repr(tuple(run_circuit(c, dx, dz, injections)))
    except Exception as e:  # rejected input: only the exception type is pinned
        got = type(e).__name__
    return f"{c.name} {injections} {dx} {dz} {got}\n"


def test_run_circuit_golden_digest():
    # Every circuit of all four variants, every position -2..n_gates+1 and
    # every 1- and 2-character local (a bad letter included), on the zero
    # frame and a seeded frame; then seeded lists of 2-4 valid injections.
    # The digest was captured from the per-family, per-gate-kind walk that
    # the single CNOT rule replaced.
    rng = random.Random(20261018)
    h = hashlib.sha256()
    circuits = tuple(
        c
        for fam in "zx"
        for c in level2_circuits(fam, True) + level2_circuits(fam, False)
        + level1_circuits(fam, True) + level1_circuits(fam, False)
    )
    assert len(circuits) == 96
    n = 0
    for c in circuits:
        frames = ((0, 0), (rng.getrandbits(49), rng.getrandbits(49)))
        for pos in range(-2, len(c.gates) + 2):
            for local in _LOCALS:
                for dx, dz in frames:
                    h.update(_digest_line(c, dx, dz, [(pos, local)]).encode())
                    n += 1
    for _ in range(4000):
        c = rng.choice(circuits)
        dx, dz = rng.getrandbits(49), rng.getrandbits(49)
        injections = []
        for _ in range(rng.randint(2, 4)):
            pos = rng.randint(-1, len(c.gates))
            if pos in (-1, len(c.gates)) and (c.flag_bit is None or rng.random() < 0.5):
                local = rng.choice("IXYZ")
            else:
                local = rng.choice(_GATE_LOCALS)
            injections.append((pos, local))
        h.update(_digest_line(c, dx, dz, injections).encode())
        n += 1
    assert n == 72400
    assert h.hexdigest() == (
        "b71ed04f070492193d46d5110a2eb98cfa55c960140a0ae0b75549d2cf5015cb"
    )


def _xor_results(results):
    out = (0, 0, 0, 0)
    for r in results:
        out = tuple(a ^ b for a, b in zip(out, r))
    return out


def test_run_circuit_is_linear_in_frame_and_injections():
    # A run on the zero frame starts at its first injection, so several
    # injections there must still add up to their single runs, and a
    # nonzero frame must add the frame's own fault-free run.
    rng = random.Random(20261019)
    circuits = list(circuits_by_name().values())
    assert len(circuits) == 96
    for c in circuits:
        n_gates = len(c.gates)
        for _ in range(25):
            injections = []
            for _ in range(rng.randint(2, 4)):
                pos = rng.randint(-1, n_gates)
                if pos in (-1, n_gates) and (c.flag_bit is None or rng.random() < 0.5):
                    local = rng.choice("XYZ")
                else:
                    local = rng.choice(_GATE_LOCALS[1:])  # no "II"
                injections.append((pos, local))
            alone = _xor_results(run_circuit(c, injections=[i]) for i in injections)
            assert tuple(run_circuit(c, injections=injections)) == alone, (
                c.name, injections,
            )
            dx, dz = rng.getrandbits(49), rng.getrandbits(49)
            assert tuple(run_circuit(c, dx, dz, injections)) == _xor_results(
                [run_circuit(c, dx, dz), alone]
            ), (c.name, injections, dx, dz)


# --- fault sets -----------------------------------------------------------------------


def test_fault_set_composition_parity():
    atoms = _atoms(fault_model().gate1, "z1")
    # Z-family faults leave no data X and never flip the outcome
    assert all(r.data_x == 0 and r.outcome == 0 for r in _z_units("z1"))
    # a single fault never cancels; two distinct ones never do either
    assert all((a.error, a.flag) != (0, 0) for a in atoms)
    for a, b in itertools.combinations(atoms, 2):
        assert (a.error ^ b.error, a.flag ^ b.flag) != (0, 0)
