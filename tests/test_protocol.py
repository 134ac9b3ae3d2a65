"""Protocol engine: round execution, stabilization, decoding, and the
two fault-tolerance conditions under injected fault schedules."""

import functools
import hashlib
import itertools
import random
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from wpec import circuits, codes, decoder, protocol, verifier
from wpec.codes import (
    LOGICAL49,
    N49,
    STAB7,
    block_parity,
    level1_syndrome,
    level2_syndrome,
    min_coset_weight,
    syndrome7,
    tau_from_syndrome,
)
from wpec.decoder import LOGICAL_REP7, build_correction_table, wpec_steane
from wpec.pauli import PauliOp, identity, parity
from wpec.protocol import (
    OutcomeBundle,
    ScheduledFault,
    Trial,
    check_ftec_conditions,
    decode_with_report,
    exhaustive_input_trials,
    format_schedule,
    joint_coset_weight,
    parse_fault,
    parse_schedule,
    run_round,
    run_trial,
    run_until_stable,
    sample_trials,
    _PHASE_FIELD,
)
from wpec.circuits import circuit_phases, circuits_by_name, level1_circuits, run_circuit
from wpec.verifier import _BIT, _CELL, _PART, build_lookup_table


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def table():
    return build_lookup_table(3)


# --- rounds and stabilization -------------------------------------------------


def _word(dx=0, dz=0, f_x=0, f_z=0) -> int:
    """The state word of a frame and flags, in protocol's own layout."""
    return (protocol._residue(dx, dz) >> protocol._OUT
            | f_x << protocol._F_X - protocol._OUT
            | f_z << protocol._F_Z - protocol._OUT)


def _frame(word) -> PauliOp:
    """The data error of a state word."""
    d = word >> protocol._D_X - protocol._OUT
    return PauliOp(N49, d & LOGICAL49, d >> N49)


def _linear_round(state, faults):
    """``protocol.run_round`` on a (dx, dz, f_x, f_z) state, its packed
    observation unpacked by ``protocol._bundle``.  The word it returns
    must equal the word built afresh from its frame and flags: the
    syndromes it carries by linearity are the frame's."""
    effect = 0
    for f in faults:
        effect ^= protocol._effect(f)
    word, obs = protocol.run_round(_word(*state), effect)
    # 48 outcome bits and 42 flags, each a bundle bit: equal observations
    # are equal bundles
    assert obs >> 90 == 0
    bundle = protocol._bundle(obs)
    frame = _frame(word)
    state = (frame.x_bits, frame.z_bits, bundle.f_x, bundle.f_z)
    assert word == _word(*state)
    return state, bundle


def _round_log(schedule, n, input_error=identity(N49)):
    """The bundles of the first n rounds, every one simulated."""
    state, log = (input_error.x_bits, input_error.z_bits, 0, 0), []
    for rnd in range(n):
        state, bundle = _linear_round(state, [f for f in schedule if f.round == rnd])
        log.append(bundle)
    return log


def test_clean_run_four_zero_rounds():
    bundle, rounds, word = run_until_stable(identity(N49))
    assert rounds == 4
    assert bundle == OutcomeBundle()
    assert _frame(word) == identity(N49)
    assert _round_log((), 4) == [OutcomeBundle()] * 4


def test_block_logical_input_bundle():
    # Z on every qubit of the first subblock anticommutes with the first
    # outer X generator only and leaves all inner syndromes clean
    bundle, rounds, _ = run_until_stable(PauliOp.z_op(N49, 127))
    assert rounds == 4
    assert bundle.stilde_x == 1
    assert bundle.tau_x == 0
    assert bundle.s_x == 0 and bundle.s_z == 0 and bundle.f == 0


def test_flag_fault_changes_f_only():
    schedule = parse_schedule("1 flag x 7")
    bundle, rounds, _ = run_until_stable(identity(N49), schedule)
    log = _round_log(schedule, 3)
    assert rounds == 5
    assert log[0] == OutcomeBundle()
    assert log[1].f_x == 1 << 7
    assert (log[1].s_x, log[1].s_z, log[1].stilde, log[1].tau) == (0, 0, 0, 0)
    assert log[2] == log[1] == bundle  # cumulative flags persist


def test_meas_fault_is_transient():
    schedule = parse_schedule("1 meas sx 4")
    bundle, rounds, _ = run_until_stable(identity(N49), schedule)
    log = _round_log(schedule, 3)
    assert rounds == 6
    assert log[1].s_x == 1 << 4
    assert log[2] == log[0] == bundle == OutcomeBundle()


def test_persistent_fault_in_round_two_stabilizes_by_six():
    bundle, rounds, _ = run_until_stable(identity(N49), parse_schedule("2 wait 5 Z"))
    assert rounds == 6
    assert bundle.tau_x == 1


def test_adversarial_transients_need_all_sixteen_rounds():
    # a measurement flip restarts the identical-streak, so flips in
    # rounds 3, 7 and 11 push stabilization to the designed bound
    schedule = parse_schedule("3 meas sx 0\n7 meas sx 1\n11 meas sx 2")
    bundle, rounds, _ = run_until_stable(identity(N49), schedule)
    assert rounds == 16
    assert bundle == OutcomeBundle()


def test_beyond_budget_transients_raise():
    sch = parse_schedule("3 meas sx 0\n7 meas sx 0\n11 meas sx 0\n15 meas sx 0")
    with pytest.raises(RuntimeError, match="16 rounds"):
        run_until_stable(identity(N49), sch)


def test_wait_fault_phase_ordering():
    # injected before phase 2, so the outer X measurement of the same
    # round (phase 1) still sees nothing while the inner one (phase 3)
    # already reports it
    schedule = parse_schedule("0 wait 1 Z 2")
    _, rounds, _ = run_until_stable(identity(N49), schedule)
    log = _round_log(schedule, 2)
    assert log[0].s_x == 1 and log[0].stilde_x == 0
    assert log[1].s_x == 1 and log[1].stilde_x == 1
    assert rounds == 5


def test_ancilla_fault_mid_circuit_raises_flag_and_spreads():
    # ancilla Z between the two flag couplings of an inner Z circuit
    # flips that circuit's flag and walks onto the last three data qubits
    bundle, rounds, word = run_until_stable(
        identity(N49), parse_schedule("0 gate z1 1 ZI")
    )
    frame = _frame(word)
    assert bundle.f_x == 1
    assert bundle.f_z == 0
    c = level1_circuits("z")[0]
    spread = PauliOp.z_op(N49, c.support & ~(1 << c.gates[0]))
    assert frame == spread
    assert bundle.s_x == level1_syndrome(spread.z_bits)


# --- bundle and schedule text forms -------------------------------------------


def test_bundle_text_roundtrip():
    b = OutcomeBundle(
        s_x=0b101, s_z=1 << 20, stilde_x=5, stilde_z=2, f_x=1 << 7, f_z=1,
    )
    assert OutcomeBundle.parse(b.render()) == b
    assert OutcomeBundle.parse(b.render() + "\n# comment\n") == b
    for trial in sample_trials(200, seed=9):
        b = run_until_stable(trial.input_error, trial.schedule)[0]
        assert OutcomeBundle.parse(b.render()) == b


def test_bundle_parse_rejects_malformed():
    good = OutcomeBundle().render()
    with pytest.raises(ValueError, match="missing"):
        OutcomeBundle.parse("\n".join(good.splitlines()[:-1]))
    with pytest.raises(ValueError, match="unknown"):
        OutcomeBundle.parse(good + "sx: 000\n")
    with pytest.raises(ValueError, match="bits"):
        OutcomeBundle.parse(good.replace("tau: 0", "tau: "))
    with pytest.raises(ValueError, match="duplicate"):
        OutcomeBundle.parse(good + good.splitlines()[0] + "\n")


def test_bundle_tau_is_derived_from_s():
    assert len(OutcomeBundle._fields) == 6
    rng = random.Random(14)
    for _ in range(200):
        s_x, s_z = rng.getrandbits(21), rng.getrandbits(21)
        b = OutcomeBundle(s_x=s_x, s_z=s_z)
        assert (b.tau_x, b.tau_z) == (tau_from_syndrome(s_x), tau_from_syndrome(s_z))
        assert b.tau == b.tau_x | b.tau_z << 7
    # tau is a function of s_x and s_z; a bundle whose tau line disagrees
    # is rejected, not decoded with the given tau
    good = OutcomeBundle(s_x=1 << 6, stilde_x=5).render()
    assert "tau: 00100000000000\n" in good
    bad = good.replace("tau: 00100000000000", "tau: 11111111111111")
    with pytest.raises(ValueError) as exc:
        OutcomeBundle.parse(bad)
    assert str(exc.value) == (
        "tau 11111111111111 does not match the syndromes s_x, s_z "
        "(tau 00100000000000)"
    )


def test_fault_text_roundtrip():
    text = (
        "0 gate z~1 -1 Z\n"
        "2 gate x3 4 ZI\n"
        "1 wait 15 Z 2\n"
        "0 flag x 7\n"
        "3 meas s2x 1\n"
        "1 wait 3 Y 0\n"
    )
    sch = parse_schedule(text)
    assert format_schedule(sch) == text
    assert parse_schedule(format_schedule(sch)) == sch


def test_schedule_comments_and_blanks_ignored():
    text = (
        "# header comment\n"
        "\n"
        "0 gate z~1 -1 Z   # boundary fault\n"
        "1 wait 15 Z 2\n"
    )
    sch = parse_schedule(text)
    assert format_schedule(sch) == "0 gate z~1 -1 Z\n1 wait 15 Z 2\n"


@pytest.mark.parametrize(
    "line",
    [
        "0 gate nope 0 ZI",        # unknown circuit
        "0 gate z1 99 ZI",         # position out of range
        "0 gate z1 2 Z",           # one-character local mid-circuit
        "0 gate z~1 -1 IZ",        # outer circuits have no flag wire
        "0 gate z~1# -1 IZ",       # nor have their controls
        "0 gate z1# -1 IZ",        # a flagless inner circuit has no flag wire
        "0 gate z1# 5 ZI",         # and 4 gates
        "0 gate z1 2 II",          # identity is not a fault
        "0 gate z1 2 ZQ",          # bad Pauli letter
        "0 wait 50 Z",             # qubit out of range
        "0 wait 3 W",              # bad Pauli
        "0 wait 3 Z 4",            # phase out of range
        "0 flag y 3",              # no such side
        "0 flag x 21",             # bit out of range
        "0 meas s2x 3",            # bit out of range for a 3-bit field
        "0 meas sq 0",             # unknown field
        "-1 flag x 0",             # negative round
        "0 frob x 0",              # unknown kind
        "0 gate",                  # too short
    ],
)
def test_fault_parse_rejects(line):
    with pytest.raises(ValueError):
        parse_fault(line)


@pytest.mark.parametrize(
    "line, word",
    [
        ("x gate z1 1 XI", "x"),     # round
        ("0 gate z1 one XI", "one"),  # position
        ("0 flag x 2.5", "2.5"),      # bit
    ],
)
def test_fault_parse_names_a_non_integer_word_and_its_line(line, word):
    with pytest.raises(ValueError) as err:
        parse_fault(line)
    assert str(err.value) == f"not an integer: {word!r} in fault line {line!r}"


def test_boundary_flag_wire_fault_allowed():
    f = parse_fault("0 gate z1 -1 IZ")
    assert f.local == "IZ" and f.position == -1
    with pytest.raises(ValueError) as err:
        parse_fault("0 gate z~1 -1 IZ")
    assert str(err.value) == "z~1 has no fault 'IZ' at position -1: '0 gate z~1 -1 IZ'"


def test_parse_fault_agrees_with_run_circuit():
    # a gate fault line parses exactly when run_circuit takes the injection
    # and the local error is not the identity, on the circuits of all four
    # families; the lines it takes are the walk's gate lines of the real
    # and the all-control family, which hold every circuit once
    locals_ = tuple("IXYZQ") + tuple(a + b for a in "IXYZQ" for b in "IXYZQ")
    n = disagree = 0
    accepted = []
    for c in circuits_by_name().values():
        for pos in range(-2, len(c.gates) + 2):
            for local in (*locals_, "ZZZ"):
                try:
                    run_circuit(c, injections=[(pos, local)])
                    want = set(local) != {"I"}
                except ValueError:
                    want = False
                try:
                    accepted.append(str(parse_fault(f"0 gate {c.name} {pos} {local}")))
                    got = True
                except ValueError:
                    got = False
                n += 1
                disagree += got != want
    assert (n, disagree, len(accepted)) == (35340, 0, 13176)
    assert accepted == _fault_lines()["gate"] + _fault_lines(0, False, False)["gate"]


# --- decoding ------------------------------------------------------------------


def test_decode_all_zero_is_identity(table):
    corr, rep = decode_with_report(OutcomeBundle(), table)
    assert corr.weight() == 0
    assert not rep.fallback_used
    assert rep.z_step3_block is None


def test_decode_weight_two_pair_exactly(table):
    # Z on the first two qubits of subblock 5: clean outer syndrome,
    # one nontrivial subblock, even parity, fixed weight-2 correction
    e = PauliOp.z_op(N49, 0b11 << 28)
    bundle = run_until_stable(e)[0]
    assert bundle.stilde_x == 0
    assert bundle.tau_x == 1 << 4
    corr, rep = decode_with_report(bundle, table)
    assert corr == e
    assert rep.z_parity == 0
    assert not rep.fallback_used


def test_decode_single_qubit(table):
    e = PauliOp.z_op(N49, 1 << 14)
    bundle = run_until_stable(e)[0]
    assert (bundle.stilde_x, bundle.tau_x) == (5, 4)
    assert decode_with_report(bundle, table)[0] == e


def test_decode_x_side_mirrors(table):
    e = PauliOp(N49, 1 << 14)
    bundle = run_until_stable(e)[0]
    assert (bundle.stilde_z, bundle.tau_z) == (5, 4)
    assert bundle.s_x == 0
    assert decode_with_report(bundle, table)[0] == e


def _witness_for_group(stilde: int, tau: int) -> PauliOp:
    """A Z error observing exactly (stilde, tau): one weight-1 hit per
    nontrivial subblock, plus one full subblock to fix the outer
    syndrome."""
    mask = 0
    par = 0
    for b in range(7):
        if (tau >> b) & 1:
            mask |= 1 << (7 * b)
            par ^= 1 << b
    need = stilde ^ syndrome7(par)
    if need:
        b_fix = next(
            b for b in range(7)
            if syndrome7(1 << b) == need and not (tau >> b) & 1
        )
        mask |= 127 << (7 * b_fix)
    return PauliOp.z_op(N49, mask)


def test_decode_out_of_table_fallback(table):
    # observations no combination of <=3 faults can produce: the decoder
    # takes the all-ones parity and the outer fix-up, and always lands
    # back in the codespace
    present = {((k >> 56) & 7, (k >> 49) & 0x7F) for k in table.keys}
    missing = [
        (st, tau)
        for st in range(8)
        for tau in range(128)
        if (st, tau) not in present
    ]
    assert missing, "every group reachable; fallback untestable"
    for st, tau in missing[:3]:
        e = _witness_for_group(st, tau)
        bundle, _, word = run_until_stable(e)
        frame = _frame(word)
        assert (bundle.stilde_x, bundle.tau_x) == (st, tau)
        corr, rep = decode_with_report(bundle, table)
        assert rep.z_fallback
        assert rep.z_parity == 127
        assert rep.z_step3_block is not None
        residual = PauliOp(N49, frame.x_bits ^ corr.x_bits, frame.z_bits ^ corr.z_bits)
        for bits in (residual.x_bits, residual.z_bits):  # in the codespace
            assert level1_syndrome(bits) == level2_syndrome(bits) == 0
        # a stabilizer, or a logical at the code distance
        assert joint_coset_weight(residual) in ((0, 0), (9, 0))


def test_decode_heavy_error_in_table_is_benign(table):
    # Z over four whole subblocks in a pattern outside the outer
    # stabilizer span: the observation coincides with a three-wait inner
    # logical, so the lookup answers and the residual is a pure logical
    e = PauliOp.z_op(N49, (1 << 28) - 1)
    bundle, _, word = run_until_stable(e)
    frame = _frame(word)
    assert (bundle.stilde_x, bundle.tau_x) == (5, 0)
    corr, rep = decode_with_report(bundle, table)
    assert not rep.fallback_used
    residual = PauliOp(N49, frame.x_bits ^ corr.x_bits, frame.z_bits ^ corr.z_bits)
    for bits in (residual.x_bits, residual.z_bits):  # in the codespace
        assert level1_syndrome(bits) == level2_syndrome(bits) == 0
    assert joint_coset_weight(residual) == (9, 0)


# --- residual classification ---------------------------------------------------


def test_joint_weight_of_logicals():
    zl = PauliOp.z_op(N49, LOGICAL49)
    xl = PauliOp(N49, LOGICAL49)
    yl = PauliOp(N49, LOGICAL49, LOGICAL49)
    for op in (zl, xl, yl):
        assert joint_coset_weight(op) == (9, 0)
    assert joint_coset_weight(identity(N49)) == (0, 0)


def test_joint_weight_matches_z_only_search():
    import random

    rng = random.Random(5)
    for _ in range(60):
        mask = rng.getrandbits(N49)
        op = PauliOp.z_op(N49, mask)
        exact, normalizer = joint_coset_weight(op)
        assert exact == min_coset_weight(mask)
        assert normalizer == min(exact, min_coset_weight(mask ^ LOGICAL49))


def test_joint_weight_small_errors():
    op = PauliOp(N49, 1 << 3, (1 << 3) | (1 << 40))
    assert joint_coset_weight(op) == (2, 2)


# --- fast path regression -------------------------------------------------------


def _reference_block_parity(mask: int) -> int:
    p = 0
    for b in range(7):
        p |= parity((mask >> (7 * b)) & 127) << b
    return p


def _reference_level1_syndrome(mask: int) -> int:
    s = 0
    for b in range(7):
        s |= syndrome7((mask >> (7 * b)) & 127) << (3 * b)
    return s


def _reference_tau(s21: int) -> int:
    t = 0
    for b in range(7):
        if (s21 >> (3 * b)) & 0b111:
            t |= 1 << b
    return t


def test_word_syndromes_match_per_block_loops():
    rng = random.Random(71)
    masks = [0, LOGICAL49] + [1 << q for q in range(N49)]
    masks += [rng.getrandbits(N49) for _ in range(5000)]
    masks += [m & rng.getrandbits(N49) for m in masks[-1000:]]  # sparser
    for m in masks:
        assert block_parity(m) == _reference_block_parity(m)
        assert level1_syndrome(m) == _reference_level1_syndrome(m)
        assert level2_syndrome(m) == syndrome7(_reference_block_parity(m))
    syndromes = [0, (1 << 21) - 1] + [1 << i for i in range(21)]
    syndromes += [7 << (3 * b) for b in range(7)]
    syndromes += [rng.getrandbits(21) for _ in range(5000)]
    for s21 in syndromes:
        assert tau_from_syndrome(s21) == _reference_tau(s21)


def _reference_phase_reads(dx: int, dz: int) -> int:
    """``protocol._phase_reads`` from the four syndromes of ``codes``."""
    return (level2_syndrome(dx) << protocol._S2Z | level2_syndrome(dz) << protocol._S2X
            | level1_syndrome(dx) << protocol._SZ | level1_syndrome(dz) << protocol._SX)


def test_chunked_phase_reads_match_syndromes():
    # every unit of the 98-bit data word dx | dz << 49, words that straddle,
    # end or start at each chunk boundary, and seeded pairs, every third
    # one Y-heavy (z mostly equal to x)
    n, chunk = 2 * N49, protocol._CHUNK
    words = [1 << k for k in range(n)]
    for b in range(chunk, n, chunk):
        words += [3 << b - 1, (1 << b) - 1, (1 << n) - (1 << b)]
    pairs = [(d & LOGICAL49, d >> N49) for d in words]
    rng = random.Random(74)
    for i in range(10_000):
        x = rng.getrandbits(N49)
        if i % 3:
            pairs.append((x, rng.getrandbits(N49)))
        else:
            sparse = rng.getrandbits(N49) & rng.getrandbits(N49) & rng.getrandbits(N49)
            pairs.append((x, x ^ sparse))
    assert len(protocol._read_chunks()) == 9
    for dx, dz in pairs:
        assert protocol._phase_reads(dx, dz) == _reference_phase_reads(dx, dz), (dx, dz)


@functools.cache
def _reference_block_corrections() -> tuple[tuple[int, ...], ...]:
    """``wpec_steane`` as a table per subblock: entry [b][2s + w] is the
    Z mask, shifted onto subblock b, of its correction for inner
    syndrome s and weight parity w."""
    ct = build_correction_table()
    flat = [wpec_steane(s, w, ct).z_bits for s in range(8) for w in (0, 1)]
    return tuple(tuple(m << (7 * b) for m in flat) for b in range(7))


def _reference_decode_side(s21, stilde, f21, table):
    """``protocol._decode_side`` as the loop over the seven subblocks."""
    parity = table.lookup_parity(stilde, s21, f21)
    fallback = parity is None
    if fallback:
        parity = 127
    mask, s, p = 0, s21, parity
    for block in _reference_block_corrections():
        mask |= block[(s & 7) << 1 | p & 1]
        s >>= 3
        p >>= 1
    residue = stilde ^ syndrome7(parity)
    step3 = None
    if residue:
        step3 = next(b for b in range(7) if syndrome7(1 << b) == residue)
        mask ^= LOGICAL_REP7 << (7 * step3)
    return mask, parity, fallback, step3


class _FixedParity:
    """A lookup table that answers every observation with one parity."""

    def __init__(self, parity):
        self.parity = parity

    def lookup_parity(self, stilde, s, f):
        return self.parity


def test_side_tables_match_block_loop():
    # every entry of the three tables, read through _decode_side with
    # entry 0 (the empty correction) from the other two and the outer
    # syndrome the parity implies
    low, mid, high = protocol._side_tables()
    assert (len(low), len(mid), len(high)) == (4096, 4096, 16)
    assert low[0] == mid[0] == high[0] == 0
    for n_blocks, first in ((3, 0), (3, 3), (1, 6)):
        for i in range(1 << 4 * n_blocks):
            s21 = (i >> n_blocks) << 3 * first
            parity = (i & (1 << n_blocks) - 1) << first
            args = (s21, syndrome7(parity), 0, _FixedParity(parity))
            assert protocol._decode_side(*args) == _reference_decode_side(*args)


def test_decode_with_report_matches_block_loop():
    # all 128 parities and the fallback on seeded bundles, half of them
    # with the outer syndrome the parity implies and half with a random
    # one, which takes step 3 unless it happens to agree
    rng = random.Random(76)
    step3 = Counter()
    for parity in (*range(128), None):
        table = _FixedParity(parity)
        for k in range(8):
            b = OutcomeBundle(*(rng.getrandbits(n) for n in (21, 21, 3, 3, 21, 21)))
            if k % 2:
                implied = syndrome7(127 if parity is None else parity)
                b = b._replace(stilde_x=implied, stilde_z=implied)
            zmask, *zrep = _reference_decode_side(b.s_x, b.stilde_x, b.f_x, table)
            xmask, *xrep = _reference_decode_side(b.s_z, b.stilde_z, b.f_z, table)
            assert decode_with_report(b, table) == (
                PauliOp(N49, xmask, zmask), protocol.DecodeReport(*zrep, *xrep))
            _, fallback, step3_block = zrep
            step3[step3_block is not None, fallback] += 1
    assert set(step3) == {(False, False), (True, False), (False, True), (True, True)}


def test_block_correction_table_matches_wpec_steane(monkeypatch):
    ct = build_correction_table()
    blocks = _reference_block_corrections()
    assert [len(block) for block in blocks] == [16] * 7
    for b, s, w in itertools.product(range(7), range(8), (0, 1)):
        assert blocks[b][2 * s + w] == wpec_steane(s, w, ct).z_bits << (7 * b)
    assert protocol._side_tables()[2] == blocks[6]

    # a Steane decode builds no Golay table
    def no_golay(*_):
        raise AssertionError("Golay syndrome computed for a Steane decode")

    monkeypatch.setattr(codes, "golay_syndrome", no_golay)
    monkeypatch.setattr(decoder, "golay_leaders", no_golay)
    # uncached build
    assert protocol._side_tables.__wrapped__() == protocol._side_tables()


def _reference_joint_coset_weight(op: PauliOp, include_logical: bool) -> int:
    """The per-block numpy gather the matrix-vector form replaced."""
    joint, bits, blocks = _reference_joint_block_table()
    sub = np.empty((7, 2, 2), dtype=np.int64)
    for b in range(7):
        sub[b] = joint[:, (op.x_bits >> (7 * b)) & 127, :, (op.z_bits >> (7 * b)) & 127]
    n = 16 if include_logical else 8
    w = sub[blocks[None, None, :], bits[:n, None, :], bits[None, :n, :]].sum(axis=2)
    return int(w.min())


@functools.cache
def _reference_joint_block_table():
    stab = np.array(STAB7, dtype=np.uint16)
    ar = np.arange(128, dtype=np.uint16)
    cand = np.empty((2, 128, 8), dtype=np.uint8)
    cand[0] = (ar[:, None] ^ stab[None, :]).astype(np.uint8)
    cand[1] = (ar[:, None] ^ (stab[None, :] ^ 127)).astype(np.uint8)
    a = cand[:, :, None, None, :, None]
    b = cand[None, None, :, :, None, :]
    joint = np.bitwise_count(a | b).min(axis=(4, 5)).astype(np.uint8)
    pats = np.concatenate([stab, stab ^ 127]).astype(np.uint8)
    bits = ((pats[:, None] >> np.arange(7)[None, :]) & 1).astype(np.int64)
    return joint, bits, np.arange(7)


def test_joint_weight_matches_per_block_gather():
    rng = random.Random(72)
    ops = [identity(N49), PauliOp(N49, LOGICAL49, 0), PauliOp(N49, 0, LOGICAL49)]
    for _ in range(1000):
        ops.append(protocol._random_input(rng, rng.randint(1, 14)))
        ops.append(PauliOp(N49, rng.getrandbits(N49), rng.getrandbits(N49)))
    for op in ops:
        assert joint_coset_weight(op) == (
            _reference_joint_coset_weight(op, include_logical=False),
            _reference_joint_coset_weight(op, include_logical=True),
        ), str(op)


def test_normalizer_residuals_match_per_block_gather(table):
    # the coset search on ops with all-zero syndromes, which run_trial
    # answers by its parity rule instead: products of the 24 + 24
    # generators times each logical class (x part odd or even, z part
    # likewise), and the residuals of sampled trials, against the
    # brute-force gather
    gens = codes.LEVEL1_GENS + codes.LEVEL2_GENS
    assert len(gens) == 24
    rng = random.Random(75)
    ops = []
    for _ in range(250):
        x = z = 0
        for g in gens:
            x ^= g * rng.getrandbits(1)
            z ^= g * rng.getrandbits(1)
        for cx, cz in itertools.product((0, LOGICAL49), repeat=2):
            ops.append(PauliOp(N49, x ^ cx, z ^ cz))
    classes = Counter()
    for op in ops:
        want = (
            _reference_joint_coset_weight(op, include_logical=False),
            _reference_joint_coset_weight(op, include_logical=True),
        )
        assert joint_coset_weight(op) == want, str(op)
        classes[want] += 1
    assert classes == {(0, 0): 250, (9, 0): 750}
    in_normalizer = 0
    for trial in sample_trials(300, seed=5):
        residual = run_trial(trial, table).residual
        in_normalizer += not protocol._phase_reads(residual.x_bits, residual.z_bits)
        assert joint_coset_weight(residual) == (
            _reference_joint_coset_weight(residual, include_logical=False),
            _reference_joint_coset_weight(residual, include_logical=True),
        ), trial.name
    assert in_normalizer == 299


def _reference_run_until_stable(input_error, schedule=(), step=_linear_round):
    """run_until_stable before the fault-free shortcut: every round is
    simulated by ``step``, ``protocol.run_round`` or the gate walk."""
    state, log = (input_error.x_bits, input_error.z_bits, 0, 0), []
    while len(log) < 16:
        state, bundle = step(state, [f for f in schedule if f.round == len(log)])
        log.append(bundle)
        if log[-4:] == [bundle] * 4:
            return bundle, len(log), _word(*state)
    raise RuntimeError("bundle failed to stabilize within 16 rounds")


def _stable_walk(run, input_error, schedule):
    try:
        return run(input_error, schedule)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 flag x 7",
        "1 meas sx 4",
        "2 wait 5 Z",
        "0 wait 1 Z 2\n4 meas s2z 1",  # fault-free gap between faults
        "0 gate z1 1 ZI\n3 gate x~2 9 XZ",
        "10 wait 1 Z",  # never executed
        "3 meas sx 0\n7 meas sx 1\n11 meas sx 2",  # needs all 16 rounds
        "3 meas sx 0\n7 meas sx 0\n11 meas sx 0\n15 meas sx 0",  # raises
    ],
)
def test_fault_free_rounds_match_round_by_round_walk(text):
    schedule = parse_schedule(text)
    for input_error in (identity(N49), PauliOp(N49, 1 << 3, 1 << 40)):
        got = _stable_walk(run_until_stable, input_error, schedule)
        assert got == _stable_walk(_reference_run_until_stable, input_error, schedule)
    if text.endswith("15 meas sx 0"):
        assert got == "bundle failed to stabilize within 16 rounds"


def test_fault_free_rounds_match_on_sampled_schedules():
    # gapped: a round the loop skips (neither it nor the round before has a
    # fault) comes before a fault in a round the loop runs, so the streak
    # must count across the skip and restart at the fault
    gapped = 0
    for trial in sample_trials(3000, seed=73, max_round=12):
        got = _stable_walk(run_until_stable, trial.input_error, trial.schedule)
        want = _stable_walk(_reference_run_until_stable, trial.input_error,
                            trial.schedule)
        assert got == want, (str(trial.input_error), format_schedule(trial.schedule))
        used = got[1] if isinstance(got, tuple) else 16
        faulty = {f.round for f in trial.schedule}
        skipped = [r for r in range(1, used) if r not in faulty and r - 1 not in faulty]
        gapped += any(r < q < used for r in skipped for q in faulty)
    assert gapped == 793


# --- trial records ----------------------------------------------------------------


def _records(table, trial):
    r = run_trial(trial, table)
    report = decode_with_report(r.bundle, table)[1]
    return r.bundle, report, r


def test_trial_records_are_immutable_values(table):
    trial = Trial(
        PauliOp.z_op(N49, 1 << 14), parse_schedule("1 gate z1 1 ZI"), name="r"
    )
    first, second = _records(table, trial), _records(table, trial)
    for rec, twin, name in zip(
        first, second, ("s_x", "z_parity", "rounds_used")
    ):
        assert rec is not twin
        assert rec == twin and hash(rec) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    bundle, report, result = first
    assert (bundle.f, report.fallback_used, result.ok) == (1, False, True)
    assert repr(OutcomeBundle()) == (
        "OutcomeBundle(s_x=0, s_z=0, stilde_x=0, stilde_z=0, f_x=0, f_z=0)"
    )
    assert repr(report) == (
        "DecodeReport(z_parity=5, z_fallback=False, z_step3_block=None, "
        "x_parity=0, x_fallback=False, x_step3_block=None)"
    )


# An X error on data qubit 4 before the last phase of round 3: the checks
# that see X errors (phases 0 and 2) have run, so round 3 repeats the
# clean bundle, four clean rounds are stable, and the error stays in the
# frame unseen.
_HIDDEN_FINAL_FAULT = "3 wait 4 X 3"


def _outcome_bits(bundle):
    """A bundle's 48 outcome bits, laid out as a state word's reads."""
    return (bundle.stilde_z << protocol._S2Z | bundle.stilde_x << protocol._S2X
            | bundle.s_z << protocol._SZ | bundle.s_x << protocol._SX)


def _check_one_read_verdict(trial, table):
    """Check run_trial's one read against what it replaced: weights from
    joint_coset_weight of the residual, consistency from the correction's
    reads against the bundle; and the stability lemma: unless a fault is
    scheduled in the last round, the stable bundle's outcome bits are the
    frame's reads.  Returns the result and whether one is."""
    r = run_trial(trial, table)
    bundle, rounds, word = run_until_stable(trial.input_error, trial.schedule)
    frame, c = _frame(word), r.correction
    assert (bundle, rounds) == (r.bundle, r.rounds_used)
    assert r.residual == PauliOp(N49, frame.x_bits ^ c.x_bits, frame.z_bits ^ c.z_bits)
    assert (r.weight_exact, r.weight_normalizer) == joint_coset_weight(r.residual)
    assert r.decode_consistent == (
        protocol._phase_reads(c.x_bits, c.z_bits) == _outcome_bits(bundle))
    reads = protocol._phase_reads(frame.x_bits, frame.z_bits)
    assert word & protocol._READS == reads
    in_last_round = any(f.round == rounds - 1 for f in trial.schedule)
    if not in_last_round:
        assert _outcome_bits(bundle) == reads, trial.name
    return r, in_last_round


def test_one_read_verdict_matches_the_old_composition(table):
    trials = (*sample_trials(2000, seed=31), *exhaustive_input_trials(3))
    in_last_round = sum(_check_one_read_verdict(t, table)[1] for t in trials)
    assert in_last_round == 35


def test_one_read_verdict_holds_on_every_single_fault_class(table):
    # the first line of every effect class of rounds 0-3 on the clean
    # input: the 280 runs with the fault in the last round are round 3's
    # 279 hidden nonzero classes and its zero-effect class
    firsts = [lines[0] for rnd in range(4) for lines in _effect_classes(rnd).values()]
    runs = [_check_one_read_verdict(Trial(identity(N49), parse_schedule(ln), ln), table)
            for ln in firsts]
    assert len(runs) == 13072
    assert [r.trial.name for r, _ in runs if not r.ok] == []
    last = [r.trial.name for r, in_last_round in runs if in_last_round]
    assert len(last) == 280 and {line.split()[0] for line in last} == {"3"}
    assert _effect_classes(3)[0][0] == "3 gate z~1 27 ZI"


def test_hidden_final_round_fault(table):
    trial = Trial(identity(N49), parse_schedule(_HIDDEN_FINAL_FAULT))
    bundle, rounds, word = run_until_stable(trial.input_error, trial.schedule)
    hidden = PauliOp(N49, 1 << 3)
    assert (bundle, rounds, _frame(word)) == (OutcomeBundle(), 4, hidden)
    assert _outcome_bits(bundle) == 0 != word & protocol._READS
    r = run_trial(trial, table)
    assert (r.correction, r.residual, r.decode_consistent) == (identity(N49), hidden, True)
    assert (r.weight_exact, r.weight_normalizer, r.v1, r.v2, r.ok) == (1, 1, 0, 1, True)


# Seven faults whose signatures XOR to the logical: the circuits' fault
# distance is 7, so A (4 faults) and B (3) leave bundles no decoder of
# them can tell apart, and only one of the two is corrected.
_A = ("0 gate z2 -1 IZ", "0 gate z2 2 ZI", "0 gate z4 3 IZ", "0 gate z~1 1 ZI")
_B = ("0 gate z10 3 IZ", "0 gate z~3 2 ZI", "0 gate z~2 5 ZI")


def test_seven_faults_reach_the_logical(table):
    a, b, both = (
        run_trial(Trial(identity(N49), parse_schedule("\n".join(lines))), table)
        for lines in (_A, _B, _A + _B)
    )
    assert (a.rounds_used, b.rounds_used, a.bundle) == (5, 5, b.bundle)
    assert not (a.fallback_used or b.fallback_used)
    assert (b.weight_exact, b.weight_normalizer, b.ok) == (0, 0, True)
    assert (a.weight_exact, a.weight_normalizer, a.v2) == (9, 0, 4)
    assert (a.condition1, a.condition2) == (None, None)
    assert (both.bundle, both.weight_exact, both.weight_normalizer) == (
        OutcomeBundle(), 9, 0)
    # the engine: the seven atoms' signatures XOR to L, no three or fewer
    # pool signatures do, and the first four that reach sig(B) ^ L are A
    labels = [f"G{circuits_by_name()[c].level}[{c}]@{pos}:{local}"
              for _, _, c, pos, local in (line.split() for line in _A + _B)]
    sig = {a.label: a.signature for a in verifier.fault_model().all_atoms()}
    logical = codes.PCANON[LOGICAL_REP7]
    assert functools.reduce(int.__xor__, (sig[x] for x in labels)) == logical
    sets, pool_labels = verifier._table_witnesses(True, True)
    assert sets.first(verifier._equal(logical), range(4)) is None
    sig_b = functools.reduce(int.__xor__, (sig[x] for x in labels[4:]))
    found = sets.first(verifier._equal(sig_b ^ logical), range(5))
    assert sorted(pool_labels[r] for r in found) == sorted(labels[:4])


def test_one_trial_reads_one_weight_pair_and_two_parities(table, monkeypatch):
    # the span tracer wraps these names; one trial is one weight call if
    # its residual has nonzero syndromes (none otherwise), one parity
    # lookup per side, one round call per simulated round (the first, and
    # each with a fault in it or in the round before, even faults whose
    # effects cancel) and, once the effect tables exist, no circuit run
    for name in circuits_by_name():
        protocol._circuit_effects(name)
    protocol._wait_effects()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        protocol, "joint_coset_weight", counting("weight", joint_coset_weight)
    )
    monkeypatch.setattr(
        verifier.LookupTable,
        "lookup_parity",
        counting("parity", verifier.LookupTable.lookup_parity),
    )
    monkeypatch.setattr(protocol, "run_round", counting("round", run_round))
    monkeypatch.setattr(circuits, "run_circuit", counting("circuit", run_circuit))
    cancelling = Trial(identity(N49), parse_schedule("1 meas sx 4\n1 meas sx 4"))
    hidden = Trial(identity(N49), parse_schedule(_HIDDEN_FINAL_FAULT))
    searched = Counter()
    for trial in (*sample_trials(50, seed=10), cancelling, hidden):
        calls.clear()
        r = run_trial(trial, table)
        faulty = {f.round for f in trial.schedule}
        simulated = sum(
            rnd == 0 or rnd in faulty or rnd - 1 in faulty
            for rnd in range(r.rounds_used)
        )
        search = bool(protocol._phase_reads(r.residual.x_bits, r.residual.z_bits))
        searched[search] += 1
        want = {"weight": search, "parity": 2, "round": simulated, "circuit": 0}
        assert calls == +Counter(want), trial.name
    assert searched == {False: 51, True: 1}


def test_circuit_effect_table_is_built_once_from_unit_faults(monkeypatch):
    # one run_circuit per wire and letter (X, Z) at each position: the
    # ancilla and the other wire mid-circuit and at a boundary with a flag
    # wire, the ancilla alone at a boundary without one; the fault model
    # and the protocol read the same unit table, so the real family costs
    # 2,040 runs for both, and a second use of a circuit builds nothing
    calls = Counter()

    def counting(c, *args, **kwargs):
        calls[c.name] += 1
        return run_circuit(c, *args, **kwargs)

    monkeypatch.setattr(circuits, "run_circuit", counting)
    circuits.unit_results.cache_clear()
    protocol._circuit_effects.cache_clear()
    verifier.fault_model.cache_clear()
    real = [c.name for ph in circuit_phases() for c in ph]
    for _ in range(2):
        verifier.fault_model()
        for name in real:
            protocol._circuit_effects(name)
        assert calls.total() == 2040
    for name in circuits_by_name():
        protocol._circuit_effects(name)
    for name, c in circuits_by_name().items():
        n_gates = len(c.gates)
        boundary = 4 if c.flag_bit is not None else 2
        assert calls[name] == 4 * n_gates + 2 * boundary, name
        assert len(protocol._circuit_effects(name)) == n_gates + 2
    assert sum(calls[name] for name in real) == 2040


# --- fault-tolerance conditions --------------------------------------------------


def test_last_round_fault_keeps_codeword(table):
    # a data X landing after the final round's X-detection phase is
    # invisible to the stable bundle; the output then carries a benign
    # weight-1 error and an ideal decode still returns the codeword
    trial = Trial(
        PauliOp(N49, 1 << 36),
        parse_schedule("3 gate x14 5 IX"),
        name="late-x",
    )
    r = run_trial(trial, table)
    assert r.rounds_used == 4
    assert r.v2 == 1
    assert (r.weight_exact, r.weight_normalizer) == (1, 1)
    assert any(  # outside the codespace
        level1_syndrome(b) or level2_syndrome(b)
        for b in (r.residual.x_bits, r.residual.z_bits)
    )
    assert r.condition1 is True and r.condition2 is True
    assert r.decode_consistent


def test_unexecuted_faults_do_not_count(table):
    trial = Trial(identity(N49), parse_schedule("10 wait 1 Z"), name="dead")
    r = run_trial(trial, table)
    assert r.rounds_used == 4
    assert r.v2 == 0
    assert r.condition1 is True
    assert r.residual.weight() == 0


def test_exhaustive_xyz_inputs_up_to_weight_two(table):
    # every X, Y and Z input of weight <= 2, no faults: the X and Y inputs
    # reach the X side that Z-only inputs never exercise
    def inputs():
        for w in range(3):
            for qubits in itertools.combinations(range(N49), w):
                for paulis in itertools.product("XYZ", repeat=w):
                    xm = zm = 0
                    for q, p in zip(qubits, paulis):
                        xm |= (p != "Z") << q
                        zm |= (p != "X") << q
                    yield Trial(PauliOp(N49, xm, zm), name=f"input:{qubits}{paulis}")

    report = check_ftec_conditions(inputs(), table=table)
    assert report.n_trials == 1 + 147 + 10584
    assert report.n_condition1 == report.n_trials
    assert report.n_fallback == 0
    assert report.max_rounds_used == 4
    assert report.ok, report.render()


@pytest.fixture(scope="module")
def criterion8_summary(table):
    """One pass over acceptance criterion 8's trials (the 10^4 sampled
    schedules, then all 19,650 Z inputs of weight <= 3): a digest of
    every trial's observable result, and the in-budget trials whose
    stable bundle is not a key of the budget-3 table on some side."""
    keys = table.keys

    def is_key(stilde, tau, s, f):
        # a key of this cell exists: the first key at or above the cell's
        # lowest one is in the cell
        low = (stilde << _BIT["stilde"] | tau << _BIT["tau"]
               | s << _BIT["s"] | f << _BIT["f"])
        lo = int(np.searchsorted(keys, np.uint64(low)))
        return lo < len(keys) and int(keys[lo]) >> _CELL == low >> _CELL

    digest = hashlib.sha256()
    in_budget, off_table = 0, []
    trials = itertools.chain(
        sample_trials(10000, seed=20260816), exhaustive_input_trials(3)
    )
    for trial in trials:
        r = run_trial(trial, table)
        digest.update(
            f"{r.rounds_used}|{r.bundle.render()}|{r.residual}|{r.weight_exact}|"
            f"{r.weight_normalizer}|{r.fallback_used}|{r.v1}|{r.v2}\n".encode()
        )
        if r.v1 + r.v2 <= 3:
            in_budget += 1
            b = r.bundle
            if r.fallback_used or not (
                is_key(b.stilde_x, b.tau_x, b.s_x, b.f_x)
                and is_key(b.stilde_z, b.tau_z, b.s_z, b.f_z)
            ):
                off_table.append(trial.name)
    return digest.hexdigest(), in_budget, off_table


def test_trial_golden_digest(criterion8_summary):
    # captured from the round-by-round engine before the fault-free
    # shortcut, the word-parallel syndromes and the table-driven decode
    assert criterion8_summary[0] == (
        "a3ad80e8786e04865a20b4264975b2e294cc01af54fd402f8d5d3e99ce584697"
    )


def test_benchmark_trial_stream_digest(table, monkeypatch):
    # the protocol benchmark checks only TrialResult.ok; every other field
    # of the first 1,000 trials of its seed-1 stream 0 is pinned here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from schedules import trial_texts

    digest = hashlib.sha256()
    for _, text, schedule in itertools.islice(trial_texts(1, 0), 1000):
        trial = Trial(PauliOp.from_string(text), parse_schedule(schedule))
        r = run_trial(trial, table)
        digest.update(("|".join(map(str, r[1:])) + "\n").encode())
    assert digest.hexdigest() == (
        "c4a17cfcdac6ea9d6904517be239ed5b7f7e33ba915eb4c8342f6881c68ecb3b"
    )


def test_in_budget_bundles_are_table_keys(criterion8_summary):
    # cross-model invariant: a stable bundle of at most three input
    # errors and faults is one the effect-level table build produced, so
    # the decode never falls back
    _, in_budget, off_table = criterion8_summary
    assert in_budget == 28650
    assert off_table == []


def test_sampled_schedules_hold_both_conditions(table):
    report = check_ftec_conditions(sample_trials(400, seed=11), table=table)
    assert report.ok, report.render()
    assert report.n_trials == 400
    assert report.n_condition2 == 400
    assert report.n_condition1 < 400  # heavy inputs skip condition 1
    assert report.max_rounds_used <= 16
    assert "failures: 0" in report.render()


def test_sampler_is_deterministic():
    a = list(sample_trials(25, seed=3))
    b = list(sample_trials(25, seed=3))
    c = list(sample_trials(25, seed=4))
    assert a == b
    assert a != c
    heavy = [t for t in a if t.input_error.weight() >= 8]
    assert heavy, "sampler lost its heavy-input trials"


def test_sampled_schedules_replay_from_text(table):
    for trial in itertools.islice(sample_trials(12, seed=2), 12):
        replay = Trial(
            trial.input_error, parse_schedule(format_schedule(trial.schedule))
        )
        assert run_trial(replay, table).bundle == run_trial(trial, table).bundle


def test_failure_rendering_carries_witness(table):
    trial = Trial(
        PauliOp.z_op(N49, 1), parse_schedule("0 flag x 3\n1 wait 9 Y"),
        name="demo",
    )
    text = run_trial(trial, table).render()
    assert "demo" in text
    assert "0 flag x 3" in text and "1 wait 9 Y" in text
    assert "v1=1 v2=2" in text


# --- the gate-by-gate round walk as the oracle of run_round --------------------


def _reference_run_round(state, faults, phases=circuit_phases()):
    """The round as a walk over the 48 circuits of one family (``phases``,
    the real one by default) on a (dx, dz, f_x, f_z) state, kept as the
    oracle of the linear run_round: circuits with an injected fault run
    gate by gate on the current frame, the others by the support-mask
    parity.  Returns the next state and the round's bundle."""
    dx, dz, f_x, f_z = state
    waits: dict[int, list[ScheduledFault]] = defaultdict(list)
    gate_inj: dict[str, list[tuple[int, str]]] = defaultdict(list)
    meas_flips: dict[str, int] = defaultdict(int)
    for f in faults:
        if f.kind == "wait":
            waits[f.phase].append(f)
        elif f.kind == "gate":
            gate_inj[f.circuit].append((f.position, f.local))
        elif f.kind == "meas":
            meas_flips[f.meas_field] ^= 1 << f.bit
        elif f.kind == "flag":
            if f.side == "x":
                f_x ^= 1 << f.bit
            else:
                f_z ^= 1 << f.bit
        else:
            raise ValueError(f"unknown fault kind {f.kind!r}")

    outcomes = dict.fromkeys(_PHASE_FIELD, 0)
    for phase, circuits in enumerate(phases):
        for w in waits.get(phase, ()):
            q = w.qubit - 1
            if w.local in ("X", "Y"):
                dx ^= 1 << q
            if w.local in ("Z", "Y"):
                dz ^= 1 << q
        fld = _PHASE_FIELD[phase]
        for c in circuits:
            inj = gate_inj.get(c.name)
            if inj:
                res = run_circuit(c, dx, dz, injections=inj)
                dx, dz = res.data_x, res.data_z
                out, flg = res.outcome, res.flag
            else:
                src = dx if c.family == "z" else dz
                out, flg = (src & c.support).bit_count() & 1, 0
            outcomes[fld] |= out << c.index
            if flg and c.flag_bit is not None:
                if c.family == "z":
                    f_x ^= 1 << c.flag_bit
                else:
                    f_z ^= 1 << c.flag_bit
    for fld, mask in meas_flips.items():
        outcomes[fld] ^= mask

    bundle = OutcomeBundle(
        s_x=outcomes["sx"],
        s_z=outcomes["sz"],
        stilde_x=outcomes["s2x"],
        stilde_z=outcomes["s2z"],
        f_x=f_x,
        f_z=f_z,
    )
    return (dx, dz, f_x, f_z), bundle


@functools.lru_cache(maxsize=None)
def _fault_lines(rnd=0, flagged=True, interleaved=True) -> dict[str, list[str]]:
    """Every single-fault line of round ``rnd``, by kind: the gate faults
    on the circuits of one family, and flag faults only where the family
    has flags, as in its fault model."""
    lines = {
        "gate": [f"{rnd} gate {c.name} {pos} {local}"
                 for phase in circuit_phases(flagged, interleaved) for c in phase
                 for pos in range(-1, len(c.gates) + 1)
                 for local in protocol._fault_locals(c, pos)],
        "wait": [f"{rnd} wait {q} {p} {phase}" for q in range(1, N49 + 1)
                 for p in protocol._PAULIS for phase in range(4)],
        "flag": [f"{rnd} flag {side} {bit}" for side in "xz" for bit in range(21)],
        "meas": [f"{rnd} meas {fld} {bit}"
                 for fld, width in protocol._MEAS_WIDTH.items() for bit in range(width)],
    }
    if not flagged:
        del lines["flag"]
    return lines


@functools.lru_cache(maxsize=None)
def _effect_classes(rnd) -> dict[int, list[str]]:
    """The single-fault lines of round ``rnd`` on the real family, grouped
    by effect word, each class in line order."""
    classes = defaultdict(list)
    for kind_lines in _fault_lines(rnd).values():
        for line in kind_lines:
            classes[protocol._effect(parse_fault(line))].append(line)
    return classes


def test_effect_classes_stand_for_their_lines(table):
    # a trial reads its faults only through their effect words: the 8,526
    # single-fault lines of a round fall into 3,268 classes, and on the
    # clean input a sampled line of rounds 0-3 gives its class's first
    # line's result in every field but the trial
    rng = random.Random(77)

    @functools.cache
    def result(line):
        return run_trial(Trial(identity(N49), parse_schedule(line)), table)[1:]

    for rnd in range(4):
        classes = _effect_classes(rnd)
        assert (len(classes), sum(map(len, classes.values()))) == (3268, 8526)
        others = [(line, lines[0]) for lines in classes.values() for line in lines[1:]]
        for line, first in rng.sample(others, 500):
            assert result(line) == result(first), (line, first)


@pytest.mark.parametrize(
    "flagged, interleaved, pool_size",
    [(True, True, 208), (True, False, 196), (False, True, 145), (False, False, 124)],
)
def test_effect_words_project_onto_the_fault_model_pool(
    flagged, interleaved, pool_size
):
    # the atom map: every round-0 fault line's effect word, cut to (data Z,
    # f_x) and to (data X, f_z) and packed as a table signature, is 0 or a
    # signature of the Z-side fault model's pool, and each side covers the
    # pool.  So the model's restriction to Z-type locals in Z-family
    # circuits loses nothing, and the X side has the same pool.
    pool = set(verifier.fault_model(flagged, interleaved).signature_pool().tolist())
    assert len(pool) == pool_size
    effects = [protocol._effect(parse_fault(line))
               for lines in _fault_lines(0, flagged, interleaved).values()
               for line in lines]
    mask49, mask21 = (1 << N49) - 1, (1 << 21) - 1
    for d, f in ((protocol._D_Z, protocol._F_X), (protocol._D_X, protocol._F_Z)):
        sigs = {verifier.pack_signature(e >> d & mask49, e >> f & mask21) for e in effects}
        assert sigs - {0} == pool


def _assert_round_matches_reference(
    schedule, dx, dz, f_x, f_z, phases=circuit_phases()
):
    state = (dx, dz, f_x, f_z)
    assert _linear_round(state, schedule) == _reference_run_round(
        state, schedule, phases
    ), format_schedule(schedule)


@pytest.mark.parametrize(
    "flagged, interleaved, seed, n_gate_lines",
    [(True, True, 61, 7848), (False, True, 63, 5328), (True, False, 63, 7848),
     (False, False, 63, 5328)],
)
def test_run_round_matches_reference_on_every_single_fault(
    flagged, interleaved, seed, n_gate_lines
):
    # on each family, whose control circuits reach their effect tables
    # only through these lines and the failure counts below
    lines = _fault_lines(0, flagged, interleaved)
    counts = {kind: len(v) for kind, v in lines.items()}
    flags = {"flag": 42} if flagged else {}
    assert counts == {"gate": n_gate_lines, "wait": 588, **flags, "meas": 48}
    phases = circuit_phases(flagged, interleaved)
    rng = random.Random(seed)
    frames = ((0, 0, 0, 0), tuple(rng.getrandbits(n) for n in (49, 49, 21, 21)))
    for kind_lines in lines.values():
        for line in kind_lines:
            schedule = parse_schedule(line)
            assert format_schedule(schedule) == line + "\n"  # it prints back
            for frame in frames:
                _assert_round_matches_reference(schedule, *frame, phases=phases)


def test_run_round_matches_reference_on_multi_fault_rounds():
    lines = _fault_lines()
    pool = [line for kind_lines in lines.values() for line in kind_lines]
    by_circuit = defaultdict(list)
    for line in lines["gate"]:
        by_circuit[line.split()[2]].append(line)
    names = sorted(by_circuit)
    rng = random.Random(62)
    for i in range(3000):
        if i % 3 == 0:  # several faults inside one circuit
            picks = rng.sample(by_circuit[rng.choice(names)], rng.randint(2, 3))
        else:
            picks = rng.sample(pool, rng.randint(2, 3))
        schedule = parse_schedule("\n".join(picks))
        frame = tuple(rng.getrandbits(n) for n in (49, 49, 21, 21))
        _assert_round_matches_reference(schedule, *frame)


def _trial_outputs(trials, table):
    return [
        (r.rounds_used, r.bundle, r.residual)
        for r in (run_trial(t, table) for t in trials)
    ]


def test_trials_match_reference_walk(table, monkeypatch):
    # the first 2,000 of acceptance criterion 8's sampled schedules and
    # every input of weight <= 2, run with either round engine
    trials = list(itertools.islice(sample_trials(10000, seed=20260816), 2000))
    trials += list(exhaustive_input_trials(2))
    got = _trial_outputs(trials, table)
    monkeypatch.setattr(
        protocol,
        "run_until_stable",
        functools.partial(_reference_run_until_stable, step=_reference_run_round),
    )
    assert got == _trial_outputs(trials, table)


# --- negative controls at gate level -----------------------------------------

# (flagged, interleaved) -> (round-3 single-fault trials, failures by kind)
_CONTROL_FAILURES = {
    (True, True): (8526, {}),
    (False, True): (5964, {"gate": 84}),
    (True, False): (8526, {"gate": 2093, "wait": 231}),
    (False, False): (5964, {"gate": 1889, "wait": 231}),
}


def _partition_tags(table):
    """A function from a bundle to the table's group tags of its (stilde,
    tau) partition on the Z side and on the X side (None for no group)."""
    tags = dict(zip(table._group_high.tolist(), table.group_tags()))

    def part(stilde, tau):  # key >> _PART
        return (stilde << _BIT["stilde"] | tau << _BIT["tau"]) >> _PART

    return lambda b: (tags.get(part(b.stilde_x, b.tau_x)),
                      tags.get(part(b.stilde_z, b.tau_z)))


@pytest.mark.parametrize("flagged, interleaved", list(_CONTROL_FAILURES))
def test_single_faults_fail_only_on_control_circuits(flagged, interleaved):
    # every single fault of round 3 on a clean input, decoded with the
    # table built for the same family
    lines = [line for ls in _fault_lines(3, flagged, interleaved).values() for line in ls]
    table = build_lookup_table(3, flagged=flagged, interleaved=interleaved)
    results = [run_trial(Trial(identity(N49), parse_schedule(ln), ln), table)
               for ln in lines]
    failures = [r for r in results if not r.ok]
    partition_tags = _partition_tags(table)
    n_trials, by_kind = _CONTROL_FAILURES[flagged, interleaved]
    assert len(results) == n_trials
    assert Counter(r.trial.schedule[0].kind for r in failures) == by_kind
    for r in failures:
        assert r.decode_consistent, r.trial.name
        if r.condition1 is False:
            # the effect-level audit flags the partition it decoded from
            assert "!" in partition_tags(r.bundle), r.trial.name
    if not flagged and interleaved:
        # flagless inner circuits fail condition 2 alone, with residual
        # weight 2, in partitions the audit tags uniform on both sides:
        # only the gate-level check sees these failures
        assert {(r.condition1, r.condition2, r.weight_exact, r.weight_normalizer,
                 partition_tags(r.bundle)) for r in failures} == {
            (True, False, 2, 2, ("1", "1"))
        }


@pytest.mark.parametrize(
    "text, flagged, interleaved, conditions",
    [
        ("3 gate x1# 1 XI   # flagless inner circuit", False, True, (True, False)),
        ("3 gate z~1# 14 IX # ascending outer circuit", True, False, (False, True)),
        ("3 wait 22 X 0", True, False, (False, True)),
    ],
)
def test_negative_control_failures_replay_from_text(
    text, flagged, interleaved, conditions
):
    schedule = parse_schedule(text)
    assert len(schedule) == 1
    control = build_lookup_table(3, flagged=flagged, interleaved=interleaved)
    r = run_trial(Trial(identity(N49), schedule), control)
    assert (r.condition1, r.condition2) == conditions
    if schedule[0].kind == "wait":
        # no control circuit runs: the control table alone fails
        assert run_trial(Trial(identity(N49), schedule), build_lookup_table(3)).ok


def test_report_counts_every_failure():
    # the report keeps the first failures, but counts them all
    lines = _fault_lines(3)["wait"]
    report = check_ftec_conditions(
        (Trial(identity(N49), parse_schedule(ln), ln) for ln in lines),
        table=build_lookup_table(3, interleaved=False),
    )
    assert (report.n_trials, report.n_failures, len(report.failures)) == (588, 231, 20)
    assert not report.ok
    assert "\nfailures: 231 (20 shown)\n" in report.render()
