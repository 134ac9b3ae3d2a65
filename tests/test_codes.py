"""Code-construction tests.

The coset-minimization scheme is certified here against a full numpy
scan of all 2^24 Z-type stabilizers of the 49-qubit code, and the Golay
builder is pinned to a hand-copied matrix row so a polynomial
orientation mistake cannot slip through.
"""

import random

import numpy as np
import pytest

from wpec import codes
from wpec.codes import (
    GEN7,
    GOLAY_ROW1,
    GOLAY_ROWS,
    LEVEL1_GENS,
    LEVEL2_GENS,
    LOGICAL7,
    LOGICAL23,
    LOGICAL49,
    MASK23,
    N7,
    N23,
    N49,
    PCANON,
    STAB7,
    STAB7_SET,
    _golay_tables,
    block_parity,
    golay_leaders,
    golay_syndrome,
    golay_z_stabilizers,
    level1_syndrome,
    level2_syndrome,
    min_coset_rep,
    min_coset_weight,
    span,
    syndrome7,
    tau_from_syndrome,
    xor_table,
)
from wpec.decoder import build_correction_table
from wpec.pauli import PauliOp


def bits_to_mask(s: str) -> int:
    return sum(1 << i for i, c in enumerate(s) if c == "1")


# (length, generator supports, logical support) of the three codes
CODES = {
    "steane": (N7, GEN7, LOGICAL7),
    "concat49": (N49, LEVEL1_GENS + LEVEL2_GENS, LOGICAL49),
    "golay": (N23, GOLAY_ROWS, LOGICAL23),
}


# --- GF(2) table builder -----------------------------------------------------


def _seeded_unit_lists():
    """Unit lists of every length 0..12: seeded 30-bit values drawn from a
    short pool, so many lists repeat a unit or hold a dependent one."""
    rng = random.Random(2006)
    for n in range(13):
        pool = [rng.getrandbits(30) for _ in range(8)]
        pool += [pool[0] ^ pool[1], 0]
        for _ in range(3):
            yield [rng.choice(pool) for _ in range(n)]


def _rank(vectors) -> int:
    """GF(2) rank by elimination, top bits distinct and descending."""
    basis = []
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = sorted(basis + [x], reverse=True)
    return len(basis)


def test_xor_table_is_the_xor_over_set_bits():
    for units in _seeded_unit_lists():
        table = xor_table(units)
        assert len(table) == 1 << len(units)
        for e, entry in enumerate(table):
            want = 0
            for i, u in enumerate(units):
                if e >> i & 1:
                    want ^= u
            assert entry == want, (units, e)


def test_span_is_the_set_of_the_xor_table():
    for gens in _seeded_unit_lists():
        got = span(gens)
        assert got == set(xor_table(gens)), gens
        assert len(got) == 1 << _rank(gens), gens
    # a repeated row adds nothing
    golay = span(GOLAY_ROWS + GOLAY_ROWS[4:5])
    assert len(golay) == 2048
    assert golay == golay_z_stabilizers()


# --- 7-qubit code ------------------------------------------------------------


def test_steane_generator_strings():
    assert [str(PauliOp(N7, m)) for m in GEN7] == ["XIXXXII", "IXIXXXI", "IIXIXXX"]
    assert [str(PauliOp.z_op(N7, m)) for m in GEN7] == ["ZIZZZII", "IZIZZZI", "IIZIZZZ"]
    assert str(PauliOp.z_op(N7, LOGICAL7)) == "ZZZZZZZ"


def test_steane_generators_are_cyclic_shifts():
    # shifting right by one qubit = shifting the mask up one bit
    assert GEN7[1] == GEN7[0] << 1
    assert GEN7[2] == GEN7[1] << 1


def test_all_generators_commute_logicals_anticommute():
    # The CSS rule: an X and a Z operator commute exactly when their
    # supports overlap evenly.  Each code uses every support for both an
    # X and a Z generator, and the same support for both logicals.
    for name, (_, masks, logical) in CODES.items():
        for a in masks:
            for b in masks:  # X generator a against Z generator b
                assert (a & b).bit_count() % 2 == 0, (name, a, b)
            assert (a & logical).bit_count() % 2 == 0, (name, a)
        assert (logical & logical).bit_count() % 2 == 1, name


def test_steane_perfectness():
    seen = {syndrome7(1 << q) for q in range(7)}
    assert seen == set(range(1, 8))


def test_single_qubit_syndromes_frozen():
    # oracle: overlap parity with each generator support, by hand
    assert [syndrome7(1 << q) for q in range(7)] == [1, 2, 5, 3, 7, 6, 4]


def test_syndrome_op_examples():
    assert syndrome7(PauliOp.from_string("ZIIIIII").z_bits) == 0b001
    assert syndrome7(PauliOp.from_string("IIIIIIZ").z_bits) == 0b100
    assert syndrome7(PauliOp.from_string("ZIZZZII").z_bits) == 0


def test_stab7_span_frozen():
    assert STAB7 == (0, 29, 39, 58, 78, 83, 105, 116)
    assert all(s.bit_count() % 2 == 0 for s in STAB7)
    # the complementary coset carries the odd weights
    assert all((s ^ 127).bit_count() % 2 == 1 for s in STAB7)


# --- 49-qubit code -----------------------------------------------------------


def test_concat49_generator_counts_and_weights():
    gens = LEVEL1_GENS + LEVEL2_GENS  # one X and one Z generator each
    assert 2 * len(gens) == 48
    assert [g.bit_count() for g in gens] == [4] * 21 + [28] * 3
    assert PauliOp(N49, gens[21]).weight() == 28  # first outer generator
    # each subblock carries the 7-qubit code's generators
    assert LEVEL1_GENS == tuple(g << (7 * b) for b in range(7) for g in GEN7)


def test_outer_generator_supports():
    # outer generator 1 = all-Z on subblocks 1,3,4,5 (1-based)
    expect = sum(0x7F << (7 * b) for b in (0, 2, 3, 4))
    assert LEVEL2_GENS[0] == expect


def test_inner_generator_indexing():
    # index 3b+i carries generator i+1 on subblock b+1
    assert LEVEL1_GENS[0] == GEN7[0]
    assert LEVEL1_GENS[5] == GEN7[2] << 7
    assert LEVEL1_GENS[20] == GEN7[2] << 42


def test_level1_syndrome_layout():
    e = GEN7[0] << 7  # generator on subblock 2: trivial
    assert level1_syndrome(e) == 0
    e = 1 << 7  # single Z on first qubit of subblock 2
    assert level1_syndrome(e) == 0b001 << 3


def test_level2_syndrome_equals_parity_syndrome():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.getrandbits(49)
        assert level2_syndrome(m) == syndrome7(block_parity(m))


def test_single_block_outer_columns():
    # one odd subblock at position b gives these outer syndromes
    cols = [syndrome7(1 << b) for b in range(7)]
    assert cols == [0b001, 0b010, 0b101, 0b011, 0b111, 0b110, 0b100]


def test_block_triviality_examples():
    def triviality(m):
        return tau_from_syndrome(level1_syndrome(m))

    assert triviality(0) == 0
    assert triviality(LEVEL2_GENS[0]) == 0  # outer generator
    # weight-2 P on subblock 1, all-Z on subblocks 3,4,5
    m = 0b0000011
    for b in (2, 3, 4):
        m |= 0x7F << (7 * b)
    assert triviality(m) == 0b0000001


def test_block_parity():
    m = 0b0000011 | (0x7F << 14)
    assert block_parity(m) == 0b0000100  # even, skip, odd
    assert block_parity(LOGICAL49) == 0x7F


def test_tau_from_syndrome():
    assert tau_from_syndrome(0) == 0
    assert tau_from_syndrome(0b001 << 3) == 0b0000010
    assert tau_from_syndrome((0b111 << 18) | 0b100) == 0b1000001


def test_pcanon_is_coset_minimum():
    for p in range(128):
        assert PCANON[p] == min(p ^ v for v in STAB7)
        assert PCANON[PCANON[p]] == PCANON[p]
        for v in STAB7:
            assert PCANON[p ^ v] == PCANON[p]


def test_pcanon_is_linear_onto_a_subspace():
    # canonical parities are closed under XOR, which lets the verifier
    # XOR canonical signatures without canonicalizing again
    for a in range(128):
        for b in range(128):
            assert PCANON[a ^ b] == PCANON[a] ^ PCANON[b], (a, b)
    assert sorted(set(PCANON)) == list(range(16))


# --- coset minimization -------------------------------------------------------


@pytest.fixture(scope="module")
def full_z_stabilizer_group():
    """All 2^24 Z-stabilizer support masks of the 49-qubit code."""
    gens = LEVEL1_GENS + LEVEL2_GENS
    arr = np.empty(1 << 24, dtype=np.uint64)
    arr[0] = 0
    size = 1
    for g in gens:
        arr[size : 2 * size] = arr[:size] ^ np.uint64(g)
        size *= 2
    return arr


def brute_min_weight(arr: np.ndarray, mask: int) -> int:
    return int(np.bitwise_count(arr ^ np.uint64(mask)).min())


def test_min_coset_weight_examples():
    assert min_coset_weight(GEN7[0]) == 0  # inner generator on subblock 1
    assert min_coset_weight(LEVEL2_GENS[0]) == 0
    assert min_coset_weight(0x7F) == 3  # all-Z on one subblock alone
    # all-Z on everything is the logical class; its minimum is the distance
    assert min_coset_weight(LOGICAL49) == 9


def test_min_weight_coset_rep_op():
    rep = PauliOp.z_op(N49, min_coset_rep(0x7F))
    assert rep.weight() == 3
    assert level1_syndrome(rep.z_bits) == level1_syndrome(0x7F)
    assert level2_syndrome(rep.z_bits) == level2_syndrome(0x7F)


def test_min_coset_weight_certified_against_full_scan(full_z_stabilizer_group):
    rng = random.Random(49)
    samples = [GEN7[0], LEVEL2_GENS[0], 0x7F, LOGICAL49]
    for _ in range(8):
        samples.append(rng.getrandbits(49))
    for _ in range(8):  # sparse errors, the regime the decoder lives in
        samples.append(sum(1 << rng.randrange(49) for _ in range(rng.randint(1, 6))))
    for e in samples:
        want = brute_min_weight(full_z_stabilizer_group, e)
        assert min_coset_weight(e) == want, hex(e)
        rep = min_coset_rep(e)
        assert rep.bit_count() == want
        # rep differs from e by a group element
        assert np.any(full_z_stabilizer_group == np.uint64(rep ^ e))


def test_min_coset_rep_preserves_syndrome():
    rng = random.Random(11)
    for _ in range(100):
        e = rng.getrandbits(49)
        rep = min_coset_rep(e)
        assert level1_syndrome(rep) == level1_syndrome(e)
        assert level2_syndrome(rep) == level2_syndrome(e)
        assert rep.bit_count() <= e.bit_count()


# --- Golay code ----------------------------------------------------------------


def test_golay_row1_matches_hand_copied_matrix():
    assert GOLAY_ROW1 == bits_to_mask("11111001001010000000000")
    assert GOLAY_ROW1 == 5279


def test_golay_rows_shift_and_weight():
    for i, row in enumerate(GOLAY_ROWS):
        assert row.bit_count() == 8
        if i:
            assert row == GOLAY_ROWS[i - 1] << 1
    assert len(GOLAY_ROWS) == 11
    assert GOLAY_ROWS[-1] < (1 << 23)


def test_golay_code_object():
    assert (N23, len(GOLAY_ROWS), LOGICAL23) == (23, 11, MASK23)
    assert str(PauliOp(N23, GOLAY_ROWS[0])) == "XXXXXIIXIIXIXIIIIIIIIII"


def test_golay_syndrome_basics():
    assert golay_syndrome(0) == 0
    assert golay_syndrome(1) == 1  # qubit 1 sits only in row 1
    assert golay_syndrome(GOLAY_ROWS[4]) == 0


def test_golay_syndrome_tables_match_row_parities():
    # all 2^23 masks: the two table reads of golay_syndrome against the
    # overlap parities with GOLAY_ROWS that define the syndrome
    lo, hi = (np.array(t, dtype=np.uint16) for t in _golay_tables())
    e = np.arange(1 << N23, dtype=np.uint32)
    want = np.zeros(1 << N23, dtype=np.uint16)
    for i, row in enumerate(GOLAY_ROWS):
        want |= (np.bitwise_count(e & np.uint32(row)) & 1).astype(np.uint16) << i
    assert np.array_equal(lo[e & 4095] ^ hi[e >> 12], want)
    # and golay_syndrome reads those entries: every unit, and masks
    # spread over all 23 bits
    masks = [1 << b for b in range(N23)] + list(range(0, 1 << N23, 1021))
    assert [golay_syndrome(m) for m in masks] == want[masks].tolist()


def test_golay_leaders_are_the_light_errors():
    # perfectness: one error of weight <= 3 per syndrome, 1 + 23 + 253 +
    # 1771 of them by weight, and decoding reads that one table
    leaders = golay_leaders()
    assert len(leaders) == 2048 and golay_leaders() is leaders
    assert all(golay_syndrome(m) == s for s, m in enumerate(leaders))
    assert [sum(m.bit_count() == w for m in leaders) for w in range(4)] == [
        1, 23, 253, 1771]
    golay_min = build_correction_table().golay_min
    assert [golay_min[s].z_bits for s in range(2048)] == list(leaders)


def test_golay_leaders_refuse_a_shared_syndrome(monkeypatch):
    # read qubit 23 as qubit 1: two weight-1 errors then share a syndrome
    real = codes.golay_syndrome
    monkeypatch.setattr(codes, "golay_syndrome", lambda m: real(m & MASK23 >> 1 | m >> 22))
    with pytest.raises(RuntimeError, match="share syndrome"):
        golay_leaders.__wrapped__()


def test_golay_stabilizer_weights_even_logical_coset_odd():
    grp = golay_z_stabilizers()
    assert len(grp) == 2048
    assert all(s.bit_count() % 2 == 0 for s in grp)
    assert all((s ^ MASK23).bit_count() % 2 == 1 for s in grp)


# --- generator strings ------------------------------------------------------------


def test_generator_table_concat_has_48_rows():
    gens = LEVEL1_GENS + LEVEL2_GENS
    rows = [str(PauliOp(N49, m)) for m in gens] + [str(PauliOp.z_op(N49, m)) for m in gens]
    assert len(rows) == 48
    assert rows[21] == "X" * 7 + "I" * 7 + "X" * 21 + "I" * 14
