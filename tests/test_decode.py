"""Decoder tests.

The two parity facts the whole scheme rests on are checked by full
enumeration (128 operators for the small code, 2^23 for the Golay code)
rather than spot checks; both finish in seconds.
"""

import itertools
import random

import numpy as np
import pytest

from wpec.codes import (
    GEN7,
    GOLAY_ROWS,
    MASK23,
    PCANON,
    STAB7_SET,
    golay_syndrome,
    golay_z_stabilizers,
    syndrome7,
)
from wpec.decoder import (
    LOGICAL_REP7,
    CorrectionTable,
    LogicalClass,
    build_correction_table,
    classify_logical,
    wpec_golay,
    wpec_steane,
)
from wpec.pauli import PauliOp


@pytest.fixture(scope="module")
def table() -> CorrectionTable:
    return build_correction_table()


def zop(s: str) -> PauliOp:
    return PauliOp.from_string(s)


# --- logical classification ---------------------------------------------------


def test_classify_examples():
    assert classify_logical(zop("IIIIIII")) is LogicalClass.I
    assert classify_logical(zop("ZIZZZII")) is LogicalClass.I
    assert classify_logical(zop("ZZZZZZZ")) is LogicalClass.Z
    assert classify_logical(PauliOp.z_op(7, LOGICAL_REP7)) is LogicalClass.Z


def test_classify_rejects_noncentral_and_nonz():
    with pytest.raises(ValueError):
        classify_logical(zop("ZIIIIII"))
    with pytest.raises(ValueError):
        classify_logical(zop("XIXXXII"))


def test_centralizer_split_exhaustive():
    # 16 of the 128 Z-type masks commute with every check; the even half
    # is the stabilizer group, the odd half acts as logical Z.
    central = [m for m in range(128) if syndrome7(m) == 0]
    assert len(central) == 16
    even = {m for m in central if m.bit_count() % 2 == 0}
    assert even == STAB7_SET
    for m in central:
        want = LogicalClass.I if m in even else LogicalClass.Z
        assert classify_logical(PauliOp.z_op(7, m)) is want


# --- stabilizer equivalence ----------------------------------------------------


def test_equivalent_examples():
    def equivalent(a, b):
        return (zop(a).z_bits ^ zop(b).z_bits) in STAB7_SET

    assert equivalent("ZIZZZII", "IIIIIII")
    assert equivalent("ZZZZZZZ", "ZZIZIII")
    assert not equivalent("ZZZZZZZ", "IIIIIII")


def test_parity_marks_stabilizer_cosets_exhaustively():
    # same syndrome: parity agreement <=> product is a stabilizer
    for a in range(128):
        sa, pa = syndrome7(a), a.bit_count() & 1
        for b in range(128):
            if syndrome7(b) != sa:
                continue
            assert ((a ^ b) in STAB7_SET) == (pa == (b.bit_count() & 1)), (a, b)


# --- correction tables ----------------------------------------------------------


def test_wt1_is_the_single_qubit_bijection(table):
    assert set(table.wt1) == set(range(1, 8))
    for s, e in table.wt1.items():
        assert e.weight() == 1
        assert syndrome7(e.z_bits) == s
    assert str(table.wt1[0b001]) == "ZIIIIII"


def test_wt2_entries(table):
    assert set(table.wt2) == set(range(1, 8))
    for s, e in table.wt2.items():
        assert e.weight() == 2
        assert syndrome7(e.z_bits) == s
    assert str(table.wt2[0b001]) == "IZIZIII"


def test_wt2_is_first_in_pair_order(table):
    # oracle: rescan pairs in ascending (i, j) and keep the first hit
    first = {}
    for i, j in itertools.combinations(range(7), 2):
        m = (1 << i) | (1 << j)
        first.setdefault(syndrome7(m), m)
    assert {s: e.z_bits for s, e in table.wt2.items()} == first


def test_golay_min_table(table):
    assert len(table.golay_min) == 2048
    for s, e in table.golay_min.items():
        assert e.weight() <= 3
        assert golay_syndrome(e.z_bits) == s
    m = 0b111  # Z on qubits 1,2,3
    assert table.golay_min[golay_syndrome(m)].z_bits == m
    assert table.golay_min[0].weight() == 0


def test_golay_min_weights_count(table):
    # perfectness: 1 + 23 + 253 + 1771 entries by weight
    by_w = [0, 0, 0, 0]
    for e in table.golay_min.values():
        by_w[e.weight()] += 1
    assert by_w == [1, 23, 253, 1771]


# --- the decoders ----------------------------------------------------------------


def test_wpec_steane_examples(table):
    assert wpec_steane(0, 0, table).weight() == 0
    assert str(wpec_steane(0, 1, table)) == "ZZIZIII"
    assert str(wpec_steane(0b001, 1, table)) == "ZIIIIII"
    assert str(wpec_steane(0b001, 0, table)) == "IZIZIII"


def test_wpec_steane_output_contract(table):
    for s in range(8):
        for w in (0, 1):
            out = wpec_steane(s, w, table)
            assert syndrome7(out.z_bits) == s
            assert out.weight() & 1 == w


def test_wpec_steane_sound_for_every_error(table):
    for e in range(128):
        corr = wpec_steane(syndrome7(e), e.bit_count() & 1, table)
        assert (e ^ corr.z_bits) in STAB7_SET, e


def test_wpec_golay_examples(table):
    assert wpec_golay(0, 0, table).weight() == 0
    s1 = golay_syndrome(1)
    assert wpec_golay(s1, 1, table).z_bits == 1
    off = wpec_golay(s1, 0, table)
    assert off.z_bits == MASK23 ^ 1 and off.weight() == 22


def test_wpec_golay_sound_for_every_error(table):
    # all 2^23 Z-type errors, vectorized; correction must land each one
    # in the stabilizer group (zero syndrome and even weight).
    tab_mask = np.zeros(2048, dtype=np.uint64)
    for s, e in table.golay_min.items():
        tab_mask[s] = e.z_bits
    tab_par = (np.bitwise_count(tab_mask) & 1).astype(np.uint64)
    rows = np.array(GOLAY_ROWS, dtype=np.uint64)
    full = np.uint64(MASK23)
    for lo in range(0, 1 << 23, 1 << 21):
        e = np.arange(lo, lo + (1 << 21), dtype=np.uint64)
        s = np.zeros(e.shape, dtype=np.uint64)
        for i in range(11):
            s |= ((np.bitwise_count(e & rows[i]) & 1).astype(np.uint64)) << np.uint64(i)
        w = (np.bitwise_count(e) & 1).astype(np.uint64)
        corr = tab_mask[s] ^ (full * (tab_par[s] ^ w))
        prod = e ^ corr
        assert not (np.bitwise_count(prod) & 1).any()
        for i in range(11):
            assert not (np.bitwise_count(prod & rows[i]) & 1).any()


def test_wpec_golay_product_membership_sample(table):
    grp = golay_z_stabilizers()
    rng = random.Random(23)
    for _ in range(500):
        e = rng.getrandbits(23)
        corr = wpec_golay(golay_syndrome(e), e.bit_count() & 1, table)
        assert (e ^ corr.z_bits) in grp


# --- block parity equivalence ------------------------------------------------------
# Two subblock-parity vectors are equivalent when outer stabilizers, which
# flip whole subblocks along the STAB7 patterns, carry one to the other.


def test_block_parity_equivalent_examples():
    assert PCANON[0b0011101] == PCANON[0]  # an outer pattern itself
    assert (0b0011101 ^ 0) in STAB7_SET
    assert PCANON[0b0000001] != PCANON[0]
    assert (0b0000001 ^ 0) not in STAB7_SET


def test_block_parity_equivalence_classes():
    classes = set()
    for p in range(128):
        classes.add(min(p ^ v for v in STAB7_SET))
    assert len(classes) == 16
    # the canonical form agrees with the pattern-group test on every pair
    for a in range(128):
        for b in range(128):
            assert (PCANON[a] == PCANON[b]) == ((a ^ b) in STAB7_SET), (a, b)


def test_rebuild_is_deterministic(table):
    again = build_correction_table()
    assert again == table
    for kind in ("wt1", "wt2", "golay_min"):
        assert list(getattr(again, kind)) == list(getattr(table, kind)), kind
