"""Pauli algebra tests.

The commutation expectations are frozen from a character-level oracle
(count positions where one operator has X/Y and the other Z/Y with a
different letter) so the bit-mask implementation is checked against an
independent reading of the definition.
"""

import itertools

import pytest

from wpec.pauli import PauliOp, identity, parity


def oracle_commutes(a: str, b: str) -> bool:
    """Slow per-character symplectic product."""
    anti = 0
    for ca, cb in zip(a, b):
        if ca == "I" or cb == "I" or ca == cb:
            continue
        anti += 1
    return anti % 2 == 0


G1Z = "ZIZZZII"
G2Z = "IZIZZZI"
G3Z = "IIZIZZZ"
G1X = "XIXXXII"


def test_weight_examples():
    assert identity(7).weight() == 0
    assert PauliOp.from_string(G1Z).weight() == 4
    assert PauliOp.z_op(49, (1 << 49) - 1).weight() == 49


def test_weight_counts_y_once():
    assert PauliOp.from_string("YYI").weight() == 2


def test_commutes_examples():
    # Frozen from the oracle first:
    assert oracle_commutes("ZIIIIII", G1X) is False
    assert oracle_commutes(G1Z, G1X) is True
    z1 = PauliOp.from_string("ZIIIIII")
    assert not z1.commutes(PauliOp.from_string(G1X))
    assert PauliOp.from_string(G1Z).commutes(PauliOp.from_string(G1X))
    assert identity(7).commutes(z1)


def test_commutes_matches_oracle_exhaustively():
    # All pairs of Z-type x X-type 3-qubit strings plus mixed letters.
    letters = "IXZY"
    strs = ["".join(t) for t in itertools.product(letters, repeat=3)]
    for a in strs:
        pa = PauliOp.from_string(a)
        for b in strs:
            assert pa.commutes(PauliOp.from_string(b)) == oracle_commutes(a, b), (a, b)


def test_commutes_symmetric():
    ops = [PauliOp.from_string(s) for s in (G1Z, G2Z, G1X, "ZIIIIII", "YXZIIZY")]
    for a in ops:
        for b in ops:
            assert a.commutes(b) == b.commutes(a)


def test_multiply_examples():
    zz = PauliOp.from_string("ZZIZIII") * PauliOp.z_op(7, (1 << 7) - 1)
    assert str(zz) == "IIZIZZZ"  # lands exactly on the third Z generator
    p = PauliOp.from_string("YXZIIZY")
    assert (p * p).weight() == 0
    assert str(PauliOp.from_string(G1Z) * PauliOp.from_string(G2Z)) == "ZZZIIZI"


def test_multiply_parity_additive_for_z_type():
    # weight parity of a product of Z-type ops = XOR of parities iff overlap even;
    # exhaustive over all 7-qubit Z pairs, checking weight(ab) = w(a)+w(b)-2|a&b|.
    for ma in range(128):
        a = PauliOp.z_op(7, ma)
        for mb in range(128):
            b = PauliOp.z_op(7, mb)
            assert (a * b).weight() == a.weight() + b.weight() - 2 * (ma & mb).bit_count()


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        PauliOp.from_string("ZZ") * PauliOp.from_string("ZZZ")
    with pytest.raises(ValueError):
        PauliOp.from_string("ZZ").commutes(PauliOp.from_string("ZZZ"))


def test_restrict():
    # P I Z Z Z I I with P = I Z^6 (Z on the last six qubits of subblock 1)
    m = 0
    m |= 0b1111110  # subblock 0, qubits 2..7
    for b in (2, 3, 4):
        m |= 0b1111111 << (7 * b)
    e = PauliOp.z_op(49, m)
    assert str(e.restrict(0)) == "IZZZZZZ"
    assert str(e.restrict(1)) == "IIIIIII"
    assert str(e.restrict(2)) == "ZZZZZZZ"

    with pytest.raises(ValueError):
        e.restrict(7)


def test_string_roundtrip():
    for s in ("IIIIIII", G1Z, "YXZIIZY", "ZZIZIII"):
        assert str(PauliOp.from_string(s)) == s


def test_block_form():
    e = PauliOp.z_op(49, PauliOp.from_string("ZZIZIII").z_bits << 21)
    assert e.block_form() == "IIIIIII IIIIIII IIIIIII ZZIZIII IIIIIII IIIIIII IIIIIII"


def test_parity_helper():
    assert parity(0) == 0
    assert parity(0b1011) == 1


def test_pauli_op_is_a_validated_immutable_value():
    op = PauliOp(49, 0, 1)
    assert repr(op) == "PauliOp(n=49, x_bits=0, z_bits=1)"
    assert op == PauliOp.z_op(49, 1) and hash(op) == hash(PauliOp.z_op(49, 1))
    assert op != PauliOp(49, 1, 0) and op != PauliOp(7, 0, 1)
    assert len({op, PauliOp(49, 0, 1), PauliOp(7, 0, 1)}) == 2
    assert op * PauliOp(49, 1, 1) == PauliOp(49, 1, 0)
    with pytest.raises(AttributeError):
        op.z_bits = 2
    with pytest.raises(ValueError, match=r"^operator needs at least one qubit, got n=0$"):
        PauliOp(0)
    with pytest.raises(ValueError, match=r"^mask exceeds 3 qubits$"):
        PauliOp(3, 8)
    with pytest.raises(ValueError, match=r"^mask exceeds 3 qubits$"):
        PauliOp(3, 0, 8)
