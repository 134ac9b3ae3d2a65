"""Pauli operator tests: weight, text forms and value semantics."""

import pytest

from wpec.pauli import PauliOp, identity, parity

G1Z = "ZIZZZII"


def test_weight_examples():
    assert identity(7).weight() == 0
    assert PauliOp.from_string(G1Z).weight() == 4
    assert PauliOp.z_op(49, (1 << 49) - 1).weight() == 49


def test_weight_counts_y_once():
    assert PauliOp.from_string("YYI").weight() == 2


def test_string_roundtrip():
    for s in ("IIIIIII", G1Z, "YXZIIZY", "ZZIZIII"):
        assert str(PauliOp.from_string(s)) == s


def test_block_form():
    e = PauliOp.z_op(49, PauliOp.from_string("ZZIZIII").z_bits << 21)
    assert e.block_form() == "IIIIIII IIIIIII IIIIIII ZZIZIII IIIIIII IIIIIII IIIIIII"
    # P I Z Z Z I I with P = I Z^6 (Z on the last six qubits of subblock 1)
    m = 0b1111110
    for b in (2, 3, 4):
        m |= 0b1111111 << (7 * b)
    e = PauliOp.z_op(49, m)
    assert e.block_form() == "IZZZZZZ IIIIIII ZZZZZZZ ZZZZZZZ ZZZZZZZ IIIIIII IIIIIII"


def test_block_form_reads_each_subblock():
    blocks = ["XIIIIIY", "IIIIIII", "ZZYIXII", "IIIIIII", "YYYYYYY", "IXIZIYI",
              "IIIIIIZ"]
    op = PauliOp.from_string("".join(blocks))
    assert op.block_form().split(" ") == blocks
    with pytest.raises(ValueError, match="49-qubit"):
        PauliOp.from_string("XYZIIII").block_form()


def test_parity_helper():
    assert parity(0) == 0
    assert parity(0b1011) == 1


def test_pauli_op_is_a_validated_immutable_value():
    op = PauliOp(49, 0, 1)
    assert repr(op) == "PauliOp(n=49, x_bits=0, z_bits=1)"
    assert op == PauliOp.z_op(49, 1) and hash(op) == hash(PauliOp.z_op(49, 1))
    assert op != PauliOp(49, 1, 0) and op != PauliOp(7, 0, 1)
    assert len({op, PauliOp(49, 0, 1), PauliOp(7, 0, 1)}) == 2
    b = PauliOp(49, 1, 1)  # a product is the XOR of the masks
    assert PauliOp(49, op.x_bits ^ b.x_bits, op.z_bits ^ b.z_bits) == PauliOp(49, 1, 0)
    with pytest.raises(AttributeError):
        op.z_bits = 2
    with pytest.raises(ValueError, match=r"^operator needs at least one qubit, got n=0$"):
        PauliOp(0)
    with pytest.raises(ValueError, match=r"^mask exceeds 3 qubits$"):
        PauliOp(3, 8)
    with pytest.raises(ValueError, match=r"^mask exceeds 3 qubits$"):
        PauliOp(3, 0, 8)
