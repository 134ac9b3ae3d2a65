"""Phaseless Pauli operators in binary symplectic form.

Every operator is a pair of packed bit masks (x_bits, z_bits) over n qubits.
Phases are deliberately not tracked: syndromes, weight parities and logical
classes are all phase-blind, and dropping phases keeps multiplication a pair
of XORs.

Conventions used across the whole package:

* Qubit k (1-based, the k-th character of a Pauli string) lives at bit k-1
  of the masks.  So ``ZIIIIII`` has z_bits == 1.
* Y means both the x bit and the z bit are set; it counts once for weight.
* Operators of different length never interoperate; mixing lengths raises.
* Blocks: a 49-qubit register is read as seven 7-qubit subblocks, subblock
  b (0-based) occupying bits 7b .. 7b+6.
* Records are ``typing.NamedTuple`` classes: immutable values that are
  cheap to build and cheap to define at import.  ``PauliOp`` is one too,
  a validated immutable value whose range checks run in ``__new__``.
"""

from __future__ import annotations

from typing import NamedTuple

BLOCK_SIZE = 7
N_BLOCKS = 7
MASK7 = (1 << 7) - 1

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class _PauliFields(NamedTuple):
    n: int
    x_bits: int = 0
    z_bits: int = 0


class PauliOp(_PauliFields):
    """An n-qubit Pauli operator, phases ignored: an immutable value,
    equal and hashed by (n, x_bits, z_bits)."""

    __slots__ = ()

    def __new__(cls, n: int, x_bits: int = 0, z_bits: int = 0) -> "PauliOp":
        if n <= 0:
            raise ValueError(f"operator needs at least one qubit, got n={n}")
        full = (1 << n) - 1
        if x_bits & ~full or z_bits & ~full:
            raise ValueError(f"mask exceeds {n} qubits")
        return tuple.__new__(cls, (n, x_bits, z_bits))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_string(cls, s: str) -> "PauliOp":
        x = z = 0
        for i, c in enumerate(s):
            try:
                xb, zb = _CHAR_TO_BITS[c]
            except KeyError:
                raise ValueError(f"bad Pauli character {c!r} at position {i}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(s), x, z)

    @classmethod
    def z_op(cls, n: int, mask: int) -> "PauliOp":
        """Z-type operator with Z exactly on the bits set in ``mask``."""
        return cls(n, 0, mask)

    @classmethod
    def x_op(cls, n: int, mask: int) -> "PauliOp":
        return cls(n, mask, 0)

    # -- basic algebra -----------------------------------------------------

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x_bits | self.z_bits).bit_count()

    def commutes(self, other: "PauliOp") -> bool:
        """Symplectic inner product == 0 (mod 2), i.e. the two commute."""
        if self.n != other.n:
            raise ValueError("length mismatch")
        a = (self.x_bits & other.z_bits).bit_count()
        b = (self.z_bits & other.x_bits).bit_count()
        return ((a + b) & 1) == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return PauliOp(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def is_z_type(self) -> bool:
        return self.x_bits == 0

    # -- block structure ---------------------------------------------------

    def restrict(self, block: int) -> "PauliOp":
        """The 7-qubit factor living on subblock ``block`` (0..6) of a 49-qubit operator."""
        _check_block(self.n, block)
        sh = BLOCK_SIZE * block
        return PauliOp(BLOCK_SIZE, (self.x_bits >> sh) & MASK7, (self.z_bits >> sh) & MASK7)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        return "".join(
            _BITS_TO_CHAR[((self.x_bits >> i) & 1, (self.z_bits >> i) & 1)]
            for i in range(self.n)
        )

    def block_form(self) -> str:
        """Render a 49-qubit operator as seven space-separated subblock strings."""
        if self.n != N_BLOCKS * BLOCK_SIZE:
            raise ValueError("block_form expects a 49-qubit operator")
        return " ".join(str(self.restrict(b)) for b in range(N_BLOCKS))


def _check_block(n: int, block: int) -> None:
    if n % BLOCK_SIZE != 0:
        raise ValueError(f"operator length {n} is not a whole number of subblocks")
    if not 0 <= block < n // BLOCK_SIZE:
        raise ValueError(f"block {block} out of range for n={n}")


def identity(n: int) -> PauliOp:
    return PauliOp(n)


def parity(mask: int) -> int:
    """Parity of the number of set bits; the workhorse of every syndrome."""
    return mask.bit_count() & 1


def format_bits(value: int, width: int) -> str:
    """Bit vector as text, bit 0 leftmost (qubit/generator 1 first)."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(width))


def render_text(records) -> str:
    """The text side of (text, JSON object) records, one line or block
    per record; records without a text side are skipped."""
    return "".join(f"{text}\n" for text, _ in records if text is not None)


def parse_bits(s: str) -> int:
    """Inverse of :func:`format_bits`; the width is implied by len(s)."""
    v = 0
    for i, c in enumerate(s):
        if c == "1":
            v |= 1 << i
        elif c != "0":
            raise ValueError(f"bad bit character {c!r}")
    return v
