"""Phaseless Pauli operators in binary symplectic form.

Every operator is a pair of packed bit masks (x_bits, z_bits) over n qubits.
Phases are deliberately not tracked: syndromes, weight parities and logical
classes are all phase-blind.  ``PauliOp`` validates, carries and prints the
masks; the package's algebra (products, syndromes, parities, commutation)
runs on the masks themselves, as XORs and ANDs of ints.

Conventions used across the whole package:

* Qubit k (1-based, the k-th character of a Pauli string) lives at bit k-1
  of the masks.  So ``ZIIIIII`` has z_bits == 1.
* Y means both the x bit and the z bit are set; it counts once for weight.
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

# each Pauli letter as its (x bit, z bit)
PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in PAULI_BITS.items()}


class _PauliFields(NamedTuple):
    n: int
    x_bits: int = 0
    z_bits: int = 0


class PauliOp(_PauliFields):
    """An n-qubit Pauli operator, phases ignored: an immutable value,
    equal and hashed by (n, x_bits, z_bits), that validates, carries and
    prints its masks.  Algebra on operators is done on the masks."""

    __slots__ = ()

    def __new__(cls, n: int, x_bits: int = 0, z_bits: int = 0) -> "PauliOp":
        if n <= 0:
            raise ValueError(f"operator needs at least one qubit, got n={n}")
        if (x_bits | z_bits) >> n:
            raise ValueError(f"mask exceeds {n} qubits")
        return tuple.__new__(cls, (n, x_bits, z_bits))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_string(cls, s: str) -> "PauliOp":
        x = z = 0
        for i, c in enumerate(s):
            try:
                xb, zb = PAULI_BITS[c]
            except KeyError:
                raise ValueError(f"bad Pauli character {c!r} at position {i}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(s), x, z)

    @classmethod
    def z_op(cls, n: int, mask: int) -> "PauliOp":
        """Z-type operator with Z exactly on the bits set in ``mask``."""
        return cls(n, 0, mask)

    # -- weight ------------------------------------------------------------

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x_bits | self.z_bits).bit_count()

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
        text = str(self)
        return " ".join(text[i : i + BLOCK_SIZE] for i in range(0, self.n, BLOCK_SIZE))


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
