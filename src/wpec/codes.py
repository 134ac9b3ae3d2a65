"""The three CSS codes this package corrects: a 7-qubit cyclic code, its
7x7 concatenation, and the 23-qubit Golay code.

All three are self-dual CSS codes, so X and Z checks share one list of
support masks per code and a single mask-overlap parity computes either
syndrome type.  Errors and generators are packed ints throughout (bit
k-1 holds qubit k, as in :mod:`wpec.pauli`).

Syndrome bit conventions:

* 7-qubit code: 3 bits, bit i against generator i+1.
* 49-qubit code: 21 inner bits (bit 3b+i = generator i+1 on subblock
  b+1) plus 3 outer bits.  The outer syndrome of a Z-type error depends
  only on its per-subblock weight parities, and equals the 7-qubit
  syndrome of that parity vector.  All of them are computed on whole
  49-bit words, with no per-subblock function call.
* Golay code: 11 bits, bit i against row i+1 of the circulant.

Syndromes and weight parities are GF(2)-linear in the error, so the
package tabulates every such map with one builder, ``xor_table`` (entry
e is the XOR of the unit images of the bits set in e), and takes spans
of generators with ``span``.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .pauli import BLOCK_SIZE, MASK7, N_BLOCKS, parity

# --- 7-qubit cyclic code ---------------------------------------------------

N7 = 7
# Support masks of the three checks: ZIZZZII and its two cyclic shifts.
GEN7 = (0b0011101, 0b0111010, 0b1110100)
LOGICAL7 = MASK7  # Z (or X) on every qubit


def xor_table(units: Iterable[int]) -> list[int]:
    """A GF(2)-linear map as a table of 2^len(units) entries: entry e is
    the XOR of the i-th unit over the bits i set in e."""
    table = [0]
    for u in units:  # entries with this bit set: those without, XOR u
        table += [t ^ u for t in table]
    return table


def span(gens: Iterable[int]) -> frozenset[int]:
    """Every XOR of a subset of ``gens``, doubling only on a generator
    not already in the span."""
    out = {0}
    for g in gens:
        if g not in out:
            out |= {x ^ g for x in out}
    return frozenset(out)


#: The eight Z-type (equally X-type) stabilizer support masks, ascending.
STAB7 = tuple(sorted(span(GEN7)))
STAB7_SET = frozenset(STAB7)

#: syndrome7 as a 128-entry lookup: bit i = overlap parity with GEN7[i].
_SYND7 = tuple(
    sum(parity(m & g) << i for i, g in enumerate(GEN7)) for m in range(128)
)


def syndrome7(mask: int) -> int:
    """3-bit syndrome of a 7-qubit error support mask."""
    return _SYND7[mask & MASK7]


# Minimal achievable weight of a 7-qubit coset: index 0 multiplies by the
# plain stabilizers, index 1 additionally flips all seven qubits.  The
# companion table stores the representative that achieves it.
_MIN_WT = ([0] * 128, [0] * 128)
_MIN_REP = ([0] * 128, [0] * 128)
for _m in range(128):
    for _flip, _extra in ((0, 0), (1, MASK7)):
        _best, _rep = 8, _m
        for _s in STAB7:
            _c = _m ^ _s ^ _extra
            _w = _c.bit_count()
            if _w < _best:
                _best, _rep = _w, _c
        _MIN_WT[_flip][_m] = _best
        _MIN_REP[_flip][_m] = _rep
BLOCK_MIN_WT = (tuple(_MIN_WT[0]), tuple(_MIN_WT[1]))
BLOCK_MIN_REP = (tuple(_MIN_REP[0]), tuple(_MIN_REP[1]))
del _MIN_WT, _MIN_REP

# --- 49-qubit concatenation ------------------------------------------------

N49 = 49
LOGICAL49 = (1 << N49) - 1

#: Inner generators, index 3*block + i  <->  "generator i+1 on subblock
#: block+1" (blocks 0-based here, 1-based in reports).
LEVEL1_GENS = tuple(
    GEN7[i] << (BLOCK_SIZE * b) for b in range(N_BLOCKS) for i in range(3)
)


def _blocks_to_mask(pattern: int) -> int:
    out = 0
    for b in range(N_BLOCKS):
        if (pattern >> b) & 1:
            out |= MASK7 << (BLOCK_SIZE * b)
    return out


#: Outer generators: all-Z (all-X) subblocks arranged on the same cyclic
#: support patterns, so the pattern group they span is again STAB7.
LEVEL2_GENS = tuple(_blocks_to_mask(p) for p in GEN7)

#: Canonical representative of each parity vector modulo the outer
#: pattern group: the minimum of p ^ v over the eight spanned patterns.
PCANON = tuple(min(p ^ v for v in STAB7) for p in range(128))


# Bit 7b of each subblock, and a multiplier moving bit 7b to bit 36 + b
# (its 49 partial products land on distinct bits, so nothing carries).
_BLOCK_LOW_BITS = sum(1 << (BLOCK_SIZE * b) for b in range(N_BLOCKS))
_GATHER_BLOCKS = sum(1 << (6 * (N_BLOCKS - 1 - b)) for b in range(N_BLOCKS))


def block_parity(mask: int) -> int:
    """7-bit vector of per-subblock weight parities of a 49-qubit mask:
    an XOR fold leaves the parity of bits p..p+6 at every bit p, and the
    subblock bits 7b are gathered by one multiplication."""
    y = mask ^ (mask >> 1)
    y ^= y >> 2  # parity of bits p..p+3
    y ^= (y >> 3) ^ (mask >> 3)  # bit p+3 cancels, then comes back
    return ((y & _BLOCK_LOW_BITS) * _GATHER_BLOCKS >> 36) & MASK7


def level1_syndrome(mask: int) -> int:
    """21-bit inner syndrome of a 49-qubit error support mask: subblock
    b's ``syndrome7`` at bits 3b..3b+2, by seven table reads."""
    s = _SYND7
    return (s[mask & 127] | s[mask >> 7 & 127] << 3 | s[mask >> 14 & 127] << 6
            | s[mask >> 21 & 127] << 9 | s[mask >> 28 & 127] << 12
            | s[mask >> 35 & 127] << 15 | s[mask >> 42 & 127] << 18)


def level2_syndrome(mask: int) -> int:
    """3-bit outer syndrome: bit i is the overlap parity of ``mask`` with
    ``LEVEL2_GENS[i]``.  This is ``syndrome7`` of the block-parity
    vector, since each outer generator covers whole subblocks."""
    g0, g1, g2 = LEVEL2_GENS
    return ((mask & g0).bit_count() & 1 | ((mask & g1).bit_count() & 1) << 1
            | ((mask & g2).bit_count() & 1) << 2)


def tau_from_syndrome(s21: int) -> int:
    """Subblock-triviality bits: bit b set iff subblock b's 3 inner
    syndrome bits are not all zero."""
    t = s21 | s21 >> 1 | s21 >> 2  # bit 3b: subblock b is nontrivial
    return (t & 1 | t >> 2 & 2 | t >> 4 & 4 | t >> 6 & 8 | t >> 8 & 16
            | t >> 10 & 32 | t >> 12 & 64)


def min_coset_rep(mask: int) -> int:
    """A mask of minimal weight in the coset of ``mask`` under all 2^24
    Z-type stabilizers of the 49-qubit code.

    The group factors once the outer choice is fixed: an outer element
    flips a pattern v of whole subblocks, after which each subblock
    minimizes independently over the eight inner stabilizers.  That cuts
    the scan to 8 patterns x 7 table lookups.
    """
    blocks = [(mask >> (BLOCK_SIZE * b)) & MASK7 for b in range(N_BLOCKS)]
    best, rep = N49 + 2, mask
    for v in STAB7:
        t = 0
        for b in range(N_BLOCKS):
            t += BLOCK_MIN_WT[(v >> b) & 1][blocks[b]]
        if t < best:
            best = t
            rep = 0
            for b in range(N_BLOCKS):
                rep |= BLOCK_MIN_REP[(v >> b) & 1][blocks[b]] << (BLOCK_SIZE * b)
    return rep


def min_coset_weight(mask: int) -> int:
    """Minimum weight of (mask ^ S) over all 2^24 Z-type stabilizers of
    the 49-qubit code: the weight of :func:`min_coset_rep`."""
    return min_coset_rep(mask).bit_count()


# --- 23-qubit Golay code ---------------------------------------------------

N23 = 23
MASK23 = (1 << N23) - 1
LOGICAL23 = MASK23

# Check polynomial x^12 + x^10 + x^7 + x^4 + x^3 + x^2 + x + 1; bit k of
# the row mask carries the coefficient of x^k, read onto qubit k+1.
GOLAY_POLY = (1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1)
GOLAY_ROW1 = sum(c << k for k, c in enumerate(GOLAY_POLY))

#: Eleven circulant rows; each row is the previous one shifted right by
#: one qubit.  deg h + 10 = 22 < 23, so no shift ever wraps.
GOLAY_ROWS = tuple(GOLAY_ROW1 << i for i in range(11))


@functools.cache
def _golay_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``golay_syndrome`` as two tables, over the low 12 and the high 11
    bits of a mask: the ``xor_table`` of those qubits' unit syndromes
    (the syndrome is linear).  Built on first use."""
    units = [sum((row >> q & 1) << i for i, row in enumerate(GOLAY_ROWS))
             for q in range(N23)]
    return tuple(xor_table(units[:12])), tuple(xor_table(units[12:]))


def golay_syndrome(mask: int) -> int:
    """11-bit syndrome of a 23-qubit error support mask: bit i is its
    overlap parity with ``GOLAY_ROWS[i]``, read as two table entries."""
    lo, hi = _golay_tables()
    return lo[mask & 4095] ^ hi[mask >> 12 & 2047]


def golay_z_stabilizers() -> frozenset[int]:
    """All 2^11 support masks in the span of the Golay rows."""
    return span(GOLAY_ROWS)
