"""Weight-parity error correction.

On the 7-qubit cyclic code every stabilizer has even weight and every
logical Z has odd weight, so the syndrome together with the weight
parity of a Z-type error pins down its logical coset exactly.  The
decoder returns one representative of that coset:

* clean syndrome, even parity: nothing to do.
* clean syndrome, odd parity: a logical Z; undo it with the fixed
  representative ZZIZIII.
* dirty syndrome, odd parity: the unique weight-1 error.
* dirty syndrome, even parity: a fixed weight-2 error.

The 23-qubit Golay decoder is the same idea with the unique weight<=3
coset leaders that perfectness guarantees; an off-parity hit is fixed
up by multiplying with Z on all 23 qubits.

X-type errors are corrected with the same tables through the X/Z
symmetry of both codes; no separate X path exists.
"""

from __future__ import annotations

import enum
import functools
import itertools

from .codes import (
    LOGICAL23,
    N7,
    N23,
    golay_syndrome,
    syndrome7,
)
from .pauli import PauliOp

#: Low-weight logical-Z representative the protocol applies on a clean
#: syndrome with odd parity.
LOGICAL_REP7 = 0b0001011  # ZZIZIII


class LogicalClass(enum.Enum):
    I = 0
    Z = 1


def classify_logical(m: PauliOp) -> LogicalClass:
    """Logical action of a Z-type operator in the centralizer: the
    weight parity decides (even = identity, odd = logical Z)."""
    if m.x_bits or m.n != N7:
        raise ValueError("expected a Z-type 7-qubit operator")
    if syndrome7(m.z_bits):
        raise ValueError("operator anticommutes with a check; no logical class")
    return LogicalClass.Z if m.weight() & 1 else LogicalClass.I


class CorrectionTable:
    """Decode tables for both codes, read-only by convention.

    wt1/wt2 map the seven nonzero 3-bit syndromes to the weight-1 and a
    fixed weight-2 Z error; golay_min maps all 2^11 syndromes to the
    unique minimal-weight (<=3) Z error.  golay_min is built on first
    use, so a Steane-only decode never computes 2,048 Golay syndromes.
    """

    def __init__(self, wt1: dict[int, PauliOp], wt2: dict[int, PauliOp]) -> None:
        self.wt1 = wt1
        self.wt2 = wt2

    @functools.cached_property
    def golay_min(self) -> dict[int, PauliOp]:
        golay_min: dict[int, PauliOp] = {}
        for w in range(4):
            for qs in itertools.combinations(range(N23), w):
                m = sum(1 << q for q in qs)
                s = golay_syndrome(m)
                if s in golay_min:
                    if golay_min[s].weight() == w:
                        raise RuntimeError(
                            "two weight-%d errors share syndrome %d" % (w, s)
                        )
                    continue
                golay_min[s] = PauliOp.z_op(N23, m)
        if len(golay_min) != 2048:
            raise RuntimeError("weight<=3 errors did not cover every syndrome")
        return golay_min


def build_correction_table() -> CorrectionTable:
    wt1 = {}
    for q in range(N7):
        s = syndrome7(1 << q)
        if s in wt1:
            raise RuntimeError("duplicate weight-1 syndrome; code is not perfect")
        wt1[s] = PauliOp.z_op(N7, 1 << q)
    assert set(wt1) == set(range(1, 8))

    # first hit in ascending qubit-pair order wins, for reproducibility
    wt2 = {}
    for i, j in itertools.combinations(range(N7), 2):
        m = (1 << i) | (1 << j)
        wt2.setdefault(syndrome7(m), PauliOp.z_op(N7, m))
    assert set(wt2) == set(range(1, 8))
    return CorrectionTable(wt1=wt1, wt2=wt2)


def wpec_steane(s_x: int, w: int, table: CorrectionTable) -> PauliOp:
    """Correction for a 7-qubit Z-type error with syndrome ``s_x`` and
    weight parity ``w``.  The result always has that syndrome and that
    parity, so applying it lands the data back in the trivial coset."""
    if s_x == 0:
        return PauliOp.z_op(N7, LOGICAL_REP7 if w & 1 else 0)
    return (table.wt1 if w & 1 else table.wt2)[s_x]


def wpec_golay(s_x: int, w: int, table: CorrectionTable) -> PauliOp:
    e = table.golay_min[s_x]
    if (e.weight() & 1) == (w & 1):
        return e
    return PauliOp.z_op(N23, e.z_bits ^ LOGICAL23)
