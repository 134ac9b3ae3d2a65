"""Syndrome-extraction circuits and fault propagation.

Two circuit shapes cover all 48 generators:

* outer generators (weight 28): a single bare ancilla and 28 data
  CNOTs, interleaved across the four support subblocks (first qubit of
  each subblock, then the second of each, and so on).  No flag qubit.
* inner generators (weight 4): ancilla plus one flag qubit; the four
  data CNOTs run in plain ascending order with the flag coupled in
  after the first and before the last of them.

Orientation follows the generator family.  A Z-family circuit prepares
the ancilla in |0>, makes it the target of every data CNOT and measures
it in Z, so the outcome collects the X parts of data errors while an
ancilla-line Z spreads Z onto the data qubits of every later CNOT (the
consecutive-form errors).  The flag is a |+> control on the ancilla
measured in X, catching ancilla Z's that pass between its two CNOTs.
X-family circuits are the exact dual (ancilla |+> control, flag |0>
target).

``ROUND_ORDER``, ``circuit_phases`` and ``circuits_by_name`` are the one
catalog of circuits that the fault model and the protocol both read.
Names are ``z1``-``z21``, ``x1``-``x21`` (inner) and ``z~1``-``z~3``,
``x~1``-``x~3`` (outer); a trailing ``#`` names the negative-control
variant, flagless inner or ascending outer.

Errors move through a circuit as one Pauli frame over its wires: the
ancilla, the flag and the 49 data qubits.  Every gate is a CNOT with one
rule: the control passes its X to the target, and the target passes its
Z back to the control.  The family only sets the direction:

    Z family   data/flag wire -> ancilla;  outcome = ancilla X, flag = flag Z
    X family   ancilla -> data/flag wire;  outcome = ancilla Z, flag = flag X

Fault positions: -1 injects right after the preparations, i after gate
i (a faulty gate acts ideally and then errs), len(gates) right before
the measurements.  A two-character local error reads (ancilla wire,
other wire); the other wire is the gate's data qubit, or the flag at a
flag CNOT and at the boundary positions.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterable, NamedTuple

from .codes import LEVEL1_GENS, LEVEL2_GENS, N49
from .pauli import BLOCK_SIZE, MASK7, N_BLOCKS, PauliOp

_FLAG = -1  # gate-list entry for a flag CNOT


class ExtractionCircuit(NamedTuple):
    """One generator-measurement circuit, immutable.

    ``gates`` holds data-qubit indices (global, 0-based) with -1 for a
    flag CNOT.  ``flag_bit`` is this circuit's index into the 21-bit
    flag vector of its family, or None when there is no flag.
    """

    name: str
    family: str  # "z" or "x"
    level: int  # 1 (inner) or 2 (outer)
    index: int  # 0-based within the level
    target_generator: PauliOp
    gates: tuple[int, ...]
    flag_bit: int | None = None

    @property
    def cnot_order(self) -> tuple[int, ...]:
        return tuple(q for q in self.gates if q != _FLAG)


def _support(mask: int) -> list[int]:
    return [q for q in range(N49) if (mask >> q) & 1]


def _target(family: str, mask: int) -> PauliOp:
    return (PauliOp.z_op if family == "z" else PauliOp.x_op)(N49, mask)


def level2_circuits(family: str = "z", interleaved: bool = True):
    """Bare-ancilla circuits for the outer generators, in generator order
    (plain ascending CNOT order only as the control and for Table 1)."""
    tag = "" if interleaved else "#"
    out = []
    for index, mask in enumerate(LEVEL2_GENS):
        if interleaved:
            blocks = [b for b in range(N_BLOCKS) if (mask >> (BLOCK_SIZE * b)) & MASK7]
            gates = tuple(BLOCK_SIZE * b + r for r in range(BLOCK_SIZE) for b in blocks)
        else:
            gates = tuple(_support(mask))
        out.append(
            ExtractionCircuit(
                f"{family}~{index + 1}{tag}", family, 2, index,
                _target(family, mask), gates,
            )
        )
    return tuple(out)


def level1_circuits(family: str = "z", flagged: bool = True):
    """Flagged circuits for the inner generators, in generator order
    (flagless only as the negative control)."""
    tag = "" if flagged else "#"
    out = []
    for index, mask in enumerate(LEVEL1_GENS):
        a, b, c, d = _support(mask)
        gates = (a, _FLAG, b, c, _FLAG, d) if flagged else (a, b, c, d)
        out.append(
            ExtractionCircuit(
                f"{family}{index + 1}{tag}", family, 1, index,
                _target(family, mask), gates, index if flagged else None,
            )
        )
    return tuple(out)


# (family, level) in a round's measurement order: outer Z, outer X, inner Z, inner X
ROUND_ORDER = (("z", 2), ("x", 2), ("z", 1), ("x", 1))


@functools.lru_cache(maxsize=None)
def circuit_phases(flagged: bool = True, interleaved: bool = True):
    """One circuit family, a tuple of circuits per phase of ``ROUND_ORDER``;
    ``flagged=False`` and ``interleaved=False`` pick the controls."""
    return tuple(
        level2_circuits(family, interleaved) if level == 2
        else level1_circuits(family, flagged)
        for family, level in ROUND_ORDER
    )


@functools.lru_cache(maxsize=1)
def circuits_by_name() -> dict[str, ExtractionCircuit]:
    """All 96 circuits of the four families, by their unique names: the
    real family and the all-control one hold every circuit once."""
    return {c.name: c for b in (True, False) for ph in circuit_phases(b, b) for c in ph}


# --- propagation -------------------------------------------------------------


class CircuitResult(NamedTuple):
    data_x: int
    data_z: int
    outcome: int  # measured syndrome bit, relative to the no-error run
    flag: int  # flag wire value (0 for unflagged circuits)


# Frame wires: the ancilla, the flag, then data qubit q at q + _DATA0.
_ANC, _FLG, _DATA0 = 0, 1, 2
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def check_injection(c: ExtractionCircuit, pos: int, local: str) -> None:
    """Raise ValueError unless ``local`` is a local error that position
    ``pos`` of ``c`` can carry: one Pauli letter per wire it touches, the
    ancilla and the gate's other wire mid-circuit, the ancilla and (where
    there is one) the flag at the boundaries."""
    n_gates = len(c.gates)
    if not -1 <= pos <= n_gates:
        raise ValueError(f"position {pos} out of range for {c.name}")
    if pos in (-1, n_gates):
        if len(local) == 2 and c.flag_bit is None:
            raise ValueError(f"{c.name} has no flag wire")
        if len(local) not in (1, 2):
            raise ValueError("boundary faults touch the ancilla and flag only")
    elif len(local) != 2:
        raise ValueError("gate faults are two-character local errors")
    for ch in local:
        if ch not in _PAULI_BITS:
            raise ValueError(f"bad Pauli character {ch!r}")


def run_circuit(
    c: ExtractionCircuit,
    data_x: int = 0,
    data_z: int = 0,
    injections: Iterable[tuple[int, str]] = (),
) -> CircuitResult:
    """Walk the circuit with an incoming data-error frame, injecting the
    given (position, local error) faults along the way."""
    n_gates = len(c.gates)
    by_pos: dict[int, list[str]] = defaultdict(list)
    for pos, local in injections:
        check_injection(c, pos, local)
        by_pos[pos].append(local)

    zfam = c.family == "z"
    x, z = data_x << _DATA0, data_z << _DATA0
    # the wire a local error's second character lands on, per position
    others = [_FLG, *(_FLG if q == _FLAG else q + _DATA0 for q in c.gates), _FLG]
    for pos, other in enumerate(others, start=-1):
        if 0 <= pos < n_gates:
            ctl, tgt = (other, _ANC) if zfam else (_ANC, other)
            x ^= (x >> ctl & 1) << tgt
            z ^= (z >> tgt & 1) << ctl
        for local in by_pos.get(pos, ()):
            for wire, ch in zip((_ANC, other), local):
                bx, bz = _PAULI_BITS[ch]
                x ^= bx << wire
                z ^= bz << wire

    outcome = (x if zfam else z) >> _ANC & 1
    flag = (z if zfam else x) >> _FLG & 1
    return CircuitResult(x >> _DATA0, z >> _DATA0, outcome, flag)


# --- fault enumeration ---------------------------------------------------------


class SingleFault(NamedTuple):
    """One fault location/error choice with its propagated effect."""

    position: int
    local: str
    data_x: int
    data_z: int
    flag21: int
    outcome: int

    @property
    def effect(self) -> tuple[int, int, int, int]:
        return (self.data_x, self.data_z, self.flag21, self.outcome)


def enumerate_single_faults(c: ExtractionCircuit) -> list[SingleFault]:
    """Every single fault of the damaging type for this family: Z-type
    locals in Z-family circuits (X-type by duality), over all gates and
    the preparation/measurement boundaries."""
    p = "Z" if c.family == "z" else "X"
    n_gates = len(c.gates)
    picks: list[tuple[int, str]] = [(-1, p)]
    if c.flag_bit is not None:
        picks.append((-1, "I" + p))
    for i in range(n_gates):
        picks += [(i, p + "I"), (i, "I" + p), (i, p + p)]
    picks.append((n_gates, p))
    if c.flag_bit is not None:
        picks.append((n_gates, "I" + p))
    out = []
    for pos, local in picks:
        r = run_circuit(c, injections=[(pos, local)])
        flag21 = r.flag << c.flag_bit if r.flag else 0
        out.append(SingleFault(pos, local, r.data_x, r.data_z, flag21, r.outcome))
    return out


def dedup_effects(faults: Iterable[SingleFault]) -> list[SingleFault]:
    """First representative of each distinct nonzero propagated effect."""
    seen = set()
    out = []
    for f in faults:
        if f.effect == (0, 0, 0, 0) or f.effect in seen:
            continue
        seen.add(f.effect)
        out.append(f)
    return out


def wait_fault_atoms() -> list[SingleFault]:
    """Single-qubit Z data errors during wait time, one per qubit."""
    return [SingleFault(-1, f"Z@q{q + 1}", 0, 1 << q, 0, 0) for q in range(N49)]


def flag_flip_atoms() -> list[SingleFault]:
    """Bare flag-measurement flips, one per inner circuit."""
    return [SingleFault(-1, f"flag{j + 1}", 0, 0, 1 << j, 0) for j in range(21)]
