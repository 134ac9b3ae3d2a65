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
catalog of circuits that the fault model, Table 1 and the protocol read.
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

``unit_results`` is the one single-fault table that the fault model and
the protocol read: per position, the results of X and Z on each wire
that the position touches, each one run on the zero frame on the
circuit's first use.  A run is linear, so ``fault_result`` gets any
local error's result as the XOR of its units.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, NamedTuple

from .codes import LEVEL1_GENS, LEVEL2_GENS, N49
from .pauli import BLOCK_SIZE, MASK7, N_BLOCKS, PAULI_BITS, PauliOp

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
        if ch not in PAULI_BITS:
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
    by_pos: dict[int, list[str]] = {}
    for pos, local in injections:
        check_injection(c, pos, local)
        by_pos.setdefault(pos, []).append(local)

    zfam = c.family == "z"
    x, z = data_x << _DATA0, data_z << _DATA0
    # per position from -1: the data qubit that a local error's second
    # character lands on, or _FLAG for the flag wire
    qubits = (_FLAG, *c.gates, _FLAG)
    # a CNOT maps the zero frame to itself: such a run starts at its first fault
    start = -1 if x or z else min(by_pos, default=n_gates)
    for pos in range(start, n_gates + 1):
        q = qubits[pos + 1]
        other = _FLG if q == _FLAG else q + _DATA0
        if 0 <= pos < n_gates:
            ctl, tgt = (other, _ANC) if zfam else (_ANC, other)
            x ^= (x >> ctl & 1) << tgt
            z ^= (z >> tgt & 1) << ctl
        for local in by_pos.get(pos, ()):
            for wire, ch in zip((_ANC, other), local):
                bx, bz = PAULI_BITS[ch]
                x ^= bx << wire
                z ^= bz << wire

    outcome = (x if zfam else z) >> _ANC & 1
    flag = (z if zfam else x) >> _FLG & 1
    return CircuitResult(x >> _DATA0, z >> _DATA0, outcome, flag)


# --- the single-fault table ----------------------------------------------------

# the units of a local error: X and Z of the ancilla, then of the other wire
LOCAL_UNITS = {
    loc: tuple(i for i, b in enumerate(sum(map(PAULI_BITS.get, loc), ())) if b)
    for loc in (*"XYZ", *(a + b for a in "IXYZ" for b in "IXYZ"))
}


@functools.lru_cache(maxsize=None)
def unit_results(name: str) -> tuple[tuple[CircuitResult, ...], ...]:
    """The one single-fault table of circuit ``name``: entry [pos + 1]
    holds the results of X and Z on the ancilla, then of X and Z on the
    position's other wire where it has one, each one ``run_circuit`` on
    the zero frame.  Propagation is linear, so a local error's result is
    the XOR of its ``LOCAL_UNITS``."""
    c = circuits_by_name()[name]
    n, flagged = len(c.gates), c.flag_bit is not None
    return tuple(
        tuple(run_circuit(c, injections=[(pos, local)]) for local in (
            ("XI", "ZI", "IX", "IZ") if flagged or 0 <= pos < n else "XZ"))
        for pos in range(-1, n + 1)
    )


def fault_result(name: str, pos: int, local: str) -> CircuitResult:
    """The result of one fault of circuit ``name`` on the zero frame, read
    from its table as the XOR of the local error's units."""
    units, out = unit_results(name)[pos + 1], CircuitResult(0, 0, 0, 0)
    for i in LOCAL_UNITS[local]:
        out = CircuitResult(*map(operator.xor, out, units[i]))
    return out
