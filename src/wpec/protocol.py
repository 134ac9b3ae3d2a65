"""Full error-correction protocol on the 49-qubit code.

One round measures the circuits in ``wpec.circuits.ROUND_ORDER``.  Its
fault-free outcomes are the frame's syndromes and a gate fault names its
circuit, so a negative-control trial (``x1#``, ``z~1#``) needs only the
table of its family.  Rounds repeat until the outcome bundle is
identical four times in a row (at most 16 rounds for at most three
faults); a fault-free round after another one, such as every round of
the fault-free tail but its first, repeats the last bundle without being
simulated.  The final bundle is then decoded in four steps: block-parity
lookup, per-subblock weight-parity correction from a 16-entry table, an
outer logical fix when the lookup missed, and the mirrored X side.  A
bundle stores the syndromes s; its triviality vector tau is derived from
them, never stored.

Faults are injected from a declarative schedule so any failing trial is
replayable from its text form.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .circuits import (
    ROUND_ORDER,
    check_injection,
    circuit_phases,
    circuits_by_name,
    run_circuit,
)
from .codes import (
    N49,
    STAB7,
    level1_syndrome,
    level2_syndrome,
    syndrome7,
    tau_from_syndrome,
)
from .decoder import LOGICAL_REP7, build_correction_table, wpec_steane
from .pauli import PauliOp, format_bits, identity, parse_bits
from .verifier import LookupTable, build_lookup_table

_MASK21 = (1 << 21) - 1
T = 3  # the fault budget t of the fault-tolerance conditions
_MAX_FAILURES = 20  # failing trials an FtecReport keeps


# ---------------------------------------------------------------------------
# Outcome bundles

_BUNDLE_FIELDS = (("s_x", 21), ("s_z", 21), ("s2", 6), ("tau", 14), ("f", 42))


class OutcomeBundle(NamedTuple):
    """All measurement outcomes of one round.

    s_x/s_z are the 21 first-level outcomes per side, stilde the 3
    second-level outcomes, and f the flag vector accumulated (mod 2)
    since the first round; tau, the per-subblock nontriviality vector,
    is a property computed from s.  The x-labeled fields feed the
    Z-error decode: they flip under Z errors on data.  f_x collects the
    flags of the Z-family circuits, which catch dangerous Z spread onto
    data.
    """

    s_x: int = 0
    s_z: int = 0
    stilde_x: int = 0
    stilde_z: int = 0
    f_x: int = 0
    f_z: int = 0

    @property
    def s(self) -> int:
        return self.s_x | (self.s_z << 21)

    @property
    def stilde(self) -> int:
        return self.stilde_x | (self.stilde_z << 3)

    @property
    def tau_x(self) -> int:
        return tau_from_syndrome(self.s_x)

    @property
    def tau_z(self) -> int:
        return tau_from_syndrome(self.s_z)

    @property
    def tau(self) -> int:
        return self.tau_x | (self.tau_z << 7)

    @property
    def f(self) -> int:
        return self.f_x | (self.f_z << 21)

    def render(self) -> str:
        values = (self.s_x, self.s_z, self.stilde, self.tau, self.f)
        return (
            "\n".join(
                f"{name}: {format_bits(v, w)}"
                for (name, w), v in zip(_BUNDLE_FIELDS, values)
            )
            + "\n"
        )

    @classmethod
    def parse(cls, text: str) -> "OutcomeBundle":
        got = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition(":")
            name, rest = name.strip(), rest.strip()
            widths = dict(_BUNDLE_FIELDS)
            if name not in widths:
                raise ValueError(f"unknown bundle field {name!r}")
            if name in got:
                raise ValueError(f"duplicate bundle field {name!r}")
            if len(rest) != widths[name] or set(rest) - {"0", "1"}:
                raise ValueError(
                    f"field {name} needs {widths[name]} bits, got {rest!r}"
                )
            got[name] = parse_bits(rest)
        missing = [name for name, _ in _BUNDLE_FIELDS if name not in got]
        if missing:
            raise ValueError(f"bundle is missing fields: {', '.join(missing)}")
        s2, f = got["s2"], got["f"]
        bundle = cls(got["s_x"], got["s_z"], s2 & 7, s2 >> 3, f & _MASK21, f >> 21)
        if got["tau"] != bundle.tau:
            raise ValueError(
                f"tau {format_bits(got['tau'], 14)} does not match the syndromes "
                f"s_x, s_z (tau {format_bits(bundle.tau, 14)})"
            )
        return bundle


# ---------------------------------------------------------------------------
# Fault schedules

_MEAS_WIDTH = {"sx": 21, "sz": 21, "s2x": 3, "s2z": 3}
_PAULIS = ("X", "Y", "Z")


class ScheduledFault(NamedTuple):
    """One injected fault, replayable from its one-line text form.

    kinds:
      gate <circuit> <position> <local>   Pauli after a gate of a named
                                          circuit (position -1 and
                                          n_gates are the boundaries)
      wait <qubit> <P> <phase>            data error on a qubit (1-based)
                                          before the given phase (0..3)
      flag <side> <bit>                   flip of one cumulative flag bit
                                          (side x = flags raised by the
                                          Z-family circuits)
      meas <field> <bit>                  flip of one outcome bit this
                                          round; field in sx, sz, s2x, s2z
    """

    round: int
    kind: str
    circuit: str = ""
    position: int = 0
    local: str = ""
    qubit: int = 0
    phase: int = 0
    side: str = ""
    meas_field: str = ""
    bit: int = 0

    def __str__(self) -> str:
        if self.kind == "gate":
            return f"{self.round} gate {self.circuit} {self.position} {self.local}"
        if self.kind == "wait":
            return f"{self.round} wait {self.qubit} {self.local} {self.phase}"
        if self.kind == "flag":
            return f"{self.round} flag {self.side} {self.bit}"
        return f"{self.round} meas {self.meas_field} {self.bit}"


def parse_fault(line: str) -> ScheduledFault:
    parts = line.split()
    if len(parts) < 3:
        raise ValueError(f"fault line too short: {line!r}")
    rnd = int(parts[0])
    if rnd < 0:
        raise ValueError(f"round must be non-negative: {line!r}")
    kind = parts[1]
    if kind == "gate":
        if len(parts) != 5:
            raise ValueError(f"gate fault needs circuit, position, local: {line!r}")
        name, pos, local = parts[2], int(parts[3]), parts[4]
        c = circuits_by_name().get(name)
        if c is None:
            raise ValueError(f"unknown circuit {name!r}")
        check_injection(c, pos, local)
        if set(local) == {"I"}:
            raise ValueError(f"identity is not a fault: {line!r}")
        return ScheduledFault(rnd, "gate", circuit=name, position=pos, local=local)
    if kind == "wait":
        if len(parts) not in (4, 5):
            raise ValueError(f"wait fault needs qubit, Pauli[, phase]: {line!r}")
        qubit, p = int(parts[2]), parts[3]
        phase = int(parts[4]) if len(parts) == 5 else 0
        if not 1 <= qubit <= N49:
            raise ValueError(f"qubit {qubit} out of range")
        if p not in _PAULIS:
            raise ValueError(f"bad wait Pauli {p!r}")
        if not 0 <= phase <= 3:
            raise ValueError(f"phase {phase} out of range")
        return ScheduledFault(rnd, "wait", qubit=qubit, local=p, phase=phase)
    if kind == "flag":
        if len(parts) != 4:
            raise ValueError(f"flag fault needs side, bit: {line!r}")
        side, bit = parts[2], int(parts[3])
        if side not in ("x", "z") or not 0 <= bit < 21:
            raise ValueError(f"bad flag fault: {line!r}")
        return ScheduledFault(rnd, "flag", side=side, bit=bit)
    if kind == "meas":
        if len(parts) != 4:
            raise ValueError(f"meas fault needs field, bit: {line!r}")
        fld, bit = parts[2], int(parts[3])
        if fld not in _MEAS_WIDTH or not 0 <= bit < _MEAS_WIDTH[fld]:
            raise ValueError(f"bad meas fault: {line!r}")
        return ScheduledFault(rnd, "meas", meas_field=fld, bit=bit)
    raise ValueError(f"unknown fault kind {kind!r}")


def parse_schedule(text: str) -> tuple[ScheduledFault, ...]:
    """One fault per line; a comment starts at a word starting with ``#``."""
    out = []
    for line in text.splitlines():
        words = list(itertools.takewhile(lambda w: w[0] != "#", line.split()))
        if words:
            out.append(parse_fault(" ".join(words)))
    return tuple(out)


def format_schedule(faults) -> str:
    return "".join(f"{f}\n" for f in faults)


# ---------------------------------------------------------------------------
# Round execution

_PHASE_FIELD = tuple(("s2" if lvl == 2 else "s") + fam for fam, lvl in ROUND_ORDER)
# per phase: its syndrome, and whether it reads a data error's X part (Z family)
_READS = tuple(
    (level2_syndrome if lvl == 2 else level1_syndrome, fam == "z")
    for fam, lvl in ROUND_ORDER
)


def _phase_reads(dx: int, dz: int) -> list[int]:
    """Outcome bits per phase for a data error present from that phase on."""
    return [read(dx if zfam else dz) for read, zfam in _READS]


class ProtocolState:
    """Pauli frame of the true data error plus the per-round log; the
    rounds of one trial update it in place."""

    def __init__(
        self,
        data_error: PauliOp,
        fault_schedule: dict[int, tuple[ScheduledFault, ...]],
    ) -> None:
        self.data_error = data_error
        self.round_log: list[OutcomeBundle] = []
        self.fault_schedule = fault_schedule
        self._f_x = 0
        self._f_z = 0


def make_state(
    schedule=(), input_error: PauliOp | None = None
) -> ProtocolState:
    by_round: dict[int, list[ScheduledFault]] = defaultdict(list)
    for f in schedule:
        by_round[f.round].append(f)
    return ProtocolState(
        identity(N49) if input_error is None else input_error,
        {r: tuple(fs) for r, fs in by_round.items()},
    )


def run_round(state: ProtocolState) -> OutcomeBundle:
    """Simulate one full measurement round and append its bundle.

    Every circuit is CNOT-only, so a round is linear in the incoming
    frame and its faults.  The fault-free outcomes are the syndromes of
    the incoming frame, and each fault XORs in its own effect:

    * a data error left before a phase, or by a gate fault inside one of
      its circuits, is read by the later circuits of that phase and by
      every later phase, and stays in the frame;
    * a gate fault's effect is ``run_circuit`` on the zero frame: its
      data residue, its own outcome bit and its flag;
    * measurement and flag faults flip one bit directly.
    """
    rnd = len(state.round_log)
    dx, dz = state.data_error.x_bits, state.data_error.z_bits
    outcomes = _phase_reads(dx, dz)
    flags = [state._f_x, state._f_z]
    for f in state.fault_schedule.get(rnd, ()):
        if f.kind == "meas":
            outcomes[_PHASE_FIELD.index(f.meas_field)] ^= 1 << f.bit
            continue
        if f.kind == "flag":
            flags[f.side == "z"] ^= 1 << f.bit
            continue
        if f.kind == "wait":
            q = f.qubit - 1
            ex = (f.local in ("X", "Y")) << q
            ez = (f.local in ("Z", "Y")) << q
            phase, unread_from = f.phase, 0
        elif f.kind == "gate":
            c = circuits_by_name()[f.circuit]
            r = run_circuit(c, injections=[(f.position, f.local)])
            ex, ez = r.data_x, r.data_z
            phase, unread_from = ROUND_ORDER.index((c.family, c.level)), c.index + 1
            outcomes[phase] ^= r.outcome << c.index
            if r.flag:
                flags[c.family == "x"] ^= 1 << c.flag_bit
        else:
            raise ValueError(f"unknown fault kind {f.kind!r}")
        reads = _phase_reads(ex, ez)
        reads[phase] &= -1 << unread_from  # circuits already measured miss it
        for p in range(phase, len(ROUND_ORDER)):
            outcomes[p] ^= reads[p]
        dx ^= ex
        dz ^= ez

    state._f_x, state._f_z = flags
    s2z, s2x, s_z, s_x = outcomes
    bundle = OutcomeBundle(s_x, s_z, s2x, s2z, state._f_x, state._f_z)
    state.data_error = PauliOp(N49, dx, dz)
    state.round_log.append(bundle)
    return bundle


def run_until_stable(
    state: ProtocolState, *, repeats: int = 4, max_rounds: int = 16
) -> tuple[OutcomeBundle, int]:
    """Run rounds until the bundle repeats ``repeats`` times in a row.

    Returns the stable bundle and the number of rounds used.  At most
    three faults can change the bundle at most three times, so the loop
    finishes within 16 rounds; running past that means a bug.

    A round without faults leaves the frame and the flags as they were,
    so a fault-free round after another one is not simulated: its bundle
    is the last one again.  That covers every round of the fault-free
    tail but its first, the one after the last scheduled round.
    """
    log, faulty = state.round_log, state.fault_schedule
    streak = 0  # equal bundles at the end of the log, a given log's included
    while streak < len(log) and log[~streak] == log[-1]:
        streak += 1
    while len(log) < max_rounds:
        rnd = len(log)
        if rnd and rnd not in faulty and rnd - 1 not in faulty:
            bundle = log[-1]
            log.append(bundle)
            streak += 1
        else:
            bundle = run_round(state)
            streak = streak + 1 if rnd and bundle == log[-2] else 1
        if streak >= repeats > 0:
            return bundle, len(log)
    raise RuntimeError(f"bundle failed to stabilize within {max_rounds} rounds")


# ---------------------------------------------------------------------------
# Decoding

@functools.lru_cache(maxsize=1)
def _block_corrections() -> tuple[int, ...]:
    """``wpec_steane`` as a table: entry 2s + w is the Z mask of the
    subblock correction for inner syndrome s and weight parity w."""
    ct = build_correction_table()
    return tuple(wpec_steane(s, w, ct).z_bits for s in range(8) for w in (0, 1))


# each nonzero outer syndrome is hit by exactly one subblock's column
_COLUMN_BLOCK = {syndrome7(1 << b): b for b in range(7)}


class SideReport(NamedTuple):
    parity: int
    fallback: bool
    step3_block: int | None


class DecodeReport(NamedTuple):
    z_side: SideReport
    x_side: SideReport

    @property
    def fallback_used(self) -> bool:
        return self.z_side.fallback or self.x_side.fallback


def _decode_side(
    s21: int, stilde: int, tau: int, f21: int, table: LookupTable
) -> tuple[int, SideReport]:
    parity = table.lookup_parity(stilde, tau, s21, f21)
    fallback = parity is None
    if fallback:
        parity = 127
    blocks = _block_corrections()
    mask = 0
    for b in range(7):
        mask |= blocks[(s21 >> (3 * b) & 7) << 1 | (parity >> b) & 1] << (7 * b)
    # the applied parity always matches the observed outer syndrome for
    # in-table records; a leftover difference only appears on fallback
    residue = stilde ^ syndrome7(parity)
    step3 = None
    if residue:
        step3 = _COLUMN_BLOCK[residue]
        mask ^= LOGICAL_REP7 << (7 * step3)
    return mask, SideReport(parity=parity, fallback=fallback, step3_block=step3)


def decode_with_report(
    bundle: OutcomeBundle, table: LookupTable
) -> tuple[PauliOp, DecodeReport]:
    """Four-step decode of a stable bundle.

    Z side: the (stilde_x, tau_x) partition of the lookup table gives
    the subblock parity vector, by unanimity or by the exact (s_x, f_x)
    record; a miss falls back to the all-ones parity.  Each subblock
    then receives its weight-parity correction, and on fallback one
    subblock additionally receives the outer logical matching the
    leftover second-level syndrome.  The X side mirrors with the z
    observations.
    """
    zmask, zrep = _decode_side(
        bundle.s_x, bundle.stilde_x, bundle.tau_x, bundle.f_x, table
    )
    xmask, xrep = _decode_side(
        bundle.s_z, bundle.stilde_z, bundle.tau_z, bundle.f_z, table
    )
    return PauliOp(N49, xmask, zmask), DecodeReport(z_side=zrep, x_side=xrep)


# ---------------------------------------------------------------------------
# Residual classification

@functools.lru_cache(maxsize=1)
def _joint_block_table():
    """Per-subblock minimal joint weight under stabilizer freedom.

    joint[128 ex + ez, 2 cx + cz] is the smallest popcount(x | z) over x
    in the inner coset of ex (flipped by the block logical when cx) and
    z from ez likewise.  The admissible patterns of whole-block logical
    flips are the 8 outer stabilizer patterns, then the same 8 shifted
    by the global logical; counts has one row per (x pattern, z pattern)
    pair, row 16 x + z, with a 1 at 4b + 2 cx + cz for the entry it
    takes from block b.  Both are float64 so that the weight sums are
    one matrix-vector product; they stay exact small integers.
    """
    stab = np.array(STAB7, dtype=np.uint16)
    ar = np.arange(128, dtype=np.uint16)
    cand = np.empty((2, 128, 8), dtype=np.uint8)
    cand[0] = (ar[:, None] ^ stab[None, :]).astype(np.uint8)
    cand[1] = (ar[:, None] ^ (stab[None, :] ^ 127)).astype(np.uint8)
    a = cand[:, :, None, None, :, None]
    b = cand[None, None, :, :, None, :]
    joint = np.bitwise_count(a | b).min(axis=(4, 5)).astype(np.float64)
    joint = joint.transpose(1, 3, 0, 2).reshape(128 * 128, 4)
    pats = np.concatenate([stab, stab ^ 127]).astype(np.uint8)
    bits = ((pats[:, None] >> np.arange(7)[None, :]) & 1).astype(np.int64)
    entry = 4 * np.arange(7) + 2 * bits[:, None, :] + bits[None, :, :]
    counts = (entry[..., None] == np.arange(28)).any(axis=2).astype(np.float64)
    return joint, counts.reshape(16 * 16, 28)


def joint_coset_weight(op: PauliOp) -> tuple[int, int]:
    """Minimal weights of op times the 49-qubit code's stabilizers:
    ``(exact, normalizer)``.

    exact ranges over the stabilizers alone, so it is zero exactly when
    op is a stabilizer; normalizer also allows any logical, so it is the
    distance to the nearest codeword-preserving operator.  Both are
    minima of one weight vector, exact over its rows whose x and z
    patterns are both outer stabilizers (x, z < 8).
    """
    joint, counts = _joint_block_table()
    x, z = op.x_bits, op.z_bits
    rows = [(x >> s & 127) << 7 | (z >> s & 127) for s in range(0, N49, 7)]
    w = counts @ joint.take(rows, 0).reshape(28)
    return int(w.reshape(16, 16)[:8, :8].min()), int(w.min())


# ---------------------------------------------------------------------------
# Trials and the fault-tolerance conditions

class Trial(NamedTuple):
    input_error: PauliOp
    schedule: tuple[ScheduledFault, ...] = ()
    name: str = ""


class TrialResult(NamedTuple):
    trial: Trial
    rounds_used: int
    bundle: OutcomeBundle
    correction: PauliOp
    residual: PauliOp
    v1: int
    v2: int
    decode_consistent: bool
    fallback_used: bool
    weight_exact: int
    weight_normalizer: int
    condition1: bool | None
    condition2: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.decode_consistent
            and self.condition1 is not False
            and self.condition2 is not False
        )

    def render(self) -> str:
        lines = [
            f"trial {self.trial.name or '<unnamed>'}: "
            f"v1={self.v1} v2={self.v2} rounds={self.rounds_used}",
            f"  input    : {self.trial.input_error}",
            f"  residual : {self.residual}",
            f"  weights  : exact {self.weight_exact}, "
            f"mod normalizer {self.weight_normalizer}",
            f"  checks   : decode consistent {self.decode_consistent}, "
            f"condition1 {self.condition1}, condition2 {self.condition2}",
        ]
        if self.trial.schedule:
            lines.append("  schedule :")
            lines.extend(f"    {f}" for f in self.trial.schedule)
        return "\n".join(lines)


def _decode_consistent(bundle: OutcomeBundle, correction: PauliOp) -> bool:
    """The correction must cancel exactly the measured syndromes, so a
    data error faithfully reflected by the bundle returns to the
    codespace.  (The true error can still drift from the bundle when a
    fault lands after its last measurement of the final rounds; that
    drift is what condition 2 bounds.)"""
    return (
        level1_syndrome(correction.z_bits) == bundle.s_x
        and level2_syndrome(correction.z_bits) == bundle.stilde_x
        and level1_syndrome(correction.x_bits) == bundle.s_z
        and level2_syndrome(correction.x_bits) == bundle.stilde_z
    )


def run_trial(trial: Trial, table: LookupTable) -> TrialResult:
    state = make_state(trial.schedule, trial.input_error)
    bundle, rounds_used = run_until_stable(state)
    correction, report = decode_with_report(bundle, table)
    residual = state.data_error * correction
    v1 = trial.input_error.weight()
    v2 = sum(
        len(fs) for r, fs in state.fault_schedule.items() if r < rounds_used
    )
    w_exact, w_norm = joint_coset_weight(residual)
    cond1 = (w_exact == w_norm) if v1 + v2 <= T else None
    cond2 = (w_norm <= v2) if v2 <= T else None
    return TrialResult(
        trial=trial,
        rounds_used=rounds_used,
        bundle=bundle,
        correction=correction,
        residual=residual,
        v1=v1,
        v2=v2,
        decode_consistent=_decode_consistent(bundle, correction),
        fallback_used=report.fallback_used,
        weight_exact=w_exact,
        weight_normalizer=w_norm,
        condition1=cond1,
        condition2=cond2,
    )


class FtecReport(NamedTuple):
    n_trials: int
    n_condition1: int
    n_condition2: int
    n_fallback: int
    max_rounds_used: int
    n_failures: int
    failures: tuple[TrialResult, ...]  # the first _MAX_FAILURES of them

    @property
    def ok(self) -> bool:
        return not self.n_failures

    def render(self) -> str:
        lines = [
            f"trials: {self.n_trials}",
            f"condition 1 checked: {self.n_condition1}",
            f"condition 2 checked: {self.n_condition2}",
            f"fallback decodes: {self.n_fallback}",
            f"max rounds used: {self.max_rounds_used}",
            f"failures: {self.n_failures} ({len(self.failures)} shown)",
        ]
        lines.extend(f.render() for f in self.failures)
        return "\n".join(lines) + "\n"


def check_ftec_conditions(trials, *, table: LookupTable | None = None) -> FtecReport:
    """Run every trial and test the two fault-tolerance conditions.

    With v1 the input-error weight and v2 the number of executed faults:
    when v1 + v2 <= T an ideal decode of the output must recover the
    input codeword (the residual's nearest codeword decomposition
    carries no logical), and whenever v2 <= T the output must be within
    weight v2 of some codeword, wrong logical allowed.  The correction
    must cancel the measured syndromes regardless.
    """
    if table is None:
        table = build_lookup_table(T)
    n = n1 = n2 = nfb = nfail = 0
    max_rounds = 0
    failures = []
    for trial in trials:
        r = run_trial(trial, table)
        n += 1
        n1 += r.condition1 is not None
        n2 += r.condition2 is not None
        nfb += r.fallback_used
        max_rounds = max(max_rounds, r.rounds_used)
        nfail += not r.ok
        if not r.ok and len(failures) < _MAX_FAILURES:
            failures.append(r)
    return FtecReport(
        n_trials=n,
        n_condition1=n1,
        n_condition2=n2,
        n_fallback=nfb,
        max_rounds_used=max_rounds,
        n_failures=nfail,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Trial generators

def exhaustive_input_trials(max_weight: int = 3):
    """Every Z-type input error of weight up to max_weight, no faults."""
    yield Trial(identity(N49), name="input:clean")
    for w in range(1, max_weight + 1):
        for qubits in itertools.combinations(range(N49), w):
            mask = 0
            for q in qubits:
                mask |= 1 << q
            yield Trial(
                PauliOp.z_op(N49, mask),
                name="input:" + ",".join(str(q + 1) for q in qubits),
            )


def _random_input(rng: random.Random, weight: int) -> PauliOp:
    xm = zm = 0
    for q in rng.sample(range(N49), weight):
        p = rng.choice(_PAULIS)
        if p in ("X", "Y"):
            xm |= 1 << q
        if p in ("Z", "Y"):
            zm |= 1 << q
    return PauliOp(N49, xm, zm)


_GATE_LOCALS = [
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
]


def _random_fault(rng: random.Random, rnd: int) -> ScheduledFault:
    kind = rng.choices(("gate", "wait", "flag", "meas"), weights=(10, 5, 2, 3))[0]
    if kind == "gate":
        name = rng.choice(sorted(c.name for ph in circuit_phases() for c in ph))
        c = circuits_by_name()[name]
        pos = rng.randint(-1, len(c.gates))
        if pos in (-1, len(c.gates)):
            local = rng.choice(_PAULIS)
            if c.flag_bit is not None and rng.random() < 0.3:
                local = "I" + rng.choice(_PAULIS)
        else:
            local = rng.choice(_GATE_LOCALS)
        return ScheduledFault(rnd, "gate", circuit=name, position=pos, local=local)
    if kind == "wait":
        return ScheduledFault(
            rnd,
            "wait",
            qubit=rng.randint(1, N49),
            local=rng.choice(_PAULIS),
            phase=rng.randint(0, 3),
        )
    if kind == "flag":
        return ScheduledFault(
            rnd, "flag", side=rng.choice("xz"), bit=rng.randrange(21)
        )
    fld = rng.choice(sorted(_MEAS_WIDTH))
    return ScheduledFault(
        rnd, "meas", meas_field=fld, bit=rng.randrange(_MEAS_WIDTH[fld])
    )


def sample_trials(n: int, seed: int = 0, *, max_round: int = 5):
    """Deterministic stream of random fault schedules, 1 to T faults each.

    Most trials carry a small input error so condition 1 applies; every
    tenth gets an input far beyond the code distance, exercising
    condition 2 alone.
    """
    rng = random.Random(seed)
    for i in range(n):
        v2 = rng.randint(1, T)
        if i % 10 == 9:
            v1 = rng.randint(8, 12)
        else:
            v1 = rng.randint(0, T - v2)
        schedule = tuple(
            _random_fault(rng, rng.randint(0, max_round)) for _ in range(v2)
        )
        yield Trial(
            _random_input(rng, v1), schedule=schedule, name=f"sample:{seed}/{i}"
        )
