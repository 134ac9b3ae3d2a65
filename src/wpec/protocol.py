"""Full error-correction protocol on the 49-qubit code.

One round measures the circuits in ``wpec.circuits.ROUND_ORDER``.  Every
circuit is CNOT-only, so a round is linear: a trial's whole state is one
int, the state word of the frame's syndromes, the cumulative flags and
the data error, and ``run_round(word, effect)`` XORs into it the round's
effect, the XOR of its faults' packed words of outcome flips, frame
reads, flag flips and data residue, and returns with the next word the
round's packed observation: 48 outcome bits, then the 42 cumulative
flags.  A data error's frame reads are 9 reads of tables over 11-bit
chunks of dx | dz << 49.  A gate fault's word is the XOR of unit words
packed, on the circuit's first use, from the one single-fault table
``circuits.unit_results`` that the fault model reads too; a gate fault
names its circuit, so a negative-control trial (``x1#``, ``z~1#``)
needs only the lookup table of its family.
``run_until_stable(input_error, schedule)`` repeats rounds until the
observation is identical four times in a row (at most 16 rounds for at
most three faults) and unpacks only that one into an ``OutcomeBundle``;
a fault-free round after another one, such as every round of the
fault-free tail but its first, repeats the last observation without
being simulated.  The final bundle is then decoded in four steps:
block-parity lookup, the weight-parity corrections of all seven
subblocks in three table reads (subblocks 0-2 and 3-5 each by 9 inner
syndrome bits and 3 parities, subblock 6 by 3 and 1), an outer logical
fix when the lookup missed, and the mirrored X side.  Every table is
built on first use.  A bundle stores the syndromes s; its triviality
vector tau is derived from them, never stored.  A residual with zero
syndromes gets its weights from its parities, any other from a search
over its stabilizer coset.

Faults are injected from a declarative schedule so any failing trial is
replayable from its text form.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple

import numpy as np

from .circuits import (
    LOCAL_UNITS,
    ROUND_ORDER,
    check_injection,
    circuit_phases,
    circuits_by_name,
    run_circuit,  # unused; perfbench/tracing.py wraps protocol.run_circuit
    unit_results,
)
from .codes import (
    LOGICAL49,
    N49,
    STAB7,
    level1_syndrome,
    level2_syndrome,
    syndrome7,
    tau_from_syndrome,
)
from .decoder import LOGICAL_REP7, build_correction_table, wpec_steane
from .pauli import PAULI_BITS, PauliOp, format_bits, identity, parse_bits
from .verifier import LookupTable, build_lookup_table

_MASK21 = (1 << 21) - 1
T = 3  # the fault budget t of the fault-tolerance conditions
_DISTANCE = 9  # of the 49-qubit code
_MAX_FAILURES = 20  # failing trials an FtecReport keeps


# ---------------------------------------------------------------------------
# Outcome bundles

def _uncommented(line: str) -> str:
    """The words of a bundle or schedule line, joined by single spaces, up
    to its comment: a word that starts with ``#`` and the rest of the line."""
    return " ".join(itertools.takewhile(lambda w: w[0] != "#", line.split()))


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
        for line in filter(None, map(_uncommented, text.splitlines())):
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


def _int_word(word: str, line: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise ValueError(f"not an integer: {word!r} in fault line {line!r}") from None


def parse_fault(line: str) -> ScheduledFault:
    parts = line.split()
    if len(parts) < 3:
        raise ValueError(f"fault line too short: {line!r}")
    rnd = _int_word(parts[0], line)
    if rnd < 0:
        raise ValueError(f"round must be non-negative: {line!r}")
    kind = parts[1]
    if kind == "gate":
        if len(parts) != 5:
            raise ValueError(f"gate fault needs circuit, position, local: {line!r}")
        name, pos, local = parts[2], _int_word(parts[3], line), parts[4]
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
        qubit, p = _int_word(parts[2], line), parts[3]
        phase = _int_word(parts[4], line) if len(parts) == 5 else 0
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
        side, bit = parts[2], _int_word(parts[3], line)
        if side not in ("x", "z") or not 0 <= bit < 21:
            raise ValueError(f"bad flag fault: {line!r}")
        return ScheduledFault(rnd, "flag", side=side, bit=bit)
    if kind == "meas":
        if len(parts) != 4:
            raise ValueError(f"meas fault needs field, bit: {line!r}")
        fld, bit = parts[2], _int_word(parts[3], line)
        if fld not in _MEAS_WIDTH or not 0 <= bit < _MEAS_WIDTH[fld]:
            raise ValueError(f"bad meas fault: {line!r}")
        return ScheduledFault(rnd, "meas", meas_field=fld, bit=bit)
    raise ValueError(f"unknown fault kind {kind!r}")


def parse_schedule(text: str) -> tuple[ScheduledFault, ...]:
    """One fault per line; ``_uncommented`` drops the ``#`` comments."""
    lines = filter(None, map(_uncommented, text.splitlines()))
    return tuple(map(parse_fault, lines))


def format_schedule(faults) -> str:
    return "".join(f"{f}\n" for f in faults)


# ---------------------------------------------------------------------------
# Round execution

_PHASE_FIELD = tuple(("s2" if lvl == 2 else "s") + fam for fam, lvl in ROUND_ORDER)
_PHASE_OF = {fam_lvl: p for p, fam_lvl in enumerate(ROUND_ORDER)}
# A fault's effect word, low bits to high: this round's outcome flips and
# the reads it leaves in the frame for later rounds (48 bits each, the
# 3+3+21+21 bit fields of _PHASE_FIELD from _OFFSET on), the flag flips
# f_x and f_z, the data residue x and z.  A state word is an effect word
# without its outcome flips.
_OFFSET = _S2Z, _S2X, _SZ, _SX = (0, 3, 6, 27)
_FIELD_BIT = dict(zip(_PHASE_FIELD, _OFFSET))
_OUT, _F_X, _F_Z, _D_X, _D_Z = 48, 96, 117, 138, 187


_CHUNK = 11  # bits of the data word dx | dz << 49 that one table read takes


@functools.lru_cache(maxsize=1)
def _read_chunks() -> tuple[tuple[int, ...], ...]:
    """``_phase_reads`` as 9 tables over 11-bit chunks of the data word:
    entry [c][e] is the XOR of the unit reads of the bits set in e, the
    Z family reading the X part, the X family the Z part."""
    units = [level2_syndrome(1 << q) << s2 | level1_syndrome(1 << q) << s1
             for s2, s1 in ((_S2Z, _SZ), (_S2X, _SX)) for q in range(N49)]
    units = np.array(units + [0] * (-2 * N49 % _CHUNK), dtype=np.uint64)
    units = units.reshape(-1, _CHUNK)
    tables = np.zeros((len(units), 1), dtype=np.uint64)
    for j in range(_CHUNK):  # entries with bit j set: those without it, XOR unit j
        tables = np.hstack([tables, tables ^ units[:, j:j + 1]])
    return tuple(map(tuple, tables.tolist()))


def _phase_reads(dx: int, dz: int) -> int:
    """Outcome word of a data error present from phase 0 on: one table
    read per 11-bit chunk of dx | dz << 49."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = _read_chunks()
    d = dx | dz << N49
    return (t0[d & 2047] ^ t1[d >> 11 & 2047] ^ t2[d >> 22 & 2047]
            ^ t3[d >> 33 & 2047] ^ t4[d >> 44 & 2047] ^ t5[d >> 55 & 2047]
            ^ t6[d >> 66 & 2047] ^ t7[d >> 77 & 2047] ^ t8[d >> 88])


def _residue(dx: int, dz: int) -> int:
    """Effect word of a data error left before phase 0."""
    reads = _phase_reads(dx, dz)
    return reads | reads << _OUT | dx << _D_X | dz << _D_Z


@functools.lru_cache(maxsize=None)
def _circuit_effects(name: str) -> tuple[tuple[int, ...], ...]:
    """Unit effect words of one circuit's gate faults, packed from its
    ``unit_results``: a local error's effect is the XOR of its
    ``LOCAL_UNITS``; the circuits measured up to this one miss its
    residue."""
    c = circuits_by_name()[name]
    at = _OFFSET[_PHASE_OF[c.family, c.level]] + c.index  # its outcome bit
    flag = 0 if c.flag_bit is None else 1 << c.flag_bit + (
        _F_X if c.family == "z" else _F_Z)
    return tuple(
        tuple(_residue(r.data_x, r.data_z) & -2 << at | r.outcome << at | flag * r.flag
              for r in units)
        for units in unit_results(name)
    )


@functools.lru_cache(maxsize=1)
def _wait_effects() -> dict[str, tuple[int, ...]]:
    """Effect word of a wait fault per Pauli letter and qubit, as if left
    before phase 0; a later phase masks off the fields before it."""
    return {
        p: tuple(_residue(bx << q, bz << q) for q in range(N49))
        for p, (bx, bz) in PAULI_BITS.items()
    }


def _effect(f: ScheduledFault) -> int:
    if f.kind == "gate":
        units, e = _circuit_effects(f.circuit)[f.position + 1], 0
        for i in LOCAL_UNITS[f.local]:
            e ^= units[i]
        return e
    if f.kind == "wait":
        return _wait_effects()[f.local][f.qubit - 1] & -1 << _OFFSET[f.phase]
    if f.kind == "flag":
        return 1 << f.bit + (_F_Z if f.side == "z" else _F_X)
    if f.kind == "meas":
        return 1 << f.bit + _FIELD_BIT[f.meas_field]
    raise ValueError(f"unknown fault kind {f.kind!r}")


def _frame(word: int) -> PauliOp:
    """The data error of a state word."""
    w = word >> _D_X - _OUT
    return PauliOp(N49, w & LOGICAL49, w >> N49)


# An observation: a round's 48 outcome bits, then the 42 cumulative flags
# f_x and f_z, as a state word holds them from bit _OUT on.
_FLAGS = (1 << 42) - 1 << _OUT


def _bundle(obs: int) -> OutcomeBundle:
    """The outcome bundle of a packed observation."""
    return OutcomeBundle(
        obs >> _SX & _MASK21, obs >> _SZ & _MASK21, obs >> _S2X & 7, obs & 7,
        obs >> _OUT & _MASK21, obs >> _F_Z - _OUT & _MASK21,
    )


def run_round(word: int, effect: int) -> tuple[int, int]:
    """One full measurement round: the next state word and the packed
    observation, which ``_bundle`` unpacks.

    Every circuit is CNOT-only, so a round is linear in the incoming
    frame and its faults.  The outcomes are the state word's frame reads
    XOR the low bits of ``effect``, the XOR of the round's fault effect
    words, which hold each fault's own outcome flips and the reads of its
    data residue by every later circuit; the rest of the effect shifts
    into the state word, whose flags the observation takes.
    """
    new = word ^ effect >> _OUT
    return new, (word ^ effect) & (1 << _OUT) - 1 | new & _FLAGS


_REPEATS, _MAX_ROUNDS = 4, 16


def run_until_stable(
    input_error: PauliOp, schedule=()
) -> tuple[OutcomeBundle, int, PauliOp]:
    """Run rounds from ``input_error`` until the bundle repeats four times
    in a row: the stable bundle, the number of rounds used and the data
    error left.

    At most three faults can change the bundle at most three times, so
    the loop finishes within 16 rounds; running past that means a bug.
    A round without faults leaves the frame and the flags as they were,
    so a fault-free round after another one is not simulated: its bundle
    is the last one again.  That covers every round of the fault-free
    tail but its first, the one after the last scheduled round.
    """
    effects: dict[int, int] = {}  # round -> XOR of its faults' effects
    for f in schedule:
        effects[f.round] = effects.get(f.round, 0) ^ _effect(f)
    word = _residue(input_error.x_bits, input_error.z_bits) >> _OUT
    obs, streak = None, 0  # the last observation, and how often it came in a row
    for rnd in range(_MAX_ROUNDS):
        if rnd and rnd not in effects and rnd - 1 not in effects:
            streak += 1
        else:
            word, new = run_round(word, effects.get(rnd, 0))
            streak = streak + 1 if new == obs else 1
            obs = new
        if streak == _REPEATS:
            return _bundle(obs), rnd + 1, _frame(word)
    raise RuntimeError(f"bundle failed to stabilize within {_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Decoding

@functools.lru_cache(maxsize=1)
def _side_tables() -> tuple[tuple[int, ...], ...]:
    """``wpec_steane`` as three tables of one side's Z mask: subblocks
    0-2 and 3-5, each entry [s << 3 | p] for their 9 inner syndrome bits
    s and 3 weight parities p, then subblock 6, entry [s << 1 | p]."""
    ct = build_correction_table()
    flat = np.array([wpec_steane(s, w, ct).z_bits for s in range(8) for w in (0, 1)],
                    dtype=np.uint64)
    i = np.arange(1 << 12, dtype=np.uint64)
    low = sum(flat[(i >> 3 * b + 3 & 7) << 1 | i >> b & 1] << 7 * b for b in range(3))
    return tuple(tuple(t.tolist()) for t in (low, low << 21, flat << 42))


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
    s21: int, stilde: int, f21: int, table: LookupTable
) -> tuple[int, SideReport]:
    parity = table.lookup_parity(stilde, s21, f21)
    fallback = parity is None
    if fallback:
        parity = 127
    low, mid, high = _side_tables()
    mask = (low[(s21 & 511) << 3 | parity & 7] | mid[s21 >> 6 & 4088 | parity >> 3 & 7]
            | high[s21 >> 17 & 14 | parity >> 6])
    # the applied parity always matches the observed outer syndrome for
    # in-table records; a leftover difference only appears on fallback
    residue = stilde ^ syndrome7(parity)
    step3 = None
    if residue:
        step3 = _COLUMN_BLOCK[residue]
        mask ^= LOGICAL_REP7 << (7 * step3)
    return mask, SideReport(parity, fallback, step3)


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
    s_x, s_z, stilde_x, stilde_z, f_x, f_z = bundle
    zmask, zrep = _decode_side(s_x, stilde_x, f_x, table)
    xmask, xrep = _decode_side(s_z, stilde_z, f_z, table)
    return PauliOp(N49, xmask, zmask), DecodeReport(zrep, xrep)


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
    pair, the 64 pairs of two outer stabilizer patterns first, with a 1
    at 4b + 2 cx + cz for the entry it takes from block b.  Both are
    float64 so that the weight sums are one matrix-vector product; they
    stay exact small integers.
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
    rows = [counts[:8, :8], counts[:8, 8:], counts[8:]]
    return joint, np.concatenate([r.reshape(-1, 28) for r in rows])


def joint_coset_weight(op: PauliOp) -> tuple[int, int]:
    """Minimal weights of op times the 49-qubit code's stabilizers:
    ``(exact, normalizer)``.

    exact ranges over the stabilizers alone, so it is zero exactly when
    op is a stabilizer; normalizer also allows any logical, so it is the
    distance to the nearest codeword-preserving operator.

    An op whose four syndromes (``_phase_reads``) are all zero is in the
    normalizer and needs no search.  Every stabilizer has even weight and
    the logicals are all-ones, so op is a stabilizer, (0, 0), when its x
    and z parts both have even weight, and otherwise a nontrivial logical
    of the distance-9 code, (9, 0).  Any other op takes both minima of
    one weight vector, exact over its first 64 rows, whose x and z
    patterns are both outer stabilizers, and normalizer over all.
    """
    x, z = op.x_bits, op.z_bits
    if not _phase_reads(x, z):
        return (_DISTANCE, 0) if (x.bit_count() | z.bit_count()) & 1 else (0, 0)
    joint, counts = _joint_block_table()
    rows = [(x >> s & 127) << 7 | (z >> s & 127) for s in range(0, N49, 7)]
    w = counts @ joint.take(rows, 0).reshape(28)
    exact, rest = np.minimum.reduceat(w, (0, 64)).tolist()
    return int(exact), int(min(exact, rest))


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
        return (self.decode_consistent and self.condition1 is not False
                and self.condition2 is not False)

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
    b = bundle
    return _phase_reads(correction.x_bits, correction.z_bits) == (
        b.stilde_z << _S2Z | b.stilde_x << _S2X | b.s_z << _SZ | b.s_x << _SX)


def run_trial(trial: Trial, table: LookupTable) -> TrialResult:
    bundle, rounds_used, out = run_until_stable(trial.input_error, trial.schedule)
    correction, report = decode_with_report(bundle, table)
    residual = PauliOp(
        N49, out.x_bits ^ correction.x_bits, out.z_bits ^ correction.z_bits
    )
    v1 = trial.input_error.weight()
    v2 = sum(f.round < rounds_used for f in trial.schedule)
    w_exact, w_norm = joint_coset_weight(residual)
    cond1 = (w_exact == w_norm) if v1 + v2 <= T else None
    cond2 = (w_norm <= v2) if v2 <= T else None
    consistent = _decode_consistent(bundle, correction)
    return TrialResult(trial, rounds_used, bundle, correction, residual, v1, v2,
                       consistent, report.fallback_used, w_exact, w_norm, cond1, cond2)


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
    n = n1 = n2 = nfb = nfail = max_rounds = 0
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
    return FtecReport(n, n1, n2, nfb, max_rounds, nfail, tuple(failures))


# ---------------------------------------------------------------------------
# Trial generators

def exhaustive_input_trials(max_weight: int = 3):
    """Every Z-type input error of weight up to max_weight, no faults."""
    yield Trial(identity(N49), name="input:clean")
    for w in range(1, max_weight + 1):
        for qubits in itertools.combinations(range(N49), w):
            yield Trial(PauliOp.z_op(N49, sum(1 << q for q in qubits)),
                        name="input:" + ",".join(str(q + 1) for q in qubits))


def _random_input(rng: random.Random, weight: int) -> PauliOp:
    xm = zm = 0
    for q in rng.sample(range(N49), weight):
        bx, bz = PAULI_BITS[rng.choice(_PAULIS)]
        xm |= bx << q
        zm |= bz << q
    return PauliOp(N49, xm, zm)


_GATE_LOCALS = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]


@functools.lru_cache(maxsize=1)
def _circuit_names() -> tuple[str, ...]:
    return tuple(sorted(c.name for ph in circuit_phases() for c in ph))


def _random_fault(rng: random.Random, rnd: int) -> ScheduledFault:
    kind = rng.choices(("gate", "wait", "flag", "meas"), weights=(10, 5, 2, 3))[0]
    if kind == "gate":
        name = rng.choice(_circuit_names())
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
        return ScheduledFault(rnd, "wait", qubit=rng.randint(1, N49),
                              local=rng.choice(_PAULIS), phase=rng.randint(0, 3))
    if kind == "flag":
        return ScheduledFault(rnd, "flag", side=rng.choice("xz"), bit=rng.randrange(21))
    fld = rng.choice(sorted(_MEAS_WIDTH))
    return ScheduledFault(
        rnd, "meas", meas_field=fld, bit=rng.randrange(_MEAS_WIDTH[fld])
    )


def sample_trials(n: int, seed: int = 0, *, max_round: int = 5):
    """Deterministic stream of random fault schedules, 1 to T faults each.

    Most trials carry a small input error so condition 1 applies; every
    tenth gets an input of weight 8 to 12, beyond the correctable weight
    of 4, exercising condition 2 alone.
    """
    rng = random.Random(seed)
    for i in range(n):
        v2 = rng.randint(1, T)
        v1 = rng.randint(8, 12) if i % 10 == 9 else rng.randint(0, T - v2)
        schedule = tuple(
            _random_fault(rng, rng.randint(0, max_round)) for _ in range(v2)
        )
        yield Trial(
            _random_input(rng, v1), schedule=schedule, name=f"sample:{seed}/{i}"
        )
