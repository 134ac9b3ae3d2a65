"""Exhaustive fault enumeration for the 49-qubit weight-parity protocol.

Two enumerations live here, both working on the Z side of the CSS split
(the X side has the same signature pool: the protocol's effect words,
cut to either side, are checked against it in
``test_effect_words_project_onto_the_fault_model_pool``), and both run
on one engine, ``_EffectSets``: the XORs of any number of distinct
single-fault effects of a pool.

The lookup-table build enumerates every combination of up to
``max_faults`` single faults of ``fault_model`` (G1 and G2 from the
Z-type circuits' unit tables in ``circuits``, W and F, one data Z or
flag flip each, built there), collapses each to a record, and audits
the resulting lookup table.  The
engine writes the XORs of exactly k distinct pool rows (signatures with
their s-tilde bits), for every k <= ``max_faults``, into one array; the
build ORs tau into it in place and dedups it with one sort.  A key's
fields are the record's, placed by ``RECORD_FIELDS`` alone for every
pack, probe, cut and print: first-level syndrome, second-level syndrome,
block triviality, cumulative flags, block parity.  Within each partition
(second-level syndrome, block triviality), either every record carries
an equivalent block parity (Condition 1), or records with inequivalent
parities differ in their (syndrome, flags) pair (Condition 2).  A
partition failing both is a violation, reported with witness faults.

The final-round scan takes fault combinations straddling the final
measurement rounds, where part of the damage is invisible to the
recorded syndromes.  Each combination splits into an early part (still
visible to the last round) and a late part.  Combinations passing three
relaxed detectability conditions are marked, and every marked
combination is then re-analyzed against its possible wait-error
completions to bound the weight of the residual error it can leave.

Both enumerations work on one uint64 column.  The table's rows are
packed signatures, a key below tau: block parity (stored canonically,
as the minimum over the eight stabilizer parity patterns), flags and
first-level syndrome.  The canonical form ``PCANON`` is linear with
image 0..15, so canonical parities are a subspace: an XOR of canonical
signatures is canonical, and the engine works on them as plain XORs.
``syndrome7`` is linear too, so s-tilde bits ride along in those XORs;
tau, a nonlinear function of the syndrome, is read per key.

The scan's rows are (Z mask, flag) pairs packed as
``mask << 11 | golay_syndrome(flag)``: the 21 flags, read as a 23-bit
error, ride as their 11-bit syndrome under the [[23,1,7]] Golay code.
The packing is linear, so keys XOR as their effects do, and it is
lossless on flags of weight at most 3: two of them differ by a vector of
weight at most 6, and with distance 7 no nonzero one of those has
syndrome 0.  Every scan atom raises at most one flag and a scan row XORs
at most three atoms, so every row packs; a packed pool refuses larger
subsets, where a weight-4 and a weight-3 flag vector can share a
syndrome.  A row's flags are the coset leader of its syndrome
(``codes.golay_leaders``), and their weight the leader's.

Witnesses come from the same engine, through one search, ``first``:
the lexicographically first tuple of distinct pool-row indices whose
XOR a predicate picks, trying subset sizes in a given order.  Audit
witnesses search the table's pool (distinct canonical signatures in
ascending order, each labelled by its first atom) for the record's
signature, sizes 0 to 3.  Scan witnesses search the raw G1 and G2 keys
in atom order (equal atoms kept apart), sizes v, v-2, ... per category's
fault number v: late G1 for its effect, early G1 for a complement in
G2's ``up_to``, then G2 for that complement.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .circuits import circuit_phases, circuits_by_name, fault_result
from .codes import (
    BLOCK_MIN_WT,
    N49,
    PCANON,
    STAB7,
    block_parity,
    golay_leaders,
    golay_syndrome,
    level1_syndrome,
    min_coset_rep,
    min_coset_weight,
    syndrome7,
    tau_from_syndrome,
    xor_table,
)
from .pauli import PauliOp, format_bits, render_text

__all__ = [
    "FaultAtom",
    "FaultModel",
    "FaultNumberCombination",
    "FaultCombination",
    "LookupTable",
    "RECORD_FIELDS",
    "Claim2Violation",
    "Claim2Report",
    "MarkedCombination",
    "CompletionAnalysis",
    "FinalRoundReport",
    "Table1Row",
    "TABLE1_GOLDEN",
    "build_lookup_table",
    "verify_claim2",
    "fault_model",
    "find_fault_combination",
    "pack_signature",
    "sigma",
    "relaxed_mark",
    "run_appendix_b",
    "reproduce_table1",
    "render_table1",
    "render_text",
    "table1_records",
]

# A sort key's fields in the order a record prints them, as (name,
# lowest bit, width), tiling key bits 0-58: the one statement of the
# layout.  Parity is the lowest field, in byte 0, and (stilde, tau) the
# top, above bit 48: a cell is key >> _CELL, a partition key >> _PART
# (read from the top 16 bits), and a signature the key below tau.
RECORD_FIELDS = (
    ("s", 28, 21), ("stilde", 56, 3), ("tau", 49, 7), ("f", 7, 21), ("parity", 0, 7),
)
_BIT = {name: bit for name, bit, _ in RECORD_FIELDS}
_WIDTH = {name: width for name, _, width in RECORD_FIELDS}
_CELL, _PART = _WIDTH["parity"], _BIT["tau"]

_PCANON_U64 = np.array(PCANON, dtype=np.uint64)
_SYND7_U64 = np.array([syndrome7(p) for p in range(128)], dtype=np.uint64)
_BLOCK_WT_U8 = np.array(BLOCK_MIN_WT, dtype=np.uint8)


def pack_signature(error_mask: int, flag: int) -> int:
    """Pack a Z-error mask and flag vector into a table signature.

    The block parity is canonicalized, so two fault combinations receive
    the same signature exactly when their records are indistinguishable
    to the decoder (equal syndrome, equal flags, equivalent parity).
    """
    p = PCANON[block_parity(error_mask)]
    return p | flag << _BIT["f"] | level1_syndrome(error_mask) << _BIT["s"]


# ---------------------------------------------------------------------------
# Fault atoms and the single-fault model


class FaultAtom(NamedTuple):
    """One deduplicated single-fault effect: a Z mask plus raised flags."""

    label: str
    error: int
    flag: int

    @property
    def signature(self) -> int:
        return pack_signature(self.error, self.flag)


class FaultModel(NamedTuple):
    """Pools of single-fault effects, Z side: G1, G2, W, F.

    gate1 holds the distinct effects of each first-level extraction
    circuit in turn, gate2 those of each second-level circuit, both read
    from the one single-fault table, ``circuits.unit_results``.  wait
    covers single-qubit Z errors during idle time (input errors are
    modeled the same way), flag the single flag-measurement flips.
    """

    gate1: tuple[FaultAtom, ...]
    gate2: tuple[FaultAtom, ...]
    wait: tuple[FaultAtom, ...]
    flag: tuple[FaultAtom, ...]

    def all_atoms(self) -> tuple[FaultAtom, ...]:
        return self.gate1 + self.gate2 + self.wait + self.flag

    def signature_pool(self) -> np.ndarray:
        """Distinct nonzero signatures over every atom in the model."""
        sigs = np.array([a.signature for a in self.all_atoms()], dtype=np.uint64)
        sigs = _unique_sorted(np.sort(sigs))
        return sigs[sigs != 0]


@functools.lru_cache(maxsize=None)
def fault_model(flagged: bool = True, interleaved: bool = True) -> FaultModel:
    """Build the Z-side single-fault pools for the chosen circuit family.

    A Z-family circuit's atoms are the first of each distinct nonzero
    result of its Z-type locals, XORed from the circuit's one
    single-fault table (``circuits.fault_result``): the preparation Z
    (and flag Z), then ZI, IZ and ZZ after each gate, then the
    measurement Z (and flag Z), each labelled
    ``G<level>[<name>]@<pos>:<local>``.
    """
    gate = {1: [], 2: []}  # the Z-family circuits' effects, by level
    for phase in circuit_phases(flagged, interleaved):
        for c in (c for c in phase if c.family == "z"):
            n, seen = len(c.gates), {(0, 0, 0, 0)}
            ends = ("Z",) if c.flag_bit is None else ("Z", "IZ")
            for pos in range(-1, n + 1):
                for local in ("ZI", "IZ", "ZZ") if 0 <= pos < n else ends:
                    r = fault_result(c.name, pos, local)
                    if r not in seen:
                        seen.add(r)
                        gate[c.level].append(FaultAtom(
                            f"G{c.level}[{c.name}]@{pos}:{local}", r.data_z,
                            r.flag << c.flag_bit if r.flag else 0))
    wait = tuple(FaultAtom(f"W[Z@q{q + 1}]", 1 << q, 0) for q in range(N49))
    flag_bits = range(21) if flagged else ()
    flag = tuple(FaultAtom(f"F[flag{j + 1}]", 0, 1 << j) for j in flag_bits)
    return FaultModel(tuple(gate[1]), tuple(gate[2]), wait, flag)


# ---------------------------------------------------------------------------
# Fault counting types


class _FaultNumbers(NamedTuple):
    v_g1a: int = 0
    v_g1b: int = 0
    v_g2: int = 0
    v_w: int = 0
    v_f: int = 0
    v_s: int = 0


class FaultNumberCombination(_FaultNumbers):
    """How many faults of each kind participate in a combination.

    The final-round scan distinguishes early (a) from late (b) gate
    faults on first-level circuits; the lookup-table build does not, and
    uses v_g1a for all first-level gate faults with v_g1b = v_s = 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FaultNumberCombination":
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if sum(self) > 3:
            raise ValueError(f"at most 3 faults supported, got {sum(self)}")
        return self

    def __str__(self) -> str:
        return (
            f"(G1a {self.v_g1a}, G1b {self.v_g1b}, G2 {self.v_g2}, "
            f"W {self.v_w}, F {self.v_f}, S {self.v_s})"
        )


class FaultCombination(NamedTuple):
    """A concrete multiset of final-round faults collapsed to its
    combined effect.

    error is the full data error and early_error the part of it still
    visible to the last measurement round (the early faults' share).
    flag is 42 bits: the low half from early circuits, the high half
    from late ones.
    """

    counts: FaultNumberCombination
    error: PauliOp
    early_error: PauliOp
    flag: int = 0
    faults: tuple[str, ...] = ()


def _multiset_count(size: int, v: int) -> int:
    if v == 0:
        return 1
    if size == 0:
        return 0
    return math.comb(size + v - 1, v)


def _number_combinations(max_faults: int, n: int) -> list[tuple[int, ...]]:
    """Every n-tuple of fault numbers summing to at most max_faults, in
    lexicographic order (the order the reports print)."""
    return [
        c for c in itertools.product(range(max_faults + 1), repeat=n)
        if sum(c) <= max_faults
    ]


def combination_counts(
    model: FaultModel, max_faults: int
) -> tuple[tuple[FaultNumberCombination, int], ...]:
    """Effect-multiset counts per fault-number combination.

    Counts are multisets of deduplicated single-fault effects: a category
    holding n distinct effects contributes C(n+v-1, v) choices for v
    faults.  Raw location-level counts would be larger (many faults share
    an effect) but add no records to the table.
    """
    sizes = tuple(map(len, model))  # G1, G2, W, F
    return tuple(
        (
            FaultNumberCombination(v_g1a=v1, v_g2=v2, v_w=vw, v_f=vf),
            math.prod(_multiset_count(n, v) for n, v in zip(sizes, (v1, v2, vw, vf))),
        )
        for v1, v2, vw, vf in _number_combinations(max_faults, 4)
    )


# ---------------------------------------------------------------------------
# Signature set arithmetic

# Keys are packed, and the scan's syndromes formed, this many rows at a
# time, which bounds their temporaries.
_XOR_CHUNK = 1 << 18


def _unique_sorted(a: np.ndarray) -> np.ndarray:
    """Distinct values of a sorted array, by adjacent diff (numpy 2's
    ``np.unique`` hashes instead, which is ~10x slower on uint64)."""
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class _EffectSets:
    """XORs of distinct rows of an effect pool, any number at a time.

    A row is one uint64: a table signature (with its s-tilde bits for the
    build), or a scan row, ``mask << 11 | golay_syndrome(flag)``.  Flag
    vectors of weight at most 3 differ in at most 6 bits, below the Golay
    distance 7, so their syndromes differ; a scan row raises at most one
    flag, so a scan pool sets ``max_size`` to 3 (four rows can XOR to a
    weight-4 flag vector whose syndrome a weight-3 one shares).  Rows
    keep the order they are given in; callers that want distinct rows
    pass them deduplicated.  Rows compare as they are: a table pool is
    canonical, and so is every XOR of its rows, and a scan pool's XORs
    of up to ``max_size`` rows are packed injectively.

    ``_blocks`` is the one walk of index tuples, in lexicographic order:
    sizes 0 and 1 are one block each, and the k-subsets with lowest index
    i are one block, ``pool[i]`` ^ the suffix of level k - 1 above i.
    Level 1 is the pool, and one more level (the XORs of exactly k - 1
    rows, in walk order) is kept: the source of the last size above 2
    walked, or level 2 once ``_exact`` has written it.  ``_exact`` writes
    the blocks out, ``up_to`` answers which effects are reachable, and
    ``first`` which rows reach one that a predicate picks.
    """

    def __init__(self, pool: np.ndarray, max_size: int | None = None) -> None:
        self.pool = pool
        self.max_size = max_size
        self._up_to: dict[int, np.ndarray] = {}
        self._level: tuple[int, np.ndarray | None] = 0, None  # its size, its XORs

    def _blocks(self, k: int, out: np.ndarray | None = None):
        """Yield (lo, block) per block of the k-subsets: lo is the rank of
        its first subset among the C(n, k), block its XORs.  A block is
        written into ``out`` (C(n, k) rows) at lo if given, else into a
        buffer the next block reuses."""
        if self.max_size is not None and k > self.max_size:
            raise ValueError(
                f"XORs of {k} rows of a packed pool can collide: at most "
                f"{self.max_size} rows keep their flags apart"
            )
        n = len(self.pool)
        if k < 2:
            block = self.pool if k else np.zeros(1, np.uint64)
            if out is not None:
                out[:] = block
            yield 0, block
            return
        if k > 2 and self._level[0] != k - 1:
            self._level = k - 1, self._exact((k - 1,))
        level = self._level[1] if k > 2 else self.pool
        buf = np.empty(math.comb(n - 1, k - 1), np.uint64) if out is None else out
        lo = 0
        for i in range(n - k + 1):
            # the (k-1)-subsets above i are the level's last m rows, m >= 1
            m, at = math.comb(n - 1 - i, k - 1), 0 if out is None else lo
            yield lo, np.bitwise_xor(self.pool[i], level[-m:], out=buf[at : at + m])
            lo += m

    def _exact(self, sizes) -> np.ndarray:
        """XORs of exactly k distinct pool rows for each k in ``sizes``,
        one block per k in that order, each block in lexicographic order
        of its index tuples; one preallocated array."""
        n = len(self.pool)
        ends = list(itertools.accumulate((math.comb(n, k) for k in sizes), initial=0))
        out = np.empty(ends[-1], dtype=np.uint64)
        for k, lo, hi in zip(sizes, ends, ends[1:]):
            for _ in self._blocks(k, out[lo:hi]):
                pass
            if k == 2:
                # level 2 is small and the source of size 3: keep a copy
                # (callers write into ``out``), so size 3 does not walk it again
                self._level = 2, out[lo:hi].copy()
        return out

    def up_to(self, v: int) -> np.ndarray:
        """Distinct XORs of exactly v faults (v, v-2, ... distinct rows:
        a repeated effect cancels pairwise), ascending; memoized per v."""
        if v not in self._up_to:
            self._up_to[v] = _unique_sorted(np.sort(self._exact(range(v, -1, -2))))
        return self._up_to[v]

    def first(self, match, sizes) -> tuple[int, ...] | None:
        """The lexicographically first tuple of distinct row indices whose
        XOR ``match`` (a block -> a boolean array) picks, trying the
        subset sizes in the order given; None when no size reaches one.
        The hit's rank is unranked in the combinatorial number system:
        each index moves past i while the rank passes the subsets that
        start at i."""
        n = len(self.pool)
        for k in sizes:
            for lo, block in self._blocks(k):
                hit = match(block)
                if hit.any():
                    r, i, found = lo + int(hit.argmax()), 0, []
                    for left in range(k, 0, -1):
                        while r >= (c := math.comb(n - 1 - i, left - 1)):
                            r, i = r - c, i + 1
                        found.append(i)
                        i += 1
                    return tuple(found)
        return None


def _equal(target: int):
    """A ``first`` predicate: the rows equal to ``target``."""
    return lambda block: block == np.uint64(target)


# A raw block parity's key bits: its canonical form, and its s-tilde
# (the syndrome of either).
_PARITY_KEY = _PCANON_U64 | _SYND7_U64[_PCANON_U64] << np.uint64(_BIT["stilde"])

# tau's key bits from the syndrome's subblocks 0-3 (its low 12 bits) and
# 4-6 (its high 9 bits): two table reads per key.
_TAU_LO, _TAU_HI = (
    tau_from_syndrome(np.arange(1 << n, dtype=np.uint64)) << np.uint64(_BIT["tau"] + b)
    for n, b in ((12, 0), (9, 4))
)


def _pool_keys(sigs: np.ndarray) -> np.ndarray:
    """Signatures as keys without tau: canonical parity and s-tilde, both
    linear in the raw parity, so pool keys XOR as their signatures do."""
    p_mask = np.uint64((1 << _CELL) - 1)
    return sigs & ~p_mask | _PARITY_KEY[sigs & p_mask]


def _add_tau(keys: np.ndarray) -> np.ndarray:
    """OR tau, a function of s, into keys in place, _XOR_CHUNK at a time
    through two reused buffers, and return them."""
    idx = np.empty(min(len(keys), _XOR_CHUNK), dtype=np.int64)
    tau = np.empty(len(idx), dtype=np.uint64)
    for lo in range(0, len(keys), _XOR_CHUNK):
        chunk = keys[lo : lo + _XOR_CHUNK]
        i, t = idx[: len(chunk)], tau[: len(chunk)]
        for table, bit in ((_TAU_LO, _BIT["s"]), (_TAU_HI, _BIT["s"] + 12)):
            np.right_shift(chunk.view(np.int64), bit, out=i)  # signed indices
            i &= len(table) - 1
            np.take(table, i, out=t, mode="clip")  # in range: skip the check
            chunk |= t
    return keys


def _key_fields(key: int) -> tuple[int, ...]:
    """A sort key's fields, in ``RECORD_FIELDS`` order."""
    return tuple(key >> bit & (1 << width) - 1 for _, bit, width in RECORD_FIELDS)


# ---------------------------------------------------------------------------
# Lookup table

# A record line prints each of RECORD_FIELDS low bit first, as format_bits
# does, and a space after each, then the group tag and a newline.  Its
# first 64 columns are the bits of one print word: each field moved by a
# shift and a mask from its key bits to its columns, separators 0.
_COLUMNS = tuple(itertools.accumulate((w + 1 for *_, w in RECORD_FIELDS), initial=0))
_LINE_WIDTH = _COLUMNS[-1] + 2
_PRINT_MOVES = tuple(
    (np.left_shift if col >= bit else np.right_shift, np.uint64(abs(col - bit)),
     np.uint64((1 << width) - 1 << col))
    for (_, bit, width), col in zip(RECORD_FIELDS, _COLUMNS)
)
# Added to the print word's bits: '0' under digits, ' ' under separators.
_DIGIT_OFFSET = np.frombuffer(
    "".join("0" * width + " " for _, _, width in RECORD_FIELDS).encode(), dtype=np.uint8
)
# Records per formatted chunk: its rows stay in L2.
_FORMAT_CHUNK = 1 << 13


class LookupTable:
    """Sorted record set mapping observations to block parities.

    Each record is one achievable (syndrome, second-level syndrome,
    triviality, flags, canonical parity) tuple for at most max_faults
    faults, as a sort key.  Records are grouped by partition (stilde,
    tau); a group whose records all share one canonical parity answers
    lookups unconditionally, otherwise the cell (partition, s, f)
    selects the record.
    """

    def __init__(
        self,
        max_faults: int,
        flagged: bool,
        interleaved: bool,
        keys: np.ndarray,
        counts: tuple[tuple[FaultNumberCombination, int], ...],
    ) -> None:
        self.max_faults = max_faults
        self.flagged = flagged
        self.interleaved = interleaved
        self.keys = keys
        self.combination_counts = counts
        # read (stilde, tau) from the keys' top 16 bits and p from their
        # low byte, without a full-width temporary per field
        le = keys.astype("<u8", copy=False)
        high = le.view("<u2")[3::4] >> (_PART - 48)
        starts = np.concatenate([[0], np.flatnonzero(high[1:] != high[:-1]) + 1])
        self._group_start = starts
        self._group_end = np.concatenate([starts[1:], [len(keys)]])
        self._group_high = high[starts]
        p = le.view(np.uint8)[::8] & (1 << _CELL) - 1
        pmin = np.minimum.reduceat(p, starts)
        pmax = np.maximum.reduceat(p, starts)
        parity = np.where(pmin == pmax, pmin.astype(np.int64), -1)
        # partition (key >> _PART) -> its parity, or -1 when mixed; in
        # group order, and of Python ints, so a lookup reads no numpy scalar
        self._parity_of = dict(zip(self._group_high.tolist(), parity.tolist()))
        # mixed partition -> its records' (start, end), for a bisect over a
        # zero-copy view of the keys whose items are Python ints
        mixed = parity < 0
        self._bounds = dict(zip(self._group_high[mixed].tolist(), zip(
            starts[mixed].tolist(), self._group_end[mixed].tolist())))
        self._key_view = memoryview(le)

    @property
    def n_records(self) -> int:
        return len(self.keys)

    @property
    def n_groups(self) -> int:
        return len(self._group_high)

    def lookup_parity(self, stilde: int, s: int, f: int) -> int | None:
        """Block parity for an observation, or None when out of table.

        A uniform partition (stilde, tau of s) answers directly.  A mixed
        one requires an exact (syndrome, flags) match, found by a bisect
        over that partition's records alone; a miss means the observation
        cannot come from at most max_faults faults, and the caller falls
        back to its out-of-table correction path.
        """
        part = stilde << (_BIT["stilde"] - _PART) | tau_from_syndrome(s)
        par = self._parity_of.get(part)
        if par is None or par >= 0:  # no such partition, or a uniform one
            return par
        start, end = self._bounds[part]
        probe = part << _PART | s << _BIT["s"] | f << _BIT["f"]
        keys = self._key_view
        lo = bisect.bisect_left(keys, probe, start, end)
        if lo < end and keys[lo] >> _CELL == probe >> _CELL:
            return keys[lo] & (1 << _CELL) - 1
        return None

    def violated_prefixes(self) -> np.ndarray:
        """Distinct (stilde, tau, s, f) prefixes holding inequivalent parities."""
        d = self.keys[1:] ^ self.keys[:-1]
        # in place: a second full-width temporary would set the table jobs' peak
        d >>= np.uint64(_CELL)
        bad = np.flatnonzero(d == 0)
        return _unique_sorted(np.sort(self.keys[bad] >> np.uint64(_CELL)))

    def group_tags(self) -> tuple[str, ...]:
        """'1' uniform parity, '2' disambiguated by (s, f), '!' violated."""
        return self._tags(self.violated_prefixes())

    def _tags(self, prefixes: np.ndarray) -> tuple[str, ...]:
        """``group_tags`` given the ``violated_prefixes``."""
        violated = set((prefixes >> np.uint64(_PART - _CELL)).tolist())
        return tuple(
            "!" if high in violated else "1" if par >= 0 else "2"
            for high, par in self._parity_of.items()
        )

    def record_rows(self):
        """Yield the record lines _FORMAT_CHUNK at a time, as fresh uint8
        arrays of ASCII bytes with one row per line (newline included).

        Each key's fields move, in print order, into one print word, whose
        64 bits ``np.unpackbits`` spreads over the row's first 64 columns;
        ``_DIGIT_OFFSET`` turns them into digits and separators.  The
        per-record tag comes from its group.
        """
        sizes = self._group_end - self._group_start
        tags = np.frombuffer("".join(self.group_tags()).encode(), dtype=np.uint8)
        tags = np.repeat(tags, sizes)
        for lo in range(0, self.n_records, _FORMAT_CHUNK):
            keys = self.keys[lo : lo + _FORMAT_CHUNK]
            word = np.zeros(len(keys), dtype="<u8")
            for shift, n, mask in _PRINT_MOVES:
                word |= shift(keys, n) & mask
            bits = np.unpackbits(word.view(np.uint8), bitorder="little").reshape(-1, 64)
            rows = np.empty((len(keys), _LINE_WIDTH), dtype=np.uint8)
            np.add(bits, _DIGIT_OFFSET, out=rows[:, : len(_DIGIT_OFFSET)])
            rows[:, -2] = tags[lo : lo + _FORMAT_CHUNK]
            rows[:, -1] = ord("\n")
            yield rows

    def record_lines(self):
        """Yield one formatted line per record: s s2 tau f p tag."""
        for rows in self.record_rows():
            yield from rows.tobytes().decode("ascii").splitlines()


def build_lookup_table(
    max_faults: int = 3,
    *,
    flagged: bool = True,
    interleaved: bool = True,
) -> LookupTable:
    """Enumerate all fault combinations and build the decoding table.

    Signatures compose by XOR, and a multiset of faults with a repeated
    effect collapses pairwise, so the reachable set for at most
    ``max_faults`` faults is the union over every k <= ``max_faults`` of
    the XORs of k distinct single-fault signatures.  The pool rows carry
    their s-tilde bits, a linear function of the parity, so the engine
    writes keys without tau into one array (canonical, as the pool is);
    tau is ORed in place, two table reads per key, and one in-place sort
    deduplicates them: a key's low 49 bits are its canonical signature
    and the bits above (s-tilde, tau) are functions of it, so equal keys
    are exactly equal canonical signatures.
    """
    if max_faults not in (1, 2, 3):
        raise ValueError(f"max_faults must be 1..3, got {max_faults}")
    model = fault_model(flagged=flagged, interleaved=interleaved)
    sets = _EffectSets(_pool_keys(model.signature_pool()))
    keys = _add_tau(sets._exact(range(max_faults + 1)))
    keys.sort()
    keys = _unique_sorted(keys)  # drops the last reference to the XORs
    counts = combination_counts(model, max_faults)
    return LookupTable(max_faults, flagged, interleaved, keys, counts)


# ---------------------------------------------------------------------------
# Witness recovery

@functools.lru_cache(maxsize=None)
def _table_witnesses(
    flagged: bool, interleaved: bool
) -> tuple[_EffectSets, tuple[str, ...]]:
    """The signature pool as a search engine, with one label per row: the
    first atom, in ``all_atoms`` order, carrying that signature."""
    model = fault_model(flagged=flagged, interleaved=interleaved)
    pool = model.signature_pool()
    label_of = {a.signature: a.label for a in reversed(model.all_atoms())}
    labels = tuple(label_of[sig] for sig in pool.tolist())
    return _EffectSets(pool), labels


def find_fault_combination(table: LookupTable, key: int) -> tuple[str, ...] | None:
    """Recover one fault combination producing a table record's signature:
    the lexicographically first set of at most three pool signatures, by
    increasing size."""
    sets, labels = _table_witnesses(table.flagged, table.interleaved)
    found = sets.first(_equal(key & (1 << _PART) - 1), range(4))  # below tau
    return None if found is None else tuple(labels[r] for r in found)


# ---------------------------------------------------------------------------
# Lookup-table audit

_MAX_WITNESSES = 20  # violated cells a Claim2Report expands


class Claim2Violation(NamedTuple):
    """A (stilde, tau, s, f) cell holding two inequivalent parities."""

    stilde: int
    tau: int
    s: int
    f: int
    parity_a: int
    parity_b: int
    witness_a: tuple[str, ...]
    witness_b: tuple[str, ...]


class Claim2Report(NamedTuple):
    max_faults: int
    flagged: bool
    interleaved: bool
    n_records: int
    n_groups: int
    n_condition1: int
    n_condition2: int
    n_violated_groups: int
    n_violations: int
    violations: tuple[Claim2Violation, ...]
    combination_counts: tuple[tuple[FaultNumberCombination, int], ...]

    @property
    def ok(self) -> bool:
        return self.n_violations == 0

    def records(self):
        """The report as (text, JSON object) records: the header and its
        summary, one per fault-number combination and one per expanded
        violation.  ``None`` marks a side with no counterpart."""
        yield (
            f"lookup-table audit, fault budget {self.max_faults}\n"
            f"circuits: level-2 {'interleaved' if self.interleaved else 'blockwise'}, "
            f"level-1 {'flagged' if self.flagged else 'flagless'}\n"
            f"records: {self.n_records}\n"
            f"partitions: {self.n_groups} "
            f"(condition 1: {self.n_condition1}, condition 2: {self.n_condition2}, "
            f"violated: {self.n_violated_groups})\n"
            "fault-number combinations (effect multisets):",
            {
                "type": "summary",
                "max_faults": self.max_faults,
                "flagged": self.flagged,
                "interleaved": self.interleaved,
                "records": self.n_records,
                "groups": self.n_groups,
                "condition1": self.n_condition1,
                "condition2": self.n_condition2,
                "violated_groups": self.n_violated_groups,
                "violations": self.n_violations,
                "ok": self.ok,
            },
        )
        for fnc, n in self.combination_counts:
            counts = str(fnc)
            yield f"  {counts}: {n}", {"type": "combination", "counts": counts, "n": n}
        yield f"violations: {self.n_violations}", None
        for i, v in enumerate(self.violations, 1):
            obj = {
                "type": "violation",
                "s": format_bits(v.s, _WIDTH["s"]),
                "stilde": format_bits(v.stilde, _WIDTH["stilde"]),
                "tau": format_bits(v.tau, _WIDTH["tau"]),
                "f": format_bits(v.f, _WIDTH["f"]),
                "parity_a": format_bits(v.parity_a, _WIDTH["parity"]),
                "parity_b": format_bits(v.parity_b, _WIDTH["parity"]),
                "witness_a": list(v.witness_a),
                "witness_b": list(v.witness_b),
            }
            yield (
                f"[{i}] s={obj['s']} s2={obj['stilde']} tau={obj['tau']} f={obj['f']}\n"
                f"  parity {obj['parity_a']} from: "
                + (", ".join(v.witness_a) or "<no faults>")
                + f"\n  parity {obj['parity_b']} from: "
                + (", ".join(v.witness_b) or "<no faults>"),
                obj,
            )
        unexpanded = self.n_violations - len(self.violations)
        if unexpanded:
            yield f"... {unexpanded} further violations not expanded", None


def verify_claim2(table: LookupTable) -> Claim2Report:
    """Audit a lookup table against the two decodability conditions.

    Any (stilde, tau, s, f) cell containing two inequivalent block
    parities defeats both conditions.  Every such cell is counted; the
    first ``_MAX_WITNESSES`` of them, in key order, are expanded with
    one witness fault combination per parity.
    """
    prefixes = table.violated_prefixes()
    tags = table._tags(prefixes)
    violations = []
    for prefix in prefixes[:_MAX_WITNESSES]:
        lo = int(np.searchsorted(table.keys, np.uint64(int(prefix) << _CELL)))
        key_a, key_b = table.keys[lo : lo + 2].tolist()
        s, stilde, tau, f, parity_a = _key_fields(key_a)
        parity_b = _key_fields(key_b)[-1]
        witness_a = find_fault_combination(table, key_a)
        witness_b = find_fault_combination(table, key_b)
        if witness_a is None or witness_b is None:
            # every record is reachable by construction: a miss is an engine fault
            raise RuntimeError(f"no witness for a record of cell {int(prefix):#x}")
        violations.append(
            Claim2Violation(stilde, tau, s, f, parity_a, parity_b, witness_a, witness_b)
        )
    return Claim2Report(
        max_faults=table.max_faults,
        flagged=table.flagged,
        interleaved=table.interleaved,
        n_records=table.n_records,
        n_groups=table.n_groups,
        n_condition1=tags.count("1"),
        n_condition2=tags.count("2"),
        n_violated_groups=tags.count("!"),
        n_violations=len(prefixes),
        violations=tuple(violations),
        combination_counts=table.combination_counts,
    )


# ---------------------------------------------------------------------------
# Final-round scan (relaxed conditions and post-analysis)


def sigma(mask: int, v_w: int) -> int:
    """Sum of the 7 - v_w smallest per-block level-1 syndrome Hamming
    weights of the Z error ``mask`` (a 49-bit int).

    Wait errors can hide the syndromes of at most v_w subblocks, so only
    the smallest weights of the remaining blocks are charged against the
    measurement-flip budget.
    """
    if not 0 <= v_w <= 7:
        raise ValueError(f"v_w must be within 0..7, got {v_w}")
    s = level1_syndrome(mask)
    weights = sorted(((s >> (3 * b)) & 7).bit_count() for b in range(7))
    return sum(weights[: 7 - v_w])


def relaxed_mark(fc: FaultCombination, max_faults: int = 3) -> bool:
    """Apply the three relaxed detectability conditions to a combination.

    Marked combinations could in principle keep the outcome bundle
    stable (conditions 1 and 2) while leaving a residual error heavier
    than the fault budget (condition 3, weight minimized over the
    stabilizer group).  Marking over-approximates danger; the
    post-analysis refines it.
    """
    if fc.error.x_bits or fc.early_error.x_bits:
        raise ValueError("relaxed_mark expects Z-type errors")
    if sigma(fc.early_error.z_bits, fc.counts.v_w) > fc.counts.v_s:
        return False
    if fc.flag.bit_count() > fc.counts.v_f:
        return False
    return min_coset_weight(fc.error.z_bits) + fc.counts.v_w > max_faults


class MarkedCombination(NamedTuple):
    combination: FaultCombination
    min_weight: int


class CompletionAnalysis(NamedTuple):
    """Exact wait-error completion check for one marked combination.

    A marked combination only matters if some placement of its v_w wait
    errors keeps the observed syndrome within the measurement-flip
    budget.  Every such completion is enumerated; worst_residual is the
    heaviest residual weight (coset-minimized, plus the late wait
    errors) any of them leaves.
    """

    feasible_completions: int
    worst_residual: int | None
    harmful: bool


class FinalRoundReport(NamedTuple):
    max_faults: int
    n_number_combinations: int
    n_effect_combinations: int
    marked: tuple[MarkedCombination, ...]
    analyses: tuple[CompletionAnalysis, ...]

    @property
    def n_harmful(self) -> int:
        return sum(a.harmful for a in self.analyses)

    @property
    def all_safe(self) -> bool:
        return self.n_harmful == 0

    def records(self):
        """The report as (text, JSON object) records: the header and its
        summary, one per marked combination with its post-analysis, and
        the closing text-only verdict."""
        yield (
            f"final-round fault scan, fault budget {self.max_faults}\n"
            f"fault-number combinations scanned: {self.n_number_combinations}\n"
            f"effect combinations examined: {self.n_effect_combinations}\n"
            f"marked: {len(self.marked)}",
            {
                "type": "summary",
                "max_faults": self.max_faults,
                "number_combinations": self.n_number_combinations,
                "effect_combinations": self.n_effect_combinations,
                "marked": len(self.marked),
                "harmful": self.n_harmful,
                "all_safe": self.all_safe,
            },
        )
        for i, (m, a) in enumerate(zip(self.marked, self.analyses), 1):
            fc = m.combination
            rep = PauliOp.z_op(49, min_coset_rep(fc.error.z_bits)).block_form()
            obj = {
                "type": "marked",
                "counts": str(fc.counts),
                "min_weight": m.min_weight,
                "residual_rep": rep,
                "witnesses": list(fc.faults),
                "feasible_completions": a.feasible_completions,
                "worst_residual": a.worst_residual,
                "harmful": a.harmful,
            }
            post = (
                "no feasible completion: bundle cannot appear stable"
                if a.worst_residual is None
                else f"feasible completions: {a.feasible_completions}, worst "
                f"residual weight: {a.worst_residual} -> "
                + ("HARMFUL" if a.harmful else "safe")
            )
            yield (
                f"[{i}] counts {obj['counts']}\n"
                f"    early error : {fc.early_error.block_form()}\n"
                f"    full error  : {fc.error.block_form()}\n"
                f"    flags       : early {format_bits(fc.flag, 21)} "
                f"late {format_bits(fc.flag >> 21, 21)}\n"
                f"    residual rep: {rep} (weight {m.min_weight})\n"
                f"    witnesses   : " + ", ".join(fc.faults) + "\n"
                f"    post-analysis: {post}",
                obj,
            )
        yield (
            "post-analysis: no marked combination leaves residual weight "
            f"above {self.max_faults}"
            if self.all_safe
            else "post-analysis: HARMFUL combinations found"
        ), None


# The (low bit, width) of each mask chunk ``_syndrome_tables`` reads.
_SYNDROME_CHUNKS = ((0, 13), (13, 12), (25, 12), (37, 12))


@functools.lru_cache(maxsize=1)
def _syndrome_tables() -> tuple[np.ndarray, ...]:
    """``level1_syndrome`` as one table per chunk of a mask: the
    ``xor_table`` of the chunk's unit syndromes (the syndrome is linear).
    Built on first use."""
    return tuple(
        np.array(xor_table(level1_syndrome(1 << q) for q in range(lo, lo + width)),
                 dtype=np.uint64)
        for lo, width in _SYNDROME_CHUNKS
    )


def _level1_syndrome_vec(masks: np.ndarray) -> np.ndarray:
    """Vectorized ``level1_syndrome``: the XOR of one table read per
    chunk of the mask."""
    m = masks.view(np.int64)  # signed indices skip a conversion per read
    chunk = np.empty_like(m)
    s = np.zeros(len(m), dtype=np.uint64)
    for (lo, width), table in zip(_SYNDROME_CHUNKS, _syndrome_tables()):
        np.right_shift(m, lo, out=chunk)
        chunk &= (1 << width) - 1
        s ^= table[chunk]
    return s


def _sigma_tables() -> tuple[np.ndarray, np.ndarray]:
    """Sigma depends only on how many subblocks have syndrome weight 1, 2
    and 3.  The first table maps 9 syndrome bits (three subblocks) to
    those counts packed as n1 | n2<<4 | n3<<8; three reads and two adds
    give the packed counts of all seven subblocks (no count exceeds 7, so
    the nibbles never carry).  The second maps (v_w, packed counts) to
    sigma."""
    weights = np.bitwise_count((np.arange(512)[:, None] >> np.array([0, 3, 6])) & 7)
    counts9 = sum((weights == k).sum(axis=1) << 4 * (k - 1) for k in (1, 2, 3))
    sigma_of_counts = np.zeros((8, 4096), dtype=np.uint8)
    for n1, n2, n3 in itertools.product(range(8), repeat=3):
        if n1 + n2 + n3 <= 7:
            # sigma(v_w) sums the 7 - v_w smallest of the seven weights
            ascending = [0] * (7 - n1 - n2 - n3) + [1] * n1 + [2] * n2 + [3] * n3
            prefix_sums = [0, *itertools.accumulate(ascending)]
            sigma_of_counts[:, n1 | n2 << 4 | n3 << 8] = prefix_sums[::-1]
    return counts9.astype(np.uint16), sigma_of_counts


_WEIGHT_COUNTS9, _SIGMA_OF_COUNTS = _sigma_tables()


def _sigma_from_syndrome(s: np.ndarray, v_w: int) -> np.ndarray:
    """Vectorized sigma over level-1 syndromes (see ``sigma``), by table
    reads of the per-weight subblock counts."""
    s = s.view(np.int64)
    nine = s & 511
    counts = _WEIGHT_COUNTS9[nine]
    np.right_shift(s, 9, out=nine)
    nine &= 511
    counts += _WEIGHT_COUNTS9[nine]
    np.right_shift(s, 18, out=nine)
    counts += _WEIGHT_COUNTS9[nine]
    return _SIGMA_OF_COUNTS[v_w][counts]


def _min_coset_weight_vec(masks: np.ndarray) -> np.ndarray:
    """Vectorized ``min_coset_weight``: each subblock's two minimal
    weights (plain and all-flipped coset) are read once, then summed per
    outer pattern."""
    m = masks.view(np.int64)
    blk = np.empty_like(m)
    wts = []
    for b in range(7):
        np.right_shift(m, 7 * b, out=blk)
        blk &= 127
        wts.append((_BLOCK_WT_U8[0][blk], _BLOCK_WT_U8[1][blk]))
    best = None
    for pat in STAB7:
        tot = wts[0][pat & 1].copy()
        for b in range(1, 7):
            tot += wts[b][(pat >> b) & 1]
        best = tot if best is None else np.minimum(best, tot, out=best)
    return best


# A scan key's low bits: its flags' Golay syndrome, below the Z mask.
_SYN = 11
_SYN_LOW = (1 << _SYN) - 1


def _atom_keys(atoms: tuple[FaultAtom, ...]) -> np.ndarray:
    """The packed keys of a pool of Z-side atoms, in atom order: each
    atom raises at most one flag, so XORs of up to three pack."""
    if any(a.error >> 49 or a.flag >> 21 or a.flag.bit_count() > 1 for a in atoms):
        raise ValueError("packed atoms have 49-bit masks and one of 21 flags at most")
    return np.array([a.error << _SYN | golay_syndrome(a.flag) for a in atoms],
                    dtype=np.uint64)


def _atom_effect_sets(atoms: tuple[FaultAtom, ...]) -> _EffectSets:
    """The effect sets of a pool of Z-side atoms, over its distinct keys."""
    return _EffectSets(_unique_sorted(np.sort(_atom_keys(atoms))), max_size=3)


@functools.cache
def _flag_weights() -> np.ndarray:
    """A packed row's flag count, indexed by its flag syndrome: the
    weight of the syndrome's coset leader.  Built on first use."""
    return np.bitwise_count(np.array(golay_leaders(), dtype=np.uint64))


def _flag_count(keys: np.ndarray) -> np.ndarray:
    """How many flags each packed key raises (signed indices skip a
    conversion per read)."""
    return _flag_weights()[(keys & _SYN_LOW).view(np.int64)]


def run_appendix_b(max_faults: int = 3) -> FinalRoundReport:
    """Scan fault combinations straddling the final rounds.

    Gate faults on first-level circuits split into early (label a,
    flags in the low 21 bits) and late (label b, flags in the high 21
    bits); second-level circuits are measured at the start of a round,
    so their faults are all early.  Wait, flag, and measurement-flip
    faults enter arithmetically through their budgets.  For each
    fault-number combination the reachable effects are XOR subsets of
    the deduplicated atom pools; survivors of the three relaxed
    conditions are marked and then post-analyzed exactly.
    """
    if max_faults not in (1, 2, 3):
        raise ValueError(f"max_faults must be 1..3, got {max_faults}")
    model = fault_model()
    g1 = _atom_effect_sets(model.gate1)
    g2 = _atom_effect_sets(model.gate2)
    wait = _atom_effect_sets(model.wait)

    marked: list[MarkedCombination] = []
    n_effects = 0
    combos = _number_combinations(max_faults, 6)
    for counts in combos:
        found, examined = _scan_number_combination(
            FaultNumberCombination(*counts), g1, g2, max_faults
        )
        n_effects += examined
        marked.extend(found)

    analyses = tuple(_analyze_completions(m, max_faults, wait) for m in marked)
    return FinalRoundReport(
        max_faults=max_faults,
        n_number_combinations=len(combos),
        n_effect_combinations=n_effects,
        marked=tuple(marked),
        analyses=analyses,
    )


# the row indices of an empty selection
_NO_ROWS = np.zeros(0, dtype=np.intp)


def _early_survivors(
    fnc: FaultNumberCombination, g1: _EffectSets, g2: _EffectSets
) -> np.ndarray:
    """Early (G1a x G2) keys within the flag budget whose sigma fits the
    flip budget, in cross-product order.  G2 raises no flag, so the flag
    budget drops G1a rows before any syndrome is formed.  The level-1
    syndrome is linear, so the cross product's syndromes are XORs of the
    pools' syndromes, formed about _XOR_CHUNK at a time; ``up_to(0)`` is
    the zero row, of syndrome 0.  With v_w = v_s = 0 sigma fits only a
    zero syndrome, so the survivors are the pairs of equal syndromes,
    which ``_syndrome_join`` finds without the cross product."""
    k1, k2 = g1.up_to(fnc.v_g1a), g2.up_to(fnc.v_g2)
    k1 = k1[_flag_count(k1) <= fnc.v_f]
    m1, m2 = k1 >> _SYN, k2 >> _SYN
    if fnc.v_w == fnc.v_s == 0:
        i1, i2 = _syndrome_join(m1, fnc.v_g1a, m2, fnc.v_g2)
    else:
        g1s, g2s = (_level1_syndrome_vec(m) if v else np.zeros(1, np.uint64)
                    for m, v in ((m1, fnc.v_g1a), (m2, fnc.v_g2)))
        n2 = len(g2s)
        step = max(1, _XOR_CHUNK // max(n2, 1))
        keep = [_NO_ROWS]  # an empty pool side makes no chunk or empty ones
        for lo in range(0, len(g1s), step):
            syn = (g1s[lo : lo + step, None] ^ g2s).reshape(-1)
            fits = _sigma_from_syndrome(syn, fnc.v_w) <= fnc.v_s
            keep.append(lo * n2 + np.flatnonzero(fits))
        i1, i2 = np.divmod(np.concatenate(keep), n2)
    return k1[i1] ^ k2[i2]


def _syndrome_join(
    m1: np.ndarray, v1: int, m2: np.ndarray, v2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i1, i2) of masks ``m1`` x ``m2`` (of v1 and v2
    faults) with equal level-1 syndromes, in cross-product order.

    A side of no faults is the zero row, so the join is a filter for the
    other side's zero syndromes, formed _XOR_CHUNK rows at a time and
    never held whole.  Otherwise both sides are short (at most
    ``up_to(2)``): the second side's syndromes are sorted, stably, and
    each row of the first finds its run of equal ones by binary search."""
    if v1 == 0 or v2 == 0:
        other = m2 if v1 == 0 else m1
        step = _XOR_CHUNK
        # one expression per chunk: no chunk's syndromes outlive its filter
        hit = np.concatenate([_NO_ROWS, *(
            lo + np.flatnonzero(_level1_syndrome_vec(other[lo : lo + step]) == 0)
            for lo in range(0, len(other), step)
        )])
        zero = np.zeros_like(hit)
        return (zero, hit) if v1 == 0 else (hit, zero)
    s1, s2 = _level1_syndrome_vec(m1), _level1_syndrome_vec(m2)
    order = np.argsort(s2, kind="stable")
    s2 = s2[order]
    lo = np.searchsorted(s2, s1, side="left")
    n = np.searchsorted(s2, s1, side="right") - lo
    i1 = np.repeat(np.arange(len(s1)), n)
    # output slot k holds match k - start[i1] of its row: order[lo[i1] + that]
    start = np.cumsum(n) - n
    return i1, order[np.arange(len(i1)) - np.repeat(start - lo, n)]


def _scan_number_combination(
    fnc: FaultNumberCombination,
    g1: _EffectSets,
    g2: _EffectSets,
    max_faults: int,
) -> tuple[list[MarkedCombination], int]:
    """Mark survivors of the relaxed conditions for one number combination.

    Late G1 effects are the G1 rows, their flags read as the high 21 bits
    of the combination's.  The two halves are disjoint, so a pair's flag
    count is the sum of its rows' (``_flag_count``), and only pairs
    within the flag budget are weighed; the flags themselves are decoded
    for marked pairs alone.
    """
    late = g1.up_to(fnc.v_g1b)
    examined = len(g1.up_to(fnc.v_g1a)) * len(g2.up_to(fnc.v_g2)) * len(late)
    early = _early_survivors(fnc, g1, g2)
    late = late[_flag_count(late) <= fnc.v_f]
    ia, ib = np.nonzero(_flag_count(early)[:, None] + _flag_count(late) <= fnc.v_f)
    early, late = early[ia], late[ib]
    wmin = _min_coset_weight_vec((early ^ late) >> _SYN)
    hot = wmin.astype(np.int64) + fnc.v_w > max_faults

    out, leaders = [], golay_leaders()
    seen: set[tuple[int, int]] = set()
    for ka, kb, w in zip(early[hot].tolist(), late[hot].tolist(), wmin[hot].tolist()):
        if (ka, kb) in seen:
            continue
        seen.add((ka, kb))
        ea, eb = ka >> _SYN, kb >> _SYN
        fc = FaultCombination(
            counts=fnc,
            error=PauliOp.z_op(49, ea ^ eb),
            early_error=PauliOp.z_op(49, ea),
            flag=leaders[ka & _SYN_LOW] | leaders[kb & _SYN_LOW] << 21,
            faults=_scan_witness(fnc, ka, kb),
        )
        if not relaxed_mark(fc, max_faults):
            raise RuntimeError("vectorized marking disagrees with relaxed_mark")
        out.append(MarkedCombination(fc, w))
    return out, examined


@functools.lru_cache(maxsize=1)
def _scan_witness_sets() -> tuple[tuple[_EffectSets, tuple[str, ...]], ...]:
    """The G1 and G2 keys as search engines, in atom order and not
    deduplicated (two equal atoms cancel, and a witness may list both),
    with their labels."""
    model = fault_model()
    return tuple(
        (_EffectSets(_atom_keys(atoms), max_size=3), tuple(a.label for a in atoms))
        for atoms in (model.gate1, model.gate2)
    )


def _scan_witness(fnc: FaultNumberCombination, early: int, late: int) -> tuple[str, ...]:
    """Witness labels of a marked combination (``early`` and ``late``
    keys): the first late G1 subset, then the first early G1 subset
    whose complement G2 reaches, then the first such G2 subset; sizes
    run v, v-2, ... per category.  Marked combinations are reachable by
    construction, so a miss raises."""
    (g1_raw, g1_labels), (g2_raw, g2_labels) = _scan_witness_sets()
    found_late = g1_raw.first(_equal(late), range(fnc.v_g1b, -1, -2))
    if found_late is None:
        raise RuntimeError(f"no late witness for a marked combination of {fnc}")
    g2_keys = g2_raw.up_to(fnc.v_g2)
    # v_g1a + v_g2 <= 3 keeps each block's all-pairs comparison small
    early1 = g1_raw.first(
        lambda block: ((block ^ np.uint64(early))[:, None] == g2_keys).any(axis=1),
        range(fnc.v_g1a, -1, -2),
    )
    if early1 is None:
        raise RuntimeError(f"no early witness for a marked combination of {fnc}")
    rest = early ^ int(np.bitwise_xor.reduce(g1_raw.pool[list(early1)]))
    early2 = g2_raw.first(_equal(rest), range(fnc.v_g2, -1, -2))
    return (
        tuple(g1_labels[r] for r in early1)
        + tuple(g2_labels[r] for r in early2)
        + tuple(f"late:{g1_labels[r]}" for r in found_late)
    )


def _analyze_completions(
    m: MarkedCombination, max_faults: int, wait: _EffectSets
) -> CompletionAnalysis:
    """Exact harm check: enumerate every wait-error completion.

    The v_w wait errors split into w_a visible before the last round's
    measurements and w_b after.  A completion is feasible when the
    visible part leaves at most v_s flippable syndrome bits; its
    residual is the coset-minimized weight of (early + late + visible
    wait) plus w_b for the invisible wait errors.
    """
    fc = m.combination
    ea = fc.early_error.z_bits
    full = fc.error.z_bits
    v_w, v_s = fc.counts.v_w, fc.counts.v_s
    feasible = 0
    worst: int | None = None
    for w_a in range(v_w + 1):
        w_b = v_w - w_a
        wa_masks = wait.up_to(w_a) >> _SYN
        visible = np.uint64(ea) ^ wa_masks
        ok = np.bitwise_count(_level1_syndrome_vec(visible)) <= np.uint64(v_s)
        if not ok.any():
            continue
        residual_masks = np.uint64(full) ^ wa_masks[ok]
        weights = _min_coset_weight_vec(residual_masks).astype(np.int64) + w_b
        feasible += int(ok.sum())
        w = int(weights.max())
        worst = w if worst is None else max(worst, w)
    harmful = worst is not None and worst > max_faults
    return CompletionAnalysis(feasible, worst, harmful)


# ---------------------------------------------------------------------------
# The 13-row single-fault table for the blockwise level-2 circuit


class Table1Row(NamedTuple):
    form: str
    m_values: tuple[int, ...]
    stilde: int
    tau: int
    block_parity: int


def reproduce_table1() -> tuple[Table1Row, ...]:
    """Single-fault error classes of the blockwise second-level circuit.

    An ancilla-line Z after gate k lands on every later data qubit, so
    the circuit's unit table (``circuits.unit_results``) gives the
    possible high-weight errors as a tail of m qubits on support block
    pos (k = 7 pos + 6 - m, the preparation at -1) followed by full-Z
    blocks.  Classes with the same tail-length parity share
    (second-level syndrome, triviality, parity), which is what the
    emitted 13 rows record.  Parities are literal, not canonical.
    """
    circ = circuits_by_name()["z~1#"]
    support = [b for b in range(7) if (circ.support >> (7 * b)) & 127]

    def signature(k: int) -> tuple[int, int, int]:
        mask = fault_result(circ.name, k, "Z" if k < 0 else "ZI").data_z
        p = block_parity(mask)
        return syndrome7(p), tau_from_syndrome(level1_syndrome(mask)), p

    rows = []
    for pos in range(4):
        form = "".join(
            "P" if b == support[pos] else ("Z" if b in support[pos + 1 :] else "I")
            for b in range(7)
        )
        by_m = {m: signature(7 * pos + 6 - m) for m in range(1, 8)}
        for m_values in ((7,), (2, 4, 6), (1, 3, 5)):
            sigs = {by_m[m] for m in m_values}
            if len(sigs) != 1:
                raise RuntimeError(f"inconsistent class {form} m={m_values}")
            stilde, tau, p = sigs.pop()
            rows.append(Table1Row(form, m_values, stilde, tau, p))
    rows.append(Table1Row("IIIIIII", (), 0, 0, 0))
    return tuple(rows)


def table1_records(rows: tuple[Table1Row, ...]):
    """Table 1 as (text, JSON object) records: the text-only header,
    then one record per row."""
    yield "form     m     2nd-level  triviality       block parity", None
    for r in rows:
        obj = {
            "form": r.form,
            "m": list(r.m_values),
            "stilde": format_bits(r.stilde, 3),
            "tau": format_bits(r.tau, 7),
            "block_parity": format_bits(r.block_parity, 7),
        }
        m = ",".join(map(str, r.m_values)) or "-"
        yield (
            f"{r.form}  {m:<6}({','.join(obj['stilde'])})  "
            f"({','.join(obj['tau'])})  ({','.join(obj['block_parity'])})",
            obj,
        )


def render_table1(rows: tuple[Table1Row, ...] | None = None) -> str:
    return render_text(table1_records(reproduce_table1() if rows is None else rows))


TABLE1_GOLDEN = """\
form     m     2nd-level  triviality       block parity
PIZZZII  7     (0,0,0)  (0,0,0,0,0,0,0)  (1,0,1,1,1,0,0)
PIZZZII  2,4,6 (1,0,0)  (1,0,0,0,0,0,0)  (0,0,1,1,1,0,0)
PIZZZII  1,3,5 (0,0,0)  (1,0,0,0,0,0,0)  (1,0,1,1,1,0,0)
IIPZZII  7     (1,0,0)  (0,0,0,0,0,0,0)  (0,0,1,1,1,0,0)
IIPZZII  2,4,6 (0,0,1)  (0,0,1,0,0,0,0)  (0,0,0,1,1,0,0)
IIPZZII  1,3,5 (1,0,0)  (0,0,1,0,0,0,0)  (0,0,1,1,1,0,0)
IIIPZII  7     (0,0,1)  (0,0,0,0,0,0,0)  (0,0,0,1,1,0,0)
IIIPZII  2,4,6 (1,1,1)  (0,0,0,1,0,0,0)  (0,0,0,0,1,0,0)
IIIPZII  1,3,5 (0,0,1)  (0,0,0,1,0,0,0)  (0,0,0,1,1,0,0)
IIIIPII  7     (1,1,1)  (0,0,0,0,0,0,0)  (0,0,0,0,1,0,0)
IIIIPII  2,4,6 (0,0,0)  (0,0,0,0,1,0,0)  (0,0,0,0,0,0,0)
IIIIPII  1,3,5 (1,1,1)  (0,0,0,0,1,0,0)  (0,0,0,0,1,0,0)
IIIIIII  -     (0,0,0)  (0,0,0,0,0,0,0)  (0,0,0,0,0,0,0)
"""
