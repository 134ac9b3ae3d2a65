"""Fault-enumeration engine tests.

Slow exhaustive checks (the full 3-fault table, the final-round scan)
run once per module through fixtures; the numbers frozen here were
cross-checked against independent recomputations before being pinned.
"""

import hashlib
import itertools
import math
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from wpec import verifier as v
from wpec.cli import main
from wpec.codes import (
    BLOCK_MIN_WT,
    LEVEL1_GENS,
    LOGICAL49,
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
)
from wpec.decoder import LOGICAL_REP7, build_correction_table
from wpec.pauli import PauliOp, format_bits
from wpec.verifier import (
    FaultCombination,
    FaultNumberCombination,
    TABLE1_GOLDEN,
    build_lookup_table,
    fault_model,
    find_fault_combination,
    pack_signature,
    relaxed_mark,
    render_table1,
    render_text,
    reproduce_table1,
    run_appendix_b,
    sigma,
    verify_claim2,
)


@pytest.fixture(scope="module")
def table3():
    return build_lookup_table(3)


@pytest.fixture(scope="module")
def report3(table3):
    return verify_claim2(table3)


@pytest.fixture(scope="module")
def final_round_report():
    return run_appendix_b(3)


# ---------------------------------------------------------------------------
# Fault model and signatures


def test_pool_sizes():
    m = fault_model()
    assert tuple(map(len, m)) == (210, 165, 49, 21)  # G1, G2, W, F


@pytest.mark.parametrize(
    "flagged, interleaved, n_atoms, digest",
    [
        (True, True, 445,
         "b166101e21dbd39164f896373199d7b46bdf9d1ad3e40e3cec3f58a8c3ff7b26"),
        (True, False, 445,
         "b3a136e4c57009713bf605d39f892ea20c51c13d070124811fff757dc7d6d71c"),
        (False, True, 361,
         "12f858666592b9e9c133cf399469920b9aaf794fa3aa0f53b195d0fda8107de3"),
        (False, False, 361,
         "584d3dd5538ff60dbd044151fdb41d0a0235c5c20ae7bb4a8d8e88008063be75"),
    ],
    ids=["permuted-flagged", "blockwise-flagged", "permuted-flagless",
         "negative-control"],
)
def test_fault_model_golden_digest(flagged, interleaved, n_atoms, digest):
    # every atom's label, error and flag in pool order, for all four
    # circuit variants: audit witnesses print these labels, and the
    # engine's first-witness search follows this order.  The digests were
    # captured from the per-pick walk that the unit table replaced.
    atoms = fault_model(flagged, interleaved).all_atoms()
    h = hashlib.sha256()
    for a in atoms:
        h.update(f"{a.label} {a.error} {a.flag}\n".encode())
    assert (len(atoms), h.hexdigest()) == (n_atoms, digest)


def test_flagless_model_has_no_flag_pool():
    m = fault_model(flagged=False)
    assert m.flag == ()
    assert all(a.flag == 0 for a in m.all_atoms())


def test_wait_and_flag_pools():
    ws = fault_model().wait
    assert len(ws) == 49
    assert {w.error for w in ws} == {1 << q for q in range(49)}
    assert all(w.flag == 0 for w in ws)
    # the labels the audit prints as witnesses
    assert [w.label for w in ws] == [f"W[Z@q{q}]" for q in range(1, 50)]
    fs = fault_model().flag
    assert len(fs) == 21
    assert {f.flag for f in fs} == {1 << j for j in range(21)}
    assert all(f.error == 0 for f in fs)
    assert [f.label for f in fs] == [f"F[flag{j}]" for j in range(1, 22)]
    assert fault_model(flagged=False).flag == ()


def test_distinct_single_signatures():
    m = fault_model()
    # independent recomputation: per-block syndrome/parity tuples
    seen = set()
    for a in m.all_atoms():
        blocks = tuple(syndrome7(a.error >> (7 * b)) for b in range(7))
        par = block_parity(a.error)
        canon = min(par ^ s for s in STAB7)
        key = (blocks, a.flag, canon)
        if key != ((0,) * 7, 0, 0):
            seen.add(key)
    assert len(seen) == 208
    assert len(m.signature_pool()) == 208


def test_pack_signature_fields():
    # qubits 1 and 8: one Z in block 1 and one in block 2
    e = (1 << 0) | (1 << 7)
    sig = pack_signature(e, 0b101)
    assert sig & 127 == PCANON[0b0000011] == 3
    assert sig >> v._BIT["f"] & (1 << 21) - 1 == 0b101
    assert sig >> v._BIT["s"] & (1 << 21) - 1 == level1_syndrome(e)
    assert level1_syndrome(e) == 1 | (1 << 3)


def test_full_generator_signature_is_trivial():
    # an ancilla Z before the first CNOT recreates the measured generator
    m = fault_model()
    prep = [a for a in m.gate2 if a.label.endswith("@-1:Z")]
    assert len(prep) == 3
    for a in prep:
        assert a.error.bit_count() == 28
        assert min_coset_weight(a.error) == 0
        assert a.flag == 0
        assert a.signature == 0


# ---------------------------------------------------------------------------
# Lookup tables


def test_small_tables_are_clean():
    t1 = build_lookup_table(1)
    assert (t1.n_records, t1.n_groups) == (209, 39)
    r1 = verify_claim2(t1)
    assert r1.ok and (r1.n_condition1, r1.n_condition2) == (39, 0)

    t2 = build_lookup_table(2)
    assert (t2.n_records, t2.n_groups) == (19986, 468)
    r2 = verify_claim2(t2)
    assert r2.ok and (r2.n_condition1, r2.n_condition2) == (431, 37)


VARIANTS = [(True, True), (True, False), (False, True), (False, False)]


def _canon_sig(sig):
    """A signature with its block parity (bits 0-6) made canonical."""
    return (sig & ~127) | PCANON[sig & 127]


def _canon_sig_array(sigs):
    """``_canon_sig`` over a uint64 array."""
    pcanon = np.array(PCANON, dtype=np.uint64)
    return (sigs & ~np.uint64(127)) | pcanon[sigs & np.uint64(127)]


def test_pair_records_match_pure_python():
    # the numpy pipeline for one and two faults against a set oracle
    for flagged, interleaved in VARIANTS:
        atoms = fault_model(flagged=flagged, interleaved=interleaved).all_atoms()
        pool = sorted({_canon_sig(a.signature) for a in atoms} - {0})
        reach = {0}
        for k in (1, 2):
            for combo in itertools.combinations(pool, k):
                x = 0
                for sig in combo:
                    x ^= sig
                reach.add(_canon_sig(x))
            expected = np.sort(
                v._add_tau(v._pool_keys(np.array(sorted(reach), dtype=np.uint64)))
            )
            table = build_lookup_table(k, flagged=flagged, interleaved=interleaved)
            assert np.array_equal(table.keys, expected), (flagged, interleaved, k)


def _reference_keys_from_sigs(sigs):
    """The seven-pass packing the table-driven one replaced, sorted."""
    p = sigs & np.uint64(127)
    f = (sigs >> np.uint64(v._BIT["f"])) & np.uint64((1 << 21) - 1)
    s = (sigs >> np.uint64(v._BIT["s"])) & np.uint64((1 << 21) - 1)
    stilde = np.array([syndrome7(x) for x in range(128)], dtype=np.uint64)[p]
    tau = np.zeros(len(sigs), dtype=np.uint64)
    for b in range(7):
        nonzero = ((s >> np.uint64(3 * b)) & np.uint64(7)) != 0
        tau |= nonzero.astype(np.uint64) << np.uint64(b)
    keys = stilde << np.uint64(v._BIT["stilde"]) | tau << np.uint64(v._BIT["tau"])
    keys |= (s << np.uint64(v._BIT["s"])) | (f << np.uint64(v._BIT["f"])) | p
    keys.sort()
    return keys


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_build_matches_three_sort_reference(flagged, interleaved):
    # one sort over the exact-k parts against up_to(m) | up_to(m - 1)
    pool = fault_model(flagged=flagged, interleaved=interleaved).signature_pool()
    sets = v._EffectSets(pool)
    for m in (1, 2, 3):
        at_max, below_max = sets.up_to(m), sets.up_to(m - 1)
        sigs = v._unique_sorted(np.sort(np.concatenate([at_max, below_max])))
        table = build_lookup_table(m, flagged=flagged, interleaved=interleaved)
        assert table.keys.dtype == np.uint64
        assert np.array_equal(table.keys, _reference_keys_from_sigs(sigs)), m


def test_record_fields_tile_the_key():
    bits = [set(range(lo, lo + width)) for _, lo, width in v.RECORD_FIELDS]
    assert sum(map(len, bits)) == 59 and set().union(*bits) == set(range(59))
    assert [name for name, _, _ in v.RECORD_FIELDS] == [
        "s", "stilde", "tau", "f", "parity",
    ]
    # every field of a pool signature's key comes back in print order
    sigs = fault_model().signature_pool()
    keys = v._add_tau(v._pool_keys(sigs)).tolist()
    for sig, key in zip(sigs.tolist(), keys):
        s, f, p = sig >> 28, (sig >> 7) & ((1 << 21) - 1), PCANON[sig & 127]
        assert v._key_fields(key) == (s, syndrome7(p), tau_from_syndrome(s), f, p)


def test_keys_from_sigs_matches_scalar_packing():
    # raw block parities come out canonical, through pool packing and tau
    rng = random.Random(56)
    sigs = [0, (1 << 49) - 1] + [rng.getrandbits(49) for _ in range(5000)]
    keys = v._add_tau(v._pool_keys(np.array(sigs, dtype=np.uint64))).tolist()
    for sig, key in zip(sigs, keys):
        s = sig >> v._BIT["s"] & (1 << 21) - 1
        stilde, tau = syndrome7(sig & 127), tau_from_syndrome(s)
        assert key == (_canon_sig(sig) | tau << v._BIT["tau"]
                       | stilde << v._BIT["stilde"]), sig
    assert len(keys) == len(sigs)


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_pool_keys_stilde_is_linear_over_pairs(flagged, interleaved):
    # the build XORs pool keys with s-tilde already in them: every pair
    # XOR must carry the syndrome of its (canonical) parity bits
    pool = v._pool_keys(fault_model(flagged, interleaved).signature_pool())
    i, j = np.triu_indices(len(pool), k=1)
    xor = (pool[i] ^ pool[j]).tolist()
    assert len(xor) == math.comb(len(pool), 2)
    for x in xor:
        p = x & 127
        assert x >> v._BIT["stilde"] == syndrome7(p) and PCANON[p] == p, hex(x)


def test_tau_tables_match_tau_from_syndrome(monkeypatch):
    s = np.arange(1 << 21, dtype=np.uint64)
    expected = tau_from_syndrome(s)
    tables = v._TAU_LO[s & np.uint64(4095)] | v._TAU_HI[s >> np.uint64(12)]
    assert np.array_equal(tables >> np.uint64(v._BIT["tau"]), expected)
    # _add_tau reads s past the s-tilde bits, in chunks that need not
    # divide the key count
    stilde = (s * np.uint64(5) & np.uint64(7)) << np.uint64(v._BIT["stilde"])
    monkeypatch.setattr(v, "_XOR_CHUNK", 1000)
    keys = v._add_tau(s << np.uint64(v._BIT["s"]) | stilde)
    tau = keys >> np.uint64(v._BIT["tau"]) & np.uint64(127)
    assert np.array_equal(tau, expected)
    rest = keys ^ tau << np.uint64(v._BIT["tau"])
    assert np.array_equal(rest, s << np.uint64(v._BIT["s"]) | stilde)


def test_table_keys_own_their_buffer(table3):
    # keys viewing the 12 MB XOR buffer would keep it alive in every job
    assert table3.keys.base is None and table3.keys.flags.owndata


def test_full_table_audit(table3, report3):
    assert table3.n_records == 1140873
    assert table3.n_groups == 1012
    assert report3.ok
    assert report3.n_violations == 0
    assert (report3.n_condition1, report3.n_condition2) == (289, 723)
    assert report3.n_violated_groups == 0


def test_combination_counts(table3):
    counts = dict(table3.combination_counts)
    assert counts[FaultNumberCombination()] == 1
    assert counts[FaultNumberCombination(v_g1a=1)] == 210
    assert counts[FaultNumberCombination(v_g2=1)] == 165
    assert counts[FaultNumberCombination(v_w=2)] == 49 * 50 // 2
    assert counts[FaultNumberCombination(v_g1a=1, v_g2=1, v_f=1)] == 210 * 165 * 21
    assert len(counts) == 35  # number partitions of <=3 over four categories


def test_lookup_parity_known_observation(table3):
    # two idle Z errors, qubits 1 and 8
    e = (1 << 0) | (1 << 7)
    s = level1_syndrome(e)
    p = block_parity(e)
    got = table3.lookup_parity(syndrome7(p), s, 0)
    assert got == PCANON[p] == 3


def test_lookup_parity_sampled_records(table3):
    m = fault_model()
    atoms = m.all_atoms()
    rng = random.Random(11)
    for _ in range(2000):
        picks = [rng.randrange(len(atoms)) for _ in range(rng.choice((1, 2, 3)))]
        e = f = 0
        for i in picks:
            e ^= atoms[i].error
            f ^= atoms[i].flag
        s = level1_syndrome(e)
        p = block_parity(e)
        got = table3.lookup_parity(syndrome7(p), s, f)
        assert got == PCANON[p]
    # every record of the budget-1 and budget-2 tables probes back to its
    # own parity, so the read path packs as the build does on every key
    for budget in (1, 2):
        table = build_lookup_table(budget)
        for key in table.keys.tolist():
            s, stilde, _, f, p = v._key_fields(key)
            assert table.lookup_parity(stilde, s, f) == p, hex(key)


def test_lookup_parity_out_of_table(table3):
    present = set(table3._parts)
    missing = next(
        h for h in range(8 << 7) if h not in present
    )
    # an s whose tau is the missing partition's
    s = sum(1 << 3 * b for b in range(7) if missing >> b & 1)
    stilde_at = v._BIT["stilde"] - v._PART  # in a partition, key >> _PART
    assert table3.lookup_parity(missing >> stilde_at, s, 0) is None

    # a mixed partition with an impossible flag pattern
    tags = table3.group_tags()
    g = tags.index("2")
    high, (_, start, _) = list(table3._parts.items())[g]
    key0 = int(table3.keys[start])
    s0 = (key0 >> v._BIT["s"]) & ((1 << 21) - 1)
    all_flags = (1 << 21) - 1  # needs 21 faults, never recorded
    assert table3.lookup_parity(high >> stilde_at, s0, all_flags) is None


def _cell_beside(s, f, step):
    """The (s, f) cell next to (s, f) in key order within its partition,
    below for step -1 and above for +1, or None at the partition's end.
    f runs over all 21 bits; s over the syndromes of the same tau, each
    nontrivial subblock stepping through 1..7, the lowest first."""
    f += step
    if 0 <= f < 1 << 21:
        return s, f
    f &= (1 << 21) - 1  # wrapped: all ones below, zero above
    tau = tau_from_syndrome(s)
    for b in range(7):
        if tau >> b & 1:
            d = (s >> 3 * b & 7) + step
            if 1 <= d <= 7:
                return s & ~(7 << 3 * b) | d << 3 * b, f
            s = s & ~(7 << 3 * b) | (7 if step < 0 else 1) << 3 * b
    return None


def test_lookup_parity_reads_group_edges(table3):
    # The first and last records of every group answer their own parity,
    # and in a mixed group the cells just outside them answer None: the
    # read of a mixed group is bounded by that group's start and end.
    # The budget-3 table's last group is mixed, so one probe lands past
    # the last key.
    probed = []
    for table in (build_lookup_table(1), build_lookup_table(2), table3):
        keys, tags = table.keys.tolist(), table.group_tags()
        n = 0
        for tag, (_, lo, hi) in zip(tags, table._parts.values()):
            for key, step in ((keys[lo], -1), (keys[hi - 1], 1)):
                s, stilde, _, f, p = v._key_fields(key)
                assert table.lookup_parity(stilde, s, f) == p, hex(key)
                beside = _cell_beside(s, f, step)
                if tag != "1" and beside is not None:
                    assert table.lookup_parity(stilde, *beside) is None, hex(key)
                    n += 1
        probed.append(n)
    assert tags[-1] == "2" and _cell_beside(*v._key_fields(keys[-1])[::3], 1)
    assert probed == [0, 71, 1276]


def test_corrections_return_to_stabilizer(table3):
    ct = build_correction_table()

    def correction_for(parity, s21):
        mask = 0
        for b in range(7):
            sb = (s21 >> (3 * b)) & 7
            odd = (parity >> b) & 1
            if sb == 0:
                blk = LOGICAL_REP7 if odd else 0
            elif odd:
                blk = ct.wt1[sb].z_bits
            else:
                blk = ct.wt2[sb].z_bits
            mask |= blk << (7 * b)
        return mask

    m = fault_model()
    atoms = m.all_atoms()

    def check(e, f):
        s = level1_syndrome(e)
        p = block_parity(e)
        got = table3.lookup_parity(syndrome7(p), s, f)
        assert got == PCANON[p]
        assert min_coset_weight(e ^ correction_for(got, s)) == 0

    for a in atoms:  # every single fault
        check(a.error, a.flag)
    rng = random.Random(7)
    for _ in range(1500):  # sampled pairs and triples
        picks = [rng.randrange(len(atoms)) for _ in range(rng.choice((2, 3)))]
        e = f = 0
        for i in picks:
            e ^= atoms[i].error
            f ^= atoms[i].flag
        check(e, f)


def test_witnesses_reproduce_records(table3):
    atoms = {a.label: a for a in fault_model().all_atoms()}
    assert len(atoms) == len(fault_model().all_atoms())
    rng = random.Random(3)
    for _ in range(60):
        key = int(table3.keys[rng.randrange(table3.n_records)])
        found = find_fault_combination(table3, key)
        assert found is not None and len(found) <= 3
        e = f = 0
        for label in found:
            e ^= atoms[label].error
            f ^= atoms[label].flag
        assert pack_signature(e, f) == key & ((1 << 49) - 1)


def test_find_fault_combination_on_first_record(table3):
    labels = find_fault_combination(table3, int(table3.keys[0]))
    assert labels == ()  # the no-fault record


# ---------------------------------------------------------------------------
# Witness search against an itertools brute force


@pytest.fixture(scope="module")
def combinations210():
    """Index tuples of every k-subset of range(210), k = 0..3, in
    itertools order, as uint8 (every index is below 210).  The subsets of
    a smaller range(n) are the rows whose indices are all below n, in the
    same order."""
    return [np.zeros((1, 0), dtype=np.uint8)] + [
        np.fromiter(
            itertools.combinations(range(210), k),
            dtype=np.dtype((np.uint8, k)),
            count=math.comb(210, k),
        )
        for k in (1, 2, 3)
    ]


def _subsets(combinations210, cols, canon=None):
    """Per k = 0..3: every k-subset of the rows in itertools order, and
    the XOR of each (canonical if asked)."""
    out = []
    for idx in combinations210:
        idx = idx[(idx < len(cols[0])).all(axis=1)]
        xors = tuple(np.bitwise_xor.reduce(c[idx], axis=1) for c in cols)
        if canon is not None:
            xors = (canon(xors[0]),) + xors[1:]
        out.append((idx, xors))
    return out


def _brute_first(subsets, target, sizes):
    """The first subset, sizes in the order given, whose XOR is target."""
    for k in sizes:
        idx, xors = subsets[k]
        hit = np.ones(len(idx), dtype=bool)
        for col, t in zip(xors, target):
            hit &= col == np.uint64(t)
        if hit.any():
            return tuple(idx[np.argmax(hit)].tolist())
    return None


_LEADERS = np.array(golay_leaders(), dtype=np.uint64)


def _unpack(keys):
    """Packed scan keys as their (mask, flag) columns: the flags are the
    Golay coset leader of the key's low 11 bits."""
    return keys >> np.uint64(11), _LEADERS[keys & np.uint64(2047)]


def _pack(mask, flag):
    """One (mask, flag) row as its packed scan key."""
    return mask << 11 | golay_syndrome(flag)


class _Pool(NamedTuple):
    """An engine pool and its brute-force oracle: the oracle works on
    ``cols``, the table signatures or the scan keys unpacked."""

    keys: np.ndarray
    max_size: int | None
    cols: tuple
    subsets: list

    def engine(self):
        return v._EffectSets(self.keys, self.max_size)

    def key(self, target):
        """An oracle row as the engine's key."""
        return target[0] if self.max_size is None else _pack(*target)

    def rows(self, keys):
        """Engine keys as oracle columns."""
        return (keys,) if self.max_size is None else _unpack(keys)


@pytest.fixture(scope="module")
def engine_subsets(combinations210):
    """Every pool the engine serves, by name, with its oracle's subsets:
    the table pools of the four variants (their subset XORs made
    canonical), the scan's raw and deduplicated G1 and G2 keys, and the
    wait keys.  Built once for every test that reads them."""
    pools = [
        (f"table{variant}", fault_model(*variant).signature_pool(), None,
         _canon_sig_array)
        for variant in VARIANTS
    ]
    model = fault_model()
    for name, atoms in (("G1", model.gate1), ("G2", model.gate2)):
        pools.append((f"{name} raw", v._atom_keys(atoms), 3, None))
        pools.append((f"{name} dedup", v._atom_effect_sets(atoms).pool, 3, None))
    pools.append(("wait", v._atom_effect_sets(model.wait).pool, 3, None))
    out = {}
    for name, keys, max_size, canon in pools:
        cols = (keys,) if max_size is None else _unpack(keys)
        out[name] = _Pool(keys, max_size, cols, _subsets(combinations210, cols, canon))
    return out


def test_scan_keys_unpack_to_their_atoms(engine_subsets):
    model = fault_model()
    for name, atoms in (("G1 raw", model.gate1), ("G2 raw", model.gate2)):
        masks, flags = engine_subsets[name].cols
        assert masks.tolist() == [a.error for a in atoms], name
        assert flags.tolist() == [a.flag for a in atoms], name
    # the scan's early flag budget reads G1a rows alone: G2 raises no flag
    assert not engine_subsets["G2 raw"].cols[1].any()


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_first_matches_brute_force_on_table_pool(
    engine_subsets, flagged, interleaved
):
    table = build_lookup_table(3, flagged=flagged, interleaved=interleaved)
    sets, labels = v._table_witnesses(flagged, interleaved)
    assert np.array_equal(sets.pool, fault_model(flagged, interleaved).signature_pool())
    subsets = engine_subsets[f"table{(flagged, interleaved)}"].subsets
    rng = random.Random(31)
    keys = [int(table.keys[rng.randrange(table.n_records)]) for _ in range(30)]
    for prefix in table.violated_prefixes()[:20]:  # every printed violation
        lo = int(np.searchsorted(table.keys, int(prefix) << 7))
        keys += [int(table.keys[lo]), int(table.keys[lo + 1])]
    for key in keys:
        sig = key & ((1 << 49) - 1)
        found = sets.first(v._equal(sig), (0, 1, 2, 3))
        assert found == _brute_first(subsets, (sig,), range(4)), key
        assert find_fault_combination(table, key) == tuple(labels[r] for r in found)
    unreachable = pack_signature(0, (1 << 21) - 1)  # 21 flags, never recorded
    assert sets.first(v._equal(unreachable), (0, 1, 2, 3)) is None
    assert _brute_first(subsets, (unreachable,), range(4)) is None


@pytest.fixture(scope="module")
def raw_gate_pools(engine_subsets):
    """(engine, oracle pool, labels) of the raw G1 and G2 atoms, by pool
    name."""
    model = fault_model()
    out = {}
    for pool, name in (("gate1", "G1 raw"), ("gate2", "G2 raw")):
        oracle = engine_subsets[name]
        out[pool] = (oracle.engine(), oracle, [a.label for a in getattr(model, pool)])
    return out


def test_first_matches_brute_force_on_raw_atoms(raw_gate_pools):
    rng = random.Random(17)
    for sets, oracle, _ in raw_gate_pools.values():
        n = len(sets.pool)
        for v_ in range(4):
            sizes = range(v_, -1, -2)
            # atoms drawn with replacement: repeated ones cancel
            for _ in range(10):
                picks = rng.choices(range(n), k=v_)
                target = tuple(
                    int(np.bitwise_xor.reduce(c[picks])) if picks else 0
                    for c in oracle.cols
                )
                assert sets.first(v._equal(_pack(*target)), sizes) == _brute_first(
                    oracle.subsets, target, sizes
                ), (n, picks)
        # two equal atoms reach the empty effect before the empty subset does
        pair = sets.first(v._equal(0), (2, 0))
        assert pair == _brute_first(oracle.subsets, (0, 0), (2, 0))
        assert len(pair) == 2


def _brute_scan_witness(raw_gate_pools, fnc, ea, fa, eb, fb):
    """Scan witness labels by brute force on (mask, flag) rows: the first
    late G1 subset, the first early G1 subset whose complement some G2
    subset reaches, and the first such G2 subset."""
    (_, pool1, labels1), (_, pool2, labels2) = raw_gate_pools.values()
    sub1, sub2 = pool1.subsets, pool2.subsets
    late = _brute_first(sub1, (eb, fb >> 21), range(fnc.v_g1b, -1, -2))
    if late is None:
        return None
    for k1 in range(fnc.v_g1a, -1, -2):
        idx1, (m1, f1) = sub1[k1]
        rows = []
        for k2 in range(fnc.v_g2, -1, -2):
            _, (m2, f2) = sub2[k2]
            eq = ((m1[:, None] ^ m2[None, :]) == np.uint64(ea)) & (
                (f1[:, None] ^ f2[None, :]) == np.uint64(fa)
            )
            rows.extend(np.flatnonzero(eq.any(axis=1))[:1].tolist())
        if rows:
            a = min(rows)
            rest = (ea ^ int(m1[a]), fa ^ int(f1[a]))
            early2 = _brute_first(sub2, rest, range(fnc.v_g2, -1, -2))
            return (
                tuple(labels1[r] for r in idx1[a].tolist())
                + tuple(labels2[r] for r in early2)
                + tuple(f"late:{labels1[r]}" for r in late)
            )
    return None


def _scan_witness(fnc, ea, fa, eb, fb):
    """``_scan_witness`` of an early (mask, flag) and a late one, the late
    flags in the high 21 bits."""
    return v._scan_witness(fnc, _pack(ea, fa), _pack(eb, fb >> 21))


def test_scan_witness_matches_brute_force(raw_gate_pools):
    (_, g1, _), (_, g2, _) = raw_gate_pools.values()
    rng = random.Random(23)
    shapes = [s for s in itertools.product(range(4), repeat=3) if sum(s) <= 3]
    assert len(shapes) == 20
    for va1, vb1, v2 in shapes:
        fnc = FaultNumberCombination(v_g1a=va1, v_g1b=vb1, v_g2=v2)
        # the empty effect first: equal atoms cancel, so a witness may
        # list two of them rather than fewer faults, and with odd fault
        # numbers there may be none
        expected = _brute_scan_witness(raw_gate_pools, fnc, 0, 0, 0, 0)
        if expected is None:
            with pytest.raises(RuntimeError):
                _scan_witness(fnc, 0, 0, 0, 0)
        else:
            assert _scan_witness(fnc, 0, 0, 0, 0) == expected, fnc
        (m1, f1), (m2, f2) = g1.cols, g2.cols
        for _ in range(2):
            ea = fa = eb = fb = 0
            for i in rng.choices(range(len(m1)), k=va1):
                ea, fa = ea ^ int(m1[i]), fa ^ int(f1[i])
            for i in rng.choices(range(len(m2)), k=v2):
                ea, fa = ea ^ int(m2[i]), fa ^ int(f2[i])
            for i in rng.choices(range(len(m1)), k=vb1):
                eb, fb = eb ^ int(m1[i]), fb ^ (int(f1[i]) << 21)
            expected = _brute_scan_witness(raw_gate_pools, fnc, ea, fa, eb, fb)
            assert expected is not None
            assert _scan_witness(fnc, ea, fa, eb, fb) == expected, fnc


def test_scan_witness_miss_raises(monkeypatch, final_round_report):
    fc = final_round_report.marked[0].combination
    ea = fc.early_error.z_bits
    eb = ea ^ fc.error.z_bits
    fa, fb = fc.flag & ((1 << 21) - 1), fc.flag >> 21 << 21
    assert _scan_witness(fc.counts, ea, fa, eb, fb) == fc.faults
    # no single G1 atom is the 49-qubit logical, so one late fault misses it
    with pytest.raises(RuntimeError, match="no late witness"):
        _scan_witness(FaultNumberCombination(v_g1b=1), 0, 0, LOGICAL49, 0)
    # without the G2 atoms that reach the early error there is no witness
    model = fault_model()
    g2 = tuple(a for a in model.gate2 if a.error != ea)
    assert len(g2) < len(model.gate2)
    pools = tuple(
        (v._EffectSets(v._atom_keys(atoms), 3), tuple(a.label for a in atoms))
        for atoms in (model.gate1, g2)
    )
    monkeypatch.setattr(v, "_scan_witness_sets", lambda: pools)
    with pytest.raises(RuntimeError, match="no early witness"):
        _scan_witness(fc.counts, ea, fa, eb, fb)


def _reference_lines(table):
    """The record formatting of format_bits, one record at a time."""
    tags = table.group_tags()
    for tag, (_, lo, hi) in zip(tags, table._parts.values()):
        for key in table.keys[lo:hi]:
            s, stilde, tau, f, p = v._key_fields(int(key))
            yield (
                f"{format_bits(s, 21)} {format_bits(stilde, 3)} "
                f"{format_bits(tau, 7)} {format_bits(f, 21)} "
                f"{format_bits(p, 7)} {tag}"
            )


def _reference_record_chunks(table):
    """The unpackbits formatter the slice-copy one replaced."""
    fields = [(lo, width) for _, lo, width in v.RECORD_FIELDS]
    digit_bits = np.array([lo + i for lo, width in fields for i in range(width)])
    digit_cols = np.arange(len(digit_bits)) + np.repeat(
        np.arange(len(fields)), [width for _, width in fields]
    )
    width = len(digit_bits) + len(fields) + 2
    sizes = [hi - lo for _, lo, hi in table._parts.values()]
    tags = np.frombuffer("".join(table.group_tags()).encode(), dtype=np.uint8)
    tags = np.repeat(tags, sizes)
    for lo in range(0, table.n_records, v._FORMAT_CHUNK):
        keys = table.keys[lo : lo + v._FORMAT_CHUNK].astype("<u8", copy=False)
        bits = np.unpackbits(
            keys.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        rows = np.full((len(keys), width), ord(" "), dtype=np.uint8)
        rows[:, digit_cols] = bits[:, digit_bits] + np.uint8(ord("0"))
        rows[:, width - 2] = tags[lo : lo + v._FORMAT_CHUNK]
        rows[:, width - 1] = ord("\n")
        yield rows.tobytes()


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_record_lines_match_format_bits(monkeypatch, flagged, interleaved):
    table = build_lookup_table(2, flagged=flagged, interleaved=interleaved)
    monkeypatch.setattr(v, "_FORMAT_CHUNK", 1000)
    assert table.n_records > 5 * v._FORMAT_CHUNK
    chunks = [rows.tobytes() for rows in table.record_rows()]
    assert len(chunks) == -(-table.n_records // v._FORMAT_CHUNK)
    assert chunks == list(_reference_record_chunks(table))
    assert list(table.record_lines()) == list(_reference_lines(table))


@pytest.mark.parametrize("chunk", [1, 1000, 997])
@pytest.mark.parametrize("budget,flagged,interleaved", [(1, True, True), (2, False, False)])
def test_record_rows_match_reference_at_any_chunk(
    monkeypatch, chunk, budget, flagged, interleaved
):
    table = build_lookup_table(budget, flagged=flagged, interleaved=interleaved)
    monkeypatch.setattr(v, "_FORMAT_CHUNK", chunk)
    assert table.n_records % chunk or chunk == 1
    reference = list(_reference_record_chunks(table))
    # fully materialized first: a buffer reused across chunks would show
    rows = list(table.record_rows())
    assert [r.tobytes() for r in rows] == reference
    if not flagged:
        assert b"!" in b"".join(reference)


def test_audit_reads_violated_prefixes_once(monkeypatch):
    table = build_lookup_table(2, flagged=False, interleaved=False)
    calls = []
    method = v.LookupTable.violated_prefixes
    monkeypatch.setattr(
        v.LookupTable, "violated_prefixes", lambda self: calls.append(1) or method(self)
    )
    report = verify_claim2(table)
    assert calls == [1] and report.n_violated_groups > 0


@pytest.mark.parametrize(
    "flagged,interleaved,digest,n_bytes,n_lines",
    [
        (True, True,
         "bbef6d4a3cf1ca9b41cfc16583ce06350b20cfc6f1fada3115630660f38ffece",
         75_297_618, 1_140_873),
        (True, False,
         "9887e67ee598693969ca635cfd5586bf00609ce7eb5719cc058833b92d15f310",
         51_893_820, 786_270),
        (False, True,
         "9f6102c307c1453f00eb0f4640d27a31395d886fb21d6ce07064790d9dca053a",
         19_564_974, 296_439),
        (False, False,
         "d1f956978e8265b3a590d92173200ed5648d6814271a40ee47d5f31ec5cff9bb",
         7_819_482, 118_477),
    ],
    ids=["permuted-flagged", "blockwise-flagged", "permuted-flagless",
         "negative-control"],
)
def test_budget3_table_digest(flagged, interleaved, digest, n_bytes, n_lines):
    table = build_lookup_table(3, flagged=flagged, interleaved=interleaved)
    h = hashlib.sha256()
    size = lines = 0
    for rows in table.record_rows():
        chunk = rows.tobytes()
        h.update(chunk)
        size += len(chunk)
        lines += chunk.count(b"\n")
    assert (h.hexdigest(), size, lines) == (digest, n_bytes, n_lines)


# ---------------------------------------------------------------------------
# Negative controls


def test_flagless_blockwise_circuits_violate():
    t = build_lookup_table(3, flagged=False, interleaved=False)
    r = verify_claim2(t)
    assert r.n_violations == 37241
    first = r.violations[0]
    assert first.parity_a != first.parity_b
    assert first.witness_a or first.witness_b
    # each countermeasure is necessary on its own
    assert not verify_claim2(build_lookup_table(3, flagged=False)).ok
    assert not verify_claim2(build_lookup_table(3, interleaved=False)).ok


def test_claim2_witness_miss_raises(monkeypatch):
    t = build_lookup_table(2, flagged=False, interleaved=False)
    assert verify_claim2(t).violations[0].witness_b
    monkeypatch.setattr(v, "find_fault_combination", lambda table, key: None)
    with pytest.raises(RuntimeError, match="no witness"):
        verify_claim2(t)


def test_lookup_parity_probes_with_exact_uint64_keys():
    # Two records of one mixed group that differ only in f.  Near 2^59 a
    # float64 cannot tell their keys apart, so a probe compared in float
    # lands on the f = 1 record and misses the f = 2 one.
    # s is nonzero in syndrome blocks 0, 2, 4 and 6, so its tau is 0b1010101
    stilde, tau, s = 7, 0b1010101, 1 | 1 << 6 | 1 << 12 | 1 << 18
    base = stilde << v._BIT["stilde"] | tau << v._BIT["tau"] | s << v._BIT["s"]
    f = v._BIT["f"]
    keys = np.array([base | 1 << f | 100, base | 2 << f | 3], dtype=np.uint64)
    t = v.LookupTable(3, True, True, keys, ())
    assert t.lookup_parity(stilde, s, 2) == 3
    assert t.lookup_parity(stilde, s, 1) == 100
    assert t.lookup_parity(stilde, s, 3) is None


def test_violations_grow_monotonically():
    kw = dict(flagged=False, interleaved=False)
    t2, t3 = build_lookup_table(2, **kw), build_lookup_table(3, **kw)
    assert verify_claim2(t2).n_violations == 932
    assert set(t2.violated_prefixes().tolist()) <= set(t3.violated_prefixes().tolist())


# ---------------------------------------------------------------------------
# Fault distance

# d, the fewest pool signatures whose XOR is L (s = 0, f = 0, the logical
# parity): the circuits' fault distance, the weight of the smallest
# undetectable logical fault set that Stim searches for (arXiv:2103.02202)
_FAULT_DISTANCE = {
    (True, True): 7, (True, False): 2, (False, True): 5, (False, False): 2,
}


def _in_sorted(keys):
    """A ``first`` predicate: the rows of a block that sorted ``keys`` holds."""
    def match(block):
        i = np.searchsorted(keys, block)
        return keys[np.minimum(i, len(keys) - 1)] == block
    return match


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_fault_distance(flagged, interleaved):
    d = _FAULT_DISTANCE[flagged, interleaved]
    logical = np.uint64(PCANON[LOGICAL_REP7])
    sets = v._EffectSets(fault_model(flagged, interleaved).signature_pool())

    def meets(n):
        # meet in the middle: an XOR of a rows equal to an XOR of b rows ^ L
        # is a set of a + b, a + b - 2, ... rows reaching L
        return _in_sorted(sets.up_to(n - n // 2))(sets.up_to(n // 2) ^ logical).any()

    assert next((n for n in range(1, 7) if meets(n)), None) == (d if d <= 6 else None)
    if d == 7:
        # the first 4 rows whose XOR ^ L is an XOR of 3 or 1 rows: an odd
        # number of rows up to 7 reaches L, and 5 or fewer do not
        in_up_to_3 = _in_sorted(sets.up_to(3))
        four = sets.first(lambda b: in_up_to_3(b ^ logical), (4,))
        rest = np.bitwise_xor.reduce(sets.pool[list(four)]) ^ logical
        three = sets.first(v._equal(rest), (3,))
        assert (four, three) == ((1, 23, 43, 56), (78, 132, 135))
        assert np.bitwise_xor.reduce(sets.pool[list(four + three)]) == logical


@pytest.mark.parametrize("flagged,interleaved", VARIANTS)
def test_audit_violations_follow_fault_distance(flagged, interleaved):
    # two records of one cell differ by a signature with s = 0, f = 0 and
    # a Steane codeword for parity, so 0 or L: the budget-t audit has a
    # violation exactly when 2t faults reach L
    d = _FAULT_DISTANCE[flagged, interleaved]
    for t in (1, 2, 3):
        table = build_lookup_table(t, flagged=flagged, interleaved=interleaved)
        assert (len(table.violated_prefixes()) > 0) == (d <= 2 * t), t


@pytest.mark.parametrize("budget", (1, 2))
def test_partition_index_tiles_the_keys(budget):
    # one entry per partition, in key order: its records are the keys
    # between its bounds, and its parity is theirs when they share one,
    # else a signed -1
    table = build_lookup_table(budget)
    keys = table.keys.tolist()
    assert list(table._parts) == sorted(table._parts)
    bounds = [(lo, hi) for _, lo, hi in table._parts.values()]
    assert [lo for lo, _ in bounds] + [len(keys)] == table._edges.tolist()
    assert [hi for _, hi in bounds] == table._edges[1:].tolist()
    for part, (par, lo, hi) in table._parts.items():
        assert {k >> v._PART for k in keys[lo:hi]} == {part}
        parities = {k & (1 << v._CELL) - 1 for k in keys[lo:hi]}
        assert par == (parities.pop() if len(parities) == 1 else -1)


# ---------------------------------------------------------------------------
# Relaxed final-round conditions


def test_sigma_examples():
    # block 1: qubit 3 (syndrome weight 2); block 2: qubit 1 (weight 1)
    e = (1 << 2) | (1 << 7)
    assert sigma(e, 0) == 3
    assert sigma(e, 1) == 1
    assert sigma(e, 2) == 0
    assert sigma(0, 0) == 0
    assert sigma(0, 7) == 0
    with pytest.raises(ValueError):
        sigma(e, 8)


def test_relaxed_mark_requires_weight():
    z0 = PauliOp.z_op(49, 0)
    empty = FaultCombination(FaultNumberCombination(), z0, z0)
    assert not relaxed_mark(empty)
    # flags over budget
    flagged = FaultCombination(FaultNumberCombination(v_g1a=1), z0, z0, flag=1)
    assert not relaxed_mark(flagged)


def test_relaxed_mark_rejects_x_type_errors():
    z, x = PauliOp.z_op(49, 1), PauliOp(49, 1, 1)
    for fc in (
        FaultCombination(FaultNumberCombination(v_g2=1), x, z),  # full error
        FaultCombination(FaultNumberCombination(v_g2=1), z, x),  # early
    ):
        with pytest.raises(ValueError, match="^relaxed_mark expects Z-type errors$"):
            relaxed_mark(fc)


def test_relaxed_mark_known_example():
    m = fault_model()
    atom = next(a for a in m.gate2 if a.label == "G2[z~1]@1:ZI")
    counts = FaultNumberCombination(v_g2=1, v_w=2)
    e = PauliOp.z_op(49, atom.error)
    fc = FaultCombination(counts, e, e)
    assert min_coset_weight(atom.error) == 2
    assert relaxed_mark(fc, 3)
    # the same fault without wait budget stays unmarked
    fc0 = FaultCombination(FaultNumberCombination(v_g2=1), e, e)
    assert not relaxed_mark(fc0, 3)
    # boundary positions have light residuals and stay unmarked
    for label in ("G2[z~1]@0:ZI", "G2[z~1]@26:ZI"):
        a = next(x for x in m.gate2 if x.label == label)
        edge = PauliOp.z_op(49, a.error)
        assert not relaxed_mark(FaultCombination(counts, edge, edge), 3)


def test_final_round_scan(final_round_report):
    rep = final_round_report
    assert rep.n_number_combinations == 84
    assert len(rep.marked) == 6
    expected = {
        ("G2[z~1]@1:ZI",),
        ("G2[z~1]@25:ZI",),
        ("G2[z~2]@1:ZI",),
        ("G2[z~2]@25:ZI",),
        ("G2[z~3]@1:ZI",),
        ("G2[z~3]@25:ZI",),
    }
    assert {m.combination.faults for m in rep.marked} == expected
    for m in rep.marked:
        assert m.combination.counts == FaultNumberCombination(v_g2=1, v_w=2)
        assert m.min_weight == 2


def test_marked_residual_patterns(final_round_report):
    # coset-minimal representatives: one Z on each of two subblocks,
    # at the first or the last position, identity elsewhere
    for m in final_round_report.marked:
        rep = min_coset_rep(m.combination.error.z_bits)
        blocks = [(rep >> (7 * b)) & 127 for b in range(7)]
        nontrivial = [b for b in blocks if b]
        assert len(nontrivial) == 2
        assert set(nontrivial) <= {1 << 0, 1 << 6}
        assert blocks.count(0) == 5


def test_post_analysis_all_safe(final_round_report):
    assert final_round_report.all_safe
    for a in final_round_report.analyses:
        assert a.feasible_completions == 1
        assert a.worst_residual == 0
        assert not a.harmful
    text = render_text(final_round_report.records())
    assert "marked: 6" in text
    assert "HARMFUL" not in text


def test_smaller_budgets_mark_nothing():
    for budget in (1, 2):
        rep = run_appendix_b(budget)
        assert rep.marked == ()
        assert rep.all_safe


# captured before the effect sets were memoized; the render and the
# json-lines stream list the marked combinations in scan order
APPENDIX_B_RENDER_SHA256 = (
    "57f15404c6d8f91364c798798265b274c315775a8b3ee603f6e10e625d3917a9"
)
APPENDIX_B_JSON_LINES_SHA256 = (
    "b73f837fc928e06257bac216b6856b00c4b114303d1ef6cebf2762cc9aa114fd"
)


def test_final_round_scan_golden(final_round_report, capsys):
    rep = final_round_report
    assert rep.n_effect_combinations == 18_039_609
    assert rep.n_number_combinations == 84
    digest = hashlib.sha256(render_text(rep.records()).encode()).hexdigest()
    assert digest == APPENDIX_B_RENDER_SHA256
    argv = ["verify-appendix-b", "--max-faults", "3", "--format", "json-lines"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == APPENDIX_B_JSON_LINES_SHA256


def test_final_round_scan_traced_peak():
    # numpy reports its buffers to tracemalloc, so the bound is on the
    # scan's live arrays, whatever the allocator's heap layout
    tracemalloc.start()
    try:
        run_appendix_b(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 << 20


def _reachable(subsets, n):
    """The distinct (mask, flag) XORs of n, n-2, ... distinct raw atoms,
    lexsorted: what the deduplicated pool's ``up_to(n)`` holds."""
    m, f = (np.concatenate(c) for c in zip(*(x for _, x in subsets[n::-2])))
    return _lexsort_distinct_rows(m, f)


def _rows(m, f):
    """(mask, flag) columns as a set of rows."""
    return set(zip(m.tolist(), f.tolist()))


@pytest.mark.parametrize("pool", ["gate1", "gate2", "wait"])
def test_effect_sets_match_pure_python(engine_subsets, pool):
    # up_to(n), unpacked, holds the oracle's rows, as many, in ascending
    # key order: by mask, then by flag syndrome
    name = {"gate1": "G1 raw", "gate2": "G2 raw", "wait": "wait"}[pool]
    sets = v._atom_effect_sets(getattr(fault_model(), pool))
    for n in range(4):
        keys = sets.up_to(n)
        assert np.all(keys[1:] > keys[:-1]), (pool, n)
        want = _reachable(engine_subsets[name].subsets, n)
        assert len(keys) == len(want[0]), (pool, n)
        assert _rows(*_unpack(keys)) == _rows(*want), (pool, n)
        assert np.array_equal(keys >> np.uint64(11), want[0]), (pool, n)
        assert sets.up_to(n) is keys


# Flags 1-4 and flags 6, 15 and 18: weights 4 and 3 with one Golay
# syndrome (their XOR is a weight-7 codeword inside the 21 flag bits).
_FLAGS4, _FLAGS3 = 0b1111, 1 << 5 | 1 << 14 | 1 << 17


def test_flag_syndromes_are_distinct_up_to_weight_three():
    flags = [sum(1 << q for q in qs)
             for w in range(4) for qs in itertools.combinations(range(21), w)]
    syndromes = [golay_syndrome(f) for f in flags]
    assert len(flags) == len(set(syndromes)) == 1562
    # a packed row's flags and their count come back from its syndrome
    assert [golay_leaders()[s] for s in syndromes] == flags
    assert v._flag_weights()[syndromes].tolist() == [f.bit_count() for f in flags]


def test_packed_pools_refuse_more_than_three_rows():
    # four one-flag atoms XOR to a weight-4 flag vector that packs as the
    # XOR of three others does, so a packed pool stops at three rows
    assert golay_syndrome(_FLAGS4) == golay_syndrome(_FLAGS3)
    assert (_FLAGS4.bit_count(), _FLAGS3.bit_count()) == (4, 3)
    bits = [q for q in range(21) if (_FLAGS4 | _FLAGS3) >> q & 1]
    keys = v._atom_keys(tuple(v.FaultAtom(f"F{q}", 0, 1 << q) for q in bits))
    assert np.bitwise_xor.reduce(keys[:4]) == np.bitwise_xor.reduce(keys[4:])
    sets = v._EffectSets(keys, 3)
    assert _pack(0, _FLAGS3) in sets.up_to(3).tolist()
    with pytest.raises(ValueError, match="at most 3 rows"):
        sets.up_to(4)
    with pytest.raises(ValueError, match="at most 3 rows"):
        sets.first(v._equal(_pack(0, _FLAGS4)), (4,))


def test_level1_syndrome_vec_is_linear():
    rng = np.random.default_rng(2020)
    a, b = (rng.integers(0, 1 << 49, size=3000, dtype=np.uint64) for _ in range(2))
    syn = v._level1_syndrome_vec
    assert syn(a).tolist() == [level1_syndrome(x) for x in a.tolist()]
    assert np.array_equal(syn(a ^ b), syn(a) ^ syn(b))


def _effects(sets, k):
    """``sets.up_to(k)`` as (mask, flag) pairs."""
    return list(zip(*(c.tolist() for c in _unpack(sets.up_to(k)))))


def _spy(monkeypatch, name):
    """Wrap ``v.<name>``: the list returned collects (args, result) per
    call."""
    calls, wrapped = [], getattr(v, name)

    def spy(*args):
        calls.append((args, wrapped(*args)))
        return calls[-1][1]

    monkeypatch.setattr(v, name, spy)
    return calls


def test_early_survivors_match_scalar_sigma(monkeypatch):
    # the shape pass forms sigma once per combination over the G1a x G2
    # rows within the loosest flag budget (every G1 row raises at most
    # one flag), in cross-product order: scalar sigma of each row's mask
    model = fault_model()
    g1 = v._atom_effect_sets(model.gate1)
    g2 = v._atom_effect_sets(model.gate2)
    early = [m1 ^ m2 for m1, _ in _effects(g1, 1) for m2, _ in _effects(g2, 1)]
    fncs = [FaultNumberCombination(1, 0, 1, *budget)
            for budget in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0))]
    calls = _spy(monkeypatch, "_sigma_from_syndrome")
    v._scan_shape(fncs, g1, g2, 3)
    assert [args[1] for args, _ in calls] == [fnc.v_w for fnc in fncs]
    for fnc, (_, got) in zip(fncs, calls):
        assert got.tolist() == [sigma(m, fnc.v_w) for m in early], fnc
        assert 0 < np.count_nonzero(got <= fnc.v_s) < len(early)


def test_scalar_marking_of_single_gate_fault_combinations(final_round_report):
    # The vectorized filters (sigma, flag count, coset weight) drop
    # combinations that relaxed_mark never sees.  Every effect combination
    # of the 50 number combinations with at most one gate fault goes
    # through the scalar relaxed_mark here; the 453,936 with two gate
    # faults are checked below, and the 17,580,853 with three are left to
    # the vectorized path.
    model = fault_model()
    g1 = v._atom_effect_sets(model.gate1)
    g2 = v._atom_effect_sets(model.gate2)

    marked = set()
    n_fnc = n_effects = 0
    for va1, vb1, v2 in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
        for vw, vf, vs in itertools.product(range(4), repeat=3):
            if va1 + vb1 + v2 + vw + vf + vs > 3:
                continue
            fnc = FaultNumberCombination(va1, vb1, v2, vw, vf, vs)
            n_fnc += 1
            for (m1, f1), (m2, f2), (mb, fb) in itertools.product(
                _effects(g1, va1), _effects(g2, v2), _effects(g1, vb1)
            ):
                n_effects += 1
                fc = FaultCombination(
                    fnc,
                    PauliOp.z_op(49, m1 ^ m2 ^ mb),
                    PauliOp.z_op(49, m1 ^ m2),
                    flag=(f1 ^ f2) | (fb << 21),
                )
                if relaxed_mark(fc, 3):
                    marked.add((fnc, m1 ^ m2, m1 ^ m2 ^ mb, fc.flag))
    assert (n_fnc, n_effects) == (50, 4820)
    scanned = {
        (
            m.combination.counts,
            m.combination.early_error.z_bits,
            m.combination.error.z_bits,
            m.combination.flag,
        )
        for m in final_round_report.marked
    }
    assert len(scanned) == 6
    assert marked == scanned


def _unfiltered_marks(fnc, g1, g2, max_faults, chunk=1 << 18):
    """The three relaxed conditions over the unfiltered cross product of
    fnc's early G1, G2 and late G1 effects, unpacked, ``chunk``
    combinations at a time, through the vector primitives checked
    against their scalar references above: the marked (fnc, early mask,
    full mask, flags), and the early (mask, flag) pairs within the flag
    budget that pass the sigma condition, in cross-product order."""
    (m1, f1), (m2, f2) = _unpack(g1.up_to(fnc.v_g1a)), _unpack(g2.up_to(fnc.v_g2))
    mb, fb = _unpack(g1.up_to(fnc.v_g1b))
    n2, nb = len(m2), len(mb)
    marked, early = set(), []
    total = len(m1) * n2 * nb
    for lo in range(0, total, chunk):
        i1, rest = np.divmod(np.arange(lo, min(lo + chunk, total)), n2 * nb)
        i2, ib = np.divmod(rest, nb)
        am, af = m1[i1] ^ m2[i2], f1[i1] ^ f2[i2]
        fm, ff = am ^ mb[ib], af | fb[ib] << np.uint64(21)
        sig = v._sigma_from_syndrome(v._level1_syndrome_vec(am), fnc.v_w) <= fnc.v_s
        flags = np.bitwise_count(ff) <= fnc.v_f
        heavy = v._min_coset_weight_vec(fm).astype(np.int64) + fnc.v_w > max_faults
        for i in np.flatnonzero(sig & flags & heavy).tolist():
            marked.add((fnc, int(am[i]), int(fm[i]), int(ff[i])))
        # each early pair once
        first = sig & (np.bitwise_count(af) <= fnc.v_f) & (ib == 0)
        early += zip(am[first].tolist(), af[first].tolist())
    return marked, early


def _shape_pass(fncs, g1, g2, max_faults):
    """``_scan_shape`` over one gate shape's ``fncs``: its marks, its
    count of effect combinations and, per combination, its early
    survivors as (mask, flag) pairs in cross-product order.  These are
    the G1a x G2 rows, read within the loosest flag budget, that the
    combination's sigma mask keeps (every pair the syndrome join returns,
    when no combination has a wait or flip budget) and that its own flag
    budget keeps."""
    with pytest.MonkeyPatch.context() as mp:
        sigmas = _spy(mp, "_sigma_from_syndrome")
        joins = _spy(mp, "_syndrome_join")
        found, examined = v._scan_shape(fncs, g1, g2, max_faults)
    k1, k2 = g1.up_to(fncs[0].v_g1a), g2.up_to(fncs[0].v_g2)
    k1 = k1[v._flag_count(k1) <= max(fnc.v_f for fnc in fncs)]
    if joins:
        (_, (i1, i2)), = joins
        fits = [np.ones(len(i1), dtype=bool)] * len(fncs)
    else:
        i1, i2 = np.divmod(np.arange(len(k1) * len(k2)), len(k2))
        assert [args[1] for args, _ in sigmas] == [fnc.v_w for fnc in fncs]
        fits = [got <= fnc.v_s for fnc, (_, got) in zip(fncs, sigmas)]
    rows = k1[i1] ^ k2[i2]
    early = [rows[fit & (v._flag_count(rows) <= fnc.v_f)] for fnc, fit in zip(fncs, fits)]
    return found, examined, [list(zip(*(c.tolist() for c in _unpack(e)))) for e in early]


def _check_scan_against_unfiltered(fncs, max_faults):
    """Marks and early survivors of ``_scan_shape``, one pass per gate
    shape, against ``_unfiltered_marks`` for each number combination: the
    marked sets of both, the number of effect combinations and of early
    survivors."""
    model = fault_model()
    g1 = v._atom_effect_sets(model.gate1)
    g2 = v._atom_effect_sets(model.gate2)
    marked, scanned = set(), set()
    n_effects = n_early = 0
    for _, shape in itertools.groupby(fncs, key=lambda fnc: fnc[:3]):
        shape = list(shape)
        found, examined, survivors = _shape_pass(shape, g1, g2, max_faults)
        n_effects += examined
        for fnc, early in zip(shape, survivors):
            marks, want = _unfiltered_marks(fnc, g1, g2, max_faults)
            marked |= marks
            assert early == want, fnc
            n_early += len(want)
        scanned |= {
            (m.combination.counts, m.combination.early_error.z_bits,
             m.combination.error.z_bits, m.combination.flag)
            for m in found
        }
    assert marked == scanned
    return len(marked), n_effects, n_early


@pytest.mark.parametrize("max_faults, n_marked", [(3, 0), (2, 12597)])
def test_marking_of_two_gate_fault_combinations(max_faults, n_marked):
    # Every effect combination with exactly two gate faults.  At the
    # paper's budget nothing is marked, so budget 2 in the coset
    # condition is checked as well: its marks include early G1a x G2
    # ones, which makes what the sigma filter drops visible.
    gate_counts = [c for c in itertools.product(range(3), repeat=3) if sum(c) == 2]
    others = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    fncs = [
        FaultNumberCombination(*gates, *rest)
        for gates, rest in itertools.product(gate_counts, others)
    ]
    got = _check_scan_against_unfiltered(fncs, max_faults)
    # 8,064 early survivors pass sigma and the flag budget (20,544 sigma alone)
    assert got == (n_marked, 453_936, 8_064)


def test_marking_of_three_gate_fault_combinations():
    # Every effect combination with three gate faults, and so no wait,
    # flag or flip fault: 17,580,853, all through the syndrome join of
    # _scan_shape (v_w = v_s = 0).  None is marked, and the early
    # survivors the join keeps are exactly those that sigma and the flag
    # budget keep: 5,312 of the 26,966 that pass sigma.
    fncs = [
        FaultNumberCombination(*gates)
        for gates in itertools.product(range(4), repeat=3)
        if sum(gates) == 3
    ]
    got = _check_scan_against_unfiltered(fncs, 3)
    assert got == (0, 17_580_853, 5_312)


def test_marks_are_deduplicated_per_combination():
    # G1a x G2 rows collide (two fault pairs with one effect), and at
    # coset threshold 1 every pair that the flip budget marks, the wait
    # budget of the same shape marks too: each combination lists each of
    # its marked pairs once, whatever the other combination lists
    model = fault_model()
    g1, g2 = v._atom_effect_sets(model.gate1), v._atom_effect_sets(model.gate2)
    fncs = [FaultNumberCombination(1, 0, 1, v_s=1), FaultNumberCombination(1, 0, 1, v_w=1)]
    found, _ = v._scan_shape(fncs, g1, g2, 1)
    marks = {fnc: [] for fnc in fncs}
    for m in found:
        fc = m.combination
        marks[fc.counts].append((fc.early_error.z_bits, fc.error.z_bits, fc.flag))
    flip, wait = marks.values()
    assert (len(set(flip)), len(set(wait))) == (len(flip), len(wait)) == (79, 1526)
    assert set(flip) <= set(wait)


def test_scan_traffic_per_gate_shape(monkeypatch):
    # The measured sizes that let the scan form its syndromes whole, at
    # budgets 1-3: the largest cross product is G1 up_to(1) x G2
    # up_to(1), and the largest one-sided join input G2's up_to(3).  At
    # budget 3 the coset weights are taken once per gate shape, besides
    # the calls of the six completion analyses.
    crosses = _spy(monkeypatch, "_sigma_from_syndrome")
    joins = _spy(monkeypatch, "_syndrome_join")
    for max_faults in (1, 2):
        run_appendix_b(max_faults)
    cosets = _spy(monkeypatch, "_min_coset_weight_vec")
    analyze, in_analyses = v._analyze_completions, []

    def counted(*args):
        before = len(cosets)
        result = analyze(*args)
        in_analyses.append(len(cosets) - before)
        return result

    monkeypatch.setattr(v, "_analyze_completions", counted)
    rep = run_appendix_b(3)
    model = fault_model()
    g1, g2 = v._atom_effect_sets(model.gate1), v._atom_effect_sets(model.gate2)
    widest = len(g1.up_to(1)) * len(g2.up_to(1))
    assert max(len(args[0]) for args, _ in crosses) == widest == 22_750
    one_sided = [len(m2 if v1 == 0 else m1)
                 for (m1, v1, m2, v2), _ in joins if 0 in (v1, v2)]
    assert max(one_sided) == len(g2.up_to(3)) == 303_499
    n_shapes = len(v._number_combinations(3, 3))
    assert (n_shapes, len(in_analyses), len(rep.marked)) == (20, 6, 6)
    assert len(cosets) - sum(in_analyses) <= n_shapes
    assert len(cosets) == 26


def _pool(*rows):
    """Synthetic scan pool of (Z mask, flag) rows."""
    return v._EffectSets(np.array([_pack(m, f) for m, f in rows], dtype=np.uint64), 3)


def _first_empty_stage(fnc, early, g1, max_faults):
    """The first stage of ``_scan_shape`` over the one combination
    ``fnc`` that holds no row: its early survivors ``early``, late rows
    within the flag budget, (early, late) pairs within it, marked
    pairs."""
    am, af = (np.array([row[i] for row in early], dtype=np.uint64) for i in (0, 1))
    bm, bf = _unpack(g1.up_to(fnc.v_g1b))
    late = np.bitwise_count(bf) <= fnc.v_f
    fits = np.bitwise_count(af)[:, None] + np.bitwise_count(bf[late]) <= fnc.v_f
    fullm = am[:, None] ^ bm[late][None, :]
    hot = v._min_coset_weight_vec(fullm[fits]).astype(np.int64) + fnc.v_w > max_faults
    stages = {"early": len(am), "late": late.sum(), "flag": fits.sum(),
              "hot": hot.sum()}
    return next(name for name, n in stages.items() if n == 0)


@pytest.mark.parametrize(
    "stage, fnc, pools",
    [
        # one data Z in each of two subblocks: sigma 1 > v_s = 0, even
        # with one wait fault hiding a subblock
        ("early", FaultNumberCombination(v_g1a=1, v_w=1), ((1 | 1 << 7, 0),)),
        # every late effect raises a flag, and no flag fault is allowed
        ("late", FaultNumberCombination(v_g1b=1), ((0, 1),)),
        # an early and a late effect raise a flag each, and one flag
        # fault is allowed
        ("flag", FaultNumberCombination(v_g1a=1, v_g1b=1, v_f=1), ((0, 1),)),
        # the real pools: no single G2 fault leaves a residual heavier
        # than the budget
        ("hot", FaultNumberCombination(v_g2=1), None),
        # a G2 pool with no rows has no G2 effect to pair: through the
        # sigma filter's cross product, and through the syndrome join
        ("early", FaultNumberCombination(v_g2=1, v_w=1), "empty-g2"),
        ("early", FaultNumberCombination(v_g2=1), "empty-g2"),
    ],
)
def test_scan_passes_empty_stages_through(stage, fnc, pools):
    if pools is None:
        model = fault_model()
        g1, g2 = v._atom_effect_sets(model.gate1), v._atom_effect_sets(model.gate2)
    elif pools == "empty-g2":  # the real G1
        g1 = v._atom_effect_sets(fault_model().gate1)
        g2 = v._EffectSets(np.zeros(0, dtype=np.uint64), 3)
    else:
        g1 = g2 = _pool(*pools)
    found, examined, (early,) = _shape_pass([fnc], g1, g2, 3)
    assert _first_empty_stage(fnc, early, g1, 3) == stage
    sizes = ((g1, fnc.v_g1a), (g2, fnc.v_g2), (g1, fnc.v_g1b))
    assert (found, examined) == ([], math.prod(len(g.up_to(k)) for g, k in sizes))


def test_vector_helpers_take_empty_input():
    empty = np.zeros(0, dtype=np.uint64)
    for v_w in range(8):
        assert v._sigma_from_syndrome(empty, v_w).shape == (0,)
    assert v._min_coset_weight_vec(empty).shape == (0,)
    assert v._level1_syndrome_vec(empty).shape == (0,)


def test_min_coset_weight_vec_matches_scalar():
    rng = random.Random(2020)
    masks = [rng.getrandbits(49) for _ in range(2000)]
    masks += [sum(1 << rng.randrange(49) for _ in range(rng.randint(1, 9)))
              for _ in range(2000)]
    got = v._min_coset_weight_vec(np.array(masks, dtype=np.uint64))
    assert got.tolist() == [min_coset_weight(m) for m in masks]


def test_effect_sets_do_not_depend_on_chunk_size(monkeypatch):
    # the build takes tau _XOR_CHUNK keys at a time: 2^10 splits the
    # flagless blockwise pool's 317,875 XORs into many chunks, the last
    # one short, and builds the same table
    kw = dict(flagged=False, interleaved=False)
    keys = build_lookup_table(3, **kw).keys
    assert sum(math.comb(len(fault_model(**kw).signature_pool()), k)
               for k in range(4)) == 317_875
    monkeypatch.setattr(v, "_XOR_CHUNK", 1 << 10)
    assert np.array_equal(build_lookup_table(3, **kw).keys, keys)


def test_exact_matches_brute_force_in_order(engine_subsets):
    for name, pool in engine_subsets.items():
        sets = pool.engine()
        blocks = [xors for _, xors in pool.subsets]
        for k in range(4):
            got = sets._exact((k,))
            assert len(got) == math.comb(len(pool.keys), k), (name, k)
            assert all(map(np.array_equal, pool.rows(got), blocks[k])), (name, k)
            if pool.max_size is None:
                # the raw XORs of a canonical pool are already canonical
                assert np.array_equal(got, _canon_sig_array(got)), k
        # several sizes in one call: the blocks back to back, in the order asked
        for sizes in ((3, 1), (0, 1, 2, 3), (2, 0)):
            got = pool.rows(sets._exact(sizes))
            ref = [np.concatenate([blocks[k][c] for k in sizes])
                   for c in range(len(got))]
            assert all(map(np.array_equal, got, ref)), (name, sizes)


def test_first_round_trip(engine_subsets):
    # first row, last row and every k = 3 block boundary of each pool:
    # first names the earliest subset with that subset's XOR
    for name, pool in engine_subsets.items():
        sets, n = pool.engine(), len(pool.keys)
        boundaries = [math.comb(n, 3) - math.comb(n - i, 3) for i in range(1, n - 2)]
        for k, (tuples, xors) in enumerate(pool.subsets):
            for r in {0, len(tuples) - 1, *(boundaries if k == 3 else ())}:
                if not 0 <= r < len(tuples):
                    continue
                target = tuple(int(c[r]) for c in xors)
                idx = sets.first(v._equal(pool.key(target)), (k,))
                assert len(idx) == k and list(idx) == sorted(set(idx)), (name, k, r)
                # the oracle's earliest hit, at r or before
                hits = np.logical_and.reduce(
                    [c[: r + 1] == np.uint64(t) for c, t in zip(xors, target)])
                assert idx == tuple(tuples[hits.argmax()].tolist()), (name, k, r)
                for c, t in zip(pool.cols, target):
                    xor = np.bitwise_xor.reduce(c[list(idx)]) if k else 0
                    assert int(xor) == t, (name, k, r)


def test_walk_reaches_any_size():
    # sizes 4 and 5 on the last 24 rows of the real table pool, against
    # itertools' XORs in order, and first at every block boundary
    pool = fault_model().signature_pool()[-24:]
    sets = v._EffectSets(pool)
    walks = {
        k: np.array([np.bitwise_xor.reduce(pool[list(c)]) if k else 0
                     for c in itertools.combinations(range(24), k)], dtype=np.uint64)
        for k in range(6)
    }
    for sizes in ((4,), (5,), (4, 2)):
        got = sets._exact(sizes)
        assert np.array_equal(got, np.concatenate([walks[k] for k in sizes])), sizes
    repeats = 0
    for k in (3, 4):
        subsets = list(itertools.combinations(range(24), k))
        for i in range(24 - k + 1):
            r = math.comb(24, k) - math.comb(24 - i, k)
            earliest = int(np.argmax(walks[k] == walks[k][r]))
            assert sets.first(v._equal(int(walks[k][r])), (k,)) == subsets[earliest]
            repeats += earliest < r
    assert repeats  # some boundary XOR is reached earlier


def test_first_keeps_level_two_across_searches(monkeypatch):
    # a size-2 walk reads level 1 from the pool, so the level 2 that the
    # first size-3 walk writes stays for every later search of either size
    sets = v._EffectSets(fault_model().signature_pool())
    exact, calls = v._EffectSets._exact, []

    def counted(self, sizes):
        calls.append(tuple(sizes))
        return exact(self, sizes)

    monkeypatch.setattr(v._EffectSets, "_exact", counted)
    for _ in range(3):
        for k in (2, 3):
            assert sets.first(lambda block: block == ~np.uint64(0), (k,)) is None
    assert calls == [(2,)]


def test_parity_key_table_matches_pcanon_and_syndrome7():
    assert len(v._PARITY_KEY) == 128
    for p in range(128):
        assert int(v._PARITY_KEY[p]) == PCANON[p] | syndrome7(PCANON[p]) << 56, p
        assert syndrome7(PCANON[p]) == syndrome7(p), p


def test_sigma_from_syndrome_matches_sigma():
    rng = random.Random(49)
    masks = [rng.getrandbits(49) for _ in range(3000)]
    syn = v._level1_syndrome_vec(np.array(masks, dtype=np.uint64))
    for v_w in range(8):
        expected = [sigma(m, v_w) for m in masks]
        assert v._sigma_from_syndrome(syn, v_w).tolist() == expected, v_w


def _reference_level1_syndrome_vec(masks):
    # the popcount form: bit j is the overlap parity with generator j
    s = np.zeros(len(masks), dtype=np.uint64)
    for j, g in enumerate(LEVEL1_GENS):
        s |= (np.bitwise_count(masks & np.uint64(g)) & np.uint64(1)) << np.uint64(j)
    return s


def _reference_sigma_from_syndrome(s, v_w):
    # the sort form: per-subblock weights, sorted, the 7 - v_w smallest summed
    w = np.empty((len(s), 7), dtype=np.uint8)
    for b in range(7):
        w[:, b] = np.bitwise_count((s >> np.uint64(3 * b)) & np.uint64(7))
    w.sort(axis=1)
    return w[:, : 7 - v_w].sum(axis=1, dtype=np.uint16)


def _reference_min_coset_weight_vec(masks):
    # the 8 x 7 form: every outer pattern re-extracts every subblock
    table = np.array(BLOCK_MIN_WT, dtype=np.uint16)
    best = None
    for pat in STAB7:
        tot = np.zeros(len(masks), dtype=np.uint16)
        for b in range(7):
            blk = ((masks >> np.uint64(7 * b)) & np.uint64(127)).astype(np.intp)
            tot += table[(pat >> b) & 1, blk]
        best = tot if best is None else np.minimum(best, tot)
    return best


def _lexsort_distinct_rows(m, f):
    # the lexsort form: sort by (mask, flag), keep rows unlike their left
    order = np.lexsort((f, m))
    m, f = m[order], f[order]
    keep = np.ones(len(m), dtype=bool)
    keep[1:] = (m[1:] != m[:-1]) | (f[1:] != f[:-1])
    return m[keep], f[keep]


def _kernel_masks():
    """10^5 seeded 49-bit masks (half of them sparse), the 49 unit
    masks, 0 and all-ones."""
    rng = np.random.default_rng(2020)
    dense = rng.integers(0, 1 << 49, size=50_000, dtype=np.uint64)
    sparse = np.zeros(50_000, dtype=np.uint64)
    for _ in range(6):
        sparse |= np.uint64(1) << rng.integers(0, 49, size=50_000, dtype=np.uint64)
    units = np.uint64(1) << np.arange(49, dtype=np.uint64)
    ends = np.array([0, LOGICAL49], dtype=np.uint64)
    return np.concatenate([dense, sparse, units, ends])


def test_level1_syndrome_vec_matches_reference():
    masks = _kernel_masks()
    got = v._level1_syndrome_vec(masks)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _reference_level1_syndrome_vec(masks))


def test_sigma_from_syndrome_matches_reference_on_every_syndrome():
    s = np.arange(1 << 21, dtype=np.uint64)
    for v_w in range(8):
        got = v._sigma_from_syndrome(s, v_w)
        assert np.array_equal(got, _reference_sigma_from_syndrome(s, v_w)), v_w


def test_min_coset_weight_vec_matches_reference():
    masks = _kernel_masks()
    got = v._min_coset_weight_vec(masks)
    assert np.array_equal(got, _reference_min_coset_weight_vec(masks))


def test_up_to_dedup_matches_lexsort_reference():
    # up_to's sort and adjacent diff of packed keys against a lexsort of
    # the unpacked rows: the same rows, as many, in mask order
    model = fault_model()
    for atoms in (model.gate1, model.gate2):
        sets = v._EffectSets(v._atom_keys(atoms), 3)
        for k in (2, 3):
            exact = sets._exact((k, k - 2))
            got = v._unique_sorted(np.sort(exact))
            want = _lexsort_distinct_rows(*_unpack(exact))
            assert len(got) == len(want[0]) and np.all(got[1:] > got[:-1]), k
            assert _rows(*_unpack(got)) == _rows(*want), k
            assert np.array_equal(got >> np.uint64(11), want[0]), k
    # many repeats and extreme rows: 49-bit masks, up to three of 21 flags
    rng = np.random.default_rng(49)
    m = rng.choice(np.array([0, 1, LOGICAL49], dtype=np.uint64), size=3000)
    flags = [0, 1, 1 << 20, 0b111, 0b111 << 18, _FLAGS3]
    f = rng.choice(np.array(flags, dtype=np.uint64), size=3000)
    keys = np.array([_pack(a, b) for a, b in zip(m.tolist(), f.tolist())], np.uint64)
    got = v._unique_sorted(np.sort(keys))
    want = _lexsort_distinct_rows(m, f)
    assert len(got) == len(want[0]) == 18
    assert _rows(*_unpack(got)) == _rows(*want)


@pytest.mark.parametrize(
    "m, f",
    [
        ([1 << 49], [0]),  # a 50-bit mask
        ([0], [1 << 21]),  # a 22-bit flag
        ([0], [0b11]),  # two flags from one atom: three atoms could raise six
    ],
)
def test_atom_keys_reject_rows_they_cannot_pack(m, f):
    atoms = tuple(v.FaultAtom("A", e, fl) for e, fl in zip(m, f))
    with pytest.raises(ValueError, match="49-bit masks"):
        v._atom_effect_sets(atoms)


# ---------------------------------------------------------------------------
# The 13-row table


def test_table1_matches_golden():
    assert render_table1() == TABLE1_GOLDEN


def test_table1_rows_classify_consistently():
    rows = reproduce_table1()
    assert len(rows) == 13
    # literal parities: the fully hit class keeps the raw pattern
    first = rows[0]
    assert first.form == "PIZZZII"
    assert first.m_values == (7,)
    assert first.block_parity == 0b0011101  # blocks 1,3,4,5 odd, leftmost first
    assert PCANON[first.block_parity] == 0  # canonical form would erase it
    last = rows[-1]
    assert last.form == "IIIIIII"
    assert (last.stilde, last.tau, last.block_parity) == (0, 0, 0)


def test_claim2_report_render(report3):
    text = render_text(report3.records())
    assert "violations: 0" in text
    assert "fault budget 3" in text
    assert "(G1a 1, G1b 0, G2 0, W 0, F 0, S 0): 210" in text
