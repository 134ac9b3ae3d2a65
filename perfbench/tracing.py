"""Span tracing for the benchmark's traced runs, applied from outside.

``install`` replaces public names in the ``wpec`` modules with timing
wrappers: the functions each module imports from the layer below, the
module-level functions a layer calls on itself, and two ``LookupTable``
methods.  Module code looks its callees up by global name at call time,
so the wrappers see every call without a change to the package.
Spans are aggregated in memory per name (total time, calls, time spent
in child spans) and written out once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# The five layers whose self time is reported; codes and pauli are
# microsecond-scale helpers whose time stays with their callers.
LAYERS = ("cli", "verifier", "protocol", "circuits", "decoder")


def _count_records(tracer, table):
    tracer.counts["verifier.build_lookup_table.records"] += table.n_records


def _count_resolved(tracer, found):
    tracer.counts["verifier.find_fault_combination.resolved"] += found is not None


def _count_scan(tracer, report):
    tracer.counts["verifier.run_appendix_b.effect_combinations"] += (
        report.n_effect_combinations
    )
    tracer.counts["verifier.run_appendix_b.marked"] += len(report.marked)


def _count_miss(tracer, parity):
    tracer.counts["verifier.LookupTable.lookup_parity.misses"] += parity is None


# (module, attribute, span name, result hook).  Span names carry the
# module that defines the function, which is the layer it belongs to.
_TARGETS = (
    ("cli", "cmd_gen_table", "cli.gen-table", None),
    ("cli", "cmd_verify_appendix_a", "cli.verify-appendix-a", None),
    ("cli", "cmd_verify_appendix_b", "cli.verify-appendix-b", None),
    ("cli", "cmd_verify_claims", "cli.verify-claims", None),
    ("cli", "cmd_decode", "cli.decode", None),
    ("cli", "build_lookup_table", "verifier.build_lookup_table", _count_records),
    ("cli", "verify_claim2", "verifier.verify_claim2", None),
    ("cli", "run_appendix_b", "verifier.run_appendix_b", _count_scan),
    ("cli", "decode_with_report", "protocol.decode_with_report", None),
    ("cli", "build_correction_table", "decoder.build_correction_table", None),
    ("cli", "wpec_steane", "decoder.wpec_steane", None),
    ("protocol", "run_trial", "protocol.run_trial", None),
    ("protocol", "run_round", "protocol.run_round", None),
    ("protocol", "decode_with_report", "protocol.decode_with_report", None),
    ("protocol", "joint_coset_weight", "protocol.joint_coset_weight", None),
    ("protocol", "build_lookup_table", "verifier.build_lookup_table", _count_records),
    ("protocol", "run_circuit", "circuits.run_circuit", None),
    ("protocol", "build_correction_table", "decoder.build_correction_table", None),
    ("protocol", "wpec_steane", "decoder.wpec_steane", None),
    ("verifier", "fault_model", "verifier.fault_model", None),
    ("verifier", "find_fault_combination", "verifier.find_fault_combination",
     _count_resolved),
    ("verifier.LookupTable", "lookup_parity", "verifier.LookupTable.lookup_parity",
     _count_miss),
)


class Tracer:
    """Per-name span aggregates plus the counters the hooks keep."""

    def __init__(self) -> None:
        # name -> [total seconds, calls, seconds inside child spans]
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child-time accumulator per open span
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, name: str, dt: float) -> None:
        child = self._open.pop()
        agg = self.spans[name]
        agg[0] += dt
        agg[1] += 1
        agg[2] += child
        if self._open:
            self._open[-1] += dt

    def wrap(self, name, fn, hook=None):
        open_spans, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, clock() - t0)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Time each step of a generator as one call of the same span,
        and count the items it yields under ``name + ".lines"``."""
        open_spans, close, clock = self._open, self._close, time.perf_counter
        counts = self.counts
        key = name + ".lines"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            n = 0
            try:
                while True:
                    open_spans.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, clock() - t0)
                    n += 1
                    yield item
            finally:
                counts[key] += n

        return wrapper

    def install(self) -> None:
        import wpec.cli
        import wpec.protocol
        import wpec.verifier

        owners = {
            "cli": wpec.cli,
            "protocol": wpec.protocol,
            "verifier": wpec.verifier,
            "verifier.LookupTable": wpec.verifier.LookupTable,
        }
        for owner_name, attr, span, hook in _TARGETS:
            owner = owners[owner_name]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span, fn, hook))
        table_cls = wpec.verifier.LookupTable
        fn = table_cls.record_lines
        self._saved.append((table_cls, "record_lines", fn))
        table_cls.record_lines = self.wrap_generator(
            "verifier.LookupTable.record_lines", fn
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self) -> dict:
        return {"spans": dict(self.spans), "counts": dict(self.counts)}


def merge(into: dict, part: dict) -> dict:
    """Add one process's dump to an aggregate of the same shape."""
    for name, (total, calls, child) in part["spans"].items():
        agg = into["spans"].setdefault(name, [0.0, 0, 0.0])
        agg[0] += total
        agg[1] += calls
        agg[2] += child
    for name, n in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    return into


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer numbers from merged spans: times, calls, counts, ratios."""
    spans, counts = agg["spans"], agg["counts"]

    def total(name):
        return spans.get(name, [0.0, 0, 0.0])[0]

    def calls(name):
        return spans.get(name, [0.0, 0, 0.0])[1]

    def self_time(name):
        t, _, child = spans.get(name, [0.0, 0, 0.0])
        return t - child

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        f"{layer}.self_s": sum(
            (self_time(n) for n in spans if n.split(".", 1)[0] == layer), 0.0
        )
        for layer in LAYERS
    }
    out["cli.gen-table.self_s"] = self_time("cli.gen-table")
    out["cli.verify-claims.self_s"] = self_time("cli.verify-claims")
    for name in (
        "verifier.fault_model",
        "verifier.build_lookup_table",
        "verifier.LookupTable.record_lines",
        "verifier.verify_claim2",
        "verifier.find_fault_combination",
        "verifier.run_appendix_b",
        "decoder.build_correction_table",
        "protocol.run_trial",
        "protocol.run_round",
        "circuits.run_circuit",
        "protocol.decode_with_report",
        "verifier.LookupTable.lookup_parity",
        "decoder.wpec_steane",
        "protocol.joint_coset_weight",
    ):
        out[f"{name}.s"] = total(name)
    for name in (
        "verifier.build_lookup_table",
        "verifier.find_fault_combination",
        "protocol.run_trial",
        "protocol.run_round",
        "circuits.run_circuit",
        "verifier.LookupTable.lookup_parity",
        "decoder.wpec_steane",
        "protocol.joint_coset_weight",
    ):
        out[f"{name}.calls"] = calls(name)
    out["verifier.build_lookup_table.records"] = counts.get(
        "verifier.build_lookup_table.records", 0
    )
    out["verifier.LookupTable.record_lines.lines"] = counts.get(
        "verifier.LookupTable.record_lines.lines", 0
    )
    out["verifier.find_fault_combination.resolved_ratio"] = ratio(
        counts.get("verifier.find_fault_combination.resolved", 0),
        calls("verifier.find_fault_combination"),
    )
    scanned = counts.get("verifier.run_appendix_b.effect_combinations", 0)
    out["verifier.run_appendix_b.effect_combinations"] = scanned
    out["verifier.run_appendix_b.mark_ratio"] = ratio(
        counts.get("verifier.run_appendix_b.marked", 0), scanned
    )
    out["verifier.LookupTable.lookup_parity.miss_ratio"] = ratio(
        counts.get("verifier.LookupTable.lookup_parity.misses", 0),
        calls("verifier.LookupTable.lookup_parity"),
    )
    return out


def write(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
