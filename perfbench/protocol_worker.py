"""One worker process of the ``protocol`` workload.

Usage: python perfbench/protocol_worker.py --seed S --stream K
           --seconds T --t0 MONOTONIC --out RESULT_JSON
           [--ref-before SECONDS | --trace]

Set-up is interpreter start (from the parent's clock reading ``--t0``),
imports and one budget-3 lookup table.  The worker then runs trials
from its (seed, stream) sequence through ``wpec.protocol.run_trial``,
one at a time, in batches of ``BATCH``, and starts another batch while
the time left covers the last one (at least one batch).  The reference
work of ``reference.py`` runs after every batch; the parent's reference
time just before the start is ``--ref-before``.

With ``--trace`` the span wrappers are installed before the package is
imported, and the worker runs exactly one batch in which every trial
runs twice, traced and untraced, in alternating order.  The two runs
must agree on rounds, bundle and residual.

A trial counts as failed when ``TrialResult.ok`` is false, when it
raises, or (traced) when its two runs disagree; the worker keeps going.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from reference import SpeedScale
from schedules import trial_texts

BATCH = 1000


def _fingerprint(result) -> str:
    return f"{result.rounds_used}|{result.bundle.render()}|{result.residual}"


class Stats:
    """Latencies and per-trial facts of the untraced trial runs."""

    def __init__(self) -> None:
        self.latencies_us: list[float] = []
        self.failed = self.fallback = self.rounds = 0

    def run(self, protocol, trial, table):
        """Run one trial; return its result, or None when it raised."""
        t = time.perf_counter()
        try:
            r = protocol.run_trial(trial, table)
        except Exception as exc:  # a failing trial is counted, not fatal
            self.latencies_us.append((time.perf_counter() - t) * 1e6)
            self.failed += 1
            print(f"trial {trial.name} raised {exc!r}", file=sys.stderr)
            return None
        self.latencies_us.append((time.perf_counter() - t) * 1e6)
        if not r.ok:
            self.failed += 1
            print(r.render(), file=sys.stderr)
        self.fallback += r.fallback_used
        self.rounds += r.rounds_used
        return r


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ref-before", type=float)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import wpec.protocol as protocol
    from wpec.pauli import PauliOp

    table = protocol.build_lookup_table(3)
    setup_s = time.monotonic() - args.t0
    if tracer is None:
        speed = SpeedScale(args.ref_before)
    else:
        tracer.uninstall()  # reinstalled around each traced trial below

    texts = trial_texts(args.seed, args.stream)

    def next_batch():
        return [
            protocol.Trial(
                PauliOp.from_string(text),
                protocol.parse_schedule(schedule),
                name=f"bench:{args.seed}/{args.stream}/{i}",
            )
            for i, text, schedule in (next(texts) for _ in range(BATCH))
        ]

    stats = Stats()
    batch_s: list[float] = []
    result = {"setup_s": setup_s}
    if tracer is None:
        start = time.perf_counter()
        while not batch_s or (
            time.perf_counter() - start + batch_s[-1] <= args.seconds
        ):
            trials = next_batch()
            tb = time.perf_counter()
            for trial in trials:
                stats.run(protocol, trial, table)
            batch_s.append(time.perf_counter() - tb)
            speed.after(batch_s[-1])
        result["refs"] = speed.refs
    else:
        traced_s = untraced_s = 0.0
        mismatched = 0
        for k, trial in enumerate(next_batch()):
            # order alternates so neither run always finds the caches warm
            for traced in (True, False) if k % 2 == 0 else (False, True):
                if traced:
                    tracer.install()
                    t = time.perf_counter()
                    try:
                        r_traced = protocol.run_trial(trial, table)
                    except Exception:
                        r_traced = None
                    traced_s += time.perf_counter() - t
                    tracer.uninstall()
                else:
                    n = len(stats.latencies_us)
                    r_plain = stats.run(protocol, trial, table)
                    untraced_s += stats.latencies_us[n] / 1e6
            if r_plain is not None and (
                r_traced is None or _fingerprint(r_traced) != _fingerprint(r_plain)
            ):
                mismatched += 1
                print(f"trial {trial.name}: traced run differs", file=sys.stderr)
        stats.failed += mismatched
        result.update(
            traced_s=traced_s, untraced_s=untraced_s, trace=tracer.dump()
        )
    result.update(
        batch_s=batch_s,
        latencies_us=stats.latencies_us,
        attempted=len(stats.latencies_us),
        failed=stats.failed,
        fallback=stats.fallback,
        rounds=stats.rounds,
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
