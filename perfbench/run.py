"""Benchmark for the wpec package: one command, three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {table,verify,protocol}
        --seed N --seconds S --trace {0,1}

Every run is a closed loop with one process and one thread at a time:

* ``table`` runs ``gen-table`` (budget 3, text, to a file),
  ``verify-appendix-a``, the negative control ``verify-appendix-a
  --ordering normal --no-flags`` and ``decode`` on the README bundle,
  each as its own ``python -m wpec`` process.
* ``verify`` runs ``verify-appendix-b`` (budget 3) and
  ``verify-claims --code golay`` the same way.
* ``protocol`` starts fresh worker processes one after another; each
  builds one budget-3 table and then runs seeded trials through
  ``wpec.protocol.run_trial``.

A pass is one round of a workload's jobs (``table``, ``verify``) or one
batch of 1,000 trials (``protocol``).  Another pass starts while the
time left of ``--seconds`` covers the last one; there is at least one.
Every output is checked: CLI outputs against the digests and exit codes
in ``expected.json``, trials by ``TrialResult.ok``.

The end-to-end times are scaled to a reference host speed: the fixed
work in ``reference.py`` runs between the timed processes or batches all
through the run, and each time is reported as measured x
``REFERENCE_S`` / the run's mean reference time.  This takes out the
shared host's speed changes; the measured times are printed beside them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run instead makes one
paired pass, each job or trial untraced and then traced back to back
(trials alternate the order), checks that both give the same output,
and reports the per-layer metrics; the tracing overhead is the traced
time minus the untraced time of the pair.  The lines above the JSON
repeat every number for a reader.  The run exits 2 without a result
when the checkout has no ``src/wpec``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from cli_jobs import (
    BENCH,
    EXPECTED,
    JOB_METRICS,
    JOB_TIMEOUT_S,
    JOBS,
    ROOT,
    SRC,
    load_expected,
    run_job,
    timed_process,
)
from protocol_worker import BATCH
from reference import SpeedScale, at_reference_speed, reference
from tracing import layer_metrics, merge

WORKLOADS = ("table", "verify", "protocol")
# set-up is measured this many times per run and reported as the median
SETUP_REPEATS = {"table": 5, "verify": 5, "protocol": 3}
TMP = ROOT / ".perfbench_tmp"


class Checks:
    """Checked operations of one run and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def measure_cli_setup(repeats: int, checks: Checks, speed: SpeedScale):
    """Interpreter start and imports: ``python -m wpec --help``, once to
    warm the file cache and then ``repeats`` times timed."""
    argv = [sys.executable, "-m", "wpec", "--help"]
    timed_process(argv, subprocess.DEVNULL)
    times = []
    for _ in range(repeats):
        dt, code = timed_process(argv, subprocess.DEVNULL)
        checks.add(code == 0, f"wpec --help exited {code}")
        times.append(dt)
        speed.after(dt)
    return times


def check_job(job, code, digest, expected, checks, prefix=""):
    want = expected["jobs"][job.name]
    checks.add(
        code == want["exit"] and digest == want["sha256"],
        f"{prefix}{job.name}: exit {code}, digest {digest[:16]} "
        f"(want exit {want['exit']}, digest {want['sha256'][:16]})",
    )


def more_passes(start: float, last: float, seconds: float) -> bool:
    """Whether the time left in the run covers another pass like the last."""
    return time.monotonic() - start + last <= seconds


def cli_workload(workload, seconds, trace, tmp, checks):
    expected = load_expected()
    if trace:
        return traced_cli_pass(workload, tmp, expected, checks), {}
    speed = SpeedScale()
    setup = measure_cli_setup(SETUP_REPEATS[workload], checks, speed)
    passes = []
    start = time.monotonic()
    while not passes or more_passes(start, sum(passes[-1].values()), seconds):
        times = {}
        for job in JOBS[workload]:
            dt, code, digest, _ = run_job(job, tmp)
            check_job(job, code, digest, expected, checks)
            times[job.metric] = dt
            speed.after(dt)
        passes.append(times)
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p.values()) for p in passes),
    }
    for m in passes[0]:
        measured[m] = statistics.median(p[m] for p in passes)
    metrics, extra = at_reference_speed(measured, speed.refs)
    return metrics, {"passes": len(passes)} | extra


def traced_cli_pass(workload, tmp, expected, checks):
    """Each job untraced, then at once traced; per-layer metrics."""
    spans_path = tmp / "spans.json"
    launcher = [str(BENCH / "traced_cli.py"), str(spans_path)]
    agg = {"spans": {}, "counts": {}}
    metrics = dict.fromkeys(JOB_METRICS, 0.0)
    traced_s = 0.0
    for job in JOBS[workload]:
        dt, code, digest, _ = run_job(job, tmp)
        check_job(job, code, digest, expected, checks)
        metrics[job.metric] = dt
        dt, code, digest, _ = run_job(job, tmp, launcher)
        check_job(job, code, digest, expected, checks, "traced ")
        traced_s += dt
        with open(spans_path) as fh:
            merge(agg, json.load(fh))
        spans_path.unlink()
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - sum(metrics[m] for m in JOB_METRICS)
    metrics["trial_p50_us"] = metrics["trial_p99_us"] = 0.0
    metrics["protocol.fallback_ratio"] = metrics["protocol.rounds_per_trial"] = 0.0
    return metrics | layer_metrics(agg)


def run_worker(seed, stream, seconds, trace, tmp):
    out = tmp / f"worker-{stream}.json"
    argv = [
        sys.executable, str(BENCH / "protocol_worker.py"),
        "--seed", str(seed), "--stream", str(stream),
        "--seconds", repr(seconds), "--out", str(out),
    ]
    if trace:
        argv.append("--trace")
    else:
        # one reference call before each worker, so that the run's
        # references also cover the set-ups
        argv += ["--ref-before", repr(reference())]
    # the worker reads the clock value off its own command line
    argv += ["--t0", repr(time.monotonic())]
    _, code = timed_process(argv, subprocess.DEVNULL, timeout=seconds + JOB_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"protocol worker {stream} exited {code}")
    with open(out) as fh:
        result = json.load(fh)
    out.unlink()
    return result


def protocol_workload(seed, seconds, trace, tmp, checks):
    n_workers = 1 if trace else SETUP_REPEATS["protocol"]
    workers = [
        run_worker(seed, k, seconds / n_workers, trace, tmp)
        for k in range(n_workers)
    ]
    checks.attempted += sum(w["attempted"] for w in workers)
    checks.failed += sum(w["failed"] for w in workers)
    lat = [x for w in workers for x in w["latencies_us"]]
    p99 = statistics.quantiles(lat, n=100)[98]
    info = {"trials": len(lat), "beyond_p99": sum(x > p99 for x in lat),
            "workers": n_workers}
    if not trace:
        metrics, extra = at_reference_speed({
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "wall_s": statistics.median(b for w in workers for b in w["batch_s"]),
        }, [r for w in workers for r in w["refs"]])
        return metrics | {
            "trial_p50_us": statistics.median(lat),
            "trial_p99_us": p99,
        }, info | {"batch": BATCH} | extra
    (w,) = workers
    metrics = dict.fromkeys(JOB_METRICS, 0.0)
    metrics.update({
        "trial_p50_us": statistics.median(lat),
        "trial_p99_us": p99,
        "trace.wall_s": w["traced_s"],
        "trace.overhead_s": w["traced_s"] - w["untraced_s"],
        "protocol.fallback_ratio": w["fallback"] / len(lat),
        "protocol.rounds_per_trial": w["rounds"] / len(lat),
    })
    return metrics | layer_metrics(merge({"spans": {}, "counts": {}}, w["trace"])), info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "wpec" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"error: no wpec sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "ratio"

    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    checks = Checks()
    try:
        if args.workload == "protocol":
            metrics, info = protocol_workload(
                args.seed, args.seconds, args.trace, tmp, checks
            )
        else:
            metrics, info = cli_workload(
                args.workload, args.seconds, args.trace, tmp, checks
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics["peak_rss_mb"] = rusage.ru_maxrss / 1024  # kB on Linux
    metrics["failed_frac"] = checks.failed / checks.attempted

    measured = info.pop("measured", {})
    print(", ".join([f"workload {args.workload}", f"seed {args.seed}",
                     f"trace {args.trace}", *(f"{k} {v:.6g}" if isinstance(v, float)
                                              else f"{k} {v}" for k, v in info.items())]))
    for name in sorted(metrics):
        also = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name:48s} {metrics[name]:.6g} {units[name]}{also}")
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
