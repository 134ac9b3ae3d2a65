"""The CLI jobs of the ``table`` and ``verify`` workloads.

Each job is one ``python -m wpec`` process, started and timed from
outside the package as a user would run it.  Its output (the ``--out``
file for ``gen-table``, stdout for the rest) is checked against the
sha256 digest and exit code in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

# A job that has not ended after this long is killed and counted failed.
JOB_TIMEOUT_S = 150


@dataclass(frozen=True)
class Job:
    name: str  # key in expected.json
    metric: str  # per-job time metric
    argv: tuple[str, ...]  # wpec arguments; "{out}" is the output file


JOBS = {
    "table": (
        Job("gen-table", "gen_table_s",
            ("gen-table", "--max-faults", "3", "--format", "text", "--out", "{out}")),
        Job("verify-appendix-a", "verify_appendix_a_s",
            ("verify-appendix-a", "--max-faults", "3")),
        Job("negative-control", "negative_control_s",
            ("verify-appendix-a", "--max-faults", "3", "--ordering", "normal",
             "--no-flags")),
        Job("decode", "decode_s", ("decode", "perfbench/bundle.txt")),
    ),
    "verify": (
        Job("verify-appendix-b", "verify_appendix_b_s",
            ("verify-appendix-b", "--max-faults", "3")),
        Job("verify-claims-golay", "verify_claims_s",
            ("verify-claims", "--code", "golay")),
    ),
}
JOB_METRICS = tuple(job.metric for jobs in JOBS.values() for job in jobs)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the package
    from this checkout's ``src``, one thread for numeric libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_process(argv, stdout, *, timeout: float = JOB_TIMEOUT_S):
    """Run one process to completion; return (seconds, exit code).

    Time runs from just before the process is started until it has been
    waited for, so it covers interpreter start, imports and exit.  The
    wait blocks (``Popen.wait`` with a timeout would poll every 50 ms and
    round the times up); a timer thread kills a process still running
    after ``timeout``, and its exit code then reads None.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=stdout, cwd=ROOT, env=child_env())
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    watchdog = threading.Timer(timeout, expire)
    watchdog.start()
    try:
        code = proc.wait()
        dt = time.monotonic() - t0
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted while waiting
            proc.kill()
            proc.wait()
    return dt, None if expired.is_set() else code


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_job(job: Job, tmp: Path, launcher=None):
    """Run one job; return (seconds, exit code, digest, output bytes).

    ``launcher`` replaces ``-m wpec`` (the traced run passes its own
    script and spans file); the wpec arguments stay the same.
    """
    out = tmp / f"{job.name}.out"
    argv = [a.replace("{out}", str(out)) for a in job.argv]
    prefix = launcher or ["-m", "wpec"]
    with open(os.devnull if "{out}" in job.argv else out, "wb") as stdout:
        dt, code = timed_process([sys.executable, *prefix, *argv], stdout)
    digest = sha256_file(out) if out.exists() else ""
    size = out.stat().st_size if out.exists() else 0
    out.unlink(missing_ok=True)
    return dt, code, digest, size


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)
