"""Record the expected outputs of the CLI jobs in ``expected.json``.

Usage: python3 perfbench/capture.py

Run once at the commit whose outputs are the reference.  For every job
of the ``table`` and ``verify`` workloads it stores the exit code, the
sha256 digest and the size of the output, and it computes the input
sizes the workloads are described by: the distinct single-fault
signature pool of the budget-3 table, the number of triple XORs the
table build forms (distinct pair signatures times pool size), and the
bytes of the text table.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from cli_jobs import EXPECTED, JOBS, SRC, run_job


def signature_sizes() -> dict[str, int]:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from wpec.codes import PCANON
    from wpec.verifier import fault_model

    pool = fault_model(flagged=True, interleaved=True).signature_pool()
    pcanon = np.array(PCANON, dtype=np.uint64)
    i, j = np.triu_indices(len(pool), k=1)
    pairs = pool[i] ^ pool[j]
    pairs = (pairs & ~np.uint64(127)) | pcanon[pairs & np.uint64(127)]
    n_pairs = len(np.unique(pairs))
    return {
        "signature_pool": len(pool),
        "distinct_pair_signatures": n_pairs,
        "triple_xors": n_pairs * len(pool),
    }


def main() -> None:
    jobs = {}
    with tempfile.TemporaryDirectory(dir=EXPECTED.parent.parent) as tmp:
        for workload_jobs in JOBS.values():
            for job in workload_jobs:
                dt, code, digest, size = run_job(job, Path(tmp))
                jobs[job.name] = {
                    "argv": list(job.argv),
                    "exit": code,
                    "sha256": digest,
                    "bytes": size,
                }
                print(f"{job.name}: exit {code}, {size} bytes, {dt:.2f} s")
    with open(EXPECTED, "w") as fh:
        json.dump({"jobs": jobs, "computed": signature_sizes()}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
