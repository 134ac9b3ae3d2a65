"""Run the wpec command line with span tracing installed.

Usage: python perfbench/traced_cli.py SPANS_JSON [wpec arguments ...]

Behaves like ``python -m wpec [arguments ...]`` (same output, same exit
code) and writes the aggregated spans of the process to SPANS_JSON.
"""

from __future__ import annotations

import runpy
import sys

from tracing import Tracer, write


def main() -> int:
    spans_path = sys.argv[1]
    sys.argv = ["wpec", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install()
    try:
        runpy.run_module("wpec", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    else:
        code = 0
    finally:
        sys.stdout.flush()
        write(tracer, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
