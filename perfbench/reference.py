"""Host-speed reference for the benchmark's end-to-end times.

The host the bounds were set on is shared.  Its speed flips between
levels up to 2x apart every tenth of a second or so, and the share of
slow time drifts over minutes, so the same job ran 20-30% slower in some
runs than in others, however it was summarised within a run.  Every
end-to-end time is therefore also scaled to one reference speed: all
through a run the benchmark runs ``reference()`` between its timed
processes or batches, a fixed piece of work that uses nothing of the
package (a pure-Python integer and dict loop, then a numpy xor, sort and
unique over 2.4 MB), and reports

    measured seconds * REFERENCE_S / mean reference time of the run

A change to the program moves the scaled time as much as the measured
one; a drift of the host's speed slows the work and the references alike
and cancels.  It is the mean and not the median of the references
because a timed piece adds up the fast and slow stretches it runs
through, and so does the mean, while the median of short calls lands on
one level or the other.  The measured times are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the mean reference time on the host the bounds were set on, so
# that scaled times read about as that host's measured times.
REFERENCE_S = 0.35

# One reference call per this many measured seconds, placed right after
# the timed piece: the mean then weighs each stretch of the run about as
# much as the timed work spent in it.
REFERENCE_EVERY_S = 1.5

_LOOP = 500_000
_ARRAY = np.random.default_rng(2006_03068).integers(0, 1 << 62, 300_000, dtype=np.int64)


def reference() -> float:
    """Run the fixed reference work once; return its seconds."""
    t = time.perf_counter()
    s = 0
    d = {}
    for i in range(_LOOP):
        s ^= (i * 2654435761) & 0xFFFFFFFF
        d[i & 1023] = s
    a = _ARRAY ^ (_ARRAY >> 7)
    a.sort()
    np.unique(a)
    return time.perf_counter() - t


class SpeedScale:
    """Reference times of one process of a run.

    Create it before the first timed piece of work and call ``after``
    right after each piece with its measured seconds, so that the
    reference runs between the pieces all through the run.
    """

    def __init__(self, before: float | None = None) -> None:
        reference()  # warm-up: the first call in a process pays page faults
        self.refs = [reference() if before is None else before]

    def after(self, measured: float) -> None:
        calls = max(1, round(measured / REFERENCE_EVERY_S))
        self.refs.extend(reference() for _ in range(calls))


def at_reference_speed(measured: dict, refs: list[float]):
    """Scale measured times to the reference speed; return them and the
    facts the report prints beside them."""
    mean_ref = statistics.fmean(refs)
    scaled = {k: v * REFERENCE_S / mean_ref for k, v in measured.items()}
    return scaled, {"measured": measured, "reference_s": mean_ref}
