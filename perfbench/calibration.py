"""Timings rescaled to a nominal machine speed.

The machine the benchmark was defined on (a 2-core KVM guest on a shared
host) changes the speed of its CPU by up to 2x from one stretch of tens
of seconds to the next, and by about 20% from one fifth of a second to
the next, with no steal reported and process CPU time equal to wall
time.  Runs of the same code then differ by 10-45% on every raw timing,
often more than any bound would allow.  The program is pure Python and slows
down with the CPU, so the benchmark measures the machine alongside it:
between operations, outside the timed regions and at most every
:data:`INTERVAL_S`, it times a fixed pure-Python loop
(:func:`reference_loop_s`).  Each timing is multiplied by
``NOMINAL_S / t``, where ``t`` is the loop's mean time over the samples
taken from :data:`WINDOW_S` before the operation started to
:data:`WINDOW_S` after it ended.  A timing then reads as the time it
takes on a machine on which the loop takes ``NOMINAL_S``; a slower
program still reads slower, a slower machine does not.

The window is a compromise.  A factor per operation from the latest one
or few loop times carried their noise into the percentiles; one factor
per run, from the run's mean loop time, missed the slow moments inside a
run, on which the tail operations of ``serve_edit_loop`` fall.

The loop is benchmark code and never calls the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: The nominal time of :func:`reference_loop_s`: a round figure near its
#: mean over a run on the defining machine under Python 3.11, where that
#: mean ranged from about 4 to 9 ms.
NOMINAL_S = 0.007

#: The loop is timed again once this long has passed since its last time.
INTERVAL_S = 0.2

#: A timing is scaled by the loop times from this long before the
#: operation started to this long after it ended.
WINDOW_S = 1.0


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop of dict, tuple and int work."""
    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    total = 0
    for value in range(20_000):
        key = (value & 255, value >> 8)
        node = table.get(key)
        if node is None:
            table[key] = node = len(table)
        total += node ^ value
    return time.perf_counter() - start


class Calibration:
    """The machine's speed, sampled between operations."""

    def __init__(self) -> None:
        #: (start, duration) of every timing of the loop.
        self.samples: List[Tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        """Time the loop now."""
        start = time.perf_counter()
        self.samples.append((start, reference_loop_s()))

    def tick(self) -> None:
        """Call between operations: times the loop if it is due."""
        if time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, timings: Sequence[Tuple[float, float]]) -> List[float]:
        """The ``(end, seconds)`` wall-clock timings of operations, in
        seconds at the nominal speed."""
        starts = [start for start, _ in self.samples]
        scaled = []
        for end, seconds in timings:
            first = bisect.bisect_left(starts, end - seconds - WINDOW_S)
            last = bisect.bisect_right(starts, end + WINDOW_S)
            # An empty window takes the next loop time (or the last one).
            loops = ([loop for _, loop in self.samples[first:last]]
                     or [self.samples[min(first, len(starts) - 1)][1]])
            scaled.append(seconds * NOMINAL_S / statistics.fmean(loops))
        return scaled

    def summary(self) -> Dict[str, float]:
        """For the context block: the loop times seen, and the nominal
        over their mean, roughly the ratio of reported to wall times."""
        loops = [loop for _, loop in self.samples]
        mean = statistics.fmean(loops)
        return {
            "loop_samples": len(loops),
            "loop_mean_s": round(mean, 6),
            "loop_min_s": round(min(loops), 6),
            "loop_max_s": round(max(loops), 6),
            "scale_factor": round(NOMINAL_S / mean, 4),
        }
