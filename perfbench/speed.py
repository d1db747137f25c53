"""Interpreter speed, sampled while the benchmark runs.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes (other tenants).  The process's CPU time drifts with its
wall time, so it is not descheduling and CPU time does not remove it
(run.py prints both; README.md has the spreads).  No median within one run
removes a drift that lasts the whole run.  So a fixed reference slice, an
integer row reduction shaped like the SNF kernel's inner loop, runs every
PROBE_EVERY_S of wall time from a SIGALRM handler, that is between two
bytecodes of whatever is running.  An interval's *slowdown* is the mean
time of the slices inside it and of the nearest slice on each side, divided
by REF_SLICE_S; its time at the reference speed is its wall-clock time, less
the slices inside it, divided by its slowdown.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# About the slice's time on an idle core of a 2 GHz Xeon, so that times at
# the reference speed read about the same as the wall clock there.
REF_SLICE_S = 0.010
PROBE_EVERY_S = 0.25


def row_reduction() -> None:
    n = 40
    for rep in range(12):
        rows = [[(i * 7 + j * 3 + rep) % 11 - 5 for j in range(n)] for i in range(n)]
        for k in range(n - 1):
            pivot = rows[k]
            for i in range(k + 1, n):
                row = rows[i]
                q = row[k] % 3
                if q:
                    for j in range(k, n):
                        row[j] = (row[j] - q * pivot[j]) % 7 - 3


class SpeedProbe:
    """Takes reference slices while entered; time() reads them afterwards."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _slice(self, *_signal_args) -> None:
        if self._busy:  # a tick that arrives during a slice is dropped
            return
        self._busy = True
        self.starts.append(perf_counter())
        row_reduction()
        self.ends.append(perf_counter())
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()

    def time(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of [start, end] outside the slices, slowdown there)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        around = [self.ends[k] - self.starts[k] for k in (lo - 1, hi) if 0 <= k < len(self.ends)]
        slowdown = statistics.mean(inside + around) / REF_SLICE_S
        return end - start - sum(inside), slowdown

    def at_reference(self, start: float, end: float) -> float:
        seconds, slowdown = self.time(start, end)
        return seconds / slowdown
