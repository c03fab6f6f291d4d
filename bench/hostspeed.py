"""Host speed, read from a fixed pure-Python reference kernel.

The shared host that the benchmark runs on changes speed in phases of a
second to minutes, by up to 1.7x, and every wall time follows.  The
kernel is timed between ops and next to each cold process, and a time
taken at some moment is scaled to a host on which the kernel takes
``REFERENCE_NS`` at that moment.  What remains is the program's own
cost.  The kernel is benchmark code and creates almost no objects that
the garbage collector tracks, so the program's heap does not change its
time.
"""
from __future__ import annotations

import bisect
import itertools
import time

REFERENCE_NS = 1_000_000  # the kernel's time on the nominal host
EVERY_NS = 50_000_000  # at most one sample per 50 ms between ops
HALF_WINDOW_NS = 500_000_000  # samples within 0.5 s of a time set its factor
MIN_SAMPLES = 3  # or the samples nearest to it, where the window has fewer


def kernel() -> int:
    """About 1 ms of dict, int and str work on a 2-vCPU Xeon VM."""
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + sorted(table, key=table.__getitem__)[0]


class HostSpeed:
    """Kernel samples over one run, and the scale factors they give."""

    def __init__(self) -> None:
        self.starts: list[int] = []  # perf_counter_ns at each sample
        self.costs: list[int] = []
        self.last = 0
        self._sums: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        kernel()
        self.last = time.perf_counter_ns()
        self.starts.append(start)
        self.costs.append(self.last - start)

    def poll(self) -> None:
        if time.perf_counter_ns() - self.last >= EVERY_NS:
            self.sample()

    def scale(self, at_ns: int) -> float:
        """Factor that turns a time taken at ``at_ns`` into nominal-host
        time: the nominal kernel time over the mean of the samples taken
        within HALF_WINDOW_NS of ``at_ns``."""
        if len(self._sums) != len(self.costs) + 1:
            self._sums = [0, *itertools.accumulate(self.costs)]
        lo = bisect.bisect_left(self.starts, at_ns - HALF_WINDOW_NS)
        hi = bisect.bisect_right(self.starts, at_ns + HALF_WINDOW_NS)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.starts, at_ns)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.costs) - MIN_SAMPLES))
            hi = min(len(self.costs), lo + MIN_SAMPLES)
        return REFERENCE_NS * (hi - lo) / (self._sums[hi] - self._sums[lo])
