"""Host time expressed in reference-host seconds.

On a shared 2-CPU container the host's speed drifts by up to 1.5x over
minutes as neighbours load the same cores; CPU time drifts the same
way, and no run is long enough to average it out.  A fixed probe
kernel, timed right before and right after each interval, measures
that drift: an interval's host seconds are scaled by
``PROBE_REF_S / probe time``, which is the time the interval would
have taken at the reference speed.  The probe is pure-Python heap and
dict work, the same kind of work the simulator's event loop does, and
it is the benchmark's own code, so a change to the program cannot move
it.  Raw host figures are printed beside the scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: probe time at the fastest speed observed on a 2-CPU Xeon container
PROBE_REF_S = 0.0065


def probe() -> float:
    """Seconds one run of the fixed probe kernel takes."""
    t0 = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(8000):
        heapq.heappush(heap, ((i * 7919) % 997, i))
        counts[i & 511] = counts.get(i & 511, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def _probe_median() -> float:
    return statistics.median(probe() for _ in range(5))


class RefClock:
    """Times intervals in reference seconds (probe-scaled host time)."""

    def __init__(self) -> None:
        self._last = _probe_median()
        self.raw_s = 0.0
        self.ref_s = 0.0
        #: reference seconds per host second over the last interval
        self.scale = 1.0

    def time(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` and add its duration to ``raw_s`` and ``ref_s``."""
        t0 = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - t0
        before, self._last = self._last, _probe_median()
        self.scale = PROBE_REF_S / ((before + self._last) / 2)
        self.raw_s += raw
        self.ref_s += raw * self.scale
        return value
