"""Host-speed probe: a fixed exact-arithmetic kernel timed between items.

On a shared virtual machine the speed of a core drifts by tens of
percent over a few seconds, in CPU time as much as in wall time, because
other tenants share its caches and memory.  A run of half a minute then
reads whatever speed the host had in that window.  The probe times a
fixed kernel of the same kind of work as the program (Fraction
elimination, integer tuples in dicts and sets) every EVERY_S seconds and
around every item, and a wall time is scaled by REFERENCE_S over the
median kernel time measured within WINDOW_S of it.  A scaled time is the
time the operation would have taken at the reference speed; the kernel
does not touch sphervar, so a change to the program moves the scaled
times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# median in-run kernel time at the reference commit on the machine of
# bench/README.md; only a scale, so that scaled times read close to wall
# times there
REFERENCE_S = 0.006
EVERY_S = 0.05
WINDOW_S = 0.25


def kernel() -> int:
    """A few ms of exact arithmetic; always returns 679."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
          for j in range(n)] for i in range(n)]
    for _ in range(2):
        a = [r[:] for r in m]
        for c in range(n):
            p = next((i for i in range(c, n) if a[i][c] != 0), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            for i in range(n):
                if i != c and a[i][c] != 0:
                    f = a[i][c] / a[c][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 17, i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
    return len({tuple(sorted(k)) for k in counts})


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            if kernel() != 679:
                raise RuntimeError("speed kernel gave a wrong result")
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is under EVERY_S old, so that every
        interval has a sample within EVERY_S before it."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from wall time to reference time for the interval
        [t0, t1]: REFERENCE_S over the median kernel time sampled within
        WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed interval")
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
