"""CPU speed sampling, to take the machine's speed swings out of timings.

On a shared virtual machine the same pure-Python work can take from 1.0x
to 1.9x its fastest time, in plateaus lasting from seconds to whole runs.
While a `SpeedSampler` is active, a SIGALRM handler times a fixed loop
every INTERVAL_S seconds: float arithmetic over the next SPIN items of a
list of DATA_LEN floats, so that, like the solver, it feels cache and
memory contention as well as clock speed.  `scale(t0, t1)` then
converts a wall-clock span into the time it would have taken at a fixed
reference speed, the one at which the loop takes REFERENCE_S: the span
minus the sampler's own time in it, divided by the span's mean slowdown
(mean loop time in the span / REFERENCE_S).  The reference is a constant,
not the fastest loop of the run, so that a run spent entirely in a slow
plateau is corrected as well.  The sampler costs about 1.2% of the time
(0.6 ms every 50 ms) and about 10 MB of memory.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.05
SPIN = 20_000  # floats read per sample, about 1 ms
DATA_LEN = 1 << 18  # floats cycled through, several MB
REFERENCE_S = 0.0005  # loop time at the reference speed, near the fastest seen on a Xeon VM


class SpeedSampler:
    """Context manager sampling CPU speed for the length of a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._data = [float(i) for i in range(DATA_LEN)]
        self._offset = 0

    def _sample(self, signum, frame):
        t = perf_counter()
        off = self._offset
        total = 0.0
        for x in self._data[off:off + SPIN]:
            total += x * 1.0000001
        self._offset = (off + SPIN) % (DATA_LEN - SPIN)
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean loop time over [t0, t1] relative to REFERENCE_S; spans
        shorter than the interval use the samples next to them."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        window = self.durations[max(lo - 1, 0):hi + 1]
        if not window:
            return 1.0
        return (sum(window) / len(window)) / REFERENCE_S

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning wall time measured over [t0, t1] (or any part of
        it) into time at the reference speed, without the sampler's
        own share."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        own = sum(self.durations[lo:hi])
        wall = t1 - t0
        busy = 1.0 - own / wall if wall > own else 1.0
        return busy / self.slowdown(t0, t1)
