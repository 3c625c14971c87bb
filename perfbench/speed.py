"""Machine-speed sampler, for times that do not swing with the host.

The benchmark's target machine is a small shared VM whose speed changes by
up to about 2x over seconds to minutes, in process CPU time as much as in wall
time, so raw times of the same code differ by that much from run to run.
While a run measures, SIGALRM fires every ``INTERVAL_S`` and the handler
times a fixed pure-Python reference snippet. The mean of those samples
around an interval says how slow the machine was during it, relative to
``REFERENCE_S``, the snippet's time on the same VM when uncontended.

``normalized`` returns an interval's seconds minus the time the handler
took inside it, divided by that slowdown: seconds as the uncontended
machine would have taken them. An interval is normalised once the sampler
has run ``WINDOW_S`` past its end. The snippet lives in the benchmark, so a
change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.05
# Samples from this long before and after an interval also count, so that
# a short interval has enough of them.
WINDOW_S = 0.25
# Fastest steady time of one reference sample on the 2-vCPU VM the bounds
# were set on (CPython 3.11).
REFERENCE_S = 0.5e-3


def _reference() -> int:
    table = {}
    acc = 0
    for i in range(2000):
        k = (i * 2654435761) & 0xFFFF
        acc ^= table.get(k, i) | (k << 3)
        table[k] = acc & 0xFFFFF
    return acc


class SpeedSampler:
    """Samples the reference snippet on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.stamps = []
        self.durations = []
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        _reference()
        end = perf_counter()
        self.stamps.append(start)
        self.durations.append(end - start)
        self.spent += perf_counter() - start
        self._busy = False

    def start(self):
        """Install the timer and sample for one window before returning."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        end = perf_counter() + WINDOW_S
        while perf_counter() < end:
            pass

    def stop(self):
        """Sample for one more window, then remove the timer."""
        end = perf_counter() + WINDOW_S
        while perf_counter() < end:
            pass
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A point in time to measure from or to."""
        return perf_counter(), self.spent

    def clock(self) -> float:
        """Seconds that exclude the handler's time, for timing spans."""
        return perf_counter() - self.spent

    def slowdown(self, begin, end) -> float:
        """Mean reference time around [begin, end] over ``REFERENCE_S``."""
        lo = bisect.bisect_left(self.stamps, begin[0] - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end[0] + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[-1:]
        return sum(window) / len(window) / REFERENCE_S

    def raw(self, begin, end) -> float:
        """Seconds between two marks, less the handler's share."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def normalized(self, begin, end) -> float:
        return self.raw(begin, end) / self.slowdown(begin, end)
