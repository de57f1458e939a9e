"""Scale measured times to a fixed host speed.

On a shared host the speed of one core swings by a factor of two within a
second and stays low or high for seconds at a time, so that ten-second
timings of the same code differ by 20% or more.  The probe samples the
speed while the process works: every PERIOD_S of wall time a SIGALRM handler
runs a fixed piece of pure-Python exact arithmetic (the kind of work the
package does) and records how long it took.  A time is multiplied by
REF_NS / (mean sample): a phase's time by the samples of that phase, an
op's latency by the samples taken while it ran (the window widened until it
holds LOCAL_SAMPLES).  Times are thus reported as they would read on a host
where the reference takes REF_NS; the probe's own time is left out of every
reading of `clock()`.  Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter_ns

PERIOD_S = 0.01
REF_NS = 200_000
MIN_SAMPLES = 20
LOCAL_NS = 50_000_000
LOCAL_SAMPLES = 20


def reference() -> int:
    """Small exact rationals in tuples, compared and summed: the package's mix."""
    hits = 0
    for i in range(1, 17):
        a = (Fraction(i % 13, 13), Fraction(i % 7, 20))
        b = (Fraction(i % 11, 9), Fraction(1, i % 12 + 1))
        d2 = sum((x - y) ** 2 for x, y in zip(a, b))
        hits += d2 < Fraction(1, 4)
    return hits


class SpeedProbe:
    def __init__(self):
        self.samples: list[int] = []
        self.stamps: list[int] = []     # clock() at each sample
        self.spent_ns = 0
        self._previous = None

    def _sample(self, *_):
        start = perf_counter_ns()
        reference()
        took = perf_counter_ns() - start
        self.stamps.append(start - self.spent_ns)
        self.samples.append(took)
        self.spent_ns += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> int:
        """Nanoseconds on a clock that stands still while the probe runs."""
        while True:
            spent = self.spent_ns
            now = perf_counter_ns()
            if spent == self.spent_ns:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor that turns times measured since `mark` into REF_NS units."""
        while len(self.samples) - mark < MIN_SAMPLES:   # a phase too short
            self._sample()
        taken = self.samples[mark:]
        return REF_NS * len(taken) / sum(taken)

    def local_scale(self, start: int, end: int, mark: int) -> float:
        """The factor for one op: from the samples taken within LOCAL_NS of
        it (the window doubles until it holds LOCAL_SAMPLES), else from all
        samples since `mark`."""
        pad = LOCAL_NS
        while pad < 1e9:
            lo = bisect.bisect_left(self.stamps, start - pad, lo=mark)
            hi = bisect.bisect_right(self.stamps, end + pad, lo=lo)
            if hi - lo >= LOCAL_SAMPLES:
                taken = self.samples[lo:hi]
                return REF_NS * len(taken) / sum(taken)
            pad *= 2
        return self.scale(mark)
