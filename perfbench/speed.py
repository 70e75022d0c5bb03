"""Host-speed sampling: scales measured times to a fixed reference speed.

On a shared host the speed of a core drifts by up to a third in phases of
seconds to minutes, so raw wall times of the same code differ more from run
to run than the changes the benchmark should show. While a ``SpeedSampler``
is active, a ``SIGALRM`` timer interrupts the main thread every ``period``
seconds and times ``snippet``, a fixed pure-Python loop that does not touch
multbound. ``scaled(start, end)`` takes the program's time between two
``time.perf_counter`` readings, leaves out the snippets that ran inside it,
and multiplies by the host's speed over that interval relative to the speed
at which the snippet takes ``REFERENCE_S``:

    scaled = program seconds * mean over samples of (REFERENCE_S / snippet seconds)

Each sample is first replaced by the median of it and its neighbours, so
that one interrupted snippet does not count. An interval with no sample
inside takes the nearest one. The snippet runs about 2% of the time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.00095  # the snippet's median time on the 2-core host the bounds were set on
PERIOD_S = 0.05
SMOOTHING = 2  # neighbours on each side in a sample's median


def snippet():
    """Fixed work of about a millisecond: tuple building and dict updates."""
    table = {}
    for i in range(2500):
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) + i
    return table


class SpeedSampler:
    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []  # snippet start times, increasing
        self.ends = []
        self._factors = None
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        snippet()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._factors = None
        return False

    def factors(self):
        """Speed relative to the reference at each sample, smoothed over its neighbours."""
        if self._factors is None:
            took = [end - start for start, end in zip(self.starts, self.ends)]
            self._factors = [
                REFERENCE_S / statistics.median(took[max(0, i - SMOOTHING): i + SMOOTHING + 1])
                for i in range(len(took))
            ]
        return self._factors

    def scaled(self, start, end):
        """Seconds the program ran between start and end, at the reference speed."""
        factors = self.factors()
        if not factors:
            raise RuntimeError("no speed samples were taken")
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = range(first, max(first, last))
        program = (end - start) - sum(self.ends[i] - self.starts[i] for i in inside)
        if inside:
            return program * statistics.fmean(factors[i] for i in inside)
        nearest = min(
            (i for i in (first - 1, first) if 0 <= i < len(factors)),
            key=lambda i: min(abs(self.starts[i] - end), abs(self.ends[i] - start)),
        )
        return program * factors[nearest]
