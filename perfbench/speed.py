"""The machine's speed over time, to scale wall times by.

On a shared virtual machine the speed of one process changes by up to a
factor of two, for seconds or minutes at a time, whatever the process does.
A Speedometer keeps the timeline of that speed: it times a fixed
pure-Python reference, a naive square search on a fixed word, which does
the same kinds of work as wordmorph's scans (tuple slices and comparisons,
calls, list appends). While it is running, a SIGALRM handler takes a sample
every interval; sample() takes one on demand.

factor(start, end) is REFERENCE_S divided by the mean reference time around
an interval, so wall time × factor is the time the work would have taken on
a machine where the reference takes REFERENCE_S. The reference is part of
the benchmark, not of wordmorph, so a change to wordmorph moves the scaled
times and leaves the scale alone.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

REFERENCE_S = 0.0005  # about the reference's time on a 2-vCPU Xeon VM in a fast stretch


def _word() -> tuple[int, ...]:
    thue_morse = tuple(bin(i).count("1") & 1 for i in range(64))
    return thue_morse[:40] + thue_morse[30:40] + thue_morse[40:]  # one planted square


_WORD = _word()


def _is_square(word: tuple[int, ...], i: int, p: int) -> bool:
    return word[i:i + p] == word[i + p:i + 2 * p]


def reference() -> int:
    """Count the squares of _WORD by comparing every pair of adjacent slices."""
    word, hits = _WORD, []
    n = len(word)
    for p in range(1, n // 2 + 1):
        for i in range(n - 2 * p + 1):
            if _is_square(word, i, p):
                hits.append((i, p))
    return len(hits)


class Speedometer:
    """Reference times on a timeline, sampled every interval while entered.

    busy_s is the total time spent taking samples; a caller subtracts the
    part that fell inside its own timed region.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.times = array("d")  # midpoint of each sample, perf_counter seconds
        self.refs = array("d")  # reference time of each sample
        self.busy_s = 0.0
        self._previous = None
        self._sampling = False

    def sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # the timer fired inside a sample taken on demand
            return
        self._sampling = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.refs.append(t1 - t0)
        self.busy_s += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> Speedometer:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start: float, end: float, around: int = 1) -> float:
        """REFERENCE_S over the mean reference time of the samples taken in
        [start, end] and of `around` samples on each side."""
        i = max(bisect_left(self.times, start) - around, 0)
        j = min(bisect_right(self.times, end) + around, len(self.times))
        if i >= j:
            raise ValueError("no speed sample near the interval")
        return REFERENCE_S * (j - i) / sum(self.refs[i:j])
