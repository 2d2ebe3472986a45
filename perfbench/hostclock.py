"""Wall time corrected for the host's speed at the moment of measurement.

On a shared host the same work can take 1x, 1.5x or 2x as long depending
on what else runs on the machine, and the speed switches every few
seconds: identical 3 s fits measured 2.0 to 3.9 s back to back. A median
over one run cannot hide that, because whole runs land in slow stretches.

`HostClock` samples the host's speed while the benchmark runs: every
INTERVAL_S a SIGALRM handler times a small fixed reference job (the same
kinds of work softgp spends its time on, but none of softgp's code, so no
change to softgp moves it). `corrected(t0, t1)` scales the wall time of
an interval by REFERENCE_S over the median reference time sampled around
it, and leaves out the time the samples themselves took. The result reads
as the wall seconds the work would take on a host where the reference job
runs in REFERENCE_S, about its duration on the 2-core Xeon host this was
built on in its fastest state. On identical fits the correction cut the
coefficient of variation from about 20% to 6-9%.

The handler draws no random numbers and touches no softgp state, so
sampling cannot change what the benchmark computes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

import numpy as np

INTERVAL_S = 0.03
REFERENCE_S = 150e-6
WINDOW_S = 0.25  # reference samples this close to an interval describe it
MIN_SAMPLES = 9

_ROW = np.arange(140.0)


def reference_job() -> float:
    """Run the fixed reference job once; returns its duration.

    Dict and tuple churn plus numpy operations on 140-element rows, the
    mix of softgp's evaluation at training rows. Adding tree walks and
    numpy over 20k floats to it tracked host speed worse across runs.
    """
    t0 = time.perf_counter()
    d = {}
    for i in range(600):
        d[i] = (i, i * 0.5)
    a = _ROW
    for _ in range(45):
        a = np.maximum(a * 0.5, 1.0)
    return time.perf_counter() - t0


class HostClock:
    """Context manager that samples host speed until it exits."""

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        self.durations.append(reference_job())
        self.starts.append(start)

    def __enter__(self) -> "HostClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def corrected(self, t0: float, t1: float) -> float:
        """Host-speed-corrected seconds of the wall interval [t0, t1]."""
        starts, durations = self.starts, self.durations
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        inside = sum(durations[lo:hi])
        near_lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        near_hi = bisect.bisect_right(starts, t1 + WINDOW_S)
        if near_hi - near_lo < MIN_SAMPLES:
            mid = bisect.bisect_left(starts, (t0 + t1) / 2)
            near_lo = max(0, mid - MIN_SAMPLES // 2)
            near_hi = min(len(starts), near_lo + MIN_SAMPLES)
        speed = statistics.median(durations[near_lo:near_hi])
        return max(t1 - t0 - inside, 0.0) * REFERENCE_S / speed
