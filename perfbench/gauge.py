"""Machine-speed gauge: a fixed kernel timed between a workload's operations.

The benchmark runs on a few cores of a shared host. Neighbours on the host
slow it by up to 1.6x, in phases of ten to twenty seconds, so the median
latency of a whole run mostly says how much of the run fell in slow phases.
The gauge is a fixed float64 numpy kernel that never calls the package: a
16-channel 3x3 convolution on 64x64 by shifted adds, and a 64x64 FFT. It is
timed between operations, outside their timed region, at most every
``SAMPLE_EVERY_S``. Each operation's time is multiplied by ``GAUGE_MS`` over
the median gauge time within ``HALF_WINDOW_S`` of the operation, so the
benchmark reports times of a machine on which the gauge takes ``GAUGE_MS``.
The raw times are printed beside them.

The gauge runs on one thread, also for eval-full80, whose operation keeps two
worker threads busy: run on two threads at once, the kernel measured mostly
how the threads contend, and tracked the operation's time less well.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

import checks

GAUGE_MS = 2.0  # the gauge's typical time on a 2-core Xeon share
SAMPLE_EVERY_S = 0.1
HALF_WINDOW_S = 1.0
REPEATS = 4  # the fastest of these is one sample; fewer left it 10% noisy after an eval call


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 64, 64))
        self.w = rng.standard_normal((16, 16, 3, 3))
        self.b = np.zeros(16)
        self.times: list = []  # midpoint of each sample, increasing
        self.values: list = []  # seconds
        self.last = -float("inf")

    def once(self) -> float:
        t0 = time.perf_counter()
        h = checks.conv(self.x, self.w, self.b)
        np.fft.fft2(h[0] + 1j * h[1])
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless the last sample is younger than
        ``SAMPLE_EVERY_S`` and ``force`` is not set."""
        t0 = time.perf_counter()
        if not force and t0 - self.last < SAMPLE_EVERY_S:
            return
        value = min(self.once() for _ in range(REPEATS))
        self.last = time.perf_counter()
        self.times.append((t0 + self.last) / 2)
        self.values.append(value)

    def scale(self, at: float) -> float:
        """Factor that turns a time measured around ``at`` into one of the
        nominal machine."""
        lo = bisect.bisect_left(self.times, at - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, at + HALF_WINDOW_S)
        if lo == hi:  # no sample near: the nearest one
            k = min(max(lo, 1), len(self.times)) - 1
            if k + 1 < len(self.times) and self.times[k + 1] - at < at - self.times[k]:
                k += 1
            lo, hi = k, k + 1
        return GAUGE_MS / 1e3 / statistics.median(self.values[lo:hi])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.values)
