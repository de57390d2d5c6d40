"""Machine speed, sampled during a run with a fixed calibration kernel.

The machines this benchmark runs on share their cores: on the 2-vCPU sandbox
it was built on, one fixed pure-Python loop took anywhere from 260 to 464 ms a
few seconds apart, and the same workload ran 36-61 requests per second from
one run to the next.  So the kernel below (a fixed interpreter loop plus a
fixed numpy kernel, touching no pronydec code) runs every EVERY_S seconds
between requests, and each timing is scaled by REFERENCE_S over the kernel
time interpolated at that moment: timings are reported in seconds of the
reference machine.  The raw timings stay in the run's record.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: kernel seconds on the reference machine (2-vCPU sandbox, a quiet minute)
REFERENCE_S = 0.020
#: seconds between two samples
EVERY_S = 2.0

_X = np.linspace(-3.0, 3.0, 900)
_K = np.arange(256)


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for j in range(100_000):
        acc += j * j
    np.exp(1j * np.outer(_X, _K)).sum()
    return time.perf_counter() - start


class Speedometer:
    def __init__(self):
        self.times = []     # perf_counter at each sample
        self.kernel = []    # kernel seconds at each sample
        self.sample()

    def sample(self):
        """Run the kernel twice and keep the faster: one run can be preempted."""
        seconds = min(_kernel(), _kernel())
        self.times.append(time.perf_counter())
        self.kernel.append(seconds)

    def maybe_sample(self):
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel time at the middle of [start, end],
        interpolated linearly between the samples around it."""
        mid = (start + end) / 2.0
        i = bisect.bisect_left(self.times, mid)
        if i == 0:
            k = self.kernel[0]
        elif i == len(self.times):
            k = self.kernel[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            w = (mid - t0) / (t1 - t0) if t1 > t0 else 0.0
            k = self.kernel[i - 1] * (1.0 - w) + self.kernel[i] * w
        return REFERENCE_S / k
