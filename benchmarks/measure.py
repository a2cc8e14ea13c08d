"""Statistics the benchmark computes itself, independent of crcmlab's own
estimators, so that a change to the program cannot move the yardstick."""
from __future__ import annotations

import math
import time

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def iact(x) -> float:
    """Integrated autocorrelation time by Geyer's initial monotone sequence
    (Statistical Science 7, 1992), floored at 1."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (n * var)
    total = 0.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    return max(1.0, 2.0 * total - 1.0)


def ess(x) -> float:
    return np.asarray(x).size / iact(x)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it; (100, max) when there are too few samples."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        return 100.0, 0.0
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(xs, p))
    return 100.0, float(xs[-1])


def calibration_kernel() -> int:
    """Fixed work in the mix crcmlab's hot paths have: interpreter-bound
    dict and integer operations, small numpy ufunc calls and a small batched
    float32 matmul.  Its time tracks how fast the host runs this process."""
    d: dict[int, int] = {}
    s = 0
    for i in range(2000):
        k = i & 63
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    m = np.ones((8, 24, 24), dtype=np.float32)
    for _ in range(4):
        m = np.minimum(np.matmul(m, m), 1.0)
    return s


class HostClock:
    """Scales wall times to a reference host speed.

    The host's speed drifts by 20-30% over seconds to minutes (other tenants
    on the machine; CPU time tracks wall time, so it is not this process
    waiting).  Between timed steps the calibration kernel runs, outside the
    measured time; a time t is reported as t * (REF_S / c) ** BETA, where c is
    the median kernel time over the samples taken and REF_S the kernel's
    median on the reference machine.  The workloads follow the host less
    than the small kernel does; BETA is the exponent that gave the smallest
    run-to-run spread over nine sets of 5 to 10 runs of the four workloads
    (0.5 to 1 tried).  Program changes do not move the kernel, so they show
    in full.
    """

    REF_S = 0.55e-3  # median calibration_kernel time on the reference 2-vCPU Xeon
    BETA = 0.7

    def __init__(self):
        self.samples: list[float] = []
        calibration_kernel()  # the first call in a process runs slow

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            t = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - t)

    def median_s(self) -> float:
        return float(np.median(self.samples))

    def scale(self) -> float:
        return (self.REF_S / self.median_s()) ** self.BETA
