"""Machine-speed sampling while the program runs.

The shared 2-vCPU box this benchmark was defined on changes speed by up to
2.5x within seconds as neighbours load it, so one pass's wall time says as
much about the neighbours as about the program.  While a pass runs, a
wall-clock timer signal interrupts it every INTERVAL_S and times a short
fixed kernel made of the small numpy operations the LM solver and the EM
learner spend their time in, plus interpreter arithmetic.  The pass's wall
time, less the time spent sampling, times its mean sampled speed relative
to REFERENCE_S, is how long the pass would have taken at the reference
speed.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# About the kernel's time on the 2-vCPU Xeon the benchmark was defined on.
# It sets the scale of the normalized figures and nothing else.
REFERENCE_S = 0.0011

_J = np.linspace(-1.0, 1.0, 48 * 9).reshape(48, 9)
_R = np.cos(np.arange(48.0))
_EYE = np.eye(9)
_A = np.linspace(-1.0, 1.0, 9).reshape(3, 3) + 2.0 * np.eye(3)
_BASIS = np.linspace(0.5, 1.5, 2 * 14 * 3).reshape(2, 14, 3)


def kernel() -> float:
    """One LM-like normal-equation solve, one EM-like posterior (einsum,
    inverse, log-determinant), a 3x3 SVD and some float arithmetic, 25 times."""
    total = 0.0
    for k in range(25):
        H = _J.T @ _J + (1e-3 * (k + 1)) * _EYE
        dx = np.linalg.solve(H, -(_J.T @ _R))
        total += float(dx @ dx)
        M = np.einsum("ij,nvj->vin", _A, _BASIS).reshape(42, 2)
        S = np.linalg.inv(np.eye(2) + M.T @ M)
        total += float(np.linalg.slogdet(S)[1])
        total += float(np.linalg.svd(_A + k, compute_uv=False)[0])
        for v in range(40):
            total += (v * 0.5) ** 0.5
    return total


class SpeedSampler:
    """Context manager: samples the kernel's time on SIGALRM while active.

    After exit, `wall_s` is the wall time of the block, `spent_s` the part
    spent sampling, and `reference_s()` the block's own work expressed as
    seconds at the reference speed.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.spent_s = 0.0
        self.wall_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self):
        kernel()  # warm, so the first sample is not a cold call
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval: sample right after
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        return False

    @property
    def busy_s(self) -> float:
        return self.wall_s - self.spent_s

    def speed(self) -> float:
        """Mean speed over the block, relative to the reference machine."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    def reference_s(self) -> float:
        return self.busy_s * self.speed()
