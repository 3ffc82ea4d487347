"""Host speed: a fixed calibration kernel and the slowdown it reveals.

The host this benchmark was built on (a 2-CPU virtual machine) runs the guest
up to 2x slower for stretches of seconds to minutes, and that drift dominates
run-to-run differences. The kernel below is in the engine's own mix (small
batched complex matmul, eigh and einsum, plus Python-level work); its mean
time over CAL_REF_S, its fastest time seen on that host, is the slowdown of
the stretch of host time it was timed in, and reported seconds are divided
by it. Samples timed during the work itself (HostSampler) track the
slowdown much better than blocks timed before and after it: over ten
back-to-back ce-multiparty passes, pass seconds divided by the slowdown
spread by 0.045 (interquartile range over median) with samples taken during
each pass, and by 0.23 with blocks around it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_REF_S = 0.016
SAMPLE_INTERVAL = 0.5             # seconds between HostSampler samples
_CAL_RNG = np.random.default_rng(0)
_CAL_M = _CAL_RNG.standard_normal((64, 4, 4)) + 1j * _CAL_RNG.standard_normal((64, 4, 4))


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes."""
    start = time.perf_counter()
    for _ in range(60):
        np.linalg.eigh(_CAL_M @ np.conj(np.swapaxes(_CAL_M, -1, -2)))
        np.einsum("zab,zbc->zac", _CAL_M, _CAL_M)
        [complex(i) * 0.5 for i in range(200)]
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """Host slowdown from calibration times: their mean over CAL_REF_S."""
    return statistics.mean(samples) / CAL_REF_S


class HostSampler:
    """Times the calibration kernel every SAMPLE_INTERVAL seconds while active.

    The samples are taken from a SIGALRM handler, so they interleave with
    the work being measured and cover the same stretch of host time.
    `clock()` is `time.perf_counter()` minus the time spent in the handler,
    so that passes and spans timed with it leave the samples out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self._spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def __enter__(self) -> "HostSampler":
        calibrate()               # the first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
