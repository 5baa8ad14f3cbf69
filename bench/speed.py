"""The machine's speed, sampled while a pass runs, for scaling its times.

The 2-vCPU VM this benchmark was tuned on changes speed by up to half from
one minute to the next, for every program alike (see README).  A `Speed` used as a context
manager times a fixed stdlib-only loop every CALIB_INTERVAL_S of wall time,
from a SIGALRM handler, so the samples cover long operations too.  A pass
takes the loops' time out of its own measurements (`spent`) and divides its
times by `slowness()`, the mean loop time over CALIB_REF_S.  The load stays
one process with no threads: the handler runs in the main thread between
bytecodes.  Import times are scaled by `calibration_module()` instead.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

# Mean time of one calibration loop at the reference speed, which is this
# VM's faster state.
CALIB_REF_S = 0.0025
CALIB_INTERVAL_S = 0.1
LOCAL_S = 0.5
_BIG = 3**60


# Time to run the body of `calibration_module()` (unmarshal and exec) at the
# reference speed.  Imports slow down more than the hot loop above in some of
# this VM's slow phases, so import times are scaled by this import-like work.
MODULE_REF_S = 0.0155


def calibration_module() -> str:
    """Source of a fixed synthetic module: many small functions and classes."""
    functions = (
        f"def f{i}(a, b={i}):\n    x = a * b + {i}\n    return [x, str(x), (a, b)]\n" for i in range(6000)
    )
    classes = (
        f"class C{i}:\n    k = {i}\n    def m(self, v):\n        return v + {i}\n"
        f"    def n(self):\n        return self.k\n"
        for i in range(1200)
    )
    return "".join(functions) + "".join(classes)


def _step(a: int, b: int) -> tuple[int, int]:
    return (a * b) % 65_521, a + b


def calibration_loop() -> int:
    """About 4 ms of fixed work: multiply-mod, isqrt, modular powers and calls."""
    acc = 0
    for i in range(1_500):
        acc = (acc * 1_000_003 + i) % 998_244_353
        acc ^= math.isqrt(_BIG + i * 1_000_003) % (i + 1) + pow(i, 65537, 1_000_000_007)
        x, y = _step(i, acc)
        acc = (acc + x + y) & 0xFFFFFFF
    return acc


class Speed:
    """Calibration-loop times; with `timer`, also sampled every CALIB_INTERVAL_S."""

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self, loops: int = 1) -> None:
        for _ in range(loops):
            t0 = perf_counter()
            calibration_loop()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.times.append(t1)
            self.spent += t1 - t0

    def __enter__(self) -> "Speed":
        self.sample(5)
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample(5)

    def calib_s(self) -> float:
        return statistics.fmean(self.samples)

    def slowness(self) -> float:
        """Measured time over time at the reference speed, for the whole pass."""
        return self.calib_s() / CALIB_REF_S

    def local_slowness(self, starts, ends) -> list[float]:
        """Slowness around each operation, from the loops within LOCAL_S of it.

        A pass's median latency follows the speed of the moments its median
        operations ran, not the pass's mean speed, so each latency is scaled
        by its own neighbourhood.  Operations must be in time order.
        """
        prefix = [0.0]
        for dt in self.samples:
            prefix.append(prefix[-1] + dt)
        times, n, overall = self.times, len(self.times), self.slowness()
        lo = hi = 0
        out = []
        for t0, t1 in zip(starts, ends):
            while lo < n and times[lo] < t0 - LOCAL_S:
                lo += 1
            while hi < n and times[hi] <= t1 + LOCAL_S:
                hi += 1
            out.append((prefix[hi] - prefix[lo]) / (hi - lo) / CALIB_REF_S if hi > lo else overall)
        return out
