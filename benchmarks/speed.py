"""Machine-speed calibration.

On a shared machine the speed of one core drifts by +-25% over tens of
seconds, which moves every timing with it.  The benchmark therefore times a
fixed pure-Python kernel (integer, dict and Fraction work, the interpreter
operations the exact engine is made of) next to the ops and reports each
time scaled to a reference speed:

    reported = measured * REFERENCE_S / kernel_time

so a reported millisecond is a millisecond on a machine where the kernel
takes REFERENCE_S.  The kernel never touches alequot, so a change to the
program moves the reported times exactly as it moves the measured ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 2.5e-3
REPS = 3           # the kernel time is the fastest of this many runs
STALE_AFTER_S = 0.2  # recalibrate when the last calibration is older than this


def kernel():
    acc = 0
    table = {}
    for i in range(20000):
        acc += (i * 7919) % 104729
        table[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    return acc, total


def kernel_time() -> float:
    best = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


class Speedometer:
    """The current slowdown factor kernel_time / REFERENCE_S, recalibrated
    whenever it is older than STALE_AFTER_S of wall time."""

    def __init__(self):
        self._measured_at = float("-inf")
        self._factor = 1.0
        self.samples: list[float] = []

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._measured_at >= STALE_AFTER_S:
            self._factor = kernel_time() / REFERENCE_S
            self.samples.append(self._factor)
            self._measured_at = time.perf_counter()
        return self._factor
