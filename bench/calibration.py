"""Host-speed calibration: a fixed pure-Python kernel timed beside every measurement.

The benchmark host is shared, and its speed drifts by up to a third over
minutes while nothing in this process changes.  Every reported time is
therefore scaled to a reference speed:

    reported = measured * REFERENCE_S / kernel_s

where ``kernel_s`` is the time of the kernel below, run next to the work
(between operations and around each set-up launch), and ``REFERENCE_S`` is
its time on the reference machine.  When the host runs at reference speed
the factor is 1 and reported times are plain wall-clock seconds.  The kernel uses only the standard library (Fraction arithmetic,
integer sets and sorting, string formatting, the same kinds of work
floorcomm does), so no change to floorcomm can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel time on the reference machine (2 vCPUs, Intel Xeon, CPython 3.11.7) when it is quiet.
REFERENCE_S = 0.014


def kernel() -> int:
    total = 0
    for i in range(1, 2_000):
        x = Fraction(i, 2 * i + 1) * Fraction(3 * i + 1, i + 2) - Fraction(1, i)
        total += x.numerator // x.denominator
    points = sorted(set(range(0, 60_000, 3)) | set(range(0, 60_000, 7)))
    text = ",".join(f"{p}/{p % 97 + 1}" for p in points[:6_000])
    return total + len(points) + len(text)


def kernel_seconds() -> float:
    """Time of one kernel run, taken now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
