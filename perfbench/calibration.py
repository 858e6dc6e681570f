"""Machine-speed calibration for timings on a shared box.

On a small shared machine the speed of the CPU this process gets drifts by
tens of percent, in phases of seconds to minutes, so raw wall-clock medians of
two runs of the same code can differ by 30% or more. The benchmark therefore
runs a fixed piece of pure-Python work of the package's kind (frozen-dataclass
construction, float arithmetic, calls) just before and just after every timed
interval, and reports the interval rescaled to the speed at which that kernel
takes REFERENCE_KERNEL_S. A change to meridian4 does not touch the kernel, so
it moves the rescaled time exactly as it moves the raw time.
"""

import math
import time
from dataclasses import dataclass

# Typical kernel time on the 2-core Xeon the benchmark was written on.
REFERENCE_KERNEL_S = 0.010


# Frozen-dataclass construction dominates the package's own hot paths
# (Jet, Vec4), and a kernel built on it tracks their slowdowns best.
@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def kernel_seconds():
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    acc = _Pair(0.0, 1.0)
    for i in range(6000):
        x = _Pair(i * 0.5, math.sqrt(i + 1.0))
        acc = _Pair(acc.a + x.a * x.b, acc.b * 0.999 + 1e-3 * x.b)
    return time.perf_counter() - start


def rescale(elapsed, before, after):
    """An interval's seconds at reference speed, from the kernel times
    measured just before and just after it."""
    return elapsed * REFERENCE_KERNEL_S / (0.5 * (before + after))
