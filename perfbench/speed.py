"""Machine-speed probe for a shared, noisy host.

On a host shared with other machines the same item can take twice as long
from one ten-second stretch to the next, and a whole run can fall into a
slow stretch, so medians within a run do not make runs agree. The benchmark
therefore times this fixed kernel (interpreter, dict and float work, then
FFT and sort on a 32768-element array; about 10 ms) next to every measured
interval and reports the interval scaled by REFERENCE_S / kernel time: the
interval expressed at the host speed at which the kernel takes REFERENCE_S.
The kernel belongs to the benchmark, not to the library, so a change to
the library cannot move it.
"""

import math
import time

import numpy as np

REFERENCE_S = 0.010

_X = np.random.default_rng(0).random(1 << 15)
_D = {i: float(i) for i in range(2000)}


def _kernel() -> float:
    s = 0.0
    for i in range(40_000):
        s += _D[i % 2000] * 1.0000001 + math.sqrt(i)
    for _ in range(8):
        s += float(np.abs(np.fft.rfft(_X)[:10]).sum())
        s += float(np.sort(_X)[5])
    return s


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """An interval measured between two probes, at reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
