"""Machine-speed calibration for the end-to-end operation times.

On a shared host the speed of one core drifts with its neighbours' load: a
reference training step took from 6.6 s to 11.9 s within six minutes on the
2-core machine the benchmark was sized on, with CPU time equal to wall time,
so the core itself ran slower. A fixed NumPy workload, which no change to
recnet can touch, is timed before every timed operation and after the last.
Each operation's time is scaled by REFERENCE_S over the mean of the two
passes around it, i.e. reported at the speed of a machine on which the
calibration pass takes REFERENCE_S seconds.
"""

import mmap
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Median calibration pass on the machine above; scaled times read close to
# wall times there.
REFERENCE_S = 0.38


class Calibration:
    """One pass mixes the kinds of work recnet does: BLAS GEMM, an einsum
    convolution, large elementwise arrays, small-array call overhead and
    first touches of freshly mapped memory. Its arrays, about 10 MB, count
    in the process's peak RSS."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4096, 288), dtype=np.float32)
        self._b = rng.standard_normal((288, 64), dtype=np.float32)
        self._x = rng.standard_normal((16, 16, 34, 34), dtype=np.float32)
        self._w = rng.standard_normal((32, 16, 3, 3), dtype=np.float32)
        self._e = rng.standard_normal(1_000_000, dtype=np.float32)
        self._small = rng.standard_normal((2, 2, 8, 8), dtype=np.float32)

    def run(self):
        """Wall time of one pass."""
        t = time.perf_counter()
        for _ in range(60):
            self._a @ self._b
        windows = sliding_window_view(self._x, (3, 3), axis=(2, 3))
        for _ in range(10):
            np.einsum("nchwuv,ocuv->nohw", windows, self._w, optimize=True)
        for _ in range(40):
            np.maximum((self._e - self._e.mean()) * 1.5, 0)
        for _ in range(12_000):
            self._small.sum()
        # Fresh pages, as recnet's large per-step arrays get, mapped 8 MB at a
        # time so the pass adds little to the process's peak RSS.
        for _ in range(12):
            with mmap.mmap(-1, 8 << 20) as region:
                pages = np.frombuffer(region, dtype=np.float32)
                pages.fill(1.0)
                pages.sum()
                del pages
        return time.perf_counter() - t
