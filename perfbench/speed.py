"""Host-speed sampling, so that a pass time can be rescaled to one CPU speed.

The benchmark runs on small virtual machines that share their cores with
other tenants.  The same pass can take 1.5 to 2 times longer while a
neighbour is busy, in phases that last from seconds to minutes, so raw wall
times of identical code spread by 20-50% from run to run.

While a pass runs, a timer interrupts it every ``PERIOD_S`` seconds and
times a tiny fixed reference kernel (twice; the first call only warms the
caches).  Host contention slows interpreter-bound and memory-bound code by
different factors, so each workload names the kernel whose mix of work is
closest to its own.  The stretch of work between two samples is charged at the speed
the samples around it saw, and the time spent in the samples is left out::

    scaled = sum(dt_i * REF_S / ref_i)

The result reads as the seconds the pass would take on a host where the
reference kernel takes ``REF_S`` seconds.  The kernel lives here, outside
the library, so a change to stokeslab cannot change it.

This module imports nothing heavy at load time: the set-up probe loads it
into a fresh interpreter before it times ``import stokeslab.cli``.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PERIOD_S = 0.01
# median over this many neighbouring samples, so that one sample hit by an
# interrupt does not rescale the work around it
SMOOTH = 5


def python_kernel() -> float:
    """Interpreter-bound work: the set-up probe's reference, before numpy."""
    x, seen = 0.0, {}
    for i in range(400):
        x += i * 0.5
        seen[i & 63] = x
    return x


_ARRAYS = {}


def _arrays() -> dict:
    if not _ARRAYS:
        import numpy as np
        rng = np.random.default_rng(0)
        _ARRAYS.update(vec=np.arange(2048.0), mat=np.arange(128 * 128.0).reshape(128, 128),
                       keys=rng.standard_normal(4096), big=rng.standard_normal(32768),
                       index=rng.integers(0, 4096, 8192))
    return _ARRAYS


def small_kernel() -> float:
    """Interpreter work plus many tiny numpy calls on rows and strided
    columns: the mix of the Jacobi eigen loop.  Needs numpy imported."""
    a = _arrays()
    x = python_kernel()
    for _ in range(20):
        y = a["vec"][::3].copy()
        y *= 0.5
        x += float(y[5])
    for j in range(0, 128, 8):
        col = a["mat"][:, j].copy()
        col *= 0.5
        x += float(col[3])
    return x


def bulk_kernel() -> float:
    """Interpreter work plus a sort, a streaming update and a scatter-add on
    arrays of some 10-250 KB: the mix of assembly, triplet canonicalisation
    and sparse factorisation.  Needs numpy imported."""
    import numpy as np
    a = _arrays()
    x = python_kernel()
    x += float(np.sort(a["keys"])[0])
    x += float((a["big"] * 0.5 + 1.0)[0])
    x += float(np.bincount(a["index"], minlength=4096)[0])
    return x


# Reference time of each kernel, roughly its time in the fast phases of the
# 2-vCPU Intel Xeon virtual machine the benchmark was written on.  Only the
# scale of the reported seconds depends on it.
KERNELS = {"python": (python_kernel, 35e-6), "small": (small_kernel, 90e-6),
           "bulk": (bulk_kernel, 100e-6)}


class SpeedSampler:
    """Samples the reference kernel's time while code runs under ``running``."""

    def __init__(self, kernel: str):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.samples = []  # (handler start, handler end, kernel seconds)

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.samples.append((t0, t2, t2 - t1))

    @contextmanager
    def running(self):
        """Sample every PERIOD_S seconds, and once just before and just
        after, so that every instant inside lies between two samples."""
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                yield self
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()
        finally:
            signal.signal(signal.SIGALRM, old)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end] would take at the reference speed,
        without the time spent in samples."""
        import statistics  # not at load time: the set-up probe times imports
        self.samples.sort()  # a sample can interrupt a slow one
        speed = [self.ref_s / s[2] for s in self.samples]
        half = SMOOTH // 2
        smooth = [statistics.median(speed[max(0, i - half):i + half + 1])
                  for i in range(len(speed))]
        total = 0.0
        for i in range(len(self.samples) - 1):
            lo = max(self.samples[i][1], start)
            hi = min(self.samples[i + 1][0], end)
            if hi > lo:
                total += (hi - lo) * 0.5 * (smooth[i] + smooth[i + 1])
        return total

    def sampled_s(self, start: float, end: float) -> float:
        """Seconds inside [start, end] spent in samples."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b, _ in self.samples)
