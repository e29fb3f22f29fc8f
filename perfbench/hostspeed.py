"""Host speed: a fixed calibration slice timed between operations.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent, in phases from seconds to minutes long, so wall seconds of two
runs of the same code differ by more than a change worth measuring.  A
run times one slice before every operation, and a few around every
setup probe; the slices sample the host's speed over the same minutes
as the program, and ``HostSpeed.scale`` converts measured seconds to
seconds on a host where one slice takes ``REFERENCE_S``.

The slice is dense solves through NumPy, never monosee, so a change to
the program does not move it: a faster program gives a smaller scaled
time, a slower host does not.  Of the kernels tried against the four
workloads' operation times on a 2-vCPU KVM guest (an interpreted float
loop, 8x8 and 64x64 solves, reductions over 4000x16 paths, ``quad`` of
a Python integrand, 2 MB allocations), the solves tracked them best:
over windows of 20 operations they left 1-4% of a 10-22% drift, the
loop and ``quad`` 5-9%, the memory-bound kernels 6-13%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean slice seconds on a quiet 2-vCPU Xeon KVM guest (NumPy with
# OpenBLAS on one thread); any fixed value would do, this one keeps
# scaled seconds close to measured ones
REFERENCE_S = 0.008

_RNG = np.random.default_rng(20070326)
_A8 = _RNG.standard_normal((8, 8)) + 8.0 * np.eye(8)
_B8 = _RNG.standard_normal(8)
_A64 = _RNG.standard_normal((64, 64)) + 64.0 * np.eye(64)
_B64 = _RNG.standard_normal(64)


def _slice() -> float:
    """The calibration work: the program's small (n=8) and large (64
    modes) Galerkin solve sizes, about half the slice each."""
    acc = 0.0
    for _ in range(500):
        acc += float(np.linalg.solve(_A8, _B8)[0])
    for _ in range(100):
        acc += float(np.linalg.solve(_A64, _B64)[0])
    return acc


class HostSpeed:
    """Slice timings of one run and the scale they give."""

    def __init__(self):
        _slice()             # first call pays NumPy's lazy set-up
        self.samples = []

    def sample(self) -> float:
        start = time.perf_counter()
        _slice()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @property
    def slice_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self, seconds: float, samples=None) -> float:
        """``seconds`` measured on this host, at reference speed, by the
        mean of ``samples`` (default: every slice of the run)."""
        return seconds * REFERENCE_S / statistics.fmean(
            samples or self.samples)
