"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a busy machine.  With no code
change, the machine's speed moved by up to 2x from one hour to the next
and switched between regimes about 30% apart for seconds at a time.
Thread CPU time moved with wall time, so the slowdown is contention for
the core, not time spent waiting to be scheduled, and it slows any code.
:class:`HostSpeed` times a small kernel that uses nothing from the
program, between pieces of timed work, and scales each timed piece by
the kernel's speed around it to the speed at which the kernel takes
``REFERENCE_MS``.  A change to the program cannot move the kernel, so
it moves the scaled timings as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

# A fixed constant, about half the kernel's time on the busy 2-vCPU host
# the benchmark was written on; it only sets the scale of scaled timings.
REFERENCE_MS = 5.0

_RNG = np.random.default_rng(0)
_DENSE = _RNG.standard_normal((128, 128)) / 16.0
_SPARSE = sp.random(2000, 2000, density=0.005, format="csr",
                    random_state=_RNG)
_VECTOR = np.ones(2000)
_EDGES = _RNG.integers(0, 200, size=(2, 500))
_ONES = np.ones(500)

# A timed piece of work: (when it ended, its duration), in seconds.
Timed = Tuple[float, float]


def reference_kernel() -> float:
    """Interpreter dispatch, dense products, sparse products and sparse
    matrix construction, in about equal shares.  On a busy host their
    times tracked the workloads' best; tiny elementwise numpy calls and
    ``np.add.at`` slowed about 1.6 times as much as the workloads did,
    so the kernel leaves them out."""
    total = 0
    for value in range(20000):
        total += value * value
    x = _DENSE
    for _ in range(15):
        x = np.tanh(x @ _DENSE)
    y = _VECTOR
    for _ in range(100):
        y = _SPARSE @ _VECTOR
    built = 0
    for _ in range(12):
        matrix = sp.csr_matrix((_ONES, (_EDGES[0], _EDGES[1])),
                               shape=(200, 200))
        built += matrix.tocoo().tocsr().nnz
    return float(total) + float(x.sum()) + float(y.sum()) + built


class HostSpeed:
    """Timed samples of the reference kernel, taken between pieces of
    timed work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], float] = reference_kernel):
        self.clock, self.kernel = clock, kernel
        self.ends: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        start = self.clock()
        self.kernel()
        end = self.clock()
        self.ends.append(end)
        self.samples.append(end - start)

    @property
    def reference_ms(self) -> float:
        """Median time of one kernel call, in ms."""
        return statistics.median(self.samples) * 1e3

    def factor_at(self, when: float) -> float:
        """Reference speed over the host's speed at ``when`` (below 1 on
        a slow host), from the samples just before and just after it."""
        after = bisect.bisect_left(self.ends, when)
        around = self.samples[max(after - 1, 0):after + 1]
        return REFERENCE_MS / (statistics.fmean(around) * 1e3)

    def scale(self, timed: Sequence[Timed]) -> List[float]:
        """The durations of ``timed`` at the reference speed."""
        return [seconds * self.factor_at(end) for end, seconds in timed]


def durations(timed: Sequence[Timed]) -> List[float]:
    """The durations of ``timed`` as measured."""
    return [seconds for _, seconds in timed]
