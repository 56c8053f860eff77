"""Machine speed, sampled between the operations of a run.

On a shared host the same fixed loop takes anywhere from 25 to 40 ms from
one ten-second window to the next, on either core and independently
(README.md, "Machine speed"), and every wall-clock timing of the program
moves with it.  So the run times a fixed reference kernel -- sparse LU
factorizations and solves plus interpreter work, none of it repro code --
on each core the workload runs on, before, between and after operations.
Each operation's compute time is rescaled by the samples taken around it
to the speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.

The kernel runs inside the measured process, on the same cores, between
operations.  A program change that leaves CPU work running between
operations -- a background thread, busy-polling pool workers -- slows the
kernel as well as the program, and rescaling divides that slowdown out.
So the raw values are kept next to the rescaled ones, and ``--compare``
judges both and flags a raw regression that rescaling hides.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: [unit: s] Kernel time that defines the reference speed (about this
#: machine's kernel time when the host is quiet).
REFERENCE_KERNEL_S = 0.005
#: [unit: s] Least time between two samples.
SAMPLE_EVERY_S = 0.5
#: Kernel repetitions per core and sample (the sample is their median).
REPEATS = 3


def _operator(n: int = 24) -> sp.csc_matrix:
    """A shifted 2-D Laplacian: the sparsity class of the thermal and flow
    systems."""
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(eye, line) + sp.kron(line, eye) + 0.1 * sp.identity(n * n)).tocsc()


class SpeedMonitor:
    """Samples the reference kernel on the cores a workload runs on.

    Args:
        cpus: The cores; each sample times the kernel on every one of them
            in turn and averages.
    """

    def __init__(self, cpus: Sequence[int]):
        self.cpus = sorted(cpus)
        self._matrix = _operator()
        self._rhs = np.ones(self._matrix.shape[0])
        #: (time, kernel seconds) of every sample.
        self.samples: List[Tuple[float, float]] = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            splu(self._matrix).solve(self._rhs)
        table = {}
        total = 0
        for i in range(6000):
            table[i & 63] = total
            total += (i * 7) % 5
        np.add.at(np.zeros(50), np.arange(200) % 50, 1.0)
        return time.perf_counter() - start

    def _on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return statistics.median(self._kernel() for _ in range(REPEATS))

    def sample(self) -> None:
        """Time the kernel now."""
        home = os.sched_getaffinity(0)
        kernel = statistics.mean(self._on(cpu) for cpu in self.cpus)
        os.sched_setaffinity(0, home)
        self._last = time.perf_counter()
        self.samples.append((self._last, kernel))

    def sample_if_due(self) -> None:
        """Time the kernel unless the last sample is recent."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference speed the machine ran between
        ``start`` and ``end`` (``perf_counter`` times), judged from the
        samples taken around that interval (all samples if none is near)."""
        margin = 2 * SAMPLE_EVERY_S
        near = [k for t, k in self.samples if start - margin <= t <= end + margin]
        kernels = near or [k for _, k in self.samples]
        return statistics.median(kernels) / REFERENCE_KERNEL_S
