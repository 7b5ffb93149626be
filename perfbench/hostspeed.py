"""Host-speed calibration, so that run times from different hours compare.

The benchmark shares a few cores of a host with other tenants. Their load
slows every instruction of this process (shared caches, memory bandwidth,
sibling hyperthreads) without showing as steal or as a gap between CPU time
and wall time: back-to-back identical runs of ``fcm-tw`` in one process
drifted from 3.6 s to 2.5 s per run within two minutes.

A ``HostProbe`` times a fixed piece of work that uses no foilwind code: sparse
LU factorizations and solves of a 2-D Laplacian with scipy's SuperLU (the
library behind ``foilwind.solver``), interleaved with a pure-Python loop for
the interpreter-bound part of a run. The benchmark samples it before the
first run and after every run, and scales each measured time by
``REFERENCE_S / t_probe``, with ``t_probe`` the probe time taken next to it.
The result is the time the work would have taken on the host as fast as the
one that took ``REFERENCE_S`` for a probe. A change to foilwind moves the run
time and leaves the probe alone, so it moves the scaled time in full; a
change of host speed moves both and cancels.

Over 48 ``fcm-tw`` runs (2-core x86_64 VM, shared) the median of eight
scaled run times spread over 6.9 % of its median, and that of eight raw ones
over 34 %.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REFERENCE_S = 0.25  # probe time on a quiet 2-core x86_64 host; fixes the unit only
GRID = 45  # a 45 x 45 grid: 2025 unknowns, near fcm-tw's 1892
REPEATS = 40  # about 0.25 s per sample
PY_LOOP = 20000


def laplacian_2d(m: int) -> sp.csc_matrix:
    """The 5-point Laplacian on an m x m grid."""
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()


class HostProbe:
    """Times the fixed calibration work; keeps every sample it takes."""

    def __init__(self, repeats: int = REPEATS):
        self.matrix = laplacian_2d(GRID)
        self.rhs = np.ones(self.matrix.shape[0])
        self.repeats = repeats
        self.samples: list[float] = []
        self._work()  # untimed: first calls load code and warm caches

    def _work(self) -> float:
        acc = 0.0
        for _ in range(self.repeats):
            acc += float(splu(self.matrix).solve(self.rhs)[0])
            x = 0
            for i in range(PY_LOOP):
                x += i * i
        return acc

    def sample(self) -> float:
        """Time the work once; returns the seconds it took and records them."""
        t0 = perf_counter()
        self._work()
        t = perf_counter() - t0
        self.samples.append(t)
        return t


def scaled(seconds: float, *probe_s: float) -> float:
    """``seconds`` at reference host speed, given the probe times taken around it."""
    return seconds * REFERENCE_S * len(probe_s) / sum(probe_s)
