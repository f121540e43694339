"""Dense float64 linear algebra with FLOP accounting, plus splittable RNG streams.

Matrices are plain numpy arrays (row-major float64); vectors are 1-D arrays.
Column access through ``m.T`` is a view, so per-column work never copies the
matrix. Every product routed through this module adds its modeled scalar cost
(2 multiply-adds per inner-product term) to the process-wide ``FLOPS`` meter,
which charges it, with the wall seconds, to the innermost open phase; modeled
FLOPs are the hardware-independent efficiency metric reported everywhere else.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NumericError, ParameterError


class FlopCounter:
    """Modeled floating-point operations and wall seconds, charged to phases.

    Inside ``with FLOPS.phase(name)`` each ``add`` and each second goes to the
    innermost open phase only; with no phase open nothing is recorded. The
    open phases are one stack per process: meter one run at a time.
    """

    def __init__(self):
        self._open = []
        self._flops = {}
        self._seconds = {}
        self._mark = time.perf_counter()

    def add(self, n):
        if n < 0:
            raise ParameterError("flop increment must be non-negative")
        if self._open:
            self._flops[self._open[-1]] += int(n)

    def _switch(self):
        """Charge the seconds since the last switch to the innermost phase."""
        now = time.perf_counter()
        if self._open:
            self._seconds[self._open[-1]] += now - self._mark
        self._mark = now

    @contextmanager
    def phase(self, name: str):
        self._switch()
        self._flops.setdefault(name, 0)
        self._seconds.setdefault(name, 0.0)
        self._open.append(name)
        try:
            yield
        finally:
            self._switch()
            self._open.pop()

    def take(self) -> tuple[dict, dict]:
        """(flops, seconds) by phase since the last take; resets both."""
        self._switch()
        taken = self._flops, self._seconds
        self._flops = dict.fromkeys(self._open, 0)
        self._seconds = dict.fromkeys(self._open, 0.0)
        return taken


#: Process-wide meter; the only shared mutable global in the package.
FLOPS = FlopCounter()


def as_matrix(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def as_vector(x) -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D array, got ndim={v.ndim}")
    return v


def require_finite(arr: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains NaN or Inf")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product; counts 2*m*n*p scalar operations."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ ({a.shape} x {b.shape})")
    FLOPS.add(2 * a.shape[0] * a.shape[1] * b.shape[1])
    return require_finite(_product(a, b), "matmul result")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, uncounted. An inner dimension of 1 (a batch-1 weight gradient)
    is an outer product, which einsum computes in about a third of the GEMM's
    time; adding 0.0 turns its -0.0 entries into the GEMM's +0.0."""
    if a.shape[1] != 1:
        return a @ b
    r = np.einsum("i,j->ij", a[:, 0], b[0])
    r += 0.0
    return r


def col_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column; counts 2 ops per entry."""
    m = as_matrix(m)
    FLOPS.add(2 * m.size)
    return np.sqrt(np.einsum("ij,ij->j", m, m))


def row_norms(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    FLOPS.add(2 * m.size)
    return np.sqrt(np.einsum("ij,ij->i", m, m))


# ---------------------------------------------------------------------------
# Deterministic random streams.
#
# Philox is counter-based, so derived streams are independent and the same
# (seed, path) pair reproduces the same values on any platform. Stream paths
# mix in strings/ints via crc32, which is stable across processes (unlike
# Python's hash()).
# ---------------------------------------------------------------------------


def _path_key(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf-8"))


def stream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path); identical inputs, identical stream."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_path_key(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def rng_choice_weighted(rng: np.random.Generator, weights, size=None):
    """Indices drawn with replacement proportionally to non-negative weights."""
    w = as_vector(weights)
    if (w < 0).any():
        raise ParameterError("weights must be non-negative")
    total = w.sum()
    if not total > 0:
        raise ParameterError("weights must not all be zero")
    return rng.choice(w.shape[0], size=size, replace=True, p=w / total)
