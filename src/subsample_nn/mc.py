"""Monte-Carlo approximate matrix multiplication.

Two unbiased estimators of A @ B over the shared dimension n:

* with-replacement column/row sampling (c draws, probabilities proportional
  to the product of column and row norms, scale 1/(c p_j) per draw), and
* Bernoulli diagonal sampling (independent keep decisions with sum(p) = k,
  scale 1/p_i per kept index), with clipped probabilities redistributed by
  waterfilling so the budget is spent exactly.

A sampled product adds 2 * m * (#sampled) * p to the FLOP counter; probability
construction costs are counted by the norm helpers it calls. Both return the
estimate and a SamplePlan holding the indices the product used and the FLOPs
it charged, the one definition of a sampled product's cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError
from .linalg import FLOPS, as_matrix, col_norms, rng_choice_weighted, row_norms


@dataclass
class SamplePlan:
    """The shared-dimension indices one sampled product used, and the FLOPs
    it charged."""

    indices: np.ndarray
    flops: int


def _check_pair(a, b):
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"shared dimension mismatch: {a.shape} x {b.shape}")
    return a, b


def _norm_products(a, b):
    return col_norms(a) * row_norms(b)


def optimal_probs_cr(a, b) -> np.ndarray:
    """Error-minimizing distribution for with-replacement sampling."""
    a, b = _check_pair(a, b)
    w = _norm_products(a, b)
    total = w.sum()
    if not total > 0:
        raise DegenerateInputError("all column/row norm products are zero")
    return w / total


def approx_matmul_cr(a, b, c_samples, rng, probs=None):
    """CR estimate of A @ B from c_samples with-replacement draws."""
    a, b = _check_pair(a, b)
    if c_samples < 1:
        raise ParameterError("c_samples must be at least 1")
    if probs is None:
        probs = optimal_probs_cr(a, b)
    probs = np.asarray(probs, dtype=np.float64)
    indices = rng_choice_weighted(rng, probs, size=c_samples)
    # each drawn rank-1 term is weighted by 1/(c p_j), split as 1/sqrt(c p_j)
    # onto the column and row factors
    factor = 1.0 / np.sqrt(c_samples * probs[indices])
    left = a[:, indices] * factor
    right = b[indices, :] * factor[:, None]
    plan = SamplePlan(indices, 2 * a.shape[0] * c_samples * b.shape[1])
    FLOPS.add(plan.flops)
    return left @ right, plan


def optimal_probs_bernoulli(a, b, k) -> np.ndarray:
    """Clipped error-minimizing keep probabilities with sum(p) = k.

    min(k w_i / sum w, 1) alone under-spends the budget whenever clipping
    occurs; waterfilling pins clipped entries at 1 and re-solves on the rest,
    which is optimal for the separable objective sum (1-p)/p * w_i^2.
    """
    a, b = _check_pair(a, b)
    n = a.shape[1]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    w = _norm_products(a, b)
    probs = np.zeros(n)
    free = np.flatnonzero(w > 0)
    wf = w[free]  # the weights of the free indices, in index order
    budget = float(min(k, free.size))
    while budget > 0 and free.size:
        trial = budget * wf / wf.sum()
        clipped = trial >= 1.0
        if not clipped.any():
            probs[free] = trial
            break
        probs[free[clipped]] = 1.0
        budget -= int(clipped.sum())
        free, wf = free[~clipped], wf[~clipped]
    return probs


def bernoulli_error(a, b, probs) -> float:
    """Analytic expected squared Frobenius error for given keep probabilities."""
    a, b = _check_pair(a, b)
    w2 = _norm_products(a, b) ** 2
    probs = np.asarray(probs, dtype=np.float64)
    mask = w2 > 0
    if (probs[mask] <= 0).any():
        raise ParameterError("zero keep probability on an index with nonzero mass")
    return float(((1.0 - probs[mask]) / probs[mask] * w2[mask]).sum())


def approx_matmul_bernoulli(a, b, k, rng, probs=None, out=None):
    """Unbiased Bernoulli-sampled estimate of A @ B, written into out when
    given; returns (estimate, plan)."""
    a, b = _check_pair(a, b)
    if probs is None:
        probs = optimal_probs_bernoulli(a, b, k)
    probs = np.asarray(probs, dtype=np.float64)
    draws = rng.random(probs.shape[0])
    kept = np.flatnonzero(draws < probs)
    scales = 1.0 / probs[kept]
    plan = SamplePlan(kept, 2 * a.shape[0] * kept.size * b.shape[1])
    FLOPS.add(plan.flops)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    if kept.size:
        np.matmul(a[:, kept] * scales, b[kept, :], out=out)
    else:
        out[...] = 0.0
    return out, plan
