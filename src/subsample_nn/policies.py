"""Pluggable strategies for how each layer's matrix products are computed.

Column-selection policies (dropout, adaptive dropout, hash-based active-node
selection) compute pre-activations only for a selected subset of a hidden
layer's nodes and treat the rest as exactly zero for the step; gradients flow
only through selected nodes. The Monte-Carlo policy runs the forward pass
exactly and replaces each backprop matrix product with a Bernoulli-sampled
estimate. The output layer is always computed exactly under every policy.

FLOP accounting: nn.forward and nn.backward charge masked hidden-layer
products 2 * fan_in per kept node (skipped nodes cost nothing) and products
touching the output layer in full. The policies charge only their selection
work (hash probes, the skipped share of a mask-building product,
sampling-probability norms), inside FLOPS.phase("policy_overhead"), so its
FLOPs and seconds go to that phase and not to the caller's.

A policy is a dataclass whose fields are exactly its config parameters, each
converted on construction to its default's type; it also holds its random
stream and (ALSH) its index. A run's statistics go to the RunCounts record
that train owns and passes to bind.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import alsh as alsh_mod
from . import mc as mc_mod
from . import nn
from .errors import ParameterError, _number
from .linalg import FLOPS, as_matrix, stream


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def adaptive_keep_probs(pre_activation, alpha, beta) -> np.ndarray:
    """Per-node keep probability sigmoid(alpha*z + beta), clamped to [0.01, 1]."""
    z = np.asarray(pre_activation, dtype=np.float64)
    return np.clip(_stable_sigmoid(alpha * z + beta), 0.01, 1.0)


@dataclass
class RunCounts:
    """One training run's policy statistics."""

    active_fraction_sum: float = 0.0  # per sample and hidden layer: kept / width
    active_queries: int = 0  # (sample, hidden layer) pairs behind that sum
    fallback_events: int = 0
    rebuilds: int = 0
    sampled_product_flops: int = 0
    replaced_exact_flops: int = 0


@dataclass(eq=False)
class ComputePolicy:
    """Exact computation; base class that the sampling policies override."""

    name = "exact"

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _number(f"policy.{f.name}", type(f.default),
                                          getattr(self, f.name)))

    def bind(self, model: nn.MlpModel, seed: int, counts: RunCounts):
        """Attach to one training run, whose statistics go to counts."""
        self._rng = stream(seed, "policy", self.name)
        self._counts = counts

    def describe(self) -> dict:
        return {"kind": self.name, **{f.name: getattr(self, f.name) for f in fields(self)}}

    # -- hooks -------------------------------------------------------------

    def forward(self, model, x) -> nn.ForwardTrace:
        return nn.forward(model, x)

    def backward(self, model, trace, targets) -> nn.Gradients:
        return nn.backward(model, trace, targets)

    def on_samples_seen(self, model, seen: range):
        """After each step; seen holds the step's 1-based sample counts in the run."""


class _ColumnPolicy(ComputePolicy):
    """Node selection: forward computes hidden layer k only for the nodes
    `_layer_mask` keeps; the inherited backward follows the trace's masks."""

    def _layer_mask(self, model, k, a_prev):
        """Return (mask, scale, z) for hidden layer k. z is None when the mask
        is chosen before the product, which is then computed only where kept."""
        raise NotImplementedError

    def forward(self, model, x):
        return nn.forward(model, x, lambda k, a: self._layer_mask(model, k, a))


@dataclass(eq=False)
class DropoutPolicy(_ColumnPolicy):
    """Uniform node selection with keep probability p_keep, inverted scaling
    at train time so inference needs none."""

    name = "dropout"
    p_keep: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.p_keep <= 1.0:
            raise ParameterError(f"p_keep must be in (0,1], got {self.p_keep}")

    def _layer_mask(self, model, k, a_prev):
        width = model.layer_dims[k + 1]
        mask = self._rng.random((a_prev.shape[0], width)) < self.p_keep
        return mask, 1.0 / self.p_keep, None


@dataclass(eq=False)
class AdaptiveDropoutPolicy(_ColumnPolicy):
    """Standout-style dropout: keep probabilities from the layer's own
    pre-activations (shared weights), sampled per node per sample.

    Building the mask needs the full pre-activation, so the full product is
    computed; nn.forward charges the kept share as forward work, and the
    skipped share plus the sigmoid pass are charged here as policy overhead.
    """

    name = "adaptive_dropout"
    alpha: float = 1.0
    beta: float = 0.0

    def _layer_mask(self, model, k, a_prev):
        w, b = model.weights[k], model.biases[k]
        with FLOPS.phase("policy_overhead"):
            z = a_prev @ w + b
            probs = adaptive_keep_probs(z, self.alpha, self.beta)
            mask = self._rng.random(z.shape) < probs
            FLOPS.add(2 * w.shape[0] * int((~mask).sum()) + 4 * z.size)
        scale = np.where(mask, 1.0 / probs, 1.0)
        return mask, scale, z


@dataclass(eq=False)
class AlshPolicy(_ColumnPolicy):
    """Active-node selection by asymmetric-LSH maximum inner-product search.

    One index per hidden layer over the columns of that layer's weight matrix.
    Kept activations are not rescaled (skipped contributions are modeled as
    omitted, not as a thinned expectation). An empty probe falls back to the
    exact column set for that sample and layer.
    """

    name = "alsh"
    K: int = alsh_mod.AlshParams.bits
    L: int = alsh_mod.AlshParams.tables
    m: int = alsh_mod.AlshParams.pad_terms
    C: float = alsh_mod.AlshParams.norm_bound

    def __post_init__(self):
        super().__post_init__()
        self.params = alsh_mod.AlshParams(self.K, self.L, self.m, self.C)
        self.indexes = []

    def bind(self, model, seed, counts):
        super().bind(model, seed, counts)
        self.indexes = []
        for k in range(model.n_layers - 1):
            layer_seed = int(stream(seed, "alsh-layer", k).integers(0, 2**63))
            self.indexes.append(
                alsh_mod.build_index(model.weights[k].T, self.params, layer_seed))

    def on_samples_seen(self, model, seen):
        # a batch may jump past a cadence boundary; rebuild at most once per call
        if any(alsh_mod.rebuild_schedule(s) for s in seen):
            self.indexes = [alsh_mod.rebuild_index(idx, model.weights[k].T)
                            for k, idx in enumerate(self.indexes)]
            self._counts.rebuilds += 1

    def _layer_mask(self, model, k, a_prev):
        mask = np.zeros((a_prev.shape[0], model.layer_dims[k + 1]), dtype=bool)
        with FLOPS.phase("policy_overhead"):
            for row in range(a_prev.shape[0]):
                active = alsh_mod.query_active(self.indexes[k], a_prev[row])
                if active.size:
                    mask[row, active] = True
                else:
                    self._counts.fallback_events += 1
                    mask[row, :] = True
        return mask, 1.0, None

    # prediction uses the exact network (same convention as dropout): the
    # trained weights are the deliverable, and per-sample selection noise at
    # inference would mask how concentrated the trained function really is


@dataclass(eq=False)
class McBackpropPolicy(ComputePolicy):
    """Exact forward; every backprop matrix product is Bernoulli-sampled.

    The propagated-delta product samples over the current layer's width; the
    weight-gradient product samples over the batch dimension, so with batch
    size 1 it degenerates to the exact product. Keep probabilities follow the
    clipped norm-product rule, recomputed per batch per product; the norm
    passes are charged to policy overhead.
    """

    name = "mc"
    k_samples: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.k_samples < 1:
            raise ParameterError("k_samples must be at least 1")

    def bind(self, model, seed, counts):
        for width in model.layer_dims[1:-1]:
            if self.k_samples > width:
                raise ParameterError(
                    f"k_samples={self.k_samples} exceeds hidden width {width}")
        super().bind(model, seed, counts)

    def _sampled_product(self, k, a, b, out):
        a, b = as_matrix(a), as_matrix(b)  # once: both calls below take them as they are
        shared = a.shape[1]
        k_eff = min(self.k_samples, shared)
        with FLOPS.phase("policy_overhead"):
            probs = mc_mod.optimal_probs_bernoulli(a, b, k_eff)
        estimate, plan = mc_mod.approx_matmul_bernoulli(a, b, k_eff, self._rng, probs=probs,
                                                        out=out)
        self._counts.sampled_product_flops += 2 * a.shape[0] * plan.indices.size * b.shape[1]
        self._counts.replaced_exact_flops += 2 * a.shape[0] * shared * b.shape[1]
        return estimate

    def backward(self, model, trace, targets):
        return nn.backward(model, trace, targets, self._sampled_product)


_POLICIES = {cls.name: cls for cls in (ComputePolicy, DropoutPolicy, AdaptiveDropoutPolicy,
                                       AlshPolicy, McBackpropPolicy)}


def make_policy(kind: str, **params) -> ComputePolicy:
    """Config-level factory; unknown kinds or parameters raise ParameterError."""
    if not isinstance(kind, str) or kind not in _POLICIES:
        raise ParameterError(f"unknown policy kind {kind!r}")
    cls = _POLICIES[kind]
    extra = set(params) - {f.name for f in fields(cls)}
    if extra:
        raise ParameterError(f"unknown parameters for policy {kind!r}: {sorted(extra)}")
    return cls(**params)
