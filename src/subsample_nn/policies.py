"""Pluggable strategies for how each layer's matrix products are computed.

Every policy reaches nn through ComputePolicy's forward and backward, which
pass on at most one function each. A node-selecting policy (dropout, adaptive
dropout, hash-based active-node selection) defines `_layer_mask`, nn.forward's
selector, which returns a keep array, 0.0 on a dropped node and at least 1 on
a kept one: a hidden layer computes only its kept nodes, the rest are exactly
zero for the step, and gradients flow only through kept nodes. The Monte-Carlo
policy defines `_sampled_product`, nn.backward's product: the forward pass is
exact and each backprop matrix product is a Bernoulli-sampled estimate. The
output layer is always computed exactly under every policy.

FLOP accounting: nn.forward and nn.backward charge masked hidden-layer
products 2 * fan_in per kept node (skipped nodes cost nothing) and products
touching the output layer in full. Selection work (mask draws, hash probes,
the skipped share of a mask-building product, sampling-probability norms)
runs in FLOPS.phase("policy_overhead"): the base forward opens it around
every `_layer_mask` call and MC around its probabilities, so its FLOPs and
seconds go to that phase and not to the caller's.

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
from .analysis import RunCounts
from .errors import ParameterError, _number
from .linalg import FLOPS, as_matrix, stream


def _stable_sigmoid(x):
    # exp(-|x|) is at most 1, so neither branch overflows; negating x under
    # the mask rather than through -np.abs(x) keeps the sign bit of a NaN
    pos = x >= 0
    ex = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def adaptive_keep_probs(pre_activation, alpha, beta) -> np.ndarray:
    """Per-node keep probability sigmoid(alpha*z + beta), clamped to [0.01, 1]."""
    z = np.asarray(pre_activation, dtype=np.float64)
    return np.clip(_stable_sigmoid(alpha * z + beta), 0.01, 1.0)


@dataclass(eq=False)
class ComputePolicy:
    """Exact computation, and the only class that wires a policy into nn:
    forward and backward pass on `_layer_mask` and `_sampled_product`."""

    name = "exact"
    # (model, k, a_prev) -> (keep, z) for hidden layer k, as nn.forward's
    # selector; z is None when keep is chosen before the product
    _layer_mask = None
    # (k, a, b, out) -> one of layer k's backprop products, as for nn.backward
    _sampled_product = None

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _number(f"policy.{f.name}", type(f.default),
                                          getattr(self, f.name)))

    def check_hidden_widths(self, widths):
        """Raise ParameterError if the policy cannot run on hidden layers of
        these widths; called by bind and, before any data is built, by the CLI."""

    def bind(self, model: nn.MlpModel, seed: int, counts: RunCounts):
        """Attach to one training run, whose statistics go to counts."""
        self.check_hidden_widths(model.layer_dims[1:-1])
        self._rng = stream(seed, "policy", self.name)
        self._counts = counts

    def describe(self) -> dict:
        return {"kind": self.name, **{f.name: getattr(self, f.name) for f in fields(self)}}

    # -- hooks -------------------------------------------------------------

    def forward(self, model, x) -> nn.ForwardTrace:
        select = None
        if self._layer_mask is not None:
            def select(k, a):
                with FLOPS.phase("policy_overhead"):
                    return self._layer_mask(model, k, a)
        return nn.forward(model, x, select)

    def backward(self, model, trace, targets) -> nn.Gradients:
        return nn.backward(model, trace, targets, self._sampled_product)

    def on_samples_seen(self, model, seen: range):
        """After each step; seen holds the step's 1-based sample counts in the run."""


@dataclass(eq=False)
class DropoutPolicy(ComputePolicy):
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
        return mask * (1.0 / self.p_keep), None


@dataclass(eq=False)
class AdaptiveDropoutPolicy(ComputePolicy):
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
        z = a_prev @ w + b
        probs = adaptive_keep_probs(z, self.alpha, self.beta)
        mask = self._rng.random(z.shape) < probs
        FLOPS.add(2 * w.shape[0] * int((~mask).sum()) + 4 * z.size)
        return np.where(mask, 1.0 / probs, 0.0), z


@dataclass(eq=False)
class AlshPolicy(ComputePolicy):
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
        if self.indexes and any(alsh_mod.rebuild_schedule(s) for s in seen):
            self.indexes = [alsh_mod.rebuild_index(idx, model.weights[k].T)
                            for k, idx in enumerate(self.indexes)]
            self._counts.rebuilds += 1

    def _layer_mask(self, model, k, a_prev):
        keep = np.zeros((a_prev.shape[0], model.layer_dims[k + 1]))
        for row in range(a_prev.shape[0]):
            active = alsh_mod.query_active(self.indexes[k], a_prev[row])
            if active.size:
                keep[row, active] = 1.0
            else:
                self._counts.fallback_events += 1
                keep[row, :] = 1.0
        return keep, None

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

    def check_hidden_widths(self, widths):
        for width in widths:
            if self.k_samples > width:
                raise ParameterError(
                    f"k_samples={self.k_samples} exceeds hidden width {width}")

    def _sampled_product(self, k, a, b, out):
        a, b = as_matrix(a), as_matrix(b)  # once: both calls below take them as they are
        shared = a.shape[1]
        k_eff = min(self.k_samples, shared)
        with FLOPS.phase("policy_overhead"):
            probs = mc_mod.optimal_probs_bernoulli(a, b, k_eff)
        estimate, plan = mc_mod.approx_matmul_bernoulli(a, b, k_eff, self._rng, probs=probs,
                                                        out=out)
        self._counts.sampled_product_flops += plan.flops
        self._counts.replaced_exact_flops += 2 * a.shape[0] * shared * b.shape[1]
        return estimate


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
