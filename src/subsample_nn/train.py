"""Training loop tying the engine, policies, and metrics together.

Batch size 1 is plain stochastic descent; larger batches switch the per-step
products to matrix-matrix form. Wall time and FLOPs are tracked per phase;
FLOPs are the hardware-independent numbers, wall seconds are informational.
"""

from __future__ import annotations

import time

import numpy as np

from .analysis import (ConfusionMatrix, TrainReport, confusion, label_concentration,
                       predict)
from .data import Split
from .errors import ParameterError
from .linalg import FLOPS, stream
from .nn import MlpModel, Optimizer, step
from .policies import ComputePolicy


def evaluate_accuracy(model, dataset) -> float:
    """Accuracy of the exact network; policies only change training."""
    if len(dataset) == 0:
        return 0.0
    return float((predict(model, dataset.features) == dataset.labels).mean())


def train(model: MlpModel, split: Split, policy: ComputePolicy,
          optimizer: Optimizer, epochs: int, batch_size: int, seed: int) -> TrainReport:
    if batch_size < 1:
        raise ParameterError("batch_size must be at least 1")
    if epochs < 0:
        raise ParameterError("epochs must be non-negative")

    policy.bind(model, seed)
    run_start = time.perf_counter()
    flops_start = FLOPS.value()

    t_forward = t_backward = t_policy = 0.0
    f_forward = f_backward = 0
    overhead_mark = policy.overhead_flops

    def overhead_delta():
        nonlocal overhead_mark
        now = policy.overhead_flops
        delta = now - overhead_mark
        overhead_mark = now
        return delta

    val_accuracy = [evaluate_accuracy(model, split.validation)]
    features = split.train.features
    labels = split.train.labels
    n_train = len(split.train)
    samples_seen = 0

    for epoch in range(1, epochs + 1):
        order = stream(seed ^ epoch, "shuffle").permutation(n_train)
        for lo in range(0, n_train, batch_size):
            idx = order[lo : lo + batch_size]
            xb, yb = features[idx], labels[idx]

            t0 = time.perf_counter()
            mark = FLOPS.value()
            trace = policy.forward(model, xb)
            t_forward += time.perf_counter() - t0
            f_forward += FLOPS.value() - mark - overhead_delta()

            t0 = time.perf_counter()
            mark = FLOPS.value()
            grads = policy.backward(model, trace, yb)
            t_backward += time.perf_counter() - t0
            f_backward += FLOPS.value() - mark - overhead_delta()

            step(optimizer, model, grads)

            samples_seen += idx.size
            t0 = time.perf_counter()
            policy.on_samples_seen(model, samples_seen)
            t_policy += time.perf_counter() - t0
            overhead_delta()
        val_accuracy.append(evaluate_accuracy(model, split.validation))

    if len(split.test):
        cm = confusion(model, split.test)
    else:
        n = split.train.n_classes
        cm = ConfusionMatrix(np.zeros((n, n), dtype=np.int64))
    distinct, _ = label_concentration(cm)

    total_seconds = time.perf_counter() - run_start
    total_flops = FLOPS.value() - flops_start
    f_overhead = policy.overhead_flops

    return TrainReport(
        policy=policy.describe(),
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        val_accuracy=val_accuracy,
        test_accuracy=cm.accuracy,
        phase_seconds={"feedforward": t_forward, "backprop": t_backward,
                       "policy_overhead": t_policy},
        phase_flops={"feedforward": f_forward, "backprop": f_backward,
                     "policy_overhead": f_overhead},
        total_seconds=total_seconds,
        total_flops=total_flops,
        confusion=cm.counts.tolist(),
        label_histogram=cm.predicted_histogram().tolist(),
        distinct_predicted_labels=distinct,
        active_set_fraction=policy.mean_active_fraction,
        fallback_events=policy.fallback_events,
        rebuilds=getattr(policy, "rebuild_count", 0),
        sampled_product_flops=policy.sampled_product_flops,
        replaced_exact_flops=policy.replaced_exact_flops,
    )
