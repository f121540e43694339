"""Training loop tying the engine, policies, and metrics together.

Batch size 1 is plain stochastic descent; larger batches switch the per-step
products to matrix-matrix form. Each call runs in a FLOPS.phase, which gets
its modeled FLOPs and wall seconds; total_flops is the sum over phases. FLOPs
are the hardware-independent numbers, wall seconds are informational. The
loop owns the run's RunCounts record, which the report extends.
"""

from __future__ import annotations

import time

from .analysis import RunCounts, TrainReport, confusion, label_concentration
from .data import Split
from .errors import ParameterError
from .linalg import FLOPS, stream
from .nn import MlpModel, Optimizer, step
from .policies import ComputePolicy


def evaluate_accuracy(model, dataset) -> float:
    """Accuracy of the exact network; policies only change training."""
    return confusion(model, dataset).accuracy


def train(model: MlpModel, split: Split, policy: ComputePolicy,
          optimizer: Optimizer, epochs: int, batch_size: int, seed: int) -> TrainReport:
    if batch_size < 1:
        raise ParameterError("batch_size must be at least 1")
    if epochs < 0:
        raise ParameterError("epochs must be non-negative")

    counts = RunCounts()
    fraction_sum, queries = 0.0, 0  # kept / width, over (sample, hidden layer) pairs
    policy.bind(model, seed, counts)
    FLOPS.take()  # bind's index build and any earlier work are setup, not training
    run_start = time.perf_counter()

    with FLOPS.phase("eval"):
        val_accuracy = [evaluate_accuracy(model, split.validation)]
    features = split.train.features
    labels = split.train.labels
    n_train = len(split.train)
    seen = range(1, 1)  # the run's sample counts, 1-based, of the step just run

    for epoch in range(1, epochs + 1):
        order = stream(seed ^ epoch, "shuffle").permutation(n_train)
        for lo in range(0, n_train, batch_size):
            idx = order[lo : lo + batch_size]
            xb, yb = features[idx], labels[idx]
            with FLOPS.phase("feedforward"):
                trace = policy.forward(model, xb)
                for keep in trace.keeps or ():
                    fraction_sum += (keep != 0).mean(axis=1).sum()
                    queries += idx.size
            with FLOPS.phase("backprop"):
                grads = policy.backward(model, trace, yb)
            with FLOPS.phase("optimizer"):
                step(optimizer, model, grads)
            del grads  # else the next backward allocates beside this step's gradients
            seen = range(seen.stop, seen.stop + idx.size)
            with FLOPS.phase("policy_overhead"):
                policy.on_samples_seen(model, seen)
        with FLOPS.phase("eval"):
            val_accuracy.append(evaluate_accuracy(model, split.validation))

    with FLOPS.phase("eval"):
        cm = confusion(model, split.test)

    total_seconds = time.perf_counter() - run_start
    phase_flops, phase_seconds = FLOPS.take()

    return TrainReport(
        policy=policy.describe(),
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        val_accuracy=val_accuracy,
        test_accuracy=cm.accuracy,
        phase_seconds=phase_seconds,
        phase_flops=phase_flops,
        total_seconds=total_seconds,
        total_flops=sum(phase_flops.values()),
        confusion=cm.counts.tolist(),
        label_histogram=cm.predicted_histogram().tolist(),
        distinct_predicted_labels=label_concentration(cm),
        active_set_fraction=fraction_sum / queries if queries else None,
        **vars(counts),
    )
