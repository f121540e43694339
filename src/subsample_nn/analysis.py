"""Executable verification of the error-propagation theory, plus run metrics.

The error analysis works on purely linear networks: it reads a model's
weights and biases as the theorem's linear maps x -> x @ W[k] + b[k], with no
activation between them (nn's ReLU never runs here). Layer k's active inputs
are a boolean keep mask M[k] with the shape of W[k], (fan_in, fan_out): entry
(i, j) is True where input i of node j is active. The masked chain drops the
terms outside the mask, and its activation error e obeys the recursion

    abar[k] = abar[k-1] @ where(M[k], W[k], 0) + b[k]
    e[k] = e[k-1] @ W[k] + abar[k-1] @ where(M[k], 0, W[k])

with abar[0] = x and e[0] = 0. When every node's active contribution is
exactly c times its inactive contribution, the exact and masked activations
satisfy a[k] = abar[k] * ((c+1)/c)^k, so the error-to-estimate ratio grows as
((c+1)/c)^k - 1: exponentially in depth.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import stream
from .nn import MlpModel, _as_batch, forward

PREDICT_ROWS = 256  # rows per forward in predict: bounds its activations' memory


# ---------------------------------------------------------------------------
# Linear-network error profiles.
# ---------------------------------------------------------------------------


@dataclass
class LayerErrorProfile:
    exact: list[np.ndarray]  # a^k per layer
    approx: list[np.ndarray]  # abar^k per layer
    direct: list[np.ndarray]  # e^k = a^k - abar^k
    recursion: list[np.ndarray]  # e^k rebuilt from the recursion

    def ratios(self, k):
        """Per-node error-to-estimate ratios for layer k (1-based)."""
        return self.direct[k - 1] / self.approx[k - 1]


def lemma1_error(model: MlpModel, x, active_sets) -> LayerErrorProfile:
    """Measure masked-forward errors and re-derive them through the recursion.

    model.weights and model.biases are read as the linear maps of the chain;
    active_sets[k-1] is layer k's keep mask. Biases are included in both
    chains; they cancel in the error.
    """
    if len(active_sets) != model.n_layers:
        raise ParameterError("need one keep mask per layer")
    a = abar = np.asarray(x, dtype=np.float64)
    e = np.zeros_like(a)
    exact, approx, recursion = [], [], []
    for w, b, mask in zip(model.weights, model.biases, active_sets):
        if np.shape(mask) != w.shape:
            raise DimensionError(f"keep mask shape {np.shape(mask)} != weight shape {w.shape}")
        e = e @ w + abar @ np.where(mask, 0.0, w)
        a = a @ w + b
        abar = abar @ np.where(mask, w, 0.0) + b
        exact.append(a)
        approx.append(abar)
        recursion.append(e)
    direct = [a_k - abar_k for a_k, abar_k in zip(exact, approx)]
    return LayerErrorProfile(exact, approx, direct, recursion)


def random_active_sets(model: MlpModel, seed, keep_fraction=0.6):
    """Random per-layer keep masks; every node keeps at least one input."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ParameterError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    rng = stream(seed, "active-sets")
    masks = []
    for w in model.weights:
        fan_in, fan_out = w.shape
        size = max(1, int(round(keep_fraction * fan_in)))
        mask = np.zeros(w.shape, dtype=bool)
        for j in range(fan_out):
            mask[rng.choice(fan_in, size=size, replace=False), j] = True
        masks.append(mask)
    return masks


def build_theorem1_network(c: int, depth: int, width: int):
    """Uniform all-positive fixture where active mass = c * inactive mass.

    Every layer is width x width with equal weights 1/width and the input is
    all ones, so each node receives `width` equal contributions; keeping the
    first c*width/(c+1) inputs of every node makes the active/inactive ratio
    exactly c at every node of every layer.
    """
    if c < 1:
        raise ParameterError("c must be a positive integer")
    if depth < 1 or width < 1:
        raise ParameterError("depth and width must be positive")
    if width % (c + 1) != 0:
        raise ParameterError(f"width {width} must be divisible by c+1 = {c + 1}")
    dims = [width] * (depth + 1)
    weights = [np.full((width, width), 1.0 / width) for _ in range(depth)]
    biases = [np.zeros(width) for _ in range(depth)]
    model = MlpModel(dims, weights, biases)
    mask = np.zeros((width, width), dtype=bool)
    mask[: width * c // (c + 1)] = True
    return model, [mask.copy() for _ in range(depth)]


def theorem1_check(model: MlpModel, active_sets, c: int):
    """Per-layer ratio table with the measured and closed-form values, on
    the linear chain of model.weights and model.biases."""
    profile = lemma1_error(model, np.ones(model.n_inputs), active_sets)
    return [{"k": k, "ratio": float(profile.ratios(k).mean()),
             "expected_ratio": ((c + 1) / c) ** k - 1.0}
            for k in range(1, model.n_layers + 1)]


# ---------------------------------------------------------------------------
# Classification metrics.
# ---------------------------------------------------------------------------


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (n_classes, n_classes); rows true, cols predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.counts)) / total if total else 0.0

    def predicted_histogram(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def predict(model: MlpModel, features) -> np.ndarray:
    """Argmax labels of the exact network: prediction never samples.

    The forward runs on views of PREDICT_ROWS rows of features at a time, so
    the activations it keeps are PREDICT_ROWS rows deep whatever the set's
    size; the labels are one new array. An empty set runs one empty block.
    """
    x = _as_batch(features, model.n_inputs)
    return np.concatenate([np.argmax(forward(model, x[lo : lo + PREDICT_ROWS]).output, axis=1)
                           for lo in range(0, max(len(x), 1), PREDICT_ROWS)])


def confusion(model: MlpModel, dataset) -> ConfusionMatrix:
    """Tabulate argmax predictions against true labels."""
    preds = predict(model, dataset.features)
    n = dataset.n_classes
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (dataset.labels, preds), 1)
    return ConfusionMatrix(counts)


def label_concentration(cm: ConfusionMatrix) -> int:
    """How many distinct labels the model actually predicts; labels.csv
    holds each label's share."""
    return int((cm.predicted_histogram() > 0).sum())


# ---------------------------------------------------------------------------
# Training report.
# ---------------------------------------------------------------------------

@dataclass
class RunCounts:
    """One training run's policy statistics: policies add to them, and the
    run's TrainReport carries them."""

    fallback_events: int = 0
    rebuilds: int = 0
    sampled_product_flops: int = 0
    replaced_exact_flops: int = 0


@dataclass(kw_only=True)
class TrainReport(RunCounts):
    policy: dict
    epochs: int
    batch_size: int
    seed: int
    val_accuracy: list[float]  # index 0 is the pre-training baseline
    test_accuracy: float
    phase_seconds: dict
    phase_flops: dict
    total_seconds: float
    total_flops: int
    confusion: list  # nested lists for JSON friendliness
    label_histogram: list
    distinct_predicted_labels: int
    active_set_fraction: float | None  # None when no policy selects nodes

    def summary_dict(self) -> dict:
        """Deterministic summary: every field but the wall-clock times (those
        go to timing.csv, which is machine-dependent by nature)."""
        summary = asdict(self)
        del summary["phase_seconds"], summary["total_seconds"]
        return summary


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def write_timing_csv(report: TrainReport, path):
    rows = [["all", phase, repr(report.phase_seconds[phase]), flops]
            for phase, flops in report.phase_flops.items()]
    rows.append(["all", "total", repr(report.total_seconds), report.total_flops])
    _write_csv(path, ["epoch", "phase", "seconds", "flops"], rows)


def write_confusion_csv(cm_rows, path):
    _write_csv(path, ["true", "pred", "count"],
               ([t, p, int(count)] for t, row in enumerate(cm_rows) for p, count in enumerate(row)))


def write_labels_csv(histogram, path):
    """Each label's predicted count and its share of all predictions (0.0
    for every label when there are none)."""
    counts = [int(count) for count in histogram]
    total = sum(counts) or 1
    _write_csv(path, ["label", "predicted_count", "ratio"],
               ([lab, count, repr(count / total)] for lab, count in enumerate(counts)))


def write_ratio_csv(rows, path):
    _write_csv(path, ["k", "ratio"], ([row["k"], repr(row["ratio"])] for row in rows))
