"""Executable verification of the error-propagation theory, plus run metrics.

The error analysis works on purely linear networks. For a node j of layer k
with active input set S, the masked chain drops the contributions of inputs
outside S; the resulting activation error obeys the recursion

    e[1][j] = sum_{i not in S} x[i] W[1][i, j]
    e[k][j] = e[k-1] . W[k][:, j] + sum_{i not in S} abar[k-1][i] W[k][i, j]

where abar is the masked activation. When every node's active contribution is
exactly c times its inactive contribution, the exact and masked activations
satisfy a[k] = abar[k] * ((c+1)/c)^k, so the error-to-estimate ratio grows as
((c+1)/c)^k - 1: exponentially in depth.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .linalg import stream
from .nn import MlpModel, forward

RATIO_TABLE_C5 = [0.2, 0.44, 0.72, 1.07, 1.48, 1.98]  # reference rounding for c=5


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


def _require_linear(model: MlpModel):
    if model.hidden_activation != "linear":
        raise PreconditionError("error analysis is defined for linear activations only")


def _masked_linear_forward(model, x, active_sets):
    """Masked chain: node j of layer k sums only its active input indices.

    active_sets[k-1][j] lists the active input indices of node j in layer k.
    Biases are included in both chains; they cancel in the error.
    """
    abar = [np.asarray(x, dtype=np.float64)]
    for k in range(model.n_layers):
        w, b = model.weights[k], model.biases[k]
        out = np.empty(w.shape[1])
        for j in range(w.shape[1]):
            active = active_sets[k][j]
            out[j] = abar[-1][active] @ w[active, j] + b[j]
        abar.append(out)
    return abar


def _exact_linear_forward(model, x):
    a = [np.asarray(x, dtype=np.float64)]
    for k in range(model.n_layers):
        a.append(a[-1] @ model.weights[k] + model.biases[k])
    return a


def lemma1_error(model: MlpModel, x, active_sets) -> LayerErrorProfile:
    """Measure masked-forward errors and re-derive them through the recursion."""
    _require_linear(model)
    if len(active_sets) != model.n_layers:
        raise ParameterError("need one active-set list per layer")
    exact = _exact_linear_forward(model, x)
    approx = _masked_linear_forward(model, x, active_sets)

    direct = [exact[k] - approx[k] for k in range(1, model.n_layers + 1)]
    recursion = []
    for k in range(model.n_layers):
        w = model.weights[k]
        e = np.empty(w.shape[1])
        prev_err = recursion[k - 1] if k > 0 else None
        for j in range(w.shape[1]):
            inactive = np.setdiff1d(np.arange(w.shape[0]), active_sets[k][j])
            omitted = approx[k][inactive] @ w[inactive, j]
            e[j] = omitted if k == 0 else prev_err @ w[:, j] + omitted
        recursion.append(e)
    return LayerErrorProfile(exact[1:], approx[1:], direct, recursion)


def random_active_sets(model: MlpModel, seed, keep_fraction=0.6):
    """Random per-node active input subsets; every node keeps at least one input."""
    rng = stream(seed, "active-sets")
    sets = []
    for w in model.weights:
        fan_in = w.shape[0]
        layer = []
        for _ in range(w.shape[1]):
            size = max(1, int(round(keep_fraction * fan_in)))
            layer.append(np.sort(rng.choice(fan_in, size=size, replace=False)))
        sets.append(layer)
    return sets


def build_theorem1_network(c: int, depth: int, width: int):
    """Uniform all-positive fixture where active mass = c * inactive mass.

    Every layer is width x width with equal weights 1/width and the input is
    all ones, so each node receives `width` equal contributions; keeping the
    first c*width/(c+1) of them makes the active/inactive ratio exactly c at
    every node of every layer.
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
    model = MlpModel(dims, weights, biases, hidden_activation="linear")
    n_active = width * c // (c + 1)
    active = np.arange(n_active)
    active_sets = [[active for _ in range(width)] for _ in range(depth)]
    return model, active_sets


def theorem1_check(model: MlpModel, active_sets, c: int):
    """Per-layer ratio table with the measured and closed-form values."""
    _require_linear(model)
    x = np.ones(model.n_inputs)
    profile = lemma1_error(model, x, active_sets)
    rows = []
    for k in range(1, model.n_layers + 1):
        ratios = profile.ratios(k)
        expected_ratio = ((c + 1) / c) ** k - 1.0
        growth = profile.exact[k - 1] / profile.approx[k - 1]
        rows.append({
            "k": k,
            "ratio": float(ratios.mean()),
            "ratio_spread": float(np.abs(ratios - ratios.mean()).max()),
            "expected_ratio": expected_ratio,
            "growth": float(growth.mean()),
            "expected_growth": ((c + 1) / c) ** k,
        })
    return rows


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
    """Argmax labels of the exact network: prediction never samples."""
    return np.argmax(forward(model, features).output, axis=1)


def confusion(model: MlpModel, dataset) -> ConfusionMatrix:
    """Tabulate argmax predictions against true labels."""
    preds = predict(model, dataset.features)
    n = dataset.n_classes
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (dataset.labels, preds), 1)
    return ConfusionMatrix(counts)


def label_concentration(cm: ConfusionMatrix):
    """How many distinct labels the model actually predicts, and their ratios."""
    hist = cm.predicted_histogram()
    distinct = int((hist > 0).sum())
    total = hist.sum()
    ratios = hist / total if total else hist.astype(np.float64)
    return distinct, ratios


# ---------------------------------------------------------------------------
# Training report.
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
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
    active_set_fraction: float | None = None
    fallback_events: int = 0
    rebuilds: int = 0
    sampled_product_flops: int = 0
    replaced_exact_flops: int = 0

    def summary_dict(self) -> dict:
        """Deterministic summary: every field but the wall-clock times (those
        go to timing.csv, which is machine-dependent by nature)."""
        summary = asdict(self)
        del summary["phase_seconds"], summary["total_seconds"]
        return summary


def write_timing_csv(report: TrainReport, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "phase", "seconds", "flops"])
        for phase, flops in report.phase_flops.items():
            writer.writerow(["all", phase, repr(report.phase_seconds[phase]), flops])
        writer.writerow(["all", "total", repr(report.total_seconds), report.total_flops])


def write_confusion_csv(cm_rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["true", "pred", "count"])
        for t, row in enumerate(cm_rows):
            for p, count in enumerate(row):
                writer.writerow([t, p, int(count)])


def write_labels_csv(report: TrainReport, path):
    total = sum(report.label_histogram) or 1
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["label", "predicted_count", "ratio"])
        for lab, count in enumerate(report.label_histogram):
            writer.writerow([lab, int(count), repr(count / total)])


def write_ratio_csv(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "ratio"])
        for row in rows:
            writer.writerow([row["k"], repr(row["ratio"])])
