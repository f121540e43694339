"""MLP engine: forward, backprop, optimizers, init, checkpoints.

forward and backward are the only per-layer loops in the package, and the only
place masked products are charged (2 * fan_in per kept node). They run exactly
by default; compute policies pass a node selector to forward, and MC backprop
a product function to backward (see policies.py). Activations are batched
row-wise: a (b, n) array holds b samples. The output layer always applies
log-softmax and the loss is mean negative log-likelihood, so the output-layer
delta is (softmax(z) - onehot) / batch.

The Adam step updates the moments and parameters in place, block by block,
on the calling thread and a pool of one thread per further CPU in the
process's affinity mask (numpy releases the GIL inside each ufunc). The pool
is created on the first step and again in a forked child. The update is
elementwise, so its bytes do not depend on the number of threads.
"""

from __future__ import annotations

import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .linalg import FLOPS, _product, matmul, require_finite, stream

HIDDEN_ACTIVATIONS = ("relu", "linear")
CHECKPOINT_MAGIC = b"MLPC"
CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_BLOCK = 65536  # elements per block of the Adam step; fastest on two threads


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ParameterError("need at least input and output dims")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ParameterError(f"unknown hidden activation {self.hidden_activation!r}")
        if len(self.weights) != len(self.layer_dims) - 1 or len(self.biases) != len(self.weights):
            raise ParameterError("weight/bias count must match layer count")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.layer_dims[k], self.layer_dims[k + 1]):
                raise DimensionError(f"weights[{k}] has shape {w.shape}, expected "
                                     f"({self.layer_dims[k]}, {self.layer_dims[k + 1]})")
            if b.shape != (self.layer_dims[k + 1],):
                raise DimensionError(f"biases[{k}] has shape {b.shape}")

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def n_inputs(self):
        return self.layer_dims[0]

    @property
    def n_outputs(self):
        return self.layer_dims[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(list(self.layer_dims), [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases], self.hidden_activation)


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and activations; activations[0] is the input batch.

    masks[k] is a boolean (batch, width) array over the nodes of hidden layer k
    that a node-selecting pass kept; scales[k] is the factor kept activations
    were multiplied by. Both are None for an exact pass.
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    masks: list[np.ndarray] | None = None
    scales: list | None = None

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def batch_size(self):
        return self.activations[0].shape[0]


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_weights(layer_dims, seed=0) -> MlpModel:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    if any(d < 1 for d in layer_dims):
        raise ParameterError("layer dims must be positive")
    rng = stream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_dims), weights, biases)


def _as_batch(x, n_inputs) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise DimensionError(f"input shape {x.shape} does not match {n_inputs} inputs")
    return x


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def apply_hidden(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def hidden_derivative(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def forward(model: MlpModel, x, select=None) -> ForwardTrace:
    """Forward pass over a sample or batch; exact unless `select` is given.

    select(k, a) picks the kept nodes of hidden layer k from its input batch a
    and returns (mask, scale, z). z is None when the mask is chosen before the
    product, which is then computed here. The product is charged 2 * fan_in
    per kept entry either way; a selector that computed z charges the skipped
    share itself. Masked-out nodes are exactly zero; kept activations are
    multiplied by scale. The output layer is always exact.
    """
    a = _as_batch(x, model.n_inputs)
    pre, acts = [], [a]
    masks, scales = (None, None) if select is None else ([], [])
    last = model.n_layers - 1
    for k in range(model.n_layers):
        w, b = model.weights[k], model.biases[k]
        if select is None or k == last:
            z = matmul(a, w) + b
        else:
            mask, scale, z = select(k, a)
            FLOPS.add(2 * w.shape[0] * int(mask.sum()))
            if z is None:
                z = np.where(mask, a @ w + b, 0.0)
            masks.append(mask)
            scales.append(scale)
        if k == last:
            a = log_softmax(z)
        elif select is None:
            a = apply_hidden(z, model.hidden_activation)
        else:
            a = np.where(mask, apply_hidden(z, model.hidden_activation) * scale, 0.0)
        pre.append(z)
        acts.append(a)
    require_finite(acts[-1], "forward output")
    return ForwardTrace(pre, acts, masks, scales)


def _as_targets(targets, n_outputs, batch) -> np.ndarray:
    t = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if t.shape != (batch,):
        raise DimensionError(f"targets shape {t.shape} does not match batch {batch}")
    if (t < 0).any() or (t >= n_outputs).any():
        raise ParameterError(f"target class out of range (0..{n_outputs - 1})")
    return t


def nll_loss(trace: ForwardTrace, targets) -> float:
    """Mean negative log-likelihood of the recorded log-softmax output."""
    t = _as_targets(targets, trace.output.shape[1], trace.batch_size)
    return float(-trace.output[np.arange(trace.batch_size), t].mean())


def output_delta(trace: ForwardTrace, targets) -> np.ndarray:
    """Gradient of the mean NLL loss w.r.t. the output pre-activation."""
    b = trace.batch_size
    t = _as_targets(targets, trace.output.shape[1], b)
    delta = np.exp(trace.output)  # softmax recovered from log-softmax
    delta[np.arange(b), t] -= 1.0
    return delta / b


def backward(model: MlpModel, trace: ForwardTrace, targets, product=None) -> Gradients:
    """Gradients of mean NLL w.r.t. every weight matrix and bias.

    product(k, a, b) computes each of layer k's two backprop products, the
    weight gradient activations[k].T @ delta and the propagated delta @
    weights[k].T. The default is the exact product, charged in full, except
    for a hidden layer the trace masked: both of its products touch fan_in
    terms per kept node, and only those are charged. Nodes the trace masked
    out pass no delta back, and kept ones carry the trace's scale.
    """
    def exact(k, a, b):
        if trace.masks is None or k == model.n_layers - 1:
            return matmul(a, b)
        FLOPS.add(2 * model.weights[k].shape[0] * int(trace.masks[k].sum()))
        return _product(a, b)

    product = product or exact
    delta = output_delta(trace, targets)
    grads_w = [None] * model.n_layers
    grads_b = [None] * model.n_layers
    for k in range(model.n_layers - 1, -1, -1):
        grads_w[k] = product(k, trace.activations[k].T, delta)
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            upstream = product(k, delta, model.weights[k].T)
            delta = upstream * hidden_derivative(trace.pre_activations[k - 1],
                                                 model.hidden_activation)
            if trace.masks is not None:
                delta = delta * trace.scales[k - 1]
                delta[~trace.masks[k - 1]] = 0.0
    return Gradients(grads_w, grads_b)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class Optimizer:
    kind: str = "sgd"  # "sgd" or "adam"
    learning_rate: float = 1e-3
    step_count: int = 0
    _adam: "_AdamState | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ParameterError(f"unknown optimizer {self.kind!r}")
        if not self.learning_rate > 0:
            raise ParameterError("learning rate must be positive")


@dataclass
class _AdamState:
    """Adam's moments and the plan of its step. groups[j] lists the blocks
    thread j updates, each as (parameter index, lo, hi, m, v, s, r): rows
    lo:hi of the parameter, the same rows of its moments, and two scratch
    arrays of the block's shape. The pool runs every group but the last and
    belongs to the process pid."""

    groups: list
    pool: ThreadPoolExecutor | None = None
    pid: int | None = None


def _parameters(weights, biases):
    return [a for pair in zip(weights, biases) for a in pair]


def _ensure_adam_state(opt: Optimizer, model: MlpModel, threads=None) -> _AdamState:
    """Create the moments and the block plan once, so that the step allocates
    nothing. Each parameter is cut along its first axis into blocks of about
    ADAM_BLOCK elements, and the blocks are dealt in order to `threads` groups
    (default: the CPUs this process may run on) of about equal element count."""
    if opt._adam is not None:
        return opt._adam
    blocks = []
    for i, p in enumerate(_parameters(model.weights, model.biases)):
        m, v = np.zeros_like(p), np.zeros_like(p)
        rows = max(1, ADAM_BLOCK // (p.size // len(p)))
        blocks += [(i, lo, lo + rows, m[lo : lo + rows], v[lo : lo + rows])
                   for lo in range(0, len(p), rows)]
    total = sum(block[3].size for block in blocks)
    n = threads or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
    groups = [[] for _ in range(n)]
    start = 0
    for block in blocks:  # by the element at the block's middle
        groups[(start + block[3].size // 2) * n // total].append(block)
        start += block[3].size
    plan = []
    for group in filter(None, groups):
        size = max(block[3].size for block in group)
        s, r = np.empty(size), np.empty(size)
        plan.append([(i, lo, hi, m, v, s[: m.size].reshape(m.shape), r[: m.size].reshape(m.shape))
                     for i, lo, hi, m, v in group])
    opt._adam = _AdamState(plan)
    return opt._adam


def _adam_blocks(blocks, eta, bias1, bias2):
    """Adam on each (param, grad, m, v, s, r) block, in place, with the
    rounding of m = m*b1 + (1-b1)*g, v = v*b2 + ((1-b2)*g)*g and
    p -= (eta*(m/bias1)) / (sqrt(v/bias2)+eps). Every operation is
    elementwise, so neither the blocks nor the threads change a bit.
    Runs on worker threads: numpy only, no FLOPS."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v, s, r in blocks:
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        np.divide(m, bias1, out=s)
        np.multiply(s, eta, out=s)
        np.divide(v, bias2, out=r)
        np.sqrt(r, out=r)
        np.add(r, ADAM_EPS, out=r)
        np.divide(s, r, out=s)
        np.subtract(p, s, out=p)


def step(optimizer: Optimizer, model: MlpModel, grads: Gradients):
    """Apply one parameter update in place."""
    eta = optimizer.learning_rate
    if optimizer.kind == "sgd":
        for k in range(model.n_layers):
            model.weights[k] -= eta * grads.weights[k]
            model.biases[k] -= eta * grads.biases[k]
        optimizer.step_count += 1
        return

    state = _ensure_adam_state(optimizer, model)
    params = _parameters(model.weights, model.biases)
    gs = _parameters(grads.weights, grads.biases)
    if [g.shape for g in gs] != [p.shape for p in params]:
        raise DimensionError("gradient shapes do not match the parameters")
    optimizer.step_count += 1
    t = optimizer.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    work = [[(params[i][lo:hi], gs[i][lo:hi], m, v, s, r) for i, lo, hi, m, v, s, r in group]
            for group in state.groups]
    if len(work) > 1 and state.pid != os.getpid():
        # a forked child inherits the pool but not its threads
        state.pool = ThreadPoolExecutor(len(work) - 1)
        state.pid = os.getpid()
    # The pool takes the first groups, whose large blocks need the GIL only
    # between ufuncs; this thread takes the last, which holds the small ones.
    futures = [state.pool.submit(_adam_blocks, w, eta, bias1, bias2) for w in work[:-1]]
    _adam_blocks(work[-1], eta, bias1, bias2)
    for future in futures:
        future.result()


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary weights plus a JSON metadata sidecar.
# ---------------------------------------------------------------------------


def save_checkpoint(model: MlpModel, path, metadata: dict | None = None):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.layer_dims)))
        f.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        for w, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    sidecar = {"activation": model.hidden_activation}
    sidecar.update(metadata or {})
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r} at byte 0")
        version, n_dims = struct.unpack("<II", f.read(8))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        dims = list(struct.unpack(f"<{n_dims}I", f.read(4 * n_dims)))
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = np.frombuffer(f.read(8 * fan_in * fan_out), dtype="<f8")
            if w.size != fan_in * fan_out:
                raise FormatError(f"{path}: truncated weight block")
            weights.append(w.reshape(fan_in, fan_out).copy())
            b = np.frombuffer(f.read(8 * fan_out), dtype="<f8")
            if b.size != fan_out:
                raise FormatError(f"{path}: truncated bias block")
            biases.append(b.copy())
    # the activation lives only in the sidecar; a guessed one mispredicts
    sidecar = str(path) + ".json"
    try:
        with open(sidecar) as f:
            activation = json.load(f)["activation"]
    except (OSError, KeyError):
        raise FormatError(f"{path}: metadata sidecar {sidecar} is missing or "
                          "names no activation") from None
    return MlpModel(dims, weights, biases, activation)
