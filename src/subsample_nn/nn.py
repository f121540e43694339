"""MLP engine: forward, backprop, optimizers, init, checkpoints.

forward and backward are the only per-layer loops in the package, and the only
place masked products are charged (2 * fan_in per kept node). They run exactly
by default; compute policies pass a node selector to forward, and MC backprop
a product function to backward (see policies.py). A selector's keep array, 0
on a dropped node and its scale on a kept one, is stored in the trace, and
forward and backward multiply by it. Activations are batched row-wise: a
(b, n) array holds b samples. Every hidden layer applies ReLU; the output
layer applies log-softmax and the loss is mean negative log-likelihood, so the
output-layer delta is (softmax(z) - onehot) / batch.

A model keeps all its weights and biases in one contiguous float64 buffer,
`flat`, in layer order (w0, b0, w1, b1, ...); weights and biases are tuples
of its views. Gradients use the same layout, and backward writes each weight
and bias gradient straight into its view. The optimizer step runs on the
whole buffer at once: the Adam step updates the moments and parameters in
place, one equal contiguous slice per CPU of the process's affinity mask, on
the calling thread and one worker thread per further CPU (numpy releases the
GIL inside each ufunc). Each worker takes its slice of a step from its own
queue; the workers are started on the first step and again in a forked child.
Each thread runs its slice in tiles of _ADAM_TILE elements, with two
tile-sized scratch arrays of its own, so that a tile's arrays stay in the
core's L2 cache across the update's passes. The update is elementwise, so its
bytes depend neither on the number of threads nor on the tile size.
"""

from __future__ import annotations

import json
import os
import queue
import struct
import threading
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionError, FormatError, ParameterError, _read_block
from .linalg import FLOPS, _product, matmul, require_finite, stream

CHECKPOINT_MAGIC = b"MLPC"
CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements: a tile's six float64 arrays take 1.875 MiB, inside a core's 2 MiB L2;
# each tile costs one ufunc call per pass, and so GIL handoffs between the threads
_ADAM_TILE = 40960


def _parameters(weights, biases):
    return [a for pair in zip(weights, biases) for a in pair]


class _FlatParameters:
    """weights[k] and biases[k] as views of one float64 buffer, `flat`, in
    layer order (w0, b0, w1, b1, ...). Construction copies the given arrays
    into a new buffer. weights and biases are tuples, and neither they nor
    flat can be rebound once laid out, so step never updates a buffer that
    no longer backs the entries: write into the arrays instead."""

    def _lay_out(self, fill=True):
        arrays = _parameters(self.weights, self.biases)
        flat = np.empty(sum(a.size for a in arrays))
        views, at = [], 0
        for a in arrays:
            view = flat[at : at + a.size].reshape(a.shape)
            if fill:
                view[...] = a
            views.append(view)
            at += a.size
        self.weights, self.biases = tuple(views[0::2]), tuple(views[1::2])
        self.flat = flat

    def __setattr__(self, name, value):
        if name in ("weights", "biases", "flat") and "flat" in vars(self):
            raise AttributeError(f"{name} is laid out in flat and cannot be rebound")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so the copy's
        # entries are views of the copy's own buffer
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class MlpModel(_FlatParameters):
    layer_dims: list[int]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ParameterError("need at least input and output dims")
        if len(self.weights) != len(self.layer_dims) - 1 or len(self.biases) != len(self.weights):
            raise ParameterError("weight/bias count must match layer count")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.layer_dims[k], self.layer_dims[k + 1]):
                raise DimensionError(f"weights[{k}] has shape {w.shape}, expected "
                                     f"({self.layer_dims[k]}, {self.layer_dims[k + 1]})")
            if b.shape != (self.layer_dims[k + 1],):
                raise DimensionError(f"biases[{k}] has shape {b.shape}")
        self._lay_out()

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def n_inputs(self):
        return self.layer_dims[0]


@dataclass
class ForwardTrace:
    """Per-layer activations; activations[0] is the input batch, [-1] the output.

    keeps[k] is the (batch, width) keep array a node-selecting pass applied to
    hidden layer k, 0.0 on a dropped node; keeps is None for an exact pass.
    """

    activations: list[np.ndarray]
    keeps: list[np.ndarray] | None = None

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def batch_size(self):
        return self.activations[0].shape[0]


@dataclass
class Gradients(_FlatParameters):
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._lay_out()

    @classmethod
    def _empty_like(cls, model: MlpModel) -> "Gradients":
        """Uninitialised gradients laid out like model's parameters, without
        the copy the constructor makes."""
        grads = object.__new__(cls)
        grads.weights, grads.biases = model.weights, model.biases
        grads._lay_out(fill=False)
        return grads


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


def forward(model: MlpModel, x, select=None) -> ForwardTrace:
    """Forward pass over a sample or batch; exact unless `select` is given.

    select(k, a) picks the kept nodes of hidden layer k from its input batch a
    and returns (keep, z). keep is a (batch, width) float array: 0.0 on a
    dropped node, at least 1 on a kept one (dropout's 1/p_keep, adaptive
    dropout's 1/probs, ALSH's 1.0). z is the pre-activation if the selector
    computed it, else None and the product is computed here; it is charged
    2 * fan_in per kept entry either way, and a selector that computed z
    charges the skipped share itself. A dropped node's activation is exactly +0.0, whatever its
    pre-activation; a kept one is multiplied by its keep entry, so it is
    positive exactly where its pre-activation is and backward reads the ReLU
    derivative from the activation. The output layer is always exact.
    """
    a = _as_batch(x, model.n_inputs)
    acts = [a]
    keeps = None if select is None else []
    for k in range(model.n_layers - 1):
        w, b = model.weights[k], model.biases[k]
        if select is None:
            a = np.maximum(matmul(a, w) + b, 0.0)
        else:
            keep, z = select(k, a)
            FLOPS.add(2 * w.shape[0] * np.count_nonzero(keep))
            if z is None:
                z = a @ w + b
            a = np.where(keep != 0, np.maximum(z, 0.0) * keep, 0.0)
            keeps.append(keep)
        acts.append(a)
    acts.append(log_softmax(matmul(a, model.weights[-1]) + model.biases[-1]))
    require_finite(acts[-1], "forward output")
    return ForwardTrace(acts, keeps)


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

    product(k, a, b, out) computes each of layer k's two backprop products,
    the weight gradient activations[k].T @ delta, written into out (its view
    of the gradients' buffer), and the propagated delta @ weights[k].T, with
    out None, into a new array; it returns the product. The default is the
    exact product, charged in full, except for a hidden layer the trace
    masked: both of its products touch fan_in terms per kept node, and only
    those are charged. The delta of a hidden node is multiplied by its keep
    entry, and is exactly +0.0 on a node the trace dropped.
    """
    def exact(k, a, b, out):
        if trace.keeps is None or k == model.n_layers - 1:
            return matmul(a, b, out)
        FLOPS.add(2 * model.weights[k].shape[0] * np.count_nonzero(trace.keeps[k]))
        return _product(a, b, out)

    product = product or exact
    delta = output_delta(trace, targets)
    grads = Gradients._empty_like(model)
    for k in range(model.n_layers - 1, -1, -1):
        product(k, trace.activations[k].T, delta, grads.weights[k])
        delta.sum(axis=0, out=grads.biases[k])
        if k > 0:
            upstream = product(k, delta, model.weights[k].T, None)
            delta = upstream * (trace.activations[k] > 0.0)
            if trace.keeps is not None:
                keep = trace.keeps[k - 1]
                delta = np.where(keep != 0, delta * keep, 0.0)
    return grads


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
        if not 0 < self.learning_rate < np.inf:
            raise ParameterError("learning rate must be positive and finite")


@dataclass
class _AdamState:
    """Adam's moments m and v, laid out like the parameters' flat buffer and
    cut into one contiguous slice per thread, and each slice's two scratch
    arrays s and r of min(_ADAM_TILE, slice) elements: slices[j] is
    (lo, hi, m, v, s, r) for elements lo:hi. Worker j takes slice j from its
    queue jobs[j] and answers on done; the calling thread runs the last
    slice. The workers belong to the process pid; a copy keeps the arrays
    and starts its own workers on its first step."""

    size: int
    slices: list
    jobs: list = field(default_factory=list)
    done: queue.SimpleQueue | None = None
    pid: int | None = None

    def __getstate__(self):
        # queues cannot be copied, and threads belong to their process
        return dict(vars(self), jobs=[], done=None, pid=None)


def _ensure_adam_state(opt: Optimizer, size: int, threads=None) -> _AdamState:
    """Create the moments, the slices and their scratch once, so that the
    step allocates nothing: one equal slice per thread (default: per CPU
    this process may run on). More slices per thread only add GIL handoffs."""
    if opt._adam is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        n = min(threads or cpus, size)
        m, v = np.zeros(size), np.zeros(size)
        bounds = [j * size // n for j in range(n + 1)]
        slices = []
        for lo, hi in zip(bounds, bounds[1:]):
            tile = min(_ADAM_TILE, hi - lo)
            slices.append((lo, hi, m[lo:hi], v[lo:hi], np.empty(tile), np.empty(tile)))
        opt._adam = _AdamState(size, slices)
    if opt._adam.size != size:
        raise ParameterError(f"optimizer state holds {opt._adam.size} parameters, "
                             f"the model {size}")
    return opt._adam


def _adam_worker(jobs, done):
    """Run _adam_tiles on each job from jobs until a None, answering on done
    with None or the exception it raised."""
    while (job := jobs.get()) is not None:
        try:
            _adam_tiles(*job)
            answer = None
        except Exception as exc:  # step re-raises it on the calling thread
            answer = exc
        del job  # views of the step's buffers, which must not outlive the step
        done.put(answer)


def _adam_tiles(p, g, m, v, s, r, eta, bias1, bias2):
    """_adam_slice on one thread's slice p, g, m, v, in tiles of s.size
    elements (the last one may be shorter), with s and r as the scratch."""
    for lo in range(0, p.size, s.size):
        n = min(s.size, p.size - lo)
        hi = lo + n
        _adam_slice(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], s[:n], r[:n], eta, bias1, bias2)


def _adam_slice(p, g, m, v, s, r, eta, bias1, bias2):
    """Adam on one tile, in place, with the rounding of m = m*b1 + (1-b1)*g,
    v = v*b2 + ((1-b2)*g)*g and p -= (eta*(m/bias1)) / (sqrt(v/bias2)+eps);
    s and r are scratch of the tile's size. Every operation is elementwise,
    so neither the slices, the tiles nor the threads change a bit. From step
    356 on, bias1 is exactly 1.0 and m / bias1 is m, so that division is
    skipped. Runs on worker threads: numpy only, no FLOPS."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=s)
    np.add(m, s, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=s)
    np.multiply(s, g, out=s)
    np.add(v, s, out=v)
    if bias1 == 1.0:
        np.multiply(m, eta, out=s)
    else:
        np.divide(m, bias1, out=s)
        np.multiply(s, eta, out=s)
    np.divide(v, bias2, out=r)
    np.sqrt(r, out=r)
    np.add(r, ADAM_EPS, out=r)
    np.divide(s, r, out=s)
    np.subtract(p, s, out=p)


def step(optimizer: Optimizer, model: MlpModel, grads: Gradients):
    """Apply one parameter update in place, on the flat buffers."""
    eta = optimizer.learning_rate
    if ([g.shape for g in _parameters(grads.weights, grads.biases)]
            != [p.shape for p in _parameters(model.weights, model.biases)]):
        raise DimensionError("gradient shapes do not match the parameters")
    p, g = model.flat, grads.flat
    if optimizer.kind == "sgd":
        p -= eta * g
        optimizer.step_count += 1
        return

    state = _ensure_adam_state(optimizer, p.size)
    optimizer.step_count += 1
    t = optimizer.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    work = [(p[lo:hi], g[lo:hi], *moments, eta, bias1, bias2)
            for lo, hi, *moments in state.slices]
    if len(work) > 1 and state.pid != os.getpid():
        # the first step, or the first in a forked child, which inherits the
        # queues but not the threads
        state.jobs = [queue.SimpleQueue() for _ in work[:-1]]
        state.done, state.pid = queue.SimpleQueue(), os.getpid()
        for jobs in state.jobs:
            threading.Thread(target=_adam_worker, args=(jobs, state.done), daemon=True).start()
            weakref.finalize(state, jobs.put, None)  # the worker ends with its state
    for jobs, job in zip(state.jobs, work):
        jobs.put(job)
    try:
        _adam_tiles(*work[-1])
    finally:
        answers = [state.done.get() for _ in state.jobs]
    for answer in answers:
        if answer is not None:
            raise answer


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary weights plus a JSON metadata sidecar. The
# binary alone describes the model; the sidecar is for readers.
# ---------------------------------------------------------------------------


def save_checkpoint(model: MlpModel, path, metadata: dict | None = None):
    if "activation" in (metadata or {}):  # the sidecar names the engine's own
        raise ParameterError("checkpoint metadata may not set 'activation'")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.layer_dims)))
        f.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        f.write(model.flat.astype("<f8", copy=False).tobytes())  # w0, b0, w1, b1, ...
    sidecar = {"activation": "relu"}
    sidecar.update(metadata or {})
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r} at byte 0")
        version, n_dims = _read_block(f, path, "<u4", 2, "header").tolist()
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        dims = _read_block(f, path, "<u4", n_dims, "layer dims").tolist()
        if n_dims < 2 or 0 in dims:
            raise FormatError(f"{path}: layer dims {dims} describe no model")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(_read_block(f, path, "<f8", fan_in * fan_out, "weight block")
                           .reshape(fan_in, fan_out))
            biases.append(_read_block(f, path, "<f8", fan_out, "bias block"))
        if f.read(1):
            raise FormatError(f"{path}: data after the last bias block, at byte {f.tell() - 1}")
    return MlpModel(dims, weights, biases)
