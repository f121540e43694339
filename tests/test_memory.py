"""Memory bounds of the data path, of evaluation and of training, measured with
tracemalloc, which numpy reports its array buffers to."""

import tracemalloc

import numpy as np
import pytest

from subsample_nn import alsh, cli, nn
from subsample_nn.analysis import PREDICT_ROWS, confusion
from subsample_nn.data import Dataset, split, synth_digits, write_idx
from subsample_nn.linalg import stream
from subsample_nn.policies import make_policy
from subsample_nn.train import train


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def transient_peak(fn, *args):
    """Bytes fn allocates at its peak beyond what was live when it was called,
    and its result."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return tracemalloc.get_traced_memory()[1] - base, result


def dataset_config(tmp_path, kind):
    sets = ["dataset.train_n=1000", "dataset.test_n=1000", "dataset.val_n=500"]
    if kind == "idx":
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(synth_digits(2500, seed=2), images, labels)
        sets += ["dataset.kind=idx", f"dataset.images={images}", f"dataset.labels={labels}"]
    return cli.resolve_config(cli.load_config(None, sets))


@pytest.mark.parametrize("kind", ["synth_digits", "idx"])
def test_build_dataset_holds_one_copy(tmp_path, traced, kind):
    # built or loaded, then split: copying the split parts out of the whole
    # set peaks at twice the parts' bytes
    config = dataset_config(tmp_path, kind)
    peak, sp = transient_peak(cli.build_dataset, config, 0)
    parts = (sp.train, sp.test, sp.validation)
    feature_bytes = sum(part.features.nbytes for part in parts)
    assert peak <= 1.25 * feature_bytes, f"peak {peak / feature_bytes:.2f}x the split's features"


@pytest.mark.parametrize("kind", ["synth_digits", "idx"])
def test_build_dataset_parts_share_one_buffer(tmp_path, kind):
    sp = cli.build_dataset(dataset_config(tmp_path, kind), 0)
    parts = (sp.train, sp.test, sp.validation)
    for field in ("features", "labels"):
        buffer = getattr(sp.train, field).base
        assert buffer is not None, f"train {field} own their memory"
        assert buffer.nbytes == sum(getattr(part, field).nbytes for part in parts)
        for part in parts:
            assert np.shares_memory(getattr(part, field), buffer)


def test_confusion_transient_does_not_grow_with_the_set(traced):
    model = nn.init_weights([64, 128, 128, 128, 10], seed=1)
    rng = np.random.default_rng(0)
    peaks = []
    for rows in (PREDICT_ROWS, 4 * PREDICT_ROWS):
        ds = Dataset(rng.random((rows, 64)), rng.integers(0, 10, rows), 10)
        peaks.append(transient_peak(confusion, model, ds)[0])
    # the labels grow by 8 bytes a row; the activations must not grow at all
    assert peaks[1] <= peaks[0] + 8 * 4 * PREDICT_ROWS + 4096, peaks


@pytest.mark.parametrize("kind, train_n", [
    pytest.param("exact", 10, id="exact"),
    pytest.param("alsh", 10, id="alsh"),
    pytest.param("alsh", 100, id="alsh-rebuild"),
    pytest.param("mc", 10, id="mc")])
def test_train_holds_one_gradient_buffer(traced, monkeypatch, kind, train_n):
    # Adam's moments take 2x the parameters' bytes, its scratch two tiles per
    # thread, and one step's gradients 1x; a step's gradients still live
    # while the next backward allocates would add 1x, and scratch the size of
    # the parameters is the 2x the tiles replace. Two threads on any host:
    # their slices of 67397 elements each hold more than a tile. ALSH at 100
    # samples rebuilds its indexes once, each in one padded copy of its
    # layer's columns (0.75x the parameters at the 784 -> 128 layer), which
    # stays below the peak of training; a rebuild that held three arrays
    # the size of the layer's weights would peak at 5.7x
    model = nn.init_weights([784, 128, 128, 128, 10], seed=1)
    sp = split(synth_digits(train_n + 20, seed=1), train_n, 10, 10, seed=1)
    optimizer = nn.Optimizer("adam", 1e-3)
    ensure = nn._ensure_adam_state
    monkeypatch.setattr(nn, "_ensure_adam_state",
                        lambda opt, size: ensure(opt, size, threads=2))
    peak, _ = transient_peak(train, model, sp, make_policy(kind), optimizer, 1, 1, 0)
    parameter_bytes = model.flat.nbytes
    scratch = sum(s.nbytes + r.nbytes for *_, s, r in optimizer._adam.slices)
    assert scratch < 2 * parameter_bytes
    assert peak < 3.4 * parameter_bytes + scratch, (
        f"peak {peak / parameter_bytes:.2f}x the parameters, "
        f"scratch {scratch / parameter_bytes:.2f}x")


@pytest.mark.parametrize("fan_in, fan_out", [(784, 128), (1000, 1000)])
def test_alsh_index_holds_one_padded_buffer(traced, fan_in, fan_out):
    # the transformed columns live in one (fan_out, fan_in + pad_terms)
    # buffer; beyond it the build draws the projections the index keeps, and
    # both allocate a block of squares for the norms, numpy's ufunc buffers
    # and the hash products (fan_out x 30 entries): the slack
    weights = stream(fan_in, "weights").standard_normal((fan_in, fan_out))
    params = alsh.AlshParams()
    padded = fan_out * (fan_in + params.pad_terms) * 8
    slack = 512 * 1024
    peak, index = transient_peak(alsh.build_index, weights.T, params, 0)
    assert peak <= padded + index.projections.nbytes + slack, (
        f"build peak {peak / weights.nbytes:.2f}x the weights")
    peak, _ = transient_peak(alsh.rebuild_index, index, weights.T)
    assert peak <= padded + slack, f"rebuild peak {peak / weights.nbytes:.2f}x the weights"
