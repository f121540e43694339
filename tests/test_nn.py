import copy
import pickle
import struct
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from subsample_nn.errors import DimensionError, FormatError, ParameterError
from subsample_nn.linalg import FLOPS, stream
from subsample_nn import nn
from subsample_nn.nn import (MlpModel, Optimizer, backward,
                             forward, init_weights, load_checkpoint, nll_loss,
                             save_checkpoint, step)


def random_model(dims, seed):
    model = init_weights(dims, seed=seed)
    rng = stream(seed, "bias-noise")
    for b in model.biases:
        b += rng.standard_normal(b.shape) * 0.1
    return model


def finite_difference_grads(model, x, target, h=1e-5):
    """Central-difference gradient of the NLL loss, parameter by parameter."""
    grads_w, grads_b = [], []
    for params in (model.weights, model.biases):
        out = []
        for arr in params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                up = nll_loss(forward(model, x), target)
                arr[ix] = orig - h
                down = nll_loss(forward(model, x), target)
                arr[ix] = orig
                g[ix] = (up - down) / (2 * h)
            out.append(g)
        if params is model.weights:
            grads_w = out
        else:
            grads_b = out
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_zero_weights_uniform_logits(self):
        model = MlpModel([4, 5, 10],
                         [np.zeros((4, 5)), np.zeros((5, 10))],
                         [np.zeros(5), np.zeros(10)])
        trace = forward(model, np.ones(4))
        np.testing.assert_allclose(trace.output, -np.log(10.0), atol=1e-12)

    def test_relu_chain_matches_hand_product(self):
        rng = stream(1, "chain")
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        b1, b2 = rng.standard_normal(4), rng.standard_normal(2)
        model = MlpModel([3, 4, 2], [w1, w2], [b1, b2])
        x = rng.standard_normal(3)
        hidden = x @ w1 + b1
        assert (hidden < 0).any() and (hidden > 0).any()  # the ReLU clips some nodes
        trace = forward(model, x)
        expected = nn.log_softmax((np.maximum(hidden, 0.0) @ w2 + b2)[None, :])
        np.testing.assert_allclose(trace.output[0], expected[0], atol=1e-12)

    def test_relu_propagation(self):
        w = np.array([[1.0, 1.0]])
        model = MlpModel([1, 2, 2], [w, np.eye(2)],
                         [np.array([-2.0, 1.0]), np.zeros(2)])
        trace = forward(model, np.array([1.0]))
        # pre-activations (-1, 2) pass through relu as (0, 2)
        np.testing.assert_array_equal(trace.activations[1][0], [0.0, 2.0])

    def test_log_softmax_normalizes(self):
        model = random_model([6, 8, 5], seed=3)
        trace = forward(model, stream(4, "x").standard_normal((7, 6)))
        logsumexp = np.log(np.exp(trace.output).sum(axis=1))
        np.testing.assert_allclose(logsumexp, 0.0, atol=1e-12)

    def test_input_dim_checked(self):
        model = random_model([4, 3, 2], seed=0)
        with pytest.raises(DimensionError):
            forward(model, np.zeros(5))

    def test_flop_count_is_quadratic_in_width(self):
        def forward_flops(width):
            model = init_weights([8, width, width, 3], seed=0)
            with FLOPS.phase("feedforward"):
                forward(model, np.zeros(8))
            return FLOPS.take()[0]["feedforward"]

        f1, f2 = forward_flops(64), forward_flops(128)
        assert f1 == 2 * (8 * 64 + 64 * 64 + 64 * 3)
        assert f2 == 2 * (8 * 128 + 128 * 128 + 128 * 3)
        # hidden-layer product quadruples when width doubles
        assert (f2 - 2 * (8 * 128 + 128 * 3)) == 4 * (f1 - 2 * (8 * 64 + 64 * 3))


class TestBackward:
    @pytest.mark.parametrize("dims", [[5, 8, 3], [4, 6, 6, 5], [6, 16, 16, 16, 4]],
                             ids=["dims0-relu", "dims1-relu", "dims2-relu"])
    def test_matches_finite_differences(self, dims):
        model = random_model(dims, seed=hash(tuple(dims)) % 1000)
        x = stream(17, "fd-x", len(dims)).standard_normal(dims[0])
        target = 1
        grads = backward(model, forward(model, x), target)
        num_w, num_b = finite_difference_grads(model, x, target)
        assert max_relative_error(grads.weights, num_w) <= 1e-4
        assert max_relative_error(grads.biases, num_b) <= 1e-4

    @pytest.mark.parametrize("scale", [1.0, 20.0, 100.0])
    def test_relu_derivative_read_from_kept_activation(self, scale):
        # backward reads the derivative from the activation forward stored,
        # relu(z) * scale on kept nodes; a scale >= 1 keeps its sign pattern
        z = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, np.inf, -np.inf])
        z = np.stack([z, z])
        mask = np.stack([np.ones(7, bool), np.arange(7) % 2 == 0])
        a = np.where(mask, np.maximum(z, 0.0) * scale, 0.0)
        np.testing.assert_array_equal((a > 0.0)[mask], (z > 0.0)[mask])

    def test_zero_input_sample(self):
        model = random_model([4, 3, 2], seed=5)
        model.biases[0][:] = 0.0
        trace = forward(model, np.zeros(4))
        grads = backward(model, trace, 0)
        np.testing.assert_array_equal(grads.weights[0], np.zeros((4, 3)))
        # with zero first-layer input, db equals the layer delta itself
        assert np.abs(grads.biases[0]).max() > 0 or True

    def test_uniform_logits_output_delta(self):
        model = MlpModel([3, 10], [np.zeros((3, 10))], [np.zeros(10)])
        grads = backward(model, forward(model, np.ones(3)), 0)
        expected = np.full(10, 0.1)
        expected[0] -= 1.0
        np.testing.assert_allclose(grads.biases[0], expected, atol=1e-12)

    def test_target_out_of_range(self):
        model = random_model([3, 4, 2], seed=1)
        with pytest.raises(ParameterError):
            backward(model, forward(model, np.zeros(3)), 2)

    def test_sgd_step_decreases_loss(self):
        model = random_model([6, 10, 4], seed=9)
        x = stream(10, "ls").standard_normal(6)
        base = nll_loss(forward(model, x), 2)
        grads = backward(model, forward(model, x), 2)
        for eta in (1e-1, 1e-2, 1e-3, 1e-4):
            trial = copy.deepcopy(model)
            step(Optimizer("sgd", eta), trial, grads)
            if nll_loss(forward(trial, x), 2) < base:
                return
        pytest.fail("no step size decreased the loss")


class TestOptimizers:
    def test_zero_gradients_leave_model_unchanged(self):
        model = random_model([3, 4, 2], seed=2)
        snapshot = [w.copy() for w in model.weights]
        zeros = backward(model, forward(model, np.zeros(3)), 0)
        for g in zeros.weights:
            g[:] = 0.0
        for g in zeros.biases:
            g[:] = 0.0
        step(Optimizer("sgd", 0.5), model, zeros)
        for w, s in zip(model.weights, snapshot):
            np.testing.assert_array_equal(w, s)

    def test_sgd_full_cancellation(self):
        model = random_model([3, 4, 2], seed=3)
        grads = backward(model, forward(model, np.ones(3)), 1)
        for g, w in zip(grads.weights, model.weights):
            g[:] = w
        for g, b in zip(grads.biases, model.biases):
            g[:] = b
        step(Optimizer("sgd", 1.0), model, grads)
        for w in model.weights:
            np.testing.assert_array_equal(w, np.zeros_like(w))

    def test_adam_first_step_is_sign_update(self):
        # first bias-corrected step reduces to -eta * g / (|g| + eps)
        model = random_model([3, 4, 2], seed=4)
        before = [w.copy() for w in model.weights]
        grads = backward(model, forward(model, np.ones(3)), 0)
        eta = 1e-3
        step(Optimizer("adam", eta), model, grads)
        for w, prev, g in zip(model.weights, before, grads.weights):
            expected = prev - eta * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            Optimizer("momentum", 0.1)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, np.inf, np.nan])
    def test_learning_rate_positive_and_finite(self, rate):
        # an infinite rate would make every parameter non-finite in one step
        with pytest.raises(ParameterError, match="learning rate"):
            Optimizer("sgd", rate)

    @staticmethod
    def _adam_against_reference(threads, steps=50, dims=(784, 128, 128, 128, 10)):
        """Run `steps` threaded Adam steps and the reference expression side by
        side; return (updated, reference) parameter lists and the state."""
        eta, b1, b2 = 1e-3, nn.ADAM_BETA1, nn.ADAM_BETA2
        model = init_weights(list(dims), seed=6)
        params = [a.copy() for pair in zip(model.weights, model.biases) for a in pair]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        opt = Optimizer("adam", eta)
        state = nn._ensure_adam_state(opt, model.flat.size, threads=threads)
        rng = stream(6, "adam-grads")
        for t in range(1, steps + 1):
            grads = nn.Gradients([rng.standard_normal(w.shape) for w in model.weights],
                                 [rng.standard_normal(b.shape) for b in model.biases])
            step(opt, model, grads)
            bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
            for p, g, (m, v) in zip(params, [a for pair in zip(grads.weights, grads.biases)
                                             for a in pair], moments):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= eta * (m / bias1) / (np.sqrt(v / bias2) + nn.ADAM_EPS)
        updated = [a for pair in zip(model.weights, model.biases) for a in pair]
        return updated, params, state

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_adam_step_matches_reference(self, threads):
        updated, reference, state = self._adam_against_reference(threads)
        for got, want in zip(updated, reference):
            assert got.tobytes() == want.tobytes()
        assert len(state.slices) == threads
        assert len(state.jobs) == threads - 1

    def test_adam_matches_reference_once_bias1_is_one(self):
        # from step 356 on 1 - 0.9**t rounds to 1.0 and the step skips m / bias1
        assert 1.0 - nn.ADAM_BETA1**355 < 1.0
        assert 1.0 - nn.ADAM_BETA1**356 == 1.0
        updated, reference, _ = self._adam_against_reference(2, steps=400, dims=(40, 16, 10))
        for got, want in zip(updated, reference):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("tile, steps", [(1, 5), (7, 400), (50, 400), (200, 400)])
    def test_adam_tiles_match_reference(self, monkeypatch, tile, steps, threads):
        # 194 parameters, in slices of 194, 97 or 64-65: 7 and 50 leave a
        # short last tile in every slice, 200 is larger than any slice; 400
        # steps run into bias1 == 1.0, which one-element tiles need not repeat
        monkeypatch.setattr(nn, "_ADAM_TILE", tile)
        updated, reference, state = self._adam_against_reference(threads, steps=steps,
                                                                 dims=(12, 8, 10))
        for got, want in zip(updated, reference):
            assert got.tobytes() == want.tobytes()
        assert len(state.slices) == threads
        for lo, hi, m, v, s, r in state.slices:
            assert s.size == r.size == min(tile, hi - lo)
            assert m.size == v.size == hi - lo

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_stepped_adam_optimizer_copies(self, clone):
        # a copy holds its own moments and starts its own workers, and then
        # steps as the original does
        model = init_weights([40, 16, 10], seed=1)
        opt = Optimizer("adam", 1e-3)
        nn._ensure_adam_state(opt, model.flat.size, threads=3)
        step(opt, model, backward(model, forward(model, np.ones(40)), 0))
        opt_copy, model_copy = clone(opt), clone(model)
        for target in (1, 2):
            grads = backward(model, forward(model, np.ones(40)), target)
            step(opt, model, grads)
            step(opt_copy, model_copy, grads)
            assert model_copy.flat.tobytes() == model.flat.tobytes()
        assert opt_copy.step_count == opt.step_count == 3
        assert len(opt_copy._adam.jobs) == 2 and opt_copy._adam.done is not opt._adam.done
        for ours, theirs in zip(opt._adam.slices, opt_copy._adam.slices):
            for a, b in zip(ours[2:], theirs[2:]):
                assert not np.shares_memory(a, b)
            for a, b in zip(ours[2:4], theirs[2:4]):
                assert a.tobytes() == b.tobytes()

    def test_adam_threads_beyond_cpus_under_frequent_switches(self):
        # more threads than CPUs, with the interpreter switching threads as
        # often as it can: the slices are disjoint, so the bytes cannot change
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            updated, reference, state = self._adam_against_reference(4)
            assert time.perf_counter() - start < 60
            assert len(state.slices) == 4
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(updated, reference):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_adam_slice_error_reaches_the_caller_and_the_next_step_runs(self, monkeypatch,
                                                                        failing):
        model = random_model([3, 4, 2], seed=5)
        grads = backward(model, forward(model, np.ones(3)), 0)
        opt = Optimizer("adam", 1e-3)
        nn._ensure_adam_state(opt, model.flat.size, threads=3)
        adam_slice = nn._adam_slice

        def fail_on_one_side(*job):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                raise FloatingPointError(f"{failing} slice")
            adam_slice(*job)

        monkeypatch.setattr(nn, "_adam_slice", fail_on_one_side)
        with pytest.raises(FloatingPointError, match=f"{failing} slice"):
            step(opt, model, grads)
        monkeypatch.undo()
        before = model.flat.copy()
        stepper = threading.Thread(target=step, args=(opt, model, grads), daemon=True)
        stepper.start()
        stepper.join(timeout=30)
        assert not stepper.is_alive()
        # all three slices moved, so every worker ran and answered once
        for part in np.array_split(model.flat != before, 3):
            assert part.all()

    def test_adam_step_holds_no_gradient_buffer(self):
        # the workers drop their jobs, views of a step's buffers, before they
        # answer; one that kept its job would keep the previous gradients
        model = init_weights([40, 16, 10], seed=1)
        opt = Optimizer("adam", 1e-3)
        nn._ensure_adam_state(opt, model.flat.size, threads=3)
        for _ in range(3):
            grads = backward(model, forward(model, np.ones(40)), 0)
            step(opt, model, grads)
            buffer = weakref.ref(grads.flat)
            del grads
            assert buffer() is None

    def test_adam_workers_end_with_their_optimizer(self):
        model = init_weights([40, 16, 10], seed=1)
        opt = Optimizer("adam", 1e-3)
        nn._ensure_adam_state(opt, model.flat.size, threads=3)
        before = set(threading.enumerate())
        step(opt, model, backward(model, forward(model, np.ones(40)), 0))
        workers = set(threading.enumerate()) - before
        assert len(workers) == 2
        del opt
        gc.collect()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("rebind", ["model-weight", "model-bias", "grad-weight",
                                        "grad-bias"])
    def test_rebound_entry_is_refused(self, kind, rebind):
        # entries are views of one buffer that step updates as a whole; a
        # rebound entry of the right shape would be skipped without a word
        model = random_model([3, 4, 2], seed=5)
        grads = backward(model, forward(model, np.ones(3)), 0)
        owner = model if rebind.startswith("model") else grads
        name = "weights" if rebind.endswith("weight") else "biases"
        entries = getattr(owner, name)
        with pytest.raises(TypeError):
            entries[1] = entries[1].copy()
        with pytest.raises(AttributeError):
            setattr(owner, name, tuple(e.copy() for e in entries))
        step(Optimizer(kind, 1e-3), model, grads)
        assert all(np.shares_memory(e, owner.flat) for e in entries)

    def test_copies_own_their_buffer(self):
        model = random_model([3, 4, 2], seed=5)
        grads = backward(model, forward(model, np.ones(3)), 0)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            step(Optimizer("sgd", 1.0), clone, copy.deepcopy(grads))
            for w, before, g in zip(clone.weights, model.weights, grads.weights):
                np.testing.assert_array_equal(w, before - g)
                assert np.shares_memory(w, clone.flat)
                assert not np.shares_memory(w, model.flat)

    def test_adam_state_belongs_to_one_model_size(self):
        opt = Optimizer("adam", 1e-3)
        small, large = random_model([3, 4, 2], seed=5), random_model([3, 5, 2], seed=5)
        step(opt, small, backward(small, forward(small, np.ones(3)), 0))
        with pytest.raises(ParameterError, match="parameters"):
            step(opt, large, backward(large, forward(large, np.ones(3)), 0))

    def test_adam_gradient_shape_checked(self):
        # SGD used to broadcast the (1, 4) gradient over the (3, 4) weight
        for kind in ("sgd", "adam"):
            model = random_model([3, 4, 2], seed=5)
            grads = backward(model, forward(model, np.ones(3)), 0)
            grads = nn.Gradients((grads.weights[0][:1], grads.weights[1]), grads.biases)
            with pytest.raises(DimensionError):
                step(Optimizer(kind, 1e-3), model, grads)


class TestInit:
    def test_seed_reproducibility(self):
        a = init_weights([10, 20, 5], seed=8)
        b = init_weights([10, 20, 5], seed=8)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bound(self):
        model = init_weights([50, 30, 10], seed=1)
        for w, fan_in in zip(model.weights, [50, 30]):
            assert np.abs(w).max() <= np.sqrt(6.0 / fan_in)

    def test_variance(self):
        # uniform(-b, b) has variance b^2/3 = 2/fan_in
        model = init_weights([400, 300, 10], seed=2)
        w = model.weights[0]
        assert abs(w.var() - 2.0 / 400) <= 0.2 * (2.0 / 400)

    def test_zero_biases(self):
        model = init_weights([4, 5, 2], seed=0)
        for b in model.biases:
            assert not b.any()

    def test_invalid_dims(self):
        with pytest.raises(ParameterError):
            init_weights([4, 0, 2], seed=0)


def test_checkpoint_roundtrip(tmp_path):
    model = random_model([7, 9, 4], seed=6)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, {"seed": 6, "policy": "exact"})
    back = load_checkpoint(path)
    assert back.layer_dims == model.layer_dims
    for a, b in zip(model.weights, back.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.biases, back.biases):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("activation", ["linear", "tanh"])
def test_checkpoint_metadata_cannot_set_activation(tmp_path, activation):
    # the sidecar names the engine's ReLU; metadata may not name another
    path = tmp_path / "model.bin"
    with pytest.raises(ParameterError, match="activation"):
        save_checkpoint(random_model([5, 6, 3], seed=7), path, {"activation": activation})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("keep", [4 + 2, 4 + 8 + 4, 4 + 8 + 12 + 8 * 7],
                         ids=["header", "dims", "weights"])
def test_truncated_checkpoint_is_rejected(tmp_path, keep):
    # MLPC then 2 of the 8 header bytes, 1 of the 3 layer dims, or 7 of the
    # first layer's 30 weights
    model = random_model([5, 6, 3], seed=8)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def write_raw_checkpoint(path, dims, n_values):
    """A version-1 checkpoint of the given dims followed by n_values zero
    float64s, written without the package and without a sidecar."""
    path.write_bytes(b"MLPC" + struct.pack(f"<II{len(dims)}I", 1, len(dims), *dims)
                     + bytes(8 * n_values))


def test_checkpoint_declaring_more_than_the_file_holds_is_rejected(tmp_path):
    # 200000 x 200000 weights would be 320 GB; the reader refuses before it
    # allocates
    path = tmp_path / "model.bin"
    write_raw_checkpoint(path, [200000, 200000], 3)
    with pytest.raises(FormatError, match=r"truncated weight block at byte 20 "
                                          r"\(wants 320000000000 bytes, 24 left\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims,n_values", [([5], 0), ([0, 3], 3)], ids=["one-dim", "zero-dim"])
def test_checkpoint_dims_that_describe_no_model_are_rejected(tmp_path, dims, n_values):
    path = tmp_path / "model.bin"
    write_raw_checkpoint(path, dims, n_values)
    with pytest.raises(FormatError, match=r"layer dims \[.*\] describe no model"):
        load_checkpoint(path)


def test_checkpoint_with_data_after_the_last_bias_block_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(random_model([5, 6, 3], seed=9), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match=f"data after the last bias block, at byte {size}"):
        load_checkpoint(path)
