from itertools import product

import numpy as np
import pytest

from subsample_nn import alsh, mc, nn
from subsample_nn.data import Dataset
from subsample_nn.errors import ParameterError
from subsample_nn.linalg import FLOPS, stream
from subsample_nn.policies import (AdaptiveDropoutPolicy, AlshPolicy,
                                   ComputePolicy, DropoutPolicy,
                                   McBackpropPolicy, RunCounts,
                                   adaptive_keep_probs, make_policy)
from subsample_nn.train import evaluate_accuracy
from test_mc import ForcedUniforms


def grads_allclose(a, b, atol=1e-12):
    for ga, gb in zip(a.weights + a.biases, b.weights + b.biases):
        if not np.allclose(ga, gb, atol=atol):
            return False
    return True


def grads_equal(a, b):
    return all(np.array_equal(ga, gb)
               for ga, gb in zip(a.weights + a.biases, b.weights + b.biases))


def backprop_flops(policy, model, trace, targets):
    with FLOPS.phase("backprop"):
        policy.backward(model, trace, targets)
    return sum(FLOPS.take()[0].values())


def near_parallel_columns_model(seed=0):
    """One hidden layer whose 4 weight columns point almost the same way, so a
    1-bit 50-table index puts every column in the query's bucket set."""
    rng = stream(seed, "parallel")
    base = rng.standard_normal(6)
    base /= np.linalg.norm(base)
    cols = np.stack([0.5 * base + 0.01 * rng.standard_normal(6) for _ in range(4)])
    model = nn.MlpModel([6, 4, 3],
                        [cols.T.copy(), rng.standard_normal((4, 3)) * 0.3],
                        [np.zeros(4), np.zeros(3)])
    return model, base


class TestExactPolicy:
    def test_bit_for_bit_forward(self):
        model = nn.init_weights([5, 8, 4], seed=1)
        x = stream(2, "x").standard_normal((3, 5))
        policy = ComputePolicy()
        trace = policy.forward(model, x)
        np.testing.assert_array_equal(trace.output, nn.forward(model, x).output)
        assert trace.keeps is None

    def test_backward_matches_engine(self):
        model = nn.init_weights([5, 8, 4], seed=1)
        x = stream(2, "x").standard_normal((3, 5))
        policy = ComputePolicy()
        trace = policy.forward(model, x)
        grads = policy.backward(model, trace, [0, 1, 2])
        assert grads_allclose(grads, nn.backward(model, trace, [0, 1, 2]), atol=0)


class TestDropout:
    def test_keep_all_is_exact_bitwise(self):
        model = nn.init_weights([6, 10, 3], seed=3)
        x = stream(4, "x").standard_normal(6)
        policy = DropoutPolicy(p_keep=1.0)
        policy.bind(model, 0, RunCounts())
        trace = policy.forward(model, x)
        np.testing.assert_array_equal(trace.output, nn.forward(model, x).output)
        grads = policy.backward(model, trace, 1)
        exact = nn.backward(model, nn.forward(model, x), 1)
        assert grads_allclose(grads, exact, atol=0)

    def test_keep_all_charges_exact_backprop_flops(self):
        # no delta is propagated below layer 0, so none may be charged
        model = nn.init_weights([784, 128, 10], seed=3)
        x = stream(4, "x").random(784)
        policy = DropoutPolicy(p_keep=1.0)
        policy.bind(model, 0, RunCounts())
        dropout_flops = backprop_flops(policy, model, policy.forward(model, x), 1)
        exact = ComputePolicy()
        exact_flops = backprop_flops(exact, model, exact.forward(model, x), 1)
        assert dropout_flops == exact_flops == 2 * (784 * 128 + 128 * 10 + 10 * 128)

    def test_masked_trace_backward_charges_kept_only(self):
        # the engine's default product reads the trace's keeps: each hidden
        # layer's products cost 2 * fan_in per kept node, the output layer's
        # are charged in full, and no delta is propagated below layer 0
        model = nn.init_weights([6, 8, 8, 3], seed=8)
        policy = DropoutPolicy(p_keep=0.5)
        policy.bind(model, 9, RunCounts())
        x = stream(10, "x").standard_normal((4, 6))
        trace = policy.forward(model, x)
        kept = [np.count_nonzero(keep) for keep in trace.keeps]
        assert 0 < kept[0] < 4 * 8 and 0 < kept[1] < 4 * 8
        expected = 2 * 6 * kept[0] + 2 * (2 * 8 * kept[1]) + 2 * (2 * 4 * 8 * 3)
        with FLOPS.phase("backprop"):
            nn.backward(model, trace, [0, 1, 2, 0])
        assert FLOPS.take()[0]["backprop"] == expected
        assert backprop_flops(policy, model, trace, [0, 1, 2, 0]) == expected

    def test_backward_uses_masks_of_its_own_trace(self):
        # a second forward before the backward must not change the gradients
        model = nn.init_weights([6, 12, 12, 3], seed=5)
        x1, x2 = stream(6, "x").standard_normal((2, 2, 6))
        first, second = DropoutPolicy(p_keep=0.5), DropoutPolicy(p_keep=0.5)
        first.bind(model, 7, RunCounts())
        second.bind(model, 7, RunCounts())
        trace = first.forward(model, x1)
        first.forward(model, x2)
        stale = first.backward(model, trace, [0, 2])
        fresh = second.backward(model, second.forward(model, x1), [0, 2])
        assert grads_equal(stale, fresh)

    def test_masked_consistency(self):
        # unselected nodes must have zero activation, zero delta, zero dW column
        model = nn.init_weights([6, 12, 3], seed=5)
        policy = DropoutPolicy(p_keep=0.4)
        policy.bind(model, 7, RunCounts())
        x = stream(6, "x").standard_normal((2, 6))
        trace = policy.forward(model, x)
        mask = trace.keeps[0] != 0
        assert not trace.activations[1][~mask].any()
        grads = policy.backward(model, trace, [0, 2])
        dead_cols = ~mask.any(axis=0)
        assert not grads.weights[0][:, dead_cols].any()
        assert not grads.biases[0][dead_cols].any()

    def test_inverted_scaling(self):
        model = nn.MlpModel([2, 3, 2], [np.ones((2, 3)), np.ones((3, 2))],
                            [np.zeros(3), np.zeros(2)])
        policy = DropoutPolicy(p_keep=0.5)
        policy.bind(model, 1, RunCounts())
        trace = policy.forward(model, np.ones(2))
        kept = trace.keeps[0][0] != 0
        np.testing.assert_allclose(trace.activations[1][0][kept], 2.0 / 0.5)

    def test_invalid_p(self):
        with pytest.raises(ParameterError):
            DropoutPolicy(p_keep=0.0)


class TestAdaptiveDropout:
    def test_keep_probs_at_zero(self):
        np.testing.assert_allclose(adaptive_keep_probs(np.zeros(5), 0.0, 0.0), 0.5)

    def test_keep_probs_saturate(self):
        probs = adaptive_keep_probs(np.zeros(4), 0.0, 1e4)
        np.testing.assert_array_equal(probs, np.ones(4))

    def test_monotone_in_preactivation(self):
        z = np.linspace(-3, 3, 50)
        probs = adaptive_keep_probs(z, 1.0, 0.0)
        assert (np.diff(probs) >= 0).all()

    def test_clamped_low(self):
        assert adaptive_keep_probs(np.array([-1e4]), 1.0, 0.0)[0] == 0.01

    @staticmethod
    def two_branch_sigmoid(x):
        """The masked two-branch sigmoid, kept as the bitwise reference."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_keep_probs_match_two_branch_sigmoid_bitwise(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 710.0, -710.0, 745.0, -745.0,
                 np.inf, -np.inf, np.nan, -np.nan]
        rng = stream(12, "z")
        z = np.concatenate([edges] + [rng.standard_normal(4000) * s for s in (1, 40, 800)])
        with np.errstate(all="ignore"):
            expected = np.clip(self.two_branch_sigmoid(z), 0.01, 1.0)
            got = adaptive_keep_probs(z, 1.0, 0.0)
        assert got.tobytes() == expected.tobytes()

    def test_saturated_beta_is_exact_bitwise(self):
        model = nn.init_weights([5, 7, 3], seed=8)
        x = stream(9, "x").standard_normal((2, 5))
        policy = AdaptiveDropoutPolicy(alpha=0.0, beta=1000.0)
        policy.bind(model, 0, RunCounts())
        trace = policy.forward(model, x)
        np.testing.assert_array_equal(trace.output, nn.forward(model, x).output)
        grads = policy.backward(model, trace, [0, 1])
        exact = nn.backward(model, nn.forward(model, x), [0, 1])
        assert grads_allclose(grads, exact, atol=0)

    def test_overhead_charged(self):
        model = nn.init_weights([5, 7, 3], seed=8)
        policy = AdaptiveDropoutPolicy()
        policy.bind(model, 0, RunCounts())
        with FLOPS.phase("feedforward"):
            policy.forward(model, np.ones(5))
        assert FLOPS.take()[0]["policy_overhead"] > 0


class TestAlshPolicy:
    def test_toy_saturation_is_exact_bitwise(self):
        model, base = near_parallel_columns_model()
        policy = AlshPolicy(K=1, L=50)
        policy.bind(model, 11, RunCounts())
        trace = policy.forward(model, base)
        assert trace.keeps[0].all()  # every column is active
        np.testing.assert_array_equal(trace.output, nn.forward(model, base).output)

    def test_forced_active_set_masks_gradients(self):
        model = nn.init_weights([5, 4, 3], seed=12)
        x = stream(13, "x").standard_normal(5)
        # biases that keep the active columns' pre-activations positive, so
        # the ReLU passes them
        model.biases[0][[0, 2]] = 1.0 + np.abs(x) @ np.abs(model.weights[0][:, [0, 2]])

        class FixedMask(AlshPolicy):
            def _layer_mask(self, model, k, a_prev):
                keep = np.zeros((a_prev.shape[0], 4))
                keep[:, [0, 2]] = 1.0
                return keep, None

        policy = FixedMask()
        policy.bind(model, 0, RunCounts())
        trace = policy.forward(model, x)
        assert (trace.activations[1][:, [0, 2]] > 0).all()
        assert not trace.activations[1][:, [1, 3]].any()
        grads = policy.backward(model, trace, 1)
        assert not grads.weights[0][:, [1, 3]].any()
        assert not grads.biases[0][[1, 3]].any()
        # active columns carry real gradient signal
        assert np.abs(grads.weights[0][:, [0, 2]]).max() > 0

    def test_empty_probe_falls_back_to_exact(self):
        model = nn.init_weights([5, 4, 3], seed=14)
        policy = AlshPolicy()
        counts = RunCounts()
        policy.bind(model, 0, counts)
        policy.indexes[0].signatures[:] = -1  # no bucket id a query can match
        x = stream(15, "x").standard_normal(5)
        trace = policy.forward(model, x)
        assert counts.fallback_events == 1
        np.testing.assert_array_equal(trace.output, nn.forward(model, x).output)

    def test_active_fraction_well_below_one(self):
        model = nn.init_weights([64, 512, 10], seed=16)
        policy = AlshPolicy()  # defaults K=6, L=5
        policy.bind(model, 1, RunCounts())
        rng = stream(17, "x")
        fractions = [policy.forward(model, rng.standard_normal(64)).keeps[0].mean()
                     for _ in range(20)]
        assert np.mean(fractions) < 0.5

    def test_rebuild_cadence(self):
        model = nn.init_weights([6, 8, 3], seed=18)
        policy = AlshPolicy()
        counts = RunCounts()
        policy.bind(model, 0, counts)
        policy.on_samples_seen(model, range(1, 51))
        assert counts.rebuilds == 0
        before = [idx.signatures for idx in policy.indexes]
        policy.on_samples_seen(model, range(51, 101))
        assert counts.rebuilds == 1
        # weights unchanged, same projections: identical buckets
        assert all(np.array_equal(idx.signatures, sig)
                   for idx, sig in zip(policy.indexes, before))

    def test_no_hidden_layer_means_no_rebuilds(self):
        # a model without hidden layers has no index to rebuild
        model = nn.init_weights([6, 3], seed=18)
        policy = AlshPolicy()
        counts = RunCounts()
        policy.bind(model, 0, counts)
        policy.on_samples_seen(model, range(1, 101))
        assert policy.indexes == [] and counts.rebuilds == 0

    def test_inference_is_exact_forward(self, monkeypatch):
        # evaluation takes no policy: a bound hash policy is never queried
        model, base = near_parallel_columns_model(seed=1)
        policy = AlshPolicy()
        policy.bind(model, 0, RunCounts())
        queries = []
        monkeypatch.setattr(alsh, "query_active", lambda *args: queries.append(args))
        features = base[None, :] + stream(1, "eval").standard_normal((20, 6))
        preds = np.argmax(nn.forward(model, features).output, axis=1)
        labels = np.arange(20) % 3
        accuracy = evaluate_accuracy(model, Dataset(features, labels, 3))
        assert accuracy == (preds == labels).mean()
        assert queries == []


class TestMcBackprop:
    def test_full_budget_is_exact(self):
        model = nn.init_weights([3, 4, 2], seed=20)
        x = stream(21, "x").standard_normal(3)
        policy = McBackpropPolicy(k_samples=4)
        policy.bind(model, 0, RunCounts())
        trace = policy.forward(model, x)
        np.testing.assert_array_equal(trace.output, nn.forward(model, x).output)
        grads = policy.backward(model, trace, 1)
        assert grads_allclose(grads, nn.backward(model, trace, 1), atol=1e-12)

    def test_full_budget_is_exact_batched(self):
        model = nn.init_weights([3, 4, 3], seed=22)
        x = stream(23, "x").standard_normal((3, 3))
        policy = McBackpropPolicy(k_samples=4)  # >= batch and >= widths
        policy.bind(model, 0, RunCounts())
        trace = policy.forward(model, x)
        grads = policy.backward(model, trace, [0, 1, 2])
        assert grads_allclose(grads, nn.backward(model, trace, [0, 1, 2]), atol=1e-12)

    def test_unbiased_delta_propagation_by_enumeration(self):
        # batch 1: weight-gradient products are exact (singleton batch axis);
        # the only sampled product is the delta propagation through the output
        # weights, enumerated exhaustively below.
        model = nn.init_weights([2, 3, 3], seed=24)
        x = stream(25, "x").standard_normal(2)
        trace = nn.forward(model, x)
        target = 1
        exact = nn.backward(model, trace, target)
        delta_out = nn.output_delta(trace, target)
        probs = mc.optimal_probs_bernoulli(delta_out, model.weights[1].T, 2)

        mean_dw0 = np.zeros_like(model.weights[0])
        total_weight = 0.0
        for zs in product((0, 1), repeat=3):
            weight = float(np.prod([p if z else 1 - p for z, p in zip(zs, probs)]))
            if weight == 0.0:
                continue
            uniforms = [0.0] + [0.0 if z else 1 - 1e-12 for z in zs] + [0.0]
            policy = McBackpropPolicy(k_samples=2)
            policy.bind(model, 0, RunCounts())
            policy._rng = ForcedUniforms(uniforms)
            grads = policy.backward(model, trace, target)
            mean_dw0 += weight * grads.weights[0]
            total_weight += weight
        assert abs(total_weight - 1.0) <= 1e-12
        np.testing.assert_allclose(mean_dw0, exact.weights[0], atol=1e-12)

    def test_unbiased_batch_sampling_by_enumeration(self):
        # batch 3 with k=2: both weight-gradient products sample the batch
        # axis; the delta propagation has full budget and stays exact.
        model = nn.init_weights([2, 2, 2], seed=26)
        x = stream(27, "x").standard_normal((3, 2))
        targets = [0, 1, 0]
        trace = nn.forward(model, x)
        exact = nn.backward(model, trace, targets)
        delta_out = nn.output_delta(trace, targets)
        upstream = delta_out @ model.weights[1].T
        delta1 = upstream * (trace.activations[1] > 0.0)
        probs_dw1 = mc.optimal_probs_bernoulli(trace.activations[1].T, delta_out, 2)
        probs_dw0 = mc.optimal_probs_bernoulli(trace.activations[0].T, delta1, 2)

        mean_dw1 = np.zeros_like(model.weights[1])
        mean_dw0 = np.zeros_like(model.weights[0])
        total_weight = 0.0
        for z1 in product((0, 1), repeat=3):
            w1 = float(np.prod([p if z else 1 - p for z, p in zip(z1, probs_dw1)]))
            if w1 == 0.0:
                continue
            for z0 in product((0, 1), repeat=3):
                w0 = float(np.prod([p if z else 1 - p for z, p in zip(z0, probs_dw0)]))
                if w0 == 0.0:
                    continue
                uniforms = ([0.0 if z else 1 - 1e-12 for z in z1]
                            + [0.0, 0.0]
                            + [0.0 if z else 1 - 1e-12 for z in z0])
                policy = McBackpropPolicy(k_samples=2)
                policy.bind(model, 0, RunCounts())
                policy._rng = ForcedUniforms(uniforms)
                grads = policy.backward(model, trace, targets)
                mean_dw1 += w1 * w0 * grads.weights[1]
                mean_dw0 += w1 * w0 * grads.weights[0]
                total_weight += w1 * w0
        assert abs(total_weight - 1.0) <= 1e-12
        np.testing.assert_allclose(mean_dw1, exact.weights[1], atol=1e-12)
        np.testing.assert_allclose(mean_dw0, exact.weights[0], atol=1e-12)

    def test_overhead_exceeds_savings_at_batch_one(self):
        model = nn.init_weights([512, 512, 10], seed=28)
        policy = McBackpropPolicy(k_samples=10)
        counts = RunCounts()
        policy.bind(model, 0, counts)
        x = stream(29, "x").standard_normal(512)
        trace = policy.forward(model, x)
        with FLOPS.phase("backprop"):
            policy.backward(model, trace, 3)
        saved = counts.replaced_exact_flops - counts.sampled_product_flops
        assert FLOPS.take()[0]["policy_overhead"] > saved

    def test_k_exceeding_width_rejected_at_bind(self):
        model = nn.init_weights([4, 3, 2], seed=0)
        with pytest.raises(ParameterError):
            McBackpropPolicy(k_samples=5).bind(model, 0, RunCounts())


@pytest.mark.parametrize("batch", [1, 5], ids=["1-relu", "5-relu"])
@pytest.mark.parametrize("kind,params", [("dropout", {"p_keep": 0.5}),
                                         ("adaptive_dropout", {}), ("alsh", {})])
def test_keep_contract(kind, params, batch):
    # a kept node's keep entry is at least 1; a dropped node's activation is
    # exactly +0.0, also where its discarded pre-activation is negative
    model = nn.init_weights([20, 64, 64, 3], seed=30)
    policy = make_policy(kind, **params)
    policy.bind(model, 31, RunCounts())
    trace = policy.forward(model, stream(32, "x").standard_normal((batch, 20)))
    assert len(trace.keeps) == 2
    for keep, act in zip(trace.keeps, trace.activations[1:-1]):
        assert keep.shape == act.shape == (batch, 64)
        assert (keep[keep != 0] >= 1.0).all()
        assert (keep == 0).any()
        dropped = act[keep == 0]
        assert not dropped.any() and not np.signbit(dropped).any()


def test_dropped_node_with_infinite_preactivation_stays_zero():
    # a selector that computed z may hand back a non-finite entry on a node it
    # dropped; the node's activation, delta and weight-gradient column are zero
    model = nn.init_weights([5, 4, 3], seed=33)

    class InfiniteDropped(ComputePolicy):
        def _layer_mask(self, model, k, a_prev):
            z = a_prev @ model.weights[k] + model.biases[k]
            z[:, 1] = np.inf
            keep = np.ones_like(z)
            keep[:, 1] = 0.0
            return keep, z

    policy = InfiniteDropped()
    policy.bind(model, 0, RunCounts())
    x = stream(34, "x").standard_normal((2, 5))
    with np.errstate(invalid="ignore"):  # inf * 0 before the np.where picks 0
        trace = policy.forward(model, x)
    assert not trace.activations[1][:, 1].any()
    assert np.isfinite(trace.output).all()
    grads = policy.backward(model, trace, [0, 2])
    assert not grads.weights[0][:, 1].any() and grads.biases[0][1] == 0.0
    assert np.isfinite(grads.flat).all()


@pytest.mark.parametrize("kind", ["dropout", "adaptive_dropout", "alsh"])
def test_layer_mask_runs_in_policy_overhead(kind):
    model = nn.init_weights([6, 8, 8, 3], seed=1)
    policy = make_policy(kind)
    policy.bind(model, 0, RunCounts())
    layer_mask, phases = policy._layer_mask, []

    def recording(*args):
        phases.append(FLOPS._open[-1])  # the innermost open phase
        return layer_mask(*args)

    policy._layer_mask = recording
    with FLOPS.phase("feedforward"):
        policy.forward(model, stream(2, "x").standard_normal((3, 6)))
    FLOPS.take()
    assert phases == ["policy_overhead"] * 2  # one call per hidden layer


class TestFactory:
    def test_known_kinds(self):
        for kind in ("exact", "dropout", "adaptive_dropout", "alsh", "mc"):
            assert make_policy(kind).name == kind

    def test_alsh_parameters_forwarded(self):
        policy = make_policy("alsh", K=4, L=7, m=2, C=0.5)
        assert policy.params.bits == 4
        assert policy.params.tables == 7
        assert policy.params.pad_terms == 2
        assert policy.params.norm_bound == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_policy("winner_take_all")
        with pytest.raises(ParameterError):
            make_policy(["mc"])  # a JSON list from --set policy.kind=[...]

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            make_policy("dropout", q_keep=0.5)

    @pytest.mark.parametrize("build,message", [
        (lambda: make_policy("mc", k_samples=1.5), "policy.k_samples must be an integer"),
        (lambda: make_policy("alsh", K=1.5), "policy.K must be an integer"),
        (lambda: McBackpropPolicy(k_samples=1.5), "policy.k_samples must be an integer"),
        (lambda: DropoutPolicy(p_keep="abc"), "policy.p_keep must be a number"),
        (lambda: make_policy("alsh", K=True), "policy.K must be an integer"),
        (lambda: DropoutPolicy(p_keep=True), "policy.p_keep must be a number"),
        (lambda: make_policy("adaptive_dropout", alpha=float("nan")),
         "policy.alpha must be a number"),
    ], ids=["make_policy-mc", "make_policy-alsh", "McBackpropPolicy", "DropoutPolicy",
            "make_policy-alsh-boolean", "DropoutPolicy-boolean", "make_policy-adaptive-nan"])
    def test_library_path_converts_like_the_cli(self, build, message):
        with pytest.raises(ParameterError, match=message):
            build()

    def test_numeric_string_parameter_is_converted(self):
        assert make_policy("alsh", K="4").params.bits == 4

    @pytest.mark.parametrize("kind,params,described", [
        ("exact", {}, {"kind": "exact"}),
        ("dropout", {}, {"kind": "dropout", "p_keep": 0.05}),
        ("dropout", {"p_keep": 0.5}, {"kind": "dropout", "p_keep": 0.5}),
        ("adaptive_dropout", {}, {"kind": "adaptive_dropout", "alpha": 1.0, "beta": 0.0}),
        ("adaptive_dropout", {"alpha": 2, "beta": -1},
         {"kind": "adaptive_dropout", "alpha": 2.0, "beta": -1.0}),
        ("alsh", {}, {"kind": "alsh", "K": 6, "L": 5, "m": 3, "C": 0.83}),
        ("alsh", {"K": 4, "L": 7, "m": 2, "C": 0.5},
         {"kind": "alsh", "K": 4, "L": 7, "m": 2, "C": 0.5}),
        ("mc", {}, {"kind": "mc", "k_samples": 10}),
        ("mc", {"k_samples": 3}, {"kind": "mc", "k_samples": 3}),
    ])
    def test_describe(self, kind, params, described):
        got = make_policy(kind, **params).describe()
        assert got == described
        assert list(got) == list(described)
        assert [type(v) for v in got.values()] == [type(v) for v in described.values()]
