import numpy as np
import pytest

from subsample_nn import nn
from subsample_nn.analysis import (PREDICT_ROWS, ConfusionMatrix,
                                   build_theorem1_network, confusion,
                                   label_concentration, lemma1_error, predict,
                                   random_active_sets, theorem1_check,
                                   write_labels_csv)
from subsample_nn.data import synth_blobs
from subsample_nn.errors import DimensionError, ParameterError
from subsample_nn.linalg import FLOPS, stream

RATIO_TABLE_C5 = [0.2, 0.44, 0.72, 1.07, 1.48, 1.98]  # reference rounding for c=5


def all_active_sets(model):
    return [np.ones(w.shape, dtype=bool) for w in model.weights]


class TestLemmaRecursion:
    def test_all_active_zero_error(self):
        model = nn.init_weights([4, 5, 3], seed=0)
        profile = lemma1_error(model, np.ones(4), all_active_sets(model))
        for e in profile.direct:
            np.testing.assert_allclose(e, 0.0, atol=1e-14)

    def test_single_layer_omission_sum(self):
        # with one layer, the error of node j is exactly the omitted input mass
        model = nn.init_weights([6, 4], seed=1)
        x = stream(2, "x").standard_normal(6)
        omitted = [1, 4]
        mask = np.ones((6, 4), dtype=bool)
        mask[omitted] = False
        profile = lemma1_error(model, x, [mask])
        expected = x[omitted] @ model.weights[0][omitted, :]
        np.testing.assert_allclose(profile.direct[0], expected, atol=1e-12)

    def test_recursion_matches_direct_on_random_fixtures(self):
        rng = stream(3, "fixtures")
        for i in range(25):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
            model = nn.init_weights(dims, seed=100 + i)
            sets = random_active_sets(model, seed=200 + i,
                                      keep_fraction=float(rng.uniform(0.3, 0.9)))
            x = rng.standard_normal(dims[0])
            profile = lemma1_error(model, x, sets)
            for direct, rec in zip(profile.direct, profile.recursion):
                scale = max(np.abs(direct).max(), 1.0)
                assert np.abs(direct - rec).max() <= 1e-10 * scale

    def test_dropped_node_error_is_its_pre_bias_activation(self):
        # a node whose mask column is all False keeps only its bias, so its
        # direct error is the exact activation minus the bias
        model = nn.init_weights([5, 4, 3], seed=4)
        for k, b in enumerate(model.biases):
            b[:] = stream(5, "b", k).standard_normal(b.shape)
        x = stream(6, "x").standard_normal(5)
        masks = all_active_sets(model)
        masks[0][:, 2] = False
        masks[1][:, 0] = False
        profile = lemma1_error(model, x, masks)
        hidden = x @ model.weights[0] + model.biases[0]
        np.testing.assert_allclose(profile.direct[0][2], (x @ model.weights[0])[2], rtol=1e-12)
        np.testing.assert_allclose(profile.direct[1][0], (hidden @ model.weights[1])[0],
                                   rtol=1e-12)
        assert profile.approx[0][2] == model.biases[0][2]
        np.testing.assert_allclose(profile.direct[0][[0, 1, 3]], 0.0, atol=1e-14)
        for direct, rec in zip(profile.direct, profile.recursion):
            np.testing.assert_allclose(rec, direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shape", [(6,), (4, 6), (6, 4, 1)])
    def test_misshapen_mask_rejected(self, shape):
        model = nn.init_weights([6, 4], seed=1)
        with pytest.raises(DimensionError, match=r"keep mask shape"):
            lemma1_error(model, np.ones(6), [np.ones(shape, dtype=bool)])

    def test_weights_are_read_as_linear_maps(self):
        # the chain applies no activation: negative hidden values pass through
        model = nn.init_weights([3, 4, 2], seed=0)
        x = stream(7, "x").standard_normal(3)
        hidden = x @ model.weights[0] + model.biases[0]
        assert (hidden < 0).any()
        profile = lemma1_error(model, x, all_active_sets(model))
        np.testing.assert_array_equal(profile.exact[0], hidden)
        np.testing.assert_array_equal(profile.exact[1], hidden @ model.weights[1]
                                      + model.biases[1])

    @pytest.mark.parametrize("keep_fraction", [1.5, 0.0, -0.2, float("nan")])
    def test_keep_fraction_outside_unit_interval_is_rejected(self, keep_fraction):
        model = nn.init_weights([4, 3, 2], seed=0)
        with pytest.raises(ParameterError, match="keep_fraction"):
            random_active_sets(model, seed=0, keep_fraction=keep_fraction)


class TestRatioFixture:
    def test_five_of_six_active(self):
        model, sets = build_theorem1_network(c=5, depth=3, width=6)
        assert all(mask.shape == (6, 6) and (mask.sum(axis=0) == 5).all() for mask in sets)

    def test_ratio_assumption_holds_exactly(self):
        model, sets = build_theorem1_network(c=5, depth=4, width=12)
        a = np.ones(12)
        for k in range(model.n_layers):
            w = model.weights[k]
            for j in range(w.shape[1]):
                active = sets[k][:, j]
                ratio = (a[active] @ w[active, j]) / (a[~active] @ w[~active, j])
                assert abs(ratio - 5.0) <= 1e-12
            a = a @ w + model.biases[k]

    def test_c1_width2_symmetric(self):
        model, sets = build_theorem1_network(c=1, depth=2, width=2)
        rows = theorem1_check(model, sets, c=1)
        assert abs(rows[0]["ratio"] - 1.0) <= 1e-12

    def test_divisibility_enforced(self):
        with pytest.raises(ParameterError):
            build_theorem1_network(c=5, depth=3, width=7)


class TestRatioLaw:
    def test_c5_reference_table(self):
        model, sets = build_theorem1_network(c=5, depth=6, width=12)
        rows = theorem1_check(model, sets, c=5)
        for row, reference in zip(rows, RATIO_TABLE_C5):
            assert abs(row["ratio"] - reference) <= 0.01

    def test_exact_values(self):
        model, sets = build_theorem1_network(c=5, depth=6, width=12)
        rows = theorem1_check(model, sets, c=5)
        assert abs(rows[0]["ratio"] - 0.2) <= 1e-9  # k=1 is 1/c
        assert abs(rows[5]["ratio"] - 1.985984) <= 1e-9  # (6/5)^6 - 1

    @pytest.mark.parametrize("c", [1, 2, 5, 10])
    def test_law_holds_to_depth_eight(self, c):
        model, sets = build_theorem1_network(c=c, depth=8, width=4 * (c + 1))
        rows = theorem1_check(model, sets, c=c)
        for row in rows:
            rel = abs(row["ratio"] - row["expected_ratio"]) / row["expected_ratio"]
            assert rel <= 1e-9

    def test_ratios_strictly_increase_with_depth(self):
        model, sets = build_theorem1_network(c=5, depth=7, width=6)
        rows = theorem1_check(model, sets, c=5)
        ratios = [row["ratio"] for row in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestConfusion:
    def test_perfect_model_is_diagonal(self):
        ds = synth_blobs(300, 8, 3, separation=12.0, seed=4)
        model = nn.init_weights([8, 32, 3], seed=5)
        from subsample_nn.nn import Optimizer, backward, forward, step
        opt = Optimizer("adam", 1e-2)
        for epoch in range(30):
            trace = forward(model, ds.features)
            step(opt, model, backward(model, trace, ds.labels))
        cm = confusion(model, ds)
        assert cm.accuracy == 1.0
        assert np.trace(cm.counts) == cm.total

    def test_constant_prediction_single_column(self):
        ds = synth_blobs(100, 4, 3, separation=3.0, seed=6)
        model = nn.MlpModel([4, 3], [np.zeros((4, 3))],
                            [np.array([0.0, 5.0, 0.0])])
        cm = confusion(model, ds)
        hist = cm.predicted_histogram()
        assert hist[1] == cm.total
        assert (hist[[0, 2]] == 0).all()

    def test_trace_over_total_is_accuracy(self):
        ds = synth_blobs(200, 5, 4, separation=2.0, seed=7)
        model = nn.init_weights([5, 8, 4], seed=8)
        cm = confusion(model, ds)
        preds = np.argmax(nn.forward(model, ds.features).output, axis=1)
        assert cm.accuracy == (preds == ds.labels).mean()
        assert cm.total == len(ds)


class TestPredict:
    @pytest.mark.parametrize("rows", [0, 1, PREDICT_ROWS - 1, PREDICT_ROWS, PREDICT_ROWS + 1,
                                      2 * PREDICT_ROWS + 3])
    def test_equals_the_whole_batch_argmax(self, rows):
        model = nn.init_weights([6, 16, 16, 5], seed=9)
        x = stream(10, "predict-x").standard_normal((rows, 6))
        labels = predict(model, x)
        assert labels.shape == (rows,)
        np.testing.assert_array_equal(labels, np.argmax(nn.forward(model, x).output, axis=1))

    def test_blocks_charge_the_whole_batch_flops(self):
        model = nn.init_weights([6, 16, 16, 5], seed=9)
        x = stream(10, "predict-x").standard_normal((2 * PREDICT_ROWS + 3, 6))
        with FLOPS.phase("whole"):
            nn.forward(model, x)
        with FLOPS.phase("blocks"):
            predict(model, x)
        flops = FLOPS.take()[0]
        assert flops["blocks"] == flops["whole"] == 2 * len(x) * (6 * 16 + 16 * 16 + 16 * 5)


def labels_csv_ratios(cm, tmp_path):
    """The ratio column labels.csv holds for cm's predictions, as floats."""
    path = tmp_path / "labels.csv"
    write_labels_csv(cm.predicted_histogram(), path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["label", "predicted_count", "ratio"]
    return np.array([float(ratio) for _, _, ratio in rows[1:]])


class TestLabelConcentration:
    """The distinct-label count, and the shares labels.csv writes."""

    def test_uniform_predictions(self, tmp_path):
        cm = ConfusionMatrix(np.full((10, 10), 1, dtype=np.int64))
        distinct = label_concentration(cm)
        assert type(distinct) is int and distinct == 10
        np.testing.assert_allclose(labels_csv_ratios(cm, tmp_path), 0.1)

    def test_single_class(self, tmp_path):
        counts = np.zeros((10, 10), dtype=np.int64)
        counts[:, 4] = 3
        cm = ConfusionMatrix(counts)
        assert label_concentration(cm) == 1
        assert labels_csv_ratios(cm, tmp_path)[4] == 1.0

    def test_ratios_sum_to_one(self, tmp_path):
        rng = stream(9, "lc")
        cm = ConfusionMatrix(rng.integers(0, 20, (10, 10)))
        assert abs(labels_csv_ratios(cm, tmp_path).sum() - 1.0) <= 1e-12

    def test_no_predictions_write_zero_shares(self, tmp_path):
        cm = ConfusionMatrix(np.zeros((3, 3), dtype=np.int64))
        assert label_concentration(cm) == 0
        write_labels_csv(cm.predicted_histogram(), tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_text().splitlines()[1:] == [
            "0,0,0.0", "1,0,0.0", "2,0,0.0"]
