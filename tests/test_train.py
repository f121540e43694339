import json

import numpy as np
import pytest

from subsample_nn import alsh, cli
from subsample_nn.data import synth_blobs, split
from subsample_nn.linalg import FLOPS
from subsample_nn.nn import Optimizer, init_weights
from subsample_nn.policies import make_policy
from subsample_nn.train import train


def blob_split(seed=0):
    ds = synth_blobs(900, 16, 3, separation=10.0, seed=seed)
    return split(ds, 600, 150, 150, seed=seed)


def test_separable_blobs_reach_full_accuracy():
    sp = blob_split()
    model = init_weights([16, 32, 3], seed=1)
    report = train(model, sp, make_policy("exact"), Optimizer("adam", 1e-3),
                   epochs=3, batch_size=1, seed=2)
    assert report.test_accuracy == 1.0


def test_zero_epochs_keeps_model_and_reports_baseline():
    sp = blob_split()
    model = init_weights([16, 32, 3], seed=1)
    snapshot = [w.copy() for w in model.weights]
    report = train(model, sp, make_policy("exact"), Optimizer("adam", 1e-3),
                   epochs=0, batch_size=1, seed=2)
    assert len(report.val_accuracy) == 1
    for w, s in zip(model.weights, snapshot):
        np.testing.assert_array_equal(w, s)


def test_empty_test_set_gives_a_zero_confusion():
    ds = synth_blobs(300, 16, 3, separation=10.0, seed=0)
    sp = split(ds, 200, 0, 100, seed=0)
    report = train(init_weights([16, 32, 3], seed=1), sp, make_policy("exact"),
                   Optimizer("adam", 1e-3), epochs=1, batch_size=1, seed=2)
    assert report.confusion == [[0, 0, 0]] * 3
    assert report.test_accuracy == 0.0
    assert report.distinct_predicted_labels == 0


def test_same_seed_reproduces_summary_bytes():
    outputs = []
    for _ in range(2):
        sp = blob_split()
        model = init_weights([16, 32, 3], seed=1)
        report = train(model, sp, make_policy("dropout", p_keep=0.5),
                       Optimizer("adam", 1e-3), epochs=2, batch_size=1, seed=5)
        outputs.append(json.dumps(report.summary_dict(), sort_keys=True))
    assert outputs[0] == outputs[1]


def test_batched_training_runs_and_counts_phases():
    sp = blob_split()
    model = init_weights([16, 32, 3], seed=1)
    report = train(model, sp, make_policy("mc", k_samples=8),
                   Optimizer("adam", 1e-3), epochs=2, batch_size=20, seed=3)
    assert report.phase_flops["feedforward"] > 0
    assert report.phase_flops["backprop"] > 0
    assert report.phase_flops["policy_overhead"] > 0
    assert report.total_flops == sum(report.phase_flops.values())
    total_phase_seconds = sum(report.phase_seconds.values())
    assert total_phase_seconds <= report.total_seconds
    assert report.sampled_product_flops < report.replaced_exact_flops


@pytest.mark.parametrize("kind", ["exact", "dropout", "adaptive_dropout", "alsh", "mc"])
def test_phases_attribute_every_flop(kind):
    sp = split(synth_blobs(500, 16, 3, separation=10.0, seed=0), 300, 100, 100, seed=0)
    model = init_weights([16, 32, 3], seed=1)
    policy = make_policy(kind, k_samples=8) if kind == "mc" else make_policy(kind)
    # a phase around the run gets whatever train charges outside its own phases
    with FLOPS.phase("outside"):
        report = train(model, sp, policy, Optimizer("adam", 1e-3), epochs=1, batch_size=1,
                       seed=6)
    FLOPS.take()
    assert report.phase_flops.pop("outside") == 0
    assert sum(report.phase_flops.values()) == report.total_flops
    # validation before and after the epoch, then the test set: 300 exact forwards
    assert report.phase_flops["eval"] == 300 * 2 * (16 * 32 + 32 * 3)


def test_alsh_run_reports_sparsity_and_rebuilds():
    sp = blob_split()
    model = init_weights([16, 32, 3], seed=1)
    report = train(model, sp, make_policy("alsh"), Optimizer("adam", 1e-3),
                   epochs=1, batch_size=1, seed=4)
    assert report.active_set_fraction is not None
    assert 0.0 < report.active_set_fraction < 1.0
    assert report.rebuilds == 6  # 600 samples seen at cadence 100
    assert len(report.val_accuracy) == 2


def counter_run(kind, batch_size, epochs, **params):
    """A 16-32-32-3 run on 300/100/100 blobs, seed 6."""
    sp = split(synth_blobs(500, 16, 3, separation=10.0, seed=0), 300, 100, 100, seed=0)
    model = init_weights([16, 32, 32, 3], seed=1)
    return train(model, sp, make_policy(kind, **params), Optimizer("adam", 1e-3),
                 epochs=epochs, batch_size=batch_size, seed=6)


def test_mc_counts_sampled_and_replaced_backprop_flops():
    # MC samples every backprop product: the sampled FLOPs are the whole phase,
    # and the products they replace are the exact run's
    mc = counter_run("mc", 7, 2, k_samples=8)
    exact = counter_run("exact", 7, 2)
    assert mc.sampled_product_flops == mc.phase_flops["backprop"] == 2383424
    assert mc.replaced_exact_flops == exact.phase_flops["backprop"] == 3302400


@pytest.mark.parametrize("batch,flops", [(1, 22166144), (7, 12049920), (20, 4538880)])
def test_mc_sampled_flops_counter_equals_the_metered_backprop(tmp_path, batch, flops):
    # the counter adds each SamplePlan's flops, the meter what each product charged
    sets = ["dataset.train_n=200", "dataset.test_n=50", "dataset.val_n=50",
            "architecture.hidden_width=32", "epochs=2", "policy.kind=mc",
            "policy.k_samples=4", f"batch_size={batch}"]
    report = cli.run_training(cli.load_config(None, sets), tmp_path)
    assert report.sampled_product_flops == report.phase_flops["backprop"] == flops


def test_alsh_counts_one_fallback_per_sample_and_layer(monkeypatch):
    monkeypatch.setattr(alsh, "query_active", lambda index, query: np.empty(0, dtype=np.int64))
    report = counter_run("alsh", 1, 1)
    assert report.fallback_events == 300 * 2
    assert report.active_set_fraction == 1.0
