"""What the traced benchmark run (perfbench/worker.py WORKLOAD SEED 1) needs
from the package: a deletion that breaks it fails here rather than in the run."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from subsample_nn import cli, data, mc, nn, policies
from subsample_nn.alsh import AlshParams, build_index, query_active
from subsample_nn.data import split, synth_blobs
from subsample_nn.linalg import stream
from subsample_nn.mc import approx_matmul_bernoulli
from subsample_nn.train import train

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

FUNCTIONS = [b for b in workloads.BOUNDARIES if not b.startswith("policies.")]
POLICY_HOOKS = ["bind", "forward", "backward", "on_samples_seen"]


@pytest.mark.parametrize("boundary", FUNCTIONS)
def test_function_boundary_resolves(boundary):
    module, attr = boundary.split(".")
    target = getattr(importlib.import_module(f"subsample_nn.{module}"), attr, None)
    assert inspect.isfunction(target), f"{boundary} is not a function"


def test_policy_boundaries_are_the_hooks():
    assert sorted(b.split(".")[1] for b in workloads.BOUNDARIES
                  if b.startswith("policies.")) == sorted(POLICY_HOOKS)


@pytest.mark.parametrize("kind", sorted(policies._POLICIES))
def test_every_policy_kind_has_the_hooks(kind):
    policy = policies.make_policy(kind)
    for hook in POLICY_HOOKS:
        assert callable(getattr(policy, hook, None)), f"{kind} lacks {hook}"


class _RecordingProxy:
    """Forwards every attribute read to a policy and records its name."""

    def __init__(self, policy):
        self._policy = policy
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._policy, name)


@pytest.mark.parametrize("kind", sorted(policies._POLICIES))
def test_train_reads_only_the_policy_hooks(kind):
    # the worker wraps the four hooks and reads everything else from the
    # report; describe names the policy in it
    sp = split(synth_blobs(40, 6, 3, separation=8.0, seed=0), 20, 10, 10, seed=0)
    proxy = _RecordingProxy(policies.make_policy(kind, k_samples=4) if kind == "mc"
                            else policies.make_policy(kind))
    report = train(nn.init_weights([6, 8, 8, 3], seed=1), sp, proxy,
                   nn.Optimizer("adam", 1e-3), epochs=1, batch_size=3, seed=2)
    assert proxy.read <= {*POLICY_HOOKS, "describe"}
    assert report.policy["kind"] == kind


def test_query_length_is_the_node_count():
    # the worker's alsh.nodes_per_query sums len() of query_active's result
    cols = stream(0, "contract-cols").standard_normal((128, 16))
    idx = build_index(cols, AlshParams(), seed=1)
    query = stream(1, "contract-q").standard_normal(16)
    active = query_active(idx, query)
    mask = np.zeros(128, dtype=bool)
    mask[active] = True
    assert len(active) == mask.sum()


def test_bernoulli_plan_reports_kept_indices():
    # the worker's mc.kept_fraction reads result[1].indices
    rng = stream(2, "contract-mc")
    a, b = rng.standard_normal((4, 12)), rng.standard_normal((12, 3))
    estimate, plan = approx_matmul_bernoulli(a, b, 5, stream(3, "contract-draws"))
    assert estimate.shape == (4, 3)
    assert plan.indices.ndim == 1 and plan.indices.size <= 12



def test_mc_backward_calls_both_sampling_functions_per_product(monkeypatch):
    # the traced run's mc.* spans and mc.kept_fraction wrap these two names;
    # a sampled product that inlined them would leave both empty
    calls = {"optimal_probs_bernoulli": 0, "approx_matmul_bernoulli": 0}
    for name in calls:
        original = getattr(mc, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mc, name, counted)
    layers = 3
    model = nn.init_weights([6, 5, 4, 3], seed=4)
    policy = policies.make_policy("mc", k_samples=2)
    policy.bind(model, 5, policies.RunCounts())
    x = stream(6, "contract-mc-x").standard_normal((4, 6))
    policy.backward(model, policy.forward(model, x), [0, 1, 2, 0])
    assert calls == dict.fromkeys(calls, 2 * layers - 1)


def test_build_dataset_splits_through_the_boundary(monkeypatch):
    # the traced data.split.* metrics time the split of every set-up
    calls = []
    original = data.split

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(data, "split", counted)
    config = cli.resolve_config(cli.load_config(None, ["dataset.train_n=30", "dataset.test_n=20",
                                                       "dataset.val_n=10"]))
    sp = cli.build_dataset(config, 4)
    assert calls == [(30, 20, 10, 4)]
    assert (len(sp.train), len(sp.test), len(sp.validation)) == (30, 20, 10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_worker_run_passes_its_checks(name):
    # the whole traced run, with the hooks wrapped; writes only .bench_out/
    result, error = bench_run.run_worker(name, 0, True, 120)
    assert result is not None, error
    assert bench_run.check(name, result) == []
    assert result["layers"]["data.split.calls"] == workloads.SETUP_REPEATS
    if name == "alsh-b1":  # one query per sample and hidden layer
        assert result["layers"]["alsh.query_active.calls"] == (
            workloads.DATASET["train_n"] * workloads.ARCHITECTURE["hidden_layers"])
