"""Tests for the benchmark harness's own arithmetic and naming."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end):
    return [name, parent, 0, start, end]


def test_self_time_of_nested_and_sibling_spans():
    recorded = [
        span("root", -1, 0, 100),
        span("a", 0, 10, 30),
        span("b", 0, 40, 70),
        span("b.inner", 2, 45, 55),
    ]
    assert spans.self_ns(recorded) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    recorded = [span("root", -1, 0, 100), span("a", 0, 10, 40), span("b", 0, 30, 50),
                span("late", 0, 90, 120)]
    assert spans.self_ns(recorded)[0] == 100 - 40 - 10


def test_tracer_records_parents_and_steps():
    tracer = spans.Tracer(step_span="step")
    inner = tracer.wrap("inner", lambda x: x + 1)
    step = tracer.wrap("step", lambda x: inner(x) * 2)
    seen = []
    outer = tracer.wrap("outer", lambda: step(1) + step(2), observe=lambda r, a: seen.append(r))
    assert outer() == 10 and seen == [10]
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["outer", "step", "inner", "step", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    assert [s[spans.STEP] for s in tracer.spans] == [0, 1, 1, 2, 2]
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)


@pytest.mark.parametrize("n,q", [(5000, 0.99), (1000, 0.99), (500, 0.98), (100, 0.9),
                                 (20, 0.5), (15, 0.5), (0, 0.5)])
def test_tail_quantile_leaves_ten_samples_beyond(n, q):
    assert spans.tail_quantile(n) == pytest.approx(q)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.quantile(values, spans.tail_quantile(100)) == 90
    assert sum(v > 90 for v in values) == 10
    assert spans.quantile(values, 0.5) == 50
    assert spans.quantile([7], 0.99) == 7
    assert spans.quantile([], 0.5) == 0.0


def test_boundary_metrics_report_tail_with_sample_count():
    recorded = [span("f", -1, 1000 * i, 1000 * i + 1000 * (i + 1)) for i in range(100)]
    metrics, tails = spans.boundary_metrics(recorded, ["f", "g"])
    assert metrics["f.calls"] == 100 and metrics["g.calls"] == 0
    assert metrics["f.us_p50"] == 50.0 and metrics["f.us_p99"] == 90.0
    assert tails["f.us_p99"] == (pytest.approx(0.9), 100)
    assert metrics["f.s"] == metrics["f.self_s"] == pytest.approx(sum(range(1, 101)) * 1e-6)


def test_metric_names_match_pattern_and_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = list(workloads.END_TO_END) + list(workloads.per_layer())
    assert len(names) == len(set(names))
    assert all(pattern.fullmatch(n) for n in names)
    assert not pattern.fullmatch("nn.step.us p99") and not pattern.fullmatch(".calls")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == workloads.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == workloads.per_layer() and len(layers) <= 128


def test_workload_seed_reaches_config_seed_and_nothing_else():
    from subsample_nn import cli

    def resolved(name, seed):
        return cli.resolve_config(cli.load_config(None, workloads.config_overrides(name, seed)))

    for name in workloads.WORKLOADS:
        a, b = resolved(name, 3), resolved(name, 41)
        assert (a["seed"], b["seed"]) == (3, 41)
        a.pop("seed"), b.pop("seed")
        assert a == b
        changed = set(workloads.config_overrides(name, 3)) ^ set(workloads.config_overrides(name, 41))
        assert changed == {"seed=3", "seed=41"}
