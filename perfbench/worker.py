"""One training run of one workload, in a process of its own.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE

Prints one JSON object as its last line of output. The FLOP counter is
process-global and peak RSS is per process, so every run gets a fresh
process. With TRACE=1 the public functions of each layer are wrapped in
spans and the per-layer metrics are added to the result.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy is first imported, so they are set before that.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_out"


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Hooks:
    """Span wrappers on every namespace of the package that holds a boundary
    function, plus the counts taken at the boundaries that report them."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.queries = self.nodes = 0
        self.kept = self.shared = 0

    def _on_query(self, active, args):
        self.queries += 1
        self.nodes += len(active)

    def _on_sample(self, result, args):
        self.kept += result[1].indices.size
        self.shared += args[0].shape[1]

    def install_functions(self):
        # By sys.modules, not attribute access: the package re-exports the
        # function `train`, which shadows the module of that name.
        package = [m for name, m in list(sys.modules.items())
                   if name == "subsample_nn" or name.startswith("subsample_nn.")]
        observers = {"alsh.query_active": self._on_query,
                     "mc.approx_matmul_bernoulli": self._on_sample}
        for boundary in workloads.BOUNDARIES:
            module, attr = boundary.split(".")
            if module == "policies":
                continue
            home = sys.modules[f"subsample_nn.{module}"]
            original = getattr(home, attr)
            wrapper = self.tracer.wrap(boundary, original, observers.get(boundary))
            # `from .x import f` copies the reference, so every copy is replaced
            for namespace in package:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
            if getattr(home, attr) is not wrapper:
                raise RuntimeError(f"hook for {boundary} not installed")

    def install_policy(self, policy):
        for boundary in workloads.BOUNDARIES:
            module, method = boundary.split(".")
            if module == "policies":
                setattr(policy, method, self.tracer.wrap(boundary, getattr(policy, method)))


def layer_metrics(hooks: Hooks, report, samples: int) -> tuple[dict, dict]:
    """Per-layer metrics, and (quantile, samples) behind each `*_p99` value."""
    all_spans = hooks.tracer.spans
    metrics, tails = spans.boundary_metrics(all_spans, workloads.BOUNDARIES)
    starts = [s[spans.START] for s in all_spans if s[spans.NAME] == workloads.STEP_SPAN]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    tail = spans.tail_quantile(len(gaps))
    tails["train.step_ms_p99"] = (tail, len(gaps))
    metrics["train.step_ms_p50"] = spans.quantile(gaps, 0.5) / 1e6
    metrics["train.step_ms_p99"] = spans.quantile(gaps, tail) / 1e6
    metrics["train.test_accuracy"] = report.test_accuracy
    metrics["train.phase_coverage"] = sum(report.phase_seconds.values()) / report.total_seconds

    flops = report.phase_flops
    for phase in ("feedforward", "backprop", "policy_overhead"):
        metrics[f"flops.{phase}_per_sample"] = flops[phase] / samples
    metrics["flops.total_per_sample"] = report.total_flops / samples
    for phase, boundary in (("feedforward", "policies.forward"), ("backprop", "policies.backward")):
        metrics[f"ns_per_flop.{phase}"] = (metrics[f"{boundary}.s"] * 1e9 / flops[phase]
                                           if flops[phase] else 0.0)

    fraction = report.active_set_fraction
    metrics["policies.active_fraction"] = 1.0 if fraction is None else fraction
    metrics["alsh.nodes_per_query"] = hooks.nodes / hooks.queries if hooks.queries else 0.0
    metrics["alsh.fallback_events"] = report.fallback_events
    metrics["alsh.rebuilds"] = report.rebuilds
    metrics["mc.kept_fraction"] = hooks.kept / hooks.shared if hooks.shared else 0.0
    metrics["mc.sampled_over_replaced_flops"] = (
        report.sampled_product_flops / report.replaced_exact_flops
        if report.replaced_exact_flops else 0.0)
    root = metrics["train.train.s"]
    metrics["trace.coverage"] = 1.0 - metrics["train.train.self_s"] / root if root else 0.0
    return metrics, tails


def run(name: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from subsample_nn import cli, nn, policies

    train_module = sys.modules["subsample_nn.train"]
    hooks = None
    if trace:
        hooks = Hooks(spans.Tracer(workloads.STEP_SPAN))
        hooks.install_functions()

    setup_s = []
    for _ in range(workloads.SETUP_REPEATS):
        split = model = None  # free the previous repeat's arrays before timing
        t0 = time.perf_counter()
        config = cli.resolve_config(cli.load_config(None, workloads.config_overrides(name, seed)))
        split = cli.build_dataset(config, config["seed"])
        arch = config["architecture"]
        dims = ([split.train.features.shape[1]]
                + [arch["hidden_width"]] * arch["hidden_layers"]
                + [split.train.n_classes])
        model = nn.init_weights(dims, seed=config["seed"])
        policy_config = dict(config["policy"])
        policy = policies.make_policy(policy_config.pop("kind"), **policy_config)
        optimizer = nn.Optimizer(kind=config["optimizer"]["kind"],
                                 learning_rate=float(config["optimizer"]["learning_rate"]))
        setup_s.append(time.perf_counter() - t0)

    if hooks:
        hooks.install_policy(policy)
    t0 = time.perf_counter()
    report = train_module.train(model, split, policy, optimizer, epochs=config["epochs"],
                                batch_size=config["batch_size"], seed=config["seed"])
    train_s = time.perf_counter() - t0

    samples = config["epochs"] * len(split.train)
    result = {
        "seed": seed,
        "trace": trace,
        "setup_s": setup_s,
        "train_samples_per_s": samples / train_s,
        "test_accuracy": report.test_accuracy,
        "val_accuracy": report.val_accuracy,
        "total_flops": report.total_flops,
        "confusion": report.confusion,
        "phase_coverage": sum(report.phase_seconds.values()) / report.total_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": fingerprint(np),
    }
    if hooks:
        result["layers"], result["tails"] = layer_metrics(hooks, report, samples)
        TRACE_DIR.mkdir(exist_ok=True)
        hooks.tracer.write_tsv(TRACE_DIR / f"{name}.spans.tsv")
    return result


if __name__ == "__main__":
    workload, seed_arg, trace_arg = sys.argv[1:4]
    print(json.dumps(run(workload, int(seed_arg), trace_arg == "1")))
