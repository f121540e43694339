"""Training benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload exact-b1 --seed 1 --seconds 35 --trace 0

Runs one workload at a time as a closed loop of fresh worker processes, one
after another, each with BLAS pinned to one thread, until --seconds have
passed. Every run's outputs are checked; a failed check is counted and makes
the exit code 1. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones: medians over the runs made with --seed, and the test
accuracy of one extra run at a fixed seed. With --trace 1 traced and
untraced runs alternate, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TOTAL_TIMEOUT_S = 160  # a run of the benchmark ends within this, even if a worker hangs
MIN_SEEDED_RUNS = 2  # the fewest that let repeats be compared


def run_worker(name: str, seed: int, trace: bool, timeout: float) -> tuple[dict | None, str]:
    """One worker process; returns (result, error)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), name, str(seed), str(int(trace))],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0]
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError as exc:
        return None, f"unreadable result: {exc}"


def check(name: str, result: dict) -> list[str]:
    """Problems with one run's outputs, checked alone."""
    problems = []
    numbers = [*result["setup_s"], result["train_samples_per_s"], result["test_accuracy"],
               result["peak_rss_mb"], result["total_flops"], *result["val_accuracy"]]
    if not all(math.isfinite(x) for x in numbers):
        problems.append("non-finite output")
    if name in workloads.ABOVE_CHANCE and result["test_accuracy"] <= workloads.CHANCE_ACCURACY:
        problems.append(f"test accuracy {result['test_accuracy']} at or below chance")
    layers = result.get("layers")
    if layers is not None:
        spec = workloads.WORKLOADS[name]
        if layers["nn.step.calls"] != workloads.steps(name):
            problems.append(f"nn.step.calls {layers['nn.step.calls']} != {workloads.steps(name)} steps")
        for module in ("alsh", "mc"):
            seen = any(layers[f"{b}.calls"] for b in workloads.BOUNDARIES
                       if b.startswith(module + "."))
            if seen != (spec["policy"] == module):
                problems.append(f"{module}.* spans {'present' if seen else 'missing'}")
    return problems


def outcome(result: dict) -> tuple:
    return result["test_accuracy"], result["total_flops"], result["confusion"]


def quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (quartiles {q1:.6g}..{q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subsample_nn" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'subsample_nn'}", file=sys.stderr)
        return 2

    name, trace = args.workload, bool(args.trace)
    # (seed, traced) of each run: untraced runs with --seed until time is up,
    # alternating with traced ones under --trace 1. test_accuracy is read
    # from a run at QUALITY_SEED, because on alsh-b1 it differs between
    # seeds by far more than any bound could allow.
    plan = [] if trace else [(workloads.QUALITY_SEED, False)]
    started = time.monotonic()
    deadline = started + args.seconds
    runs, failures, reference = [], [], {}
    while True:
        if plan:
            seed, traced = plan.pop()
        else:
            seeded = [r for r in runs if r[0] == args.seed]
            if len(seeded) >= MIN_SEEDED_RUNS and time.monotonic() >= deadline:
                break
            seed, traced = args.seed, trace and len(seeded) % 2 == 1
        timeout = started + TOTAL_TIMEOUT_S - time.monotonic()
        result, error = run_worker(name, seed, traced, max(timeout, 1.0))
        problems = [error] if result is None else check(name, result)
        if result is not None:
            # repeats of one (workload, seed) must agree, traced or not
            first = reference.setdefault(seed, outcome(result))
            if outcome(result) != first:
                problems.append(f"outcome differs from the first run at seed {seed}")
        for problem in problems:
            print(f"run {len(runs) + 1} (seed {seed}, trace {int(traced)}) failed: {problem}",
                  file=sys.stderr)
        failures.append(bool(problems))
        runs.append((seed, traced, result))

    good = [r for (seed, traced, r), failed in zip(runs, failures) if not failed]
    seeded = [r for r in good if r["seed"] == args.seed]
    plain = [r for r in seeded if not r["trace"]]
    traced_runs = [r for r in seeded if r["trace"]]
    metrics, notes = {}, {}
    if trace and plain and traced_runs:
        for key, (unit, _) in workloads.per_layer().items():
            if key in ("trace.overhead", "train.phase_coverage"):
                continue
            metrics[key] = (statistics.median(r["layers"][key] for r in traced_runs), unit)
        untraced = statistics.median(r["train_samples_per_s"] for r in plain)
        traced_rate = statistics.median(r["train_samples_per_s"] for r in traced_runs)
        metrics["trace.overhead"] = (traced_rate / untraced, "ratio")
        metrics["train.phase_coverage"] = (
            statistics.median(r["phase_coverage"] for r in plain), "ratio")
        for key, (q, n) in traced_runs[-1]["tails"].items():
            notes[key] = f"p{100 * q:.4g} of {n}"
    elif not trace and plain:
        for key in ("train_samples_per_s", "setup_s", "peak_rss_mb"):
            values = [v for r in plain for v in (r[key] if key == "setup_s" else [r[key]])]
            metrics[key] = (statistics.median(values), workloads.END_TO_END[key][0])
            notes[key] = f"median of {len(values)}{quartiles(values)}"
        quality = [r for r in good if r["seed"] == workloads.QUALITY_SEED]
        if quality:
            metrics["test_accuracy"] = (quality[0]["test_accuracy"], "ratio")
            notes["test_accuracy"] = (f"seed {workloads.QUALITY_SEED}; seed {args.seed} "
                                      f"gives {plain[0]['test_accuracy']}")

    expected = workloads.per_layer() if trace else workloads.END_TO_END
    correct = not any(failures) and set(metrics) == set(expected)
    if good:
        print("fingerprint " + json.dumps(good[0]["fingerprint"], sort_keys=True))
    print(f"workload {name} seed {args.seed} trace {int(trace)}: "
          f"{len(runs)} runs, {sum(failures)} failed")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}" + (f"  [{notes[key]}]" if key in notes else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
