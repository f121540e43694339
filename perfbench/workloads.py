"""Workload table and the names of every metric the benchmark reports.

Each workload is one closed-loop training run of a 784-128-128-128-10 ReLU
MLP with Adam on synth_digits: the next step starts only when the previous
one returns. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import math

# Split sizes shared by every workload. One epoch of 1000 samples at batch 1
# keeps alsh-b1 in the every-100-samples rebuild regime (10 rebuilds).
DATASET = {"kind": "synth_digits", "train_n": 1000, "val_n": 500, "test_n": 1000}
ARCHITECTURE = {"hidden_layers": 3, "hidden_width": 128}

WORKLOADS = {
    "exact-b1": {"policy": "exact", "batch_size": 1, "epochs": 1},
    "alsh-b1": {"policy": "alsh", "batch_size": 1, "epochs": 1},
    "mc-b20": {"policy": "mc", "batch_size": 20, "epochs": 10},
}

# Set-up is short and noisy, so each run times it this many times.
SETUP_REPEATS = 2

#: Seed of the run that test_accuracy is read from; the program's default.
QUALITY_SEED = 0

CHANCE_ACCURACY = 0.1  # ten balanced classes
ABOVE_CHANCE = ("exact-b1", "mc-b20")


def config_overrides(name: str, seed: int) -> list[str]:
    """``--set`` assignments that turn the program's default config into the
    workload; the seed reaches ``config.seed`` and nothing else."""
    spec = WORKLOADS[name]
    sets = [f"dataset.{key}={value}" for key, value in DATASET.items()]
    sets += [f"architecture.{key}={value}" for key, value in ARCHITECTURE.items()]
    sets += [f"policy.kind={spec['policy']}", "optimizer.kind=adam",
             f"batch_size={spec['batch_size']}", f"epochs={spec['epochs']}",
             f"seed={int(seed)}"]
    return sets


def steps(name: str) -> int:
    spec = WORKLOADS[name]
    return spec["epochs"] * math.ceil(DATASET["train_n"] / spec["batch_size"])


# Layer boundaries, in the order they are reported. A `policies.*` boundary
# wraps the method of the policy object; every other one wraps the function
# of that name in the module of that name.
BOUNDARIES = (
    "data.synth_digits", "data.split",
    "nn.init_weights", "nn.forward", "nn.backward", "nn.step",
    "policies.bind", "policies.forward", "policies.backward", "policies.on_samples_seen",
    "alsh.build_index", "alsh.query_active", "alsh.rebuild_index",
    "mc.optimal_probs_bernoulli", "mc.approx_matmul_bernoulli",
    "linalg.matmul",
    "train.train", "train.evaluate_accuracy",
    "analysis.confusion",
)
STEP_SPAN = "policies.forward"
SPAN_SUFFIXES = {"calls": ("count", "lower"), "s": ("s", "lower"),
                 "self_s": ("s", "lower"), "us_p50": ("us", "lower"),
                 "us_p99": ("us", "lower")}

END_TO_END = {
    "train_samples_per_s": ("samples/s", "higher"),
    "setup_s": ("s", "lower"),
    "test_accuracy": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

DERIVED = {
    "train.step_ms_p50": ("ms", "lower"),
    "train.step_ms_p99": ("ms", "lower"),
    "train.test_accuracy": ("ratio", "higher"),
    "train.phase_coverage": ("ratio", "higher"),
    "flops.feedforward_per_sample": ("flop", "lower"),
    "flops.backprop_per_sample": ("flop", "lower"),
    "flops.policy_overhead_per_sample": ("flop", "lower"),
    "flops.total_per_sample": ("flop", "lower"),
    "ns_per_flop.feedforward": ("ns/flop", "lower"),
    "ns_per_flop.backprop": ("ns/flop", "lower"),
    "policies.active_fraction": ("ratio", "lower"),
    "alsh.nodes_per_query": ("count", "lower"),
    "alsh.fallback_events": ("count", "lower"),
    "alsh.rebuilds": ("count", "lower"),
    "mc.kept_fraction": ("ratio", "lower"),
    "mc.sampled_over_replaced_flops": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "higher"),
}


def per_layer() -> dict:
    """Every per-layer metric name mapped to (unit, better)."""
    out = {f"{b}.{suffix}": spec for b in BOUNDARIES for suffix, spec in SPAN_SUFFIXES.items()}
    out.update(DERIVED)
    return out
