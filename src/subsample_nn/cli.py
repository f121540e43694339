"""Batch experiment runner.

Subcommands: train, sweep, verify-theory, matmul-bench. Runs are configured by
a JSON file plus repeatable --set key=value overrides; every artifact a run
writes is determined by (config, seed), except wall-clock columns in
timing.csv. Exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 theory
verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, data, mc
from .errors import ParameterError, SubsampleNNError
from .linalg import stream
from .nn import Optimizer, init_weights, save_checkpoint
from .policies import make_policy
from .train import train

THREADS_ENV = "SUBSAMPLE_NN_THREADS"

DEFAULT_CONFIG = {
    "dataset": {
        "kind": "synth_digits",
        "images": None,
        "labels": None,
        "train_n": None,
        "test_n": None,
        "val_n": None,
        "noise": 0.12,
        "n_features": 16,
        "n_classes": 10,
        "separation": 4.0,
    },
    "architecture": {"hidden_layers": 3, "hidden_width": 1000},
    "policy": {"kind": "exact"},
    "optimizer": {"kind": "adam", "learning_rate": None},
    "epochs": 50,
    "batch_size": None,
    "seed": 0,
}

# split sizes left null resolve by dataset kind
DEFAULT_SPLIT = {"train_n": 5000, "test_n": 1000, "val_n": 1000}
IDX_DEFAULT_SPLIT = {"train_n": 55000, "test_n": 10000, "val_n": 5000}

# settings read as numbers, by their --set path
NUMERIC_SETTINGS = {"seed": int, "epochs": int, "batch_size": int,
                    "optimizer.learning_rate": float, "architecture.hidden_layers": int,
                    "architecture.hidden_width": int, "dataset.train_n": int,
                    "dataset.test_n": int, "dataset.val_n": int}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _apply_set(config: dict, assignment: str):
    if "=" not in assignment:
        raise ParameterError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def load_config(path=None, sets=()) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as f:
            config = _merge(config, json.load(f))
    for assignment in sets:
        _apply_set(config, assignment)
    return config


def resolve_config(config: dict) -> dict:
    """Convert the numeric settings to numbers, then fill the defaults that
    depend on other settings: split sizes, batch size and learning rate. Runs
    on the merged config, so a setting has the same effect from a config file
    and from --set."""
    config = copy.deepcopy(config)
    for path, number in NUMERIC_SETTINGS.items():
        *section, key = path.split(".")
        node = config[section[0]] if section else config
        default = (DEFAULT_CONFIG[section[0]] if section else DEFAULT_CONFIG)[key]
        if node[key] is not None or default is not None:  # a null default is filled below
            node[key] = _number(path, number, node[key])
    ds_cfg = config["dataset"]
    split_defaults = IDX_DEFAULT_SPLIT if ds_cfg.get("kind") == "idx" else DEFAULT_SPLIT
    for key, value in split_defaults.items():
        if ds_cfg.get(key) is None:
            ds_cfg[key] = value
    kind = config["policy"].get("kind", "exact")
    if config["batch_size"] is None:
        config["batch_size"] = 20 if kind == "mc" else 1
    if config["optimizer"].get("learning_rate") is None:
        sgd_mc = kind == "mc" and config["batch_size"] == 1
        config["optimizer"]["learning_rate"] = 1e-4 if sgd_mc else 1e-3
    return config


def _number(path: str, number, value):
    """value as an int or a float; an int setting takes no fractional value."""
    try:
        converted = number(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or (number is int and isinstance(value, float) and converted != value):
        raise ParameterError(f"{path} must be {'an integer' if number is int else 'a number'}"
                             f", got {value!r}")
    return converted


def build_dataset(cfg: dict, seed: int) -> data.Split:
    ds_cfg = cfg["dataset"]
    kind = ds_cfg["kind"]
    train_n, test_n, val_n = ds_cfg["train_n"], ds_cfg["test_n"], ds_cfg["val_n"]
    total = train_n + test_n + val_n
    if kind == "idx":
        if not ds_cfg.get("images") or not ds_cfg.get("labels"):
            raise ParameterError("idx dataset needs 'images' and 'labels' paths")
        ds = data.load_idx(ds_cfg["images"], ds_cfg["labels"])
    elif kind == "synth_digits":
        ds = data.synth_digits(total, seed=seed, noise=ds_cfg["noise"])
    elif kind == "synth_blobs":
        ds = data.synth_blobs(total, ds_cfg["n_features"], ds_cfg["n_classes"],
                              ds_cfg["separation"], seed=seed)
    else:
        raise ParameterError(f"unknown dataset kind {kind!r}")
    return data.split(ds, train_n, test_n, val_n, seed)


def run_training(config: dict, out_dir: Path) -> analysis.TrainReport:
    config = resolve_config(config)
    seed = config["seed"]
    # validate policy/optimizer/shape parameters before any data is touched
    policy_cfg = dict(config["policy"])
    policy = make_policy(policy_cfg.pop("kind", "exact"), **policy_cfg)
    optimizer = Optimizer(kind=config["optimizer"]["kind"],
                          learning_rate=config["optimizer"]["learning_rate"])
    if config["epochs"] < 0 or config["batch_size"] < 1:
        raise ParameterError("epochs must be >= 0 and batch_size >= 1")
    arch = config["architecture"]
    if arch["hidden_layers"] < 0 or arch["hidden_width"] < 1:
        raise ParameterError("architecture dims must be positive")

    split = build_dataset(config, seed)
    dims = ([split.train.features.shape[1]]
            + [arch["hidden_width"]] * arch["hidden_layers"]
            + [split.train.n_classes])
    model = init_weights(dims, seed=seed)
    report = train(model, split, policy, optimizer, epochs=config["epochs"],
                   batch_size=config["batch_size"], seed=seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"config": config}
    summary.update(report.summary_dict())
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    analysis.write_timing_csv(report, out_dir / "timing.csv")
    analysis.write_confusion_csv(report.confusion, out_dir / "confusion.csv")
    analysis.write_labels_csv(report, out_dir / "labels.csv")
    save_checkpoint(model, out_dir / "checkpoint.bin",
                    {"seed": seed, "policy": report.policy.get("kind", "exact")})
    return report


def cmd_train(args) -> int:
    config = load_config(args.config, args.set or [])
    if args.seed is not None:
        config["seed"] = args.seed
    report = run_training(config, Path(args.out))
    print(f"test_accuracy {report.test_accuracy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


# sweep axis -> the setting each value is assigned to, as by --set
SWEEP_AXES = {"layers": "architecture.hidden_layers", "batch": "batch_size"}


def _variant_configs(config: dict, vary: str):
    """One resolved config per value of the swept axis, so a bad value is
    reported before any run starts."""
    if "=" not in vary:
        raise ParameterError("--vary expects forms like layers=1,2,3")
    axis, raw = vary.split("=", 1)
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ParameterError("--vary got an empty value list")
    variants = []
    for value in values:
        cfg = copy.deepcopy(config)
        if axis in SWEEP_AXES:
            _apply_set(cfg, f"{SWEEP_AXES[axis]}={value}")
        elif axis == "policy":
            cfg["policy"] = {"kind": value}
        else:
            raise ParameterError(f"unknown sweep axis {axis!r}")
        variants.append((f"{axis}-{value}", resolve_config(cfg)))
    return variants


def _run_variant(payload):
    name, config, out_dir = payload
    report = run_training(config, Path(out_dir))
    return name, report.test_accuracy, report.total_seconds, report.total_flops


def _max_workers(n_variants: int) -> int:
    cap = os.environ.get(THREADS_ENV)
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ParameterError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
    return max(1, min(n_variants, limit))


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set or [])
    if args.seed is not None:
        config["seed"] = args.seed
    out_root = Path(args.out)
    variants = _variant_configs(config, args.vary)
    payloads = [(name, cfg, str(out_root / name)) for name, cfg in variants]

    workers = _max_workers(len(payloads))
    if workers == 1:
        results = [_run_variant(p) for p in payloads]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_variant, payloads))

    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "sweep.csv", "w") as f:
        f.write("variant,accuracy,total_seconds,total_flops\n")
        for name, acc, seconds, flops in results:
            f.write(f"{name},{acc!r},{seconds!r},{flops}\n")
            print(f"{name}: accuracy {acc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Theory verification
# ---------------------------------------------------------------------------

LEMMA_TOL = 1e-10
THEOREM_TOL = 1e-9


def _lemma_suite(n_fixtures=100) -> bool:
    ok = True
    for i in range(n_fixtures):
        rng = stream(1000 + i, "lemma-fixture")
        depth = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 17)) for _ in range(depth + 1)]
        model = init_weights(dims, seed=2000 + i)
        model.hidden_activation = "linear"
        sets = analysis.random_active_sets(model, seed=3000 + i,
                                           keep_fraction=float(rng.uniform(0.3, 0.9)))
        x = rng.standard_normal(dims[0])
        profile = analysis.lemma1_error(model, x, sets)
        for k in range(model.n_layers):
            diff = np.abs(profile.direct[k] - profile.recursion[k]).max()
            scale = max(np.abs(profile.direct[k]).max(), 1e-30)
            if diff > LEMMA_TOL * max(scale, 1.0):
                ok = False
    return ok


def cmd_verify_theory(args) -> int:
    c_values = [int(c) for c in str(args.c).split(",")]
    failed = False

    lemma_ok = _lemma_suite()
    print(f"{'PASS' if lemma_ok else 'FAIL'} error-recursion identity "
          f"(100 random linear fixtures, tol {LEMMA_TOL})")
    failed |= not lemma_ok

    for c in c_values:
        width = args.width if args.width else 4 * (c + 1)
        model, sets = analysis.build_theorem1_network(c, args.depth, width)
        rows = analysis.theorem1_check(model, sets, c)
        c_ok = True
        for row in rows:
            rel = abs(row["ratio"] - row["expected_ratio"]) / row["expected_ratio"]
            c_ok &= rel <= THEOREM_TOL
        print(f"{'PASS' if c_ok else 'FAIL'} exponential error growth c={c} "
              f"depth={args.depth} width={width} (rel tol {THEOREM_TOL})")
        if c == 5:
            print("k      ratio   expected")
            for row in rows:
                print(f"{row['k']:<4} {row['ratio']:>8.4f}  {row['expected_ratio']:.6f}")
        failed |= not c_ok
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            analysis.write_ratio_csv(rows, Path(args.out) / f"ratios_c{c}.csv")

    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Matmul bench
# ---------------------------------------------------------------------------


def cmd_matmul_bench(args) -> int:
    if min(args.m, args.n, args.p) < 1:
        raise ParameterError("matrix dims must be positive")
    rng = stream(args.seed, "bench")
    a = rng.standard_normal((args.m, args.n))
    b = rng.standard_normal((args.n, args.p))
    exact = a @ b

    probs = mc.optimal_probs_bernoulli(a, b, args.k)
    analytic = mc.bernoulli_error(a, b, probs)

    sq_err = 0.0
    product_flops = 0
    for t in range(args.trials):
        est, plan = mc.approx_matmul_bernoulli(a, b, args.k, stream(args.seed, "trial", t),
                                               probs=probs)
        product_flops += 2 * args.m * plan.indices.size * args.p
        diff = est - exact
        sq_err += float((diff * diff).sum())
    empirical = sq_err / args.trials
    exact_flops = 2 * args.m * args.n * args.p
    ratio = product_flops / (args.trials * exact_flops)

    print(f"analytic_sq_error {analytic!r}")
    print(f"empirical_sq_error {empirical!r}")
    print(f"flop_ratio {ratio!r} (k/n = {args.k / args.n!r})")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsample-nn",
        description="Train MLPs on CPU with exact or sampling-approximated "
                    "matrix products; verify the error-propagation theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    common.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", parents=[common], help="run one training job")
    p_train.add_argument("--out", default="runs/train")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a config sweep")
    p_sweep.add_argument("--vary", required=True,
                         help="layers=1,2,3 | batch=1,5,20 | policy=exact,alsh")
    p_sweep.add_argument("--out", default="runs/sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify-theory", help="check the error-propagation results")
    p_verify.add_argument("--c", default="5", help="comma-separated ratio constants")
    p_verify.add_argument("--depth", type=int, default=6)
    p_verify.add_argument("--width", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify_theory)

    p_bench = sub.add_parser("matmul-bench", help="sampled-product error and FLOP ratio")
    p_bench.add_argument("--m", type=int, default=32)
    p_bench.add_argument("--n", type=int, default=64)
    p_bench.add_argument("--p", type=int, default=32)
    p_bench.add_argument("--k", type=int, default=8)
    p_bench.add_argument("--trials", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_matmul_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SubsampleNNError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
