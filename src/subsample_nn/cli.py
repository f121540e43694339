"""Batch experiment runner.

Subcommands: train, sweep, verify-theory, matmul-bench. Runs are configured by
a JSON file plus repeatable --set key=value overrides, and sweep --vary
PATH=v1,v2,... makes one run per value, each set as by --set; every variant
is resolved, and so checked, before the first run, and the runs follow one
another in this process. Every artifact a run writes is determined by
(config, seed), except wall-clock columns in timing.csv. Exit codes: 0 ok,
1 runtime failure, 2 usage error, 3 theory verification failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, data, mc
from .errors import ParameterError, SubsampleNNError, _number
from .linalg import stream
from .nn import Optimizer, init_weights, save_checkpoint
from .policies import ComputePolicy, make_policy
from .train import train

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

# dataset kind -> builder(dataset section, sample count, seed)
DATASETS = {
    "idx": lambda ds, n, seed: data.load_idx(ds["images"], ds["labels"]),
    "synth_digits": lambda ds, n, seed: data.synth_digits(n, seed=seed, noise=ds["noise"]),
    "synth_blobs": lambda ds, n, seed: data.synth_blobs(n, ds["n_features"], ds["n_classes"],
                                                        ds["separation"], seed=seed),
}

# split sizes left null resolve by dataset kind
DEFAULT_SPLIT = {"train_n": 5000, "test_n": 1000, "val_n": 1000}
IDX_DEFAULT_SPLIT = {"train_n": 55000, "test_n": 10000, "val_n": 5000}

# types of the numeric settings whose default is null, by their --set path; a
# setting whose default is a number takes its default's type
NULL_DEFAULT_NUMBERS = {"batch_size": int, "optimizer.learning_rate": float,
                        "dataset.train_n": int, "dataset.test_n": int, "dataset.val_n": int}


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
    """The defaults merged with the config file, then each --set."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as f:
            try:
                loaded = json.load(f)
            except ValueError as exc:
                raise ParameterError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config file {path} must hold a JSON object, got {loaded!r}")
        config = _merge(config, loaded)
    for assignment in sets:
        _apply_set(config, assignment)
    return config


def _convert_settings(config: dict, defaults: dict, prefix=""):
    """Check that DEFAULT_CONFIG names every setting and that every section is
    one, and convert the numeric settings in place; the policy's constructor
    checks and converts the policy section."""
    for key, value in config.items():
        path = prefix + key
        if key not in defaults:
            raise ParameterError(f"unknown setting {path!r}")
        number = NULL_DEFAULT_NUMBERS.get(path, type(defaults[key]))
        if number is dict:
            if not isinstance(value, dict):
                raise ParameterError(f"{path} must be a section, got {value!r}")
            if key != "policy":
                _convert_settings(value, defaults[key], path + ".")
        elif number in (int, float) and not (value is None and defaults[key] is None):
            config[key] = _number(path, number, value)  # a null default is filled below


def resolve_config(config: dict) -> dict:
    """Check and convert the settings, the policy section by building the
    policy, then fill the defaults that depend on other settings: split sizes,
    batch size and learning rate. The run's range, dataset and optimizer checks
    run here too, before any data is built. Runs on the merged config, so a
    setting has the same effect from a config file and from --set."""
    return _resolve(config)[0]


def _resolve(config: dict) -> tuple[dict, ComputePolicy, Optimizer]:
    """resolve_config, also returning the policy and the optimizer it built."""
    config = _merge(DEFAULT_CONFIG, config)
    _convert_settings(config, DEFAULT_CONFIG)
    policy_cfg = config["policy"]
    policy = make_policy(**policy_cfg)
    policy_cfg.update({key: getattr(policy, key) for key in policy_cfg if key != "kind"})
    ds_cfg = config["dataset"]
    kind = ds_cfg["kind"]
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ParameterError(f"unknown dataset kind {kind!r}")
    # every kind's settings are checked, whichever kind runs: summary.json keeps them all
    if not all(isinstance(path, str) and path or path is None and kind != "idx"
               for path in (ds_cfg["images"], ds_cfg["labels"])):
        raise ParameterError("idx dataset needs 'images' and 'labels' paths, as non-empty "
                             f"strings, got {ds_cfg['images']!r} and {ds_cfg['labels']!r}")
    split_defaults = IDX_DEFAULT_SPLIT if kind == "idx" else DEFAULT_SPLIT
    ds_cfg.update({key: n for key, n in split_defaults.items() if ds_cfg[key] is None})
    sizes = [ds_cfg[key] for key in split_defaults]
    if min(sizes) < 0 or (kind != "idx" and sum(sizes) < 1):
        raise ParameterError("split sizes must be >= 0, and sum to >= 1 for a synthetic set")
    if min(ds_cfg["n_features"], ds_cfg["n_classes"]) < 1 or not ds_cfg["separation"] > 0:
        raise ParameterError("synth_blobs needs n_features, n_classes >= 1 and separation > 0")
    if ds_cfg["noise"] < 0:
        raise ParameterError(f"synth_digits needs noise >= 0, got {ds_cfg['noise']}")
    if config["batch_size"] is None:
        config["batch_size"] = 20 if policy.name == "mc" else 1
    if config["optimizer"].get("learning_rate") is None:
        sgd_mc = policy.name == "mc" and config["batch_size"] == 1
        config["optimizer"]["learning_rate"] = 1e-4 if sgd_mc else 1e-3
    if config["epochs"] < 0 or config["batch_size"] < 1:
        raise ParameterError("epochs must be >= 0 and batch_size >= 1")
    arch = config["architecture"]
    if arch["hidden_layers"] < 0 or arch["hidden_width"] < 1:
        raise ParameterError("architecture dims must be positive")
    policy.check_hidden_widths([arch["hidden_width"]] * arch["hidden_layers"])
    optimizer = Optimizer(kind=config["optimizer"]["kind"],
                          learning_rate=config["optimizer"]["learning_rate"])
    return config, policy, optimizer


def build_dataset(cfg: dict, seed: int) -> data.Split:
    """Build or load the dataset of a resolved config and split it: train,
    test and validation are views of one buffer, which holds only the rows
    the split uses."""
    ds_cfg = cfg["dataset"]
    train_n, test_n, val_n = ds_cfg["train_n"], ds_cfg["test_n"], ds_cfg["val_n"]
    ds = DATASETS[ds_cfg["kind"]](ds_cfg, train_n + test_n + val_n, seed)
    return data.split(ds, train_n, test_n, val_n, seed)


def run_training(config: dict, out_dir: Path) -> analysis.TrainReport:
    config, policy, optimizer = _resolve(config)
    seed = config["seed"]
    arch = config["architecture"]
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
    analysis.write_labels_csv(report.label_histogram, out_dir / "labels.csv")
    save_checkpoint(model, out_dir / "checkpoint.bin",
                    {"seed": seed, "policy": report.policy.get("kind", "exact")})
    return report


def cmd_train(args) -> int:
    config = load_config(args.config, args.set or [])
    report = run_training(config, Path(args.out))
    print(f"test_accuracy {report.test_accuracy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _variant_configs(config: dict, vary: str):
    """(name, resolved config) of each variant: each value of PATH=v1,v2,...
    is assigned to the setting PATH as by --set. Every variant is resolved
    here, so a bad value is reported before any run starts."""
    if "=" not in vary:
        raise ParameterError(f"--vary expects PATH=v1,v2,..., got {vary!r}")
    path, raw = vary.split("=", 1)
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ParameterError("--vary got an empty value list")
    variants = []
    for value in values:
        cfg = copy.deepcopy(config)
        _apply_set(cfg, f"{path}={value}")
        name = f"{path}-{value}"
        if Path(name).name != name or name in (known for known, _ in variants):
            raise ParameterError(f"--vary variant {name!r} is not a new directory name")
        variants.append((name, resolve_config(cfg)))
    return variants


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set or [])
    out_root = Path(args.out)
    variants = _variant_configs(config, args.vary)
    reports = [(name, run_training(cfg, out_root / name)) for name, cfg in variants]

    with open(out_root / "sweep.csv", "w") as f:
        f.write("variant,accuracy,total_seconds,total_flops\n")
        for name, r in reports:
            f.write(f"{name},{r.test_accuracy!r},{r.total_seconds!r},{r.total_flops}\n")
            print(f"{name}: accuracy {r.test_accuracy:.4f}")
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
    try:
        c_values = [int(c) for c in str(args.c).split(",")]
    except ValueError:
        raise ParameterError(f"--c expects comma-separated integers, got {args.c!r}") from None
    # every fixture is built, and so every setting checked, before any check runs
    fixtures = []
    for c in c_values:
        width = 4 * (c + 1) if args.width is None else args.width
        fixtures.append((c, width, *analysis.build_theorem1_network(c, args.depth, width)))
    failed = False

    lemma_ok = _lemma_suite()
    print(f"{'PASS' if lemma_ok else 'FAIL'} error-recursion identity "
          f"(100 random linear fixtures, tol {LEMMA_TOL})")
    failed |= not lemma_ok

    for c, width, model, sets in fixtures:
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
    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, got {args.trials}")
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
        product_flops += plan.flops
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

    p_train = sub.add_parser("train", parents=[common], help="run one training job")
    p_train.add_argument("--out", default="runs/train")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a config sweep")
    p_sweep.add_argument("--vary", required=True, metavar="PATH=V1,V2,...",
                         help="one run per value of a setting, each set as by --set")
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
