"""Digest every artifact of a fixed set of training runs.

    python3 tools/artifact_digests.py OUT

runs the `train` subcommand of the package in this file's tree (its `src`,
not an installed copy) once per config below, writing each run under OUT,
and prints `sha256  path` for every file written there except `timing.csv`,
whose columns are wall-clock seconds. Every other artifact is determined by
(config, seed), so a change that should leave run outputs alone is checked by
running this on an export of the parent commit and on the change, each into a
new OUT, and diffing the two outputs. It then runs `verify-theory --c 1,2,5
--out theory` under OUT and digests its ratio CSVs and its stdout, kept in
`theory/stdout.txt`, so the check covers the analysis path too, and digests
the stdout of `matmul-bench --trials 2000`, kept in `matmul-bench.txt`, so it
covers the sampled-product FLOP sum.

The runs: the five policies x {1, 3} hidden layers x batch {1, 7} at width 32
on synth_digits 200/50/50 (2 epochs, seed 3, `mc` with k_samples=4), each
benchmark workload's config at seed 0, the determinism clause's config, a
dropout run on an IDX pair written by `write_idx` that holds more rows than
the split uses, the default config (3x1000, batch 1) on synth_digits
50/20/20 for 1 epoch, whose Adam step runs each thread's slice in many tiles,
and the same config with `alsh` on synth_digits 200/20/20, whose indexes are
rebuilt after samples 100 and 200 at the paper's width.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POLICIES = ("exact", "dropout", "adaptive_dropout", "alsh", "mc")
SMALL = ["dataset.kind=synth_digits", "dataset.train_n=200", "dataset.test_n=50",
         "dataset.val_n=50", "architecture.hidden_width=32", "epochs=2", "seed=3"]
C11 = ["dataset.kind=synth_digits", "dataset.train_n=400", "dataset.test_n=100",
       "dataset.val_n=100", "architecture.hidden_layers=1", "architecture.hidden_width=64",
       "policy.kind=alsh", "epochs=1", "seed=17"]
DEFAULT_WIDTH = ["dataset.train_n=50", "dataset.test_n=20", "dataset.val_n=20", "epochs=1"]
ALSH_WIDTH = ["dataset.train_n=200", "dataset.test_n=20", "dataset.val_n=20", "epochs=1",
              "policy.kind=alsh"]


def runs() -> dict:
    """Run name -> --set assignments; paths are relative to OUT."""
    import workloads
    from subsample_nn.data import synth_digits, write_idx

    out = {}
    for kind, layers, batch in product(POLICIES, (1, 3), (1, 7)):
        sets = SMALL + [f"policy.kind={kind}", f"architecture.hidden_layers={layers}",
                        f"batch_size={batch}"]
        if kind == "mc":
            sets.append("policy.k_samples=4")
        out[f"{kind}-h{layers}-b{batch}"] = sets
    for name in sorted(workloads.WORKLOADS):
        out[f"workload-{name}"] = workloads.config_overrides(name, 0)
    out["c11"] = C11
    images, labels = "inputs/images.idx", "inputs/labels.idx"
    write_idx(synth_digits(400, seed=5), images, labels)
    out["idx-dropout"] = SMALL + ["dataset.kind=idx", f"dataset.images={images}",
                                  f"dataset.labels={labels}", "policy.kind=dropout",
                                  "architecture.hidden_layers=1"]
    out["default-width"] = DEFAULT_WIDTH
    out["alsh-width"] = ALSH_WIDTH
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifact_digests.py OUT", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from subsample_nn import cli

    out = Path(argv[0]).resolve()
    (out / "inputs").mkdir(parents=True)
    os.chdir(out)  # the IDX paths in the configs, and so in summary.json, are relative
    for name, sets in runs().items():
        argv = ["train", "--out", name]
        for assignment in sets:
            argv += ["--set", assignment]
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the digests alone
            code = cli.main(argv)
        if code != 0:
            print(f"run {name} exited {code}", file=sys.stderr)
            return 1
    (out / "theory").mkdir()
    commands = {"theory/stdout.txt": ["verify-theory", "--c", "1,2,5", "--out", "theory"],
                "matmul-bench.txt": ["matmul-bench", "--trials", "2000"]}
    for stdout, argv in commands.items():
        with open(out / stdout, "w") as f, contextlib.redirect_stdout(f):
            code = cli.main(argv)
        if code != 0:
            print(f"{argv[0]} exited {code}", file=sys.stderr)
            return 1
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timing.csv":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
