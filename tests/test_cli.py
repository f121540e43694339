import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from subsample_nn import analysis, cli


@pytest.fixture
def blob_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"kind": "synth_blobs", "train_n": 300, "test_n": 100,
                    "val_n": 50, "n_features": 12, "n_classes": 3,
                    "separation": 8.0},
        "architecture": {"hidden_layers": 1, "hidden_width": 24},
        "policy": {"kind": "exact"},
        "epochs": 2,
        "seed": 11,
    }))
    return path


def run(argv):
    return cli.main(argv)


class TestTrain:
    def test_smoke_writes_artifacts(self, blob_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(blob_config), "--out", str(out)]) == 0
        assert "test_accuracy" in capsys.readouterr().out
        for name in ("summary.json", "timing.csv", "confusion.csv",
                     "labels.csv", "checkpoint.bin", "checkpoint.bin.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "test_accuracy" in summary
        assert summary["test_accuracy"] > 0.9

    def test_zero_epochs_baseline_only(self, blob_config, tmp_path):
        out = tmp_path / "baseline"
        assert run(["train", "--config", str(blob_config), "--out", str(out),
                    "--set", "epochs=0"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["val_accuracy"]) == 1

    def test_same_seed_byte_identical_summaries(self, blob_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["train", "--config", str(blob_config), "--out", str(out_a)])
        run(["train", "--config", str(blob_config), "--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "confusion.csv").read_bytes() == (out_b / "confusion.csv").read_bytes()
        assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()

    def test_invalid_policy_parameter_is_usage_error(self, blob_config, tmp_path):
        code = run(["train", "--config", str(blob_config),
                    "--out", str(tmp_path / "x"),
                    "--set", "policy.kind=dropout", "--set", "policy.p_keep=0"])
        assert code == 2

    def test_non_numeric_setting_is_usage_error(self, blob_config, tmp_path, capsys):
        code = run(["train", "--config", str(blob_config),
                    "--out", str(tmp_path / "x"), "--set", "epochs=abc"])
        assert code == 2
        assert "error: epochs must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,value", [
        ("epochs", "1.5"), ("architecture.hidden_width", "32.9"), ("dataset.train_n", "100.5"),
    ])
    def test_fractional_integer_setting_is_usage_error(self, blob_config, tmp_path, capsys,
                                                       setting, value):
        code = run(["train", "--config", str(blob_config),
                    "--out", str(tmp_path / "x"), "--set", f"{setting}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {setting} must be an integer, got {float(value)!r}" in err
        assert not (tmp_path / "x").exists()

    def test_integral_float_setting_is_accepted(self):
        cfg = cli.resolve_config(cli.load_config(None, ["epochs=2.0"]))
        assert cfg["epochs"] == 2 and isinstance(cfg["epochs"], int)

    @pytest.mark.parametrize("batch_size", [1, "1"])
    def test_learning_rate_default_follows_the_batch_size_value(self, tmp_path, batch_size):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"policy": {"kind": "mc"}, "batch_size": batch_size}))
        cfg = cli.resolve_config(cli.load_config(path, []))
        assert cfg["batch_size"] == 1
        assert cfg["optimizer"]["learning_rate"] == 1e-4

    def test_missing_idx_paths_usage_error(self, tmp_path):
        code = run(["train", "--out", str(tmp_path / "x"),
                    "--set", "dataset.kind=idx", "--set", "epochs=0"])
        assert code == 2

    def test_idx_config_defaults_to_full_scale_split(self, tmp_path):
        path = tmp_path / "idx.json"
        path.write_text(json.dumps({"dataset": {"kind": "idx",
                                                "images": "i", "labels": "l"}}))
        cfg = cli.resolve_config(cli.load_config(path, []))
        assert cfg["dataset"]["train_n"] == 55000
        assert cfg["dataset"]["test_n"] == 10000
        assert cfg["dataset"]["val_n"] == 5000

    def test_idx_from_set_defaults_to_full_scale_split(self):
        cfg = cli.resolve_config(cli.load_config(None, ["dataset.kind=idx"]))
        split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
        assert split == [55000, 10000, 5000]

    def test_explicit_split_size_wins_over_idx_default(self, tmp_path):
        path = tmp_path / "idx.json"
        path.write_text(json.dumps({"dataset": {"kind": "idx", "train_n": 100}}))
        for cfg in (cli.load_config(path, []),
                    cli.load_config(None, ["dataset.kind=idx", "dataset.train_n=100"])):
            cfg = cli.resolve_config(cfg)
            split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
            assert split == [100, 10000, 5000]

    def test_synthetic_split_defaults(self):
        cfg = cli.resolve_config(cli.load_config(None, []))
        split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
        assert split == [5000, 1000, 1000]


class TestSweep:
    def test_layer_sweep_writes_merged_csv(self, blob_config, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "layers=1,2"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,accuracy,total_seconds,total_flops"
        assert len(rows) == 3
        assert (out / "layers-1" / "summary.json").exists()
        assert (out / "layers-2" / "summary.json").exists()

    def test_sweep_after_in_process_training_does_not_hang(self, blob_config, tmp_path):
        # The parent holds an optimizer whose step pool has started threads
        # when the sweep forks its workers; a forked child also steps it.
        script = textwrap.dedent(f"""
            import os
            import signal

            import numpy as np
            from subsample_nn import cli, nn
            from subsample_nn.data import split, synth_blobs
            from subsample_nn.policies import make_policy
            from subsample_nn.train import train

            sp = split(synth_blobs(200, 8, 3, separation=8.0, seed=0), 100, 50, 50, seed=0)
            model = nn.init_weights([8, 16, 16, 3], seed=0)
            opt = nn.Optimizer("adam", 1e-3)
            train(model, sp, make_policy("exact"), opt, epochs=1, batch_size=1, seed=0)
            code = cli.main(["sweep", "--config", {str(blob_config)!r},
                             "--out", {str(tmp_path / "sweep")!r}, "--vary", "layers=1,2"])
            assert code == 0, code
            grads = nn.backward(model, nn.forward(model, sp.train.features[:1]),
                                sp.train.labels[:1])
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)  # a hung child ends itself
                nn.step(opt, model, grads)
                os._exit(0 if np.isfinite(model.weights[0]).all() else 1)
            assert os.waitpid(pid, 0)[1] == 0
            print("ok")
        """)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), **{cli.THREADS_ENV: "2"})
        # its own session, so that a hang ends with every forked worker killed
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sweep after in-process training hung")
        assert proc.returncode == 0, err
        assert out.strip().endswith("ok")
        assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 3

    def test_sweep_rows_reproducible(self, blob_config, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "1")

        def deterministic_columns(path):
            rows = []
            for line in (path / "sweep.csv").read_text().strip().splitlines()[1:]:
                variant, acc, _seconds, flops = line.split(",")
                rows.append((variant, acc, flops))
            return rows

        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        run(["sweep", "--config", str(blob_config), "--out", str(out_a),
             "--vary", "batch=1,5"])
        run(["sweep", "--config", str(blob_config), "--out", str(out_b),
             "--vary", "batch=1,5"])
        assert deterministic_columns(out_a) == deterministic_columns(out_b)

    def test_policy_sweep(self, blob_config, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        out = tmp_path / "policies"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "policy=exact,dropout"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["policy-exact", "policy-dropout"]

    def test_non_numeric_thread_cap_is_usage_error(self, blob_config, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv(cli.THREADS_ENV, "two")
        code = run(["sweep", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--vary", "layers=1,2"])
        assert code == 2
        assert f"error: {cli.THREADS_ENV} must be an integer" in capsys.readouterr().err

    def test_unknown_axis_usage_error(self, blob_config, tmp_path):
        assert run(["sweep", "--config", str(blob_config),
                    "--out", str(tmp_path / "x"), "--vary", "width=1,2"]) == 2

    @pytest.mark.parametrize("vary,setting", [
        ("layers=1,abc", "architecture.hidden_layers"), ("batch=1,abc", "batch_size"),
    ])
    def test_non_numeric_vary_is_usage_error(self, blob_config, tmp_path, monkeypatch,
                                             capsys, vary, setting):
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        out = tmp_path / "x"
        code = run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", vary])
        assert code == 2
        assert f"error: {setting} must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()  # the valid first value never ran


class TestVerifyTheory:
    def test_default_passes_and_prints_table(self, capsys):
        assert run(["verify-theory"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        for value in ("0.2000", "0.4400", "1.9860"):
            assert value in out

    def test_c1_ratios_are_powers_of_two_minus_one(self, capsys):
        assert run(["verify-theory", "--c", "1", "--depth", "4"]) == 0

    def test_invalid_width_usage_error(self):
        assert run(["verify-theory", "--width", "7"]) == 2

    def test_failure_exit_code(self, monkeypatch):
        real = analysis.theorem1_check

        def corrupted(model, sets, c):
            rows = real(model, sets, c)
            rows[0]["ratio"] += 0.5
            return rows

        monkeypatch.setattr(cli.analysis, "theorem1_check", corrupted)
        assert run(["verify-theory"]) == 3

    def test_writes_ratio_csv(self, tmp_path):
        assert run(["verify-theory", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ratios_c5.csv").read_text().strip().splitlines()
        assert lines[0] == "k,ratio"
        assert len(lines) == 7


class TestMatmulBench:
    def test_full_budget_zero_error(self, capsys):
        assert run(["matmul-bench", "--m", "4", "--n", "6", "--p", "4",
                    "--k", "6", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "empirical_sq_error 0.0" in out

    def test_flop_ratio_near_budget_fraction(self, capsys):
        assert run(["matmul-bench", "--m", "16", "--n", "64", "--p", "16",
                    "--k", "8", "--trials", "1000"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("flop_ratio ")[1].split(" ")[0])
        assert 0.8 * 8 / 64 <= ratio <= 1.3 * 8 / 64

    def test_analytic_close_to_empirical(self, capsys):
        assert run(["matmul-bench", "--m", "8", "--n", "32", "--p", "8",
                    "--k", "8", "--trials", "4000"]) == 0
        out = capsys.readouterr().out
        analytic = float(out.split("analytic_sq_error ")[1].splitlines()[0])
        empirical = float(out.split("empirical_sq_error ")[1].splitlines()[0])
        assert abs(analytic - empirical) <= 0.15 * analytic

    def test_bad_dims_usage_error(self):
        assert run(["matmul-bench", "--m", "0"]) == 2
