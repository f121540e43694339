import json
import os
import re
import shlex
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from subsample_nn import analysis, cli
from subsample_nn.data import synth_digits, write_idx
from subsample_nn.errors import ParameterError
from subsample_nn.nn import load_checkpoint


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


# the policy kind that takes each policy.* setting
POLICY_OF = {"policy.p_keep": "dropout", "policy.alpha": "adaptive_dropout",
             "policy.beta": "adaptive_dropout", "policy.C": "alsh", "policy.K": "alsh",
             "policy.k_samples": "mc"}

# how a setting's conversion error names its type
WORDING = {"epochs": "an integer", "dataset.noise": "a number", "dataset.separation": "a number",
           "dataset.n_features": "an integer", "policy.p_keep": "a number",
           "policy.alpha": "a number", "policy.C": "a number", "policy.K": "an integer",
           "policy.k_samples": "an integer"}


def run(argv):
    return cli.main(argv)


def quick_start_commands():
    """The arguments of each subsample-nn command in README's Quick start."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("subsample-nn ")]


def sweep_rows(path):
    """(variant, accuracy, total_flops) of each sweep.csv row; the seconds vary."""
    rows = []
    for line in (path / "sweep.csv").read_text().strip().splitlines()[1:]:
        variant, acc, _seconds, flops = line.split(",")
        rows.append((variant, acc, flops))
    return rows


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

    @pytest.mark.parametrize("sidecar", ["kept", "deleted"])
    def test_checkpoint_reloads_to_the_reported_accuracy(self, blob_config, tmp_path, sidecar):
        # the binary alone describes the model: reloaded on the run's own
        # split, it predicts the confusion matrix summary.json reports
        out = tmp_path / "run"
        assert run(["train", "--config", str(blob_config), "--out", str(out),
                    "--set", "dataset.separation=1.5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        if sidecar == "deleted":
            (out / "checkpoint.bin.json").unlink()
        split = cli.build_dataset(summary["config"], summary["seed"])
        cm = analysis.confusion(load_checkpoint(out / "checkpoint.bin"), split.test)
        assert 0.5 < summary["test_accuracy"] < 1.0
        assert cm.accuracy == summary["test_accuracy"]
        assert cm.counts.tolist() == summary["confusion"]

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

    def test_alsh_bits_past_64_is_usage_error(self, blob_config, tmp_path, capsys):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", "policy.kind=alsh", "--set", "policy.K=65"])
        assert code == 2
        assert "bits must be at most 64, got 65" in capsys.readouterr().err

    def test_negative_digit_noise_is_usage_error(self, blob_config, tmp_path, capsys,
                                                 monkeypatch):
        built = []
        monkeypatch.setattr(cli.data, "synth_digits", lambda *a, **k: built.append(a))
        out = tmp_path / "x"
        code = run(["train", "--config", str(blob_config), "--out", str(out),
                    "--set", "dataset.kind=synth_digits", "--set", "dataset.noise=-0.5"])
        assert code == 2
        assert "error: synth_digits needs noise >= 0, got -0.5" in capsys.readouterr().err
        assert built == [] and not out.exists()  # refused before any data is built

    @pytest.mark.parametrize("setting", list(WORDING))
    def test_non_numeric_setting_is_usage_error(self, blob_config, tmp_path, capsys, setting):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", f"policy.kind={POLICY_OF.get(setting, 'exact')}",
                    "--set", f"{setting}=abc"])
        assert code == 2
        assert f"error: {setting} must be {WORDING[setting]}, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "nan", "inf"])
    @pytest.mark.parametrize("setting", ["dataset.noise", "dataset.separation",
                                         "optimizer.learning_rate", "policy.p_keep",
                                         "policy.alpha", "policy.beta", "policy.C"])
    def test_non_finite_setting_is_usage_error(self, blob_config, tmp_path, capsys, setting,
                                               value):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", f"policy.kind={POLICY_OF.get(setting, 'exact')}",
                    "--set", f"{setting}={value}"])
        assert code == 2
        assert f"error: {setting} must be a number, got " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("setting,value", [
        ("epochs", "1.5"), ("architecture.hidden_width", "32.9"), ("dataset.train_n", "100.5"),
        ("dataset.n_features", "1.5"), ("dataset.n_classes", "2.5"), ("policy.K", "1.5"),
        ("policy.k_samples", "1.5"),
    ])
    def test_fractional_integer_setting_is_usage_error(self, blob_config, tmp_path, capsys,
                                                       setting, value):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", f"policy.kind={POLICY_OF.get(setting, 'exact')}",
                    "--set", f"{setting}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {setting} must be an integer, got {float(value)!r}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("assignment,message", [
        ("epoch=5", "unknown setting 'epoch'"),
        ("architecture.hidden_widht=64", "unknown setting 'architecture.hidden_widht'"),
        ("optimizer.lr=0.5", "unknown setting 'optimizer.lr'"),
        ("dataset.train=100", "unknown setting 'dataset.train'"),
        ("architecture=3", "architecture must be a section, got 3"),
        ("policy=mc", "policy must be a section, got 'mc'"),
    ])
    def test_unknown_setting_or_scalar_section_is_usage_error(self, blob_config, tmp_path,
                                                               capsys, assignment, message):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", assignment])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_setting_in_a_config_file_is_usage_error(self, blob_config, tmp_path,
                                                              capsys):
        config = json.loads(blob_config.read_text())
        config["architecture"]["hidden_widht"] = 64
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        code = run(["train", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: unknown setting 'architecture.hidden_widht'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("setting,value,wording", [
        ("epochs", "true", "an integer, got True"),
        ("policy.K", "true", "an integer, got True"),
        ("dataset.noise", "false", "a number, got False"),
    ])
    def test_boolean_setting_is_usage_error(self, blob_config, tmp_path, capsys, setting,
                                            value, wording):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", f"policy.kind={POLICY_OF.get(setting, 'exact')}",
                    "--set", f"{setting}={value}"])
        assert code == 2
        assert f"error: {setting} must be {wording}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_policy_kind_is_an_exact_name(self, blob_config, tmp_path, capsys):
        code = run(["train", "--config", str(blob_config), "--out", str(tmp_path / "x"),
                    "--set", "policy.kind=MC"])
        assert code == 2
        assert "error: unknown policy kind 'MC'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_file_and_set_give_the_same_policy_parameter(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"policy": {"kind": "mc", "k_samples": "10"}}))
        from_file = cli.resolve_config(cli.load_config(path))
        from_set = cli.resolve_config(cli.load_config(None, ["policy.kind=mc",
                                                             "policy.k_samples=10"]))
        assert from_file["policy"] == from_set["policy"] == {"kind": "mc", "k_samples": 10}

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

    @pytest.mark.parametrize("value", ["true", "7", '["a"]'])
    def test_idx_path_that_is_not_a_string_is_usage_error(self, tmp_path, value):
        # such a value reached open(): true and 7 are file descriptors. Run in
        # a child, so a regression cannot close this process's descriptors
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "subsample_nn.cli", "train", "--out", str(tmp_path / "run"),
             "--set", "dataset.kind=idx", "--set", f"dataset.images={value}",
             "--set", f"dataset.labels={value}"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: idx dataset needs 'images' and 'labels' paths")
        assert len(proc.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_idx_header_is_runtime_error(self, tmp_path):
        # an images header declaring 2**31 images: one error line, no traceback
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(synth_digits(20, seed=0), images, labels)
        raw = bytearray(images.read_bytes())
        raw[4:8] = (2**31).to_bytes(4, "big")
        images.write_bytes(bytes(raw))
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "subsample_nn.cli", "train", "--out", str(tmp_path / "run"),
             "--set", "dataset.kind=idx", "--set", f"dataset.images={images}",
             "--set", f"dataset.labels={labels}", "--set", "dataset.train_n=10",
             "--set", "dataset.test_n=5", "--set", "dataset.val_n=5"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {images}: truncated data at byte 16 "
                                            "(wants 1683627180032 bytes, 15680 left)"]

    def test_idx_with_bytes_after_its_labels_is_runtime_error(self, tmp_path):
        # 20 labels end at byte 28; a longer file is not loaded truncated
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(synth_digits(20, seed=0), images, labels)
        labels.write_bytes(labels.read_bytes() + bytes([1, 2, 3]))
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "subsample_nn.cli", "train", "--out", str(tmp_path / "run"),
             "--set", "dataset.kind=idx", "--set", f"dataset.images={images}",
             "--set", f"dataset.labels={labels}", "--set", "dataset.train_n=10",
             "--set", "dataset.test_n=5", "--set", "dataset.val_n=5"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {labels}: bytes after the declared data, "
                                            "at byte 28"]

    def test_idx_config_defaults_to_full_scale_split(self, tmp_path):
        path = tmp_path / "idx.json"
        path.write_text(json.dumps({"dataset": {"kind": "idx",
                                                "images": "i", "labels": "l"}}))
        cfg = cli.resolve_config(cli.load_config(path, []))
        assert cfg["dataset"]["train_n"] == 55000
        assert cfg["dataset"]["test_n"] == 10000
        assert cfg["dataset"]["val_n"] == 5000

    def test_idx_from_set_defaults_to_full_scale_split(self):
        cfg = cli.resolve_config(cli.load_config(None, ["dataset.kind=idx", "dataset.images=i",
                                                        "dataset.labels=l"]))
        split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
        assert split == [55000, 10000, 5000]

    def test_explicit_split_size_wins_over_idx_default(self, tmp_path):
        path = tmp_path / "idx.json"
        path.write_text(json.dumps({"dataset": {"kind": "idx", "train_n": 100,
                                                "images": "i", "labels": "l"}}))
        for cfg in (cli.load_config(path, []),
                    cli.load_config(None, ["dataset.kind=idx", "dataset.train_n=100",
                                           "dataset.images=i", "dataset.labels=l"])):
            cfg = cli.resolve_config(cfg)
            split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
            assert split == [100, 10000, 5000]

    def test_synthetic_split_defaults(self):
        cfg = cli.resolve_config(cli.load_config(None, []))
        split = [cfg["dataset"][key] for key in ("train_n", "test_n", "val_n")]
        assert split == [5000, 1000, 1000]

    @pytest.mark.parametrize("setting,message", [
        ("batch_size=0", "epochs must be >= 0 and batch_size >= 1"),
        ("epochs=-1", "epochs must be >= 0 and batch_size >= 1"),
        ("architecture.hidden_layers=-1", "architecture dims must be positive"),
        ("architecture.hidden_width=0", "architecture dims must be positive"),
        ("optimizer.learning_rate=-1", "learning rate must be positive"),
        ("optimizer.kind=rmsprop", "unknown optimizer 'rmsprop'"),
        ("dataset.kind=nope", "unknown dataset kind 'nope'"),
        ("dataset.kind=[1]", "unknown dataset kind [1]"),
        ("dataset.noise=-0.5", "synth_digits needs noise >= 0, got -0.5"),
    ])
    def test_resolve_makes_every_check_a_run_makes(self, setting, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            cli.resolve_config(cli.load_config(None, [setting]))

    @pytest.mark.parametrize("settings", [
        ["dataset.train_n=-1"],
        ["dataset.val_n=-1", "dataset.kind=synth_blobs"],
        ["dataset.train_n=0", "dataset.test_n=0", "dataset.val_n=0"],
        ["dataset.kind=synth_blobs", "dataset.train_n=0", "dataset.test_n=0", "dataset.val_n=0"],
    ], ids=["negative", "negative-blobs", "all-zero", "all-zero-blobs"])
    def test_split_sizes_are_checked_at_resolve(self, settings):
        with pytest.raises(ParameterError, match=re.escape(
                "split sizes must be >= 0, and sum to >= 1 for a synthetic set")):
            cli.resolve_config(cli.load_config(None, settings))

    @pytest.mark.parametrize("setting", ["dataset.n_features=0", "dataset.n_classes=0",
                                         "dataset.separation=0", "dataset.separation=-1"])
    def test_blob_settings_are_checked_at_resolve(self, setting):
        with pytest.raises(ParameterError, match=re.escape(
                "synth_blobs needs n_features, n_classes >= 1 and separation > 0")):
            cli.resolve_config(cli.load_config(None, ["dataset.kind=synth_blobs", setting]))
        with pytest.raises(ParameterError, match=re.escape(  # checked under any kind
                "synth_blobs needs n_features, n_classes >= 1 and separation > 0")):
            cli.resolve_config(cli.load_config(None, [setting]))

    @pytest.mark.parametrize("settings,message", [
        (["dataset.images=7"], "idx dataset needs 'images' and 'labels' paths"),
        (["dataset.labels=[1]"], "idx dataset needs 'images' and 'labels' paths"),
        (["dataset.kind=synth_blobs", "dataset.noise=-3"], "synth_digits needs noise >= 0"),
    ], ids=["images", "labels", "noise"])
    def test_settings_of_an_unselected_kind_are_checked(self, settings, message):
        # summary.json keeps every dataset setting, whichever kind the run uses
        with pytest.raises(ParameterError, match=re.escape(message)):
            cli.resolve_config(cli.load_config(None, settings))

    def test_seed_flag_is_applied_after_the_file_and_set(self, blob_config):
        assert cli.load_config(blob_config, ["seed=5"])["seed"] == 5

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "must hold a JSON object, got [1, 2]"),
        ('{"epochs": 1,', "is not valid JSON"),
    ])
    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = run(["train", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"error: config file {path} {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestSweep:
    def test_layer_sweep_writes_merged_csv(self, blob_config, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "architecture.hidden_layers=1,2"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,accuracy,total_seconds,total_flops"
        assert len(rows) == 3
        assert (out / "architecture.hidden_layers-1" / "summary.json").exists()
        assert (out / "architecture.hidden_layers-2" / "summary.json").exists()

    def test_sweep_after_in_process_training_does_not_hang(self, blob_config, tmp_path):
        # The process holds an optimizer whose Adam step has started threads
        # and runs a sweep; a child forked after both also steps it.
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
                             "--out", {str(tmp_path / "sweep")!r},
                             "--vary", "architecture.hidden_layers=1,2"])
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
        env = dict(os.environ, PYTHONPATH=str(src))
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

    def test_variants_run_in_this_process_in_vary_order(self, blob_config, tmp_path,
                                                        monkeypatch):
        calls = []
        run_training = cli.run_training

        def recording(config, out_dir):
            calls.append((os.getpid(), out_dir.name))
            return run_training(config, out_dir)

        monkeypatch.setattr(cli, "run_training", recording)
        assert run(["sweep", "--config", str(blob_config), "--out", str(tmp_path / "sweep"),
                    "--vary", "seed=2,0,1"]) == 0
        assert calls == [(os.getpid(), f"seed-{seed}") for seed in (2, 0, 1)]

    def test_sweep_rows_reproducible(self, blob_config, tmp_path):
        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        run(["sweep", "--config", str(blob_config), "--out", str(out_a),
             "--vary", "batch_size=1,5"])
        run(["sweep", "--config", str(blob_config), "--out", str(out_b),
             "--vary", "batch_size=1,5"])
        assert sweep_rows(out_a) == sweep_rows(out_b)

    def test_policy_sweep(self, blob_config, tmp_path):
        out = tmp_path / "policies"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "policy.kind=exact,dropout"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["policy.kind-exact", "policy.kind-dropout"]

    def test_policy_sweep_keeps_the_policy_settings(self, blob_config, tmp_path):
        out = tmp_path / "policies"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "policy.kind=dropout", "--set", "policy.p_keep=0.5"]) == 0
        summary = json.loads((out / "policy.kind-dropout" / "summary.json").read_text())
        assert summary["config"]["policy"] == {"kind": "dropout", "p_keep": 0.5}
        assert summary["policy"] == {"kind": "dropout", "p_keep": 0.5}

    def test_policy_sweep_checks_every_kind_before_any_run(self, blob_config, tmp_path, capsys):
        out = tmp_path / "policies"
        code = run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", "policy.kind=dropout,exact", "--set", "policy.p_keep=0.5"])
        assert code == 2
        assert ("error: unknown parameters for policy 'exact': ['p_keep']"
                in capsys.readouterr().err)
        assert not out.exists()  # the valid dropout variant never ran

    def test_mc_width_is_checked_before_any_run(self, blob_config, tmp_path, capsys):
        out = tmp_path / "x"
        code = run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--set", "policy.kind=mc", "--vary", "architecture.hidden_width=16,8"])
        assert code == 2
        assert "error: k_samples=10 exceeds hidden width 8" in capsys.readouterr().err
        assert not out.exists()  # the width-16 variant never ran

    def test_unknown_axis_usage_error(self, blob_config, tmp_path):
        assert run(["sweep", "--config", str(blob_config),
                    "--out", str(tmp_path / "x"), "--vary", "width=1,2"]) == 2

    @pytest.mark.parametrize("path,values", [("architecture.hidden_width", [16, 24]),
                                             ("seed", [0, 1])])
    def test_any_setting_path_is_swept(self, blob_config, tmp_path, path, values):
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", f"{path}={','.join(map(str, values))}"]) == 0
        assert [row[0] for row in sweep_rows(out)] == [f"{path}-{v}" for v in values]
        for value in values:
            node = json.loads((out / f"{path}-{value}" / "summary.json").read_text())["config"]
            for part in path.split("."):
                node = node[part]
            assert node == value

    @pytest.mark.parametrize("vary,message", [
        ("batch_size=1,0", "epochs must be >= 0 and batch_size >= 1"),
        ("architecture.hidden_layers=1,-1", "architecture dims must be positive"),
        ("optimizer.learning_rate=0.001,-1", "learning rate must be positive"),
        ("dataset.kind=synth_blobs,nope", "unknown dataset kind 'nope'"),
        ("width=1,2", "unknown setting 'width'"),
        ("policy=mc", "policy must be a section, got 'mc'"),
        ("seed=0,0", "--vary variant 'seed-0' is not a new directory name"),
        ("dataset.images=a/b", "--vary variant 'dataset.images-a/b' is not a new directory name"),
        ("dataset.train_n=100,-5", "split sizes must be >= 0"),
        ("dataset.separation=1,-1", "synth_blobs needs n_features, n_classes >= 1 and separation > 0"),
    ])
    def test_bad_variant_fails_before_any_run(self, blob_config, tmp_path, capsys, vary,
                                              message):
        out = tmp_path / "x"
        code = run(["sweep", "--config", str(blob_config), "--out", str(out), "--vary", vary])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()  # no variant ran

    @pytest.mark.parametrize("setting", ["architecture.hidden_layers", "batch_size"])
    def test_non_numeric_vary_is_usage_error(self, blob_config, tmp_path, capsys, setting):
        out = tmp_path / "x"
        code = run(["sweep", "--config", str(blob_config), "--out", str(out),
                    "--vary", f"{setting}=1,abc"])
        assert code == 2
        assert f"error: {setting} must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()  # the valid first value never ran


class TestReadme:
    def test_quick_start_commands_parse_and_resolve(self):
        commands = quick_start_commands()
        assert {argv[0] for argv in commands} >= {"train", "sweep"}
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv)
            if args.command == "train":
                cli.resolve_config(cli.load_config(args.config, args.set or []))
            elif args.command == "sweep":
                config = cli.load_config(args.config, args.set or [])
                assert cli._variant_configs(config, args.vary)


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

    def test_non_integer_c_is_usage_error(self, capsys):
        assert run(["verify-theory", "--c", "abc"]) == 2
        assert "error: --c" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--c", "0"], ["--c", "5,0"], ["--depth", "0"],
                                      ["--width", "0"], ["--width", "7"]])
    def test_bad_setting_fails_before_any_check(self, capsys, argv):
        assert run(["verify-theory", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fewer_than_one_trial_is_usage_error(self, capsys, trials):
        assert run(["matmul-bench", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --trials" in captured.err
