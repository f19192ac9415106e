import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_header
from prunelab import cli, ops
from prunelab.checkpoint import save_checkpoint
from prunelab.data import CIFAR_RECORD_BYTES
from prunelab.experiment import ExperimentConfig, run_experiment
from prunelab.model import Architecture, ConvSpec, build_model

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "prunelab", *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture
def abc_checkpoint(tmp_path):
    arch = Architecture((3, 4, 4), (ConvSpec(3, 3, 1),), num_classes=6)
    m = build_model(arch, seed=0)
    m.conv_weights[0][:] = np.array(
        [[1.0, 1.0, 1.0], [1.1, 1.0, 1.0], [0.5, 0.3, 0.2]]
    ).reshape(3, 3, 1, 1)
    p = tmp_path / "abc.ckpt"
    save_checkpoint(m, p)
    return p


CIFAR_ARCH = {
    "input_shape": [3, 32, 32],
    "conv_layers": [{"in_channels": 3, "out_channels": 4, "kernel": 3, "stride": 2, "pad": 1}],
    "num_classes": 10,
}


def cifar_config(tmp_path, data):
    """A one-epoch CIFAR-10 config file for the data at `data`."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "arch": CIFAR_ARCH, "dataset": f"cifar10:{data}",
        "epochs": 1, "interval": 1, "meta_attribute": "mean_weight",
    }))
    return cfg


TRAIN_FLAGS = [
    "--epochs", "2", "--interval", "2", "--prune-rate", "0.3",
    "--seed", "3", "--dataset", "synthetic",
]


class TestExitCodes:
    def test_bad_prune_rate_is_usage_error(self, tmp_path):
        res = run_cli("train", "--prune-rate", "1.5", "--out-dir", tmp_path)
        assert res.returncode == 2
        assert "rate" in res.stderr

    def test_unknown_flag_rejected(self):
        assert run_cli("train", "--frobnicate").returncode == 2

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_negative_seed_is_usage_error(self, command, tmp_path):
        res = run_cli(command, "--seed", "-1", cwd=tmp_path)
        assert res.returncode == 2
        assert "--seed" in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "runs").exists()  # no training ran

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        res = run_cli("flops", tmp_path / "nope.ckpt")
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        res = run_cli("analyze", bad)
        assert res.returncode == 1

    def test_checkpoint_without_masks_is_runtime_error(self, abc_checkpoint):
        rewrite_header(abc_checkpoint, lambda h: h.pop("masks"))
        res = run_cli("flops", abc_checkpoint)
        assert res.returncode == 1
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_unknown_config_key_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochz": 3}))
        res = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and "epochz" in res.stderr

    @pytest.mark.parametrize("cfg,key", [
        ({"epochs": "3"}, "epochs"), ({"arch": {}}, "input_shape"),
        ({"batch_size": 0}, "batch_size"), ({"eval_batch_size": 0}, "eval_batch_size"),
        ({"n_train": 0}, "n_train"), ({"n_eval": 0}, "n_eval"), ({"image_size": 0}, "image_size"),
        ({"image_size": 8}, "input_shape"),
        ({"lr": -1.0, "epochs": 1, "interval": 1}, "lr"), ({"momentum": 1.5}, "momentum"),
        ({"decay_at": [0.5, 1.5]}, "decay_at"), ({"dataset": "cifar10:no-cifar-here"}, "input_shape"),
        ({"decay_factor": -1.0, "decay_at": [0.0, 0.5]}, "decay_factor"),
        ({"weight_decay": float("nan")}, "weight_decay"),
        ({"arch": {**CIFAR_ARCH, "num_classes": 5}, "dataset": "cifar10:no-cifar-here",
          "meta_attribute": "top1_loss"}, "num_classes"),
        ({"criteria": []}, "criteria"),
        ({"lr": float("inf")}, "lr"), ({"decay_factor": float("inf")}, "decay_factor"),
        ({"weight_decay": float("inf")}, "weight_decay"), ({"seed": -1}, "seed"),
    ])
    def test_bad_config_value_is_runtime_error(self, tmp_path, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run_cli("train", "--config", path, "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and key in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("key,value", [("kernel", 3.0), ("stride", True)])
    def test_non_integer_arch_field_is_runtime_error(self, tmp_path, key, value):
        arch = json.loads(json.dumps(ExperimentConfig().arch))
        arch["conv_layers"][0][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"arch": arch}))
        res = run_cli("train", "--config", path, "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and key in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["flops", "analyze"])
    @pytest.mark.parametrize("edit", [
        lambda h: h["arch"]["conv_layers"][0].__setitem__("kernel", 1.0),
        lambda h: h["arch"]["conv_layers"][0].__setitem__("stride", True),
        lambda h: h["arch"].__setitem__("input_shape", [3]),
    ], ids=["kernel", "stride", "input_shape"])
    def test_malformed_header_arch_is_runtime_error(self, abc_checkpoint, command, edit):
        rewrite_header(abc_checkpoint, edit)
        res = run_cli(command, abc_checkpoint)
        assert res.returncode == 1
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_empty_eval_split_is_runtime_error(self, tmp_path):
        # a single CIFAR .bin file gives a training split and no eval split
        records = np.random.default_rng(0).integers(0, 10, size=(4, CIFAR_RECORD_BYTES), dtype=np.uint8)
        (tmp_path / "one.bin").write_bytes(records.tobytes())
        cfg = cifar_config(tmp_path, tmp_path / "one.bin")
        res = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_cifar_label_out_of_range_is_runtime_error(self, tmp_path):
        rng = np.random.default_rng(0)
        for name, n in (("data_batch_1.bin", 4), ("test_batch.bin", 2)):
            records = rng.integers(0, 10, size=(n, CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[-1, 0] = 0x0A
            (tmp_path / name).write_bytes(records.tobytes())
        res = run_cli("train", "--config", cifar_config(tmp_path, tmp_path), "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and "label byte 10" in res.stderr
        assert "Traceback" not in res.stderr


class TestTrain:
    def test_small_run_succeeds(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("train", *TRAIN_FLAGS, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        for name in ("report.csv", "report.json", "final.ckpt", "manifest.json"):
            assert (out / name).exists()

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("train", *TRAIN_FLAGS, "--out-dir", a).returncode == 0
        assert run_cli("train", *TRAIN_FLAGS, "--out-dir", b).returncode == 0
        for name in ("report.csv", "report.json", "final.ckpt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "interval": 2, "prune_rate": 0.0, "seed": 1}))
        out = tmp_path / "run"
        res = run_cli("train", "--config", cfg, "--prune-rate", "0.3", "--out-dir", out)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["prune_rate"] == 0.3  # flag beats file
        assert manifest["config"]["seed"] == 1          # file beats default


TINY = {
    "arch": {
        "input_shape": [1, 8, 8],
        "conv_layers": [
            {"in_channels": 1, "out_channels": 5, "kernel": 3, "stride": 1, "pad": 1},
            {"in_channels": 5, "out_channels": 6, "kernel": 3, "stride": 2, "pad": 1},
        ],
        "num_classes": 6,
    },
    "n_train": 48, "n_eval": 24, "image_size": 8, "batch_size": 16, "epochs": 2,
    "meta_attribute": "top1_loss",
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def direct_sweep_lines(field, values, seeds):
    """What `prunelab sweep` prints, from run_experiment called directly."""
    lines = [f"{field}  mean_top1  per_seed_top1  criteria_selected"]
    for value in values:
        results = [run_experiment(ExperimentConfig.from_dict({**TINY, field: value, "seed": seed}))
                   for seed in range(seeds)]
        top1 = [res["reports"][-1].eval_top1 for res in results]
        selected = sorted({rec.selected for res in results for rec in res["records"]})
        lines.append(f"{value}  {np.mean(top1):.4f}  {','.join(f'{a:.4f}' for a in top1)}  "
                     f"{','.join(selected)}")
    return lines


class TestSweep:
    def test_interval_sweep_matches_direct_runs(self, tiny_cfg):
        res = run_cli("sweep", "interval", "1", "2", "--seeds", "2", "--config", tiny_cfg)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == direct_sweep_lines("interval", [1, 2], 2)

    def test_meta_attribute_sweep_matches_direct_runs(self, tiny_cfg, capsys):
        assert cli.main(["sweep", "meta_attribute", "mean_weight", "random",
                         "--seeds", "2", "--config", str(tiny_cfg)]) == 0
        assert capsys.readouterr().out.splitlines() == direct_sweep_lines(
            "meta_attribute", ["mean_weight", "random"], 2)

    @pytest.mark.parametrize("field", ["criteria", "arch", "decay_at", "seed", "epochz"])
    def test_unsweepable_field_is_usage_error(self, field, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", field, "1"])
        assert exc.value.code == 2
        assert "FIELD" in capsys.readouterr().err

    def test_stray_seed_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "interval", "1", "--seed", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("field,values", [
        ("interval", ["1", "x"]), ("interval", ["1", "0"]), ("prune_rate", ["0.2", "1.5"]),
        ("reference_initial", ["true", "maybe"]), ("lr", ["0.02", "inf"]),
    ])
    def test_bad_value_fails_before_any_run(self, tiny_cfg, field, values):
        res = run_cli("sweep", field, *values, "--seeds", "1", "--config", tiny_cfg)
        assert res.returncode in (1, 2)
        assert "error:" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""


def readme_cli_lines():
    text = README.read_text()
    section = text[text.index("\n## CLI\n") + 1:]
    section = section[: section.find("\n## ")]  # up to the next second-level heading
    return [line for line in section.splitlines() if line.startswith("prunelab ")]


class TestReadme:
    def test_cli_examples_parse(self):
        lines = readme_cli_lines()
        assert len(lines) >= 10
        for line in lines:
            try:
                cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")


class TestAnalyze:
    def test_l1_prunes_c(self, abc_checkpoint):
        res = run_cli("analyze", abc_checkpoint, "--criterion", "l1", "--rate", "0.34")
        assert res.returncode == 0, res.stderr
        assert "prune_indices: 2" in res.stdout

    def test_minkowski1_prunes_a(self, abc_checkpoint):
        res = run_cli("analyze", abc_checkpoint, "--criterion", "minkowski1", "--rate", "0.34")
        assert res.returncode == 0
        assert "prune_indices: 0" in res.stdout

    def test_output_is_stable(self, abc_checkpoint):
        a = run_cli("analyze", abc_checkpoint, "--criterion", "l2", "--rate", "0.34")
        b = run_cli("analyze", abc_checkpoint, "--criterion", "l2", "--rate", "0.34")
        assert a.stdout == b.stdout


class TestFlops:
    def test_unpruned_reduction_zero(self, abc_checkpoint):
        res = run_cli("flops", abc_checkpoint)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["theoretical_reduction"] == 0.0
        assert report["baseline_macs"] == report["pruned_macs"]


class TestGradcheck:
    def test_passes_with_seed(self):
        res = run_cli("gradcheck", "--seed", "7")
        assert res.returncode == 0, res.stdout + res.stderr
        lines = [l for l in res.stdout.splitlines() if "max relative error" in l]
        assert len(lines) == 5
        assert all("[ok]" in l for l in lines)

    def test_wrong_conv_gradient_fails(self, monkeypatch, capsys):
        backward = ops.conv2d_backward

        def scaled(*args, **kwargs):
            grad_x, grad_w = backward(*args, **kwargs)
            return grad_x, 1.01 * grad_w

        monkeypatch.setattr(ops, "conv2d_backward", scaled)
        assert cli.main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # a 1% error in every conv weight gradient fails each conv line only
        assert [l.endswith("[FAIL]") for l in lines] == [True, True, True, False, False]


class TestVisualize:
    def test_emits_one_pgm_per_channel(self, abc_checkpoint, tmp_path):
        img = tmp_path / "img.npy"
        np.save(img, np.random.default_rng(0).normal(size=(3, 4, 4)))
        out = tmp_path / "maps"
        res = run_cli("visualize", abc_checkpoint, img, "--layer", "0", "--out", out)
        assert res.returncode == 0, res.stderr
        assert len(list(out.glob("channel_*.pgm"))) == 3

    def test_non_finite_image_is_runtime_error(self, abc_checkpoint, tmp_path):
        img = tmp_path / "img.npy"
        np.save(img, np.full((3, 4, 4), np.nan))
        out = tmp_path / "maps"
        res = run_cli("visualize", abc_checkpoint, img, "--out", out)
        assert res.returncode == 1
        assert "error:" in res.stderr and "img.npy" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()
