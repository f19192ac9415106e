import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_header
from prunelab import cli, experiment, meta, ops
from prunelab.checkpoint import load_checkpoint, save_checkpoint
from prunelab.criteria import DEFAULT_CRITERIA, criterion_scores, parse_criterion
from prunelab.data import CIFAR_RECORD_BYTES
from prunelab.experiment import ExperimentConfig, load_dataset, run_experiment
from prunelab.model import Architecture, ConvSpec, build_model, evaluate, nonzero_filter_count

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
        # a retired field is as unknown as a typo; the training recipe is fixed
        for key, value in [("epochz", 3), ("reference_initial", True), ("momentum", 0.9)]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            res = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "run")
            assert res.returncode == 1
            assert f"error: unknown config keys: {key}" in res.stderr
            assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("cfg,key", [
        ({"epochs": "3"}, "epochs"), ({"arch": {}}, "input_shape"),
        ({"batch_size": 0}, "batch_size"), ({"eval_batch_size": 0}, "eval_batch_size"),
        ({"n_train": 0}, "n_train"), ({"n_eval": 0}, "n_eval"), ({"image_size": 0}, "image_size"),
        ({"image_size": 8}, "input_shape"),
        # the recipe fields (momentum, decay_*, weight_decay) are retired: each is an unknown key
        ({"lr": -1.0, "epochs": 1, "interval": 1}, "lr"), ({"momentum": 1.5}, "momentum"),
        ({"decay_at": [0.5, 1.5]}, "decay_at"), ({"dataset": "cifar10:no-cifar-here"}, "input_shape"),
        ({"decay_factor": -1.0, "decay_at": [0.0, 0.5]}, "decay_factor"),
        ({"weight_decay": float("nan")}, "weight_decay"),
        ({"arch": {**CIFAR_ARCH, "num_classes": 5}, "dataset": "cifar10:no-cifar-here",
          "meta_attribute": "top1_loss"}, "num_classes"),
        ({"criteria": []}, "criteria"),
        ({"lr": float("inf")}, "lr"), ({"decay_factor": float("inf")}, "decay_factor"),
        ({"weight_decay": float("inf")}, "weight_decay"), ({"seed": -1}, "seed"),
        ({"image_size": 2, "arch": {"input_shape": [1, 2, 2], "num_classes": 10, "conv_layers": [
            {"in_channels": 1, "out_channels": 4, "kernel": 3}]}}, "collapsed"),
        ({"arch": {**ExperimentConfig().arch, "pooling": "max"}}, "pooling"),
        ({"meta_attribute": "sparsity"}, "sparsity"),
        ({"criteria": ["l1", "l" + "9" * 400]}, "p must be finite"),
        ({"lr": float("nan")}, "lr"), ({"prune_rate": 1.0}, "prune_rate"),
        ({"epochs": 2, "interval": 3}, "interval"), ({"epochs": True}, "epochs"),
        ({"criteria": ["l1", "bogus"]}, "unknown criterion"), ({"dataset": "bogus"}, "unknown dataset spec"),
    ])
    def test_bad_config_value_is_runtime_error(self, tmp_path, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run_cli("train", "--config", path, "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and key in res.stderr and "Traceback" not in res.stderr

    def test_unknown_meta_attribute_flag_is_usage_error(self, tmp_path):
        res = run_cli("train", "--meta-attribute", "sparsity", "--epochs", "1", "--interval", "1",
                      "--out-dir", tmp_path / "run")
        assert res.returncode == 2
        assert "sparsity" in res.stderr and not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("layout", ["file", "dir"])
    def test_missing_test_batch_is_runtime_error(self, tmp_path, layout):
        # neither a single CIFAR .bin file nor a directory without
        # test_batch.bin has an evaluation split
        records = np.random.default_rng(0).integers(0, 10, size=(4, CIFAR_RECORD_BYTES), dtype=np.uint8)
        (tmp_path / "data_batch_1.bin").write_bytes(records.tobytes())
        data = tmp_path / "data_batch_1.bin" if layout == "file" else tmp_path
        res = run_cli("train", "--config", cifar_config(tmp_path, data), "--out-dir", tmp_path / "run")
        assert res.returncode == 1
        assert "error:" in res.stderr and "test_batch.bin" in res.stderr
        assert "Traceback" not in res.stderr

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

    @pytest.mark.parametrize("attribute", ["top1_loss", "mean_weight"])
    def test_reports_the_model_after_a_trailing_prune_step(self, tmp_path, attribute):
        # epochs 5, interval 2: the last epoch is off the interval and still
        # ends with a prune step, which on this seed changes top-1; the last
        # epoch row reports the model after it. top1_loss evaluates the
        # selected trial; mean_weight evaluates nothing while selecting
        fields = {**TINY, "seed": 5, "epochs": 5, "interval": 2, "prune_rate": 0.6,
                  "meta_attribute": attribute}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "run"
        res = run_cli("train", "--config", cfg, "--out-dir", out)
        assert res.returncode == 0, res.stderr
        model, _ = load_checkpoint(out / "final.ckpt")
        data = load_dataset(ExperimentConfig.from_dict(fields))  # n_eval < eval_batch_size
        stats = evaluate(model, data.eval_x, data.eval_y)
        assert json.loads((out / "report.json").read_text())["epochs"][-1]["eval_top1"] == stats["top1"]
        kappa = nonzero_filter_count(model.conv_weights)
        assert (f"final eval top1: {stats['top1']:.4f}  top5: {stats['top5']:.4f}  kappa: {kappa}"
                in res.stdout.splitlines())


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


# TINY trains to chance; with these fields its top-1 differs between the
# swept values, so a sweep line with the wrong model's top-1 shows
SWEEP = {**TINY, "batch_size": 8, "epochs": 4, "lr": 0.2}


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    return path


def direct_sweep_lines(field, values, seeds):
    """What `prunelab sweep` prints, from run_experiment called directly."""
    lines = [f"{field}  mean_top1  per_seed_top1  criteria_selected"]
    for value in values:
        results = [run_experiment(ExperimentConfig.from_dict({**SWEEP, field: value, "seed": seed}))
                   for seed in range(seeds)]
        top1 = [res["reports"][-1].eval_top1 for res in results]
        selected = sorted({rec.selected for res in results for rec in res["records"]})
        lines.append(f"{value}  {np.mean(top1):.4f}  {','.join(f'{a:.4f}' for a in top1)}  "
                     f"{','.join(selected)}")
    per_seed_top1 = [line.split("  ")[2] for line in lines[1:]]
    assert len(set(per_seed_top1)) == len(values), per_seed_top1
    return lines


class TestSweep:
    def test_interval_sweep_matches_direct_runs(self, sweep_cfg):
        res = run_cli("sweep", "interval", "1", "2", "--seeds", "2", "--config", sweep_cfg)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == direct_sweep_lines("interval", [1, 2], 2)

    def test_prune_rate_sweep_matches_direct_runs(self, sweep_cfg):
        res = run_cli("sweep", "prune_rate", "0.2", "0.6", "--seeds", "2", "--config", sweep_cfg)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == direct_sweep_lines("prune_rate", [0.2, 0.6], 2)

    def test_meta_attribute_sweep_matches_direct_runs(self, sweep_cfg, capsys):
        assert cli.main(["sweep", "meta_attribute", "mean_weight", "random",
                         "--seeds", "2", "--config", str(sweep_cfg)]) == 0
        assert capsys.readouterr().out.splitlines() == direct_sweep_lines(
            "meta_attribute", ["mean_weight", "random"], 2)

    @pytest.mark.parametrize("field", ["criteria", "arch", "decay_at", "seed", "epochz", "reference_initial",
                                       "momentum"])
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
        ("lr", ["0.02", "fast"]), ("lr", ["0.02", "inf"]),
        ("dataset", ["synthetic", "bogus"]),
    ])
    def test_bad_value_fails_before_any_run(self, tiny_cfg, field, values):
        res = run_cli("sweep", field, *values, "--seeds", "1", "--config", tiny_cfg)
        assert res.returncode == 1  # a usage error (2) would mean FIELD, not the value, failed
        assert "error:" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_unknown_meta_attribute_fails_before_any_run(self, tiny_cfg):
        res = run_cli("sweep", "meta_attribute", "mean_weight", "sparsity", "--seeds", "1",
                      "--config", tiny_cfg)
        assert res.returncode == 1
        assert "error:" in res.stderr and "sparsity" in res.stderr and "Traceback" not in res.stderr
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

    def test_documented_subcommands_match_parser(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        names = list(sub.choices)
        assert re.search(r"Subcommands: (.*)\.", cli.__doc__).group(1).split(", ") == names
        row = re.search(r"\| `prunelab\.cli` \|.*interface:(.*)\|", README.read_text()).group(1)
        assert re.findall(r"`(\w+)`", row) == names
        assert {line.split()[1] for line in readme_cli_lines()} == set(names)

    def test_documented_names_match_code(self):
        text = " ".join(README.read_text().split())
        criteria = re.search(r"Criterion names: (.*?)\. Meta-attributes:", text).group(1)
        assert re.findall(r"`(\w+)`", criteria) == [c.name for c in DEFAULT_CRITERIA]
        attributes = re.search(r"Meta-attributes: (.*?)\. Exit codes", text).group(1)
        assert re.findall(r"`(\w+)`", attributes) == list(meta.META_ATTRIBUTES)
        sweeps = [line for line in readme_cli_lines() if line.startswith("prunelab sweep meta_attribute ")]
        assert sweeps
        for line in sweeps:
            values = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:]).values
            assert set(values) <= set(meta.META_ATTRIBUTES), line

    def test_documented_config_fields_match_code(self):
        lines = README.read_text().splitlines()
        documented = re.findall(r"`(\w+)=([^`]+)`", next(l for l in lines if l.startswith("Config fields")))
        assert [name for name, _ in documented] == [f.name for f in fields(ExperimentConfig)]
        defaults = experiment.DEFAULT_CONFIG.to_dict()
        for name, text in documented:
            value = experiment.DEFAULT_ARCH if text == "DEFAULT_ARCH" else json.loads(text)
            assert value == defaults[name], name
        recipe = next(l for l in lines if l.startswith("Training follows one fixed recipe"))
        for value in (experiment.MOMENTUM, experiment.WEIGHT_DECAY, experiment.LR_DECAY_FACTOR,
                      *experiment.LR_DECAY_AT):
            assert re.search(rf"\b{re.escape(str(value))}\b", recipe), value


class TestAnalyze:
    def test_l1_prunes_c(self, abc_checkpoint):
        res = run_cli("analyze", abc_checkpoint, "--criterion", "l1", "--rate", "0.34")
        assert res.returncode == 0, res.stderr
        assert "prune_indices: 2" in res.stdout

    def test_minkowski1_prunes_a(self, abc_checkpoint):
        res = run_cli("analyze", abc_checkpoint, "--criterion", "minkowski1", "--rate", "0.34")
        assert res.returncode == 0
        assert "prune_indices: 0" in res.stdout

    @pytest.mark.parametrize("criterion", ["l2", "cosine"])
    def test_score_column_is_plain_numbers(self, abc_checkpoint, criterion):
        res = run_cli("analyze", abc_checkpoint, "--criterion", criterion)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        rows = lines[lines.index("filter,score,prune") + 1 : -1]
        printed = np.array([float(row.split(",")[1]) for row in rows])
        model, _ = load_checkpoint(abc_checkpoint)
        expected = criterion_scores(model.conv_weights[0], parse_criterion(criterion))
        assert printed.tobytes() == expected.tobytes()

    def test_header_prints_the_rate_exactly(self, abc_checkpoint):
        # six significant digits would print a rate just under 1 as "rate 1",
        # which --rate rejects
        res = run_cli("analyze", abc_checkpoint, "--criterion", "l1", "--rate", "0.999999999999")
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "layer 0  criterion l1  rate 0.999999999999"
        assert "prune_indices: 0 2" in res.stdout  # N - 1 of 3 filters

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
