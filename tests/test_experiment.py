import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import ODD_SHAPES_ARCH
from prunelab import data as datamod, experiment, model as mdl, ops
from prunelab.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from prunelab.flops import FlopsReport, LayerFlops

TINY_ARCH = {
    "input_shape": [1, 8, 8],
    "conv_layers": [
        {"in_channels": 1, "out_channels": 5, "kernel": 3, "stride": 1, "pad": 1},
        {"in_channels": 5, "out_channels": 6, "kernel": 3, "stride": 2, "pad": 1},
    ],
    "num_classes": 6,
}


def cifar_arch(num_classes=10):
    """TINY_ARCH on CIFAR-10 images."""
    arch = json.loads(json.dumps(TINY_ARCH))
    arch["input_shape"] = [3, 32, 32]
    arch["conv_layers"][0]["in_channels"] = 3
    arch["num_classes"] = num_classes
    return arch


def tiny_config(**kwargs):
    args = dict(
        seed=0, arch=json.loads(json.dumps(TINY_ARCH)), epochs=2, interval=2,
        prune_rate=0.3, n_train=48, n_eval=24, image_size=8, batch_size=16,
        meta_attribute="top1_loss",
    )
    args.update(kwargs)
    return ExperimentConfig(**args)


class TestConfig:
    def test_validate_accepts_default(self):
        ExperimentConfig().validate()

    def test_epochs_vs_interval(self):
        with pytest.raises(ValueError, match="interval"):
            tiny_config(epochs=1, interval=2).validate()

    def test_prune_rate_range(self):
        with pytest.raises(ValueError, match="prune_rate"):
            tiny_config(prune_rate=1.0).validate()

    def test_top5_needs_six_classes(self):
        arch = json.loads(json.dumps(TINY_ARCH))
        arch["num_classes"] = 5
        with pytest.raises(ValueError, match="classes"):
            tiny_config(arch=arch, meta_attribute="top5_loss").validate()

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            tiny_config(criteria=("l1", "bogus")).validate()

    def test_overflowing_criterion_p_rejected(self):
        # "l999..." parses to p = inf, which would score every filter 1.0
        with pytest.raises(ValueError, match="p must be finite"):
            tiny_config(criteria=("l1", "l" + "9" * 400)).validate()

    @pytest.mark.parametrize("spec", ["bogus", "cifar10", "CIFAR10:/data", ""])
    def test_unknown_dataset_spec_named(self, spec):
        # validate, not load_dataset, must reject it: a sweep validates every
        # cell before its first run
        with pytest.raises(ValueError, match=f"unknown dataset spec '{spec}'"):
            tiny_config(dataset=spec).validate()

    @pytest.mark.parametrize("key,value", [
        ("epochs", "3"), ("epochs", True), ("prune_rate", None), ("criteria", "l1"),
        ("criteria", [1]), ("prune_rate", True), ("arch", []), ("decay_at", [True, 0.75]),
    ])
    def test_wrong_value_type_named(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            ExperimentConfig.from_dict({key: value}).validate()

    def test_int_passes_as_float(self):
        ExperimentConfig.from_dict({"prune_rate": 0, "lr": 1}).validate()

    def test_malformed_arch_named(self):
        with pytest.raises(ValueError, match="arch is missing key 'conv_layers'"):
            ExperimentConfig.from_dict({"arch": {"input_shape": [1, 8, 8]}}).validate()
        for layer, key, value in [
            (0, "kernel", 3.0), (1, "stride", True), (0, "out_channels", "5"), (1, "pad", 0.5),
        ]:
            arch = json.loads(json.dumps(TINY_ARCH))
            arch["conv_layers"][layer][key] = value
            with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
                ExperimentConfig.from_dict({"arch": arch}).validate()
        for shape in ([1], [1, 8], [1, 8, 8, 8], [1, 8, 0], [1, 8.0, 8], [1, 8, False]):
            arch = json.loads(json.dumps(TINY_ARCH))
            arch["input_shape"] = shape
            with pytest.raises(ValueError, match="'input_shape'"):
                ExperimentConfig.from_dict({"arch": arch}).validate()
        # a kernel larger than its padded input, before any data is built
        arch = json.loads(json.dumps(TINY_ARCH))
        arch["conv_layers"][1]["kernel"] = 11
        with pytest.raises(ValueError, match="spatial size collapsed to 0x0"):
            ExperimentConfig.from_dict({"arch": arch}).validate()
        # an extra key would be echoed into report.json as if it were honoured
        with pytest.raises(ValueError, match="unknown arch keys: pooling$"):
            ExperimentConfig.from_dict({"arch": {**TINY_ARCH, "pooling": "max"}}).validate()

    @pytest.mark.parametrize("key", ["batch_size", "eval_batch_size", "n_train", "n_eval", "image_size"])
    def test_size_below_one_named(self, key, monkeypatch):
        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built before validation")

        monkeypatch.setattr(datamod, "gen_synthetic_dataset", no_dataset)
        with pytest.raises(ValueError, match=f"'{key}' must be >= 1, got 0"):
            run_experiment(ExperimentConfig(**{key: 0}))

    def test_synthetic_input_shape_checked(self):
        with pytest.raises(ValueError, match=r"input_shape \[1, 16, 16\].*image_size 8"):
            ExperimentConfig(image_size=8).validate()
        arch = json.loads(json.dumps(TINY_ARCH))
        arch["input_shape"] = [3, 8, 8]
        arch["conv_layers"][0]["in_channels"] = 3
        with pytest.raises(ValueError, match="one channel"):
            tiny_config(arch=arch).validate()
        arch["input_shape"] = [3, 32, 32]
        arch["num_classes"] = 10
        tiny_config(arch=arch, dataset="cifar10:unused").validate()  # only synthetic is checked

    def test_cifar_input_shape_checked_before_loading(self, tmp_path):
        missing = tmp_path / "no-cifar-here"
        with pytest.raises(ValueError, match=r"input_shape \[1, 16, 16\].*CIFAR-10") as exc:
            run_experiment(ExperimentConfig(dataset=f"cifar10:{missing}"))
        assert "no-cifar-here" not in str(exc.value)
        with pytest.raises(FileNotFoundError):  # a CIFAR-shaped arch gets as far as loading
            run_experiment(tiny_config(arch=cifar_arch(), dataset=f"cifar10:{missing}"))

    @pytest.mark.parametrize("num_classes", [5, 9])
    def test_cifar_num_classes_checked_before_loading(self, tmp_path, num_classes):
        # CIFAR-10 labels run to 9: fewer classes would fail at the first batch
        arch = cifar_arch(num_classes=num_classes)
        missing = tmp_path / "no-cifar-here"
        with pytest.raises(ValueError, match=f"num_classes {num_classes} .*10 CIFAR-10") as exc:
            run_experiment(tiny_config(arch=arch, dataset=f"cifar10:{missing}"))
        assert "no-cifar-here" not in str(exc.value)
        tiny_config(arch=cifar_arch(num_classes=11), dataset="cifar10:unused").validate()

    @pytest.mark.parametrize("key,value", [
        ("lr", -1.0), ("lr", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
        ("decay_at", (0.5, 1.5)), ("decay_at", (-0.25, 0.5)),
        ("decay_factor", -1.0), ("decay_factor", float("nan")),
        ("weight_decay", -5e-4), ("weight_decay", float("nan")),
        ("lr", float("inf")), ("decay_factor", float("inf")), ("weight_decay", float("inf")),
        ("seed", -1),
    ])
    def test_training_value_out_of_range_named(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            tiny_config(**{key: value}).validate()

    def test_empty_criteria_rejected_before_loading(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("loaded or trained before the criteria were checked")

        monkeypatch.setattr(experiment, "load_dataset", no_work)
        monkeypatch.setattr(mdl, "train_epoch", no_work)
        with pytest.raises(ValueError, match="'criteria' must name at least one"):
            run_experiment(tiny_config(criteria=()))

    def test_training_value_edges_accepted(self):
        tiny_config(lr=0.0, momentum=0.0, decay_at=(0.0, 1.0)).validate()

    def test_round_trip_dict(self):
        cfg = tiny_config(prune_rate=0.25)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="epochz"):
            ExperimentConfig.from_dict({"epochz": 3, "seed": 1})

    def test_lr_schedule_step_decay(self):
        cfg = tiny_config(epochs=20, lr=1.0, decay_factor=0.1)
        at = cfg.lr_schedule()
        assert at(1) == 1.0
        assert at(11) == pytest.approx(0.1)
        assert at(16) == pytest.approx(0.01)


class TestRunExperiment:
    def test_missing_test_batch_fails_before_training(self, tmp_path, monkeypatch):
        # a directory without test_batch.bin has no evaluation split
        records = np.random.default_rng(0).integers(
            0, 10, size=(4, datamod.CIFAR_RECORD_BYTES), dtype=np.uint8
        )
        (tmp_path / "data_batch_1.bin").write_bytes(records.tobytes())

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the eval split was checked")

        monkeypatch.setattr(mdl, "train_epoch", no_training)
        with pytest.raises(FileNotFoundError, match="test_batch.bin"):
            run_experiment(tiny_config(arch=cifar_arch(), dataset=f"cifar10:{tmp_path}"))

    def test_rate_zero_keeps_full_flops(self, tmp_path):
        res = run_experiment(tiny_config(prune_rate=0.0), out_dir=tmp_path)
        fl = res["flops"]
        assert fl.pruned_total == fl.baseline_total
        assert len(res["records"]) == 1

    def test_final_kappa_matches_floor_arithmetic(self, tmp_path):
        cfg = tiny_config(prune_rate=0.4, epochs=4)
        res = run_experiment(cfg, out_dir=tmp_path)
        expected = sum(
            s["out_channels"] - int(0.4 * s["out_channels"])
            for s in cfg.arch["conv_layers"]
        )
        assert sum(s.out_channels for s in res["model"].arch.conv_layers) == expected

    def test_byte_identical_reports_and_checkpoints(self, tmp_path):
        cfg = tiny_config(seed=7)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(tiny_config(seed=7), out_dir=tmp_path / "b")
        for name in ("report.csv", "report.json", "final.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_manifest_written(self, tmp_path):
        run_experiment(tiny_config(), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "wall_time_seconds" in manifest
        assert manifest["config"]["seed"] == 0

    def test_default_run_work(self, monkeypatch):
        # the calls a default run makes, pinned so that a refactor of the
        # training pass or of selection cannot add or drop work unseen
        counts = {}
        for module, name in [(ops, "conv2d_forward"), (ops, "conv2d_backward"), (mdl, "evaluate")]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        run_experiment(ExperimentConfig())
        assert counts == {"conv2d_forward": 1864, "conv2d_backward": 1520, "evaluate": 43}


class TestGoldenBytes:
    """Artifact digests pinned across hot-path changes: a change that moves
    one output byte fails here. Floating-point results, and so these digests,
    may differ under another numpy or BLAS build."""

    GOLDEN = {
        "random_interval_1": (
            dict(epochs=4, interval=1, meta_attribute="random"),
            "ccc911dda7401a3b809ad2e6eed09cfd83bf39a0a3888cf58b4d16fc825f9702",
            "21535ef52f72cd3d02d66fef0e11cf92a2dcee5196bb10206be0c13d00c11512",
            "8419843b7b249e630208e67160b349be8c693fef578de72c9fdcbbd64a36cdb4",
        ),
        # candidate masks coincide here, so shared trial scores are exercised
        "top1_loss": (
            dict(epochs=6, meta_attribute="top1_loss"),
            "e812bccc98e5b638bed0136d6b9eeeb8b9b036bc062e79bf77057598ea736c82",
            "02eed4791fd05674fe9590af83c198a2d077fc1edca27e04a4138482c0d7b4c7",
            "84c8202dbda0d158d59f700c07cb52070c1d51237620688fb13c4630919e1f8f",
        ),
        # mean_weight, with a prune step every epoch
        "mean_weight_current": (
            dict(seed=2, epochs=6, interval=1, meta_attribute="mean_weight"),
            "fb1ddc0b4044bd8063f118b8b43f8d7d00f75c95779c9b5f4afddf090532d777",
            "53a8ecd8ecff5cd2a7d3e8639b3e0dd6fd3db2c47831beb2cbcb3308ed2f13e5",
            "27f677ed9a933710b75fd4174ccf07ea7de82e65a449d567add30b3c2ee06747",
        ),
        # the arch with what the default one lacks (see ODD_SHAPES_ARCH)
        "odd_shapes": (
            dict(image_size=9, epochs=4, interval=1, n_train=120, n_eval=60, arch=ODD_SHAPES_ARCH),
            "bf768722fa17cd8cb5749a4a4cedc34428dfa4077555cc1ae65c3886099f5198",
            "9cce5ad98b3fe0abfb9139e582be23ac0fa52a69ed0c21da68b27c1ce2ffeb70",
            "328ac7cda00f106973fa5d10874c6bfc83b2bfd4caa4c7add30c2771d4049f9d",
        ),
        # four Minkowski exponents (int and fractional) scored in one shared
        # pass, beside a norm and the cosine criterion
        "minkowski_exponents": (
            dict(epochs=4, interval=1, criteria=(
                "minkowski1", "minkowski1.5", "minkowski2", "minkowski3", "l1", "cosine")),
            "8ee41fb352c340e463d509943d710e2f4ce7d100e1fa8b39514b1d850c3d92ce",
            "d037ebc86f9874846291bd15fb1e0075a32f733e60c92dd73c235723242caa8c",
            "c4241c2ecada61ae73ad558f1f05efff35dfa39bf39911205f56ad4ad22da284",
        ),
        # the last prune step falls after the last interval boundary, so the
        # trailing partial interval's row follows the last epoch row
        "trailing_interval": (
            dict(epochs=5, interval=2),
            "5a49043692d4e83c58acebb32ffcfb7facc31276bc90fc25c070ed3a32d70ae1",
            "bf6911f7d61caa2701c89dd44a99e48638a6e343b9a715fdd803c18c94c7ed14",
            "77af29b6fd1553a51f380f1e2682d6d339a11447af190d7838dcbf74474435ea",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_artifact_digests(self, name, tmp_path):
        fields, *digests = self.GOLDEN[name]
        run_experiment(ExperimentConfig(**fields), out_dir=tmp_path)
        got = [
            hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("report.csv", "report.json", "final.ckpt")
        ]
        assert got == digests


class TestEmitReport:
    def test_empty_records_header_only_csv(self, tmp_path):
        cfg = tiny_config()
        fl = FlopsReport(layers=[LayerFlops(0, 10, 10)], baseline_total=10, pruned_total=10)
        files = emit_report(cfg, [], [], fl, tmp_path)
        lines = open(files["csv"]).read().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_row_count_epochs_plus_steps_plus_header(self, tmp_path):
        cfg = tiny_config(epochs=4, interval=2)
        res = run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + len(res["reports"]) + len(res["records"])

    def test_every_prune_step_appears_once(self, tmp_path):
        cfg = tiny_config(epochs=5, interval=2)  # trailing partial interval
        res = run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        prune_rows = [l for l in lines if l.startswith("prune,")]
        assert len(prune_rows) == len(res["records"]) == 3
        bundle = json.loads((tmp_path / "report.json").read_text())
        assert len(bundle["prune_steps"]) == 3

    def test_lf_newlines(self, tmp_path):
        run_experiment(tiny_config(), out_dir=tmp_path)
        raw = (tmp_path / "report.csv").read_bytes()
        assert b"\r" not in raw

    def test_json_round_trips(self, tmp_path):
        run_experiment(tiny_config(), out_dir=tmp_path)
        text = (tmp_path / "report.json").read_text()
        bundle = json.loads(text)
        assert json.loads(json.dumps(bundle)) == bundle
        assert set(bundle) == {"config", "epochs", "prune_steps", "flops"}

    def test_default_config_echoes_nothing(self, tmp_path):
        fl = FlopsReport(layers=[LayerFlops(0, 10, 10)], baseline_total=10, pruned_total=10)
        files = emit_report(ExperimentConfig(), [], [], fl, tmp_path)
        assert json.loads(open(files["json"]).read())["config"] == {}

    def test_field_at_its_default_keeps_json_bytes(self, tmp_path):
        # a field added later, left at its default, moves no report.json digest
        @dataclass
        class WithExtraField(ExperimentConfig):
            extra: int = 3

        cfg = tiny_config()
        res = run_experiment(cfg)
        args = (res["records"], res["reports"], res["flops"])
        a = emit_report(cfg, *args, tmp_path / "a")["json"]
        b = emit_report(WithExtraField(**vars(cfg)), *args, tmp_path / "b")["json"]
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_non_default_config_round_trips(self, tmp_path):
        cfg = tiny_config(prune_rate=0.25, criteria=("l1", "cosine"), decay_at=(0.25, 0.5))
        run_experiment(cfg, out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(report["config"]) == {
            "arch", "n_train", "n_eval", "image_size", "epochs", "prune_rate", "criteria",
            "meta_attribute", "decay_at", "batch_size",
        }
        assert set(manifest["config"]) == set(cfg.to_dict())
        assert ExperimentConfig.from_dict(report["config"]) == cfg
        assert ExperimentConfig.from_dict(manifest["config"]) == cfg
