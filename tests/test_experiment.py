import json

import numpy as np
import pytest

from prunelab import model as mdl
from prunelab.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_report,
    render_feature_maps,
    run_experiment,
    write_pgm,
)
from prunelab.flops import FlopsReport, LayerFlops
from prunelab.model import Architecture, ConvSpec, apply_mask, build_model

TINY_ARCH = {
    "input_shape": [1, 8, 8],
    "conv_layers": [
        {"in_channels": 1, "out_channels": 5, "kernel": 3, "stride": 1, "pad": 1},
        {"in_channels": 5, "out_channels": 6, "kernel": 3, "stride": 2, "pad": 1},
    ],
    "num_classes": 6,
}


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
        assert res["model"].total_filters() == expected

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


class TestFeatureMaps:
    def make_model(self):
        arch = Architecture(
            (1, 8, 8), (ConvSpec(1, 5, 3, 1, 1), ConvSpec(5, 6, 3, 1, 1)), num_classes=6
        )
        return build_model(arch, seed=3)

    def test_one_file_per_channel(self, tmp_path):
        m = self.make_model()
        image = np.random.default_rng(0).normal(size=(1, 8, 8))
        paths = render_feature_maps(m, image, 0, tmp_path)
        assert len(paths) == 5
        assert sorted(p.name for p in paths) == [f"channel_{k}.pgm" for k in range(5)]

    def test_pruned_channel_renders_black(self, tmp_path):
        m = self.make_model()
        masks = [np.array([True, False, True, True, True]), m.masks[1]]
        apply_mask(m, masks)
        image = np.random.default_rng(1).normal(size=(1, 8, 8))
        paths = render_feature_maps(m, image, 0, tmp_path)
        raw = paths[1].read_bytes()
        header_end = raw.index(b"255\n") + 4
        assert set(raw[header_end:]) == {0}

    def test_pgm_header_and_payload_size(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.arange(12, dtype=np.uint8).reshape(3, 4))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12

    def test_constant_map_is_black(self, tmp_path):
        m = self.make_model()
        # zero image + zero-ish first layer: constant(0) maps, convention black
        for w in m.conv_weights:
            w[:] = 0.0
        paths = render_feature_maps(m, np.zeros((1, 8, 8)), 0, tmp_path)
        for p in paths:
            raw = p.read_bytes()
            payload = raw[raw.index(b"255\n") + 4 :]
            assert set(payload) == {0}

    def test_bad_layer_index(self, tmp_path):
        with pytest.raises(ValueError, match="layer_index"):
            render_feature_maps(self.make_model(), np.zeros((1, 8, 8)), 9, tmp_path)
