"""The benchmark's own checks: each passes on a real result and fails on a
corrupted one, so none passes vacuously.

    python3 -m pytest perfbench/test_checks.py      (from the repository root)
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import prunelab  # noqa: E402
from prunelab import checkpoint, criteria, experiment, model as mdl, ops  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402

TINY = {"seed": 3, "n_train": 60, "n_eval": 30, "epochs": 4, "interval": 2}


def tiny_run(out_dir: Path) -> dict:
    config = experiment.ExperimentConfig(**TINY)
    res = experiment.run_experiment(config, out_dir)
    data = experiment.load_dataset(config)
    x, y = data.eval_x, data.eval_y
    return {
        "config": config,
        "final": child.model_dict(res["model"]),
        "report": json.loads((out_dir / "report.json").read_text()),
        "logits": mdl.forward(res["model"], x),
        "x": x,
        "y": y,
        "out": out_dir,
    }


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("tiny"))


def perturbed(model: dict, layer: int = 0) -> dict:
    bad = copy.deepcopy(model)
    bad["conv"][layer].flat[0] += 1e-3
    return bad


def test_conv_oracle_matches_naive_loops():
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((2, 3, 5, 6)), rng.standard_normal((4, 3, 3, 3))
    np.testing.assert_allclose(checks.conv_oracle(x, w, 2, 1), ops.conv2d_reference(x, w, 2, 1), atol=1e-12)


def test_n_pruned_uses_the_decimal_rate():
    assert [checks.n_pruned(0.4, n) for n in (8, 16, 128)] == [3, 6, 51]
    assert checks.n_pruned(0.29, 100) == 29  # 0.29 * 100 == 28.999... in floating point


def test_logits(result):
    r = result
    last = r["report"]["epochs"][-1]["eval_top1"]
    assert checks.check_logits(r["final"], r["x"], r["logits"], r["y"], last) == []
    assert checks.check_logits(perturbed(r["final"], 2), r["x"], r["logits"])
    assert checks.check_logits(r["final"], r["x"], r["logits"], r["y"], last + 1 / len(r["y"]))


def test_repeatable(result):
    logits = result["logits"]
    assert checks.check_repeatable([logits, logits.copy()]) == []
    bad = logits.copy()
    bad[0, 0] = np.nextafter(bad[0, 0], np.inf)
    assert checks.check_repeatable([logits, bad])


def test_compaction(result):
    cfg, final = result["config"], result["final"]
    macs = result["report"]["flops"]["pruned_macs"]
    assert checks.check_compaction(cfg.arch, final["arch"], cfg.prune_rate, macs) == []
    assert checks.check_compaction(cfg.arch, final["arch"], cfg.prune_rate, macs + 1)
    wider = copy.deepcopy(final["arch"])
    wider["conv_layers"][1]["out_channels"] += 1
    assert checks.check_compaction(cfg.arch, wider, cfg.prune_rate, macs)


def test_prune_steps(result):
    cfg, steps = result["config"], result["report"]["prune_steps"]
    assert checks.check_prune_steps(steps, cfg.arch, cfg.prune_rate, 2) == []
    assert checks.check_prune_steps(steps, cfg.arch, cfg.prune_rate, 3)

    flipped = copy.deepcopy(steps)
    flipped[0]["masks"][1][0] ^= 1
    assert checks.check_prune_steps(flipped, cfg.arch, cfg.prune_rate, 2)

    two_hot = copy.deepcopy(steps)
    two_hot[1]["action"] = [1, 1] + two_hot[1]["action"][2:]
    assert checks.check_prune_steps(two_hot, cfg.arch, cfg.prune_rate, 2)

    not_min = copy.deepcopy(steps)
    step = not_min[0]
    win = step["action"].index(1)
    other = (win + 1) % len(step["action"])
    step["action"] = [int(i == other) for i in range(len(step["action"]))]
    step["selected"] = step["candidates"][other]["criterion"]
    step["candidates"][other]["value"] = step["reference_value"] + 0.5
    step["candidates"][other]["gap"] = 0.5 + step["candidates"][win]["gap"]
    assert any("minimum" in f for f in checks.check_prune_steps(not_min, cfg.arch, cfg.prune_rate, 2))


def test_same_model(result):
    loaded, _ = checkpoint.load_checkpoint(result["out"] / "final.ckpt")
    loaded = child.model_dict(loaded)
    assert checks.check_same_model(loaded, result["final"]) == []
    assert checks.check_same_model(perturbed(loaded), result["final"])
    flipped = copy.deepcopy(loaded)
    flipped["masks"][0][0] = ~flipped["masks"][0][0]
    assert checks.check_same_model(flipped, result["final"])


def test_same_hashes(result, tmp_path):
    again = checks.file_hashes(tiny_run(tmp_path)["out"])
    first = checks.file_hashes(result["out"])
    assert checks.check_same_hashes([first, again]) == []
    raw = bytearray((tmp_path / "final.ckpt").read_bytes())
    raw[-1] ^= 1
    (tmp_path / "final.ckpt").write_bytes(bytes(raw))
    assert checks.check_same_hashes([first, checks.file_hashes(tmp_path)])


def test_floor():
    assert checks.check_floor(0.9, 0.5) == []
    assert checks.check_floor(0.5, 0.5)


def test_scores():
    bank = np.random.default_rng(1).standard_normal((6, 2, 3, 3))
    bank[2] = 0.0
    names = ("l1", "l2", "minkowski1", "minkowski2", "cosine")
    scores = {n: criteria.criterion_scores(bank, criteria.parse_criterion(n)) for n in names}
    assert checks.check_scores(bank, scores) == []
    for n in names:
        bad = dict(scores)
        bad[n] = scores[n].copy()
        bad[n][4] *= 1 + 1e-6
        assert checks.check_scores(bank, bad), n


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
def test_conv_adjoint(stride, pad):
    rng = np.random.default_rng(2)
    x, w = rng.standard_normal((3, 4, 7, 7)), rng.standard_normal((5, 4, 3, 3))
    y = ops.conv2d_forward(x, w, stride, pad)
    g = rng.standard_normal(y.shape)
    dx, dw = ops.conv2d_backward(x, w, g, stride, pad)
    assert checks.check_conv_adjoint(x, w, g, stride, pad, y, dx, dw) == []
    for name, arr in (("y", y), ("dx", dx), ("dw", dw)):
        args = {"y": y, "dx": dx, "dw": dw}
        args[name] = arr.copy()
        args[name].flat[3] += 1e-3
        assert checks.check_conv_adjoint(x, w, g, stride, pad, **args), name


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = experiment.ExperimentConfig(**TINY)
    out = child.run_round(config, "default-tiny", tmp_path / "run", tmp_path / "trace.json")
    assert (out["attempted"], out["failed"], out["failures"]) == (3, 0, [])
    layers = out["layers"]
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] in layers} == {
        n: u for n, (_, u) in layers.items()}
    # names imported across modules were traced too, and restored afterwards
    assert layers["criteria.criterion_scores.calls"][0] > 0
    assert layers["checkpoint.save_checkpoint.s"][0] > 0
    assert prunelab.meta.criterion_scores is criteria.criterion_scores
    assert prunelab.experiment.save_checkpoint is checkpoint.save_checkpoint
    assert len(json.loads((tmp_path / "trace.json").read_text())["spans"]) > 0


def test_end_to_end_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_failed_check_fails_the_operation(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.TOP1_FLOOR, "default-tiny", 1.0)
    out = child.run_round(experiment.ExperimentConfig(**TINY), "default-tiny", tmp_path, None)
    assert out["attempted"] == 3 and out["failed"] == 1
    assert any("floor" in f for f in out["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "default",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
