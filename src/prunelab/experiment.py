"""Experiment orchestration: config, the prune-while-training loop (which
owns the SGD momentum buffers), report emission, feature maps.

Reports come in two flavors written side by side:
  report.csv   one row per epoch and one per prune step (LF newlines,
               fixed column order, see CSV_COLUMNS)
  report.json  config echo + all epoch/prune-step records + FLOPs report

Determinism contract: identical (config, seed) produce byte-identical
report.csv / report.json / final.ckpt. The only wall-clock timing is
wall_time_seconds in manifest.json, the field to mask when comparing runs.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, data as datamod, flops, meta, model as mdl
from .checkpoint import save_checkpoint
from .criteria import DEFAULT_CRITERIA, Criterion, parse_criterion
from .model import Architecture, ModelState

CSV_COLUMNS = [
    "kind", "epoch", "step", "train_loss", "train_acc", "eval_top1", "eval_top5",
    "kappa", "masked_macs", "selected_criterion", "reference_value", "candidate_gaps",
]

DEFAULT_ARCH = {
    "input_shape": [1, 16, 16],
    "conv_layers": [
        {"in_channels": 1, "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1},
        {"in_channels": 8, "out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
        {"in_channels": 16, "out_channels": 16, "kernel": 3, "stride": 1, "pad": 1},
        {"in_channels": 16, "out_channels": 16, "kernel": 3, "stride": 2, "pad": 1},
    ],
    "num_classes": 10,
}


@dataclass
class ExperimentConfig:
    seed: int = 0
    arch: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_ARCH)))
    dataset: str = "synthetic"          # "synthetic" or "cifar10:<path>"
    n_train: int = 600
    n_eval: int = 300
    image_size: int = 16
    epochs: int = 20
    interval: int = 2
    prune_rate: float = 0.4
    criteria: tuple[str, ...] = tuple(c.name for c in DEFAULT_CRITERIA)
    meta_attribute: str = "top5_loss"
    lr: float = 0.02
    decay_factor: float = 0.1
    decay_at: tuple[float, float] = (0.5, 0.75)  # fractions of total epochs
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    eval_batch_size: int = 512
    reference_initial: bool = False

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), getattr(DEFAULT_CONFIG, f.name))
        for key in ("batch_size", "eval_batch_size", "n_train", "n_eval", "image_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"config key {key!r} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError(f"config key 'seed' must be >= 0, got {self.seed}")
        # lr == 0 is train_epoch's evaluation pass; NaN and inf fail
        for key in ("lr", "decay_factor", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"config key {key!r} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"config key 'momentum' must be in [0, 1), got {self.momentum}")
        if not all(0 <= f <= 1 for f in self.decay_at):
            raise ValueError(
                f"config key 'decay_at' must be fractions in [0, 1], got {list(self.decay_at)}"
            )
        if not (self.epochs >= self.interval >= 1):
            raise ValueError(
                f"need epochs >= interval >= 1 (epochs={self.epochs}, interval={self.interval})"
            )
        if not 0 <= self.prune_rate < 1:
            raise ValueError(f"prune_rate must be in [0, 1), got {self.prune_rate}")
        if self.meta_attribute not in meta.META_ATTRIBUTES:
            raise ValueError(
                f"meta_attribute must be one of {meta.META_ATTRIBUTES}, got {self.meta_attribute!r}"
            )
        arch = self.architecture()
        synthetic_shape = (1, self.image_size, self.image_size)
        if self.dataset == "synthetic" and arch.input_shape != synthetic_shape:
            raise ValueError(
                f"arch input_shape {list(arch.input_shape)} does not match the synthetic "
                f"images {list(synthetic_shape)} (one channel, image_size {self.image_size})"
            )
        if self.dataset.startswith("cifar10:") and arch.input_shape != datamod.CIFAR_IMAGE_SHAPE:
            raise ValueError(
                f"arch input_shape {list(arch.input_shape)} does not match the CIFAR-10 "
                f"images {list(datamod.CIFAR_IMAGE_SHAPE)}"
            )
        if self.dataset.startswith("cifar10:") and arch.num_classes < datamod.CIFAR_CLASSES:
            raise ValueError(
                f"arch num_classes {arch.num_classes} is below the "
                f"{datamod.CIFAR_CLASSES} CIFAR-10 classes"
            )
        if self.meta_attribute == "top5_loss" and arch.num_classes < 6:
            raise ValueError("top5_loss needs >= 6 classes")
        if not self.criteria:
            raise ValueError("config key 'criteria' must name at least one criterion")
        for name in self.criteria:
            parse_criterion(name)

    def architecture(self) -> Architecture:
        return Architecture.from_dict(self.arch)

    def criterion_objects(self) -> list[Criterion]:
        return [parse_criterion(n) for n in self.criteria]

    def lr_schedule(self):
        """Step decay at the configured fractions of the run."""
        marks = sorted(int(f * self.epochs) for f in self.decay_at)

        def at(epoch: int) -> float:
            lr = self.lr
            for m in marks:
                if m > 0 and epoch > m:
                    lr *= self.decay_factor
            return lr

        return at

    def to_dict(self) -> dict:
        d = asdict(self)
        d["criteria"] = list(self.criteria)
        d["decay_at"] = list(self.decay_at)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        d = {k: tuple(v) if isinstance(v, list) and isinstance(getattr(DEFAULT_CONFIG, k), tuple) else v
             for k, v in d.items()}
        return ExperimentConfig(**d)


DEFAULT_CONFIG = ExperimentConfig()


def _check_type(key: str, value, default) -> None:
    """Raise ValueError unless value has the type of the key's default: an
    int passes as a float, and a tuple's items are checked against its first."""
    if isinstance(default, tuple):
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        for item in value:
            _check_type(key, item, default[0])
        return
    kind = {bool: bool, int: numbers.Integral, float: numbers.Real}.get(type(default), type(default))
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"config key {key!r} must be {type(default).__name__}, got {value!r}")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    train_acc: float
    eval_top1: float
    eval_top5: float
    kappa: int
    masked_macs: int


def load_dataset(config: ExperimentConfig) -> datamod.Dataset:
    if config.dataset == "synthetic":
        return datamod.gen_synthetic_dataset(
            seed=config.seed,
            n_train=config.n_train,
            n_eval=config.n_eval,
            classes=config.architecture().num_classes,
            image_size=config.image_size,
        )
    if config.dataset.startswith("cifar10:"):
        return datamod.load_cifar10_binary(config.dataset.split(":", 1)[1])
    raise ValueError(f"unknown dataset spec {config.dataset!r}")


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> dict:
    """Alternate training and soft pruning, then compact; optionally emit
    reports and checkpoint.

    Loop: train `interval` epochs -> select criterion -> apply masks.
    A trailing partial interval still gets a final selection, so the run
    always ends selection -> apply_mask -> compact.
    Returns {"model", "records", "reports", "flops", "files"}.
    """
    config.validate()
    t0 = time.perf_counter()
    dataset = load_dataset(config)
    if len(dataset.eval_x) == 0:  # fail before any training, not at the first evaluation
        raise ValueError(f"dataset {config.dataset!r} has an empty evaluation set")
    model = mdl.build_model(config.architecture(), seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)

    # one fixed evaluation batch per run keeps selection deterministic and cheap
    n_eval = min(config.eval_batch_size, len(dataset.eval_x))
    eval_x, eval_y = dataset.eval_x[:n_eval], dataset.eval_y[:n_eval]

    candidates = config.criterion_objects()
    lr_at = config.lr_schedule()
    reference = model.copy() if config.reference_initial else None
    # momentum buffers, one per parameter in sgd_step order
    velocity = [np.zeros_like(p) for p in model.parameters()]
    records: list[meta.PruneStepRecord] = []
    reports: list[EpochReport] = []

    def prune_step(epoch: int) -> dict | None:
        """Select and apply one criterion's masks; returns the selected
        trial's model.evaluate result, whose top-1/top-5 are now the
        model's, if selection ran one."""
        _, masks, record = meta.select_criterion(
            model, eval_x, eval_y, candidates, config.prune_rate,
            config.meta_attribute, rng, step=len(records) + 1, epoch=epoch,
            reference_model=reference,
        )
        mdl.apply_mask(model, masks)
        for v, m in zip(velocity, masks):  # a pruned filter restarts from rest
            v[~m] = 0.0
        records.append(record)
        return record.selected_eval

    for epoch in range(1, config.epochs + 1):
        loss, acc = mdl.train_epoch(
            model, velocity, dataset.train_x, dataset.train_y,
            lr=lr_at(epoch), momentum=config.momentum,
            weight_decay=config.weight_decay, batch_size=config.batch_size, rng=rng,
        )
        stats = prune_step(epoch) if epoch % config.interval == 0 else None
        if stats is None:
            stats = mdl.evaluate(model, eval_x, eval_y)
        reports.append(
            EpochReport(
                epoch=epoch,
                train_loss=float(loss),
                train_acc=float(acc),
                eval_top1=float(stats["top1"]),
                eval_top5=float(stats["top5"]),
                kappa=model.nonzero_filter_count(),
                masked_macs=flops.model_flops(model, model.masks).pruned_total,
            )
        )
    if config.epochs % config.interval != 0:
        prune_step(config.epochs)
    final = mdl.compact(model, model.masks)
    flops_report = flops.model_flops(model, model.masks)

    files = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = emit_report(config, records, reports, flops_report, out)
        ckpt = out / "final.ckpt"
        save_checkpoint(final, ckpt, seed=config.seed, epoch=config.epochs)
        files["checkpoint"] = str(ckpt)
        manifest = {
            "config": config.to_dict(),
            "version": __version__,
            "wall_time_seconds": time.perf_counter() - t0,  # timing: masked in determinism checks
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        files["manifest"] = str(out / "manifest.json")
    return {
        "model": final,
        "records": records,
        "reports": reports,
        "flops": flops_report,
        "files": files,
    }


def _csv_row(values: dict) -> str:
    return ",".join(str(values.get(c, "")) for c in CSV_COLUMNS)


def emit_report(
    config: ExperimentConfig,
    records: list[meta.PruneStepRecord],
    reports: list[EpochReport],
    flops_report: flops.FlopsReport,
    out_dir: Path,
) -> dict:
    """Write report.csv and report.json; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    by_epoch: dict[int, list[meta.PruneStepRecord]] = {}
    for r in records:
        by_epoch.setdefault(r.epoch, []).append(r)
    for rep in reports:
        lines.append(
            _csv_row(
                {
                    "kind": "epoch",
                    "epoch": rep.epoch,
                    "train_loss": repr(rep.train_loss),
                    "train_acc": repr(rep.train_acc),
                    "eval_top1": repr(rep.eval_top1),
                    "eval_top5": repr(rep.eval_top5),
                    "kappa": rep.kappa,
                    "masked_macs": rep.masked_macs,
                }
            )
        )
        # a trailing partial interval's step has the last epoch's number
        for rec in by_epoch.get(rep.epoch, []):
            lines.append(_prune_row(rec))
    csv_path = out_dir / "report.csv"
    csv_path.write_text("\n".join(lines) + "\n", newline="\n")

    bundle = {
        "config": config.to_dict(),
        "epochs": [asdict(r) for r in reports],
        "prune_steps": [r.to_dict() for r in records],
        "flops": flops_report.to_dict(),
    }
    json_path = out_dir / "report.json"
    json_path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return {"csv": str(csv_path), "json": str(json_path)}


def _prune_row(rec: meta.PruneStepRecord) -> str:
    gaps = ";".join(
        f"{n}={g!r}" for n, g in zip(rec.candidate_names, rec.candidate_gaps)
    )
    return _csv_row(
        {
            "kind": "prune",
            "epoch": rec.epoch,
            "step": rec.step,
            "selected_criterion": rec.selected,
            "reference_value": repr(rec.reference_value),
            "candidate_gaps": gaps,
        }
    )


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from a 2-d uint8 array."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-d image, got shape {image.shape}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def render_feature_maps(
    model: ModelState, image: np.ndarray, layer_index: int, out_dir: str | Path
) -> list[Path]:
    """One channel_<k>.pgm per output channel of the chosen conv layer.

    Each map is min-max normalized independently; a constant map renders
    all-zero (black) by convention, so pruned channels come out black.
    """
    maps = mdl.conv_feature_maps(model, image, layer_index)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(maps.shape[0]):
        fm = maps[k]
        lo, hi = float(fm.min()), float(fm.max())
        if hi > lo:
            img = np.round((fm - lo) / (hi - lo) * 255.0)
        else:
            img = np.zeros_like(fm)  # constant map convention: all black
        p = out / f"channel_{k}.pgm"
        write_pgm(p, img.astype(np.uint8))
        paths.append(p)
    return paths
