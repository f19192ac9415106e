"""Command line front door.

Subcommands: train, sweep, analyze, flops, gradcheck.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
Config precedence for train and sweep: flags beat the --config file beat
defaults; a sweep's FIELD values and seeds beat all three.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import flops as flopsmod, meta, model as mdl, ops
from .checkpoint import CheckpointError, load_checkpoint
from .criteria import criterion_scores, parse_criterion, select_filters
from .experiment import DEFAULT_CONFIG, ExperimentConfig, run_experiment

GRADCHECK_TOLERANCE = 1e-4
# three conv layers covering padding, stride 2 and a 1x1 kernel
GRADCHECK_ARCH = mdl.Architecture(
    (2, 7, 7),
    (mdl.ConvSpec(2, 3, 3, stride=1, pad=1), mdl.ConvSpec(3, 4, 3, stride=2, pad=1),
     mdl.ConvSpec(4, 3, 1)),
    num_classes=4,
)


def _rate(value: str) -> float:
    rate = float(value)
    if not 0 <= rate < 1:
        raise argparse.ArgumentTypeError(f"rate must be in [0, 1), got {value}")
    return rate


def _count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {value}")
    return count


def _name_list(value: str) -> list[str]:
    return [c.strip() for c in value.split(",") if c.strip()]


# fields a sweep may vary: every scalar config field but the seed, which
# the sweep itself runs over
SWEEP_FIELDS = [
    f.name for f in fields(ExperimentConfig)
    if f.name != "seed" and isinstance(getattr(DEFAULT_CONFIG, f.name), (int, float, str))
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="Filter-pruning lab: norm/distance criteria with adaptive selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the ExperimentConfig field it overrides
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    config_flags.add_argument("--prune-rate", type=_rate, dest="prune_rate")
    config_flags.add_argument("--interval", type=int)
    config_flags.add_argument("--epochs", type=int)
    config_flags.add_argument("--criteria", type=_name_list,
                              help="comma list, e.g. l1,l2,minkowski1,minkowski2,cosine")
    config_flags.add_argument("--meta-attribute", dest="meta_attribute",
                              choices=list(meta.META_ATTRIBUTES))
    config_flags.add_argument("--dataset", help="'synthetic' or 'cifar10:<dir>'")

    p = sub.add_parser("train", parents=[config_flags], help="run a pruning-training experiment")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("runs/latest"))

    # no abbreviations, so that a stray --seed cannot pass as --seeds
    p = sub.add_parser(
        "sweep", parents=[config_flags], allow_abbrev=False,
        help="run one config field over several values and seeds; one line of final top-1 per value",
    )
    p.add_argument("field", metavar="FIELD", choices=SWEEP_FIELDS,
                   help=f"config field to vary, one of: {', '.join(SWEEP_FIELDS)}")
    p.add_argument("values", metavar="VALUE", nargs="+", help="read with the type of FIELD's default")
    p.add_argument("--seeds", type=_count, default=3, help="run seeds 0..N-1 for each value")

    p = sub.add_parser("analyze", help="score one layer of a checkpoint")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--criterion", default="l1")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--rate", type=_rate, default=0.0)

    p = sub.add_parser("flops", help="print the FLOPs report of a checkpoint")
    p.add_argument("checkpoint", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter gradient of a small model")
    p.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    """The validated config: the --config file, then every flag given whose
    dest is a config field, then the overrides."""
    cfg = json.loads(args.config.read_text()) if args.config else {}
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    # from_dict rejects a file that holds no JSON object
    config = ExperimentConfig.from_dict({**cfg, **flags, **overrides} if isinstance(cfg, dict) else cfg)
    config.validate()
    return config


def cmd_train(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result = run_experiment(config, out_dir=args.out_dir)
    final = result["final_eval"]
    kappa = mdl.nonzero_filter_count(result["model"].conv_weights)
    fl = result["flops"]
    print(f"epochs: {config.epochs}  prune steps: {len(result['records'])}")
    print(f"final eval top1: {final['top1']:.4f}  top5: {final['top5']:.4f}  kappa: {kappa}")
    print(f"macs: {fl.pruned_total}/{fl.baseline_total} "
          f"(reduction {fl.theoretical_reduction_ratio:.4f})")
    for name, path in sorted(result["files"].items()):
        print(f"wrote {name}: {path}")
    return 0


def _sweep_value(field: str, text: str):
    kind = type(getattr(DEFAULT_CONFIG, field))
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{field} must be {kind.__name__}, got {text!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    # build and validate every cell before the first run
    cells = []
    for text in args.values:
        value = _sweep_value(args.field, text)
        cells.append((value, [config_from_args(args, **{args.field: value, "seed": seed})
                              for seed in range(args.seeds)]))
    print(f"{args.field}  mean_top1  per_seed_top1  criteria_selected")
    for value, configs in cells:
        results = [run_experiment(config) for config in configs]
        top1 = [res["final_eval"]["top1"] for res in results]
        selected = sorted({rec.selected for res in results for rec in res["records"]})
        print(f"{value}  {np.mean(top1):.4f}  {','.join(f'{a:.4f}' for a in top1)}  "
              f"{','.join(selected)}", flush=True)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    if not 0 <= args.layer < len(model.conv_weights):
        raise ValueError(
            f"layer {args.layer} out of range [0, {len(model.conv_weights)})"
        )
    criterion = parse_criterion(args.criterion)
    scores = criterion_scores(model.conv_weights[args.layer], criterion)
    prune = select_filters(scores, args.rate)
    print(f"layer {args.layer}  criterion {criterion.name}  rate {args.rate!r}")
    print("filter,score,prune")
    for j, s in enumerate(scores):
        print(f"{j},{float(s)!r},{int(j in prune)}")
    print(f"prune_indices: {' '.join(map(str, prune)) if prune else '-'}")
    return 0


def cmd_flops(args: argparse.Namespace) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    report = flopsmod.model_flops(model, model.masks)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    """Analytic gradients of every parameter array of GRADCHECK_ARCH against
    central differences of the model loss."""
    rng = np.random.default_rng(args.seed)
    model = mdl.build_model(GRADCHECK_ARCH, seed=args.seed)
    x = rng.normal(size=(3, *GRADCHECK_ARCH.input_shape))
    y = rng.integers(0, GRADCHECK_ARCH.num_classes, size=3)
    _, _, grads = mdl.loss_and_gradients(model, x, y)
    names = [f"conv{i}" for i in range(len(model.conv_weights))] + ["fc_weight", "fc_bias"]
    ok = True
    for name, param, grad in zip(names, model.parameters(), grads, strict=True):
        # finite_difference_grad nudges param in place, so the model sees each nudge
        numeric = ops.finite_difference_grad(lambda _: mdl.loss_and_gradients(model, x, y)[0], param)
        err = ops.max_relative_error(grad, numeric)
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
        ok = ok and err < GRADCHECK_TOLERANCE
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:  # numpy seeds are non-negative
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    handlers = {
        "train": cmd_train,
        "sweep": cmd_sweep,
        "analyze": cmd_analyze,
        "flops": cmd_flops,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
