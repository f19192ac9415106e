"""Command line front door.

Subcommands: train, analyze, flops, gradcheck, visualize.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
Config precedence for train: flags beat the --config file beat defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import flops as flopsmod, meta, model as mdl, ops
from .checkpoint import CheckpointError, load_checkpoint
from .criteria import criterion_scores, parse_criterion, select_filters
from .experiment import ExperimentConfig, render_feature_maps, run_experiment

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="Filter-pruning lab: norm/distance criteria with adaptive selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a pruning-training experiment")
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p.add_argument("--seed", type=int)
    p.add_argument("--prune-rate", type=_rate, dest="prune_rate")
    p.add_argument("--interval", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--criteria", help="comma list, e.g. l1,l2,minkowski1,minkowski2,cosine")
    p.add_argument("--meta-attribute", dest="meta_attribute",
                   choices=list(meta.META_ATTRIBUTES))
    p.add_argument("--dataset", help="'synthetic' or 'cifar10:<path>'")
    p.add_argument("--out-dir", dest="out_dir", type=Path, default=Path("runs/latest"))

    p = sub.add_parser("analyze", help="score one layer of a checkpoint")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--criterion", default="l1")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--rate", type=_rate, default=0.0)

    p = sub.add_parser("flops", help="print the FLOPs report of a checkpoint")
    p.add_argument("checkpoint", type=Path)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter gradient of a small model")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("visualize", help="dump feature maps of one layer as PGM images")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("image", type=Path, help=".npy image matching the model input shape")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("feature_maps"))
    return parser


def cmd_train(args: argparse.Namespace) -> int:
    cfg_dict = {}
    if args.config:
        cfg_dict = json.loads(args.config.read_text())
    for key in ("seed", "prune_rate", "interval", "epochs", "meta_attribute", "dataset"):
        val = getattr(args, key)
        if val is not None:
            cfg_dict[key] = val
    if args.criteria is not None:
        cfg_dict["criteria"] = [c.strip() for c in args.criteria.split(",") if c.strip()]
    config = ExperimentConfig.from_dict(cfg_dict)
    result = run_experiment(config, out_dir=args.out_dir)
    rep = result["reports"][-1]
    fl = result["flops"]
    print(f"epochs: {config.epochs}  prune steps: {len(result['records'])}")
    print(f"final eval top1: {rep.eval_top1:.4f}  top5: {rep.eval_top5:.4f}  kappa: {rep.kappa}")
    print(f"macs: {fl.pruned_total}/{fl.baseline_total} "
          f"(reduction {fl.theoretical_reduction_ratio:.4f})")
    for name, path in sorted(result["files"].items()):
        print(f"wrote {name}: {path}")
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
    print(f"layer {args.layer}  criterion {criterion.name}  rate {args.rate:g}")
    print("filter,score,prune")
    for j, s in enumerate(scores):
        print(f"{j},{s!r},{int(j in prune)}")
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
    params = [(f"conv{i}", w, g) for i, (w, g) in enumerate(zip(model.conv_weights, grads["conv"]))]
    params += [("fc_weight", model.fc_weight, grads["fc_weight"]),
               ("fc_bias", model.fc_bias, grads["fc_bias"])]
    ok = True
    for name, param, grad in params:
        # finite_difference_grad nudges param in place, so the model sees each nudge
        numeric = ops.finite_difference_grad(lambda _: mdl.loss_and_gradients(model, x, y)[0], param)
        err = ops.max_relative_error(grad, numeric)
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
        ok = ok and err < GRADCHECK_TOLERANCE
    return 0 if ok else 1


def cmd_visualize(args: argparse.Namespace) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    image = np.load(args.image)
    if image.ndim == 2:
        image = image[None]
    paths = render_feature_maps(model, image, args.layer, args.out)
    print(f"wrote {len(paths)} feature maps to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "analyze": cmd_analyze,
        "flops": cmd_flops,
        "gradcheck": cmd_gradcheck,
        "visualize": cmd_visualize,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
