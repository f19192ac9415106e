"""The benchmark's workloads: each is an `ExperimentConfig` field dict built from a seed.

All three keep four conv layers, so the per-layer conv microbenchmark names
(`ops.conv.L0` .. `ops.conv.L3`) exist on every workload.
"""

from __future__ import annotations


def _arch(input_size: int, layers: list[tuple[int, int, int]]) -> dict:
    """Single-channel input; every conv is 3x3 with pad 1. layers: (in, out, stride)."""
    return {
        "input_shape": [1, input_size, input_size],
        "conv_layers": [
            {"in_channels": cin, "out_channels": cout, "kernel": 3, "stride": s, "pad": 1}
            for cin, cout, s in layers
        ],
        "num_classes": 10,
    }


# Why each workload exists is in README.md; the make-up is here and only here.
WORKLOADS = {
    # ExperimentConfig() unchanged apart from the seed: the everyday run.
    "default": {},
    # GEMM-sized convolutions, one prune step at the end, small eval batch.
    "wide-train": {
        "arch": _arch(32, [(1, 32, 1), (32, 32, 2), (32, 64, 1), (64, 64, 2)]),
        "image_size": 32,
        "n_train": 384,
        "n_eval": 64,
        "eval_batch_size": 64,
        "epochs": 2,
        "interval": 2,
    },
    # 128-filter layers (rows of 128x1152 after layer 0) on a 4x4 input,
    # a prune step every epoch: criterion scoring dominates.
    "wide-select": {
        "arch": _arch(4, [(1, 128, 1), (128, 128, 1), (128, 128, 1), (128, 128, 1)]),
        "image_size": 4,
        "n_train": 64,
        "n_eval": 40,
        "eval_batch_size": 40,
        "epochs": 4,
        "interval": 1,
    },
}

# Final eval top-1 must stay above this on `default` (10 classes, chance 0.1).
TOP1_FLOOR = {"default": 0.5}


def config_fields(name: str, seed: int) -> dict:
    """ExperimentConfig keyword arguments for one workload and seed."""
    return {"seed": seed, **WORKLOADS[name]}
