"""FLOPs accounting, counted as multiply-accumulates (MACs).

Only convolution work is counted; pooling and the classifier are negligible
at this scale. Theoretical reduction follows from surviving channel counts:
layer i runs with kept(i-1) input channels and kept(i) output channels.
Wall-clock timing is left to the benchmark, so the report stays
deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelState, check_masks


@dataclass
class LayerFlops:
    index: int
    baseline_macs: int
    pruned_macs: int


@dataclass
class FlopsReport:
    layers: list[LayerFlops]
    baseline_total: int
    pruned_total: int

    @property
    def theoretical_reduction_ratio(self) -> float:
        if self.baseline_total == 0:
            return 0.0
        return 1.0 - self.pruned_total / self.baseline_total

    def to_dict(self) -> dict:
        return {
            "layers": [asdict(l) for l in self.layers],
            "baseline_macs": self.baseline_total,
            "pruned_macs": self.pruned_total,
            "theoretical_reduction": self.theoretical_reduction_ratio,
        }


def layer_flops(n_in: int, n_out: int, kernel: int, h_out: int, w_out: int) -> int:
    """MACs of one convolution layer for a single input."""
    if min(n_in, n_out, kernel, h_out, w_out) < 1:
        raise ValueError("all layer_flops arguments must be positive")
    return n_out * n_in * kernel * kernel * h_out * w_out


def model_flops(model: ModelState, masks: list[np.ndarray] | None = None) -> FlopsReport:
    """Per-layer MAC counts, baseline and with the given keep-masks applied."""
    masks = check_masks(model.arch, masks if masks is not None else model.masks)
    sizes = model.arch.spatial_sizes()
    layers = []
    prev_kept = model.arch.input_shape[0]  # input channels are never pruned
    for i, (spec, m, (h, w)) in enumerate(zip(model.arch.conv_layers, masks, sizes)):
        kept = int(m.sum())
        base = layer_flops(spec.in_channels, spec.out_channels, spec.kernel, h, w)
        pruned = (
            kept * prev_kept * spec.kernel * spec.kernel * h * w if kept > 0 else 0
        )
        layers.append(LayerFlops(index=i, baseline_macs=base, pruned_macs=pruned))
        prev_kept = kept
    return FlopsReport(
        layers=layers,
        baseline_total=sum(l.baseline_macs for l in layers),
        pruned_total=sum(l.pruned_macs for l in layers),
    )

