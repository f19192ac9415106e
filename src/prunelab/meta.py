"""Adaptive criterion selection as a greedy sequential decision process.

At each pruning step every candidate criterion is tried on a throwaway
masked copy of the current model; the criterion whose meta-attribute gap
|M(pruned) - M(reference)| is smallest wins and its masks are applied
softly. By default the reference is the current pre-step model; a config
switch allows comparing against a frozen initial snapshot instead.

Exactly one criterion is applied per step (one-hot action vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as mdl
from .criteria import Criterion, criterion_scores, select_filters
from .model import ModelState

META_ATTRIBUTES = ("top5_loss", "top1_loss", "mean_weight", "sparsity", "random")


@dataclass
class PruneStepRecord:
    step: int
    epoch: int
    candidate_names: list[str]
    candidate_values: list[float]
    candidate_gaps: list[float]
    selected: str
    action: list[int]                      # one-hot over candidates
    reference_value: float
    masks: list[list[int]]
    attribute: str

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "epoch": self.epoch,
            "attribute": self.attribute,
            "reference_value": self.reference_value,
            "candidates": [
                {"criterion": n, "value": v, "gap": g}
                for n, v, g in zip(
                    self.candidate_names, self.candidate_values, self.candidate_gaps
                )
            ],
            "selected": self.selected,
            "action": self.action,
            "masks": self.masks,
        }


def meta_attribute(
    model: ModelState,
    eval_x: np.ndarray | None,
    eval_y: np.ndarray | None,
    attribute: str,
    rng: np.random.Generator | None = None,
) -> float:
    """Scalar characterization of a network used for pruned-vs-original gaps."""
    if attribute not in META_ATTRIBUTES:
        raise ValueError(f"unknown meta-attribute {attribute!r}, expected one of {META_ATTRIBUTES}")
    if attribute in ("top5_loss", "top1_loss"):
        if eval_x is None or eval_y is None or len(eval_x) == 0:
            raise ValueError(f"{attribute} needs a non-empty evaluation batch")
        if attribute == "top5_loss" and model.arch.num_classes < 6:
            raise ValueError(
                f"top5_loss is degenerate with {model.arch.num_classes} classes "
                "(top-5 accuracy is always 1.0 when classes <= 5)"
            )
        stats = mdl.evaluate(model, eval_x, eval_y)
        return 1.0 - (stats["top5"] if attribute == "top5_loss" else stats["top1"])
    if attribute == "mean_weight":
        total = sum(w.sum() for w in model.conv_weights)
        count = sum(w.size for w in model.conv_weights)
        return float(total / count)
    if attribute == "sparsity":
        return float(model.nonzero_filter_count())
    # random: seeded uniform baseline, no model information
    if rng is None:
        raise ValueError("random meta-attribute needs an rng")
    return float(rng.uniform())


def candidate_prune(model: ModelState, criterion: Criterion, rate: float) -> list[np.ndarray]:
    """Masks pruning floor(rate * N) filters of every conv layer by one
    criterion; previously zeroed filters participate in the ranking."""
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    masks = []
    for w in model.conv_weights:
        scores = criterion_scores(w, criterion)
        keep = np.ones(w.shape[0], dtype=bool)
        keep[select_filters(scores, rate)] = False
        masks.append(keep)
    return masks


def select_criterion(
    model: ModelState,
    eval_x: np.ndarray | None,
    eval_y: np.ndarray | None,
    candidates: Sequence[Criterion],
    rate: float,
    attribute: str,
    rng: np.random.Generator,
    step: int = 0,
    epoch: int = 0,
    reference_model: ModelState | None = None,
) -> tuple[Criterion, list[np.ndarray], PruneStepRecord]:
    """Evaluate every candidate on a masked copy and pick the gap minimizer
    (ties: earliest in list order). The input model is never mutated.

    The gap reference defaults to the current model; pass reference_model to
    compare against a frozen snapshot instead."""
    if not candidates:
        raise ValueError("candidate list is empty")
    ref = meta_attribute(reference_model or model, eval_x, eval_y, attribute, rng)
    names, values, gaps, all_masks = [], [], [], []
    for cand in candidates:
        masks = candidate_prune(model, cand, rate)
        trial = mdl.apply_mask(model.copy(), masks)
        val = meta_attribute(trial, eval_x, eval_y, attribute, rng)
        names.append(cand.name)
        values.append(val)
        gaps.append(abs(val - ref))
        all_masks.append(masks)
    if attribute == "random":
        pick = int(rng.integers(len(candidates)))
    else:
        pick = int(np.argmin(gaps))  # argmin returns the first minimum
        assert gaps[pick] <= min(gaps)
    action = [1 if i == pick else 0 for i in range(len(candidates))]
    assert sum(action) == 1
    record = PruneStepRecord(
        step=step,
        epoch=epoch,
        candidate_names=names,
        candidate_values=[float(v) for v in values],
        candidate_gaps=[float(g) for g in gaps],
        selected=names[pick],
        action=action,
        reference_value=float(ref),
        masks=[m.astype(int).tolist() for m in all_masks[pick]],
        attribute=attribute,
    )
    return candidates[pick], all_masks[pick], record

