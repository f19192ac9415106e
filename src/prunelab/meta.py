"""Adaptive criterion selection as a greedy sequential decision process.

At each pruning step every candidate criterion is tried on a trial model:
for the top-k losses the compacted model (pruned channels removed; it
predicts as the masked model does, at a fraction of the cost), for
`mean_weight` and `sparsity` a throwaway masked copy of the current model.
The criterion whose meta-attribute gap |M(pruned) - M(reference)| is
smallest wins and its masks are applied softly. Candidates whose masks
coincide prune to the same model, so each distinct mask set is scored once
per step (the `random` attribute still draws one value per candidate). By
default the reference is the current pre-step model; a config switch allows
comparing against a frozen initial snapshot instead.

Exactly one criterion is applied per step (one-hot action vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # model.evaluate of the selected (compacted) trial when the attribute ran
    # one (top-k losses), else None; not part of the report
    selected_eval: dict | None = field(default=None, repr=False, compare=False)

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
    return _attribute_and_eval(model, eval_x, eval_y, attribute, rng)[0]


def _attribute_and_eval(
    model: ModelState,
    eval_x: np.ndarray | None,
    eval_y: np.ndarray | None,
    attribute: str,
    rng: np.random.Generator | None,
) -> tuple[float, dict | None]:
    """meta_attribute plus the model.evaluate result it came from, if any."""
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
        return 1.0 - (stats["top5"] if attribute == "top5_loss" else stats["top1"]), stats
    if attribute == "mean_weight":
        total = sum(w.sum() for w in model.conv_weights)
        count = sum(w.size for w in model.conv_weights)
        return float(total / count), None
    if attribute == "sparsity":
        return float(model.nonzero_filter_count()), None
    # random: seeded uniform baseline, no model information
    if rng is None:
        raise ValueError("random meta-attribute needs an rng")
    return float(rng.uniform()), None


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
    """Score every candidate's trial model and pick the gap minimizer (ties:
    earliest in list order). The input model is never mutated. The top-k
    losses score mdl.compact(model, masks); mean_weight and sparsity score a
    masked copy, since both count weights that compact drops.

    Candidates with identical masks share one trial and one score;
    `random` scores draw from rng once per candidate all the same. When the
    attribute evaluates the trials, record.selected_eval is the winner's
    model.evaluate result. Its top-1 and top-5 match evaluating the model
    once its masks are applied; its loss can differ in the last bits,
    because the compacted matrix products are blocked differently.

    The gap reference defaults to the current model; pass reference_model to
    compare against a frozen snapshot instead."""
    if not candidates:
        raise ValueError("candidate list is empty")
    ref = meta_attribute(reference_model or model, eval_x, eval_y, attribute, rng)
    names, values, gaps, all_masks, evals = [], [], [], [], []
    scored: dict[bytes, tuple[float, dict | None]] = {}  # mask bytes -> trial score
    for cand in candidates:
        masks = candidate_prune(model, cand, rate)
        if attribute == "random":  # no model information: one draw per candidate
            val, stats = float(rng.uniform()), None
        else:
            key = b"".join(m.tobytes() for m in masks)
            if key not in scored:
                if attribute in ("top5_loss", "top1_loss"):
                    trial = mdl.compact(model, masks)
                else:
                    trial = mdl.apply_mask(model.copy(), masks)
                scored[key] = _attribute_and_eval(trial, eval_x, eval_y, attribute, rng)
            val, stats = scored[key]
        names.append(cand.name)
        values.append(val)
        gaps.append(abs(val - ref))
        all_masks.append(masks)
        evals.append(stats)
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
        selected_eval=evals[pick],
    )
    return candidates[pick], all_masks[pick], record

