"""Adaptive criterion selection as a greedy sequential decision process.

At each pruning step every candidate criterion proposes masks, and the
network they would leave is scored from the current weights and the masks
alone, with no trial copy (see _attribute_and_eval). The criterion whose
meta-attribute gap |M(pruned) - M(reference)| is smallest wins and its
masks are applied softly. Candidates whose masks coincide prune to the same
model, so each distinct mask set is scored once per step (the `random`
attribute still draws one value per candidate). By default the reference is
the current pre-step model; a config switch allows comparing against a
frozen initial snapshot instead.

The Minkowski exponents among the candidates share one
criteria.minkowski_scores pass per layer and step, made before any
candidate is pruned; every other candidate is scored by criterion_scores
inside candidate_prune, as each mask set is built and evaluated.

Exactly one criterion is applied per step (one-hot action vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as mdl
from .criteria import Criterion, criterion_scores, minkowski_scores, select_filters
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
    return _attribute_and_eval(model, None, eval_x, eval_y, attribute, rng)[0]


def _attribute_and_eval(
    model: ModelState,
    masks: list[np.ndarray] | None,
    eval_x: np.ndarray | None,
    eval_y: np.ndarray | None,
    attribute: str,
    rng: np.random.Generator | None,
) -> tuple[float, dict | None]:
    """meta_attribute of model once masks are applied (None: the model as it
    is), plus the model.evaluate result it came from, if any. The model is
    not copied: the top-k losses evaluate mdl.compact(model, masks), and the
    weight attributes read each layer through its mask, which holds the same
    values as the masked model's weights."""
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
        trial = model if masks is None else mdl.compact(model, masks)
        stats = mdl.evaluate(trial, eval_x, eval_y)
        return 1.0 - stats["top5" if attribute == "top5_loss" else "top1"], stats
    if attribute == "random":  # seeded uniform baseline, no model information
        if rng is None:
            raise ValueError("random meta-attribute needs an rng")
        return float(rng.uniform()), None
    weights = model.conv_weights
    if masks is not None:
        weights = [np.where(keep[:, None, None, None], w, 0.0) for w, keep in zip(weights, masks)]
    if attribute == "mean_weight":
        return float(sum(w.sum() for w in weights) / sum(w.size for w in weights)), None
    # sparsity: ModelState.nonzero_filter_count of the masked weights
    return float(sum(int(np.any(w != 0, axis=(1, 2, 3)).sum()) for w in weights)), None


def candidate_prune(
    model: ModelState,
    criterion: Criterion,
    rate: float,
    scores: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Masks pruning floor(rate * N) filters of every conv layer by one
    criterion; previously zeroed filters participate in the ranking.
    scores, when given, are the criterion's per-layer scores of the model,
    already computed (select_criterion shares one Minkowski pass)."""
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if scores is None:
        scores = [criterion_scores(w, criterion) for w in model.conv_weights]
    masks = []
    for w, s in zip(model.conv_weights, scores):
        keep = np.ones(w.shape[0], dtype=bool)
        keep[select_filters(s, rate)] = False
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
    """Score every candidate's pruned network and pick the gap minimizer
    (ties: earliest in list order). The input model is never mutated, and
    no candidate is scored on a copy of it (see _attribute_and_eval).

    Candidates with identical masks share one score; `random` scores draw
    from rng once per candidate all the same. When the attribute evaluates
    the candidates, record.selected_eval is the winner's model.evaluate
    result. Its top-1 and top-5 match evaluating the model once its masks
    are applied; its loss can differ in the last bits, because the
    compacted matrix products are blocked differently.

    The gap reference defaults to the current model; pass reference_model to
    compare against a frozen snapshot instead."""
    if not candidates:
        raise ValueError("candidate list is empty")
    ref = meta_attribute(reference_model or model, eval_x, eval_y, attribute, rng)
    scored: dict[bytes, tuple[float, dict | None]] = {}  # mask bytes -> score
    all_masks, results = [], []
    ps = [c.p for c in candidates if c.kind == "minkowski"]
    shared = [minkowski_scores(w, ps) for w in model.conv_weights] if ps else []
    for cand in candidates:
        scores = [s[cand.p] for s in shared] if cand.kind == "minkowski" else None
        masks = candidate_prune(model, cand, rate, scores)
        key = b"".join(m.tobytes() for m in masks)
        if attribute == "random" or key not in scored:  # random: one draw per candidate
            scored[key] = _attribute_and_eval(model, masks, eval_x, eval_y, attribute, rng)
        all_masks.append(masks)
        results.append(scored[key])
    values = [v for v, _ in results]
    gaps = [abs(v - ref) for v in values]
    if attribute == "random":
        pick = int(rng.integers(len(candidates)))
    else:
        pick = int(np.argmin(gaps))  # argmin returns the first minimum
    action = [1 if i == pick else 0 for i in range(len(candidates))]
    record = PruneStepRecord(
        step=step,
        epoch=epoch,
        candidate_names=[cand.name for cand in candidates],
        candidate_values=values,
        candidate_gaps=gaps,
        selected=candidates[pick].name,
        action=action,
        reference_value=ref,
        masks=[m.astype(int).tolist() for m in all_masks[pick]],
        attribute=attribute,
        selected_eval=results[pick][1],
    )
    return candidates[pick], all_masks[pick], record
