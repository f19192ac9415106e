"""Filter pruning criteria: lp-norm scores and average-distance scores.

criterion_scores scores a layer's filters by any criterion; the smallest
are pruned. Norm scores capture magnitude; average-distance scores capture
how replaceable a filter is by its layer-mates (a small mean distance to
the other filters marks a redundant filter).

Cosine is direction-only: the printed cosine formula is a similarity, so
the score used here is 1 - similarity, keeping small = similar = prunable.
A zero filter has no direction; its cosine distance to anything else is
defined as 1 (maximally non-informative) and flagged via logging.

Distance matrices are symmetric, so Minkowski scoring computes each filter
pair once (the upper triangle, one row at a time) and mirrors it; the
result is bit-identical to computing both triangles. minkowski_scores scores
several exponents from that one pass: each pair's |z_i - z_j| is formed
once and every exponent reads it, bit-identical to one exponent at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import flatten_filters

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Criterion:
    """One of: norm (lp-norm), minkowski (average Minkowski distance),
    cosine (average cosine distance). p is ignored for cosine."""

    kind: str  # "norm" | "minkowski" | "cosine"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("norm", "minkowski", "cosine"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind != "cosine" and self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def name(self) -> str:
        if self.kind == "norm":
            return f"l{self.p:g}"
        if self.kind == "minkowski":
            return f"minkowski{self.p:g}"
        return "cosine"


def parse_criterion(name: str) -> Criterion:
    name = name.strip().lower()
    if name.startswith("l") and name[1:].replace(".", "", 1).isdigit():
        return Criterion("norm", float(name[1:]))
    if name.startswith("minkowski") and name[9:].replace(".", "", 1).isdigit():
        return Criterion("minkowski", float(name[9:]))
    if name == "cosine":
        return Criterion("cosine")
    raise ValueError(
        f"unknown criterion {name!r} (expected l<p>, minkowski<p>, or cosine)"
    )


DEFAULT_CRITERIA = (
    Criterion("norm", 1),
    Criterion("norm", 2),
    Criterion("minkowski", 1),
    Criterion("minkowski", 2),
    Criterion("cosine"),
)


def lp_norm_scores(weights: np.ndarray, p: float) -> np.ndarray:
    """Per-filter lp norm of a (N_out, ...) weight bank."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    flat = np.abs(flatten_filters(np.asarray(weights, dtype=np.float64)))
    return (flat**p).sum(axis=1) ** (1.0 / p)


def _pth_power(diff: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """diff ** p into out; the square is one multiply, bit-equal to np.power."""
    if p == 2:
        return np.multiply(diff, diff, out=out)
    return np.power(diff, p, out=out)


def _minkowski_matrices(z: np.ndarray, ps: Iterable[float]) -> dict[float, np.ndarray]:
    """Minkowski distance matrix between the rows of z, one per distinct p.

    The upper triangle is built one row at a time: |z_i - z_j| is formed
    once, in one reused (N, D) buffer, for every p. p = 1 sums it as it is;
    every other p raises it to the p-th power, reduces each contiguous
    length-D row and takes the 1/p root. Each row is then mirrored.
    |a - b| == |b - a| exactly and each pair still reduces a full row, so
    every matrix equals the both-triangles computation bit for bit."""
    ps = list(dict.fromkeys(ps))  # a repeated p is computed once
    for p in ps:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
    n = z.shape[0]
    mats = {p: np.zeros((n, n)) for p in ps}  # the diagonal stays exactly zero
    # p = 1 goes first and the last exponent raises the differences in place,
    # so a second buffer is needed only for the exponents in between
    order = sorted(ps, key=lambda p: p != 1)
    buf = np.empty(z.shape)
    powed = np.empty(z.shape) if sum(p != 1 for p in ps) > 1 else None
    for i in range(n - 1):
        diff = buf[: n - 1 - i]
        np.subtract(z[i + 1 :], z[i], out=diff)
        np.abs(diff, out=diff)
        for p in order:
            if p == 1:
                row = diff.sum(axis=1)
            else:
                out = diff if p == order[-1] else powed[: n - 1 - i]
                row = _pth_power(diff, p, out).sum(axis=1)
                row **= 1.0 / p
            mats[p][i, i + 1 :] = row
            mats[p][i + 1 :, i] = row
    return mats


def minkowski_scores(weights: np.ndarray, ps: Iterable[float]) -> dict[float, np.ndarray]:
    """Average Minkowski distance scores of a (N_out, ...) weight bank for
    every exponent in ps, from one pass over the filter pairs: {p: scores}.
    Each equals criterion_scores(weights, Criterion("minkowski", p))."""
    z = flatten_filters(np.asarray(weights, dtype=np.float64))
    return {p: d.sum(axis=1) / z.shape[0] for p, d in _minkowski_matrices(z, ps).items()}


def _cosine_distance_matrix(z: np.ndarray) -> np.ndarray:
    # cosine is invariant to positive per-filter rescaling; dividing each
    # row by its max |entry| keeps the Gram diagonal near 1 so the
    # normalization below cannot underflow for tiny-magnitude filters
    row_max = np.max(np.abs(z), axis=1, keepdims=True)
    zn = z / np.where(row_max == 0, 1.0, row_max)
    gram = zn @ zn.T
    sq = np.diag(gram).copy()
    zero = sq == 0
    if zero.any():
        # routine under soft pruning (zeroed filters), so debug not warning
        log.debug(
            "cosine average distance: %d zero-norm filter(s), their "
            "pair distances default to 1.0", int(zero.sum()),
        )
    safe = np.where(zero, 1.0, sq)
    # normalize via the Gram diagonal so identical filters get sim == 1 exactly
    sim = gram / np.sqrt(np.outer(safe, safe))
    d = np.clip(1.0 - sim, 0.0, 2.0)
    d[zero, :] = 1.0
    d[:, zero] = 1.0
    np.fill_diagonal(d, 0.0)  # self-distance is exactly zero
    return d


def criterion_scores(weights: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Per-filter scores of a (N_out, ...) weight bank by one criterion: the
    lp norm, or the mean Minkowski or cosine distance from each filter to
    all filters of its layer (self term contributes 0; divisor is the
    filter count)."""
    if criterion.kind == "norm":
        return lp_norm_scores(weights, criterion.p)
    if criterion.kind == "minkowski":
        return minkowski_scores(weights, [criterion.p])[criterion.p]
    z = flatten_filters(np.asarray(weights, dtype=np.float64))
    return _cosine_distance_matrix(z).sum(axis=1) / z.shape[0]


def select_filters(scores: np.ndarray, prune_rate: float) -> list[int]:
    """Indices of the floor(rate * N) smallest scores, ascending.
    Ties break toward the lower filter index."""
    if not 0 <= prune_rate < 1:
        raise ValueError(f"prune_rate must be in [0, 1), got {prune_rate}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    # tiny epsilon so rates like 1/3 on 3 filters floor to 1, not 0
    n_prune = int(prune_rate * scores.shape[0] + 1e-9)
    order = np.argsort(scores, kind="stable")
    return sorted(int(i) for i in order[:n_prune])
