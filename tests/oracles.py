"""Test oracles: brute-force distances, one pair of filters (or one row of
the distance matrix) at a time, for checking criteria.average_distance_scores,
and the window-by-window patch matrix for checking ops.im2col."""

import logging

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)


def minkowski_distance(x: np.ndarray, y: np.ndarray, p: float) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((np.abs(x - y) ** p).sum() ** (1.0 / p))


def minkowski_matrix_by_rows(z: np.ndarray, p: float) -> np.ndarray:
    """Minkowski distances between the rows of z, both triangles: one row
    against every row at a time, then a zero diagonal."""
    d = np.empty((z.shape[0], z.shape[0]))
    for i, row in enumerate(z):
        d[i] = (np.abs(row - z) ** p).sum(axis=1) ** (1.0 / p)
    np.fill_diagonal(d, 0.0)
    return d


def cosine_distance(x: np.ndarray, y: np.ndarray) -> float:
    """1 - cos(x, y) in [0, 2]; pairs involving a zero vector score 1."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        log.warning("cosine distance on a zero-norm vector; returning 1.0")
        return 1.0
    return float(np.clip(1.0 - float(x @ y) / (nx * ny), 0.0, 2.0))


def im2col_by_windows(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H', W', C, K, K) patch matrix (a contiguous copy)."""
    if pad > 0:
        b, c, h, w = x.shape
        padded = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, H', W', K, K)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
