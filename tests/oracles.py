"""Test oracles: brute-force distances, one pair of filters (or one row of
the distance matrix) at a time, for checking criteria.criterion_scores,
the window-by-window patch matrix for checking ops.im2col, and a model pass
that keeps every layer's input, pre-ReLU and post-ReLU arrays, with conv
passes that each build their own patch matrix, for checking model.forward
and model.loss_and_gradients."""

import logging

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from prunelab import ops

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


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient 1 at exactly 0: lets gradient reach soft-pruned (zeroed)
    # filters whose pre-activations are identically zero, enabling recovery
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if x.shape != grad_out.shape:
        raise ValueError(f"relu_backward shape mismatch: {x.shape} vs {grad_out.shape}")
    return grad_out * (x >= 0)


def forward_activations(model, batch: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """(per conv layer (input, pre_relu, post_relu), pooled, logits)."""
    x = np.asarray(batch, dtype=np.float64)
    layers = []
    for spec, w in zip(model.arch.conv_layers, model.conv_weights):
        pre = ops.conv2d_forward(x, w, spec.stride, spec.pad)
        post = relu_forward(pre)
        layers.append((x, pre, post))
        x = post
    pooled = ops.global_avgpool_forward(x)
    return layers, pooled, ops.linear_forward(pooled, model.fc_weight, model.fc_bias)


def loss_and_gradients(model, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, dict]:
    """model.loss_and_gradients through forward_activations."""
    layers, pooled, logits = forward_activations(model, x)
    loss, grad = ops.softmax_cross_entropy(logits, y)
    grad, grad_fc_w, grad_fc_b = ops.linear_backward(pooled, model.fc_weight, grad)
    grad = ops.global_avgpool_backward(layers[-1][2], grad)
    conv_grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        xin, pre, _ = layers[i]
        spec = model.arch.conv_layers[i]
        grad = relu_backward(pre, grad)
        grad, conv_grads[i] = ops.conv2d_backward(xin, model.conv_weights[i], grad, spec.stride, spec.pad)
    return loss, logits, {"conv": conv_grads, "fc_weight": grad_fc_w, "fc_bias": grad_fc_b}
