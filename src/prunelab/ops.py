"""Dense tensor ops with analytic backward passes.

Everything here is double precision and purely functional: no op mutates
its inputs, identical inputs produce bit-identical outputs. Convolution
uses the cross-correlation convention (no kernel flip).

Both conv passes work on the im2col patch matrix of their input. A caller
that runs forward and backward on the same input can build it once with
im2col and hand it to both as `cols`; the results are bit-identical to
building it inside each call, and the patch matrix is only read.

Conv inputs are batches in the (batch, channels, height, width) layout; a
single image is a batch of one.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _check_conv_shapes(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> None:
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-d input and weights, got input {x.shape}, weights {w.shape}"
        )
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]} channels "
            f"(shape {x.shape}) but weights expect {w.shape[1]} (shape {w.shape})"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    k = w.shape[2]
    if x.shape[2] + 2 * pad < k or x.shape[3] + 2 * pad < k:
        raise ValueError(
            f"kernel {k} larger than padded input {x.shape} with pad={pad}"
        )


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H', W', C, K, K) patch matrix (a contiguous copy)."""
    if pad > 0:
        b, c, h, w = x.shape
        padded = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, H', W', K, K)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))


def _patch_matrix(
    x: np.ndarray, w: np.ndarray, stride: int, pad: int, cols: np.ndarray | None
) -> np.ndarray:
    """The caller's patch matrix after a shape check, or a freshly built one."""
    k = w.shape[2]
    if cols is None:
        return im2col(x, k, stride, pad)
    oh = conv_out_size(x.shape[2], k, stride, pad)
    ow = conv_out_size(x.shape[3], k, stride, pad)
    expect = (x.shape[0], oh, ow, x.shape[1], k, k)
    if cols.shape != expect:
        raise ValueError(f"cols shape {cols.shape} does not match patch matrix {expect}")
    return cols


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0, *, cols: np.ndarray | None = None
) -> np.ndarray:
    """Cross-correlate input with a filter bank.

    x: (B, C_in, H, W); w: (C_out, C_in, K, K).
    cols: optional im2col(x, K, stride, pad).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_conv_shapes(x, w, stride, pad)
    cols = _patch_matrix(x, w, stride, pad, cols)
    b, oh, ow = cols.shape[:3]
    out = cols.reshape(b * oh * ow, -1) @ w.reshape(w.shape[0], -1).T
    return out.reshape(b, oh, ow, w.shape[0]).transpose(0, 3, 1, 2)


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    *,
    cols: np.ndarray | None = None,
    grad_input: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x, w)) w.r.t. x and w.

    cols: optional im2col(x, K, stride, pad). With grad_input=False the
    input gradient is not computed and comes back None.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    _check_conv_shapes(x, w, stride, pad)
    k = w.shape[2]
    oh = conv_out_size(x.shape[2], k, stride, pad)
    ow = conv_out_size(x.shape[3], k, stride, pad)
    expect = (x.shape[0], w.shape[0], oh, ow)
    if grad_out.shape != expect:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match conv output {expect}")

    cols = _patch_matrix(x, w, stride, pad, cols)  # (B, H', W', C, K, K)
    g2 = grad_out.transpose(0, 2, 3, 1).reshape(-1, w.shape[0])  # (B*H'*W', C_out)
    grad_w = (g2.T @ cols.reshape(g2.shape[0], -1)).reshape(w.shape)
    if not grad_input:
        return None, grad_w

    # scatter grad back: dcols = g @ w, then col2im into a channel-last
    # buffer, adding the (i, j) terms in the same order as a channel-first one
    b, c, h, wd = x.shape
    dcols = (g2 @ w.reshape(w.shape[0], -1)).reshape(b, oh, ow, c, k, k)
    grad_xp = np.zeros((b, h + 2 * pad, wd + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            grad_xp[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[..., i, j]
    return grad_xp[:, pad : pad + h, pad : pad + wd].transpose(0, 3, 1, 2), grad_w


def conv2d_reference(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Naive 6-nested-loop convolution, the correctness oracle for conv2d_forward."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_conv_shapes(x, w, stride, pad)
    b, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(wd, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((b, c_out, oh, ow))
    for n in range(b):
        for co in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    xp[n, ci, oy * stride + ky, ox * stride + kx]
                                    * w[co, ci, ky, kx]
                                )
                    out[n, co, oy, ox] = acc
    return out


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


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B, C) per-channel spatial mean."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"global_avgpool expects (B, C, H, W), got {x.shape}")
    return x.mean(axis=(2, 3))


def global_avgpool_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != x.shape[:2]:
        raise ValueError(
            f"global_avgpool_backward shape mismatch: grad {grad_out.shape} vs input {x.shape}"
        )
    area = x.shape[2] * x.shape[3]
    return np.broadcast_to(grad_out[:, :, None, None] / area, x.shape).copy()


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: (B, D), w: (C, D), b: (C,) -> (B, C)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ValueError(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    return x @ w.T + b


def linear_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (x.shape[0], w.shape[0]):
        raise ValueError(
            f"linear_backward grad shape {grad_out.shape}, expected {(x.shape[0], w.shape[0])}"
        )
    return grad_out @ w, grad_out.T @ x, grad_out.sum(axis=0)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus the gradient w.r.t. logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"softmax_cross_entropy expects (B, C) logits and (B,) labels, "
            f"got {logits.shape} and {labels.shape}"
        )
    b, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels out of range [0, {c}): {labels.min()}..{labels.max()}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(lse - shifted[np.arange(b), labels]))
    probs = np.exp(shifted - lse[:, None])
    probs[np.arange(b), labels] -= 1.0
    return loss, probs / b


def sgd_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    velocities: Sequence[np.ndarray],
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> None:
    """In-place momentum SGD: v <- m*v + g + wd*p; p <- p - lr*v."""
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, the test oracle."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |a|, |n|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
