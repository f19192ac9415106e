"""Dense tensor ops with analytic backward passes.

Everything here is double precision, and identical inputs produce
bit-identical outputs. The forward and backward ops return fresh arrays and
never write into their inputs. Two helpers do mutate: sgd_step updates the
parameters and momentum buffers in place, and finite_difference_grad nudges
one entry of x at a time and restores it. Convolution uses the
cross-correlation convention (no kernel flip).

Both conv passes work on the im2col patch matrix of their input. A caller
that runs forward and backward on the same input can build it once and hand
it to both as `cols`; the results are bit-identical to building it inside
each call, and the patch matrix is only read. Given `cols`, a conv pass
reads only the input's shape, so the input itself need not exist.

im2col is two steps, which a caller may run apart. stage_rows copies the
input channel-last into a flat row per image with one extra 0.0 slot at the
end, optionally through the ReLU. gather_patches then picks each patch entry
from those rows through a cached index (one per input shape, kernel, stride
and pad), every padding tap from the zero slot. Run apart, the two steps
let a caller hold at most two of a layer's input, staged rows, patch matrix
and output at a time. The gather only moves values, so the patch matrix,
and every GEMM and artifact built on it, is bit-identical to slicing a
zero-padded input window by window.

Conv inputs are batches in the (batch, channels, height, width) layout; a
single image is a batch of one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


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


@lru_cache(maxsize=64)
def _gather_index(c: int, h: int, w: int, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Read-only flat index of im2col's gather: entry (y, x, ch, i, j) points
    at pixel (y*stride + i - pad, x*stride + j - pad) of channel ch in a
    channel-last (H, W, C) row, or at the zero slot h*w*c when that is padding."""
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    taps = np.arange(kernel)
    rows = (np.arange(oh) * stride - pad)[:, None, None, None, None] + taps[:, None]
    cols = (np.arange(ow) * stride - pad)[None, :, None, None, None] + taps
    channel = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, (rows * w + cols) * c + channel, h * w * c).astype(np.intp).ravel()
    idx.flags.writeable = False
    return idx


def stage_rows(x: np.ndarray, relu: bool = False) -> np.ndarray:
    """(B, C, H, W) -> (B, H*W*C + 1) staged rows, im2col's first step: each
    image copied channel-last into one row with a 0.0 slot at its end. With
    relu=True the copy is np.maximum(x, 0.0), the ReLU and the copy in one
    pass."""
    b, c, h, w = x.shape
    n = h * w * c
    rows = np.empty((b, n + 1))
    dst = rows[:, :n].reshape(b, h, w, c)  # a view: splits each row
    if relu:
        np.maximum(x.transpose(0, 2, 3, 1), 0.0, out=dst)
    else:
        dst[...] = x.transpose(0, 2, 3, 1)
    rows[:, n] = 0.0
    return rows


def gather_patches(
    rows: np.ndarray, shape: tuple[int, ...], kernel: int, stride: int, pad: int
) -> np.ndarray:
    """im2col's second step: the (B, H', W', C, K, K) patch matrix of an input
    of the given (B, C, H, W) shape, from its stage_rows, one take through
    _gather_index. A fresh C-contiguous float64 array; rows is only read."""
    b, c, h, w = shape
    if rows.shape != (b, h * w * c + 1):
        raise ValueError(f"rows shape {rows.shape} does not match staged input {tuple(shape)}")
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    idx = _gather_index(c, h, w, kernel, stride, pad)
    return rows.take(idx, axis=1).reshape(b, oh, ow, c, kernel, kernel)


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H', W', C, K, K) patch matrix, a fresh C-contiguous
    float64 array: gather_patches of stage_rows(x) (see the module docstring)."""
    return gather_patches(stage_rows(x), x.shape, kernel, stride, pad)


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
    cols: optional im2col(x, K, stride, pad). When it is given, only x.shape
    is read, as in conv2d_backward. The output is a (B, C_out, H', W') view
    of channel-last memory.
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

    cols: optional im2col(x, K, stride, pad). When it is given, only x.shape
    is read, so x may be a zero-byte stand-in such as
    np.broadcast_to(np.float64(0.0), shape). cols is read, never written, and
    this call drops its reference after the weight-gradient GEMM, and its
    reference to grad_out after the dcols GEMM: a caller that passes its only
    reference frees the patch matrix before dcols, of the same size, is
    built, and grad_out before the padded input gradient is. grad_out in
    channel-last memory (a conv output or global_avgpool_backward's result)
    is read in place; any other layout is copied once. With grad_input=False
    the input gradient is not computed and comes back None.
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
    del cols
    if not grad_input:
        return None, grad_w

    # scatter grad back: dcols = g @ w, then col2im into a channel-last
    # buffer, adding the (i, j) terms in the same order as a channel-first one
    b, c, h, wd = x.shape
    dcols = (g2 @ w.reshape(w.shape[0], -1)).reshape(b, oh, ow, c, k, k)
    del grad_out, g2
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


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B, C) per-channel spatial mean."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"global_avgpool expects (B, C, H, W), got {x.shape}")
    return x.mean(axis=(2, 3))


def global_avgpool_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Only x.shape is read, so x may be a zero-byte broadcast_to stand-in.
    The gradient is a (B, C, H, W) view of channel-last memory, the layout
    of a conv output, so conv2d_backward reads it without a copy."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != x.shape[:2]:
        raise ValueError(
            f"global_avgpool_backward shape mismatch: grad {grad_out.shape} vs input {x.shape}"
        )
    b, c, h, w = x.shape
    grad = np.broadcast_to((grad_out / (h * w))[:, None, None, :], (b, h, w, c))
    return grad.copy().transpose(0, 3, 1, 2)


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
