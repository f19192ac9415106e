"""Microbenchmarks for the traced run: every conv layer of a workload's
architecture at its training batch size, and criterion scoring on a
128x1152 filter bank. Each also checks what it timed against checks.py."""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np
from prunelab import criteria, ops

import checks

WIDE_BANK = (128, 128, 3, 3)   # 128 filters, rows of 128*3*3 = 1152
SMALL_BANK = (10, 4, 3, 3)     # brute-force check size


def median_ms(fn, min_calls: int, min_seconds: float) -> float:
    fn()  # warm-up
    times = []
    while len(times) < min_calls or sum(times) < min_seconds:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def conv_layers(arch: dict, batch: int, rng: np.random.Generator) -> tuple[dict, list[str]]:
    metrics, fails = {}, []
    h, w = arch["input_shape"][1:]
    for i, s in enumerate(arch["conv_layers"]):
        x = rng.standard_normal((batch, s["in_channels"], h, w))
        wt = rng.standard_normal((s["out_channels"], s["in_channels"], s["kernel"], s["kernel"]))
        stride, pad = s["stride"], s["pad"]
        y = ops.conv2d_forward(x, wt, stride, pad)
        g = rng.standard_normal(y.shape)
        dx, dw = ops.conv2d_backward(x, wt, g, stride, pad)
        fails += [f"conv L{i}: {f}" for f in checks.check_conv_adjoint(x, wt, g, stride, pad, y, dx, dw)]
        metrics[f"ops.conv.L{i}.fwd_ms"] = (median_ms(lambda: ops.conv2d_forward(x, wt, stride, pad), 10, 0.2), "ms")
        metrics[f"ops.conv.L{i}.bwd_ms"] = (median_ms(lambda: ops.conv2d_backward(x, wt, g, stride, pad), 10, 0.2), "ms")
        h, w = y.shape[2:]
    return metrics, fails


def criteria_wide(rng: np.random.Generator) -> tuple[dict, list[str]]:
    bank = rng.standard_normal(WIDE_BANK)
    mink2, cosine = criteria.Criterion("minkowski", 2), criteria.Criterion("cosine")
    metrics = {
        "criteria.minkowski2.wide.ms": (median_ms(lambda: criteria.criterion_scores(bank, mink2), 3, 0.0), "ms"),
        "criteria.cosine.wide.ms": (median_ms(lambda: criteria.criterion_scores(bank, cosine), 10, 0.1), "ms"),
    }
    tracemalloc.start()
    try:
        criteria.criterion_scores(bank, mink2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["criteria.minkowski2.wide.peak_mb"] = (peak / 1e6, "MB")

    small = rng.standard_normal(SMALL_BANK)
    small[3] = 0.0  # a soft-pruned filter: exercises the zero-norm cosine convention
    names = ("l1", "l2", "minkowski1", "minkowski2", "cosine")
    scores = {n: criteria.criterion_scores(small, criteria.parse_criterion(n)) for n in names}
    return metrics, checks.check_scores(small, scores)
