"""Correctness checks computed apart from prunelab.

Every check takes plain arrays, dicts and lists and returns a list of failure
messages, empty when it passes, so the tests can feed each one a corrupted
result. Nothing here imports prunelab: the oracles are this file's own.

A model is a dict {"arch": <Architecture.to_dict()>, "conv": [arrays],
"fc_weight": array, "fc_bias": array, "masks": [bool arrays]}.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

LOGIT_RTOL = 1e-9
SCORE_RTOL = 1e-9
ADJOINT_RTOL = 1e-10


def out_size(n: int, kernel: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - kernel) // stride + 1


def n_pruned(rate: float, n_filters: int) -> int:
    """floor(rate * N), computed on the exact decimal value of the rate."""
    return math.floor(Fraction(repr(rate)) * n_filters)


def conv_oracle(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation as one einsum per kernel offset over a zero-padded input."""
    b, c, h, wd = x.shape
    k = w.shape[2]
    oh, ow = out_size(h, k, stride, pad), out_size(wd, k, stride, pad)
    xp = np.zeros((b, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((b, w.shape[0], oh, ow))
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, :, ky : ky + stride * (oh - 1) + 1 : stride,
                       kx : kx + stride * (ow - 1) + 1 : stride]
            out += np.einsum("oc,bcij->boij", w[:, :, ky, kx], patch)
    return out


def forward_oracle(model: dict, x: np.ndarray) -> np.ndarray:
    """conv -> relu per layer, global average pool, linear classifier."""
    for spec, w in zip(model["arch"]["conv_layers"], model["conv"]):
        x = np.maximum(conv_oracle(x, w, spec["stride"], spec["pad"]), 0.0)
    return x.mean(axis=(2, 3)) @ model["fc_weight"].T + model["fc_bias"]


def check_logits(model: dict, x: np.ndarray, logits: np.ndarray,
                 y: np.ndarray | None = None, eval_top1: float | None = None) -> list[str]:
    """Program logits match the oracle; with labels, the oracle's top-1
    equals the reported eval_top1 (soft and hard pruning agree)."""
    ref = forward_oracle(model, x)
    if logits.shape != ref.shape:
        return [f"logits shape {logits.shape} != oracle shape {ref.shape}"]
    fails = []
    tol = LOGIT_RTOL * max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(logits - ref).max())
    if not err <= tol:
        fails.append(f"logits differ from the einsum oracle by {err:.3g} (tolerance {tol:.3g})")
    if y is not None:
        top1 = int((ref.argmax(axis=1) == y).sum()) / len(y)
        if top1 != eval_top1:
            fails.append(f"oracle top-1 {top1} != reported eval_top1 {eval_top1}")
    return fails


def check_repeatable(outputs: list[np.ndarray]) -> list[str]:
    """Repeated forward passes on one batch give bit-identical logits."""
    bad = sum(not np.array_equal(o, outputs[0]) for o in outputs[1:])
    return [f"{bad} of {len(outputs)} repeated forward passes differ from the first"] if bad else []


def conv_macs(arch: dict) -> int:
    """Multiply-accumulates per image of every conv layer of an architecture."""
    h, w = arch["input_shape"][1:]
    total = 0
    for s in arch["conv_layers"]:
        h, w = out_size(h, s["kernel"], s["stride"], s["pad"]), out_size(w, s["kernel"], s["stride"], s["pad"])
        total += s["out_channels"] * s["in_channels"] * s["kernel"] ** 2 * h * w
    return total


def check_compaction(dense_arch: dict, final_arch: dict, rate: float, pruned_macs: int) -> list[str]:
    """Each layer keeps N - floor(rate*N) filters, the input channels follow,
    and the reported pruned MACs equal the compacted shapes' MACs."""
    dense, final = dense_arch["conv_layers"], final_arch["conv_layers"]
    if len(dense) != len(final):
        return [f"compacted model has {len(final)} conv layers, dense has {len(dense)}"]
    fails = []
    prev = dense_arch["input_shape"][0]
    for i, (d, f) in enumerate(zip(dense, final)):
        keep = d["out_channels"] - n_pruned(rate, d["out_channels"])
        if f["out_channels"] != keep:
            fails.append(f"layer {i} keeps {f['out_channels']} filters, expected {keep}")
        if f["in_channels"] != prev:
            fails.append(f"layer {i} has {f['in_channels']} input channels, expected {prev}")
        if (f["kernel"], f["stride"], f["pad"]) != (d["kernel"], d["stride"], d["pad"]):
            fails.append(f"layer {i} kernel/stride/pad changed by compaction")
        prev = keep
    if final_arch["input_shape"] != dense_arch["input_shape"] or final_arch["num_classes"] != dense_arch["num_classes"]:
        fails.append("compaction changed the input shape or class count")
    macs = conv_macs(final_arch)
    if pruned_macs != macs:
        fails.append(f"reported pruned MACs {pruned_macs} != {macs} counted from compacted shapes")
    return fails


def check_prune_steps(steps: list[dict], dense_arch: dict, rate: float, expected_steps: int) -> list[str]:
    """Each prune record (report.json form) is one-hot, its winner has the
    minimum gap, every gap is |value - reference| and every mask prunes
    floor(rate*N) filters of its layer."""
    fails = []
    if len(steps) != expected_steps:
        fails.append(f"{len(steps)} prune steps, expected {expected_steps}")
    layers = [s["out_channels"] for s in dense_arch["conv_layers"]]
    for s in steps:
        tag = f"prune step {s['step']}"
        action = s["action"]
        names = [c["criterion"] for c in s["candidates"]]
        gaps = [c["gap"] for c in s["candidates"]]
        if len(action) != len(names) or sorted(action) != [0] * (len(action) - 1) + [1]:
            fails.append(f"{tag}: action {action} is not one-hot over {len(names)} candidates")
        else:
            win = action.index(1)
            if names[win] != s["selected"]:
                fails.append(f"{tag}: action picks {names[win]} but selected is {s['selected']}")
            if s["attribute"] != "random" and gaps[win] != min(gaps):
                fails.append(f"{tag}: winner gap {gaps[win]} is not the minimum {min(gaps)}")
        for c in s["candidates"]:
            if c["gap"] != abs(c["value"] - s["reference_value"]):
                fails.append(f"{tag}: gap of {c['criterion']} is not |value - reference|")
        if len(s["masks"]) != len(layers):
            fails.append(f"{tag}: {len(s['masks'])} masks for {len(layers)} layers")
            continue
        for i, (mask, n) in enumerate(zip(s["masks"], layers)):
            if len(mask) != n or any(v not in (0, 1) for v in mask):
                fails.append(f"{tag}: mask {i} is not a 0/1 vector of length {n}")
            elif mask.count(0) != n_pruned(rate, n):
                fails.append(f"{tag}: mask {i} prunes {mask.count(0)} filters, expected {n_pruned(rate, n)}")
    return fails


def check_same_model(loaded: dict, expected: dict) -> list[str]:
    """A reloaded checkpoint equals the returned model array for array."""
    fails = []
    if loaded["arch"] != expected["arch"]:
        fails.append("checkpoint architecture differs from the returned model")
        return fails
    pairs = [(f"conv {i}", a, b) for i, (a, b) in enumerate(zip(loaded["conv"], expected["conv"]))]
    pairs += [("fc_weight", loaded["fc_weight"], expected["fc_weight"]),
              ("fc_bias", loaded["fc_bias"], expected["fc_bias"])]
    for name, a, b in pairs:
        if a.dtype != np.float64 or not np.array_equal(a, b):
            fails.append(f"checkpoint {name} differs from the returned model")
    if [m.tolist() for m in loaded["masks"]] != [m.tolist() for m in expected["masks"]]:
        fails.append("checkpoint masks differ from the returned model")
    return fails


def file_hashes(out_dir: Path, names=("report.csv", "report.json", "final.ckpt")) -> dict:
    return {n: hashlib.sha256((Path(out_dir) / n).read_bytes()).hexdigest() for n in names}


def check_same_hashes(hashes: list[dict]) -> list[str]:
    """Repeated runs of one workload and seed write byte-identical artifacts."""
    return [f"run {i} artifacts differ from run 0: {sorted(k for k in h if h[k] != hashes[0].get(k))}"
            for i, h in enumerate(hashes[1:], 1) if h != hashes[0]]


def check_floor(top1: float, floor: float) -> list[str]:
    return [] if top1 > floor else [f"final top-1 {top1} is not above the floor {floor}"]


def bruteforce_scores(bank: np.ndarray) -> dict[str, list[float]]:
    """Per-filter scores by plain Python loops over the flattened filters."""
    rows = [[float(v) for v in f.ravel()] for f in bank]
    n = len(rows)

    def minkowski(a, b, p):
        return sum(abs(u - v) ** p for u, v in zip(a, b)) ** (1.0 / p)

    def cosine(a, b):
        na, nb = math.sqrt(sum(u * u for u in a)), math.sqrt(sum(v * v for v in b))
        if na == 0 or nb == 0:
            return 1.0
        return min(2.0, max(0.0, 1.0 - sum(u * v for u, v in zip(a, b)) / (na * nb)))

    return {
        "l1": [sum(abs(u) for u in a) for a in rows],
        "l2": [math.sqrt(sum(u * u for u in a)) for a in rows],
        "minkowski1": [sum(minkowski(a, b, 1) for b in rows) / n for a in rows],
        "minkowski2": [sum(minkowski(a, b, 2) for b in rows) / n for a in rows],
        "cosine": [sum(cosine(a, b) for j, b in enumerate(rows) if j != i) / n
                   for i, a in enumerate(rows)],
    }


def check_scores(bank: np.ndarray, scores: dict[str, np.ndarray]) -> list[str]:
    """Program criterion scores match the brute-force loops on a small bank."""
    fails = []
    for name, ref in bruteforce_scores(bank).items():
        got = np.asarray(scores[name], dtype=np.float64)
        ref = np.asarray(ref)
        err = float(np.abs(got - ref).max()) if got.shape == ref.shape else math.inf
        if not err <= SCORE_RTOL * max(1.0, float(np.abs(ref).max())):
            fails.append(f"criterion {name} scores differ from brute force by {err:.3g}")
    return fails


def check_conv_adjoint(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int, pad: int,
                       y: np.ndarray, dx: np.ndarray, dw: np.ndarray) -> list[str]:
    """y matches the oracle and <conv(x,w), g> = <x, dx> = <w, dw> for the
    program's forward y and backward (dx, dw)."""
    ref = conv_oracle(x, w, stride, pad)
    if y.shape != ref.shape or dx.shape != x.shape or dw.shape != w.shape:
        return ["conv forward/backward shapes do not match the inputs"]
    fails = []
    if not float(np.abs(y - ref).max()) <= LOGIT_RTOL * max(1.0, float(np.abs(ref).max())):
        fails.append("conv forward differs from the einsum oracle")
    lhs = float(np.vdot(ref, g))
    # rounding of a dot product scales with the sum of its terms' magnitudes
    scale = max(float(np.vdot(np.abs(a), np.abs(b))) for a, b in ((ref, g), (x, dx), (w, dw))) or 1.0
    for name, val in (("<x, dx>", float(np.vdot(x, dx))), ("<w, dw>", float(np.vdot(w, dw)))):
        if not abs(val - lhs) <= ADJOINT_RTOL * scale:
            fails.append(f"adjoint test: <conv(x,w), g> = {lhs:.17g} but {name} = {val:.17g}")
    return fails
