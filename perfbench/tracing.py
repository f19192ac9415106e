"""Span tracing of prunelab's public functions from outside the package.

`Tracer.install()` replaces each traced function on every prunelab module
that holds it, so names one module imports from another (`criterion_scores`
in `meta`, `save_checkpoint` in `experiment`) are caught as well. Each
wrapper appends a span [name, start, end, parent, note] to an in-memory
list; `uninstall()` puts the originals back. `layer_metrics()` derives the
per-layer metrics from the spans.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name, default):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _conv_work(x, w, stride, pad):
    """(MACs of one forward, bytes of its im2col patch matrix), from shapes."""
    b = x.shape[0] if x.ndim == 4 else 1
    oh = (x.shape[-2] + 2 * pad - w.shape[2]) // stride + 1
    ow = (x.shape[-1] + 2 * pad - w.shape[3]) // stride + 1
    patch = b * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]
    return patch * w.shape[0], patch * 8


def _note_conv_forward(args, kwargs, result):
    return _conv_work(args[0], args[1], _arg(args, kwargs, 2, "stride", 1), _arg(args, kwargs, 3, "pad", 0))


def _note_conv_backward(args, kwargs, result):
    macs, cols = _conv_work(args[0], args[1], _arg(args, kwargs, 3, "stride", 1), _arg(args, kwargs, 4, "pad", 0))
    return 2 * macs, cols  # grad_w and grad_cols are one forward-sized GEMM each


def _note_masks(args, kwargs, result):
    return hashlib.sha1(b"".join(m.tobytes() for m in result)).hexdigest()


def _note_tied(args, kwargs, result):
    gaps = result[2].candidate_gaps
    return gaps.count(min(gaps)) > 1


# (module, attribute, note taken from (args, kwargs, result) or None)
TRACED = [
    ("ops", "conv2d_forward", _note_conv_forward),
    ("ops", "conv2d_backward", _note_conv_backward),
    ("ops", "sgd_step", None),
    ("ops", "softmax_cross_entropy", None),
    ("model", "train_epoch", None),
    ("model", "loss_and_gradients", None),
    ("model", "evaluate", lambda a, k, r: a[1].shape[0]),
    ("model", "apply_mask", None),
    ("model", "compact", None),
    ("criteria", "criterion_scores", lambda a, k, r: _arg(a, k, 1, "criterion", None).kind),
    ("meta", "select_criterion", _note_tied),
    ("meta", "candidate_prune", _note_masks),
    ("flops", "model_flops", None),
    ("data", "gen_synthetic_dataset", None),
    ("experiment", "emit_report", None),
    ("checkpoint", "save_checkpoint", None),
    ("checkpoint", "load_checkpoint", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import prunelab
        from prunelab.model import ModelState

        modules = [m for n, m in list(sys.modules.items()) if n == "prunelab" or n.startswith("prunelab.")]
        for mod_name, attr, note in TRACED:
            orig = getattr(getattr(prunelab, mod_name), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig, note)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._patched.append((m, attr, orig))
                    setattr(m, attr, wrapper)
        orig_copy = ModelState.__dict__["copy"]
        self._patched.append((ModelState, "copy", orig_copy))
        ModelState.copy = self._wrap("model.ModelState.copy", orig_copy, None)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from one run's spans."""
    by_name: dict[str, list[int]] = defaultdict(list)
    child_s = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child_s[parent] += end - start

    def total(name, pick=lambda i: True):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name] if pick(i))

    m: dict[str, tuple[float, str]] = {}
    for name in ("ops.conv2d_forward", "ops.conv2d_backward", "model.train_epoch",
                 "model.evaluate", "model.ModelState.copy", "criteria.criterion_scores"):
        m[f"{name}.calls"] = (len(by_name[name]), "count")
    for name in ("ops.conv2d_forward", "ops.conv2d_backward", "ops.sgd_step", "ops.softmax_cross_entropy",
                 "model.train_epoch", "model.loss_and_gradients", "model.evaluate",
                 "model.ModelState.copy", "model.apply_mask", "model.compact",
                 "meta.select_criterion", "meta.candidate_prune", "flops.model_flops",
                 "data.gen_synthetic_dataset", "experiment.emit_report",
                 "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        m[f"{name}.s"] = (total(name), "s")

    conv = by_name["ops.conv2d_forward"] + by_name["ops.conv2d_backward"]
    macs = sum(spans[i][4][0] for i in conv)
    conv_s = m["ops.conv2d_forward.s"][0] + m["ops.conv2d_backward.s"][0]
    m["ops.conv2d.macs"] = (macs, "count")
    m["ops.conv2d.gmacs_per_s"] = (macs / conv_s / 1e9 if conv_s else 0.0, "GMAC/s")
    m["ops.conv2d.im2col_mb"] = (sum(spans[i][4][1] for i in conv) / 1e6, "MB")
    m["model.evaluate.images"] = (sum(spans[i][4] for i in by_name["model.evaluate"]), "count")

    for kind in ("norm", "minkowski", "cosine"):
        m[f"criteria.{kind}.s"] = (total("criteria.criterion_scores", lambda i: spans[i][4] == kind), "s")

    select = by_name["meta.select_criterion"]
    m["meta.select_criterion.self_s"] = (sum(spans[i][2] - spans[i][1] - child_s[i] for i in select), "s")
    masks_by_step: dict[int, set] = defaultdict(set)
    for i in by_name["meta.candidate_prune"]:
        masks_by_step[spans[i][3]].add(spans[i][4])
    m["meta.prune_steps"] = (len(select), "count")
    m["meta.candidate_evaluations"] = (len(by_name["meta.candidate_prune"]), "count")
    m["meta.distinct_candidate_masks"] = (sum(len(s) for s in masks_by_step.values()), "count")
    m["meta.tied_steps"] = (sum(bool(spans[i][4]) for i in select), "count")
    return m
