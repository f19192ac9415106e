"""Plain (single-branch) CNN container: filter banks, prune masks, soft and hard pruning.

The architecture is conv -> relu repeated, then global average pooling and a
linear classifier. Conv layers carry no bias; the classifier is never pruned.
A ModelState holds exactly what a checkpoint stores: architecture, weights
and keep-masks. SGD momentum buffers belong to the training loop and are
passed to train_epoch. Soft pruning zeroes filter weights but keeps the full
shapes, so later gradient steps can revive a pruned filter. Hard pruning
(compact) physically removes pruned output channels and the matching input
channels of the next layer.

Each activation is held once. The ReLU runs in place on the fresh conv
output. Inference (forward, and so evaluate and selection trials) runs the
conv stack layer by layer and caches nothing, so only the live layer's
arrays exist. Training holds no float activation: it caches, per conv
layer, a bool ReLU mask and the patch matrix, and backward frees each patch
matrix before building that layer's input gradient.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ops


def _check_int(name: str, value) -> None:
    """ValueError naming the arch field unless value is an integer (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"arch field {name!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        for f in fields(self):
            _check_int(f.name, getattr(self, f.name))
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError(f"conv dims must be >= 1: {self}")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0: {self}")


@dataclass(frozen=True)
class Architecture:
    input_shape: tuple[int, int, int]  # (C, H, W)
    conv_layers: tuple[ConvSpec, ...]
    num_classes: int

    def __post_init__(self):
        shape = list(self.input_shape)
        for dim in shape:
            _check_int("input_shape", dim)
        if len(shape) != 3 or min(shape) < 1:
            raise ValueError(f"arch field 'input_shape' must be 3 dims (C, H, W) >= 1, got {shape}")
        _check_int("num_classes", self.num_classes)
        if len(self.conv_layers) < 1:
            raise ValueError("architecture needs at least one conv layer")
        if self.conv_layers[0].in_channels != self.input_shape[0]:
            raise ValueError(
                f"layer 0 expects {self.conv_layers[0].in_channels} input channels, "
                f"input has {self.input_shape[0]}"
            )
        for i in range(len(self.conv_layers) - 1):
            a, b = self.conv_layers[i], self.conv_layers[i + 1]
            if a.out_channels != b.in_channels:
                raise ValueError(
                    f"channel chain broken: layer {i} outputs {a.out_channels} "
                    f"but layer {i + 1} expects {b.in_channels}"
                )
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")

    def spatial_sizes(self) -> list[tuple[int, int]]:
        """Output (H, W) after each conv layer."""
        h, w = self.input_shape[1], self.input_shape[2]
        sizes = []
        for spec in self.conv_layers:
            h = ops.conv_out_size(h, spec.kernel, spec.stride, spec.pad)
            w = ops.conv_out_size(w, spec.kernel, spec.stride, spec.pad)
            if h < 1 or w < 1:
                raise ValueError(f"spatial size collapsed to {h}x{w} at {spec}")
            sizes.append((h, w))
        return sizes

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "conv_layers": [asdict(s) for s in self.conv_layers],
            "num_classes": self.num_classes,
        }

    @staticmethod
    def from_dict(d: dict) -> "Architecture":
        try:
            return Architecture(
                input_shape=tuple(d["input_shape"]),
                conv_layers=tuple(ConvSpec(**s) for s in d["conv_layers"]),
                num_classes=d["num_classes"],
            )
        except KeyError as exc:
            raise ValueError(f"arch is missing key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed arch: {exc}") from exc


@dataclass
class ModelState:
    arch: Architecture
    conv_weights: list[np.ndarray]          # per layer: (out, in, K, K)
    masks: list[np.ndarray]                 # per layer: bool keep-vector, len = out
    fc_weight: np.ndarray                   # (num_classes, last_out)
    fc_bias: np.ndarray                     # (num_classes,)

    def copy(self) -> "ModelState":
        return copy.deepcopy(self)

    def parameters(self) -> list[np.ndarray]:
        """Every parameter array, in the order and shapes of param_shapes."""
        return self.conv_weights + [self.fc_weight, self.fc_bias]

    def total_filters(self) -> int:
        return sum(s.out_channels for s in self.arch.conv_layers)

    def nonzero_filter_count(self) -> int:
        """Sparsity level: number of filters with any nonzero weight."""
        return sum(int(np.any(w != 0, axis=(1, 2, 3)).sum()) for w in self.conv_weights)


def all_keep_masks(arch: Architecture) -> list[np.ndarray]:
    return [np.ones(s.out_channels, dtype=bool) for s in arch.conv_layers]


def param_shapes(arch: Architecture) -> list[tuple[int, ...]]:
    """Shape of every parameter array of an arch model, in the order that init,
    SGD, momentum and checkpoints share: each conv layer's (out, in, K, K),
    then the classifier weight (classes, last out) and bias (classes,)."""
    shapes = [(s.out_channels, s.in_channels, s.kernel, s.kernel) for s in arch.conv_layers]
    return shapes + [(arch.num_classes, arch.conv_layers[-1].out_channels), (arch.num_classes,)]


def build_model(arch: Architecture, seed: int) -> ModelState:
    """Seeded uniform init of each weight on [-b, b] with b = sqrt(6 / fan_in),
    fan_in being the product of its shape past the first axis; zero bias."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(arch)
    weights = []
    for shape in shapes[:-1]:
        bound = math.sqrt(6.0 / math.prod(shape[1:]))
        weights.append(rng.uniform(-bound, bound, size=shape))
    return ModelState(arch, weights[:-1], all_keep_masks(arch), weights[-1], np.zeros(shapes[-1]))


def flatten_filters(weights: np.ndarray) -> np.ndarray:
    """(N_out, N_in, K, K) -> (N_out, N_in*K*K), row j = filter j row-major."""
    return weights.reshape(weights.shape[0], -1)


def _as_batch(model: ModelState, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != model.arch.input_shape:
        raise ValueError(
            f"batch shape {x.shape} does not match architecture input "
            f"(B, {', '.join(map(str, model.arch.input_shape))})"
        )
    return x


def _shape_stand_in(x: np.ndarray) -> np.ndarray:
    """A zero-byte stand-in with x's shape, for a backward that reads only that."""
    return np.broadcast_to(np.float64(0.0), x.shape)


def _forward_activations(model: ModelState, batch: np.ndarray) -> tuple[list, np.ndarray]:
    """Training forward: per-layer caches for loss_and_gradients, and logits.

    A conv layer's cache is (input stand-in, relu_mask, cols): a zero-byte
    stand-in with its input's shape (given cols, the conv backward reads
    nothing else of the input), the bool mask pre_relu >= 0, taken before the
    in-place ReLU so that soft-pruned filters (pre_relu == 0) still pass
    gradient, and its im2col patch matrix, built once for forward and
    backward. So no layer's float activation outlives the next layer's
    forward. The last cache is (pooling input stand-in, pooled)."""
    x = _as_batch(model, batch)
    caches = []
    for spec, w in zip(model.arch.conv_layers, model.conv_weights):
        cols = ops.im2col(x, spec.kernel, spec.stride, spec.pad)
        out = ops.conv2d_forward(x, w, spec.stride, spec.pad, cols=cols)
        caches.append((_shape_stand_in(x), out >= 0, cols))
        x = np.maximum(out, 0.0, out=out)
    pooled = ops.global_avgpool_forward(x)
    logits = ops.linear_forward(pooled, model.fc_weight, model.fc_bias)
    caches.append((_shape_stand_in(x), pooled))
    return caches, logits


def _conv_stack(model: ModelState, batch: np.ndarray, n_layers: int) -> np.ndarray:
    """Output of the first n_layers conv layers, one layer at a time with
    nothing cached: only the live layer's input and output exist."""
    x = _as_batch(model, batch)
    for spec, w in zip(model.arch.conv_layers[:n_layers], model.conv_weights):
        x = ops.conv2d_forward(x, w, spec.stride, spec.pad)
        np.maximum(x, 0.0, out=x)
    return x


def forward(model: ModelState, batch: np.ndarray) -> np.ndarray:
    """Batch (B, C, H, W) -> logits (B, num_classes). The inference path: it
    keeps no caches, each layer's patch matrix is built and dropped inside
    its conv, and the ReLU runs in place on the conv output."""
    x = _conv_stack(model, batch, len(model.arch.conv_layers))
    pooled = ops.global_avgpool_forward(x)
    return ops.linear_forward(pooled, model.fc_weight, model.fc_bias)


def conv_feature_maps(model: ModelState, image: np.ndarray, layer_index: int) -> np.ndarray:
    """Post-activation feature maps of one conv layer for a single image (C, H, W)."""
    if not 0 <= layer_index < len(model.arch.conv_layers):
        raise ValueError(
            f"layer_index {layer_index} out of range [0, {len(model.arch.conv_layers)})"
        )
    return _conv_stack(model, np.asarray(image)[None], layer_index + 1)[0]


def check_masks(arch: Architecture, masks: list) -> list[np.ndarray]:
    """Keep-masks as bool arrays; raises ValueError unless there is one mask
    per conv layer holding a 0 or 1 for each of its filters."""
    if not isinstance(masks, (list, tuple)) or len(masks) != len(arch.conv_layers):
        raise ValueError(f"masks must be a list of {len(arch.conv_layers)}, one per conv layer")
    out = []
    for i, (m, spec) in enumerate(zip(masks, arch.conv_layers)):
        m = np.asarray(m)
        if m.shape != (spec.out_channels,) or not np.isin(m, (0, 1)).all():
            raise ValueError(f"mask {i} must be {spec.out_channels} values of 0 or 1")
        out.append(m.astype(bool))
    return out


def apply_mask(model: ModelState, masks: list[np.ndarray]) -> ModelState:
    """Soft prune in place: zero pruned filters' weights."""
    masks = check_masks(model.arch, masks)
    for w, m in zip(model.conv_weights, masks):
        w[~m] = 0.0
    model.masks = masks
    return model


def compact(model: ModelState, masks: list[np.ndarray]) -> ModelState:
    """Hard prune: physically drop pruned output channels and the matching
    input channels downstream. Returns a new model."""
    masks = check_masks(model.arch, masks)
    for i, m in enumerate(masks):
        if not m.any():
            raise ValueError(f"mask {i} prunes every filter of layer {i}")
    new_specs = []
    new_weights = []
    prev_keep: np.ndarray | None = None
    for spec, w, m in zip(model.arch.conv_layers, model.conv_weights, masks):
        w = w[m]
        in_ch = spec.in_channels
        if prev_keep is not None:
            w = w[:, prev_keep]
            in_ch = int(prev_keep.sum())
        new_specs.append(
            ConvSpec(in_ch, int(m.sum()), spec.kernel, spec.stride, spec.pad)
        )
        # w[:, keep] copies, but not in C order: copy() makes forward's reshape a view
        new_weights.append(w.copy())
        prev_keep = m
    fc_w = model.fc_weight[:, prev_keep].copy()
    arch = Architecture(model.arch.input_shape, tuple(new_specs), model.arch.num_classes)
    return ModelState(
        arch=arch,
        conv_weights=new_weights,
        masks=all_keep_masks(arch),
        fc_weight=fc_w,
        fc_bias=model.fc_bias.copy(),
    )


def evaluate(model: ModelState, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> dict:
    """Loss plus top-1/top-5 accuracy over a labelled set."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty evaluation set")
    losses = []
    top1 = 0
    top5 = 0
    for start in range(0, n, batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits = forward(model, xb)
        loss, _ = ops.softmax_cross_entropy(logits, yb)
        losses.append(loss * len(yb))
        pred = logits.argmax(axis=1)
        top1 += int((pred == yb).sum())
        k = min(5, logits.shape[1])
        topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
        top5 += int((topk == yb[:, None]).any(axis=1).sum())
    return {
        "loss": sum(losses) / n,
        "top1": top1 / n,
        "top5": top5 / n,
    }


def loss_and_gradients(
    model: ModelState, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, dict]:
    """Cross-entropy loss, logits and gradients of every parameter.

    Gradient dict keys: "conv" (list per layer), "fc_weight", "fc_bias".
    """
    caches, logits = _forward_activations(model, x)
    loss, grad_logits = ops.softmax_cross_entropy(logits, y)
    pooled_in, pooled = caches.pop()
    grad_pooled, grad_fc_w, grad_fc_b = ops.linear_backward(
        pooled, model.fc_weight, grad_logits
    )
    grad = ops.global_avgpool_backward(pooled_in, grad_pooled)
    conv_grads: list[np.ndarray] = [None] * len(model.conv_weights)  # type: ignore
    for i in range(len(model.conv_weights) - 1, -1, -1):
        xin, relu_mask = caches[i][:2]  # not cols: see the call below
        grad = grad * relu_mask  # ReLU subgradient 1 at 0 (see _forward_activations)
        spec = model.arch.conv_layers[i]
        # the popped patch matrix's only reference is the call's argument, so
        # conv2d_backward frees it before building dcols; layer 0's input is
        # the batch: its gradient has no consumer
        grad, conv_grads[i] = ops.conv2d_backward(
            xin, model.conv_weights[i], grad, spec.stride, spec.pad,
            cols=caches.pop()[2], grad_input=i > 0,
        )
    grads = {"conv": conv_grads, "fc_weight": grad_fc_w, "fc_bias": grad_fc_b}
    return loss, logits, grads


def train_epoch(
    model: ModelState,
    velocity: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One seeded-shuffle pass of minibatch SGD. Mutates the model and the
    momentum buffers in place; velocity holds one array per parameter, in
    the order of model.parameters().

    lr == 0 is allowed and leaves weights untouched (pure evaluation pass).
    Returns (mean loss, accuracy) over the epoch.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    order = rng.permutation(n)
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        xb, yb = x[idx], y[idx]
        loss, logits, grads = loss_and_gradients(model, xb, yb)
        total_loss += loss * len(idx)
        correct += int((logits.argmax(axis=1) == yb).sum())
        if lr > 0:
            ops.sgd_step(
                model.parameters(),
                grads["conv"] + [grads["fc_weight"], grads["fc_bias"]],
                velocity,
                lr=lr,
                momentum=momentum,
                weight_decay=weight_decay,
            )
    return total_loss / n, correct / n
