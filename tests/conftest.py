import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from prunelab.model import Architecture, ConvSpec, build_model  # noqa: E402

# What the default arch lacks: K = 5 and 1, stride 3, pad 0 and 2, channel
# counts that are not multiples of 8. An ExperimentConfig arch field.
ODD_SHAPES_ARCH = {
    "input_shape": [1, 9, 9],
    "conv_layers": [
        {"in_channels": 1, "out_channels": 12, "kernel": 5, "stride": 1, "pad": 2},
        {"in_channels": 12, "out_channels": 16, "kernel": 3, "stride": 2, "pad": 0},
        {"in_channels": 16, "out_channels": 7, "kernel": 1, "stride": 1, "pad": 0},
        {"in_channels": 7, "out_channels": 6, "kernel": 3, "stride": 3, "pad": 1},
    ],
    "num_classes": 10,
}


def rewrite_header(path, edit):
    """Rewrite a checkpoint's JSON header through edit(header), keeping the payload."""
    raw = Path(path).read_bytes()
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(raw[:8] + np.uint32(len(new)).tobytes() + new + raw[12 + hlen :])


def traced_peak_mb(fn, *args) -> float:
    """Peak traced allocation of fn(*args), in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def momentum_buffers(model):
    """Fresh SGD momentum buffers for train_epoch, in sgd_step order."""
    return [np.zeros_like(p) for p in model.parameters()]


def random_architecture(rng: np.random.Generator, max_layers=3, max_channels=8,
                        num_classes=6, image_size=5) -> Architecture:
    """Small random plain-CNN architecture for property tests."""
    n_layers = int(rng.integers(1, max_layers + 1))
    channels = [1] + [int(rng.integers(2, max_channels + 1)) for _ in range(n_layers)]
    specs = []
    for i in range(n_layers):
        k = int(rng.choice([1, 3]))
        specs.append(ConvSpec(channels[i], channels[i + 1], kernel=k, stride=1, pad=k // 2))
    return Architecture((1, image_size, image_size), tuple(specs), num_classes)


@pytest.fixture
def small_model():
    arch = Architecture(
        (1, 6, 6),
        (
            ConvSpec(1, 4, 3, stride=1, pad=1),
            ConvSpec(4, 6, 3, stride=2, pad=1),
        ),
        num_classes=6,
    )
    return build_model(arch, seed=11)
