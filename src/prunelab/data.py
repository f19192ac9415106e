"""Datasets: a seeded procedural synthetic set and the CIFAR-10 binary loader.

The synthetic set is the default desk-scale workload: each class is an
oriented sinusoidal stripe pattern (class-specific frequency, orientation
and phase) plus Gaussian pixel noise, so a tiny CNN can separate classes in
a few dozen epochs. CIFAR-10 ingestion reads the directory that the binary
archive unpacks to: the data_batch_*.bin training batches and the
test_batch.bin evaluation batch (3073-byte records: 1 label byte + 3072
channel-major pixel bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR_RECORD_BYTES = 3073
CIFAR_IMAGE_SHAPE = (3, 32, 32)
CIFAR_CLASSES = 10


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray


def _stripe_images(
    labels: np.ndarray, classes: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.empty((len(labels), 1, size, size))
    for i, c in enumerate(labels):
        freq = 1.0 + (c % (classes // 2 or 1))
        theta = 0.0 if c < classes / 2 else math.pi / 2
        phase = 0.9 * c
        u = xx * math.cos(theta) + yy * math.sin(theta)
        pattern = np.sin(2 * math.pi * freq * u / size + phase)
        images[i, 0] = pattern + rng.normal(0.0, 0.1, size=(size, size))
    return images


def gen_synthetic_dataset(
    seed: int,
    n_train: int,
    n_eval: int,
    classes: int = 10,
    image_size: int = 16,
) -> Dataset:
    """Balanced, deterministic stripe-pattern dataset (noise sigma = 0.1)."""
    if classes < 2:
        raise ValueError(f"need >= 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    train_y = np.arange(n_train) % classes
    eval_y = np.arange(n_eval) % classes
    train_x = _stripe_images(train_y, classes, image_size, rng)
    eval_x = _stripe_images(eval_y, classes, image_size, rng)
    # shuffle train order deterministically so minibatches mix classes
    order = rng.permutation(n_train)
    return Dataset(
        train_x=train_x[order],
        train_y=train_y[order],
        eval_x=eval_x,
        eval_y=eval_y,
    )


def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {raw.size} bytes is not a multiple of the "
            f"{CIFAR_RECORD_BYTES}-byte record (truncated or wrong file?)"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() >= CIFAR_CLASSES:
        raise ValueError(f"{path}: label byte {labels.max()} outside [0, {CIFAR_CLASSES - 1}]")
    images = records[:, 1:].reshape(-1, *CIFAR_IMAGE_SHAPE).astype(np.float64) / 255.0
    return images, labels


def load_cifar10_binary(path: str | Path) -> Dataset:
    """Load CIFAR-10 from the directory its binary archive unpacks to.

    Raises FileNotFoundError, before reading any file, unless the directory
    holds data_batch_*.bin and test_batch.bin. Pixels are scaled to [0, 1]
    then normalized per channel with mean/std computed on the training split.
    """
    path = Path(path)
    train_files = sorted(path.glob("data_batch_*.bin"))
    test_file = path / "test_batch.bin"
    if not train_files or not test_file.is_file():
        raise FileNotFoundError(f"{path}: a CIFAR-10 directory needs data_batch_*.bin and test_batch.bin")
    train_parts = [_read_cifar_file(f) for f in train_files]
    train_x = np.concatenate([p[0] for p in train_parts])
    train_y = np.concatenate([p[1] for p in train_parts])
    mean = train_x.mean(axis=(0, 2, 3))[None, :, None, None]
    std = train_x.std(axis=(0, 2, 3))
    std = np.where(std == 0, 1.0, std)[None, :, None, None]
    eval_x, eval_y = _read_cifar_file(test_file)
    return Dataset((train_x - mean) / std, train_y, (eval_x - mean) / std, eval_y)
