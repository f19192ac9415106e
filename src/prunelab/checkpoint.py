"""Bit-exact binary checkpoint format.

Layout:
  magic  b"MFPC"
  u32 LE format version (currently 1)
  u32 LE header length, then that many bytes of UTF-8 JSON:
      {"arch": ..., "masks": [[...]], "seed": int, "epoch": int}
  all weights concatenated as little-endian float64, row-major, in
  declaration order: conv layer 0..L-1, then classifier weight, then bias.

A checkpoint stores the whole ModelState; optimizer state is not part of
it. load_checkpoint checks the header's masks against the architecture: one
list per conv layer holding a 0 or 1 for each of its filters.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import Architecture, ModelState, check_masks

MAGIC = b"MFPC"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: ModelState, path: str | Path, seed: int = 0, epoch: int = 0) -> None:
    header = json.dumps(
        {
            "arch": model.arch.to_dict(),
            "masks": [m.astype(int).tolist() for m in model.masks],
            "seed": seed,
            "epoch": epoch,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    blobs = [w for w in model.conv_weights] + [model.fc_weight, model.fc_bias]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(np.ascontiguousarray(blob, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelState, dict]:
    """Returns (model, header dict). Raises CheckpointError on malformed files."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic (expected {MAGIC!r})")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if len(raw) < 12 + hlen:
        raise CheckpointError(f"{path}: truncated header ({len(raw)} bytes, need {12 + hlen})")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
        arch = Architecture.from_dict(header["arch"])
        masks = check_masks(arch, header["masks"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: invalid header: {exc}") from exc

    shapes = [
        (s.out_channels, s.in_channels, s.kernel, s.kernel) for s in arch.conv_layers
    ]
    shapes.append((arch.num_classes, arch.conv_layers[-1].out_channels))
    shapes.append((arch.num_classes,))
    need = sum(int(np.prod(s)) for s in shapes)
    body = raw[12 + hlen :]
    if len(body) != need * 8:
        raise CheckpointError(
            f"{path}: weight payload is {len(body)} bytes, expected {need * 8}"
        )
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    arrays = []
    off = 0
    for s in shapes:
        cnt = int(np.prod(s))
        arrays.append(flat[off : off + cnt].reshape(s).copy())
        off += cnt
    model = ModelState(
        arch=arch,
        conv_weights=arrays[: len(arch.conv_layers)],
        masks=masks,
        fc_weight=arrays[-2],
        fc_bias=arrays[-1],
    )
    return model, header
