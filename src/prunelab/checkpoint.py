"""Bit-exact binary checkpoint format.

Layout:
  magic  b"MFPC"
  u32 LE format version (currently 1)
  u32 LE header length, then that many bytes of UTF-8 JSON:
      {"arch": ..., "masks": [[...]], "seed": int, "epoch": int}
  ModelState.parameters() concatenated as little-endian float64,
  row-major, each with its shape from model.param_shapes(arch): conv
  layer 0..L-1, then classifier weight, then bias.

A checkpoint stores the whole ModelState; optimizer state is not part of
it. load_checkpoint checks the header's masks against the architecture: one
list per conv layer holding a 0 or 1 for each of its filters.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .model import Architecture, ModelState, check_masks, param_shapes

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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint32(len(header)).tobytes())
        fh.write(header)
        for param in model.parameters():
            fh.write(np.ascontiguousarray(param, dtype="<f8").tobytes())


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

    shapes = param_shapes(arch)
    sizes = [math.prod(s) for s in shapes]
    body = raw[12 + hlen :]
    if len(body) != sum(sizes) * 8:
        raise CheckpointError(
            f"{path}: weight payload is {len(body)} bytes, expected {sum(sizes) * 8}"
        )
    pieces = np.split(np.frombuffer(body, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = [piece.reshape(s).astype(np.float64) for piece, s in zip(pieces, shapes)]
    return ModelState(arch, params[:-2], masks, params[-2], params[-1]), header
