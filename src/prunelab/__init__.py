"""Desk-scale filter pruning lab.

Norm-based and distance-based pruning criteria for small CNNs, plus an
adaptive controller that picks, at every pruning step, the criterion whose
pruned model stays closest to the reference on a chosen meta-attribute.
"""

# defined before the submodule imports: experiment reads it at import time
__version__ = "0.1.0"

from . import checkpoint, criteria, data, experiment, flops, meta, model, ops  # noqa: E402

__all__ = [
    "checkpoint",
    "criteria",
    "data",
    "experiment",
    "flops",
    "meta",
    "model",
    "ops",
    "__version__",
]
