"""Subspace attention for compact CNNs, from scratch on NumPy.

Kernels with analytic gradients, MobileNet-V1/V2 graph builders with
attention position directives, an exact parameter/MAC cost model, and a
deterministic desk-scale training harness.
"""

from . import attention, costs, gradcheck, instrument, models, ops, training
from .errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DirectiveError,
    IngestionError,
    UlsamError,
)
from .tensor import Tensor, parameter

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "parameter",
    "attention",
    "costs",
    "gradcheck",
    "instrument",
    "models",
    "ops",
    "training",
    "UlsamError",
    "ConfigurationError",
    "DirectiveError",
    "IngestionError",
    "DataError",
    "CheckpointError",
    "__version__",
]
