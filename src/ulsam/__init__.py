"""Subspace attention for compact CNNs, from scratch on NumPy.

Kernels with analytic gradients, MobileNet-V1/V2 graph builders with
attention position directives, an exact parameter/MAC cost model, and a
deterministic desk-scale training harness.

On Linux with glibc, importing the package fixes two process-wide malloc
parameters (see :func:`_fix_malloc_thresholds`).
"""

import ctypes
import platform
import sys


def _fix_malloc_thresholds() -> bool:
    """Keep large NumPy temporaries on glibc's heap instead of mapping and faulting them in per op.

    Left dynamic, glibc maps each block above its mmap threshold afresh and
    trims the heap top above its trim threshold. Setting either value switches
    the dynamic threshold off, so both are set, the mmap threshold first.
    Returns whether both calls succeeded; off glibc, or without ``mallopt``,
    it does nothing and returns False.
    """
    # off Linux, libc_ver would scan the interpreter's binary for a version string
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at 32 MiB, glibc's 64-bit ceiling for the dynamic
    # threshold; M_TRIM_THRESHOLD (-1) at 1 GiB, which fits mallopt's int
    return all(mallopt(param, value) == 1 for param, value in ((-3, 32 << 20), (-1, 1 << 30)))


_fix_malloc_thresholds()

from . import attention, costs, gradcheck, instrument, models, ops, training
from .errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DirectiveError,
    DivergenceError,
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
    "DivergenceError",
    "__version__",
]
