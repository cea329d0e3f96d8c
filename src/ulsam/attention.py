"""Subspace attention (ULSAM).

The ULSAM block splits an m-channel feature map into g contiguous groups of
width G = m / g, infers one spatial attention map per group as

    A = spatial_softmax( PW1( maxpool_3x3_p1( DW1x1(F_group) ) ) )

and redistributes features as ``(A * F_group) + F_group``. The depthwise stage
has one scalar per channel and the pointwise stage one filter (G scalars) per
group, so the whole block costs exactly ``2 m`` parameters regardless of g.
Neither stage carries a bias, and there is no normalization or activation
besides the softmax.

Every stage is per channel or per group, so the block runs as one pass over
the whole tensor for every g. Both 1x1 stages are ``ops.grouped_pointwise``:
DW1x1 with m groups of one channel scales every channel by its scalar, and
after the pool acts on all m channels at once, PW1 with g groups gives the g
logit maps. The softmax normalises each map over its h*w positions, and
``ops.broadcast_mul_add`` scales group k by map k.

``g = m`` degenerates to a per-channel non-linear gate. The tests evaluate
that closed form independently (scalar multiplies instead of the grouped
1x1 stages), and the ``g = m`` maps must equal it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigurationError
from .tensor import Tensor, parameter


@dataclass(frozen=True)
class UlsamConfig:
    """Channel count and group count; group width is derived."""

    channels: int
    groups: int

    def __post_init__(self):
        if self.channels < 1 or self.groups < 1:
            raise ConfigurationError(f"ulsam: channels and groups must be positive, got {self.channels}, {self.groups}")
        if self.groups > self.channels:
            raise ConfigurationError(f"ulsam: groups {self.groups} exceeds channels {self.channels}")
        if self.channels % self.groups != 0:
            raise ConfigurationError(
                f"ulsam: groups {self.groups} does not divide channels {self.channels} evenly"
            )

    @property
    def group_width(self) -> int:
        return self.channels // self.groups


@dataclass
class UlsamWeights:
    """Flat per-channel weights; group ñ owns the slice [ñ*G, (ñ+1)*G) of each.

    ``dw`` holds the 1x1 depthwise scalars, ``pw`` the single pointwise filter
    of each group. Total parameter count is 2m for every valid g.
    """

    dw: Tensor
    pw: Tensor

    def __post_init__(self):
        if self.dw.ndim != 1 or self.pw.ndim != 1 or self.dw.shape != self.pw.shape:
            raise ConfigurationError(
                f"ulsam weights must be two equal-length vectors, got {self.dw.shape} and {self.pw.shape}"
            )


def init_ulsam_weights(cfg: UlsamConfig, rng: np.random.Generator, dtype=np.float64) -> UlsamWeights:
    """Fan-in scaled init: zero-mean normal with variance 2 / G keeps logits O(1)."""
    std = float(np.sqrt(2.0 / cfg.group_width))
    dw = parameter(rng.normal(0.0, std, size=cfg.channels).astype(dtype))
    pw = parameter(rng.normal(0.0, std, size=cfg.channels).astype(dtype))
    return UlsamWeights(dw, pw)


def ulsam_attention_maps(f: Tensor, cfg: UlsamConfig, weights: UlsamWeights) -> Tensor:
    """All g attention maps stacked on the channel extent: shape (b, g, h, w)."""
    _check_input(f, cfg, weights)
    pooled = ops.maxpool_3x3_p1(ops.grouped_pointwise(f, weights.dw, cfg.channels))
    return ops.spatial_softmax(ops.grouped_pointwise(pooled, weights.pw, cfg.groups))


def ulsam_forward(f: Tensor, cfg: UlsamConfig, weights: UlsamWeights) -> Tensor:
    """Grouped attention + residual redistribution; output shape equals input shape."""
    return ops.broadcast_mul_add(f, ulsam_attention_maps(f, cfg, weights))


def _check_input(f: Tensor, cfg: UlsamConfig, weights: UlsamWeights) -> None:
    if f.ndim != 4:
        raise ConfigurationError(f"ulsam: expected rank-4 input, got shape {f.shape}")
    if f.shape[1] != cfg.channels:
        raise ConfigurationError(f"ulsam: input has {f.shape[1]} channels but config says {cfg.channels}")
    if weights.dw.shape != (cfg.channels,):
        raise ConfigurationError(
            f"ulsam: weight length {weights.dw.shape[0]} does not match {cfg.channels} channels"
        )
