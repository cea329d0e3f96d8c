"""Multiply-accumulate instrumentation for the convolution/FC kernels.

The cost analyzer predicts MAC totals analytically; this counter tallies the
multiplications the kernels actually perform, so the two can be compared
exactly. Only multiply-accumulate ops are tallied (convolutions and
fully-connected layers); normalization, activations, pooling, softmax, and the
attention block's elementwise redistribution are excluded, matching the
accounting convention of the analyzer.

Kernels attribute their tally to an op kind ("standard", "depthwise",
"pointwise", "ulsam", "fc"), the same kinds the analyzer reports. The
subspace-attention block's two 1x1 stages are the only callers of
``ops.grouped_pointwise``, which tallies as "ulsam".

The active counter is process-global state; instrument one forward pass at a
time (counting is off unless a ``count_macs`` block is open, so ordinary
training and inference never pay for it).
"""

from __future__ import annotations

from contextlib import contextmanager


class MacCounter:
    """Tally of multiply-accumulates by op kind."""

    def __init__(self):
        self.by_kind: dict[str, int] = {}

    def add(self, kind: str, n: int) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def __repr__(self) -> str:
        return f"MacCounter(total={self.total}, by_kind={self.by_kind})"


_active: MacCounter | None = None


@contextmanager
def count_macs(counter: MacCounter):
    """Activate MAC tallying into ``counter`` for the duration of the block; yields it."""
    global _active
    prev = _active
    _active = counter
    try:
        yield _active
    finally:
        _active = prev


def tally(kind: str, n: int) -> None:
    """Called by kernels; no-op unless a counter is active."""
    if _active is not None:
        _active.add(kind, n)
