"""Dense tensor container with reverse-mode gradient recording.

A :class:`Tensor` is a NumPy array, an optional gradient buffer and its tape
links, with no name: a model names its parameters by their keys in
``ModelGraph.params``. Ops (see :mod:`ulsam.ops`) are pure functions: they
read input ``.data``, compute the output and hand it to
``op_result(data, *(input, grad_fn))``. ``op_result`` owns the tape rule: it
links the output to its inputs only while recording and only when an input
needs gradients, and its one backward closure adds each needed input's
gradient into that input's ``.grad``. ``backward()`` replays those closures
in reverse topological order, once: each interior node drops its gradient,
links and closure as soon as its closure has run, so a forward array is freed
once no later node reads it. Leaves keep ``.grad`` and the root its gradient
and closure, which each pass runs on that pass's upstream gradient alone; a
later backward that reaches a released node raises TapeError.

Convolutional code treats tensors as rank-4 ``(batch, channels, height,
width)``; the container itself is rank-agnostic so scalars (losses) and
matrices (fully-connected weights) ride the same tape. Elements are float64 by
default, which every gradient check relies on; float32 is selectable for
training throughput.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigurationError, TapeError

Array = np.ndarray

_recording = True  # False inside ``no_tape()``: op_result then links no output to its inputs


class Tensor:
    """An n-d array, an optional grad buffer of the same shape, and tape links."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Iterable["Tensor"] = (),
        backward: Optional[Callable[[Array], None]] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=data.dtype if isinstance(data, np.ndarray) else np.float64)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad: Optional[Array] = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, g: Array, fresh: bool = False) -> None:
        """Add ``g`` into ``.grad``; a first ``fresh`` gradient (one nothing else holds) becomes ``.grad`` as is."""
        if self.grad is None:
            # +0.0 + g in one pass: the same bits (and broadcast) as adding g into zeros, without the fill
            self.grad = g if fresh else np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, upstream: Optional[Array] = None) -> None:
        """Propagate gradients from this tensor to every reachable input, releasing the tape as it goes.

        ``upstream`` defaults to 1.0 and must match this tensor's shape; a
        non-scalar output therefore needs an explicit seed. Once an interior
        node's closure has run, it drops ``grad``, ``_parents`` and the closure,
        whose stub raises :class:`TapeError` if a later pass brings a gradient.
        Leaves keep ``.grad``; this tensor keeps its gradient and closure, and
        its closure runs on ``upstream``, so each pass adds only its own gradient.
        """
        if upstream is None:
            if self.data.size != 1:
                raise ConfigurationError(
                    f"backward() on non-scalar output of shape {self.shape} needs an explicit upstream gradient"
                )
            upstream = np.ones_like(self.data)
        upstream = np.asarray(upstream, dtype=self.data.dtype)
        if upstream.shape != self.data.shape:
            raise ConfigurationError(
                f"upstream gradient shape {upstream.shape} does not match output shape {self.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.accumulate_grad(upstream)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(upstream if node is self else node.grad)
                if node is not self:
                    node.grad, node._parents, node._backward = None, (), _released

    # -- minimal arithmetic used by model composition -------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("Tensor addition expects another Tensor")
        if self.shape != other.shape:
            raise ConfigurationError(f"add: shape mismatch {self.shape} vs {other.shape}")
        return op_result(self.data + other.data, (self, lambda g: g), (other, lambda g: g))


def _released(g: Array) -> None:
    raise TapeError("backward reached a tape node that an earlier backward released; run the forward again")


def parameter(data) -> Tensor:
    """A leaf tensor that wants gradients (model weights)."""
    return Tensor(data, requires_grad=True)


@contextmanager
def no_tape() -> Iterator[None]:
    """Run ops without recording a tape: every result is a leaf that keeps no inputs alive."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def op_result(data, *grads: tuple[Tensor, Callable[[Array], Array]]) -> Tensor:
    """An op's output ``data`` together with the gradient rule of each input.

    Each of ``grads`` is an ``(input, fn)`` pair: ``fn`` maps the output's
    gradient to that input's gradient, in the input's shape. While the tape
    records and some input needs it, the output is linked to its inputs and
    gets one backward closure that calls ``fn`` only for the inputs that need
    the tape and adds each result into that input's ``.grad``. Otherwise the
    output is a leaf that keeps nothing alive.

    ``fn`` returns ``g``, a view of ``g``, a read-only view, or an array that
    nothing else holds. Only the last, when it has the input's shape and
    dtype, becomes a first ``.grad`` as is; every other result is copied.
    """
    # an input needs the tape when it wants gradients or was itself recorded
    taped = [(t, fn) for t, fn in grads if t.requires_grad or t._parents] if _recording else []
    if not taped:
        return Tensor(data)

    def backward(g: Array) -> None:
        for t, fn in taped:
            r = fn(g)
            t.accumulate_grad(r, r.flags.writeable and r.shape == t.shape and r.dtype == t.dtype
                              and not np.may_share_memory(r, g))  # neither g nor a view of it

    return Tensor(data, parents=(t for t, _ in grads), backward=backward)
