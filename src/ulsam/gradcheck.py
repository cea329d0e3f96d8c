"""Central finite-difference verification of every analytic backward pass.

``ROWS`` is the suite's one table of per-op checks. Each row is ``(name, op,
inputs)``: ``op`` maps Tensors to a Tensor, and each input is either a shape,
drawn from the standard normal, or a sampler called with the row's generator.
Every row draws from its own generator, seeded from the suite seed and the
row's name, so adding or removing a row leaves every other row's draws and
error unchanged.

A check projects the op's output onto a random direction (from the same
generator) to get a scalar, and compares the tape's gradients against central
differences (eps = 1e-5, float64). The error metric is
``|analytic - numeric| / max(|analytic|, |numeric|, 1)`` so near-zero
gradients are judged absolutely.

Samplers keep inputs away from non-differentiable points: entries within 1e-3
of a ReLU/ReLU6 kink are shifted, and max-pool inputs are redrawn until every
3x3 window has a clear (> 1e-3) maximum. The end-to-end row checks a tiny
model with an attention block through the loss, on a parameter subset.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import attention, models, ops, training
from .tensor import Tensor, parameter

EPS = 1e-5
GAP = 1e-3  # minimum distance from a kink, and max-pool window margin
E2E_PARAMS = 24  # parameter entries checked by the end-to-end composition
PER_OP_TOL = 1e-4
END_TO_END_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def numeric_gradient(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central differences of a scalar function with respect to every entry of x.

    ``f`` must read the current contents of ``x``; entries are perturbed in
    place and restored.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        fp = f()
        flat[i] = orig - EPS
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * EPS)
    return g


def check_fn(fn: Callable[..., Tensor], arrays: Sequence[np.ndarray], rng: np.random.Generator) -> float:
    """Max relative error over all inputs of ``fn`` (a Tensor -> Tensor op)."""
    tensors = [parameter(a) for a in arrays]
    out = fn(*tensors)
    direction = rng.standard_normal(out.shape)
    out.backward(direction)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def scalar() -> float:
        res = fn(*[Tensor(a) for a in arrays])
        return float(np.sum(res.data * direction))

    worst = 0.0
    for a, ag in zip(arrays, analytic):
        ng = numeric_gradient(scalar, a)
        worst = max(worst, relative_error(ag, ng))
    return worst


# ---------------------------------------------------------------------------
# input samplers
# ---------------------------------------------------------------------------


def away_from_kinks(rng: np.random.Generator, shape, kinks=(0.0,)) -> np.ndarray:
    x = rng.standard_normal(shape)
    for k in kinks:
        near = np.abs(x - k) < GAP
        x[near] = k + np.sign(x[near] - k + 1e-12) * (GAP * 10)
    return x


def well_separated_windows(rng: np.random.Generator, shape) -> np.ndarray:
    """Random input whose every 3x3 pool window has a unique max with margin > GAP."""
    for _ in range(64):
        x = rng.standard_normal(shape)
        b, c, h, w = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        win = sliding_window_view(xp, (3, 3), axis=(2, 3)).reshape(b, c, h, w, 9)
        srt = np.sort(win, axis=-1)
        margin = srt[..., -1] - srt[..., -2]
        if np.all((margin > GAP) | ~np.isfinite(srt[..., -2])):
            return x
    raise RuntimeError("could not sample tie-free pooling input")


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def _windows(shape):
    return lambda rng: well_separated_windows(rng, shape)


def _kinks(shape, kinks=(0.0,)):
    return lambda rng: away_from_kinks(rng, shape, kinks)


def _gamma(c):
    return lambda rng: rng.standard_normal(c) + 1.5


def _split_concat(x):
    half = x.shape[1] // 2
    parts = [ops.channel_slice(x, 0, half), ops.channel_slice(x, half, x.shape[1])]
    return ops.channel_concat([ops.maxpool_3x3_p1(parts[0]), parts[1]])


def _ulsam(x, dw, pw, g):
    return attention.ulsam_forward(x, attention.UlsamConfig(x.shape[1], g), attention.UlsamWeights(dw, pw))


def _bn_train(x, g, b):
    return ops.batch_norm(x, g, b, np.zeros(x.shape[1]), np.ones(x.shape[1]))


# ops are looked up at call time, so a patched ``ops`` function is the one checked
ROWS: list[tuple[str, Callable[..., Tensor], list]] = [
    ("conv2d_standard 1x3x5x5 k3", lambda x, w: ops.conv2d_standard(x, w, 1, 0), [(1, 3, 5, 5), (2, 3, 3, 3)]),
    ("conv2d_standard 2x3x6x6 k3 s2 p1", lambda x, w: ops.conv2d_standard(x, w, 2, 1), [(2, 3, 6, 6), (4, 3, 3, 3)]),
    ("conv2d_standard 1x2x4x4 k1", lambda x, w: ops.conv2d_standard(x, w, 1, 0), [(1, 2, 4, 4), (3, 2, 1, 1)]),
    ("depthwise_conv 1x2x5x5 k3 p1", lambda x, w: ops.depthwise_conv(x, w, 1, 1), [(1, 2, 5, 5), (2, 3, 3)]),
    ("depthwise_conv 2x3x6x6 k3 s2 p1", lambda x, w: ops.depthwise_conv(x, w, 2, 1), [(2, 3, 6, 6), (3, 3, 3)]),
    ("depthwise_conv 1x4x3x3 k1", lambda x, w: ops.depthwise_conv(x, w, 1, 0), [(1, 4, 3, 3), (4, 1, 1)]),
    ("pointwise_conv 1x3x4x4 n2", lambda x, w: ops.pointwise_conv(x, w), [(1, 3, 4, 4), (2, 3, 1, 1)]),
    ("pointwise_conv 2x4x3x3 n4", lambda x, w: ops.pointwise_conv(x, w), [(2, 4, 3, 3), (4, 4, 1, 1)]),
    ("pointwise_conv 1x1x5x5 n1", lambda x, w: ops.pointwise_conv(x, w), [(1, 1, 5, 5), (1, 1, 1, 1)]),
    ("grouped_pointwise 2x4x3x3 g1", lambda x, w: ops.grouped_pointwise(x, w, 1), [(2, 4, 3, 3), (4,)]),
    ("grouped_pointwise 2x4x3x3 g2", lambda x, w: ops.grouped_pointwise(x, w, 2), [(2, 4, 3, 3), (4,)]),
    ("grouped_pointwise 1x4x2x3 g4", lambda x, w: ops.grouped_pointwise(x, w, 4), [(1, 4, 2, 3), (4,)]),
    ("maxpool_3x3_p1 1x1x4x4", lambda x: ops.maxpool_3x3_p1(x), [_windows((1, 1, 4, 4))]),
    ("maxpool_3x3_p1 2x3x5x5", lambda x: ops.maxpool_3x3_p1(x), [_windows((2, 3, 5, 5))]),
    ("maxpool_3x3_p1 1x2x1x1", lambda x: ops.maxpool_3x3_p1(x), [_windows((1, 2, 1, 1))]),
    ("maxpool_3x3_p1 1x2x2x7", lambda x: ops.maxpool_3x3_p1(x), [_windows((1, 2, 2, 7))]),
    ("maxpool_3x3_p1 1x1x7x2", lambda x: ops.maxpool_3x3_p1(x), [_windows((1, 1, 7, 2))]),
    ("maxpool_3x3_p1 1x1x1x5", lambda x: ops.maxpool_3x3_p1(x), [_windows((1, 1, 1, 5))]),
    ("spatial_softmax 1x1x3x3", lambda x: ops.spatial_softmax(x), [(1, 1, 3, 3)]),
    ("spatial_softmax 3x1x2x5", lambda x: ops.spatial_softmax(x), [(3, 1, 2, 5)]),
    ("spatial_softmax 2x1x1x4", lambda x: ops.spatial_softmax(x), [(2, 1, 1, 4)]),
    ("spatial_softmax 2x3x2x3 3 maps", lambda x: ops.spatial_softmax(x), [(2, 3, 2, 3)]),
    ("broadcast_mul_add 1x3x4x4", lambda f, a: ops.broadcast_mul_add(f, a), [(1, 3, 4, 4), (1, 1, 4, 4)]),
    ("broadcast_mul_add 2x2x3x5", lambda f, a: ops.broadcast_mul_add(f, a), [(2, 2, 3, 5), (2, 1, 3, 5)]),
    ("broadcast_mul_add 1x1x2x2", lambda f, a: ops.broadcast_mul_add(f, a), [(1, 1, 2, 2), (1, 1, 2, 2)]),
    ("broadcast_mul_add 2x4x3x3 2 maps", lambda f, a: ops.broadcast_mul_add(f, a), [(2, 4, 3, 3), (2, 2, 3, 3)]),
    ("split+concat 2x4x4x4", _split_concat, [_windows((2, 4, 4, 4))]),
    ("split+concat 1x2x3x3", _split_concat, [_windows((1, 2, 3, 3))]),
    ("split+concat 1x6x2x5", _split_concat, [_windows((1, 6, 2, 5))]),
    ("global_avg_pool 2x3x4x4", lambda x: ops.global_avg_pool(x), [(2, 3, 4, 4)]),
    ("global_avg_pool 1x5x2x3", lambda x: ops.global_avg_pool(x), [(1, 5, 2, 3)]),
    ("global_avg_pool 3x1x1x1", lambda x: ops.global_avg_pool(x), [(3, 1, 1, 1)]),
    ("fully_connected 2x6x1x1->3", lambda x, w, b: ops.fully_connected(x, w, b), [(2, 6, 1, 1), (6, 3), (3,)]),
    ("fully_connected 1x4x1x1->5", lambda x, w, b: ops.fully_connected(x, w, b), [(1, 4, 1, 1), (4, 5), (5,)]),
    ("fully_connected 3x2x1x1->2", lambda x, w, b: ops.fully_connected(x, w, b), [(3, 2, 1, 1), (2, 2), (2,)]),
    ("relu 2x3x4x4", lambda x: ops.relu(x), [_kinks((2, 3, 4, 4))]),
    ("relu 1x1x2x6", lambda x: ops.relu(x), [_kinks((1, 1, 2, 6))]),
    ("relu 3x2x1x1", lambda x: ops.relu(x), [_kinks((3, 2, 1, 1))]),
    ("relu6 2x3x4x4", lambda x: ops.relu6(x), [_kinks((2, 3, 4, 4), (0.0, 6.0))]),
    ("relu6 1x4x3x2", lambda x: ops.relu6(x), [_kinks((1, 4, 3, 2), (0.0, 6.0))]),
    ("relu6 2x1x5x1", lambda x: ops.relu6(x), [_kinks((2, 1, 5, 1), (0.0, 6.0))]),
    ("batch_norm train 2x3x4x4", _bn_train, [(2, 3, 4, 4), _gamma(3), (3,)]),
    ("batch_norm train 4x2x3x3", _bn_train, [(4, 2, 3, 3), _gamma(2), (2,)]),
    ("batch_norm train 3x5x2x2", _bn_train, [(3, 5, 2, 2), _gamma(5), (5,)]),
    ("ulsam m4 g2 3x3", lambda x, dw, pw: _ulsam(x, dw, pw, 2), [_windows((2, 4, 3, 3)), (4,), (4,)]),
    ("ulsam m6 g3 4x4", lambda x, dw, pw: _ulsam(x, dw, pw, 3), [_windows((2, 6, 4, 4)), (6,), (6,)]),
    ("ulsam m4 g4 2x2", lambda x, dw, pw: _ulsam(x, dw, pw, 4), [_windows((2, 4, 2, 2)), (4,), (4,)]),
    ("cross_entropy 4x3", lambda z: training.cross_entropy(z, np.array([2, 0, 1, 1])), [(4, 3)]),
    ("cross_entropy 2x5", lambda z: training.cross_entropy(z, np.array([3, 1])), [(2, 5)]),
    ("cross_entropy 6x2", lambda z: training.cross_entropy(z, np.array([1, 0, 0, 1, 1, 0])), [(6, 2)]),
    ("add 2x3x4x4", lambda a, b: a + b, [(2, 3, 4, 4), (2, 3, 4, 4)]),
    ("reshape 2x3x1x1->2x3", lambda x: ops.reshape(x, (2, 3)), [(2, 3, 1, 1)]),
]


def model_end_to_end(seed: int = 0) -> float:
    """Finite-difference check of a tiny model through the loss, on a parameter subset."""
    rng = np.random.default_rng(seed)
    graph = models.apply_ulsam(models.build_mv1_tiny(4, width=4, dtype=np.float64, seed=seed), ["5:1"], g=2)
    x = rng.standard_normal((2, 3, 8, 8))
    labels = rng.integers(0, 4, size=2)

    snap = graph.snapshot_buffers()

    def loss_value() -> float:
        graph.restore_buffers(snap)
        logits = models.forward(graph, x, train=True)
        return float(training.cross_entropy(logits, labels).data)

    graph.restore_buffers(snap)
    graph.zero_grads()
    loss = training.cross_entropy(models.forward(graph, x, train=True), labels)
    loss.backward()

    names = sorted(graph.params)
    picks = []
    for name in names:
        t = graph.params[name]
        flat_idx = int(rng.integers(0, t.size))
        picks.append((name, flat_idx))
    rng.shuffle(picks)
    picks = picks[:E2E_PARAMS]

    worst = 0.0
    for name, idx in picks:
        t = graph.params[name]
        # one-entry views: numeric_gradient perturbs the parameter in place
        numeric = numeric_gradient(loss_value, t.data.reshape(-1)[idx : idx + 1])
        analytic = t.grad.reshape(-1)[idx : idx + 1] if t.grad is not None else np.zeros(1)
        worst = max(worst, relative_error(analytic, numeric))
    graph.restore_buffers(snap)
    return worst


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Every row of ``ROWS``, then the end-to-end composition; deterministic per seed."""
    results = []
    for name, op, inputs in ROWS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        arrays = [rng.standard_normal(s) if isinstance(s, tuple) else s(rng) for s in inputs]
        results.append(CheckResult(name, check_fn(op, arrays, rng), PER_OP_TOL))
    results.append(CheckResult("tiny model + attention end-to-end", model_end_to_end(seed), END_TO_END_TOL))
    return results
