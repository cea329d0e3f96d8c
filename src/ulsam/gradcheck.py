"""Central finite-difference verification of every analytic backward pass.

Each check builds small random inputs, projects the op's output onto a fixed
random direction to get a scalar, and compares the tape's gradients against
central differences (eps = 1e-5, float64). The error metric is
``|analytic - numeric| / max(|analytic|, |numeric|, 1)`` so near-zero
gradients are judged absolutely.

Inputs are resampled away from non-differentiable points: entries within 1e-3
of a ReLU/ReLU6 kink are shifted, and max-pool inputs are redrawn until every
3x3 window has a clear (> 1e-3) maximum.
"""

from __future__ import annotations

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
    detail: str
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
        win = sliding_window_view(ops._pad_spatial(x, 1, -np.inf), (3, 3), axis=(2, 3)).reshape(b, c, h, w, 9)
        srt = np.sort(win, axis=-1)
        margin = srt[..., -1] - srt[..., -2]
        if np.all((margin > GAP) | ~np.isfinite(srt[..., -2])):
            return x
    raise RuntimeError("could not sample tie-free pooling input")


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def _conv_checks(rng) -> list[tuple[str, Callable[[], float]]]:
    def standard(shape, n, k, stride, pad, bias):
        arrays = [rng.standard_normal(shape), rng.standard_normal((n, shape[1], k, k))]
        if bias:
            arrays.append(rng.standard_normal(n))
        return lambda: check_fn(lambda xt, wt, *bt: ops.conv2d_standard(xt, wt, stride, pad, *bt), arrays, rng)

    def depthwise(shape, k, stride, pad):
        arrays = [rng.standard_normal(shape), rng.standard_normal((shape[1], k, k))]
        return lambda: check_fn(lambda xt, wt: ops.depthwise_conv(xt, wt, stride, pad), arrays, rng)

    def pointwise(shape, n):
        arrays = [rng.standard_normal(shape), rng.standard_normal((n, shape[1], 1, 1))]
        return lambda: check_fn(ops.pointwise_conv, arrays, rng)

    def grouped(shape, g):
        arrays = [rng.standard_normal(shape), rng.standard_normal(shape[1])]
        return lambda: check_fn(lambda xt, wt: ops.grouped_pointwise(xt, wt, g), arrays, rng)

    return [
        ("conv2d_standard 1x3x5x5 k3", standard((1, 3, 5, 5), 2, 3, 1, 0, False)),
        ("conv2d_standard 2x3x6x6 k3 s2 p1 bias", standard((2, 3, 6, 6), 4, 3, 2, 1, True)),
        ("conv2d_standard 1x2x4x4 k1", standard((1, 2, 4, 4), 3, 1, 1, 0, False)),
        ("depthwise_conv 1x2x5x5 k3 p1", depthwise((1, 2, 5, 5), 3, 1, 1)),
        ("depthwise_conv 2x3x6x6 k3 s2 p1", depthwise((2, 3, 6, 6), 3, 2, 1)),
        ("depthwise_conv 1x4x3x3 k1", depthwise((1, 4, 3, 3), 1, 1, 0)),
        ("pointwise_conv 1x3x4x4 n2", pointwise((1, 3, 4, 4), 2)),
        ("pointwise_conv 2x4x3x3 n4", pointwise((2, 4, 3, 3), 4)),
        ("pointwise_conv 1x1x5x5 n1", pointwise((1, 1, 5, 5), 1)),
        ("grouped_pointwise 2x4x3x3 g1", grouped((2, 4, 3, 3), 1)),
        ("grouped_pointwise 2x4x3x3 g2", grouped((2, 4, 3, 3), 2)),
        ("grouped_pointwise 1x4x2x3 g4", grouped((1, 4, 2, 3), 4)),
    ]


def _misc_checks(rng) -> list[tuple[str, Callable[[], float]]]:
    def maxpool(shape):
        arrays = [well_separated_windows(rng, shape)]
        return lambda: check_fn(lambda x: ops.maxpool_3x3_p1(x), arrays, rng)

    def softmax(shape):
        return lambda: check_fn(lambda x: ops.spatial_softmax(x), [rng.standard_normal(shape)], rng)

    def mul_add(fshape, maps=1):
        ashape = (fshape[0], maps, fshape[2], fshape[3])
        arrays = [rng.standard_normal(fshape), rng.standard_normal(ashape)]
        return lambda: check_fn(lambda f, a: ops.broadcast_mul_add(f, a), arrays, rng)

    def concat_split(shape):
        def fn(x):
            half = x.shape[1] // 2
            parts = [ops.channel_slice(x, 0, half), ops.channel_slice(x, half, x.shape[1])]
            return ops.channel_concat([ops.maxpool_3x3_p1(parts[0]), parts[1]])
        return lambda: check_fn(fn, [well_separated_windows(rng, shape)], rng)

    def gap(shape):
        return lambda: check_fn(lambda x: ops.global_avg_pool(x), [rng.standard_normal(shape)], rng)

    def fc(b, f, o):
        arrays = [rng.standard_normal((b, f, 1, 1)), rng.standard_normal((f, o)), rng.standard_normal(o)]
        return lambda: check_fn(lambda x, w, bb: ops.fully_connected(x, w, bb), arrays, rng)

    def act(name, fn, kinks, shape):
        def run():
            arrays = [away_from_kinks(rng, shape, kinks)]
            return check_fn(lambda x: fn(x), arrays, rng)
        return (name, run)

    def bn(shape):
        c = shape[1]
        arrays = [rng.standard_normal(shape), rng.standard_normal(c) + 1.5, rng.standard_normal(c)]

        def fn(x, g, b):
            return ops.batch_norm(x, g, b, np.zeros(c), np.ones(c), train=True)

        return lambda: check_fn(fn, arrays, rng)

    def bn_infer(shape):
        c = shape[1]
        mean = rng.standard_normal(c)
        var = np.abs(rng.standard_normal(c)) + 0.5
        arrays = [rng.standard_normal(shape), rng.standard_normal(c) + 1.5, rng.standard_normal(c)]

        def fn(x, g, b):
            return ops.batch_norm(x, g, b, mean.copy(), var.copy(), train=False)

        return lambda: check_fn(fn, arrays, rng)

    return [
        ("maxpool_3x3_p1 1x1x4x4", maxpool((1, 1, 4, 4))),
        ("maxpool_3x3_p1 2x3x5x5", maxpool((2, 3, 5, 5))),
        ("maxpool_3x3_p1 1x2x1x1", maxpool((1, 2, 1, 1))),
        ("spatial_softmax 1x1x3x3", softmax((1, 1, 3, 3))),
        ("spatial_softmax 3x1x2x5", softmax((3, 1, 2, 5))),
        ("spatial_softmax 2x1x1x4", softmax((2, 1, 1, 4))),
        ("spatial_softmax 2x3x2x3 3 maps", softmax((2, 3, 2, 3))),
        ("broadcast_mul_add 1x3x4x4", mul_add((1, 3, 4, 4))),
        ("broadcast_mul_add 2x2x3x5", mul_add((2, 2, 3, 5))),
        ("broadcast_mul_add 1x1x2x2", mul_add((1, 1, 2, 2))),
        ("broadcast_mul_add 2x4x3x3 2 maps", mul_add((2, 4, 3, 3), maps=2)),
        ("split+concat 2x4x4x4", concat_split((2, 4, 4, 4))),
        ("split+concat 1x2x3x3", concat_split((1, 2, 3, 3))),
        ("split+concat 1x6x2x5", concat_split((1, 6, 2, 5))),
        ("global_avg_pool 2x3x4x4", gap((2, 3, 4, 4))),
        ("global_avg_pool 1x5x2x3", gap((1, 5, 2, 3))),
        ("global_avg_pool 3x1x1x1", gap((3, 1, 1, 1))),
        ("fully_connected 2x6x1x1->3", fc(2, 6, 3)),
        ("fully_connected 1x4x1x1->5", fc(1, 4, 5)),
        ("fully_connected 3x2x1x1->2", fc(3, 2, 2)),
        act("relu 2x3x4x4", ops.relu, (0.0,), (2, 3, 4, 4)),
        act("relu 1x1x2x6", ops.relu, (0.0,), (1, 1, 2, 6)),
        act("relu 3x2x1x1", ops.relu, (0.0,), (3, 2, 1, 1)),
        act("relu6 2x3x4x4", ops.relu6, (0.0, 6.0), (2, 3, 4, 4)),
        act("relu6 1x4x3x2", ops.relu6, (0.0, 6.0), (1, 4, 3, 2)),
        act("relu6 2x1x5x1", ops.relu6, (0.0, 6.0), (2, 1, 5, 1)),
        ("batch_norm train 2x3x4x4", bn((2, 3, 4, 4))),
        ("batch_norm train 4x2x3x3", bn((4, 2, 3, 3))),
        ("batch_norm train 3x5x2x2", bn((3, 5, 2, 2))),
        ("batch_norm infer 2x3x4x4", bn_infer((2, 3, 4, 4))),
    ]


def _block_checks(rng) -> list[tuple[str, Callable[[], float]]]:
    def ulsam(m, g, hw):
        cfg = attention.UlsamConfig(m, g)
        arrays = [
            well_separated_windows(rng, (2, m, hw, hw)),
            rng.standard_normal(m),
            rng.standard_normal(m),
        ]

        def fn(x, dw, pw):
            return attention.ulsam_forward(x, cfg, attention.UlsamWeights(dw, pw))

        return lambda: check_fn(fn, arrays, rng)

    def ce(b, c):
        labels = rng.integers(0, c, size=b)
        arrays = [rng.standard_normal((b, c))]
        return lambda: check_fn(lambda z: training.cross_entropy(z, labels), arrays, rng)

    return [
        ("ulsam m4 g2 3x3", ulsam(4, 2, 3)),
        ("ulsam m6 g3 4x4", ulsam(6, 3, 4)),
        ("ulsam m4 g4 2x2", ulsam(4, 4, 2)),
        ("cross_entropy 4x3", ce(4, 3)),
        ("cross_entropy 2x5", ce(2, 5)),
        ("cross_entropy 6x2", ce(6, 2)),
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
    """Run every per-op check plus the end-to-end composition; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for name, run in _conv_checks(rng) + _misc_checks(rng) + _block_checks(rng):
        err = run()
        results.append(CheckResult(name=name, detail="per-op", max_error=err, tolerance=PER_OP_TOL))
    e2e = model_end_to_end(seed)
    results.append(CheckResult(name="tiny model + attention end-to-end", detail="composition",
                               max_error=e2e, tolerance=END_TO_END_TOL))
    return results
