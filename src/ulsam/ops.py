"""Convolution, pooling, activation, and normalization kernels.

Every op is a pure function: it validates shapes, computes the forward result
from ``Tensor.data``, and attaches an analytic backward closure to the output.
Kernels are deterministic (fixed reduction order, no RNG) and never mutate
their inputs; batch-norm running statistics are the one piece of state, held
in plain arrays owned by the caller and updated only in training mode.

Layout convention: rank-4 activations ``(batch, channels, height, width)``.
Convolution is cross-correlation (no kernel flip). Max-pool padding uses -inf
so padded cells never win, and gradient on ties goes to the first maximum in
row-major window order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import instrument
from .errors import ConfigurationError
from .tensor import Array, Tensor, needs_tape, op_result

CONV_STANDARD = "standard"
CONV_DEPTHWISE = "depthwise"
CONV_POINTWISE = "pointwise"

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def _require_rank4(x: Tensor, who: str) -> None:
    if x.ndim != 4:
        raise ConfigurationError(f"{who}: expected rank-4 (batch, channels, height, width), got shape {x.shape}")


def _out_extent(h: int, pad: int, k: int, stride: int, who: str) -> int:
    span = h + 2 * pad - k
    if span < 0:
        raise ConfigurationError(f"{who}: kernel {k} does not fit padded extent {h + 2 * pad}")
    return span // stride + 1


def _windows(xp: Array, k: int, stride: int, h_out: int, w_out: int) -> Array:
    """Strided (b, c, h_out, w_out, k, k) view over a padded array."""
    b, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    return as_strided(
        xp,
        shape=(b, c, h_out, w_out, k, k),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )


def _pad_spatial(x: Array, pad: int, value: float = 0.0) -> Array:
    if pad == 0:
        return np.ascontiguousarray(x)
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _check_conv(who: str, x: Tensor, weights: Tensor, expect: tuple, stride: int = 1, padding: int = 0,
                bias: Optional[Tensor] = None) -> None:
    """``expect`` is the weight shape that fits ``x``; its first extent is the output channel count."""
    if weights.shape != expect:
        raise ConfigurationError(
            f"{who}: weights shape {weights.shape} does not match the {x.shape[1]} input channels, expected {expect}"
        )
    if stride < 1 or padding < 0:
        raise ConfigurationError(f"{who}: stride must be >= 1 and padding >= 0, got stride={stride} padding={padding}")
    if bias is not None and bias.shape != expect[:1]:
        raise ConfigurationError(f"{who}: bias shape {bias.shape}, expected {expect[:1]}")


def conv2d_standard(x: Tensor, weights: Tensor, stride: int = 1, padding: int = 0,
                    bias: Optional[Tensor] = None) -> Tensor:
    """Dense cross-correlation over all input channels; ``weights`` is ``(n, m, k, k)``."""
    _require_rank4(x, "conv2d_standard")
    b, m, h, w = x.shape
    expect = weights.shape[:1] + (m,) + weights.shape[-1:] * 2  # (n, m, k, k)
    _check_conv("conv2d_standard", x, weights, expect, stride, padding, bias)
    n, _, k, _ = weights.shape
    h_out = _out_extent(h, padding, k, stride, "conv2d_standard")
    w_out = _out_extent(w, padding, k, stride, "conv2d_standard")

    xp = _pad_spatial(x.data, padding)
    win = _windows(xp, k, stride, h_out, w_out)
    # (b*hw, m*k*k) @ (m*k*k, n): one GEMM per forward
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(b * h_out * w_out, m * k * k)
    w_mat = weights.data.reshape(n, m * k * k)
    out = cols @ w_mat.T
    instrument.tally(CONV_STANDARD, b * n * h_out * w_out * m * k * k)
    if bias is not None:
        out = out + bias.data[None, :]
    out = out.reshape(b, h_out, w_out, n).transpose(0, 3, 1, 2)

    inputs = (x, weights) + ((bias,) if bias is not None else ())

    def _bwd(g: Array, x=x, weights=weights, bias=bias, cols=cols, st=stride, pd=padding,
             geom=(h_out, w_out)) -> None:
        bb, mm, hh, ww = x.shape
        nn, _, kk, _ = weights.shape
        ho, wo = geom
        g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bb * ho * wo, nn)
        if needs_tape(weights):
            dw = (g_mat.T @ cols).reshape(nn, mm, kk, kk)
            weights.accumulate_grad(dw)
        if bias is not None and needs_tape(bias):
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if needs_tape(x):
            dxp = np.zeros((bb, mm, hh + 2 * pd, ww + 2 * pd), dtype=g.dtype)
            wdat = weights.data
            for i in range(kk):
                for j in range(kk):
                    # (b,n,ho,wo) x (n,m) -> (b,ho,wo,m)
                    contrib = np.tensordot(g, wdat[:, :, i, j], axes=([1], [0]))
                    dxp[:, :, i : i + st * ho : st, j : j + st * wo : st] += contrib.transpose(0, 3, 1, 2)
            x.accumulate_grad(dxp[:, :, pd : pd + hh, pd : pd + ww] if pd else dxp)

    return op_result(np.ascontiguousarray(out), inputs, _bwd, "conv2d")


def depthwise_conv(x: Tensor, weights: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel cross-correlation, ``weights`` ``(m, k, k)``: output channel c depends only on input channel c."""
    _require_rank4(x, "depthwise_conv")
    b, m, h, w = x.shape
    _check_conv("depthwise_conv", x, weights, (m,) + weights.shape[-1:] * 2, stride, padding)
    k = weights.shape[-1]
    h_out = _out_extent(h, padding, k, stride, "depthwise_conv")
    w_out = _out_extent(w, padding, k, stride, "depthwise_conv")

    xp = _pad_spatial(x.data, padding)
    win = _windows(xp, k, stride, h_out, w_out)
    out = np.einsum("bchwij,cij->bchw", win, weights.data, optimize=True)
    instrument.tally(CONV_DEPTHWISE, b * m * h_out * w_out * k * k)

    def _bwd(g: Array, x=x, weights=weights, xp=xp, st=stride, pd=padding, geom=(h_out, w_out)) -> None:
        bb, mm, hh, ww = x.shape
        kk = weights.shape[-1]
        ho, wo = geom
        if needs_tape(weights):
            win_b = _windows(xp, kk, st, ho, wo)
            dw = np.einsum("bchwij,bchw->cij", win_b, g, optimize=True)
            weights.accumulate_grad(dw)
        if needs_tape(x):
            dxp = np.zeros((bb, mm, hh + 2 * pd, ww + 2 * pd), dtype=g.dtype)
            wdat = weights.data
            for i in range(kk):
                for j in range(kk):
                    dxp[:, :, i : i + st * ho : st, j : j + st * wo : st] += g * wdat[None, :, i, j, None, None]
            x.accumulate_grad(dxp[:, :, pd : pd + hh, pd : pd + ww] if pd else dxp)

    return op_result(np.ascontiguousarray(out), (x, weights), _bwd, "depthwise_conv")


def pointwise_conv(x: Tensor, weights: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """1x1 convolution, ``weights`` ``(n, m, 1, 1)``: a linear mix across channels at each spatial position."""
    _require_rank4(x, "pointwise_conv")
    b, m, h, w = x.shape
    _check_conv("pointwise_conv", x, weights, weights.shape[:1] + (m, 1, 1), bias=bias)
    n = weights.shape[0]
    w2d = weights.data.reshape(n, m)
    out = np.matmul(w2d, x.data.reshape(b, m, h * w)).reshape(b, n, h, w)
    instrument.tally(CONV_POINTWISE, b * m * n * h * w)
    if bias is not None:
        out = out + bias.data[None, :, None, None]

    inputs = (x, weights) + ((bias,) if bias is not None else ())

    def _bwd(g: Array, x=x, weights=weights, bias=bias) -> None:
        bb, mm, hh, ww = x.shape
        nn = weights.shape[0]
        g_flat = g.reshape(bb, nn, hh * ww)
        if needs_tape(weights):
            x_flat = x.data.reshape(bb, mm, hh * ww)
            dw = np.einsum("bnl,bml->nm", g_flat, x_flat, optimize=True)
            weights.accumulate_grad(dw.reshape(nn, mm, 1, 1))
        if bias is not None and needs_tape(bias):
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if needs_tape(x):
            w2d_b = weights.data.reshape(nn, mm)
            dx = np.matmul(w2d_b.T, g_flat).reshape(bb, mm, hh, ww)
            x.accumulate_grad(dx)

    return op_result(out, inputs, _bwd, "pointwise_conv")


def grouped_pointwise(x: Tensor, weights: Tensor, groups: int) -> Tensor:
    """One 1x1 filter per contiguous channel group: ``(b, m, h, w) -> (b, g, h, w)``.

    ``weights`` is a length-m vector: filter k is its slice ``[k*G, (k+1)*G)``,
    G = m / g, applied to the same channels of ``x``. No bias. Counts as
    ``b*m*h*w`` pointwise MACs, one per input element.
    """
    _require_rank4(x, "grouped_pointwise")
    b, m, h, w = x.shape
    if groups < 1 or m % groups != 0:
        raise ConfigurationError(f"grouped_pointwise: {groups} groups do not divide {m} channels evenly")
    if weights.shape != (m,):
        raise ConfigurationError(f"grouped_pointwise: weights shape {weights.shape}, expected ({m},)")
    grouped = (b, groups, m // groups, h * w)
    out = np.einsum("bkcl,kc->bkl", x.data.reshape(grouped), weights.data.reshape(grouped[1:3]))
    instrument.tally(CONV_POINTWISE, b * m * h * w)

    def _bwd(g: Array, x=x, weights=weights, grouped=grouped) -> None:
        bb, gg, width, hw = grouped
        g_maps = g.reshape(bb, gg, 1, hw)
        if needs_tape(weights):
            dw = np.einsum("bkl,bkcl->kc", g_maps[:, :, 0], x.data.reshape(grouped))
            weights.accumulate_grad(dw.reshape(-1))
        if needs_tape(x):
            x.accumulate_grad((g_maps * weights.data.reshape(1, gg, width, 1)).reshape(x.shape))

    return op_result(out.reshape(b, groups, h, w), (x, weights), _bwd, "grouped_pointwise")


# ---------------------------------------------------------------------------
# pooling / softmax / redistribution
# ---------------------------------------------------------------------------


def maxpool_3x3_p1(x: Tensor) -> Tensor:
    """3x3 max pool, padding 1, stride 1: spatial shape is preserved.

    Padding is -inf so padded cells never win; ties route the gradient to the
    first maximum in row-major window order.

    The forward is separable: a 3-wide row max over the padded input, then a
    3-tall column max over that, each two ``np.maximum`` calls on shifted
    slices. The backward walks the 9 window offsets in row-major order and
    lets each window claim the first offset whose input equals its maximum;
    an all -inf window claims its top-left cell, a window with a NaN its
    first NaN. It then adds the offsets' claimed gradients in reverse order,
    so each input cell receives its windows' gradients in row-major window
    order: the sums are bitwise those of a scatter-add over the windows.
    """
    _require_rank4(x, "maxpool_3x3_p1")
    b, c, h, w = x.shape
    if h < 1 or w < 1:
        raise ConfigurationError("maxpool_3x3_p1: spatial extents must be >= 1")
    xp = _pad_spatial(x.data, 1, value=-np.inf)
    # np.maximum returns its second operand on ties (+0.0 against -0.0), so
    # earlier cells come second and the first maximum in row-major order wins
    rows = np.maximum(np.maximum(xp[..., 2:], xp[..., 1 : w + 1]), xp[..., :w])
    out = np.maximum(np.maximum(rows[:, :, 2:], rows[:, :, 1 : h + 1]), rows[:, :, :h])

    def _bwd(g: Array, x=x, xp=xp, out=out) -> None:
        if not needs_tape(x):
            return
        hh, ww = out.shape[2:]
        offsets = [(i, j) for i in range(3) for j in range(3)]
        free = np.ones(out.shape, dtype=bool)
        hits = np.empty((9,) + out.shape, dtype=bool)
        for hit, (i, j) in zip(hits, offsets):
            np.equal(xp[:, :, i : i + hh, j : j + ww], out, out=hit)
            hit &= free
            free ^= hit
        if free.any():  # a NaN maximum equals nothing, so NaN windows are still free
            for hit, (i, j) in zip(hits, offsets):
                nan = np.isnan(xp[:, :, i : i + hh, j : j + ww]) & free
                hit |= nan
                free ^= nan
        dxp = np.zeros(xp.shape, dtype=g.dtype)
        part = np.empty(out.shape, dtype=g.dtype)
        for hit, (i, j) in zip(hits[::-1], offsets[::-1]):
            np.multiply(g, hit, out=part)
            dxp[:, :, i : i + hh, j : j + ww] += part
        x.accumulate_grad(dxp[:, :, 1 : 1 + hh, 1 : 1 + ww])

    return op_result(out, (x,), _bwd, "maxpool_3x3_p1")


def spatial_softmax(x: Tensor) -> Tensor:
    """Softmax over the h*w positions of each (item, channel) map.

    Max-subtracted for stability; outputs are in (0,1) and each map sums to 1.
    """
    _require_rank4(x, "spatial_softmax")
    b, c, h, w = x.shape
    z = x.data.reshape(b, c, h * w)
    z = z - z.max(axis=2, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=2, keepdims=True)

    def _bwd(g: Array, x=x, s=s) -> None:
        if not needs_tape(x):
            return
        gf = g.reshape(s.shape)
        dot = (gf * s).sum(axis=2, keepdims=True)
        x.accumulate_grad((s * (gf - dot)).reshape(x.shape))

    return op_result(s.reshape(x.shape), (x,), _bwd, "spatial_softmax")


def broadcast_mul_add(f: Tensor, a: Tensor) -> Tensor:
    """Feature redistribution ``(a * f) + f``: map k of ``a`` scales channel group k of ``f``.

    ``a`` has g maps, g dividing the m channels of ``f``; group k is the
    contiguous channels ``[k*m/g, (k+1)*m/g)``. With g = 1 the one map scales
    every channel.
    """
    _require_rank4(f, "broadcast_mul_add")
    _require_rank4(a, "broadcast_mul_add")
    b, m, h, w = f.shape
    g = a.shape[1]
    if g < 1 or m % g != 0:
        raise ConfigurationError(f"broadcast_mul_add: {g} maps do not divide {m} channels evenly")
    if a.shape[0] != b or a.shape[2:] != f.shape[2:]:
        raise ConfigurationError(
            f"broadcast_mul_add: spatial/batch extents of map {a.shape} do not match features {f.shape}"
        )
    grouped = (b, g, m // g, h, w)
    fg = f.data.reshape(grouped)
    out = (a.data.reshape(b, g, 1, h, w) * fg + fg).reshape(f.shape)

    def _bwd(grad: Array, f=f, a=a, grouped=grouped) -> None:
        bb, gg, _, hh, ww = grouped
        grad = grad.reshape(grouped)
        if needs_tape(f):
            f.accumulate_grad((grad * (a.data.reshape(bb, gg, 1, hh, ww) + 1.0)).reshape(f.shape))
        if needs_tape(a):
            a.accumulate_grad((grad * f.data.reshape(grouped)).sum(axis=2))

    return op_result(out, (f, a), _bwd, "broadcast_mul_add")


def channel_concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel extent, in argument order."""
    if not parts:
        raise ConfigurationError("channel_concat: need at least one part")
    for p in parts:
        _require_rank4(p, "channel_concat")
    ref = parts[0].shape
    for p in parts[1:]:
        if p.shape[0] != ref[0] or p.shape[2:] != ref[2:]:
            raise ConfigurationError(f"channel_concat: part shape {p.shape} incompatible with {ref}")
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def _bwd(g: Array, parts=tuple(parts), offsets=offsets) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if needs_tape(p):
                p.accumulate_grad(g[:, lo:hi])

    return op_result(out, tuple(parts), _bwd, "channel_concat")


def channel_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous channel slice ``[start, stop)`` with gradient routing."""
    _require_rank4(x, "channel_slice")
    if not (0 <= start < stop <= x.shape[1]):
        raise ConfigurationError(f"channel_slice: [{start}, {stop}) out of range for {x.shape[1]} channels")
    out = x.data[:, start:stop].copy()

    def _bwd(g: Array, x=x, start=start, stop=stop) -> None:
        if not needs_tape(x):
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[:, start:stop] += g

    return op_result(out, (x,), _bwd, "channel_slice")


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` of a rank-1 tensor with gradient routing."""
    if x.ndim != 1:
        raise ConfigurationError(f"slice1d: expected rank-1 tensor, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[0]):
        raise ConfigurationError(f"slice1d: [{start}, {stop}) out of range for length {x.shape[0]}")

    def _bwd(g: Array, x=x, start=start, stop=stop) -> None:
        if not needs_tape(x):
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:stop] += g

    return op_result(x.data[start:stop].copy(), (x,), _bwd, "slice1d")


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """Reshape with gradient routing; element count must be preserved."""
    out = x.data.reshape(shape)

    def _bwd(g: Array, x=x) -> None:
        if needs_tape(x):
            x.accumulate_grad(g.reshape(x.shape))

    return op_result(out.copy(), (x,), _bwd, "reshape")


# ---------------------------------------------------------------------------
# auxiliary ops
# ---------------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extents; output (b, c, 1, 1)."""
    _require_rank4(x, "global_avg_pool")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def _bwd(g: Array, x=x, hw=h * w) -> None:
        if needs_tape(x):
            x.accumulate_grad(np.broadcast_to(g / hw, x.shape).copy())

    return op_result(out, (x,), _bwd, "global_avg_pool")


def fully_connected(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W + b``; accepts (b, f) or (b, f, 1, 1) inputs, W is (f, out)."""
    if x.ndim == 4:
        b = x.shape[0]
        feat = x.shape[1] * x.shape[2] * x.shape[3]
    elif x.ndim == 2:
        b, feat = x.shape
    else:
        raise ConfigurationError(f"fully_connected: expected rank 2 or 4 input, got shape {x.shape}")
    if weight.ndim != 2 or weight.shape[0] != feat:
        raise ConfigurationError(f"fully_connected: weight shape {weight.shape} incompatible with {feat} features")
    out_features = weight.shape[1]
    if bias is not None and bias.shape != (out_features,):
        raise ConfigurationError(f"fully_connected: bias shape {bias.shape}, expected ({out_features},)")

    x2d = x.data.reshape(b, feat)
    out = x2d @ weight.data
    instrument.tally("fc", b * feat * out_features)
    if bias is not None:
        out = out + bias.data[None, :]

    inputs = (x, weight) + ((bias,) if bias is not None else ())

    def _bwd(g: Array, x=x, weight=weight, bias=bias, b=b, feat=feat) -> None:
        x2d_b = x.data.reshape(b, feat)
        if needs_tape(weight):
            weight.accumulate_grad(x2d_b.T @ g)
        if bias is not None and needs_tape(bias):
            bias.accumulate_grad(g.sum(axis=0))
        if needs_tape(x):
            x.accumulate_grad((g @ weight.data.T).reshape(x.shape))

    return op_result(out, inputs, _bwd, "fully_connected")


def _elementwise(x: Tensor, out_data: Array, local_grad: Array, name: str) -> Tensor:

    def _bwd(g: Array, x=x, local_grad=local_grad) -> None:
        if needs_tape(x):
            x.accumulate_grad(g * local_grad)

    return op_result(out_data, (x,), _bwd, name)


def relu(x: Tensor) -> Tensor:
    return _elementwise(x, np.maximum(x.data, 0.0), (x.data > 0).astype(x.dtype), "relu")


def relu6(x: Tensor) -> Tensor:
    out = np.minimum(np.maximum(x.data, 0.0), 6.0)
    mask = ((x.data > 0) & (x.data < 6)).astype(x.dtype)
    return _elementwise(x, out, mask, "relu6")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Array, running_var: Array,
               train: bool) -> Tensor:
    """Per-channel batch normalization over (batch, height, width).

    Training mode uses biased batch statistics and folds them into the running
    buffers as ``running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch``;
    inference mode normalizes with the running buffers only.
    """
    _require_rank4(x, "batch_norm")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(f"batch_norm: gamma/beta must have shape ({c},)")
    if train:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mean
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mean = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]

    inputs = (x, gamma, beta)

    def _bwd(g: Array, x=x, gamma=gamma, beta=beta, x_hat=x_hat, inv_std=inv_std, train=train) -> None:
        if needs_tape(beta):
            beta.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if needs_tape(gamma):
            gamma.accumulate_grad((g * x_hat).sum(axis=(0, 2, 3)))
        if needs_tape(x):
            scale = gamma.data[None, :, None, None] * inv_std[None, :, None, None]
            if train:
                g_mean = g.mean(axis=(0, 2, 3), keepdims=True)
                gx_mean = (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)
                x.accumulate_grad(scale * (g - g_mean - x_hat * gx_mean))
            else:
                x.accumulate_grad(scale * g)

    return op_result(out, inputs, _bwd, "batch_norm")
