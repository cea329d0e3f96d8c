"""Convolution, pooling, activation, and normalization kernels.

Every op is a pure function: it validates shapes, computes the forward result
from ``Tensor.data``, and hands it to :func:`ulsam.tensor.op_result` with one
analytic gradient function per input. Each gradient function reads the
forward's locals and returns that input's gradient; ``op_result`` decides
whether the tape records it and adds the gradients into the inputs.
Kernels are deterministic (fixed reduction order, no RNG) and never mutate
their inputs; batch-norm running statistics are the one piece of state, held
in plain arrays owned by the caller and updated by every ``batch_norm`` call.
``batch_norm`` is a training op: inference folds the running statistics into
each convolution's weights instead (``models._layer_forward``).

A forward allocates little beyond its output, because an inference pass (no
tape) never reads what only a backward needs: ``relu``/``relu6`` build their
masks in the backward from the saved input, and ``depthwise_conv`` runs k
banded GEMMs per channel block of about ``CHANNEL_BLOCK_BYTES`` over one
buffer that holds each padded input row once. ``conv2d_standard`` copies its
im2col columns channel-major in k² strided slices, so one GEMM per item writes
NCHW directly, and its weight gradient copies them again instead of keeping
them. Training batch-norm centres ``x`` once and scales that copy in place
into ``x_hat``; its per-channel sums of squares and of ``g * x_hat`` form no
product array. On glibc, importing the package fixes malloc's mmap and
trim thresholds, so the large arrays one op frees serve the next op from the
heap instead of being mapped and faulted in again.

A backward also costs about what its gradient needs. ``depthwise_conv``'s runs
through the same band: the input gradient is the band on the output gradient,
dilated into that buffer, with the kernel rotated 180 degrees, and the weight
gradient is the band's adjoint, k GEMMs per channel block and a sum over each
band's diagonals. No array the size of the padded input is made. Training
batch-norm's backward takes its two per-channel sums once and builds the input
gradient from them.
``maxpool_3x3_p1`` makes no padded array, and its taped output keeps nothing
else: per channel block of about ``CHANNEL_BLOCK_BYTES`` the backward finds
each window's first-claimed cell as small column and row indices and adds the
output gradient there with one ``np.add.at``, so an inf or NaN in it reaches
only the cell its window claims.

Layout convention: rank-4 activations ``(batch, channels, height, width)``.
Convolution is cross-correlation (no kernel flip). Max-pool padding acts as
-inf so padded cells never win, and gradient on ties goes to the first maximum
in row-major window order.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import instrument
from .errors import ConfigurationError
from .tensor import Array, Tensor, op_result

CONV_STANDARD = "standard"
CONV_DEPTHWISE = "depthwise"
CONV_POINTWISE = "pointwise"
ULSAM = "ulsam"  # both 1x1 stages of the subspace-attention block, which alone runs grouped_pointwise

BN_MOMENTUM = 0.9
BN_EPS = 1e-5

# depthwise_conv's band (forward and backward) computes each output row in tiles of this many
# columns; a tile reads stride * (tile - 1) + k columns of an input row, so its row buffer
# holds the padded input about 1.14x at k=3, stride 1
DEPTHWISE_TILE = 14
# Kernels that work in channel blocks size each block's temporaries to about
# this many bytes, so a block stays in cache from one pass over it to the next:
# depthwise_conv fills its input rows and runs its k GEMMs per block in its
# forward and both gradients, and maxpool_3x3_p1's backward recomputes its row
# maxima and builds and scatters its claim indices per block
CHANNEL_BLOCK_BYTES = 1 << 20


def _require_rank4(x: Tensor, who: str) -> None:
    if x.ndim != 4:
        raise ConfigurationError(f"{who}: expected rank-4 (batch, channels, height, width), got shape {x.shape}")


def _out_extent(h: int, pad: int, k: int, stride: int, who: str) -> int:
    span = h + 2 * pad - k
    if span < 0:
        raise ConfigurationError(f"{who}: kernel {k} does not fit padded extent {h + 2 * pad}")
    return span // stride + 1


def _span(n: int, offset: int, step: int, extent: int) -> tuple[slice, slice]:
    """``(source, target)`` slices placing ``n`` cells, index i at ``offset + step * i``, into ``extent`` cells."""
    first = -(-max(0, -offset) // step)  # the first index placed at or after 0
    start = offset + step * first
    count = max(0, min(n - first, -(-(extent - start) // step)))
    return slice(first, first + count), slice(start, start + step * count, step)


def _place(a: Array, offset: int, height: int, width: int, stride: int = 1) -> Array:
    """``a``'s cell (i, j) at ``(offset + stride * i, offset + stride * j)`` of a zero-filled height x width.

    Cells that land outside, negative offsets included, are dropped; an ``a`` that already fits comes back as
    ``np.ascontiguousarray(a)``, uncopied when it is contiguous.
    """
    if offset == 0 and stride == 1 and a.shape[2:] == (height, width):
        return np.ascontiguousarray(a)
    rows, cols = _span(a.shape[2], offset, stride, height), _span(a.shape[3], offset, stride, width)
    out = np.zeros(a.shape[:2] + (height, width), dtype=a.dtype)
    out[:, :, rows[1], cols[1]] = a[:, :, rows[0], cols[0]]
    return out


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _check_conv(who: str, x: Tensor, weights: Tensor, expect: tuple, stride: int = 1, padding: int = 0) -> None:
    """``expect`` is the weight shape that fits ``x``; its first extent is the output channel count."""
    if weights.shape != expect:
        raise ConfigurationError(
            f"{who}: weights shape {weights.shape} does not match the {x.shape[1]} input channels, expected {expect}"
        )
    if stride < 1 or padding < 0:
        raise ConfigurationError(f"{who}: stride must be >= 1 and padding >= 0, got stride={stride} padding={padding}")


def conv2d_standard(x: Tensor, weights: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Dense cross-correlation over all input channels; ``weights`` is ``(n, m, k, k)``.

    The im2col columns are channel-major, ``(b, m * k * k, h_out * w_out)``:
    row ``(c, i, j)`` of item b holds tap (i, j) of channel c at every output
    position, filled by k² strided slice copies of the padded input. One
    ``np.matmul`` of the ``(n, m * k * k)`` weight matrix with them writes the
    output in NCHW order. The taped output keeps no columns: the weight
    gradient builds them again from ``x`` and adds each item's ``g @ cols^T``
    into one ``(n, m * k * k)`` accumulator, in batch order; the input gradient
    adds each tap's share of the output gradient into a zeroed padded array.
    """
    _require_rank4(x, "conv2d_standard")
    b, m, h, w = x.shape
    expect = weights.shape[:1] + (m,) + weights.shape[-1:] * 2  # (n, m, k, k)
    _check_conv("conv2d_standard", x, weights, expect, stride, padding)
    n, _, k, _ = weights.shape
    h_out = _out_extent(h, padding, k, stride, "conv2d_standard")
    w_out = _out_extent(w, padding, k, stride, "conv2d_standard")

    def im2col(xp: Array) -> Array:
        cols = np.empty((b, m, k, k, h_out, w_out), dtype=xp.dtype)
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
        return cols.reshape(b, m * k * k, h_out * w_out)

    # (n, m*k*k) @ (b, m*k*k, hw): one GEMM per item, straight into NCHW
    xp = _place(x.data, padding, h + 2 * padding, w + 2 * padding)
    out = np.matmul(weights.data.reshape(n, m * k * k), im2col(xp))
    instrument.tally(CONV_STANDARD, b * n * h_out * w_out * m * k * k)

    def dx(g: Array) -> Array:
        dxp = np.zeros((b, m, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        for i in range(k):
            for j in range(k):
                # (b,n,ho,wo) x (n,m) -> (b,ho,wo,m)
                contrib = np.tensordot(g, weights.data[:, :, i, j], axes=([1], [0])).transpose(0, 3, 1, 2)
                dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += contrib
        return _place(dxp, -padding, h, w)

    def dw(g: Array) -> Array:
        # built again from x: the tape keeps no columns
        g, cols = g.reshape(b, n, -1), im2col(_place(x.data, padding, h + 2 * padding, w + 2 * padding))
        acc = g[0] @ cols[0].T
        for i in range(1, b):
            acc += g[i] @ cols[i].T
        return acc.reshape(weights.shape)

    return op_result(out.reshape(b, n, h_out, w_out), (x, dx), (weights, dw))


def _band_layout(k: int, stride: int, h_out: int, w_out: int) -> tuple[int, int, int, int]:
    """``(tile, tiles, span, q)``: the band's tiles of ``w_out``, input columns per tile, and input rows per phase."""
    tile = min(DEPTHWISE_TILE, w_out)
    return tile, -(-w_out // tile), stride * (tile - 1) + k, h_out + (k - 1) // stride


def _block_channels(m: int, channel_bytes: int) -> int:
    """Channels (or planes) per block whose temporaries take about ``CHANNEL_BLOCK_BYTES``, from 1 to ``m``."""
    return min(m, max(1, CHANNEL_BLOCK_BYTES // channel_bytes))


@functools.lru_cache
def _row_fills(h: int, w: int, stride: int, offset: int, dilation: int, phases: int, q: int, tile: int, tiles: int,
               span: int) -> tuple:
    """:func:`_row_blocks`' ``(target, source)`` index pairs, one per (phase, tile) that gets cells; kept per layout."""
    fills = []
    for p in range(phases):
        r0 = (p - offset) % stride  # the first input row in phase p
        phase_rows, rows = _span(len(range(r0, h, stride)), (offset + r0 - p) // stride, dilation, q)
        first, last = r0 + stride * phase_rows.start, r0 + stride * phase_rows.stop
        for t in range(tiles):
            source, cols = _span(w, offset - stride * tile * t, dilation, span)
            if last > first and cols.stop > cols.start:
                fills.append(((slice(None), p, slice(None), rows, t, cols),
                              (slice(None), slice(None), slice(first, last, stride), source)))
    return tuple(fills)


def _row_blocks(a: Array, k: int, stride: int, h_out: int, w_out: int, offset: int, dilation: int, temps: int, dtype):
    """Yield ``(c, taps, scratch)`` per channel block from c: the band's padded input rows of ``a`` ``(b, m, h, w)``.

    ``a`` sits at ``offset`` with ``dilation`` (one of it and ``stride`` is 1) in padding that is never made.
    Buffer ``[c, p, item * q + r, t]`` holds tile t's span columns of padded row ``p + stride * r``; ``taps[i]``
    is the ``(n, b * q * tiles, span)`` view whose row ``item * q + r`` is tap row i of output row r < h_out.
    ``scratch`` is ``temps`` zeroed ``(n, b, q, tiles * tile)`` arrays; a block takes about ``CHANNEL_BLOCK_BYTES``.
    """
    b, m, h, w = a.shape
    tile, tiles, span, q = _band_layout(k, stride, h_out, w_out)
    phases, reach = min(stride, k), (k - 1) // stride
    fills = _row_fills(h, w, stride, offset, dilation, phases, q, tile, tiles, span)
    step = _block_channels(m, b * q * tiles * (phases * span + temps * tile) * a.itemsize)
    buffer = np.zeros((step, phases, b * q + reach, tiles, span), dtype=a.dtype)
    items = buffer[:, :, : b * q].reshape(step, phases, b, q, tiles, span)
    scratch = np.zeros((temps, step, b, q, tiles * tile), dtype=dtype)
    for c in range(0, m, step):
        block, source = items[: m - c], a[:, c : c + step].transpose(1, 0, 2, 3)
        for target, where in fills:
            block[target] = source[where]
        yield c, [buffer[: len(block), i % stride, i // stride : i // stride + b * q].reshape(len(block), -1, span)
                  for i in range(k)], scratch[:, : len(block)]


def _band_correlate(a: Array, kernel: Array, stride: int, h_out: int, w_out: int, offset: int,
                    dilation: int = 1) -> Array:
    """Per-channel cross-correlation of ``a`` ``(b, m, ., .)``, placed by :func:`_row_blocks`, with ``kernel``.

    ``kernel`` is ``(m, k, k)``. Per channel block the first of :func:`depthwise_conv`'s k GEMMs writes an accumulator,
    each later one is added into it from one temporary, and each item's h_out rows go to the output.
    """
    (b, m), k = a.shape[:2], kernel.shape[-1]
    tile, tiles, span, _ = _band_layout(k, stride, h_out, w_out)
    dtype = np.result_type(a, kernel)
    band = np.zeros((m, k, span, tile), dtype=dtype)
    s0, s1, s2, s3 = band.strides
    # band[c, i, stride * n + j, n] for every tap (i, j) and tile column n
    np.ndarray((m, k, k, tile), dtype, buffer=band, strides=(s0, s1, s2, stride * s2 + s3))[...] = kernel[..., None]
    wide = np.empty((b, m, h_out, tiles * tile), dtype=dtype)
    for c, taps, (acc, term) in _row_blocks(a, k, stride, h_out, w_out, offset, dilation, 2, dtype):
        n = len(acc)
        np.matmul(taps[0], band[c : c + n, 0], out=acc.reshape(n, -1, tile))
        for i in range(1, k):
            np.matmul(taps[i], band[c : c + n, i], out=term.reshape(n, -1, tile))
            acc += term
        wide[:, c : c + n] = acc[:, :, :h_out].transpose(1, 0, 2, 3)
    return wide if tiles * tile == w_out else np.ascontiguousarray(wide[..., :w_out])


def depthwise_conv(x: Tensor, weights: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel cross-correlation, ``weights`` ``(m, k, k)``: output channel c depends only on input channel c.

    The forward is a banded GEMM per channel and tap row. Each output row is cut into tiles of T =
    ``DEPTHWISE_TILE`` columns (T = ``w_out`` when the output is narrower); a tile reads span = ``stride * (T - 1)
    + k`` columns of each of its k input rows, and channel c's band for tap row i, ``B_ci`` ``(span, T)`` with
    ``B_ci[stride * n + j, n] = w[c, i, j]``, maps them to its outputs. Per channel block of about
    ``CHANNEL_BLOCK_BYTES``, one buffer holds each padded input row once, the batch inside each channel's rows; tap
    row i of every output row is one view ``A_ci`` of it, and the output sums ``A_ci @ B_ci`` over i. The result
    does not depend on the block size. The band's zeros are multiplied too, so a non-finite input reaches every
    output of the tile rows that read it (k rows by up to T columns), not only its k x k window: outside the window
    they are NaN (``0 * inf``), and NumPy warns of an invalid value in ``matmul``.

    The input gradient is that band at stride 1 over the output gradient, dilated by ``stride`` at offset ``k - 1 -
    padding``, with the kernel rotated 180 degrees. The weight gradient is the band's adjoint: per block and tap
    row, one ``np.matmul`` of the output gradient's tiles ``G_c`` (zero past ``h_out`` rows per item and past
    ``w_out``) against ``A_ci`` gives ``G_c^T A_ci``, and ``dw[c, i, j]`` sums its diagonal ``(n, stride * n + j)``
    over n.

    A non-finite output gradient meets the band's zeros the same way: the input gradient is inf or NaN across the
    tile rows of ``dx`` whose band reads the cell, with NumPy's ``matmul`` warning. The weight gradient of that
    cell's channel is non-finite in every tap, as a per-tap sum would make it (``inf * x`` for each input cell
    under the cell's window, NaN where that cell is zero padding); other channels stay finite.
    """
    _require_rank4(x, "depthwise_conv")
    b, m, h, w = x.shape
    _check_conv("depthwise_conv", x, weights, (m,) + weights.shape[-1:] * 2, stride, padding)
    k = weights.shape[-1]
    h_out = _out_extent(h, padding, k, stride, "depthwise_conv")
    w_out = _out_extent(w, padding, k, stride, "depthwise_conv")
    instrument.tally(CONV_DEPTHWISE, b * m * h_out * w_out * k * k)
    out = _band_correlate(x.data, weights.data, stride, h_out, w_out, padding)

    def dx(g: Array) -> Array:
        # the output gradient, dilated by stride and padded by k - 1 - padding, under the rotated kernel
        return _band_correlate(g, weights.data[:, ::-1, ::-1], 1, h, w, k - 1 - padding, stride)

    def dw(g: Array) -> Array:
        grad = np.empty(weights.shape, dtype=g.dtype)
        tile, _, span, _ = _band_layout(k, stride, h_out, w_out)
        adjoint = np.empty((m, k, tile, span), dtype=np.result_type(x.data, g))  # the transposed B_ci gradients
        for c, taps, (gt,) in _row_blocks(x.data, k, stride, h_out, w_out, padding, 1, 1, g.dtype):
            n = len(gt)
            gt[..., :h_out, :w_out] = g[:, c : c + n].transpose(1, 0, 2, 3)  # zero past h_out rows and w_out columns
            for i in range(k):
                np.matmul(gt.reshape(n, -1, tile).transpose(0, 2, 1), taps[i], out=adjoint[c : c + n, i])
        a0, a1, a2, a3 = adjoint.strides
        # adjoint[c, i, n, stride * n + j] for every tap (i, j) and tile column n
        taps = np.ndarray((m, k, k, tile), adjoint.dtype, buffer=adjoint, strides=(a0, a1, a3, a2 + stride * a3))
        np.sum(taps, axis=-1, out=grad)
        return grad

    return op_result(out, (x, dx), (weights, dw))


def pointwise_conv(x: Tensor, weights: Tensor) -> Tensor:
    """1x1 convolution, ``weights`` ``(n, m, 1, 1)``: a linear mix across channels at each spatial position."""
    _require_rank4(x, "pointwise_conv")
    b, m, h, w = x.shape
    _check_conv("pointwise_conv", x, weights, weights.shape[:1] + (m, 1, 1))
    n = weights.shape[0]
    x_flat = x.data.reshape(b, m, h * w)
    out = np.matmul(weights.data.reshape(n, m), x_flat).reshape(b, n, h, w)
    instrument.tally(CONV_POINTWISE, b * m * n * h * w)

    def dx(g: Array) -> Array:
        return np.matmul(weights.data.reshape(n, m).T, g.reshape(b, n, h * w)).reshape(x.shape)

    def dw(g: Array) -> Array:
        return np.einsum("bnl,bml->nm", g.reshape(b, n, h * w), x_flat, optimize=True).reshape(n, m, 1, 1)

    return op_result(out, (x, dx), (weights, dw))


def grouped_pointwise(x: Tensor, weights: Tensor, groups: int) -> Tensor:
    """One 1x1 filter per contiguous channel group: ``(b, m, h, w) -> (b, g, h, w)``.

    ``weights`` is a length-m vector: filter k is its slice ``[k*G, (k+1)*G)``,
    G = m / g, applied to the same channels of ``x``. No bias. Counts as
    ``b*m*h*w`` MACs of kind ``ulsam``, one per input element: the ULSAM block
    runs both its 1x1 stages through this op and nothing else calls it. With
    g = m each group is one channel and the op is the per-channel scale
    ``x * w``, the block's 1x1 depthwise stage.
    """
    _require_rank4(x, "grouped_pointwise")
    b, m, h, w = x.shape
    if groups < 1 or m % groups != 0:
        raise ConfigurationError(f"grouped_pointwise: {groups} groups do not divide {m} channels evenly")
    if weights.shape != (m,):
        raise ConfigurationError(f"grouped_pointwise: weights shape {weights.shape}, expected ({m},)")
    grouped = (b, groups, m // groups, h * w)
    out = np.einsum("bkcl,kc->bkl", x.data.reshape(grouped), weights.data.reshape(grouped[1:3]))
    instrument.tally(ULSAM, b * m * h * w)

    def dx(g: Array) -> Array:
        return (g.reshape(b, groups, 1, h * w) * weights.data.reshape(1, groups, m // groups, 1)).reshape(x.shape)

    def dw(g: Array) -> Array:
        return np.einsum("bkl,bkcl->kc", g.reshape(b, groups, h * w), x.data.reshape(grouped)).reshape(-1)

    return op_result(out.reshape(b, groups, h, w), (x, dx), (weights, dw))


# ---------------------------------------------------------------------------
# pooling / softmax / redistribution
# ---------------------------------------------------------------------------


def _max3(a: Array, extent: int, shift: int) -> Array:
    """Each cell's max over its 3-cell window in flat ``a``'s lines of ``extent`` cells ``shift`` apart, a new array.

    A line's ends cut their windows, as -inf padding would. Every window is ``np.maximum(np.maximum(hi, mid), lo)``:
    np.maximum returns its second operand on ties (+0.0 against -0.0), so the first maximum in window order wins.
    """
    if extent == 1:
        return a.copy()
    out = np.empty_like(a)
    if extent > 2:  # all but the array's two ends, and wrongly at each line's ends until below
        np.maximum(a[2 * shift :], a[shift:-shift], out=out[shift:-shift])
        np.maximum(out[shift:-shift], a[: -2 * shift], out=out[shift:-shift])
    lines, ends = a.reshape(-1, extent, shift), out.reshape(-1, extent, shift)
    np.maximum(lines[:, 1], lines[:, 0], out=ends[:, 0])
    np.maximum(lines[:, -1], lines[:, -2], out=ends[:, -1])
    return out


def _first_claims(a: Array, top: Array, extent: int, shift: int, nan: bool) -> tuple[Array, Array]:
    """Where the first of candidates ``a[k - shift], a[k], a[k + shift]`` (:func:`_max3`'s window) claims ``top[k]``,
    and where one of the first two does. A candidate claims when it equals ``top``, or is NaN with ``nan`` set (``top``
    is NaN exactly when one of its three is); the padding before a line's first cell never claims."""
    first = np.empty(top.shape, dtype=bool)
    np.equal(a[:-shift], top[shift:], out=first[shift:])
    first_two = a == top
    if nan:
        isnan = np.isnan(a)
        first[shift:] |= isnan[:-shift]
        first_two |= isnan
    first.reshape(-1, extent, shift)[:, 0] = False
    return first, first_two | first


def maxpool_3x3_p1(x: Tensor) -> Tensor:
    """3x3 max pool, padding 1, stride 1: spatial shape is preserved.

    Padding acts as -inf, so padded cells never win, but no padded array is
    made; ties route the gradient to the first maximum in row-major window
    order. The forward is a 3-wide row max over the input's planes, flat,
    then a 3-tall column max over that (:func:`_max3`).

    The backward keeps nothing but the input and output. Per block of planes
    whose temporaries take about ``CHANNEL_BLOCK_BYTES`` it recomputes the row
    maxima, takes for every row window the first of its 3 cells that equals
    the row max, then for every window the first of its 3 rows whose row max
    equals the window max (for a NaN maximum, the first NaN). Both are small
    unsigned integers, combined into a flat index of the claimed cell; an all
    -inf window claims its top-left cell, or a dump slot past the block when
    that cell is padding. One ``np.add.at`` adds the output gradient into the
    claimed cells in row-major window order, as a scatter-add over the windows
    does, so the sums are bitwise that scatter's, and a non-finite output
    gradient reaches only the cell its window claims.
    """
    _require_rank4(x, "maxpool_3x3_p1")
    b, c, h, w = x.shape
    if h < 1 or w < 1:
        raise ConfigurationError("maxpool_3x3_p1: spatial extents must be >= 1")
    flat = np.ascontiguousarray(x.data).reshape(-1)
    out = _max3(_max3(flat, w, 1), h, w).reshape(x.shape)

    def dx(g: Array) -> Array:
        planes, size = b * c, h * w
        xf, of, gf = x.data.reshape(-1), out.reshape(-1), g.reshape(-1)
        step = _block_channels(planes, size * (np.dtype(np.intp).itemsize + x.data.itemsize))
        # a claimed cell lies at most 2 * w + 2 cells after its window's top-left corner
        small = np.min_scalar_type(2 * w + 2)
        corner = np.arange(-w - 1, step * size - w - 1)
        # the claimed column under each row max, at cols[w:]; a row above or below a block is never claimed
        cols = np.zeros(step * size + 2 * w, dtype=small)
        # a block scatters into grad[lo : hi + 1]: its own n = hi - lo cells, then grad[hi] as its dump slot
        grad = np.zeros(planes * size + 1, dtype=g.dtype)
        for lo in range(0, planes * size, step * size):
            hi = min(lo + step * size, planes * size)
            n, xb, ob = hi - lo, xf[lo:hi], of[lo:hi]
            nan = bool(np.isnan(ob).any())
            rows = _max3(xb, w, 1)
            first, first_two = _first_claims(xb, rows, w, 1, nan)
            np.add(~first, ~first_two, dtype=small, out=cols[w : w + n])
            first, first_two = _first_claims(rows, ob, h, w, nan)
            c0, c1, c2 = cols[:n], cols[w : w + n], cols[2 * w : 2 * w + n]
            # row i's claim sits i * w + c_i after the corner; the differences
            # wrap around in ``small``, but the chosen offset fits it exactly
            offset = c2 + 2 * w
            offset += (c1 - c2 - w) * first_two
            offset += (c0 - c1 - w) * first
            index = corner[:n] + offset
            # an all -inf window in the first row or column claims padding
            index3, out3 = index.reshape(-1, h, w), ob.reshape(-1, h, w)
            np.copyto(index3[:, 0], n, where=out3[:, 0] == -np.inf)
            np.copyto(index3[:, :, 0], n, where=out3[:, :, 0] == -np.inf)
            np.add.at(grad[lo : hi + 1], index, gf[lo:hi])
            grad[hi] = 0
        return grad[:-1].reshape(x.shape)

    return op_result(out, (x, dx))


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

    def dx(g: Array) -> Array:
        gf = g.reshape(s.shape)
        dot = (gf * s).sum(axis=2, keepdims=True)
        return (s * (gf - dot)).reshape(x.shape)

    return op_result(s.reshape(x.shape), (x, dx))


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
    ag = a.data.reshape(b, g, 1, h, w)
    out = (ag * fg + fg).reshape(f.shape)
    return op_result(out, (f, lambda grad: (grad.reshape(grouped) * (ag + 1.0)).reshape(f.shape)),
                     (a, lambda grad: (grad.reshape(grouped) * fg).sum(axis=2)))


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

    return op_result(out, *[(p, lambda g, lo=lo, hi=hi: g[:, lo:hi])
                            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])])


def channel_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous channel slice ``[start, stop)`` with gradient routing."""
    _require_rank4(x, "channel_slice")
    if not (0 <= start < stop <= x.shape[1]):
        raise ConfigurationError(f"channel_slice: [{start}, {stop}) out of range for {x.shape[1]} channels")

    def dx(g: Array) -> Array:
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return full

    return op_result(x.data[:, start:stop].copy(), (x, dx))


def slice1d(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start, stop)`` of a rank-1 tensor with gradient routing."""
    if x.ndim != 1:
        raise ConfigurationError(f"slice1d: expected rank-1 tensor, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[0]):
        raise ConfigurationError(f"slice1d: [{start}, {stop}) out of range for length {x.shape[0]}")

    def dx(g: Array) -> Array:
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return full

    return op_result(x.data[start:stop].copy(), (x, dx))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """Reshape with gradient routing; element count must be preserved."""
    return op_result(x.data.reshape(shape).copy(), (x, lambda g: g.reshape(x.shape)))


# ---------------------------------------------------------------------------
# auxiliary ops
# ---------------------------------------------------------------------------


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extents; output (b, c, 1, 1)."""
    _require_rank4(x, "global_avg_pool")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    return op_result(out, (x, lambda g: np.broadcast_to(g / (h * w), x.shape)))


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ W + b``, W (f, out), of each item's flattened rank-4 features: (b, f, 1, 1) after the pool."""
    _require_rank4(x, "fully_connected")
    b, feat = x.shape[0], x.shape[1] * x.shape[2] * x.shape[3]
    if weight.ndim != 2 or weight.shape[0] != feat:
        raise ConfigurationError(f"fully_connected: weight shape {weight.shape} incompatible with {feat} features")
    out_features = weight.shape[1]
    if bias.shape != (out_features,):
        raise ConfigurationError(f"fully_connected: bias shape {bias.shape}, expected ({out_features},)")

    x2d = x.data.reshape(b, feat)
    out = x2d @ weight.data + bias.data
    instrument.tally("fc", b * feat * out_features)
    return op_result(out, (x, lambda g: (g @ weight.data.T).reshape(x.shape)),
                     (weight, lambda g: x2d.T @ g), (bias, lambda g: g.sum(axis=0)))


def _activate(act: str, a: Array, out: Array | None = None) -> Array:
    """``a`` through ``"relu"`` or ``"relu6"`` in one pass, into ``out`` if given; ``np.clip`` keeps -0.0 as -0.0."""
    return np.maximum(a, 0.0, out=out) if act == "relu" else np.clip(a, 0.0, 6.0, out=out)


def relu(x: Tensor) -> Tensor:
    return op_result(_activate("relu", x.data), (x, lambda g: g * (x.data > 0).astype(g.dtype)))


def relu6(x: Tensor) -> Tensor:
    return op_result(_activate("relu6", x.data), (x, lambda g: g * ((x.data > 0) & (x.data < 6)).astype(g.dtype)))


def _channel_sum(a: Array) -> Array:
    """Per-channel sum over (batch, height, width): over the batch first, then pairwise over each channel's plane."""
    return a.sum(axis=0).reshape(a.shape[1], -1).sum(axis=1)


def _channel_dot(a: Array, b: Array) -> Array:
    """Per-channel sum of ``a * b``, summed as :func:`_channel_sum` sums, without an array of the products."""
    n, c = a.shape[:2]
    return np.einsum("bcl,bcl->cl", a.reshape(n, c, -1), b.reshape(n, c, -1)).sum(axis=1)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Array, running_var: Array) -> Tensor:
    """Training batch normalization over (batch, height, width).

    It uses biased batch statistics and folds them into the running buffers
    as ``running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch``. Its
    forward takes one per-channel sum for the mean and centres ``x`` once;
    the variance is the per-channel sum of squares of that centred copy,
    which is then scaled in place into ``x_hat``, so the output is
    ``x_hat * gamma + beta``. Its backward takes two per-channel sums of the
    output gradient g, ``dbeta = sum(g)`` and ``dgamma = sum(g * x_hat)``, and
    the input gradient reuses them: ``scale * (g - x_hat * dgamma / n -
    dbeta / n)`` with ``scale = gamma * inv_std`` and n the count per channel,
    in four in-place passes over its one output.

    Inference never calls this op: ``models`` folds the running statistics
    into each convolution's weights and finishes that conv's output in place.
    """
    _require_rank4(x, "batch_norm")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(f"batch_norm: gamma/beta must have shape ({c},)")
    n = b * h * w
    mean = _channel_sum(x.data) / n
    x_hat = x.data - mean[:, None, None]
    var = _channel_dot(x_hat, x_hat) / n
    running_mean *= BN_MOMENTUM
    running_mean += (1.0 - BN_MOMENTUM) * mean
    running_var *= BN_MOMENTUM
    running_var += (1.0 - BN_MOMENTUM) * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat *= inv_std[:, None, None]
    out = x_hat * gamma.data[:, None, None]
    out += beta.data[:, None, None]
    scale = (gamma.data * inv_std)[:, None, None]
    # op_result calls dx, dgamma and dbeta in that order within one backward,
    # and dx (when x is taped) takes both per-channel sums and hands them on
    # here. dgamma and dbeta pop them, so each reads only sums made from the
    # same call's g: a later backward may pass the same g array with new
    # contents, so nothing may be looked up by that array
    handed: dict = {}

    def dx(g: Array) -> Array:
        dgamma = handed["gamma"] = _channel_dot(g, x_hat)
        dbeta = handed["beta"] = _channel_sum(g)
        grad = np.multiply(x_hat, (dgamma / n)[:, None, None])
        grad += (dbeta / n)[:, None, None]
        np.subtract(g, grad, out=grad)
        grad *= scale
        return grad

    def dgamma(g: Array) -> Array:
        return handed.pop("gamma") if "gamma" in handed else _channel_dot(g, x_hat)

    def dbeta(g: Array) -> Array:
        return handed.pop("beta") if "beta" in handed else _channel_sum(g)

    return op_result(out, (x, dx), (gamma, dgamma), (beta, dbeta))
