"""Kernel-level tests: forward values, shape validation, gradients, determinism."""

import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from ulsam import gradcheck, instrument, models, ops, training
from ulsam.errors import ConfigurationError, TapeError
from ulsam.tensor import Tensor, no_tape, op_result, parameter


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


# ---------------------------------------------------------------------------
# standard convolution
# ---------------------------------------------------------------------------


def test_conv2d_all_ones_sums_window():
    out = ops.conv2d_standard(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 3, 3))))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_identity_kernel():
    x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
    out = ops.conv2d_standard(t(x), t(np.ones((1, 1, 1, 1))))
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_output_extents():
    x = t(np.zeros((2, 3, 11, 9)))
    out = ops.conv2d_standard(x, t(np.zeros((4, 3, 3, 3))), stride=2, padding=1)
    assert out.shape == (2, 4, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_conv2d_channel_mismatch_names_extent():
    with pytest.raises(ConfigurationError, match="channels"):
        ops.conv2d_standard(t(np.zeros((1, 5, 4, 4))), t(np.zeros((2, 3, 3, 3))))


def test_conv2d_kernel_too_large():
    with pytest.raises(ConfigurationError, match="does not fit"):
        ops.conv2d_standard(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))))


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3, 5, 5))
    w = rng.normal(size=(2, 3, 3, 3))

    assert gradcheck.check_fn(ops.conv2d_standard, [x, w], rng) < 1e-6


def test_conv2d_deterministic():
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3))
    a = ops.conv2d_standard(t(x), t(w), stride=2, padding=1).data
    b = ops.conv2d_standard(t(x), t(w), stride=2, padding=1).data
    np.testing.assert_array_equal(a, b)


def _conv2d_row_major_im2col(x, w, stride, padding):
    """The earlier conv2d_standard forward: (b*hw, m*k*k) window rows, one GEMM with the weights transposed."""
    b, m, h, wd = x.shape
    n, _, k, _ = w.shape
    h_out, w_out = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(b * h_out * w_out, m * k * k)
    out = cols @ w.reshape(n, m * k * k).T
    return np.ascontiguousarray(out.reshape(b, h_out, w_out, n).transpose(0, 3, 1, 2))


def _conv2d_float64(x, w, stride, padding):
    """Float64 cross-correlation, one tap at a time."""
    n, _, k, _ = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = (xp.shape[2] - k) // stride + 1, (xp.shape[3] - k) // stride + 1
    out = 0.0
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            out = out + np.einsum("bmhw,nm->bnhw", tap, w[:, :, i, j].astype(np.float64))
    return out


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_forward_is_bitwise_the_row_major_im2col(k, stride, padding):
    # three input channels, as in every model's first layer: the GEMM's inner
    # extent (m*k*k <= 27) is reduced in the same order in either orientation
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
    w = rng.normal(size=(8, 3, k, k)).astype(np.float32)
    out = ops.conv2d_standard(Tensor(x), Tensor(w), stride, padding)
    expect = _conv2d_row_major_im2col(x, w, stride, padding)
    assert out.data.flags.c_contiguous and out.dtype == np.float32
    np.testing.assert_array_equal(out.data, expect)


@pytest.mark.parametrize("shape,n", [((2, 5, 7, 7), 4), ((4, 1280, 1, 1), 1000)])
def test_conv2d_forward_matches_row_major_im2col_to_rounding(shape, n):
    # here the two orientations may reduce in different orders (at 1x1
    # output NumPy runs a matrix-vector product per item), so both are held
    # to the same float64 reference
    rng = np.random.default_rng(32)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(n, shape[1], 1, 1)).astype(np.float32)
    out = ops.conv2d_standard(Tensor(x), Tensor(w), 1, 0).data
    expect = _conv2d_float64(x, w, 1, 0)
    scale = np.abs(expect).max()
    old_err = np.abs(_conv2d_row_major_im2col(x, w, 1, 0) - expect).max() / scale
    assert np.abs(out - expect).max() / scale <= max(4 * old_err, 1e-6)


@pytest.mark.parametrize("shape,n,k,stride,padding", [
    ((2, 3, 9, 9), 8, 3, 1, 1), ((2, 3, 9, 9), 8, 3, 2, 1), ((2, 5, 7, 7), 4, 3, 2, 0),
    ((3, 4, 6, 6), 5, 1, 1, 0), ((3, 4, 6, 6), 5, 1, 2, 1), ((4, 16, 1, 1), 10, 1, 1, 0),
])
def test_conv2d_weight_gradient_matches_float64_reference(shape, n, k, stride, padding):
    rng = np.random.default_rng(33)
    x = rng.normal(size=shape)
    w = parameter(rng.normal(size=(n, shape[1], k, k)))
    out = ops.conv2d_standard(Tensor(x), w, stride, padding)
    g = rng.normal(size=out.shape)
    out.backward(g)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = out.shape[2:]
    expect = np.empty(w.shape)
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            expect[:, :, i, j] = np.einsum("bnhw,bmhw->nm", g, tap)
    assert np.abs(w.grad - expect).max() <= 1e-12 * np.abs(expect).max()


def test_conv2d_taped_forward_keeps_no_columns():
    # the stem's shape and stride: im2col columns kept for the weight gradient would be 2.25x the input
    rng = np.random.default_rng(38)
    x = Tensor(rng.standard_normal((4, 3, 224, 224), dtype=np.float32))
    w = parameter(rng.standard_normal((32, 3, 3, 3), dtype=np.float32))
    tracemalloc.start()
    try:
        out = ops.conv2d_standard(x, w, 2, 1)
        kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert kept < 0.1 * x.data.nbytes, f"the taped forward kept {kept / x.data.nbytes:.2f}x its input"


# (offset, stride, height, width) for a 4x5 input: padding, dilation, both,
# crops from negative offsets (the input gradient of a padded conv), an input
# cut by the far edges, and one placed wholly outside
PLACEMENTS = [(1, 1, 6, 7), (0, 2, 9, 11), (2, 3, 12, 15), (-1, 2, 5, 6), (-2, 1, 2, 3), (-1, 1, 3, 3), (5, 1, 4, 5)]


@pytest.mark.parametrize("offset,stride,height,width", PLACEMENTS)
def test_place_puts_each_cell_at_offset_plus_stride_times_its_index(offset, stride, height, width):
    a = np.random.default_rng(36).normal(size=(2, 3, 4, 5))
    placed = ops._place(a, offset, height, width, stride)
    expect = np.zeros((2, 3, height, width))
    for i in range(4):
        for j in range(5):
            if 0 <= offset + stride * i < height and 0 <= offset + stride * j < width:
                expect[:, :, offset + stride * i, offset + stride * j] = a[:, :, i, j]
    assert placed.flags.c_contiguous
    np.testing.assert_array_equal(placed, expect)


def test_place_does_not_copy_an_array_that_already_fits():
    a = np.random.default_rng(37).normal(size=(2, 3, 4, 5))
    assert ops._place(a, 0, 4, 5) is a
    flipped = ops._place(a[..., ::-1], 0, 4, 5)
    assert flipped.flags.c_contiguous and np.array_equal(flipped, a[..., ::-1])


# ---------------------------------------------------------------------------
# depthwise / pointwise
# ---------------------------------------------------------------------------


def test_depthwise_per_channel_scaling():
    x = np.stack([np.full((3, 3), 1.0), np.full((3, 3), 1.0)])[None]
    out = ops.depthwise_conv(t(x), t(np.array([2.0, 3.0]).reshape(2, 1, 1)))
    np.testing.assert_array_equal(out.data[0, 0], np.full((3, 3), 2.0))
    np.testing.assert_array_equal(out.data[0, 1], np.full((3, 3), 3.0))


def test_depthwise_all_ones_window_sum():
    out = ops.depthwise_conv(t(np.ones((1, 2, 3, 3))), t(np.ones((2, 3, 3))))
    assert out.shape == (1, 2, 1, 1)
    np.testing.assert_array_equal(out.data.ravel(), [9.0, 9.0])


def test_depthwise_channel_independence_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 3, 5, 5))
    w = rng.normal(size=(3, 3, 3))
    base = ops.depthwise_conv(t(x), t(w), padding=1).data
    poked = x.copy()
    poked[0, 0] += rng.normal(size=(5, 5))
    out = ops.depthwise_conv(t(poked), t(w), padding=1).data
    np.testing.assert_array_equal(base[0, 1:], out[0, 1:])


def shifted_depthwise(x, w, stride, padding):
    """Reference: the sum of the k*k shifted, per-channel scaled input slices."""
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (x.shape[2] + 2 * padding - k) // stride + 1
    w_out = (x.shape[3] + 2 * padding - k) // stride + 1
    out = np.zeros(x.shape[:2] + (h_out, w_out))
    for i in range(k):
        for j in range(k):
            shifted = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            out += shifted * w[None, :, i, j, None, None]
    return out


def shifted_depthwise_grads(x, w, g, stride, padding):
    """Reference: the adjoint of ``shifted_depthwise``, tap by tap, for output gradient ``g``.

    The input gradient adds each tap's per-channel scaled ``g`` into that
    tap's strided slice of the padded input; the weight gradient is each
    slice's per-channel dot product with ``g``.
    """
    k = w.shape[-1]
    h, width = x.shape[2:]
    h_out, w_out = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp, dw = np.zeros(xp.shape), np.zeros(w.shape)
    for i in range(k):
        for j in range(k):
            tap = (slice(None), slice(None), slice(i, i + stride * h_out, stride), slice(j, j + stride * w_out, stride))
            dxp[tap] += g * w[None, :, i, j, None, None]
            dw[:, i, j] = (xp[tap] * g).sum(axis=(0, 2, 3))
    return dxp[:, :, padding : padding + h, padding : padding + width], dw


def depthwise_grads(x, w, g, stride, padding):
    """``depthwise_conv``'s input and weight gradients for output gradient ``g``."""
    xt, wt = parameter(x), parameter(w)
    ops.depthwise_conv(xt, wt, stride, padding).backward(g)
    return xt.grad, wt.grad


def assert_close_to_reference(grads, refs, rtol=1e-12):
    for grad, ref in zip(grads, refs):
        assert grad.shape == ref.shape
        assert np.max(np.abs(grad - ref)) <= rtol * np.max(np.abs(ref))


def band_channel_bytes(x, out, k, stride):
    """Bytes per channel of the banded forward's block that maps ``x`` to ``out``: haloed rows and two temporaries."""
    b, _, h_out, w_out = out.shape
    tile = min(ops.DEPTHWISE_TILE, w_out)
    tiles = -(-w_out // tile)
    q = h_out + (k - 1) // stride
    return b * q * tiles * (min(stride, k) * (stride * (tile - 1) + k) + 2 * tile) * x.itemsize


# block budgets in channels' worth of the forward's block: several blocks with
# an uneven last one, one channel per block, and less than one channel
@pytest.mark.parametrize("channels_per_block", [3, 1, 0.5])
@pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (1, 1, 0), (1, 2, 1)])
def test_depthwise_window_blocks_match_shifted_reference(monkeypatch, channels_per_block, k, stride, padding):
    rng = np.random.default_rng(25)
    x, w = rng.normal(size=(3, 7, 9, 8)), rng.normal(size=(7, k, k))
    single = ops.depthwise_conv(t(x), t(w), stride, padding).data
    # blocks run along the channel axis, so every boundary splits each batch item's channels
    monkeypatch.setattr(ops, "CHANNEL_BLOCK_BYTES", int(channels_per_block * band_channel_bytes(x, single, k, stride)))
    out = ops.depthwise_conv(t(x), t(w), stride, padding).data
    assert out.flags.c_contiguous
    np.testing.assert_array_equal(out, single)
    ref = shifted_depthwise(x, w, stride, padding)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("channels_per_block", [3, 1, 0.5])
@pytest.mark.parametrize("k,stride,padding",
                         [(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (1, 1, 0), (1, 2, 1), (3, 1, 2)])
def test_depthwise_gradient_blocks_match_shifted_reference(monkeypatch, channels_per_block, k, stride, padding):
    rng = np.random.default_rng(31)
    # even extents: at k1 s2 p1 the last input row and column take the last output, and at k3 s2 p0 no output
    x, w = rng.normal(size=(3, 7, 8, 10)), rng.normal(size=(7, k, k))
    out = ops.depthwise_conv(t(x), t(w), stride, padding).data
    g = rng.normal(size=out.shape)
    single = depthwise_grads(x, w, g, stride, padding)
    # the budget counts the forward's block; at 0.5 both closures' blocks hold less than one channel
    monkeypatch.setattr(ops, "CHANNEL_BLOCK_BYTES", int(channels_per_block * band_channel_bytes(x, out, k, stride)))
    blocked = depthwise_grads(x, w, g, stride, padding)
    for grad, ref in zip(blocked, single):
        assert grad.tobytes() == ref.tobytes()
    assert_close_to_reference(blocked, shifted_depthwise_grads(x, w, g, stride, padding))


# channels per block: one, a partial last block (7 = 3 + 3 + 1), and all of them
@pytest.mark.parametrize("per_block", [1, 3, 7])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_depthwise_in_set_channel_blocks_matches_shifted_reference(monkeypatch, per_block, stride, dtype, rtol):
    monkeypatch.setattr(ops, "_block_channels", lambda m, channel_bytes: min(m, per_block))
    rng = np.random.default_rng(36)
    x, w = rng.normal(size=(3, 7, 9, 17)).astype(dtype), rng.normal(size=(7, 3, 3)).astype(dtype)
    out = ops.depthwise_conv(Tensor(x), Tensor(w), stride, 1).data
    assert out.dtype == dtype
    assert_close_to_reference([out], [shifted_depthwise(x.astype(np.float64), w.astype(np.float64), stride, 1)], rtol)
    g = rng.normal(size=out.shape).astype(dtype)
    grads = depthwise_grads(x, w, g, stride, 1)
    assert all(grad.dtype == dtype for grad in grads)
    refs = shifted_depthwise_grads(*(a.astype(np.float64) for a in (x, w, g)), stride, 1)
    assert_close_to_reference(grads, refs, rtol)


def test_depthwise_inference_forward_allocates_its_output_and_two_blocks_at_most():
    # MV2 layer 3's depthwise conv at batch 1; a padded copy of the input alone would be about 4x the output
    rng = np.random.default_rng(37)
    x = Tensor(rng.standard_normal((1, 96, 112, 112), dtype=np.float32))
    w = Tensor(rng.standard_normal((96, 3, 3), dtype=np.float32))
    tracemalloc.start()
    try:
        out = ops.depthwise_conv(x, w, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 96, 56, 56)
    assert peak < out.data.nbytes + 2 * ops.CHANNEL_BLOCK_BYTES, f"peaked at {peak / out.data.nbytes:.2f}x its output"


# tiny-train's depthwise layers: mv1-tiny at width 8 on 8x8 inputs, batch 32, k3 p1
@pytest.mark.parametrize("channels,size,stride", [(8, 8, 2), (16, 4, 1), (16, 4, 2), (32, 2, 1)])
def test_depthwise_gradients_at_tiny_train_shapes_match_reference(channels, size, stride):
    rng = np.random.default_rng(32)
    x, w = rng.normal(size=(32, channels, size, size)), rng.normal(size=(channels, 3, 3))
    g = rng.normal(size=ops.depthwise_conv(t(x), t(w), stride, 1).shape)
    assert_close_to_reference(depthwise_grads(x, w, g, stride, 1), shifted_depthwise_grads(x, w, g, stride, 1))


def test_depthwise_gradients_where_the_last_padded_row_gets_no_window():
    # 6 rows at k3 s2 p0 give windows over rows 0-4 only, 16 columns over columns 0-14 only
    rng = np.random.default_rng(34)
    arrays = [rng.standard_normal((1, 2, 6, 16)), rng.standard_normal((2, 3, 3))]
    assert gradcheck.check_fn(lambda xt, wt: ops.depthwise_conv(xt, wt, 2, 0), arrays, rng) < gradcheck.PER_OP_TOL
    g = rng.normal(size=(1, 2, 2, 7))
    dx, dw = depthwise_grads(*arrays, g, 2, 0)
    assert not dx[:, :, 5].any() and not dx[..., 15].any()
    assert_close_to_reference((dx, dw), shifted_depthwise_grads(*arrays, g, 2, 0))


def test_depthwise_window_copy_above_block_budget_matches_reference():
    rng = np.random.default_rng(26)
    x, w = rng.normal(size=(2, 24, 56, 56)), rng.normal(size=(24, 3, 3))
    # 3x3 windows at stride 1, padding 1 (output shape = input shape): its rows and temporaries span more than two blocks
    assert x.shape[1] * band_channel_bytes(x, x, 3, 1) > 2 * ops.CHANNEL_BLOCK_BYTES
    out = ops.depthwise_conv(t(x), t(w), 1, 1).data
    ref = shifted_depthwise(x, w, 1, 1)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# (width, k, stride, padding) whose output is wider than one tile and, but
# for two, not a multiple of it: w_out 15, 20, 29; odd widths at stride 2;
# k=3 without padding; the k=1 scale at stride 2 with padding; k=3 with
# padding 2, whose output gradient the input gradient's band reads unshifted
# but with a right margin
BEYOND_ONE_TILE = [(15, 3, 1, 1), (20, 3, 1, 1), (29, 3, 1, 1), (29, 3, 2, 1), (31, 3, 2, 1), (33, 3, 2, 0),
                   (17, 3, 1, 0), (30, 3, 1, 0), (29, 1, 2, 1), (15, 3, 1, 2)]


@pytest.mark.parametrize("width,k,stride,padding", BEYOND_ONE_TILE)
def test_depthwise_widths_beyond_one_tile_match_reference(width, k, stride, padding):
    rng = np.random.default_rng(27)
    x, w = parameter(rng.normal(size=(2, 3, 5, width))), parameter(rng.normal(size=(3, k, k)))
    out = ops.depthwise_conv(x, w, stride, padding)
    assert out.data.flags.c_contiguous
    ref = shifted_depthwise(x.data, w.data, stride, padding)
    assert out.shape == ref.shape and ref.shape[3] > ops.DEPTHWISE_TILE
    assert np.max(np.abs(out.data - ref)) <= 1e-12 * np.max(np.abs(ref))
    g = rng.normal(size=out.shape)
    out.backward(g)
    assert_close_to_reference((x.grad, w.grad), shifted_depthwise_grads(x.data, w.data, g, stride, padding))


@pytest.mark.parametrize("width,stride", [(17, 1), (31, 2)])
def test_depthwise_gradients_beyond_one_tile(width, stride):
    rng = np.random.default_rng(28)
    arrays = [rng.standard_normal((1, 2, 4, width)), rng.standard_normal((2, 3, 3))]
    err = gradcheck.check_fn(lambda xt, wt: ops.depthwise_conv(xt, wt, stride, 1), arrays, rng)
    assert err < gradcheck.PER_OP_TOL


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_depthwise_k1_is_bitwise_per_channel_scale(stride, padding):
    rng = np.random.default_rng(29)
    x, w = rng.normal(size=(2, 5, 6, 7)), rng.normal(size=(5, 1, 1))
    out = ops.depthwise_conv(t(x), t(w), stride, padding).data
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    np.testing.assert_array_equal(out, xp[:, :, ::stride, ::stride] * w[None, :, 0, 0, None, None])


def test_depthwise_k1_input_gradient_has_the_per_tap_sums_bits():
    # zero gradients against negative weights give -0.0, which a sum into zeros turns into +0.0
    rng = np.random.default_rng(33)
    x, w = parameter(rng.normal(size=(2, 5, 6, 7))), parameter(rng.normal(size=(5, 1, 1)))
    w.data[::2] = -np.abs(w.data[::2])
    g = np.where(rng.random((2, 5, 6, 7)) < 0.3, 0.0, rng.normal(size=(2, 5, 6, 7)))
    ops.depthwise_conv(x, w).backward(g)
    per_tap = np.zeros(x.shape)
    per_tap += g * w.data[None, :, 0, 0, None, None]
    assert x.grad.tobytes() == per_tap.tobytes()


def test_depthwise_non_finite_input_spreads_across_its_tile_row():
    # a band's zeros meet the inf too (0 * inf = NaN), so every output of the
    # tile rows holding it is NaN, except its own 3x3 window, which is inf
    x = np.random.default_rng(30).normal(size=(1, 1, 5, 30))
    x[0, 0, 2, 3] = np.inf
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        out = ops.depthwise_conv(t(x), t(np.ones((1, 3, 3))), 1, 1).data[0, 0]
    window, tile_rows = np.zeros(out.shape, dtype=bool), np.zeros(out.shape, dtype=bool)
    window[1:4, 2:5] = True  # output rows 1-3 and columns 2-4 see input (2, 3)
    tile_rows[1:4, : ops.DEPTHWISE_TILE] = True  # input column 3 lies in tile 0's rows
    assert np.isposinf(out[window]).all()
    assert np.isnan(out[tile_rows & ~window]).all()
    assert np.isfinite(out[~tile_rows]).all()


def test_depthwise_non_finite_gradient_spreads_across_its_tile_row():
    # the input gradient is the band run on the padded output gradient, so
    # an inf there meets the band's zeros as an inf input does in the forward
    rng = np.random.default_rng(35)
    x, w = parameter(rng.normal(size=(1, 1, 5, 30))), parameter(np.ones((1, 3, 3)))
    out = ops.depthwise_conv(x, w, 1, 1)
    g = rng.normal(size=out.shape)
    g[0, 0, 0, 3] = np.inf
    with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
        out.backward(g)
    dx = x.grad[0, 0]
    window, tile_rows = np.zeros(dx.shape, dtype=bool), np.zeros(dx.shape, dtype=bool)
    window[0:2, 2:5] = True  # output (0, 3) reads input rows 0-1 (row -1 is padding) and columns 2-4
    tile_rows[0:2, : ops.DEPTHWISE_TILE] = True  # the padded gradient's column 4 lies in tile 0's rows
    assert np.isposinf(dx[window]).all()
    assert np.isnan(dx[tile_rows & ~window]).all()
    assert np.isfinite(dx[~tile_rows]).all()
    # the weight gradient is what the per-tap sums give: inf * x in each tap, NaN in the taps over padding
    with np.errstate(invalid="ignore"):
        ref = shifted_depthwise_grads(x.data, w.data, g, 1, 1)[1]
    assert np.isnan(w.grad[0, 0]).all() and np.isinf(w.grad[0, 1:]).all()
    np.testing.assert_array_equal(w.grad, ref)


def test_depthwise_rejects_channel_change():
    # one kernel per input channel: three kernels cannot run over two channels
    with pytest.raises(ConfigurationError, match="2 input channels"):
        ops.depthwise_conv(t(np.zeros((1, 2, 3, 3))), t(np.zeros((3, 1, 1))))


def test_pointwise_summation_filter():
    x = np.arange(27, dtype=np.float64).reshape(1, 3, 3, 3)
    out = ops.pointwise_conv(t(x), t(np.ones((1, 3, 1, 1))))
    np.testing.assert_allclose(out.data[0, 0], x.sum(axis=1)[0])


def test_pointwise_identity_matrix():
    x = np.random.default_rng(4).normal(size=(2, 3, 4, 4))
    w = np.eye(3).reshape(3, 3, 1, 1)
    out = ops.pointwise_conv(t(x), t(w))
    np.testing.assert_array_equal(out.data, x)


def test_pointwise_requires_kernel_one():
    with pytest.raises(ConfigurationError, match=r"expected \(1, 3, 1, 1\)"):
        ops.pointwise_conv(t(np.zeros((1, 3, 4, 4))), t(np.zeros((1, 3, 3, 3))))


def test_pointwise_gradients():
    rng = np.random.default_rng(5)
    x, w = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 1, 1))

    assert gradcheck.check_fn(ops.pointwise_conv, [x, w], rng) < 1e-6


@pytest.mark.parametrize("stride,padding", [(0, 0), (1, -1)])
def test_conv_kernels_reject_bad_stride_or_padding(stride, padding):
    x = t(np.zeros((1, 3, 5, 5)))
    with pytest.raises(ConfigurationError, match="stride must be >= 1 and padding >= 0"):
        ops.conv2d_standard(x, t(np.zeros((2, 3, 3, 3))), stride, padding)
    with pytest.raises(ConfigurationError, match="stride must be >= 1 and padding >= 0"):
        ops.depthwise_conv(x, t(np.zeros((3, 3, 3))), stride, padding)


@pytest.mark.parametrize("kernel,wshape", [
    (ops.conv2d_standard, (3, 3, 3)), (ops.conv2d_standard, ()),
    (ops.depthwise_conv, (3, 1, 3, 3)), (ops.depthwise_conv, ()),
    (ops.pointwise_conv, (2, 3)), (ops.pointwise_conv, ()),
])
def test_conv_kernels_reject_weights_of_wrong_rank(kernel, wshape):
    with pytest.raises(ConfigurationError, match="does not match the 3 input channels"):
        kernel(t(np.zeros((1, 3, 4, 4))), t(np.zeros(wshape)))


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------


def test_maxpool_constant_field():
    out = ops.maxpool_3x3_p1(t(np.full((1, 2, 4, 5), 3.25)))
    assert out.shape == (1, 2, 4, 5)
    np.testing.assert_array_equal(out.data, np.full((1, 2, 4, 5), 3.25))


def test_maxpool_peak_dilation():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    out = ops.maxpool_3x3_p1(t(x)).data[0, 0]
    expect = np.zeros((5, 5))
    expect[1:4, 1:4] = 1.0
    np.testing.assert_array_equal(out, expect)


@pytest.mark.parametrize("h,w", [(1, 1), (1, 4), (2, 2), (5, 3)])
def test_maxpool_preserves_spatial_shape(h, w):
    out = ops.maxpool_3x3_p1(t(np.random.default_rng(6).normal(size=(2, 3, h, w))))
    assert out.shape == (2, 3, h, w)


def test_maxpool_negative_values_survive_padding():
    x = np.full((1, 1, 2, 2), -5.0)
    out = ops.maxpool_3x3_p1(t(x))
    np.testing.assert_array_equal(out.data, x)  # -inf padding never wins


def test_maxpool_routes_gradient_to_argmax():
    x = np.array([[[[1.0, 2.0], [4.0, 3.0]]]])
    xt = parameter(x.copy())
    out = ops.maxpool_3x3_p1(xt)
    out.backward(np.ones_like(x))
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 1, 0] = 4.0  # every window's max is the 4
    np.testing.assert_array_equal(xt.grad, expect)


def test_maxpool_tie_break_first_in_row_major_order():
    x = np.full((1, 1, 2, 2), 7.0)
    xt = parameter(x.copy())
    ops.maxpool_3x3_p1(xt).backward(np.ones((1, 1, 2, 2)))
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 4.0
    np.testing.assert_array_equal(xt.grad, expect)


def test_maxpool_gradients_away_from_ties():
    rng = np.random.default_rng(7)
    x = gradcheck.well_separated_windows(rng, (1, 2, 4, 4))
    assert gradcheck.check_fn(lambda xt: ops.maxpool_3x3_p1(xt), [x], rng) < 1e-6


def reference_maxpool(x, g):
    """Window-copy max pool: argmax over a 9-wide strided window, scatter-add backward.

    Returns the forward output and the input gradient for upstream ``g``.
    """
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    win = sliding_window_view(xp, (3, 3), axis=(2, 3)).reshape(b, c, h, w, 9)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    bi = np.arange(b)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    hi = np.arange(h)[None, None, :, None]
    wi = np.arange(w)[None, None, None, :]
    np.add.at(dxp, (bi, ci, hi + idx // 3, wi + idx % 3), g)
    return out, dxp[:, :, 1 : 1 + h, 1 : 1 + w]


# the kernel's width and height branches (1, 2, and 3 or more), each width with each height
POOL_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (2, 7), (7, 2), (5, 3), (14, 14)]


def _maxpool_input(kind, shape, rng):
    x = rng.normal(size=shape)
    if kind == "plateaus":  # few distinct values: most windows hold tied maxima
        return np.round(x)
    if kind == "signed_zeros":  # +0.0 and -0.0 tie but differ bitwise
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if kind == "neg_inf":  # whole windows of -inf, and -inf cells beside finite ones
        x[..., : (shape[2] + 1) // 2, :] = -np.inf
        x[0] = -np.inf
        return x
    if kind == "nan":  # a NaN window's maximum is NaN, and its gradient goes to its first NaN
        x[rng.random(shape) < 0.2] = np.nan
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["random", "plateaus", "signed_zeros", "neg_inf", "nan"])
@pytest.mark.parametrize("h,w", POOL_SHAPES)
def test_maxpool_matches_window_reference_bitwise(h, w, kind, dtype):
    rng = np.random.default_rng(h * 100 + w)
    x = _maxpool_input(kind, (2, 3, h, w), rng).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    expect_out, expect_grad = reference_maxpool(x, g)
    xt = parameter(x.copy())
    out = ops.maxpool_3x3_p1(xt)
    out.backward(g)
    assert out.data.dtype == dtype and xt.grad.dtype == dtype
    # compared as bytes, so the sign of a zero and the order of summation both count
    assert out.data.tobytes() == np.ascontiguousarray(expect_out).tobytes()
    assert xt.grad.tobytes() == np.ascontiguousarray(expect_grad).tobytes()


def pool_plane_bytes(h, w, dtype):
    """Bytes of one (item, channel) plane's claim indices and row maxima in the max-pool backward, which set its
    block size."""
    return h * w * (np.dtype(np.intp).itemsize + np.dtype(dtype).itemsize)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["random", "plateaus", "signed_zeros", "neg_inf", "nan"])
@pytest.mark.parametrize("h,w", POOL_SHAPES)
def test_maxpool_scatter_blocks_match_window_reference_bitwise(monkeypatch, h, w, kind, dtype):
    # the reference test's 2 x 3 = 6 planes, scattered in blocks of 4: one whole block and a remainder of 2
    monkeypatch.setattr(ops, "CHANNEL_BLOCK_BYTES", 4 * pool_plane_bytes(h, w, dtype))
    steps = []
    block_channels = ops._block_channels
    monkeypatch.setattr(ops, "_block_channels", lambda *a: steps.append(block_channels(*a)) or steps[-1])
    test_maxpool_matches_window_reference_bitwise(h, w, kind, dtype)
    assert steps == [4]


def test_maxpool_non_finite_gradient_reaches_only_the_claimed_cell():
    # every window of a 4x4 ramp claims its bottom-right cell; window (0, 0) claims (1, 1)
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    g = np.zeros_like(x)
    g[0, 0, 0, 0] = np.inf
    xt = parameter(x.copy())
    ops.maxpool_3x3_p1(xt).backward(g)
    expect = np.zeros_like(x)
    expect[0, 0, 1, 1] = np.inf
    np.testing.assert_array_equal(xt.grad, expect)
    assert xt.grad.tobytes() == reference_maxpool(x, g)[1].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["random", "plateaus", "neg_inf", "nan"])
def test_maxpool_non_finite_gradients_match_window_reference_bitwise(kind, dtype):
    rng = np.random.default_rng(31)
    x = _maxpool_input(kind, (2, 3, 6, 5), rng).astype(dtype)
    g = rng.normal(size=x.shape)
    draw = rng.random(x.shape)
    g[draw < 0.1], g[draw > 0.9], g[(draw > 0.5) & (draw < 0.6)] = np.inf, -np.inf, np.nan
    g = g.astype(dtype)
    xt = parameter(x.copy())
    with np.errstate(invalid="ignore"):  # a cell claimed by an inf and a -inf window sums to NaN
        ops.maxpool_3x3_p1(xt).backward(g)
        expect = np.ascontiguousarray(reference_maxpool(x, g)[1])
    # a NaN's sign bit is not fixed by IEEE 754 (NaN + NaN may keep either operand's), so NaNs
    # compare by position and every other cell as bytes
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(xt.grad), nan)
    assert xt.grad[~nan].tobytes() == expect[~nan].tobytes()


def test_maxpool_forward_keeps_nothing_for_the_backward():
    x = parameter(np.random.default_rng(33).standard_normal((8, 512, 14, 14), dtype=np.float32))
    tracemalloc.start()
    try:
        out = ops.maxpool_3x3_p1(x)
        kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert kept < 0.05 * x.data.nbytes, f"a taped max-pool forward keeps {kept / x.data.nbytes:.2f}x its input"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["random", "plateaus", "signed_zeros", "neg_inf", "nan"])
def test_maxpool_of_a_transposed_input_matches_its_contiguous_copy_bitwise(kind, dtype):
    rng = np.random.default_rng(34)
    x = _maxpool_input(kind, (5, 3, 2, 6), rng).astype(dtype).transpose(1, 0, 3, 2)  # (3, 5, 6, 2), strided
    g = rng.normal(size=x.shape).astype(dtype)
    results = []
    for data in (x, np.ascontiguousarray(x)):
        xt = parameter(data)
        out = ops.maxpool_3x3_p1(xt)
        out.backward(g)
        results.append((out.data.tobytes(), np.ascontiguousarray(xt.grad).tobytes()))
    assert not x.flags.c_contiguous and results[0] == results[1]


def test_maxpool_backward_peak_allocation_stays_below_four_inputs():
    rng = np.random.default_rng(32)
    x = parameter(rng.standard_normal((8, 512, 14, 14), dtype=np.float32))
    g = rng.standard_normal(x.shape, dtype=np.float32)
    out = ops.maxpool_3x3_p1(x)
    tracemalloc.start()
    try:
        out.backward(g)  # holds the output's gradient, the input gradient and x.grad: 3x before any temporary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes, f"max-pool backward peaked at {peak / x.data.nbytes:.2f}x its input"


# ---------------------------------------------------------------------------
# spatial softmax
# ---------------------------------------------------------------------------


def test_spatial_softmax_uniform_on_zeros():
    out = ops.spatial_softmax(t(np.zeros((1, 1, 2, 2))))
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 0.25))


def test_spatial_softmax_hand_values():
    out = ops.spatial_softmax(t(np.array([[0.0, np.log(3.0)]]).reshape(1, 1, 1, 2)))
    np.testing.assert_allclose(out.data.ravel(), [0.25, 0.75], rtol=0, atol=1e-15)


def test_spatial_softmax_shift_invariance_bitwise():
    # eighth-integer lattice values: the shift adds without rounding, so the
    # max-subtracted logits (and hence the outputs) are bitwise identical
    rng = np.random.default_rng(8)
    x = rng.integers(-16, 17, size=(2, 1, 3, 3)) / 8.0
    a = ops.spatial_softmax(t(x)).data
    b = ops.spatial_softmax(t(x + 11.75)).data
    np.testing.assert_array_equal(a, b)


def test_spatial_softmax_shift_invariance_random_floats():
    rng = np.random.default_rng(80)
    x = rng.normal(size=(2, 1, 3, 3))
    a = ops.spatial_softmax(t(x)).data
    b = ops.spatial_softmax(t(x + 3.0)).data
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)


def test_spatial_softmax_maps_match_single_map_calls_bitwise():
    rng = np.random.default_rng(81)
    x = rng.normal(scale=3.0, size=(2, 3, 4, 5))
    upstream = rng.normal(size=x.shape)
    whole = t(x, requires_grad=True)
    maps = ops.spatial_softmax(whole)
    maps.backward(upstream)
    for i in range(2):
        for c in range(3):
            one = t(x[i : i + 1, c : c + 1], requires_grad=True)
            out = ops.spatial_softmax(one)
            out.backward(upstream[i : i + 1, c : c + 1])
            np.testing.assert_array_equal(out.data[0, 0], maps.data[i, c])
            np.testing.assert_array_equal(one.grad[0, 0], whole.grad[i, c])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_spatial_softmax_sums_to_one(b, c, h, w, seed):
    x = np.random.default_rng(seed).normal(scale=7.0, size=(b, c, h, w))
    out = ops.spatial_softmax(Tensor(x)).data
    sums = out.reshape(b * c, -1).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert out.min() > 0.0 and out.max() < 1.0 or h * w == 1  # 1x1 maps are exactly 1


# ---------------------------------------------------------------------------
# redistribution / concat / slicing
# ---------------------------------------------------------------------------


def test_broadcast_mul_add_zero_map_is_identity():
    f = np.random.default_rng(9).normal(size=(1, 3, 2, 2))
    out = ops.broadcast_mul_add(t(f), t(np.zeros((1, 1, 2, 2))))
    np.testing.assert_array_equal(out.data, f)


def test_broadcast_mul_add_unit_map_doubles():
    f = np.random.default_rng(10).normal(size=(2, 2, 3, 3))
    out = ops.broadcast_mul_add(t(f), t(np.ones((2, 1, 3, 3))))
    np.testing.assert_allclose(out.data, 2.0 * f)


def test_broadcast_mul_add_definitional():
    # eighth-integer lattice keeps products and sums exact, so the identity
    # out - F == A*F holds with no tolerance
    rng = np.random.default_rng(11)
    f = rng.integers(-16, 17, size=(1, 4, 3, 3)) / 8.0
    a = rng.integers(-16, 17, size=(1, 1, 3, 3)) / 8.0
    out = ops.broadcast_mul_add(t(f), t(a)).data
    np.testing.assert_array_equal(out - f, a * f)


def test_broadcast_mul_add_spatial_mismatch():
    with pytest.raises(ConfigurationError, match="extents"):
        ops.broadcast_mul_add(t(np.zeros((1, 2, 3, 3))), t(np.zeros((1, 1, 2, 2))))


def test_broadcast_mul_add_map_k_scales_group_k():
    # lattice values keep the identity exact: group k gains A_k * F_group
    rng = np.random.default_rng(16)
    f = rng.integers(-16, 17, size=(2, 6, 3, 3)) / 8.0
    a = rng.integers(-16, 17, size=(2, 3, 3, 3)) / 8.0
    out = ops.broadcast_mul_add(t(f), t(a)).data
    for k in range(3):
        grp = slice(2 * k, 2 * k + 2)
        np.testing.assert_array_equal(out[:, grp] - f[:, grp], a[:, k : k + 1] * f[:, grp])


def test_grouped_pointwise_definitional():
    rng = np.random.default_rng(17)
    x = rng.integers(-16, 17, size=(2, 6, 3, 4)) / 8.0
    w = rng.integers(-8, 9, size=6) / 8.0
    counter = instrument.MacCounter()
    with instrument.count_macs(counter):
        out = ops.grouped_pointwise(t(x), t(w), 3).data
    assert out.shape == (2, 3, 3, 4)
    for k in range(3):
        c = 2 * k
        np.testing.assert_array_equal(out[:, k], x[:, c] * w[c] + x[:, c + 1] * w[c + 1])
    assert counter.by_kind == {ops.ULSAM: x.size}


def test_grouped_pointwise_weight_length_checked():
    with pytest.raises(ConfigurationError, match="weights shape"):
        ops.grouped_pointwise(t(np.zeros((1, 4, 2, 2))), t(np.zeros(2)), 2)


def test_channel_concat_single_part_identity():
    x = np.random.default_rng(12).normal(size=(1, 3, 2, 2))
    np.testing.assert_array_equal(ops.channel_concat([t(x)]).data, x)


def test_channel_concat_preserves_boundaries():
    a = np.random.default_rng(13).normal(size=(1, 2, 2, 2))
    b = np.random.default_rng(14).normal(size=(1, 3, 2, 2))
    out = ops.channel_concat([t(a), t(b)])
    assert out.shape == (1, 5, 2, 2)
    np.testing.assert_array_equal(out.data[:, :2], a)
    np.testing.assert_array_equal(out.data[:, 2:], b)


def test_channel_concat_spatial_mismatch():
    with pytest.raises(ConfigurationError, match="incompatible"):
        ops.channel_concat([t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3)))])


def test_slice_concat_round_trip_bitwise():
    x = np.random.default_rng(15).normal(size=(2, 6, 3, 3))
    parts = [ops.channel_slice(t(x), i, i + 2) for i in range(0, 6, 2)]
    np.testing.assert_array_equal(ops.channel_concat(parts).data, x)


# ---------------------------------------------------------------------------
# aux ops
# ---------------------------------------------------------------------------


def test_global_avg_pool_constant():
    out = ops.global_avg_pool(t(np.full((2, 3, 4, 4), 2.5)))
    assert out.shape == (2, 3, 1, 1)
    np.testing.assert_array_equal(out.data.ravel(), np.full(6, 2.5))


def test_relu6_clamps():
    out = ops.relu6(t(np.array([-1.0, 3.0, 9.0]).reshape(1, 3, 1, 1)))
    np.testing.assert_array_equal(out.data.ravel(), [0.0, 3.0, 6.0])


def test_relu_values():
    x = np.array([-2.0, 0.5]).reshape(1, 2, 1, 1)
    np.testing.assert_array_equal(ops.relu(t(x)).data.ravel(), [0.0, 0.5])


def test_fully_connected_gradients():
    rng = np.random.default_rng(16)
    arrays = [rng.normal(size=(3, 4, 1, 1)), rng.normal(size=(4, 2)), rng.normal(size=2)]
    err = gradcheck.check_fn(lambda x, w, b: ops.fully_connected(x, w, b), arrays, rng)
    assert err < 1e-6


def test_fully_connected_takes_rank4_input_only():
    with pytest.raises(ConfigurationError, match="rank-4"):
        ops.fully_connected(t(np.zeros((3, 4))), t(np.zeros((4, 2))), t(np.zeros(2)))


def test_batch_norm_train_normalizes_and_tracks_running_stats():
    rng = np.random.default_rng(17)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 5, 5))
    gamma, beta = parameter(np.ones(2)), parameter(np.zeros(2))
    mean, var = np.zeros(2), np.ones(2)
    out = ops.batch_norm(Tensor(x), gamma, beta, mean, var)
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)
    np.testing.assert_allclose(mean, 0.1 * x.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))


def _batch_norm_train(dtype, x, g, gamma, beta, running):
    """Outputs, gradients and updated running buffers of one training batch-norm at ``dtype``."""
    xt, gt, bt = (parameter(a.astype(dtype)) for a in (x, gamma, beta))
    mean, var = (r.copy() for r in running)
    out = ops.batch_norm(xt, gt, bt, mean, var)
    out.backward(g.astype(dtype))
    return {"out": out.data, "dx": xt.grad, "dgamma": gt.grad, "dbeta": bt.grad, "mean": mean, "var": var}


def test_batch_norm_train_float32_tracks_float64():
    rng = np.random.default_rng(34)
    shape = (4, 32, 56, 56)
    x, g = rng.normal(1.5, 3.0, size=shape), rng.normal(size=shape)
    args = (x, g, rng.uniform(0.5, 2.0, 32), rng.normal(size=32), (rng.normal(size=32), rng.uniform(0.5, 2.0, 32)))
    ref, got = _batch_norm_train(np.float64, *args), _batch_norm_train(np.float32, *args)
    for name, expect in ref.items():
        assert got[name].dtype == (np.float64 if name in ("mean", "var") else np.float32), name
        err = np.abs(got[name] - expect).max() / np.abs(expect).max()
        assert err <= 1e-6, f"{name}: float32 is {err:.3g} of the largest float64 value away"


def test_batch_norm_second_backward_matches_fresh_outputs_bitwise():
    # a second backward hands the op the same gradient array with new
    # contents (g2), so no per-channel sum may survive the first call
    rng = np.random.default_rng(35)
    x, g1, g2 = (rng.normal(size=(4, 3, 5, 5)) for _ in range(3))

    def inputs():
        return parameter(x), parameter(rng.uniform(0.5, 2.0, 3)), parameter(rng.normal(size=3))

    state = rng.bit_generator.state
    xt, gt, bt = inputs()
    out = ops.batch_norm(xt, gt, bt, np.zeros(3), np.ones(3))
    g = g1.copy()
    out.backward(g)
    g[...] = g2
    out.backward(g)
    rng.bit_generator.state = state
    fresh = inputs()
    for g in (g1, g2):
        ops.batch_norm(*fresh, np.zeros(3), np.ones(3)).backward(g)
    for a, b in zip((xt, gt, bt), fresh):
        np.testing.assert_array_equal(a.grad, b.grad)


def test_batch_norm_affine_gradients_do_not_depend_on_taping_x():
    rng = np.random.default_rng(36)
    x, g = rng.normal(size=(3, 4, 6, 6)), rng.normal(size=(3, 4, 6, 6))
    gamma, beta = rng.uniform(0.5, 2.0, 4), rng.normal(size=4)
    grads = []
    for xt in (Tensor(x), parameter(x)):
        gt, bt = parameter(gamma), parameter(beta)
        ops.batch_norm(xt, gt, bt, np.zeros(4), np.ones(4)).backward(g)
        grads.append((gt.grad, bt.grad))
    for plain, taped in zip(*grads):
        np.testing.assert_array_equal(plain, taped)


class _RawGradient(Tensor):
    """An input that keeps the gradient its op hands it as is, without adding it into ``grad``."""

    __slots__ = ("raw",)

    def accumulate_grad(self, g, fresh=False):
        self.raw = g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["relu", "relu6"])
def test_relu_gradients_are_g_times_the_float_mask_bitwise(name, dtype):
    # inf and NaN in g stay NaN where the mask is 0 (inf * 0), and -0.0
    # stays -0.0, as a select or a copy into zeros would not keep them
    x = np.array([-1.0, 0.0, 0.5, 5.0, 6.0, 7.0], dtype=dtype)
    g = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, -3.5], dtype=dtype)
    x = np.stack([x, x[::-1], np.roll(x, 2)]).reshape(1, 3, 2, 3)
    g = np.stack([g, np.roll(g, 1), np.roll(g, 3)]).reshape(1, 3, 2, 3)
    mask = x > 0 if name == "relu" else (x > 0) & (x < 6)
    xt = _RawGradient(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0
        getattr(ops, name)(xt)._backward(g)
        expect = g * mask.astype(g.dtype)
    assert xt.raw.dtype == dtype
    np.testing.assert_array_equal(xt.raw.view(f"u{g.itemsize}"), expect.view(f"u{g.itemsize}"))


@pytest.mark.parametrize("name", ["relu", "relu6"])
def test_inference_activation_allocates_only_its_output(name):
    x = Tensor((4.0 * np.random.default_rng(27).normal(size=(4, 32, 56, 56))).astype(np.float32))
    with no_tape():
        getattr(ops, name)(x)
        tracemalloc.start()
        try:
            out = getattr(ops, name)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.dtype == np.float32
    assert peak <= 1.25 * out.data.nbytes, f"{name} peaked at {peak / out.data.nbytes:.2f}x its output"


def test_float32_inputs_stay_float32():
    x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = ops.conv2d_standard(x, w)
    assert out.dtype == np.float32


def test_backward_on_nonscalar_without_upstream_raises():
    x = parameter(np.zeros((1, 1, 2, 2)))
    out = ops.relu(x)
    with pytest.raises(ConfigurationError, match="upstream"):
        out.backward()


def test_tape_recorded_only_when_an_input_needs_it():
    x = np.random.default_rng(19).normal(size=(1, 2, 2, 2))
    for out in (t(x) + t(x), ops.relu(t(x))):
        assert out._parents == () and out._backward is None
    w = parameter(x)
    for out in (w + t(x), ops.relu(w)):
        assert out._parents and out._backward is not None
    (w + ops.relu(w)).backward(np.ones(x.shape))
    np.testing.assert_array_equal(w.grad, 1.0 + (x > 0))


def test_no_tape_records_nothing_but_leaves_backward_working():
    x = np.random.default_rng(20).normal(size=(1, 2, 2, 2))
    w = parameter(x)
    recorded = ops.relu(w)
    with no_tape():
        assert ops.relu(w)._parents == ()
        recorded.backward(np.ones(x.shape))  # a tape recorded before still runs
    np.testing.assert_array_equal(w.grad, (x > 0).astype(float))
    assert ops.relu(w)._parents


def _never(g):
    raise AssertionError("gradient asked of an input that needs no tape")


def test_op_result_asks_only_inputs_that_need_the_tape():
    w, x = parameter(np.ones(3)), Tensor(np.ones(3))
    out = op_result(np.zeros(3), (x, _never), (w, lambda g: 2.0 * g))
    assert out._parents == (x, w)
    out.backward(np.array([1.0, -1.0, 0.5]))
    np.testing.assert_array_equal(w.grad, [2.0, -2.0, 1.0])
    assert x.grad is None


def test_op_result_is_a_leaf_without_a_taped_input():
    w, x = parameter(np.ones(3)), Tensor(np.ones(3))
    leaves = [op_result(np.zeros(3), (x, _never))]
    with no_tape():
        leaves.append(op_result(np.zeros(3), (w, _never)))
    for out in leaves:
        assert out._parents == () and out._backward is None


def test_tensor_passed_as_both_inputs_receives_both_gradients():
    w = parameter(np.arange(4.0))
    g = np.array([1.0, -2.0, 0.5, 3.0])
    out = w + w
    out.backward(g)
    np.testing.assert_array_equal(w.grad, 2 * g)
    np.testing.assert_array_equal(out.grad, g)  # the root's gradient was copied, not adopted and added into


def test_views_of_the_output_gradient_are_copied_not_adopted():
    w = parameter(np.random.default_rng(28).normal(size=(2, 3, 2, 2)))
    out = ops.channel_concat([w, w])
    g = np.arange(48.0).reshape(out.shape)
    out.backward(g)
    np.testing.assert_array_equal(w.grad, g[:, :3] + g[:, 3:])
    np.testing.assert_array_equal(out.grad, g)


def test_fresh_gradient_of_the_input_dtype_is_adopted_and_any_other_is_copied():
    w = parameter(np.zeros(3, dtype=np.float32))
    fresh = np.full(3, 2.0, dtype=np.float32)
    op_result(np.zeros(3), (w, lambda g: fresh)).backward(np.ones(3))
    assert w.grad is fresh
    v = parameter(np.zeros(3, dtype=np.float32))
    op_result(np.zeros(3), (v, lambda g: np.full(3, 2.0))).backward(np.ones(3))
    assert v.grad.dtype == np.float32 and np.array_equal(v.grad, fresh)


def test_global_avg_pool_gradient_is_copied_not_adopted():
    # its gradient is a read-only broadcast of g / (h * w), which a second backward must be able to add into
    x = parameter(np.random.default_rng(29).normal(size=(2, 3, 4, 4)))
    out = ops.global_avg_pool(x)
    g = np.arange(6.0).reshape(out.shape)
    out.backward(g)
    assert x.grad.flags.writeable and x.grad.flags.owndata
    # a one-op tape over leaves backpropagates again, and each pass adds only its own gradient
    out.backward(g)
    np.testing.assert_array_equal(x.grad, np.broadcast_to(2 * g / 16, x.shape))


def test_second_backward_through_a_released_node_raises_tape_error():
    x = parameter(np.random.default_rng(30).normal(size=(2, 3, 4, 4)))
    out = ops.global_avg_pool(ops.relu(x))
    g = np.ones(out.shape)
    out.backward(g)
    grad = x.grad.copy()
    with pytest.raises(TapeError, match="released"):
        out.backward(g)
    np.testing.assert_array_equal(x.grad, grad)  # the stub raised before anything reached the leaf


def test_backward_frees_each_interior_output_while_the_root_is_alive():
    rng = np.random.default_rng(31)
    x, w = Tensor(rng.normal(size=(2, 3, 4, 4))), parameter(rng.normal(size=(5, 3, 1, 1)))
    mid = ops.pointwise_conv(x, w)
    freed = weakref.ref(mid.data)
    loss = ops.global_avg_pool(ops.relu(mid))
    del mid
    assert freed() is not None  # the tape holds it until the backward
    loss.backward(np.ones(loss.shape))
    assert freed() is None and loss._backward is not None
    assert w.grad is not None


def test_parameter_gradients_of_a_training_step_share_no_memory():
    graph = models.apply_ulsam(models.build_mv1(1.0, 10, dtype=np.float32, seed=2), ["8:1", "9:1", "11"], 4)
    x = np.random.default_rng(32).normal(size=(2, 3, 32, 32)).astype(np.float32)
    training.cross_entropy(models.forward(graph, x, train=True), np.array([3, 8])).backward()
    params = list(graph.params.items())
    assert all(t.grad is not None and t.grad.shape == t.shape for _, t in params)
    for i, (name, t) in enumerate(params):
        for other, u in params[i:]:
            clash = [a for a in ([u.grad, u.data] if other != name else [t.data]) if np.may_share_memory(t.grad, a)]
            assert not clash, f"{name}.grad shares memory with {other}"


# each op on a plain (2, 2, 4, 4) data input ``x``; ``p(*shape)`` makes a parameter
WEIGHTED_OPS = {
    "add": lambda x, p: x + p(2, 2, 4, 4),
    "conv2d_standard": lambda x, p: ops.conv2d_standard(x, p(3, 2, 3, 3), 1, 1),
    "depthwise_conv": lambda x, p: ops.depthwise_conv(x, p(2, 3, 3), 2, 1),
    "pointwise_conv": lambda x, p: ops.pointwise_conv(x, p(3, 2, 1, 1)),
    "grouped_pointwise": lambda x, p: ops.grouped_pointwise(x, p(2), 2),
    "broadcast_mul_add": lambda x, p: ops.broadcast_mul_add(x, p(2, 1, 4, 4)),
    "channel_concat": lambda x, p: ops.channel_concat([x, p(2, 1, 4, 4)]),
    "fully_connected": lambda x, p: ops.fully_connected(x, p(32, 3), p(3)),
    "batch_norm": lambda x, p: ops.batch_norm(x, p(2), p(2), np.zeros(2), np.ones(2)),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_OPS))
def test_plain_data_input_gets_no_gradient_but_weights_do(name):
    rng = np.random.default_rng(23)
    weights = []

    def p(*shape):
        weights.append(parameter(rng.normal(size=shape)))
        return weights[-1]

    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    out = WEIGHTED_OPS[name](x, p)
    out.backward(rng.normal(size=out.shape))
    assert x.grad is None
    assert weights and all(w.grad is not None and w.grad.shape == w.shape for w in weights)


UNWEIGHTED_OPS = {
    "relu": ops.relu,
    "relu6": ops.relu6,
    "maxpool_3x3_p1": ops.maxpool_3x3_p1,
    "spatial_softmax": ops.spatial_softmax,
    "global_avg_pool": ops.global_avg_pool,
    "channel_slice": lambda x: ops.channel_slice(x, 0, 1),
    "reshape": lambda x: ops.reshape(x, (4, 16)),
    "slice1d": lambda x: ops.slice1d(Tensor(x.data.reshape(-1)), 3, 9),
}


@pytest.mark.parametrize("name", sorted(UNWEIGHTED_OPS))
def test_unweighted_op_on_plain_input_is_a_leaf(name):
    out = UNWEIGHTED_OPS[name](Tensor(np.random.default_rng(24).normal(size=(2, 2, 4, 4))))
    assert out._parents == () and out._backward is None


def test_parameter_keeps_dtype_and_aliasing():
    a64, a32 = np.arange(3.0), np.arange(3, dtype=np.float32)
    assert parameter(a64).data is a64 and parameter(a32).data is a32
    for data in ([1, 2], [1.5, 2.0], np.arange(3), 5):
        p = parameter(data)
        assert p.dtype == np.float64 and p.requires_grad
        np.testing.assert_array_equal(p.data, data)
