"""Kernel-level tests: forward values, shape validation, gradients, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulsam import gradcheck, instrument, ops
from ulsam.errors import ConfigurationError
from ulsam.tensor import Tensor, no_tape, parameter


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


def test_conv_kernels_check_bias_length():
    x = t(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ConfigurationError, match="bias shape"):
        ops.conv2d_standard(x, t(np.zeros((2, 3, 3, 3))), bias=t(np.zeros(3)))
    with pytest.raises(ConfigurationError, match="bias shape"):
        ops.pointwise_conv(x, t(np.zeros((2, 3, 1, 1))), bias=t(np.zeros(3)))


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
    win = ops._windows(xp, 3, 1, h, w).reshape(b, c, h, w, 9)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    bi = np.arange(b)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    hi = np.arange(h)[None, None, :, None]
    wi = np.arange(w)[None, None, None, :]
    np.add.at(dxp, (bi, ci, hi + idx // 3, wi + idx % 3), g)
    return out, dxp[:, :, 1 : 1 + h, 1 : 1 + w]


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
@pytest.mark.parametrize("h,w", [(1, 1), (1, 4), (4, 1), (2, 2), (5, 3), (14, 14)])
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
    assert counter.by_kind == {ops.CONV_POINTWISE: x.size}


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
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)]
    err = gradcheck.check_fn(lambda x, w, b: ops.fully_connected(x, w, b), arrays, rng)
    assert err < 1e-6


def test_batch_norm_train_normalizes_and_tracks_running_stats():
    rng = np.random.default_rng(17)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 5, 5))
    gamma, beta = parameter(np.ones(2)), parameter(np.zeros(2))
    mean, var = np.zeros(2), np.ones(2)
    out = ops.batch_norm(Tensor(x), gamma, beta, mean, var, train=True)
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)
    np.testing.assert_allclose(mean, 0.1 * x.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))


def test_batch_norm_infer_uses_running_stats_only():
    x = np.random.default_rng(18).normal(size=(2, 3, 2, 2))
    gamma, beta = parameter(np.full(3, 2.0)), parameter(np.full(3, 1.0))
    mean, var = np.array([1.0, 0.0, -1.0]), np.array([4.0, 1.0, 0.25])
    out = ops.batch_norm(Tensor(x), gamma, beta, mean.copy(), var.copy(), train=False)
    expect = 2.0 * (x - mean[None, :, None, None]) / np.sqrt(var[None, :, None, None] + 1e-5) + 1.0
    np.testing.assert_allclose(out.data, expect, rtol=1e-12)


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
