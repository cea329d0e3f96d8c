"""Subspace-attention block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulsam import gradcheck, instrument, ops
from ulsam.attention import (
    UlsamConfig,
    UlsamWeights,
    init_ulsam_weights,
    ulsam_attention_maps,
    ulsam_forward,
)
from ulsam.errors import ConfigurationError
from ulsam.tensor import Tensor, parameter


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def rand_weights(m, seed=0):
    rng = np.random.default_rng(seed)
    return UlsamWeights(parameter(rng.normal(size=m)), parameter(rng.normal(size=m)))


def zero_weights(m):
    return UlsamWeights(parameter(np.zeros(m)), parameter(np.zeros(m)))


def block_grads(cfg, x, weights, upstream):
    """(output, d_input, d_dw, d_pw) of one forward + backward through the block."""
    f = parameter(x)
    out = ulsam_forward(f, cfg, weights)
    out.backward(upstream)
    grads = [tt.grad if tt.grad is not None else np.zeros_like(tt.data) for tt in (f, weights.dw, weights.pw)]
    return (out.data, *grads)


# ---------------------------------------------------------------------------
# per-group reference
# ---------------------------------------------------------------------------


def reference_block(x, dw, pw, cfg, upstream):
    """The block run group by group, as the paper writes it, on NumPy arrays.

    Each group's channels and weight slices become leaf tensors that run
    through DW1x1, max-pool, a single-output pointwise conv, the spatial
    softmax and the redistribution, and the group's output is backpropagated
    from its slice of ``upstream``. NumPy places every group's results into
    (output, maps, d_input, d_dw, d_pw); the whole-tensor pass must match them.
    """
    b, m, h, w = x.shape
    width = cfg.group_width
    out, maps, dx = np.empty_like(x), np.empty((b, cfg.groups, h, w)), np.empty_like(x)
    ddw, dpw = np.empty(m), np.empty(m)
    for k in range(cfg.groups):
        group = slice(k * width, (k + 1) * width)
        f_k = parameter(x[:, group].copy())
        dw_k = parameter(dw[group].reshape(width, 1, 1))
        pw_k = parameter(pw[group].reshape(1, width, 1, 1))
        pooled = ops.maxpool_3x3_p1(ops.depthwise_conv(f_k, dw_k))
        a = ops.spatial_softmax(ops.pointwise_conv(pooled, pw_k))
        refined = ops.broadcast_mul_add(f_k, a)
        refined.backward(upstream[:, group])
        out[:, group], maps[:, k], dx[:, group] = refined.data, a.data[:, 0], f_k.grad
        ddw[group], dpw[group] = dw_k.grad.reshape(-1), pw_k.grad.reshape(-1)
    return out, maps, dx, ddw, dpw


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_whole_tensor_pass_matches_per_group_reference(g):
    m = 8
    rng = np.random.default_rng(30 + g)
    cfg = UlsamConfig(m, g)
    x = rng.normal(size=(2, m, 5, 4))
    upstream = rng.normal(size=x.shape)
    dw, pw = rng.normal(size=m), rng.normal(size=m)

    got = block_grads(cfg, x, UlsamWeights(parameter(dw), parameter(pw)), upstream)
    ref_out, ref_maps, *ref_grads = reference_block(x, dw, pw, cfg, upstream)
    for name, a, b in zip(("output", "d_input", "d_dw", "d_pw"), got, (ref_out, *ref_grads)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(), err_msg=name)
    weights = UlsamWeights(parameter(dw), parameter(pw))
    maps = ulsam_attention_maps(t(x), cfg, weights).data
    np.testing.assert_allclose(maps, ref_maps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("g", [1, 4, 16])
def test_block_alone_tallies_2bmhw_ulsam_macs(g):
    # the paper's 2mhw per item, for every g, under the block's own kind
    b, m, h, w = 2, 16, 5, 3
    x = np.random.default_rng(g).normal(size=(b, m, h, w))
    with instrument.count_macs(instrument.MacCounter()) as counter:
        ulsam_forward(t(x), UlsamConfig(m, g), rand_weights(m))
    assert counter.by_kind == {"ulsam": 2 * b * m * h * w}


# ---------------------------------------------------------------------------
# configuration and splitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,g", [(8, 3), (8, 16), (4, 0)])
def test_config_rejects_bad_group_counts(m, g):
    with pytest.raises(ConfigurationError):
        UlsamConfig(m, g)


def test_split_groups_contiguous_slices():
    # group k of the block is the g = 1 block run alone on channels [2k, 2k+2)
    # with the same slice of both weight vectors
    x = np.random.default_rng(0).normal(size=(2, 8, 3, 3))
    w = rand_weights(8)
    out = ulsam_forward(t(x), UlsamConfig(8, 4), w).data
    for k in range(4):
        lo, hi = 2 * k, 2 * k + 2
        alone = UlsamWeights(parameter(w.dw.data[lo:hi]), parameter(w.pw.data[lo:hi]))
        expect = ulsam_forward(t(x[:, lo:hi]), UlsamConfig(2, 1), alone).data
        np.testing.assert_allclose(out[:, lo:hi], expect, rtol=0, atol=1e-12)


def test_split_groups_degenerate_cases():
    rng = np.random.default_rng(1)
    x, w = rng.normal(size=(1, 4, 2, 2)), rng.normal(size=4)
    # one group: a single pointwise filter over every channel
    whole = ops.grouped_pointwise(t(x), t(w), 1)
    filt = t(w.reshape(1, 4, 1, 1))
    np.testing.assert_allclose(whole.data, ops.pointwise_conv(t(x), filt).data, rtol=0, atol=1e-15)
    # one channel per group: a per-channel scale, and one map per channel
    xt, wt = parameter(x), parameter(w)
    singles = ops.grouped_pointwise(xt, wt, 4)
    np.testing.assert_array_equal(singles.data, x * w[None, :, None, None])
    g = rng.normal(size=x.shape)
    singles.backward(g)
    np.testing.assert_array_equal(xt.grad, g * w[None, :, None, None])
    np.testing.assert_allclose(wt.grad, np.einsum("bchw,bchw->c", x, g), rtol=0, atol=1e-12)
    a = rng.normal(size=(1, 4, 2, 2))
    np.testing.assert_array_equal(ops.broadcast_mul_add(t(x), t(a)).data, a * x + x)


# float64 and float32 (the models' training type); widths 14 and 15 give one tile and two in depthwise_conv's band
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(2, 6, 14, 14), (3, 4, 5, 15)])
def test_first_stage_equals_the_1x1_depthwise_conv(dtype, shape):
    # DW1x1 runs as grouped_pointwise with one channel per group; the band of a
    # 1x1 depthwise kernel computes the same scale, its zeros adding nothing
    rng = np.random.default_rng(11)
    x, w, g = (rng.normal(size=s).astype(dtype) for s in (shape, shape[1], shape))
    grads = []
    for run in (lambda xt, wt: ops.grouped_pointwise(xt, wt, shape[1]),
                lambda xt, wt: ops.depthwise_conv(xt, ops.reshape(wt, (shape[1], 1, 1)))):
        xt, wt = parameter(x), parameter(w)
        out = run(xt, wt)
        out.backward(g)
        grads.append((out.data, xt.grad, wt.grad))
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = grads
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, ref_dx)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(dw, ref_dw, rtol=tol, atol=0)


def test_split_groups_uneven_rejected():
    with pytest.raises(ConfigurationError, match="divide"):
        ops.grouped_pointwise(t(np.zeros((1, 6, 2, 2))), t(np.zeros(6)), 4)
    with pytest.raises(ConfigurationError, match="divide"):
        ops.broadcast_mul_add(t(np.zeros((1, 6, 2, 2))), t(np.zeros((1, 4, 2, 2))))


# ---------------------------------------------------------------------------
# attention maps
# ---------------------------------------------------------------------------


def test_attention_map_zero_weights_uniform():
    rng = np.random.default_rng(2)
    f = t(rng.normal(size=(3, 2, 4, 5)))
    for g in (1, 2):
        for dw, pw in [(np.zeros(2), rng.normal(size=2)), (rng.normal(size=2), np.zeros(2))]:
            a = ulsam_attention_maps(f, UlsamConfig(2, g), UlsamWeights(parameter(dw), parameter(pw)))
            np.testing.assert_allclose(a.data, 1.0 / 20.0, rtol=0, atol=1e-15)


def test_attention_map_hand_softmax_values():
    # the softmax stage on logits (0, 0, 0, ln 3): exp sums to 6
    logits = t(np.array([0.0, 0.0, 0.0, np.log(3.0)]).reshape(1, 1, 2, 2))
    a = ops.spatial_softmax(logits)
    np.testing.assert_allclose(a.data.ravel(), [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-15)


def test_attention_map_unit_weights_matches_pool_softmax():
    rng = np.random.default_rng(3)
    f = t(rng.normal(size=(1, 1, 3, 3)))
    a = ulsam_attention_maps(f, UlsamConfig(1, 1), UlsamWeights(parameter(np.ones(1)), parameter(np.ones(1))))
    expect = ops.spatial_softmax(ops.maxpool_3x3_p1(f))
    np.testing.assert_array_equal(a.data, expect.data)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(4, 1), (4, 2), (4, 4), (6, 3), (8, 8)]),
       st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_attention_maps_sum_to_one(mg, b, h, w, seed):
    m, g = mg
    rng = np.random.default_rng(seed)
    f = Tensor(rng.normal(scale=3.0, size=(b, m, h, w)))
    maps = ulsam_attention_maps(f, UlsamConfig(m, g), rand_weights(m, seed))
    sums = maps.data.reshape(b, g, h * w).sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# the block: forward
# ---------------------------------------------------------------------------


def test_forward_zero_weights_residual_scaling():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(2, 8, 2, 2))
    out = ulsam_forward(t(f), UlsamConfig(8, 4), zero_weights(8))
    np.testing.assert_allclose(out.data, 1.25 * f, rtol=1e-15)


@pytest.mark.parametrize("g", [1, 2, 4, 8, 16])
def test_param_count_is_2m_for_512_channels(g):
    cfg = UlsamConfig(512, g)
    w = init_ulsam_weights(cfg, np.random.default_rng(0))
    assert w.dw.size + w.pw.size == 1024


@pytest.mark.parametrize("m,g,h,w", [(4, 2, 3, 3), (8, 1, 2, 5), (6, 6, 4, 1), (12, 4, 2, 2)])
def test_output_shape_equals_input_shape(m, g, h, w):
    f = t(np.random.default_rng(5).normal(size=(2, m, h, w)))
    out = ulsam_forward(f, UlsamConfig(m, g), rand_weights(m))
    assert out.shape == (2, m, h, w)


def test_group_locality_zeroing_other_groups():
    rng = np.random.default_rng(6)
    m, g, width = 8, 4, 2
    f = rng.normal(size=(1, m, 3, 3))
    weights = rand_weights(m, seed=3)
    base = ulsam_forward(t(f), UlsamConfig(m, g), weights).data
    for grp in range(g):
        lo, hi = grp * width, (grp + 1) * width
        zeroed = np.zeros_like(f)
        zeroed[:, lo:hi] = f[:, lo:hi]
        out = ulsam_forward(t(zeroed), UlsamConfig(m, g), weights).data
        np.testing.assert_array_equal(out[:, lo:hi], base[:, lo:hi])


def test_within_group_permutation_equivariance_bitwise():
    # eighth-integer lattice inputs/weights: the pointwise reduction is exact,
    # so reordering summands cannot perturb the logits
    rng = np.random.default_rng(7)
    m, g, width = 8, 2, 4
    f = rng.integers(-16, 17, size=(2, m, 3, 3)) / 8.0
    dw = rng.integers(-8, 9, size=m) / 8.0
    pw = rng.integers(-8, 9, size=m) / 8.0
    base = ulsam_forward(t(f), UlsamConfig(m, g), UlsamWeights(parameter(dw), parameter(pw))).data

    perm = np.arange(m)
    perm[0:width] = rng.permutation(width)  # permute inside group 0 only
    out = ulsam_forward(
        t(f[:, perm]), UlsamConfig(m, g),
        UlsamWeights(parameter(dw[perm]), parameter(pw[perm])),
    ).data
    np.testing.assert_array_equal(out, base[:, perm])


def test_group_independence_other_weights_irrelevant():
    rng = np.random.default_rng(8)
    m, g, width = 6, 3, 2
    f = rng.normal(size=(1, m, 4, 4))
    w1 = rand_weights(m, seed=1)
    w2 = UlsamWeights(parameter(w1.dw.data.copy()), parameter(w1.pw.data.copy()))
    w2.dw.data[width:] = 99.0  # clobber every other group's weights
    w2.pw.data[width:] = -99.0
    a = ulsam_forward(t(f), UlsamConfig(m, g), w1).data
    b = ulsam_forward(t(f), UlsamConfig(m, g), w2).data
    np.testing.assert_array_equal(a[:, :width], b[:, :width])


def test_forward_rejects_wrong_channel_count():
    with pytest.raises(ConfigurationError, match="channels"):
        ulsam_forward(t(np.zeros((1, 6, 2, 2))), UlsamConfig(8, 2), rand_weights(8))


# ---------------------------------------------------------------------------
# the block: backward
# ---------------------------------------------------------------------------


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    cfg = UlsamConfig(4, 2)
    arrays = [
        gradcheck.well_separated_windows(rng, (1, 4, 3, 3)),
        rng.normal(size=4),
        rng.normal(size=4),
    ]

    def fn(x, dw, pw):
        return ulsam_forward(x, cfg, UlsamWeights(dw, pw))

    assert gradcheck.check_fn(fn, arrays, rng) < 1e-4


def test_backward_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(10)
    cfg = UlsamConfig(6, 3)
    x = np.random.default_rng(11).normal(size=(2, 6, 3, 3))
    _, dx, ddw, dpw = block_grads(cfg, x, init_ulsam_weights(cfg, rng), np.zeros(x.shape))
    assert not dx.any() and not ddw.any() and not dpw.any()


def test_backward_group_locality_of_gradients():
    rng = np.random.default_rng(12)
    m, g, width = 8, 4, 2
    cfg = UlsamConfig(m, g)
    weights = init_ulsam_weights(cfg, rng)
    x = rng.normal(size=(1, m, 3, 3))
    upstream = np.zeros(x.shape)
    upstream[:, 0:width] = rng.normal(size=(1, width, 3, 3))  # group 0 only
    _, dx, ddw, dpw = block_grads(cfg, x, weights, upstream)
    assert not dx[:, width:].any()
    assert not ddw[width:].any() and not dpw[width:].any()


# ---------------------------------------------------------------------------
# g = m closed form
# ---------------------------------------------------------------------------


def case3_attention(f: Tensor, weights: UlsamWeights) -> Tensor:
    """Closed form of the g = m degenerate case: per-channel scalar gate.

    Computes softmax(a2 * maxpool(a1 * F_c)) for every channel c with plain
    scalar multiplies, reusing the same pooling and softmax kernels, so it is
    bitwise comparable with ``ulsam_attention_maps`` at g = m.
    """
    if f.ndim != 4:
        raise ConfigurationError(f"case3_attention: expected rank-4 input, got shape {f.shape}")
    b, m, h, w = f.shape
    if weights.dw.shape != (m,):
        raise ConfigurationError(f"case3_attention: weights length {weights.dw.shape[0]} != {m} channels (g = m)")
    a1 = weights.dw.data
    a2 = weights.pw.data
    z = Tensor(f.data * a1[None, :, None, None])
    p = ops.maxpool_3x3_p1(z)
    logits = p.data * a2[None, :, None, None]
    # fold channels into the batch extent so the per-channel softmax reuses the kernel
    s = ops.spatial_softmax(Tensor(logits.reshape(b * m, 1, h, w)))
    return Tensor(s.data.reshape(b, m, h, w))


def test_case3_unit_weights_is_pooled_softmax_per_channel():
    rng = np.random.default_rng(13)
    f = rng.normal(size=(1, 3, 4, 4))
    w = UlsamWeights(parameter(np.ones(3)), parameter(np.ones(3)))
    a = case3_attention(t(f), w)
    for c in range(3):
        expect = ops.spatial_softmax(ops.maxpool_3x3_p1(t(f[:, c : c + 1])))
        np.testing.assert_array_equal(a.data[:, c : c + 1], expect.data)


def test_case3_agrees_bitwise_with_grouped_path():
    rng = np.random.default_rng(14)
    f = t(rng.normal(size=(2, 3, 4, 4)))
    w = rand_weights(3, seed=5)
    closed = case3_attention(f, w)
    grouped = ulsam_attention_maps(f, UlsamConfig(3, 3), w)
    np.testing.assert_array_equal(closed.data, grouped.data)


def test_case3_zero_pointwise_gives_uniform_attention():
    rng = np.random.default_rng(15)
    f = t(rng.normal(size=(1, 2, 3, 3)))
    w = UlsamWeights(parameter(rng.normal(size=2)), parameter(np.zeros(2)))
    a = case3_attention(f, w)
    np.testing.assert_allclose(a.data, 1.0 / 9.0, atol=1e-15)


def test_case3_requires_full_grouping():
    with pytest.raises(ConfigurationError, match="g = m"):
        case3_attention(t(np.zeros((1, 4, 2, 2))), rand_weights(2))


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(0, 2**31 - 1))
def test_property_param_count_independent_of_g(g, seed):
    cfg = UlsamConfig(12, g)
    w = init_ulsam_weights(cfg, np.random.default_rng(seed))
    assert w.dw.size + w.pw.size == 24


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(4, 2), (6, 3), (8, 4)]), st.integers(1, 2),
       st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_property_shape_preserved(mg, b, h, w, seed):
    m, g = mg
    rng = np.random.default_rng(seed)
    f = Tensor(rng.normal(size=(b, m, h, w)))
    out = ulsam_forward(f, UlsamConfig(m, g), rand_weights(m, seed))
    assert out.shape == f.shape
