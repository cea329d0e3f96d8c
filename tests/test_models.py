"""Graph construction, position directives, and whole-model execution."""

import tracemalloc

import numpy as np
import pytest

from ulsam import costs, models, ops, training
from ulsam.errors import ConfigurationError, DirectiveError
from ulsam.models import (
    PositionDirective,
    apply_ulsam,
    build_mv1,
    build_mv1_tiny,
    build_mv2,
    parse_position,
    spatial_trace,
    validate_graph,
)
from ulsam.tensor import Tensor, no_tape, parameter


# ---------------------------------------------------------------------------
# directive grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,target,insert", [("11", 11, False), ("8:1", 8, True), (" 3 ", 3, False)])
def test_parse_position_accepts_grammar(text, target, insert):
    d = parse_position(text)
    assert d == PositionDirective(target, insert)
    assert str(d) == (f"{target}:1" if insert else str(target))


@pytest.mark.parametrize("text", ["9:2", "x", "8:", ":1", "8:1:1", "-3", "8.5", ""])
def test_parse_position_rejects_everything_else(text):
    with pytest.raises(DirectiveError, match="grammar"):
        parse_position(text)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_mv1_layer_plan():
    g = build_mv1(1.0, 1000, dtype=np.float32)
    numbered = g.numbered()
    assert sorted(numbered) == list(range(1, 15))
    assert g.layers[0].kind == "conv" and g.layers[0].stride == 2
    dws = [s for s in g.layers if s.kind == "dws"]
    assert len(dws) == 13
    assert [s.index for s in g.layers[-3:]] == ["pool", "fc", "softmax"]
    assert sum(1 for s in dws if (s.in_channels, s.out_channels) == (512, 512)) == 5


def test_mv1_prepool_feature_map_is_1024a_by_7():
    for alpha, want in [(1.0, 1024), (0.75, 768), (0.5, 512)]:
        g = build_mv1(alpha, 10, dtype=np.float32)
        trace = spatial_trace(g, 224)
        pre_pool = trace[len(g.layers) - 4]  # last dws row
        assert pre_pool == (7, 7)
        assert g.layers[-3].in_channels == want


def test_mv2_layer_plan_and_strides():
    g = build_mv2(1000, dtype=np.float32)
    numbered = g.numbered()
    assert sorted(numbered) == list(range(1, 21))
    strided = [s.index for s in g.layers if s.stride == 2]
    assert strided == ["1", "3", "5", "8", "15"]
    assert g.layers[numbered[2]].expansion == 1
    assert all(g.layers[numbered[i]].expansion == 6 for i in range(3, 19))
    assert spatial_trace(g, 224)[numbered[19]] == (7, 7)
    assert g.layers[numbered[19]].out_channels == 1280


def test_mv2_residual_skips_exactly_on_shape_preserving_blocks():
    g = build_mv2(10, dtype=np.float32)
    skips = [int(s.index) for s in g.layers if s.kind == "bottleneck" and s.has_skip]
    assert skips == [4, 6, 7, 9, 10, 11, 13, 14, 16, 17]


@pytest.mark.parametrize("alpha,c32", [(1.0, 32), (0.75, 24), (0.5, 16), (0.25, 8)])
def test_width_scaling_rounds_to_multiple_of_8(alpha, c32):
    assert models.scale_channels_8(32, alpha) == c32
    assert models.scale_channels_8(8, 0.1) == 8  # floor of 8


def test_mv1_rejects_bad_alpha():
    with pytest.raises(ConfigurationError, match="multiplier"):
        build_mv1(0.0, 10)
    with pytest.raises(ConfigurationError, match="multiplier"):
        build_mv1(1.5, 10)


@pytest.mark.parametrize("arch", ["mv1", "mv2", "mv1-tiny"])
@pytest.mark.parametrize("num_classes, message", [
    (0, 'field "num_classes": must be >= 1, got 0'),
    # NumPy refuses the classifier's weights at once: too large to allocate, and past its largest array
    (10**15, 'field "num_classes": a classifier for 1000000000000000 classes does not fit in memory'),
    (2**62, f'field "num_classes": a classifier for {2**62} classes does not fit in memory'),
])
def test_every_builder_checks_num_classes_naming_the_field(arch, num_classes, message):
    with pytest.raises(ConfigurationError) as raised:
        models.build_model(arch, num_classes=num_classes)
    assert str(raised.value) == message


@pytest.mark.parametrize("graph", [
    build_mv1(0.5, 10),
    apply_ulsam(build_mv2(10), ["14", "9:1"], g=4),
    apply_ulsam(build_mv1_tiny(4), ["5:1"], g=2),
], ids=["mv1-0.5", "mv2-ulsam", "mv1-tiny-ulsam"])
def test_layer_convs_name_every_conv_tensor_and_spatial_trace_matches_forward(graph):
    named = set()
    for spec in graph.layers:
        for c in models.layer_convs(spec):
            taps = (c.kernel, c.kernel) if c.op == ops.CONV_DEPTHWISE else (c.cin, c.kernel, c.kernel)
            assert graph.params[c.weight].shape == (c.cout,) + taps
            named |= {c.weight, f"{c.bn}.g", f"{c.bn}.b"}
        if spec.kind in ("ulsam", "fc"):
            named |= {n for n in graph.params if n.startswith(models._prefix(spec) + ".")}
    assert named == set(graph.params)
    # 40 -> 20 -> 10 -> 5 -> 3 -> 2: odd extents exercise the floor division
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 40, 40)))
    with no_tape():
        for spec, hw in zip(graph.layers, spatial_trace(graph, 40)):
            x = models._layer_forward(graph, spec, x, False)
            assert x.ndim == 2 or x.shape[2:] == hw  # mv1's pool emits (batch, channels)


def test_validate_graph_catches_channel_breaks():
    g = build_mv1_tiny(4)
    g.layers[2].in_channels = 99
    with pytest.raises(ConfigurationError, match="in_channels"):
        validate_graph(g)


# ---------------------------------------------------------------------------
# attention placement
# ---------------------------------------------------------------------------


def test_insert_adds_exactly_2m_params_per_directive():
    base = build_mv1(1.0, 1000, dtype=np.float32)
    before = costs.analyze_model(base).total_params
    g = apply_ulsam(base, ["8:1", "9:1"], g=4)
    after = costs.analyze_model(g).total_params
    assert after - before == 2 * 2 * 512


def test_substitute_swaps_block_params_for_2m():
    base = build_mv1(1.0, 1000, dtype=np.float32)
    report = costs.analyze_model(base)
    block_params = next(r.params for r in report.rows if r.layer == "11")
    g = apply_ulsam(base, ["11"], g=4)
    delta = costs.analyze_model(g).total_params - report.total_params
    assert delta == 2 * 512 - block_params
    assert block_params == 9 * 512 + 512 * 512


def test_apply_then_remove_round_trips_cost_report():
    base = build_mv2(1000, dtype=np.float32)
    before = costs.analyze_model(base)
    modified = apply_ulsam(base, ["14", "17:1"], g=4)
    again = costs.analyze_model(base)  # the base graph is untouched
    assert before.total_params == again.total_params
    assert before.total_macs == again.total_macs
    assert [r.layer for r in before.rows] == [r.layer for r in again.rows]
    assert costs.analyze_model(modified).total_macs != before.total_macs


def test_positions_metadata_uses_table_grammar():
    g = apply_ulsam(build_mv1(1.0, 10, dtype=np.float32), ["11", "8:1", "9:1"], g=4)
    assert g.ulsam_positions == ["8:1", "9:1", "11"]
    assert g.ulsam_g == 4
    assert [s.index for s in g.layers if s.kind == "ulsam"] == ["8:1", "9:1", "11"]


def test_no_directives_place_no_blocks():
    g = apply_ulsam(build_mv1_tiny(4), [], 4)
    assert g.ulsam_positions == []
    assert g.ulsam_g is None


@pytest.mark.parametrize("first,second", [(["8:1"], ["9:1"]), (["11"], ["8:1"])])
def test_second_apply_ulsam_rejected(first, second):
    # every block is placed in one call; a second call would lose track of the first
    g = apply_ulsam(build_mv1(1.0, 10, dtype=np.float32), first, 4)
    with pytest.raises(DirectiveError, match="already has attention blocks"):
        apply_ulsam(g, second, 4)


@pytest.mark.parametrize("groups", [0, -2])
def test_group_count_below_one_rejected(groups):
    base = build_mv1(1.0, 10, dtype=np.float32)
    with pytest.raises(DirectiveError, match=f"got {groups}"):
        apply_ulsam(base, ["11"], g=groups)


def test_ulsam_layers_never_change_spatial_extents():
    base = build_mv2(10, dtype=np.float32)
    g = apply_ulsam(base, ["14", "17", "9:1"], g=4)
    trace = spatial_trace(g, 224)
    for i, spec in enumerate(g.layers):
        if spec.kind == "ulsam":
            assert trace[i] == trace[i - 1]
    # the stride pyramid is untouched: pre-pool geometry matches the base graph
    base_trace = spatial_trace(base, 224)
    assert trace[[s.index for s in g.layers].index("19")] == base_trace[base.numbered()[19]]


@pytest.mark.parametrize("directive,err", [
    ("99", "does not exist"),
    ("1", "substituted"),       # stem conv cannot be substituted
    ("13", "stride 1"),         # mv1 layer 13 has stride 2
    ("3", "stride 1"),          # mv1 layer 3 changes channels
])
def test_substitution_validation(directive, err):
    base = build_mv1(1.0, 10, dtype=np.float32)
    with pytest.raises(DirectiveError, match=err):
        apply_ulsam(base, [directive], g=4)


def test_group_count_must_divide_target_channels():
    base = build_mv2(10, dtype=np.float32)
    with pytest.raises(DirectiveError, match="divide"):
        apply_ulsam(base, ["14"], g=5)  # 96 channels


def test_mv2_head_is_pool_then_fully_connected():
    g = build_mv2(10, dtype=np.float32)
    assert [(s.kind, s.index) for s in g.layers[-4:]] == [
        ("conv", "19"), ("gap", "pool"), ("fc", "20"), ("softmax", "softmax")]
    assert g.params["L20.w"].shape == (1280, 10) and g.params["L20.b"].shape == (10,)
    assert sorted(g.numbered()) == list(range(1, 21))


@pytest.mark.parametrize("directive", ["20:1", "20"])
def test_no_block_goes_at_the_classifier(directive):
    with pytest.raises(DirectiveError, match="layer 20 is the classifier"):
        apply_ulsam(build_mv2(10, dtype=np.float32), [directive], 4)


def test_mv2_substitution_removes_whole_bottleneck():
    base = build_mv2(1000, dtype=np.float32)
    g = apply_ulsam(base, ["14"], g=4)
    assert not any(name.startswith("L14.") and "dw" not in name and "pw" not in name for name in g.params)
    assert set(n for n in g.params if n.startswith("L14.")) == {"L14.dw", "L14.pw"}
    row = next(r for r in costs.analyze_model(g).rows if r.layer == "14")
    assert row.kind == "ulsam" and row.params == 2 * 96


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def test_logits_shape_and_batch_independence_on_zero_input():
    g = build_mv1_tiny(4, seed=2)
    logits = models.forward(g, np.zeros((3, 3, 8, 8))).data
    assert logits.shape == (3, 4)
    np.testing.assert_array_equal(logits[0], logits[1])
    np.testing.assert_array_equal(logits[0], logits[2])


def test_inference_forward_is_bitwise_deterministic():
    g = apply_ulsam(build_mv1_tiny(4, seed=3), ["5:1"], g=4)
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
    a = models.forward(g, x, train=False).data
    b = models.forward(g, x, train=False).data
    np.testing.assert_array_equal(a, b)


def test_forward_rejects_small_input():
    g = build_mv1(1.0, 10, dtype=np.float32)
    with pytest.raises(ConfigurationError, match="minimum"):
        models.forward(g, np.zeros((1, 3, 16, 16), dtype=np.float32))


def test_forward_rejects_wrong_channel_count():
    g = build_mv1_tiny(4)
    with pytest.raises(ConfigurationError, match="channels"):
        models.forward(g, np.zeros((1, 1, 8, 8)))


def test_backward_fills_every_parameter_gradient():
    g = apply_ulsam(build_mv1_tiny(4, width=4, seed=4), ["5:1"], g=2)
    rng = np.random.default_rng(1)
    logits = models.forward(g, rng.normal(size=(2, 3, 8, 8)), train=True)
    loss = training.cross_entropy(logits, np.array([0, 3]))
    loss.backward()
    for name, p in g.params.items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name


def test_inference_output_keeps_no_parents():
    g = apply_ulsam(build_mv1_tiny(4, width=4, seed=4), ["5:1"], g=2)
    logits = models.forward(g, np.random.default_rng(1).normal(size=(2, 3, 8, 8)), train=False)
    assert logits._parents == () and logits._backward is None


def test_training_forward_after_inference_fills_every_gradient():
    g = apply_ulsam(build_mv1_tiny(4, width=4, seed=4), ["5:1"], g=2)
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    models.forward(g, x, train=False)
    training.cross_entropy(models.forward(g, x, train=True), np.array([0, 3])).backward()
    for name, p in g.params.items():
        assert p.grad is not None and p.grad.shape == p.data.shape, name


def test_tape_recorded_again_after_inference_forward_raised(monkeypatch):
    def failing_layer(graph, spec, x, train):
        raise RuntimeError("layer failed")

    monkeypatch.setattr(models, "_layer_forward", failing_layer)
    with pytest.raises(RuntimeError, match="layer failed"):
        models.forward(build_mv1_tiny(4), np.zeros((1, 3, 8, 8)), train=False)
    assert ops.relu(parameter(np.ones(2)))._parents


def test_inference_layer_frees_each_intermediate_once_consumed():
    # MV1 layer 2 (dws 32 -> 64 at 112x112): with each op's result rebound as
    # soon as the next op has read it, and batch-norm and the activation run
    # in place on each conv's output, at most the 32-channel depthwise output
    # and the 64-channel pointwise output are alive at once (1.5x the output)
    g = build_mv1(1.0, 10, dtype=np.float32)
    spec = next(s for s in g.layers if s.index == "2")
    assert (spec.kind, spec.in_channels, spec.out_channels, spec.stride) == ("dws", 32, 64, 1)
    x = Tensor(np.random.default_rng(6).normal(size=(1, 32, 112, 112)).astype(np.float32))
    with no_tape():
        models._layer_forward(g, spec, x, False)
        tracemalloc.start()
        try:
            out = models._layer_forward(g, spec, x, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (1, 64, 112, 112)
    assert peak <= 1.6 * out.data.nbytes, f"layer 2 peaked at {peak / out.data.nbytes:.2f}x its output"


def test_training_step_backward_releases_the_tape_as_it_goes():
    # MV1+ULSAM at the paper's placement, batch 2 at 64x64: a backward that kept every node until it ended peaked
    # at 2.68x what the forward kept, and left 3x the parameters' gradient bytes alive until the loss was dropped
    graph = apply_ulsam(build_mv1(1.0, 10, dtype=np.float32, seed=1), ["8:1", "9:1", "11"], 4)
    x = np.random.default_rng(42).normal(size=(2, 3, 64, 64)).astype(np.float32)
    grad_bytes = sum(t.data.nbytes for t in graph.params.values())
    tracemalloc.start()
    try:
        loss = training.cross_entropy(models.forward(graph, x, train=True), np.array([2, 5]))
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * kept, f"the backward peaked at {peak / kept:.2f}x what the forward kept"
    assert abs(left - grad_bytes) <= 0.1 * grad_bytes, f"{left / grad_bytes:.2f}x the gradient bytes left alive"


def _randomize_batch_norms(graph, rng):
    """Non-trivial running statistics, gamma and beta for every batch-norm, in the graph's dtype."""
    for name, buf in graph.buffers.items():
        buf[...] = rng.uniform(0.5, 2.0, buf.shape) if name.endswith(".var") else rng.normal(0.0, 0.2, buf.shape)
    for name, t in graph.params.items():
        if ".bn" in name:
            t.data[...] = rng.uniform(0.5, 1.5, t.shape) if name.endswith(".g") else rng.normal(0.0, 0.2, t.shape)


def _reference_logits(graph, x):
    """Inference logits from the unfolded convs, then batch-norm's formula, then the activation."""
    acts = {"relu": lambda a: np.maximum(a, 0.0), "relu6": lambda a: np.minimum(np.maximum(a, 0.0), 6.0)}
    convs = {ops.CONV_STANDARD: ops.conv2d_standard, ops.CONV_DEPTHWISE: ops.depthwise_conv}
    out = Tensor(x)
    with no_tape():
        for spec in graph.layers:
            if not models.layer_convs(spec):  # attention, pool, FC and softmax rows have no batch-norm
                out = models._layer_forward(graph, spec, out, False)
                continue
            y = out
            for c in models.layer_convs(spec):
                w = graph.params[c.weight]
                y = ops.pointwise_conv(y, w) if c.op == ops.CONV_POINTWISE else convs[c.op](y, w, c.stride, c.kernel // 2)
                mean, var = (graph.buffers[f"{c.bn}.{k}"][:, None, None] for k in ("mean", "var"))
                gamma, beta = (graph.params[f"{c.bn}.{k}"].data[:, None, None] for k in ("g", "b"))
                z = (y.data - mean) / np.sqrt(var + ops.BN_EPS) * gamma + beta
                y = Tensor(acts[spec.act](z) if c.act else z)
            out = out + y if spec.has_skip else y
    return out.data


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("arch", ["mv2", "mv1+ulsam", "mv1-tiny"])
def test_inference_matches_the_batch_norm_formula_with_random_statistics(arch, dtype, tol):
    build = {"mv2": lambda: build_mv2(10, dtype=dtype, seed=1),
             "mv1+ulsam": lambda: apply_ulsam(build_mv1(1.0, 10, dtype=dtype, seed=1), ["8:1", "9:1", "11"], 4),
             "mv1-tiny": lambda: build_mv1_tiny(4, dtype=dtype, seed=1)}
    graph = build[arch]()
    rng = np.random.default_rng(41)
    _randomize_batch_norms(graph, rng)
    x = rng.normal(size=(2, 3, 32, 32)).astype(dtype)

    def state():
        return {k: t.data.tobytes() for k, t in graph.params.items()}, {k: b.tobytes() for k, b in graph.buffers.items()}

    before = state()
    got = models.forward(graph, x, train=False).data
    assert state() == before  # the fold writes nothing back into the graph
    expect = _reference_logits(graph, x)
    assert got.dtype == expect.dtype == dtype
    err = np.abs(got - expect).max() / np.abs(expect).max()
    assert err <= tol, f"{arch}: logits are {err:.3g} of the largest logit away from the formula"


def test_inference_conv_row_folds_running_statistics_into_the_conv():
    g = build_mv1_tiny(4, dtype=np.float64)
    spec = g.layers[0]
    assert (spec.kind, spec.act) == ("conv", "relu")
    gamma, beta = g.params["L1.bn.g"], g.params["L1.bn.b"]
    gamma.data[...], beta.data[...] = 2.0, 1.0
    mean, var = np.linspace(-1.0, 1.0, 8), np.linspace(0.25, 4.0, 8)
    g.buffers["L1.bn.mean"][...], g.buffers["L1.bn.var"][...] = mean, var
    x = Tensor(np.random.default_rng(18).normal(size=(2, 3, 6, 6)))
    conv = ops.conv2d_standard(x, g.params["L1.w"], 1, 1).data
    with no_tape():
        out = models._layer_forward(g, spec, x, False)
    expect = np.maximum(2.0 * (conv - mean[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5) + 1.0, 0.0)
    np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(g.buffers["L1.bn.mean"], mean)
    np.testing.assert_array_equal(g.buffers["L1.bn.var"], var)


def test_inference_conv_row_epilogue_allocates_nothing_beyond_the_conv_output():
    # MV2 layer 19 (k=1, 320 -> 1280, relu6): the row may hold the folded copy
    # of its weights beside what the conv itself allocates, but its shift and
    # activation run in place on the conv's output
    g = build_mv2(10, dtype=np.float32)
    spec = next(s for s in g.layers if s.index == "19")
    assert (spec.kind, spec.kernel, spec.act) == ("conv", 1, "relu6")
    _randomize_batch_norms(g, np.random.default_rng(27))
    x = Tensor(np.random.default_rng(28).normal(size=(4, 320, 7, 7)).astype(np.float32))
    weight = Tensor(g.params["L19.w"].data.copy())

    def peak_of(run):
        run()
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with no_tape():
        _, conv_peak = peak_of(lambda: ops.conv2d_standard(x, weight, 1, 0))
        out, row_peak = peak_of(lambda: models._layer_forward(g, spec, x, False))
    assert out.shape == (4, 1280, 7, 7) and out.dtype == np.float32
    extra = row_peak - conv_peak - weight.data.nbytes
    assert extra <= 0.25 * out.data.nbytes, f"the epilogue added {extra / out.data.nbytes:.2f}x the conv output"


def test_end_to_end_gradients_match_finite_differences():
    from ulsam import gradcheck

    assert gradcheck.model_end_to_end(seed=0) < 1e-3


def test_mv2_forward_small_input():
    g = build_mv2(5, dtype=np.float32, seed=0)
    logits = models.forward(g, np.random.default_rng(2).normal(size=(1, 3, 32, 32)).astype(np.float32))
    assert logits.shape == (1, 5)
    assert np.all(np.isfinite(logits.data))

