"""Graph construction, position directives, and whole-model execution."""

import numpy as np
import pytest

from ulsam import costs, models, training
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


def test_end_to_end_gradients_match_finite_differences():
    from ulsam import gradcheck

    assert gradcheck.model_end_to_end(seed=0) < 1e-3


def test_mv2_forward_small_input():
    g = build_mv2(5, dtype=np.float32, seed=0)
    logits = models.forward(g, np.random.default_rng(2).normal(size=(1, 3, 32, 32)).astype(np.float32))
    assert logits.shape == (1, 5)
    assert np.all(np.isfinite(logits.data))


def test_predict_proba_rows_sum_to_one():
    g = build_mv1_tiny(4, seed=5)
    probs = models.predict_proba(g, np.random.default_rng(3).normal(size=(2, 3, 8, 8)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
