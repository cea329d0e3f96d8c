"""Closed-form cost formulas, the overhead table, and whole-model accounting."""

import numpy as np
import pytest

from ulsam import costs, models
from ulsam.costs import (
    AttentionOverheadQuery,
    analyze_model,
    attention_overhead,
    flops_dws,
    flops_sconv,
    format_report,
    format_table1,
    table1_rows,
)
from ulsam.errors import ConfigurationError
from ulsam.instrument import count_macs


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_flops_sconv_direct_evaluation():
    assert flops_sconv(3, 3, 32, 112, 112) == 10_838_016


def test_flops_sconv_pointwise_case():
    assert flops_sconv(1, 7, 11, 5, 3) == 7 * 11 * 5 * 3


def test_flops_sconv_single_pixel():
    assert flops_sconv(5, 1, 1, 1, 1) == 25


def test_flops_dws_direct_evaluation():
    assert flops_dws(3, 512, 512, 14, 14) == (903_168, 51_380_224)


def test_flops_dws_to_standard_ratio_identity():
    # s_k = 3, m = n: separable/standard = 1/n + 1/9
    for n in (8, 64, 512):
        dw, pw = flops_dws(3, n, n, 10, 10)
        ratio = (dw + pw) / flops_sconv(3, n, n, 10, 10)
        assert ratio == pytest.approx(1.0 / n + 1.0 / 9.0, rel=1e-12)


def test_flops_reject_nonpositive():
    with pytest.raises(ConfigurationError):
        flops_sconv(3, 0, 4, 2, 2)
    with pytest.raises(ConfigurationError):
        flops_dws(3, 4, 4, 0, 2)


# ---------------------------------------------------------------------------
# attention overhead formulas (m=512, t=m/8, r=16, 14x14)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params,macs", [
    ("NonLocal", 524_288, 102_760_448),
    ("A2Net", 65_536, 12_845_056),
    ("SENet", 32_768, 32_768),
    ("BAM", 83_968, 16_490_496),
    ("CBAM", 32_866, 51_976),
    ("ULSAM", 1_024, 200_704),
])
def test_overhead_values_at_reference_point(kind, params, macs):
    got = attention_overhead(AttentionOverheadQuery(kind, 512, 14, 14))
    assert got == {"params": params, "macs": macs}


def test_overhead_ulsam_takes_no_group_argument():
    q = AttentionOverheadQuery("ULSAM", 512, 14, 14)
    assert not hasattr(q, "groups") and not hasattr(q, "g")
    assert attention_overhead(q)["params"] == 2 * 512


def test_overhead_reduction_must_divide_channels():
    with pytest.raises(ConfigurationError, match="divide"):
        attention_overhead(AttentionOverheadQuery("SENet", 100, 14, 14, reduction=16))


def test_overhead_a2net_map_count_defaults_to_m_over_8():
    assert attention_overhead(AttentionOverheadQuery("A2Net", 64, 4, 4))["params"] == 2 * 64 * 8
    assert attention_overhead(AttentionOverheadQuery("A2Net", 10, 4, 4, maps=3))["params"] == 60
    with pytest.raises(ConfigurationError, match="divide"):
        attention_overhead(AttentionOverheadQuery("A2Net", 10, 4, 4))


def test_overhead_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="kind"):
        AttentionOverheadQuery("SGE", 512, 14, 14)


@pytest.mark.parametrize("m", [64, 256, 512])
def test_nonlocal_to_ulsam_param_ratio_is_m(m):
    nl = attention_overhead(AttentionOverheadQuery("NonLocal", m, 14, 14))
    ul = attention_overhead(AttentionOverheadQuery("ULSAM", m, 14, 14))
    assert nl["params"] / ul["params"] == m
    assert nl["macs"] / ul["macs"] == m


def test_table1_display_columns():
    rows = {r["kind"]: r for r in table1_rows()}
    assert [rows[k]["params_k"] for k in costs.ATTENTION_KINDS] == [524, 66, 33, 84, 33, 1]
    assert [rows[k]["macs_m"] for k in costs.ATTENTION_KINDS] == [102.76, 12.85, 0.03, 16.49, 0.05, 0.2]
    assert [rows[k]["norm_macs"] for k in costs.ATTENTION_KINDS] == [512, 64, 0.16, 82.16, 0.26, 1]
    # exact normalized params, as the acceptance suite checks them: the paper
    # prints 33x for the two MLP-only rows, but its formulas give m/r = 32 (SE)
    # and (2m^2/r + 98) / 2m = 32.1 (CBAM)
    assert [rows[k]["norm_params"] for k in costs.ATTENTION_KINDS] == [512, 64, 32, 82, 32.1, 1]


def test_table1_rendering_is_deterministic():
    assert format_table1() == format_table1()
    line = [l for l in format_table1().splitlines() if l.startswith("ULSAM")][0]
    assert [tok.strip() for tok in line.split("|")] == ["ULSAM", "1", "0.2", "1×", "1×"]


# ---------------------------------------------------------------------------
# whole-model accounting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mv1():
    return models.build_mv1(1.0, 1000, dtype=np.float32, seed=0)


@pytest.fixture(scope="module")
def mv2():
    return models.build_mv2(1000, dtype=np.float32, seed=0)


def test_mv1_reference_totals(mv1):
    r = analyze_model(mv1)
    assert r.total_params == 4_210_088
    assert r.total_macs == 568_740_352
    assert analyze_model(mv1, include_bn_params=True).total_params == 4_231_976


def test_mv1_totals_within_reference_tolerance(mv1):
    r = analyze_model(mv1)
    assert abs(r.total_params - 4.2e6) / 4.2e6 < 0.02
    assert abs(r.total_macs - 569e6) / 569e6 < 0.02


def test_mv1_pointwise_and_depthwise_shares(mv1):
    shares = analyze_model(mv1).shares
    assert shares["pointwise"] == pytest.approx(94.86, abs=0.5)
    assert shares["depthwise"] == pytest.approx(3.06, abs=0.5)


def test_mv1_layers_8_to_12_account_for_46_percent(mv1):
    r = analyze_model(mv1)
    mid = sum(row.macs for row in r.rows_for("8", "9", "10", "11", "12"))
    assert 100.0 * mid / r.total_macs == pytest.approx(46.0, abs=1.0)


def test_mv1_ulsam_reduction_is_52m_macs(mv1):
    base = analyze_model(mv1).total_macs
    mod = analyze_model(models.apply_ulsam(mv1, ["8:1", "9:1", "11"], g=4)).total_macs
    assert abs((base - mod) - 52e6) <= 2e6


def test_mv2_reference_totals(mv2):
    r = analyze_model(mv2)
    assert r.total_params == 3_470_760
    assert r.total_macs == 300_774_272
    assert abs(r.total_macs - 300e6) / 300e6 < 0.02


def test_totals_equal_sum_of_rows_exactly(mv1, mv2):
    for g in (mv1, mv2, models.apply_ulsam(mv2, ["14", "17"], 4)):
        r = analyze_model(g)
        assert r.total_params == sum(row.params for row in r.rows)
        assert r.total_macs == sum(row.macs for row in r.rows)
        assert sum(r.macs_by_kind.values()) == r.total_macs


def _closed_form_params(spec, bn):
    """One layer's parameter count from its shape alone, independent of the built tensors."""
    m, n = spec.in_channels, spec.out_channels
    if spec.kind == "conv":
        return spec.kernel**2 * m * n + n * spec.bias + 2 * n * (bn and spec.norm_act)
    if spec.kind == "dws":
        return 9 * m + m * n + bn * (2 * m + 2 * n)
    if spec.kind == "bottleneck":
        hidden = m * spec.expansion
        expand = m * hidden + bn * 2 * hidden if spec.expansion != 1 else 0
        return expand + 9 * hidden + hidden * n + bn * (2 * hidden + 2 * n)
    if spec.kind == "ulsam":
        return 2 * m
    if spec.kind == "fc":
        return m * n + n
    return 0


@pytest.mark.parametrize("bn", [False, True])
def test_row_params_match_closed_forms(mv1, mv2, bn):
    graphs = [mv1, mv2, models.apply_ulsam(mv1, ["8:1", "11"], 1), models.apply_ulsam(mv1, ["9:1"], 512),
              models.apply_ulsam(mv2, ["14", "17:1"], 32)]
    for g in graphs:
        rows = analyze_model(g, include_bn_params=bn).rows
        assert [r.params for r in rows] == [_closed_form_params(s, bn) for s in g.layers]


def test_shares_sum_to_100(mv1, mv2):
    for g in (mv1, mv2):
        assert sum(analyze_model(g).shares.values()) == pytest.approx(100.0, abs=0.01)


@pytest.mark.parametrize("alpha,params_ref,macs_ref", [(0.75, 2.6e6, 325e6), (0.5, 1.3e6, 149e6)])
def test_scaled_mv1_within_tolerance(alpha, params_ref, macs_ref):
    r = analyze_model(models.build_mv1(alpha, 1000, dtype=np.float32))
    assert abs(r.total_params - params_ref) / params_ref < 0.02
    assert abs(r.total_macs - macs_ref) / macs_ref < 0.02


def test_mv2_ulsam_mac_totals_within_tolerance(mv2):
    for pos, macs_ref in [(["14", "17"], 261.88e6), (["16", "17"], 269.07e6),
                          (["13", "14", "16", "17"], 223.77e6)]:
        r = analyze_model(models.apply_ulsam(mv2, pos, 4))
        assert abs(r.total_macs - macs_ref) / macs_ref < 0.02, pos


def test_report_metadata_carries_positions(mv2):
    r = analyze_model(models.apply_ulsam(mv2, ["13", "14", "16", "17"], 4))
    assert r.metadata["ulsam_positions"] == ["13", "14", "16", "17"]
    assert r.metadata["ulsam_g"] == 4


def test_report_json_fields(mv1):
    d = analyze_model(mv1).to_dict()
    assert set(d["layers"][0]) == {"layer", "kind", "params", "macs", "share"}
    assert d["totals"]["macs"] == 568_740_352
    assert sum(l["share"] for l in d["layers"]) == pytest.approx(100.0, abs=0.01)


def test_text_report_has_totals_line(mv1):
    text = format_report(analyze_model(mv1))
    assert "4.21M params / 568.74M MACs" in text


# ---------------------------------------------------------------------------
# analytic vs instrumented MACs
# ---------------------------------------------------------------------------


def test_instrumented_macs_match_analytic_exactly_tiny():
    g = models.apply_ulsam(models.build_mv1_tiny(4, width=8, dtype=np.float32, seed=1), ["3", "5:1"], g=4)
    report = analyze_model(g, input_hw=8)
    x = np.random.default_rng(0).standard_normal((1, 3, 8, 8)).astype(np.float32)
    with count_macs() as counter:
        models.forward(g, x, train=False)
    assert counter.by_kind == report.macs_by_kind
    assert counter.total == report.total_macs


def test_instrumented_macs_match_analytic_mv2_at_64():
    g = models.apply_ulsam(models.build_mv2(10, dtype=np.float32, seed=0), ["14", "17"], g=4)
    report = analyze_model(g, input_hw=64)
    x = np.zeros((1, 3, 64, 64), dtype=np.float32)
    with count_macs() as counter:
        models.forward(g, x, train=False)
    assert counter.by_kind == report.macs_by_kind


def test_counter_scales_linearly_with_batch():
    g = models.build_mv1_tiny(4, width=4, dtype=np.float32, seed=0)
    report = analyze_model(g, input_hw=8)
    with count_macs() as counter:
        models.forward(g, np.zeros((3, 3, 8, 8), dtype=np.float32))
    assert counter.total == 3 * report.total_macs
