"""Cost accounting: parameters and multiply-accumulates.

All counts are exact integers. "MACs" counts one multiply-accumulate per
kernel tap of every convolution/FC layer (the usual mobile-CNN convention,
where this quantity is often labelled FLOPs); normalization, activations,
pooling, softmax, and the attention block's elementwise redistribution are
excluded. MACs come from closed forms, a reference independent of the
kernels' own tallies: ``flops_sconv`` or ``flops_dws`` applied to each
convolution that ``models.layer_convs`` lists for a layer, at that conv's
output extents, split by the kinds the kernels tally under (standard,
depthwise, pointwise, ulsam, fc).
Table 1's :func:`attention_overhead` fixes A2Net's maps at m / 8 and the MLP
reduction at ``REDUCTION`` = 16.

Parameter counts are the sizes of the built graph's weight and bias tensors.
Batch-norm affine pairs are excluded by default - that is the accounting that
reproduces the widely quoted MobileNet totals (4.2M parameters / 569M MACs at
width 1.0) and their attention-modified variants - and can be included with
``include_bn_params=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .models import KIND_FC, KIND_ULSAM, ModelGraph, conv_extent, layer_convs, spatial_trace
from .ops import CONV_DEPTHWISE

# ---------------------------------------------------------------------------
# closed-form costs
# ---------------------------------------------------------------------------


def flops_sconv(s_k: int, m: int, n: int, h: int, w: int) -> int:
    """MACs of a standard convolution: s_k^2 * m * n * h * w (output extents h, w)."""
    if min(s_k, m, n, h, w) < 1:
        raise ConfigurationError("flops_sconv: all arguments must be positive")
    return s_k * s_k * m * n * h * w


def flops_dws(s_k: int, m: int, n: int, h: int, w: int) -> tuple[int, int]:
    """(depthwise, pointwise) MACs of a separable convolution."""
    if min(s_k, m, n, h, w) < 1:
        raise ConfigurationError("flops_dws: all arguments must be positive")
    return s_k * s_k * m * h * w, m * n * h * w


ATTENTION_KINDS = ("NonLocal", "A2Net", "SENet", "BAM", "CBAM", "ULSAM")
REDUCTION = 16  # MLP shrink ratio r of the SE/BAM/CBAM baselines


def attention_overhead(kind: str, m: int, h: int, w: int) -> dict[str, int]:
    """Exact {params, macs} for one attention block on an m x h x w feature map.

    The BAM spatial branch assumes its fixed dilation-4 pair of 3x3
    convolutions, which is where the 18 m^2 / r^2 term comes from.
    """
    if kind not in ATTENTION_KINDS:
        raise ConfigurationError(f"unknown attention kind {kind!r} (expected one of {ATTENTION_KINDS})")
    if min(m, h, w) < 1:
        raise ConfigurationError("attention overhead: channels and spatial extents must be >= 1")
    hw = h * w
    if kind == "NonLocal":
        return {"params": 2 * m * m, "macs": 2 * m * m * hw}
    if kind == "A2Net":
        if m % 8 != 0:
            raise ConfigurationError(f"A2Net map count is m / 8, but 8 does not divide m = {m}")
        t = m // 8
        return {"params": 2 * m * t, "macs": 2 * m * t * hw}
    if kind == "ULSAM":
        return {"params": 2 * m, "macs": 2 * m * hw}
    r = REDUCTION
    if m % r != 0:
        raise ConfigurationError(f"reduction ratio {r} does not divide channels {m}")
    mlp = 2 * m * m // r
    if kind == "SENet":
        return {"params": mlp, "macs": mlp}
    if kind == "BAM":
        p = 4 * m * m // r + 18 * m * m // (r * r)
        return {"params": p, "macs": mlp + p * hw}
    # CBAM: the channel MLP plus a fixed 7x7x2 spatial kernel (98 weights)
    return {"params": mlp + 98, "macs": mlp + 98 * hw}


def table1_rows() -> list[dict]:
    """The six-block overhead comparison, normalized against the subspace block.

    Every block sits at the paper's reference point: m = 512 channels on a
    14x14 map, MLP reduction r = 16, and A2Net's m / 8 maps.
    Normalized columns are the exact ratios of the unrounded counts, shown to
    two decimals; display columns round params to thousands and MACs to
    hundredths of a million.
    """
    base = attention_overhead("ULSAM", 512, 14, 14)
    rows = []
    for kind in ATTENTION_KINDS:
        c = attention_overhead(kind, 512, 14, 14)
        rows.append(
            {
                "kind": kind,
                "params": c["params"],
                "macs": c["macs"],
                "params_k": round(c["params"] / 1e3),
                "macs_m": round(c["macs"] / 1e6, 2),
                "norm_params": round(c["params"] / base["params"], 2),
                "norm_macs": round(c["macs"] / base["macs"], 2),
            }
        )
    return rows


def _fmt(x: float) -> str:
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def format_table1(rows: list[dict]) -> str:
    header = f"{'Attention':<10} | {'Params (x10^3)':>14} | {'MACs (x10^6)':>12} | {'Params (norm.)':>14} | {'MACs (norm.)':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['kind']:<10} | {r['params_k']:>14} | {_fmt(r['macs_m']):>12} | "
            f"{_fmt(r['norm_params']) + '×':>14} | {_fmt(r['norm_macs']) + '×':>12}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# whole-model accounting
# ---------------------------------------------------------------------------


@dataclass
class CostRow:
    layer: str
    kind: str
    params: int
    macs: int


@dataclass
class CostReport:
    rows: list[CostRow]
    total_params: int
    total_macs: int
    macs_by_kind: dict[str, int]
    shares: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        total = self.total_macs or 1
        return {
            "layers": [
                {"layer": r.layer, "kind": r.kind, "params": r.params, "macs": r.macs,
                 "share": round(100.0 * r.macs / total, 4)}
                for r in self.rows
            ],
            "totals": {"params": self.total_params, "macs": self.total_macs},
            "macs_by_kind": dict(self.macs_by_kind),
            "shares": {k: round(v, 4) for k, v in self.shares.items()},
            "metadata": dict(self.metadata),
        }


def analyze_model(graph: ModelGraph, input_hw: int = 224, include_bn_params: bool = False) -> CostReport:
    """Per-layer and total parameter/MAC accounting for a built graph."""
    trace = spatial_trace(graph, input_hw)
    rows: list[CostRow] = []
    macs_by_kind: dict[str, int] = {}
    for spec, (h, w), (h_out, w_out) in zip(graph.layers, [(input_hw, input_hw)] + trace, trace):
        tallies = []  # (kind, MACs) of each multiply-accumulate op the layer runs
        for c in layer_convs(spec):
            h, w = conv_extent(h, c), conv_extent(w, c)
            args = (c.kernel, c.cin, c.cout, h, w)
            tallies.append((c.op, flops_dws(*args)[0] if c.op == CONV_DEPTHWISE else flops_sconv(*args)))
        if spec.kind == KIND_ULSAM:
            tallies.append(("ulsam", 2 * spec.in_channels * h_out * w_out))
        elif spec.kind == KIND_FC:
            tallies.append(("fc", spec.in_channels * spec.out_channels))
        for kind, macs in tallies:
            macs_by_kind[kind] = macs_by_kind.get(kind, 0) + macs
        rows.append(CostRow(layer=spec.index, kind=spec.kind, macs=sum(macs for _, macs in tallies),
                            params=sum(t.size for t in graph.layer_params(spec, include_bn_params))))

    total_params = sum(r.params for r in rows)
    total_macs = sum(r.macs for r in rows)
    shares = {k: 100.0 * v / total_macs for k, v in macs_by_kind.items()} if total_macs else {}
    return CostReport(
        rows=rows,
        total_params=total_params,
        total_macs=total_macs,
        macs_by_kind=macs_by_kind,
        shares=shares,
        metadata={
            "arch": graph.arch,
            "alpha": graph.alpha,
            "num_classes": graph.num_classes,
            "input_hw": input_hw,
            "include_bn_params": include_bn_params,
            "ulsam_positions": graph.ulsam_positions,
            "ulsam_g": graph.ulsam_g,
        },
    )


def format_report(report: CostReport) -> str:
    """Human-readable aligned table with totals and per-kind MAC shares."""
    lines = []
    meta = report.metadata
    title = f"{meta.get('arch', '?')}"
    if meta.get("arch") == "mv1":
        title += f" (alpha={meta.get('alpha')})"
    if meta.get("ulsam_positions"):
        title += f" + ulsam(g={meta.get('ulsam_g')}) at ({', '.join(meta['ulsam_positions'])})"
    lines.append(f"model: {title}   input: {meta.get('input_hw')}x{meta.get('input_hw')}")
    lines.append(f"{'layer':>8}  {'kind':<12} {'params':>12} {'macs':>14} {'share%':>8}")
    total = report.total_macs or 1
    for r in report.rows:
        lines.append(f"{r.layer:>8}  {r.kind:<12} {r.params:>12,} {r.macs:>14,} {100.0 * r.macs / total:>8.2f}")
    lines.append(
        f"{'total':>8}  {'':<12} {report.total_params:>12,} {report.total_macs:>14,} "
        f"({report.total_params / 1e6:.2f}M params / {report.total_macs / 1e6:.2f}M MACs)"
    )
    share_txt = ", ".join(f"{k} {v:.2f}%" for k, v in sorted(report.shares.items()))
    note = "(params count conv/FC weights+biases; MACs count conv/FC multiplies only"
    note += "; BN affine included)" if meta.get("include_bn_params") else "; BN affine excluded)"
    lines.append(f"MAC shares by kind: {share_txt}")
    lines.append(note)
    return "\n".join(lines)
