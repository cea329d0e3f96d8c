"""Cost accounting: parameters and multiply-accumulates.

All counts are exact integers. "MACs" counts one multiply-accumulate per
kernel tap of every convolution/FC layer (the usual mobile-CNN convention,
where this quantity is often labelled FLOPs); normalization, activations,
pooling, softmax, and the attention block's elementwise redistribution are
excluded. Spatial extents are the layer's *output* extents. MACs come from
closed forms, a reference independent of the kernels' own tallies.

Parameter counts are the sizes of the built graph's weight and bias tensors.
Batch-norm affine pairs are excluded by default - that is the accounting that
reproduces the widely quoted MobileNet totals (4.2M parameters / 569M MACs at
width 1.0) and their attention-modified variants - and can be included with
``include_bn_params=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError
from .models import (
    KIND_BOTTLENECK,
    KIND_CONV,
    KIND_DWS,
    KIND_FC,
    KIND_ULSAM,
    ModelGraph,
    spatial_trace,
)

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


@dataclass(frozen=True)
class AttentionOverheadQuery:
    """Inputs to the attention-overhead formulas.

    ``maps`` is the map count of the double-attention block (default m / 8);
    ``reduction`` is the MLP shrink ratio of the SE/BAM/CBAM baselines. The
    BAM spatial branch assumes its fixed dilation-4 pair of 3x3 convolutions,
    which is where the 18 m^2 / r^2 term comes from.
    """

    kind: str
    channels: int
    height: int = 14
    width: int = 14
    maps: Optional[int] = None
    reduction: int = 16

    def __post_init__(self):
        if self.kind not in ATTENTION_KINDS:
            raise ConfigurationError(f"unknown attention kind {self.kind!r} (expected one of {ATTENTION_KINDS})")
        if min(self.channels, self.height, self.width) < 1:
            raise ConfigurationError("attention overhead: channels and spatial extents must be >= 1")
        if self.maps is not None and self.maps < 1:
            raise ConfigurationError("attention overhead: map count must be >= 1")


def attention_overhead(q: AttentionOverheadQuery) -> dict[str, int]:
    """Exact {params, macs} for one attention block on an m x h x w feature map."""
    m, h, w = q.channels, q.height, q.width
    hw = h * w
    if q.kind == "NonLocal":
        return {"params": 2 * m * m, "macs": 2 * m * m * hw}
    if q.kind == "A2Net":
        t = q.maps
        if t is None:
            if m % 8 != 0:
                raise ConfigurationError(f"A2Net default map count is m / 8, but 8 does not divide m = {m}")
            t = m // 8
        return {"params": 2 * m * t, "macs": 2 * m * t * hw}
    if q.kind == "ULSAM":
        return {"params": 2 * m, "macs": 2 * m * hw}
    r = q.reduction
    if r < 1 or m % r != 0:
        raise ConfigurationError(f"reduction ratio {r} does not divide channels {m}")
    mlp = 2 * m * m // r
    if q.kind == "SENet":
        return {"params": mlp, "macs": mlp}
    if q.kind == "BAM":
        p = 4 * m * m // r + 18 * m * m // (r * r)
        return {"params": p, "macs": mlp + p * hw}
    # CBAM: the channel MLP plus a fixed 7x7x2 spatial kernel (98 weights)
    return {"params": mlp + 98, "macs": mlp + 98 * hw}


def table1_rows() -> list[dict]:
    """The six-block overhead comparison, normalized against the subspace block.

    Every block sits at the paper's reference point: m = 512 channels on a
    14x14 map, MLP reduction r = 16, and the A2Net default of m / 8 maps.
    Normalized columns are the exact ratios of the unrounded counts, shown to
    two decimals; display columns round params to thousands and MACs to
    hundredths of a million.
    """
    base = attention_overhead(AttentionOverheadQuery("ULSAM", 512, 14, 14))
    rows = []
    for kind in ATTENTION_KINDS:
        c = attention_overhead(AttentionOverheadQuery(kind, 512, 14, 14, reduction=16))
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


def format_table1(rows: Optional[list[dict]] = None) -> str:
    rows = rows if rows is not None else table1_rows()
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

    def rows_for(self, *layer_ids: str) -> list[CostRow]:
        wanted = set(layer_ids)
        return [r for r in self.rows if r.layer in wanted]

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
    h_in = w_in = input_hw

    def kind_add(kind: str, n: int) -> None:
        if n:
            macs_by_kind[kind] = macs_by_kind.get(kind, 0) + n

    for spec, (h_out, w_out) in zip(graph.layers, trace):
        macs = 0
        m, n = spec.in_channels, spec.out_channels
        if spec.kind == KIND_CONV:
            macs = flops_sconv(spec.kernel, m, n, h_out, w_out)
            kind_add("standard", macs)
        elif spec.kind == KIND_DWS:
            dw, pw = flops_dws(3, m, n, h_out, w_out)
            macs = dw + pw
            kind_add("depthwise", dw)
            kind_add("pointwise", pw)
        elif spec.kind == KIND_BOTTLENECK:
            hidden = m * spec.expansion
            pw_macs = m * hidden * h_in * w_in if spec.expansion != 1 else 0
            dw_macs = 9 * hidden * h_out * w_out
            pw_macs += hidden * n * h_out * w_out
            macs = dw_macs + pw_macs
            kind_add("depthwise", dw_macs)
            kind_add("pointwise", pw_macs)
        elif spec.kind == KIND_ULSAM:
            macs = 2 * m * h_out * w_out
            kind_add("ulsam", macs)
        elif spec.kind == KIND_FC:
            macs = m * n
            kind_add("fc", macs)
        params = sum(t.size for t in graph.layer_params(spec, include_bn_params))
        rows.append(CostRow(layer=spec.index, kind=spec.kind, params=int(params), macs=int(macs)))
        h_in, w_in = h_out, w_out

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
