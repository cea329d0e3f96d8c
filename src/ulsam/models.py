"""Model graphs: MobileNet-V1/V2 builders, attention placement, forward pass.

A graph is an ordered list of :class:`LayerSpec` rows plus a named parameter
store. Layer indices follow the architecture tables (V1: 1-14 with an
unnumbered pool/fc/softmax tail; V2: 1-20 with the pool between 19 and the
FC classifier 20), so attention position directives can be written the same
way results are reported: ``"11"`` substitutes layer 11, ``"8:1"`` inserts
after layer 8.

A conv, separable or bottleneck row's convolutions are listed once, by
:func:`layer_convs`; building, the forward pass, :func:`spatial_trace` and
``costs.analyze_model`` walk that list, and :func:`conv_extent` sizes them.

Graphs are immutable during a forward pass; training mutates parameters only
between steps. Batch-norm running statistics are the only buffers and update
only in training mode. Inference folds each batch-norm into the weights of
the conv before it, in a fresh copy per forward, and adds the shift and the
activation to that conv's output in place.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import attention, ops
from .errors import ConfigurationError, DirectiveError
from .tensor import Tensor, no_tape, parameter

KIND_CONV = "conv"
KIND_DWS = "dws"
KIND_BOTTLENECK = "bottleneck"
KIND_ULSAM = "ulsam"
KIND_GAP = "gap"
KIND_FC = "fc"
KIND_SOFTMAX = "softmax"

_POSITION_RE = re.compile(r"^(\d+)(:1)?$")


@dataclass(frozen=True)
class PositionDirective:
    """Where to place an attention block: substitute layer L, or insert after it."""

    target: int
    insert: bool

    def __str__(self) -> str:
        return f"{self.target}:1" if self.insert else str(self.target)


def parse_position(text: str) -> PositionDirective:
    m = _POSITION_RE.match(text.strip())
    if not m:
        raise DirectiveError(f'malformed position directive {text!r}: the grammar is "L" or "L:1"')
    return PositionDirective(target=int(m.group(1)), insert=m.group(2) is not None)


@dataclass
class LayerSpec:
    """One graph row; ``index`` is the table-style label ("1".."20", "8:1", "pool", ...)."""

    kind: str
    index: str
    in_channels: int
    out_channels: int
    stride: int = 1
    kernel: int = 3
    expansion: int = 1
    groups: int = 1
    act: str = "relu"

    @property
    def has_skip(self) -> bool:
        return self.kind == KIND_BOTTLENECK and self.stride == 1 and self.in_channels == self.out_channels


@dataclass
class ModelGraph:
    arch: str
    num_classes: int
    alpha: float
    layers: list[LayerSpec]
    params: dict[str, Tensor]
    buffers: dict[str, np.ndarray]
    seed: int
    dtype: type = np.float64
    min_input: int = 32

    @property
    def ulsam_positions(self) -> list[str]:
        """Position directives of the attention blocks, in layer order ("8:1", "9:1", "11")."""
        return [s.index for s in self.layers if s.kind == KIND_ULSAM]

    @property
    def ulsam_g(self) -> Optional[int]:
        """Group count of the attention blocks; None when the graph has none."""
        return next((s.groups for s in self.layers if s.kind == KIND_ULSAM), None)

    def numbered(self) -> dict[int, int]:
        """Map of original integer layer numbers to positions in the layer list."""
        return {int(spec.index): pos for pos, spec in enumerate(self.layers) if spec.index.isdigit()}

    def _add_bn(self, name: str, channels: int) -> None:
        dt = self.dtype
        self.params[f"{name}.g"] = parameter(np.ones(channels, dtype=dt))
        self.params[f"{name}.b"] = parameter(np.zeros(channels, dtype=dt))
        self.buffers[f"{name}.mean"] = np.zeros(channels, dtype=dt)
        self.buffers[f"{name}.var"] = np.ones(channels, dtype=dt)

    def layer_params(self, spec: LayerSpec, include_bn: bool = False) -> list[Tensor]:
        """The layer's weight and bias tensors; its batch-norm affine pairs only if ``include_bn``."""
        p = _prefix(spec) + "."
        return [t for name, t in self.params.items()
                if name.startswith(p) and (include_bn or not name[len(p):].startswith("bn"))]

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def snapshot_buffers(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.buffers.items()}

    def restore_buffers(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in snap.items():
            self.buffers[k][...] = v


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

# (in, out, stride) rows for V1 layers 2-14, before width scaling
_MV1_DWS_PLAN = [
    (32, 64, 1), (64, 128, 2), (128, 128, 1), (128, 256, 2), (256, 256, 1),
    (256, 512, 2),
    (512, 512, 1), (512, 512, 1), (512, 512, 1), (512, 512, 1), (512, 512, 1),
    (512, 1024, 2), (1024, 1024, 1),
]

# (expansion, in, out, stride) rows for V2 layers 2-18
_MV2_BOTTLENECK_PLAN = [
    (1, 32, 16, 1),
    (6, 16, 24, 2), (6, 24, 24, 1),
    (6, 24, 32, 2), (6, 32, 32, 1), (6, 32, 32, 1),
    (6, 32, 64, 2), (6, 64, 64, 1), (6, 64, 64, 1), (6, 64, 64, 1),
    (6, 64, 96, 1), (6, 96, 96, 1), (6, 96, 96, 1),
    (6, 96, 160, 2), (6, 160, 160, 1), (6, 160, 160, 1),
    (6, 160, 320, 1),
]


def scale_channels_8(c: int, alpha: float) -> int:
    """Width-multiplied channel count, rounded to the nearest multiple of 8 (min 8)."""
    return max(8, int(np.floor(c * alpha / 8.0 + 0.5)) * 8)


def build_mv1(alpha: float = 1.0, num_classes: int = 1000, dtype=np.float64, seed: int = 0) -> ModelGraph:
    """MobileNet-V1: standard conv stem, 13 depthwise-separable blocks, pool/FC head."""
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError(f'field "alpha": the width multiplier must be in (0, 1], got {alpha}')
    layers = [LayerSpec(KIND_CONV, "1", 3, scale_channels_8(32, alpha), stride=2, act="relu")]
    for i, (cin, cout, s) in enumerate(_MV1_DWS_PLAN, start=2):
        layers.append(
            LayerSpec(KIND_DWS, str(i), scale_channels_8(cin, alpha), scale_channels_8(cout, alpha), stride=s)
        )
    feat = scale_channels_8(1024, alpha)
    layers.append(LayerSpec(KIND_GAP, "pool", feat, feat))
    layers.append(LayerSpec(KIND_FC, "fc", feat, num_classes))
    layers.append(LayerSpec(KIND_SOFTMAX, "softmax", num_classes, num_classes))
    return _finish_graph("mv1", alpha, num_classes, layers, dtype, seed, min_input=32)


def build_mv2(num_classes: int = 1000, dtype=np.float64, seed: int = 0) -> ModelGraph:
    """MobileNet-V2: inverted residual bottlenecks, a 1x1 conv to 1280 channels, pool/FC head."""
    layers = [LayerSpec(KIND_CONV, "1", 3, 32, stride=2, act="relu6")]
    for i, (t, cin, cout, s) in enumerate(_MV2_BOTTLENECK_PLAN, start=2):
        layers.append(LayerSpec(KIND_BOTTLENECK, str(i), cin, cout, stride=s, expansion=t, act="relu6"))
    layers.append(LayerSpec(KIND_CONV, "19", 320, 1280, stride=1, kernel=1, act="relu6"))
    layers.append(LayerSpec(KIND_GAP, "pool", 1280, 1280))
    layers.append(LayerSpec(KIND_FC, "20", 1280, num_classes))
    layers.append(LayerSpec(KIND_SOFTMAX, "softmax", num_classes, num_classes))
    return _finish_graph("mv2", 1.0, num_classes, layers, dtype, seed, min_input=32)


def build_mv1_tiny(num_classes: int = 4, width: int = 8, dtype=np.float64, seed: int = 0) -> ModelGraph:
    """Reduced V1-style stack for desk-scale runs on small images (>= 8x8)."""
    if width < 1:
        raise ConfigurationError(f"mv1-tiny: width must be >= 1, got {width}")
    w = width
    layers = [
        LayerSpec(KIND_CONV, "1", 3, w, stride=1, act="relu"),
        LayerSpec(KIND_DWS, "2", w, 2 * w, stride=2),
        LayerSpec(KIND_DWS, "3", 2 * w, 2 * w, stride=1),
        LayerSpec(KIND_DWS, "4", 2 * w, 4 * w, stride=2),
        LayerSpec(KIND_DWS, "5", 4 * w, 4 * w, stride=1),
        LayerSpec(KIND_GAP, "pool", 4 * w, 4 * w),
        LayerSpec(KIND_FC, "fc", 4 * w, num_classes),
        LayerSpec(KIND_SOFTMAX, "softmax", num_classes, num_classes),
    ]
    return _finish_graph("mv1-tiny", 1.0, num_classes, layers, dtype, seed, min_input=8)


def _finish_graph(arch, alpha, num_classes, layers, dtype, seed, min_input) -> ModelGraph:
    if num_classes < 1:
        raise ConfigurationError(f'field "num_classes": must be >= 1, got {num_classes}')
    graph = ModelGraph(
        arch=arch, num_classes=num_classes, alpha=alpha, layers=layers,
        params={}, buffers={}, seed=seed, dtype=dtype, min_input=min_input,
    )
    rng = np.random.default_rng(seed)
    for spec in layers:
        _init_layer(graph, spec, rng)
    validate_graph(graph)
    return graph


def _prefix(spec: LayerSpec) -> str:
    return spec.index if spec.index in ("fc", "pool", "softmax") else f"L{spec.index}"


def _he(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / np.prod(shape[1:]))).astype(dtype)


class Conv(NamedTuple):
    """One convolution of a layer. ``op`` is the kernel's MAC kind: ``ops.CONV_STANDARD``,
    ``CONV_DEPTHWISE`` or ``CONV_POINTWISE``; padding is ``kernel // 2``."""

    weight: str
    op: str
    cin: int
    cout: int
    bn: str  # the batch-norm that follows
    kernel: int = 1
    stride: int = 1
    act: bool = True  # whether the layer's activation follows


def layer_convs(spec: LayerSpec) -> list[Conv]:
    """The convolutions a layer runs, in order; none for attention, pool, FC and softmax rows."""
    p, m, n, k, s = _prefix(spec), spec.in_channels, spec.out_channels, spec.kernel, spec.stride
    if spec.kind == KIND_CONV:
        return [Conv(f"{p}.w", ops.CONV_STANDARD, m, n, f"{p}.bn", k, s)]
    if spec.kind == KIND_DWS:
        return [Conv(f"{p}.dw.w", ops.CONV_DEPTHWISE, m, m, f"{p}.bn1", k, s),
                Conv(f"{p}.pw.w", ops.CONV_POINTWISE, m, n, f"{p}.bn2")]
    if spec.kind == KIND_BOTTLENECK:
        t = m * spec.expansion
        expand = [Conv(f"{p}.exp.w", ops.CONV_POINTWISE, m, t, f"{p}.bn1")] if spec.expansion != 1 else []
        return expand + [Conv(f"{p}.dw.w", ops.CONV_DEPTHWISE, t, t, f"{p}.bn2", k, s),
                         Conv(f"{p}.proj.w", ops.CONV_POINTWISE, t, n, f"{p}.bn3", act=False)]
    if spec.kind in (KIND_ULSAM, KIND_GAP, KIND_FC, KIND_SOFTMAX):
        return []
    raise ConfigurationError(f"unknown layer kind {spec.kind!r}")


def conv_extent(h: int, conv: Conv) -> int:
    """Output extent of ``conv`` along an input extent ``h``, as the kernels compute it."""
    return ops._out_extent(h, conv.kernel // 2, conv.kernel, conv.stride, conv.weight)


def _init_layer(graph: ModelGraph, spec: LayerSpec, rng: np.random.Generator) -> None:
    p, dt = _prefix(spec), graph.dtype
    add = graph.params.__setitem__
    for c in layer_convs(spec):
        taps = (c.kernel, c.kernel) if c.op == ops.CONV_DEPTHWISE else (c.cin, c.kernel, c.kernel)
        add(c.weight, parameter(_he(rng, (c.cout,) + taps, dt)))
        graph._add_bn(c.bn, c.cout)
    if spec.kind == KIND_ULSAM:
        cfg = attention.UlsamConfig(spec.in_channels, spec.groups)
        weights = attention.init_ulsam_weights(cfg, rng, dt)
        add(f"{p}.dw", weights.dw)
        add(f"{p}.pw", weights.pw)
    elif spec.kind == KIND_FC:
        f, n = spec.in_channels, spec.out_channels
        try:
            add(f"{p}.w", parameter((rng.standard_normal((f, n)) * np.sqrt(1.0 / f)).astype(dt)))
            add(f"{p}.b", parameter(np.zeros(n, dtype=dt)))
        except (MemoryError, ValueError):  # NumPy's two refusals of an array too large to allocate
            raise ConfigurationError(f'field "num_classes": a classifier for {n} classes does not fit in memory') from None


def validate_graph(graph: ModelGraph) -> None:
    """Static channel-consistency pass; raises on any mismatched extent."""
    prev = None
    for spec in graph.layers:
        if prev is not None and spec.in_channels != prev:
            raise ConfigurationError(
                f"layer {spec.index}: in_channels {spec.in_channels} does not match previous out_channels {prev}"
            )
        if spec.kind == KIND_ULSAM:
            if spec.in_channels != spec.out_channels:
                raise ConfigurationError(f"layer {spec.index}: attention block must preserve channels")
            attention.UlsamConfig(spec.in_channels, spec.groups)
        prev = spec.out_channels


# ---------------------------------------------------------------------------
# attention placement
# ---------------------------------------------------------------------------


def apply_ulsam(graph: ModelGraph, directives: Sequence, g: int) -> ModelGraph:
    """A new graph with attention blocks placed per the directives.

    All blocks are placed in one call: a graph that already has attention
    blocks is rejected. Substitution targets must be shape-preserving
    (stride 1, in == out); a substituted V2 bottleneck is removed entirely and
    replaced by one block over its input channels. Retained layers keep
    (copies of) their weights; the original layer numbering survives in the
    new indices, so position strings stay reportable.
    """
    if graph.ulsam_positions:
        raise DirectiveError(f"graph already has attention blocks at {', '.join(graph.ulsam_positions)}; "
                             "place all blocks in one apply_ulsam call")
    if g < 1:
        raise DirectiveError(f"group count g must be >= 1, got {g}")
    parsed = [d if isinstance(d, PositionDirective) else parse_position(str(d)) for d in directives]
    numbered = graph.numbered()
    substitutes: set[int] = set()  # target layer numbers
    inserts: set[int] = set()
    for d in parsed:
        if d.target not in numbered:
            raise DirectiveError(f"position directive {d} targets layer {d.target}, which does not exist")
        spec = graph.layers[numbered[d.target]]
        if spec.kind == KIND_FC:
            raise DirectiveError(f"directive {d}: layer {d.target} is the classifier, which has no feature map")
        bucket = inserts if d.insert else substitutes
        if d.target in bucket:
            raise DirectiveError(f"duplicate position directive {d}")
        bucket.add(d.target)
        channels = spec.out_channels
        if not d.insert:
            if spec.kind not in (KIND_DWS, KIND_BOTTLENECK):
                raise DirectiveError(f"directive {d}: only separable/bottleneck layers can be substituted")
            if spec.stride != 1 or spec.in_channels != spec.out_channels:
                raise DirectiveError(
                    f"directive {d}: substitution target must have stride 1 and in == out "
                    f"(got stride {spec.stride}, {spec.in_channels} -> {spec.out_channels})"
                )
            channels = spec.in_channels
        if channels % g != 0:
            raise DirectiveError(f"directive {d}: {g} groups do not divide {channels} channels")

    new_layers: list[LayerSpec] = []
    for spec in graph.layers:
        num = int(spec.index) if spec.index.isdigit() else None
        if num in substitutes:
            spec = LayerSpec(KIND_ULSAM, spec.index, spec.in_channels, spec.in_channels, groups=g)
        new_layers.append(spec)
        if num in inserts:
            new_layers.append(LayerSpec(KIND_ULSAM, f"{num}:1", spec.out_channels, spec.out_channels, groups=g))

    dropped = tuple(f"L{num}." for num in substitutes)  # weights of the substituted layers
    new_graph = ModelGraph(
        arch=graph.arch, num_classes=graph.num_classes, alpha=graph.alpha, layers=new_layers,
        params={n: parameter(t.data.copy()) for n, t in graph.params.items() if not n.startswith(dropped)},
        buffers={n: b.copy() for n, b in graph.buffers.items() if not n.startswith(dropped)},
        seed=graph.seed, dtype=graph.dtype, min_input=graph.min_input,
    )
    for spec in new_layers:
        if spec.kind == KIND_ULSAM:
            rng = np.random.default_rng((graph.seed, 0xA77E, int(spec.index.split(":")[0]), int(spec.index.endswith(":1"))))
            _init_layer(new_graph, spec, rng)
    validate_graph(new_graph)
    return new_graph


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


_ACTS = {"relu": ops.relu, "relu6": ops.relu6}


def _layer_forward(graph: ModelGraph, spec: LayerSpec, x: Tensor, train: bool) -> Tensor:
    # each op's result is rebound to ``out`` before the next op runs, so an
    # inference forward (no tape) frees every intermediate once it is consumed
    p = _prefix(spec)
    act = _ACTS[spec.act]
    w = graph.params
    if spec.kind == KIND_ULSAM:
        cfg = attention.UlsamConfig(spec.in_channels, spec.groups)
        weights = attention.UlsamWeights(graph.params[f"{p}.dw"], graph.params[f"{p}.pw"])
        return attention.ulsam_forward(x, cfg, weights)
    if spec.kind == KIND_GAP:
        return ops.global_avg_pool(x)
    if spec.kind == KIND_FC:
        return ops.fully_connected(x, w[f"{p}.w"], w[f"{p}.b"])
    if spec.kind == KIND_SOFTMAX:
        return x  # the head emits logits; training.cross_entropy applies the softmax
    out = x
    for c in layer_convs(spec):
        gamma, beta = w[f"{c.bn}.g"], w[f"{c.bn}.b"]
        mean, var = graph.buffers[f"{c.bn}.mean"], graph.buffers[f"{c.bn}.var"]
        weight = w[c.weight]
        if not train:  # batch-norm's per-output-channel scale, folded into a fresh copy of the weights
            scale = gamma.data / np.sqrt(var + ops.BN_EPS)
            weight = Tensor(weight.data * scale.reshape((-1,) + (1,) * (weight.ndim - 1)))
        if c.op == ops.CONV_POINTWISE:
            out = ops.pointwise_conv(out, weight)
        else:
            conv = ops.conv2d_standard if c.op == ops.CONV_STANDARD else ops.depthwise_conv
            out = conv(out, weight, c.stride, c.kernel // 2)
        if train:
            out = ops.batch_norm(out, gamma, beta, mean, var)
            if c.act:
                out = act(out)
        else:  # the conv's output is the layer's own: add batch-norm's shift, then activate, in place
            out.data += (beta.data - mean * scale)[:, None, None]
            if c.act:
                ops._activate(spec.act, out.data, out=out.data)
    return x + out if spec.has_skip else out


def forward(graph: ModelGraph, x, train: bool = False) -> Tensor:
    """Run the whole graph; returns logits of shape (batch, num_classes)."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=graph.dtype))
    if x.ndim != 4:
        raise ConfigurationError(f"model input must be rank-4, got shape {x.shape}")
    if x.shape[1] != graph.layers[0].in_channels:
        raise ConfigurationError(
            f"model input has {x.shape[1]} channels, expected {graph.layers[0].in_channels}"
        )
    if min(x.shape[2], x.shape[3]) < graph.min_input:
        raise ConfigurationError(
            f"model input spatial size {x.shape[2]}x{x.shape[3]} is below the minimum {graph.min_input}"
        )
    # inference is never differentiated, so it records no tape
    with contextlib.nullcontext() if train else no_tape():
        out = x
        for spec in graph.layers:
            out = _layer_forward(graph, spec, out, train)
    return out


def spatial_trace(graph: ModelGraph, input_hw: int = 224) -> list[tuple[int, int]]:
    """Output (h, w) per layer, mirroring the kernels' floor-division geometry."""
    if input_hw < graph.min_input:
        raise ConfigurationError(
            f"model input spatial size {input_hw}x{input_hw} is below the minimum {graph.min_input}"
        )
    h = w = input_hw
    trace = []
    for spec in graph.layers:
        for c in layer_convs(spec):
            h, w = conv_extent(h, c), conv_extent(w, c)
        if spec.kind == KIND_GAP:
            h = w = 1
        trace.append((h, w))
    return trace


def build_model(arch: str, alpha: float = 1.0, num_classes: int = 1000, dtype=np.float64, seed: int = 0) -> ModelGraph:
    """Dispatch on architecture name ("mv1", "mv2", "mv1-tiny"); only mv1 takes a width multiplier ``alpha``."""
    if arch not in ("mv1", "mv2", "mv1-tiny"):
        raise ConfigurationError(f'field "arch": unknown architecture {arch!r} (expected "mv1", "mv2", or "mv1-tiny")')
    if arch != "mv1" and alpha != 1.0:
        raise ConfigurationError(f'field "alpha": {arch} supports only alpha = 1.0, got {alpha}')
    if arch == "mv1":
        return build_mv1(alpha=alpha, num_classes=num_classes, dtype=dtype, seed=seed)
    if arch == "mv2":
        return build_mv2(num_classes=num_classes, dtype=dtype, seed=seed)
    return build_mv1_tiny(num_classes=num_classes, dtype=dtype, seed=seed)
