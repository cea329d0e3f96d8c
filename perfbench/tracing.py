"""Spans around the calls into each layer of ``ulsam``, recorded from outside.

While a :class:`Tracer` is installed it replaces the public entry points of
each module with wrappers that record a span (name, start, end, parent,
attributes) and restores them when it is removed:

* ``ops``: every op; the ``_backward`` closure of each result is wrapped too,
  so backward time is recorded per op and per graph layer that created it;
* ``attention.ulsam_forward``; ``tensor.Tensor.backward``;
* ``models.forward``, and ``models._layer_forward`` and ``models._ACTS``,
  the per-layer call and activation table inside ``forward`` (the program has
  no public per-layer hook yet);
* ``training``: ``sgd_step``, ``cross_entropy``, ``evaluate`` and
  ``save_checkpoint``, which ``train_loop`` looks up at call time.

Every graph-layer call runs under its own ``instrument.count_macs`` counter,
and its count is compared exactly with that layer's row of
``costs.analyze_model`` times the batch size.

Spans stay in memory; :func:`aggregate` turns them into per-operation metrics
after the run and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

from ulsam import attention, costs, instrument, models, ops, tensor, training

# ops reported by name; the others are wrapped so that attention backward is complete
REPORTED_OPS = (
    "conv2d_standard", "depthwise_conv", "pointwise_conv", "batch_norm", "relu", "relu6",
    "maxpool_3x3_p1", "spatial_softmax", "broadcast_mul_add", "channel_slice", "channel_concat",
    "fully_connected",
)
OTHER_OPS = ("reshape", "slice1d", "global_avg_pool")
CONV_KINDS = {"conv2d_standard": "standard", "depthwise_conv": "depthwise", "pointwise_conv": "pointwise"}
KIND_GROUPS = {"conv": "conv", "dws": "dws", "bottleneck": "bottleneck", "ulsam": "ulsam",
               "gap": "head", "fc": "head", "softmax": "head"}
TRAINING_FUNCS = ("sgd_step", "cross_entropy", "evaluate", "save_checkpoint")
GROUPS = (1, 4, 16, 64, 512)
MAX_SPANS_WRITTEN = 200_000

NAME, START, END, PARENT, ATTRS = range(5)


def tape_nodes(root) -> int:
    """Exact number of tensors reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: list = []  # MAC counters the tracer opened, innermost last
        self.layer = None  # index of the graph layer being run
        self.g = None  # group count of the attention block being run
        self.input_hw = None
        self.reports: dict = {}
        self.mismatched_layers: set = set()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def _macs(self) -> int:
        return self.counters[-1].total if self.counters else 0

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((setattr, owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _patch_item(self, table: dict, key: str, wrapper_factory) -> None:
        original = table[key]
        self._patches.append((dict.__setitem__, table, key, original))
        table[key] = wrapper_factory(original)

    def install(self) -> None:
        for name in REPORTED_OPS + OTHER_OPS:
            self._patch(ops, name, lambda fn, name=name: self._wrap_op(name, fn))
        # models binds its activations in a table when it is imported
        for name in models._ACTS:
            self._patch_item(models._ACTS, name, lambda fn, name=name: self._wrap_op(name, fn))
        self._patch(attention, "ulsam_forward", self._wrap_attention)
        self._patch(tensor.Tensor, "backward", self._wrap_backward)
        self._patch(models, "forward", self._wrap_forward)
        self._patch(models, "_layer_forward", self._wrap_layer)
        for name in TRAINING_FUNCS:
            self._patch(training, name, lambda fn, name=name: self._wrap_plain("training." + name, fn))

    def remove(self) -> None:
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)

    # -- wrappers --------------------------------------------------------------

    def _wrap_op(self, name: str, fn):
        span_name = "ops." + name
        bwd_name = span_name + ".bwd"

        def traced(*args, **kwargs):
            before = self._macs()
            layer, g = self.layer, self.g
            sid = self.open(span_name, layer=layer, g=g)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self.spans[sid][ATTRS]["macs"] = self._macs() - before
            backward = out._backward
            if backward is not None:
                def traced_backward(grad, backward=backward):
                    bid = self.open(bwd_name, layer=layer, g=g)
                    try:
                        backward(grad)
                    finally:
                        self.close(bid)

                out._backward = traced_backward
            return out

        return traced

    def _wrap_attention(self, fn):
        def traced(f, cfg, weights):
            before, prev_g = self._macs(), self.g
            self.g = cfg.groups
            sid = self.open("attention", g=cfg.groups)
            try:
                return fn(f, cfg, weights)
            finally:
                self.close(sid)
                self.g = prev_g
                self.spans[sid][ATTRS]["macs"] = self._macs() - before

        return traced

    def _wrap_backward(self, fn):
        def traced(tensor, upstream=None):
            self.note_tape(tensor)
            sid = self.open("tensor.backward")
            try:
                fn(tensor, upstream)
            finally:
                self.close(sid)

        return traced

    def _wrap_forward(self, fn):
        def traced(graph, x, train=False):
            prev_hw, self.input_hw = self.input_hw, x.shape[2]
            sid = self.open("models.forward")
            try:
                out = fn(graph, x, train)
            finally:
                self.close(sid)
                self.input_hw = prev_hw
            self.note_tape(out)
            return out

        return traced

    def _wrap_layer(self, fn):
        def traced(graph, spec, x, train):
            key = (id(graph), self.input_hw)
            if key not in self.reports:
                report = costs.analyze_model(graph, input_hw=self.input_hw)
                self.reports[key] = (graph, {r.layer: r.macs for r in report.rows})
            expected = x.shape[0] * self.reports[key][1][spec.index]
            counter = instrument.MacCounter()
            prev_layer, self.layer = self.layer, spec.index
            sid = self.open("layer", index=spec.index, kind=spec.kind)
            self.counters.append(counter)
            try:
                with instrument.count_macs(counter):
                    return fn(graph, spec, x, train)
            finally:
                self.counters.pop()
                self.close(sid)
                self.layer = prev_layer
                if self.counters:
                    for kind, n in counter.by_kind.items():
                        self.counters[-1].add(kind, n)
                attrs = self.spans[sid][ATTRS]
                attrs["macs"], attrs["expected_macs"] = counter.total, expected
                if counter.total != expected:
                    self.mismatched_layers.add((graph.arch, spec.index))

        return traced

    def _wrap_plain(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if name == "training.save_checkpoint":
                    self.spans[sid][ATTRS]["bytes"] = os.path.getsize(args[0])

        return traced

    def note_tape(self, root) -> None:
        """Record the tape size behind ``root`` as a zero-length span."""
        sid = self.open("tape", nodes=tape_nodes(root))
        self.close(sid)

    # -- output ----------------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        kept = self.spans[:MAX_SPANS_WRITTEN]
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[ATTRS]] for s in kept]
        doc = dict(header, fields=["name", "start_s", "end_s", "parent", "attrs"],
                   spans_recorded=len(self.spans), spans_written=len(rows), spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _op_metrics(spans: list[list], lo: int, hi: int, layers: dict) -> dict:
    """Per-layer metrics of the operation whose spans are ``spans[lo:hi]``.

    ``layers`` accumulates, per graph-layer index, fwd/bwd seconds and MACs.
    """
    child: dict[int, float] = {}
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
    m: dict[str, float] = {}
    gmac: dict[str, list] = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    for idx in range(lo, hi):
        name, start, end, _, attrs = spans[idx]
        dur = end - start
        if name == "tape":
            m["tensor.tape_nodes"] = max(m.get("tensor.tape_nodes", 0), attrs["nodes"])
        elif name.startswith("ops."):
            op = name[4:]
            bwd = op.endswith(".bwd")
            if bwd:
                op = op[:-4]
                if attrs["g"] is not None:
                    add("attention.bwd_ms", 1e3 * dur)
                    add(f"attention.g{attrs['g']}.bwd_ms", 1e3 * dur)
            if op in REPORTED_OPS:
                add(f"ops.{op}.{'bwd_ms' if bwd else 'fwd_ms'}", 1e3 * dur)
                if not bwd:
                    add(f"ops.{op}.calls", 1)
            if not bwd and op in CONV_KINDS:
                g = gmac.setdefault(CONV_KINDS[op], [0, 0.0])
                g[0] += attrs["macs"]
                g[1] += dur - child.get(idx, 0.0)
            if not bwd:
                add("instrument.macs_per_step", attrs["macs"])
            if bwd and attrs["layer"] in layers:
                layers[attrs["layer"]]["bwd"] += dur
        elif name == "attention":
            add("attention.fwd_ms", 1e3 * dur)
            add("attention.calls", 1)
            add(f"attention.g{attrs['g']}.fwd_ms", 1e3 * dur)
            gm = gmac.setdefault("attention", [0, 0.0])
            gm[0] += attrs["macs"]
            gm[1] += dur
        elif name == "layer":
            add(f"models.{KIND_GROUPS[attrs['kind']]}.fwd_ms", 1e3 * dur)
            row = layers.setdefault(attrs["index"], {"kind": attrs["kind"], "fwd": 0.0, "bwd": 0.0, "macs": 0})
            row["fwd"] += dur
            row["macs"] += attrs["expected_macs"]
        elif name == "models.forward":
            add("models.forward_ms", 1e3 * dur)
        elif name == "tensor.backward":
            add("tensor.backward_ms", 1e3 * dur)
        elif name.startswith("training."):
            add(name + "_ms", 1e3 * dur)
            if "bytes" in attrs:
                m["training.checkpoint_bytes"] = attrs["bytes"]
    for kind, (macs, secs) in gmac.items():
        if secs > 0:
            m[f"ops.{kind}.gmac_s" if kind != "attention" else "attention.gmac_s"] = macs / secs / 1e9
    if m.get("models.forward_ms") and "attention.fwd_ms" in m:
        m["attention.share_pct"] = 100.0 * m["attention.fwd_ms"] / m["models.forward_ms"]
    return m


def aggregate(spans: list[list], intervals: list[tuple[float, float]]) -> tuple[dict, dict, int]:
    """Median over operations of each per-layer metric, the layer table, and the op count.

    A span belongs to the operation whose [start, end) interval holds its start.
    Metrics an operation lacks (an op never called, a ``g`` not run) count as
    absent, not as zero; a metric absent from every operation is reported as 0.
    """
    per_op: list[dict] = []
    tables: list[dict] = []
    j = 0
    n = len(spans)
    for t0, t1 in intervals:
        while j < n and spans[j][START] < t0:
            j += 1
        lo = j
        while j < n and spans[j][START] < t1:
            j += 1
        layers: dict = {}
        per_op.append(_op_metrics(spans, lo, j, layers))
        tables.append(layers)
    keys = {k for m in per_op for k in m}
    medians = {k: statistics.median(m[k] for m in per_op if k in m) for k in keys}
    fb = {g: medians.get(f"attention.g{g}.fwd_ms", 0.0) + medians.get(f"attention.g{g}.bwd_ms", 0.0)
          for g in GROUPS}
    present = [v for v in fb.values() if v > 0]
    medians["attention.g_spread"] = max(present) / min(present) if len(present) > 1 else 0.0
    table = {}
    for idx in (tables[0] if tables else {}):
        rows = [t[idx] for t in tables if idx in t]
        fwd = statistics.median(r["fwd"] for r in rows)
        macs = statistics.median(r["macs"] for r in rows)
        table[idx] = {"kind": rows[0]["kind"], "fwd_ms": 1e3 * fwd,
                      "bwd_ms": 1e3 * statistics.median(r["bwd"] for r in rows),
                      "macs": int(macs), "gmac_s": macs / fwd / 1e9 if fwd > 0 else 0.0}
    return medians, table, len(per_op)


def format_table(table: dict) -> str:
    lines = [f"{'layer':>8}  {'kind':<10} {'fwd_ms':>9} {'bwd_ms':>9} {'macs':>14} {'gmac_s':>8}"]
    for idx, r in table.items():
        lines.append(f"{idx:>8}  {str(r['kind']):<10} {r['fwd_ms']:>9.3f} {r['bwd_ms']:>9.3f} "
                     f"{r['macs']:>14,} {r['gmac_s']:>8.2f}")
    return "\n".join(lines)
