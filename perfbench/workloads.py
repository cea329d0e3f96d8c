"""The benchmark's four workloads.

Each workload builds its inputs from the run seed, runs one kind of timed
operation through the public functions of ``ulsam``, and checks every result
against a float64 evaluation of the same inputs. The float64 evaluation is
done by :func:`reference`, which the runner calls in a child process before
set-up, so that it costs neither set-up time nor the parent's peak RSS.

Why these four (see also ``README.md``):

* ``mv1-ulsam-infer`` is the paper's headline model. The attention blocks are
  about 0.1% of its MACs, so any attention work shows here first.
* ``mv2-infer`` never enters the attention block: attention-only changes must
  leave it unchanged, while conv, batch-norm and skip-add work shows here.
* ``tiny-train`` is dominated by per-op Python and tape overhead, backward,
  ``sgd_step`` and the per-epoch checkpoint write instead of BLAS.
* ``ulsam-block-g`` is the only workload that varies ``g`` and the only one
  that runs the attention backward at full size.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from ulsam import attention, models, training
from ulsam.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# float32 results must agree with float64 to this share of the largest
# reference magnitude (float32 epsilon is 1.2e-7; sums over a few thousand
# terms and 14 layers stay well below 1e-4).
RTOL = 1e-4
# Per-epoch training loss (about 1.45 at the start, 0.1 after 30 epochs) against
# float64: the two runs agree to 1e-7 until a max-pool or ReLU tie breaks the
# other way, and from then on drift apart by up to about 0.05 (seen over 40 seeds).
# Epoch 0 must agree closely; later epochs may drift but not stall or diverge.
LOSS_ATOL_FIRST = 1e-3
LOSS_ATOL = 0.25


def derive_seed(seed: int, tag: int) -> int:
    """A sub-seed of the run seed: one per kind of random input."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def close_to(value: np.ndarray, ref: np.ndarray) -> bool:
    """Finite and within ``RTOL`` of the reference, relative to its largest magnitude."""
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return False
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    return float(np.max(np.abs(value.astype(np.float64) - ref))) <= RTOL * scale


def _load_config(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def _to_float64(graph32, graph64, track_grad: bool) -> None:
    """Copy float32 weights into a float64 graph of the same layout."""
    for name, t in graph64.params.items():
        t.data = graph32.params[name].data.astype(np.float64)
        t.requires_grad = track_grad
    for name, b in graph64.buffers.items():
        b[...] = graph32.buffers[name]


class Workload:
    """Interface the runner drives; subclasses fill in the four steps."""

    name = ""
    images_per_op = 1
    cycle = 1  # the timed loop stops only after a whole number of cycles

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, timings: dict) -> None:
        """Build the graph and inputs, then run one warm-up operation."""
        raise NotImplementedError

    def step(self, i: int, remaining_s: float) -> list[tuple[float, float, object]]:
        """Run operation ``i``; return (start, end, result) for each operation completed."""
        raise NotImplementedError

    def check(self, result, ref) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class Inference(Workload):
    """Batch-4 float32 forward passes at 224x224 over a few distinct batches."""

    batch = 4
    hw = 224
    distinct = 2
    images_per_op = batch

    def __init__(self, seed: int, spec: dict):
        super().__init__(seed)
        self.arch = spec["arch"]
        self.alpha = float(spec.get("alpha", 1.0))
        self.classes = int(spec.get("num_classes", 1000))
        ul = spec.get("ulsam") or {}
        self.positions = list(ul.get("positions", []))
        self.g = int(ul.get("g", 4))

    def build(self, dtype, timings: dict | None = None):
        t0 = time.perf_counter()
        graph = models.build_model(self.arch, alpha=self.alpha, num_classes=self.classes, dtype=dtype,
                                   seed=derive_seed(self.seed, 1))
        t1 = time.perf_counter()
        if self.positions:
            graph = models.apply_ulsam(graph, self.positions, self.g)
        t2 = time.perf_counter()
        if timings is not None:
            timings["models.build_ms"] = 1e3 * (t1 - t0)
            timings["models.apply_ulsam_ms"] = 1e3 * (t2 - t1) if self.positions else 0.0
        return graph

    def inputs(self) -> list[np.ndarray]:
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        shape = (self.batch, 3, self.hw, self.hw)
        return [rng.standard_normal(shape, dtype=np.float32) for _ in range(self.distinct)]

    def setup(self, timings: dict) -> None:
        self.graph = self.build(np.float32, timings)
        t0 = time.perf_counter()
        self.batches = self.inputs()
        timings["data_ms"] = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        models.forward(self.graph, self.batches[0], train=False)
        timings["warmup_ms"] = 1e3 * (time.perf_counter() - t0)

    def step(self, i, remaining_s):
        k = i % self.distinct
        t0 = time.perf_counter()
        logits = models.forward(self.graph, self.batches[k], train=False)
        return [(t0, time.perf_counter(), (k, logits.data))]

    def check(self, result, ref) -> bool:
        k, logits = result
        return close_to(logits, ref[k])

    def reference(self) -> list[np.ndarray]:
        graph64 = self.build(np.float64)
        _to_float64(self.build(np.float32), graph64, track_grad=False)
        return [models.forward(graph64, x.astype(np.float64), train=False).data for x in self.inputs()]

    def teardown(self) -> None:
        self.graph = self.batches = None


class TinyTrain(Workload):
    """``configs/tiny_synthetic.json`` through ``training.train_loop``; one operation is one epoch.

    Every call of ``train_loop`` starts again from the initial weights, so
    epoch ``e`` of every call repeats epoch ``e`` of the configured run and is
    checked against the same float64 loss.
    """

    name = "tiny-train"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = _load_config("tiny_synthetic.json")
        self.images_per_op = int(self.cfg["dataset"]["samples"])

    def _train_config(self, epochs: int):
        t = self.cfg["train"]
        schedule = training.StepDecay() if t.get("schedule", "step") == "step" else training.ExpDecay()
        return training.TrainConfig(
            lr=float(t["lr"]), schedule=schedule, momentum=float(t["momentum"]),
            weight_decay=float(t["weight_decay"]), batch_size=int(t["batch_size"]),
            epochs=epochs, seed=derive_seed(self.seed, 3), flip=bool(t.get("flip", False)),
        )

    def _dataset(self):
        d = self.cfg["dataset"]
        return training.synthetic_dataset(
            classes=int(d["classes"]), samples=int(d["samples"]), image_size=int(d["image_size"]),
            seed=derive_seed(self.seed, 4), noise=float(d["noise"]),
        )

    def build(self, dtype, timings: dict | None = None):
        ul = self.cfg["ulsam"]
        t0 = time.perf_counter()
        graph = models.build_model(self.cfg["arch"], num_classes=int(self.cfg["num_classes"]), dtype=dtype,
                                   seed=derive_seed(self.seed, 5))
        t1 = time.perf_counter()
        graph = models.apply_ulsam(graph, ul["positions"], int(ul["g"]))
        if timings is not None:
            timings["models.build_ms"] = 1e3 * (t1 - t0)
            timings["models.apply_ulsam_ms"] = 1e3 * (time.perf_counter() - t1)
        return graph

    @property
    def epochs(self) -> int:
        return int(self.cfg["train"]["epochs"])

    def setup(self, timings: dict) -> None:
        self.losses: dict[int, float] = {}
        self.graph = self.build(np.float32, timings)
        self.initial = ({k: t.data.copy() for k, t in self.graph.params.items()}, self.graph.snapshot_buffers())
        t0 = time.perf_counter()
        self.dataset = self._dataset()
        timings["training.dataset_ms"] = timings["data_ms"] = 1e3 * (time.perf_counter() - t0)
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tiny-train-", dir=OUT_DIR))
        t0 = time.perf_counter()
        self._train(1)
        self.epoch_s = time.perf_counter() - t0
        timings["warmup_ms"] = 1e3 * self.epoch_s

    def _train(self, epochs: int) -> list[tuple[float, float, object]]:
        """Reset to the initial weights, train ``epochs`` epochs; (start, end, (epoch, loss)) per epoch."""
        params, buffers = self.initial
        for k, t in self.graph.params.items():
            t.data = params[k].copy()
            t.grad = None
        self.graph.restore_buffers(buffers)
        config = self._train_config(epochs)
        starts: list[float] = []
        lr_at = training.lr_at

        def stamped(*args, **kwargs):
            # train_loop asks for the rate once, at the start of each epoch
            starts.append(time.perf_counter())
            return lr_at(*args, **kwargs)

        training.lr_at = stamped
        try:
            history = training.train_loop(self.graph, self.dataset, config, out_dir=self.tmp)
            end = time.perf_counter()
        finally:
            training.lr_at = lr_at
        if len(starts) != len(history) or len(history) != epochs:
            raise RuntimeError(f"train_loop ran {len(history)} epochs and {len(starts)} lr_at calls, expected {epochs}")
        ends = starts[1:] + [end]
        return [(a, b, (rec["epoch"], rec["train_loss"])) for a, b, rec in zip(starts, ends, history)]

    def step(self, i, remaining_s):
        # the last call trains only as many epochs as fit in the time left
        epochs = max(1, min(self.epochs, math.ceil(remaining_s / max(self.epoch_s, 1e-3))))
        return self._train(epochs)

    def check(self, result, ref) -> bool:
        # every repeat of an epoch must also give a bitwise-identical loss
        epoch, loss = result
        first = self.losses.setdefault(epoch, loss)
        atol = LOSS_ATOL_FIRST if epoch == 0 else LOSS_ATOL
        return math.isfinite(loss) and loss == first and abs(loss - ref[epoch]) <= atol

    def reference(self) -> list[float]:
        graph64 = self.build(np.float64)
        _to_float64(self.build(np.float32), graph64, track_grad=True)
        history = training.train_loop(graph64, self._dataset(), self._train_config(self.epochs))
        return [rec["train_loss"] for rec in history]

    def teardown(self) -> None:
        if getattr(self, "tmp", None) is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
        self.graph = self.dataset = self.initial = self.tmp = None


class BlockSweep(Workload):
    """``attention.ulsam_forward`` plus ``Tensor.backward`` at m=512, 14x14, batch 8.

    One operation is one forward and backward at one ``g``; operations cycle
    through ``GROUPS`` and the timed loop ends on a whole cycle, so every run
    weighs each ``g`` equally.
    """

    name = "ulsam-block-g"
    GROUPS = (1, 4, 16, 64, 512)
    shape = (8, 512, 14, 14)
    images_per_op = shape[0]
    cycle = len(GROUPS)

    def _arrays(self, dtype):
        rng = np.random.default_rng(derive_seed(self.seed, 6))
        x = rng.standard_normal(self.shape, dtype=np.float32)
        upstream = rng.standard_normal(self.shape, dtype=np.float32)
        blocks = []
        for g in self.GROUPS:
            cfg = attention.UlsamConfig(self.shape[1], g)
            weights = attention.init_ulsam_weights(cfg, np.random.default_rng(derive_seed(self.seed, 100 + g)),
                                                   np.float32)
            weights.dw.data = weights.dw.data.astype(dtype)
            weights.pw.data = weights.pw.data.astype(dtype)
            blocks.append((cfg, weights))
        return x.astype(dtype), upstream.astype(dtype), blocks

    def _run(self, x, upstream, cfg, weights):
        f = Tensor(x, requires_grad=True)
        weights.dw.zero_grad()
        weights.pw.zero_grad()
        t0 = time.perf_counter()
        out = attention.ulsam_forward(f, cfg, weights)
        out.backward(upstream)
        return t0, time.perf_counter(), out.data, f.grad

    def setup(self, timings: dict) -> None:
        timings["models.build_ms"] = timings["models.apply_ulsam_ms"] = 0.0
        t0 = time.perf_counter()
        self.x, self.upstream, self.blocks = self._arrays(np.float32)
        timings["data_ms"] = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        for cfg, weights in self.blocks:
            self._run(self.x, self.upstream, cfg, weights)
        timings["warmup_ms"] = 1e3 * (time.perf_counter() - t0)

    def step(self, i, remaining_s):
        k = i % len(self.blocks)
        t0, t1, out, dx = self._run(self.x, self.upstream, *self.blocks[k])
        return [(t0, t1, (k, out, dx))]

    def check(self, result, ref) -> bool:
        k, out, dx = result
        return dx is not None and close_to(out, ref[k][0]) and close_to(dx, ref[k][1])

    def reference(self) -> list[tuple[np.ndarray, np.ndarray]]:
        x, upstream, blocks = self._arrays(np.float64)
        return [self._run(x, upstream, cfg, w)[2:] for cfg, w in blocks]

    def teardown(self) -> None:
        self.x = self.upstream = self.blocks = None


class Mv1UlsamInfer(Inference):
    name = "mv1-ulsam-infer"

    def __init__(self, seed: int):
        super().__init__(seed, _load_config("mv1_reduce.json"))


class Mv2Infer(Inference):
    name = "mv2-infer"

    def __init__(self, seed: int):
        super().__init__(seed, {"arch": "mv2", "num_classes": 1000})


WORKLOADS = {cls.name: cls for cls in (Mv1UlsamInfer, Mv2Infer, TinyTrain, BlockSweep)}


def reference(name: str, seed: int):
    """Float64 results for every distinct input of a workload (run in a child process)."""
    return WORKLOADS[name](seed).reference()
