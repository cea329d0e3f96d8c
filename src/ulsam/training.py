"""Desk-scale training: SGD with momentum, LR schedules, data, checkpoints.

Runs are bit-reproducible: data order comes from a generator seeded by the run
seed, kernels are deterministic, and training is single-threaded. Weight decay
is coupled (added to the gradient before the momentum update), the classical
SGD formulation.

Checkpoint format (little-endian): magic ``b"ULSM"``, format version u32, then
for each named tensor ``{name length u32, name bytes, rank u32, extents
u32 x rank, float32 payload}``. Parameters and batch-norm running statistics
are both stored, so a reloaded model evaluates identically.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import models
from .errors import CheckpointError, ConfigurationError, DataError, IngestionError
from .tensor import Tensor, op_result

CHECKPOINT_MAGIC = b"ULSM"
CHECKPOINT_VERSION = 1
EVAL_BATCH = 256  # images per inference forward in evaluate

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)


# ---------------------------------------------------------------------------
# schedules and the optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDecay:
    """Divide the rate by 10 every 30 epochs."""

    factor = 0.1
    every = 30


@dataclass(frozen=True)
class ExpDecay:
    """Multiply the rate by 0.98 after every epoch."""

    factor = 0.98


Schedule = Union[StepDecay, ExpDecay]


def lr_at(initial_lr: float, schedule: Schedule, epoch: int) -> float:
    """Learning rate in effect for ``epoch`` (0-based)."""
    if epoch < 0:
        raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
    if isinstance(schedule, StepDecay):
        return initial_lr * schedule.factor ** (epoch // schedule.every)
    if isinstance(schedule, ExpDecay):
        return initial_lr * schedule.factor**epoch
    raise ConfigurationError(f"unknown schedule {schedule!r}")


@dataclass
class TrainConfig:
    lr: float = 0.1
    schedule: Schedule = field(default_factory=StepDecay)
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    epochs: int = 30
    seed: int = 0
    flip: bool = False  # optional random horizontal flip

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("weight_decay must be >= 0; batch_size and epochs >= 1")


def sgd_step(
    params: dict[str, Tensor],
    velocities: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """v <- momentum*v + (grad + wd*param); param <- param - lr*v. Missing grads are zero."""
    for name in sorted(params):
        p = params[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        if grad.shape != p.data.shape:
            raise ConfigurationError(f"sgd: gradient shape {grad.shape} != param shape {p.data.shape} for {name}")
        v = velocities.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = momentum * v + (grad + weight_decay * p.data)
        velocities[name] = v
        p.data = p.data - lr * v


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class; gradient is (softmax - onehot)/batch."""
    if logits.ndim != 2:
        raise ConfigurationError(f"cross_entropy: logits must be (batch, classes), got {logits.shape}")
    b, c = logits.shape
    if b == 0:
        raise ConfigurationError("cross_entropy: empty batch (0 rows of logits)")
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ConfigurationError(f"cross_entropy: labels shape {labels.shape}, expected ({b},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ConfigurationError(f"cross_entropy: labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise ConfigurationError(f"cross_entropy: label out of range [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    losses = lse - z[np.arange(b), labels]

    def _bwd(g, logits=logits, z=z, labels=labels, b=b):
        soft = np.exp(z)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(b), labels] -= 1.0
        logits.accumulate_grad(float(g) * soft / b)

    return op_result(np.array(losses.mean(), dtype=logits.dtype), (logits,), _bwd, "cross_entropy")


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose label is among the k largest logits (ties: lower class wins)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ConfigurationError("topk_accuracy: logits must be (batch, classes) with one label per row")
    c = logits.shape[1]
    if not (1 <= k <= c):
        raise ConfigurationError(f"topk_accuracy: k = {k} exceeds the {c} classes")
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hits = (order == labels[:, None]).any(axis=1)
    return float(hits.mean())


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    images: np.ndarray  # (n, 3, h, w) float32
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("dataset: images must be (n, c, h, w) with one label per image")

    def __len__(self) -> int:
        return self.images.shape[0]


_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


def load_cifar10_binary(
    paths: Sequence[Union[str, Path]],
    mean: Sequence[float] = CIFAR10_MEAN,
    std: Sequence[float] = CIFAR10_STD,
) -> Dataset:
    """Read CIFAR-10 binary batches: per record, 1 label byte then 3072 channel-major pixels.

    Pixels map to [0, 1] by /255, then per-channel (x - mean) / std.
    """
    images, labels = [], []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) % _CIFAR_RECORD != 0:
            offset = len(raw) - (len(raw) % _CIFAR_RECORD)
            raise IngestionError(
                f"{path}: truncated record at byte offset {offset} (file size {len(raw)} is not a multiple of {_CIFAR_RECORD})"
            )
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        lab = arr[:, 0]
        bad = np.nonzero(lab > 9)[0]
        if bad.size:
            raise DataError(f"{path}: record {int(bad[0])} has label byte {int(lab[bad[0]])} > 9")
        images.append(arr[:, 1:].reshape(-1, 3, 32, 32))
        labels.append(lab.astype(np.int64))
    pixels = np.concatenate(images).astype(np.float32) / 255.0
    mean_a = np.asarray(mean, dtype=np.float32).reshape(1, 3, 1, 1)
    std_a = np.asarray(std, dtype=np.float32).reshape(1, 3, 1, 1)
    return Dataset(images=(pixels - mean_a) / std_a, labels=np.concatenate(labels), num_classes=10)


def synthetic_dataset(classes: int, samples: int, image_size: int = 8, seed: int = 0,
                      noise: float = 0.25) -> Dataset:
    """Seeded, linearly separable images: one random unit template per class plus noise."""
    if classes < 2 or samples < classes:
        raise ConfigurationError("synthetic dataset needs >= 2 classes and >= 1 sample per class")
    rng = np.random.default_rng(seed)
    templates = rng.standard_normal((classes, 3, image_size, image_size))
    templates /= np.sqrt((templates**2).sum(axis=(1, 2, 3), keepdims=True))
    templates *= 2.0
    labels = np.arange(samples) % classes
    rng.shuffle(labels)
    images = templates[labels] + noise * rng.standard_normal((samples, 3, image_size, image_size))
    return Dataset(images=images.astype(np.float32), labels=labels.astype(np.int64), num_classes=classes)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: Union[str, Path], graph: models.ModelGraph) -> None:
    """Write parameters and batch-norm running statistics as float32 records.

    The bytes go to a temporary file that then replaces ``path`` in one
    rename, so a write that fails part-way leaves the old checkpoint intact.
    """
    entries: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in sorted(graph.params.items())]
    entries += [(n, b) for n, b in sorted(graph.buffers.items())]
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    for name, arr in entries:
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(out)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only left behind by a failed write


def load_checkpoint(path: Union[str, Path], graph: models.ModelGraph) -> None:
    """Assign stored tensors into the graph by name; shapes must match exactly.

    The whole file is parsed and checked before anything is assigned, so a
    rejected checkpoint leaves every parameter and buffer as it was.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (expected {CHECKPOINT_MAGIC!r})")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    pos = 8
    staged: dict[str, np.ndarray] = {}
    while pos < len(raw):
        try:
            (nlen,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            count = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).reshape(shape)
            pos += 4 * count
        except (struct.error, ValueError) as e:
            raise CheckpointError(f"{path}: corrupt record near byte {pos}: {e}") from None
        if name in graph.params:
            expect = graph.params[name].shape
        elif name in graph.buffers:
            expect = graph.buffers[name].shape
        else:
            raise CheckpointError(f"{path}: tensor {name!r} does not exist in this model")
        if arr.shape != expect:
            raise CheckpointError(f"{path}: {name} has shape {arr.shape}, model expects {expect}")
        staged[name] = arr
    missing = (set(graph.params) | set(graph.buffers)) - set(staged)
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing tensors: {sorted(missing)[:5]}")
    for name, arr in staged.items():
        if name in graph.params:
            graph.params[name].data = arr.astype(graph.dtype)
        else:
            graph.buffers[name][...] = arr.astype(graph.dtype)


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


def _batch_logits(graph: models.ModelGraph, images: np.ndarray) -> np.ndarray:
    outs = []
    for lo in range(0, images.shape[0], EVAL_BATCH):
        outs.append(models.forward(graph, images[lo : lo + EVAL_BATCH], train=False).data)
    return np.concatenate(outs)


def evaluate(graph: models.ModelGraph, dataset: Dataset, ks: Optional[Sequence[int]] = None) -> dict[str, float]:
    """Top-k accuracies in inference mode. Default ks are (1, 5) clamped to the class count;
    explicitly requested ks must not exceed it."""
    c = dataset.num_classes
    if graph.num_classes != c:
        raise ConfigurationError(f"model head has {graph.num_classes} classes, dataset has {c}")
    if ks is None:
        pairs = [("top1", 1), ("top5", min(5, c))]
    else:
        for k in ks:
            if k > c:
                raise ConfigurationError(f"requested top-{k} with only {c} classes")
        pairs = [(f"top{k}", k) for k in ks]
    logits = _batch_logits(graph, dataset.images)
    return {name: topk_accuracy(logits, dataset.labels, k) for name, k in pairs}


def train_loop(
    graph: models.ModelGraph,
    dataset: Dataset,
    config: TrainConfig,
    out_dir: Optional[Union[str, Path]] = None,
    eval_dataset: Optional[Dataset] = None,
) -> list[dict]:
    """SGD training; returns one history record per epoch.

    Each record holds {epoch, lr, train_loss, top1, top5}; a checkpoint is
    written every epoch when ``out_dir`` is given, along with history.jsonl.
    """
    if graph.num_classes != dataset.num_classes:
        raise ConfigurationError(
            f"model head has {graph.num_classes} classes, dataset has {dataset.num_classes}"
        )
    rng = np.random.default_rng(config.seed)
    velocities: dict[str, np.ndarray] = {}
    history: list[dict] = []
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "history.jsonl").write_text("")

    n = len(dataset)
    for epoch in range(config.epochs):
        lr = lr_at(config.lr, config.schedule, epoch)
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            batch = dataset.images[idx]
            if config.flip:
                flips = rng.random(len(idx)) < 0.5
                batch = batch.copy()
                batch[flips] = batch[flips, :, :, ::-1]
            graph.zero_grads()
            logits = models.forward(graph, batch.astype(graph.dtype), train=True)
            loss = cross_entropy(logits, dataset.labels[idx])
            loss.backward()
            sgd_step(graph.params, velocities, lr, config.momentum, config.weight_decay)
            losses.append(float(loss.data))
        metrics = evaluate(graph, eval_ds)
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "top1": metrics["top1"],
            "top5": metrics["top5"],
        }
        history.append(record)
        if out_path is not None:
            save_checkpoint(out_path / "checkpoint.bin", graph)
            with open(out_path / "history.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
    return history
