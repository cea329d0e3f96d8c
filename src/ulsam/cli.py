"""Command-line entry point: analysis, verification, and training workflows.

Exit codes are a stable contract: 0 success, 1 check failure, 2 usage or
configuration error (or a training run whose loss turned non-finite).
Command-line overrides (--g, --positions, --alpha, ...) win over the config
file: each is written into the config as its field, then read and checked as
one. Every subcommand is deterministic given identical inputs and seed.
The report commands (analyze, table1, gradcheck, describe) print text or JSON
(--format) to stdout or to --out; ``train --out`` is the run directory
(default ``run``) and ``eval --out`` the metrics file.

Config file (JSON)::

    {
      "arch": "mv1" | "mv2" | "mv1-tiny",
      "alpha": 1.0,
      "num_classes": 1000,
      "ulsam": {"g": 4, "positions": ["8:1", "9:1", "11"]},
      "train": {"lr": 0.1, "schedule": "step" | "exp", "momentum": 0.9,
                "weight_decay": 4e-5, "batch_size": 128, "epochs": 30,
                "seed": 0, "flip": false},
      "dataset": {"kind": "synthetic", "classes": 4, "samples": 256,
                  "image_size": 8, "seed": 0, "noise": 0.5}
                 | {"kind": "cifar10", "paths": ["data_batch_1.bin", ...],
                    "mean": [...], "std": [...]}
    }

Position strings follow the table grammar: ``"L"`` substitutes layer L with an
attention block, ``"L:1"`` inserts one after layer L.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import costs, gradcheck, models, training
from .errors import ConfigurationError, UlsamError

_KNOWN_TOP = {"arch", "alpha", "num_classes", "ulsam", "train", "dataset"}
_KNOWN_ULSAM = {"g", "positions"}
_KNOWN_TRAIN = {"lr", "schedule", "momentum", "weight_decay", "batch_size", "epochs", "seed", "flip"}
_KNOWN_DATASET = {"kind", "classes", "samples", "image_size", "seed", "noise", "paths", "mean", "std"}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as e:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in cfg:
        if key not in _KNOWN_TOP:
            raise ConfigurationError(f'field "{key}": unknown config field')
    for section, known in (("ulsam", _KNOWN_ULSAM), ("train", _KNOWN_TRAIN), ("dataset", _KNOWN_DATASET)):
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigurationError(f'field "{section}": must be an object, got {json.dumps(body)}')
        for key in body:
            if key not in known:
                raise ConfigurationError(f'field "{section}.{key}": unknown config field')
    return cfg


# the JSON types a config value may have, by the words its error message uses
_JSON_TYPES = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "a list of strings": lambda v: isinstance(v, list) and all(map(_JSON_TYPES["a string"], v)),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_JSON_TYPES["a number"], v)),
}


def _read(cfg: dict, field: str, kind: str, default, low=None):
    """The config value at ``field`` ("key" or "section.key"), which must have
    the JSON type ``kind`` and, given ``low``, be at least ``low``; ``default``
    when the field is absent. JSON integers may have any size, so each one
    must also fit a signed 64-bit integer; Python's json reads NaN, Infinity
    and -Infinity and overflows 1e400 to inf, so each float must be finite."""
    *section, key = field.split(".")
    body = cfg.get(section[0], {}) if section else cfg
    if key not in body:
        return default
    if not _JSON_TYPES[kind](body[key]):
        raise ConfigurationError(f'field "{field}": must be {kind}, got {json.dumps(body[key])}')
    for v in body[key] if isinstance(body[key], list) else [body[key]]:
        if isinstance(v, int) and not -2**63 <= v < 2**63:
            raise ConfigurationError(f'field "{field}": must fit a signed 64-bit integer, got a {v.bit_length()}-bit one')
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigurationError(f'field "{field}": must be finite, got {v}')
    if low is not None and body[key] < low:
        raise ConfigurationError(f'field "{field}": must be >= {low}, got {body[key]}')
    return float(body[key]) if kind == "a number" else body[key]


def _model_settings(cfg: dict, args) -> dict:
    """The model settings of ``cfg`` with the command-line overrides written into it
    (the command line wins), so that each override is read and checked as its field."""
    for field, value in (("alpha", args.alpha), ("num_classes", args.num_classes), ("ulsam.g", args.g),
                         ("ulsam.positions", args.positions), ("train.seed", args.seed)):
        if value is not None:
            *section, key = field.split(".")
            (cfg.setdefault(section[0], {}) if section else cfg)[key] = value
    return {
        "arch": _read(cfg, "arch", "a string", "mv1"),
        "alpha": _read(cfg, "alpha", "a number", 1.0),
        "num_classes": _read(cfg, "num_classes", "an integer", 1000),
        "g": _read(cfg, "ulsam.g", "an integer", 4, low=1),
        "positions": _read(cfg, "ulsam.positions", "a list of strings", []),
        "seed": _read(cfg, "train.seed", "an integer", 0, low=0),
    }


def _build_graph(settings: dict) -> models.ModelGraph:
    graph = models.build_model(settings["arch"], alpha=settings["alpha"], num_classes=settings["num_classes"],
                               dtype=np.float32, seed=settings["seed"])
    if settings["positions"]:
        graph = models.apply_ulsam(graph, settings["positions"], settings["g"])
    return graph


def _emit(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _report(args, data, text: str) -> None:
    _emit(args.out, json.dumps(data, indent=2) if args.format == "json" else text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    graph = _build_graph(_model_settings(load_config(args.config), args))
    report = costs.analyze_model(graph, input_hw=args.input_size,
                                 include_bn_params=args.include_bn_params)
    _report(args, report.to_dict(), costs.format_report(report))
    return 0


def cmd_table1(args) -> int:
    rows = costs.table1_rows()
    _report(args, rows, costs.format_table1(rows))
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed: must be >= 0, got {args.seed}")
    results = gradcheck.run_suite(seed=args.seed)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<44} max_rel_err={r.max_error:.3e}  tol={r.tolerance:g}"
             for r in results]
    failures = [r for r in results if not r.passed]
    _report(args, [{"op": r.name, "max_rel_err": r.max_error, "tolerance": r.tolerance, "passed": r.passed}
                   for r in results], "\n".join(lines))
    if failures:
        worst = max(failures, key=lambda r: r.max_error)
        print(f"gradcheck FAILED: {len(failures)} op(s); worst is {worst.name!r} "
              f"with max relative error {worst.max_error:.3e}", file=sys.stderr)
        return 1
    return 0


def _dataset_from(cfg: dict) -> training.Dataset:
    if not cfg.get("dataset"):
        raise ConfigurationError('field "dataset": missing (nothing to train or evaluate on)')
    kind = _read(cfg, "dataset.kind", "a string", None)
    if kind == "synthetic":
        samples = _read(cfg, "dataset.samples", "an integer", 256)
        image_size = _read(cfg, "dataset.image_size", "an integer", 8, low=1)
        try:
            return training.synthetic_dataset(
                classes=_read(cfg, "dataset.classes", "an integer", 4), samples=samples, image_size=image_size,
                seed=_read(cfg, "dataset.seed", "an integer", 0, low=0),
                noise=_read(cfg, "dataset.noise", "a number", 0.5, low=0),
            )
        except MemoryError:
            raise ConfigurationError(f'fields "dataset.samples" ({samples}) and "dataset.image_size" ({image_size}): '
                                     "the synthetic dataset does not fit in memory") from None
    if kind == "cifar10":
        paths = _read(cfg, "dataset.paths", "a list of strings", None)
        if not paths:
            raise ConfigurationError('field "dataset.paths": required for the cifar10 kind')
        mean = _read(cfg, "dataset.mean", "a list of numbers", training.CIFAR10_MEAN)
        std = _read(cfg, "dataset.std", "a list of numbers", training.CIFAR10_STD)
        for field, values in (("dataset.mean", mean), ("dataset.std", std)):
            if len(values) != 3:
                raise ConfigurationError(f'field "{field}": must have 3 entries, one per channel, got {len(values)}')
        if not all(v > 0 for v in std):
            raise ConfigurationError(f'field "dataset.std": every entry must be > 0, got {json.dumps(std)}')
        return training.load_cifar10_binary(paths, mean=mean, std=std)
    raise ConfigurationError(f'field "dataset.kind": expected "synthetic" or "cifar10", got {kind!r}')


def _train_config_from(cfg: dict, seed: int) -> training.TrainConfig:
    schedules = {"step": training.StepDecay, "exp": training.ExpDecay}
    sched_name = _read(cfg, "train.schedule", "a string", "step")
    if sched_name not in schedules:
        raise ConfigurationError(f'field "train.schedule": expected "step" or "exp", got {sched_name!r}')
    return training.TrainConfig(
        lr=_read(cfg, "train.lr", "a number", 0.1),
        schedule=schedules[sched_name](),
        momentum=_read(cfg, "train.momentum", "a number", 0.9),
        weight_decay=_read(cfg, "train.weight_decay", "a number", 4e-5),
        batch_size=_read(cfg, "train.batch_size", "an integer", 128),
        epochs=_read(cfg, "train.epochs", "an integer", 30),
        seed=seed,
        flip=_read(cfg, "train.flip", "true or false", False),
    )


def _graph_for_dataset(cfg: dict, settings: dict) -> tuple[models.ModelGraph, training.Dataset]:
    """The config's dataset and a graph for it; the head takes the dataset's
    class count unless the config or the command line sets one."""
    dataset = _dataset_from(cfg)
    if "num_classes" not in cfg:
        settings["num_classes"] = dataset.num_classes
    return _build_graph(settings), dataset


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    settings = _model_settings(cfg, args)
    train_cfg = _train_config_from(cfg, settings["seed"])
    graph, dataset = _graph_for_dataset(cfg, settings)
    history = training.train_loop(graph, dataset, train_cfg, out_dir=args.out)
    for record in history:
        print(json.dumps(record))
    print(f"checkpoint and history written to {args.out}/", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    graph, dataset = _graph_for_dataset(cfg, _model_settings(cfg, args))
    training.load_checkpoint(args.checkpoint, graph)
    ks = None if args.topk is None else [1, args.topk]
    metrics = training.evaluate(graph, dataset, ks=ks)
    _emit(args.out, json.dumps(metrics))
    return 0


def cmd_describe(args) -> int:
    graph = _build_graph(_model_settings(load_config(args.config), args))
    trace = models.spatial_trace(graph, args.input_size)
    payload = {
        "arch": graph.arch, "alpha": graph.alpha, "num_classes": graph.num_classes,
        "ulsam_positions": graph.ulsam_positions,
        "ulsam_g": graph.ulsam_g,
        "layers": [
            {"layer": s.index, "kind": s.kind, "in": s.in_channels, "out": s.out_channels,
             "stride": s.stride, "out_hw": hw[0]}
            for s, hw in zip(graph.layers, trace)
        ],
    }
    lines = [f"{graph.arch} (alpha={graph.alpha}, classes={graph.num_classes})"]
    if graph.ulsam_positions:
        lines.append(f"attention positions: {', '.join(graph.ulsam_positions)} (g={graph.ulsam_g})")
    lines.append(f"{'layer':>8}  {'kind':<12} {'in->out':<14} {'stride':>6} {'out hw':>7}")
    for s, hw in zip(graph.layers, trace):
        lines.append(f"{s.index:>8}  {s.kind:<12} {f'{s.in_channels}->{s.out_channels}':<14} {s.stride:>6} {hw[0]:>7}")
    _report(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common_model_flags(sp) -> None:
    sp.add_argument("--config", default=None, help="JSON config path")
    sp.add_argument("--g", type=int, default=None, help="attention group count override")
    sp.add_argument("--positions", default=None, type=lambda text: [p for p in text.split(",") if p],
                    help='comma-separated position directives, e.g. "8:1,9:1,11"')
    sp.add_argument("--alpha", type=float, default=None, help="width multiplier override (mv1)")
    sp.add_argument("--num-classes", type=int, default=None, help="class-count override")
    sp.add_argument("--seed", type=int, default=None, help="seed override")


def _report_flags(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None, help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulsam",
        description="Subspace attention for compact CNNs: cost analysis, gradient checks, desk-scale training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="per-layer parameter/MAC report for a model config")
    _common_model_flags(sp)
    _report_flags(sp)
    sp.add_argument("--input-size", type=int, default=224)
    sp.add_argument("--include-bn-params", action="store_true",
                    help="count batch-norm affine pairs in parameter totals")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("table1", help="attention-block overhead comparison at m=512, 14x14")
    _report_flags(sp)
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("gradcheck", help="finite-difference verification of every backward pass")
    sp.add_argument("--seed", type=int, default=0)
    _report_flags(sp)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("train", help="train per the config's train/dataset sections")
    _common_model_flags(sp)
    sp.add_argument("--out", default="run", help="run directory for the checkpoint and history")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the config's dataset")
    _common_model_flags(sp)
    sp.add_argument("--checkpoint", required=True, help="checkpoint file written by train")
    sp.add_argument("--topk", type=int, default=None, help="report top-k at this k (plus top-1)")
    sp.add_argument("--out", default=None, help="write the metrics to this path instead of stdout")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("describe", help="print the layer table of a model config")
    _common_model_flags(sp)
    _report_flags(sp)
    sp.add_argument("--input-size", type=int, default=224)
    sp.set_defaults(func=cmd_describe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UlsamError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
