"""Command-line entry point: analysis, verification, and training workflows.

Exit codes are a stable contract: 0 success, 1 check failure, 2 usage or
configuration error. Command-line overrides (--g, --positions, --alpha, ...)
win over the config file. Every subcommand is deterministic given identical
inputs and seed.

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
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in cfg:
        if key not in _KNOWN_TOP:
            raise ConfigurationError(f'field "{key}": unknown config field')
    for section, known in (("ulsam", _KNOWN_ULSAM), ("train", _KNOWN_TRAIN), ("dataset", _KNOWN_DATASET)):
        for key in cfg.get(section, {}) or {}:
            if key not in known:
                raise ConfigurationError(f'field "{section}.{key}": unknown config field')
    return cfg


def _model_settings(cfg: dict, args) -> dict:
    arch = cfg.get("arch", "mv1")
    alpha = float(cfg.get("alpha", 1.0))
    num_classes = int(cfg.get("num_classes", 1000))
    ul = cfg.get("ulsam") or {}
    g = int(ul.get("g", 4))
    positions = list(ul.get("positions", []))
    seed = int((cfg.get("train") or {}).get("seed", 0))
    # command line wins
    if getattr(args, "alpha", None) is not None:
        alpha = args.alpha
    if getattr(args, "num_classes", None) is not None:
        num_classes = args.num_classes
    if getattr(args, "g", None) is not None:
        g = args.g
    if getattr(args, "positions", None) is not None:
        positions = [p for p in args.positions.split(",") if p]
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if not isinstance(arch, str):
        raise ConfigurationError('field "arch": must be a string')
    if not (0.0 < alpha <= 1.0):
        raise ConfigurationError(f'field "alpha": must be in (0, 1], got {alpha}')
    if num_classes < 1:
        raise ConfigurationError(f'field "num_classes": must be >= 1, got {num_classes}')
    if g < 1:
        raise ConfigurationError(f'field "ulsam.g": must be >= 1, got {g}')
    return {"arch": arch, "alpha": alpha, "num_classes": num_classes, "g": g,
            "positions": positions, "seed": seed}


def _build_graph(settings: dict, dtype=np.float32) -> models.ModelGraph:
    graph = models.build_model(settings["arch"], alpha=settings["alpha"],
                               num_classes=settings["num_classes"], dtype=dtype,
                               seed=settings["seed"])
    if settings["positions"]:
        graph = models.apply_ulsam(graph, settings["positions"], settings["g"])
    return graph


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    settings = _model_settings(load_config(args.config), args)
    graph = _build_graph(settings)
    report = costs.analyze_model(graph, input_hw=args.input_size,
                                 include_bn_params=args.include_bn_params)
    if args.format == "json":
        _emit(args, json.dumps(report.to_dict(), indent=2))
    else:
        _emit(args, costs.format_report(report))
    return 0


def cmd_table1(args) -> int:
    rows = costs.table1_rows()
    if args.format == "json":
        _emit(args, json.dumps(rows, indent=2))
    else:
        _emit(args, costs.format_table1(rows))
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(seed=args.seed if args.seed is not None else 0)
    lines = []
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<44} max_rel_err={r.max_error:.3e}  tol={r.tolerance:g}")
        if not r.passed:
            failures.append(r)
    if args.format == "json":
        _emit(args, json.dumps([
            {"op": r.name, "max_rel_err": r.max_error, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ], indent=2))
    else:
        _emit(args, "\n".join(lines))
    if failures:
        worst = max(failures, key=lambda r: r.max_error)
        print(f"gradcheck FAILED: {len(failures)} op(s); worst is {worst.name!r} "
              f"with max relative error {worst.max_error:.3e}", file=sys.stderr)
        return 1
    return 0


def _dataset_from(cfg: dict, seed_override=None) -> training.Dataset:
    ds = cfg.get("dataset")
    if not ds:
        raise ConfigurationError('field "dataset": missing (nothing to train or evaluate on)')
    kind = ds.get("kind")
    if kind == "synthetic":
        return training.synthetic_dataset(
            classes=int(ds.get("classes", 4)),
            samples=int(ds.get("samples", 256)),
            image_size=int(ds.get("image_size", 8)),
            seed=int(ds.get("seed", 0)) if seed_override is None else seed_override,
            noise=float(ds.get("noise", 0.5)),
        )
    if kind == "cifar10":
        paths = ds.get("paths")
        if not paths:
            raise ConfigurationError('field "dataset.paths": required for the cifar10 kind')
        for p in paths:
            if not Path(p).exists():
                raise ConfigurationError(f"dataset file {p} does not exist")
        return training.load_cifar10_binary(
            paths,
            mean=ds.get("mean", training.CIFAR10_MEAN),
            std=ds.get("std", training.CIFAR10_STD),
        )
    raise ConfigurationError(f'field "dataset.kind": expected "synthetic" or "cifar10", got {kind!r}')


def _train_config_from(cfg: dict, args) -> training.TrainConfig:
    tr = cfg.get("train") or {}
    sched_name = tr.get("schedule", "step")
    if sched_name == "step":
        schedule = training.StepDecay()
    elif sched_name == "exp":
        schedule = training.ExpDecay()
    else:
        raise ConfigurationError(f'field "train.schedule": expected "step" or "exp", got {sched_name!r}')
    seed = int(tr.get("seed", 0))
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return training.TrainConfig(
        lr=float(tr.get("lr", 0.1)),
        schedule=schedule,
        momentum=float(tr.get("momentum", 0.9)),
        weight_decay=float(tr.get("weight_decay", 4e-5)),
        batch_size=int(tr.get("batch_size", 128)),
        epochs=int(tr.get("epochs", 30)),
        seed=seed,
        flip=bool(tr.get("flip", False)),
    )


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    settings = _model_settings(cfg, args)
    train_cfg = _train_config_from(cfg, args)
    dataset = _dataset_from(cfg)
    if settings["num_classes"] != dataset.num_classes and "num_classes" not in cfg and args.num_classes is None:
        settings["num_classes"] = dataset.num_classes
    graph = _build_graph(settings)
    out_dir = args.out if args.out else "run"
    history = training.train_loop(graph, dataset, train_cfg, out_dir=out_dir)
    for record in history:
        print(json.dumps(record))
    print(f"checkpoint and history written to {out_dir}/", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    settings = _model_settings(cfg, args)
    dataset = _dataset_from(cfg)
    if settings["num_classes"] != dataset.num_classes and "num_classes" not in cfg and args.num_classes is None:
        settings["num_classes"] = dataset.num_classes
    graph = _build_graph(settings)
    if not Path(args.checkpoint).exists():
        raise ConfigurationError(f"checkpoint {args.checkpoint} does not exist")
    training.load_checkpoint(args.checkpoint, graph)
    ks = None if args.topk is None else [1, args.topk]
    metrics = training.evaluate(graph, dataset, ks=ks)
    _emit(args, json.dumps(metrics))
    return 0


def cmd_describe(args) -> int:
    settings = _model_settings(load_config(args.config), args)
    graph = _build_graph(settings)
    trace = models.spatial_trace(graph, args.input_size)
    if args.format == "json":
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
        _emit(args, json.dumps(payload, indent=2))
        return 0
    lines = [f"{graph.arch} (alpha={graph.alpha}, classes={graph.num_classes})"]
    if graph.ulsam_positions:
        lines.append(f"attention positions: {', '.join(graph.ulsam_positions)} (g={graph.ulsam_g})")
    lines.append(f"{'layer':>8}  {'kind':<12} {'in->out':<14} {'stride':>6} {'out hw':>7}")
    for s, hw in zip(graph.layers, trace):
        lines.append(f"{s.index:>8}  {s.kind:<12} {f'{s.in_channels}->{s.out_channels}':<14} {s.stride:>6} {hw[0]:>7}")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common_model_flags(sp) -> None:
    sp.add_argument("--config", default=None, help="JSON config path")
    sp.add_argument("--g", type=int, default=None, help="attention group count override")
    sp.add_argument("--positions", default=None, help='comma-separated position directives, e.g. "8:1,9:1,11"')
    sp.add_argument("--alpha", type=float, default=None, help="width multiplier override (mv1)")
    sp.add_argument("--num-classes", type=int, default=None, help="class-count override")
    sp.add_argument("--seed", type=int, default=None, help="seed override")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulsam",
        description="Subspace attention for compact CNNs: cost analysis, gradient checks, desk-scale training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="per-layer parameter/MAC report for a model config")
    _common_model_flags(sp)
    sp.add_argument("--input-size", type=int, default=224)
    sp.add_argument("--include-bn-params", action="store_true",
                    help="count batch-norm affine pairs in parameter totals")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("table1", help="attention-block overhead comparison at m=512, 14x14")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("gradcheck", help="finite-difference verification of every backward pass")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("train", help="train per the config's train/dataset sections")
    _common_model_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on the config's dataset")
    _common_model_flags(sp)
    sp.add_argument("--checkpoint", required=True, help="checkpoint file written by train")
    sp.add_argument("--topk", type=int, default=None, help="report top-k at this k (plus top-1)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("describe", help="print the layer table of a model config")
    _common_model_flags(sp)
    sp.add_argument("--input-size", type=int, default=224)
    sp.set_defaults(func=cmd_describe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UlsamError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
