"""Command-line surface: exit codes, output formats, overrides, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ulsam
from ulsam import cli
from ulsam.tensor import Tensor


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def test_table1_pins_reference_rows(capsys):
    code, out, _ = run_cli(["table1"], capsys)
    assert code == 0
    rows = {line.split("|")[0].strip(): [tok.strip() for tok in line.split("|")[1:]]
            for line in out.splitlines() if "|" in line and not line.startswith("Attention")}
    assert rows["ULSAM"] == ["1", "0.2", "1×", "1×"]
    assert rows["A2Net"] == ["66", "12.85", "64×", "64×"]
    assert rows["NonLocal"] == ["524", "102.76", "512×", "512×"]


def test_table1_rerun_is_bitwise_identical(capsys):
    _, first, _ = run_cli(["table1"], capsys)
    _, second, _ = run_cli(["table1"], capsys)
    assert first == second


def test_table1_json(capsys):
    code, out, _ = run_cli(["table1", "--format", "json"], capsys)
    rows = json.loads(out)
    assert code == 0 and len(rows) == 6
    assert {r["kind"] for r in rows} == {"NonLocal", "A2Net", "SENet", "BAM", "CBAM", "ULSAM"}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_vanilla_mv1_totals(capsys):
    code, out, _ = run_cli(["analyze", "--format", "json"], capsys)
    assert code == 0
    totals = json.loads(out)["totals"]
    assert abs(totals["params"] - 4.2e6) / 4.2e6 < 0.02
    assert abs(totals["macs"] - 569e6) / 569e6 < 0.02


def test_analyze_mv2_with_positions(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "mv2", "num_classes": 1000,
                               "ulsam": {"g": 4, "positions": ["14", "17"]}}))
    code, out, _ = run_cli(["analyze", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["totals"]["macs"] - 261.88e6) / 261.88e6 < 0.02
    assert payload["metadata"]["ulsam_positions"] == ["14", "17"]


def test_analyze_rejects_malformed_position(capsys):
    code, _, err = run_cli(["analyze", "--positions", "9:2"], capsys)
    assert code == 2
    assert '"L" or "L:1"' in err


def test_analyze_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "mv1", "widht": 1.0}))
    code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
    assert code == 2 and 'field "widht"' in err


def test_analyze_rejects_alpha_on_mv2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "mv2", "alpha": 0.5}))
    code, _, err = run_cli(["analyze", "--config", str(cfg)], capsys)
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("command", ["describe", "analyze"])
@pytest.mark.parametrize("size", [-5, 0, 8])
def test_input_size_below_model_minimum_rejected(command, size, capsys):
    code, out, err = run_cli([command, "--input-size", str(size)], capsys)
    assert code == 2 and out == ""
    assert f"{size}x{size}" in err and "minimum 32" in err


def test_cli_overrides_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "mv1", "alpha": 1.0, "num_classes": 1000,
                               "ulsam": {"g": 2, "positions": ["11"]}}))
    code, out, _ = run_cli(["describe", "--config", str(cfg), "--g", "8",
                            "--positions", "8:1,9:1,11", "--alpha", "0.5",
                            "--num-classes", "10", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ulsam_g"] == 8
    assert payload["ulsam_positions"] == ["8:1", "9:1", "11"]
    assert payload["alpha"] == 0.5
    assert payload["num_classes"] == 10


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_default_run_passes(capsys):
    code, out, _ = run_cli(["gradcheck", "--seed", "5"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_gradcheck_fixed_seed_reports_identically(capsys):
    _, a, _ = run_cli(["gradcheck", "--seed", "3"], capsys)
    _, b, _ = run_cli(["gradcheck", "--seed", "3"], capsys)
    assert a == b


def test_gradcheck_json_parses(capsys):
    code, out, _ = run_cli(["gradcheck", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[-1]["op"] == "tiny model + attention end-to-end"
    assert all(r["passed"] is True and r["max_rel_err"] < r["tolerance"] for r in rows)


def test_gradcheck_corrupted_backward_fails_naming_op(monkeypatch, capsys):
    from ulsam.tensor import op_result

    def corrupted_relu6(x):
        mask = ((x.data > 0) & (x.data < 6)).astype(x.dtype)
        # 1% skewed backward
        return op_result(np.clip(x.data, 0.0, 6.0), (x, lambda g: g * (mask * 1.01)))

    monkeypatch.setattr("ulsam.ops.relu6", corrupted_relu6)
    code, out, err = run_cli(["gradcheck"], capsys)
    assert code == 1
    assert "relu6" in err
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed and all("relu6" in line for line in failed)


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


TRAIN_CFG = {
    "arch": "mv1-tiny",
    "num_classes": 4,
    "ulsam": {"g": 4, "positions": ["5:1"]},
    "train": {"lr": 0.01, "schedule": "step", "momentum": 0.9, "weight_decay": 4e-5,
              "batch_size": 32, "epochs": 3, "seed": 7},
    "dataset": {"kind": "synthetic", "classes": 4, "samples": 64, "image_size": 8,
                "seed": 11, "noise": 0.5},
}


def test_train_then_eval_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    code, out, _ = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 0
    history = [json.loads(line) for line in out.strip().splitlines()]
    assert len(history) == 3 and {"epoch", "lr", "train_loss", "top1", "top5"} <= set(history[0])

    code, out, _ = run_cli(["eval", "--config", str(cfg),
                            "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")], capsys)
    assert code == 0
    metrics = json.loads(out)
    assert metrics["top1"] == history[-1]["top1"]


def test_train_same_seed_twice_identical_history(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    outs = []
    for d in ("a", "b"):
        code, out, _ = run_cli(["train", "--config", str(cfg), "--seed", "7",
                                "--out", str(tmp_path / d)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert (tmp_path / "a" / "history.jsonl").read_bytes() == (tmp_path / "b" / "history.jsonl").read_bytes()


def test_train_without_dataset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "mv1-tiny", "num_classes": 4}))
    code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 2 and "dataset" in err


@pytest.mark.parametrize("section, key, value", [
    (None, "alpha", "abc"),
    (None, "num_classes", 2.5),
    (None, "train", 5),
    ("ulsam", "g", "x"),
    ("ulsam", "positions", "11"),
    ("train", "seed", "a"),
    ("train", "flip", "false"),
])
def test_config_value_of_wrong_type_exits_2_naming_field(tmp_path, capsys, section, key, value):
    payload = json.loads(json.dumps(TRAIN_CFG))
    (payload[section] if section else payload)[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    field = f"{section}.{key}" if section else key
    assert code == 2 and f'field "{field}": must be' in err


def test_eval_topk_above_class_count_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    code, _, err = run_cli(["eval", "--config", str(cfg), "--topk", "5",
                            "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")], capsys)
    assert code == 2 and "classes" in err


def test_eval_topk_zero_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    code, _, err = run_cli(["eval", "--config", str(cfg), "--topk", "0",
                            "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")], capsys)
    assert code == 2 and "requested top-0: k must be in [1, 4]" in err


def test_eval_corrupt_checkpoint_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    code, _, err = run_cli(["eval", "--config", str(cfg), "--checkpoint", str(bad)], capsys)
    assert code == 2 and "magic" in err


def test_missing_dataset_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    payload = dict(TRAIN_CFG, dataset={"kind": "cifar10", "paths": [str(tmp_path / "nope.bin")]})
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 2 and "does not exist" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--seed", "-1"],
    ["describe", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
])
def test_negative_seed_on_the_command_line_exits_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and "seed" in err and "must be >= 0, got -1" in err


@pytest.mark.parametrize("section", ["train", "dataset"])
def test_negative_seed_in_the_config_exits_2_naming_field(tmp_path, capsys, section):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload[section]["seed"] = -1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f'field "{section}.seed": must be >= 0, got -1' in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, message", [
    ("mean", [0.5, 0.5], "must have 3 entries, one per channel, got 2"),
    ("std", [0.2, 0.2, 0.2, 0.2], "must have 3 entries, one per channel, got 4"),
    ("std", [0.2, 0.0, 0.2], "every entry must be > 0"),
    ("std", [0.2, -0.1, 0.2], "every entry must be > 0"),
])
def test_cifar10_channel_statistics_are_checked_naming_field(tmp_path, capsys, key, value, message):
    record = tmp_path / "one.bin"
    record.write_bytes(bytes(1 + 3 * 32 * 32))  # one record: label 0, black pixels
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TRAIN_CFG, dataset={"kind": "cifar10", "paths": [str(record)], key: value})))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f'field "dataset.{key}": {message}' in err


def test_empty_dataset_file_exits_2_naming_it(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    cfg = tmp_path / "cfg.json"
    payload = dict(TRAIN_CFG, dataset={"kind": "cifar10", "paths": [str(empty)]})
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg)], capsys)
    assert code == 2 and f"{empty}: no records" in err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e999"])
@pytest.mark.parametrize("section, key", [("dataset", "noise"), ("train", "lr")])
def test_non_finite_number_in_the_config_exits_2_naming_it(tmp_path, capsys, constant, section, key):
    # Python's json reads the three constants, which JSON does not have, and rounds the last two to inf
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload[section][key] = "CONSTANT"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload).replace('"CONSTANT"', constant))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f"config file {cfg} holds {constant}; every number must be finite" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, key, value", [
    ("train", "lr", 10**400),  # float() of it overflows
    ("dataset", "samples", 10**30),  # past NumPy's largest array
    ("dataset", "samples", -2**63 - 1),
    ("dataset", "noise", 2**63),
])
def test_integer_outside_64_bits_in_the_config_exits_2_naming_it(tmp_path, capsys, section, key, value):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload[section][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert f'field "{section}.{key}": must fit a signed 64-bit integer, got a {value.bit_length()}-bit one' in err
    assert not (tmp_path / "run").exists()


def test_integer_past_the_digit_limit_in_the_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG).replace('"samples": 64', '"samples": 1' + "0" * 5000))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f"config file {cfg} is not valid JSON" in err


def test_diverging_training_exits_2_naming_epoch_and_step(tmp_path, capsys):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["train"]["lr"] = 1e30
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and "epoch 0, step 1: the batch loss is nan" in err
    assert (tmp_path / "run" / "history.jsonl").read_text() == ""
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


@pytest.mark.parametrize("size", [-1, 0])
def test_image_size_below_one_exits_2_naming_field(tmp_path, capsys, size):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["dataset"]["image_size"] = size
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f'field "dataset.image_size": must be >= 1, got {size}' in err
    assert not (tmp_path / "run").exists()


def test_synthetic_dataset_too_large_to_allocate_exits_2_naming_its_fields(tmp_path, capsys):
    # 10**15 fits 64 bits, but its label array alone would take 7.11 PiB, so NumPy raises at once
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["dataset"]["samples"] = 10**15
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert 'fields "dataset.samples" (1000000000000000) and "dataset.image_size" (8)' in err
    assert "does not fit in memory" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_negative_noise_exits_2_naming_field(tmp_path, capsys):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["dataset"]["noise"] = -1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and 'field "dataset.noise": must be >= 0, got -1' in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, message", [
    ("lr", 0, 'field "train.lr": must be > 0, got 0'),
    ("momentum", 1, 'field "train.momentum": must be in [0, 1), got 1'),
    ("weight_decay", -1, 'field "train.weight_decay": must be >= 0, got -1'),
    ("batch_size", 0, 'field "train.batch_size": must be >= 1, got 0'),
    ("epochs", -1, 'field "train.epochs": must be >= 1, got -1'),
])
def test_train_value_out_of_range_exits_2_naming_field(tmp_path, capsys, key, value, message):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["train"][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and message in err
    assert not (tmp_path / "run").exists()


def test_train_whose_backward_runs_twice_exits_2_with_a_tape_error(tmp_path, capsys, monkeypatch):
    # a second pass over a training step's tape reaches nodes the first one released
    backward = Tensor.backward

    def twice(self, upstream=None):
        backward(self, upstream)
        backward(self, upstream)

    monkeypatch.setattr(Tensor, "backward", twice)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and "earlier backward released" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("classes", 0, 'field "dataset.classes": must be >= 2, got 0'),
    ("samples", 0, 'field "dataset.samples": must be >= "dataset.classes" (4), got 0'),
    ("samples", -5, 'field "dataset.samples": must be >= "dataset.classes" (4), got -5'),
    ("samples", 3, 'field "dataset.samples": must be >= "dataset.classes" (4), got 3'),  # a class with no sample
])
def test_synthetic_dataset_too_few_classes_or_samples_exits_2_naming_field(tmp_path, capsys, key, value, message):
    payload = json.loads(json.dumps(TRAIN_CFG))
    payload["dataset"][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["describe", "analyze", "train"])
@pytest.mark.parametrize("in_config", [True, False])
def test_alpha_on_mv1_tiny_exits_2_naming_field(tmp_path, capsys, command, in_config):
    # only mv1 has a width multiplier; mv1-tiny and mv2 reject any other alpha alike
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TRAIN_CFG, alpha=0.5) if in_config else TRAIN_CFG))
    argv = [command, "--config", str(cfg)] + ([] if in_config else ["--alpha", "0.5"])
    code, out, err = run_cli(argv + (["--out", str(tmp_path / "run")] if command == "train" else []), capsys)
    assert code == 2 and out == ""
    assert 'field "alpha": mv1-tiny supports only alpha = 1.0, got 0.5' in err


def test_train_out_at_an_existing_file_exits_2_naming_it(tmp_path, capsys):
    cfg, taken = tmp_path / "cfg.json", tmp_path / "taken"
    cfg.write_text(json.dumps(TRAIN_CFG))
    taken.write_text("not a directory")
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(taken)], capsys)
    assert code == 2 and "File exists" in err and str(taken) in err
    assert taken.read_text() == "not a directory"


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation_runs():
    # the child imports the same checkout as this test run
    src = str(Path(ulsam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ulsam.cli", "table1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "ULSAM" in proc.stdout
