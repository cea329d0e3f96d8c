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


def _set(payload: dict, field: str, value) -> None:
    *section, key = field.split(".")
    (payload[section[0]] if section else payload)[key] = value


@pytest.mark.parametrize("field, value, message", [
    # a value of the wrong JSON type
    ("alpha", "abc", 'field "alpha": must be a number, got "abc"'),
    ("num_classes", 2.5, 'field "num_classes": must be an integer, got 2.5'),
    ("train", 5, 'field "train": must be an object, got 5'),
    ("ulsam.g", "x", 'field "ulsam.g": must be an integer, got "x"'),
    ("ulsam.positions", "11", 'field "ulsam.positions": must be a list of strings, got "11"'),
    ("train.seed", "a", 'field "train.seed": must be an integer, got "a"'),
    ("train.flip", "false", 'field "train.flip": must be true or false, got "false"'),
    # an integer outside 64 bits
    ("train.lr", 10**400, 'field "train.lr": must fit a signed 64-bit integer, got a 1329-bit one'),  # float() overflows
    ("dataset.samples", 10**30, 'field "dataset.samples": must fit a signed 64-bit integer, got a 100-bit one'),
    ("dataset.samples", -2**63 - 1, 'field "dataset.samples": must fit a signed 64-bit integer, got a 64-bit one'),
    ("dataset.noise", 2**63, 'field "dataset.noise": must fit a signed 64-bit integer, got a 64-bit one'),
    # a value out of range
    ("train.seed", -1, 'field "train.seed": must be >= 0, got -1'),
    ("dataset.seed", -1, 'field "dataset.seed": must be >= 0, got -1'),
    ("dataset.image_size", -1, 'field "dataset.image_size": must be >= 1, got -1'),
    ("dataset.image_size", 0, 'field "dataset.image_size": must be >= 1, got 0'),
    ("dataset.noise", -1, 'field "dataset.noise": must be >= 0, got -1'),
    ("train.lr", 0, 'field "train.lr": must be > 0, got 0'),
    ("train.momentum", 1, 'field "train.momentum": must be in [0, 1), got 1'),
    ("train.weight_decay", -1, 'field "train.weight_decay": must be >= 0, got -1'),
    ("train.batch_size", 0, 'field "train.batch_size": must be >= 1, got 0'),
    ("train.epochs", -1, 'field "train.epochs": must be >= 1, got -1'),
    ("dataset.classes", 0, 'field "dataset.classes": must be >= 2, got 0'),
    ("dataset.samples", 0, 'field "dataset.samples": must be >= "dataset.classes" (4), got 0'),
    ("dataset.samples", -5, 'field "dataset.samples": must be >= "dataset.classes" (4), got -5'),
    ("dataset.samples", 3, 'field "dataset.samples": must be >= "dataset.classes" (4), got 3'),  # a class with no sample
    # 10**15 fits 64 bits, but its label array alone would take 7.11 PiB, so NumPy raises at once
    ("dataset.samples", 10**15, 'fields "dataset.samples" (1000000000000000) and "dataset.image_size" (8): '
                                "the synthetic dataset does not fit in memory"),
])
def test_one_bad_config_field_exits_2_naming_it(tmp_path, capsys, field, value, message):
    payload = json.loads(json.dumps(TRAIN_CFG))
    _set(payload, field, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field, flag, value, message", [
    ("alpha", "--alpha", 0, 'field "alpha": the width multiplier must be in (0, 1], got 0.0'),
    ("num_classes", "--num-classes", 0, 'field "num_classes": must be >= 1, got 0'),
    ("num_classes", "--num-classes", 2**70, 'field "num_classes": must fit a signed 64-bit integer, got a 71-bit one'),
    # fits 64 bits, but the classifier's weights would take 7.11 EiB, so NumPy raises at once
    ("num_classes", "--num-classes", 10**15,
     'field "num_classes": a classifier for 1000000000000000 classes does not fit in memory'),
    ("ulsam.g", "--g", 0, 'field "ulsam.g": must be >= 1, got 0'),
    ("train.seed", "--seed", -1, 'field "train.seed": must be >= 0, got -1'),
    ("train.seed", "--seed", 2**70, 'field "train.seed": must fit a signed 64-bit integer, got a 71-bit one'),
])
@pytest.mark.parametrize("command", ["describe", "train"])
def test_a_flag_and_its_config_field_fail_alike(tmp_path, capsys, command, field, flag, value, message):
    # an override is written into the config and read as the field, so both fail at the same check
    errors = []
    for in_config in (True, False):
        payload = dict(TRAIN_CFG, arch="mv1")
        if in_config:
            payload = json.loads(json.dumps(payload))
            _set(payload, field, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
        code, out, err = run_cli(argv + ([] if in_config else [flag, str(value)]), capsys)
        assert code == 2 and out == ""
        errors.append(err)
    assert errors == [f"error: {message}\n"] * 2
    assert not (tmp_path / "run").exists()


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


def test_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(["describe", "--config", str(missing)], capsys)
    assert code == 2 and f"No such file or directory: '{missing}'" in err


def test_missing_dataset_file_exits_2(tmp_path, capsys):
    cfg, missing = tmp_path / "cfg.json", tmp_path / "nope.bin"
    cfg.write_text(json.dumps(dict(TRAIN_CFG, dataset={"kind": "cifar10", "paths": [str(missing)]})))
    code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], capsys)
    assert code == 2 and f"No such file or directory: '{missing}'" in err
    assert not (tmp_path / "run").exists()


def test_missing_checkpoint_exits_2_naming_it(tmp_path, capsys):
    cfg, missing = tmp_path / "cfg.json", tmp_path / "nope.bin"
    cfg.write_text(json.dumps(TRAIN_CFG))
    code, out, err = run_cli(["eval", "--config", str(cfg), "--checkpoint", str(missing)], capsys)
    assert code == 2 and out == "" and f"No such file or directory: '{missing}'" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--seed", "-1"],
    ["describe", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
])
def test_negative_seed_on_the_command_line_exits_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and "seed" in err and "must be >= 0, got -1" in err


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
