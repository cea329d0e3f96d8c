"""Optimizer, schedules, loss/metrics, data ingestion, checkpoints, training loop."""

import json
import signal
import struct

import numpy as np
import pytest

from ulsam import gradcheck, models
from ulsam.errors import CheckpointError, ConfigurationError, DataError, DivergenceError, IngestionError
from ulsam.tensor import Tensor, parameter
from ulsam.training import (
    ExpDecay,
    StepDecay,
    TrainConfig,
    cross_entropy,
    evaluate,
    load_cifar10_binary,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    synthetic_dataset,
    topk_accuracy,
    train_loop,
)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_sgd_single_step_on_quadratic():
    # loss = theta^2 / 2, grad = theta; theta0 = 1, lr = 0.1 -> 0.9
    p = parameter(np.array([1.0]))
    p.grad = p.data.copy()
    sgd_step({"p": p}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.9])


def test_sgd_two_steps_with_momentum_on_constant_grad():
    # v1 = g, v2 = 0.9 g + g -> theta2 = theta0 - lr*g*(1 + 1.9)
    p = parameter(np.array([2.0]))
    vel = {}
    for _ in range(2):
        p.grad = np.array([3.0])
        sgd_step({"p": p}, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 3.0 * (1.0 + 1.9)])


def test_sgd_zero_grad_decays_velocity_only():
    p = parameter(np.array([1.5]))
    vel = {"p": np.array([2.0])}
    p.grad = np.zeros(1)
    sgd_step({"p": p}, vel, lr=0.0, momentum=0.9, weight_decay=0.0)
    np.testing.assert_allclose(vel["p"], [1.8])
    np.testing.assert_allclose(p.data, [1.5])


def test_weight_decay_with_zero_lr_leaves_params_unchanged():
    p = parameter(np.array([4.0, -2.0]))
    p.grad = np.array([1.0, 1.0])
    sgd_step({"p": p}, {}, lr=0.0, momentum=0.9, weight_decay=0.1)
    np.testing.assert_array_equal(p.data, [4.0, -2.0])


def test_sgd_shape_mismatch_rejected():
    p = parameter(np.zeros(3))
    p.grad = np.zeros(2)
    with pytest.raises(ConfigurationError, match="shape"):
        sgd_step({"p": p}, {}, 0.1, 0.9, 0.0)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("epoch,lr", [(0, 0.1), (29, 0.1), (30, 0.01), (59, 0.01), (60, 0.001)])
def test_step_decay_tenths_every_30_epochs(epoch, lr):
    assert lr_at(0.1, StepDecay(), epoch) == pytest.approx(lr, rel=1e-12)


def test_exp_decay_exact_powers():
    assert lr_at(0.045, ExpDecay(), 0) == 0.045
    assert lr_at(0.045, ExpDecay(), 1) == pytest.approx(0.0441, rel=1e-12)
    assert lr_at(0.045, ExpDecay(), 400) == 0.045 * 0.98**400


def test_lr_at_rejects_negative_epoch():
    with pytest.raises(ConfigurationError):
        lr_at(0.1, StepDecay(), -1)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(momentum=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("lr", 0.0, 'field "train.lr": must be > 0, got 0.0'),
    ("momentum", 1.0, 'field "train.momentum": must be in [0, 1), got 1.0'),
    ("weight_decay", -0.5, 'field "train.weight_decay": must be >= 0, got -0.5'),
    ("batch_size", 0, 'field "train.batch_size": must be >= 1, got 0'),
    ("epochs", -2, 'field "train.epochs": must be >= 1, got -2'),
])
def test_train_config_names_the_one_field_out_of_range(field, value, message):
    with pytest.raises(ConfigurationError) as excinfo:
        TrainConfig(**{field: value})
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits_is_log_c():
    for c in (2, 5, 10):
        loss = cross_entropy(Tensor(np.zeros((3, c))), np.zeros(3, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(c), rel=1e-12)


def test_cross_entropy_confident_correct_goes_to_zero():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss = cross_entropy(Tensor(logits), np.array([2]))
    assert float(loss.data) < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    labels = np.array([1, 0, 3])
    err = gradcheck.check_fn(lambda z: cross_entropy(z, labels), [rng.normal(size=(3, 4))], rng)
    assert err < 1e-6


def test_cross_entropy_rejects_non_integer_labels():
    with pytest.raises(ConfigurationError, match="integer"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0]))


def test_cross_entropy_rejects_empty_batch():
    with pytest.raises(ConfigurationError, match="empty batch"):
        cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))


def test_cross_entropy_tape_only_when_logits_need_it():
    labels = np.array([1, 0])
    loss = cross_entropy(Tensor(np.zeros((2, 3))), labels)
    assert loss._parents == () and loss._backward is None
    logits = parameter(np.zeros((2, 3)))
    loss = cross_entropy(logits, labels)
    assert loss._parents == (logits,) and loss._backward is not None


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ConfigurationError, match="range"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_topk_full_k_is_one():
    logits = np.random.default_rng(1).normal(size=(6, 4))
    labels = np.random.default_rng(2).integers(0, 4, 6)
    assert topk_accuracy(logits, labels, 4) == 1.0


def test_topk_single_sample_argmax():
    assert topk_accuracy(np.array([[0.1, 0.9, 0.0]]), np.array([1]), 1) == 1.0


def test_topk_hand_enumeration_three_of_four_in_top2():
    logits = np.array([
        [5.0, 4.0, 0.0, 0.0],   # label 1 in top-2
        [9.0, 1.0, 2.0, 0.0],   # label 2 in top-2
        [3.0, 2.0, 1.0, 0.0],   # label 3 NOT in top-2
        [0.0, 1.0, 0.5, 2.0],   # label 3 in top-2
    ])
    labels = np.array([1, 2, 3, 3])
    assert topk_accuracy(logits, labels, 2) == 0.75


def test_topk_ties_break_toward_lower_class_index():
    logits = np.array([[1.0, 1.0, 1.0]])
    assert topk_accuracy(logits, np.array([0]), 1) == 1.0
    assert topk_accuracy(logits, np.array([1]), 1) == 0.0
    assert topk_accuracy(logits, np.array([1]), 2) == 1.0


def test_topk_k_above_class_count_rejected():
    for k in (5, 0):
        with pytest.raises(ConfigurationError, match=rf"k = {k} must be in \[1, 4\] for the 4 classes"):
            topk_accuracy(np.zeros((1, 4)), np.zeros(1, dtype=int), k)


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------


def _cifar_record(label, value):
    return bytes([label]) + bytes([value] * 3072)


def test_cifar_loader_reads_records(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(_cifar_record(7, 255) + _cifar_record(0, 0))
    ds = load_cifar10_binary([path], mean=(0, 0, 0), std=(1, 1, 1))
    assert len(ds) == 2 and ds.num_classes == 10
    assert ds.labels.tolist() == [7, 0]
    assert ds.images.shape == (2, 3, 32, 32)
    assert ds.images[0].max() == 1.0  # pixel byte 255 -> 1.0 before normalization
    assert ds.images[1].max() == 0.0


def test_cifar_loader_normalizes_per_channel(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(_cifar_record(1, 255))
    ds = load_cifar10_binary([path], mean=(0.5, 0.0, 1.0), std=(0.5, 1.0, 2.0))
    np.testing.assert_allclose(ds.images[0, 0], 1.0)  # (1 - 0.5) / 0.5
    np.testing.assert_allclose(ds.images[0, 1], 1.0)
    np.testing.assert_allclose(ds.images[0, 2], 0.0)


def test_cifar_loader_truncation_reports_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_cifar_record(1, 9) + b"\x01\x02\x03")
    with pytest.raises(IngestionError, match="byte offset 3073"):
        load_cifar10_binary([path])


def test_cifar_loader_rejects_label_above_nine(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_cifar_record(3, 1) + _cifar_record(10, 1))
    with pytest.raises(DataError, match="record 1 has label byte 10"):
        load_cifar10_binary([path])


def test_synthetic_dataset_is_seeded_and_balanced():
    a = synthetic_dataset(4, 64, 8, seed=3)
    b = synthetic_dataset(4, 64, 8, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert np.bincount(a.labels, minlength=4).tolist() == [16, 16, 16, 16]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _tiny_graph(seed=0):
    return models.apply_ulsam(models.build_mv1_tiny(4, width=4, dtype=np.float32, seed=seed), ["5:1"], g=2)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    g = _tiny_graph(1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, g)
    g2 = _tiny_graph(2)  # different init
    load_checkpoint(path, g2)
    for name, p in g.params.items():
        np.testing.assert_array_equal(p.data, g2.params[name].data)
    for name, b in g.buffers.items():
        np.testing.assert_array_equal(b, g2.buffers[name])


def test_checkpoint_magic_and_version(tmp_path):
    g = _tiny_graph()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, g)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == b"ULSM"
    assert struct.unpack_from("<I", raw, 4)[0] == 1

    bad = tmp_path / "bad_magic.bin"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad, g)

    bad2 = tmp_path / "bad_version.bin"
    bad2.write_bytes(raw[:4] + struct.pack("<I", 99) + bytes(raw[8:]))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad2, g)


def test_checkpoint_unknown_tensor_rejected(tmp_path):
    g = _tiny_graph()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, g)
    other = models.build_mv1_tiny(4, width=8, dtype=np.float32)  # different shapes/names
    with pytest.raises(CheckpointError):
        load_checkpoint(path, other)


def test_checkpoint_with_repeated_tensor_rejected(tmp_path):
    g = _tiny_graph()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, g)
    bias = np.ones(g.params["fc.b"].shape, dtype="<f4")
    record = struct.pack("<I", 4) + b"fc.b" + struct.pack("<II", 1, bias.size) + bias.tobytes()
    path.write_bytes(path.read_bytes() + record)
    with pytest.raises(CheckpointError, match="'fc.b' is stored twice"):
        load_checkpoint(path, g)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, _tiny_graph(1))
    old = path.read_bytes()
    newer = _tiny_graph(2)
    # a file-size limit of half the checkpoint cuts the next write off there (EFBIG)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (len(old) // 2, hard))
    try:
        with pytest.raises(OSError):
            save_checkpoint(path, newer)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind
    g = _tiny_graph(3)
    load_checkpoint(path, g)
    for name, p in _tiny_graph(1).params.items():
        np.testing.assert_array_equal(g.params[name].data, p.data)


def test_rejected_checkpoint_leaves_graph_unchanged(tmp_path):
    # each bad file holds valid records of another init before the fault
    src = _tiny_graph(1)
    last = sorted(src.params)[-1]
    good = tmp_path / "good.bin"
    save_checkpoint(good, src)
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    src.params[last].data = np.zeros(src.params[last].size + 1, dtype=np.float32)
    wrong_shape = tmp_path / "wrong_shape.bin"
    save_checkpoint(wrong_shape, src)
    src = _tiny_graph(1)
    src.params["zz.extra"] = parameter(np.zeros(2, dtype=np.float32))
    unknown = tmp_path / "unknown.bin"
    save_checkpoint(unknown, src)

    g = _tiny_graph(2)
    params = {n: p.data.copy() for n, p in g.params.items()}
    buffers = {n: b.copy() for n, b in g.buffers.items()}
    for bad, match in [(truncated, "corrupt|missing"), (wrong_shape, "shape"), (unknown, "does not exist")]:
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(bad, g)
        for n, p in g.params.items():
            np.testing.assert_array_equal(p.data, params[n])
        for n, b in g.buffers.items():
            np.testing.assert_array_equal(b, buffers[n])


def test_mv2_checkpoint_with_a_conv_classifier_is_rejected(tmp_path):
    # MV2 checkpoints from builds whose classifier was a 1x1 conv store L20.w as (classes, 1280, 1, 1)
    old = models.build_mv2(10, dtype=np.float32, seed=1)
    old.params["L20.w"].data = old.params["L20.w"].data.T.reshape(10, 1280, 1, 1).copy()
    path = tmp_path / "old_mv2.bin"
    save_checkpoint(path, old)
    g = models.build_mv2(10, dtype=np.float32, seed=2)
    params = {n: p.data.copy() for n, p in g.params.items()}
    with pytest.raises(CheckpointError, match=r"L20\.w has shape \(10, 1280, 1, 1\), model expects \(1280, 10\)"):
        load_checkpoint(path, g)
    for n, p in g.params.items():
        np.testing.assert_array_equal(p.data, params[n])


def test_checkpoint_eval_reproduces_metrics_bitwise(tmp_path):
    ds = synthetic_dataset(4, 64, 8, seed=5)
    g = _tiny_graph(3)
    cfg = TrainConfig(lr=0.01, schedule=StepDecay(), batch_size=16, epochs=2, seed=9, weight_decay=4e-5)
    history = train_loop(g, ds, cfg, out_dir=tmp_path)
    before = evaluate(g, ds)
    g2 = _tiny_graph(4)
    load_checkpoint(tmp_path / "checkpoint.bin", g2)
    after = evaluate(g2, ds)
    assert before == after
    assert after["top1"] == history[-1]["top1"]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def test_fixed_seed_gives_bitwise_identical_history():
    ds = synthetic_dataset(4, 48, 8, seed=0)
    runs = []
    for _ in range(2):
        g = _tiny_graph(7)
        cfg = TrainConfig(lr=0.02, schedule=StepDecay(), batch_size=16, epochs=3, seed=13)
        runs.append(train_loop(g, ds, cfg))
    assert runs[0] == runs[1]


def test_history_lr_matches_schedule_exactly():
    ds = synthetic_dataset(4, 32, 8, seed=1)
    g = _tiny_graph(8)
    cfg = TrainConfig(lr=0.5, schedule=ExpDecay(), batch_size=16, epochs=4, seed=2)
    history = train_loop(g, ds, cfg)
    for rec in history:
        assert rec["lr"] == lr_at(0.5, ExpDecay(), rec["epoch"])


def test_history_written_as_json_lines(tmp_path):
    ds = synthetic_dataset(4, 32, 8, seed=2)
    g = _tiny_graph(9)
    cfg = TrainConfig(lr=0.02, schedule=StepDecay(), batch_size=16, epochs=2, seed=3)
    history = train_loop(g, ds, cfg, out_dir=tmp_path)
    lines = (tmp_path / "history.jsonl").read_text().strip().splitlines()
    assert [json.loads(l) for l in lines] == history


def test_non_finite_loss_stops_before_the_epoch_is_recorded(tmp_path):
    ds = synthetic_dataset(4, 32, 8, seed=2)
    cfg = TrainConfig(lr=1e30, schedule=StepDecay(), batch_size=16, epochs=2, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        train_loop(_tiny_graph(9), ds, cfg, out_dir=tmp_path)
    assert str(err.value) == "epoch 0, step 1: the batch loss is nan"
    assert (tmp_path / "history.jsonl").read_text() == ""
    assert not (tmp_path / "checkpoint.bin").exists()


def test_class_count_mismatch_rejected():
    ds = synthetic_dataset(3, 30, 8, seed=0)
    g = _tiny_graph(0)  # 4-class head
    with pytest.raises(ConfigurationError, match="classes"):
        train_loop(g, ds, TrainConfig(epochs=1, batch_size=8))
    with pytest.raises(ConfigurationError, match="classes"):
        evaluate(g, ds)


def test_evaluate_clamps_default_top5_to_class_count():
    ds = synthetic_dataset(4, 16, 8, seed=4)
    g = _tiny_graph(5)
    metrics = evaluate(g, ds)
    assert set(metrics) == {"top1", "top5"} and metrics["top5"] == 1.0  # top-4 of 4 classes
    with pytest.raises(ConfigurationError, match="classes"):
        evaluate(g, ds, ks=(1, 5))


def test_flip_augmentation_is_seeded_and_changes_batches():
    ds = synthetic_dataset(4, 32, 8, seed=6)
    histories = []
    for _ in range(2):
        g = _tiny_graph(11)
        cfg = TrainConfig(lr=0.02, schedule=StepDecay(), batch_size=16, epochs=2, seed=21, flip=True)
        histories.append(train_loop(g, ds, cfg))
    assert histories[0] == histories[1]
    g = _tiny_graph(11)
    cfg = TrainConfig(lr=0.02, schedule=StepDecay(), batch_size=16, epochs=2, seed=21, flip=False)
    assert train_loop(g, ds, cfg) != histories[0]
