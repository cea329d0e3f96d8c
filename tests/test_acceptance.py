"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline. Every reference is either an exact closed form (checked exactly)
or a published figure (checked at the precision at which it was published);
where a reference is not the paper's printed number, its derivation sits next
to it and the printed number stays in the comment. Nothing is loosened: the
overhead table is exact, the model totals are +-2%.
"""

import time

import numpy as np
import pytest

from test_attention import case3_attention
from ulsam import attention, costs, gradcheck, models, training
from ulsam.instrument import MacCounter, count_macs
from ulsam.tensor import Tensor, parameter


def _report(name: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[ACCEPTANCE] {name}: {status}{suffix}")
    assert not failures, f"{len(failures)} check(s) failed:\n" + "\n".join(f"  - {f}" for f in failures)


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# 1. overhead-table reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    rows = {r["kind"]: r for r in costs.table1_rows()}
    elapsed = time.perf_counter() - t0
    failures: list = []

    # The normalized columns are exact ratios of the paper's formulas at
    # m=512, r=16, h=w=14 (NonLocal 2m^2/2m = m = 512, A2Net m/8 = 64, BAM
    # 83,968/1,024 = 82). For the two MLP-only rows the paper prints 33x, which
    # no accounting gives: SE is 2m^2/r against ULSAM's 2m, so m/r = 512/16 = 32
    # exactly, and CBAM adds the 7x7x2 spatial kernel, (32,768 + 98)/1,024 =
    # 32.0957, i.e. 32.1 at two decimals. (33 is the ratio of the rounded display
    # columns, 33k/1k, a rule that would also give 524, 66 and 84 above.)
    reference = {
        #             params_k  macs_m   norm_params  norm_macs
        "NonLocal": (524, 102.76, 512, 512),
        "A2Net": (66, 12.85, 64, 64),
        "SENet": (33, 0.03, 32, 0.16),
        "BAM": (84, 16.49, 82, 82.16),
        "CBAM": (33, 0.05, 32.1, 0.26),
        "ULSAM": (1, 0.2, 1, 1),
    }
    for kind, (pk, mm, npar, nmac) in reference.items():
        r = rows[kind]
        _expect(failures, r["params_k"] == pk, f"{kind} params x10^3: reference {pk}, computed {r['params_k']}")
        _expect(failures, r["macs_m"] == mm, f"{kind} MACs x10^6: reference {mm}, computed {r['macs_m']}")
        _expect(failures, r["norm_params"] == npar,
                f"{kind} normalized params: reference {npar}x, computed {r['norm_params']}x")
        _expect(failures, r["norm_macs"] == nmac,
                f"{kind} normalized MACs: reference {nmac}x, computed {r['norm_macs']}x")
    _expect(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s >= 1s")
    _report("criterion 1 (overhead table, exact)", failures, elapsed)


# ---------------------------------------------------------------------------
# 2. model cost reproduction (+-2%): totals, and params removed per substitution
# ---------------------------------------------------------------------------


def test_criterion_2_model_cost_reproduction():
    t0 = time.perf_counter()
    mv1 = models.build_mv1(1.0, 1000, dtype=np.float32, seed=0)
    mv2 = models.build_mv2(1000, dtype=np.float32, seed=0)
    # MV2: the paper quotes Sandler et al.'s 3.4M, which is the canonical
    # architecture's 3,470,760 conv/FC weights and biases cut to one decimal
    # (stem 864 + 17 bottlenecks 1,779,296 + 1x1 conv 409,600 + FC 1,281,000).
    # With the 17,056 batch-norm affine pairs it is 3,504,872, the count
    # torchvision publishes for mobilenet_v2.
    targets = [
        ("MV1 1.0", mv1, 4.2e6, 569e6),
        ("MV1+ULSAM (8:1,9:1,11)", models.apply_ulsam(mv1, ["8:1", "9:1", "11"], 4), 3.9e6, 517e6),
        ("MV1 0.75", models.build_mv1(0.75, 1000, dtype=np.float32), 2.6e6, 325e6),
        ("MV1 0.50", models.build_mv1(0.5, 1000, dtype=np.float32), 1.3e6, 149e6),
        ("MV2", mv2, 3_470_760, 300e6),
    ]
    # The paper's variant totals (2.96M / 2.77M / 2.54M) are "3.4M minus what
    # the substitution removes", so they carry the 3.4M cut; what they measure
    # is the removed count: 3.4 - 2.96 = 0.44M, 3.4 - 2.77 = 0.63M, 3.4 - 2.54 =
    # 0.86M. Layers 13/14 share one shape (96->576->96), as do 16/17
    # (160->960->160), so (13,14,16,17) removes exactly twice what (14,17)
    # removes; the paper's own 0.86M then gives 0.43M for (14,17), not 0.44M.
    substitutions = [
        ("MV2+ULSAM (14,17)", ["14", "17"], 0.43e6, 261.88e6),
        ("MV2+ULSAM (16,17)", ["16", "17"], 0.63e6, 269.07e6),
        ("MV2+ULSAM (13,14,16,17)", ["13", "14", "16", "17"], 0.86e6, 223.77e6),
    ]
    failures: list = []
    for name, graph, params_ref, macs_ref in targets:
        r = costs.analyze_model(graph)
        perr = abs(r.total_params - params_ref) / params_ref
        merr = abs(r.total_macs - macs_ref) / macs_ref
        _expect(failures, perr <= 0.02,
                f"{name} params: reference {params_ref / 1e6:.2f}M, computed {r.total_params:,} ({perr * 100:.2f}% off)")
        _expect(failures, merr <= 0.02,
                f"{name} MACs: reference {macs_ref / 1e6:.2f}M, computed {r.total_macs:,} ({merr * 100:.2f}% off)")
    mv2_bn = costs.analyze_model(mv2, include_bn_params=True).total_params
    _expect(failures, mv2_bn == 3_504_872, f"MV2 params with BN affine: reference 3,504,872, computed {mv2_bn:,}")

    mv2_params = costs.analyze_model(mv2).total_params
    removed = {}
    for name, positions, removed_ref, macs_ref in substitutions:
        r = costs.analyze_model(models.apply_ulsam(mv2, positions, 4))
        removed[name] = mv2_params - r.total_params
        rerr = abs(removed[name] - removed_ref) / removed_ref
        merr = abs(r.total_macs - macs_ref) / macs_ref
        _expect(failures, rerr <= 0.02,
                f"{name} params removed: reference {removed_ref / 1e6:.2f}M, computed {removed[name]:,} "
                f"({rerr * 100:.2f}% off)")
        _expect(failures, merr <= 0.02,
                f"{name} MACs: reference {macs_ref / 1e6:.2f}M, computed {r.total_macs:,} ({merr * 100:.2f}% off)")
    _expect(failures, removed["MV2+ULSAM (13,14,16,17)"] == 2 * removed["MV2+ULSAM (14,17)"],
            f"(13,14,16,17) removes {removed['MV2+ULSAM (13,14,16,17)']:,}, "
            f"not twice the {removed['MV2+ULSAM (14,17)']:,} of (14,17)")
    elapsed = time.perf_counter() - t0
    _expect(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _report("criterion 2 (MV1/MV2 totals and MV2 params removed per substitution, +-2%)", failures, elapsed)


# ---------------------------------------------------------------------------
# 3. separable-convolution MAC split
# ---------------------------------------------------------------------------


def test_criterion_3_flops_split():
    failures: list = []
    r = costs.analyze_model(models.build_mv1(1.0, 1000, dtype=np.float32))
    pw, dw = r.shares["pointwise"], r.shares["depthwise"]
    _expect(failures, abs(pw - 94.86) <= 0.5, f"pointwise share {pw:.3f}% not within 94.86 +- 0.5")
    _expect(failures, abs(dw - 3.06) <= 0.5, f"depthwise share {dw:.3f}% not within 3.06 +- 0.5")
    mid = sum(row.macs for row in r.rows if row.layer in {"8", "9", "10", "11", "12"})
    mid_share = 100.0 * mid / r.total_macs
    _expect(failures, abs(mid_share - 46.0) <= 1.0, f"layers 8-12 share {mid_share:.3f}% not within 46 +- 1")
    _report("criterion 3 (MAC split)", failures)


# ---------------------------------------------------------------------------
# 4. structural invariants of the attention block
# ---------------------------------------------------------------------------


def test_criterion_4_ulsam_structural_invariants():
    t0 = time.perf_counter()
    failures: list = []
    rng = np.random.default_rng(0)

    # shape preservation + per-group softmax normalization
    for m, g, h, w in [(8, 1, 5, 3), (8, 4, 2, 2), (16, 8, 4, 4), (12, 3, 3, 7), (6, 6, 1, 4)]:
        f = Tensor(rng.normal(scale=4.0, size=(2, m, h, w)))
        weights = attention.init_ulsam_weights(attention.UlsamConfig(m, g), rng)
        out = attention.ulsam_forward(f, attention.UlsamConfig(m, g), weights)
        _expect(failures, out.shape == f.shape, f"shape changed for m={m} g={g}: {out.shape}")
        maps = attention.ulsam_attention_maps(f, attention.UlsamConfig(m, g), weights)
        sums = maps.data.reshape(2, g, h * w).sum(axis=-1)
        _expect(failures, np.max(np.abs(sums - 1.0)) <= 1e-12,
                f"softmax sums off by {np.max(np.abs(sums - 1.0)):.2e} for m={m} g={g}")

    # parameter count exactly 2m for g in {1, 2, 4, 8, 16, m}
    m = 32
    for g in (1, 2, 4, 8, 16, m):
        weights = attention.init_ulsam_weights(attention.UlsamConfig(m, g), rng)
        count = weights.dw.size + weights.pw.size
        _expect(failures, count == 2 * m, f"param count {count} != {2 * m} at g={g}")

    # group independence (bitwise): zeroing other groups leaves a group's output unchanged
    m, g, width = 8, 4, 2
    f = rng.normal(size=(1, m, 3, 3))
    weights = attention.init_ulsam_weights(attention.UlsamConfig(m, g), np.random.default_rng(1))
    base = attention.ulsam_forward(Tensor(f), attention.UlsamConfig(m, g), weights).data
    for grp in range(g):
        lo, hi = grp * width, (grp + 1) * width
        zeroed = np.zeros_like(f)
        zeroed[:, lo:hi] = f[:, lo:hi]
        out = attention.ulsam_forward(Tensor(zeroed), attention.UlsamConfig(m, g), weights).data
        _expect(failures, np.array_equal(out[:, lo:hi], base[:, lo:hi]),
                f"group {grp} output depends on channels outside the group")

    # within-group permutation equivariance (bitwise on exact-arithmetic inputs)
    fd = rng.integers(-16, 17, size=(2, m, 3, 3)) / 8.0
    dw = rng.integers(-8, 9, size=m) / 8.0
    pw = rng.integers(-8, 9, size=m) / 8.0
    base = attention.ulsam_forward(
        Tensor(fd), attention.UlsamConfig(m, g), attention.UlsamWeights(parameter(dw), parameter(pw))
    ).data
    perm = np.arange(m)
    perm[:width] = np.random.default_rng(2).permutation(width)
    permuted = attention.ulsam_forward(
        Tensor(fd[:, perm]), attention.UlsamConfig(m, g),
        attention.UlsamWeights(parameter(dw[perm]), parameter(pw[perm])),
    ).data
    _expect(failures, np.array_equal(permuted, base[:, perm]), "within-group permutation equivariance broken")

    # g = m agrees bitwise with the per-channel closed form
    f = Tensor(rng.normal(size=(2, 5, 4, 4)))
    weights = attention.init_ulsam_weights(attention.UlsamConfig(5, 5), np.random.default_rng(3))
    closed = case3_attention(f, weights).data
    grouped = attention.ulsam_attention_maps(f, attention.UlsamConfig(5, 5), weights).data
    _expect(failures, np.array_equal(closed, grouped), "g=m path differs from the closed form")

    elapsed = time.perf_counter() - t0
    _expect(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _report("criterion 4 (structural invariants)", failures, elapsed)


# ---------------------------------------------------------------------------
# 5. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_suite(seed=0)
    elapsed = time.perf_counter() - t0
    failures = [f"{r.name}: max rel err {r.max_error:.3e} >= {r.tolerance:g}" for r in results if not r.passed]
    _expect(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _report("criterion 5 (gradient suite)", failures, elapsed)


# ---------------------------------------------------------------------------
# 6. analytic vs instrumented MACs
# ---------------------------------------------------------------------------


def test_criterion_6_instrumented_mac_equality():
    failures: list = []
    mv1 = models.build_mv1(1.0, 1000, dtype=np.float32, seed=0)
    mv2 = models.build_mv2(1000, dtype=np.float32, seed=0)
    graphs = [
        ("MV1", mv1),
        ("MV1+ULSAM (8:1,9:1,11)", models.apply_ulsam(mv1, ["8:1", "9:1", "11"], 4)),
        ("MV2", mv2),
        ("MV2+ULSAM (14,17)", models.apply_ulsam(mv2, ["14", "17"], 4)),
    ]
    x = np.zeros((1, 3, 224, 224), dtype=np.float32)
    for name, graph in graphs:
        report = costs.analyze_model(graph, input_hw=224)
        with count_macs(MacCounter()) as counter:
            models.forward(graph, x, train=False)
        _expect(failures, counter.by_kind == report.macs_by_kind,
                f"{name}: per-kind mismatch analytic={report.macs_by_kind} counted={counter.by_kind}")
        _expect(failures, counter.total == report.total_macs,
                f"{name}: totals analytic={report.total_macs} counted={counter.total}")
    _report("criterion 6 (instrumented MAC equality)", failures)


# ---------------------------------------------------------------------------
# 7. desk-scale training sanity
# ---------------------------------------------------------------------------


def test_criterion_7_training_sanity(tmp_path):
    t0 = time.perf_counter()
    failures: list = []

    dataset = training.synthetic_dataset(classes=4, samples=256, image_size=8, seed=11, noise=0.5)
    graph = models.apply_ulsam(models.build_mv1_tiny(4, width=8, dtype=np.float32, seed=1), ["5:1"], g=4)
    config = training.TrainConfig(lr=0.01, schedule=training.StepDecay(), momentum=0.9,
                                  weight_decay=4e-5, batch_size=32, epochs=30, seed=7)
    history = training.train_loop(graph, dataset, config, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0

    best = max(h["top1"] for h in history)
    _expect(failures, best > 0.95, f"train accuracy peaked at {best:.3f} <= 0.95 within 30 epochs")
    _expect(failures, elapsed < 300.0, f"training took {elapsed:.1f}s >= 5 min")

    loss = [h["train_loss"] for h in history]
    smoothed = [float(np.mean(loss[max(0, i - 4) : i + 1])) for i in range(len(loss))]
    rises = [(i, smoothed[i], smoothed[i + 1]) for i in range(4, len(smoothed) - 1)
             if smoothed[i + 1] > smoothed[i] + 1e-12]
    _expect(failures, not rises, f"smoothed loss rose after epoch 5 at {rises[:3]}")

    before = training.evaluate(graph, dataset)
    reloaded = models.apply_ulsam(models.build_mv1_tiny(4, width=8, dtype=np.float32, seed=99), ["5:1"], g=4)
    training.load_checkpoint(tmp_path / "checkpoint.bin", reloaded)
    for name, p in graph.params.items():
        _expect(failures, np.array_equal(p.data, reloaded.params[name].data),
                f"checkpoint round-trip changed parameter {name}")
    after = training.evaluate(reloaded, dataset)
    _expect(failures, before == after, f"reloaded metrics {after} differ from {before}")
    _expect(failures, after["top1"] == history[-1]["top1"], "reloaded top-1 differs from final history entry")

    _report("criterion 7 (training sanity)", failures, elapsed)


# ---------------------------------------------------------------------------
# 8. learning-rate schedules
# ---------------------------------------------------------------------------


def test_criterion_8_lr_schedules():
    failures: list = []
    step = training.StepDecay()
    for epoch, want in [(0, 0.1), (30, 0.01), (60, 0.001)]:
        got = training.lr_at(0.1, step, epoch)
        _expect(failures, got == pytest.approx(want, rel=1e-12), f"step decay at {epoch}: {got} != {want}")
    exp = training.ExpDecay()
    for epoch in (0, 1, 7, 30, 89, 400):
        got = training.lr_at(0.045, exp, epoch)
        want = 0.045 * 0.98**epoch
        _expect(failures, got == want, f"exp decay at {epoch}: {got} != {want}")
    _report("criterion 8 (LR schedules)", failures)
