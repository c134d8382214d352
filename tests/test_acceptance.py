"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The desk-scale training runs (two methods, three seeds) are
shared by the calibration, trajectory, and gradient-norm criteria.
"""

import csv
import time

import numpy as np
import pytest
from conftest import central_difference, rel_error

from alskd.calibration import calibration_report
from alskd.cli import EXIT_OK, main
from alskd.gradlab import proposition1_validate, ratio_consistency_check
from alskd.losses import (
    adaptive_skd_loss,
    ce_loss,
    confidence_penalty_loss,
    kd_loss,
    label_smoothing_loss,
    uniform_prior,
    unigram_prior,
)
from alskd.registry import CheckpointRegistry, read_checkpoint, write_checkpoint
from alskd.trainer import DataConfig, ModelConfig, TrainConfig, evaluate, make_task_data, train

SEEDS = (0, 3333, 5555)

DESK_MODEL = ModelConfig(task="classification", n_classes=10, input_dim=16, hidden=64)
DESK_DATA = DataConfig(train_size=1500, val_size=500, test_size=2000,
                       label_noise=0.15, separation=0.6)
DESK_TRAIN = dict(g_kind="accuracy", epochs=30, batch_size=64, learning_rate=0.35,
                  warmup_steps=300, momentum=0.9)

DESK_CONFIG_INI = """
[model]
task = classification
classes = 10
input_dim = 16
hidden = 64
train_size = 1500
val_size = 500
test_size = 2000
label_noise = 0.15
separation = 0.6

[training]
epochs = 30
batch_size = 64
learning_rate = 0.35
warmup_steps = 300
momentum = 0.9
seed = 0

[method]
g_kind = accuracy
ablation_methods = base_ce, fixed_alpha_skd, adaptive_alpha_uniform, linear_alpha_skd, adaptive_skd:nll, adaptive_skd:accuracy
"""


class DeskRun:
    def __init__(self, method, seed, registry_dir):
        splits = make_task_data(DESK_MODEL, DESK_DATA, seed)
        cfg = TrainConfig(method=method, seed=seed, **DESK_TRAIN)
        started = time.perf_counter()
        self.result = train(DESK_MODEL, cfg, splits, registry_dir)
        self.seconds = time.perf_counter() - started
        self.test_eval = evaluate(self.result.model, self.result.params, splits.test)
        self.report = calibration_report(self.test_eval.pairs, n_bins=10)

    @property
    def diagnostics(self):
        return self.result.diagnostics


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    return {
        (method, seed): DeskRun(method, seed, root / f"{method}_{seed}")
        for method in ("base_ce", "adaptive_skd")
        for seed in SEEDS
    }


def test_criterion_1_gradient_oracle_suite(rng):
    """Analytic gradients match central finite differences at 1e-5 relative."""
    n_draws = 1000
    n_classes = 5
    q_uniform = uniform_prior(n_classes)
    q_unigram = unigram_prior(rng.integers(0, n_classes, size=200), n_classes)
    started = time.perf_counter()
    worst = {}
    for name in ("ce", "label_smoothing", "kd", "adaptive_skd", "confidence_penalty"):
        worst[name] = 0.0
        for _ in range(n_draws):
            z = rng.normal(size=n_classes)
            z_t = rng.normal(size=n_classes)
            y = int(rng.integers(n_classes))
            alpha = float(rng.uniform(0, 1))
            if name == "ce":
                grad = ce_loss(z, y)[1]
                fd = central_difference(lambda v: ce_loss(v, y)[0].total, z)
            elif name == "label_smoothing":
                q = q_uniform if rng.random() < 0.5 else q_unigram
                grad = label_smoothing_loss(z, y, q, alpha)[1]
                fd = central_difference(
                    lambda v: label_smoothing_loss(v, y, q, alpha)[0].total, z)
            elif name == "kd":
                grad = kd_loss(z, z_t, y, alpha)[1]
                fd = central_difference(lambda v: kd_loss(v, z_t, y, alpha)[0].total, z)
            elif name == "adaptive_skd":
                bd, grad = adaptive_skd_loss(z, z_t, y)
                # the smoothing weight is a detached constant, so the
                # differenced loss holds it frozen at its unperturbed value
                frozen_alpha = bd.alpha_used
                fd = central_difference(
                    lambda v: kd_loss(v, z_t, y, frozen_alpha)[0].total, z)
            else:
                grad = confidence_penalty_loss(z, y, 0.78)[1]
                fd = central_difference(
                    lambda v: confidence_penalty_loss(v, y, 0.78)[0].total, z)
            err = rel_error(grad, fd)
            worst[name] = max(worst[name], err)
            assert err < 1e-5, f"{name}: relative error {err:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"\ncriterion 1: PASS — max relative FD error per loss: {detail} "
          f"({elapsed:.1f}s)")


def test_criterion_2_ratio_identity_suite(rng):
    """Closed-form rescaling ratios equal the literal gradient quotients."""
    from alskd.gradlab import gradient_ratio
    from alskd.probs import softmax

    n_draws = 10_000
    target_checked = 0
    for _ in range(n_draws):
        z_s = rng.normal(size=6)
        z_t = rng.normal(size=6)
        y = int(rng.integers(6))
        alpha = float(rng.uniform(0, 1))
        assert ratio_consistency_check(z_s, z_t, y, alpha, atol=1e-9)
        # the target closed form is an identity in the less-confident-teacher
        # regime; verify it against the literal quotient there
        p_s = softmax(z_s)
        p_t = softmax(z_t)
        if p_t[y] > p_s[y]:
            z_s, z_t = z_t, z_s
            p_s, p_t = p_t, p_s
        _, g_ce = ce_loss(z_s, y)
        _, g_kd = kd_loss(z_s, z_t, y, alpha)
        if g_ce[y] != 0.0:
            report = gradient_ratio(p_s, p_t, y, alpha)
            assert abs(g_kd[y] / g_ce[y] - report.ratio_target) < 1e-9
            target_checked += 1
    assert target_checked > n_draws // 2
    print(f"\ncriterion 2: PASS — {n_draws} random draws consistent within 1e-9 "
          f"({target_checked} in-region target checks)")


def test_criterion_3_proposition_monte_carlo():
    """Rescaling-factor ordering holds on 10^4 valid pairs per seed."""
    started = time.perf_counter()
    for seed in SEEDS:
        report = proposition1_validate(10_000, 10, seed)
        assert report.valid_pairs == 10_000
        assert report.violations == 0, f"seed {seed}: {report.violations} violations"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"proposition suite took {elapsed:.1f}s"
    print(f"\ncriterion 3: PASS — 0 violations on 10^4 pairs for seeds {SEEDS} "
          f"({elapsed:.1f}s)")


def test_criterion_4_uniform_teacher_equivalence(rng):
    """Distilling from an exactly uniform teacher is uniform label smoothing."""
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(2, 12))
        z = rng.normal(size=n) * 3
        y = int(rng.integers(n))
        alpha = float(rng.uniform(0, 1))
        bd_kd, g_kd = kd_loss(z, np.zeros(n), y, alpha)
        bd_ls, g_ls = label_smoothing_loss(z, y, uniform_prior(n), alpha)
        worst = max(worst, abs(bd_kd.total - bd_ls.total),
                    float(np.abs(g_kd - g_ls).max()))
        assert abs(bd_kd.total - bd_ls.total) < 1e-10
        np.testing.assert_allclose(g_kd, g_ls, atol=1e-10)
    print(f"\ncriterion 4: PASS — loss and gradient agree within 1e-10 "
          f"(worst {worst:.1e})")


def test_criterion_5_calibration_direction(desk_runs):
    """Adaptive self-distillation cuts test ECE by >= 30% on >= 2 of 3 seeds."""
    improved = 0
    details = []
    for seed in SEEDS:
        base = desk_runs[("base_ce", seed)]
        skd = desk_runs[("adaptive_skd", seed)]
        assert base.seconds < 300 and skd.seconds < 300
        drop = (base.report.ece - skd.report.ece) / base.report.ece
        details.append(f"seed {seed}: base {base.report.ece:.3f} -> "
                       f"skd {skd.report.ece:.3f} ({drop:+.0%})")
        if drop >= 0.30:
            improved += 1
    assert improved >= 2, "; ".join(details)
    print(f"\ncriterion 5: PASS — {improved}/3 seeds with >=30% relative ECE drop; "
          + "; ".join(details))


def test_criterion_6_alpha_trajectory_shape(desk_runs):
    """Epoch-mean smoothing starts tiny and settles by the end of training."""
    details = []
    for seed in SEEDS:
        diag = desk_runs[("adaptive_skd", seed)].diagnostics
        alphas = [d.mean_alpha for d in diag]
        tail = alphas[-max(1, len(alphas) // 5):]
        assert alphas[1] < 0.1, f"seed {seed}: epoch-2 mean alpha {alphas[1]:.3f}"
        assert float(np.std(tail)) < 0.05, f"seed {seed}: tail std {np.std(tail):.3f}"
        details.append(f"seed {seed}: alpha@2={alphas[1]:.3f}, "
                       f"plateau={np.mean(tail):.2f}±{np.std(tail):.3f}")
    print("\ncriterion 6: PASS — " + "; ".join(details))


def test_criterion_7_gradient_norm_comparison(desk_runs):
    """Late-training gradient norms stay within 1.1x of hard-target training."""
    details = []
    for seed in SEEDS:
        base = desk_runs[("base_ce", seed)].diagnostics
        skd = desk_runs[("adaptive_skd", seed)].diagnostics
        quarter = 3 * len(base) // 4
        base_norm = float(np.mean([d.mean_grad_norm for d in base[quarter:]]))
        skd_norm = float(np.mean([d.mean_grad_norm for d in skd[quarter:]]))
        ratio = skd_norm / base_norm
        assert ratio <= 1.1, f"seed {seed}: ratio {ratio:.3f}"
        details.append(f"seed {seed}: {ratio:.2f}x")
    print("\ncriterion 7: PASS — final-quarter gradient-norm ratios " + ", ".join(details))


def test_criterion_8_calibration_oracle(rng):
    """Hand-computed two-bin example plus boundary and invariance properties."""
    two_bin = np.array([(0.65, 1.0)] * 30 + [(0.65, 0.0)] * 20
                       + [(0.95, 1.0)] * 40 + [(0.95, 0.0)] * 10)
    report = calibration_report(two_bin, n_bins=10)
    assert report.ece == pytest.approx(0.10, abs=1e-12)
    assert report.mce == pytest.approx(0.15, abs=1e-12)

    # boundary conventions
    assert calibration_report(np.array([[0.3, 1.0]]), 10).bins[2].count == 1
    assert calibration_report(np.array([[0.0, 1.0]]), 10).bins[0].count == 1
    assert calibration_report(np.array([[1.0, 1.0]]), 10).bins[9].count == 1

    # exact invariances
    conf = rng.uniform(0, 1, 400)
    correct = (rng.random(400) < conf).astype(float)
    base = np.column_stack([conf, correct])
    doubled = calibration_report(np.vstack([base, base]))
    shuffled = calibration_report(base[rng.permutation(400)])
    original = calibration_report(base)
    assert doubled.ece == original.ece and doubled.mce == original.mce
    assert shuffled.ece == original.ece and shuffled.mce == original.mce
    assert original.ece <= original.mce
    print("\ncriterion 8: PASS — two-bin oracle (ECE 0.10, MCE 0.15), boundaries, "
          "and exact invariances")


def test_criterion_9_teacher_selection(desk_runs, tmp_path, rng):
    """Selection dispatch, tie rule, monotonicity on a real run, round-trip."""
    # argmax for score metrics, argmin for loss metrics, ties to latest
    reg = CheckpointRegistry(tmp_path / "acc")
    for epoch, score in enumerate([0.5, 0.7, 0.6], start=1):
        reg.store(np.zeros(3, np.float32), epoch, score, "accuracy")
    assert reg.select_teacher(4).epoch == 2
    reg_tie = CheckpointRegistry(tmp_path / "tie")
    for epoch, score in enumerate([0.5, 0.7, 0.7], start=1):
        reg_tie.store(np.zeros(3, np.float32), epoch, score, "accuracy")
    assert reg_tie.select_teacher(4).epoch == 3
    reg_nll = CheckpointRegistry(tmp_path / "nll")
    for epoch, score in enumerate([2.1, 1.8, 1.9], start=1):
        reg_nll.store(np.zeros(3, np.float32), epoch, score, "nll")
    assert reg_nll.select_teacher(4).epoch == 2

    # selected teacher score is monotone across a real training run
    registry = desk_runs[("adaptive_skd", 0)].result.registry
    scores = [registry.select_teacher(t).val_score
              for t in range(2, len(registry.epochs()) + 1)]
    assert all(b >= a for a, b in zip(scores, scores[1:]))

    # bit-exact round-trip of the binary format
    params = rng.normal(size=1021).astype(np.float32)
    path = tmp_path / "rt.ckpt"
    write_checkpoint(path, params, epoch=9, val_score=0.625, g_kind="mini_bleu")
    loaded = read_checkpoint(path)
    assert np.array_equal(loaded.params, params) and loaded.params.dtype == np.float32
    print("\ncriterion 9: PASS — dispatch, tie rule, run monotonicity, "
          "bit-exact round-trip")


def test_criterion_10_ablation_matrix(tmp_path):
    """The six-method matrix runs deterministically and emits its table."""
    config = tmp_path / "ablation.ini"
    config.write_text(DESK_CONFIG_INI)
    tables = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["ablation", "--config", str(config), "--output", str(out)]) == EXIT_OK
        with open(out / "ablation.csv", newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    assert [row["method"] for row in tables[0]] == [
        "base_ce", "fixed_alpha_skd", "adaptive_alpha_uniform",
        "linear_alpha_skd", "adaptive_skd:nll", "adaptive_skd:accuracy"]
    assert tables[0] == tables[1]
    for row in tables[0]:
        assert 0.0 <= float(row["test_ece"]) <= 1.0
    print("\ncriterion 10: PASS — six-method matrix, deterministic across invocations")
