import math

import numpy as np
import pytest
from conftest import central_difference, rel_error

from alskd.losses import (
    adaptive_skd_loss,
    ce_loss,
    confidence_penalty_loss,
    confidence_penalty_rows,
    kd_loss,
    label_smoothing_loss,
    linear_alpha_schedule,
    mixture_loss_rows,
    uniform_prior,
    unigram_prior,
)
from alskd.probs import adaptive_alpha, floored_log, softmax, softmax_rows


def logits_for(probs):
    """Logits whose softmax reproduces the given probabilities."""
    return np.log(np.asarray(probs, dtype=np.float64))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        bd, grad = ce_loss([80.0, 0.0, 0.0], 0)
        assert bd.total < 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_known_gradient(self):
        _, grad = ce_loss(logits_for([0.7, 0.2, 0.1]), 0)
        np.testing.assert_allclose(grad, [-0.3, 0.2, 0.1], atol=1e-12)

    def test_gradient_sums_to_zero(self, rng):
        for _ in range(200):
            z = rng.normal(size=6)
            _, grad = ce_loss(z, int(rng.integers(6)))
            assert abs(grad.sum()) < 1e-10

    def test_breakdown(self):
        bd, _ = ce_loss(logits_for([0.7, 0.2, 0.1]), 0)
        assert bd.alpha_used == 0.0
        assert bd.total == pytest.approx(-math.log(0.7), abs=1e-12)
        assert bd.total == pytest.approx(bd.hard_term)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss([0.0, 1.0], 2)


class TestLabelSmoothing:
    def test_alpha_zero_degenerates_to_ce(self, rng):
        q = uniform_prior(5)
        for _ in range(50):
            z = rng.normal(size=5)
            y = int(rng.integers(5))
            bd_ls, g_ls = label_smoothing_loss(z, y, q, 0.0)
            bd_ce, g_ce = ce_loss(z, y)
            assert bd_ls.total == pytest.approx(bd_ce.total, abs=1e-12)
            np.testing.assert_allclose(g_ls, g_ce, atol=1e-12)

    def test_alpha_one_is_pure_prior_target(self):
        z = logits_for([0.5, 0.3, 0.2])
        bd, _ = label_smoothing_loss(z, 0, uniform_prior(3), 1.0)
        expected = -np.mean(np.log([0.5, 0.3, 0.2]))
        assert bd.total == pytest.approx(expected, abs=1e-12)

    def test_known_gradient(self):
        _, grad = label_smoothing_loss(logits_for([0.7, 0.2, 0.1]), 0, uniform_prior(3), 0.1)
        np.testing.assert_allclose(
            grad, [-0.7 / 3, 1.0 / 6, 1.0 / 15], atol=1e-12)

    def test_finite_difference(self, rng):
        q = unigram_prior(rng.integers(0, 6, size=100), 6)
        for _ in range(25):
            z = rng.normal(size=6)
            y = int(rng.integers(6))
            _, grad = label_smoothing_loss(z, y, q, 0.3)
            fd = central_difference(lambda zz: label_smoothing_loss(zz, y, q, 0.3)[0].total, z)
            assert rel_error(grad, fd) < 1e-5


class TestKnowledgeDistillation:
    def test_alpha_zero_equals_ce_gradient(self, rng):
        for _ in range(50):
            z_s = rng.normal(size=5)
            z_t = rng.normal(size=5)
            y = int(rng.integers(5))
            _, g_kd = kd_loss(z_s, z_t, y, 0.0)
            _, g_ce = ce_loss(z_s, y)
            np.testing.assert_allclose(g_kd, g_ce, atol=1e-14)

    def test_matched_distributions_give_zero_gradient(self):
        z = np.array([1.0, -0.3, 0.2, 0.5])
        _, grad = kd_loss(z, z.copy(), 0, 1.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_known_gradient(self):
        _, grad = kd_loss(logits_for([0.7, 0.2, 0.1]), logits_for([0.5, 0.3, 0.2]), 0, 0.5)
        np.testing.assert_allclose(grad, [-0.05, 0.05, 0.0], atol=1e-12)

    def test_uniform_teacher_equals_uniform_smoothing(self, rng):
        # equal teacher logits make the teacher exactly uniform
        for _ in range(100):
            z = rng.normal(size=7)
            y = int(rng.integers(7))
            alpha = float(rng.uniform(0, 1))
            bd_kd, g_kd = kd_loss(z, np.zeros(7), y, alpha)
            bd_ls, g_ls = label_smoothing_loss(z, y, uniform_prior(7), alpha)
            assert abs(bd_kd.total - bd_ls.total) < 1e-10
            np.testing.assert_allclose(g_kd, g_ls, atol=1e-10)

    def test_finite_difference(self, rng):
        for _ in range(25):
            z_s = rng.normal(size=5)
            z_t = rng.normal(size=5)
            y = int(rng.integers(5))
            _, grad = kd_loss(z_s, z_t, y, 0.4)
            fd = central_difference(lambda zz: kd_loss(zz, z_t, y, 0.4)[0].total, z_s)
            assert rel_error(grad, fd) < 1e-5


class TestAdaptiveSelfDistillation:
    def test_uniform_student_reduces_to_ce(self):
        z = np.zeros(6)
        z_t = np.array([2.0, 1.0, 0.0, -1.0, 0.5, 0.3])
        bd, grad = adaptive_skd_loss(z, z_t, 2)
        bd_ce, g_ce = ce_loss(z, 2)
        assert bd.alpha_used == pytest.approx(0.0, abs=1e-12)
        assert bd.total == pytest.approx(bd_ce.total, abs=1e-10)
        np.testing.assert_allclose(grad, g_ce, atol=1e-10)

    def test_one_hot_student_distills_only(self):
        z = np.array([90.0, 0.0, 0.0])
        z_t = logits_for([0.5, 0.3, 0.2])
        bd, grad = adaptive_skd_loss(z, z_t, 0)
        assert bd.alpha_used == pytest.approx(1.0, abs=1e-9)
        p = softmax(z)
        np.testing.assert_allclose(grad, p - [0.5, 0.3, 0.2], atol=1e-8)

    def test_known_composition(self):
        # expected gradient composed from the weight oracle and the
        # mixture-gradient formula
        p = np.array([0.7, 0.1, 0.1, 0.1])
        p_t = np.array([0.4, 0.2, 0.2, 0.2])
        a = adaptive_alpha(p)
        assert a == pytest.approx(0.3216101752764803, abs=1e-15)
        onehot = np.array([1.0, 0.0, 0.0, 0.0])
        expected = p - (1.0 - a) * onehot - a * p_t
        bd, grad = adaptive_skd_loss(logits_for(p), logits_for(p_t), 0)
        assert bd.alpha_used == pytest.approx(a, abs=1e-12)
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_decomposition_identity(self, rng):
        for _ in range(200):
            z_s = rng.normal(size=8)
            z_t = rng.normal(size=8)
            y = int(rng.integers(8))
            bd, _ = adaptive_skd_loss(z_s, z_t, y)
            recon = (1.0 - bd.alpha_used) * bd.hard_term + bd.alpha_used * bd.teacher_term
            assert abs(bd.total - recon) < 1e-9

    def test_gradient_treats_weight_as_constant(self, rng):
        # frozen-weight finite differences match; re-derived-weight ones do not
        z_s = logits_for([0.7, 0.1, 0.1, 0.1])
        z_t = logits_for([0.4, 0.2, 0.2, 0.2])
        bd, grad = adaptive_skd_loss(z_s, z_t, 0)
        frozen = central_difference(
            lambda zz: kd_loss(zz, z_t, 0, bd.alpha_used)[0].total, z_s)
        assert rel_error(grad, frozen) < 1e-5
        rederived = central_difference(
            lambda zz: adaptive_skd_loss(zz, z_t, 0)[0].total, z_s)
        assert rel_error(grad, rederived) > 1e-3

    def test_missing_teacher(self):
        with pytest.raises(ValueError):
            adaptive_skd_loss([0.0, 1.0], None, 0)


class TestConfidencePenalty:
    def test_beta_zero_equals_ce(self, rng):
        for _ in range(50):
            z = rng.normal(size=5)
            y = int(rng.integers(5))
            bd_cp, g_cp = confidence_penalty_loss(z, y, 0.0)
            bd_ce, g_ce = ce_loss(z, y)
            assert bd_cp.total == pytest.approx(bd_ce.total, abs=1e-12)
            np.testing.assert_allclose(g_cp, g_ce, atol=1e-12)

    def test_uniform_closed_form(self):
        beta = 0.78
        bd, _ = confidence_penalty_loss(np.zeros(8), 3, beta)
        assert bd.total == pytest.approx(math.log(8) - beta * math.log(8), abs=1e-12)

    def test_finite_difference(self, rng):
        for _ in range(50):
            z = rng.normal(size=6)
            y = int(rng.integers(6))
            _, grad = confidence_penalty_loss(z, y, 0.78)
            fd = central_difference(
                lambda zz: confidence_penalty_loss(zz, y, 0.78)[0].total, z)
            assert rel_error(grad, fd) < 1e-6

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            confidence_penalty_loss([0.0, 1.0], 0, -0.1)


class TestLinearAlphaSchedule:
    def test_starts_at_zero(self):
        assert linear_alpha_schedule(0, 0.7, 150) == 0.0

    def test_reaches_maximum(self):
        assert linear_alpha_schedule(150, 0.7, 150) == pytest.approx(0.7)
        assert linear_alpha_schedule(400, 0.7, 150) == pytest.approx(0.7)

    def test_midpoint(self):
        assert linear_alpha_schedule(75, 0.7, 150) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_alpha_schedule(-1, 0.7, 150)
        with pytest.raises(ValueError):
            linear_alpha_schedule(1, 0.7, 0)
        with pytest.raises(ValueError):
            linear_alpha_schedule(1, 1.5, 10)


class TestSharedProperties:
    def test_zero_sum_gradients(self, rng):
        q = uniform_prior(6)
        for _ in range(200):
            z_s = rng.normal(size=6)
            z_t = rng.normal(size=6)
            y = int(rng.integers(6))
            for _, grad in (
                ce_loss(z_s, y),
                label_smoothing_loss(z_s, y, q, 0.2),
                kd_loss(z_s, z_t, y, 0.6),
                adaptive_skd_loss(z_s, z_t, y),
            ):
                assert abs(grad.sum()) < 1e-10

    def test_breakdown_reconstruction(self, rng):
        q = uniform_prior(6)
        for _ in range(100):
            z_s = rng.normal(size=6)
            z_t = rng.normal(size=6)
            y = int(rng.integers(6))
            for bd, _ in (
                ce_loss(z_s, y),
                label_smoothing_loss(z_s, y, q, 0.2),
                kd_loss(z_s, z_t, y, 0.6),
                adaptive_skd_loss(z_s, z_t, y),
                confidence_penalty_loss(z_s, y, 0.78),
            ):
                recon = (1 - bd.alpha_used) * bd.hard_term + bd.alpha_used * bd.teacher_term
                assert abs(bd.total - recon) < 1e-9
                assert math.isfinite(bd.total)


class TestBatchedRows:
    """Each per-sample loss is one row of its batched kernel, bit for bit."""

    def test_mixture_rows_match_per_sample_ops(self, rng):
        z = rng.normal(size=(40, 6))
        y = rng.integers(0, 6, size=40)
        q = uniform_prior(6)
        probs = softmax_rows(z)
        hard, teacher, total, grad = mixture_loss_rows(probs, floored_log(probs), y, q.probs, 0.15)
        for i in range(40):
            bd, g = label_smoothing_loss(z[i], int(y[i]), q, 0.15)
            assert total[i] == bd.total
            assert hard[i] == bd.hard_term
            assert teacher[i] == bd.teacher_term
            np.testing.assert_array_equal(grad[i], g)

    def test_mixture_rows_match_adaptive_distillation(self, rng):
        z_s = rng.normal(size=(30, 5))
        z_t = rng.normal(size=(30, 5))
        y = rng.integers(0, 5, size=30)
        p_s = softmax_rows(z_s)
        p_t = softmax_rows(z_t)
        # the per-sample loss takes its weight from the exactly rounded
        # ``adaptive_alpha``; fed the same weights, the rows are its values
        alphas = np.array([adaptive_alpha(p) for p in p_s])
        _, _, total, grad = mixture_loss_rows(p_s, floored_log(p_s), y, p_t, alphas)
        for i in range(30):
            bd, g = adaptive_skd_loss(z_s[i], z_t[i], int(y[i]))
            assert bd.alpha_used == alphas[i]
            assert total[i] == bd.total
            np.testing.assert_array_equal(grad[i], g)

    def test_mixture_rows_match_ce_and_distillation(self, rng):
        z_s = rng.normal(size=(30, 7))
        z_t = rng.normal(size=(30, 7))
        y = rng.integers(0, 7, size=30)
        p_s = softmax_rows(z_s)
        logs = floored_log(p_s)
        ce_hard, _, ce_total, ce_grad = mixture_loss_rows(p_s, logs, y, np.zeros(7), 0.0)
        hard, teacher, total, grad = mixture_loss_rows(p_s, logs, y, softmax_rows(z_t), 0.35)
        for i in range(30):
            bd, g = ce_loss(z_s[i], int(y[i]))
            assert (bd.total, bd.hard_term, bd.teacher_term) == (ce_total[i], ce_hard[i], 0.0)
            np.testing.assert_array_equal(ce_grad[i], g)
            bd, g = kd_loss(z_s[i], z_t[i], int(y[i]), 0.35)
            assert (bd.total, bd.hard_term, bd.teacher_term) == (total[i], hard[i], teacher[i])
            np.testing.assert_array_equal(grad[i], g)

    def test_penalty_rows_match_per_sample(self, rng):
        z = rng.normal(size=(25, 4))
        y = rng.integers(0, 4, size=25)
        probs = softmax_rows(z)
        total, grad = confidence_penalty_rows(probs, floored_log(probs), y, 0.78)
        for i in range(25):
            bd, g = confidence_penalty_loss(z[i], int(y[i]), 0.78)
            assert total[i] == bd.total
            np.testing.assert_array_equal(grad[i], g)


class TestPriors:
    def test_unigram_add_one(self):
        prior = unigram_prior([0, 0, 1], 3)
        np.testing.assert_allclose(prior.probs, [3 / 6, 2 / 6, 1 / 6])

    def test_unigram_never_zero(self):
        prior = unigram_prior([0] * 100, 4)
        assert prior.probs.min() > 0

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            unigram_prior([0, 5], 3)
