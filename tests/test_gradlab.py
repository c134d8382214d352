import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskd import gradlab
from alskd.gradlab import (
    BLOCK_SIZE,
    PROPOSITION_SLACK,
    SamplingExhaustedError,
    _sample_block,
    flip_region_census,
    gradient_ratio,
    gradient_ratio_rows,
    proposition1_validate,
    ratio_consistency_check,
    write_flip_census_csv,
    write_proposition_csv,
)
from alskd.losses import ce_loss, kd_loss
from alskd.probs import adaptive_alpha, entropy, softmax


def region_draw(rng, n):
    """Random (student, teacher, target, alpha) with the teacher no more
    confident than the student on the target."""
    p_s = rng.dirichlet(np.ones(n))
    p_t = rng.dirichlet(np.ones(n))
    y = int(rng.integers(n))
    if p_t[y] > p_s[y]:
        p_s, p_t = p_t, p_s
    return p_s, p_t, y, float(rng.uniform(0, 1))


@st.composite
def ratio_batches(draw):
    """Student and teacher rows over 2-12 classes with zero entries, some
    students certain of the target (P(y) = 1), and weights 0, 1 or between."""
    c = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))

    def dist():
        w = np.array(draw(st.lists(weight, min_size=c, max_size=c)))
        return w / w.sum() if w.sum() > 0 else np.eye(c)[0]

    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    p_s = np.array([dist() for _ in range(n)])
    certain = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p_s[certain] = np.eye(c)[y[certain]]
    p_t = np.array([dist() for _ in range(n)])
    alphas = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                           min_size=n, max_size=n))
    return p_s, p_t, y, np.array(alphas)


class TestGradientRatio:
    def test_matched_distributions(self):
        p = np.array([0.5, 0.3, 0.2])
        report = gradient_ratio(p, p.copy(), 0, 0.4)
        assert report.ratio_target == pytest.approx(0.6, abs=1e-12)
        np.testing.assert_allclose(report.ratio_nontarget[1:], 0.6, atol=1e-12)
        assert np.isnan(report.ratio_nontarget[0])
        assert not report.flip_target
        assert not report.flip_nontarget.any()

    def test_target_flip_example(self):
        # confident student (0.95) vs much less confident teacher (0.6)
        # at heavy smoothing: 0.1 < 0.9 * |0.35 / -0.05| = 6.3
        p_s = np.array([0.95, 0.03, 0.02])
        p_t = np.array([0.60, 0.25, 0.15])
        report = gradient_ratio(p_s, p_t, 0, 0.9)
        assert report.flip_target
        assert report.ratio_target == pytest.approx(0.1 - 6.3, abs=1e-10)

    def test_nontarget_flip_example(self):
        # ratio 1 - 0.5 * 0.3 / 0.1 = -0.5 on the non-target class
        p_s = np.array([0.8, 0.1, 0.1])
        p_t = np.array([0.5, 0.3, 0.2])
        report = gradient_ratio(p_s, p_t, 0, 0.5)
        assert report.ratio_nontarget[1] == pytest.approx(-0.5, abs=1e-12)
        assert bool(report.flip_nontarget[1])
        assert not bool(report.flip_nontarget[2])

    def test_certain_student_marks_target_undefined(self):
        p_s = np.array([1.0, 0.0, 0.0])
        p_t = np.array([0.5, 0.25, 0.25])
        report = gradient_ratio(p_s, p_t, 0, 0.5)
        assert np.isnan(report.ratio_target)
        assert not report.flip_target
        assert np.isnan(report.ratio_nontarget[1])  # p_s zero there too

    def test_flip_flags_match_raw_gradient_signs(self, rng):
        for _ in range(300):
            p_s, p_t, y, alpha = region_draw(rng, 6)
            report = gradient_ratio(p_s, p_t, y, alpha)
            _, g_ce = ce_loss(np.log(np.maximum(p_s, 1e-300)), y)
            _, g_kd = kd_loss(np.log(np.maximum(p_s, 1e-300)),
                              np.log(np.maximum(p_t, 1e-300)), y, alpha)
            for i in range(6):
                if g_ce[i] == 0.0:
                    continue
                expected_flip = (np.sign(g_kd[i]) != np.sign(g_ce[i])) and g_kd[i] != 0.0
                got = report.flip_target if i == y else bool(report.flip_nontarget[i])
                assert got == expected_flip

    @settings(max_examples=300, deadline=None)
    @given(ratio_batches())
    @example((np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]),
              np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]]),
              np.array([0, 2]), np.array([0.0, 1.0])))
    def test_rows_are_the_scalar_ratios_bit_for_bit(self, batch):
        p_s, p_t, y, alphas = batch
        rows = gradient_ratio_rows(p_s, p_t, y, alphas)
        for i in range(y.size):
            one = gradient_ratio(p_s[i], p_t[i], y[i], alphas[i])
            for name in ("ratio_target", "ratio_nontarget", "flip_target", "flip_nontarget",
                         "teacher_less_confident"):
                # bytes compare NaN to NaN and tell -0.0 from 0.0
                assert np.asarray(getattr(one, name)).tobytes() == getattr(rows, name)[i].tobytes()

    def test_non_integer_label_rejected(self):
        p = np.array([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            gradient_ratio(p, p.copy(), 1.7, 0.5)

    def test_region_flag(self):
        p_s = np.array([0.4, 0.3, 0.3])
        p_t = np.array([0.6, 0.2, 0.2])
        assert not gradient_ratio(p_s, p_t, 0, 0.5).teacher_less_confident
        assert gradient_ratio(p_t, p_s, 0, 0.5).teacher_less_confident


class TestRatioConsistency:
    def test_random_draws_all_consistent(self, rng):
        for _ in range(1000):
            z_s = rng.normal(size=6)
            z_t = rng.normal(size=6)
            y = int(rng.integers(6))
            alpha = float(rng.uniform(0, 1))
            assert ratio_consistency_check(z_s, z_t, y, alpha)

    def test_alpha_zero_gives_unit_ratios(self, rng):
        p_s, p_t, y, _ = region_draw(rng, 5)
        report = gradient_ratio(p_s, p_t, y, 0.0)
        assert report.ratio_target == pytest.approx(1.0, abs=1e-12)
        defined = ~np.isnan(report.ratio_nontarget)
        np.testing.assert_allclose(report.ratio_nontarget[defined], 1.0, atol=1e-12)

    @pytest.mark.parametrize("field", ["ratio_nontarget", "ratio_target"])
    def test_perturbed_closed_form_is_caught(self, monkeypatch, field):
        # a closed form 1e-6 off must fail the check; the target ratio only
        # counts where the teacher is no more confident than the student
        exact = gradlab.gradient_ratio_rows

        def perturbed(*args):
            report = exact(*args)
            return dataclasses.replace(report, **{field: getattr(report, field) + 1e-6})

        z = np.array([1.5, 0.2, -0.3, 0.4])
        cases = [(z, z[::-1], 0), (z[::-1], z, 0)]  # teacher less, then more, confident
        assert all(ratio_consistency_check(z_s, z_t, y, 0.6) for z_s, z_t, y in cases)
        monkeypatch.setattr(gradlab, "gradient_ratio_rows", perturbed)
        caught = [not ratio_consistency_check(z_s, z_t, y, 0.6) for z_s, z_t, y in cases]
        assert caught == ([True, True] if field == "ratio_nontarget" else [True, False])

    def test_one_hot_student_skips_target(self):
        z_s = np.array([200.0, 0.0, 0.0])
        z_t = np.array([0.5, 0.2, 0.1])
        assert ratio_consistency_check(z_s, z_t, 0, 0.7)

    def test_absolute_form_is_identity_in_region(self, rng):
        # the rewritten target ratio equals the signed closed form whenever
        # the student dominates the teacher on the target
        for _ in range(500):
            p_s, p_t, y, alpha = region_draw(rng, 7)
            if p_s[y] >= 1.0:
                continue
            signed = (1 - alpha) + alpha * (p_s[y] - p_t[y]) / (p_s[y] - 1.0)
            report = gradient_ratio(p_s, p_t, y, alpha)
            assert abs(report.ratio_target - signed) < 1e-12

    def test_aggregate_nontarget_identity(self, rng):
        # summed non-target distillation gradient over summed non-target
        # cross-entropy gradient collapses to the target ratio
        for _ in range(500):
            z_s = rng.normal(size=6)
            z_t = rng.normal(size=6)
            y = int(rng.integers(6))
            alpha = float(rng.uniform(0, 1))
            _, g_ce = ce_loss(z_s, y)
            _, g_kd = kd_loss(z_s, z_t, y, alpha)
            others = [i for i in range(6) if i != y]
            aggregate = g_kd[others].sum() / g_ce[others].sum()
            p_s = softmax(z_s)
            p_t = softmax(z_t)
            signed = (1 - alpha) + alpha * (p_s[y] - p_t[y]) / (p_s[y] - 1.0)
            assert abs(aggregate - signed) < 1e-10


TRIAL_COLUMNS = ("target", "alpha_high", "alpha_low", "w_high", "w_low", "violation")


class TestProposition:
    def test_no_violations_across_seeds(self):
        for seed in (0, 3333, 5555):
            report = proposition1_validate(2000, 10, seed)
            assert report.valid_pairs == 2000
            assert report.violations == 0

    def test_entropy_ordering_implies_weight_ordering(self):
        report = proposition1_validate(500, 6, seed=1)
        for i in range(report.valid_pairs):
            # higher entropy must mean smaller smoothing weight
            assert report.alpha_high[i] < report.alpha_low[i]
            assert report.w_high[i] > report.w_low[i] - PROPOSITION_SLACK

    def test_shared_fixed_alpha_collapses_the_ordering(self, rng):
        # with one shared weight (and the shared bracket) the two mean
        # rescaling factors coincide, so the instance-specific weight is
        # what creates the ordering
        t, s, alpha = 0.6, 0.3, 0.4
        bracket = (t - s) / (t - 1.0)
        w_i = (1 - alpha) + alpha * bracket
        w_k = (1 - alpha) + alpha * bracket
        assert w_i == w_k

    def test_small_class_count_rejected(self):
        with pytest.raises(ValueError):
            proposition1_validate(10, 2, 0)

    def test_exhausted_sampling(self):
        for max_attempts in (0, 9):
            with pytest.raises(SamplingExhaustedError):
                proposition1_validate(10, 5, 0, max_attempts=max_attempts)

    @pytest.mark.parametrize("n_trials, max_attempts, exhausts", [
        (10, 9, True), (2000, 1500, True), (2000, 10**6, False)])
    def test_never_draws_more_than_max_attempts(self, monkeypatch, n_trials, max_attempts,
                                                exhausts):
        candidates = []
        default_rng = np.random.default_rng

        class CountingRng:
            # one target label is drawn per candidate pair
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, high, size):
                candidates.append(size)
                return self.rng.integers(high, size=size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        if exhausts:
            with pytest.raises(SamplingExhaustedError):
                proposition1_validate(n_trials, 5, 0, max_attempts=max_attempts)
            assert sum(candidates) == max_attempts
        else:
            report = proposition1_validate(n_trials, 5, 0, max_attempts=max_attempts)
            assert report.valid_pairs == n_trials
            assert sum(candidates) <= max_attempts

    @pytest.mark.parametrize("class_count", range(3, 13))
    def test_sampled_rows_meet_the_preconditions(self, class_count):
        for seed in (0, 7):
            block = _sample_block(np.random.default_rng(seed), class_count, BLOCK_SIZE)
            n = block.target.size
            assert BLOCK_SIZE // 2 < n <= BLOCK_SIZE
            # the first block's valid rows are the first trials, in order
            report = proposition1_validate(n, class_count, seed)
            for i in range(report.valid_pairs):
                y, t = block.target[i], block.t[i]
                p_high, p_low = block.p_high[i], block.p_low[i]
                assert report.target[i] == y
                assert block.h_high[i] == entropy(p_high)
                assert block.h_low[i] == entropy(p_low)
                assert block.h_high[i] > block.h_low[i]
                assert report.alpha_high[i] == block.alpha_high[i] == adaptive_alpha(p_high)
                assert report.alpha_low[i] == block.alpha_low[i] == adaptive_alpha(p_low)
                assert p_high[y] == p_low[y] == t
                assert block.s[i] < t

    def test_same_seed_same_trials(self):
        # 1500 pairs span several blocks; a shorter run is a prefix of a longer one
        first = proposition1_validate(1500, 7, 11)
        again = proposition1_validate(1500, 7, 11)
        prefix = proposition1_validate(50, 7, 11)
        other = proposition1_validate(50, 7, 12)
        for name in TRIAL_COLUMNS:
            column = getattr(first, name)
            assert column.shape == (1500,)
            assert np.array_equal(getattr(again, name), column)
            assert np.array_equal(getattr(prefix, name), column[:50])
        assert not all(np.array_equal(getattr(other, name), getattr(first, name)[:50])
                       for name in TRIAL_COLUMNS)

    def test_csv_artifact(self, tmp_path):
        report = proposition1_validate(50, 5, 0)
        path = tmp_path / "prop.csv"
        write_proposition_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert all(row["violation"] == "false" for row in rows)
        for i, row in enumerate(rows):
            assert int(row["trial"]) == i
            assert int(row["target"]) == report.target[i]
            for name in ("alpha_high", "alpha_low", "w_high", "w_low"):
                assert float(row[f"{name}_entropy"]) == getattr(report, name)[i]


class TestFlipCensus:
    def test_alpha_zero_never_flips(self):
        census = flip_region_census(50, 0.0)
        assert not census.flip.any()

    def test_alpha_one_flips_everywhere_but_the_diagonal(self):
        census = flip_region_census(50, 1.0)
        expected = census.p_teacher != census.p_student
        np.testing.assert_array_equal(census.flip, expected)

    def test_cells_match_pointwise_inequality(self):
        census = flip_region_census(100, 0.5)
        for ps, pt, flip in zip(census.p_student, census.p_teacher, census.flip):
            assert bool(flip) == (0.5 < 0.5 * abs(ps - pt) / abs(ps - 1.0))

    def test_region_restriction_and_openness(self):
        census = flip_region_census(40, 0.3)
        assert np.all(census.p_teacher <= census.p_student)
        assert census.p_student.min() > 0.0 and census.p_student.max() < 1.0

    def test_flip_monotone_in_student_confidence(self):
        census = flip_region_census(60, 0.7)
        for pt in np.unique(census.p_teacher):
            sel = census.p_teacher == pt
            order = np.argsort(census.p_student[sel])
            flips = census.flip[sel][order].astype(int)
            assert np.all(np.diff(flips) >= 0)

    def test_csv_artifact(self, tmp_path):
        census = flip_region_census(10, 0.5)
        path = tmp_path / "flip.csv"
        write_flip_census_csv(census, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == census.flip.size
        assert {row["flip_target"] for row in rows} <= {"true", "false"}
