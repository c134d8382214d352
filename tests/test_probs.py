import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alskd.probs import (
    adaptive_alpha,
    alpha_from_entropy,
    alpha_rows,
    entropy,
    entropy_rows,
    floored_log,
    softmax,
    softmax_rows,
)


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        p = softmax([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_known_values(self):
        # direct exponentiate-and-normalize oracle, frozen
        p = softmax([2.0, 1.0, 0.0])
        np.testing.assert_allclose(p, [0.66524096, 0.24472847, 0.09003057], atol=1e-8)

    def test_sums_to_one_for_wide_logits(self, rng):
        for _ in range(200):
            z = rng.uniform(-50, 50, size=rng.integers(2, 40))
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-9
            assert p.min() >= 0.0

    def test_stability_at_extreme_logits(self):
        p = softmax([700.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] > 0.999

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, float("inf")])
        with pytest.raises(ValueError):
            softmax([1.0, float("nan")])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0])


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_known_value(self):
        # frozen from the per-term summation oracle
        assert entropy([0.7, 0.1, 0.1, 0.1]) == pytest.approx(0.9404479886553263, abs=1e-15)

    def test_permutation_invariant_exactly(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            shuffled = rng.permutation(p)
            assert entropy(p) == entropy(shuffled)

    def test_range(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(n))
            h = entropy(p)
            assert 0.0 <= h <= math.log(n) + 1e-12

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            entropy([-0.1, 1.1])
        with pytest.raises(ValueError, match="non-empty"):
            entropy([])


class TestAdaptiveAlpha:
    def test_uniform_gives_zero(self):
        for n in (2, 5, 17):
            assert adaptive_alpha(np.full(n, 1.0 / n)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_gives_one(self):
        assert adaptive_alpha([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # 1 - H/ln4 with H from the entropy oracle; frozen
        a = adaptive_alpha([0.7, 0.1, 0.1, 0.1])
        assert a == pytest.approx(0.3216101752764803, abs=1e-15)
        assert a == pytest.approx(0.321606, abs=1e-5)

    def test_log_base_cancels(self, rng):
        # the same weight computed with base-2 logs throughout
        for _ in range(100):
            p = rng.dirichlet(np.ones(8))
            h2 = -np.sum(p[p > 0] * np.log2(p[p > 0]))
            base2 = 1.0 - h2 / math.log2(8)
            assert abs(adaptive_alpha(p) - base2) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=20))
    def test_stays_in_unit_interval(self, weights):
        p = np.asarray(weights) / np.sum(weights)
        assert 0.0 <= adaptive_alpha(p) <= 1.0

    def test_unit_interval_on_many_simplex_samples(self, rng):
        for _ in range(10_000):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
            assert 0.0 <= adaptive_alpha(p) <= 1.0

    def test_mixing_toward_uniform_never_raises_alpha(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(n))
            lam = rng.uniform(1e-6, 1.0)
            mixed = (1.0 - lam) * p + lam / n
            assert adaptive_alpha(mixed) <= adaptive_alpha(p) + 1e-12

    def test_binary_class_minimum_size(self):
        with pytest.raises(ValueError):
            adaptive_alpha([1.0])

    def test_rule_clips_into_unit_interval(self):
        # an entropy past ln|C| would give a negative weight, a negative entropy one above 1
        assert alpha_from_entropy(math.log(5) * (1 + 1e-12), 5) == 0.0
        assert alpha_from_entropy(-1e-12, 5) == 1.0
        np.testing.assert_array_equal(alpha_from_entropy(np.array([2.0, -0.5, 0.0]), 2),
                                      [0.0, 1.0, 1.0])


class TestRowHelpers:
    def test_rows_match_single_sample_ops(self, rng):
        z = rng.normal(size=(50, 7))
        p = softmax_rows(z)
        logs = floored_log(p)
        for i in range(50):
            np.testing.assert_array_equal(p[i], softmax(z[i]))
            assert entropy_rows(p, logs)[i] == pytest.approx(entropy(p[i]), abs=1e-12)
            assert alpha_rows(p, logs)[i] == pytest.approx(adaptive_alpha(p[i]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1300), st.integers(2, 12), st.integers(0, 2**32 - 1))
    @example(1, 2, 0)
    @example(1300, 12, 1)
    def test_row_max_matches_the_keepdims_form(self, n, c, seed):
        """``softmax_rows`` equals the ``z.max(axis=-1, keepdims=True)`` form by bytes,
        also on rows whose maximum is a +0.0/-0.0 pair."""
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 4.0, size=(n, c))
        signed = rng.random(n) < 0.25  # rows whose maximum is a +0.0/-0.0 pair, either order
        z[signed] = -np.abs(z[signed])
        plus_first = rng.random(int(signed.sum())) < 0.5
        z[signed, 0], z[signed, -1] = np.where(plus_first, 0.0, -0.0), np.where(plus_first, -0.0, 0.0)
        assert not np.any(np.signbit(z[signed, 0]) == np.signbit(z[signed, -1]))
        for rows in (z, z[:, ::-1]):
            e = np.exp(rows - rows.max(axis=-1, keepdims=True))
            assert softmax_rows(rows).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
