import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from oracles import bin_rate_by_quadrature
from probcal.metrics import auc
from probcal.synth import (
    LogisticScorer,
    OracleSpec,
    fit_logistic,
    generate_oracle,
    generate_xor,
    true_theta,
)


class TestOracleSpec:
    def test_identity_curve(self):
        spec = OracleSpec(curve="identity")
        assert spec.probability(0.3) == 0.3

    def test_square_curve(self):
        spec = OracleSpec(curve="square")
        assert spec.probability(0.5) == 0.25

    def test_logistic_curve(self):
        spec = OracleSpec(curve="logistic")
        assert spec.probability(0.5) == 0.5
        assert spec.probability(1.0) == pytest.approx(expit(4.0))

    def test_constant_curve_uses_level(self):
        spec = OracleSpec(curve="constant", level=0.7)
        assert spec.probability(0.1) == 0.7
        assert spec.probability(0.9) == 0.7

    def test_rejects_unknown_curve(self):
        with pytest.raises(ValueError, match="curve"):
            OracleSpec(curve="cubic")

    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError, match="level"):
            OracleSpec(curve="constant", level=1.5)


class TestGenerateOracle:
    def test_constant_one_gives_all_positives(self):
        data = generate_oracle(OracleSpec(curve="constant", level=1.0), 50, seed=0)
        assert data.labels.sum() == 50

    def test_constant_zero_gives_all_negatives(self):
        data = generate_oracle(OracleSpec(curve="constant", level=0.0), 50, seed=0)
        assert data.labels.sum() == 0

    def test_identity_positive_rate_near_half(self):
        data = generate_oracle(OracleSpec(), 1_000_000, seed=1)
        assert abs(data.labels.mean() - 0.5) < 0.002  # 3 sigma of a fair coin

    def test_scores_lie_in_unit_interval(self):
        data = generate_oracle(OracleSpec(), 1000, seed=2)
        assert data.scores.min() >= 0.0
        assert data.scores.max() <= 1.0

    def test_same_seed_reproduces(self):
        a = generate_oracle(OracleSpec(curve="square"), 500, seed=3)
        b = generate_oracle(OracleSpec(curve="square"), 500, seed=3)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_oracle(OracleSpec(), 0, seed=0)


class TestTrueTheta:
    def test_identity_first_bin(self):
        theta = true_theta(OracleSpec(), [0.0, 0.2, 1.0])
        assert theta[0] == pytest.approx(0.1, abs=1e-10)

    def test_identity_equals_bin_midpoints(self):
        edges = [0.0, 0.13, 0.41, 0.77, 1.0]
        theta = true_theta(OracleSpec(), edges)
        midpoints = [(a + b) / 2 for a, b in zip(edges[:-1], edges[1:])]
        assert np.allclose(theta, midpoints, atol=1e-10)

    def test_square_single_bin(self):
        theta = true_theta(OracleSpec(curve="square"), [0.0, 1.0])
        assert theta[0] == pytest.approx(1 / 3, abs=1e-10)

    def test_constant_curve(self):
        theta = true_theta(OracleSpec(curve="constant", level=0.4), [0.0, 0.5, 1.0])
        assert np.allclose(theta, 0.4, atol=1e-12)

    def test_matches_quadrature_oracle_on_logistic_curve(self):
        spec = OracleSpec(curve="logistic")
        edges = [0.0, 0.25, 0.6, 1.0]
        theta = true_theta(spec, edges)
        for value, (lo, hi) in zip(theta, zip(edges[:-1], edges[1:])):
            assert value == pytest.approx(
                bin_rate_by_quadrature(spec.probability, lo, hi), abs=1e-10
            )

    @pytest.mark.parametrize("curve", ["identity", "square", "logistic", "constant"])
    def test_closed_form_matches_quadrature(self, curve):
        spec = OracleSpec(curve=curve, level=0.3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            edges = np.concatenate([[0.0], np.sort(rng.random(9)), [1.0]])
            theta = true_theta(spec, edges)
            expected = [
                bin_rate_by_quadrature(spec.probability, lo, hi)
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
            assert np.allclose(theta, expected, rtol=1e-13, atol=0.0)

    def test_values_are_probabilities(self):
        theta = true_theta(OracleSpec(curve="logistic"), np.linspace(0, 1, 11))
        assert np.all((theta >= 0) & (theta <= 1))


class TestGenerateXor:
    def test_zero_noise_gives_exact_corners(self):
        data = generate_xor(8, noise_sd=0.0, seed=0)
        corners = {tuple(row) for row in data.features}
        assert corners == {(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)}

    def test_labels_follow_corner_sign_product(self):
        data = generate_xor(400, noise_sd=0.0, seed=1)
        for (x1, x2), label in zip(data.features, data.labels):
            assert label == (1 if x1 * x2 > 0 else 0)

    def test_classes_balanced_within_one(self):
        for n in (2000, 2001, 2002, 2003):
            data = generate_xor(n, seed=2)
            assert abs(data.labels.sum() - (n - data.labels.sum())) <= 1

    def test_deterministic(self):
        a = generate_xor(100, seed=5)
        b = generate_xor(100, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_noise_spreads_the_blobs(self):
        data = generate_xor(1000, noise_sd=0.3, seed=3)
        # distances from the nearest corner should look like 2-D normal noise
        nearest = np.abs(np.abs(data.features) - 1.0)
        assert 0.1 < nearest.std() < 0.5

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_xor(3)

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -0.5])
    def test_rejects_noise_that_is_not_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(ValueError, match=rf"^noise_sd must be finite and >= 0, got {noise_sd}$"):
            generate_xor(40, noise_sd=noise_sd)


class TestFitLogistic:
    def test_scores_are_interior_probabilities(self):
        data = generate_xor(400, seed=0)
        scorer = fit_logistic(data)
        scores = scorer(data.features)
        assert np.all(scores > 0)
        assert np.all(scores < 1)

    def test_linear_map_cannot_rank_xor(self):
        train = generate_xor(2000, seed=9)
        test = generate_xor(2000, seed=509)
        scorer = fit_logistic(train, feature_map="linear")
        held_out = auc(scorer(test.features), test.labels)
        assert 0.45 <= held_out <= 0.6

    def test_quadratic_map_separates_xor(self):
        train = generate_xor(2000, seed=9)
        test = generate_xor(2000, seed=509)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scorer = fit_logistic(train, feature_map="quadratic")
        held_out = auc(scorer(test.features), test.labels)
        assert held_out >= 0.97

    def test_ridge_keeps_separable_fit_finite(self):
        features = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        from probcal.data import FeatureDataset

        data = FeatureDataset(features, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scorer = fit_logistic(data, l2=1e-4)
        assert np.all(np.isfinite(scorer.coef))

    def test_scorer_is_reusable_and_frozen(self):
        data = generate_xor(200, seed=4)
        scorer = fit_logistic(data)
        assert isinstance(scorer, LogisticScorer)
        once = scorer(data.features)
        again = scorer(data.features)
        assert np.array_equal(once, again)
        with pytest.raises(AttributeError):
            scorer.feature_map = "quadratic"

    def test_rejects_unknown_feature_map(self):
        data = generate_xor(100, seed=0)
        with pytest.raises(ValueError, match="feature_map"):
            fit_logistic(data, feature_map="cubic")

    @pytest.mark.parametrize(
        "kwargs, message", [({"max_iter": 0}, "max_iter"), ({"tol": float("nan")}, "tol")]
    )
    def test_rejects_bad_iteration_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_logistic(generate_xor(40, seed=0), **kwargs)

    @pytest.mark.parametrize("l2", [math.inf, math.nan, -1e-4])
    def test_rejects_a_penalty_that_is_not_finite_and_nonnegative(self, l2):
        # an infinite or NaN penalty would give NaN coefficients after a nan-gradient warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^l2 must be finite and >= 0, got {l2}$"):
                fit_logistic(generate_xor(40, seed=0), l2=l2)

    def test_requires_both_classes(self):
        from probcal.data import FeatureDataset

        data = FeatureDataset(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(data)

    def test_budget_of_exactly_the_steps_taken_converges(self):
        # the gradient is checked at the point returned, so a budget that runs
        # out on the optimum neither warns nor changes the coefficients
        data = generate_xor(400, seed=0)
        full = fit_logistic(data)

        def fit_within(budget):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return fit_logistic(data, max_iter=budget)

        steps = next(k for k in range(1, 100) if np.array_equal(fit_within(k).coef, full.coef))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = fit_logistic(data, max_iter=steps)
        assert np.array_equal(exact.coef, full.coef)
        with pytest.warns(RuntimeWarning, match=f"logistic fit stopped after {steps - 1} iterations"):
            fit_logistic(data, max_iter=steps - 1)

    def test_deterministic(self):
        data = generate_xor(300, seed=6)
        a = fit_logistic(data)
        b = fit_logistic(data)
        assert np.array_equal(a.coef, b.coef)
