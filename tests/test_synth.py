import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from oracles import bin_rate_by_quadrature, fit_logistic, oracle_draw
from probcal.metrics import auc
from probcal.synth import _BLOCK_ROWS, OracleSpec, _oracle_blocks, generate_oracle, generate_xor, true_theta

# SHA-256 of generate_oracle(OracleSpec(), 1000, seed=4)'s score then label bytes: the identity
# curve's probabilities share the scores' memory, and its draws must not change a byte for it
IDENTITY_DIGEST = "589c8bf58b1a8a164bec606a787a4620ef559b7cd0e344ede3415f7bbb2cab69"


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

    def test_identity_probability_is_its_float64_input(self):
        scores = np.linspace(0.0, 1.0, 5)
        assert OracleSpec().probability(scores) is scores

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

    def test_identity_curve_bytes(self):
        # the identity curve's probabilities are the scores themselves, not a copy of them
        data = generate_oracle(OracleSpec(), 1000, seed=4)
        rng = np.random.default_rng(4)
        scores = rng.random(1000)
        assert np.array_equal(data.scores, scores)
        assert np.array_equal(data.labels, (rng.random(1000) < scores).astype(np.int64))
        digest = hashlib.sha256(data.scores.tobytes() + data.labels.tobytes()).hexdigest()
        assert digest == IDENTITY_DIGEST

    @settings(max_examples=60, deadline=None)
    @given(
        # one row, a short or exact first block, one row past it, and a short third block
        n=st.sampled_from([1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5]),
        spec=st.sampled_from([
            OracleSpec(), OracleSpec(curve="square"), OracleSpec(curve="logistic"),
            OracleSpec(curve="constant", level=0.0), OracleSpec(curve="constant", level=1.0),
            OracleSpec(curve="constant", level=0.3),
        ]),
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.builds(
                lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
                st.integers(0, 2**32 - 1),
                st.tuples(st.integers(0, 3), st.integers(0, 1)),
            ),
        ),
    )
    def test_blocks_and_arrays_are_the_whole_draw(self, n, spec, seed):
        # generate_oracle and the blocks the harness reads, against scores and labels drawn whole
        reference = oracle_draw(spec, n, seed)
        data = generate_oracle(spec, n, seed)
        assert data.labels.dtype == np.int64
        assert np.array_equal(data.scores, reference.scores)
        assert np.array_equal(data.labels, reference.labels)
        blocks = list(_oracle_blocks(spec, n, seed))
        assert [(rows.start, scores.size) for rows, scores, _ in blocks] == [
            (start, min(_BLOCK_ROWS, n - start)) for start in range(0, n, _BLOCK_ROWS)
        ]
        assert np.array_equal(np.concatenate([scores for _, scores, _ in blocks]), reference.scores)
        assert np.array_equal(np.concatenate([labels for *_, labels in blocks]), reference.labels == 1)


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

    @pytest.mark.parametrize(
        "edges, message",
        [([0.5], "at least two values"), ([0.2, 0.2], "strictly increasing")],
    )
    def test_rejects_bad_edges(self, edges, message):
        with pytest.raises(ValueError, match=message):
            true_theta(OracleSpec(), edges)


class TestGenerateXor:
    def test_zero_noise_gives_exact_corners(self):
        features, _ = generate_xor(8, noise_sd=0.0, seed=0)
        corners = {tuple(row) for row in features}
        assert corners == {(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)}

    def test_labels_follow_corner_sign_product(self):
        features, labels = generate_xor(400, noise_sd=0.0, seed=1)
        assert features.shape == (400, 2) and labels.dtype == np.int64
        for (x1, x2), label in zip(features, labels):
            assert label == (1 if x1 * x2 > 0 else 0)

    def test_classes_balanced_within_one(self):
        for n in (2000, 2001, 2002, 2003):
            _, labels = generate_xor(n, seed=2)
            assert abs(labels.sum() - (n - labels.sum())) <= 1

    def test_deterministic(self):
        a = generate_xor(100, seed=5)
        b = generate_xor(100, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_spreads_the_blobs(self):
        features, _ = generate_xor(1000, noise_sd=0.3, seed=3)
        # distances from the nearest corner should look like 2-D normal noise
        nearest = np.abs(np.abs(features) - 1.0)
        assert 0.1 < nearest.std() < 0.5

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_xor(3)

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -0.5])
    def test_rejects_noise_that_is_not_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(ValueError, match=rf"^noise_sd must be finite and >= 0, got {noise_sd}$"):
            generate_xor(40, noise_sd=noise_sd)


class TestFitLogistic:
    """The XOR problem that ``generate_xor`` promises, seen through the ridge logistic base
    learner of ``oracles``: a linear model cannot rank it, a quadratic one separates it."""

    def test_scores_are_interior_probabilities(self):
        features, labels = generate_xor(400, seed=0)
        scores = fit_logistic(features, labels)(features)
        assert np.all(scores > 0)
        assert np.all(scores < 1)

    def test_linear_map_cannot_rank_xor(self):
        (x_train, z_train), (x_test, z_test) = generate_xor(2000, seed=9), generate_xor(2000, seed=509)
        scorer = fit_logistic(x_train, z_train, feature_map="linear")
        held_out = auc(scorer(x_test), z_test)
        assert 0.45 <= held_out <= 0.6

    def test_quadratic_map_separates_xor(self):
        (x_train, z_train), (x_test, z_test) = generate_xor(2000, seed=9), generate_xor(2000, seed=509)
        scorer = fit_logistic(x_train, z_train, feature_map="quadratic")
        held_out = auc(scorer(x_test), z_test)
        assert held_out >= 0.97

    def test_ridge_keeps_separable_fit_finite(self):
        features = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        scores = fit_logistic(features, np.array([0, 0, 1, 1]))(features)
        assert np.all((scores > 0) & (scores < 1))  # a finite slope: no score rounds to 0 or 1

    def test_one_feature_row_gives_one_score(self):
        features, labels = generate_xor(200, seed=4)
        scorer = fit_logistic(features, labels, feature_map="quadratic")
        single = scorer(features[0])
        assert single.shape == (1,)
        assert single[0] == scorer(features[:1])[0]

    def test_rejects_unknown_feature_map(self):
        features, labels = generate_xor(100, seed=0)
        with pytest.raises(ValueError, match="feature_map"):
            fit_logistic(features, labels, feature_map="cubic")

    def test_deterministic(self):
        features, labels = generate_xor(300, seed=6)
        assert np.array_equal(fit_logistic(features, labels)(features), fit_logistic(features, labels)(features))
