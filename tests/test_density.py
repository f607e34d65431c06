import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import t as student_t

from oracles import (
    dpm_sweeps_row_major,
    dpm_sweeps_with_temporaries,
    expected_weights_by_loop,
    nadaraya_watson_direct,
    student_t_density_direct,
)
import probcal.density
from probcal.base import NotFittedError
from probcal.density import (
    DPMCalibrator,
    KDECalibrator,
    StickBreakingPosterior,
    silverman_bandwidth,
)


def kde_from_parts(positives, negatives, h, prior):
    return KDECalibrator.from_dict(
        {
            "method": "kde",
            "form": "bayes",
            "positives": list(positives),
            "negatives": list(negatives),
            "h0": h,
            "h1": h,
            "prior": prior,
        }
    )


class TestSilvermanBandwidth:
    def test_large_sample_formula_value(self):
        # pattern engineered so the ddof-1 standard deviation is 0.25
        pattern = np.tile([-1.0, 1.0], 500)
        scores = 0.5 + 0.25 * np.sqrt(999 / 1000) * pattern
        h = silverman_bandwidth(scores)
        assert h == pytest.approx(1.06 * 0.25 * 1000 ** (-0.2), rel=1e-12)
        assert h == pytest.approx(0.06657, abs=1e-5)

    def test_two_point_value(self):
        assert silverman_bandwidth([0.5, 0.6]) == pytest.approx(0.0652, abs=1e-4)

    def test_identical_scores_hit_floor(self):
        assert silverman_bandwidth([0.4, 0.4, 0.4]) == 1e-3

    def test_scales_linearly_with_the_data(self):
        base = silverman_bandwidth([0.1, 0.2, 0.4])
        scaled = silverman_bandwidth([0.05, 0.1, 0.2])
        assert scaled == pytest.approx(0.5 * base, rel=1e-12)

    def test_rejects_single_score(self):
        with pytest.raises(ValueError):
            silverman_bandwidth([0.5])

    def test_rejects_two_dimensional_scores(self):
        with pytest.raises(ValueError, match="scores must be one-dimensional"):
            silverman_bandwidth([[0.1, 0.2], [0.3, 0.4]])


class TestKDEFit:
    def test_per_class_bandwidths(self):
        scores = np.array([0.5, 0.6, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        model = KDECalibrator().fit(scores, labels)
        assert model.bandwidth_pos_ == pytest.approx(0.0652, abs=1e-4)
        assert model.bandwidth_neg_ == pytest.approx(0.0652, abs=1e-4)
        assert model.prior_ == 0.5

    def test_shared_bandwidth_pools_all_scores(self):
        scores = np.array([0.5, 0.6, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        model = KDECalibrator(shared_bandwidth=True).fit(scores, labels)
        assert model.bandwidth_pos_ == model.bandwidth_neg_
        assert model.bandwidth_pos_ == pytest.approx(silverman_bandwidth(scores))

    def test_prior_tracks_class_balance(self):
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9, 0.7])
        labels = np.array([0, 0, 1, 1, 1, 1])
        model = KDECalibrator().fit(scores, labels)
        assert model.prior_ == pytest.approx(4 / 6)

    def test_rejects_small_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            KDECalibrator().fit(np.array([0.1, 0.5, 0.9]), np.array([0, 1, 1]))

    def test_rejects_unknown_form(self):
        payload = KDECalibrator().fit(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])).to_dict()
        assert payload["form"] == "bayes"
        with pytest.raises(ValueError, match="form"):
            KDECalibrator.from_dict({**payload, "form": "prefactor"})

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KDECalibrator().predict([0.5])


class TestKDEPredict:
    def test_window_covering_only_positives(self):
        model = kde_from_parts([0.5, 0.55, 0.6, 0.65], [0.05, 0.1], 0.2, prior=2 / 3)
        assert model.predict([0.55])[0] == 1.0

    def test_window_edges_count_inclusively(self):
        # 0.5 sits at 0.3 + h and 0.1 at 0.3 - h; both contribute 0.5
        model = kde_from_parts([0.5, 0.55, 0.6, 0.65], [0.05, 0.1], 0.2, prior=2 / 3)
        assert model.predict([0.3])[0] == 0.5

    def test_empty_window_returns_prior(self):
        model = kde_from_parts([0.5, 0.55, 0.6, 0.65], [0.05, 0.1], 0.2, prior=2 / 3)
        assert model.predict([0.95])[0] == pytest.approx(2 / 3)

    def test_shared_bandwidth_equals_nadaraya_watson(self):
        rng = np.random.default_rng(0)
        scores = rng.random(80)
        labels = (rng.random(80) < scores).astype(int)
        labels[:2], labels[-2:] = [0, 0], [1, 1]
        model = KDECalibrator(shared_bandwidth=True).fit(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        h = model.bandwidth_pos_
        for q in rng.random(25):
            expected = nadaraya_watson_direct(pos, neg, q, h)
            assert model.predict([q])[0] == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_dataset_duplication(self):
        pos = [0.4, 0.55, 0.7]
        neg = [0.2, 0.35]
        single = kde_from_parts(pos, neg, 0.15, prior=0.6)
        doubled = kde_from_parts(pos * 2, neg * 2, 0.15, prior=0.6)
        grid = np.linspace(0, 1, 41)
        assert np.allclose(single.predict(grid), doubled.predict(grid), atol=1e-15)

    def test_implied_class_density_integrates_to_one(self):
        pos = [0.3, 0.5, 0.52]
        h = 0.12
        model = kde_from_parts(pos, [0.1, 0.2], h, prior=0.6)

        def density(x):
            total = sum(0.5 if abs(x - c) <= h else 0.0 for c in pos)
            return total / (len(pos) * h)

        knots = sorted({c + s * h for c in pos for s in (-1, 1)})
        value, _ = quad(density, -0.5, 1.5, points=knots, limit=200)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_out_of_range_query(self):
        model = kde_from_parts([0.5, 0.55, 0.6, 0.65], [0.05, 0.1], 0.2, prior=2 / 3)
        with pytest.raises(ValueError):
            model.predict(-0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        shared=st.booleans(),
    )
    def test_outputs_are_probabilities(self, seed, shared):
        rng = np.random.default_rng(seed)
        scores = rng.random(60)
        labels = rng.integers(0, 2, 60)
        labels[:2], labels[-2:] = [0, 0], [1, 1]
        model = KDECalibrator(shared_bandwidth=shared).fit(scores, labels)
        out = model.predict(rng.random(40))
        assert np.all((out >= 0) & (out <= 1))
        assert not np.any(np.isnan(out))

    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = (rng.random(50) < scores).astype(int)
        labels[:2], labels[-2:] = [0, 0], [1, 1]
        model = KDECalibrator().fit(scores, labels)
        clone = KDECalibrator.from_dict(model.to_dict())
        grid = np.linspace(0, 1, 31)
        assert np.array_equal(model.predict(grid), clone.predict(grid))


def two_cluster_data(seed=0, n=150, pos_center=0.8, neg_center=0.2, sd=0.05):
    rng = np.random.default_rng(seed)
    pos = np.clip(rng.normal(pos_center, sd, n), 0, 1)
    neg = np.clip(rng.normal(neg_center, sd, n), 0, 1)
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    return scores, labels


class TestBlockedKDEPredict:
    """``predict`` works through the queries a block at a time; the bits are those of one pass."""

    @staticmethod
    def whole_array(model, queries):
        s_pos = KDECalibrator._kernel_sum(model.positives_, queries, model.bandwidth_pos_)
        s_neg = KDECalibrator._kernel_sum(model.negatives_, queries, model.bandwidth_neg_)
        return probcal.density._posterior_ratio(
            model.bandwidth_neg_ * s_pos, model.bandwidth_pos_ * s_neg, model.prior_
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.sampled_from([0, 1, 2, 63, 64, 65, 200]),
        shared=st.booleans(),
        block=st.sampled_from([1, 3, 64]),
    )
    def test_equals_the_whole_array_kernel_sums(self, seed, n_queries, shared, block):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 40, 120) / 39  # ties and queries on window edges
        labels = (rng.random(120) < scores).astype(int)
        labels[:2], labels[-2:] = 0, 1
        model = KDECalibrator(shared_bandwidth=shared).fit(scores, labels)
        queries = np.concatenate([rng.integers(0, 40, n_queries) / 39, rng.random(n_queries)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.density, "_BLOCK_QUERIES", block)
            blocked = model.predict(queries)
        assert np.array_equal(blocked, self.whole_array(model, queries))
        assert np.array_equal(model.predict(queries), blocked)

    def test_scalar_query_through_one_block(self, monkeypatch):
        model = kde_from_parts([0.2, 0.3], [0.7, 0.8], 0.2, 0.5)
        monkeypatch.setattr(probcal.density, "_BLOCK_QUERIES", 1)
        assert model.predict([0.25])[0] == 1.0


class TestDPM:
    def test_deterministic_given_seed(self):
        scores, labels = two_cluster_data()
        a = DPMCalibrator(seed=3).fit(scores, labels)
        b = DPMCalibrator(seed=3).fit(scores, labels)
        grid = np.linspace(0, 1, 21)
        assert np.array_equal(a.predict(grid), b.predict(grid))
        assert a.positive_.elbo == b.positive_.elbo

    def test_different_seeds_may_differ_but_stay_valid(self):
        scores, labels = two_cluster_data()
        a = DPMCalibrator(seed=1).fit(scores, labels)
        out = a.predict(np.linspace(0, 1, 21))
        assert np.all((out >= 0) & (out <= 1))

    def test_elbo_history_is_non_decreasing(self):
        scores, labels = two_cluster_data(seed=5)
        model = DPMCalibrator(seed=0).fit(scores, labels)
        for posterior in (model.positive_, model.negative_):
            history = np.asarray(posterior.elbo_history)
            assert history.size >= 2
            assert np.all(np.diff(history) >= -1e-8)
            assert posterior.elbo == history[-1]

    def test_posterior_predictive_integrates_to_one(self):
        scores, labels = two_cluster_data(seed=2, n=80)
        model = DPMCalibrator(seed=0).fit(scores, labels)
        for posterior in (model.positive_, model.negative_):
            value, _ = quad(lambda x: float(posterior.density(np.array([x]))[0]), -np.inf, np.inf, limit=400)
            assert value == pytest.approx(1.0, abs=1e-3)

    def test_tight_cluster_predictive_mean_matches_sample_mean(self):
        rng = np.random.default_rng(7)
        pos = np.clip(rng.normal(0.8, 0.01, 100), 0, 1)
        neg = np.clip(rng.normal(0.2, 0.01, 100), 0, 1)
        scores = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(100, dtype=int), np.zeros(100, dtype=int)])
        model = DPMCalibrator(seed=0).fit(scores, labels)
        weights = model.positive_.expected_weights()
        locs = model.positive_.components[:, 0]
        predictive_mean = float(weights @ locs)
        assert predictive_mean == pytest.approx(pos.mean(), abs=0.02)

    def test_well_separated_classes_confident_at_the_modes(self):
        scores, labels = two_cluster_data(seed=4, pos_center=0.9, neg_center=0.1)
        model = DPMCalibrator(seed=0).fit(scores, labels)
        assert model.predict([0.9])[0] >= 0.95
        assert model.predict([0.1])[0] <= 0.05

    def test_identical_class_posteriors_give_half(self):
        scores, labels = two_cluster_data(seed=6)
        fitted = DPMCalibrator(seed=0).fit(scores, labels)
        payload = fitted.to_dict()
        payload["negative"] = payload["positive"]
        payload["prior"] = 0.5
        model = DPMCalibrator.from_dict(payload)
        out = model.predict(np.linspace(0, 1, 11))
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_double_underflow_returns_prior(self):
        scores, labels = two_cluster_data(seed=8)
        fitted = DPMCalibrator(truncation=2, seed=0).fit(scores, labels)
        payload = fitted.to_dict()
        # push both classes' components absurdly far away so every Student-t
        # tail underflows at any in-range query
        for part in ("positive", "negative"):
            payload[part] = {
                "sticks": payload[part]["sticks"],
                "components": [[1e200, row[1], row[2], 1e-12] for row in payload[part]["components"]],
                "elbo": payload[part]["elbo"],
            }
        payload["prior"] = 0.6
        model = DPMCalibrator.from_dict(payload)
        with np.errstate(over="ignore"):
            assert model.predict([0.5])[0] == pytest.approx(0.6)

    def test_student_t_components_match_direct_formula(self):
        scores, labels = two_cluster_data(seed=9, n=60)
        model = DPMCalibrator(truncation=5, seed=0).fit(scores, labels)
        posterior = model.positive_
        weights = posterior.expected_weights()
        for q in (0.3, 0.55, 0.8):
            direct = 0.0
            for w, (mean, kappa, shape, rate) in zip(weights, posterior.components):
                df = 2.0 * shape
                scale = np.sqrt(rate * (kappa + 1.0) / (shape * kappa))
                direct += w * student_t_density_direct(q, df, mean, scale)
            assert posterior.density(np.array([q]))[0] == pytest.approx(direct, rel=1e-10)

    def test_density_matches_scipy_student_t(self):
        # the normaliser's log-gamma difference is math.lgamma's, not the bits of scipy's poch
        scores, labels = two_cluster_data(seed=9, n=200)
        posterior = DPMCalibrator(truncation=20, seed=0).fit(scores, labels).positive_
        mean, kappa, shape, rate = posterior.components.T
        scale = np.sqrt(rate * (kappa + 1.0) / (shape * kappa))
        grid = np.linspace(0.0, 1.0, 20001)
        expected = student_t.pdf(grid[:, None], 2.0 * shape, loc=mean, scale=scale)
        np.testing.assert_allclose(posterior.density(grid), expected @ posterior.expected_weights(), rtol=1e-12)

    def test_expected_weights_form_a_distribution(self):
        scores, labels = two_cluster_data(seed=10)
        model = DPMCalibrator(seed=0).fit(scores, labels)
        weights = model.positive_.expected_weights()
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        sticks=st.lists(
            st.tuples(
                st.floats(1e-3, 1e6, allow_subnormal=False),
                st.floats(1e-3, 1e6, allow_subnormal=False),
            ),
            max_size=40,
        )
    )
    def test_expected_weights_equal_the_stick_loop_bitwise(self, sticks):
        # max_size=0 covers truncation 1: no sticks, one component
        sticks = np.array(sticks, dtype=np.float64).reshape(-1, 2)
        components = np.ones((sticks.shape[0] + 1, 4))
        posterior = StickBreakingPosterior(sticks=sticks, components=components, elbo=0.0)
        weights = posterior.expected_weights()
        assert weights.tobytes() == expected_weights_by_loop(sticks).tobytes()

    def test_truncation_may_not_exceed_the_smaller_class(self):
        scores, labels = two_cluster_data(n=30)
        scores, labels = scores[:50], labels[:50]  # 30 positive, 20 negative
        with pytest.raises(ValueError, match="truncation must not exceed the smaller class size, "
                                            "got 21 for 30 positive / 20 negative"):
            DPMCalibrator(truncation=21, max_iter=2).fit(scores, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = DPMCalibrator(truncation=20, max_iter=2).fit(scores, labels)
        assert model.negative_.components.shape == (20, 4)

    def test_rejects_bad_hyperparameters(self):
        scores, labels = two_cluster_data()
        with pytest.raises(ValueError, match="truncation"):
            DPMCalibrator(truncation=0).fit(scores, labels)
        with pytest.raises(ValueError, match="alpha"):
            DPMCalibrator(alpha=0.0).fit(scores, labels)
        with pytest.raises(ValueError, match="max_iter"):
            DPMCalibrator(max_iter=0).fit(scores, labels)
        for tol in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                DPMCalibrator(tol=tol).fit(scores, labels)

    # also finite values the sweep cannot carry: below the range 1 / alpha overflows in the
    # digamma, above it the log-gamma of the stick sums overflows
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, 0.0, 5e-324, 1e-301, 1e301, 1e306])
    def test_rejects_non_finite_or_negative_alpha(self, alpha):
        scores, labels = two_cluster_data()
        with pytest.raises(ValueError, match=r"alpha must lie in \[1e-300, 1e300\], got"):
            DPMCalibrator(alpha=alpha).fit(scores, labels)

    @pytest.mark.parametrize("alpha", [1e-300, 1e200, 1e300])
    def test_alpha_at_and_inside_the_range_ends_fits_without_warning(self, alpha):
        scores, labels = two_cluster_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow, and the fit converges
            model = DPMCalibrator(alpha=alpha, truncation=3).fit(scores, labels)
        assert np.all(np.isfinite(model.predict(np.linspace(0.0, 1.0, 11))))

    def test_warns_per_class_when_iteration_budget_too_small(self):
        scores, labels = two_cluster_data()
        with pytest.warns(RuntimeWarning) as record:
            DPMCalibrator(max_iter=2).fit(scores, labels)
        messages = [str(w.message) for w in record]
        assert len(messages) == 2
        for name, message in zip(("positive", "negative"), messages):
            assert message.startswith(f"dpm fit of the {name} class stopped after 2 iterations")
            assert "ELBO change" in message and "(tol 1.0e-06)" in message

    def test_one_sweep_measures_no_elbo_change(self):
        scores, labels = two_cluster_data()
        with pytest.warns(RuntimeWarning) as record:
            DPMCalibrator(max_iter=1).fit(scores, labels)
        assert [str(w.message) for w in record] == [
            f"dpm fit of the {name} class stopped after 1 iterations with no ELBO change measured (tol 1.0e-06)"
            for name in ("positive", "negative")
        ]

    def test_converged_fit_does_not_warn(self):
        scores, labels = two_cluster_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = DPMCalibrator().fit(scores, labels)
        assert model.positive_.converged and model.negative_.converged

    def test_rejects_small_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            DPMCalibrator().fit(np.array([0.2, 0.4, 0.9]), np.array([0, 0, 1]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DPMCalibrator().predict([0.5])

    def test_round_trip_preserves_predictions(self):
        scores, labels = two_cluster_data(seed=11, n=60)
        model = DPMCalibrator(truncation=8, seed=0).fit(scores, labels)
        clone = DPMCalibrator.from_dict(model.to_dict())
        grid = np.linspace(0, 1, 21)
        assert np.allclose(model.predict(grid), clone.predict(grid), atol=1e-15)

    def test_truncation_one_is_a_single_student_t(self):
        scores, labels = two_cluster_data(seed=12, n=40)
        model = DPMCalibrator(truncation=1, seed=0).fit(scores, labels)
        assert model.positive_.components.shape == (1, 4)
        assert model.positive_.expected_weights().tolist() == [1.0]
        out = model.predict(np.linspace(0, 1, 11))
        assert np.all((out >= 0) & (out <= 1))


def same_posterior(a: StickBreakingPosterior, b: StickBreakingPosterior) -> bool:
    return (
        a.sticks.tobytes() == b.sticks.tobytes()
        and a.components.tobytes() == b.components.tobytes()
        and np.array(a.elbo_history).tobytes() == np.array(b.elbo_history).tobytes()
        and (a.n_iter, a.converged) == (b.n_iter, b.converged)
    )


def class_sample(seed, truncation, kind, size):
    """One class's scores for the sweep tests: uniform, tied, constant, or as many as the truncation."""
    rng = np.random.default_rng(seed)
    n = max(truncation, 2) if kind == "size is truncation" else max(truncation, size)
    if kind == "constant":  # zero sample variance: b0 takes its floor
        x = np.full(n, rng.integers(0, 11) / 10)
    elif kind == "tied":
        x = rng.integers(0, 5, n) / 4
    else:
        x = rng.random(n)
    return x, float(rng.choice([0.5, 1.0, 3.0]))


SWEEP_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    truncation=st.sampled_from([1, 2, 5, 20]),
    kind=st.sampled_from(["uniform", "tied", "constant", "size is truncation"]),
    size=st.integers(2, 400),
    max_iter=st.sampled_from([1, 2, 60]),
)


class TestDPMAgainstTheRowMajorSweep:
    """The component-major sweep with its log-sum-exp ELBO is the row-major sweep with an
    explicit entropy, up to rounding."""

    @settings(max_examples=80, deadline=None)
    @given(**SWEEP_CASES)
    def test_both_oracles_give_the_same_fit_within_rounding(self, seed, truncation, kind, size, max_iter):
        # Over 3000 draws of these cases the largest relative differences were 1e-10 in the
        # components, 5e-12 in the sticks and 5e-12 in the ELBO history. A constant class's
        # scatter cancels to rounding noise next to b0's 1e-6 floor, so its rate differs by up
        # to 1.6e-6 there, its sticks by 4e-8 and its ELBO by 2e-7.
        x, alpha = class_sample(seed, truncation, kind, size)
        args = (x, truncation, alpha, max_iter, -np.inf)  # no early stop: both run max_iter sweeps
        new = dpm_sweeps_with_temporaries(*args, np.random.default_rng(seed))
        old = dpm_sweeps_row_major(*args, np.random.default_rng(seed))
        rtol = 1e-5 if kind == "constant" else 1e-9
        assert (new.n_iter, len(new.elbo_history)) == (old.n_iter, len(old.elbo_history)) == (max_iter,) * 2
        for part in ("components", "sticks", "elbo_history"):
            np.testing.assert_allclose(getattr(new, part), getattr(old, part), rtol=rtol, atol=0, err_msg=part)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        truncation=st.sampled_from([1, 2, 5, 20]),
        n=st.integers(1, 300),
        spread=st.sampled_from([1e-6, 1.0, 40.0, 1e3]),
        offset=st.sampled_from([0.0, -50.0, 1e4]),
    )
    def test_log_sum_exp_is_data_term_plus_entropy(self, seed, truncation, n, spread, offset):
        log_lik = offset + spread * np.random.default_rng(seed).standard_normal((truncation, n))
        row_max = log_lik.max(axis=0)
        phi = np.exp(log_lik - row_max)
        row_sum = phi.sum(axis=0)
        phi /= row_sum
        log_sum_exp = float(np.sum(row_max + np.log(row_sum)))
        data_term = float(np.sum(phi * log_lik))
        entropy = -float(np.sum(phi * np.log(np.maximum(phi, 1e-300))))  # the floor: 0 log 0 = 0
        scale = float(np.sum(np.abs(phi * log_lik))) + n  # what the rounding of both sums grows with
        assert log_sum_exp == pytest.approx(data_term + entropy, rel=0, abs=1e-13 * scale)


class TestDPMSameBits:
    """The buffered sweep and the two-process fit give the bits of the fresh-array serial fit."""

    @settings(max_examples=80, deadline=None)
    @given(**SWEEP_CASES, tol=st.sampled_from([1e-6, 1e-2]))
    def test_sweep_equals_the_fresh_array_sweep(self, seed, truncation, kind, size, max_iter, tol):
        x, alpha = class_sample(seed, truncation, kind, size)
        args = (x, truncation, alpha, max_iter, tol)
        fitted = probcal.density._fit_class_mixture(*args, np.random.default_rng(seed))
        assert same_posterior(fitted, dpm_sweeps_with_temporaries(*args, np.random.default_rng(seed)))

    @pytest.mark.parametrize("truncation", [1, 2, 5, 20])
    def test_sweep_equals_the_fresh_array_sweep_on_thousands_of_rows(self, truncation):
        x = np.random.default_rng(truncation).random(4000) ** 2
        args = (x, truncation, 1.0, 40, 1e-6)
        fitted = probcal.density._fit_class_mixture(*args, np.random.default_rng(1))
        assert same_posterior(fitted, dpm_sweeps_with_temporaries(*args, np.random.default_rng(1)))

    @pytest.mark.parametrize("truncation", [1, 2, 5, 20])
    def test_forked_fit_equals_the_unforked_fit_and_the_oracle(self, monkeypatch, truncation):
        scores, labels = two_cluster_data(seed=13, n=200)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())

        def fit():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return DPMCalibrator(truncation=truncation, max_iter=80, seed=5).fit(scores, labels)

        forked = fit()
        assert forks == [os.getpid()]
        monkeypatch.delattr(os, "fork")  # the fit then runs both classes in this process
        unforked = fit()
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(2)]
        for part, label, rng in zip(("positive_", "negative_"), (1, 0), streams):
            expected = dpm_sweeps_with_temporaries(scores[labels == label], truncation, 1.0, 80, 1e-6, rng)
            assert same_posterior(getattr(forked, part), expected)
            assert same_posterior(getattr(unforked, part), expected)

    @pytest.mark.parametrize("failing", [(1,), (0,), (1, 0)], ids=["positive", "negative", "both"])
    def test_a_failing_class_raises_as_the_serial_loop_did(self, monkeypatch, failing):
        scores, labels = two_cluster_data(n=40)
        scores, labels = scores[:70], labels[:70]  # 40 positive, 30 negative
        fit_class = probcal.density._fit_class_mixture

        def flaky(x, *args):
            label = int(x.size == 40)
            if label == 1:
                time.sleep(0.05)  # the negative class fails first when both fail
            if label in failing:
                raise RuntimeError(f"class {label} failed")
            return fit_class(x, *args)

        monkeypatch.setattr(probcal.density, "_fit_class_mixture", flaky)
        before = set(threading.enumerate())
        model = DPMCalibrator(truncation=2, max_iter=5)
        with pytest.raises(RuntimeError, match=rf"^class {failing[0]} failed$"):
            model.fit(scores, labels)
        assert set(threading.enumerate()) == before
        with pytest.raises(ChildProcessError):  # the forked child was reaped
            os.waitpid(-1, os.WNOHANG)
        assert model.positive_ is None and model.negative_ is None

    def test_a_failing_positive_class_stops_the_negative_fit(self, monkeypatch):
        # this process fits the positive class and the forked child the negative one: when the
        # positive fit fails at once, the child is killed, not waited for to the end of its fit
        scores, labels = two_cluster_data(n=40)
        scores, labels = scores[:70], labels[:70]  # 40 positive, 30 negative

        def flaky(x, *args):
            if x.size == 40:
                raise RuntimeError("positive class failed")
            time.sleep(10.0)  # a slow negative-class fit

        monkeypatch.setattr(probcal.density, "_fit_class_mixture", flaky)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="^positive class failed$"):
            DPMCalibrator(truncation=2, max_iter=5).fit(scores, labels)
        assert time.perf_counter() - start < 2.0
        with pytest.raises(ChildProcessError):  # the killed child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_truncation_type_is_checked_before_any_class_fit(self, monkeypatch):
        scores, labels = two_cluster_data()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = DPMCalibrator(truncation=np.int64(3), max_iter=2).fit(scores, labels)
        assert model.positive_.components.shape == (3, 4)

        def unreachable(*args):
            raise AssertionError("a class fit started")

        monkeypatch.setattr(probcal.density, "_fit_class_mixture", unreachable)
        for truncation in (2.5, np.float64(3.0), True, "3"):
            with pytest.raises(ValueError) as raised:
                DPMCalibrator(truncation=truncation).fit(scores, labels)
            assert str(raised.value) == f"truncation must be an integer, got {truncation!r}"
