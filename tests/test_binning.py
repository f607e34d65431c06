import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import frequency_edges_by_loop, nearest_nonempty_by_loop, plug_in_estimate
from probcal.base import NotFittedError
from probcal.binning import HistogramCalibrator, _nearest_nonempty, default_bin_count


def fit_hist(scores, labels, **kwargs):
    return HistogramCalibrator(**kwargs).fit(np.asarray(scores), np.asarray(labels))


class TestDefaultBinCount:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 1), (8, 2), (27, 3), (100, 5), (1000, 10), (10_000, 22), (100_000, 46)],
    )
    def test_cube_root_rule(self, n, expected):
        assert default_bin_count(n) == expected

    def test_clamped_to_sample_count(self):
        # round(4^(1/3)) = 2 <= 4, but tiny n can't exceed n
        assert default_bin_count(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_bin_count(0)


class TestEqualFrequencyFit:
    def test_six_point_worked_example(self):
        # sorted halves {.1,.2,.3} and {.4,.5,.6}: one positive then two
        model = fit_hist([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0, 0, 1, 0, 1, 1], n_bins=2)
        assert model.edges_.tolist() == [0.0, pytest.approx(0.35), 1.0]
        assert model.theta_.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
        assert model.counts_.tolist() == [3, 3]
        # the interior edge belongs to the bin on its right
        assert model.predict([0.35])[0] == pytest.approx(2 / 3)
        assert model.predict([0.3499])[0] == pytest.approx(1 / 3)

    def test_default_bin_count_used_when_unset(self):
        rng = np.random.default_rng(0)
        scores = rng.random(1000)
        labels = rng.integers(0, 2, 1000)
        model = fit_hist(scores, labels)
        assert model.n_bins_ == 10

    def test_queries_at_domain_ends(self):
        model = fit_hist([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1], n_bins=2)
        assert model.predict([0.0])[0] == 0.0
        assert model.predict([1.0])[0] == 1.0

    def test_vector_and_scalar_queries(self):
        model = fit_hist([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1], n_bins=2)
        out = model.predict(np.array([0.1, 0.9]))
        assert out.shape == (2,) and out.dtype == np.float64
        with pytest.raises(ValueError, match=r"must be one-dimensional, got shape \(\)"):
            model.predict(0.1)

    def test_tied_scores_collapse_edges(self):
        # all scores identical: no interior midpoint survives, one bin remains
        model = fit_hist([0.5] * 6, [0, 1, 0, 1, 1, 1], n_bins=3)
        assert model.n_bins_ == 1
        assert model.counts_.tolist() == [6]
        assert model.predict([0.5])[0] == pytest.approx(4 / 6)

    def test_partial_tie_collapse_keeps_stats_consistent(self):
        # ties span the first tentative boundary; the surviving edges still
        # classify every training score consistently with counts_
        scores = np.array([0.3, 0.3, 0.3, 0.3, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1, 1, 1])
        model = fit_hist(scores, labels, n_bins=3)
        assert model.counts_.sum() == 6
        # stats describe the final edge assignment
        idx = np.clip(np.searchsorted(model.edges_, scores, side="right") - 1, 0, model.n_bins_ - 1)
        for j in range(model.n_bins_):
            assert model.counts_[j] == np.sum(idx == j)
            if model.counts_[j]:
                assert model.theta_[j] == pytest.approx(labels[idx == j].mean())

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        b=st.integers(min_value=1, max_value=20),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_distinct_scores_give_balanced_bins(self, n, b, seed):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(np.linspace(0.01, 0.99, n))  # all distinct
        labels = rng.integers(0, 2, n)
        b = min(b, n)
        model = fit_hist(scores, labels, n_bins=b)
        assert model.n_bins_ == b
        counts = model.counts_
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100),
        b=st.integers(min_value=1, max_value=12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_predictions_are_probabilities(self, n, b, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 10, n) / 10.0  # heavy ties on purpose
        labels = rng.integers(0, 2, n)
        model = fit_hist(scores, labels, n_bins=min(b, n))
        out = model.predict(rng.random(50))
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert not np.any(np.isnan(out))


# scores at the ends of [0, 1] and next to them, where a midpoint can round onto an end
EXTREME_SCORES = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]


@st.composite
def tied_scores_and_bin_count(draw):
    """Scores drawn from a few values, so ties span group boundaries, and a B in [1, N]."""
    values = st.sampled_from(EXTREME_SCORES) | st.floats(0.0, 1.0)
    pool = draw(st.lists(values, min_size=1, max_size=6))
    scores = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return np.array(scores), draw(st.integers(1, len(scores)))


class TestAgainstLoopReferences:
    """The array-op edges and empty-bin redirects equal the loops they replaced, bit for bit."""

    @given(tied_scores_and_bin_count())
    @settings(max_examples=400, deadline=None)
    def test_frequency_edges_and_fill(self, case):
        scores, n_bins = case
        model = fit_hist(scores, np.arange(scores.size) % 2, n_bins=n_bins)
        assert model.edges_.tobytes() == frequency_edges_by_loop(scores, n_bins).tobytes()
        assert model.values_.tobytes() == model.theta_[nearest_nonempty_by_loop(model.counts_)].tobytes()

    @given(tied_scores_and_bin_count())
    @settings(max_examples=200, deadline=None)
    def test_width_fill_with_bins_left_empty(self, case):
        scores, n_bins = case
        model = fit_hist(scores, np.arange(scores.size) % 2, n_bins=n_bins, scheme="width")
        assert model.values_.tobytes() == model.theta_[nearest_nonempty_by_loop(model.counts_)].tobytes()

    @given(st.lists(st.sampled_from([0, 0, 0, 1, 5]), min_size=1, max_size=40).filter(any))
    @settings(max_examples=300, deadline=None)
    def test_nearest_nonempty(self, counts):
        counts = np.array(counts)
        assert _nearest_nonempty(counts).tobytes() == nearest_nonempty_by_loop(counts).tobytes()

    def test_midpoints_at_the_ends(self):
        # 0.5 * (0 + 5e-324) rounds to 0 and 0.5 * ((1 - 2**-53) + 1) to 1: neither adds an edge
        for scores in ([0.0, 5e-324], [1.0 - 2.0**-53, 1.0], [0.0, 5e-324, 1.0 - 2.0**-53, 1.0]):
            scores = np.array(scores)
            model = fit_hist(scores, np.arange(scores.size) % 2, n_bins=scores.size)
            assert model.edges_.tolist() == frequency_edges_by_loop(scores, scores.size).tolist()
        assert model.edges_.size == 3  # only the middle boundary of the last case adds an edge

    def test_all_empty_is_rejected(self):
        with pytest.raises(ValueError, match="all bins are empty"):
            _nearest_nonempty(np.zeros(3, dtype=np.int64))


class TestEqualWidthFit:
    def test_edges_are_uniform(self):
        model = fit_hist([0.1, 0.3, 0.6, 0.9], [0, 0, 1, 1], n_bins=4, scheme="width")
        assert np.allclose(model.edges_, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_empty_bin_takes_nearest_value(self):
        # bins 1 and 2 empty; bin 1 is nearer to bin 0, bin 2 nearer to bin 3
        model = fit_hist([0.05, 0.1, 0.9, 0.95], [0, 0, 1, 1], n_bins=4, scheme="width")
        assert model.counts_.tolist() == [2, 0, 0, 2]
        assert model.predict([0.3])[0] == 0.0  # nearest nonempty is bin 0
        assert model.predict([0.6])[0] == 1.0  # nearest nonempty is bin 3

    def test_equidistant_empty_bin_prefers_lower(self):
        model = fit_hist([0.1, 0.2, 0.9], [0, 0, 1], n_bins=3, scheme="width")
        assert model.counts_.tolist() == [2, 0, 1]
        # middle bin sits one step from both neighbours; lower wins
        assert model.predict([0.5])[0] == 0.0

    def test_scores_at_one_fall_in_last_bin(self):
        model = fit_hist([0.2, 1.0], [0, 1], n_bins=2, scheme="width")
        assert model.counts_.tolist() == [1, 1]
        assert model.predict([1.0])[0] == 1.0


class TestValidationAndState:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            HistogramCalibrator().predict([0.5])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            HistogramCalibrator(n_bins=3).fit([], [])

    def test_rejects_too_many_bins(self):
        with pytest.raises(ValueError, match="n_bins"):
            fit_hist([0.1, 0.9], [0, 1], n_bins=3)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            fit_hist([0.1, 0.9], [0, 1], scheme="quantile")

    def test_rejects_fractional_bin_count(self):
        scores, labels = [0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1]
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            fit_hist(scores, labels, n_bins=2.7)
        assert fit_hist(scores, labels, n_bins=np.int64(2)).n_bins_ == 2

    def test_rejects_query_outside_unit_interval(self):
        model = fit_hist([0.1, 0.9], [0, 1], n_bins=1)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            model.predict([1.5])

    def test_fit_returns_self(self):
        model = HistogramCalibrator(n_bins=1)
        assert model.fit(np.array([0.5]), np.array([1])) is model


class TestPlugInIdentity:
    def test_worked_example_matches_predict(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        labels = np.array([0, 0, 1, 0, 1, 1])
        model = fit_hist(scores, labels, n_bins=2)
        for q in (0.0, 0.2, 0.35, 0.5, 1.0):
            assert np.array_equal(plug_in_estimate(scores, labels, model, [q]), model.predict([q]))

    def test_exact_equality_on_grid(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        model = fit_hist(scores, labels)
        grid = np.linspace(0.0, 1.0, 101)
        direct = model.predict(grid)
        routed = plug_in_estimate(scores, labels, model, grid)
        assert np.array_equal(direct, routed)  # bitwise, not approximate

    def test_empty_bin_redirect_matches(self):
        scores = np.array([0.05, 0.1, 0.9, 0.95])
        labels = np.array([0, 0, 1, 1])
        model = fit_hist(scores, labels, n_bins=4, scheme="width")
        for q in (0.3, 0.6):
            assert np.array_equal(plug_in_estimate(scores, labels, model, [q]), model.predict([q]))

    def test_requires_both_classes(self):
        scores = np.array([0.2, 0.8])
        labels = np.array([1, 1])
        model = fit_hist(scores, labels, n_bins=1)
        with pytest.raises(ValueError, match="both classes"):
            plug_in_estimate(scores, labels, model, [0.5])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        seed=st.integers(0, 2**31 - 1),
        scheme=st.sampled_from(["frequency", "width"]),
    )
    def test_identity_holds_for_random_data(self, n, seed, scheme):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 20, n) / 20.0  # ties likely
        labels = rng.integers(0, 2, n)
        labels[0] = 0
        labels[-1] = 1
        model = fit_hist(scores, labels, scheme=scheme)
        grid = rng.random(11)
        assert np.array_equal(model.predict(grid), plug_in_estimate(scores, labels, model, grid))
