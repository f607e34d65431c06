import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from oracles import (
    isotonic_by_exhaustion,
    isotonic_by_fractions,
    isotonic_full_breakpoints,
    pool_adjacent_violators_float,
    step_lookup,
)
from probcal.base import NotFittedError
import probcal.monotone
from probcal.density import DPMCalibrator
from probcal.metrics import auc
from probcal.monotone import IsotonicCalibrator, PlattCalibrator, pool_adjacent_violators
from probcal.serialize import dumps, load_model, save_model
from probcal.synth import fit_logistic, generate_xor


class TestPoolAdjacentViolators:
    """The float-weights PAV, now the reference in ``oracles``: every case it had in the library."""

    def test_alternating_binary_sequence(self):
        out = pool_adjacent_violators_float([0, 1, 0, 1])
        assert out.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_three_point_violation(self):
        out = pool_adjacent_violators_float([1, 3, 2])
        assert out.tolist() == [1.0, 2.5, 2.5]

    def test_already_monotone_is_unchanged(self):
        values = [0.1, 0.2, 0.2, 0.9]
        assert pool_adjacent_violators_float(values).tolist() == values

    def test_fully_decreasing_collapses_to_mean(self):
        out = pool_adjacent_violators_float([3, 2, 1])
        assert np.allclose(out, 2.0)

    def test_weights_shift_the_pooled_mean(self):
        out = pool_adjacent_violators_float([1.0, 0.0], weights=[3.0, 1.0])
        assert np.allclose(out, 0.75)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            pool_adjacent_violators_float([1.0, 2.0], weights=[1.0, 0.0])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="length"):
            pool_adjacent_violators_float([1.0, 2.0], weights=[1.0])

    def test_empty_input(self):
        assert pool_adjacent_violators_float([]).size == 0

    @settings(max_examples=80, deadline=None)
    @given(
        # dyadic grids keep candidate errors well separated, so the
        # exhaustive argmin is numerically unambiguous
        grid=st.lists(st.integers(-40, 40), min_size=1, max_size=9),
        use_weights=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_exhaustive_search(self, grid, use_weights, seed):
        values = np.array(grid) / 8.0
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 8, len(values)) / 4.0 if use_weights else None
        fast = pool_adjacent_violators_float(values, weights)
        slow = isotonic_by_exhaustion(values, weights)
        assert np.allclose(fast, slow, atol=1e-9)
        assert np.all(np.diff(fast) >= -1e-12)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40))
    def test_preserves_total_mass(self, values):
        # merging into weighted means never changes the (weighted) sum
        out = pool_adjacent_violators_float(values)
        assert np.sum(out) == pytest.approx(np.sum(values), abs=1e-9)


def _exact(positives, counts) -> np.ndarray:
    """The exact fit of each group, correctly rounded to float64."""
    return np.array([float(v) for v in isotonic_by_fractions(positives, counts)])


def _groups(draw_counts, draw_rates, seed):
    """Integer (positives, counts) of groups: ``draw_counts`` sizes, rates near ``draw_rates``."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(draw_counts, dtype=np.int64)
    rates = np.clip(np.asarray(draw_rates, dtype=np.float64), 0.0, 1.0)
    return rng.binomial(counts, rates).astype(np.int64), counts


group_lists = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=n, max_size=n),
        st.integers(0, 2**32 - 1),
    )
)


class TestExactPoolAdjacentViolators:
    """The exact fit of integer (positives, counts) by the convex minorant of their running sums."""

    def test_alternating_labels(self):
        out = pool_adjacent_violators([0, 1, 0, 1], [1, 1, 1, 1])
        assert out.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_counts_weight_the_pooled_rate(self):
        # rates 1, 0 with counts 3, 1 pool to 3/4
        assert pool_adjacent_violators([3, 0], [3, 1]).tolist() == [0.75, 0.75]

    def test_already_monotone_is_unchanged(self):
        assert pool_adjacent_violators([0, 1, 1, 3], [2, 4, 2, 3]).tolist() == [0.0, 0.25, 0.5, 1.0]

    def test_fully_decreasing_collapses_to_the_overall_rate(self):
        assert pool_adjacent_violators([3, 1, 0], [3, 3, 3]).tolist() == [4 / 9] * 3

    def test_each_value_is_one_correctly_rounded_quotient(self):
        # one positive among 49, then a negative: the float PAV sums (1/49)*49 = 0.9999999999999999
        positives, counts = [1, 0], [49, 1]
        assert pool_adjacent_violators(positives, counts).tolist() == [1 / 50, 1 / 50]
        assert pool_adjacent_violators_float([1 / 49, 0.0], [49.0, 1.0]).tolist() == [0.019999999999999997] * 2

    def test_empty_input(self):
        assert pool_adjacent_violators([], []).size == 0

    def test_one_group(self):
        assert pool_adjacent_violators([2], [7]).tolist() == [2 / 7]

    @pytest.mark.parametrize(
        "positives, counts",
        [
            ([0, 0], [1, 0]),  # an empty group
            ([1, -1], [1, 1]),  # negative positives
            ([2, 0], [1, 1]),  # more positives than labels
            ([1, 2], [1]),  # lengths differ
            ([[1]], [[1]]),  # not one-dimensional
            ([0.5, 1.0], [1, 1]),  # not integers
            ([0, 1], [1.0, 1.0]),
        ],
    )
    def test_rejects_bad_groups(self, positives, counts):
        with pytest.raises(ValueError, match=r"^need 1-D integer positives and counts of one length, 0 <= pos"):
            pool_adjacent_violators(positives, counts)

    def test_rejects_counts_whose_cross_products_overflow(self):
        with pytest.raises(ValueError, match="too large"):
            pool_adjacent_violators([0, 0], [2**31, 2**31])

    @settings(max_examples=80, deadline=None)
    @given(groups=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 5)), min_size=1, max_size=9))
    def test_matches_exhaustive_search(self, groups):
        counts = np.array([w for w, _ in groups])
        positives = np.array([min(k, w) for w, k in groups])
        fast = pool_adjacent_violators(positives, counts)
        slow = isotonic_by_exhaustion(positives / counts, counts)
        assert np.allclose(fast, slow, atol=1e-9)
        assert np.all(np.diff(fast) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(groups=group_lists, chunk=st.sampled_from([1, 2, 3, 1 << 14]))
    def test_is_the_exact_fit_at_every_chunk_size(self, groups, chunk):
        positives, counts = _groups(*groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.monotone, "_CHUNK_GROUPS", chunk)
            fast = pool_adjacent_violators(positives, counts)
        # the exact rational fit, rounded, so it sides with this fit wherever the float PAV differs
        assert np.array_equal(fast, _exact(positives, counts))
        reference = pool_adjacent_violators_float(positives / counts, counts)
        assert np.allclose(reference, fast, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_one_class_and_one_label(self, label, chunk, monkeypatch):
        monkeypatch.setattr(probcal.monotone, "_CHUNK_GROUPS", chunk)
        counts = np.array([1, 3, 2, 5, 1])
        assert pool_adjacent_violators(label * counts, counts).tolist() == [float(label)] * 5
        assert pool_adjacent_violators([label], [1]).tolist() == [float(label)]

    @settings(max_examples=100, deadline=None)
    @given(groups=group_lists, chunk=st.sampled_from([1, 2, 3, 1 << 14]))
    def test_round_cap_fallback_gives_the_same_fit(self, groups, chunk):
        positives, counts = _groups(*groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcal.monotone, "_CHUNK_GROUPS", chunk)
            rounds = pool_adjacent_violators(positives, counts)
            patch.setattr(probcal.monotone, "_MAX_ROUNDS", 0)
            stack = pool_adjacent_violators(positives, counts)
        assert np.array_equal(rounds, stack)

    def test_adversarial_input_falls_back_to_the_stack_loop(self):
        # rising rates j/300, then one large all-negative group: each round pools one more group
        counts = np.append(np.full(300, 300), 10**6)
        positives = np.append(np.arange(300), 0)
        rounds, w, k = 0, np.cumsum(np.append(0, counts)), np.cumsum(np.append(0, positives))
        while True:
            dw, dk = np.diff(w), np.diff(k)
            drop = dk[:-1] * dw[1:] >= dk[1:] * dw[:-1]
            if not drop.any():
                break
            keep = np.concatenate(([True], ~drop, [True]))
            rounds, w, k = rounds + 1, w[keep], k[keep]
        assert rounds > probcal.monotone._MAX_ROUNDS
        assert np.array_equal(pool_adjacent_violators(positives, counts), _exact(positives, counts))


class TestPlattCalibrator:
    def test_sigmoid_shape_at_known_parameters(self):
        model = PlattCalibrator()
        model.slope_, model.intercept_ = -4.0, 2.0
        # 1 / (1 + exp(-4 * 1 + 2)) = 1 / (1 + e^-2)
        assert model.predict(1.0) == pytest.approx(0.8807970779778823, abs=1e-12)
        assert model.predict(0.5) == pytest.approx(0.5)

    def test_fit_recovers_increasing_map(self):
        rng = np.random.default_rng(0)
        scores = rng.random(500)
        labels = (rng.random(500) < expit(6 * (scores - 0.5))).astype(int)
        model = PlattCalibrator().fit(scores, labels)
        assert model.converged_
        assert model.slope_ < 0  # negative slope makes the map increasing
        grid = np.linspace(0, 1, 9)
        assert np.all(np.diff(model.predict(grid)) > 0)

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        labels = (rng.random(200) < scores).astype(int)
        model = PlattCalibrator().fit(scores, labels)
        m = labels.sum()
        n_neg = len(labels) - m
        target = np.where(labels == 1, (m + 1.0) / (m + 2.0), 1.0 / (n_neg + 2.0))

        def nll(params):
            s = params[0] * scores + params[1]
            return np.sum(np.where(s >= 0, target * s, (target - 1) * s)) + np.sum(
                np.log1p(np.exp(-np.abs(s)))
            )

        reference = minimize(nll, x0=[0.0, 0.0], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
        assert model.slope_ == pytest.approx(reference.x[0], abs=1e-4)
        assert model.intercept_ == pytest.approx(reference.x[1], abs=1e-4)

    def test_smoothed_targets_keep_output_interior(self):
        # perfectly separated labels: raw ML would diverge, smoothing must not
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = PlattCalibrator().fit(scores, labels)
        out = model.predict(np.array([0.0, 0.5, 1.0]))
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_auc_is_preserved_exactly(self):
        rng = np.random.default_rng(2)
        scores = rng.random(300)
        labels = (rng.random(300) < scores).astype(int)
        model = PlattCalibrator().fit(scores, labels)
        assert auc(model.predict(scores), labels) == auc(scores, labels)

    def test_warns_when_iteration_budget_too_small(self):
        rng = np.random.default_rng(3)
        scores = rng.random(100)
        labels = (rng.random(100) < scores).astype(int)
        with pytest.warns(RuntimeWarning, match="gradient norm"):
            PlattCalibrator(max_iter=1).fit(scores, labels)

    def test_halved_steps_reach_the_optimum(self, monkeypatch):
        # one positive far above 99 tied negatives: the full Newton step overshoots,
        # so the line search halves it before the fit converges
        scores = np.r_[np.full(99, 0.001), 1.0]
        labels = np.r_[np.zeros(99, dtype=int), 1]
        newton, evaluations = probcal.monotone._newton, []

        def counting_newton(objective, *args, **kwargs):
            def counted(w):
                evaluations.append(w)
                return objective(w)

            return newton(counted, *args, **kwargs)

        monkeypatch.setattr(probcal.monotone, "_newton", counting_newton)
        model = PlattCalibrator().fit(scores, labels)
        # an undamped fit evaluates the start once and each of its n_iter_ - 1 steps twice
        assert model.converged_ and len(evaluations) > 1 + 2 * (model.n_iter_ - 1)
        target = np.where(labels == 1, 2.0 / 3.0, 1.0 / 101.0)

        def nll(params):
            s = params[0] * scores + params[1]
            return np.sum(np.where(s >= 0, target * s, (target - 1) * s)) + np.sum(np.log1p(np.exp(-np.abs(s))))

        reference = minimize(nll, x0=[0.0, 0.0], method="BFGS", options={"gtol": 1e-12})
        assert model.slope_ == pytest.approx(reference.x[0], abs=1e-6)
        assert model.intercept_ == pytest.approx(reference.x[1], abs=1e-6)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": 0}, "max_iter"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1e-8}, "tol"),
            ({"tol": math.nan}, "tol"),
            ({"tol": math.inf}, "tol"),
        ],
    )
    def test_rejects_bad_iteration_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PlattCalibrator(**kwargs).fit(np.array([0.1, 0.9]), np.array([0, 1]))

    def test_requires_both_classes(self):
        with pytest.raises(ValueError, match="both classes"):
            PlattCalibrator().fit(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            PlattCalibrator().predict(0.5)

    def test_refit_is_deterministic(self):
        rng = np.random.default_rng(4)
        scores = rng.random(150)
        labels = (rng.random(150) < scores).astype(int)
        a = PlattCalibrator().fit(scores, labels)
        b = PlattCalibrator().fit(scores, labels)
        assert a.slope_ == b.slope_
        assert a.intercept_ == b.intercept_


class TestIsotonicCalibrator:
    def test_step_function_lookup(self):
        model = IsotonicCalibrator().fit(
            np.array([0.1, 0.4, 0.7]), np.array([0, 1, 1])
        )
        assert model.predict(0.05) == 0.0  # below first breakpoint clamps down
        assert model.predict(0.1) == 0.0
        assert model.predict(0.55) == 1.0  # value of greatest breakpoint <= query
        assert model.predict(0.95) == 1.0

    def test_ties_pool_before_fitting(self):
        scores = np.array([0.5, 0.5, 0.2])
        labels = np.array([1, 0, 0])
        model = IsotonicCalibrator().fit(scores, labels)
        assert model.breakpoints_.tolist() == [0.2, 0.5]
        assert model.values_.tolist() == [0.0, 0.5]

    def test_values_non_decreasing(self):
        rng = np.random.default_rng(5)
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        model = IsotonicCalibrator().fit(scores, labels)
        assert np.all(np.diff(model.values_) >= 0)
        assert np.all((model.values_ >= 0) & (model.values_ <= 1))

    def test_discordant_pairs_never_become_concordant(self):
        # a discordant raw pair (pos scored below neg) maps to pos <= neg
        rng = np.random.default_rng(6)
        scores = rng.integers(0, 12, 150) / 12.0
        labels = rng.integers(0, 2, 150)
        model = IsotonicCalibrator().fit(scores, labels)
        out = model.predict(scores)
        pos = out[labels == 1][:, None]
        neg = out[labels == 0][None, :]
        discordant = scores[labels == 1][:, None] < scores[labels == 0][None, :]
        mapped_concordant = (pos > neg) & discordant
        assert not mapped_concordant.any()

    def test_no_pair_changes_orientation(self):
        # pooling may turn strict pairs into ties (which can move the
        # tie-aware AUC either way) but must never reverse a strict pair
        rng = np.random.default_rng(7)
        scores = rng.random(300)
        labels = (rng.random(300) < scores**2).astype(int)
        model = IsotonicCalibrator().fit(scores, labels)
        out = model.predict(scores)
        pos_raw = scores[labels == 1][:, None]
        neg_raw = scores[labels == 0][None, :]
        pos_out = out[labels == 1][:, None]
        neg_out = out[labels == 0][None, :]
        assert not ((pos_raw < neg_raw) & (pos_out > neg_out)).any()
        assert not ((pos_raw > neg_raw) & (pos_out < neg_out)).any()

    def test_perfectly_monotone_labels_reproduced(self):
        scores = np.array([0.1, 0.3, 0.6, 0.9])
        labels = np.array([0, 0, 1, 1])
        model = IsotonicCalibrator().fit(scores, labels)
        assert np.array_equal(model.predict(scores), labels.astype(float))

    def test_single_sample(self):
        model = IsotonicCalibrator().fit(np.array([0.4]), np.array([1]))
        assert model.predict(0.9) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IsotonicCalibrator().fit(np.array([]), np.array([]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            IsotonicCalibrator().predict(0.5)

    def test_fit_peaks_below_36_bytes_a_row(self):
        # 2e5 distinct scores: the fit held 40 bytes a row while np.diff(start, append=...) made the
        # group counts from a concatenated copy of the group starts, with all the sorted scores alive
        n = 200_000
        rng = np.random.default_rng(23)
        scores = rng.random(n)
        labels = (rng.random(n) < scores**2).astype(np.int64)
        tracemalloc.start()
        try:
            IsotonicCalibrator().fit(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * n

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_training_fit_minimizes_squared_error_vs_labels(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 15, n) / 15.0
        labels = rng.integers(0, 2, n)
        model = IsotonicCalibrator().fit(scores, labels)
        fitted = model.predict(scores)
        # any other monotone step function with a step at each distinct score does no better
        distinct = np.unique(scores)
        base_err = np.sum((fitted - labels) ** 2)
        for _ in range(5):
            jitter = np.sort(rng.uniform(0, 1, len(distinct)))
            alt = jitter[np.clip(np.searchsorted(distinct, scores, side="right") - 1, 0, len(jitter) - 1)]
            assert base_err <= np.sum((alt - labels) ** 2) + 1e-9


def _tied_sample(grid, n, seed):
    """Scores on a grid strictly inside (0, 1), so they tie and 0 lies below them all."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(1, grid + 1, n) / (grid + 1)
    return scores, (rng.random(n) < scores).astype(int)


def _queries(breakpoints):
    """Every breakpoint, the midpoints between them, 0, 1 and two points below the first."""
    midpoints = (breakpoints[:-1] + breakpoints[1:]) / 2
    below = [breakpoints[0] / 2, np.nextafter(breakpoints[0], 0.0)]
    return np.concatenate([breakpoints, midpoints, [0.0, 1.0], below])


class TestCompactIsotonicModel:
    def test_equal_adjacent_means_share_one_breakpoint(self):
        # the groups at 0.2 and 0.4 both have mean 0.5; PAV leaves them as two blocks
        model = IsotonicCalibrator().fit(
            np.array([0.2, 0.2, 0.4, 0.4, 0.6]), np.array([1, 0, 0, 1, 1])
        )
        assert model.breakpoints_.tolist() == [0.2, 0.6]
        assert model.values_.tolist() == [0.5, 1.0]
        assert model.describe() == "breakpoints: 2"

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.integers(1, 25),
        n=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predictions_equal_the_full_breakpoint_fit(self, grid, n, seed):
        scores, labels = _tied_sample(grid, n, seed)
        full_breakpoints, full_values = isotonic_full_breakpoints(scores, labels)
        model = IsotonicCalibrator().fit(scores, labels)
        queries = _queries(full_breakpoints)
        expected = step_lookup(full_breakpoints, full_values, queries)
        assert np.array_equal(model.predict(queries), expected)
        # one breakpoint per distinct fitted value, each where the value changes
        assert np.all(np.diff(model.values_) > 0)
        assert model.values_.size == np.unique(full_values).size
        assert np.isin(model.breakpoints_, full_breakpoints).all()

    @settings(max_examples=100, deadline=None)
    @given(grid=st.integers(1, 60), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_fit_is_the_float_pav_fit_up_to_its_rounding(self, grid, n, seed):
        # the fit as it was: float PAV over each distinct score's mean label, then compacted
        scores, labels = _tied_sample(grid, n, seed)
        distinct, inverse = np.unique(scores, return_inverse=True)
        counts, positives = np.bincount(inverse), np.bincount(inverse, weights=labels).astype(np.int64)
        before = pool_adjacent_violators_float(positives / counts, counts.astype(np.float64))
        model = IsotonicCalibrator().fit(scores, labels)
        fitted, old = model.predict(distinct), step_lookup(distinct, before, distinct)
        differ = fitted != old
        assert np.allclose(fitted, old, rtol=1e-12, atol=0)
        assert np.array_equal(fitted[differ], _exact(positives, counts)[differ])

    @settings(max_examples=50, deadline=None)
    @given(grid=st.integers(1, 25), n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_full_size_file_loads_alike_and_saves_compact(self, tmp_path_factory, grid, n, seed):
        # a file written before compaction holds every distinct score
        scores, labels = _tied_sample(grid, n, seed)
        full_breakpoints, full_values = isotonic_full_breakpoints(scores, labels)
        payload = {
            "method": "isotonic", "breakpoints": list(full_breakpoints), "values": list(full_values)
        }
        path = tmp_path_factory.mktemp("isotonic") / "model.json"
        path.write_text(dumps(payload) + "\n", encoding="utf-8")
        loaded = load_model(path)
        queries = _queries(full_breakpoints)
        expected = step_lookup(full_breakpoints, full_values, queries)
        assert np.array_equal(loaded.predict(queries), expected)
        save_model(loaded, path)
        fresh = tmp_path_factory.mktemp("isotonic") / "model.json"
        save_model(IsotonicCalibrator().fit(scores, labels), fresh)
        assert path.read_bytes() == fresh.read_bytes()


def _noisy_identity(n=100, seed=3):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    return scores, (rng.random(n) < scores).astype(int)


@pytest.mark.parametrize(
    "fit",
    [
        lambda: PlattCalibrator(max_iter=1).fit(*_noisy_identity()),
        lambda: fit_logistic(generate_xor(200, seed=0), max_iter=1),
        lambda: DPMCalibrator(max_iter=2).fit(*_noisy_identity()),
    ],
    ids=["platt", "fit_logistic", "dpm"],
)
def test_non_convergence_warning_points_at_the_caller(fit):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        fit()
    assert record and {w.filename for w in record} == {__file__}
