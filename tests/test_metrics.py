import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from oracles import auc_by_pair_enumeration, bin_indices_by_search, ece_by_definition
from probcal.binning import HistogramCalibrator
from probcal.metrics import (
    ReliabilityBin,
    _bin_indices,
    accuracy,
    auc,
    ece,
    evaluate,
    mce,
    reliability,
    rmse,
    write_reliability_csv,
)

# strategies shared by the property tests
score_arrays = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=120
)
label_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=120)


def mixed_dataset(draw, min_size=2, max_size=120):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    scores = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # force both classes
    labels[0] = 0
    labels[-1] = 1
    return np.array(scores), np.array(labels)


datasets_with_both_classes = st.composite(mixed_dataset)()


class TestReliability:
    def test_two_group_worked_example(self):
        # two equal-weight groups predicting 0.2 (all negative) and 0.8
        # (all positive): each bin has gap 0.2, so ECE and MCE are both 0.2
        preds = np.array([0.2, 0.2, 0.8, 0.8])
        labels = np.array([0, 0, 1, 1])
        bins = reliability(preds, labels, num_bins=2)
        assert [b.count for b in bins] == [2, 2]
        assert bins[0].mean_prediction == pytest.approx(0.2)
        assert bins[0].positive_fraction == 0.0
        assert bins[1].mean_prediction == pytest.approx(0.8)
        assert bins[1].positive_fraction == 1.0
        assert ece(bins) == pytest.approx(0.2)
        assert mce(bins) == pytest.approx(0.2)

    def test_frequency_bin_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(0)
        preds = rng.random(103)
        labels = rng.integers(0, 2, 103)
        bins = reliability(preds, labels, num_bins=10)
        counts = [b.count for b in bins]
        assert sum(counts) == 103
        assert max(counts) - min(counts) <= 1

    def test_width_bins_may_be_empty(self):
        preds = np.array([0.05, 0.06, 0.95])
        labels = np.array([0, 0, 1])
        bins = reliability(preds, labels, num_bins=10, scheme="width")
        assert bins[0].count == 2
        assert bins[9].count == 1
        empty = [b for b in bins if b.count == 0]
        assert len(empty) == 8
        for b in empty:
            assert math.isnan(b.mean_prediction)
            assert math.isnan(b.positive_fraction)
            assert b.weight == 0.0

    def test_width_bins_right_open_last_closed(self):
        preds = np.array([0.0, 0.1, 0.2, 1.0])
        labels = np.array([0, 0, 1, 1])
        bins = reliability(preds, labels, num_bins=10, scheme="width")
        # 0.1 and 0.2 sit at edges and belong to the bin on their right
        assert bins[0].count == 1
        assert bins[1].count == 1
        assert bins[2].count == 1
        # 1.0 goes to the last bin, not past it
        assert bins[9].count == 1

    def test_empty_bins_are_skipped_by_ece_and_mce(self):
        bins = [
            ReliabilityBin(0, 2, 0.1, 0.2, 0.5),
            ReliabilityBin(1, 0, math.nan, math.nan, 0.0),
            ReliabilityBin(2, 2, 0.9, 0.5, 0.5),
        ]
        assert ece(bins) == pytest.approx(0.5 * 0.1 + 0.5 * 0.4)
        assert mce(bins) == pytest.approx(0.4)

    def test_single_bin(self):
        preds = np.array([0.2, 0.4])
        labels = np.array([0, 1])
        bins = reliability(preds, labels, num_bins=1)
        assert len(bins) == 1
        assert bins[0].weight == 1.0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            reliability(np.array([]), np.array([]))

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            reliability(np.array([0.5]), np.array([1]), scheme="quantile")

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ValueError):
            reliability(np.array([0.5]), np.array([1]), num_bins=0)

    @settings(max_examples=60, deadline=None)
    @given(data=datasets_with_both_classes, num_bins=st.integers(1, 15))
    def test_weights_sum_to_one_and_ece_bounded_by_mce(self, data, num_bins):
        preds, labels = data
        for scheme in ("frequency", "width"):
            bins = reliability(preds, labels, num_bins=num_bins, scheme=scheme)
            assert sum(b.weight for b in bins) == pytest.approx(1.0)
            assert sum(b.count for b in bins) == len(preds)
            assert ece(bins) <= mce(bins) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=datasets_with_both_classes, num_bins=st.integers(1, 12))
    def test_frequency_ece_matches_group_by_definition(self, data, num_bins):
        preds, labels = data
        bins = reliability(preds, labels, num_bins=num_bins)
        order = np.argsort(preds, kind="stable")
        groups = np.array_split(order, num_bins)
        position = {int(i): g for g, idx in enumerate(groups) for i in idx}
        expected = ece_by_definition(preds, labels, lambda i: position[i])
        assert ece(bins) == pytest.approx(expected, abs=1e-12)


# score placements for the rankdata reference: level codes in [0, levels) to scores in [0, 1]
def _evenly_spaced(codes, levels, rng):
    return codes / levels


def _signed_zeros(codes, levels, rng):
    """About half the scores are zeros, and about half of those -0.0: a tie of -0.0 and 0.0."""
    scores = np.maximum(codes - levels // 2, 0) / levels
    scores[(scores == 0) & (rng.random(codes.size) < 0.5)] = -0.0
    return scores


def _adjacent_floats(codes, levels, rng):
    """``levels`` adjacent floats down from just above 0.5, across the binade boundary there."""
    grid = [np.nextafter(0.5, 1.0)]
    for _ in range(levels - 1):
        grid.append(np.nextafter(grid[-1], 0.0))
    return np.array(grid)[codes]


class TestAuc:
    def test_four_sample_worked_example(self):
        scores = np.array([0.2, 0.4, 0.4, 0.8])
        labels = np.array([0, 1, 0, 1])
        # pairs: (.4,1)-(.2,0) win, (.4,1)-(.4,0) tie, (.8,1) beats both
        assert auc(scores, labels) == pytest.approx(0.875, abs=1e-12)

    def test_perfect_and_inverted(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert auc(scores, labels) == 1.0
        assert auc(scores, 1 - labels) == 0.0

    def test_all_tied_scores(self):
        scores = np.full(6, 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert auc(scores, labels) == 0.5

    def test_requires_both_classes(self):
        with pytest.raises(ValueError, match="both classes"):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))

    @settings(max_examples=80, deadline=None)
    @given(data=datasets_with_both_classes)
    def test_matches_pair_enumeration(self, data):
        scores, labels = data
        assert auc(scores, labels) == pytest.approx(
            auc_by_pair_enumeration(scores, labels), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.integers(1, 400),
        labels=st.lists(st.integers(0, 1), min_size=2, max_size=300),
        seed=st.integers(0, 2**31 - 1),
    )
    @pytest.mark.parametrize("place", [_evenly_spaced, _signed_zeros, _adjacent_floats],
                             ids=lambda place: place.__name__.strip("_").replace("_", " "))
    def test_equals_rankdata_reference_exactly(self, place, levels, labels, seed):
        rng = np.random.default_rng(seed)
        labels = np.array(labels)
        labels[0], labels[-1] = 0, 1
        # few levels force long tie runs; many give mostly distinct scores
        scores = place(rng.integers(0, levels, labels.size), levels, rng)
        m = int(labels.sum())
        n_neg = labels.size - m
        ranks = rankdata(scores, method="average")
        reference = (float(ranks[labels == 1].sum()) - m * (m + 1) / 2.0) / (m * n_neg)
        assert auc(scores, labels) == reference

    @pytest.mark.parametrize("levels", [None, 20])
    def test_equals_rankdata_reference_exactly_at_a_million_rows(self, levels):
        rng = np.random.default_rng(2024)
        scores = rng.random(10**6)
        if levels is not None:  # 20 levels: every score sits in a tie run of ~50,000
            scores = np.floor(scores * levels) / levels
        labels = (rng.random(scores.size) < scores).astype(np.int64)
        m = int(labels.sum())
        n_neg = labels.size - m
        ranks = rankdata(scores, method="average")
        reference = (float(ranks[labels == 1].sum()) - m * (m + 1) / 2.0) / (m * n_neg)
        assert auc(scores, labels) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.lists(st.integers(0, 10**6), min_size=2, max_size=80),
        labels=label_lists,
    )
    def test_invariant_under_strictly_monotone_transform(self, grid, labels):
        n = min(len(grid), len(labels))
        labels = np.array(labels[:n])
        labels[0], labels[-1] = 0, 1
        # grid spacing 1e-6 keeps the affine map free of rounding ties
        scores = np.array(grid[:n]) / 10**6
        squashed = scores / 2.0 + 0.25  # strictly increasing, stays in [0, 1]
        assert auc(squashed, labels) == pytest.approx(auc(scores, labels), abs=1e-12)


class TestPointMetrics:
    def test_rmse_worked_example(self):
        preds = np.array([0.0, 0.5, 1.0])
        labels = np.array([0, 1, 1])
        assert rmse(preds, labels) == pytest.approx(math.sqrt(0.25 / 3))

    @pytest.mark.parametrize("measure, name", [(rmse, "rmse"), (accuracy, "accuracy")])
    def test_empty_list_is_rejected(self, measure, name):
        with pytest.raises(ValueError, match=f"{name} of an empty list is undefined"):
            measure([], [])

    def test_accuracy_threshold_is_inclusive(self):
        preds = np.array([0.5, 0.49])
        labels = np.array([1, 0])
        assert accuracy(preds, labels) == 1.0

    def test_evaluate_bundles_all_measures(self):
        rng = np.random.default_rng(1)
        preds = rng.random(50)
        labels = (rng.random(50) < preds).astype(int)
        report = evaluate(preds, labels, num_bins=5)
        assert report.ece == pytest.approx(ece(report.bins))
        assert report.mce == pytest.approx(mce(report.bins))
        assert report.auc == pytest.approx(auc(preds, labels))
        assert report.rmse == pytest.approx(rmse(preds, labels))
        assert report.accuracy == pytest.approx(accuracy(preds, labels))
        assert len(report.bins) == 5


class TestReliabilityCsv:
    def test_round_trip_values(self, tmp_path):
        preds = np.array([0.2, 0.2, 0.8, 0.8])
        labels = np.array([0, 0, 1, 1])
        bins = reliability(preds, labels, num_bins=2)
        path = tmp_path / "bins.csv"
        write_reliability_csv(bins, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_index,mean_prediction,positive_fraction,weight,count"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 0.2
        assert float(first[3]) == 0.5
        assert int(first[4]) == 2

    def test_writes_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        preds = rng.random(30)
        labels = rng.integers(0, 2, 30)
        bins = reliability(preds, labels)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_reliability_csv(bins, a)
        write_reliability_csv(bins, b)
        assert a.read_bytes() == b.read_bytes()


CELL = 2.0**-12  # the width of _bin_indices's lookup cells
SMALL = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]  # ends, subnormals, least normal


@st.composite
def edges_and_scores(draw):
    """Strictly increasing edges in [0, 1], some crowded into one cell or into adjacent
    cells, some on a cell boundary or 1 ulp to either side of one, that may start above
    0 and end below 1; and scores in [0, 1] on every edge,
    on the cell boundaries k * 2**-12 nearby and on the points above, and 1 ulp to
    either side of each."""
    cells = draw(st.lists(st.integers(0, 4095), min_size=1, max_size=4))
    cells += [k + 1 for k in cells]
    offsets = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
    points = [(k + draw(offsets)) * CELL for k in cells for _ in range(draw(st.integers(1, 4)))]
    points += [np.nextafter(k * CELL, draw(st.sampled_from([-1.0, 2.0]))) for k in cells if draw(st.booleans())]
    points += draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    points += draw(st.lists(st.sampled_from(SMALL), max_size=3))
    edges = np.unique(np.clip(points, 0.0, 1.0))
    if draw(st.booleans()):
        edges = np.union1d(edges, [0.0])
    if draw(st.booleans()):
        edges = np.union1d(edges, [1.0])
    assume(edges.size >= 2)
    near = np.concatenate([points, edges, np.array(cells) * CELL, SMALL])
    near = np.concatenate([near, np.nextafter(near, -1.0), np.nextafter(near, 2.0)])
    scores = np.clip(np.concatenate([near, draw(st.lists(st.floats(0.0, 1.0), max_size=20))]), 0.0, 1.0)
    return edges, scores


class TestBinIndices:
    """The cell-table lookup gives the bins of a binary search over the edges, exactly."""

    @settings(max_examples=250, deadline=None)
    @given(edges_and_scores())
    def test_matches_binary_search(self, case):
        edges, scores = case
        assert np.array_equal(_bin_indices(edges, scores), bin_indices_by_search(edges, scores))

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_one_bin_and_one_bin_per_score(self, n):
        # B = 1 and B = n: a frequency fit on n distinct scores puts an edge between each pair
        rng = np.random.default_rng(n)
        scores = np.concatenate([rng.random(n), np.arange(4097) * CELL, SMALL])
        for b in (1, n):
            edges = HistogramCalibrator(n_bins=b).fit(scores[:n], np.arange(n) % 2).edges_
            assert edges.size == b + 1
            assert np.array_equal(_bin_indices(edges, scores), bin_indices_by_search(edges, scores))

    def test_peak_memory_is_no_higher_than_the_search(self):
        # 4e5 uniform scores at B = 74, the cube-root bin count of pipeline-4e5's fit
        rng = np.random.default_rng(74)
        scores = rng.random(400_000)
        edges = np.concatenate([[0.0], np.sort(rng.random(73)), [1.0]])
        peaks = []
        for lookup in (_bin_indices, bin_indices_by_search):
            tracemalloc.start()
            try:
                lookup(edges, scores)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]
