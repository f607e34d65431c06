import json
import math
import os
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import calibrated_bins, whole_test_set_measure
from probcal import harness, metrics, synth
from probcal.binning import HistogramCalibrator
from probcal.data import ScoredDataset
from probcal.harness import (
    Assertion,
    SweepPoint,
    SweepReport,
    _coded_test_set,
    _frequency_bins,
    _monotone_assertion,
    calibration_size_sweep,
    default_test_size,
    hoeffding_bound,
    mce_bound,
    verify_auc_loss,
    verify_ece_rate,
    verify_mce_bound,
    verify_theta_concentration,
    write_sweep_csv,
    write_sweep_json,
)
from probcal.metrics import _level_auc, _twice_u, auc, ece, mce, reliability
from probcal.synth import OracleSpec, _oracle_blocks, generate_oracle, true_theta

IDENTITY = OracleSpec()
SQUARE = OracleSpec(curve="square")


class TestBounds:
    def test_mce_bound_reference_value(self):
        # B=10, N=1000, delta=0.05
        assert mce_bound(1000, 10, 0.05) == pytest.approx(0.3462, abs=1e-4)

    def test_mce_bound_closed_form(self):
        value = mce_bound(777, 13, 0.02)
        expected = math.sqrt(2 * 13 * math.log(2 * 13 / 0.02) / 777)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_quadrupling_n_halves_the_bound(self):
        assert mce_bound(4000, 10, 0.05) == pytest.approx(
            0.5 * mce_bound(1000, 10, 0.05), rel=1e-12
        )

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_mce_bound_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            mce_bound(1000, 10, delta)

    @pytest.mark.parametrize("n_cal, n_bins", [(0, 10), (-5, 10), (1000, 0), (1000, -1)])
    def test_mce_bound_rejects_empty_sample_or_bins(self, n_cal, n_bins):
        # the message names the one quantity that is out of range, with its value
        name, value = ("n_cal", n_cal) if n_cal < 1 else ("n_bins", n_bins)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            mce_bound(n_cal, n_bins, 0.05)

    def test_hoeffding_reference_value(self):
        # eps=0.05, N=1e4, B=10 gives 2 exp(-5)
        assert hoeffding_bound(0.05, 10_000, 10) == pytest.approx(
            2 * math.exp(-5), abs=1e-12
        )

    def test_hoeffding_closed_form(self):
        value = hoeffding_bound(0.03, 5000, 7)
        expected = 2 * math.exp(-2 * 5000 * 0.03**2 / 7)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_hoeffding_trivial_at_zero_epsilon(self):
        assert hoeffding_bound(0.0, 1000, 10) == 2.0

    def test_default_test_size(self):
        assert default_test_size(100) == 100_000
        assert default_test_size(10_000) == 100_000
        assert default_test_size(50_000) == 500_000


class TestArgumentsAreCheckedFirst:
    """Each routine names its own bad argument before drawing any data."""

    @pytest.mark.parametrize(
        "routine, kwargs, message",
        [
            (verify_mce_bound, {"n_test": 0}, "n_test must be >= 1, got 0"),
            (verify_mce_bound, {"trials": 0}, "trials must be >= 1"),
            (verify_ece_rate, {"n_bins": 0}, "n_bins must be >= 1, got 0"),
            (verify_auc_loss, {"n_cal": 0}, "n_cal must be >= 1, got 0"),
            (verify_auc_loss, {"n_cal": -4}, "n_cal must be >= 1, got -4"),
            (verify_theta_concentration, {"n_cal": 0}, "n_cal must be >= 1, got 0"),
            (verify_theta_concentration, {"n_bins": 0}, "n_bins must be >= 1, got 0"),
        ],
    )
    def test_verify_routines(self, routine, kwargs, message, monkeypatch):
        monkeypatch.setattr("probcal.harness.generate_oracle", None)  # no trial may start
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            routine(IDENTITY, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_test": 0}, "n_test must be >= 1, got 0"),
            ({"sizes": (0, 100)}, "sizes must be >= 1, got 0"),
            ({"n_bins": 0}, "n_bins must be >= 1, got 0"),
        ],
    )
    def test_size_sweep(self, kwargs, message, monkeypatch):
        monkeypatch.setattr("probcal.harness.generate_oracle", None)  # no trial may start
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibration_size_sweep(IDENTITY, **{"trials": 2, **kwargs})


class TestVerifyMceBound:
    def test_report_structure(self):
        report = verify_mce_bound(IDENTITY, n_cal=200, n_bins=5, trials=5, n_test=2000)
        assert report.axis_name == "n_cal"
        assert len(report.points) == 1
        point = report.points[0]
        assert len(point.reports) == 5
        assert point.summary["mce_bound"] == pytest.approx(mce_bound(200, 5, 0.05))
        assert 0.0 <= point.summary["fraction_within_bound"] <= 1.0
        assert len(report.assertions) == 1
        assert "fraction of trials" in report.assertions[0].name

    def test_deterministic(self):
        a = verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=3, n_test=1000, seed=7)
        b = verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=3, n_test=1000, seed=7)
        assert a.points[0].summary == b.points[0].summary

    def test_trial_streams_do_not_depend_on_trial_count(self):
        # trial t draws the same data whether the run has 1 trial or 3
        short = verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=1, n_test=1000)
        long = verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=3, n_test=1000)
        assert short.points[0].reports[0].mce == long.points[0].reports[0].mce

    def test_one_class_oracle_has_no_note_and_no_auc(self):
        report = verify_mce_bound(
            OracleSpec(curve="constant", level=1.0), n_cal=100, n_bins=2, trials=3, n_test=500
        )
        assert report.notes == []
        for r in report.points[0].reports:
            assert (r.auc_raw, r.auc_calibrated, r.auc_loss) == (None, None, None)
            assert r.mce == r.ece == 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            verify_mce_bound(IDENTITY, trials=0)

    def test_bound_of_at_least_one_is_noted_and_verdict_kept(self):
        report = verify_mce_bound(IDENTITY, n_cal=100, n_bins=10, trials=2, n_test=500)
        assert report.points[0].summary["mce_bound"] > 1
        assert report.notes == [
            "MCE bound 1.09467 is at least 1, so no MCE can exceed it; the check is vacuous"
        ]
        assert report.passed

    def test_bound_below_one_has_no_note(self):
        report = verify_mce_bound(IDENTITY, n_cal=1000, n_bins=10, trials=2, n_test=2000)
        assert report.points[0].summary["mce_bound"] < 1
        assert report.notes == []

    def test_generous_bound_holds_on_small_run(self):
        # with delta=0.5 the bound is loose enough that a short run passes
        report = verify_mce_bound(
            IDENTITY, n_cal=500, n_bins=5, delta=0.5, trials=10, n_test=50_000
        )
        assert report.passed


class TestVerifyEceRate:
    def test_rejects_narrow_grid(self):
        with pytest.raises(ValueError, match="two decades"):
            verify_ece_rate(IDENTITY, n_grid=(100, 1000), trials=2)

    def test_rejects_single_size(self):
        with pytest.raises(ValueError, match="two positive sizes"):
            verify_ece_rate(IDENTITY, n_grid=(1000,), trials=2)

    def test_slope_is_negative_on_identity(self):
        report = verify_ece_rate(IDENTITY, n_bins=5, n_grid=(100, 1000, 10_000), trials=5)
        assert report.slope is not None
        assert report.slope < 0
        assert len(report.points) == 3
        assert "log-log ECE slope" in report.assertions[0].name

    def test_more_bins_do_not_shrink_ece(self):
        # error grows like sqrt(B/N): doubling B at fixed N cannot help
        coarse = verify_ece_rate(IDENTITY, n_bins=5, n_grid=(100, 10_000), trials=5)
        fine = verify_ece_rate(IDENTITY, n_bins=10, n_grid=(100, 10_000), trials=5)
        for point_coarse, point_fine in zip(coarse.points, fine.points):
            assert point_fine.summary["mean_ece"] >= point_coarse.summary["mean_ece"]

    def test_per_trial_values_independent_of_trial_count(self):
        few = verify_ece_rate(IDENTITY, n_bins=5, n_grid=(100, 10_000), trials=1)
        more = verify_ece_rate(IDENTITY, n_bins=5, n_grid=(100, 10_000), trials=3)
        for point_few, point_more in zip(few.points, more.points):
            assert point_few.reports[0].ece == point_more.reports[0].ece


class TestVerifyAucLoss:
    def test_rejects_bins_beyond_sqrt_n(self):
        with pytest.raises(ValueError, match="sqrt"):
            verify_auc_loss(IDENTITY, n_cal=100, bin_grid=(5, 11), trials=2)

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError, match="trials"):
            verify_auc_loss(IDENTITY, n_cal=100, bin_grid=(5,), trials=1)

    def test_rejects_empty_bin_grid(self):
        with pytest.raises(ValueError, match="bin counts"):
            verify_auc_loss(IDENTITY, n_cal=100, bin_grid=(), trials=2)

    def test_auc_loss_is_exact_difference(self):
        report = verify_auc_loss(IDENTITY, n_cal=2500, bin_grid=(5,), trials=3)
        for r in report.points[0].reports:
            assert r.auc_loss == r.auc_raw - r.auc_calibrated

    def test_report_structure_and_limits(self):
        report = verify_auc_loss(IDENTITY, n_cal=2500, bin_grid=(5, 10), trials=3)
        assert report.axis_name == "n_bins"
        assert [p.axis_value for p in report.points] == [5.0, 10.0]
        for point, assertion in zip(report.points, report.assertions):
            b = point.summary["n_bins"]
            expected = 1.0 / (2.0 * b) + 3.0 * point.summary["stderr_auc_loss"]
            assert point.summary["loss_limit"] == pytest.approx(expected, abs=1e-15)
            assert f"B={int(b)}" in assertion.name
            assert 0.5 < point.summary["mean_auc_raw"] < 1.0

    def test_degenerate_oracle_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            verify_auc_loss(
                OracleSpec(curve="constant", level=1.0), n_cal=100, bin_grid=(5,), trials=2
            )


class TestVerifyThetaConcentration:
    def test_small_run_structure(self):
        report = verify_theta_concentration(
            IDENTITY, n_cal=1000, n_bins=5, epsilon_grid=(0.001, 0.5), trials=10
        )
        assert report.axis_name == "epsilon"
        assert [p.axis_value for p in report.points] == [0.001, 0.5]
        # one assertion per epsilon plus the centering check
        assert len(report.assertions) == 3
        assert report.assertions[-1].name.startswith("per-bin mean deviation")

    def test_trivial_epsilon_always_satisfied(self):
        # bound above 1 can never be exceeded by a frequency
        report = verify_theta_concentration(
            IDENTITY, n_cal=1000, n_bins=5, epsilon_grid=(0.001,), trials=5
        )
        tiny = report.assertions[0]
        assert tiny.limit > 1.0
        assert tiny.passed

    def test_large_epsilon_never_exceeded(self):
        report = verify_theta_concentration(
            IDENTITY, n_cal=1000, n_bins=5, epsilon_grid=(0.5,), trials=10
        )
        assert report.assertions[0].observed == 0.0

    def test_rejects_bad_epsilon_grid(self):
        with pytest.raises(ValueError, match="epsilon"):
            verify_theta_concentration(IDENTITY, epsilon_grid=(), trials=2)
        with pytest.raises(ValueError, match="epsilon"):
            verify_theta_concentration(IDENTITY, epsilon_grid=(-0.1, 0.1), trials=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        # a NaN limit or a limit of 0 at infinity would be a verdict on nothing
        with pytest.raises(ValueError, match="finite and > 0"):
            verify_theta_concentration(IDENTITY, epsilon_grid=(0.1, bad), trials=2)

    def test_tied_scores_raise(self, monkeypatch):
        def tied(spec, n, seed):
            labels = np.arange(int(n)) % 2
            return ScoredDataset(np.full(int(n), 0.5), labels)

        monkeypatch.setattr("probcal.harness.generate_oracle", tied)
        with pytest.raises(RuntimeError, match="degenerate binning"):
            verify_theta_concentration(IDENTITY, n_cal=100, n_bins=5, trials=2)

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_exact_estimates_are_zero_standard_errors_out(self, level):
        # every bin rate equals its limit exactly, so each deviation is 0:
        # a 0/0 ratio that counts as centered, not as NaN
        report = verify_theta_concentration(
            OracleSpec(curve="constant", level=level), n_cal=1000, n_bins=5, trials=5
        )
        centering = report.assertions[-1]
        assert centering.observed == 0.0
        assert report.passed

    def test_constant_nonzero_deviation_fails_centering(self, monkeypatch):
        # rates are exactly 1 in every trial, limits are pinned at 0.9
        monkeypatch.setattr(
            "probcal.harness.true_theta", lambda spec, edges: np.full(len(edges) - 1, 0.9)
        )
        report = verify_theta_concentration(
            OracleSpec(curve="constant", level=1.0), n_cal=1000, n_bins=5, trials=5
        )
        centering = report.assertions[-1]
        assert centering.observed == math.inf
        assert not centering.passed


class TestCalibrationSizeSweep:
    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            calibration_size_sweep(IDENTITY, sizes=(1000, 100), trials=2)

    def test_rejects_repeated_sizes(self):
        # two draws of one size say nothing about size, so "non-increasing with size" would hold vacuously
        with pytest.raises(ValueError, match="strictly ascending"):
            calibration_size_sweep(IDENTITY, sizes=(100, 1000, 1000), trials=2)

    def test_rejects_single_size(self):
        with pytest.raises(ValueError, match="two sizes"):
            calibration_size_sweep(IDENTITY, sizes=(100,), trials=2)

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError, match="trials"):
            calibration_size_sweep(IDENTITY, sizes=(100, 1000), trials=1)

    def test_constant_oracle_calibrates_to_small_error(self):
        # truth is flat at 0.5, so per-bin noise is all that remains
        report = calibration_size_sweep(
            OracleSpec(curve="constant", level=0.5), sizes=(100, 1000), trials=3, n_test=5000, n_bins=5
        )
        assert report.points[-1].summary["mean_mce"] < 0.1

    def test_structure_and_assertion_labels(self):
        report = calibration_size_sweep(
            IDENTITY, sizes=(100, 1000), trials=3, n_test=5000
        )
        assert report.axis_name == "n_cal"
        assert len(report.points) == 2
        names = [a.name for a in report.assertions]
        assert any("mean MCE" in n for n in names)
        assert any("mean ECE" in n for n in names)
        for point in report.points:
            for key in ("mean_mce", "se_mce", "mean_ece", "se_ece", "mean_auc_calibrated"):
                assert key in point.summary

    def test_deterministic(self):
        a = calibration_size_sweep(IDENTITY, sizes=(100, 1000), trials=2, n_test=2000)
        b = calibration_size_sweep(IDENTITY, sizes=(100, 1000), trials=2, n_test=2000)
        assert [p.summary for p in a.points] == [p.summary for p in b.points]


@pytest.fixture()
def harness_auc_calls(monkeypatch):
    """Record the test-set size of every AUC the harness computes, raw (``_twice_u`` over one key
    per row of the test set) or calibrated (``_level_auc`` over per-level class counts)."""
    calls = []

    def counting_raw(keys, n_pos):
        calls.append(keys.size)
        return _twice_u(keys, n_pos)

    def counting_levels(counts):
        calls.append(int(counts.sum()))
        return _level_auc(counts)

    monkeypatch.setattr("probcal.harness._twice_u", counting_raw)
    monkeypatch.setattr("probcal.harness._level_auc", counting_levels)
    return calls


@pytest.fixture()
def harness_summaries(monkeypatch):
    """Record the bin count of every reliability summary the harness builds."""
    calls = []

    def counting(levels, codes, labels, counts, num_bins):
        calls.append(num_bins)
        return _frequency_bins(levels, codes, labels, counts, num_bins)

    monkeypatch.setattr("probcal.harness._frequency_bins", counting)
    return calls


def _assert_direct_fit(
    report, spec, seed, key, n_test, n_bins, raw, calibrated, metric_bins=None, errors=True
):
    """The trial report equals a fit on the streams at (seed, key), done here; its MCE
    and ECE are NaN unless ``errors``."""
    cal_ss, test_ss = np.random.SeedSequence(seed, spawn_key=key).spawn(2)
    cal = generate_oracle(spec, report.n_cal, cal_ss)
    test = generate_oracle(spec, n_test, test_ss)
    model = HistogramCalibrator(n_bins=n_bins).fit(cal.scores, cal.labels)
    predicted = model.predict(test.scores)
    if errors:
        bins = reliability(predicted, test.labels, num_bins=metric_bins or model.n_bins_)
        assert (report.mce, report.ece) == (mce(bins), ece(bins))
    else:
        assert math.isnan(report.mce) and math.isnan(report.ece)
    assert report.auc_raw == (auc(test.scores, test.labels) if raw else None)
    assert report.auc_calibrated == (auc(predicted, test.labels) if calibrated else None)


class TestTrialStreamsAndAucWork:
    """Trial t at grid point g draws from SeedSequence(seed, spawn_key=(g, t)),
    or (t,) for the single-point checks, and computes only the AUCs and the
    reliability summary (MCE and ECE) its check reports."""

    def test_mce_bound(self, harness_auc_calls, harness_summaries):
        report = verify_mce_bound(SQUARE, n_cal=200, n_bins=5, trials=3, n_test=2000, seed=4)
        assert harness_auc_calls == []
        assert harness_summaries == [5] * 3
        for r in report.points[0].reports:
            _assert_direct_fit(r, SQUARE, 4, (r.trial,), 2000, 5, raw=False, calibrated=False)

    def test_ece_rate(self, harness_auc_calls, harness_summaries):
        report = verify_ece_rate(SQUARE, n_bins=5, n_grid=(100, 10_000), trials=2, seed=4)
        assert harness_auc_calls == []
        assert harness_summaries == [5] * 2 * 2
        for g, point in enumerate(report.points):
            for r in point.reports:
                n_test = default_test_size(r.n_cal)
                _assert_direct_fit(
                    r, SQUARE, 4, (g, r.trial), n_test, 5, raw=False, calibrated=False
                )

    def test_auc_loss(self, harness_auc_calls, harness_summaries):
        # the loss check reports no MCE or ECE, so its trials measure neither
        report = verify_auc_loss(SQUARE, n_cal=2500, bin_grid=(5, 10), trials=2, seed=4)
        assert len(harness_auc_calls) == 2 * 2 * 2
        assert harness_summaries == []
        for g, point in enumerate(report.points):
            for r in point.reports:
                n_test = default_test_size(2500)
                _assert_direct_fit(
                    r, SQUARE, 4, (g, r.trial), n_test, r.n_bins, raw=True, calibrated=True, errors=False
                )

    def test_size_sweep(self, harness_auc_calls, harness_summaries):
        report = calibration_size_sweep(
            SQUARE, sizes=(100, 1000), trials=2, seed=4, n_test=2000
        )
        assert len(harness_auc_calls) == 2 * 2
        assert harness_summaries == [10] * 2 * 2
        for g, point in enumerate(report.points):
            for r in point.reports:
                _assert_direct_fit(
                    r, SQUARE, 4, (g, r.trial), 2000, None,
                    raw=False, calibrated=True, metric_bins=10,
                )

    def test_theta_concentration(self, harness_auc_calls, harness_summaries):
        report = verify_theta_concentration(
            SQUARE, n_cal=1000, n_bins=5, epsilon_grid=(0.05,), trials=3, seed=4
        )
        assert harness_auc_calls == []
        assert harness_summaries == []
        for r in report.points[0].reports:
            cal_ss, _ = np.random.SeedSequence(4, spawn_key=(r.trial,)).spawn(2)
            cal = generate_oracle(SQUARE, 1000, cal_ss)
            model = HistogramCalibrator(n_bins=5).fit(cal.scores, cal.labels)
            limits = true_theta(SQUARE, model.edges_)
            assert r.max_theta_error == float(np.abs(model.theta_ - limits).max())


class _RecordingStreams:
    """Patches ``generate_oracle`` (calibration sets) and ``_oracle_blocks`` (test sets) to record
    the spawn key of every stream drawn from, in order, and a weak reference to each block of a
    test set. Before a test set's first block it records how many earlier blocks are alive."""

    def __init__(self, monkeypatch):
        self.keys = []
        self.blocks = []
        self.alive_at_draw = []
        monkeypatch.setattr("probcal.harness.generate_oracle", self.oracle)
        monkeypatch.setattr("probcal.harness._oracle_blocks", self.test_blocks)

    def oracle(self, spec, n, stream):
        self.keys.append(stream.spawn_key)
        return generate_oracle(spec, n, stream)

    def test_blocks(self, spec, n, stream):
        self.keys.append(stream.spawn_key)
        self.alive_at_draw.append(sum(ref() is not None for ref in self.blocks))
        for rows, scores, labels in _oracle_blocks(spec, n, stream):
            self.blocks += [weakref.ref(scores), weakref.ref(labels)]
            yield rows, scores, labels


class TestTrialWorkAndTestSetLifetime:
    """Each trial draws its calibration set, then (except in theta-conc) one test set, block by
    block; every block is dropped before the next trial draws its own."""

    @pytest.mark.parametrize(
        "run, test_sets",
        [
            pytest.param(
                lambda: verify_mce_bound(SQUARE, n_cal=200, n_bins=5, trials=3, n_test=2000), 3, id="mce-bound"
            ),
            pytest.param(
                lambda: verify_ece_rate(SQUARE, n_bins=5, n_grid=(100, 10_000), trials=2), 4, id="ece-rate"
            ),
            pytest.param(
                lambda: verify_auc_loss(SQUARE, n_cal=2500, bin_grid=(5, 10), trials=2), 4, id="auc-loss"
            ),
            pytest.param(
                lambda: calibration_size_sweep(SQUARE, sizes=(100, 1000), trials=2, n_test=2000),
                4,
                id="size-sweep",
            ),
        ],
    )
    def test_no_test_set_outlives_its_trial(self, run, test_sets, monkeypatch):
        recorder = _RecordingStreams(monkeypatch)
        run()
        assert recorder.alive_at_draw == [0] * test_sets
        assert recorder.blocks and not any(ref() is not None for ref in recorder.blocks)

    def test_mce_bound_draws_a_calibration_and_a_test_set_per_trial(self, monkeypatch):
        recorder = _RecordingStreams(monkeypatch)
        verify_mce_bound(SQUARE, n_cal=200, n_bins=5, trials=3, n_test=2000)
        assert recorder.keys == [(t, stream) for t in range(3) for stream in (0, 1)]

    def test_theta_concentration_draws_only_calibration_sets(self, monkeypatch):
        recorder = _RecordingStreams(monkeypatch)
        verify_theta_concentration(SQUARE, n_cal=1000, n_bins=5, epsilon_grid=(0.05,), trials=3)
        assert recorder.keys == [(t, 0) for t in range(3)]


def _assert_same_as_predict(model, test, num_bins):
    """The whole-array oracle gives the bins and AUC of ``model.predict``, bit for bit, and
    with the bins skipped (``num_bins`` None) the same AUC and no bins."""
    predicted = model.predict(test.scores)
    two_class = 0 < test.n_pos < test.n_samples
    bins, calibrated_auc = calibrated_bins(model, test, num_bins, two_class)
    # repr is exact for floats and shows NaN, which == would not match
    assert repr(bins) == repr(reliability(predicted, test.labels, num_bins=num_bins))
    assert calibrated_auc == (auc(predicted, test.labels) if two_class else None)
    assert calibrated_bins(model, test, None, two_class) == (None, calibrated_auc)


def _streamed_measure(spec, model, n_test, stream, num_bins) -> tuple:
    """The harness's (bins, calibrated AUC, raw AUC) of one test set, computed as its measures
    compute them: the bins and calibrated AUC from the coded pass of ``_errors``, the raw AUC
    from auc-loss's keyed pass, whose counts are the same; both AUCs are None for a one-class set."""
    levels, codes, labels, counts = _coded_test_set(spec, model, n_test, stream)
    keyed = _coded_test_set(spec, model, n_test, stream, keys := np.empty(n_test, np.uint64))
    assert keyed[1:3] == (None, None)  # the keyed pass keeps no code or label per row
    np.testing.assert_array_equal(keyed[3], counts)
    two_class, m = counts.any(axis=0).all(), int(counts[:, 1].sum())
    return (
        _frequency_bins(levels, codes, labels, counts, num_bins),
        _level_auc(counts) if two_class else None,
        float(_twice_u(keys, m)) / (2.0 * m * (n_test - m)) if two_class else None,
    )


class _CountingNumpy:
    """numpy as the harness sees it, recording the size of each array it argsorts: one call per
    block of ``_frequency_bins``, the harness's only argsort."""

    def __init__(self):
        self.sorted = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a, **kwargs):
        self.sorted.append(a.size)
        return np.argsort(a, **kwargs)


def _recording(blocks, sizes: list):
    """``blocks``, appending each block's row count to ``sizes``."""

    def recorded(*args):
        for block in blocks(*args):
            sizes.append(block[1].size)
            yield block

    return recorded


def _assert_streamed_as_whole(spec, model, n_test, stream, num_bins, block):
    # synth's block size sets the draw's blocks and _frequency_bins' count blocks alike
    drawn, counting = [], _CountingNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_BLOCK_ROWS", block)
        patch.setattr(harness, "_oracle_blocks", _recording(_oracle_blocks, drawn))
        patch.setattr(harness, "np", counting)
        streamed = _streamed_measure(spec, model, n_test, stream, num_bins)
    sizes = [min(block, n_test - start) for start in range(0, n_test, block)]
    assert counting.sorted == sizes
    # one draw for the coded pass and one for the keyed pass: the raw AUC draws no scores again
    assert drawn == 2 * sizes
    streamed = repr(streamed)
    whole = repr(whole_test_set_measure(spec, model, n_test, stream, num_bins))
    # compared outside the assert: pytest's diff of two reprs of thousands of bins takes minutes
    at = len(os.path.commonprefix([streamed, whole]))
    assert at == len(streamed) == len(whole), f"streamed {streamed[at:at + 80]!r}, whole {whole[at:at + 80]!r}"


SPECS = [
    IDENTITY, SQUARE, OracleSpec(curve="logistic"),
    # one-class test sets, and a constant rate
    OracleSpec(curve="constant", level=0.0), OracleSpec(curve="constant", level=1.0),
    OracleSpec(curve="constant", level=0.3),
]


class TestCalibratedBins:
    @settings(max_examples=300, deadline=None)
    @given(
        n_cal=st.integers(1, 60),
        grid=st.integers(1, 12),
        n_bins=st.integers(1, 15),
        n_test=st.integers(1, 80),
        metric_bins=st.one_of(st.none(), st.integers(1, 90)),
        rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reliability_and_auc_of_predict(
        self, n_cal, grid, n_bins, n_test, metric_bins, rate, seed
    ):
        # scores on a grid tie and collapse bins; a rate of 0 or 1 leaves one level;
        # metric_bins may differ from the fitted bin count and exceed the test size
        rng = np.random.default_rng(seed)
        cal_scores = rng.integers(0, grid + 1, n_cal) / grid
        cal_labels = (rng.random(n_cal) < rate).astype(int)
        model = HistogramCalibrator(n_bins=min(n_bins, n_cal)).fit(cal_scores, cal_labels)
        test_scores = rng.integers(0, 2 * grid + 1, n_test) / (2 * grid)
        test = ScoredDataset(test_scores, (rng.random(n_test) < test_scores).astype(int))
        _assert_same_as_predict(model, test, model.n_bins_ if metric_bins is None else metric_bins)

    @pytest.mark.parametrize("n_bins, levels", [(200, range(129, 257)), (400, range(257, 65537))])
    def test_many_levels(self, n_bins, levels):
        # codes are uint8 up to 256 levels and uint16 above
        cal = generate_oracle(IDENTITY, 200_000, 1)
        model = HistogramCalibrator(n_bins=n_bins).fit(cal.scores, cal.labels)
        assert np.unique(model.theta_).size in levels
        test = generate_oracle(IDENTITY, 50_000, 2)
        for num_bins in (model.n_bins_, 10):
            _assert_same_as_predict(model, test, num_bins)
        stream = np.random.SeedSequence(2)
        dtype = np.uint8 if n_bins == 200 else np.uint16
        assert _coded_test_set(IDENTITY, model, 10, stream)[1].dtype == dtype
        # 30,011 rows in blocks of 4,096: the last block is short; 40,000 bins: some are empty
        for num_bins in (model.n_bins_, 10, 40_000):
            _assert_streamed_as_whole(IDENTITY, model, 30_011, stream, num_bins, 4096)


class TestStreamedTestSet:
    """The harness's streamed measure of a test set against the whole-array oracle:
    ``oracle_draw``, then ``calibrated_bins``, then ``auc``."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_cal=st.integers(1, 60),
        grid=st.integers(1, 12),
        n_bins=st.integers(1, 15),
        rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        spec=st.sampled_from(SPECS),
        n_test=st.integers(1, 300),
        metric_bins=st.integers(1, 400),
        block=st.sampled_from([1, 2, 7, 64, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_whole_test_set(
        self, n_cal, grid, n_bins, rate, spec, n_test, metric_bins, block, seed
    ):
        # calibration scores on a grid tie and collapse bins, and a rate of 0 or 1 leaves one
        # level; metric bins may outnumber the rows and the levels, leaving some empty; small
        # blocks split the set, its last block short unless the size is a multiple
        rng = np.random.default_rng(seed)
        cal_scores = rng.integers(0, grid + 1, n_cal) / grid
        cal_labels = (rng.random(n_cal) < rate).astype(int)
        model = HistogramCalibrator(n_bins=min(n_bins, n_cal)).fit(cal_scores, cal_labels)
        stream = np.random.SeedSequence(seed, spawn_key=(0, 1))
        _assert_streamed_as_whole(spec, model, n_test, stream, metric_bins, block)

    @settings(max_examples=100, deadline=None)
    @given(
        n_test=st.integers(2, 300),
        grid=st.integers(1, 20),
        block=st.sampled_from([1, 3, 64, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keyed_pass_counts_ties_as_auc_does(self, n_test, grid, block, seed):
        # auc-loss's keyed pass on a test set whose scores lie on a grid, so they tie within and
        # across classes and with 0 and 1; small blocks split the draw and the sorted keys alike
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n_test) * grid) / grid
        labels = rng.random(n_test) < 0.5
        labels[:2] = True, False  # both classes
        model = HistogramCalibrator(n_bins=4).fit(np.linspace(0.0, 1.0, 40), np.arange(40) % 3 == 0)

        def tied(spec, n, stream):  # the draw, replaced by the rows above in blocks of ``block``
            for start in range(0, n, block):
                rows = slice(start, start + block)
                yield rows, scores[rows], labels[rows]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_oracle_blocks", tied)
            patch.setattr(metrics, "_BLOCK_KEYS", block)
            _, calibrated, raw = _streamed_measure(IDENTITY, model, n_test, np.random.SeedSequence(seed), 5)
        assert raw == auc(scores, labels)
        assert calibrated == auc(model.predict(scores), labels)


class TestLevelCounts:
    """``_coded_test_set`` counts each level's negatives and positives as its blocks are drawn, and
    ``_level_auc`` reads the AUC from those counts alone."""

    @settings(max_examples=200, deadline=None)
    @example(n_bins=300, repeat=1, spec=IDENTITY, n_test=400, block=7, seed=0)  # 300 levels: uint16 codes
    @example(n_bins=300, repeat=1, spec=IDENTITY, n_test=20, block=1, seed=1)  # most levels empty
    @given(
        n_bins=st.integers(1, 300),
        repeat=st.integers(1, 4),
        spec=st.sampled_from(SPECS),
        n_test=st.integers(1, 400),
        block=st.sampled_from([1, 7, 64, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_and_auc_match_the_whole_set(self, n_bins, repeat, spec, n_test, block, seed):
        # bins whose values repeat in runs of ``repeat`` give 1 to 300 levels (uint8 codes up to 256,
        # uint16 above); more levels than rows leave some empty, and a constant rate of 0 or 1 one class
        rng = np.random.default_rng(seed)
        values = rng.permutation(np.arange(n_bins) // repeat) / max((n_bins - 1) // repeat, 1)
        model = SimpleNamespace(edges_=np.linspace(0.0, 1.0, n_bins + 1), values_=values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth, "_BLOCK_ROWS", block)
            levels, codes, labels, counts = _coded_test_set(spec, model, n_test, np.random.SeedSequence(seed))
        assert levels.size == -(-n_bins // repeat)
        assert codes.dtype == (np.uint8 if levels.size <= 256 else np.uint16)
        assert counts.dtype == np.int64 and counts.shape == (levels.size, 2)
        for label in (0, 1):
            whole = np.bincount(codes[labels == label], minlength=levels.size)
            np.testing.assert_array_equal(counts[:, label], whole)
        if 0 < np.count_nonzero(labels) < n_test:
            assert _level_auc(counts) == auc(levels[codes], labels)
        else:
            assert not counts.any(axis=0).all()


@pytest.mark.parametrize(
    "run",
    [
        # drawn whole, a test set peaks at 33.8 MiB of traced allocations (8 MB for each float64
        # array); streamed, ece-rate keeps one byte per row for the level code and one for the
        # label, and peaks at 6.7 MiB
        lambda: verify_ece_rate(SQUARE, n_bins=10, n_grid=(1000, 100_000), trials=1, seed=1),
        # auc-loss keeps one 8-byte key per row of score and label, sorted in place: 12.5 MiB
        lambda: verify_auc_loss(SQUARE, n_cal=100_000, bin_grid=(10,), trials=2, seed=1),
    ],
    ids=["ece-rate", "auc-loss"],
)
def test_a_million_row_test_set_is_streamed_in_bounded_memory(run):
    # at n_cal 1e5 each check draws a 1e6-row test set per trial
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# the checks at the benchmark's trial counts and every other default, identity curve, seed 1
_VERIFY_MC = {
    "mce-bound": lambda: verify_mce_bound(IDENTITY, trials=10, seed=1),
    "ece-rate": lambda: verify_ece_rate(IDENTITY, trials=3, seed=1),
    "auc-loss": lambda: verify_auc_loss(IDENTITY, trials=2, seed=1),
    "theta-conc": lambda: verify_theta_concentration(IDENTITY, trials=50, seed=1),
    "size-sweep": lambda: calibration_size_sweep(IDENTITY, trials=2, seed=1),
}


def _values_reversed(model):
    model.values_ = model.values_[::-1].copy()


def _raised(model):
    model.theta_, model.values_ = model.theta_ + 0.02, model.values_ + 0.02


def _values_raised(model):
    model.values_ = np.clip(model.values_ + 0.05, 0.0, 1.0)


def _values_rolled(model):
    model.values_ = np.roll(model.values_, 1)


def _verdicts(*passed):
    """Each check's expected verdict, in the order of _VERIFY_MC."""
    return dict(zip(_VERIFY_MC, passed, strict=True))


# what each check can see: theta-conc reads theta_ alone, so a wrong order of values_ passes it; AUC is
# blind to a monotone bias; mce-bound's bound (0.346 at N = 1000, B = 10) hides a 0.05 bias, which at
# these trial counts only ece-rate sees
@pytest.mark.parametrize(
    "mutation, passed",
    [
        pytest.param(None, _verdicts(True, True, True, True, True), id="sound"),
        pytest.param(_values_reversed, _verdicts(False, False, False, True, False), id="values-reversed"),
        pytest.param(_raised, _verdicts(True, False, True, False, True), id="raised-0.02"),
        pytest.param(_values_raised, _verdicts(True, False, True, True, True), id="values-raised-0.05"),
        pytest.param(_values_rolled, _verdicts(False, False, False, True, False), id="values-rolled"),
    ],
)
def test_each_check_fails_when_its_guarantee_is_broken(mutation, passed, monkeypatch):
    # every fit goes through _set_state, so the mutation reaches each trial's model
    if mutation is not None:
        set_state = HistogramCalibrator._set_state

        def mutated(self, *args):
            model = set_state(self, *args)
            mutation(model)
            return model

        monkeypatch.setattr(HistogramCalibrator, "_set_state", mutated)
    assert {check: run().passed for check, run in _VERIFY_MC.items()} == passed


def _first_test_set_one_class(monkeypatch):
    """Trial 0's test set holds negatives only, at every grid point."""

    def blocks(spec, n, stream):
        for rows, scores, labels in _oracle_blocks(spec, n, stream):
            # trial 0's second stream, its test set
            yield rows, scores, np.zeros_like(labels) if stream.spawn_key[-2:] == (0, 1) else labels

    monkeypatch.setattr("probcal.harness._oracle_blocks", blocks)


def _assert_spread(summary, reports, names, spread="std"):
    for name in names:
        values = [getattr(r, name) for r in reports]
        std = np.std(values, ddof=1)
        expected = std if spread == "std" else std / math.sqrt(len(values))
        assert summary[f"mean_{name}"] == np.mean(values)
        assert summary[f"{spread}_{name}"] == expected


class TestSummaryContract:
    """The summary keys of each check, in CSV/JSON column order, and each
    mean and spread against numpy on the point's trial reports."""

    def test_mce_bound(self):
        report = verify_mce_bound(SQUARE, n_cal=200, n_bins=5, trials=4, n_test=2000, seed=3)
        point = report.points[0]
        assert list(point.summary) == [
            "n_cal", "n_bins", "delta", "mce_bound", "fraction_within_bound",
            "mean_mce", "std_mce", "mean_ece", "std_ece",
        ]
        _assert_spread(point.summary, point.reports, ("mce", "ece"))

    def test_one_trial_has_zero_spread(self):
        report = verify_mce_bound(SQUARE, n_cal=200, n_bins=5, trials=1, n_test=2000)
        summary = report.points[0].summary
        assert summary["mean_mce"] == report.points[0].reports[0].mce
        assert (summary["std_mce"], summary["std_ece"]) == (0.0, 0.0)

    def test_ece_rate(self):
        report = verify_ece_rate(SQUARE, n_bins=5, n_grid=(100, 10_000), trials=3, seed=3)
        for point in report.points:
            assert list(point.summary) == ["n_cal", "mean_ece", "std_ece", "mean_mce", "std_mce"]
            _assert_spread(point.summary, point.reports, ("ece", "mce"))
        means = [p.summary["mean_ece"] for p in report.points]
        # the closed-form centred slope against numpy's least-squares fit, which may differ in the last bits
        assert report.slope == pytest.approx(np.polyfit(np.log([100, 10_000]), np.log(means), 1)[0], rel=1e-12)

    def test_auc_loss_over_the_trials_with_a_defined_loss(self, monkeypatch):
        _first_test_set_one_class(monkeypatch)
        report = verify_auc_loss(SQUARE, n_cal=2500, bin_grid=(5, 10), trials=3, seed=3)
        for point in report.points:
            assert list(point.summary) == [
                "n_bins", "mean_auc_loss", "std_auc_loss", "stderr_auc_loss", "loss_limit",
                "mean_auc_raw", "mean_auc_calibrated",
            ]
            assert point.reports[0].auc_loss is None
            defined = point.reports[1:]
            _assert_spread(point.summary, defined, ("auc_loss",))
            _assert_spread(point.summary, defined, ("auc_loss",), spread="stderr")
            for name in ("auc_raw", "auc_calibrated"):
                values = [getattr(r, name) for r in defined]
                assert point.summary[f"mean_{name}"] == np.mean(values)

    def test_theta_concentration(self):
        report = verify_theta_concentration(
            SQUARE, n_cal=1000, n_bins=5, epsilon_grid=(0.1, 0.05), trials=3
        )
        for point in report.points:
            assert list(point.summary) == ["epsilon", "exceedance_frequency", "hoeffding_bound"]
        # the trials are reported once, on the smallest epsilon
        assert [len(p.reports) for p in report.points] == [3, 0]
        assert all(math.isnan(r.mce) and math.isnan(r.ece) for r in report.points[0].reports)

    def test_size_sweep(self):
        report = calibration_size_sweep(
            SQUARE, sizes=(100, 1000), trials=3, n_test=2000, seed=3
        )
        for point in report.points:
            assert list(point.summary) == [
                "n_cal", "mean_mce", "se_mce", "mean_ece", "se_ece", "mean_auc_calibrated",
            ]
            _assert_spread(point.summary, point.reports, ("mce", "ece"), spread="se")
            auc_values = [r.auc_calibrated for r in point.reports]
            assert point.summary["mean_auc_calibrated"] == np.mean(auc_values)


def _point(mean, se):
    return SweepPoint(axis_value=0.0, reports=(), summary={"m": mean, "se": se})


class TestMonotoneAssertion:
    def test_strictly_decreasing_passes(self):
        points = [_point(0.3, 0.01), _point(0.2, 0.01), _point(0.1, 0.01)]
        result = _monotone_assertion(points, "m", "se", "mean MCE")
        assert result.passed
        assert result.observed == 0.0

    def test_one_small_rise_tolerated(self):
        points = [_point(0.3, 0.01), _point(0.305, 0.01), _point(0.1, 0.01)]
        result = _monotone_assertion(points, "m", "se", "mean MCE")
        assert result.passed

    def test_one_large_rise_fails(self):
        points = [_point(0.3, 0.01), _point(0.4, 0.01), _point(0.1, 0.01)]
        result = _monotone_assertion(points, "m", "se", "mean MCE")
        assert not result.passed
        assert result.observed == pytest.approx(0.1)

    def test_two_rises_fail_even_if_small(self):
        points = [_point(0.3, 0.01), _point(0.305, 0.01), _point(0.31, 0.01)]
        result = _monotone_assertion(points, "m", "se", "mean MCE")
        assert not result.passed


class TestSweepOutput:
    @pytest.fixture()
    def small_report(self):
        return verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=3, n_test=1000)

    def test_csv_round_trip(self, small_report, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_report, path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == list(small_report.points[0].summary)
        values = lines[1].split(",")
        assert float(values[header.index("n_cal")]) == 150.0

    def test_csv_rejects_empty_report(self, tmp_path):
        empty = SweepReport(axis_name="n_cal", points=[], assertions=[])
        with pytest.raises(ValueError, match="no points"):
            write_sweep_csv(empty, tmp_path / "empty.csv")

    def test_json_payload(self, small_report, tmp_path):
        path = tmp_path / "sweep.json"
        write_sweep_json(small_report, path)
        payload = json.loads(path.read_text())
        assert payload["axis"] == "n_cal"
        assert payload["passed"] == small_report.passed
        assert payload["slope"] is None
        assert payload["assertions"][0]["name"] == small_report.assertions[0].name
        assert payload["points"][0]["axis_value"] == 150.0
        assert payload["notes"] == []

    def test_output_files_byte_identical_across_reruns(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            report = verify_mce_bound(IDENTITY, n_cal=150, n_bins=5, trials=3, n_test=1000)
            csv_path = tmp_path / f"{run}.csv"
            json_path = tmp_path / f"{run}.json"
            write_sweep_csv(report, csv_path)
            write_sweep_json(report, json_path)
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_assertion_fields(self):
        a = Assertion(name="x", passed=True, observed=0.1, limit=0.2)
        assert a.passed and a.observed < a.limit
