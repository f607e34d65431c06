"""Release gate: end-to-end checks of the package's core guarantees.

Each test prints one [PASS] line on success so a full run reads as a
checklist. The Monte-Carlo checks use fixed seeds throughout; the runtime
limits are generous on purpose and only guard against gross regressions.
"""

import itertools
import time

import numpy as np
import pytest

from oracles import (
    auc_by_pair_enumeration,
    fit_logistic,
    isotonic_by_exhaustion,
    nadaraya_watson_direct,
    plug_in_estimate,
)
from probcal.binning import HistogramCalibrator
from probcal.density import DPMCalibrator, KDECalibrator
from probcal.harness import (
    calibration_size_sweep,
    verify_auc_loss,
    verify_ece_rate,
    verify_mce_bound,
    verify_theta_concentration,
)
from probcal.metrics import auc, ece, mce, reliability
from probcal.monotone import IsotonicCalibrator, PlattCalibrator
from probcal.synth import OracleSpec, generate_xor

IDENTITY = OracleSpec()


def _passed(capsys, message):
    with capsys.disabled():
        print(f"\n[PASS] {message}", end="")


def _random_two_class_labels(rng, n):
    labels = rng.integers(0, 2, size=n)
    labels[0] = 1
    labels[1] = 0
    return labels


def test_01_histogram_matches_plug_in_posterior(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    grid = np.linspace(0.0, 1.0, 101)
    schemes = ("frequency", "width")
    for case in range(1000):
        n = int(rng.integers(2, 51))
        scores = rng.random(n)
        if case % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        labels = _random_two_class_labels(rng, n)
        n_bins = int(rng.integers(1, min(n, 8) + 1))
        model = HistogramCalibrator(n_bins=n_bins, scheme=schemes[case % 2])
        model.fit(scores, labels)
        direct = plug_in_estimate(scores, labels, model, grid)
        assert np.array_equal(model.predict(grid), direct), f"case {case} differs"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(capsys, "criterion 1: histogram output equals the exact plug-in posterior "
                    f"on 1000 datasets x 101 queries ({elapsed:.1f}s)")


def test_02_isotonic_matches_exhaustive_search(capsys):
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        scores = np.linspace(0.1, 0.9, n)
        for pattern in itertools.product((0, 1), repeat=n):
            labels = np.array(pattern)
            fitted = IsotonicCalibrator().fit(scores, labels).predict(scores)
            best = isotonic_by_exhaustion(labels.astype(float))
            assert np.allclose(fitted, best, atol=1e-9), f"n={n} labels={pattern}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(capsys, f"criterion 2: isotonic fit matches exhaustive search on all "
                    f"{checked} label patterns with n <= 8 ({elapsed:.1f}s)")


def test_03_auc_matches_pair_enumeration(capsys):
    rng = np.random.default_rng(20240803)
    for case in range(500):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if case % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties half the time
        labels = _random_two_class_labels(rng, n)
        fast = auc(scores, labels)
        slow = auc_by_pair_enumeration(scores, labels)
        assert abs(fast - slow) <= 1e-12, f"case {case}: {fast} vs {slow}"
    _passed(capsys, "criterion 3: rank-based AUC equals brute-force pair enumeration "
                    "on 500 datasets")


def test_04_shared_kde_is_nadaraya_watson(capsys):
    rng = np.random.default_rng(20240804)
    for case in range(50):
        n_pos = int(rng.integers(2, 16))
        n_neg = int(rng.integers(2, 16))
        scores = np.concatenate([rng.random(n_pos), rng.random(n_neg)])
        labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
        model = KDECalibrator(shared_bandwidth=True).fit(scores, labels)
        assert model.bandwidth_pos_ == model.bandwidth_neg_
        h = model.bandwidth_pos_
        queries = np.concatenate([np.linspace(0, 1, 21), rng.random(20)])
        predictions = model.predict(queries)
        for query, value in zip(queries, predictions):
            direct = nadaraya_watson_direct(scores[labels == 1], scores[labels == 0], query, h)
            assert abs(value - direct) <= 1e-12
    _passed(capsys, "criterion 4: shared-bandwidth KDE equals the Nadaraya-Watson "
                    "estimator on 50 random datasets")


def test_05_mce_bound_holds(capsys):
    start = time.perf_counter()
    report = verify_mce_bound(
        IDENTITY, n_cal=1000, n_bins=10, delta=0.05, trials=200, n_test=100_000, seed=0
    )
    summary = report.points[0].summary
    assert summary["mce_bound"] == pytest.approx(0.3462, abs=1e-4)
    assert summary["fraction_within_bound"] >= 0.95
    assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(capsys, f"criterion 5: MCE <= 0.3462 in "
                    f"{summary['fraction_within_bound']:.1%} of 200 trials ({elapsed:.0f}s)")


def test_06_ece_decay_rate(capsys):
    start = time.perf_counter()
    report = verify_ece_rate(
        IDENTITY, n_bins=10, n_grid=(1_000, 10_000, 100_000), trials=50, seed=0
    )
    assert -0.65 <= report.slope <= -0.35
    assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(capsys, f"criterion 6: log-log ECE slope {report.slope:.3f} lies in "
                    f"[-0.65, -0.35] ({elapsed:.0f}s)")


def test_07_auc_loss_within_half_inverse_bins(capsys):
    start = time.perf_counter()
    report = verify_auc_loss(
        IDENTITY, n_cal=100_000, bin_grid=(5, 10, 20, 50), trials=20, seed=0
    )
    for point, assertion in zip(report.points, report.assertions):
        assert assertion.passed, f"B={point.axis_value}: {assertion.observed} > {assertion.limit}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    worst = max(p.summary["mean_auc_loss"] * 2 * p.axis_value for p in report.points)
    _passed(capsys, f"criterion 7: mean AUC loss within 1/(2B) + 3SE for B in "
                    f"{{5,10,20,50}}; worst 2B*loss = {worst:.2f} ({elapsed:.0f}s)")


def test_08_per_bin_hoeffding_tail(capsys):
    report = verify_theta_concentration(
        IDENTITY, n_cal=10_000, n_bins=10,
        epsilon_grid=(0.01, 0.02, 0.05, 0.1), trials=500, seed=0,
    )
    for point in report.points:
        assert point.summary["exceedance_frequency"] <= point.summary["hoeffding_bound"], (
            f"eps={point.axis_value}"
        )
    assert report.passed
    _passed(capsys, "criterion 8: per-bin estimate exceedance stays under the "
                    "Hoeffding tail at every epsilon (500 trials)")


@pytest.fixture(scope="module")
def xor_split():
    return generate_xor(1000, seed=9), generate_xor(1000, seed=509)


def _metric_triple(predictions, labels):
    bins = reliability(predictions, labels, num_bins=10)
    return auc(predictions, labels), mce(bins), ece(bins)


def test_09_nonmonotone_calibration_recovers_xor(capsys, xor_split):
    start = time.perf_counter()
    (x_train, z_train), (x_test, z_test) = xor_split
    scorer = fit_logistic(x_train, z_train, feature_map="linear")
    s_train, s_test = scorer(x_train), scorer(x_test)
    base_auc = auc(s_test, z_test)
    assert 0.45 <= base_auc <= 0.60, f"base AUC {base_auc}"

    results = {}
    for name, model in (
        ("histogram", HistogramCalibrator()),
        ("kde", KDECalibrator()),
        ("dpm", DPMCalibrator()),
        ("platt", PlattCalibrator()),
    ):
        model.fit(s_train, z_train)
        results[name] = _metric_triple(model.predict(s_test), z_test)

    for name in ("histogram", "kde", "dpm"):
        assert results[name][0] >= 0.80, f"{name} AUC {results[name][0]}"
    for name in ("histogram", "kde"):
        assert results[name][1] <= 0.25, f"{name} MCE {results[name][1]}"
        assert results[name][2] <= 0.10, f"{name} ECE {results[name][2]}"
    assert abs(results["platt"][0] - base_auc) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(capsys, f"criterion 9: base AUC {base_auc:.3f}; histogram/KDE/DPM lift "
                    f"XOR test AUC to >= 0.80 while staying calibrated ({elapsed:.0f}s)")


def test_10_strong_scores_survive_calibration(capsys, xor_split):
    (x_train, z_train), (x_test, z_test) = xor_split
    scorer = fit_logistic(x_train, z_train, feature_map="quadratic")
    s_train, s_test = scorer(x_train), scorer(x_test)
    base_auc = auc(s_test, z_test)
    assert base_auc >= 0.97

    worst_drop, worst_ece = 0.0, 0.0
    for model in (
        HistogramCalibrator(),
        PlattCalibrator(),
        IsotonicCalibrator(),
        KDECalibrator(),
        DPMCalibrator(),
    ):
        model.fit(s_train, z_train)
        cal_auc, _, cal_ece = _metric_triple(model.predict(s_test), z_test)
        assert base_auc - cal_auc <= 0.02, f"{type(model).__name__} lost {base_auc - cal_auc}"
        assert cal_ece <= 0.05, f"{type(model).__name__} ECE {cal_ece}"
        worst_drop = max(worst_drop, base_auc - cal_auc)
        worst_ece = max(worst_ece, cal_ece)
    _passed(capsys, f"criterion 10: base AUC {base_auc:.3f} survives all five "
                    f"calibrators (max drop {worst_drop:.3f}, max ECE {worst_ece:.3f})")


def test_11_error_shrinks_with_calibration_size(capsys):
    report = calibration_size_sweep(
        IDENTITY, sizes=(100, 1_000, 10_000), trials=10, seed=0
    )
    assert report.passed, [a.name for a in report.assertions if not a.passed]
    small = report.points[0].summary["mean_mce"]
    large = report.points[-1].summary["mean_mce"]
    assert large <= 0.5 * small, f"MCE {small:.4f} -> {large:.4f}"
    _passed(capsys, f"criterion 11: mean MCE falls {small:.3f} -> {large:.3f} "
                    "from n=100 to n=10000 and never rises beyond noise")


def test_12_byte_identical_reruns(capsys, tmp_path):
    from probcal.cli import EXIT_ASSERTION, EXIT_OK, main

    def render(workdir):
        workdir.mkdir()
        d = {name: str(workdir / name) for name in (
            "oracle.csv", "xor.csv", "hist.json", "dpm.json", "applied.csv",
            "metrics.csv", "reliability.csv", "sweep.csv", "sweep.json",
        )}
        commands = [
            ["simulate", "--kind", "oracle", "--n", "200", "--seed", "3", "--out", d["oracle.csv"]],
            ["simulate", "--kind", "xor", "--n", "60", "--seed", "4", "--out", d["xor.csv"]],
            ["fit", "--method", "histogram", "--in", d["oracle.csv"], "--out", d["hist.json"]],
            ["fit", "--method", "dpm", "--truncation", "5", "--max-iter", "50",
             "--in", d["oracle.csv"], "--out", d["dpm.json"]],
            ["apply", "--model", d["hist.json"], "--in", d["oracle.csv"], "--out", d["applied.csv"]],
            ["eval", "--in", d["oracle.csv"], "--model", d["hist.json"],
             "--out", d["metrics.csv"], "--reliability-out", d["reliability.csv"]],
            ["verify", "mce-bound", "--n", "200", "--bins", "5", "--trials", "3",
             "--test-size", "1000", "--csv-out", d["sweep.csv"], "--json-out", d["sweep.json"]],
        ]
        for argv in commands:
            assert main(argv) in (EXIT_OK, EXIT_ASSERTION), argv
        return {name: (workdir / name).read_bytes() for name in d}

    first = render(tmp_path / "run1")
    second = render(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    _passed(capsys, f"criterion 12: all {len(first)} output files byte-identical "
                    "across reruns of every command")
