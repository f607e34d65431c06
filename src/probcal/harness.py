"""Monte-Carlo verification of the calibration-error guarantees.

Each routine repeatedly draws fresh calibration data from a known oracle,
fits the histogram calibrator, measures what its guarantee is about, and
compares against the closed-form guarantee:

* ``verify_mce_bound``:    MCE <= sqrt(2 B log(2B/delta) / N) with
                           probability at least 1 - delta.
* ``verify_ece_rate``:     mean ECE shrinks like sqrt(B/N); the log-log
                           slope against N should sit near -1/2.
* ``verify_auc_loss``:     ranking power lost to binning is at most 1/(2B)
                           on average.
* ``verify_theta_concentration``: per-bin positive-rate estimates obey the
                           Hoeffding tail 2 exp(-2 N eps^2 / B).
* ``calibration_size_sweep``: more calibration data gives non-increasing
                           MCE and ECE.

All five run their trials through one runner, ``_trials``, which draws
and fits and then calls the routine's own measure. Trial t's streams derive
from the master seed and a spawn key ``(t,)`` or ``(grid_index, t)``, so
trial t draws the same data however many trials run and in whatever order.
A measure reads its test set in ``synth``'s oracle blocks, keeps a level code and a label
per row (auc-loss, one key of score and label), and reports the whole set's figures.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._validation import require_count
from .binning import HistogramCalibrator
from .data import write_csv
from .metrics import ReliabilityBin, _bin_indices, _cuts, _level_auc, _twice_u, ece, mce
from .serialize import write_json
from . import synth
from .synth import OracleSpec, _oracle_blocks, generate_oracle, true_theta

DEFAULT_MIN_TEST = 100_000
_SLOPE_WINDOW = (-0.65, -0.35)  # verify_ece_rate's acceptance window for the log-log slope
_SWEEP_NUM_BINS = 10  # calibration_size_sweep's reliability bins, the same at every size


@dataclass(frozen=True)
class TrialReport:
    """Measured quantities for one Monte-Carlo trial, from its check's measure. ``mce``
    and ``ece`` are NaN in the trials of ``verify_auc_loss`` and
    ``verify_theta_concentration``, which measure neither; the AUC fields are None where
    a check computes no AUC or the test set holds one class."""

    trial: int
    n_cal: int
    n_bins: int
    mce: float
    ece: float
    auc_raw: float | None = None
    auc_calibrated: float | None = None
    auc_loss: float | None = None
    max_theta_error: float | None = None


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    observed: float
    limit: float


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    reports: tuple
    summary: dict


@dataclass
class SweepReport:
    axis_name: str
    points: list
    assertions: list
    slope: float | None = None
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def mce_bound(n_cal: int, n_bins: int, delta: float) -> float:
    """Closed-form high-probability MCE bound sqrt(2B log(2B/delta) / N)."""
    require_count(1, n_cal=n_cal, n_bins=n_bins)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * n_bins * math.log(2.0 * n_bins / delta) / n_cal)


def hoeffding_bound(epsilon: float, n_cal: int, n_bins: int) -> float:
    """Tail bound 2 exp(-2 N eps^2 / B) on a per-bin positive-rate error."""
    return 2.0 * math.exp(-2.0 * n_cal * epsilon * epsilon / n_bins)


def default_test_size(n_cal: int) -> int:
    return max(10 * n_cal, DEFAULT_MIN_TEST)


def _spread(reports: Sequence[TrialReport], names: Sequence[str], spread: str = "std") -> dict:
    """``mean_<name>``, then ``std_<name>`` (ddof=1) or ``se_<name>`` (std / sqrt(n)),
    for each report field in the order given; one report has spread 0."""
    summary = {}
    for name in names:
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        summary[f"mean_{name}"] = float(values.mean())
        summary[f"{spread}_{name}"] = std if spread == "std" else std / math.sqrt(values.size)
    return summary


def _coded_test_set(spec: OracleSpec, model: HistogramCalibrator, n_test: int, test_stream, keys=None) -> tuple:
    """(levels, codes, labels, counts): ``model``'s values ascending; per row, in arrays made before the first
    draw, its value's rank (uint8 up to 256 levels) and label, or only its ``_twice_u`` key of score and label
    into uint64 ``keys`` if given (codes and labels None); per level, its negatives and positives."""
    levels, rank = np.unique(model.values_, return_inverse=True)
    codes = labels = None
    if keys is None:
        codes, labels = np.empty(n_test, np.min_scalar_type(levels.size - 1)), np.empty(n_test, bool)
    counts = np.zeros(2 * levels.size, np.int64)
    for rows, scores, positive in _oracle_blocks(spec, n_test, test_stream):
        code = rank[_bin_indices(model.edges_, scores)]
        counts += np.bincount(2 * code + positive, minlength=counts.size)
        if keys is None:
            codes[rows], labels[rows] = code, positive
        else:
            keys[rows] = scores.view(np.uint64) << 1 | positive
    return levels, codes, labels, counts.reshape(-1, 2)


def _frequency_bins(levels, codes, labels, counts, num_bins: int) -> list:
    """``reliability(levels[codes], labels, num_bins)``, bit for bit: its bins cut the codes' stable sort
    at the same ``_cuts``; level k spans places starts[k] to starts[k + 1] (``counts``' row sums), a bin
    averages its levels by their runs in it; a block's row i of level k is at starts[k] + i + earlier rows."""
    n = codes.size
    starts = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    cuts = _cuts(n, num_bins).tolist()
    seen, pos = starts[:-1].copy(), np.zeros(len(cuts), dtype=np.int64)  # positives before each cut
    for start in range(0, n, synth._BLOCK_ROWS):  # read at call time: one constant sets both block sizes
        block = codes[start : start + synth._BLOCK_ROWS]
        order = np.argsort(block, kind="stable")
        per_level = np.bincount(block, minlength=levels.size)
        place = (seen - np.cumsum(per_level) + per_level)[block[order]] + np.arange(block.size)
        pos += np.searchsorted(place[labels[start : start + synth._BLOCK_ROWS][order]], cuts)
        seen += per_level
    bins, pos = [], pos.tolist()
    for j in range(min(num_bins, n)):  # bins beyond the n-th are empty
        lo, hi = cuts[j], cuts[j + 1]
        first, last = np.searchsorted(starts, lo, "right") - 1, np.searchsorted(starts, hi)
        mean = np.repeat(levels[first:last], np.diff(np.clip(starts[first : last + 1], lo, hi))).mean()
        bins.append(ReliabilityBin(j, hi - lo, float(mean), (pos[j + 1] - pos[j]) / (hi - lo), (hi - lo) / n))
    return bins + [ReliabilityBin(j, 0, math.nan, math.nan, 0.0) for j in range(n, num_bins)]


def _trials(spec: OracleSpec, n_cal: int, n_bins: int | None, trials: int, seed: int, path: tuple,
            measure: Callable) -> tuple:
    """``measure(t, cal, model, test_stream)`` for trials t = 0..trials-1 of one grid point.

    Trial t spawns two independent streams from SeedSequence(seed, spawn_key=(*path, t)),
    draws its calibration set from the oracle ``spec`` with the first and fits the histogram
    calibrator on it. The second stream is for ``measure``, which draws its test set from it
    block by block and keeps only the codes and labels, or keys, of its rows, until it returns.
    """
    results = []
    for t in range(trials):
        cal_ss, test_ss = np.random.SeedSequence(seed, spawn_key=(*path, t)).spawn(2)
        cal = generate_oracle(spec, n_cal, cal_ss)
        model = HistogramCalibrator(n_bins=n_bins).fit(cal.scores, cal.labels)
        results.append(measure(t, cal, model, test_ss))
    return tuple(results)


def _errors(spec: OracleSpec, n_test: int, num_bins: int | None = None, with_auc: bool = False) -> Callable:
    """The measure of mce-bound, ece-rate and size-sweep: MCE and ECE on ``n_test`` fresh
    rows in ``num_bins`` bins (default: as fitted) and, ``with_auc``, the calibrated AUC,
    None for a one-class test set."""

    def measure(t, cal, model, test_stream) -> TrialReport:
        levels, codes, labels, counts = _coded_test_set(spec, model, n_test, test_stream)
        bins = _frequency_bins(levels, codes, labels, counts, num_bins or model.n_bins_)
        cal_auc = _level_auc(counts) if with_auc and counts.any(axis=0).all() else None
        return TrialReport(t, len(cal), model.n_bins_, mce(bins), ece(bins), auc_calibrated=cal_auc)

    return measure


def verify_mce_bound(
    spec: OracleSpec,
    n_cal: int = 1000,
    n_bins: int = 10,
    delta: float = 0.05,
    trials: int = 200,
    n_test: int | None = None,
    seed: int = 0,
) -> SweepReport:
    """Check the high-probability MCE bound on fresh data.

    Each trial fits on a fresh calibration set of size ``n_cal`` and
    measures MCE on a fresh test set (default max(10 N, 1e5) samples).
    The guarantee is probabilistic, so the assertion is on the fraction
    of trials within the bound, which must reach 1 - delta. At least ~50
    trials are needed for that fraction to be meaningful.
    """
    require_count(1, trials=trials, n_test=n_test)
    bound = mce_bound(n_cal, n_bins, delta)
    n_test = default_test_size(n_cal) if n_test is None else n_test
    reports = _trials(spec, n_cal, n_bins, trials, seed, (), _errors(spec, n_test))
    within = float(np.mean([r.mce <= bound for r in reports]))
    summary = {
        "n_cal": float(n_cal),
        "n_bins": float(n_bins),
        "delta": delta,
        "mce_bound": bound,
        "fraction_within_bound": within,
        **_spread(reports, ("mce", "ece")),
    }
    name = f"fraction of trials with MCE <= {bound:.6g} reaches {1 - delta:g}"
    result = SweepReport(
        axis_name="n_cal",
        points=[SweepPoint(float(n_cal), reports, summary)],
        assertions=[Assertion(name, within >= 1.0 - delta, within, 1.0 - delta)],
    )
    if bound >= 1:
        result.notes.append(
            f"MCE bound {bound:.6g} is at least 1, so no MCE can exceed it; the check is vacuous"
        )
    return result


def verify_ece_rate(
    spec: OracleSpec,
    n_bins: int = 10,
    n_grid: Sequence[int] = (1_000, 10_000, 100_000),
    trials: int = 50,
    seed: int = 0,
) -> SweepReport:
    """Fit the log-log slope of mean ECE against calibration size.

    A sqrt(B/N) decay shows up as slope -1/2; the acceptance window
    [-0.65, -0.35] is wide enough for Monte-Carlo noise. The size grid must
    span at least two decades for the slope to mean anything.
    """
    require_count(1, n_bins=n_bins, trials=trials)
    for n in n_grid:
        require_count(1, n_grid=n)
    sizes = sorted(n_grid)
    if len(sizes) < 2:
        raise ValueError("n_grid needs at least two positive sizes")
    if sizes[-1] < 100 * sizes[0]:
        raise ValueError("n_grid must span at least two decades")
    points = []
    for grid_index, n_cal in enumerate(sizes):
        measure = _errors(spec, default_test_size(n_cal))
        reports = _trials(spec, n_cal, n_bins, trials, seed, (grid_index,), measure)
        summary = {"n_cal": float(n_cal), **_spread(reports, ("ece", "mce"))}
        points.append(SweepPoint(float(n_cal), reports, summary))
    mean_ece = [p.summary["mean_ece"] for p in points]
    if min(mean_ece) <= 0:
        raise ValueError("mean ECE is 0, so its log-log slope is undefined; oracle is degenerate")
    x, y = (v - v.mean() for v in (np.log(sizes), np.log(mean_ece)))
    slope = float((x * y).sum() / (x * x).sum())  # the least-squares slope, centred
    low, high = _SLOPE_WINDOW
    assertion = Assertion(
        f"log-log ECE slope within [{low:g}, {high:g}]", low <= slope <= high, slope, high
    )
    return SweepReport(axis_name="n_cal", points=points, slope=slope, assertions=[assertion])


def verify_auc_loss(
    spec: OracleSpec,
    n_cal: int = 100_000,
    bin_grid: Sequence[int] = (5, 10, 20, 50),
    trials: int = 20,
    seed: int = 0,
) -> SweepReport:
    """Check that binning costs at most 1/(2B) of AUC on average.

    Requires B <= sqrt(N): with more bins than that, bins hold so few
    samples that the calibrated scores are dominated by noise, a regime
    the average-loss guarantee does not cover. Negative losses (AUC
    gained) are possible and simply reported.
    """
    require_count(1, n_cal=n_cal)
    for b in bin_grid:
        require_count(1, bin_grid=b)
    bins_sorted = sorted(bin_grid)
    if not bins_sorted:
        raise ValueError("bin counts must be >= 1")
    if bins_sorted[-1] > math.isqrt(n_cal):
        raise ValueError(
            f"bin count {bins_sorted[-1]} exceeds sqrt(n_cal) = {math.isqrt(n_cal)}; "
            "per-bin noise would swamp the average-loss guarantee"
        )
    require_count(2, " for a standard error", trials=trials)
    n_test = default_test_size(n_cal)

    def measure(t, cal, model, test_stream) -> TrialReport:  # no MCE or ECE: the loss check reports neither
        counts = _coded_test_set(spec, model, n_test, test_stream, keys := np.empty(n_test, np.uint64))[3]
        if not counts.any(axis=0).all():  # one class
            return TrialReport(t, len(cal), model.n_bins_, math.nan, math.nan)
        cal_auc, m = _level_auc(counts), int(counts[:, 1].sum())
        raw = float(_twice_u(keys, m)) / (2.0 * m * (n_test - m))
        return TrialReport(t, len(cal), model.n_bins_, math.nan, math.nan, raw, cal_auc, raw - cal_auc)

    points = []
    assertions = []
    for grid_index, b in enumerate(bins_sorted):
        reports = _trials(spec, n_cal, b, trials, seed, (grid_index,), measure)
        # each trial computes both AUCs or neither, so these trials are also those with either
        defined = [r for r in reports if r.auc_loss is not None]
        if not defined:
            raise ValueError("no trial produced a defined AUC; oracle is degenerate")
        loss = _spread(defined, ("auc_loss",))
        stderr = loss["std_auc_loss"] / math.sqrt(len(defined))
        limit = 1.0 / (2.0 * b) + 3.0 * stderr
        summary = {
            "n_bins": float(b),
            **loss,
            "stderr_auc_loss": stderr,
            "loss_limit": limit,
            "mean_auc_raw": float(np.mean([r.auc_raw for r in defined])),
            "mean_auc_calibrated": float(np.mean([r.auc_calibrated for r in defined])),
        }
        points.append(SweepPoint(float(b), reports, summary))
        mean_loss = loss["mean_auc_loss"]
        name = f"mean AUC loss at B={b} within 1/(2B) + 3*SE"
        assertions.append(Assertion(name, mean_loss <= limit, mean_loss, limit))
    return SweepReport(axis_name="n_bins", points=points, assertions=assertions)


def verify_theta_concentration(
    spec: OracleSpec,
    n_cal: int = 10_000,
    n_bins: int = 10,
    epsilon_grid: Sequence[float] = (0.01, 0.02, 0.05, 0.1),
    trials: int = 500,
    seed: int = 0,
) -> SweepReport:
    """Compare per-bin positive-rate errors against the Hoeffding tail.

    Each trial fits bins on fresh data; the limit rates come from
    integrating the truth curve over that trial's bins. Exceedance
    frequencies are pooled over trials and bins. A second assertion
    checks the estimates are centered: per-bin mean deviation within
    three standard errors of zero.
    """
    require_count(1, n_cal=n_cal, n_bins=n_bins)
    require_count(2, trials=trials)
    epsilons = sorted(float(e) for e in epsilon_grid)
    if not epsilons or not all(0 < e < math.inf for e in epsilons):
        raise ValueError("epsilon_grid needs values that are finite and > 0")

    def deviation(t, cal, model, test_stream) -> np.ndarray:
        # no test set: the limit rates come from the truth curve
        if model.n_bins_ != n_bins or np.isnan(model.theta_).any():
            raise RuntimeError(
                "degenerate binning (tied scores); concentration check "
                "expects continuous score data"
            )
        return model.theta_ - true_theta(spec, model.edges_)

    deviations = np.array(_trials(spec, n_cal, n_bins, trials, seed, (), deviation))
    absolute = np.abs(deviations)
    # the trials are reported once, on the first point; they measure no MCE or ECE
    reports = tuple(
        TrialReport(t, n_cal, n_bins, math.nan, math.nan, max_theta_error=float(worst))
        for t, worst in enumerate(absolute.max(axis=1))
    )
    points = []
    assertions = []
    for eps in epsilons:
        bound = hoeffding_bound(eps, n_cal, n_bins)
        frequency = float(np.mean(absolute >= eps))
        summary = {"epsilon": eps, "exceedance_frequency": frequency, "hoeffding_bound": bound}
        points.append(SweepPoint(eps, reports if eps == epsilons[0] else (), summary))
        name = f"exceedance frequency at eps={eps:g} within Hoeffding bound"
        assertions.append(Assertion(name, frequency <= bound, frequency, bound))
    per_bin_mean = deviations.mean(axis=0)
    per_bin_se = deviations.std(axis=0, ddof=1) / math.sqrt(trials)
    # a bin with mean deviation exactly 0 is 0 standard errors out, even
    # when every deviation is 0; a nonzero mean with no spread is infinitely many
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(per_bin_mean == 0, 0.0, np.abs(per_bin_mean) / per_bin_se)
    worst = float(np.max(ratio))
    name = "per-bin mean deviation within 3 standard errors of zero"
    assertions.append(Assertion(name, worst <= 3.0, worst, 3.0))
    return SweepReport(axis_name="epsilon", points=points, assertions=assertions)


def calibration_size_sweep(
    spec: OracleSpec,
    sizes: Sequence[int] = (100, 1_000, 10_000),
    trials: int = 10,
    seed: int = 0,
    n_test: int = DEFAULT_MIN_TEST,
    n_bins: int | None = None,
) -> SweepReport:
    """Measure MCE/ECE/AUC as the calibration set grows.

    Each trial draws its calibration and test sets from the oracle. The bin count
    defaults to the cube-root rule per size; MCE and ECE use 10 reliability
    bins at every size. Mean MCE and ECE must be non-increasing along the
    size axis; a single adjacent inversion is tolerated if it stays within
    one standard error of the difference.
    """
    for size in sizes:
        require_count(1, sizes=size)
    if any(low >= high for low, high in zip(sizes, sizes[1:])):  # a repeated size tests nothing about size
        raise ValueError("sizes must be strictly ascending")
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    require_count(1, n_test=n_test, n_bins=n_bins)
    require_count(2, trials=trials)
    measure = _errors(spec, n_test, _SWEEP_NUM_BINS, with_auc=True)
    points = []
    for grid_index, n_cal in enumerate(sizes):
        reports = _trials(spec, n_cal, n_bins, trials, seed, (grid_index,), measure)
        auc_values = [r.auc_calibrated for r in reports if r.auc_calibrated is not None]
        summary = {
            "n_cal": float(n_cal),
            **_spread(reports, ("mce", "ece"), spread="se"),
            "mean_auc_calibrated": float(np.mean(auc_values)) if auc_values else math.nan,
        }
        points.append(SweepPoint(float(n_cal), reports, summary))
    assertions = [
        _monotone_assertion(points, "mean_mce", "se_mce", "mean MCE"),
        _monotone_assertion(points, "mean_ece", "se_ece", "mean ECE"),
    ]
    return SweepReport(axis_name="n_cal", points=points, assertions=assertions)


def _monotone_assertion(points, mean_key: str, se_key: str, label: str) -> Assertion:
    increases = []
    for left, right in zip(points, points[1:]):
        rise = right.summary[mean_key] - left.summary[mean_key]
        if rise > 0:
            se_diff = math.hypot(left.summary[se_key], right.summary[se_key])
            increases.append((rise, se_diff))
    if not increases:
        return Assertion(f"{label} non-increasing with size", True, 0.0, 0.0)
    worst_rise, worst_se = max(increases)
    ok = len(increases) == 1 and worst_rise <= worst_se
    return Assertion(
        name=f"{label} non-increasing with size (one within-SE inversion allowed)",
        passed=ok,
        observed=worst_rise,
        limit=worst_se,
    )


def write_sweep_csv(report: SweepReport, path) -> None:
    """One row per sweep point; columns from the point summaries."""
    if not report.points:
        raise ValueError("report has no points")
    columns = list(report.points[0].summary)
    values = [np.array([point.summary[c] for point in report.points], dtype=np.float64) for c in columns]
    write_csv(path, columns, [values])


def write_sweep_json(report: SweepReport, path) -> None:
    """Summary with the pass/fail verdict of every assertion."""
    payload = {
        "axis": report.axis_name,
        "passed": report.passed,
        "slope": report.slope,
        "assertions": [asdict(a) for a in report.assertions],
        "points": [
            {"axis_value": p.axis_value, **p.summary} for p in report.points
        ],
        "notes": list(report.notes),
    }
    write_json(payload, path)
