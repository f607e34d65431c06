"""Calibration and discrimination measures.

Reliability bins group predictions by value; per bin we track the mean
predicted probability, the observed fraction of positives, and the share of
all samples landing in the bin. ECE is the weighted average of the per-bin
gap |observed - predicted|, MCE the maximum gap over nonempty bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validation import class_counts, require_count, scored_pair
from .data import write_csv

SCHEME_FREQUENCY = "frequency"
SCHEME_WIDTH = "width"
SCHEMES = (SCHEME_FREQUENCY, SCHEME_WIDTH)

DEFAULT_NUM_BINS = 10

_CELLS = 1 << 12  # lookup cells of [0, 1]; a power of two, so a score's cell is exact


def _bin_indices(edges: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Right-open bin lookup of scores in [0, 1]: the number of interior edges at or below
    each score, so scores at 1 fall into the last bin and, when a loaded model's first
    edge is above 0, lower scores into bin 0. Score s lies in cell floor(s * 2**12),
    the last closed at 1; a table gives the bin of each cell's left end, and only scores
    in a cell with an interior edge strictly inside it take a binary search."""
    inner = edges[1:-1]
    table = np.searchsorted(inner, np.arange(_CELLS) / _CELLS, side="right")
    scaled = inner * _CELLS
    split = np.zeros(_CELLS, dtype=bool)
    split[scaled[scaled != np.floor(scaled)].astype(np.intp)] = True
    cells = (scores * _CELLS).astype(np.int16)
    np.minimum(cells, _CELLS - 1, out=cells)
    idx = table[cells]
    rows = np.flatnonzero(split[cells])
    idx[rows] = np.searchsorted(inner, scores[rows], side="right")
    return idx


def _cuts(n: int, num_bins: int) -> np.ndarray:
    """The num_bins + 1 boundaries, int64, of n sorted places cut into num_bins groups whose
    sizes differ by at most one, the larger first: the one equal-frequency cut of fit and bins."""
    return (j := np.arange(num_bins + 1, dtype=np.int64)) * (n // num_bins) + np.minimum(j, n % num_bins)


@dataclass(frozen=True)
class ReliabilityBin:
    """Per-bin summary; mean_prediction/positive_fraction are NaN when empty."""

    index: int
    count: int
    mean_prediction: float
    positive_fraction: float
    weight: float

    @property
    def gap(self) -> float:
        return abs(self.positive_fraction - self.mean_prediction)


@dataclass(frozen=True)
class ReliabilityReport:
    bins: list[ReliabilityBin]
    ece: float
    mce: float
    rmse: float
    accuracy: float
    auc: float


def reliability(
    predictions,
    labels,
    num_bins: int = DEFAULT_NUM_BINS,
    scheme: str = SCHEME_FREQUENCY,
) -> list[ReliabilityBin]:
    """Assign each prediction to one of num_bins bins and summarize them.

    Equal-frequency bins sort the predictions (stable, so ties split by
    position) and cut the order at ``_cuts``, into groups whose sizes
    differ by at most one, the larger first. Equal-width bins cut [0, 1]
    at i/num_bins, right-open with the last closed at 1; they may be empty.
    """
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("cannot bin an empty prediction list")
    require_count(1, num_bins=num_bins)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")

    if scheme == SCHEME_FREQUENCY:
        return _summarize(p, z, np.split(np.argsort(p, kind="stable"), _cuts(p.size, num_bins)[1:-1]))
    idx = _bin_indices(np.linspace(0.0, 1.0, num_bins + 1), p)
    return _summarize(p, z, [np.flatnonzero(idx == j) for j in range(num_bins)])


def _summarize(p: np.ndarray, z: np.ndarray, members: list) -> list[ReliabilityBin]:
    """One ReliabilityBin per array of member positions, in order."""
    n = p.size
    bins = []
    for j, idx in enumerate(members):
        if idx.size == 0:
            bins.append(ReliabilityBin(j, 0, math.nan, math.nan, 0.0))
        else:
            bins.append(ReliabilityBin(j, idx.size, float(p[idx].mean()), float(z[idx].mean()), idx.size / n))
    return bins


def ece(bins: list[ReliabilityBin]) -> float:
    """Expected calibration error: sum of weight * |observed - predicted|.

    Empty bins carry zero weight and contribute nothing; an empty bin list
    yields 0 by convention.
    """
    return float(sum(b.weight * b.gap for b in bins if b.count > 0))


def mce(bins: list[ReliabilityBin]) -> float:
    """Maximum calibration error: the largest per-bin gap over nonempty bins."""
    gaps = [b.gap for b in bins if b.count > 0]
    return float(max(gaps)) if gaps else 0.0


def auc(scores, labels) -> float:
    """Empirical AUC with the tie convention: ties count one half.

    Equals (1/(m*n)) * sum over positive-negative pairs of
    I(score_pos > score_neg) + 0.5 * I(score_pos == score_neg). Twice that
    pair count (the Mann-Whitney U) is counted exactly by ``_twice_u``, O(N log N).
    """
    y, z = scored_pair(scores, labels)
    _, m, n_neg = class_counts(z)
    if m == 0 or n_neg == 0:
        raise ValueError("AUC is undefined without both classes present")
    return float(_twice_u(np.sort(y[z == 0]), np.sort(y[z == 1]))) / (2.0 * m * n_neg)


def _twice_u(neg: np.ndarray, pos: np.ndarray) -> int:
    """Twice the Mann-Whitney U of sorted positives ``pos`` against sorted, non-empty negatives
    ``neg``, by binary search: per positive, 2 * (#neg below) + (#neg tied) = 2 * wins + ties.
    Only a positive that ties a negative needs the second search."""
    below = np.searchsorted(neg, pos)
    tied = neg.take(below, mode="clip") == pos
    twice_u, below = 2 * below.sum() - below[tied].sum(), None  # not held through the second search
    return int(twice_u + np.searchsorted(neg, pos[tied], "right").sum())


def _level_auc(counts: np.ndarray) -> float:
    """``auc`` of scores given as each value's negatives and positives (levels x 2, values ascending):
    the same 2U, from per-level positives times (2 * negatives below + negatives tied)."""
    neg, pos = counts.T
    twice_u = int((pos * (2 * np.cumsum(neg) - neg)).sum())
    return float(twice_u) / (2.0 * int(pos.sum()) * int(neg.sum()))


def rmse(predictions, labels) -> float:
    """Root mean squared error between predictions and 0/1 labels."""
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("rmse of an empty list is undefined")
    return float(np.sqrt(np.mean((p - z) ** 2)))


def accuracy(predictions, labels) -> float:
    """Fraction of samples where (prediction >= 0.5) matches the label."""
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("accuracy of an empty list is undefined")
    return float(np.mean((p >= 0.5).astype(np.int64) == z))


def evaluate(
    predictions,
    labels,
    num_bins: int = DEFAULT_NUM_BINS,
    scheme: str = SCHEME_FREQUENCY,
) -> ReliabilityReport:
    """All five measures (RMSE, AUC, accuracy at threshold 0.5, MCE, ECE) plus the bins."""
    bins = reliability(predictions, labels, num_bins=num_bins, scheme=scheme)
    return ReliabilityReport(
        bins=bins,
        ece=ece(bins),
        mce=mce(bins),
        rmse=rmse(predictions, labels),
        accuracy=accuracy(predictions, labels),
        auc=auc(predictions, labels),
    )


def write_reliability_csv(bins: list[ReliabilityBin], path) -> None:
    """Export bins for external plotting of the reliability curve."""
    fields = ["index", "mean_prediction", "positive_fraction", "weight", "count"]
    columns = [np.array([getattr(b, name) for b in bins]) for name in fields]
    write_csv(path, ["bin_index", *fields[1:]], [columns])
