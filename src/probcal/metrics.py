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


def _bin_indices(edges: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Right-open bin lookup; scores at 1 fall into the last bin."""
    idx = np.searchsorted(edges, scores, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


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
    position) and cut the order into groups whose sizes differ by at most
    one. Equal-width bins cut [0, 1] at i/num_bins; they are right-open with
    the last closed at 1 and may be empty.
    """
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("cannot bin an empty prediction list")
    require_count(1, num_bins=num_bins)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")

    if scheme == SCHEME_FREQUENCY:
        return _summarize(p, z, np.array_split(np.argsort(p, kind="stable"), num_bins))
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
    pair count (the Mann-Whitney U) is counted exactly in int64 by binary
    search of each positive in the sorted negatives, O(N log N).
    """
    y, z = scored_pair(scores, labels)
    _, m, n_neg = class_counts(z)
    if m == 0 or n_neg == 0:
        raise ValueError("AUC is undefined without both classes present")
    neg = np.sort(y[z == 0])
    pos = np.sort(y[z == 1])
    # per positive: (#neg below) + (#neg at or below) = 2 * wins + ties
    twice_u = np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()
    return float(twice_u) / (2.0 * m * n_neg)


def _level_auc(codes: np.ndarray, z: np.ndarray, n_levels: int) -> float:
    """``auc`` of scores coded by the rank of their value among ``n_levels``: the same
    2U, from per-level positives times (2 * negatives below + negatives tied)."""
    pos = np.bincount(codes[z == 1], minlength=n_levels)
    neg = np.bincount(codes, minlength=n_levels) - pos
    twice_u = int(pos @ (2 * np.cumsum(neg) - neg))
    return float(twice_u) / (2.0 * int(pos.sum()) * int(neg.sum()))


def rmse(predictions, labels) -> float:
    """Root mean squared error between predictions and 0/1 labels."""
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("rmse of an empty list is undefined")
    return float(np.sqrt(np.mean((p - z) ** 2)))


def accuracy(predictions, labels, threshold: float = 0.5) -> float:
    """Fraction of samples where (prediction >= threshold) matches the label."""
    p, z = scored_pair(predictions, labels, "predictions")
    if p.size == 0:
        raise ValueError("accuracy of an empty list is undefined")
    return float(np.mean((p >= threshold).astype(np.int64) == z))


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
