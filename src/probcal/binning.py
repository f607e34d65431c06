"""Histogram-binning calibration.

The calibrator partitions the score axis [0, 1] into bins, records the
fraction of positive training labels in each bin, and maps any query score
to its bin's positive fraction. Two partition schemes are supported:

* ``frequency``: the training scores are sorted and cut into groups whose
  sizes differ by at most one; interior edges sit at the midpoint between
  the adjacent boundary scores, so the fitted map is total on [0, 1].
* ``width``: edges at i/B regardless of the data.

Bins are right-open, except the last which is closed at 1. A query landing
in an empty bin is answered with the nearest nonempty bin's value (ties go
to the lower bin).
"""

from __future__ import annotations

import numpy as np

from ._validation import as_scores, model_field, require_count, scored_pair
from .base import BaseCalibrator
from .metrics import SCHEME_FREQUENCY, SCHEME_WIDTH, SCHEMES, _bin_indices


def default_bin_count(n_samples: int) -> int:
    """Cube-root rule: round(N^(1/3)) clamped to [1, N]."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return int(min(max(round(n_samples ** (1.0 / 3.0)), 1), n_samples))


def _nearest_nonempty(counts: np.ndarray) -> np.ndarray:
    """For every bin, the index of the nearest nonempty bin (ties -> lower)."""
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size == 0:
        raise ValueError("all bins are empty")
    pos = np.searchsorted(nonempty, j := np.arange(len(counts)))
    # past either end both neighbours are the one nonempty bin on the other side
    left = nonempty[np.maximum(pos - 1, 0)]
    right = nonempty[np.minimum(pos, nonempty.size - 1)]
    return np.where(j - left <= right - j, left, right)


class HistogramCalibrator(BaseCalibrator):
    """Map a score to the positive fraction of its training-score bin.

    Parameters
    ----------
    n_bins : int or None
        Number of bins B. None selects round(N^(1/3)) at fit time.
    scheme : str
        "frequency" (default) or "width".

    Notes
    -----
    Under the frequency scheme, tied scores spanning a tentative group
    boundary collapse that edge; the affected groups merge, so the fitted
    bin count can be smaller than requested and bin populations can then
    differ by more than one. With distinct scores the populations differ
    by at most one. Per-bin statistics always describe the assignment
    induced by the final edges, which keeps predict consistent with them.
    """

    def __init__(self, n_bins: int | None = None, scheme: str = SCHEME_FREQUENCY):
        self.n_bins = n_bins
        self.scheme = scheme
        self.edges_ = None
        self.counts_ = None
        self.positives_ = None
        self.theta_ = None
        self.n_bins_ = None
        self.values_ = None

    def fit(self, scores, labels) -> "HistogramCalibrator":
        y, z = scored_pair(scores, labels)
        n = y.size
        if n < 1:
            raise ValueError("need at least one sample")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        require_count(-np.inf, n_bins=self.n_bins)  # the range check below names both bounds
        b = default_bin_count(n) if self.n_bins is None else int(self.n_bins)
        if not 1 <= b <= n:
            raise ValueError(f"n_bins must satisfy 1 <= B <= {n}, got {b}")

        if self.scheme == SCHEME_WIDTH:
            edges = np.linspace(0.0, 1.0, b + 1)
        else:
            ordered = np.sort(y)
            # first rows of the groups 1..b-1 of np.array_split(ordered, b)
            starts = np.arange(1, b) * (n // b) + np.minimum(np.arange(1, b), n % b)
            lo, hi = ordered[starts - 1], ordered[starts]
            # no edge where a tie spans a boundary; the cuts never decrease, so a mask drops
            # repeats (a plain np.unique imports numpy.ma: 15 ms and a megabyte)
            cuts = np.concatenate(([0.0], 0.5 * (lo + hi)[hi > lo], [1.0]))
            edges = cuts[np.append(True, np.diff(cuts) > 0)]

        idx = _bin_indices(edges, y)
        counts = np.bincount(idx, minlength=edges.size - 1)
        positives = np.bincount(idx[z == 1], minlength=edges.size - 1)
        return self._set_state(edges, counts, positives)

    def _set_state(self, edges, counts, positives) -> "HistogramCalibrator":
        """Store the bins; theta is each bin's positive fraction, NaN for an empty bin, and
        values_ each bin's prediction, the theta of its nearest nonempty bin."""
        self.edges_ = edges
        self.counts_ = counts
        self.positives_ = positives
        self.theta_ = np.where(counts > 0, positives / np.maximum(counts, 1), np.nan)
        self.values_ = self.theta_[_nearest_nonempty(counts)]
        self.n_bins_ = counts.size
        return self

    def predict(self, scores):
        self._require_fitted("edges_")
        return self.values_[_bin_indices(self.edges_, as_scores(scores))]

    def to_dict(self) -> dict:
        self._require_fitted("edges_")
        return {
            "method": "histogram",
            "scheme": self.scheme,
            "edges": [float(e) for e in self.edges_],
            "theta": [None if np.isnan(t) else float(t) for t in self.theta_],
            "counts": [int(c) for c in self.counts_],
            "positives": [int(c) for c in self.positives_],
        }

    def describe(self) -> str:
        self._require_fitted("edges_")
        return f"bins: {self.n_bins_} ({self.scheme})"

    @classmethod
    def from_dict(cls, payload: dict) -> "HistogramCalibrator":
        if payload.get("scheme") not in SCHEMES:
            raise ValueError(f"histogram scheme must be one of {SCHEMES}")
        edges = model_field(payload, "edges", 1, 0.0, 1.0)
        counts = model_field(payload, "counts", 1, 0, integer=True)
        positives = model_field(payload, "positives", 1, 0, integer=True)
        theta = payload.get("theta")
        n_theta = len(theta) if isinstance(theta, list) else -1  # the message below names a non-list
        if not edges.size - 1 == counts.size == positives.size == n_theta > 0:
            raise ValueError("histogram needs one more edge than counts, positives and theta")
        if np.any(np.diff(edges) <= 0) or np.any(positives > counts):
            raise ValueError("histogram edges must increase and positives must not exceed counts")
        model = cls(counts.size, payload["scheme"])._set_state(edges, counts, positives)
        if theta != model.to_dict()["theta"]:
            raise ValueError("model field 'theta' must be positives / counts, null exactly for empty bins")
        return model
