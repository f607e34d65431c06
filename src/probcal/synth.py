"""Synthetic data with known ground truth, plus a small logistic base learner.

The oracle generator draws scores uniformly on [0, 1] and labels from
Bernoulli(c(score)) for a named truth curve c, so the exact per-bin positive
rates have closed forms. The XOR generator produces a 2-D
problem that a linear model cannot separate but a quadratic one can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import check_iteration, require_count
from .data import FeatureDataset, ScoredDataset
from .base import _expit
from .monotone import _newton

CURVES = ("identity", "square", "logistic", "constant")


@dataclass(frozen=True)
class OracleSpec:
    """Scores uniform on [0, 1]; labels Bernoulli(curve(score)).

    curve: one of "identity" (c(y)=y), "square" (c(y)=y^2),
    "logistic" (a sigmoid warp steepened around 0.5), or "constant"
    (c(y)=level everywhere).
    """

    curve: str = "identity"
    level: float = 0.5

    def __post_init__(self):
        if self.curve not in CURVES:
            raise ValueError(f"curve must be one of {CURVES}, got {self.curve!r}")
        if self.curve == "constant" and not 0.0 <= self.level <= 1.0:
            raise ValueError(f"constant level must lie in [0, 1], got {self.level}")

    def probability(self, y):
        y = np.asarray(y, dtype=np.float64)
        if self.curve == "identity":
            return y.copy()
        if self.curve == "square":
            return y * y
        if self.curve == "logistic":
            return _expit(8.0 * (y - 0.5))
        return np.full_like(y, self.level)


def generate_oracle(spec: OracleSpec, n: int, seed) -> ScoredDataset:
    """Draw n (score, label) pairs from the oracle; deterministic given seed."""
    require_count(1, n=n)
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = (rng.random(n) < spec.probability(scores)).astype(np.int64)
    return ScoredDataset(scores, labels)


def true_theta(spec: OracleSpec, edges) -> np.ndarray:
    """Limit positive rate per bin: the average of the truth curve over each
    bin interval, in closed form. Each form avoids subtracting nearly equal
    antiderivatives, so narrow bins keep full relative precision."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must contain at least two values")
    lo, hi = edges[:-1], edges[1:]
    if not np.all(hi > lo):
        raise ValueError("edges must be strictly increasing")
    if spec.curve == "identity":
        return 0.5 * (lo + hi)
    if spec.curve == "square":
        return (lo * lo + lo * hi + hi * hi) / 3.0
    if spec.curve == "logistic":
        # the antiderivative of expit(8(y - 1/2)) is log1p(exp(8(y - 1/2))) / 8
        width = 8.0 * (hi - lo)
        return np.log1p(np.expm1(width) * _expit(8.0 * (lo - 0.5))) / width
    return np.full(lo.shape, spec.level, dtype=np.float64)


_XOR_CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])
_XOR_LABELS = np.array([1, 0, 1, 0], dtype=np.int64)


def generate_xor(n: int, noise_sd: float = 0.3, seed=0) -> FeatureDataset:
    """Four Gaussian blobs at the corners (+-1, +-1); same-sign corners are
    class 1. Corner counts are allocated deterministically so the classes
    are balanced within one sample; row order is shuffled (seeded)."""
    require_count(4, n=n)
    if not 0 <= noise_sd < np.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    per_corner = np.full(4, n // 4, dtype=np.int64)
    # leftover rows go to corners 0, 1, 2 in turn, alternating the classes
    # (corner labels run 1, 0, 1, 0), so class counts stay within one
    for extra in range(n % 4):
        per_corner[extra] += 1
    centers = np.repeat(_XOR_CORNERS, per_corner, axis=0)
    labels = np.repeat(_XOR_LABELS, per_corner)
    features = centers + rng.normal(0.0, noise_sd, size=centers.shape)
    order = rng.permutation(n)
    return FeatureDataset(features[order], labels[order])


def _expand(features: np.ndarray, feature_map: str) -> np.ndarray:
    n, d = features.shape
    columns = [np.ones((n, 1)), features]
    if feature_map == "quadratic":
        for i in range(d):
            for j in range(i, d):
                columns.append((features[:, i] * features[:, j])[:, None])
    return np.hstack(columns)


@dataclass(frozen=True)
class LogisticScorer:
    """Fitted logistic model: score(x) = sigmoid(w . expand(x))."""

    coef: np.ndarray
    feature_map: str

    def __call__(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        return _expit(_expand(x, self.feature_map) @ self.coef)


def fit_logistic(
    data: FeatureDataset,
    feature_map: str = "linear",
    l2: float = 1e-4,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> LogisticScorer:
    """Ridge-penalized logistic regression by Newton's method.

    feature_map "linear" uses the raw coordinates; "quadratic" appends all
    degree-2 monomials. The intercept is not penalized. Stands in for any
    external base classifier: it returns a score function mapping feature
    rows to probabilities in (0, 1).
    """
    if feature_map not in ("linear", "quadratic"):
        raise ValueError(f"feature_map must be 'linear' or 'quadratic', got {feature_map!r}")
    if not 0 <= l2 < np.inf:
        raise ValueError(f"l2 must be finite and >= 0, got {l2}")
    check_iteration(max_iter, tol)
    z = data.labels.astype(np.float64)
    if not 0 < z.sum() < z.size:
        raise ValueError("logistic fitting needs both classes present")
    x = _expand(data.features, feature_map)
    n, p = x.shape
    penalty = np.full(p, l2)
    penalty[0] = 0.0

    def objective(weights: np.ndarray) -> float:
        s = x @ weights
        nll = float(np.sum(np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))) - z * s))
        return nll + 0.5 * float(penalty @ (weights * weights))

    def derivatives(weights: np.ndarray) -> tuple:
        probabilities = _expit(x @ weights)
        curvature = np.maximum(probabilities * (1.0 - probabilities), 1e-12)
        hessian = (x * curvature[:, None]).T @ x + np.diag(penalty + 1e-12)
        return x.T @ (probabilities - z) + penalty * weights, hessian

    w = _newton(objective, derivatives, np.zeros(p), max_iter, tol, "logistic fit")[0]
    return LogisticScorer(coef=w, feature_map=feature_map)
