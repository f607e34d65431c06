"""Synthetic data with known ground truth.

The oracle generator draws scores uniformly on [0, 1] and labels from
Bernoulli(c(score)) for a named truth curve c, so the exact per-bin positive
rates have closed forms. The XOR generator produces a 2-D
problem that a linear model cannot separate but a quadratic one can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import require_count
from .data import ScoredDataset
from .base import _expit

CURVES = ("identity", "square", "logistic", "constant")
_BLOCK_ROWS = 1 << 16  # oracle rows drawn at a time


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
        """c(y) as float64; for the identity curve that is ``y`` itself, sharing its memory."""
        y = np.asarray(y, dtype=np.float64)
        if self.curve == "identity":
            return y
        if self.curve == "square":
            return y * y
        if self.curve == "logistic":
            return _expit(8.0 * (y - 0.5))
        return np.full_like(y, self.level)


def _oracle_blocks(spec: OracleSpec, n: int, seed):
    """(rows, scores, labels as bool) per block of at most ``_BLOCK_ROWS`` of n oracle rows: score i is the
    seed's draw i, and label i's uniform is its draw n + i, from a second generator advanced past the scores
    (O'Neill 2014)."""
    scores = np.random.default_rng(seed).random
    uniforms = np.random.Generator(np.random.PCG64(seed).advance(int(n))).random  # advance takes no np.int64
    for start in range(0, n, _BLOCK_ROWS):
        block = scores(min(_BLOCK_ROWS, n - start))
        yield slice(start, start + _BLOCK_ROWS), block, uniforms(block.size) < spec.probability(block)


def generate_oracle(spec: OracleSpec, n: int, seed) -> ScoredDataset:
    """Draw n (score, label) pairs from the oracle; deterministic given seed (an int or a SeedSequence).
    Both arrays are allocated before the first draw, so a size too large for memory fails at once."""
    require_count(1, n=n)
    scores, labels = np.empty(n), np.empty(n, np.int64)
    for rows, block, positive in _oracle_blocks(spec, n, seed):
        scores[rows], labels[rows] = block, positive
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


def generate_xor(n: int, noise_sd: float = 0.3, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels): n rows of 2-D features from four Gaussian blobs at the corners
    (+-1, +-1), and int64 labels, 1 at the same-sign corners. Corner counts are allocated
    deterministically so the classes are balanced within one sample; row order is
    shuffled (seeded)."""
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
    return features[order], labels[order]
