"""Monotone baseline calibrators: sigmoid (Platt) fitting and isotonic
regression by pooling adjacent violators.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._validation import check_iteration, class_counts, model_field, scored_pair
from .base import BaseCalibrator


def _expit(x):
    """scipy's ``expit``, imported on first use: scipy.special is most of probcal's import time."""
    from scipy.special import expit
    return expit(x)


def _newton(objective, derivatives, w: np.ndarray, max_iter: int, tol: float) -> tuple:
    """Minimize ``objective`` by damped Newton steps from ``w``.

    ``derivatives(w)`` returns the gradient and the Hessian. Each step is
    halved until it meets the Armijo condition, at most down to 2^-20. The
    fit stops once the gradient's max-norm is below ``tol`` or after
    ``max_iter`` steps, and the gradient is always checked at the point
    returned. Returns (w, iterations, gradient norm, converged), where
    iterations counts gradient evaluations, capped at ``max_iter``.
    """
    value = objective(w)
    for iteration in range(max_iter + 1):
        gradient, hessian = derivatives(w)
        gradient_norm = float(np.abs(gradient).max())
        if gradient_norm < tol or iteration == max_iter:
            break
        step = np.linalg.solve(hessian, gradient)
        descent = float(gradient @ step)
        stepsize = 1.0
        while stepsize >= 2.0**-20:
            if objective(w - stepsize * step) <= value - 1e-4 * stepsize * descent:
                break
            stepsize *= 0.5
        w = w - stepsize * step
        value = objective(w)
    return w, min(iteration + 1, max_iter), gradient_norm, gradient_norm < tol


def pool_adjacent_violators(values, weights=None) -> np.ndarray:
    """Weighted least-squares non-decreasing fit of a real sequence.

    Scans left to right keeping a stack of blocks; whenever the last block's
    mean drops below its predecessor's, the two merge into their weighted
    mean. Returns the fitted value at every input position. O(N).
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != y.shape:
            raise ValueError("weights must match values in length")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    # each block: [weighted sum, total weight, number of members]
    blocks: list[list[float]] = []
    for value, weight in zip(y, w):
        blocks.append([value * weight, weight, 1])
        while len(blocks) > 1:
            s1, w1, c1 = blocks[-2]
            s2, w2, c2 = blocks[-1]
            if s1 / w1 <= s2 / w2:
                break
            blocks.pop()
            blocks[-1] = [s1 + s2, w1 + w2, c1 + c2]
    out = np.empty_like(y)
    position = 0
    for s, w_total, count in blocks:
        out[position : position + count] = s / w_total
        position += count
    return out


def _compact(breakpoints: np.ndarray, values: np.ndarray) -> tuple:
    """Keep the first breakpoint and each where the value changes. The greatest kept
    breakpoint at or below a query starts the run of equal values that holds the
    greatest original one, so no lookup changes."""
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    return breakpoints[keep], values[keep]


class PlattCalibrator(BaseCalibrator):
    """Two-parameter sigmoid map p(f) = 1 / (1 + exp(slope * f + intercept)).

    Fitting minimizes the negative log-likelihood with the smoothed targets
    (m+1)/(m+2) for positives and 1/(n+2) for negatives, which regularizes
    the estimate away from hard 0/1 fits. Newton iterations with a
    backtracking line search; starts at slope 0, intercept log((n+1)/(m+1)).
    Non-convergence is reported as a warning, never silently.
    """

    def __init__(self, max_iter: int = 200, tol: float = 1e-8):
        self.max_iter = max_iter
        self.tol = tol
        self.slope_ = None
        self.intercept_ = None
        self.converged_ = None
        self.n_iter_ = None
        self.gradient_norm_ = None

    def fit(self, scores, labels) -> "PlattCalibrator":
        check_iteration(self.max_iter, self.tol)
        f, z = scored_pair(scores, labels)
        _, m, n_neg = class_counts(z)
        if m == 0 or n_neg == 0:
            raise ValueError("sigmoid fitting needs both classes present")

        target = np.where(z == 1, (m + 1.0) / (m + 2.0), 1.0 / (n_neg + 2.0))

        def objective(w):
            s = w[0] * f + w[1]
            # stable form of -sum t*log(p) + (1-t)*log(1-p) with p = expit(-s)
            return float(
                np.sum(np.where(s >= 0, target * s, (target - 1.0) * s))
                + np.sum(np.log1p(np.exp(-np.abs(s))))
            )

        def derivatives(w):
            p = _expit(-(w[0] * f + w[1]))
            d = target - p
            c = p * (1.0 - p)
            cross = np.dot(c, f)
            hessian = np.array([[np.dot(c, f * f) + 1e-12, cross], [cross, c.sum() + 1e-12]])
            return np.array([np.dot(d, f), d.sum()]), hessian

        start = np.array([0.0, np.log((n_neg + 1.0) / (m + 1.0))])
        w, iteration, gradient_norm, converged = _newton(
            objective, derivatives, start, self.max_iter, self.tol
        )
        if not converged:
            warnings.warn(
                f"sigmoid fit stopped after {iteration} iterations with "
                f"gradient norm {gradient_norm:.3e} (tol {self.tol:.1e})",
                RuntimeWarning,
                stacklevel=2,
            )

        self.slope_ = float(w[0])
        self.intercept_ = float(w[1])
        self.converged_ = converged
        self.n_iter_ = iteration
        self.gradient_norm_ = gradient_norm
        return self

    def predict(self, scores):
        self._require_fitted("slope_")
        queries, scalar = self._prepare_queries(scores)
        return self._finish(_expit(-(self.slope_ * queries + self.intercept_)), scalar)

    def to_dict(self) -> dict:
        self._require_fitted("slope_")
        return {"method": "platt", "A": self.slope_, "B": self.intercept_}

    def describe(self) -> str:
        self._require_fitted("slope_")
        return (
            f"slope: {self.slope_:.6g}  intercept: {self.intercept_:.6g}  "
            f"converged: {self.converged_}"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "PlattCalibrator":
        model = cls()
        model.slope_ = float(model_field(payload, "A"))
        model.intercept_ = float(model_field(payload, "B"))
        # the file does not record convergence; None means unknown
        model.converged_ = None
        return model


class IsotonicCalibrator(BaseCalibrator):
    """Step-function calibrator fitted by isotonic least squares.

    Training scores are sorted; exact ties are pooled into one weighted
    point with the mean label before the monotone fit, so the result is a
    well-defined function of the score. Prediction looks up the value of
    the greatest breakpoint at or below the query (clamping at both ends,
    no interpolation). Only the breakpoints where the value rises are kept.
    """

    def __init__(self):
        self.breakpoints_ = None
        self.values_ = None

    def fit(self, scores, labels) -> "IsotonicCalibrator":
        y, z = scored_pair(scores, labels)
        if y.size == 0:
            raise ValueError("need at least one sample")
        order = np.argsort(y, kind="stable")
        distinct, start = np.unique(y[order], return_index=True)
        weights = np.diff(np.append(start, y.size)).astype(np.float64)
        means = np.add.reduceat(z[order].astype(np.float64), start) / weights
        self.breakpoints_, self.values_ = _compact(distinct, pool_adjacent_violators(means, weights))
        return self

    def predict(self, scores):
        self._require_fitted("breakpoints_")
        queries, scalar = self._prepare_queries(scores)
        idx = np.searchsorted(self.breakpoints_, queries, side="right") - 1
        idx = np.clip(idx, 0, len(self.breakpoints_) - 1)
        return self._finish(self.values_[idx], scalar)

    def to_dict(self) -> dict:
        self._require_fitted("breakpoints_")
        return {
            "method": "isotonic",
            "breakpoints": [float(x) for x in self.breakpoints_],
            "values": [float(v) for v in self.values_],
        }

    def describe(self) -> str:
        self._require_fitted("breakpoints_")
        return f"breakpoints: {len(self.breakpoints_)}"

    @classmethod
    def from_dict(cls, payload: dict) -> "IsotonicCalibrator":
        breakpoints = model_field(payload, "breakpoints", 1, 0.0, 1.0)
        values = model_field(payload, "values", 1, 0.0, 1.0)
        if not breakpoints.size == values.size > 0:
            raise ValueError("isotonic model needs as many values as breakpoints, at least one")
        if np.any(np.diff(breakpoints) <= 0) or np.any(np.diff(values) < 0):
            raise ValueError("isotonic breakpoints must increase and values must not decrease")
        model = cls()
        model.breakpoints_, model.values_ = _compact(breakpoints, values)
        return model
