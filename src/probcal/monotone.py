"""Monotone baseline calibrators: sigmoid (Platt) fitting and isotonic
regression as the greatest convex minorant of cumulative label counts.
"""

from __future__ import annotations

import numpy as np

from ._validation import check_iteration, class_counts, model_field, scored_pair, warn_unconverged
from .base import BaseCalibrator, _expit


def _newton(objective, derivatives, w: np.ndarray, max_iter: int, tol: float, what: str) -> tuple:
    """Minimize ``objective`` by damped Newton steps from ``w``.

    ``derivatives(w)`` returns the gradient and the Hessian. Each step is
    halved until it meets the Armijo condition, at most down to 2^-20. The
    fit stops once the gradient's max-norm is below ``tol`` or after
    ``max_iter`` steps, and the gradient is always checked at the point
    returned. Returns (w, iterations, gradient norm, converged), where
    iterations counts gradient evaluations, capped at ``max_iter``. A fit
    that does not converge warns as ``what``, at the line that called the
    function calling this one.
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
    n_iter, converged = min(iteration + 1, max_iter), gradient_norm < tol
    if not converged:
        warn_unconverged(what, n_iter, "gradient norm", gradient_norm, tol, stacklevel=3)
    return w, n_iter, gradient_norm, converged


_CHUNK_GROUPS = 1 << 14  # groups per chunk of the first pass of pool_adjacent_violators
_MAX_ROUNDS = 64  # vectorised rounds of _convex_minorant before its exact stack loop


def _convex_minorant(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Positions of the corners of the greatest convex minorant of the int64 points (w[i], k[i]),
    w increasing, the first and last included. Each round drops every interior point whose left
    slope, as an exact cross product, is at least its right slope: it lies on or above the chord
    of its neighbours, so it is no corner. After ``_MAX_ROUNDS`` rounds a stack scan ends the job.
    """
    corners = np.arange(w.size)
    for _ in range(_MAX_ROUNDS):
        dw, dk = np.diff(w[corners]), np.diff(k[corners])
        drop = dk[:-1] * dw[1:] >= dk[1:] * dw[:-1]
        if not drop.any():
            return corners
        corners = corners[np.concatenate(([True], ~drop, [True]))]
    hull = []  # positions of the corners so far
    for i in corners.tolist():
        while len(hull) > 1:
            a, b = hull[-2:]
            if (k[b] - k[a]) * (w[i] - w[b]) < (k[i] - k[b]) * (w[b] - w[a]):
                break
            hull.pop()
        hull.append(i)
    return np.array(hull, dtype=np.int64)


def pool_adjacent_violators(positives, counts) -> np.ndarray:
    """Least-squares non-decreasing fit of the rates positives / counts, weighted by counts.

    Group j holds counts[j] >= 1 labels, positives[j] of them 1, in score order. The fit is
    the slopes of the greatest convex minorant of the cumulative (count, positives) diagram
    (Barlow et al. 1972), found exactly: in chunks of ``_CHUNK_GROUPS`` groups, then over all
    chunks' corners (no corner of a chunk is one of the whole). Returns each group's value,
    its pooled block's positives / counts, correctly rounded.
    """
    k, w = np.asarray(positives), np.asarray(counts)
    integers = k.size == 0 or k.dtype.kind in "iu" and w.dtype.kind in "iu"
    if not (k.ndim == 1 and k.shape == w.shape and integers) or np.any(w < 1) or np.any((k < 0) | (k > w)):
        raise ValueError("need 1-D integer positives and counts of one length, 0 <= positives <= counts >= 1")
    if np.sum(w, dtype=np.float64) ** 2 >= 2.0**62:  # cross products of cumulative counts stay exact
        raise ValueError("total count is too large for exact int64 cross products")
    # corners as (cumulative count, cumulative positives, group index), starting at the origin
    corners = [(np.zeros(1, dtype=np.int64),) * 3]
    for lo in range(0, w.size, _CHUNK_GROUPS):
        w0, k0 = corners[-1][0][-1], corners[-1][1][-1]
        cw = np.concatenate(([w0], w0 + np.cumsum(w[lo : lo + _CHUNK_GROUPS], dtype=np.int64)))
        ck = np.concatenate(([k0], k0 + np.cumsum(k[lo : lo + _CHUNK_GROUPS], dtype=np.int64)))
        kept = _convex_minorant(cw, ck)[1:]
        corners.append((cw[kept], ck[kept], lo + kept))
    cw, ck, group = (np.concatenate(column) for column in zip(*corners))
    kept = _convex_minorant(cw, ck)
    return np.repeat(np.diff(ck[kept]) / np.diff(cw[kept]), np.diff(group[kept]))


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
        w, self.n_iter_, self.gradient_norm_, self.converged_ = _newton(
            objective, derivatives, start, self.max_iter, self.tol, "sigmoid fit"
        )
        self.slope_, self.intercept_ = float(w[0]), float(w[1])
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
        return model  # the file does not record convergence: converged_ stays None, unknown


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
        y, z = y[order], z[order]
        del order  # each temporary goes as soon as it is used: this fit sets `fit`'s peak memory
        start = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
        n, y = y.size, y[start]  # y: each group's score
        positives = np.add.reduceat(z, start)
        del z
        counts = np.empty_like(start)  # each group's size, with no concatenated copy of start
        np.subtract(start[1:], start[:-1], out=counts[:-1])
        counts[-1] = n - start[-1]
        del start
        self.breakpoints_, self.values_ = _compact(y, pool_adjacent_violators(positives, counts))
        return self

    def predict(self, scores):
        self._require_fitted("breakpoints_")
        queries, scalar = self._prepare_queries(scores)
        idx = np.searchsorted(self.breakpoints_, queries, side="right") - 1
        idx = np.clip(idx, 0, len(self.breakpoints_) - 1)
        return self._finish(self.values_[idx], scalar)

    def to_dict(self) -> dict:
        self._require_fitted("breakpoints_")
        return {"method": "isotonic", "breakpoints": self.breakpoints_.copy(), "values": self.values_.copy()}

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
