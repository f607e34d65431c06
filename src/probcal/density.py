"""Density-ratio calibrators.

Both calibrators here estimate the class-conditional densities of the
score and combine them with the class priors through the posterior ratio

    p(x) = prior * q1(x) / (prior * q1(x) + (1 - prior) * q0(x)).

``KDECalibrator`` estimates q1/q0 by boxcar kernel density estimation with
per-class Silverman bandwidths; ``DPMCalibrator`` fits a truncated
stick-breaking mixture of Gaussians per class by coordinate-ascent
variational inference and uses its posterior-predictive density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._validation import (
    check_iteration, class_counts, model_field, require_count, scored_pair, warn_unconverged
)
from .base import BaseCalibrator

_SILVERMAN_FLOOR = 1e-3
_BLOCK_QUERIES = 1 << 14  # queries per block of KDECalibrator.predict


def _special():
    """``scipy.special``, imported on first use: it is most of probcal's import time."""
    import scipy.special
    return scipy.special


def silverman_bandwidth(scores) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd * count^(-1/5).

    Uses the unbiased standard deviation of the given scores. Identical
    scores would give bandwidth zero, which breaks the kernel sums, so a
    floor of 1e-3 applies in that case.
    """
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if x.size < 2:
        raise ValueError(f"bandwidth needs at least 2 scores, got {x.size}")
    if x.max() == x.min():
        # identical scores: the true sd is 0 even if np.std rounds above it
        return _SILVERMAN_FLOOR
    sd = float(np.std(x, ddof=1))
    h = 1.06 * sd * x.size ** (-0.2)
    return h if h > 0.0 else _SILVERMAN_FLOOR


def _positive_field(payload, key: str) -> float:
    """A model file's number that a fit always makes > 0."""
    value = float(model_field(payload, key, low=0.0))
    if value == 0.0:
        raise ValueError(f"model field {key!r} must be > 0, got 0")
    return value


def _two_per_class(labels: np.ndarray) -> tuple[int, int, int]:
    """``class_counts(labels)``, checked to hold at least 2 samples of each class."""
    total, m, n_neg = class_counts(labels)
    if m < 2 or n_neg < 2:
        raise ValueError(f"each class needs at least 2 samples, got {m} positive / {n_neg} negative")
    return total, m, n_neg


def _posterior_ratio(numerator: np.ndarray, other: np.ndarray, fallback: float) -> np.ndarray:
    """numerator / (numerator + other), or ``fallback`` where that sum is 0."""
    denominator = numerator + other
    positive = denominator > 0.0
    return np.where(positive, numerator / np.where(positive, denominator, 1.0), fallback)


class KDECalibrator(BaseCalibrator):
    """Boxcar-kernel density-ratio calibrator.

    The kernel K(u) = 1/2 on |u| <= 1 (boundary included) and 0 elsewhere.
    With S+ the kernel sum over positive training scores at bandwidth h1
    and S- over negatives at h0, the calibrated probability is

        p(x) = h0 * S+ / (h0 * S+ + h1 * S-)

    which is what Bayes' rule gives for KDE class-conditional densities
    with priors m/N, n/N, and reduces to the Nadaraya-Watson estimator
    S+/(S+ + S-) when the bandwidths are shared. An empty window
    (S+ = S- = 0) falls back to the positive-class prior.
    """

    def __init__(self, shared_bandwidth: bool = False):
        self.shared_bandwidth = shared_bandwidth
        self.positives_ = None
        self.negatives_ = None
        self.bandwidth_pos_ = None
        self.bandwidth_neg_ = None
        self.prior_ = None

    def fit(self, scores, labels) -> "KDECalibrator":
        y, z = scored_pair(scores, labels)
        total, m, n_neg = _two_per_class(z)
        positives = np.sort(y[z == 1])
        negatives = np.sort(y[z == 0])
        if self.shared_bandwidth:
            h1 = h0 = silverman_bandwidth(y)
        else:
            h1 = silverman_bandwidth(positives)
            h0 = silverman_bandwidth(negatives)
        self.positives_ = positives
        self.negatives_ = negatives
        self.bandwidth_pos_ = h1
        self.bandwidth_neg_ = h0
        self.prior_ = m / total
        return self

    @staticmethod
    def _kernel_sum(sorted_points: np.ndarray, queries: np.ndarray, bandwidth: float) -> np.ndarray:
        # boxcar: 1/2 per training point within [x - h, x + h], both ends included
        lo = np.searchsorted(sorted_points, queries - bandwidth, side="left")
        hi = np.searchsorted(sorted_points, queries + bandwidth, side="right")
        return 0.5 * (hi - lo)

    def predict(self, scores):
        self._require_fitted("positives_")
        queries, scalar = self._prepare_queries(scores)
        out = np.empty_like(queries)
        for start in range(0, queries.size, _BLOCK_QUERIES):
            block = queries[start : start + _BLOCK_QUERIES]
            # searchsorted is cheaper on sorted queries; the sums go back to query order
            order = np.argsort(block, kind="stable")
            ordered = block[order]
            s_pos, s_neg = np.empty((2, block.size))
            s_pos[order] = self._kernel_sum(self.positives_, ordered, self.bandwidth_pos_)
            s_neg[order] = self._kernel_sum(self.negatives_, ordered, self.bandwidth_neg_)
            out[start : start + block.size] = _posterior_ratio(
                self.bandwidth_neg_ * s_pos, self.bandwidth_pos_ * s_neg, self.prior_
            )
        return self._finish(out, scalar)

    def to_dict(self) -> dict:
        self._require_fitted("positives_")
        return {
            "method": "kde",
            "form": "bayes",
            "shared_bandwidth": bool(self.shared_bandwidth),
            "positives": self.positives_.copy(),
            "negatives": self.negatives_.copy(),
            "h0": float(self.bandwidth_neg_),
            "h1": float(self.bandwidth_pos_),
            "prior": float(self.prior_),
        }

    def describe(self) -> str:
        self._require_fitted("positives_")
        return (
            f"bandwidths: h1={self.bandwidth_pos_:.6g} h0={self.bandwidth_neg_:.6g}  "
            f"prior: {self.prior_:.6g}"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "KDECalibrator":
        if payload.get("form", "bayes") != "bayes":
            raise ValueError(f"unknown KDE form {payload['form']!r}; only 'bayes' is supported")
        model = cls(shared_bandwidth=bool(payload.get("shared_bandwidth", False)))
        model.positives_ = np.sort(model_field(payload, "positives", 1, 0.0, 1.0))
        model.negatives_ = np.sort(model_field(payload, "negatives", 1, 0.0, 1.0))
        model.bandwidth_neg_ = _positive_field(payload, "h0")
        model.bandwidth_pos_ = _positive_field(payload, "h1")
        model.prior_ = float(model_field(payload, "prior", low=0.0, high=1.0))
        return model


@dataclass
class StickBreakingPosterior:
    """Variational posterior for one class's mixture density.

    Sticks hold the Beta(gamma1, gamma2) parameters for components
    1..T-1 (the last stick is fixed at 1 by truncation). Components hold
    Normal-Gamma posterior rows (mean, precision_scale, shape, rate). The
    posterior predictive is the expected-stick-weight mixture of the
    Student-t predictive of each component.
    """

    sticks: np.ndarray          # (T-1, 2)
    components: np.ndarray      # (T, 4): mean, precision_scale, shape, rate
    elbo: float
    elbo_history: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False

    def expected_weights(self) -> np.ndarray:
        g1, g2 = self.sticks.T
        ev = g1 / (g1 + g2)
        # the stick left before each break; cumprod multiplies in order
        remaining = np.cumprod(np.r_[1.0, 1.0 - ev])
        return remaining * np.r_[ev, 1.0]

    def density(self, x: np.ndarray) -> np.ndarray:
        mean = self.components[:, 0]
        kappa = self.components[:, 1]
        shape = self.components[:, 2]
        rate = self.components[:, 3]
        df = 2.0 * shape
        scale = np.sqrt(rate * (kappa + 1.0) / (shape * kappa))
        # Student-t pdf in the same arithmetic as scipy's t distribution, so
        # predictions keep their bits
        u = (np.asarray(x)[:, None] - mean) / scale
        log_norm = np.log(_special().poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
        pdf = np.exp(log_norm - (df + 1) / 2 * np.log1p(u * u / df)) / scale
        return pdf @ self.expected_weights()


def _fit_class_mixture(
    x: np.ndarray,
    truncation: int,
    alpha: float,
    max_iter: int,
    tol: float,
    rng: np.random.Generator,
) -> StickBreakingPosterior:
    special = _special()
    n = x.size
    mu0 = float(np.mean(x))
    kappa0 = 0.1
    a0 = 1.0
    # rate from the sample variance; floored so constant data stays proper
    b0 = max(float(np.var(x, ddof=1)), 1e-6)
    log_2pi = np.log(2.0 * np.pi)

    phi = rng.dirichlet(np.ones(truncation), size=n)
    # every sweep writes into these buffers; each reduction keeps the call and the
    # contiguous shape it has on fresh arrays, so its summation order is unchanged
    log_lik, work = np.empty_like(phi), np.empty_like(phi)
    row_max, row_sum = np.empty((n, 1)), np.empty((n, 1))

    x2 = x * x
    gamma = np.empty((truncation - 1, 2))  # (0, 2) at truncation 1: every stick sum is 0
    elbo_history: list[float] = []
    previous = -np.inf
    converged = False
    iteration = 0

    for iteration in range(1, max_iter + 1):
        # global updates from the responsibilities
        counts = phi.sum(axis=0)
        sum_x = phi.T @ x
        sum_x2 = phi.T @ x2
        xbar = np.where(counts > 0, sum_x / np.maximum(counts, 1e-300), 0.0)
        scatter = np.maximum(sum_x2 - counts * xbar * xbar, 0.0)

        tail = np.concatenate([np.cumsum(counts[::-1])[-2::-1], [0.0]])
        gamma[:, 0] = 1.0 + counts[:-1]
        gamma[:, 1] = alpha + tail[:-1]
        kq = kappa0 + counts
        mq = (kappa0 * mu0 + sum_x) / kq
        aq = a0 + 0.5 * counts
        bq = b0 + 0.5 * (scatter + kappa0 * counts * (xbar - mu0) ** 2 / kq)

        # responsibility update from the globals
        digamma_total = special.digamma(gamma[:, 0] + gamma[:, 1])
        e_log_v = special.digamma(gamma[:, 0]) - digamma_total
        e_log_1mv = special.digamma(gamma[:, 1]) - digamma_total
        e_log_pi = np.concatenate([e_log_v, [0.0]])
        e_log_pi[1:] += np.cumsum(e_log_1mv)
        e_lambda = aq / bq
        e_log_lambda = special.digamma(aq) - np.log(bq)
        # log_lik = e_log_pi + 0.5 e_log_lambda - 0.5 log 2pi - 0.5 (e_lambda (x - mq)^2 + 1/kq),
        # the last 0.5 moved onto the T-long terms: scaling by 0.5 is exact away from subnormals
        np.square(np.subtract(x[:, None], mq, out=work), out=work)
        np.add(np.multiply(work, 0.5 * e_lambda, out=work), 0.5 / kq, out=work)
        np.subtract(e_log_pi + 0.5 * e_log_lambda - 0.5 * log_2pi, work, out=log_lik)
        # the row max as a running maximum over the columns: max does not depend on order
        np.copyto(row_max, log_lik[:, :1])
        for t in range(1, truncation):
            np.maximum(row_max, log_lik[:, t : t + 1], out=row_max)
        np.exp(np.subtract(log_lik, row_max, out=phi), out=phi)
        np.divide(phi, phi.sum(axis=1, keepdims=True, out=row_sum), out=phi)

        # evidence lower bound with all parameters current
        data_term = float(np.sum(np.multiply(phi, log_lik, out=work)))
        np.log(np.maximum(phi, 1e-300, out=work), out=work)
        entropy = -float(np.sum(np.multiply(phi, work, out=work)))
        stick_prior = float(np.sum(np.log(alpha) + (alpha - 1.0) * e_log_1mv))
        stick_q = float(
            np.sum(
                -special.betaln(gamma[:, 0], gamma[:, 1])
                + (gamma[:, 0] - 1.0) * e_log_v
                + (gamma[:, 1] - 1.0) * e_log_1mv
            )
        )
        e_lambda_dev0 = e_lambda * (mq - mu0) ** 2 + 1.0 / kq
        component_prior = float(
            np.sum(
                0.5 * (np.log(kappa0) - log_2pi)
                + 0.5 * e_log_lambda
                - 0.5 * kappa0 * e_lambda_dev0
                + a0 * np.log(b0)
                - special.gammaln(a0)
                + (a0 - 1.0) * e_log_lambda
                - b0 * e_lambda
            )
        )
        component_q = float(
            np.sum(
                0.5 * (np.log(kq) - log_2pi)
                - 0.5
                + aq * np.log(bq)
                - special.gammaln(aq)
                + (aq - 0.5) * e_log_lambda
                - aq
            )
        )
        elbo = data_term + entropy + stick_prior - stick_q + component_prior - component_q
        if not np.isfinite(elbo):
            raise RuntimeError(f"evidence lower bound became non-finite at iteration {iteration}")
        elbo_history.append(elbo)
        if elbo - previous < tol and iteration > 1:
            converged = True
            break
        previous = elbo

    components = np.column_stack([mq, kq, aq, bq])
    return StickBreakingPosterior(
        sticks=gamma.copy(),
        components=components,
        elbo=elbo_history[-1],
        elbo_history=elbo_history,
        n_iter=iteration,
        converged=converged,
    )


class DPMCalibrator(BaseCalibrator):
    """Stick-breaking mixture calibrator fitted per class.

    Each class's score density is modeled as a truncated Dirichlet-process
    mixture of Gaussians with a Normal-Gamma base measure and fitted by
    coordinate-ascent variational inference. Responsibilities start from a
    seeded random assignment, so fits are reproducible bit for bit given
    the seed. The two classes are fitted at the same time on two threads,
    each from its own stream, and give the bits of a serial fit. Fitting
    stops when the evidence lower bound improves by less than ``tol`` or
    after ``max_iter`` sweeps. The truncation is an integer and may not
    exceed the smaller class size: more components than samples add
    nothing, and each class holds three class size x truncation arrays.

    Prediction plugs the two posterior-predictive densities into the
    posterior ratio with the empirical positive prior; if both densities
    underflow to zero the prior is returned.
    """

    def __init__(
        self,
        truncation: int = 20,
        alpha: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-6,
        seed: int = 0,
    ):
        self.truncation = truncation
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.positive_ = None
        self.negative_ = None
        self.prior_ = None

    def fit(self, scores, labels) -> "DPMCalibrator":
        require_count(1, truncation=self.truncation)
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        check_iteration(self.max_iter, self.tol)
        y, z = scored_pair(scores, labels)
        total, m, n_neg = _two_per_class(z)
        if self.truncation > min(m, n_neg):
            raise ValueError(
                f"truncation must not exceed the smaller class size, got {self.truncation} "
                f"for {m} positive / {n_neg} negative"
            )
        from concurrent.futures import ThreadPoolExecutor

        _special()  # imported here, not by both workers at once
        streams = map(np.random.default_rng, np.random.SeedSequence(self.seed).spawn(2))
        # one thread per class; numpy releases the interpreter lock in the n x T steps
        with ThreadPoolExecutor(max_workers=2) as pool:
            fits = [
                pool.submit(_fit_class_mixture, y[z == label], self.truncation, self.alpha,
                            self.max_iter, self.tol, rng)
                for label, rng in zip((1, 0), streams)
            ]
        # results in class order, so a failure surfaces as the serial loop raised it
        self.positive_, self.negative_ = (fit.result() for fit in fits)
        for name, posterior in (("positive", self.positive_), ("negative", self.negative_)):
            if not posterior.converged:
                history = posterior.elbo_history  # one sweep measures no change
                change = history[-1] - history[-2] if len(history) > 1 else None
                what = f"dpm fit of the {name} class"
                warn_unconverged(what, posterior.n_iter, "ELBO change", change, self.tol, stacklevel=2)
        self.prior_ = m / total
        return self

    def predict(self, scores):
        self._require_fitted("positive_")
        queries, scalar = self._prepare_queries(scores)
        q1 = self.positive_.density(queries)
        q0 = self.negative_.density(queries)
        out = _posterior_ratio(self.prior_ * q1, (1.0 - self.prior_) * q0, self.prior_)
        return self._finish(out, scalar)

    @staticmethod
    def _class_payload(posterior: StickBreakingPosterior) -> dict:
        return {
            "sticks": [[float(a), float(b)] for a, b in posterior.sticks],
            "components": [[float(v) for v in row] for row in posterior.components],
            "elbo": float(posterior.elbo),
        }

    def to_dict(self) -> dict:
        self._require_fitted("positive_")
        return {
            "method": "dpm",
            "truncation": int(self.truncation),
            "alpha": float(self.alpha),
            "prior": float(self.prior_),
            "positive": self._class_payload(self.positive_),
            "negative": self._class_payload(self.negative_),
        }

    def describe(self) -> str:
        self._require_fitted("positive_")
        return (
            f"truncation: {self.truncation}  alpha: {self.alpha:g}  "
            f"elbo: {self.positive_.elbo:.6g} / {self.negative_.elbo:.6g}"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "DPMCalibrator":
        truncation = int(model_field(payload, "truncation", low=1, integer=True))
        model = cls(truncation=truncation, alpha=_positive_field(payload, "alpha"))

        def rebuild(key: str) -> StickBreakingPosterior:
            part = payload.get(key)
            sticks = model_field(part, "sticks", None, low=0.0)
            sticks = sticks.reshape(0, 2) if sticks.size == 0 else sticks  # truncation 1
            components = model_field(part, "components", 2)
            # Beta parameters and kappa, shape, rate must be positive for the density
            if (
                sticks.shape != (truncation - 1, 2)
                or components.shape != (truncation, 4)
                or np.any(sticks <= 0)
                or np.any(components[:, 1:] <= 0)
            ):
                raise ValueError(f"dpm {key} posterior does not fit truncation {truncation}")
            return StickBreakingPosterior(
                sticks=sticks, components=components, elbo=float(model_field(part, "elbo"))
            )

        model.positive_ = rebuild("positive")
        model.negative_ = rebuild("negative")
        model.prior_ = float(model_field(payload, "prior", low=0.0, high=1.0))
        return model
