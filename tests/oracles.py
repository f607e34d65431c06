"""Slow reference implementations used to check the library from the outside.

Everything here recomputes a quantity from its definition (pair counts,
exhaustive search, quadrature, explicit density formulas) without reusing
the library's vectorized code paths. ``fit_logistic`` is the XOR examples'
base classifier, which the library does not ship.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import expit


def auc_by_pair_enumeration(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def twice_u_by_class_search(scores, labels) -> int:
    """Twice the Mann-Whitney U (2 * wins + ties) from sorted copies of each class and a binary search
    per positive: 2 * (#negatives below) + (#negatives tied). The library's count before it read 2U
    from one sort of labelled keys; only a positive that ties a negative takes the second search."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    neg, pos = np.sort(scores[labels == 0]), np.sort(scores[labels == 1])
    below = np.searchsorted(neg, pos)
    tied = neg.take(below, mode="clip") == pos
    return int(2 * below.sum() - below[tied].sum() + np.searchsorted(neg, pos[tied], "right").sum())


def fit_logistic(features, labels, feature_map: str = "linear"):
    """Ridge logistic regression (penalty 1e-4, intercept free) by Newton steps halved until the
    loss falls: the base learner of the XOR examples. ``feature_map`` "quadratic" appends every
    degree-2 monomial. Returns the score function from feature rows to probabilities."""
    if feature_map not in ("linear", "quadratic"):
        raise ValueError(f"feature_map must be 'linear' or 'quadratic', got {feature_map!r}")

    def expand(features):
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        pairs = itertools.combinations_with_replacement(range(x.shape[1]), 2) if feature_map == "quadratic" else ()
        return np.column_stack([np.ones(len(x)), x, *(x[:, i] * x[:, j] for i, j in pairs)])

    x, z = expand(features), np.asarray(labels, dtype=np.float64)
    penalty = np.r_[0.0, np.full(x.shape[1] - 1, 1e-4)]
    loss = lambda w: np.logaddexp(0.0, x @ w).sum() - z @ (x @ w) + 0.5 * penalty @ (w * w)
    w = np.zeros(x.shape[1])
    for _ in range(100):
        p = expit(x @ w)
        gradient = x.T @ (p - z) + penalty * w
        if np.abs(gradient).max() < 1e-8:
            break
        step = np.linalg.solve((x * (p * (1.0 - p))[:, None]).T @ x + np.diag(penalty + 1e-12), gradient)
        halving, current = 1.0, loss(w)
        while loss(w - halving * step) > current and halving > 1e-6:
            halving /= 2.0
        w = w - halving * step
    return lambda features: expit(expand(features) @ w)


def isotonic_by_exhaustion(values, weights=None) -> np.ndarray:
    """Best non-decreasing fit by searching every consecutive-block partition.

    The least-squares monotone fit is piecewise constant with each level
    equal to its block's weighted mean, so trying all 2^(n-1) ways to cut
    the sequence into blocks and keeping the feasible fit with the smallest
    weighted squared error finds the optimum. Only usable for small n.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=np.float64)
    n = v.size
    if n == 0:
        return v.copy()
    best_fit = None
    best_err = math.inf
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
        means = []
        feasible = True
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mean = float(np.average(v[lo:hi], weights=w[lo:hi]))
            if means and mean < means[-1]:
                feasible = False
                break
            means.append(mean)
        if not feasible:
            continue
        fit = np.concatenate(
            [np.full(hi - lo, mean) for (lo, hi), mean in zip(zip(bounds[:-1], bounds[1:]), means)]
        )
        err = float(np.sum(w * (v - fit) ** 2))
        if err < best_err:
            best_err = err
            best_fit = fit
    return best_fit


def pool_adjacent_violators_float(values, weights=None) -> np.ndarray:
    """Weighted least-squares non-decreasing fit of a real sequence, in float arithmetic.

    Scans left to right keeping a stack of blocks; whenever the last block's
    mean drops below its predecessor's, the two merge into their weighted
    mean. Returns the fitted value at every input position. O(N). This was the
    library's ``pool_adjacent_violators`` before it took integer counts; a
    pooled mean can be an ulp off the exact one.
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


def isotonic_by_fractions(positives, counts) -> list:
    """The isotonic fit of the rates positives / counts, weighted by counts, as exact
    ``Fraction`` values, one per group: pool adjacent violators in rational arithmetic."""
    blocks: list[list] = []  # [positives, count, number of groups]
    for k, w in zip(positives, counts):
        blocks.append([int(k), int(w), 1])
        while len(blocks) > 1 and Fraction(blocks[-2][0], blocks[-2][1]) > Fraction(blocks[-1][0], blocks[-1][1]):
            k2, w2, c2 = blocks.pop()
            blocks[-1] = [blocks[-1][0] + k2, blocks[-1][1] + w2, blocks[-1][2] + c2]
    return [Fraction(k, w) for k, w, c in blocks for _ in range(c)]


def isotonic_full_breakpoints(scores, labels) -> tuple:
    """The isotonic fit with a breakpoint at every distinct training score.

    Groups the labels by score, then pools adjacent violators over the
    positives and count of each distinct score with the library's
    ``pool_adjacent_violators`` (itself checked against exhaustive search and
    exact rational pooling). Returns (breakpoints, values), one entry per
    distinct score.
    """
    from probcal.monotone import pool_adjacent_violators

    groups: dict[float, list[int]] = {}
    for score, label in zip(scores, labels):
        groups.setdefault(float(score), []).append(int(label))
    breakpoints = sorted(groups)
    positives = [sum(groups[b]) for b in breakpoints]
    counts = [len(groups[b]) for b in breakpoints]
    return np.array(breakpoints), pool_adjacent_violators(positives, counts)


def step_lookup(breakpoints, values, queries) -> np.ndarray:
    """Value of the greatest breakpoint at or below each query, the first below them all."""
    points = [float(b) for b in breakpoints]
    return np.array([values[max(bisect.bisect_right(points, float(q)) - 1, 0)] for q in queries])


def nadaraya_watson_direct(pos_scores, neg_scores, query, bandwidth) -> float:
    """Posterior from raw boxcar kernel sums over both classes together."""

    def weight(x):
        return 0.5 if abs(query - x) <= bandwidth else 0.0

    s_pos = sum(weight(x) for x in pos_scores)
    s_neg = sum(weight(x) for x in neg_scores)
    if s_pos + s_neg == 0.0:
        return len(pos_scores) / (len(pos_scores) + len(neg_scores))
    return s_pos / (s_pos + s_neg)


def bin_rate_by_quadrature(curve, lo: float, hi: float) -> float:
    """Average of a conditional-probability curve over one bin."""
    value, _ = quad(curve, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value / (hi - lo)


def student_t_density_direct(x, df, loc, scale) -> float:
    """Location-scale Student-t density from the textbook formula."""
    z = (x - loc) / scale
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
    )
    return math.exp(log_norm - ((df + 1.0) / 2.0) * math.log1p(z * z / df))


def ece_by_definition(predictions, labels, bin_of) -> float:
    """Weighted reliability gap computed by explicit grouping.

    ``bin_of`` maps a sample index to its bin id; empty bins never appear.
    """
    groups: dict[int, list[int]] = {}
    for i in range(len(predictions)):
        groups.setdefault(bin_of(i), []).append(i)
    n = len(predictions)
    total = 0.0
    for members in groups.values():
        mean_pred = sum(predictions[i] for i in members) / len(members)
        frac_pos = sum(labels[i] for i in members) / len(members)
        total += (len(members) / n) * abs(frac_pos - mean_pred)
    return total


def plug_in_estimate(scores, labels, calibrator, query):
    """Calibrated probability via priors times histogram likelihoods.

    Evaluates prior(z) * density(score | z) for both classes, with the
    class-conditional densities estimated by histograms over the fitted
    calibrator's bin edges, and returns the posterior for class 1. All
    arithmetic is exact (rational), so the result is the correctly rounded
    value of the ratio; algebraically it reduces to positives/count of the
    query's bin, which is what predict returns.

    Bins are right-open with the last closed at 1. A query in an empty bin
    is answered from the nearest nonempty bin (ties to the lower one),
    since both class likelihoods vanish there. Returns an array, one
    estimate per entry of the 1-D ``query``.
    """
    edges = [float(e) for e in calibrator.edges_]
    n_bins = len(edges) - 1

    def bin_of(value):
        return min(max(bisect.bisect_right(edges, float(value)) - 1, 0), n_bins - 1)

    total = [0] * n_bins
    positive = [0] * n_bins
    for score, label in zip(scores, labels):
        j = bin_of(score)
        total[j] += 1
        positive[j] += int(label)
    m = sum(positive)
    n_neg = len(scores) - m
    if m == 0 or n_neg == 0:
        raise ValueError("plug-in estimate needs both classes present")
    nonempty = [j for j in range(n_bins) if total[j] > 0]

    def estimate(value):
        j = bin_of(value)
        j = min(nonempty, key=lambda k: (abs(k - j), k))
        width = Fraction(edges[j + 1]) - Fraction(edges[j])
        numerator = Fraction(m, len(scores)) * (Fraction(positive[j], m) / width)
        alternative = Fraction(n_neg, len(scores)) * (Fraction(total[j] - positive[j], n_neg) / width)
        return float(numerator / (numerator + alternative))

    return np.array([estimate(q) for q in np.asarray(query)], dtype=np.float64)


def expected_weights_by_loop(sticks) -> np.ndarray:
    """Expected stick-breaking weights, one stick at a time.

    Weight k is E[v_k] times the stick left after the first k breaks; the
    last component takes what remains. ``sticks`` holds the Beta(g1, g2)
    rows of the first T-1 components.
    """
    sticks = np.asarray(sticks, dtype=np.float64).reshape(-1, 2)
    t_count = sticks.shape[0] + 1
    weights = np.empty(t_count)
    remaining = 1.0
    for idx in range(t_count - 1):
        g1, g2 = sticks[idx]
        ev = g1 / (g1 + g2)
        weights[idx] = remaining * ev
        remaining *= 1.0 - ev
    weights[t_count - 1] = remaining
    return weights



def dpm_sweeps_with_temporaries(x, truncation, alpha, max_iter, tol, rng):
    """One class's stick-breaking mixture fit, each sweep building fresh T x n arrays.

    The arithmetic of the library's ``density._fit_class_mixture`` without its
    preallocated buffers, so the library must match it bit for bit:
    responsibilities are component-major, the sums over samples are numpy
    reductions, and the ELBO's data term plus entropy is sum(row max + log row
    sum). It takes the library's own digamma and log-gamma, one digamma call
    per argument where the library batches them.
    """
    from probcal.base import _digamma, _gammaln
    from probcal.density import StickBreakingPosterior

    n = x.size
    mu0 = float(np.mean(x))
    kappa0 = 0.1
    a0 = 1.0
    b0 = max(float(np.var(x, ddof=1)), 1e-6)
    log_2pi = np.log(2.0 * np.pi)

    # in C order, as the library holds it: how a sum over an axis rounds follows the layout
    phi = rng.dirichlet(np.ones(truncation), size=n).T.copy()

    x2 = x * x
    gamma = np.empty((truncation - 1, 2))
    elbo_history = []
    previous = -np.inf
    converged = False
    iteration = 0

    for iteration in range(1, max_iter + 1):
        counts = phi.sum(axis=1)
        sum_x = (phi * x).sum(axis=1)
        sum_x2 = (phi * x2).sum(axis=1)
        xbar = np.where(counts > 0, sum_x / np.maximum(counts, 1e-300), 0.0)
        scatter = np.maximum(sum_x2 - counts * xbar * xbar, 0.0)

        tail = np.concatenate([np.cumsum(counts[::-1])[-2::-1], [0.0]])
        gamma[:, 0] = 1.0 + counts[:-1]
        gamma[:, 1] = alpha + tail[:-1]
        kq = kappa0 + counts
        mq = (kappa0 * mu0 + sum_x) / kq
        aq = a0 + 0.5 * counts
        bq = b0 + 0.5 * (scatter + kappa0 * counts * (xbar - mu0) ** 2 / kq)

        digamma_total = _digamma(gamma[:, 0] + gamma[:, 1])
        e_log_v = _digamma(gamma[:, 0]) - digamma_total
        e_log_1mv = _digamma(gamma[:, 1]) - digamma_total
        e_log_pi = np.concatenate([e_log_v, [0.0]])
        e_log_pi[1:] += np.cumsum(e_log_1mv)
        e_lambda = aq / bq
        e_log_lambda = _digamma(aq) - np.log(bq)
        constant = e_log_pi + 0.5 * e_log_lambda - 0.5 * log_2pi - 0.5 / kq
        log_lik = constant[:, None] - (0.5 * e_lambda)[:, None] * (x - mq[:, None]) ** 2
        row_max = log_lik.max(axis=0)
        phi = np.exp(log_lik - row_max)
        row_sum = phi.sum(axis=0)
        phi = phi / row_sum

        likelihood = float(np.sum(row_max + np.log(row_sum)))
        stick_prior = float(np.sum(np.log(alpha) + (alpha - 1.0) * e_log_1mv))
        log_beta = _gammaln(gamma[:, 0]) + _gammaln(gamma[:, 1]) - _gammaln(gamma[:, 0] + gamma[:, 1])
        stick_q = float(
            np.sum(
                -log_beta
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
                - math.lgamma(a0)
                + (a0 - 1.0) * e_log_lambda
                - b0 * e_lambda
            )
        )
        component_q = float(
            np.sum(
                0.5 * (np.log(kq) - log_2pi)
                - 0.5
                + aq * np.log(bq)
                - _gammaln(aq)
                + (aq - 0.5) * e_log_lambda
                - aq
            )
        )
        elbo = likelihood + stick_prior - stick_q + component_prior - component_q
        if not np.isfinite(elbo):
            raise RuntimeError(f"evidence lower bound became non-finite at iteration {iteration}")
        elbo_history.append(elbo)
        if elbo - previous < tol and iteration > 1:
            converged = True
            break
        previous = elbo

    return StickBreakingPosterior(
        sticks=gamma.copy(),
        components=np.column_stack([mq, kq, aq, bq]),
        elbo=elbo_history[-1],
        elbo_history=elbo_history,
        n_iter=iteration,
        converged=converged,
    )


def dpm_sweeps_row_major(x, truncation, alpha, max_iter, tol, rng):
    """One class's stick-breaking mixture fit in the sample-major (n, T) layout, with the
    evidence lower bound's data term and entropy summed explicitly.

    This was the library's sweep before it went component-major and took those
    two terms as one log-sum-exp; ``phi.T @ x`` goes through BLAS. The fit is the
    same up to rounding, so the library is compared with it within a tolerance.
    """
    from probcal.base import _digamma, _gammaln
    from probcal.density import StickBreakingPosterior

    n = x.size
    mu0 = float(np.mean(x))
    kappa0 = 0.1
    a0 = 1.0
    b0 = max(float(np.var(x, ddof=1)), 1e-6)
    log_2pi = np.log(2.0 * np.pi)

    phi = rng.dirichlet(np.ones(truncation), size=n)

    x2 = x * x
    gamma = np.empty((truncation - 1, 2))
    elbo_history = []
    previous = -np.inf
    converged = False
    iteration = 0

    for iteration in range(1, max_iter + 1):
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

        digamma_total = _digamma(gamma[:, 0] + gamma[:, 1])
        e_log_v = _digamma(gamma[:, 0]) - digamma_total
        e_log_1mv = _digamma(gamma[:, 1]) - digamma_total
        e_log_pi = np.concatenate([e_log_v, [0.0]])
        e_log_pi[1:] += np.cumsum(e_log_1mv)
        e_lambda = aq / bq
        e_log_lambda = _digamma(aq) - np.log(bq)
        quad = e_lambda[None, :] * (x[:, None] - mq[None, :]) ** 2 + 1.0 / kq[None, :]
        log_lik = e_log_pi[None, :] + 0.5 * e_log_lambda[None, :] - 0.5 * log_2pi - 0.5 * quad
        phi = np.exp(log_lik - log_lik.max(axis=1, keepdims=True))
        phi /= phi.sum(axis=1, keepdims=True)

        data_term = float(np.sum(phi * log_lik))
        entropy = -float(np.sum(phi * np.log(np.maximum(phi, 1e-300))))
        stick_prior = float(np.sum(np.log(alpha) + (alpha - 1.0) * e_log_1mv))
        log_beta = _gammaln(gamma[:, 0]) + _gammaln(gamma[:, 1]) - _gammaln(gamma[:, 0] + gamma[:, 1])
        stick_q = float(
            np.sum(
                -log_beta
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
                - math.lgamma(a0)
                + (a0 - 1.0) * e_log_lambda
                - b0 * e_lambda
            )
        )
        component_q = float(
            np.sum(
                0.5 * (np.log(kq) - log_2pi)
                - 0.5
                + aq * np.log(bq)
                - _gammaln(aq)
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

    return StickBreakingPosterior(
        sticks=gamma.copy(),
        components=np.column_stack([mq, kq, aq, bq]),
        elbo=elbo_history[-1],
        elbo_history=elbo_history,
        n_iter=iteration,
        converged=converged,
    )


def frequency_edges_by_loop(scores, n_bins: int) -> np.ndarray:
    """Equal-frequency histogram edges, one group boundary at a time.

    Sort the scores stably and cut the order as np.array_split does; each
    boundary whose two adjacent scores differ gets an edge at their midpoint
    unless it would not increase the edges so far; 1 closes the last bin.
    """
    ordered = np.asarray(scores, dtype=np.float64)[np.argsort(scores, kind="stable")]
    groups = np.array_split(np.arange(ordered.size), n_bins)
    cuts = [0.0]
    for j in range(1, n_bins):
        lo = ordered[groups[j - 1][-1]]
        hi = ordered[groups[j][0]]
        if hi <= lo:
            continue  # tie spans the boundary: an edge here separates nothing
        midpoint = 0.5 * (lo + hi)
        if midpoint > cuts[-1]:
            cuts.append(float(midpoint))
    if cuts[-1] < 1.0:
        cuts.append(1.0)
    else:
        cuts[-1] = 1.0  # a midpoint landed exactly on 1; the final edge replaces it
    return np.asarray(cuts, dtype=np.float64)


def bin_indices_by_search(edges, scores) -> np.ndarray:
    """Right-open bin of each score by binary search over all the edges, clipped so that
    scores at or above the last edge fall into the last bin and scores below the first
    into bin 0. This was the library's ``_bin_indices`` before its cell table."""
    idx = np.searchsorted(edges, scores, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def nearest_nonempty_by_loop(counts) -> np.ndarray:
    """For every bin, the index of the nearest bin with a positive count (ties -> lower)."""
    nonempty = np.flatnonzero(np.asarray(counts) > 0)
    fill = np.empty(len(counts), dtype=np.intp)
    for j in range(len(counts)):
        pos = np.searchsorted(nonempty, j)
        left = nonempty[pos - 1] if pos > 0 else None
        right = nonempty[pos] if pos < nonempty.size else None
        if left is None:
            fill[j] = right
        elif right is None:
            fill[j] = left
        else:
            fill[j] = left if (j - left) <= (right - j) else right
    return fill


def as_labels_three_pass(values, name: str = "labels") -> np.ndarray:
    """0/1 label check by casting to int64, comparing with a float64 copy, then a set test."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    out = np.asarray(arr, dtype=np.int64)
    if arr.size and not np.array_equal(out, np.asarray(arr, dtype=np.float64)):
        raise ValueError(f"{name} must contain only 0 and 1")
    if out.size and not np.isin(out, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return out


def dumps_whole(obj, indent: int = 0) -> str:
    """serialize.dumps built recursively as one string, each float list formatted whole."""
    from probcal.serialize import format_float

    pad, inner = "  " * indent, "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {dumps_whole(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            return f"[\n{inner}" + f",\n{inner}".join(map(format_float, obj)) + f"\n{pad}]"
        rows = [f"{inner}{dumps_whole(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def calibrated_bins(model, test, num_bins, with_auc: bool) -> tuple:
    """``reliability`` in ``num_bins`` bins (None: skipped) and, if asked, ``auc`` of
    ``model.predict(test.scores)``, bit for bit, from the whole test set: a stable argsort of
    each row's small-integer value rank is a radix sort with the float order's permutation,
    and the AUC is counted per value from the positive rows' codes and all rows' codes. The whole-array
    reference for the harness's streamed measure."""
    from probcal.metrics import _bin_indices, _summarize

    levels, rank = np.unique(model.values_, return_inverse=True)
    codes = rank.astype(np.min_scalar_type(levels.size - 1))[_bin_indices(model.edges_, test.scores)]
    bins = None
    if num_bins is not None:
        members = np.array_split(np.argsort(codes, kind="stable"), num_bins)
        bins = _summarize(levels[codes], test.labels, members)
    if not with_auc:
        return bins, None
    pos = np.bincount(codes[test.labels == 1], minlength=levels.size)
    neg = np.bincount(codes, minlength=levels.size) - pos
    twice_u = int((pos * (2 * np.cumsum(neg) - neg)).sum())  # per value: 2 * negatives below + negatives tied
    return bins, float(twice_u) / (2.0 * int(pos.sum()) * int(neg.sum()))


def oracle_draw(spec, n: int, seed):
    """``generate_oracle(spec, n, seed)`` drawn whole from one generator: n uniform scores, then n
    uniforms each compared with the truth curve at its score. The reference for the blocked draw."""
    from probcal.data import ScoredDataset

    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    return ScoredDataset(scores, (rng.random(n) < spec.probability(scores)).astype(np.int64))


def whole_test_set_measure(spec, model, n_test: int, test_stream, num_bins: int) -> tuple:
    """(reliability bins, calibrated AUC, raw AUC) of a trial's test set drawn whole: by
    ``oracle_draw``, then ``calibrated_bins``, then ``auc``; both AUCs are None when the
    set holds one class."""
    from probcal.metrics import auc

    test = oracle_draw(spec, n_test, test_stream)
    two_class = 0 < test.n_pos < test.n_samples
    bins, calibrated = calibrated_bins(model, test, num_bins, two_class)
    return bins, calibrated, auc(test.scores, test.labels) if two_class else None


def population_errors(spec, model) -> tuple:
    """(errors, mce, ece) of a fitted histogram ``model`` on the oracle ``spec``, in closed form. Scores are
    uniform on [0, 1] and a fit's edges run from 0 to 1, so level k of ``np.unique(model.values_)`` takes
    the scores of the bins valued at it: a share of the rows equal to their total width, whose positive rate
    is the width-weighted mean of ``true_theta`` over them. Its error is |level - that rate|; MCE is the
    largest error and ECE the width-weighted sum. Bins of one value pool into one level, as the model's
    outputs cannot tell them apart; with distinct values the errors are per bin."""
    from probcal.synth import true_theta

    levels, rank = np.unique(model.values_, return_inverse=True)
    widths = np.diff(model.edges_)
    mass = np.bincount(rank, weights=widths, minlength=levels.size)  # every bin has a positive width
    rate = np.bincount(rank, weights=widths * true_theta(spec, model.edges_), minlength=levels.size) / mass
    errors = np.abs(levels - rate)
    return errors, float(errors.max()), float((mass * errors).sum())
