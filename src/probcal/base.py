"""Estimator base class shared by all calibrators.

Calibrators follow the familiar fit/predict pattern: ``fit(scores, labels)``
learns a map from uncalibrated scores to probabilities, ``predict(scores)``
applies it to a 1-D array and returns a float64 array of the same length.
Fitted state lives in attributes with a trailing underscore.
"""

from __future__ import annotations

import math

import numpy as np

_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # fdlibm's split of log 2
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13, 0, -1))
_EXPIT_BLOCK = 1 << 16  # values per block: the temporaries stay in cache
_PSI_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)) in numpy arithmetic alone.

    exp(t) = 2**k exp(r) with a Cody-Waite reduction |r| <= log(2)/2 and the
    degree-13 Taylor polynomial of exp(r), whose truncation is below 0.05 ulp.
    Every step is an IEEE operation, so the bits do not depend on the SIMD loops
    numpy picks for the CPU, as those of ``np.exp`` do.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x.ravel())
    with np.errstate(over="ignore", invalid="ignore"):  # exp(710) is inf; a NaN stays NaN
        for t in np.split(out, range(_EXPIT_BLOCK, out.size, _EXPIT_BLOCK)):
            np.clip(t, -746.0, 710.0, out=t)  # exp underflows to 0 below and overflows above
            k = np.rint(t * (1.0 / math.log(2.0)))
            t -= k * _LN2_HI
            t -= k * _LN2_LO
            p = t * _EXP_TAYLOR[0]
            for c in _EXP_TAYLOR[1:]:
                p += c
                p *= t
            p += 1.0
            np.ldexp(p, k.astype(np.int32), out=t)
    out += 1.0
    return np.reciprocal(out, out=out).reshape(x.shape)[()]


def _digamma(x) -> np.ndarray:
    """Digamma of a 1-d array of positive values: the recurrence psi(x) = psi(x + 10) -
    sum 1/(x + j), then the asymptotic series of psi(x + 10) through its y**-14 term."""
    y = x + 10.0
    with np.errstate(over="ignore"):  # y * y is inf above 1e154, and 1 / inf the right limit
        z = 1.0 / (y * y)
    series = _PSI_SERIES[0]
    for c in _PSI_SERIES[1:]:
        series = series * z + c
    return np.log(y) - 0.5 / y - series * z - (1.0 / (x[:, None] + np.arange(10.0))).sum(axis=1)


def _gammaln(x) -> np.ndarray:
    """log Gamma of each value of a 1-d array, by ``math.lgamma``."""
    return np.array([math.lgamma(v) for v in x.tolist()])


class NotFittedError(ValueError):
    """Raised when predict is called before fit."""


class BaseCalibrator:
    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit first")
