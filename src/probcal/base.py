"""Estimator base class shared by all calibrators.

Calibrators follow the familiar fit/predict pattern: ``fit(scores, labels)``
learns a map from uncalibrated scores to probabilities, ``predict(scores)``
applies it. Fitted state lives in attributes with a trailing underscore.
"""

from __future__ import annotations

import numpy as np

from ._validation import as_scores


def _special():
    """``scipy.special``, imported on first use: it is most of probcal's import time."""
    import scipy.special
    return scipy.special


class NotFittedError(ValueError):
    """Raised when predict is called before fit."""


class BaseCalibrator:
    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit first")

    @staticmethod
    def _prepare_queries(scores) -> tuple[np.ndarray, bool]:
        """Validate query scores; remember whether the input was scalar."""
        queries = np.asarray(scores)  # once: np.ndim of a list would convert it again
        return as_scores(queries), queries.ndim == 0

    @staticmethod
    def _finish(result: np.ndarray, scalar: bool):
        return float(result[0]) if scalar else result

