"""Shared checks of counts, score and label arrays and model files; the iterative fits' warning."""

from __future__ import annotations

import math
import warnings

import numpy as np


def as_scores(values, name: str = "scores") -> np.ndarray:
    """Coerce to a 1-D float64 array of probabilities in [0, 1]."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def as_labels(values, name: str = "labels") -> np.ndarray:
    """Coerce to a 1-D int64 array with entries in {0, 1}."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64, copy=False)


def require_count(least: float, why: str = "", **values) -> None:
    """Each value given, other than None (a default), must be an integer, not a bool,
    and >= ``least``; the message names it."""
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}{why}, got {value}")


def check_iteration(max_iter: int, tol: float) -> None:
    """Settings of an iterative fit: a budget of at least one step, a finite positive tolerance."""
    require_count(1, max_iter=max_iter)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def warn_unconverged(what: str, n_iter: int, measure: str, value, tol: float, stacklevel: int) -> None:
    """Warn that an iterative fit stopped at its budget; ``value`` None means no ``measure``
    exists yet. ``stacklevel`` counts as in ``warnings.warn``, from the function calling this."""
    change = f"no {measure} measured" if value is None else f"{measure} {value:.3e}"
    message = f"{what} stopped after {n_iter} iterations with {change} (tol {tol:.1e})"
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel + 1)


def scored_pair(scores, labels, name: str = "scores") -> tuple[np.ndarray, np.ndarray]:
    """``as_scores(scores, name)`` and ``as_labels(labels)``, checked to have equal length."""
    y, z = as_scores(scores, name), as_labels(labels)
    if len(y) != len(z):
        raise ValueError(f"{name} and labels must have equal length, got {len(y)} and {len(z)}")
    return y, z


def class_counts(labels: np.ndarray) -> tuple[int, int, int]:
    """Return (total, positives, negatives)."""
    total = int(labels.size)
    pos = int(np.count_nonzero(labels))
    return total, pos, total - pos


def model_field(
    payload,
    key: str,
    ndim: int | None = 0,
    low: float = -math.inf,
    high: float = math.inf,
    integer: bool = False,
) -> np.ndarray:
    """A numeric field of a model file's JSON object, checked.

    The field must hold a number (ndim 0) or a list nested ndim deep (any
    depth when ndim is None) of finite numbers in [low, high], integers if
    ``integer``. Anything else raises ValueError naming the field.
    """
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"model field {key!r} is missing")
    try:
        arr = np.asarray(payload[key])
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    valid = (arr.size == 0 or arr.dtype.kind in ("i" if integer else "if")) and (
        ndim is None or arr.ndim == ndim
    )
    if valid and arr.size:
        valid = bool(np.all(np.isfinite(arr) & (arr >= low) & (arr <= high)))
    if not valid:
        shape = {0: "a number", 1: "a list", 2: "a list of rows"}.get(ndim, "numbers")
        kind = "integers" if integer else "finite"
        raise ValueError(f"model field {key!r} must be {shape} ({kind}, in [{low:g}, {high:g}])")
    return arr.astype(np.int64 if integer else np.float64, copy=False)
