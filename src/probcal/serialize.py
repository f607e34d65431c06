"""Model persistence and deterministic JSON output.

Floats are written with 17 significant digits, which is enough for an
exact binary64 round trip, and the emitter is fully deterministic (dict
insertion order, no whitespace surprises), so identical models serialize
to identical bytes. Non-finite floats become null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .binning import HistogramCalibrator
from .density import DPMCalibrator, KDECalibrator
from .monotone import IsotonicCalibrator, PlattCalibrator

MODEL_CLASSES = {
    "histogram": HistogramCalibrator,
    "platt": PlattCalibrator,
    "isotonic": IsotonicCalibrator,
    "kde": KDECalibrator,
    "dpm": DPMCalibrator,
}


def format_float(value: float) -> str:
    if not math.isfinite(value):
        return "null"
    return format(value, ".17g")


def format_floats(values) -> list[str]:
    """``format_float`` of each value of a sequence of floats, formatted in one pass."""
    values = tuple(values)
    text = "%.17g," * len(values) % values
    if "n" in text:  # only "nan" and "inf" contain an n: format each value
        return [format_float(v) for v in values]
    return text.split(",")[:-1]


def dumps(obj, indent: int = 0) -> str:
    """Render to JSON text with stable formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
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
        rows = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            return f"[\n{inner}" + f",\n{inner}".join(format_floats(obj)) + f"\n{pad}]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def save_model(calibrator, path) -> None:
    payload = calibrator.to_dict()
    if payload.get("method") not in MODEL_CLASSES:
        raise ValueError(f"unknown model method {payload.get('method')!r}")
    Path(path).write_text(dumps(payload) + "\n", encoding="utf-8")


def load_model(path):
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "method" not in payload:
        raise ValueError(f"{path}: not a model file (missing 'method')")
    method = payload["method"]
    if not isinstance(method, str) or method not in MODEL_CLASSES:
        raise ValueError(f"{path}: unknown model method {method!r}")
    try:
        return MODEL_CLASSES[method].from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
