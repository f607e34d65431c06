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

import numpy as np

from .binning import HistogramCalibrator
from .data import _map_blocks, format_cells
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


def dumps(obj) -> str:
    """Render to JSON text with stable formatting."""
    return "".join(iterdumps(obj))


_BLOCK_VALUES = 1 << 14  # floats of an array formatted per piece of iterdumps


def iterdumps(obj, indent: int = 0):
    """The text of ``dumps(obj)`` at nesting depth ``indent``, in pieces; a 1-D float64 array
    comes in blocks."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        opening = "{\n"
        for k, v in obj.items():
            yield f"{opening}{inner}{json.dumps(str(k))}: "
            yield from iterdumps(v, indent + 1)
            opening = ",\n"
        yield f"\n{pad}}}" if obj else "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray) and (obj.ndim != 1 or obj.dtype != np.float64):
            raise TypeError(f"cannot serialize a {obj.ndim}-D {obj.dtype} array")
        if len(obj) and isinstance(obj, np.ndarray):
            comma = f",\n{inner}"

            def render(start: int) -> str:
                block = obj[start : start + _BLOCK_VALUES].tolist()
                text = comma.join(format_cells(block))
                if "n" in text:  # only "nan" and "inf" contain an n: null them one by one
                    text = comma.join(map(format_float, block))
                return (comma if start else f"[\n{inner}") + text

            yield from _map_blocks(render, range(0, len(obj), _BLOCK_VALUES))
        else:
            opening = "[\n"
            for v in obj:
                yield opening + inner
                yield from iterdumps(v, indent + 1)
                opening = ",\n"
        yield f"\n{pad}]" if len(obj) else "[]"
    elif isinstance(obj, float):
        yield format_float(obj)
    elif obj is None or isinstance(obj, (bool, int, str)):
        yield json.dumps(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path) -> None:
    """Write ``dumps(obj)`` and a newline to a file, a piece of ``iterdumps`` at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(iterdumps(obj))
        handle.write("\n")


def save_model(calibrator, path) -> None:
    payload = calibrator.to_dict()
    if payload.get("method") not in MODEL_CLASSES:
        raise ValueError(f"unknown model method {payload.get('method')!r}")
    write_json(payload, path)


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
