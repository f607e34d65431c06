"""Output checks: recompute what each command should have written.

Every check uses probcal's public API in the benchmark process, so it
follows the package when a later change alters a file format: the apply
column must equal ``format_float(load_model(m).predict(scores))``, a model
file must equal ``serialize.dumps`` of the same fit done here, and so on.
Checks return a list of error messages; an empty list means the command
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from probcal import (
    DPMCalibrator,
    HistogramCalibrator,
    IsotonicCalibrator,
    KDECalibrator,
    OracleSpec,
    PlattCalibrator,
    auc,
    evaluate,
    generate_oracle,
    load_model,
)
from probcal.metrics import write_reliability_csv
from probcal.serialize import dumps, format_float

from workloads import CURVE

# the CLI's own defaults for eval
EVAL_BINS = 10
EVAL_SCHEME = "frequency"


def make_calibrator(method: str, seed: int):
    """The calibrator ``probcal fit --method <method>`` builds with default flags."""
    if method == "histogram":
        return HistogramCalibrator(n_bins=None, scheme="frequency")
    if method == "histogram-width":
        return HistogramCalibrator(n_bins=None, scheme="width")
    if method == "platt":
        return PlattCalibrator()
    if method == "isotonic":
        return IsotonicCalibrator()
    if method in ("kde", "kde-shared"):
        return KDECalibrator(shared_bandwidth=method == "kde-shared")
    if method == "dpm":
        return DPMCalibrator(truncation=20, alpha=1.0, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def _first_difference(actual: bytes, expected: bytes) -> str:
    a_lines, e_lines = actual.split(b"\n"), expected.split(b"\n")
    for number, (a, e) in enumerate(zip(a_lines, e_lines), start=1):
        if a != e:
            return f"line {number}: got {a[:60]!r}, expected {e[:60]!r}"
    return f"{len(a_lines)} lines, expected {len(e_lines)}"


def _compare(path: Path, expected: bytes, what: str) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    actual = path.read_bytes()
    if actual == expected:
        return []
    return [f"{path.name}: differs from {what} ({_first_difference(actual, expected)})"]


class Checker:
    """Checks command outputs; caches the generated datasets by (rows, seed)."""

    def __init__(self):
        self._datasets = {}

    def dataset(self, rows: int, seed: int):
        key = (rows, seed)
        if key not in self._datasets:
            self._datasets[key] = generate_oracle(OracleSpec(curve=CURVE), rows, seed)
        return self._datasets[key]

    def check(self, cmd, returncode: int, stdout: str) -> list[str]:
        if returncode not in cmd.ok_codes:
            return [f"exit code {returncode}, expected one of {cmd.ok_codes}"]
        return getattr(self, f"_check_{cmd.kind}")(cmd, returncode, stdout)

    def _check_simulate(self, cmd, returncode, stdout):
        data = self.dataset(cmd.info["rows"], cmd.info["seed"])
        body = "".join(
            f"{format_float(s)},{y}\r\n" for s, y in zip(data.scores.tolist(), data.labels.tolist())
        )
        return _compare(cmd.outputs[0], ("score,label\r\n" + body).encode(), "generate_oracle")

    def _check_fit(self, cmd, returncode, stdout):
        data = self.dataset(*cmd.info["data"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = make_calibrator(cmd.info["method"], cmd.info["seed"]).fit(data.scores, data.labels)
        expected = (dumps(model.to_dict()) + "\n").encode()
        return _compare(cmd.outputs[0], expected, "dumps of the in-process fit")

    def _check_apply(self, cmd, returncode, stdout):
        data = self.dataset(*cmd.info["data"])
        predictions = load_model(cmd.info["model"]).predict(data.scores).tolist()
        lines = cmd.info["input"].read_bytes().split(b"\r\n")
        header, rows = lines[0], lines[1:-1]
        if lines[-1] != b"" or len(rows) != len(predictions):
            return [f"{cmd.info['input'].name}: {len(rows)} rows, expected {len(predictions)}"]
        expected = b"".join(
            [header + b",calibrated\r\n"]
            + [row + b"," + format_float(v).encode() + b"\r\n" for row, v in zip(rows, predictions)]
        )
        return _compare(cmd.outputs[0], expected, "format_float(load_model(m).predict(scores))")

    def _check_eval(self, cmd, returncode, stdout):
        data = self.dataset(*cmd.info["data"])
        predictions = load_model(cmd.info["model"]).predict(data.scores)
        report = evaluate(predictions, data.labels, num_bins=EVAL_BINS, scheme=EVAL_SCHEME)
        auc_loss = auc(data.scores, data.labels) - auc(predictions, data.labels)
        errors = []
        expected_stdout = [
            f"RMSE {report.rmse:.6f}",
            f"AUC  {report.auc:.6f}",
            f"ACC  {report.accuracy:.6f}",
            f"MCE  {report.mce:.6f}",
            f"ECE  {report.ece:.6f}",
            f"AUC loss vs raw scores {auc_loss:.6f}",
        ]
        if stdout.splitlines() != expected_stdout:
            errors.append(f"stdout {stdout.splitlines()!r} differs from metrics.evaluate")
        values = [report.rmse, report.auc, report.accuracy, report.mce, report.ece, auc_loss]
        expected_csv = "rmse,auc,accuracy,mce,ece,auc_loss\r\n" + ",".join(map(format_float, values)) + "\r\n"
        errors += _compare(cmd.outputs[0], expected_csv.encode(), "metrics.evaluate")
        with tempfile.TemporaryDirectory() as tmp:
            bins_path = Path(tmp) / "bins.csv"
            write_reliability_csv(report.bins, bins_path)
            errors += _compare(cmd.outputs[1], bins_path.read_bytes(), "metrics.evaluate bins")
        return errors

    def _check_verify(self, cmd, returncode, stdout):
        json_path, csv_path = cmd.outputs
        if not json_path.is_file() or not csv_path.is_file():
            return [f"{json_path.name} or {csv_path.name} missing"]
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        errors = []
        if (returncode == 0) != payload["passed"]:
            errors.append(f"exit code {returncode} disagrees with passed={payload['passed']}")
        statuses = [line.startswith("[PASS]") for line in stdout.splitlines() if line[:6] in ("[PASS]", "[FAIL]")]
        if statuses != [a["passed"] for a in payload["assertions"]]:
            errors.append("printed [PASS]/[FAIL] lines disagree with the JSON assertions")
        rows = list(csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
        points = payload["points"]
        columns = [k for k in points[0] if k != "axis_value"] if points else []
        if not rows or rows[0] != columns or len(rows) - 1 != len(points):
            return errors + [f"{csv_path.name}: header or row count disagrees with the JSON points"]
        for row, point in zip(rows[1:], points):
            for key, cell in zip(columns, row):
                value, expected = float(cell), point[key]
                # non-finite values are written as "nan"/"inf" in CSV and null in JSON
                agrees = expected is None if not math.isfinite(value) else value == expected
                if not agrees:
                    errors.append(f"{csv_path.name}: {key}={cell} disagrees with the JSON value {expected}")
        return errors
