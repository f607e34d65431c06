"""Outside-in tracing of probcal: spans recorded around calls into each module.

The recorder wraps public functions under every name a probcal module binds
them to (``probcal.cli.load_scored_csv``, ``probcal.harness.auc``,
``probcal.metrics.auc``, ...) and calibrator ``fit``/``predict`` on the
class. Spans are kept in memory. A span's self time is its duration minus
the durations of its child spans; calls never overlap because probcal runs
in one thread.
"""

from __future__ import annotations

import functools
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import probcal
import probcal.cli  # loads every module that binds a traced function
from probcal import density, monotone
from workloads import KINDS


def _trials(args, kwargs, result) -> int:
    return sum(len(point.reports) for point in result.points)


# (module, attribute, span name, counter name, counter(args, kwargs, result))
FUNCTIONS = (
    ("probcal.data", "load_scored_csv", "data.load_scored_csv", "data.load_scored_csv.rows",
     lambda a, k, r: len(r)),
    ("probcal._validation", "as_scores", "validation.as_scores", None, None),
    ("probcal._validation", "as_labels", "validation.as_labels", None, None),
    ("probcal.monotone", "pool_adjacent_violators", "monotone.pool_adjacent_violators", None, None),
    ("probcal.serialize", "save_model", "serialize.save_model", "serialize.bytes_written",
     lambda a, k, r: os.path.getsize(a[1])),
    ("probcal.serialize", "load_model", "serialize.load_model", None, None),
    ("probcal.metrics", "auc", "metrics.auc", None, None),
    ("probcal.metrics", "reliability", "metrics.reliability", None, None),
    ("probcal.metrics", "evaluate", "metrics.evaluate", None, None),
    ("probcal.synth", "generate_oracle", "synth.generate_oracle", "synth.generate_oracle.rows",
     lambda a, k, r: len(r)),
    ("probcal.synth", "true_theta", "synth.true_theta", None, None),
    ("probcal.harness", "verify_mce_bound", "harness.verify_mce_bound", "harness.trials", _trials),
    ("probcal.harness", "verify_ece_rate", "harness.verify_ece_rate", "harness.trials", _trials),
    ("probcal.harness", "verify_auc_loss", "harness.verify_auc_loss", "harness.trials", _trials),
    ("probcal.harness", "verify_theta_concentration", "harness.verify_theta_concentration",
     "harness.trials", _trials),
    ("probcal.harness", "calibration_size_sweep", "harness.calibration_size_sweep", "harness.trials",
     _trials),
)

# (class, method, span name, counter name, counter(args, kwargs, result))
METHODS = (
    (probcal.HistogramCalibrator, "fit", "binning.fit", None, None),
    (probcal.HistogramCalibrator, "predict", "binning.predict", None, None),
    (monotone.IsotonicCalibrator, "fit", "monotone.isotonic.fit", "monotone.isotonic.breakpoints",
     lambda a, k, r: len(r.breakpoints_)),
    (monotone.IsotonicCalibrator, "predict", "monotone.isotonic.predict", None, None),
    (monotone.PlattCalibrator, "fit", "monotone.platt.fit", "monotone.platt.n_iter",
     lambda a, k, r: r.n_iter_),
    (monotone.PlattCalibrator, "predict", "monotone.platt.predict", None, None),
    (density.KDECalibrator, "fit", "density.kde.fit", None, None),
    (density.KDECalibrator, "predict", "density.kde.predict", None, None),
    (density.DPMCalibrator, "fit", "density.dpm.fit", "density.dpm.n_iter",
     lambda a, k, r: r.positive_.n_iter + r.negative_.n_iter),
    (density.DPMCalibrator, "predict", "density.dpm.predict", None, None),
)

IMPORTS = {
    "import.probcal_s": "probcal",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.numpy_s": "numpy",
}
SPAN_METRICS = (
    "data.load_scored_csv", "validation.as_scores", "validation.as_labels", "binning.fit",
    "binning.predict", "monotone.isotonic.fit", "monotone.pool_adjacent_violators",
    "monotone.isotonic.predict", "monotone.platt.fit", "density.kde.fit", "density.kde.predict",
    "density.dpm.fit", "density.dpm.predict", "serialize.save_model", "serialize.load_model",
    "metrics.auc", "metrics.reliability", "metrics.evaluate", "synth.generate_oracle",
    "synth.true_theta", "harness.verify_mce_bound", "harness.verify_ece_rate",
    "harness.verify_auc_loss", "harness.verify_theta_concentration",
    "harness.calibration_size_sweep",
)
CALL_METRICS = ("data.load_scored_csv", "binning.fit", "metrics.auc")
COUNT_METRICS = (
    "data.load_scored_csv.rows", "monotone.isotonic.breakpoints", "monotone.platt.n_iter",
    "density.dpm.n_iter", "serialize.bytes_written", "synth.generate_oracle.rows",
    "harness.trials",
)


class Recorder:
    """In-memory spans: ``spans[i] = [name, start, end, parent index or -1]``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs, count_name=None, counter=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
        if counter is not None:
            self.counts[count_name] += counter(args, kwargs, result)
        return result

    def _wrap(self, fn, name, count_name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count_name, counter)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "probcal" or n.startswith("probcal.")]
        for module_name, attr, name, count_name, counter in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, count_name, counter)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, traced)
        for cls, attr, name, count_name, counter in METHODS:
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, count_name, counter))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def has_ancestor(self, index: int, prefix: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer figures from one traced pass; every name is always present."""
    inclusive, calls = defaultdict(float), Counter()
    for name, start, end, _ in recorder.spans:
        inclusive[name] += end - start
        calls[name] += 1
    self_time = defaultdict(float)
    for (name, *_), value in zip(recorder.spans, recorder.self_times()):
        self_time[name] += value
    out = {}
    for command in KINDS:
        out[f"cli.{command}.self_s"] = (self_time[f"cli.{command}"], "s")
    for name in SPAN_METRICS:
        out[f"{name}.s"] = (inclusive[name], "s")
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls[name], "count")
    out["validation.calls"] = (calls["validation.as_scores"] + calls["validation.as_labels"], "count")
    for name in COUNT_METRICS:
        out[name] = (recorder.counts[name], "bytes" if name == "serialize.bytes_written" else "count")
    out["harness.self_s"] = (sum(v for n, v in self_time.items() if n.startswith("harness.")), "s")
    trials = recorder.counts["harness.trials"]
    harness_auc = sum(
        1 for i, span in enumerate(recorder.spans)
        if span[0] == "metrics.auc" and recorder.has_ancestor(i, "harness.")
    )
    out["harness.auc_calls_per_trial"] = (harness_auc / trials if trials else 0.0, "calls/trial")
    return out


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)")


def package_import_seconds(importtime_stderr: str, package: str) -> float:
    """Seconds spent importing ``package`` and its submodules, each counted once.

    ``-X importtime`` prints a module after its nested imports, indented by
    depth. A package's own line can be missing (scipy loads some
    subpackages lazily), so this sums the cumulative time of every line
    under the package that is not nested inside another such line.
    """
    lines = [
        (len(m.group(2)), m.group(3), int(m.group(1)))
        for m in map(_IMPORT_LINE.match, importtime_stderr.splitlines()) if m
    ]
    total = 0
    open_depth = None  # depth of the counted line whose nested imports are being skipped
    for depth, name, cumulative in reversed(lines):
        if open_depth is not None and depth <= open_depth:
            open_depth = None
        if open_depth is None and (name == package or name.startswith(package + ".")):
            total += cumulative
            open_depth = depth
    return total / 1e6


def import_metrics(python_env: dict, samples: int) -> dict:
    """Per-package import seconds, median over fresh ``-X importtime`` interpreters."""
    per_name = defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import probcal.cli"],
            env=python_env, capture_output=True, text=True, timeout=120, check=True,
        )
        for metric, package in IMPORTS.items():
            per_name[metric].append(package_import_seconds(proc.stderr, package))
    return {metric: (statistics.median(values), "s") for metric, values in per_name.items()}
