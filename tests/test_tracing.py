"""perfbench's tracer: it finds every function and method it wraps, and puts each back.

The tracer patches probcal from outside, by identity, so a refactor that
moves or renames a traced target breaks ``perfbench/run.py --trace 1``.
These tests make that a test failure.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import probcal.cli  # noqa: F401  (binds every traced function, as the tracer expects)
from oracles import dpm_sweeps_with_temporaries
from probcal import DPMCalibrator, harness
from probcal.synth import OracleSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def _namespaces():
    """A copy of the namespace of every probcal module."""
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "probcal" or name.startswith("probcal.")
    }


def test_every_target_resolves_and_every_patch_is_undone(tracing):
    for module_name, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(sys.modules[module_name], attr, None)), f"{module_name}.{attr}"
    for cls, attr, *_ in tracing.METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} is not defined on the class itself"
    modules = _namespaces()
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr, *_ in tracing.METHODS}

    recorder = tracing.Recorder()
    recorder.install()
    try:
        for module_name, attr, *_ in tracing.FUNCTIONS:
            patched = getattr(sys.modules[module_name], attr)
            assert patched.__wrapped__ is modules[module_name][attr]
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr].__wrapped__ is original
        # eval calls the traced AUC under the name the CLI imported
        assert sys.modules["probcal.cli"].auc.__wrapped__ is modules["probcal.metrics"]["auc"]
    finally:
        recorder.uninstall()

    after = _namespaces()
    for name, namespace in modules.items():
        assert after[name].keys() == namespace.keys()
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original


def test_traced_trials_and_auc_calls(tracing):
    recorder = tracing.Recorder()
    recorder.install()
    try:
        harness.verify_auc_loss(OracleSpec(), n_cal=100, bin_grid=(2,), trials=2)
        harness.verify_theta_concentration(
            OracleSpec(), n_cal=200, n_bins=2, epsilon_grid=(0.1, 0.2), trials=3
        )
    finally:
        recorder.uninstall()
    metrics = tracing.layer_metrics(recorder)
    # theta-conc reports its trials once, on its first point
    assert metrics["harness.trials"] == (5, "count")
    # the harness streams its test sets: auc-loss counts the raw AUC over the test scores drawn
    # again and the calibrated AUC from per-level class counts, so the tracer sees no AUC call
    # and only the calibration sets drawn (2 of 100 rows, then 3 of 200)
    assert metrics["metrics.auc.calls"] == (0, "count")
    assert metrics["synth.generate_oracle.rows"] == (2 * 100 + 3 * 200, "count")


def test_traced_dpm_fit_counts_the_sweeps_of_the_serial_fit(tracing):
    rng = np.random.default_rng(3)
    scores = rng.random(300)
    labels = (rng.random(300) < scores).astype(int)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        model = DPMCalibrator(truncation=5, max_iter=400, seed=2).fit(scores, labels)
    finally:
        recorder.uninstall()
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(2).spawn(2)]
    sweeps = [
        dpm_sweeps_with_temporaries(scores[labels == label], 5, 1.0, 400, 1e-6, stream).n_iter
        for label, stream in zip((1, 0), streams)
    ]
    assert [model.positive_.n_iter, model.negative_.n_iter] == sweeps
    assert tracing.layer_metrics(recorder)["density.dpm.n_iter"] == (sum(sweeps), "count")
