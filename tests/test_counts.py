"""Every count the library takes passes one rule: an integer (not a bool) no smaller than its least."""

import re

import numpy as np
import pytest

from probcal.binning import HistogramCalibrator
from probcal.density import DPMCalibrator
from probcal.harness import (
    calibration_size_sweep,
    mce_bound,
    oracle_generator,
    verify_auc_loss,
    verify_ece_rate,
    verify_mce_bound,
    verify_theta_concentration,
)
from probcal.metrics import evaluate, reliability
from probcal.monotone import PlattCalibrator
from probcal.synth import OracleSpec, fit_logistic, generate_oracle, generate_xor

IDENTITY = OracleSpec()
FOUR = ([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])
ORACLE = generate_oracle(IDENTITY, 60, 3)
XOR = generate_xor(40, seed=0)

# entry point: (call with the count, a count it accepts, a count below the least, its message)
ENTRY_POINTS = {
    "HistogramCalibrator n_bins": (
        lambda v: HistogramCalibrator(n_bins=v).fit(*FOUR), 2, 0, "n_bins must satisfy 1 <= B <= 4, got 0"
    ),
    "PlattCalibrator max_iter": (
        lambda v: PlattCalibrator(max_iter=v).fit(*FOUR), 3, 0, "max_iter must be >= 1, got 0"
    ),
    "DPMCalibrator truncation": (
        lambda v: DPMCalibrator(truncation=v, max_iter=3).fit(ORACLE.scores, ORACLE.labels),
        2, 0, "truncation must be >= 1, got 0",
    ),
    "DPMCalibrator max_iter": (
        lambda v: DPMCalibrator(truncation=2, max_iter=v).fit(ORACLE.scores, ORACLE.labels),
        3, 0, "max_iter must be >= 1, got 0",
    ),
    "fit_logistic max_iter": (lambda v: fit_logistic(XOR, max_iter=v), 3, 0, "max_iter must be >= 1, got 0"),
    "reliability num_bins": (lambda v: reliability(*FOUR, num_bins=v), 2, 0, "num_bins must be >= 1, got 0"),
    "evaluate num_bins": (lambda v: evaluate(*FOUR, num_bins=v), 2, -1, "num_bins must be >= 1, got -1"),
    "generate_oracle n": (lambda v: generate_oracle(IDENTITY, v, 0), 10, 0, "n must be >= 1, got 0"),
    "generate_xor n": (lambda v: generate_xor(v), 8, 3, "n must be >= 4, got 3"),
    "mce_bound n_cal": (lambda v: mce_bound(v, 10, 0.05), 100, 0, "n_cal must be >= 1, got 0"),
    "mce_bound n_bins": (lambda v: mce_bound(100, v, 0.05), 10, -1, "n_bins must be >= 1, got -1"),
    "verify_mce_bound n_cal": (
        lambda v: verify_mce_bound(IDENTITY, n_cal=v, n_bins=2, trials=1, n_test=100),
        100, 0, "n_cal must be >= 1, got 0",
    ),
    "verify_mce_bound n_bins": (
        lambda v: verify_mce_bound(IDENTITY, n_cal=100, n_bins=v, trials=1, n_test=100),
        2, 0, "n_bins must be >= 1, got 0",
    ),
    "verify_mce_bound trials": (
        lambda v: verify_mce_bound(IDENTITY, n_cal=100, n_bins=2, trials=v, n_test=100),
        1, 0, "trials must be >= 1, got 0",
    ),
    "verify_mce_bound n_test": (
        lambda v: verify_mce_bound(IDENTITY, n_cal=100, n_bins=2, trials=1, n_test=v),
        100, 0, "n_test must be >= 1, got 0",
    ),
    "verify_ece_rate n_bins": (
        lambda v: verify_ece_rate(IDENTITY, n_bins=v, n_grid=(10, 1000), trials=1),
        2, 0, "n_bins must be >= 1, got 0",
    ),
    "verify_ece_rate trials": (
        lambda v: verify_ece_rate(IDENTITY, n_bins=2, n_grid=(10, 1000), trials=v),
        1, 0, "trials must be >= 1, got 0",
    ),
    "verify_auc_loss n_cal": (
        lambda v: verify_auc_loss(IDENTITY, n_cal=v, bin_grid=(2,), trials=2),
        100, 0, "n_cal must be >= 1, got 0",
    ),
    "verify_auc_loss trials": (
        lambda v: verify_auc_loss(IDENTITY, n_cal=100, bin_grid=(2,), trials=v),
        2, 1, "trials must be >= 2 for a standard error, got 1",
    ),
    "verify_theta_concentration n_cal": (
        lambda v: verify_theta_concentration(IDENTITY, n_cal=v, n_bins=2, trials=2),
        100, 0, "n_cal must be >= 1, got 0",
    ),
    "verify_theta_concentration n_bins": (
        lambda v: verify_theta_concentration(IDENTITY, n_cal=100, n_bins=v, trials=2),
        2, 0, "n_bins must be >= 1, got 0",
    ),
    "verify_theta_concentration trials": (
        lambda v: verify_theta_concentration(IDENTITY, n_cal=100, n_bins=2, trials=v),
        2, 1, "trials must be >= 2, got 1",
    ),
    "calibration_size_sweep n_test": (
        lambda v: calibration_size_sweep(oracle_generator(IDENTITY), sizes=(10, 100), trials=2, n_test=v),
        100, 0, "n_test must be >= 1, got 0",
    ),
    "calibration_size_sweep n_bins": (
        lambda v: calibration_size_sweep(
            oracle_generator(IDENTITY), sizes=(10, 100), trials=2, n_test=100, n_bins=v
        ),
        2, 0, "n_bins must be >= 1, got 0",
    ),
    "calibration_size_sweep trials": (
        lambda v: calibration_size_sweep(oracle_generator(IDENTITY), sizes=(10, 100), trials=v, n_test=100),
        2, 1, "trials must be >= 2, got 1",
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the small iteration budgets stop fits early
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_count_rule(entry):
    call, accepted, below, message = ENTRY_POINTS[entry]
    name = entry.split()[-1]
    # a bool, a fraction and an integral float are not counts
    for value in (True, 2.5, float(accepted)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(value)
    call(np.int64(accepted))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(below)
