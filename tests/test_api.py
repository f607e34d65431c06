"""The public API, pinned: adding or removing a name of ``probcal.__all__`` changes this list;
and the array contract at its edge."""

import warnings

import numpy as np
import pytest

import probcal
from probcal.cli import METHODS

PUBLIC_NAMES = [
    "BaseCalibrator",
    "DPMCalibrator",
    "HistogramCalibrator",
    "IsotonicCalibrator",
    "KDECalibrator",
    "NotFittedError",
    "OracleSpec",
    "PlattCalibrator",
    "ReliabilityBin",
    "ReliabilityReport",
    "ScoredDataset",
    "__version__",
    "accuracy",
    "auc",
    "calibration_size_sweep",
    "default_bin_count",
    "ece",
    "evaluate",
    "generate_oracle",
    "generate_xor",
    "hoeffding_bound",
    "load_model",
    "load_scored_csv",
    "mce",
    "mce_bound",
    "pool_adjacent_violators",
    "reliability",
    "rmse",
    "save_model",
    "silverman_bandwidth",
    "true_theta",
    "verify_auc_loss",
    "verify_ece_rate",
    "verify_mce_bound",
    "verify_theta_concentration",
]


def test_public_names_are_pinned_and_each_resolves():
    assert sorted(probcal.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(probcal, name)] == []


# every score entry point takes a 1-D array, as every label entry point does, and every
# predict returns a float64 array of the query's length; a 0-d score is an input error
ZERO_D = r"must be one-dimensional, got shape \(\)"


@pytest.fixture(scope="module")
def scored():
    data = probcal.generate_oracle(probcal.OracleSpec(curve="square"), 200, 1)
    return data.scores, data.labels


@pytest.mark.parametrize("method", METHODS)
def test_predict_maps_a_1d_array_to_float64_and_refuses_a_0d_score(method, scored):
    cls, fixed, _ = METHODS[method]
    options = {"truncation": 3, "max_iter": 20} if method == "dpm" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a short DPM fit may stop unconverged
        model = cls(**fixed, **options).fit(*scored)
    out = model.predict([0.3, 0.7])
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (2,)
    with pytest.raises(ValueError, match=ZERO_D):
        model.predict(0.3)


@pytest.mark.parametrize("measure", [probcal.reliability, probcal.auc, probcal.rmse])
def test_measures_refuse_a_0d_score(measure):
    with pytest.raises(ValueError, match=ZERO_D):
        measure(0.3, 1)
    with pytest.raises(ValueError, match=ZERO_D):
        measure(0.3, [1])  # a 0-d score is refused on its own, not widened to the labels' length
