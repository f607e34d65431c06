"""The public API, pinned: adding or removing a name of ``probcal.__all__`` changes this list."""

import probcal

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
