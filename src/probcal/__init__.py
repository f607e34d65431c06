"""Post-processing probability calibration for binary classifiers.

Calibrators map raw classifier scores in [0, 1] to calibrated probability
estimates. All follow the same small estimator protocol: construct with
hyperparameters, ``fit(scores, labels)``, then ``predict(scores)``;
``to_dict``/``from_dict`` round-trip fitted state through plain JSON; the
KDE and isotonic payloads hold float64 arrays, written as float lists.
``pool_adjacent_violators(positives, counts)`` takes integer group counts.

The harness submodule checks the finite-sample guarantees of histogram
binning (MCE bound, ECE decay rate, AUC loss, per-bin concentration) by
Monte-Carlo simulation against synthetic oracles with known truth curves.
"""

from .base import BaseCalibrator, NotFittedError
from .binning import HistogramCalibrator, default_bin_count
from .data import (
    FeatureDataset,
    ScoredDataset,
    kfold_calibration_set,
    load_scored_csv,
    split,
)
from .density import DPMCalibrator, KDECalibrator, silverman_bandwidth
from .harness import (
    calibration_size_sweep,
    hoeffding_bound,
    mce_bound,
    verify_auc_loss,
    verify_ece_rate,
    verify_mce_bound,
    verify_theta_concentration,
)
from .metrics import (
    ReliabilityBin,
    ReliabilityReport,
    accuracy,
    auc,
    ece,
    evaluate,
    mce,
    reliability,
    rmse,
)
from .monotone import IsotonicCalibrator, PlattCalibrator, pool_adjacent_violators
from .serialize import load_model, save_model
from .synth import (
    LogisticScorer,
    OracleSpec,
    fit_logistic,
    generate_oracle,
    generate_xor,
    true_theta,
)

__version__ = "0.1.0"

__all__ = [
    "BaseCalibrator",
    "DPMCalibrator",
    "FeatureDataset",
    "HistogramCalibrator",
    "IsotonicCalibrator",
    "KDECalibrator",
    "LogisticScorer",
    "NotFittedError",
    "OracleSpec",
    "PlattCalibrator",
    "ReliabilityBin",
    "ReliabilityReport",
    "ScoredDataset",
    "accuracy",
    "auc",
    "calibration_size_sweep",
    "default_bin_count",
    "ece",
    "evaluate",
    "fit_logistic",
    "generate_oracle",
    "generate_xor",
    "hoeffding_bound",
    "kfold_calibration_set",
    "load_model",
    "load_scored_csv",
    "mce",
    "mce_bound",
    "pool_adjacent_violators",
    "reliability",
    "rmse",
    "save_model",
    "silverman_bandwidth",
    "split",
    "true_theta",
    "verify_auc_loss",
    "verify_ece_rate",
    "verify_mce_bound",
    "verify_theta_concentration",
    "__version__",
]
