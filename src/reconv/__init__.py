"""Recursive (weight-tied) convolutional networks, hand-written gradients,
parameter budgeting, and the matched-pair experiments they enable."""

__version__ = "0.1.0"

from .counting import (ContourRow, ModelPair, contours_csv, emit_contours,
                       match_pairs, pairs_csv, param_count)
from .data import (Dataset, load_cifar10, load_raw, make_synthetic,
                   minibatches, save_raw)
from .errors import (ConfigError, FormatError, NumericError, ReconvError,
                     ShapeError)
from .experiments import (CellResult, ExperimentResult, ExperimentSpec,
                          results_csv, run_experiment)
from .gradcheck import GradReport, check_model_grads, finite_diff
from .model import (ArchConfig, Grads, Params, Tape, error_rate, forward,
                    init_params, loss_and_grads, nll, predict_class, untie,
                    zeros_like_params)
from .train import (EpochRecord, TrainConfig, TrainResult, TrainState,
                    metrics_csv, sgd_momentum_step, train)

__all__ = [
    "__version__",
    "ArchConfig", "Params", "Grads", "Tape",
    "init_params", "forward", "loss_and_grads", "nll", "predict_class",
    "error_rate", "untie", "zeros_like_params",
    "param_count", "match_pairs", "ModelPair", "pairs_csv",
    "Dataset", "load_cifar10", "load_raw", "save_raw", "make_synthetic",
    "minibatches",
    "TrainConfig", "TrainState", "TrainResult", "EpochRecord",
    "sgd_momentum_step", "train", "metrics_csv",
    "GradReport", "check_model_grads", "finite_diff",
    "ExperimentSpec", "ExperimentResult", "CellResult", "ContourRow",
    "run_experiment", "emit_contours", "results_csv", "contours_csv",
    "ReconvError", "ShapeError", "FormatError", "ConfigError", "NumericError",
]
