"""Spatio-temporal traffic forecasting and incident prediction toolkit.

A self-contained float64 autodiff engine underpins a dual-path forecaster
(graph attention over road links in one order, transformer over time in the
other, fused by a learned convex combination). Forecast residuals against
weekday/clock historical baselines feed a Generalized Pareto peak-over-
threshold detector that labels incidents, with detection (P/R/F1) and
diagnosis (HitRate@P%, NDCG@P%) metrics on top.
"""

from .errors import DimensionError, FormatError, GraphError, NumericError
from .tensor import DiffArray, grad_check, no_grad
from .graph import GatLayer, RoadGraph
from .temporal import MultiHeadAttention, TransformerBlock, transformer_forward
from .model import RadNet, RadNetConfig, build_window, rollout_autoregressive
from .optim import AdamW
from .data import (
    DatasetMeta,
    FeatureSeries,
    IncidentSpec,
    load_dataset,
    save_dataset,
    synth_traffic,
)
from .incidents import (
    BaselineTable,
    IncidentLabels,
    ThresholdState,
    build_baseline,
    gpd_fit,
    label,
    pot_fit,
    residual_scores,
)
from .evaluation import EvalReport, evaluate, hitrate_at, ndcg_at, prf1
from .pipeline import PotConfig, run_detection, split_train_test
from .training import Fold, Normalizer, TrainConfig, TrainResult, split_folds, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BaselineTable",
    "DatasetMeta",
    "DiffArray",
    "DimensionError",
    "EvalReport",
    "FeatureSeries",
    "Fold",
    "FormatError",
    "GatLayer",
    "GraphError",
    "IncidentLabels",
    "IncidentSpec",
    "MultiHeadAttention",
    "Normalizer",
    "NumericError",
    "PotConfig",
    "RadNet",
    "RadNetConfig",
    "RoadGraph",
    "ThresholdState",
    "TrainConfig",
    "TrainResult",
    "TransformerBlock",
    "build_baseline",
    "build_window",
    "evaluate",
    "gpd_fit",
    "grad_check",
    "hitrate_at",
    "label",
    "load_dataset",
    "ndcg_at",
    "no_grad",
    "pot_fit",
    "prf1",
    "residual_scores",
    "rollout_autoregressive",
    "run_detection",
    "save_dataset",
    "split_folds",
    "split_train_test",
    "synth_traffic",
    "train",
    "transformer_forward",
]
