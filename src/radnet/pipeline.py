"""End-to-end incident prediction: forecast, residuals, thresholds, labels.

Ground truth is generated from the true series with the same threshold
stream later applied to the predictions, so the two label sets are directly
comparable. The threshold stream is driven by the true residuals (ground
truth must not depend on model quality); dynamic mode updates the tail
counters as those scores arrive. `ablate` runs forecast training, detection
and evaluation for every model variant at every seed.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import evaluation, files, training
from .data import FeatureSeries
from .graph import RoadGraph
from .incidents import (
    BaselineTable,
    IncidentLabels,
    PotConfig,
    ThresholdState,
    build_baseline,
    label,
    label_with_thresholds,
    pot_fit,
    residual_scores,
)
from .model import VARIANTS, RadNet, RadNetConfig, build_window
from .tensor import no_grad

log = logging.getLogger("radnet.pipeline")


# Share of the series, taken from its tail, held out for detection.
TEST_FRACTION = 0.3


def forecast_series(
    model: RadNet,
    series: FeatureSeries,
    graph: RoadGraph,
    normalizer: training.Normalizer,
    target_ts: np.ndarray,
    chunk: int = 32,
) -> np.ndarray:
    """Model forecasts for each target timestep, in original units.

    Each target u is predicted from the window ending at u - horizon in the
    normalized series; outputs are de-normalized (M, N, D). Windows run
    `chunk` at a time; one chunk's activations are the transient memory
    peak, and the chunk size moves forecasts by rounding only.
    """
    target_ts = np.asarray(target_ts, dtype=int)
    horizon = model.config.horizon
    if (target_ts < horizon).any() or (target_ts >= series.n_steps).any():
        raise IndexError("forecast targets outside the series range")
    data = normalizer.transform(series.data)
    out = np.empty((len(target_ts), series.n_nodes, series.n_features))
    with no_grad():
        for lo in range(0, len(target_ts), chunk):
            ts = target_ts[lo : lo + chunk]
            windows = build_window(data, ts - horizon, model.config.window)
            preds, _ = model.forward_batch(windows, graph)
            out[lo : lo + len(ts)] = normalizer.inverse(preds.values)
    return out


def fit_threshold_states(
    series: FeatureSeries,
    baseline: BaselineTable,
    calib_ts: np.ndarray,
    pot: PotConfig,
) -> tuple[ThresholdState, list[ThresholdState]]:
    """Calibrate the network state and one per-link state on true residuals."""
    calib_ts = np.asarray(calib_ts, dtype=int)
    base = baseline.for_series(series, calib_ts)
    calib = residual_scores(base, series.data[calib_ts])
    pct = pot.effective_percentile
    net_state = pot_fit(calib.network, pct, pot.risk_q, pot.refit_every)
    link_states = [
        pot_fit(calib.per_link[:, j], pct, pot.risk_q, pot.refit_every)
        for j in range(series.n_nodes)
    ]
    return net_state, link_states


def generate_ground_truth(
    series: FeatureSeries,
    baseline: BaselineTable,
    net_state: ThresholdState,
    link_states: list[ThresholdState],
    target_ts: np.ndarray,
    horizon: int,
    dynamic: bool,
) -> IncidentLabels:
    """Label the true series; the emitted thresholds are the shared stream."""
    target_ts = np.asarray(target_ts, dtype=int)
    base = baseline.for_series(series, target_ts)
    scores = residual_scores(base, series.data[target_ts])
    net_labels, net_thresholds = label(scores.network, net_state, dynamic)
    per_link = [label(scores.per_link[:, j], st, dynamic) for j, st in enumerate(link_states)]
    link_labels, link_thresholds = (np.stack(a, axis=1) for a in zip(*per_link))
    return IncidentLabels(
        horizon=horizon, timesteps=target_ts,
        network_scores=scores.network, network_thresholds=net_thresholds,
        network_labels=net_labels,
        link_scores=scores.per_link, link_thresholds=link_thresholds, link_labels=link_labels,
    )


def label_predictions(
    predictions: np.ndarray,
    series: FeatureSeries,
    baseline: BaselineTable,
    truth_labels: IncidentLabels,
) -> IncidentLabels:
    """Label forecasts against the threshold stream carried by the truth bundle."""
    target_ts = truth_labels.timesteps
    base = baseline.for_series(series, target_ts)
    scores = residual_scores(base, predictions)
    return IncidentLabels(
        horizon=truth_labels.horizon, timesteps=target_ts,
        network_scores=scores.network, network_thresholds=truth_labels.network_thresholds,
        network_labels=label_with_thresholds(scores.network, truth_labels.network_thresholds),
        link_scores=scores.per_link, link_thresholds=truth_labels.link_thresholds,
        link_labels=label_with_thresholds(scores.per_link, truth_labels.link_thresholds),
    )


@dataclass
class DetectionRun:
    """Both label bundles over the targets `truth.timesteps`, and the baseline."""

    predicted: IncidentLabels
    truth: IncidentLabels
    baseline: BaselineTable


def split_train_test(
    n_steps: int, test_fraction: float = TEST_FRACTION
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous head/tail partition of the series indices."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must be in (0, 1)")
    cut = int(round(n_steps * (1.0 - test_fraction)))
    cut = min(max(cut, 1), n_steps - 1)
    return np.arange(0, cut), np.arange(cut, n_steps)


def run_detection(
    model: RadNet,
    series: FeatureSeries,
    graph: RoadGraph,
    normalizer: training.Normalizer,
    pot: PotConfig,
    train_ts: np.ndarray,
    test_ts: np.ndarray,
) -> DetectionRun:
    """Forecast the test range and label both streams under shared thresholds."""
    horizon = model.config.horizon
    test_ts = np.asarray(test_ts, dtype=int)
    target_ts = test_ts[test_ts >= horizon]
    baseline = build_baseline(series, train_ts)
    predictions = forecast_series(model, series, graph, normalizer, target_ts)
    net_state, link_states = fit_threshold_states(series, baseline, train_ts, pot)
    truth = generate_ground_truth(
        series, baseline, net_state, link_states, target_ts, horizon, pot.dynamic
    )
    predicted = label_predictions(predictions, series, baseline, truth)
    return DetectionRun(predicted=predicted, truth=truth, baseline=baseline)


def ablate(
    series: FeatureSeries,
    graph: RoadGraph,
    model_cfg: RadNetConfig,
    train_cfg: training.TrainConfig,
    pot: PotConfig,
    seeds: Sequence[int],
    test_fraction: float = TEST_FRACTION,
) -> list[dict]:
    """Train, detect and score every variant in `VARIANTS` at every seed.

    Each run trains a fresh model on the head of the series with the seed
    set in both configs, then labels the test range. Returns one row per
    run, variants outer and seeds inner: variant, seed, val_mse (the best
    validation MSE), f1 and hitrate_100.
    """
    if len(seeds) == 0:
        raise ValueError("ablate needs at least one seed")
    train_ts, test_ts = split_train_test(series.n_steps, test_fraction)
    rows = []
    for variant in VARIANTS:
        for seed in seeds:
            model = RadNet(replace(model_cfg, variant=variant, seed=seed))
            result = training.train(model, series, graph, replace(train_cfg, seed=seed),
                                    timesteps=train_ts)
            run = run_detection(model, series, graph, result.normalizer, pot, train_ts, test_ts)
            report = evaluation.evaluate(run.predicted, run.truth)
            rows.append({"variant": variant, "seed": seed, "val_mse": result.best_val_mse,
                         "f1": report.f1, "hitrate_100": report.hitrate[100]})
            log.info("ablation %s seed %d: mse %.5f f1 %.3f", variant, seed, result.best_val_mse, report.f1)
    return rows


def write_report_csv(
    path: str | Path,
    run: DetectionRun,
    series: FeatureSeries,
    predictions: np.ndarray,
) -> None:
    """Plot-ready per-link rows: baseline, truth, prediction, threshold, label.

    `predictions` are the (M, N, D) forecasts `run` was labelled from; the
    rows show feature 0.
    """
    target_ts = run.truth.timesteps
    base = run.baseline.for_series(series, target_ts)
    pred = run.predicted

    def rows():
        for i, t in enumerate(target_ts):
            for j in range(series.n_nodes):
                values = (base[i, j, 0], series.data[t, j, 0],
                          predictions[i, j, 0], pred.link_scores[i, j],
                          pred.link_thresholds[i, j])
                yield [int(t), j, *(f"{v:.10g}" for v in values), int(pred.link_labels[i, j])]

    files.write_csv(path, ["timestep", "link_id", "baseline", "truth", "prediction",
                           "score", "threshold", "label"], rows())
