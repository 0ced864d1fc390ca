"""Detection pipeline: shared thresholds, ground-truth identities, injection."""

import numpy as np
import pytest

from radnet.data import IncidentSpec, synth_traffic
from radnet.evaluation import evaluate
from radnet.incidents import build_baseline
from radnet.model import RadNet, RadNetConfig
from radnet.pipeline import (
    PotConfig,
    fit_threshold_states,
    forecast_series,
    generate_ground_truth,
    label_predictions,
    run_detection,
    split_train_test,
    write_report_csv,
)
from radnet.training import Normalizer, TrainConfig, train


@pytest.fixture(scope="module")
def incident_world():
    series, graph, mask = synth_traffic(
        4,
        14,
        delta_seconds=300,
        incidents=IncidentSpec(count=12, depth=0.5, duration=6, min_start=300),
        seed=21,
        noise=0.02,
    )
    train_ts, test_ts = split_train_test(series.n_steps, 0.3)
    return series, graph, mask, train_ts, test_ts


class TestSplitTrainTest:
    def test_contiguous_partition(self):
        a, b = split_train_test(100, 0.3)
        assert list(a) == list(range(70))
        assert list(b) == list(range(70, 100))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_train_test(100, 0.0)


class TestGroundTruth:
    def test_perfect_predictions_reproduce_truth_labels(self, incident_world):
        series, graph, _, train_ts, test_ts = incident_world
        baseline = build_baseline(series, train_ts)
        pot = PotConfig(percentile=98.0, risk_q=1e-2)
        net_state, link_states = fit_threshold_states(series, baseline, train_ts, pot)
        target_ts = test_ts[test_ts >= 1]
        truth = generate_ground_truth(
            series, baseline, net_state, link_states, target_ts, horizon=1, dynamic=pot.dynamic
        )
        predicted = label_predictions(series.data[target_ts], series, baseline, truth)
        np.testing.assert_array_equal(predicted.network_labels, truth.network_labels)
        np.testing.assert_array_equal(predicted.link_labels, truth.link_labels)
        report = evaluate(predicted, truth)
        assert report.f1 == 1.0

    def test_baseline_predictions_are_all_quiet(self, incident_world):
        series, graph, _, train_ts, test_ts = incident_world
        baseline = build_baseline(series, train_ts)
        pot = PotConfig(percentile=98.0, risk_q=1e-2)
        net_state, link_states = fit_threshold_states(series, baseline, train_ts, pot)
        target_ts = test_ts[test_ts >= 1]
        truth = generate_ground_truth(
            series, baseline, net_state, link_states, target_ts, horizon=1, dynamic=pot.dynamic
        )
        base_preds = baseline.for_series(series, target_ts)
        predicted = label_predictions(base_preds, series, baseline, truth)
        assert predicted.network_labels.sum() == 0
        assert predicted.link_labels.sum() == 0

    def test_truth_flags_cover_injected_steps(self, incident_world):
        # At a permissive risk level every injected cell in the test range
        # must be flagged (noise may add more).
        series, graph, mask, train_ts, test_ts = incident_world
        baseline = build_baseline(series, train_ts)
        pot = PotConfig(percentile=95.0, risk_q=5e-2, dynamic=False)
        net_state, link_states = fit_threshold_states(series, baseline, train_ts, pot)
        target_ts = test_ts[test_ts >= 1]
        truth = generate_ground_truth(
            series, baseline, net_state, link_states, target_ts, horizon=1, dynamic=False
        )
        injected_net = mask[target_ts].any(axis=1)
        assert (truth.network_labels[injected_net] == 1).all()
        injected_cells = mask[target_ts]
        assert (truth.link_labels[injected_cells] == 1).all()

    def test_shared_thresholds_between_streams(self, incident_world):
        series, graph, _, train_ts, test_ts = incident_world
        pot = PotConfig(percentile=98.0, risk_q=1e-2)
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, window=5, seed=0))
        norm = Normalizer.fit(series.data, train_ts)
        run = run_detection(model, series, graph, norm, pot, train_ts, test_ts)
        np.testing.assert_array_equal(
            run.predicted.network_thresholds, run.truth.network_thresholds
        )
        np.testing.assert_array_equal(
            run.predicted.link_thresholds, run.truth.link_thresholds
        )


class TestForecastSeries:
    def test_targets_out_of_range_rejected(self, incident_world):
        series, graph, _, train_ts, _ = incident_world
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, window=5, seed=1))
        norm = Normalizer.fit(series.data, train_ts)
        with pytest.raises(IndexError):
            forecast_series(model, series, graph, norm, np.array([0]))

    def test_shapes_and_units(self, incident_world):
        series, graph, _, train_ts, _ = incident_world
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, window=5, seed=1))
        norm = Normalizer.fit(series.data, train_ts)
        preds = forecast_series(model, series, graph, norm, np.arange(10, 20))
        assert preds.shape == (10, 4, 1)
        # de-normalized outputs should be on the data scale
        assert abs(preds.mean() - series.data.mean()) < 5 * series.data.std()

    def test_chunk_size_changes_forecasts_only_by_rounding(self, incident_world):
        series, graph, _, train_ts, _ = incident_world
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, window=5, seed=1))
        norm = Normalizer.fit(series.data, train_ts)
        targets = np.arange(10, 90)
        whole = forecast_series(model, series, graph, norm, targets, chunk=len(targets))
        for chunk in (1, 7, 32):
            np.testing.assert_allclose(
                forecast_series(model, series, graph, norm, targets, chunk=chunk),
                whole, rtol=1e-14,
            )


@pytest.mark.slow
class TestTrainedDetection:
    def test_trained_model_beats_static_guess(self, incident_world):
        series, graph, _, train_ts, test_ts = incident_world
        cfg = RadNetConfig(n_nodes=4, n_features=1, window=5, horizon=1, seed=3)
        model = RadNet(cfg)
        tc = TrainConfig(lr=1e-3, max_epochs=12, patience=12, seed=3)
        result = train(model, series, graph, tc, timesteps=train_ts)
        pot = PotConfig(percentile=98.0, risk_q=1e-2)
        run = run_detection(model, series, graph, result.normalizer, pot, train_ts, test_ts)
        report = evaluate(run.predicted, run.truth)
        assert report.f1 > 0.5
        assert report.hitrate[100] > 0.5

    def test_report_csv_layout(self, incident_world, tmp_path):
        series, graph, _, train_ts, test_ts = incident_world
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, window=5, seed=4))
        norm = Normalizer.fit(series.data, train_ts)
        pot = PotConfig(percentile=98.0, risk_q=1e-2)
        run = run_detection(model, series, graph, norm, pot, train_ts, test_ts)
        target_ts = run.truth.timesteps
        predictions = forecast_series(model, series, graph, norm, target_ts)
        path = tmp_path / "report.csv"
        write_report_csv(path, run, series, predictions)
        lines = path.read_text().splitlines()
        assert lines[0] == "timestep,link_id,baseline,truth,prediction,score,threshold,label"
        assert len(lines) == 1 + len(target_ts) * series.n_nodes
        t, j = lines[1].split(",")[:2]
        assert (int(t), int(j)) == (target_ts[0], 0)
        assert lines[1].split(",")[4] == f"{predictions[0, 0, 0]:.10g}"
