"""Fold construction, early stopping, and training-loop behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnet import training
from radnet.data import synth_traffic
from radnet.model import RadNet, RadNetConfig
from radnet.training import (
    Normalizer,
    TrainConfig,
    split_folds,
    train,
    write_loss_csv,
)


class TestSplitFolds:
    def test_validation_blocks_partition_range(self):
        folds = split_folds(100, 5, window=5, horizon=1)
        assert [len(f.val_range) for f in folds] == [20] * 5
        seen = []
        for f in folds:
            seen.extend(f.val_range)
        assert sorted(seen) == list(range(100))
        for a in range(5):
            for b in range(a + 1, 5):
                assert not (set(folds[a].val_range) & set(folds[b].val_range))

    def test_boundary_enumeration(self):
        # No train sample may touch a validation index, and vice versa,
        # for windows, targets, or anything between.
        window, horizon = 4, 2
        folds = split_folds(60, 3, window, horizon)
        for fold in folds:
            val = set(fold.val_range)
            for t in fold.train_samples:
                needed = {max(0, i) for i in range(t - window + 1, t + 1)}
                needed.update(range(t + 1, t + horizon + 1))
                assert not (needed & val)
            for t in fold.val_samples:
                needed = {max(0, i) for i in range(t - window + 1, t + 1)}
                needed.update(range(t + 1, t + horizon + 1))
                assert needed <= val

    def test_straddling_samples_excluded_from_both(self):
        window, horizon = 3, 1
        folds = split_folds(30, 3, window, horizon)
        middle = folds[1]
        assigned = set(middle.train_samples) | set(middle.val_samples)
        # the sample targeting the first validation step from the train side
        boundary_t = middle.val_range.start - 1
        assert boundary_t not in assigned

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            split_folds(20, 5, window=4, horizon=2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_set_definition(self, data):
        # Sample t needs steps max(0, t - window + 1) .. t + horizon; it
        # trains when all of them are outside the fold, validates when all
        # are inside it, and is dropped otherwise.
        folds = data.draw(st.integers(2, 6))
        window = data.draw(st.integers(1, 8))
        horizon = data.draw(st.integers(1, 4))
        n_steps = data.draw(st.integers(folds * (window + horizon), 150))
        for fold in split_folds(n_steps, folds, window, horizon):
            val = set(fold.val_range)
            train = set(range(n_steps)) - val
            assert set().union(*fold.train_ranges) == train
            train_samples, val_samples = [], []
            for t in range(n_steps - horizon):
                needed = {max(0, i) for i in range(t - window + 1, t + 1)}
                needed.update(range(t + 1, t + horizon + 1))
                if needed <= train:
                    train_samples.append(t)
                elif needed <= val:
                    val_samples.append(t)
            np.testing.assert_array_equal(fold.train_samples, train_samples)
            np.testing.assert_array_equal(fold.val_samples, val_samples)


@pytest.mark.filterwarnings("ignore:fewer than 8 days")
class TestEarlyStopper:
    @staticmethod
    def _train_on_losses(monkeypatch, losses, patience):
        """Train a tiny model whose validation loss reads `losses` epoch by epoch."""
        series, graph, _ = synth_traffic(3, 3, delta_seconds=1800, seed=0)
        model = RadNet(RadNetConfig(n_nodes=3, n_features=1, window=3, horizon=1, seed=0))
        sequence = iter(losses)

        def scripted(*args, **kwargs):
            loss = next(sequence)
            return loss, loss

        monkeypatch.setattr(training, "_validation_losses", scripted)
        tc = TrainConfig(lr=1e-3, max_epochs=len(losses), patience=patience, seed=0)
        return train(model, series, graph, tc)

    def test_stops_after_patience_without_improvement(self, monkeypatch):
        # improving through epoch 3, strictly worse afterwards, patience 2
        result = self._train_on_losses(monkeypatch, [1.0, 0.9, 0.8, 0.7, 0.75, 0.8, 0.85], 2)
        assert result.stopped_epoch == 5
        assert result.stopped_by == "patience"
        assert result.best_epoch == 3
        assert (result.best_val_loss, result.best_val_mse) == (0.7, 0.7)
        assert [h[2] for h in result.history] == [1.0, 0.9, 0.8, 0.7, 0.75, 0.8]

    def test_never_stops_while_improving(self, monkeypatch):
        result = self._train_on_losses(monkeypatch, [5.0, 4.0, 3.0, 2.0], 1)
        assert result.stopped_epoch == 3
        assert result.stopped_by == "max_epochs"
        assert result.best_epoch == 3
        assert len(result.history) == 4


class TestNormalizer:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.5, size=(20, 4, 2))
        norm = Normalizer.fit(data, np.arange(15))
        z = norm.transform(data)
        np.testing.assert_allclose(norm.inverse(z), data, rtol=1e-12)
        sub = z[:15]
        np.testing.assert_allclose(sub.mean(axis=(0, 1)), 0.0, atol=1e-12)
        np.testing.assert_allclose(sub.std(axis=(0, 1)), 1.0, rtol=1e-9)

    def test_serialization(self):
        norm = Normalizer(np.array([1.0, 2.0]), np.array([0.5, 4.0]))
        again = Normalizer.from_dict(norm.to_dict())
        np.testing.assert_array_equal(again.mean, norm.mean)
        np.testing.assert_array_equal(again.std, norm.std)


@pytest.mark.filterwarnings("ignore:fewer than 8 days")
class TestTrain:
    def _quick_setup(self, seed=0, days=3):
        series, graph, _ = synth_traffic(3, days, delta_seconds=1800, seed=seed)
        cfg = RadNetConfig(n_nodes=3, n_features=1, window=3, horizon=1, seed=seed)
        return RadNet(cfg), series, graph

    def test_constant_series_reaches_near_zero_validation(self):
        series, graph, _ = synth_traffic(3, 3, delta_seconds=1800, noise=0.0, seed=1)
        series.data[...] = 1.0
        cfg = RadNetConfig(n_nodes=3, n_features=1, window=3, horizon=1, seed=1)
        model = RadNet(cfg)
        tc = TrainConfig(lr=3e-3, max_epochs=50, patience=50, batch=16, seed=1)
        result = train(model, series, graph, tc)
        assert result.best_val_loss < 0.05

    def test_identical_seeds_identical_curves(self):
        runs = []
        for _ in range(2):
            model, series, graph = self._quick_setup(seed=2)
            tc = TrainConfig(lr=1e-3, max_epochs=4, patience=10, seed=2)
            runs.append(train(model, series, graph, tc).history)
        assert runs[0] == runs[1]

    def test_best_checkpoint_restored(self):
        model, series, graph = self._quick_setup(seed=3)
        tc = TrainConfig(lr=1e-3, max_epochs=6, patience=2, seed=3)
        result = train(model, series, graph, tc)
        folds = split_folds(series.n_steps, tc.folds, 3, 1)
        fold = folds[-1]
        from radnet.training import _validation_losses

        data = result.normalizer.transform(series.data)
        val_loss, _ = _validation_losses(model, data, fold.val_samples, graph)
        assert val_loss == pytest.approx(result.best_val_loss, rel=1e-9)

    def test_parameters_stay_views_of_the_store(self):
        model, series, graph = self._quick_setup(seed=3)
        tc = TrainConfig(lr=1e-3, max_epochs=2, patience=2, seed=3)
        train(model, series, graph, tc)
        for name, p in model.store.params.items():
            assert np.shares_memory(p.values, model.store.flat), name

    def test_loss_csv_emitted(self, tmp_path):
        model, series, graph = self._quick_setup(seed=4)
        tc = TrainConfig(lr=1e-3, max_epochs=2, patience=5, seed=4)
        write_loss_csv(tmp_path / "loss.csv", train(model, series, graph, tc).history)
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3

    def test_autoregressive_training_runs(self):
        model, series, graph = self._quick_setup(seed=5)
        tc = TrainConfig(
            lr=1e-3, max_epochs=2, patience=5, batch=8, seed=5,
            autoregressive_horizon=3,
        )
        result = train(model, series, graph, tc)
        assert len(result.history) == 2
        assert np.isfinite(result.best_val_loss)

    def test_autoregressive_training_of_a_multi_step_model_refused(self):
        _, series, graph = self._quick_setup(seed=5)
        model = RadNet(RadNetConfig(n_nodes=series.n_nodes, n_features=series.n_features,
                                    window=3, horizon=3, seed=5))
        tc = TrainConfig(max_epochs=1, autoregressive_horizon=2)
        with pytest.raises(ValueError, match="autoregressive_horizon=2.*horizon is 3"):
            train(model, series, graph, tc)

    def test_nan_loss_aborts_with_diagnostics(self, monkeypatch):
        from radnet.errors import NumericError
        from radnet.tensor import DiffArray

        model, series, graph = self._quick_setup(seed=6)
        real = model.forward_batch

        def poisoned(windows, g, training=False, rng=None):
            pred, w = real(windows, g, training=training, rng=rng)
            return DiffArray(np.full(pred.shape, np.nan)), w

        monkeypatch.setattr(model, "forward_batch", poisoned)
        tc = TrainConfig(lr=1e-3, max_epochs=2, patience=5, seed=6)
        with pytest.raises(NumericError, match="lr=0.001"):
            train(model, series, graph, tc)

    def test_never_finite_validation_raises(self, monkeypatch):
        from radnet.errors import NumericError
        from radnet.tensor import DiffArray

        model, series, graph = self._quick_setup(seed=6)
        real = model.forward_batch

        def poisoned_eval(windows, g, training=False, rng=None):
            pred, w = real(windows, g, training=training, rng=rng)
            return (pred if training else DiffArray(np.full(pred.shape, np.nan))), w

        monkeypatch.setattr(model, "forward_batch", poisoned_eval)
        tc = TrainConfig(lr=1e-3, max_epochs=2, patience=5, seed=6)
        with pytest.raises(NumericError, match="any of the 2 epochs"):
            train(model, series, graph, tc)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(folds=1)

    def test_max_epochs_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_teacher_forcing_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="teacher_forcing_p"):
            TrainConfig(teacher_forcing_p=p)

    @pytest.mark.parametrize("field, value", [
        ("batch", 0), ("batch", -3), ("betas", (1.0, 0.999)), ("betas", (0.9, -0.1)),
        ("betas", (0.9, float("nan"))), ("eps", 0.0), ("eps", -1e-8),
        ("weight_decay", -1e-2), ("weight_decay", float("nan")),
    ])
    def test_bad_optimizer_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_optimizer_setting_boundaries_accepted(self):
        TrainConfig(batch=1, betas=(0.0, 0.0), weight_decay=0.0)

    def test_negative_autoregressive_horizon_rejected(self):
        with pytest.raises(ValueError, match="autoregressive_horizon"):
            TrainConfig(autoregressive_horizon=-2)
