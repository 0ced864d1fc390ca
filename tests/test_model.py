"""Forecaster contracts: windows, fusion convexity, ablations, rollout,
parameter accounting."""

import json

import numpy as np
import pytest

from radnet import tensor as T
from radnet.errors import DimensionError, FormatError
from radnet.graph import RoadGraph
from radnet.model import (
    VARIANTS,
    RadNet,
    RadNetConfig,
    batch_loss,
    build_window,
    rollout_autoregressive,
)
from radnet.nn import named_parameters
from radnet.tensor import DiffArray


@pytest.fixture
def toy():
    cfg = RadNetConfig(n_nodes=4, n_features=1, window=5, seed=7)
    return RadNet(cfg), RoadGraph.ring(4)


def forecast(model, window, graph):
    """(N, D) prediction and path weights (None for no_skip) of one window."""
    preds, weights = model.forward_batch(window[None], graph)
    return preds.values[0], None if weights is None else weights.values[0]


def toy_series(n_steps=30, n_nodes=4, n_features=1, seed=0):
    return np.random.default_rng(seed).normal(size=(n_steps, n_nodes, n_features))


class TestBuildWindow:
    def test_full_replication_at_origin(self):
        data = toy_series()
        w = build_window(data, 0, 3)
        for k in range(3):
            np.testing.assert_array_equal(w[k], data[0])

    def test_no_padding_inside_series(self):
        data = toy_series()
        w = build_window(data, 5, 3)
        np.testing.assert_array_equal(w, data[3:6])

    def test_partial_replication(self):
        data = toy_series()
        w = build_window(data, 1, 3)
        np.testing.assert_array_equal(w[0], data[0])
        np.testing.assert_array_equal(w[1], data[0])
        np.testing.assert_array_equal(w[2], data[1])

    def test_last_slice_is_current_step(self):
        data = toy_series()
        np.testing.assert_array_equal(build_window(data, 9, 4)[-1], data[9])

    def test_out_of_range(self):
        data = toy_series(10)
        with pytest.raises(IndexError):
            build_window(data, 10, 3)
        with pytest.raises(IndexError):
            build_window(data, -1, 3)
        with pytest.raises(IndexError, match="timestep 12 "):
            build_window(data, np.array([4, 12, 11]), 3)

    def test_array_of_timesteps_stacks_scalar_windows(self):
        data = toy_series()
        ts = np.array([7, 0, 2, 29, 2])
        np.testing.assert_array_equal(
            build_window(data, ts, 4), np.stack([build_window(data, int(t), 4) for t in ts])
        )


class TestForward:
    def test_output_shape_and_finite(self, toy):
        model, g = toy
        w = np.random.default_rng(1).normal(size=(5, 4, 1))
        pred, _ = forecast(model, w, g)
        assert pred.shape == (4, 1)
        assert np.isfinite(pred).all()

    def test_fusion_weights_convex(self, toy):
        model, g = toy
        rng = np.random.default_rng(2)
        for _ in range(50):
            _, weights = forecast(model, rng.normal(size=(5, 4, 1)) * 5, g)
            assert weights.shape == (3,)
            assert (weights >= 0).all()
            assert abs(weights.sum() - 1.0) <= 1e-9

    def test_equal_logits_give_uniform_weights(self, toy):
        model, g = toy
        model.fusion.weight.values[...] = 0.0
        model.fusion.bias.values[...] = 0.0
        _, weights = forecast(model, np.random.default_rng(3).normal(size=(5, 4, 1)), g)
        np.testing.assert_allclose(weights, np.full(3, 1 / 3), atol=1e-12)

    def test_eval_mode_deterministic(self, toy):
        model, g = toy
        w = np.random.default_rng(4).normal(size=(5, 4, 1))
        a, _ = forecast(model, w, g)
        b, _ = forecast(model, w, g)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_model(self):
        cfg = RadNetConfig(n_nodes=4, n_features=1, seed=11)
        m1, m2 = RadNet(cfg), RadNet(cfg)
        for (n1, p1), (n2, p2) in zip(
            named_parameters(m1).items(), named_parameters(m2).items()
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)

    def test_graph_size_mismatch(self, toy):
        model, _ = toy
        with pytest.raises(DimensionError):
            forecast(model, np.zeros((5, 4, 1)), RoadGraph.ring(5))

    def test_batch_matches_single(self, toy):
        # Row b of a batch equals the batch-of-one forecast of window b.
        model, g = toy
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(3, 5, 4, 1))
        preds, weights = model.forward_batch(batch, g)
        for b in range(3):
            pred, path_weights = forecast(model, batch[b], g)
            np.testing.assert_allclose(preds.values[b], pred, atol=1e-12)
            np.testing.assert_allclose(weights.values[b], path_weights, atol=1e-12)

    def test_single_window_rejected(self, toy):
        model, g = toy
        with pytest.raises(DimensionError):
            model.forward_batch(np.zeros((5, 4, 1)), g)

    def test_multi_feature_config(self):
        cfg = RadNetConfig(n_nodes=3, n_features=2, window=4, seed=0)
        model = RadNet(cfg)
        pred, _ = forecast(
            model, np.random.default_rng(6).normal(size=(4, 3, 2)), RoadGraph.ring(3)
        )
        assert pred.shape == (3, 2)


class TestVariants:
    def test_no_skip_is_plain_sum(self):
        # no_skip feeds decoder(path1 + path2 + input), unweighted.
        cfg = RadNetConfig(
            n_nodes=3, n_features=1, window=2, variant="no_skip", seed=3
        )
        model = RadNet(cfg)
        g = RoadGraph.ring(3)
        w = np.random.default_rng(7).normal(size=(2, 3, 1))
        pred, weights = forecast(model, w, g)
        assert weights is None
        from radnet.temporal import transformer_forward

        mode = model.config.temporal_mode
        p1 = transformer_forward(
            model.transformer_st, model.gat_st(DiffArray(w), g).values, mode
        ).values
        p2 = model.gat_ts(
            transformer_forward(model.transformer_ts, w, mode), g
        ).values
        expected = model.decoder(DiffArray(p1 + p2 + w[-1])).values
        np.testing.assert_allclose(pred, expected, rtol=1e-9)

    @pytest.mark.parametrize("variant,kept", [("no_st", "gat_ts"), ("no_ts", "gat_st")])
    def test_single_path_variants_have_two_weights(self, variant, kept):
        cfg = RadNetConfig(n_nodes=4, n_features=1, variant=variant, seed=1)
        model = RadNet(cfg)
        _, weights = forecast(
            model, np.random.default_rng(8).normal(size=(5, 4, 1)), RoadGraph.ring(4)
        )
        assert weights.shape == (2,)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert getattr(model, kept) is not None

    def test_no_st_drops_spatio_temporal_path(self):
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, variant="no_st"))
        assert model.gat_st is None and model.transformer_st is None
        assert model.gat_ts is not None and model.transformer_ts is not None

    def test_no_ts_drops_temporo_spatial_path(self):
        model = RadNet(RadNetConfig(n_nodes=4, n_features=1, variant="no_ts"))
        assert model.gat_ts is None and model.transformer_ts is None

    def test_ablated_variants_have_fewer_parameters(self):
        base = dict(n_nodes=4, n_features=1, seed=0)
        full = RadNet(RadNetConfig(**base)).count_parameters()
        for variant in ("no_st", "no_ts", "no_skip"):
            abl = RadNet(RadNetConfig(**base, variant=variant)).count_parameters()
            assert abl < full


def _transformer_names(prefix):
    mha = ("w_query", "w_key", "w_value", "w_out")
    norm = ("gain", "shift")
    enc = f"{prefix}encoder."
    return (
        [f"{enc}attention.{w}" for w in mha]
        + [f"{enc}feed_forward.layers.{i}.{w}" for i in (0, 1) for w in ("weight", "bias")]
        + [f"{enc}norm_attn.{w}" for w in norm]
        + [f"{enc}norm_ff.{w}" for w in norm]
        + [f"{prefix}decoder_attention.{w}" for w in mha]
        + [f"{prefix}norm_decoder.{w}" for w in norm]
        + [f"{prefix}cross_attention.{w}" for w in mha]
        + [f"{prefix}norm_out.{w}" for w in norm]
    )


def _gat_names(prefix):
    return [f"{prefix}{w}" for w in ("theta", "score_src", "score_dst", "score_bias")]


class TestParameterStore:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_features", [1, 3])
    def test_walker_names_and_order(self, variant, n_features):
        model = RadNet(RadNetConfig(n_nodes=4, n_features=n_features, variant=variant))
        expected = []
        if variant != "no_st":
            expected += _gat_names("gat_st.") + _transformer_names("transformer_st.")
        if variant != "no_ts":
            expected += _transformer_names("transformer_ts.") + _gat_names("gat_ts.")
        if variant != "no_skip":
            expected += ["fusion.weight", "fusion.bias"]
        expected += [f"decoder.layers.{i}.{w}" for i in range(3) for w in ("weight", "bias")]
        assert list(model.store.params) == expected
        walked = named_parameters(model)
        assert list(walked) == expected
        assert all(walked[n] is p for n, p in model.store.params.items())

    def test_every_parameter_is_a_view_of_flat(self, toy):
        model, _ = toy
        offset = 0
        for p in model.store.params.values():
            assert np.shares_memory(p.values, model.store.flat)
            np.testing.assert_array_equal(
                p.values.reshape(-1), model.store.flat[offset : offset + p.size]
            )
            offset += p.size
        assert offset == model.store.flat.size == model.count_parameters()

    def test_loading_a_mismatched_checkpoint_names_the_parameters(self, tmp_path):
        RadNet(RadNetConfig(n_nodes=4, n_features=1, variant="no_skip")).save(tmp_path / "a")
        manifest = json.loads((tmp_path / "a.json").read_text())
        manifest["hyperparameters"]["config"]["variant"] = "full"
        (tmp_path / "a.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="fusion.weight"):
            RadNet.load(tmp_path / "a")


    def test_loading_a_stale_config_names_the_unknown_fields(self, tmp_path):
        RadNet(RadNetConfig(n_nodes=4, n_features=1)).save(tmp_path / "a")
        manifest = json.loads((tmp_path / "a.json").read_text())
        # Fields of RadNetConfig that checkpoints from earlier versions carry.
        manifest["hyperparameters"]["config"].update(
            temporal_mode="flattened", decoder_source="window"
        )
        (tmp_path / "a.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="decoder_source.*temporal_mode"):
            RadNet.load(tmp_path / "a")


class TestLoss:
    # A batch of one is the per-timestep objective: the Frobenius norm of
    # truth minus prediction.
    def test_zero_at_exact_prediction(self):
        x = np.random.default_rng(9).normal(size=(1, 4, 2))
        assert batch_loss(DiffArray(x), x).item() == 0.0

    def test_closed_form(self):
        loss = batch_loss(DiffArray(np.zeros((1, 1, 2))), np.array([[[3.0, 4.0]]]))
        assert loss.item() == pytest.approx(5.0)

    def test_matches_independent_norm(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(1, 5, 3)), rng.normal(size=(1, 5, 3))
        assert batch_loss(DiffArray(a), b).item() == pytest.approx(
            np.linalg.norm(a[0] - b[0]), rel=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            batch_loss(DiffArray(np.zeros((1, 2, 2))), np.zeros((1, 3, 2)))

    def test_batch_loss_is_mean_of_per_sample_norms(self):
        rng = np.random.default_rng(11)
        p, t = rng.normal(size=(6, 4, 2)), rng.normal(size=(6, 4, 2))
        expected = np.mean([np.linalg.norm(p[b] - t[b]) for b in range(6)])
        assert batch_loss(DiffArray(p), t).item() == pytest.approx(expected, rel=1e-12)


def reference_rollout(model, window, horizon, graph, truth, forced):
    """One window rolled out by batch-of-one forecasts, replaying `forced`."""
    for step in range(horizon - 1):
        pred, _ = forecast(model, window, graph)
        nxt = truth[step] if forced[step] else pred
        window = np.concatenate([window[1:], nxt[None]], axis=0)
    return forecast(model, window, graph)[0]


class TestRollout:
    def test_single_step_equals_forward(self, toy):
        model, g = toy
        w = np.random.default_rng(12).normal(size=(3, 5, 4, 1))
        direct, _ = model.forward_batch(w, g)
        rolled, forced = rollout_autoregressive(model, w, 1, g)
        np.testing.assert_array_equal(direct.values, rolled.values)
        assert forced.shape == (3, 0)

    def test_single_step_draws_nothing(self, toy):
        model, g = toy
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        w = np.zeros((2, 5, 4, 1))
        rollout_autoregressive(
            model, w, 1, g, truth=np.zeros((2, 0, 4, 1)), teacher_force_p=0.5, rng=rng
        )
        assert rng.bit_generator.state == before

    def test_two_steps_match_manual_composition(self, toy):
        model, g = toy
        w = np.random.default_rng(13).normal(size=(5, 4, 1))
        rolled, _ = rollout_autoregressive(model, w[None], 2, g)
        first, _ = forecast(model, w, g)
        manual_window = np.concatenate([w[1:], first[None]], axis=0)
        manual, _ = forecast(model, manual_window, g)
        np.testing.assert_allclose(rolled.values[0], manual, atol=1e-12)

    def test_batched_rollout_matches_per_sample_reference(self, toy):
        model, g = toy
        rng = np.random.default_rng(18)
        w = rng.normal(size=(6, 5, 4, 1))
        truth = rng.normal(size=(6, 3, 4, 1))
        rolled, forced = rollout_autoregressive(
            model, w, 4, g, truth=truth, teacher_force_p=0.5, rng=rng
        )
        assert forced.shape == (6, 3) and forced.any() and not forced.all()
        for b in range(6):
            expected = reference_rollout(model, w[b], 4, g, truth[b], forced[b])
            np.testing.assert_allclose(rolled.values[b], expected, rtol=1e-12)

    def test_teacher_forcing_frequency(self, toy):
        model, g = toy
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 4, 1))
        truth = rng.normal(size=(4, 4, 1))
        _, forced = rollout_autoregressive(
            model, np.repeat(w[None], 200, axis=0), 5, g,
            truth=np.repeat(truth[None], 200, axis=0), teacher_force_p=0.2, rng=rng,
        )
        assert forced.shape == (200, 4)
        assert abs(forced.mean() - 0.2) < 0.05

    def test_gradient_through_teacher_forced_rollout(self):
        cfg = RadNetConfig(n_nodes=3, n_features=1, window=3, seed=5, decoder_widths=(4,))
        model = RadNet(cfg)
        g = RoadGraph.ring(3)
        rng = np.random.default_rng(19)
        w = rng.normal(size=(2, 3, 3, 1))
        truth = rng.normal(size=(2, 2, 3, 1))
        target = rng.normal(size=(2, 3, 1))
        masks = []

        def f():
            # Re-seeded so every evaluation draws the same forcing and dropout.
            preds, forced = rollout_autoregressive(
                model, w, 3, g, truth=truth, teacher_force_p=0.5,
                rng=np.random.default_rng(20), training=True,
            )
            masks.append(forced)
            return batch_loss(preds, target)

        err = T.grad_check(f, named_parameters(model).values())
        assert masks[0].any() and not masks[0].all()
        assert err < 1e-4

    def test_truth_shape_checked(self, toy):
        model, g = toy
        with pytest.raises(DimensionError):
            rollout_autoregressive(
                model, np.zeros((2, 5, 4, 1)), 3, g, truth=np.zeros((2, 3, 4, 1)),
                teacher_force_p=0.5, rng=np.random.default_rng(0),
            )

    def test_bad_horizon(self, toy):
        model, g = toy
        with pytest.raises(ValueError):
            rollout_autoregressive(model, np.zeros((1, 5, 4, 1)), 0, g)


class TestParameterAccounting:
    def test_single_affine_layer_count(self):
        from radnet.nn import Linear

        lin = Linear(7, 3, np.random.default_rng(0))
        total = sum(p.size for p in named_parameters(lin).values())
        assert total == 7 * 3 + 3

    def test_ledger_sums_to_count(self, toy):
        model, _ = toy
        ledger = model.parameter_ledger()
        assert sum(size for _, _, size in ledger) == model.count_parameters()

    def test_toy_count_matches_analytic_sum(self, toy):
        # D=1 resolves to flattened temporal attention, so the transformer
        # model width is N*D while the graph attention stays D-wide.
        model, _ = toy
        n, d, heads, hidden = 4, 1, 1, 16
        dm = n * d
        gat = heads * (d * d + 2 * d * 1 + 1)
        mha = heads * 3 * dm * (dm // heads) + dm * dm
        encoder_ff = (dm * hidden + hidden) + (hidden * dm + dm)
        norm = 2 * dm
        transformer = (mha + encoder_ff + 2 * norm) + (mha + norm) + (mha + norm)
        fusion = (n * d) * 3 + 3
        decoder = (d * 64 + 64) + (64 * 64 + 64) + (64 * d + d)
        expected = 2 * gat + 2 * transformer + fusion + decoder
        assert model.count_parameters() == expected

    def test_checkpoint_round_trip(self, toy, tmp_path):
        model, g = toy
        w = np.random.default_rng(15).normal(size=(5, 4, 1))
        before, _ = forecast(model, w, g)
        model.save(tmp_path / "ckpt", extra_hyperparameters={"note": "test"})
        restored, manifest = RadNet.load(tmp_path / "ckpt")
        assert manifest["hyperparameters"]["note"] == "test"
        np.testing.assert_array_equal(forecast(restored, w, g)[0], before)


class TestGradients:
    def test_end_to_end_gradient_small_decoder(self):
        # Same architecture as the toy acceptance check but with a narrow
        # decoder so the full parameter sweep stays quick here.
        cfg = RadNetConfig(
            n_nodes=3, n_features=1, window=3, seed=5, decoder_widths=(4,)
        )
        model = RadNet(cfg)
        g = RoadGraph.ring(3)
        rng = np.random.default_rng(16)
        w = rng.normal(size=(3, 3, 1))
        target = rng.normal(size=(3, 1))

        def f():
            return batch_loss(model.forward_batch(w[None], g)[0], target[None])

        err = T.grad_check(f, named_parameters(model).values())
        assert err < 1e-4


class TestTapeBudget:
    # one training step: every op recorded from the windows to the loss
    @pytest.mark.parametrize("n_nodes, n_features, nodes", [(4, 1, 158), (16, 7, 204)])
    def test_training_step_records_fixed_node_count(self, n_nodes, n_features, nodes):
        model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features, seed=0))
        assert model.config.transformer_heads == n_features
        rng = np.random.default_rng(0)
        data = toy_series(40, n_nodes, n_features)
        ts = np.arange(4, 36)  # a batch of 32
        preds, _ = rollout_autoregressive(
            model, build_window(data, ts, 5), 1, RoadGraph.ring(n_nodes), rng=rng, training=True
        )
        loss = batch_loss(preds, data[ts + 1])
        seen, stack, recorded = set(), [loss], 0
        while stack:
            x = stack.pop()
            if id(x) not in seen:
                seen.add(id(x))
                if x.op_trace is not None:
                    recorded += 1
                    stack.extend(x.op_trace.inputs)
        assert recorded == nodes
