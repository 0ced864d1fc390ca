"""Layers: feed-forward contracts, layer norm, the parameter walker and store,
checkpoint round-trips."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from radnet import tensor as T
from radnet.errors import DimensionError, FormatError
from radnet.graph import GatLayer
from radnet.nn import (
    FeedForward,
    LayerNorm,
    Linear,
    ParameterStore,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from radnet.temporal import EncoderBlock, MultiHeadAttention
from radnet.tensor import DiffArray


class TestFeedForward:
    def test_zero_weights_zero_bias_give_zero(self):
        rng = np.random.default_rng(0)
        ff = FeedForward((3, 3), rng)
        ff.layers[0].weight.values[...] = 0.0
        out = ff(DiffArray(np.ones((2, 3))))
        np.testing.assert_array_equal(out.values, np.zeros((2, 3)))

    def test_identity_weights_pass_through(self):
        rng = np.random.default_rng(0)
        ff = FeedForward((3, 3), rng)
        ff.layers[0].weight.values[...] = np.eye(3)
        x = np.array([[0.2, 1.5, -0.7]])
        out = ff(DiffArray(x))
        np.testing.assert_allclose(out.values, x)

    def test_width_mismatch(self):
        ff = FeedForward((4, 2), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            ff(DiffArray(np.zeros((1, 3))))

    def test_gradient_check_all_weights(self):
        rng = np.random.default_rng(13)
        ff = FeedForward((3, 5, 2), rng)
        x = DiffArray(rng.normal(size=(4, 3)))
        w = rng.normal(size=(4, 2))

        def f():
            return (ff(x) * w).sum()

        err = T.grad_check(f, named_parameters(ff).values())
        assert err < 1e-6

    def test_parameter_names(self):
        ff = FeedForward((2, 4, 1), np.random.default_rng(0))
        names = list(named_parameters(ff, "ff.").keys())
        assert names == [
            "ff.layers.0.weight", "ff.layers.0.bias", "ff.layers.1.weight", "ff.layers.1.bias"
        ]


def composed_layer_norm(x, gain, shift, eps):
    """Reference: the layer norm as a chain of nine primitive tape nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / T.sqrt(var + eps) * gain + shift


class TestLayerNorm:
    def test_normalizes_to_zero_mean_unit_variance(self):
        ln = LayerNorm(3)
        out = ln(DiffArray([1.0, 2.0, 3.0]))
        assert out.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.values.var() == pytest.approx(1.0, rel=1e-4)

    def test_constant_slice_maps_to_zero(self):
        ln = LayerNorm(3)
        out = ln(DiffArray([5.0, 5.0, 5.0]))
        np.testing.assert_allclose(out.values, np.zeros(3), atol=1e-12)

    def test_affine_applied_after_normalization(self):
        ln = LayerNorm(2)
        ln.gain.values[...] = [2.0, 2.0]
        ln.shift.values[...] = [1.0, 1.0]
        out = ln(DiffArray([[0.0, 2.0]]))
        np.testing.assert_allclose(out.values, [[-1.0, 3.0]], rtol=1e-6)

    def test_width_one_rejected(self):
        with pytest.raises(DimensionError):
            LayerNorm(1)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError, match="layer norm width 3"):
            LayerNorm(3)(DiffArray(np.zeros((2, 4))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        ln = LayerNorm(6)
        ln.gain.values[...] = rng.normal(size=6)
        ln.shift.values[...] = rng.normal(size=6)
        x = DiffArray(rng.normal(size=(3, 6)), requires_grad=True)
        w = rng.normal(size=(3, 6))

        def f():
            return (ln(x) * w).sum()

        err = T.grad_check(f, [x, ln.gain, ln.shift])
        assert err < 1e-5

    def test_fused_gradient_with_constant_row(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=(2, 3, 6))
        values[1, 2] = 0.7  # std = sqrt(eps): the steepest point of the normalization
        x = DiffArray(values, requires_grad=True)
        gain = DiffArray(rng.normal(size=6), requires_grad=True)
        shift = DiffArray(rng.normal(size=6), requires_grad=True)
        w = rng.normal(size=(2, 3, 6))

        def f():
            return (T.layer_norm(x, gain, shift, 1e-6) * w).sum()

        assert T.grad_check(f, [x, gain, shift], step=1e-6) < 1e-6

    # the flattened C07 width, its final-query rows, train-radset's per-node width,
    # and a width past numpy's pairwise switch at 8
    @pytest.mark.parametrize("shape", [(32, 5, 4), (32, 1, 4), (32, 16, 5, 7), (32, 5, 12)])
    def test_fused_node_is_bit_identical_to_composed_chain(self, shape):
        """Values and the gain and shift gradients bit for bit; the input gradient,
        a closed form, within rtol 1e-12 of its largest magnitude."""
        rng = np.random.default_rng(16)
        values = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[:-1] + (1,))
        gain_values = rng.normal(size=shape[-1])
        shift_values = rng.normal(size=shape[-1])
        w = rng.normal(size=shape)
        results = []
        for norm in (composed_layer_norm, T.layer_norm):
            x = DiffArray(values, requires_grad=True)
            gain = DiffArray(gain_values, requires_grad=True)
            shift = DiffArray(shift_values, requires_grad=True)
            out = norm(x, gain, shift, 1e-6)
            (out * w).sum().backward()
            results.append((out.values, x.grad, gain.grad, shift.grad))
        composed, fused = results
        for i in (0, 2, 3):  # values, gain and shift gradients
            np.testing.assert_array_equal(fused[i], composed[i])
        atol = 1e-12 * np.abs(composed[1]).max()
        np.testing.assert_allclose(fused[1], composed[1], rtol=0, atol=atol)


class TestWalker:
    def test_standalone_layers(self):
        rng = np.random.default_rng(0)
        mha = ["w_query", "w_key", "w_value", "w_out"]
        assert list(named_parameters(Linear(2, 3, rng))) == ["weight", "bias"]
        assert list(named_parameters(LayerNorm(3))) == ["gain", "shift"]
        assert list(named_parameters(MultiHeadAttention(4, 2, rng))) == mha
        assert list(named_parameters(GatLayer(2, 2, rng, n_heads=3))) == [
            "theta", "score_src", "score_dst", "score_bias"
        ]
        assert list(named_parameters(EncoderBlock(4, 2, rng, 8, 0.1), "enc.")) == (
            [f"enc.attention.{w}" for w in mha]
            + [f"enc.feed_forward.layers.{i}.{w}" for i in (0, 1) for w in ("weight", "bias")]
            + ["enc.norm_attn.gain", "enc.norm_attn.shift", "enc.norm_ff.gain", "enc.norm_ff.shift"]
        )

    def test_returns_the_attributes_themselves(self):
        lin = Linear(2, 3, np.random.default_rng(0))
        params = named_parameters(lin)
        assert params["weight"] is lin.weight and params["bias"] is lin.bias

    def test_skips_constants_none_and_plain_values(self):
        module = SimpleNamespace(
            frozen=DiffArray(np.ones(2)),
            missing=None,
            width=3,
            table=np.ones(4),
            nested=[SimpleNamespace(w=DiffArray(np.zeros(1), requires_grad=True)), None],
        )
        assert list(named_parameters(module)) == ["nested.0.w"]


def _two_tensor_store(rng):
    return ParameterStore({
        "a": DiffArray(rng.normal(size=(2, 3)), requires_grad=True),
        "b": DiffArray(rng.normal(size=4), requires_grad=True),
    })


class TestParameterStore:
    def test_values_become_views_of_flat_without_changing(self):
        lin = Linear(2, 3, np.random.default_rng(1))
        before = {n: p.values.copy() for n, p in named_parameters(lin).items()}
        store = ParameterStore(named_parameters(lin))
        assert store.flat.shape == (2 * 3 + 3,)
        for name, p in store.params.items():
            assert np.shares_memory(p.values, store.flat)
            np.testing.assert_array_equal(p.values, before[name])
        store.flat[...] = 0.0
        assert not lin.weight.values.any() and not lin.bias.values.any()

    def test_flat_grad_in_flat_order(self):
        store = _two_tensor_store(np.random.default_rng(2))
        store.params["a"].grad = np.arange(6.0).reshape(2, 3)
        store.params["b"].grad = np.arange(6.0, 10.0)
        np.testing.assert_array_equal(store.flat_grad(), np.arange(10.0))

    def test_missing_gradient_names_the_parameter(self):
        store = _two_tensor_store(np.random.default_rng(3))
        store.params["a"].grad = np.zeros((2, 3))
        with pytest.raises(ValueError, match="parameter b needs a \\(4,\\) gradient, has None"):
            store.flat_grad()

    def test_name_at(self):
        store = _two_tensor_store(np.random.default_rng(4))
        assert [store.name_at(i) for i in (0, 5, 6, 9)] == ["a", "a", "b", "b"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = _two_tensor_store(np.random.default_rng(15))
        stem = tmp_path / "model"
        save_checkpoint(stem, store, seed=15, hyperparameters={"lr": 5e-4})
        flat, manifest = load_checkpoint(stem)
        assert manifest["seed"] == 15
        assert manifest["hyperparameters"]["lr"] == 5e-4
        assert manifest["format"] == 2
        assert manifest["names"] == ["a", "b"]
        assert manifest["shapes"] == {"a": [2, 3], "b": [4]}
        np.testing.assert_array_equal(flat, store.flat)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.json"]

    def test_assign_into_model(self, tmp_path):
        lin = Linear(2, 3, np.random.default_rng(16))
        stem = tmp_path / "ckpt"
        save_checkpoint(stem, ParameterStore(named_parameters(lin)))
        fresh = Linear(2, 3, np.random.default_rng(99))
        store = ParameterStore(named_parameters(fresh))
        flat, _ = load_checkpoint(stem)
        store.flat[...] = flat
        np.testing.assert_array_equal(fresh.weight.values, lin.weight.values)
        np.testing.assert_array_equal(fresh.bias.values, lin.bias.values)

    def test_truncated_blob_raises(self, tmp_path):
        store = ParameterStore({"w": DiffArray(np.ones((2, 2)), requires_grad=True)})
        stem = tmp_path / "bad"
        save_checkpoint(stem, store)
        blob = (stem.with_suffix(".bin")).read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="24 bytes.*32"):
            load_checkpoint(stem)

    def test_missing_blob_names_it(self, tmp_path):
        store = ParameterStore({"w": DiffArray(np.ones((2, 2)), requires_grad=True)})
        stem = tmp_path / "torn"
        save_checkpoint(stem, store)
        stem.with_suffix(".bin").unlink()
        with pytest.raises(FormatError, match=r"missing checkpoint blob: .*torn\.bin"):
            load_checkpoint(stem)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        store = ParameterStore({"w": DiffArray(np.ones((2, 2)), requires_grad=True)})
        stem = tmp_path / "flipped"
        save_checkpoint(stem, store)
        blob = bytearray(stem.with_suffix(".bin").read_bytes())
        blob[5] ^= 0x01
        stem.with_suffix(".bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="SHA-256"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("fmt", [None, 1, 3])
    def test_missing_or_unknown_format_rejected(self, tmp_path, fmt):
        store = ParameterStore({"w": DiffArray(np.ones(3), requires_grad=True)})
        stem = tmp_path / "old"
        save_checkpoint(stem, store)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        if fmt is None:
            del manifest["format"]
        else:
            manifest["format"] = fmt
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"format {fmt} is not supported"):
            load_checkpoint(stem)

    def test_blob_is_little_endian_row_major(self, tmp_path):
        store = ParameterStore({"w": DiffArray(np.arange(6.0).reshape(2, 3), requires_grad=True)})
        stem = tmp_path / "layout"
        save_checkpoint(stem, store)
        raw = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, np.arange(6.0))
