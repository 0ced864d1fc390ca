"""Position encoding, attention, and transformer block contracts."""

import numpy as np
import pytest

from radnet import tensor as T
from radnet.errors import DimensionError
from radnet.nn import named_parameters
from radnet.temporal import (
    EncoderBlock,
    MultiHeadAttention,
    TransformerBlock,
    causal_mask,
    position_encode,
    position_encoding_table,
    transformer_forward,
)
from radnet.tensor import DiffArray

from primitive_nodes import add, dropout, row_first_forward, weighted_sum
from test_fused import assert_close_to_scale


def rows_last(x):
    """A row-first (R, K, d) array, or a (K, d) one of a single row, rows last."""
    x = np.asarray(x)
    return x[..., None] if x.ndim == 2 else np.moveaxis(x, -3, -1)


class TestPositionEncoding:
    def test_position_zero_even_channel_unchanged(self):
        x = np.zeros((4, 2, 3))  # (K, F, R)
        out = position_encode(x).values
        assert (out[0, 0] == 0.0).all()  # + sin(0)
        np.testing.assert_array_equal(out[:, :, 2], position_encoding_table(4, 2))

    def test_matches_direct_sinusoid(self):
        table = position_encoding_table(5, 2)
        for p in range(5):
            assert table[p, 0] == pytest.approx(np.sin(p))
            assert table[p, 1] == pytest.approx(np.cos(p))

    def test_odd_width(self):
        table = position_encoding_table(3, 3)
        denom = 10000.0 ** (2 / 3)
        assert table[2, 2] == pytest.approx(np.sin(2 / denom))
        assert table[2, 1] == pytest.approx(np.cos(2))

    def test_cached_table_is_read_only(self):
        # every forward shares the cached table, so no caller may write it
        table = position_encoding_table(5, 4)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 99.0
        assert position_encoding_table(5, 4)[0, 0] == 0.0

    def test_eval_mode_deterministic(self):
        x = np.random.default_rng(0).normal(size=(6, 4, 2))
        a = position_encode(x).values
        b = position_encode(x).values
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_changes_values(self):
        x = np.ones((50, 4, 2))
        rng = np.random.default_rng(1)
        out = position_encode(x, T._dropout_keep(rng.random(x.shape), 0.5)).values
        assert (out == 0).any()


class TestMultiHeadAttention:
    def test_single_position_weight_one(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(3, 1, rng)
        x = DiffArray(rng.normal(size=(1, 3, 1)))  # rows last: (K, d, R)
        w = mha.attention_weights(x, x).values
        np.testing.assert_allclose(w, [[[1.0]]])
        out = mha(x, x, x).values
        expected = (x.values[..., 0] @ mha.w_value.values) @ mha.w_out.values
        np.testing.assert_allclose(out[..., 0], expected, rtol=1e-12)

    def test_identical_rows_give_uniform_weights(self):
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(4, 2, rng)
        x = np.tile(np.array([[0.3, -1.0, 0.5, 2.0]]), (5, 1))[..., None]
        for head in range(2):
            w = mha.attention_weights(DiffArray(x), DiffArray(x), head=head).values
            np.testing.assert_allclose(w, np.full((5, 5, 1), 0.2), atol=1e-12)

    def test_two_position_hand_evaluation(self):
        mha = MultiHeadAttention(1, 1, np.random.default_rng(4))
        mha.w_query.values[...] = [[0.7]]
        mha.w_key.values[...] = [[-0.4]]
        mha.w_value.values[...] = [[1.3]]
        mha.w_out.values[...] = [[0.9]]
        x = np.array([[1.0], [2.0]])
        q, k, v = 0.7 * x, -0.4 * x, 1.3 * x
        x = x[..., None]
        scores = q @ k.T / np.sqrt(1.0)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = ex / ex.sum(axis=1, keepdims=True)
        expected = (weights @ v) * 0.9
        np.testing.assert_allclose(mha(x, x, x).values[..., 0], expected, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(4, 2, rng)
        x = rng.normal(size=(7, 4, 3))
        w = mha.attention_weights(x, x).values
        np.testing.assert_allclose(w.sum(axis=-2), np.ones((7, 3)), atol=1e-9)

    def test_masked_future_weights_exactly_zero(self):
        rng = np.random.default_rng(6)
        mha = MultiHeadAttention(2, 1, rng)
        x = rng.normal(size=(5, 2, 3))
        w = mha.attention_weights(x, x, mask=causal_mask(5)).values
        upper = np.triu_indices(5, k=1)
        assert (w[upper] == 0.0).all()
        np.testing.assert_allclose(w.sum(axis=-2), np.ones((5, 3)), atol=1e-9)

    def test_causal_mask_blocks_future_influence(self):
        # Changing a future position must not change earlier query outputs.
        rng = np.random.default_rng(7)
        mha = MultiHeadAttention(2, 1, rng)
        x = rng.normal(size=(3, 2, 2))
        base = mha(x, x, x, mask=causal_mask(3)).values
        zeroed = x.copy()
        zeroed[2] = 0.0
        out = mha(zeroed, zeroed, zeroed, mask=causal_mask(3)).values
        np.testing.assert_array_equal(out[:2], base[:2])

    def test_mask_shape_mismatch(self):
        mha = MultiHeadAttention(2, 1, np.random.default_rng(8))
        x = DiffArray(np.zeros((4, 2, 1)))
        with pytest.raises(DimensionError):
            mha(x, x, x, mask=causal_mask(3))

    def test_row_first_input_refused(self):
        mha = MultiHeadAttention(2, 1, np.random.default_rng(8))
        x = DiffArray(np.zeros((3, 4, 2)))  # (R, K, d): width 4 on the feature axis
        with pytest.raises(DimensionError, match=r"is no \(\.\.\., K, 2, R\) rows-last input"):
            mha(x, x, x)

    def test_heads_match_per_head_reference(self):
        # Reference: head m uses columns m*d_head:(m+1)*d_head of each
        # projection; heads are concatenated before the output projection.
        rng = np.random.default_rng(20)
        mha = MultiHeadAttention(4, 2, rng)
        q, kv = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        mask = causal_mask(5)
        heads = []
        for m in range(2):
            cols = slice(2 * m, 2 * m + 2)
            qh = q @ mha.w_query.values[:, cols]
            kh = kv @ mha.w_key.values[:, cols]
            vh = kv @ mha.w_value.values[:, cols]
            scores = qh @ np.swapaxes(kh, -1, -2) / np.sqrt(4.0) + mask
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(
                mha.attention_weights(rows_last(q), rows_last(kv), mask, head=m).values,
                rows_last(w), rtol=1e-12)
            heads.append(w @ vh)
        expected = np.concatenate(heads, axis=-1) @ mha.w_out.values
        out = mha(rows_last(q), rows_last(kv), rows_last(kv), mask).values
        np.testing.assert_allclose(out, rows_last(expected), rtol=1e-12)

    def test_head_divisibility(self):
        with pytest.raises(DimensionError):
            MultiHeadAttention(3, 2, np.random.default_rng(9))


class TestEncoderBlock:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_shape_preserved(self, k):
        rng = np.random.default_rng(10)
        block = EncoderBlock(4, 2, rng, 16)
        out = block(rng.normal(size=(k, 4, 3)))
        assert out.shape == (k, 4, 3)

    def test_batched_shape_preserved(self):
        rng = np.random.default_rng(11)
        block = EncoderBlock(3, 1, rng, 16)
        out = block(rng.normal(size=(6, 5, 3, 2)))
        assert out.shape == (6, 5, 3, 2)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradient_through_full_block(self, n_heads):
        rng = np.random.default_rng(12)
        block = EncoderBlock(2, n_heads, rng, 4)
        x = DiffArray(rng.normal(size=(3, 2, 2)), requires_grad=True)
        w = rng.normal(size=(3, 2, 2))

        def f():
            return weighted_sum(block(x), w)

        err = T.grad_check(f, [x, *named_parameters(block).values()])
        assert err < 1e-4


class TestTransformerBlock:
    # windows carry a leading member axis, one member here
    def test_single_timestep_window(self):
        rng = np.random.default_rng(13)
        block = TransformerBlock(3, 1, rng, 16, 0.1)
        out = transformer_forward(block, rng.normal(size=(1, 1, 4, 3)))
        assert out.shape == (1, 4, 3)

    def test_eval_mode_bit_identical(self):
        rng = np.random.default_rng(14)
        block = TransformerBlock(2, 1, rng, 16, 0.1)
        w = rng.normal(size=(1, 5, 3, 2))
        a = transformer_forward(block, w).values
        b = transformer_forward(block, w).values
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_output_shape_across_window_lengths(self, k):
        rng = np.random.default_rng(15)
        block = TransformerBlock(2, 1, rng, 16, 0.1)
        out = transformer_forward(block, rng.normal(size=(1, k, 3, 2)))
        assert out.shape == (1, 3, 2)

    def test_flattened_mode_shape(self):
        rng = np.random.default_rng(16)
        block = TransformerBlock(6, 1, rng, 16, 0.1)
        out = transformer_forward(block, rng.normal(size=(1, 4, 3, 2)))
        assert out.shape == (1, 3, 2)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(18)
        block = TransformerBlock(2, 2, rng, 16, 0.1)
        batch = rng.normal(size=(1, 3, 4, 2, 2))
        stacked = transformer_forward(block, batch).values
        for b in range(3):
            single = transformer_forward(block, batch[:, b]).values
            np.testing.assert_allclose(stacked[:, b], single, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 5, 3, 4), (2, 3, 4), (2, 1, 5, 3, 4)])
    def test_windows_without_every_member_are_refused(self, shape):
        block = TransformerBlock(3, 1, np.random.default_rng(20), 4, 0.1, members=2)
        with pytest.raises(DimensionError, match=r"expected \(2, K, d, R\) member windows"):
            block(np.zeros(shape))

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradient_through_block(self, n_heads):
        rng = np.random.default_rng(19)
        block = TransformerBlock(2, n_heads, rng, 3, 0.1)
        x = DiffArray(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        w = rng.normal(size=(1, 2, 2))

        def f():
            return weighted_sum(transformer_forward(block, x), w)

        err = T.grad_check(f, [x, *named_parameters(block).values()])
        assert err < 1e-4


class TestLayoutFromWidth:
    """transformer_forward lays windows out as its block's width says."""

    @staticmethod
    def explicit(block, window, per_node):
        """The block's output for `window` laid out by hand, and the window's gradient."""
        s, (k, n, d) = window.shape[0], window.shape[-3:]
        rows = np.swapaxes(window, -3, -2) if per_node else window
        rows = rows.reshape(s, -1, k, d if per_node else n * d)  # (S, R, K, d)
        rows = DiffArray(np.ascontiguousarray(np.moveaxis(rows, 1, -1)), requires_grad=True)
        out = block(rows)  # (S, d, R)
        out_rows = np.moveaxis(out.values, 1, -1)
        weighted_sum(out, np.moveaxis(
            WEIGHT[: out.size].reshape(out_rows.shape), -1, 1)).backward()
        grad = np.moveaxis(rows.grad, -1, 1).reshape(
            window.shape[:-3] + ((n, k, d) if per_node else (k, n, d)))
        return out_rows.reshape(window.shape[:-3] + (n, d)), (
            np.swapaxes(grad, -3, -2) if per_node else grad)

    # (nodes, features, block width): per node when the block is D wide, else
    # N*D-wide rows; one node gives both layouts
    @pytest.mark.parametrize("n_nodes, n_features, width", [
        (4, 2, 2), (4, 1, 4), (3, 2, 6), (1, 3, 3), (1, 2, 2)])
    def test_matches_the_explicit_layout(self, n_nodes, n_features, width):
        rng = np.random.default_rng(21)
        block = TransformerBlock(width, 1, rng, 8, 0.1)
        values = rng.normal(size=(1, 3, 5, n_nodes, n_features))
        window = DiffArray(values, requires_grad=True)
        out = transformer_forward(block, window)
        weighted_sum(out, WEIGHT[: out.size].reshape(out.shape)).backward()
        layouts = [width == n_features] if n_nodes > 1 else [True, False]
        for per_node in layouts:
            want_out, want_grad = self.explicit(block, values, per_node)
            np.testing.assert_array_equal(out.values, want_out)
            np.testing.assert_array_equal(window.grad, want_grad)

    def test_window_that_fits_neither_layout_is_refused(self):
        block = TransformerBlock(5, 1, np.random.default_rng(22), 8, 0.1)
        with pytest.raises(DimensionError, match=r"query \(1, 5, 8, 3\) is no \(\.\.\., K, 5, R\)"):
            transformer_forward(block, np.zeros((1, 3, 5, 4, 2)))


WEIGHT = np.random.default_rng(23).normal(size=4096)


def all_positions_decoder(block, x, training=False, rng=None):
    """Reference: decode all K positions under a causal mask, keep the last row.

    Its six dropout sites draw one after another, each the whole window, in
    the row-first order (S, R, K, d).
    """
    x = DiffArray(x)
    (members, k, d, r), rate = x.shape, block.dropout_rate
    keep = [T._dropout_keep(np.moveaxis(rng.random((members, r, k, d)), 1, -1).copy(), rate)
            if training else None for _ in range(6)]
    memory = block.encoder(position_encode(x, keep[0]), keep[1:3])
    source = position_encode(x, keep[3])
    masked = dropout(block.decoder_attention(source, source, source, causal_mask(k)), keep[4])
    decoded = block.norm_decoder(add(source, masked))
    crossed = dropout(block.cross_attention(decoded, memory, memory), keep[5])
    return block.norm_out(add(decoded, crossed))[:, -1]


def block_input(mode, n_features, rng):
    """A (B, K, N, D) window laid out as transformer_forward hands it to a one-member
    block, (1, K, d, R)."""
    window = rng.normal(size=(3, 5, 4, n_features))
    if mode == "per_node":
        rows = np.swapaxes(window, 1, 2).reshape(1, 12, 5, n_features)  # (1, B*N, K, D)
    else:
        rows = window.reshape(1, 3, 5, 4 * n_features)  # (1, B, K, N*D)
    return np.ascontiguousarray(np.moveaxis(rows, 1, -1))


class TestFinalPositionDecoder:
    CASES = [("flattened", 1, 1), ("flattened", 1, 2), ("per_node", 4, 1), ("per_node", 4, 2)]

    @pytest.mark.parametrize("mode,n_features,n_heads", CASES)
    def test_eval_matches_all_positions_decoder(self, mode, n_features, n_heads):
        rng = np.random.default_rng(30)
        x = block_input(mode, n_features, rng)
        block = TransformerBlock(x.shape[-2], n_heads, rng, 16, 0.1)
        np.testing.assert_allclose(
            block(x).values, all_positions_decoder(block, x).values, rtol=1e-12
        )

    @pytest.mark.parametrize("mode,n_features,n_heads", CASES)
    def test_dropout_matches_all_positions_decoder(self, mode, n_features, n_heads):
        # The two decoders differ by rounding, which small gradient entries
        # amplify elementwise, so gradients are held within 1e-12 of each
        # array's largest magnitude.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = block_input(mode, n_features, rng)
            block = TransformerBlock(x.shape[-2], n_heads, rng, 16, 0.3)
            params = list(named_parameters(block).values())
            w = rng.normal(size=x.shape[:1] + x.shape[2:])

            def run(decode):
                draws = np.random.default_rng(seed + 1)
                for p in params:
                    p.grad = None
                out = decode(x, draws)
                weighted_sum(out, w).backward()
                return out.values, [p.grad.copy() for p in params], draws.random()

            out, grads, next_draw = run(lambda v, r: block(v, True, r))
            ref_out, ref_grads, ref_next_draw = run(
                lambda v, r: all_positions_decoder(block, v, True, r)
            )
            np.testing.assert_allclose(out, ref_out, rtol=1e-12)
            for g, ref in zip(grads, ref_grads):
                np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            assert next_draw == ref_next_draw


# (members, batch, nodes, features, block width, heads): C07's flattened
# block (4 nodes of one feature, one 4-wide head) and train-radset's per-node
# block (16 nodes of 7 features, 7 width-one heads), each over 32 windows of 5
ROW_FIRST_CASES = {"c07": (2, 32, 4, 1, 4, 1), "radset": (2, 32, 16, 7, 7, 7)}


class TestRowFirstReference:
    """The rows-last block against the row-first block it replaced."""

    @staticmethod
    def run(forward, block, values, training):
        params = list(named_parameters(block).values())
        for p in params:
            p.grad = None
        window = DiffArray(values, requires_grad=True)
        out = forward(block, window, training, np.random.default_rng(5) if training else None)
        w = np.random.default_rng(32).normal(size=out.shape)
        weighted_sum(out, w).backward()
        return out.values, window.grad, [p.grad for p in params]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", ROW_FIRST_CASES)
    def test_matches_row_first_block(self, case, training):
        members, batch, n_nodes, n_features, width, n_heads = ROW_FIRST_CASES[case]
        rng = np.random.default_rng(31)
        block = TransformerBlock(width, n_heads, rng, 16, 0.1, members)
        values = rng.normal(size=(members, batch, 5, n_nodes, n_features))
        out, grad, param_grads = self.run(transformer_forward, block, values, training)
        ref_out, ref_grad, ref_param_grads = self.run(row_first_forward, block, values, training)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grad, ref_grad)
        for got, want in zip(param_grads, ref_param_grads):
            if case == "c07":
                np.testing.assert_array_equal(got, want)
            else:
                assert_close_to_scale(got, want)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", ROW_FIRST_CASES)
    def test_flattened_block_moves_no_rows(self, monkeypatch, case, training):
        # flattened, the windows' rows stay first in memory and every node
        # reads them in place; per node, the moves copy
        members, batch, n_nodes, n_features, width, n_heads = ROW_FIRST_CASES[case]
        rng = np.random.default_rng(33)
        block = TransformerBlock(width, n_heads, rng, 16, 0.1, members)
        values = rng.normal(size=(members, batch, 5, n_nodes, n_features))
        per_node = case != "c07"
        assert np.shares_memory(T.to_rows_last(values, per_node).values, values) != per_node
        copies = []
        contiguous = np.ascontiguousarray

        def ascontiguousarray(x):
            if not x.flags.c_contiguous:
                copies.append(x.shape)
            return contiguous(x)

        monkeypatch.setattr(np, "ascontiguousarray", ascontiguousarray)
        self.run(transformer_forward, block, values, training)
        assert bool(copies) == per_node
