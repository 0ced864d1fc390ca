"""Temporal inference: sinusoidal position encoding and transformer blocks.

The block encodes a window of timesteps with residual self-attention and a
feed-forward sublayer, then decodes the final position only: the forecast
reads one row, and the last row of a causal mask hides nothing, so the
position-encoded last timestep attends to the whole (position-encoded)
window and then cross-attends to the encoder output.

Attention runs per node (model width = feature count, batched over nodes)
or over flattened node-feature rows; the model picks per node when the data
has two or more features and flattened rows for single-feature data.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .nn import LayerNorm, FeedForward, xavier_uniform
from .tensor import (
    DiffArray,
    _attention_weights,
    _wrap,
    attention,
    dropout,
    matmul,
    reshape,
    swapaxes,
)

PositionRNG = np.random.Generator | None


@lru_cache(maxsize=32)
def position_encoding_table(length: int, width: int) -> np.ndarray:
    """(length, width) sinusoid table: sin on even channels, cos on odd."""
    table = np.zeros((length, width))
    pos = np.arange(length)[:, None]
    denom = np.power(10000.0, np.arange(0, width, 2) / width)
    table[:, 0::2] = np.sin(pos / denom)
    table[:, 1::2] = np.cos(pos / denom[: width // 2])
    return table


def position_encode(
    w,
    rate: float,
    training: bool = False,
    rng: PositionRNG = None,
) -> DiffArray:
    """Add the fixed sinusoid along the time axis of (..., K, F); dropout in training."""
    w = _wrap(w)
    k, width = w.shape[-2], w.shape[-1]
    out = w + position_encoding_table(k, width)
    return dropout(out, rate, rng, training)


def causal_mask(length: int) -> np.ndarray:
    """(K, K) additive mask: 0 on/below the diagonal, -inf strictly above."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = -np.inf
    return mask


class MultiHeadAttention:
    """Scaled dot-product attention, heads concatenated then output-projected.

    `w_query`, `w_key` and `w_value` are each one (d_model, d_model) matrix;
    head m owns columns m*d_head:(m+1)*d_head, so one matmul projects every
    head and all heads attend at once on a head axis (..., H, K, d_head). One
    head needs no head axis. Scores are scaled by 1/sqrt(model width); an
    optional additive mask sends future positions to -inf before the softmax,
    so their weights are exactly zero after it. A call records the three
    projections and one `tensor.attention` node for the rest.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise DimensionError(
                f"model width {d_model} not divisible by {n_heads} heads"
            )
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.scale = 1.0 / np.sqrt(d_model)
        # Drawn head by head, then placed side by side: head m -> its columns.
        shape = (n_heads, d_model, self.d_head)
        mk = lambda: DiffArray(
            np.hstack(xavier_uniform(rng, d_model, self.d_head, shape)), requires_grad=True
        )
        self.w_query = mk()
        self.w_key = mk()
        self.w_value = mk()
        self.w_out = DiffArray(xavier_uniform(rng, d_model, d_model), requires_grad=True)

    def _check(self, q: DiffArray, k: DiffArray, v: DiffArray, mask) -> None:
        for name, x in (("query", q), ("key", k), ("value", v)):
            if x.shape[-1] != self.d_model:
                raise DimensionError(
                    f"{name} width {x.shape[-1]} != model width {self.d_model}"
                )
        if mask is not None and mask.shape != (q.shape[-2], k.shape[-2]):
            raise DimensionError(
                f"mask shape {mask.shape} does not fit "
                f"({q.shape[-2]}, {k.shape[-2]}) attention scores"
            )

    def attention_weights(self, q, k, mask=None, head: int = 0) -> DiffArray:
        """(..., Kq, Kk) softmax weights for one head (inspection/tests); no tape."""
        q, k = _wrap(q), _wrap(k)
        self._check(q, k, k, mask)
        if not 0 <= head < self.n_heads:
            raise IndexError(f"head {head} outside [0, {self.n_heads})")
        weights = _attention_weights(
            q.values @ self.w_query.values, k.values @ self.w_key.values,
            self.n_heads, self.scale, mask,
        )[-1]
        return DiffArray(weights if self.n_heads == 1 else weights[..., head, :, :])

    def __call__(self, q, k, v, mask=None) -> DiffArray:
        q, k, v = _wrap(q), _wrap(k), _wrap(v)
        self._check(q, k, v, mask)
        return attention(
            matmul(q, self.w_query), matmul(k, self.w_key), matmul(v, self.w_value),
            self.w_out, self.n_heads, self.scale, mask,
        )


class EncoderBlock:
    """Residual self-attention + residual feed-forward, layer-normed.

    The feed-forward sublayer reads the block input (not the attention
    output): x1 = LN(x + MHA(x, x, x)); out = LN(x1 + FF(x)).
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rng: np.random.Generator,
        hidden: int,
        dropout_rate: float,
    ):
        self.dropout_rate = dropout_rate
        self.attention = MultiHeadAttention(d_model, n_heads, rng)
        self.feed_forward = FeedForward((d_model, hidden, d_model), rng)
        self.norm_attn = LayerNorm(d_model)
        self.norm_ff = LayerNorm(d_model)

    def __call__(self, x, training: bool = False, rng: PositionRNG = None) -> DiffArray:
        x = _wrap(x)
        attended = dropout(self.attention(x, x, x), self.dropout_rate, rng, training)
        x1 = self.norm_attn(x + attended)
        ff = dropout(self.feed_forward(x), self.dropout_rate, rng, training)
        return self.norm_ff(x1 + ff)


def _dropout_last_row(row: DiffArray, k: int, rate: float, rng: PositionRNG, training: bool):
    """Dropout on a (..., 1, d) row by the last row of a (..., K, d) mask: same random stream."""
    if not training or rate <= 0.0:
        return row
    keep = dropout(np.ones(row.shape[:-2] + (k, row.shape[-1])), rate, rng, training)
    return row * keep.values[..., -1:, :]


class TransformerBlock:
    """Encoder over the window plus a decoder for its final position."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rng: np.random.Generator,
        hidden: int,
        dropout_rate: float,
    ):
        self.dropout_rate = dropout_rate
        self.encoder = EncoderBlock(d_model, n_heads, rng, hidden, dropout_rate)
        self.decoder_attention = MultiHeadAttention(d_model, n_heads, rng)
        self.norm_decoder = LayerNorm(d_model)
        self.cross_attention = MultiHeadAttention(d_model, n_heads, rng)
        self.norm_out = LayerNorm(d_model)

    def __call__(self, window, training: bool = False, rng: PositionRNG = None) -> DiffArray:
        """Encode (..., K, d_model) and return the decoded final slice (..., d_model)."""
        k = window.shape[-2]
        encoded_in = position_encode(window, self.dropout_rate, training, rng)
        memory = self.encoder(encoded_in, training, rng)

        source = position_encode(window, self.dropout_rate, training, rng)
        last = source[..., -1:, :]
        attended = _dropout_last_row(
            self.decoder_attention(last, source, source), k, self.dropout_rate, rng, training
        )
        decoded = self.norm_decoder(last + attended)
        crossed = _dropout_last_row(
            self.cross_attention(decoded, memory, memory), k, self.dropout_rate, rng, training
        )
        return self.norm_out(decoded + crossed)[..., 0, :]


def transformer_forward(
    block: TransformerBlock,
    window,
    mode: str = "per_node",
    training: bool = False,
    rng: PositionRNG = None,
) -> DiffArray:
    """Run a (..., K, N, D) window through the block, returning (..., N, D).

    per_node: each node's (K, D) trace is attended independently (model width
    D, nodes batched). flattened: timesteps are (N*D)-wide rows.
    """
    window = _wrap(window)
    if window.ndim < 3:
        raise DimensionError(f"expected (..., K, N, D) window, got {window.shape}")
    n_nodes, width = window.shape[-2], window.shape[-1]
    if mode == "per_node":
        per_node = swapaxes(window, -3, -2)  # (..., N, K, D)
        return block(per_node, training, rng)
    if mode == "flattened":
        flat = reshape(window, window.shape[:-2] + (n_nodes * width,))
        out = block(flat, training, rng)
        return reshape(out, out.shape[:-1] + (n_nodes, width))
    raise ValueError(f"unknown temporal mode {mode!r}")
