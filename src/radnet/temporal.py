"""Temporal inference: sinusoidal position encoding and transformer blocks.

The block encodes a window of timesteps with residual self-attention and a
feed-forward sublayer, then decodes the final position only: the forecast
reads one row, and the last row of a causal mask hides nothing, so the
position-encoded last timestep attends to the whole (position-encoded)
window and then cross-attends to the encoder output.

A block holds S members, each with its own parameters, on a leading member
axis: it reads (S, R, K, d) windows and runs member s's R rows of K
timesteps through member s's parameters, so S blocks of one shape record the
tape nodes of one. The model's two inference paths are the two members of
its block.

Attention runs per node (model width = feature count, batched over nodes)
or over flattened node-feature rows, as the block's width says; the model
builds a per-node block when the data has two or more features and a
flattened one for single-feature data (`RadNetConfig.temporal_mode`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .nn import LayerNorm, FeedForward, stack_members, xavier_uniform
from .tensor import (
    DiffArray,
    _attention_weights,
    _wrap,
    attention,
    dropout_keep,
    offset_dropout,
    reshape,
    residual,
    swapaxes,
)

PositionRNG = np.random.Generator | None
# dropout sites of one block call: the two position encodings, the encoder's
# attention and feed-forward outputs, the decoder's attention and cross-attention
DROPOUT_SITES = 6


@lru_cache(maxsize=32)
def position_encoding_table(length: int, width: int) -> np.ndarray:
    """(length, width) read-only sinusoid table: sin on even channels, cos on odd."""
    table = np.zeros((length, width))
    pos = np.arange(length)[:, None]
    denom = np.power(10000.0, np.arange(0, width, 2) / width)
    table[:, 0::2] = np.sin(pos / denom)
    table[:, 1::2] = np.cos(pos / denom[: width // 2])
    table.setflags(write=False)  # every caller shares the cached table
    return table


def position_encode(w, keep: np.ndarray | None = None) -> DiffArray:
    """Add the fixed sinusoid along the time axis of (..., K, F), then dropout by `keep`."""
    w = _wrap(w)
    return offset_dropout(w, position_encoding_table(*w.shape[-2:]), keep)


def causal_mask(length: int) -> np.ndarray:
    """(K, K) additive mask: 0 on/below the diagonal, -inf strictly above."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = -np.inf
    return mask


class MultiHeadAttention:
    """Scaled dot-product attention, heads concatenated then output-projected.

    `w_query`, `w_key` and `w_value` are each one (d_model, d_model) matrix;
    head m owns columns m*d_head:(m+1)*d_head, so one matmul projects every
    head and all heads attend at once on a head axis (..., H, K, d_head), of
    length 1 for one head. Scores are scaled by 1/sqrt(model width); an
    optional additive mask sends future positions to -inf before the softmax,
    so their weights are exactly zero after it. A call records one
    `tensor.attention` node, projections included.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise DimensionError(
                f"model width {d_model} not divisible by {n_heads} heads"
            )
        self.d_model = d_model
        self.n_heads = n_heads
        self.scale = 1.0 / np.sqrt(d_model)
        # Drawn head by head, then placed side by side: head m -> its columns.
        shape = (n_heads, d_model, d_model // n_heads)
        mk = lambda: DiffArray(
            np.hstack(xavier_uniform(rng, d_model, shape[2], shape)), requires_grad=True
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
        return DiffArray(weights[..., head, :, :])

    def __call__(self, q, k, v, mask=None) -> DiffArray:
        self._check(_wrap(q), _wrap(k), _wrap(v), mask)
        return attention(q, k, v, self.w_query, self.w_key, self.w_value, self.w_out,
                         self.n_heads, self.scale, mask)


class EncoderBlock:
    """Residual self-attention + residual feed-forward, layer-normed.

    The feed-forward sublayer reads the block input (not the attention
    output): x1 = LN(x + MHA(x, x, x)); out = LN(x1 + FF(x)).
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator, hidden: int):
        self.attention = MultiHeadAttention(d_model, n_heads, rng)
        self.feed_forward = FeedForward((d_model, hidden, d_model), rng)
        self.norm_attn = LayerNorm(d_model)
        self.norm_ff = LayerNorm(d_model)

    def __call__(self, x, keep=(None, None)) -> DiffArray:
        """`keep` holds the attention and feed-forward dropouts' keep factors (None: off)."""
        x = _wrap(x)
        x1 = self.norm_attn(residual(x, self.attention(x, x, x), keep[0]))
        return self.norm_ff(residual(x1, self.feed_forward(x), keep[1]))


def _last_row(keep: np.ndarray | None) -> np.ndarray | None:
    """A final-position row's dropout reads the last row of its window's (..., K, d) draw."""
    return None if keep is None else keep[..., -1:, :]


class TransformerBlock:
    """Encoders over the window plus decoders for its final position, for S members.

    Each member's parameters are drawn from `rng` as a lone block's would be,
    member after member, and stacked on a leading member axis
    (`nn.stack_members`): a weight is (S, 1, d_in, d_out), a gain, shift or
    bias (S, 1, 1, width).
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rng: np.random.Generator,
        hidden: int,
        dropout_rate: float,
        members: int = 1,
    ):
        self.dropout_rate = dropout_rate
        self.members = members
        layers = [
            [EncoderBlock(d_model, n_heads, rng, hidden),
             MultiHeadAttention(d_model, n_heads, rng), LayerNorm(d_model),
             MultiHeadAttention(d_model, n_heads, rng), LayerNorm(d_model)]
            for _ in range(members)
        ]
        (self.encoder, self.decoder_attention, self.norm_decoder, self.cross_attention,
         self.norm_out) = stack_members(layers, rank=4)

    def __call__(self, window, training: bool = False, rng: PositionRNG = None) -> DiffArray:
        """Encode (S, R, K, d_model) windows and return the decoded final slices (S, R, d_model).

        In training, one call draws every dropout uniform at once, member by
        member and site by site in call order: the stream S serial calls
        would draw.
        """
        window = _wrap(window)
        if window.ndim != 4 or window.shape[0] != self.members:
            raise DimensionError(
                f"expected ({self.members}, R, K, d) member windows, got {window.shape}"
            )
        keep = [None] * DROPOUT_SITES
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            shape = (self.members, DROPOUT_SITES) + window.shape[1:]
            factors = dropout_keep(rng.random(shape), self.dropout_rate)
            keep = [factors[:, i] for i in range(DROPOUT_SITES)]
        memory = self.encoder(position_encode(window, keep[0]), keep[1:3])
        source = position_encode(window, keep[3])
        last = source[..., -1:, :]
        attended = self.decoder_attention(last, source, source)
        decoded = self.norm_decoder(residual(last, attended, _last_row(keep[4])))
        crossed = self.cross_attention(decoded, memory, memory)
        return self.norm_out(residual(decoded, crossed, _last_row(keep[5])))[..., 0, :]


def transformer_forward(
    block: TransformerBlock,
    window,
    training: bool = False,
    rng: PositionRNG = None,
) -> DiffArray:
    """Run (S, ..., K, N, D) member windows through the block, returning (S, ..., N, D).

    The block's width fixes the layout: a D-wide block attends each node's
    (K, D) trace on its own, any other reads each timestep as one (N*D)-wide
    row (and fails its width check if not N*D wide); either way it reads
    each member's windows (and nodes) on one row axis. For N = 1 the two coincide.
    """
    window = _wrap(window)
    if window.ndim < 4:
        raise DimensionError(f"expected (S, ..., K, N, D) member windows, got {window.shape}")
    members, (k, n_nodes, width) = window.shape[0], window.shape[-3:]
    if block.cross_attention.d_model == width:
        rows = reshape(swapaxes(window, -3, -2), (members, -1, k, width))
    else:
        rows = reshape(window, (members, -1, k, n_nodes * width))
    out = block(rows, training, rng)
    return reshape(out, window.shape[:-3] + (n_nodes, width))
