"""Temporal inference: sinusoidal position encoding and transformer blocks.

The block encodes a window of timesteps with residual self-attention and a
feed-forward sublayer, then decodes the final position only: the forecast
reads one row, and the last row of a causal mask hides nothing, so the
position-encoded last timestep attends to the whole (position-encoded)
window and then cross-attends to the encoder output.

A block holds S members, each with its own parameters, on a leading member
axis: it reads (S, K, d, R) windows and runs member s's R rows of K
timesteps through member s's parameters, so S blocks of one shape record the
tape nodes of one. The model's two inference paths are the two members of
its block.

The block runs rows-last: the R rows that share a member's weights lie on
the last axis of every array it makes, from the window to its (S, d, R)
output, and the d features on the axis before them. Position encodings,
dropout, residual adds and layer norm work in that layout, and the
attention kernels take it (see `tensor.attention`); the feed-forward
sublayer runs row-first inside its node. Where the rows lie in memory is
the tensor module's business (`tensor.to_rows_last`): last per node, first
in the flattened layout, whose row-first kernels then read them in place.

Attention runs per node (model width = feature count, R = B·N rows of one
node's D features) or over flattened node-feature rows (R = B rows of N·D
features), as the block's width says; the model builds a per-node block
when the data has two or more features and a flattened one for
single-feature data (`RadNetConfig.temporal_mode`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .nn import LayerNorm, FeedForward, stack_members, xavier_uniform
from .tensor import (
    DiffArray,
    _wrap,
    attention,
    attention_weights,
    from_rows_last,
    offset_dropout,
    residual,
    rows_last_keep,
    to_rows_last,
)

PositionRNG = np.random.Generator | None
# dropout sites of one block call: the two position encodings, the encoder's
# attention and feed-forward outputs, and last the decoder's one-row attention
# and cross-attention
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
    """Add the fixed sinusoid along the time axis of rows-last (..., K, F, R),
    then dropout by `keep`."""
    w = _wrap(w)
    return offset_dropout(w, position_encoding_table(*w.shape[-3:-1])[..., None], keep)


def causal_mask(length: int) -> np.ndarray:
    """(K, K) additive mask: 0 on/below the diagonal, -inf strictly above."""
    mask = np.zeros((length, length))
    mask[np.triu_indices(length, k=1)] = -np.inf
    return mask


class MultiHeadAttention:
    """Scaled dot-product attention, heads concatenated then output-projected.

    It reads rows-last q, k and v, (..., K, d_model, R). `w_query`, `w_key`
    and `w_value` are each one (d_model, d_model) matrix; head m owns columns
    m*d_head:(m+1)*d_head, so one product projects every head and all heads
    attend at once. Scores are scaled by 1/sqrt(model width); an optional
    additive mask sends future positions to -inf before the softmax, so
    their weights are exactly zero after it. A call records one
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
            if x.ndim < 3 or x.shape[-2] != self.d_model:
                raise DimensionError(
                    f"{name} {x.shape} is no (..., K, {self.d_model}, R) rows-last input"
                )
        if mask is not None and mask.shape != (q.shape[-3], k.shape[-3]):
            raise DimensionError(
                f"mask shape {mask.shape} does not fit "
                f"({q.shape[-3]}, {k.shape[-3]}) attention scores"
            )

    def attention_weights(self, q, k, mask=None, head: int = 0) -> DiffArray:
        """(..., Kq, Kk, R) softmax weights of rows-last q and k for one head
        (inspection/tests); no tape."""
        q, k = _wrap(q), _wrap(k)
        self._check(q, k, k, mask)
        if not 0 <= head < self.n_heads:
            raise IndexError(f"head {head} outside [0, {self.n_heads})")
        return DiffArray(attention_weights(q.values, k.values, self.w_query.values,
                                           self.w_key.values, self.n_heads, self.scale,
                                           mask, head))

    def __call__(self, q, k, v, mask=None) -> DiffArray:
        self._check(_wrap(q), _wrap(k), _wrap(v), mask)
        return attention(q, k, v, self.w_query, self.w_key, self.w_value, self.w_out,
                         self.n_heads, self.scale, mask)


class EncoderBlock:
    """Residual self-attention + residual feed-forward, layer-normed, over
    rows-last (..., K, d_model, R) input.

    The feed-forward sublayer reads the block input (not the attention
    output): x1 = LN(x + MHA(x, x, x)); out = LN(x1 + FF(x)).
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator, hidden: int):
        self.attention = MultiHeadAttention(d_model, n_heads, rng)
        self.feed_forward = FeedForward((d_model, hidden, d_model), rng, rows_last=True)
        self.norm_attn = LayerNorm(d_model)
        self.norm_ff = LayerNorm(d_model)

    def __call__(self, x, keep=(None, None)) -> DiffArray:
        """`keep` holds the attention and feed-forward dropouts' keep factors (None: off)."""
        x = _wrap(x)
        x1 = self.norm_attn(residual(x, self.attention(x, x, x), keep[0]))
        return self.norm_ff(residual(x1, self.feed_forward(x), keep[1]))


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
        """Encode (S, K, d_model, R) windows and return the decoded final slices (S, d_model, R).

        In training, one call draws every dropout uniform at once, member by
        member, site by site in call order and row by row: the stream S
        serial calls of a row-first block would draw. The decoder's two
        one-row sites keep only the last timestep of their draw.
        """
        window = _wrap(window)
        if window.ndim != 4 or window.shape[0] != self.members:
            raise DimensionError(
                f"expected ({self.members}, K, d, R) member windows, got {window.shape}"
            )
        keep = [None] * DROPOUT_SITES
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            members, k, d, r = window.shape
            draws = rng.random((members, DROPOUT_SITES, r, k, d))
            whole = rows_last_keep(draws[:, :-2], self.dropout_rate, window.values)
            final = rows_last_keep(draws[:, -2:, :, -1:], self.dropout_rate,  # the last timestep
                                   window.values)
            del draws
            keep = [*whole.swapaxes(0, 1), *final.swapaxes(0, 1)]
        memory = self.encoder(position_encode(window, keep[0]), keep[1:3])
        source = position_encode(window, keep[3])
        last = source[:, -1:]
        attended = self.decoder_attention(last, source, source)
        decoded = self.norm_decoder(residual(last, attended, keep[4]))
        crossed = self.cross_attention(decoded, memory, memory)
        return self.norm_out(residual(decoded, crossed, keep[5]))[:, 0]


def transformer_forward(
    block: TransformerBlock,
    window,
    training: bool = False,
    rng: PositionRNG = None,
) -> DiffArray:
    """Run (S, ..., K, N, D) member windows through the block, returning (S, ..., N, D).

    The block's width fixes the layout: a D-wide block attends each node's
    (K, D) trace on its own, rows R = B·N for the B windows of the batch
    axes; any other reads each timestep as one (N*D)-wide row, R = B (and
    fails its width check if not N*D wide). Either way one node lays the
    windows out rows-last, (S, K, d, R), and one turns the (S, d, R) output
    back (`tensor.to_rows_last`, `tensor.from_rows_last`). For N = 1 the two
    layouts coincide.
    """
    window = _wrap(window)
    if window.ndim < 4:
        raise DimensionError(f"expected (S, ..., K, N, D) member windows, got {window.shape}")
    per_node = block.cross_attention.d_model == window.shape[-1]
    out = block(to_rows_last(window, per_node), training, rng)
    return from_rows_last(out, window.shape, per_node)
