"""Fused layer nodes against the chains of primitive nodes they replace, and
shared-weight products against the batched matmul they replace.

Each layer reference below is the layer as it was composed before it became
one tape node. The feed-forward node must give the same values and the same
gradients bit for bit, and so must the attention node's product kernel, which
runs heads wider than one feature, but for the decoder's input gradient. The
graph-attention node computes its layer with fewer, larger products, which
sum in another order, so it must agree with its chain within
SHARED_WEIGHT_RTOL of each array's largest magnitude, including where an
input shared by several products sums their gradient terms.

Heads one feature wide run the attention node's row-last kernel, whose
projections and weighted sums add in another order than the product
kernel's: it must agree with the product kernel (`product_attention`, the
reference) and with the chain within SHARED_WEIGHT_RTOL, not bit for bit.

A product with one weight matrix per member, shared by the member's batch,
is one GEMM over each member's flattened batch; `batched_matmul_values` and
`batched_matmul_grads` keep the batched formulation it replaced. The two sum
in different orders, so they must agree within SHARED_WEIGHT_RTOL of each
array's largest magnitude, and bit for bit where the right operand carries
batch axes. Each member's GEMM must equal the 2-D product of its rows and
its matrix bit for bit.

The model's two inference paths run as the two members of one transformer
block; `serial_paths` runs them one after the other, each through a
one-member block on its member's parameter slices.

The loss, the path fusion, the member stack, each dropout-residual add and
each position encoding is one node; `GLUE_CHAINS` holds the chains of
primitive nodes they replaced, which must give the same values and
gradients bit for bit.
"""

import copy
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnet import graph as graph_module
from radnet import model as model_module
from radnet import nn as nn_module
from radnet import temporal as temporal_module
from radnet import tensor as T
from radnet.errors import DimensionError, NumericError
from radnet.graph import RoadGraph
from radnet.model import (
    VARIANTS,
    RadNet,
    RadNetConfig,
    batch_loss,
    build_window,
    rollout_autoregressive,
)
from radnet.temporal import causal_mask
from radnet.tensor import DiffArray, _wrap

from primitive_nodes import (
    add,
    moveaxis,
    copy_rows_first,
    copy_rows_last,
    swapaxes,
    concat,
    dropout,
    gather,
    leaky_relu,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    sigmoid,
    softmax,
    sqrt,
    sub,
    weighted_sum,
)


def composed_affine(x, w, b):
    return add(matmul(x, w), b)


def composed_feed_forward(x, weights, biases, rows_last=False):
    if rows_last:
        return copy_rows_last(composed_feed_forward(copy_rows_first(x), weights, biases))
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = composed_affine(x, w, b)
        if i < last:
            x = leaky_relu(x, T.LEAKY_SLOPE)
    return x


def composed_attention(qp, kp, vp, w_out, n_heads, scale, mask=None):
    """Head split, scores, mask, softmax, weighted sum, head merge, output map."""
    d_model = qp.shape[-1]

    def split(x):
        x = T.reshape(x, x.shape[:-1] + (n_heads, d_model // n_heads))
        return swapaxes(x, -3, -2)

    def merge(x):
        x = swapaxes(x, -3, -2)
        return T.reshape(x, x.shape[:-2] + (d_model,))

    scores = mul(matmul(split(qp), swapaxes(split(kp), -1, -2)), scale)
    if mask is not None:
        scores = add(scores, mask)
    weights = softmax(scores)
    return matmul(merge(matmul(weights, split(vp))), w_out)


def composed_mha(q, k, v, w_query, w_key, w_value, w_out, n_heads, scale, mask=None):
    """The three projections as matmul nodes, then the attention chain."""
    projected = [matmul(x, w) for x, w in ((q, w_query), (k, w_key), (v, w_value))]
    return composed_attention(*projected, w_out, n_heads, scale, mask)


def attention(q, k, v, *args, row_last=True):
    """`tensor.attention` on row-first (..., R, K, d) inputs, (K, d) for one
    row: each distinct input moved rows-last as a view (a decoder's query
    stays the last key position of its key input), the output moved back.
    Without `row_last` the node is held to its product kernel."""
    q, k, v = (_wrap(x) for x in (q, k, v))
    one_row = q.ndim == 2
    moved = {}

    def rows_last(x):
        if id(x) not in moved:
            moved[id(x)] = moveaxis(T.reshape(x, (1, *x.shape)) if one_row else x, -3, -1)
        return moved[id(x)]

    with pytest.MonkeyPatch.context() as patch:
        if not row_last:
            patch.setattr(T, "_fits_row_last", lambda *_: False)
        out = moveaxis(T.attention(rows_last(q), rows_last(k), rows_last(v), *args), -1, -3)
    return T.reshape(out, out.shape[1:]) if one_row else out


product_attention = functools.partial(attention, row_last=False)


def rows_last_mha(q, k, v, *args):
    """`composed_mha` on rows-last (..., K, d, R) inputs: each distinct input
    copied row-first (`copy_rows_first`), the output copied back (`copy_rows_last`)."""
    copies = {}
    for x in (q, k, v):
        if id(x) not in copies:
            copies[id(x)] = copy_rows_first(x)
    return copy_rows_last(composed_mha(*(copies[id(x)] for x in (q, k, v)), *args))


def composed_graph_attention(x, theta, score_src, score_dst, score_bias, neighbor_index,
                             neighbor_mask, neighbor_scatter):
    """The chain, heads after the batch axes; its gathers build their own
    selection matrices, so `neighbor_scatter` goes unread."""
    x = T.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
    h = matmul(x, theta)
    src = matmul(h, score_src)
    dst = T.reshape(matmul(h, score_dst), h.shape[:-1])
    dst = gather(dst, neighbor_index, axis=-1)
    scores = add(leaky_relu(add(add(src, dst), score_bias), T.LEAKY_SLOPE), neighbor_mask)
    alpha = softmax(scores)
    neighbors = gather(h, neighbor_index, axis=-2)
    alpha = T.reshape(alpha, alpha.shape[:-1] + (1,) + alpha.shape[-1:])
    mixed = matmul(alpha, neighbors)
    return reduce_mean(sigmoid(T.reshape(mixed, h.shape)), axis=-3)


def batched_matmul_values(av, bv):
    """av @ bv as numpy's batched matmul, one small product per batch element."""
    return av @ bv


def batched_matmul_grads(g, av, bv, want_a, want_b):
    """Its gradients: batched products, then a sum over each broadcast axis."""
    ga = T._unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape) if want_a else None
    gb = T._unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape) if want_b else None
    return ga, gb


def batched_product(av, bv):
    """`tensor._product` as the batched formulation throughout."""
    def grads(g, wants):
        return batched_matmul_grads(g, av, bv, *wants)

    return batched_matmul_values(av, bv), grads


def matrix_gemm(av, w, g):
    """A (..., d_in) @ (d_in, d_out) product as one 2-D GEMM over av's rows:
    values, input gradient and weight gradient for output gradient g."""
    rows, rows_g = av.reshape(-1, av.shape[-1]), g.reshape(-1, g.shape[-1])
    return [(rows @ w).reshape(g.shape), (rows_g @ w.T).reshape(av.shape), rows.T @ rows_g]


SHARED_WEIGHT_RTOL = 1e-12


def assert_close_to_scale(got, want, rtol=SHARED_WEIGHT_RTOL):
    """Every element of `got` within rtol times the largest magnitude of `want`."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max(initial=0.0))


def run_both(fused, composed, arrays, build, rng, tracked=None):
    """Values and every input gradient of `build(op, *leaves)` for both ops;
    `tracked` flags which arrays are leaves (default all), the rest constants."""
    tracked = [True] * len(arrays) if tracked is None else tracked
    results = []
    for op in (composed, fused):
        leaves = [DiffArray(a, requires_grad=t) for a, t in zip(arrays, tracked)]
        out = build(op, *leaves)
        weighted_sum(out, np.random.default_rng(rng).normal(size=out.shape)).backward()
        results.append([out.values] + [leaf.grad for leaf, t in zip(leaves, tracked) if t])
    return results


def assert_bit_identical(results):
    (composed, fused) = results
    assert len(fused) == len(composed)
    for got, want in zip(fused, composed):
        np.testing.assert_array_equal(got, want)


def assert_bit_identical_but(results, inexact):
    """Bit for bit, except the arrays at positions `inexact`, each within
    SHARED_WEIGHT_RTOL of its largest magnitude."""
    (composed, fused) = results
    for i in inexact:
        assert_close_to_scale(fused[i], composed[i])
    assert_bit_identical([[a for i, a in enumerate(r) if i not in inexact] for r in results])


def assert_within_rtol(results):
    """Each array within SHARED_WEIGHT_RTOL of its largest magnitude.

    A gradient that cancels to 0 in theory is rounding noise in both ops (a
    GAT head whose edge scores are all positive has zero source-score and
    bias gradients, as a softmax ignores a shift of its whole row). Such an
    array, under 1e-9 of the largest magnitude among the node's arrays, is
    held within SHARED_WEIGHT_RTOL of that magnitude instead."""
    (composed, fused) = results
    assert len(fused) == len(composed)
    scale = max(np.abs(want).max(initial=0.0) for want in composed if want is not None)
    for got, want in zip(fused, composed):
        if want is None:  # a leaf neither op reads
            assert got is None
        elif np.abs(want).max(initial=0.0) < 1e-9 * scale:
            np.testing.assert_allclose(got, want, rtol=0, atol=SHARED_WEIGHT_RTOL * scale)
        else:
            assert_close_to_scale(got, want)


# (rows, K, model width, heads): the block reads (S, K, d, R) member windows
# against (S, 1, d, d) member weights; these tests build row-first (S, R, K, d)
# inputs for the chains, which `attention` moves rows-last for the node. C07
# is flattened with one 4-wide head over 32 windows of 5 (one window at batch
# 1); train-radset is per node, 16 nodes of 7 width-1 heads per window, which
# run the row-last kernel.
ATTENTION_SHAPES = {
    "c07": (32, 5, 4, 1),
    "c07-batch1": (1, 5, 4, 1),
    "radset": (32 * 16, 5, 7, 7),
    "radset-batch1": (16, 5, 7, 7),
}

# how the inputs are shared: self-attention passes one x as q, k and v (with
# the encoder's causal mask); the decoder's query is the last row of its
# key/value input; cross-attention has its own query, a strided one-row view
# of another array, and shares k/v; "cross-fresh" passes a fresh one-row
# query instead, as the block's layer-normed decoder output is; the last
# passes three distinct inputs
ATTENTION_SHARING = {
    "self": lambda op, x, _, __, *w: op(x, x, x, *w, mask=True),
    "decoder": lambda op, x, _, __, *w: add(op(x[..., -1:, :], x, x, *w), x[..., -1:, :]),
    "cross": lambda op, q, kv, _, *w: op(q[..., -1:, :], kv, kv, *w),
    "cross-fresh": lambda op, q, kv, _, *w: op(mul(q[..., -1:, :], 1.0), kv, kv, *w),
    "distinct": lambda op, q, k, v, *w: op(q, k, v, *w),
}


def attention_arrays(rng, lead, kq, kk, d_model, weight_lead=()):
    weights = [rng.normal(size=weight_lead + (d_model, d_model)) for _ in range(4)]
    return [rng.normal(size=lead + (kq, d_model)), rng.normal(size=lead + (kk, d_model)),
            rng.normal(size=lead + (kk, d_model))] + weights


def mha_builder(sharing, n_heads, scale):
    """build(op, q, k, v, *weights) for `run_both`, with `op` the fused node
    or `composed_mha`, sharing its inputs as ATTENTION_SHARING says."""
    def call(op, q, k, v, *weights, mask=False):
        return op(q, k, v, *weights, n_heads, scale, causal_mask(k.shape[-2]) if mask else None)

    return lambda op, *arrays: ATTENTION_SHARING[sharing](functools.partial(call, op), *arrays)


def decoder_input_grad(sharing, inputs_tracked=True):
    """Where `run_both`'s results for `composed_mha` may differ from the node's:
    the decoder's input takes the gradient of its query row through a `take`,
    after its key and value terms, while the chain adds the query's term
    first; so that gradient matches within rtol, not bit for bit."""
    return (1,) if sharing == "decoder" and inputs_tracked else ()


class TestAttention:
    @pytest.mark.parametrize("inputs", ["tracked", "constant"])
    @pytest.mark.parametrize("sharing", ATTENTION_SHARING)
    @pytest.mark.parametrize("case", ATTENTION_SHAPES, ids=list(ATTENTION_SHAPES))
    def test_matches_chain(self, case, sharing, inputs):
        rows, k, d_model, n_heads = ATTENTION_SHAPES[case]
        rng = np.random.default_rng(40)
        arrays = attention_arrays(rng, (2, rows), k, k, d_model, (2, 1))
        tracked = [inputs == "tracked"] * 3 + [True] * 4
        results = run_both(attention, composed_mha, arrays,
                           mha_builder(sharing, n_heads, 1.0 / np.sqrt(d_model)), 41, tracked)
        if n_heads == d_model:  # the row-last kernel
            assert_within_rtol(results)
        else:
            assert_bit_identical_but(results, decoder_input_grad(sharing, inputs == "tracked"))

    @pytest.mark.parametrize("sharing", ["self", "distinct"])
    @pytest.mark.parametrize("case", ["c07", "c07-batch1"])
    def test_one_head_matches_head_free_chain(self, case, sharing):
        # one head is a unit head axis in the node, and no axis at all here
        def head_free(q, k, v, w_query, w_key, w_value, w_out, n_heads, scale, mask=None):
            qp, kp, vp = (matmul(x, w) for x, w in ((q, w_query), (k, w_key), (v, w_value)))
            scores = mul(matmul(qp, swapaxes(kp, -1, -2)), scale)
            if mask is not None:
                scores = add(scores, mask)
            return matmul(matmul(softmax(scores), vp), w_out)

        rows, k, d_model, n_heads = ATTENTION_SHAPES[case]
        assert n_heads == 1
        arrays = attention_arrays(np.random.default_rng(48), (2, rows), k, k, d_model, (2, 1))
        results = run_both(attention, head_free, arrays,
                           mha_builder(sharing, 1, 1.0 / np.sqrt(d_model)), 49)
        assert_bit_identical(results)

    @settings(max_examples=40, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        k=st.integers(1, 4),
        d_head=st.integers(1, 3),
        n_heads=st.integers(1, 3),
        members=st.booleans(),
        sharing=st.sampled_from(sorted(ATTENTION_SHARING)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_chain_over_shapes_and_heads(self, lead, k, d_head, n_heads, members,
                                                 sharing, seed):
        # member weights (S, 1, ..., d, d) lead (S, ...) inputs; else one (d, d) matrix
        rng = np.random.default_rng(seed)
        d_model = d_head * n_heads
        lead = lead or (1,) if members else lead  # a row axis after the member axis
        lead, weight_lead = ((2,) + lead, (2,) + (1,) * len(lead)) if members else (lead, ())
        arrays = attention_arrays(rng, lead, k, k, d_model, weight_lead)
        results = run_both(attention, composed_mha, arrays,
                           mha_builder(sharing, n_heads, 0.5), seed)
        if d_head == 1:  # the row-last kernel
            assert_within_rtol(results)
        else:
            assert_bit_identical_but(results, decoder_input_grad(sharing))

    @pytest.mark.parametrize("sharing", ["self", "distinct"])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradient_matches_finite_differences(self, sharing, n_heads):
        rng = np.random.default_rng(44)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in attention_arrays(rng, (2,), 3, 3, 4)]
        build = mha_builder(sharing, n_heads, 0.5)
        w = rng.normal(size=(2, 3, 4))

        def f():
            return weighted_sum(build(attention, *leaves), w)

        assert T.grad_check(f, leaves) < 1e-6

    def test_only_the_output_map_tracked(self):
        rng = np.random.default_rng(45)
        arrays = attention_arrays(rng, (2,), 3, 3, 4)
        results = run_both(attention, composed_mha, arrays, mha_builder("distinct", 2, 0.5),
                           46, [False] * 6 + [True])
        assert_bit_identical(results)

    @pytest.mark.parametrize("sharing", ATTENTION_SHARING)
    def test_one_node_with_its_projections(self, monkeypatch, sharing):
        # the node's parents are q, k and v as passed, then the four weights
        rng = np.random.default_rng(47)
        arrays = [DiffArray(a, requires_grad=True) for a in attention_arrays(rng, (2,), 3, 3, 4)]
        calls = []
        product = T._product
        monkeypatch.setattr(T, "_product", lambda a, b: calls.append(1) or product(a, b))
        out = mha_builder(sharing, 2, 0.5)(attention, *arrays)
        node = out if sharing != "decoder" else out.op_trace.inputs[0]
        node = node.op_trace.inputs[0]  # the attention node behind the adapter's move
        inputs = node.op_trace.inputs
        assert len(inputs) == 7
        assert all(w is a for w, a in zip(inputs[3:], arrays[3:]))
        if sharing == "self":
            assert inputs[0] is inputs[1] is inputs[2]
            assert inputs[0].op_trace.inputs[0] is arrays[0]
        # the three projections, the scores, the weighted values and the output map
        assert len(calls) == 6

    # (d_model, n_heads): the row-last kernel, then the product kernel at one and two heads
    @pytest.mark.parametrize("d_model, n_heads", [(7, 7), (4, 1), (4, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", ["query", "key", "value"])
    def test_non_finite_input_refused_before_any_projection(self, role, bad, d_model, n_heads):
        # a RuntimeWarning from a projection fails this test (error::RuntimeWarning)
        q, k, v, *weights = attention_arrays(np.random.default_rng(50), (2, 3), 4, 4, d_model)
        {"query": q, "key": k, "value": v}[role][1, 2, 0, d_model - 1] = bad
        with pytest.raises(NumericError, match=f"attention received NaN or inf {role} input"):
            attention(q, k, v, *weights, n_heads, 0.5)

    @pytest.mark.parametrize("decoder", [False, True], ids=["cross", "decoder"])
    @pytest.mark.parametrize("d_model, n_heads", [(7, 7), (4, 2)])
    def test_input_in_several_roles_checked_once(self, monkeypatch, d_model, n_heads, decoder):
        # rows last, (S, K, d, R); a decoder's query is the last key position
        # of its key/value input, which that input's check reads
        q, kv, _, *weights = (np.ascontiguousarray(np.moveaxis(a, 1, -1)) for a in
                              attention_arrays(np.random.default_rng(51), (2, 3), 4, 4, d_model))
        if decoder:
            q = kv[:, -1:]
        read = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: read.append(x) or isfinite(x))
        T.attention(q, kv, kv, *weights, n_heads, 0.5)
        assert [sum(x is y for x in read) for y in (q, kv)] == [0 if decoder else 1, 1]
        kv[0, -1, 0, 0] = np.inf
        with pytest.raises(NumericError, match="NaN or inf key/value input"):
            T.attention(q, kv, kv, *weights, n_heads, 0.5)

    def test_query_is_last_slice_only_at_the_last_key_position(self):
        kv = np.zeros((2, 5, 7, 3))
        assert T._is_last_slice(kv[:, -1:], kv)
        assert not T._is_last_slice(kv[:, :1], kv)
        assert not T._is_last_slice(kv[:, -1:].copy(), kv)
        assert not T._is_last_slice(kv[:, -1:, :, :2], kv)

    def test_query_read_within_key_only_where_the_key_spans_its_buffer(self):
        kv = np.zeros((2, 5, 7, 3))
        moved = np.zeros((2, 3, 5, 7)).transpose(0, 2, 3, 1)  # rows first in memory
        for k in (kv, moved):
            assert T._reads_within(k[:, -1:], k)
            assert T._reads_within(k[:, :1], k)
            assert not T._reads_within(k[:, -1:].copy(), k)
        assert not T._reads_within(kv[:, :1], kv[:, 1:])
        assert not T._reads_within(kv[:, :1], np.zeros_like(kv))


WIDTH_ONE_CASES = [case for case, (_, _, d, h) in ATTENTION_SHAPES.items() if d == h]


class TestRowLastKernel:
    """Heads one feature wide against the product kernel and the chain."""

    @pytest.mark.parametrize("sharing", ATTENTION_SHARING)
    @pytest.mark.parametrize("case", WIDTH_ONE_CASES)
    def test_product_kernel_matches_chain(self, case, sharing):
        # the reference below is itself the chain's, bit for bit
        rows, k, d_model, n_heads = ATTENTION_SHAPES[case]
        arrays = attention_arrays(np.random.default_rng(140), (2, rows), k, k, d_model, (2, 1))
        results = run_both(product_attention, composed_mha, arrays,
                           mha_builder(sharing, n_heads, 1.0 / np.sqrt(d_model)), 141)
        assert_bit_identical_but(results, decoder_input_grad(sharing))

    @pytest.mark.parametrize("inputs", ["tracked", "constant"])
    @pytest.mark.parametrize("sharing", ATTENTION_SHARING)
    @pytest.mark.parametrize("case", WIDTH_ONE_CASES)
    def test_matches_product_kernel(self, case, sharing, inputs):
        rows, k, d_model, n_heads = ATTENTION_SHAPES[case]
        arrays = attention_arrays(np.random.default_rng(142), (2, rows), k, k, d_model, (2, 1))
        tracked = [inputs == "tracked"] * 3 + [True] * 4
        results = run_both(attention, product_attention, arrays,
                           mha_builder(sharing, n_heads, 1.0 / np.sqrt(d_model)), 143, tracked)
        assert_within_rtol(results)

    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
        k=st.integers(1, 5),
        n_heads=st.integers(1, 7),
        members=st.booleans(),
        sharing=st.sampled_from(sorted(ATTENTION_SHARING)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_product_kernel_over_shapes_and_heads(self, lead, k, n_heads, members,
                                                         sharing, seed):
        # member weights (S, 1, ..., d, d) lead (S, ...) inputs; else one (d, d)
        # matrix; the decoder and cross-attention ask one-row queries
        rng = np.random.default_rng(seed)
        lead = lead or (1,) if members else lead  # a row axis after the member axis
        lead, weight_lead = ((2,) + lead, (2,) + (1,) * len(lead)) if members else (lead, ())
        arrays = attention_arrays(rng, lead, k, k, n_heads, weight_lead)
        results = run_both(attention, product_attention, arrays,
                           mha_builder(sharing, n_heads, 0.5), seed)
        assert_within_rtol(results)

    @pytest.mark.parametrize("sharing", ATTENTION_SHARING)
    def test_gradient_matches_finite_differences(self, sharing):
        # C01's stencil, floor and bound
        rng = np.random.default_rng(144)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in attention_arrays(rng, (2, 3), 4, 4, 4, (2, 1))]
        build = mha_builder(sharing, 4, 0.5)
        out_shape = build(attention, *leaves).shape
        w = rng.normal(size=out_shape)
        err = T.grad_check(lambda: weighted_sum(build(attention, *leaves), w), leaves, step=1e-6)
        assert err < 1e-4

    @pytest.mark.parametrize("bad", ["nan", "+inf", "-inf row"])
    def test_non_finite_scores_raise_the_product_kernels_error(self, bad):
        q, k, v, *weights = attention_arrays(np.random.default_rng(145), (2, 3), 4, 4, 7, (2, 1))
        mask = np.zeros((4, 4))
        if bad == "nan":
            q[1, 2, 0, 3] = np.nan
        elif bad == "+inf":
            mask[2, 1] = np.inf
        else:
            mask[2] = -np.inf
        messages = []
        for op in (product_attention, attention):
            with pytest.raises(NumericError) as caught:
                op(q, k, v, *weights, 7, 0.5, mask)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert {"nan": "NaN", "+inf": "+inf", "-inf row": "-inf"}[bad] in messages[0]

    @pytest.mark.parametrize("shapes, runs", [
        # train-radset's three attention calls: self, decoder and cross
        (((2, 5, 7, 512), (2, 5, 7, 512), (2, 1, 7, 7)), True),
        (((2, 1, 7, 512), (2, 5, 7, 512), (2, 1, 7, 7)), True),
        (((3, 7, 1), (4, 7, 1), (7, 7)), True),  # one matrix, one row
        (((2, 5, 4, 32), (2, 5, 4, 32), (2, 1, 4, 4)), False),  # C07's one 4-wide head
        (((2, 5, 64, 32), (2, 5, 64, 32), (2, 1, 64, 64)), False),  # detect-64's
        (((2, 5, 7, 4), (1, 5, 7, 4), (2, 1, 7, 7)), False),  # broadcast batch axes
        (((2, 4, 5, 7, 3), (2, 4, 5, 7, 3), (2, 4, 1, 7, 7)), False),  # weights with batch axes
    ])
    def test_kernel_choice(self, shapes, runs):
        q, kv, w = (np.zeros(shape) for shape in shapes)
        n_heads = shapes[0][-2] if shapes[0][-2] == 7 else 1
        assert T._fits_row_last([q, kv, kv], [w] * 4, n_heads) == runs


# (lead axes, graph, width, heads): C07 has 4 nodes of one feature; train-radset
# 16 nodes of 7. GAT layers see every slice of a (B, K) window stack, and the
# temporo-spatial path's GAT one (B,) batch of final slices. The hub graph pads
# every row but the hub's.
HUB = RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
GRAPH_SHAPES = {
    "c07": ((32, 5), RoadGraph.ring(4), 1, 1),
    "c07-batch1": ((1, 5), RoadGraph.ring(4), 1, 1),
    "c07-ts": ((32,), RoadGraph.ring(4), 1, 1),
    "radset": ((32, 5), RoadGraph.ring(16), 7, 1),
    "hub-1head": ((2, 3), HUB, 3, 1),
    "hub-3heads": ((2,), HUB, 3, 3),
    "hub-3heads-batch1": ((1,), HUB, 2, 3),
    "unbatched": ((), RoadGraph.ring(5), 2, 2),
}


def graph_arrays(rng, lead, graph, width, n_heads):
    layer = graph_module.GatLayer(width, width, rng, n_heads=n_heads)
    return [rng.normal(size=lead + (graph.n_nodes, width)), layer.theta.values,
            layer.score_src.values, layer.score_dst.values, rng.normal(size=(n_heads, 1, 1))]


def gat_builder(graph):
    return lambda op, *p: op(*p, graph.neighbor_index, graph.neighbor_mask,
                             graph.neighbor_scatter)


class TestGraphAttention:
    @pytest.mark.parametrize("inputs", ["tracked", "constant"])
    @pytest.mark.parametrize("case", GRAPH_SHAPES, ids=list(GRAPH_SHAPES))
    def test_within_rtol_of_chain(self, case, inputs):
        lead, graph, width, n_heads = GRAPH_SHAPES[case]
        rng = np.random.default_rng(50)
        results = run_both(
            T.graph_attention, composed_graph_attention,
            graph_arrays(rng, lead, graph, width, n_heads), gat_builder(graph), 51,
            [inputs == "tracked"] + [True] * 4,
        )
        assert_within_rtol(results)

    @settings(max_examples=30, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        n_nodes=st.integers(1, 6),
        width=st.integers(1, 3),
        n_heads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_within_rtol_over_shapes_and_heads(self, lead, n_nodes, width, n_heads, seed):
        rng = np.random.default_rng(seed)
        edges = [tuple(e) for e in rng.integers(0, n_nodes, size=(n_nodes, 2))]
        graph = RoadGraph(n_nodes, edges)
        results = run_both(
            T.graph_attention, composed_graph_attention,
            graph_arrays(rng, lead, graph, width, n_heads), gat_builder(graph), seed,
        )
        assert_within_rtol(results)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        graph = RoadGraph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        leaves = [DiffArray(a, requires_grad=True) for a in graph_arrays(rng, (2,), graph, 2, 2)]
        w = rng.normal(size=(2, 5, 2))

        def f():
            return weighted_sum(gat_builder(graph)(T.graph_attention, *leaves), w)

        assert T.grad_check(f, leaves) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("case", ["c07", "hub-3heads"])
    def test_non_finite_input_refused(self, case, bad):
        lead, graph, width, n_heads = GRAPH_SHAPES[case]
        x, *params = graph_arrays(np.random.default_rng(53), lead, graph, width, n_heads)
        x[(0,) * len(lead) + (1, 0)] = bad
        with pytest.raises(NumericError, match="NaN|inf"):
            gat_builder(graph)(T.graph_attention, x, *params)

    def test_scatter_matrix_built_once_read_only(self):
        graph = RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        assert "neighbor_scatter" not in vars(graph)  # nothing built before first use
        scatter = graph.neighbor_scatter
        assert graph.neighbor_scatter is scatter
        assert not scatter.flags.writeable
        np.testing.assert_array_equal(
            scatter, graph.neighbor_index.reshape(-1, 1) == np.arange(graph.n_nodes))


# (input shape, widths): the C07 encoder and decoder, train-radset's per-node encoder
FEED_FORWARD_SHAPES = {
    "c07-encoder": ((32, 5, 4), (4, 16, 4)),
    "c07-decoder": ((32, 4, 1), (1, 64, 64, 1)),
    "radset-encoder": ((32, 16, 5, 7), (7, 16, 7)),
    "one-layer": ((3, 2), (2, 5)),
}


def feed_forward_arrays(rng, shape, widths):
    weights = [rng.normal(size=(a, b)) for a, b in zip(widths, widths[1:])]
    biases = [rng.normal(size=b) for b in widths[1:]]
    return [rng.normal(size=shape)] + [p for pair in zip(weights, biases) for p in pair]


class TestFeedForward:
    @pytest.mark.parametrize("case", FEED_FORWARD_SHAPES, ids=list(FEED_FORWARD_SHAPES))
    def test_bit_identical_to_chain(self, case):
        rng = np.random.default_rng(60)
        results = run_both(
            T.feed_forward, composed_feed_forward,
            feed_forward_arrays(rng, *FEED_FORWARD_SHAPES[case]),
            lambda op, x, *params: op(x, params[0::2], params[1::2]), 61,
        )
        assert_bit_identical(results)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in feed_forward_arrays(rng, (2, 3, 2), (2, 4, 3))]
        w = rng.normal(size=(2, 3, 3))

        def f():
            return weighted_sum(T.feed_forward(leaves[0], leaves[1::2], leaves[2::2]), w)

        assert T.grad_check(f, leaves) < 1e-6


def affine(x, w, b):
    """The affine map as `Linear` runs it: a one-layer feed-forward node."""
    return T.feed_forward(x, [w], [b])


class TestAffine:
    # the fusion map at C07 (4 nodes x 1 feature) and train-radset (16 x 7)
    @pytest.mark.parametrize("shape, n_out", [((32, 4), 3), ((32, 112), 3), ((2, 3, 5), 4)])
    def test_bit_identical_to_chain(self, shape, n_out):
        rng = np.random.default_rng(70)
        arrays = [rng.normal(size=shape), rng.normal(size=(shape[-1], n_out)),
                  rng.normal(size=n_out)]
        assert_bit_identical(run_both(affine, composed_affine, arrays,
                                      lambda op, *a: op(*a), 71))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(72)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2))]
        w = rng.normal(size=(3, 2))
        assert T.grad_check(lambda: weighted_sum(affine(*leaves), w), leaves) < 1e-6

    def test_gradient_matches_finite_differences_on_a_4d_input(self):
        # the shared-weight GEMM flattens the three batch axes into rows
        rng = np.random.default_rng(73)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in (rng.normal(size=(2, 3, 2, 4)), rng.normal(size=(4, 2)),
                            rng.normal(size=2))]
        w = rng.normal(size=(2, 3, 2, 2))
        assert T.grad_check(lambda: weighted_sum(affine(*leaves), w), leaves) < 1e-6


class TestTrainingStepAgainstChains:
    """A whole training step with layers swapped back to their chains."""

    @staticmethod
    def step(n_nodes, n_features, horizon):
        data = np.random.default_rng(80).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 36)
        truth = data[ts + 1][:, None] if horizon > 1 else None
        model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features, seed=0))
        preds, _ = rollout_autoregressive(
            model, build_window(data, ts, 5), horizon, RoadGraph.ring(n_nodes), truth=truth,
            teacher_force_p=0.5 if truth is not None else 0.0,
            rng=np.random.default_rng(81), training=True,
        )
        batch_loss(preds, data[ts + horizon]).backward()
        return [preds.values] + [p.grad for p in model.store.params.values()]

    @pytest.mark.parametrize("n_nodes, n_features, horizon", [(4, 1, 1), (4, 1, 2), (16, 7, 1)])
    def test_feed_forward_chain_bit_identical(self, monkeypatch, n_nodes, n_features, horizon):
        fused = self.step(n_nodes, n_features, horizon)
        monkeypatch.setattr(nn_module, "feed_forward", composed_feed_forward)
        composed = self.step(n_nodes, n_features, horizon)
        for got, want in zip(fused, composed):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_nodes, n_features, horizon", [(4, 1, 1), (4, 1, 2), (16, 7, 1)])
    def test_every_chain_within_rtol(self, monkeypatch, n_nodes, n_features, horizon):
        fused = self.step(n_nodes, n_features, horizon)
        monkeypatch.setattr(temporal_module, "attention", rows_last_mha)
        monkeypatch.setattr(graph_module, "graph_attention", composed_graph_attention)
        monkeypatch.setattr(nn_module, "feed_forward", composed_feed_forward)
        composed = self.step(n_nodes, n_features, horizon)
        assert len(fused) == len(composed)
        for got, want in zip(fused, composed):
            assert_close_to_scale(got, want)


def member_block(block, s):
    """A one-member copy of `block` whose parameters are tape slices of its member s."""
    member = copy.deepcopy(block)
    member.members = 1
    for name, p in nn_module.named_parameters(block).items():
        *path, attr = name.split(".")
        owner = functools.reduce(
            lambda o, k: o[int(k)] if isinstance(o, list) else getattr(o, k), path, member)
        setattr(owner, attr, p[s : s + 1])
    return member


def serial_paths(model, windows, graph, training=False, rng=None):
    """The path outputs with the block run path by path, the spatio-temporal
    path first: member s's windows through `member_block(block, s)`."""
    def run(s, x):
        out = temporal_module.transformer_forward(
            member_block(model.transformer, s), T.reshape(x, (1, *x.shape)), training, rng)
        return out[0]

    paths = []
    if model.gat_st is not None:
        paths.append(run(0, model.gat_st(windows, graph)))
    if model.gat_ts is not None:
        paths.append(model.gat_ts(run(len(paths), windows), graph))
    return paths


def serial_forward_batch(model, windows, graph, training=False, rng=None):
    """`RadNet.forward_batch` with its block run path by path (`serial_paths`)."""
    windows = DiffArray(windows)
    latest = windows[:, -1]
    parts = serial_paths(model, windows, graph, training, rng) + [latest]
    stack = concat([T.reshape(p, (p.shape[0], 1, *p.shape[1:])) for p in parts], 1)
    weights = None
    if model.fusion is not None:
        weights = softmax(model.fusion(T.reshape(latest, (latest.shape[0], -1))))
        stack = mul(stack, T.reshape(weights, (*weights.shape, 1, 1)))
    return model.decoder(reduce_sum(stack, axis=1)), weights


def per_path_forward_batch(model, windows, graph, training=False, rng=None):
    """`RadNet.forward_batch` with its fusion as the per-path chain it replaced:
    each path output (then the latest slice) scaled by its weight column and
    added to the running sum; no_skip adds the three unweighted. The paths
    run one after the other (`serial_paths`)."""
    windows = DiffArray(windows)
    cfg = model.config
    latest = windows[:, -1]
    paths = serial_paths(model, windows, graph, training, rng)
    if model.fusion is None:
        return model.decoder(add(add(paths[0], paths[1]), latest)), None
    flat = T.reshape(latest, (latest.shape[0], cfg.n_nodes * cfg.n_features))
    weights = softmax(model.fusion(flat))
    fused = None
    for i, part in enumerate(paths + [latest]):
        term = mul(T.reshape(weights[:, i], (-1, 1, 1)), part)
        fused = term if fused is None else add(fused, term)
    return model.decoder(fused), weights


class TestFusionAgainstPerPathChain:
    """The fusion as one weighted sum over a path axis against the per-path chain."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_nodes, n_features", [(4, 1), (16, 7)])
    @pytest.mark.parametrize("batch", [32, 1])
    def test_predictions_weights_and_gradients_bit_identical(self, variant, n_nodes, n_features,
                                                             batch):
        data = np.random.default_rng(84).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 4 + batch)
        graph = RoadGraph.ring(n_nodes)

        def step(forward):
            model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features,
                                        variant=variant, seed=0))
            preds, weights = forward(model, build_window(data, ts, 5), graph, True,
                                     np.random.default_rng(85))
            batch_loss(preds, data[ts + 1]).backward()
            grads = {name: p.grad for name, p in model.store.params.items()}
            return [preds.values, None if weights is None else weights.values], grads

        (summed, summed_grads), (chained, chained_grads) = (
            step(RadNet.forward_batch), step(per_path_forward_batch))
        for got, want in zip(summed, chained):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
        assert summed_grads.keys() == chained_grads.keys()
        for name, want in chained_grads.items():
            if batch == 1 and n_features > 1 and name.startswith("fusion."):
                # The chain summed a (1, 1, 1) weight's products over N, then
                # over D; the stack sums a window's N*D products in one pass.
                # The softmax weights' gradient may differ in its last bit, and
                # the fusion layer's gradients behind it a little more.
                assert_close_to_scale(summed_grads[name], want)
            else:
                np.testing.assert_array_equal(summed_grads[name], want, err_msg=name)


class TestStackedBlockAgainstSerialPaths:
    """The two paths as the members of one block against the paths run one by one."""

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n_nodes, n_features", [(4, 1), (16, 7)])
    def test_predictions_weights_and_gradients_bit_identical(self, variant, n_nodes, n_features,
                                                             training):
        data = np.random.default_rng(86).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 36)
        graph = RoadGraph.ring(n_nodes)

        def step(forward):
            model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features,
                                        variant=variant, seed=0))
            rng = np.random.default_rng(87)
            preds, weights = forward(model, build_window(data, ts, 5), graph, training, rng)
            batch_loss(preds, data[ts + 1]).backward()
            grads = {name: p.grad for name, p in model.store.params.items()}
            return [preds.values, None if weights is None else weights.values, rng.random()], grads

        (stacked, stacked_grads), (serial, serial_grads) = (
            step(RadNet.forward_batch), step(serial_forward_batch))
        for got, want in zip(stacked, serial):
            np.testing.assert_array_equal(got, want)
        assert stacked_grads.keys() == serial_grads.keys()
        for name, want in serial_grads.items():
            np.testing.assert_array_equal(stacked_grads[name], want, err_msg=name)

    @pytest.mark.parametrize("d_model, n_heads", [(4, 1), (7, 7)])
    def test_one_call_draws_what_serial_calls_draw(self, d_model, n_heads):
        rng = np.random.default_rng(88)
        block = temporal_module.TransformerBlock(d_model, n_heads, rng, 16, 0.3, members=2)
        windows = rng.normal(size=(2, 5, d_model, 6))  # (S, K, d, R)
        draws = np.random.default_rng(89)
        stacked = block(windows, True, draws).values
        serial_draws = np.random.default_rng(89)
        serial = [member_block(block, s)(windows[s : s + 1], True, serial_draws).values
                  for s in range(2)]
        np.testing.assert_array_equal(stacked, np.concatenate(serial))
        assert draws.random() == serial_draws.random()

    def test_members_are_drawn_as_serial_blocks(self):
        # member s's parameters are those a lone block draws next from the same rng
        stacked = temporal_module.TransformerBlock(4, 2, np.random.default_rng(90), 8, 0.1, 2)
        rng = np.random.default_rng(90)
        serial = [temporal_module.TransformerBlock(4, 2, rng, 8, 0.1) for _ in range(2)]
        for name, p in nn_module.named_parameters(stacked).items():
            for s, lone in enumerate(serial):
                np.testing.assert_array_equal(
                    p.values[s], nn_module.named_parameters(lone)[name].values[0], err_msg=name)


class TestSharedWeightGemm:
    """matmul against the batched formulation, per kind of right operand."""

    @settings(max_examples=80, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=3).map(tuple),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        n=st.integers(1, 4),
        kind=st.sampled_from(["shared", "heads", "left-broadcast"]),
        extra=st.integers(0, 3),
        swapped=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_batched_formulation(self, lead, m, k, n, kind, extra, swapped, seed):
        # shared: a (k, n) weight behind `extra` unit axes, which may outnumber
        # the left operand's batch axes; heads: an (H, k, n) weight with H > 1
        # against a head axis of 1, as in GAT; left-broadcast: a left operand
        # with fewer batch axes than the gradient
        rng = np.random.default_rng(seed)
        a_lead, b_shape = {
            "shared": (lead, (1,) * extra + (k, n)),
            "heads": (lead + (1,), (extra + 2, k, n)),
            "left-broadcast": (lead, (extra + 2,) + lead + (k, n)),
        }[kind]
        if swapped:  # a non-contiguous view, as a swapaxes node hands on
            av = np.swapaxes(rng.normal(size=a_lead + (k, m)), -1, -2)
        else:
            av = rng.normal(size=a_lead + (m, k))
        bv = rng.normal(size=b_shape)
        a, b = DiffArray(av, requires_grad=True), DiffArray(bv, requires_grad=True)
        out = matmul(a, b)
        g = rng.normal(size=out.shape)
        weighted_sum(out, g).backward()
        got = [out.values, a.grad, b.grad]
        want = [batched_matmul_values(av, bv), *batched_matmul_grads(g, av, bv, True, True)]
        for got_array, want_array in zip(got, want):
            if kind == "shared":
                assert_close_to_scale(got_array, want_array)
            else:  # a batched right operand keeps the batched code
                np.testing.assert_array_equal(got_array, want_array)


    @settings(max_examples=80, deadline=None)
    @given(
        members=st.integers(1, 3),
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        n=st.integers(1, 4),
        swapped=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_member_weights_are_each_members_2d_gemm(self, members, lead, m, k, n, swapped,
                                                     seed):
        # an (S, 1, ..., 1, k, n) weight over (S, ..., m, k) inputs: member s
        # is bit for bit the 2-D GEMM over its rows (so S = 1 is the one shared
        # matrix's path), a strided member keeps the batched forward, and all
        # of it lies within rtol of the batched formulation
        rng = np.random.default_rng(seed)
        a_lead = (members,) + lead
        if swapped:
            av = np.swapaxes(rng.normal(size=a_lead + (k, m)), -1, -2)
        else:
            av = rng.normal(size=a_lead + (m, k))
        bv = rng.normal(size=(members,) + (1,) * len(lead) + (k, n))
        a, b = DiffArray(av, requires_grad=True), DiffArray(bv, requires_grad=True)
        out = matmul(a, b)
        g = rng.normal(size=out.shape)
        weighted_sum(out, g).backward()
        for s in range(members):
            want = matrix_gemm(av[s], bv[s].reshape(k, n), g[s])
            if not av[s].flags.c_contiguous:
                want[0] = batched_matmul_values(av[s], bv[s])
            got = [out.values[s], a.grad[s], b.grad[s].reshape(k, n)]
            for got_array, want_array in zip(got, want):
                np.testing.assert_array_equal(got_array, want_array)
        batched = [batched_matmul_values(av, bv), *batched_matmul_grads(g, av, bv, True, True)]
        for got_array, want_array in zip([out.values, a.grad, b.grad], batched):
            assert_close_to_scale(got_array, want_array)


class TestTrainingStepAgainstBatchedMatmul:
    """A whole training step with every product run as the batched matmul."""

    @pytest.mark.parametrize("n_nodes, n_features", [(4, 1), (16, 7), (64, 1)])
    def test_predictions_and_gradients_within_rtol(self, monkeypatch, n_nodes, n_features):
        data = np.random.default_rng(82).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 36)

        def step():
            model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features, seed=0))
            preds, _ = rollout_autoregressive(
                model, build_window(data, ts, 5), 1, RoadGraph.ring(n_nodes),
                rng=np.random.default_rng(83), training=True,
            )
            batch_loss(preds, data[ts + 1]).backward()
            return [preds.values] + [p.grad for p in model.store.params.values()]

        gemm = step()
        monkeypatch.setattr(T, "_product", batched_product)
        batched = step()
        assert len(gemm) == len(batched)
        for got, want in zip(gemm, batched):
            assert_close_to_scale(got, want)


def chain_loss(predictions, truths):
    diff = sub(truths, predictions)
    return reduce_mean(sqrt(reduce_sum(mul(diff, diff), axis=(-2, -1))))


def chain_fuse(parts, logits=None):
    """The parts stacked on a path axis, weighted by softmax(logits), summed."""
    stacked = concat([T.reshape(p, (p.shape[0], 1, *p.shape[1:])) for p in parts], 1)
    weights = None
    if logits is not None:
        weights = softmax(logits)
        stacked = mul(stacked, T.reshape(weights, (*weights.shape, 1, 1)))
    return reduce_sum(stacked, axis=1), weights


def chain_stack(arrays):
    return concat([T.reshape(a, (1, *a.shape)) for a in arrays], 0)


def chain_residual(x, branch, keep):
    return add(x, dropout(branch, keep))


def chain_offset_dropout(a, offset, keep):
    return dropout(add(a, offset), keep)


# node: (the module whose binding the model calls, the binding, its chain)
GLUE_CHAINS = {
    "loss": (model_module, "frobenius_loss", chain_loss),
    "fusion": (model_module, "fuse", chain_fuse),
    "member-stack": (model_module, "stack", chain_stack),
    "residual": (temporal_module, "residual", chain_residual),
    "position-encoding": (temporal_module, "offset_dropout", chain_offset_dropout),
}


class TestGlueNodesAgainstChains:
    """A training step with one glue node swapped back to its chain."""

    @staticmethod
    def step(variant, n_nodes, n_features, batch):
        data = np.random.default_rng(91).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 4 + batch)
        model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features, variant=variant,
                                    seed=0))
        preds, weights = model.forward_batch(build_window(data, ts, 5), RoadGraph.ring(n_nodes),
                                             True, np.random.default_rng(92))
        loss = batch_loss(preds, data[ts + 1])
        loss.backward()
        arrays = [loss.values, preds.values, None if weights is None else weights.values]
        return arrays + [p.grad for p in model.store.params.values()]

    @pytest.mark.parametrize("batch", [32, 1])
    @pytest.mark.parametrize("n_nodes, n_features", [(4, 1), (16, 7)])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("node", GLUE_CHAINS)
    def test_values_and_every_gradient_bit_identical(self, monkeypatch, node, variant, n_nodes,
                                                     n_features, batch):
        fused = self.step(variant, n_nodes, n_features, batch)
        module, name, chain = GLUE_CHAINS[node]
        monkeypatch.setattr(module, name, chain)
        composed = self.step(variant, n_nodes, n_features, batch)
        assert len(fused) == len(composed)
        for got, want in zip(fused, composed):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


def glue_arrays(rng, shape=(3, 4, 2)):
    """Three parts, (B, 3) logits, keep factors at rate 0.3 and an offset for `shape`."""
    parts = [DiffArray(rng.normal(size=shape), requires_grad=True) for _ in range(3)]
    logits = DiffArray(rng.normal(size=(shape[0], 3)), requires_grad=True)
    keep = T._dropout_keep(rng.random(shape), 0.3)
    return parts, logits, keep, rng.normal(size=shape[1:])


# name: f(parts, logits, keep, offset, w), a scalar of tracked leaves
GLUE_OBJECTIVES = {
    "loss": lambda p, l, k, o, w: T.frobenius_loss(p[0], p[1]),
    "fusion": lambda p, l, k, o, w: weighted_sum(T.fuse(p, l)[0], w),
    "fusion-unweighted": lambda p, l, k, o, w: weighted_sum(T.fuse(p)[0], w),
    "member-stack": lambda p, l, k, o, w: weighted_sum(T.stack(p[:2]), w[:2]),
    "residual": lambda p, l, k, o, w: weighted_sum(T.residual(p[0], p[1], k), w),
    "residual-eval": lambda p, l, k, o, w: weighted_sum(T.residual(p[0], p[1], None), w),
    "position-encoding": lambda p, l, k, o, w: weighted_sum(T.offset_dropout(p[0], o, k), w),
}


class TestGlueNodeGradients:
    @pytest.mark.parametrize("name", GLUE_OBJECTIVES)
    def test_gradient_matches_finite_differences(self, name):
        # C01's stencil, floor and bound
        rng = np.random.default_rng(93)
        parts, logits, keep, offset = glue_arrays(rng)
        w = rng.normal(size=(3,) + parts[0].shape)
        leaves = parts + [logits]
        err = T.grad_check(lambda: GLUE_OBJECTIVES[name](parts, logits, keep, offset, w), leaves,
                           step=1e-6)
        assert err < 1e-4

    def test_fused_weights_are_the_softmax_and_untracked(self):
        parts, logits, _, _ = glue_arrays(np.random.default_rng(94))
        fused, weights = T.fuse(parts, logits)
        np.testing.assert_array_equal(weights.values, softmax(logits).values)
        assert weights.op_trace is None and not weights.requires_grad
        assert T.fuse(parts)[1] is None

    @pytest.mark.parametrize("logits_shape", [(3, 2), (3, 4), (2, 3)])
    def test_fusion_refuses_logits_that_do_not_fit(self, logits_shape):
        parts, _, _, _ = glue_arrays(np.random.default_rng(95))
        refusal = r"cannot fuse .* by " + re.escape(f"{logits_shape} logits")
        with pytest.raises(DimensionError, match=refusal):
            T.fuse(parts, np.zeros(logits_shape))

    def test_fusion_refuses_parts_of_other_shapes(self):
        parts, logits, _, _ = glue_arrays(np.random.default_rng(96))
        with pytest.raises(DimensionError, match=r"cannot fuse .*\(3, 4, 1\)"):
            T.fuse(parts[:2] + [np.zeros((3, 4, 1))], logits)
