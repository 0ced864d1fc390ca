"""Fused layer nodes against the chains of primitive nodes they replace, and
shared-weight products against the batched matmul they replace.

Each layer reference below is the layer as it was composed before it became
one tape node. The fused node must give the same values and the same
gradients bit for bit, including where a shared input sums gradient terms
from several nodes.

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
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnet import graph as graph_module
from radnet import nn as nn_module
from radnet import temporal as temporal_module
from radnet import tensor as T
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
from radnet.tensor import DiffArray

from primitive_nodes import gather, leaky_relu, sigmoid


def composed_affine(x, w, b):
    return T.matmul(x, w) + b


def composed_feed_forward(x, weights, biases, slope):
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = composed_affine(x, w, b)
        if i < last:
            x = leaky_relu(x, slope)
    return x


def composed_attention(qp, kp, vp, w_out, n_heads, scale, mask=None):
    """Head split, scores, mask, softmax, weighted sum, head merge, output map."""
    d_model = qp.shape[-1]

    def split(x):
        if n_heads == 1:
            return x
        x = T.reshape(x, x.shape[:-1] + (n_heads, d_model // n_heads))
        return T.swapaxes(x, -3, -2)

    def merge(x):
        if n_heads == 1:
            return x
        x = T.swapaxes(x, -3, -2)
        return T.reshape(x, x.shape[:-2] + (d_model,))

    scores = T.matmul(split(qp), T.swapaxes(split(kp), -1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    weights = T.softmax(scores)
    return T.matmul(merge(T.matmul(weights, split(vp))), w_out)


def composed_graph_attention(x, theta, score_src, score_dst, score_bias, neighbor_index,
                             neighbor_mask, slope):
    x = T.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
    h = T.matmul(x, theta)
    src = T.matmul(h, score_src)
    dst = T.reshape(T.matmul(h, score_dst), h.shape[:-1])
    dst = gather(dst, neighbor_index, axis=-1)
    scores = leaky_relu(src + dst + score_bias, slope) + neighbor_mask
    alpha = T.softmax(scores)
    neighbors = gather(h, neighbor_index, axis=-2)
    alpha = T.reshape(alpha, alpha.shape[:-1] + (1,) + alpha.shape[-1:])
    mixed = T.matmul(alpha, neighbors)
    return sigmoid(T.reshape(mixed, h.shape)).mean(axis=-3)


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
    def grads(g, want_a, want_b):
        return batched_matmul_grads(g, av, bv, want_a, want_b)

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


def run_both(fused, composed, arrays, build, rng):
    """Values and every input gradient of `build(op, *leaves)` for both ops."""
    results = []
    for op in (composed, fused):
        leaves = [DiffArray(a, requires_grad=True) for a in arrays]
        out = build(op, *leaves)
        (out * np.random.default_rng(rng).normal(size=out.shape)).sum().backward()
        results.append([out.values] + [leaf.grad for leaf in leaves])
    return results


def assert_bit_identical(results):
    (composed, fused) = results
    assert len(fused) == len(composed)
    for got, want in zip(fused, composed):
        np.testing.assert_array_equal(got, want)


def attention_arrays(rng, lead, kq, kk, d_model):
    w_out = rng.normal(size=(d_model, d_model))
    return [rng.normal(size=lead + (kq, d_model)), rng.normal(size=lead + (kk, d_model)),
            rng.normal(size=lead + (kk, d_model)), w_out]


# (lead axes, Kq, Kk, model width, heads, causal): C07 is flattened with one
# 4-wide head over 32 windows of 5; train-radset is per node, 16 nodes of 7
# width-1 heads. Kq = 1 is the decoder's final-position query.
ATTENTION_SHAPES = {
    "c07-self": ((32,), 5, 5, 4, 1, False),
    "c07-causal": ((32,), 5, 5, 4, 1, True),
    "c07-query": ((32,), 1, 5, 4, 1, False),
    "radset-self": ((32, 16), 5, 5, 7, 7, False),
    "radset-causal": ((32, 16), 5, 5, 7, 7, True),
    "radset-query": ((32, 16), 1, 5, 7, 7, False),
}


class TestAttention:
    @pytest.mark.parametrize("case", ATTENTION_SHAPES, ids=list(ATTENTION_SHAPES))
    def test_bit_identical_to_chain(self, case):
        lead, kq, kk, d_model, n_heads, causal = ATTENTION_SHAPES[case]
        rng = np.random.default_rng(40)
        arrays = attention_arrays(rng, lead, kq, kk, d_model)
        mask = causal_mask(kk) if causal else None
        scale = 1.0 / np.sqrt(d_model)
        results = run_both(
            T.attention, composed_attention, arrays,
            lambda op, q, k, v, w: op(q, k, v, w, n_heads, scale, mask), 41,
        )
        assert_bit_identical(results)

    @pytest.mark.parametrize("d_model, n_heads", [(4, 1), (7, 7)])
    def test_query_taken_from_the_source_sums_like_the_chain(self, d_model, n_heads):
        # the decoder's query is the last row of its key/value input
        rng = np.random.default_rng(42)
        source_values = rng.normal(size=(32, 5, d_model))
        mha = temporal_module.MultiHeadAttention(d_model, n_heads, rng)
        projections = [mha.w_query, mha.w_key, mha.w_value]

        def decode(op, source, wq, wk, wv, w_out):
            last = source[..., -1:, :]
            projected = [T.matmul(x, w) for x, w in zip((last, source, source), (wq, wk, wv))]
            return op(*projected, w_out, n_heads, mha.scale) + last

        arrays = [source_values] + [p.values for p in projections] + [mha.w_out.values]
        assert_bit_identical(run_both(T.attention, composed_attention, arrays, decode, 43))

    @settings(max_examples=40, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        kq=st.integers(1, 4),
        kk=st.integers(1, 4),
        d_head=st.integers(1, 3),
        n_heads=st.integers(1, 3),
        masked=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_over_shapes_and_heads(self, lead, kq, kk, d_head, n_heads, masked, seed):
        rng = np.random.default_rng(seed)
        d_model = d_head * n_heads
        arrays = attention_arrays(rng, lead, kq, kk, d_model)
        mask = causal_mask(kk)[-kq:] if masked and kq <= kk else None
        results = run_both(
            T.attention, composed_attention, arrays,
            lambda op, q, k, v, w: op(q, k, v, w, n_heads, 0.5, mask), seed,
        )
        assert_bit_identical(results)

    @pytest.mark.parametrize("n_heads, causal", [(1, False), (2, True)])
    def test_gradient_matches_finite_differences(self, n_heads, causal):
        rng = np.random.default_rng(44)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in attention_arrays(rng, (2,), 3, 3, 4)]
        mask = causal_mask(3) if causal else None
        w = rng.normal(size=(2, 3, 4))

        def f():
            return (T.attention(*leaves, n_heads, 0.5, mask) * w).sum()

        assert T.grad_check(f, leaves) < 1e-6

    def test_only_the_output_map_tracked(self):
        rng = np.random.default_rng(45)
        q, k, v, w_out = attention_arrays(rng, (2,), 3, 3, 4)
        w = DiffArray(w_out, requires_grad=True)
        T.attention(q, k, v, w, 2, 0.5).sum().backward()
        ref = DiffArray(w_out, requires_grad=True)
        composed_attention(DiffArray(q), DiffArray(k), DiffArray(v), ref, 2, 0.5).sum().backward()
        np.testing.assert_array_equal(w.grad, ref.grad)


# (lead axes, graph, width, heads): C07 has 4 nodes of one feature; train-radset
# 16 nodes of 7. GAT layers see every slice of a (B, K) window stack.
GRAPH_SHAPES = {
    "c07": ((32, 5), RoadGraph.ring(4), 1, 1),
    "radset": ((32, 5), RoadGraph.ring(16), 7, 1),
    "hub-3heads": ((2,), RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]), 3, 3),
    "unbatched": ((), RoadGraph.ring(5), 2, 2),
}


def graph_arrays(rng, lead, graph, width, n_heads):
    layer = graph_module.GatLayer(width, width, rng, n_heads=n_heads)
    return [rng.normal(size=lead + (graph.n_nodes, width)), layer.theta.values,
            layer.score_src.values, layer.score_dst.values, rng.normal(size=(n_heads, 1, 1))]


class TestGraphAttention:
    @pytest.mark.parametrize("case", GRAPH_SHAPES, ids=list(GRAPH_SHAPES))
    def test_bit_identical_to_chain(self, case):
        lead, graph, width, n_heads = GRAPH_SHAPES[case]
        rng = np.random.default_rng(50)
        results = run_both(
            T.graph_attention, composed_graph_attention,
            graph_arrays(rng, lead, graph, width, n_heads),
            lambda op, *p: op(*p, graph.neighbor_index, graph.neighbor_mask, 0.01), 51,
        )
        assert_bit_identical(results)

    @settings(max_examples=30, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        n_nodes=st.integers(1, 6),
        width=st.integers(1, 3),
        n_heads=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_over_shapes_and_heads(self, lead, n_nodes, width, n_heads, seed):
        rng = np.random.default_rng(seed)
        edges = [tuple(e) for e in rng.integers(0, n_nodes, size=(n_nodes, 2))]
        graph = RoadGraph(n_nodes, edges)
        results = run_both(
            T.graph_attention, composed_graph_attention,
            graph_arrays(rng, lead, graph, width, n_heads),
            lambda op, *p: op(*p, graph.neighbor_index, graph.neighbor_mask, 0.2), seed,
        )
        assert_bit_identical(results)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        graph = RoadGraph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        leaves = [DiffArray(a, requires_grad=True) for a in graph_arrays(rng, (2,), graph, 2, 2)]
        w = rng.normal(size=(2, 5, 2))

        def f():
            out = T.graph_attention(*leaves, graph.neighbor_index, graph.neighbor_mask, 0.2)
            return (out * w).sum()

        assert T.grad_check(f, leaves) < 1e-6


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
            lambda op, x, *params: op(x, params[0::2], params[1::2], 0.01), 61,
        )
        assert_bit_identical(results)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in feed_forward_arrays(rng, (2, 3, 2), (2, 4, 3))]
        w = rng.normal(size=(2, 3, 3))

        def f():
            return (T.feed_forward(leaves[0], leaves[1::2], leaves[2::2], 0.1) * w).sum()

        assert T.grad_check(f, leaves) < 1e-6


def affine(x, w, b):
    """The affine map as `Linear` runs it: a one-layer feed-forward node."""
    return T.feed_forward(x, [w], [b], nn_module.DEFAULT_LEAKY_SLOPE)


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
        assert T.grad_check(lambda: (affine(*leaves) * w).sum(), leaves) < 1e-6

    def test_gradient_matches_finite_differences_on_a_4d_input(self):
        # the shared-weight GEMM flattens the three batch axes into rows
        rng = np.random.default_rng(73)
        leaves = [DiffArray(a, requires_grad=True)
                  for a in (rng.normal(size=(2, 3, 2, 4)), rng.normal(size=(4, 2)),
                            rng.normal(size=2))]
        w = rng.normal(size=(2, 3, 2, 2))
        assert T.grad_check(lambda: (affine(*leaves) * w).sum(), leaves) < 1e-6


class TestTrainingStepAgainstChains:
    """A whole training step with every layer swapped back to its chain."""

    @pytest.mark.parametrize("n_nodes, n_features, horizon", [(4, 1, 1), (4, 1, 2), (16, 7, 1)])
    def test_predictions_and_gradients_bit_identical(self, monkeypatch, n_nodes, n_features,
                                                     horizon):
        data = np.random.default_rng(80).normal(size=(40, n_nodes, n_features))
        ts = np.arange(4, 36)
        truth = data[ts + 1][:, None] if horizon > 1 else None

        def step():
            model = RadNet(RadNetConfig(n_nodes=n_nodes, n_features=n_features, seed=0))
            preds, _ = rollout_autoregressive(
                model, build_window(data, ts, 5), horizon, RoadGraph.ring(n_nodes), truth=truth,
                teacher_force_p=0.5 if truth is not None else 0.0,
                rng=np.random.default_rng(81), training=True,
            )
            batch_loss(preds, data[ts + horizon]).backward()
            return preds.values, model.store.flat_grad()

        fused = step()
        monkeypatch.setattr(temporal_module, "attention", composed_attention)
        monkeypatch.setattr(graph_module, "graph_attention", composed_graph_attention)
        monkeypatch.setattr(nn_module, "feed_forward", composed_feed_forward)
        composed = step()
        for got, want in zip(fused, composed):
            np.testing.assert_array_equal(got, want)


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
            member_block(model.transformer, s), T.reshape(x, (1, *x.shape)),
            model.config.temporal_mode, training, rng)
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
    stack = T.concat([T.reshape(p, (p.shape[0], 1, *p.shape[1:])) for p in parts], 1)
    weights = None
    if model.fusion is not None:
        weights = T.softmax(model.fusion(T.reshape(latest, (latest.shape[0], -1))))
        stack = stack * T.reshape(weights, (*weights.shape, 1, 1))
    return model.decoder(stack.sum(axis=1)), weights


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
        return model.decoder(paths[0] + paths[1] + latest), None
    flat = T.reshape(latest, (latest.shape[0], cfg.n_nodes * cfg.n_features))
    weights = T.softmax(model.fusion(flat))
    fused = None
    for i, part in enumerate(paths + [latest]):
        term = T.reshape(weights[:, i], (-1, 1, 1)) * part
        fused = term if fused is None else fused + term
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
        windows = rng.normal(size=(2, 6, 5, d_model))
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
        out = T.matmul(a, b)
        g = rng.normal(size=out.shape)
        (out * g).sum().backward()
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
        out = T.matmul(a, b)
        g = rng.normal(size=out.shape)
        (out * g).sum().backward()
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
