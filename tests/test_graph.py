"""Graph structure invariants and GAT attention against hand evaluation."""

import numpy as np
import pytest

from radnet import tensor as T
from radnet.errors import DimensionError, GraphError
from radnet.graph import GatLayer, RoadGraph
from radnet.nn import named_parameters
from radnet.tensor import DiffArray

from primitive_nodes import (
    add, leaky_relu, matmul, reduce_mean, sigmoid, softmax, swapaxes, weighted_sum,
)


def leaky(x, s=0.01):
    return x if x > 0 else s * x


def dense_mask(g):
    """(N, N) additive mask: 0 on neighborhoods (incl. self), -inf elsewhere."""
    mask = np.full((g.n_nodes, g.n_nodes), -np.inf)
    for i, ns in enumerate(g.neighborhoods):
        mask[i, ns] = 0.0
    return mask


def dense_gat(layer, x, g):
    """The GAT scored over all N x N pairs with off-neighborhood pairs masked."""
    x = T.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
    h = matmul(x, layer.theta)
    src = matmul(h, layer.score_src)
    dst = matmul(h, layer.score_dst)
    scores = leaky_relu(add(add(src, swapaxes(dst, -1, -2)), layer.score_bias), T.LEAKY_SLOPE)
    alpha = softmax(add(scores, dense_mask(g)))
    return reduce_mean(sigmoid(matmul(alpha, h)), axis=-3)


class TestRoadGraph:
    def test_neighborhoods_are_symmetric_with_self_loops(self):
        g = RoadGraph(4, [(0, 1), (1, 2)])
        assert g.neighborhoods[0] == [0, 1]
        assert g.neighborhoods[1] == [0, 1, 2]
        assert g.neighborhoods[3] == [3]
        for i, j in g.edges:
            assert j in g.neighborhoods[i] and i in g.neighborhoods[j]

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            RoadGraph(3, [(0, 3)])

    def test_edge_csv_round_trip(self, tmp_path):
        g = RoadGraph(5, [(0, 1), (2, 4), (1, 3)])
        path = tmp_path / "edges.csv"
        g.to_edge_csv(path)
        g2 = RoadGraph.from_edge_csv(path, 5)
        assert g2.edges == g.edges

    def test_edge_csv_rejects_bad_ids(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n0,1\n2,9\n")
        with pytest.raises(GraphError, match="edges.csv:3"):
            RoadGraph.from_edge_csv(path, 4)

    def test_neighbor_table_matches_neighborhoods(self):
        g = RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        assert g.neighbor_index.shape == g.neighbor_mask.shape == (7, 5)
        for i, ns in enumerate(g.neighborhoods):
            real = g.neighbor_mask[i] == 0.0
            assert g.neighbor_index[i, real].tolist() == ns
            # padding points at the row's own node and is masked out
            assert (g.neighbor_index[i, ~real] == i).all()
            assert (g.neighbor_mask[i, ~real] == -np.inf).all()
        assert g.neighbor_index[5].tolist() == [5, 6, 5, 5, 5]

    def test_permuted_relabels_nodes(self):
        g = RoadGraph(4, [(0, 1), (1, 2)])
        assert g.permuted([2, 0, 3, 1]).edges == {(0, 2), (0, 3)}

    @pytest.mark.parametrize("perm", [
        [0, 0, 1, 2],  # a repeated node would drop an edge
        [0, 1, 2],  # too short
        [0, 1, 2, 3, 4],  # too long
        [0, 1, 2, 4],  # outside the node range
        [-1, 0, 1, 2],
        ["0", 1, 2, 3],
    ])
    def test_permuted_refuses_anything_but_a_permutation(self, perm):
        with pytest.raises(GraphError, match=r"is not a permutation of range\(4\)"):
            RoadGraph.ring(4).permuted(perm)

    @pytest.mark.parametrize("n_nodes, edges", [
        (1, set()),
        (2, {(0, 1)}),
        (3, {(0, 1), (1, 2), (0, 2)}),
        (4, {(0, 1), (1, 2), (2, 3), (0, 3)}),
        (5, {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
        (6, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}),
    ])
    def test_ring_edges(self, n_nodes, edges):
        assert RoadGraph.ring(n_nodes).edges == edges


class TestAttentionCoefficients:
    def test_isolated_node_attends_to_itself(self):
        g = RoadGraph(3, [(0, 1)])
        layer = GatLayer(2, 2, np.random.default_rng(0))
        alpha = layer.attention_coefficients(np.random.default_rng(1).normal(size=(3, 2)), g)
        assert alpha.values[2, 2] == pytest.approx(1.0)
        assert alpha.values[2, 0] == 0.0

    def test_identical_features_split_evenly(self):
        g = RoadGraph(2, [(0, 1)])
        layer = GatLayer(2, 2, np.random.default_rng(2))
        x = np.tile([[0.4, -1.1]], (2, 1))
        alpha = layer.attention_coefficients(x, g)
        np.testing.assert_allclose(alpha.values, np.full((2, 2), 0.5), atol=1e-12)

    def test_path_graph_matches_hand_evaluation(self):
        # 3-node path 0-1-2, scalar features, fixed small weights.
        g = RoadGraph(3, [(0, 1), (1, 2)])
        layer = GatLayer(1, 1, np.random.default_rng(3))
        layer.theta.values[...] = [[[2.0]]]
        layer.score_src.values[...] = [[[0.3]]]
        layer.score_dst.values[...] = [[[-0.5]]]
        layer.score_bias.values[...] = [[[0.1]]]
        x = np.array([[1.0], [-1.0], [0.5]])
        h = 2.0 * x[:, 0]  # theta h

        def e(i, j):
            return leaky(0.3 * h[i] - 0.5 * h[j] + 0.1)

        alpha = layer.attention_coefficients(x, g).values
        for i, ns in enumerate(g.neighborhoods):
            raw = np.array([e(i, j) for j in ns])
            ex = np.exp(raw - raw.max())
            np.testing.assert_allclose(alpha[i, ns], ex / ex.sum(), rtol=1e-12)

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(4)
        g = RoadGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        layer = GatLayer(3, 2, rng, n_heads=2)
        x = rng.normal(size=(6, 3))
        for head in range(2):
            alpha = layer.attention_coefficients(x, g, head).values
            assert (alpha >= 0).all()
            np.testing.assert_allclose(alpha.sum(axis=-1), np.ones(6), atol=1e-9)


class TestGatForward:
    def test_zero_weights_give_half_everywhere(self):
        g = RoadGraph(3, [(0, 1), (1, 2)])
        layer = GatLayer(2, 2, np.random.default_rng(5))
        for p in named_parameters(layer).values():
            p.values[...] = 0.0
        out = layer(np.random.default_rng(6).normal(size=(3, 2)), g)
        np.testing.assert_allclose(out.values, np.full((3, 2), 0.5))

    def test_isolated_node_sees_only_itself(self):
        g = RoadGraph(3, [(0, 1)])
        layer = GatLayer(2, 2, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x1 = rng.normal(size=(3, 2))
        x2 = x1.copy()
        x2[:2] += rng.normal(size=(2, 2))  # perturb the other nodes only
        out1 = layer(x1, g).values
        out2 = layer(x2, g).values
        np.testing.assert_array_equal(out1[2], out2[2])

    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_gradient_through_attention_and_theta(self, n_heads):
        rng = np.random.default_rng(9)
        g = RoadGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        layer = GatLayer(2, 2, rng, n_heads=n_heads)
        x = DiffArray(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(4, 2))

        def f():
            return weighted_sum(layer(x, g), w)

        err = T.grad_check(f, [x, *named_parameters(layer).values()])
        assert err < 1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        g = RoadGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        layer = GatLayer(3, 3, rng, n_heads=2)
        x = rng.normal(size=(5, 3))
        perm = [3, 0, 4, 1, 2]
        gp = g.permuted(perm)
        xp = np.empty_like(x)
        for i, pi in enumerate(perm):
            xp[pi] = x[i]
        out = layer(x, g).values
        outp = layer(xp, gp).values
        for i, pi in enumerate(perm):
            np.testing.assert_allclose(outp[pi], out[i], atol=1e-12)

    def test_width_mismatch(self):
        layer = GatLayer(3, 2, np.random.default_rng(11))
        with pytest.raises(DimensionError):
            layer(np.zeros((4, 2)), RoadGraph(4, []))

    def test_concat_and_mean_output_widths(self):
        rng = np.random.default_rng(12)
        g = RoadGraph.ring(4)
        x = rng.normal(size=(4, 3))
        avg = GatLayer(3, 3, rng, n_heads=3)
        assert avg(x, g).shape == (4, 3)

    def test_heads_match_per_head_mean(self):
        # Reference: each head evaluated on its own parameter slice, then averaged.
        rng = np.random.default_rng(20)
        g = RoadGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        layer = GatLayer(3, 2, rng, n_heads=3)
        layer.score_bias.values[...] = rng.normal(size=(3, 1, 1))
        x = rng.normal(size=(2, 4, 5, 3))
        heads = []
        for m in range(3):
            h = x @ layer.theta.values[m]
            src = h @ layer.score_src.values[m]
            dst = h @ layer.score_dst.values[m]
            e = src + np.swapaxes(dst, -1, -2) + layer.score_bias.values[m]
            e = np.where(e > 0, e, 0.01 * e) + dense_mask(g)
            alpha = np.exp(e - e.max(axis=-1, keepdims=True))
            alpha /= alpha.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(
                layer.attention_coefficients(x, g, m).values, alpha, rtol=1e-12
            )
            heads.append(1.0 / (1.0 + np.exp(-(alpha @ h))))
        np.testing.assert_allclose(layer(x, g).values, np.mean(heads, axis=0), rtol=1e-12)


class TestNeighborTableAgainstDense:
    """The neighbour-table layer against the dense N x N formula it replaced."""

    @pytest.mark.parametrize(
        "graph, n_in, n_heads, lead",
        [
            (RoadGraph.ring(64), 1, 1, (2, 3)),
            (RoadGraph.ring(16), 7, 1, (3, 2)),
            (RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]), 3, 3, (2,)),
        ],
        ids=["ring64", "ring16-d7", "hub-3heads"],
    )
    def test_outputs_and_gradients_match(self, graph, n_in, n_heads, lead):
        rng = np.random.default_rng(21)
        layer = GatLayer(n_in, n_in, rng, n_heads=n_heads)
        layer.score_bias.values[...] = rng.normal(size=(n_heads, 1, 1))
        x = DiffArray(rng.normal(size=lead + (graph.n_nodes, n_in)), requires_grad=True)
        w = rng.normal(size=lead + (graph.n_nodes, n_in))
        params = [x, *named_parameters(layer).values()]
        grads = []
        for forward in (layer, lambda x, g: dense_gat(layer, x, g)):
            for p in params:
                p.grad = None
            out = forward(x, graph)
            weighted_sum(out, w).backward()
            grads.append((out.values, [p.grad.copy() for p in params]))
        (out, got), (ref, want) = grads
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        for g_got, g_want in zip(got, want):
            # a head whose scores are all positive has a bias gradient of
            # exactly 0 in theory, ~1e-19 of rounding on either side
            floor = 1e-12 * np.abs(g_want).max()
            np.testing.assert_allclose(g_got, g_want, rtol=1e-12, atol=floor)

    def test_padding_slots_get_weight_exactly_zero(self):
        rng = np.random.default_rng(22)
        g = RoadGraph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        layer = GatLayer(3, 2, rng, n_heads=3)
        alpha = T._graph_attention_weights(
            rng.normal(size=(4, 7, 3)) * 5, layer.theta.values, layer.score_src.values,
            layer.score_dst.values, layer.score_bias.values, g.neighbor_index,
            g.neighbor_mask,
        )[-1]
        padding = np.broadcast_to(g.neighbor_mask == -np.inf, alpha.shape)
        assert padding.sum() == 4 * 3 * (7 * 5 - 17)
        assert (alpha[padding] == 0.0).all()
        assert (alpha[~padding] > 0.0).all()


class TestGatOverWindow:
    def test_single_slice_equals_forward(self):
        rng = np.random.default_rng(13)
        g = RoadGraph.ring(4)
        layer = GatLayer(2, 2, rng)
        x = rng.normal(size=(4, 2))
        single = layer(x, g).values
        windowed = layer(x[None], g).values
        np.testing.assert_array_equal(windowed[0], single)

    def test_constant_window_gives_constant_output(self):
        rng = np.random.default_rng(14)
        g = RoadGraph.ring(3)
        layer = GatLayer(2, 2, rng)
        w = np.tile(rng.normal(size=(1, 3, 2)), (4, 1, 1))
        out = layer(w, g).values
        for k in range(1, 4):
            np.testing.assert_array_equal(out[k], out[0])

    def test_slices_are_independent(self):
        rng = np.random.default_rng(15)
        g = RoadGraph.ring(4)
        layer = GatLayer(2, 2, rng)
        w = rng.normal(size=(3, 4, 2))
        stacked = layer(w, g).values
        for k in range(3):
            np.testing.assert_allclose(stacked[k], layer(w[k], g).values, atol=1e-15)
