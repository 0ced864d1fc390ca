"""Road-network graph and the multi-head graph-attention layer.

Nodes are road links; undirected edges join links that share a junction.
Every node carries a self-loop so it always attends to its own features.
Attention is scored over neighbourhoods only: the graph holds a padded
(N, W) neighbour table, W being the largest neighbourhood, whose padding
slots point at the row's own node and carry a -inf mask, so their weights
come out exactly zero after the softmax. A head's cost grows with N * W,
the neighbourhood entries, not with N * N, and the layer stays
shape-polymorphic over leading batch axes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import files
from .errors import DimensionError, GraphError
from .nn import DEFAULT_LEAKY_SLOPE, xavier_uniform
from .tensor import DiffArray, _graph_attention_weights, _wrap, graph_attention


class RoadGraph:
    """Static undirected graph over `n_nodes` road links."""

    def __init__(self, n_nodes: int, edges):
        if n_nodes < 1:
            raise GraphError("graph needs at least one node")
        self.n_nodes = n_nodes
        cleaned = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                raise GraphError(f"edge ({i}, {j}) outside node range [0, {n_nodes})")
            if i != j:
                cleaned.add((min(i, j), max(i, j)))
        self.edges = frozenset(cleaned)
        neighborhoods = [{i} for i in range(n_nodes)]
        for i, j in self.edges:
            neighborhoods[i].add(j)
            neighborhoods[j].add(i)
        self.neighborhoods = [sorted(ns) for ns in neighborhoods]
        # (N, W) neighbour table: row i lists N(i), padded with i itself;
        # the additive mask is 0 on real entries and -inf on the padding.
        width = max(len(ns) for ns in self.neighborhoods)
        self.neighbor_index = np.arange(n_nodes)[:, None].repeat(width, axis=1)
        self.neighbor_mask = np.full((n_nodes, width), -np.inf)
        for i, ns in enumerate(self.neighborhoods):
            self.neighbor_index[i, : len(ns)] = ns
            self.neighbor_mask[i, : len(ns)] = 0.0
        self.neighbor_index.setflags(write=False)
        self.neighbor_mask.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def permuted(self, perm) -> "RoadGraph":
        """The same graph with node i relabeled perm[i]."""
        perm = list(perm)
        return RoadGraph(self.n_nodes, [(perm[i], perm[j]) for i, j in self.edges])

    @classmethod
    def from_edge_csv(cls, path: str | Path, n_nodes: int) -> "RoadGraph":
        """Load an undirected edge list from a `src,dst` CSV with 0-based ids."""
        edges = []
        reader = csv.DictReader(files.read_bytes(path, "edge list").decode("utf-8").splitlines())
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["src", "dst"]:
            raise GraphError(f"edge file {path} must have header 'src,dst'")
        for lineno, row in enumerate(reader, start=2):
            try:
                i, j = int(row["src"]), int(row["dst"])
            except (TypeError, ValueError) as exc:
                raise GraphError(f"{path}:{lineno}: non-integer node id") from exc
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                raise GraphError(
                    f"{path}:{lineno}: edge ({i}, {j}) outside [0, {n_nodes})"
                )
            edges.append((i, j))
        return cls(n_nodes, edges)

    def to_edge_csv(self, path: str | Path) -> None:
        files.write_csv(path, ["src", "dst"], sorted(self.edges))

    @classmethod
    def ring(cls, n_nodes: int) -> "RoadGraph":
        """A cycle graph; the default synthetic road topology."""
        if n_nodes == 1:
            return cls(1, [])
        if n_nodes == 2:
            return cls(2, [(0, 1)])
        return cls(n_nodes, [(i, (i + 1) % n_nodes) for i in range(n_nodes)])


class GatLayer:
    """Multi-head graph attention, heads averaged.

    Per head: project features with `theta`, score each edge (i, j) as
    `score_src . theta h_i + score_dst . theta h_j + score_bias` through a
    LeakyReLU, softmax the scores over each neighborhood, then pass the
    attention-weighted neighbor sum through a sigmoid. Scores live on the
    graph's (N, W) neighbour table, so a head scores (..., N, W) pairs and
    gathers (..., N, W, n_out) neighbour projections; padding slots get weight
    exactly 0. Every parameter holds all heads on its leading axis, so the
    heads run on a head axis (..., H, N, n_out), which the output averages away.
    The layer records one tape node, `tensor.graph_attention`.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        rng: np.random.Generator,
        n_heads: int = 1,
    ):
        self.n_in = n_in
        self.n_out = n_out
        self.n_heads = n_heads
        self.theta = DiffArray(
            xavier_uniform(rng, n_in, n_out, (n_heads, n_in, n_out)), requires_grad=True
        )
        score = xavier_uniform(rng, 2 * n_out, 1, (n_heads, 2 * n_out, 1))
        self.score_src = DiffArray(score[:, :n_out].copy(), requires_grad=True)
        self.score_dst = DiffArray(score[:, n_out:].copy(), requires_grad=True)
        self.score_bias = DiffArray(np.zeros((n_heads, 1, 1)), requires_grad=True)

    def attention_coefficients(self, x, graph: RoadGraph, head: int = 0) -> DiffArray:
        """(..., N, N) coefficients for one head; zero off the neighborhood.

        Scatters the neighbour-table weights into an N x N array; the result
        carries no tape.
        """
        x = _wrap(x)
        self._check(x, graph)
        alpha = _graph_attention_weights(
            x.values, self.theta.values, self.score_src.values, self.score_dst.values,
            self.score_bias.values, graph.neighbor_index, graph.neighbor_mask,
            DEFAULT_LEAKY_SLOPE,
        )[-1][..., head, :, :]
        rows, slots = np.nonzero(graph.neighbor_mask == 0.0)
        dense = np.zeros(alpha.shape[:-1] + (graph.n_nodes,))
        dense[..., rows, graph.neighbor_index[rows, slots]] = alpha[..., rows, slots]
        return DiffArray(dense)

    def _check(self, x: DiffArray, graph: RoadGraph) -> None:
        if x.shape[-1] != self.n_in:
            raise DimensionError(
                f"feature width {x.shape[-1]} does not match layer input {self.n_in}"
            )
        if x.shape[-2] != graph.n_nodes:
            raise DimensionError(
                f"feature matrix rows {x.shape} do not match {graph.n_nodes} nodes"
            )

    def __call__(self, x, graph: RoadGraph) -> DiffArray:
        """Apply the layer to (..., N, n_in); leading axes are batch axes.

        Stacked windows go through unchanged: each time slice is attended
        independently with the same parameters.
        """
        x = _wrap(x)
        self._check(x, graph)
        return graph_attention(
            x, self.theta, self.score_src, self.score_dst, self.score_bias,
            graph.neighbor_index, graph.neighbor_mask, DEFAULT_LEAKY_SLOPE,
        )
