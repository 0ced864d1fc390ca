"""Dense float64 arrays with reverse-mode automatic differentiation.

Values are stored in numpy arrays. Each differentiable operation attaches a
tape node (`_Trace`) to its output holding the parent arrays, which of them
are tracked (`wants`, decided once in `_result`) and a closure
`push(g, wants)` that maps the output gradient to the wanted parents'
gradients. ``backward()`` walks the recorded graph once in reverse
topological order, accumulates gradients into the participating leaves, and
clears the tape so memory stays bounded by a single forward pass.

Everything runs in 64-bit precision; the engine is meant for desk-scale
models whose gradients are routinely validated against finite differences.
The module holds the nodes the model records and no others: no general
elementwise arithmetic or reductions, and `DiffArray` takes no arithmetic
operator (only indexing, a `take` node). The chains of primitive nodes that
its fused nodes replaced are rebuilt in the tests (tests/primitive_nodes.py).
A product with one weight matrix per member of a leading member axis,
shared by that member's batch, is one GEMM over each member's flattened batch
and matches the batched matmul within rtol 1e-12, not bit for bit (see the
matmul section). The graph-attention node likewise matches its chain of
primitive nodes within rtol 1e-12, as does layer norm's closed-form input
gradient. The feed-forward node and layer norm's values and gain and shift
gradients reproduce their chains bit for bit, and no activation branches on
the data. Every leaky ReLU of the model has the slope `LEAKY_SLOPE`.
The attention node, q/k/v projections included, runs one of two kernels
(see the attention section): heads wider than one feature run the product
kernel, bit for bit its chain but for one sum order; heads one feature wide
run the row-last kernel, elementwise over rows laid out last with einsum
contractions for its weighted sums; it matches the product kernel within
rtol 1e-12, not bit for bit. Gradients summed down to a broadcast operand's
shape (`_unbroadcast`) are numpy's sums bit for bit (see `_sum_axes`).
The model's glue between its layers is one node per site, each bit for bit
its chain of primitive nodes: the member stack (`stack`), each dropout-residual add
(`residual`), each position encoding (`offset_dropout`), the path fusion
with its softmax weights (`fuse`), the loss (`frobenius_loss`) and each
rollout step (`shift_window`).
Softmax and layer norm reduce a short last axis of many rows slice by
slice, in the order numpy's own reduction adds below 8 elements, so those
values too are numpy's bit for bit (see the last-axis reductions section).

A single forward/backward graph is not thread-safe; distinct graphs over
distinct parameter stores are independent and may run concurrently, and
`no_grad` switches recording off only in the thread that enters it.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

_GRAD_ENABLED = contextvars.ContextVar("radnet_grad_enabled", default=True)
LEAKY_SLOPE = 0.01  # of every leaky ReLU the model runs; tests vary the kernels' slope
# a node `backward()` has reached, before its first gradient term arrives
_VISITED = object()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (pure evaluation)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class _Trace:
    """One tape node: parents, which of them are tracked (`wants`), the closure
    `push_grads(g, wants)` that maps the output gradient to one term per parent
    (None where it computes none; `backward()` adds none into a parent not
    wanted) and `grad`, the slot where `backward()` marks the node and then
    sums its gradient terms."""

    __slots__ = ("inputs", "wants", "push_grads", "grad")

    def __init__(self, inputs, wants, push_grads):
        self.inputs = inputs
        self.wants = wants
        self.push_grads = push_grads
        self.grad = None


class DiffArray:
    """A differentiable dense array.

    ``backward()`` adds each leaf's (``requires_grad=True``) gradient in
    place into the array in its ``grad`` (a copy of the sum where that is
    None); a store parameter's ``grad`` is a view of the store's `grad`.
    """

    __slots__ = ("values", "grad", "requires_grad", "op_trace")
    # a DiffArray takes no arithmetic operator: numpy refuses it as an operand
    # (TypeError) instead of broadcasting over DiffArray objects one at a time
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op_trace: _Trace | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"DiffArray(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------
    def backward(self) -> None:
        """Backpropagate from a scalar output and clear the tape."""
        if self.size != 1:
            raise DimensionError(f"backward() needs a scalar output, got shape {self.shape}")
        if not _tracked(self):
            return  # a constant
        # post-order DFS; a leaf is marked in its own `grad`, set aside first
        topo, leaves, stack = [], [], [(self, False)]
        while stack:
            node, expanded = stack.pop()
            trace = node.op_trace
            if expanded:
                topo.append(node)
            elif trace is None:
                if node.requires_grad and node.grad is not _VISITED:
                    leaves.append((node, node.grad))
                    node.grad = _VISITED
            elif trace.grad is None:
                trace.grad = _VISITED
                stack.append((node, True))
                for parent in trace.inputs:
                    stack.append((parent, False))
        (self.op_trace or self).grad = np.ones_like(self.values)
        try:
            for leaf, held in leaves:  # refused before any gradient changes
                if held is not None and held.shape != leaf.shape:
                    raise DimensionError(f"leaf {leaf.shape} holds a {held.shape} grad array")
            for node in reversed(topo):
                trace = node.op_trace
                g, trace.grad = trace.grad, None
                if g is not _VISITED:
                    wants = trace.wants
                    for parent, want, pg in zip(trace.inputs, wants, trace.push_grads(g, wants)):
                        # a node an earlier walk cleared holds None
                        holder = parent.op_trace or parent
                        if want and pg is not None and holder.grad is not None:
                            if holder is parent and pg.shape != parent.shape:
                                raise DimensionError(f"leaf {parent.shape} got a {pg.shape} term")
                            holder.grad = pg if holder.grad is _VISITED else holder.grad + pg
                    node.op_trace = None
        except BaseException:
            for node in topo:  # no mark stays behind, and no leaf keeps a partial sum
                if node.op_trace is not None:
                    node.op_trace.grad = None
            for leaf, held in leaves:
                leaf.grad = held
            raise
        for leaf, held in leaves:  # the walk's sum, added in place into an array the leaf owns
            got, leaf.grad = leaf.grad, held
            if got is not _VISITED:
                leaf.grad = np.array(got) if held is None else np.add(held, got, out=held)

    def __getitem__(self, key):
        return take(self, key)


# ---------------------------------------------------------------------------
# helpers


def _wrap(x) -> DiffArray:
    return x if isinstance(x, DiffArray) else DiffArray(x)


def _tracked(x: DiffArray) -> bool:
    return x.requires_grad or x.op_trace is not None


def _result(values: np.ndarray, inputs: tuple, push_grads) -> DiffArray:
    """`values`, recorded over `inputs` with their tracked flags as `wants`, if any is tracked."""
    out = DiffArray(values)
    if _GRAD_ENABLED.get():
        wants = tuple(map(_tracked, inputs))
        if any(wants):
            out.op_trace = _Trace(inputs, wants, push_grads)
    return out


_EINSUM_MIN_ROWS = 512


def _sum_axes(x: np.ndarray, axes: tuple[int, ...], keepdims: bool = False) -> np.ndarray:
    """x.sum(axis=axes, keepdims=keepdims), bit for bit; `axes` are not negative.

    numpy adds an axis that is not innermost in order, one kept row at a time,
    at a per-row cost that dominates over a short kept last axis; one einsum
    contraction adds the same terms in the same order in one pass. Where the
    last axis is summed or 1 long, or x is not C-contiguous, a reduced axis
    can be the innermost one, which numpy sums pairwise and einsum does not,
    so those defer to ndarray.sum.

    So do arrays of fewer than _EINSUM_MIN_ROWS rows of the last axis. On the
    gradient shapes `_unbroadcast` gets in training, with last axes 3-64
    wide, einsum's fixed cost makes it 1.7-3.7x as dear as numpy's sum below
    32 rows; timed alone, the two break even between 96 and 320 rows, and
    from 1,024 rows einsum costs 0.4-0.7x as much. Inside C07's training
    steps einsum still lost at 320 rows, so the threshold sits above that.
    """
    width = x.shape[-1]
    if (width <= 1 or x.size < _EINSUM_MIN_ROWS * width or x.ndim - 1 in axes
            or not x.flags.c_contiguous):
        return x.sum(axis=axes, keepdims=keepdims)
    total = np.einsum(x, range(x.ndim), [i for i in range(x.ndim) if i not in axes])
    if keepdims:
        return total.reshape(tuple(1 if i in axes else n for i, n in enumerate(x.shape)))
    return total


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting, bit for bit
    numpy's sums (`_sum_axes`).

    Leading 1s of `shape` (bar its last axis) are summed like missing axes, so
    a (1, 1, k) parameter gets bit for bit the gradient a (k,) one would.
    """
    if grad.shape == shape:
        return grad
    ones = 0
    while ones < len(shape) - 1 and shape[ones] == 1:
        ones += 1
    core = shape[ones:]
    extra = grad.ndim - len(core)
    if extra > 0:
        grad = _sum_axes(grad, tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(core) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = _sum_axes(grad, axes, keepdims=True)
    return grad.reshape(shape) if ones else grad


# ---------------------------------------------------------------------------
# activation kernels


# No branch on the data: for 0 < slope <= 1 and non-NaN input (NaN stays NaN) these
# equal np.where(av > 0, av, slope * av), its gradient and the sign-split sigmoid.
# The gradient reads only av > 0, so it takes that boolean mask as well as av.
def _leaky_relu_values(av: np.ndarray, slope: float) -> np.ndarray:
    scaled = slope * av
    return np.maximum(av, scaled, out=scaled)


def _leaky_relu_grad(g: np.ndarray, av: np.ndarray, slope: float) -> np.ndarray:
    factor = np.greater(av, 0.0, out=np.empty(av.shape))
    np.maximum(factor, slope, out=factor)  # 1 where av > 0, else slope
    return np.multiply(factor, g, out=factor)


def _sigmoid_values(av: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp never overflows
    e = np.exp(-np.abs(av))
    return np.maximum(e, av >= 0) / (1.0 + e)


def _sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


# ---------------------------------------------------------------------------
# matmul
#
# A right operand (S, 1, ..., 1, d_in, d_out) whose S also leads the left
# operand a holds S member weight matrices, member s's shared by every batch
# element of a[s]; a right operand whose leading axes are all 1 is one matrix
# shared by all of a (S = 1), whatever a's batch axes. Such a product runs as
# S GEMMs over each member's rows, one stacked numpy matmul: forward
# rows(a_s) @ W_s, input gradient rows(g_s) @ W_sᵀ, weight gradient
# rows(a_s)ᵀ @ rows(g_s), instead of a batched matmul of small products and,
# for W, a sum over the batch. Each member's GEMM is bit for bit the 2-D
# product of its rows and its matrix, but the sums run in another order than
# the batched formulation's, so values and gradients match that within
# rounding (rtol 1e-12 of each array's largest magnitude, tested in
# tests/test_fused.py), not bit for bit. A member whose a is strided keeps the
# batched forward, which reads it in place where rows(a) would copy it;
# products whose right operand carries other batch axes keep the batched
# matmul throughout. A product's backward reuses the member matrices and row
# views its forward built.


def _weight_matrix(av: np.ndarray, bv: np.ndarray) -> np.ndarray | None:
    """bv as an (S, d_in, d_out) stack of member matrices, or None (see above)."""
    members = bv.shape[0] if bv.ndim == av.ndim > 2 and av.shape[0] == bv.shape[0] else 1
    if math.prod(bv.shape[:-2]) != members:
        return None
    return bv.reshape((members,) + bv.shape[-2:])


def _rows(x: np.ndarray, members: int) -> np.ndarray:
    """x as (members, rows, width): each member's last-axis rows (a view when the layout allows)."""
    return x.reshape(members, math.prod(x.shape[:-1]) // members, x.shape[-1])


def _product(av: np.ndarray, bv: np.ndarray):
    """av @ bv and `grads(g, wants)`, which maps the output gradient to the
    operands' gradients (None for those whose flag in the pair `wants` is false).

    Operands that do not multiply raise a DimensionError.
    """
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {av.shape} and {bv.shape}"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul inner mismatch: {av.shape} @ {bv.shape}")
    w = _weight_matrix(av, bv)
    rows = None
    if w is not None and (av if len(w) == 1 else av[0]).flags.c_contiguous:
        rows = _rows(av, len(w))
        lead = (1,) * (bv.ndim - av.ndim) + av.shape[:-1]
        values = np.matmul(rows, w).reshape(lead + w.shape[-1:])
    else:
        try:
            values = av @ bv
        except ValueError as exc:
            raise DimensionError(f"matmul batch mismatch: {av.shape} @ {bv.shape}") from exc

    def grads(g: np.ndarray, wants):
        if w is None:
            ga = _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape) if wants[0] else None
            gb = _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape) if wants[1] else None
            return ga, gb
        rows_g = _rows(g, len(w))
        ga = np.matmul(rows_g, w.swapaxes(-1, -2)).reshape(av.shape) if wants[0] else None
        gb = None
        if wants[1]:
            a_rows = _rows(av, len(w)) if rows is None else rows
            gb = np.matmul(a_rows.swapaxes(-1, -2), rows_g).reshape(bv.shape)
        return ga, gb

    return values, grads


def feed_forward(x, weights: Sequence, biases: Sequence):
    """Affine layers x @ w + b with a leaky ReLU between each pair, as one node.

    Values and gradients are bit for bit those of the chain of matmul, add
    and leaky ReLU nodes: the forward makes its numpy calls and the backward
    replays its pushes from the last layer to the first. One layer is the
    affine map alone.
    """
    x = _wrap(x)
    params = [_wrap(p) for pair in zip(weights, biases) for p in pair]
    last = len(params) // 2 - 1
    products, positive = [], []
    h = x.values
    for i in range(last + 1):
        product, grads = _product(h, params[2 * i].values)
        products.append(grads)
        h = product + params[2 * i + 1].values
        del product  # freed before the activation allocates its output
        if i < last:  # kept for the activation's gradient: an eighth of the affine's bytes
            positive.append(h > 0.0)
            h = _leaky_relu_values(h, LEAKY_SLOPE)

    def push(g, wants):
        grads = []
        for i in range(last, -1, -1):
            if i < last:
                g = _leaky_relu_grad(g, positive[i], LEAKY_SLOPE)
            gb = _unbroadcast(g, params[2 * i + 1].shape) if wants[2 * i + 2] else None
            g, gw = products[i](g, (i > 0 or wants[0], wants[2 * i + 1]))
            grads[:0] = [gw, gb]
        return (g, *grads)

    return _result(h, (x, *params), push)


# ---------------------------------------------------------------------------
# last-axis reductions
#
# numpy reduces a last axis row by row, a per-row cost that dominates at the
# 3-7 wide rows of per-node attention. An elementwise operation over the
# axis's slices does the same work in a few whole-array calls, each with a
# fixed cost of its own, so it pays from _SLICE_MIN_ROWS rows on. Below
# _PAIRWISE_MIN elements numpy's sum adds in order from 0.0, whether the axis
# is contiguous or strided, so adding the slices in that order gives the same
# bits; from _PAIRWISE_MIN on it sums pairwise, and `_sum_last` defers to it.
# A maximum is exact in any order.

_PAIRWISE_MIN = 8
_SLICE_MIN_ROWS = 256


def _by_slices(x: np.ndarray) -> bool:
    width = x.shape[-1]
    return 0 < width and x.size >= _SLICE_MIN_ROWS * width


def _sum_last(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1, keepdims=True), bit for bit; always a fresh array."""
    width = x.shape[-1]
    if width >= _PAIRWISE_MIN or not _by_slices(x):
        return x.sum(axis=-1, keepdims=True)
    total = 0.0 + x[..., :1]
    for i in range(1, width):
        np.add(total, x[..., i : i + 1], out=total)
    return total


def _max_last(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True), NaN-propagating; always a fresh array."""
    if not _by_slices(x):
        return x.max(axis=-1, keepdims=True)
    top = x[..., :1].copy()
    for i in range(1, x.shape[-1]):
        np.maximum(top, x[..., i : i + 1], out=top)
    return top


# ---------------------------------------------------------------------------
# softmax


def _refuse_non_finite(top: np.ndarray) -> None:
    """Refuse softmax rows whose maxima `top` are not all finite (a NaN
    anywhere in a row is that row's maximum)."""
    if not np.isfinite(top).all():
        if np.isnan(top).any():
            raise NumericError("softmax received NaN input")
        if np.isposinf(top).any():
            raise NumericError("softmax received +inf input")
        raise NumericError("softmax received a row whose every entry is -inf")


def _softmax_values(av: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of av's rows, written into `out` (which may be av) when given."""
    top = _max_last(av)
    _refuse_non_finite(top)
    ex = np.subtract(av, top, out=out)
    np.exp(ex, out=ex)
    return np.divide(ex, _sum_last(ex), out=ex)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    gy = g * y
    return np.multiply(np.subtract(g, _sum_last(gy), out=gy), y, out=gy)


# ---------------------------------------------------------------------------
# layer norm


def layer_norm(a, gain, shift, eps: float):
    """(a - mean) / sqrt(var + eps) * gain + shift over the last axis, as one node.

    Values and the gain and shift gradients are bit for bit those of the
    composed chain (mean, sub, mul, mean, add, sqrt, div, mul, add). The input
    gradient is the closed form (gn - mean(gn) - normed * mean(gn * normed)) / std,
    gn = g * gain (Ba et al., 2016), from width 3 within rtol 1e-12 of the chain's.
    """
    a, gain, shift = _wrap(a), _wrap(gain), _wrap(shift)
    av, gv, sv = a.values, gain.values, shift.values
    width = av.shape[-1]
    # each mean is numpy's, a sum divided by the width
    centered = av - _sum_last(av) / width
    std = np.sqrt(_sum_last(centered * centered) / width + eps)
    normed = centered / std
    values = normed * gv + sv

    def push(g, wants):
        g_gain = _unbroadcast(g * normed, gv.shape) if wants[1] else None
        g_shift = _unbroadcast(g, sv.shape) if wants[2] else None
        if not wants[0]:
            return None, g_gain, g_shift
        gn = g * gv
        dx = gn - _sum_last(gn) / width
        dx -= normed * (_sum_last(gn * normed) / width)
        return np.divide(dx, std, out=dx), g_gain, g_shift

    return _result(values, (a, gain, shift), push)


# ---------------------------------------------------------------------------
# attention
#
# Each layer below is one node. Attention runs one of two kernels, which
# `attention` picks from its operands.
#
# The product kernel makes the numpy calls of its chain of primitive nodes,
# projections included, so its values and gradients are the chain's bit for
# bit, but for one sum: a decoder's query is a `take` of its key/value
# input, which the chain's tape sums as (query + key) + value and the node's
# as (key + value) + query, since the `take` passes its term on after the
# node. It runs every head wider than one feature.
#
# The row-last kernel runs heads one feature wide (d_model == n_heads, as
# per-node attention over D features has), where the product kernel's scores
# and weighted sums are stacks of one-wide products, one per row, head and
# query. It projects q, k and v straight into (M, K, H, R) arrays whose last
# axis holds the R rows that share a member's weights (M members, one for a
# single matrix), so each score is an elementwise product over (M, Kq, Kk,
# H, R), the softmax runs over the key axis and each weighted sum is one
# einsum contraction over the key or query axis, adding its terms in order
# (see `_sum_products`), all in whole-array calls; the backward runs in the
# same layout. It keeps what the product kernel keeps, no second
# copy of the projections, and holds at most one temporary of the scores'
# size at a time. Its projections and weighted sums add in another order
# than the product kernel's, so its values and gradients match that kernel's
# within rtol 1e-12 of each array's largest magnitude (tests/test_fused.py),
# not bit for bit. It needs q, k and v of one batch shape and four weights
# that are each one matrix or one matrix per member; other width-one calls
# run the product kernel.
#
# Graph attention computes its layer with fewer, larger products, which sum
# in another order than its chain, so its values and gradients match the
# chain's within rtol 1e-12 of each array's largest magnitude
# (tests/test_fused.py), not bit for bit.


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., K, d) -> (..., H, K, d/H), a view; one head is a unit head axis."""
    x = x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads))
    return x.swapaxes(-3, -2)


def _merge_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Inverse of `_split_heads`: heads side by side on the last axis."""
    x = x.swapaxes(-3, -2)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _attention_weights(qp: np.ndarray, kp: np.ndarray, n_heads: int, scale: float, mask):
    """Attention up to its softmax weights, from projected rows: (the gradients
    of the scores qh @ khᵀ, weights (..., H, Kq, Kk)).
    """
    qh = _split_heads(qp, n_heads)
    kt = _split_heads(kp, n_heads).swapaxes(-1, -2)
    scores, grads = _product(qh, kt)
    scores *= scale
    if mask is not None:
        scores += mask
    return grads, _softmax_values(scores, out=scores)


def _product_attention(xs, ws, n_heads: int, scale: float, mask):
    """The product kernel (see above): the node's values and `push`."""
    (qp, q_grads), (kp, k_grads), (vp, v_grads) = (_product(x, w) for x, w in zip(xs, ws))
    scores_grads, y = _attention_weights(qp, kp, n_heads, scale, mask)
    mixed, mixed_grads = _product(y, _split_heads(vp, n_heads))
    values, out_grads = _product(_merge_heads(mixed, n_heads), ws[3])

    def push(g, wants):
        g_merged, g_w_out = out_grads(g, (True, wants[6]))
        g_y, g_vh = mixed_grads(_split_heads(g_merged, n_heads), (True, True))
        g_qh, g_kt = scores_grads(_softmax_grad(g_y, y) * scale, (True, True))
        g_heads = (g_qh, g_kt.swapaxes(-1, -2), g_vh)
        g_inputs, g_weights = zip(*(
            grads(_merge_heads(gh, n_heads), want)
            for gh, grads, want in zip(g_heads, (q_grads, k_grads, v_grads),
                                       zip(wants[:3], wants[3:6]))
        ))
        return (*g_inputs, *g_weights, g_w_out)

    return values, push


def _row_last_matrices(xs, ws, n_heads: int) -> list[np.ndarray] | None:
    """The four weights as (M, H, H) member matrices when the row-last kernel
    runs (see above), else None."""
    q, k, v = xs
    if k.shape != v.shape or q.shape[:-2] + q.shape[-1:] != k.shape[:-2] + (n_heads,):
        return None
    matrices = [_weight_matrix(q, w) for w in ws]
    if any(w is None for w in matrices):
        return None
    shape = matrices[0].shape[:1] + (n_heads, n_heads)
    return matrices if all(w.shape == shape for w in matrices) else None


def _sum_products(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """(a * b).sum(axis) for a of the scores' shape (M, Kq, Kk, H, R) and b
    broadcast to it, as one einsum contraction without a product of the
    scores' size. einsum rounds each product and adds the terms over an outer
    axis in order, bit for bit a loop that adds them one by one. The one
    exception: where one head meets one row (H·R == 1), `axis` can be the
    innermost one, which einsum adds in another order, within the kernel's
    rtol 1e-12 of that loop."""
    labels = range(a.ndim)
    return np.einsum(a, labels, b, labels, [i for i in labels if i != axis])


def _row_last_attention(xs, ws, matrices, n_heads: int, scale: float, mask):
    """The row-last kernel (see above): the node's values and `push`.

    `matrices` holds the four weights as (M, H, H) member matrices."""
    members, kq = len(matrices[0]), xs[0].shape[-2]
    rows = [x.reshape(members, -1, *x.shape[-2:]) for x in xs]  # (M, R, K, H)
    w_query, w_key, w_value, w_out = (w[:, None] for w in matrices)  # over the K axis
    # (M, K, H, R): member m's projections of key position k, rows last
    qp, kp, vp = (np.matmul(w.swapaxes(-1, -2), x.transpose(0, 2, 3, 1))
                  for x, w in zip(rows, (w_query, w_key, w_value)))
    y = np.multiply(qp[:, :, None], kp[:, None])  # (M, Kq, Kk, H, R)
    y *= scale
    if mask is not None:
        y += np.asarray(mask)[..., None, None]
    top = y.max(axis=2, keepdims=True)
    _refuse_non_finite(top)
    y -= top
    del top
    np.exp(y, out=y)
    y /= y.sum(axis=2, keepdims=True)
    mixed = _sum_products(y, vp[:, None], 2)  # (M, Kq, H, R)
    out = np.empty(rows[0].shape[:2] + (kq, n_heads))  # (M, R, Kq, H)
    np.matmul(mixed.swapaxes(-1, -2), w_out, out=out.swapaxes(1, 2))

    def push(g, wants):
        g = g.reshape(out.shape).swapaxes(1, 2)  # (M, Kq, R, H)
        g_w_out = np.matmul(mixed, g).sum(axis=1).reshape(ws[3].shape) if wants[6] else None
        g_mixed = np.matmul(w_out, g.swapaxes(-1, -2))  # (M, Kq, H, R)
        g_vp = _sum_products(y, g_mixed[:, :, None], 1)
        # the weights' gradient, taken back through the softmax and the scale in place
        g_scores = np.multiply(g_mixed[:, :, None], vp[:, None])
        del g_mixed
        g_scores -= _sum_products(g_scores, y, 2)[:, :, None]
        g_scores *= y
        g_scores *= scale
        g_qp = _sum_products(g_scores, kp[:, None], 2)
        g_kp = _sum_products(g_scores, qp[:, :, None], 1)
        del g_scores
        g_inputs, g_weights = [], []
        for x, w, g_p, shapes, want in zip(rows, (w_query, w_key, w_value), (g_qp, g_kp, g_vp),
                                           zip(xs, ws), zip(wants[:3], wants[3:6])):
            g_p = g_p.swapaxes(-1, -2)  # (M, K, R, H)
            g_x = g_w = None
            if want[0]:
                g_x = np.empty(x.shape)
                np.matmul(g_p, w.swapaxes(-1, -2), out=g_x.swapaxes(1, 2))
                g_x = g_x.reshape(shapes[0].shape)
            if want[1]:
                g_w = np.matmul(x.transpose(0, 2, 3, 1), g_p).sum(axis=1).reshape(shapes[1].shape)
            g_inputs.append(g_x)
            g_weights.append(g_w)
        return (*g_inputs, *g_weights, g_w_out)

    return out.reshape(xs[0].shape), push


def attention(q, k, v, w_query, w_key, w_value, w_out, n_heads: int, scale: float,
              mask=None):
    """Multi-head scaled dot-product attention with its projections, as one node.

    `q` (..., Kq, d), `k` and `v` (..., Kk, d); each weight (..., d, d) maps
    its input to projected rows, of which head m reads columns
    m*d/H:(m+1)*d/H. The node covers the projections q @ w_query,
    k @ w_key and v @ w_value, the head split, the scores qh @ khᵀ * scale,
    the optional additive (Kq, Kk) mask, the softmax, the weighted sum of
    values, the head merge and the product with `w_out`. An input passed as
    several of q, k and v gets one gradient per role, which the tape sums.
    NaN or inf in q, k or v raises a NumericError naming the role before any
    projection.

    Heads one feature wide (d == H) run the row-last kernel, within rtol
    1e-12 of the product kernel, which runs every wider head (see above).
    """
    parents = tuple(_wrap(t) for t in (q, k, v, w_query, w_key, w_value, w_out))
    xs, ws = [p.values for p in parents[:3]], [p.values for p in parents[3:]]
    for x in {id(x): x for x in xs}.values():  # an array passed in several roles is read once
        if not np.isfinite(x).all():
            roles = "/".join(r for r, y in zip(("query", "key", "value"), xs) if y is x)
            raise NumericError(f"attention received NaN or inf {roles} input")
    matrices = _row_last_matrices(xs, ws, n_heads)
    if matrices is None:
        values, push = _product_attention(xs, ws, n_heads, scale, mask)
    else:
        values, push = _row_last_attention(xs, ws, matrices, n_heads, scale, mask)
    return _result(values, parents, push)


def _graph_attention_weights(xv, theta, score_src, score_dst, score_bias, index, mask):
    """Forward of `graph_attention` up to its neighbour weights, heads first.

    Returns (x's rows (R, n_in), h = rows @ theta (H, R, n_out), the score
    matrix [score_src | score_dst] (H, n_out, 2), the raw edge scores and the
    weights (H, B, N, W)), B being the product of x's batch axes.
    """
    if not np.isfinite(xv).all():
        raise NumericError("graph attention received NaN or inf input")
    rows = xv.reshape(-1, xv.shape[-1])
    h = np.matmul(rows, theta)
    score = np.concatenate((score_src, score_dst), axis=-1)
    # each node's source and destination scores, (H, B, N, 2), from one product
    ends = np.matmul(h, score).reshape(theta.shape[:1] + (-1,) + xv.shape[-2:-1] + (2,))
    raw = np.take(ends[..., 1], index, axis=-1)
    raw += ends[..., :1]
    raw += score_bias[..., None]
    alpha = _leaky_relu_values(raw, LEAKY_SLOPE)
    alpha += mask
    return rows, h, score, raw, _softmax_values(alpha, out=alpha)


def _scatter_sum(g: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """Each node's gradient from those of its gathered copies, (..., N, W) ->
    (..., N): one GEMM with the (N*W, N) 0/1 scatter matrix."""
    return (g.reshape(-1, scatter.shape[0]) @ scatter).reshape(g.shape[:-2] + scatter.shape[1:])


def graph_attention(x, theta, score_src, score_dst, score_bias, neighbor_index,
                    neighbor_mask, neighbor_scatter):
    """Multi-head graph attention over a padded neighbour table, as one node.

    x (..., N, n_in); theta (H, n_in, n_out); score_src and score_dst
    (H, n_out, 1); score_bias (H, 1, 1); neighbor_index and the additive
    neighbor_mask (N, W); neighbor_scatter the (N*W, N) 0/1 matrix whose
    row m selects node neighbor_index.flat[m]. Per head: h = x @ theta, edge
    scores leaky(h_i . src + h_j . dst + bias) + mask over each row's
    neighbours, a softmax over them, and the sigmoid of the weighted
    neighbour sum; the heads are averaged into (..., N, n_out).

    The heads lead every intermediate, so h is one product per head over all
    of x's rows and both edge scores one product with [src | dst]. The
    gathers of destination scores and of neighbour rows take their
    gradients as products with `neighbor_scatter`, which sums the gradient
    of every copy of a node back into it.
    """
    x, theta, score_src, score_dst, score_bias = (
        _wrap(t) for t in (x, theta, score_src, score_dst, score_bias)
    )
    index = np.asarray(neighbor_index, dtype=np.intp)
    xv, tv = x.values, theta.values
    rows, h, score, raw, alpha = _graph_attention_weights(
        xv, tv, score_src.values, score_dst.values, score_bias.values, index, neighbor_mask,
    )
    n_heads, n_out = tv.shape[0], tv.shape[-1]
    h_nodes = h.reshape(alpha.shape[:-1] + (n_out,))  # (H, B, N, n_out)
    neighbors = np.take(h_nodes, index, axis=2)  # (H, B, N, W, n_out)
    mixed = np.matmul(alpha[..., None, :], neighbors).reshape(h_nodes.shape)
    heads = _sigmoid_values(mixed)
    values = heads.sum(axis=0) / n_heads

    def push(g, wants):
        g = g.reshape(heads.shape[1:])
        g_mixed = _sigmoid_grad(g / n_heads, heads)
        g_alpha = np.matmul(neighbors, g_mixed[..., None]).reshape(alpha.shape)
        g_raw = _leaky_relu_grad(_softmax_grad(g_alpha, alpha), raw, LEAKY_SLOPE)
        # a node's source score feeds its own row, its destination score its
        # copies in its neighbours' rows
        g_ends = np.stack((_sum_last(g_raw)[..., 0], _scatter_sum(g_raw, neighbor_scatter)),
                          axis=-1).reshape(h.shape[:-1] + (2,))
        g_h = np.matmul(g_ends, score.swapaxes(-1, -2)).reshape(h_nodes.shape)
        # the neighbour gather's gradient, its feature axis ahead of the (N, W) copies
        g_copies = g_mixed.swapaxes(-1, -2)[..., None] * alpha[..., None, :, :]
        g_h += _scatter_sum(g_copies, neighbor_scatter).swapaxes(-1, -2)
        g_h = g_h.reshape(h.shape)
        g_x = (np.matmul(g_h, tv.swapaxes(-1, -2)).sum(axis=0).reshape(xv.shape)
               if wants[0] else None)
        g_score = np.matmul(h.swapaxes(-1, -2), g_ends)
        return (g_x, np.matmul(rows.T, g_h) if wants[1] else None,
                g_score[..., :1] if wants[2] else None, g_score[..., 1:] if wants[3] else None,
                g_raw.reshape(n_heads, -1).sum(axis=1).reshape(-1, 1, 1) if wants[4] else None)

    return _result(values.reshape(xv.shape[:-1] + (n_out,)),
                   (x, theta, score_src, score_dst, score_bias), push)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape: Sequence[int]):
    a = _wrap(a)
    orig = a.values.shape
    values = a.values.reshape(shape)

    def push(g, _):
        return (g.reshape(orig),)

    return _result(values, (a,), push)


def swapaxes(a, i: int, j: int):
    """Swap axes i and j (np.swapaxes); its own inverse, so also the backward."""
    a = _wrap(a)
    values = a.values.swapaxes(i, j)

    def push(g, _):
        return (g.swapaxes(i, j),)

    return _result(values, (a,), push)


def take(a, key):
    """Basic indexing (ints / slices / ellipsis) with scatter-add backward."""
    if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
        raise IndexError(f"take does basic indexing only (ints, slices, Ellipsis), got {key!r}")
    a = _wrap(a)
    av = a.values
    values = av[key]

    def push(g, _):
        z = np.zeros_like(av)
        z[key] += g  # basic indexing never selects an element twice
        return (z,)

    return _result(values, (a,), push)


def stack(arrays: Iterable):
    """Arrays of one shape on a new leading axis (np.stack), as one node."""
    parts = [_wrap(x) for x in arrays]
    values = np.stack([p.values for p in parts])

    def push(g, _):
        return tuple(g)

    return _result(values, tuple(parts), push)


def shift_window(windows, preds, truth: np.ndarray | None = None,
                 forced: np.ndarray | None = None):
    """One rollout step as one node: the (B, K, ...) windows without their
    oldest slice, with the (B, ...) predictions appended. Where the (B,) bool
    `forced` is set, sample b's appended slice is `truth[b]` instead, and that
    prediction gets no gradient.

    It makes the numpy calls of its chain (take, then with `forced` mul and
    add, then reshape and concat) in the chain's order, so its values and
    gradients are that chain's bit for bit.
    """
    windows, preds = _wrap(windows), _wrap(preds)
    wv, pv = windows.values, preds.values
    keep = None
    if forced is not None:  # preds * keep + (1 - keep) * truth, keep 0 where forced
        keep = (~forced).astype(np.float64).reshape((-1,) + (1,) * (pv.ndim - 1))
        pv = pv * keep + (1.0 - keep) * truth
    values = np.concatenate([wv[:, 1:], pv[:, None]], axis=1)

    def push(g, wants):
        g_windows = g_preds = None
        if wants[0]:
            g_windows = np.zeros_like(wv)
            g_windows[:, 1:] += g[:, :-1]
        if wants[1]:
            g_preds = g[:, -1] if keep is None else g[:, -1] * keep
        return g_windows, g_preds

    return _result(values, (windows, preds), push)


# ---------------------------------------------------------------------------
# dropout
#
# Dropout multiplies by keep factors; None (not training) leaves its input as
# it is. Each node below is a dropout and the add next to it, with the numpy
# calls of their mul and add nodes, so values and gradients are bit for bit.


def dropout_keep(draws: np.ndarray, rate: float) -> np.ndarray:
    """Inverted-scaling Bernoulli dropout's keep factors for uniform `draws`:
    0 where a draw falls below `rate`, else 1 / (1 - rate). They are written
    into `draws`, a float array, and returned."""
    np.greater_equal(draws, rate, out=draws)
    return np.divide(draws, 1.0 - rate, out=draws)


def residual(x, branch, keep: np.ndarray | None):
    """x + branch * keep, a residual connection around a dropped-out branch."""
    x, branch = _wrap(x), _wrap(branch)
    xv, bv = x.values, branch.values

    def push(g, wants):
        gx = _unbroadcast(g, xv.shape) if wants[0] else None
        if not wants[1]:
            return gx, None
        return gx, _unbroadcast(g if keep is None else g * keep, bv.shape)

    return _result(xv + (bv if keep is None else bv * keep), (x, branch), push)


def offset_dropout(a, offset: np.ndarray, keep: np.ndarray | None):
    """(a + offset) * keep for a constant `offset` broadcast to a's shape."""
    a = _wrap(a)
    values = a.values + offset
    if keep is not None:  # a fresh product, in the layout numpy gives it
        values = values * keep

    def push(g, _):
        return (g if keep is None else g * keep,)

    return _result(values, (a,), push)


# ---------------------------------------------------------------------------
# fusion and loss
#
# Each is one node making the numpy calls of its chain of primitive nodes, so values
# and gradients are that chain's bit for bit.


def fuse(parts: Sequence, logits=None):
    """The sum of k (B, ...) `parts` of one shape, each weighted by its column
    of softmax(logits) (B, k), or unweighted where `logits` is None, as one
    node; returns (the sum, the weights as an untracked DiffArray or None).

    Its chain stacks the parts on a path axis (B, k, ...), multiplies the
    stack by the weights and sums the path axis; the node allocates neither
    the stack nor its weighted copy. numpy's sum over that
    axis adds the terms in order from 0.0, and so does the node.
    """
    parts = [_wrap(p) for p in parts]
    values = [p.values for p in parts]
    shape, inputs, y = values[0].shape, tuple(parts), None
    if logits is not None:
        logits = _wrap(logits)
        inputs, y = inputs + (logits,), _softmax_values(logits.values)
    fits = y is None or y.shape == (shape[0], len(parts))
    if not fits or any(v.shape != shape for v in values):
        raise DimensionError(f"cannot fuse parts {[v.shape for v in values]} by "
                             f"{'no' if y is None else y.shape} logits")
    axes = tuple(range(1, len(shape)))
    weight = lambda i: np.expand_dims(y[:, i], axes)  # part i's, over its feature axes
    total = np.zeros(shape)
    for i, v in enumerate(values):
        total += v if y is None else v * weight(i)

    def push(g, wants):
        if y is None:
            return tuple(g if want else None for want in wants)
        g_y = None
        if wants[-1]:
            g_y = _softmax_grad(np.stack([(g * v).sum(axis=axes) for v in values], axis=1), y)
        return (*(g * weight(i) if want else None for i, want in enumerate(wants[:-1])), g_y)

    return _result(total, inputs, push), None if y is None else DiffArray(y)


def frobenius_loss(predictions, truths):
    """The mean over the leading axis of the Frobenius norm of truths - predictions
    over the last two axes, as one node (the chain sub, mul, sum, sqrt, mean).

    The node keeps the arrays its chain kept until the walk reaches it and
    replays the chain's pushes. Freed at once, the squares and their sums
    changed a training step's heap enough that at N=16, D=7 glibc trimmed
    and refaulted it every step (0.4-2.5 M minor faults per 5-25 s of
    training, against 17-28 k), in directories where the chain's did not.
    """
    predictions, truths = _wrap(predictions), _wrap(truths)
    diff = truths.values - predictions.values
    squares = diff * diff
    sums = squares.sum(axis=(-2, -1))
    norms = np.sqrt(sums)

    def push(g, wants, _held=(squares, sums)):
        g_norms = np.broadcast_to(g, norms.shape) / norms.size
        g_norms = g_norms * 0.5 / np.maximum(norms, 1e-150)
        g_sq = np.broadcast_to(np.expand_dims(g_norms, (-2, -1)), diff.shape)
        g_diff = g_sq * diff + g_sq * diff  # diff * diff passes one term per operand
        return (-g_diff if wants[0] else None), (g_diff if wants[1] else None)

    return _result(norms.mean(), (predictions, truths), push)


# ---------------------------------------------------------------------------
# verification


def grad_check(
    f: Callable[[], DiffArray],
    params: Iterable[DiffArray],
    step: float = 1e-5,
    floor: float = 1e-3,
) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    `f` must be a deterministic scalar function re-evaluable at perturbed
    parameter values. Returns the worst error over every coordinate of every
    parameter, where each coordinate error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, floor). The floor makes coordinates below it
    an absolute comparison: central differences of an O(1) function resolve
    roughly eps*|f|/step, so errors on near-zero gradient coordinates are
    measurement noise, not derivative mismatches.
    """
    params = list(params)
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)  # in place: a store parameter keeps its view
    f().backward()
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ag in zip(params, analytic):
            for idx in np.ndindex(p.shape):
                orig = p.values[idx]
                p.values[idx] = orig + step
                hi = float(f().values)
                p.values[idx] = orig - step
                lo = float(f().values)
                p.values[idx] = orig
                num = (hi - lo) / (2.0 * step)
                an = ag[idx]
                worst = max(worst, abs(an - num) / max(abs(an), abs(num), floor))
    return worst
