"""Dense float64 arrays with reverse-mode automatic differentiation.

Values are stored in numpy arrays. Each differentiable operation attaches a
tape node (`_Trace`) to its output holding the parent arrays and a closure
that maps the output gradient back to parent gradients. ``backward()`` walks
the recorded graph once in reverse topological order, accumulates gradients
into the participating leaves, and clears the tape so memory stays bounded
by a single forward pass.

Everything runs in 64-bit precision; the engine is meant for desk-scale
models whose gradients are routinely validated against finite differences.
A product with one weight matrix per member of a leading member axis,
shared by that member's batch, is one GEMM over each member's flattened batch
and matches the batched matmul within rtol 1e-12, not bit for bit (see the
matmul section), as layer norm's closed-form input
gradient matches its chain; every other fused node reproduces its chain of
primitive nodes bit for bit, and no activation branches on the data.
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
    """One tape node: parents, the gradient push-back closure and `grad`, the
    slot where `backward()` marks the node and then sums its gradient terms."""

    __slots__ = ("inputs", "push_grads", "grad")

    def __init__(self, inputs, push_grads):
        self.inputs = inputs
        self.push_grads = push_grads
        self.grad = None


class DiffArray:
    """A differentiable dense array.

    ``grad`` is allocated lazily by ``backward()`` and only for arrays
    created with ``requires_grad=True`` (parameters / leaves).
    """

    __slots__ = ("values", "grad", "requires_grad", "op_trace")
    # numpy operands on the left defer to the reflected operators below
    # instead of broadcasting over DiffArray objects one element at a time
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

    def item(self) -> float:
        return float(self.values)

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
            for node in reversed(topo):
                trace = node.op_trace
                g, trace.grad = trace.grad, None
                if g is not _VISITED:
                    for parent, pg in zip(trace.inputs, trace.push_grads(g)):
                        # a constant, or a node an earlier walk cleared, holds None
                        holder = parent.op_trace or parent
                        if pg is not None and holder.grad is not None:
                            holder.grad = pg if holder.grad is _VISITED else holder.grad + pg
                    node.op_trace = None
        except BaseException:
            for node in topo:  # no mark stays behind, and no leaf keeps a partial sum
                if node.op_trace is not None:
                    node.op_trace.grad = None
            for leaf, held in leaves:
                leaf.grad = held
            raise
        for leaf, held in leaves:
            got = leaf.grad  # the walk's sum, added to what the leaf held
            leaf.grad = held if got is _VISITED else got if held is None else held + got

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


# ---------------------------------------------------------------------------
# helpers


def _wrap(x) -> DiffArray:
    return x if isinstance(x, DiffArray) else DiffArray(x)


def _tracked(x: DiffArray) -> bool:
    return x.requires_grad or x.op_trace is not None


def _result(values: np.ndarray, inputs: tuple, push_grads) -> DiffArray:
    out = DiffArray(values)
    if _GRAD_ENABLED.get():
        for x in inputs:
            if x.requires_grad or x.op_trace is not None:
                out.op_trace = _Trace(inputs, push_grads)
                break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting.

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
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(core) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape) if ones else grad


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops


def _broadcast_binop(a, b, fwd, grad_a, grad_b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values
    try:
        values = fwd(av, bv)
    except ValueError as exc:
        raise DimensionError(
            f"operands not broadcastable: {av.shape} vs {bv.shape}"
        ) from exc
    want_a, want_b = _tracked(a), _tracked(b)

    def push(g):
        ga = _unbroadcast(grad_a(g, av, bv), av.shape) if want_a else None
        gb = _unbroadcast(grad_b(g, av, bv), bv.shape) if want_b else None
        return ga, gb

    return _result(values, (a, b), push)


def add(a, b):
    return _broadcast_binop(a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b):
    return _broadcast_binop(a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b):
    return _broadcast_binop(
        a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av
    )


def div(a, b):
    return _broadcast_binop(
        a,
        b,
        np.divide,
        lambda g, av, bv: g / bv,
        lambda g, av, bv: -g * av / (bv * bv),
    )


# No branch on the data: for 0 < slope <= 1 and non-NaN input (NaN stays NaN) these
# equal np.where(av > 0, av, slope * av), its gradient and the sign-split sigmoid.
def _leaky_relu_values(av: np.ndarray, slope: float) -> np.ndarray:
    scaled = slope * av
    return np.maximum(av, scaled, out=scaled)


def _leaky_relu_grad(g: np.ndarray, av: np.ndarray, slope: float) -> np.ndarray:
    factor = np.greater(av, 0.0, out=np.empty_like(av))
    np.maximum(factor, slope, out=factor)  # 1 where av > 0, else slope
    return np.multiply(factor, g, out=factor)


def _sigmoid_values(av: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp never overflows
    e = np.exp(-np.abs(av))
    return np.maximum(e, av >= 0) / (1.0 + e)


def _sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def sqrt(a):
    a = _wrap(a)
    sv = np.sqrt(a.values)

    def push(g):
        return (g * 0.5 / np.maximum(sv, 1e-150),)

    return _result(sv, (a,), push)


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
    """av @ bv and `grads(g, want_a, want_b)`, which maps the output gradient
    to the operands' gradients (None for those not wanted).

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

    def grads(g: np.ndarray, want_a: bool, want_b: bool):
        if w is None:
            ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape) if want_a else None
            gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape) if want_b else None
            return ga, gb
        rows_g = _rows(g, len(w))
        ga = np.matmul(rows_g, np.swapaxes(w, -1, -2)).reshape(av.shape) if want_a else None
        gb = None
        if want_b:
            a_rows = _rows(av, len(w)) if rows is None else rows
            gb = np.matmul(np.swapaxes(a_rows, -1, -2), rows_g).reshape(bv.shape)
        return ga, gb

    return values, grads


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    values, grads = _product(a.values, b.values)
    want_a, want_b = _tracked(a), _tracked(b)

    def push(g):
        return grads(g, want_a, want_b)

    return _result(values, (a, b), push)


def feed_forward(x, weights: Sequence, biases: Sequence, slope: float):
    """Affine layers x @ w + b with a leaky ReLU between each pair, as one node.

    Values and gradients are bit for bit those of the chain of matmul, add
    and leaky ReLU nodes: the forward makes its numpy calls and the backward
    replays its pushes from the last layer to the first. One layer is the
    affine map alone.
    """
    x = _wrap(x)
    params = [_wrap(p) for pair in zip(weights, biases) for p in pair]
    wants = [_tracked(p) for p in params]
    last = len(params) // 2 - 1
    products, affines = [], []
    h = x.values
    for i in range(last + 1):
        product, grads = _product(h, params[2 * i].values)
        products.append(grads)
        affines.append(product + params[2 * i + 1].values)
        del product  # freed before the activation allocates its output
        h = affines[i] if i == last else _leaky_relu_values(affines[i], slope)
    want_x = _tracked(x)

    def push(g):
        grads = []
        for i in range(last, -1, -1):
            if i < last:
                g = _leaky_relu_grad(g, affines[i], slope)
            want_w, want_b = wants[2 * i : 2 * i + 2]
            gb = _unbroadcast(g, params[2 * i + 1].shape) if want_b else None
            g, gw = products[i](g, i > 0 or want_x, want_w)
            grads[:0] = [gw, gb]
        return (g, *grads)

    return _result(h, (x, *params), push)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    av = a.values
    values = av.sum(axis=axis, keepdims=keepdims)

    def push(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, av.shape),)

    return _result(values, (a,), push)


def reduce_mean(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    av = a.values
    values = av.mean(axis=axis, keepdims=keepdims)
    count = av.size / max(values.size, 1)

    def push(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, av.shape) / count,)

    return _result(values, (a,), push)


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


def _softmax_values(av: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of av's rows, written into `out` (which may be av) when given."""
    top = _max_last(av)
    # a NaN anywhere in a row is that row's maximum
    if not np.isfinite(top).all():
        if np.isnan(top).any():
            raise NumericError("softmax received NaN input")
        if np.isposinf(top).any():
            raise NumericError("softmax received +inf input")
        raise NumericError("softmax received a row whose every entry is -inf")
    ex = np.subtract(av, top, out=out)
    np.exp(ex, out=ex)
    return np.divide(ex, _sum_last(ex), out=ex)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    gy = g * y
    return np.multiply(np.subtract(g, _sum_last(gy), out=gy), y, out=gy)


def softmax(a):
    """Numerically stabilized softmax along the last axis.

    -inf entries (attention masks) come out exactly 0; NaN, +inf and a row
    of only -inf are refused.
    """
    a = _wrap(a)
    y = _softmax_values(a.values)

    def push(g):
        return (_softmax_grad(g, y),)

    return _result(y, (a,), push)


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
    want_a, want_gain, want_shift = _tracked(a), _tracked(gain), _tracked(shift)

    def push(g):
        g_gain = _unbroadcast(g * normed, gv.shape) if want_gain else None
        g_shift = _unbroadcast(g, sv.shape) if want_shift else None
        if not want_a:
            return None, g_gain, g_shift
        gn = g * gv
        dx = gn - _sum_last(gn) / width
        dx -= normed * (_sum_last(gn * normed) / width)
        return np.divide(dx, std, out=dx), g_gain, g_shift

    return _result(values, (a, gain, shift), push)


# ---------------------------------------------------------------------------
# attention
#
# Each layer below is one node whose forward makes the numpy calls of the
# chain of primitive nodes it replaces and whose backward replays that chain's
# pushes, so values and gradients are bit for bit the chain's. Where an array
# feeds several nodes of the chain, its gradient terms are summed in the order
# the chain's backward would deliver them.


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., K, d) -> (..., H, K, d/H); one head needs no head axis."""
    if n_heads == 1:
        return x
    x = x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads))
    return np.swapaxes(x, -3, -2)


def _merge_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """Inverse of `_split_heads`: heads side by side on the last axis."""
    if n_heads == 1:
        return x
    x = np.swapaxes(x, -3, -2)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _attention_weights(qp: np.ndarray, kp: np.ndarray, n_heads: int, scale: float, mask):
    """Forward of `attention` up to its softmax weights: (the gradients of the
    scores qh @ khᵀ, weights).

    The weights are (..., H, Kq, Kk), or (..., Kq, Kk) for one head.
    """
    qh = _split_heads(qp, n_heads)
    kt = np.swapaxes(_split_heads(kp, n_heads), -1, -2)
    scores, grads = _product(qh, kt)
    scores *= scale
    if mask is not None:
        scores += mask
    return grads, _softmax_values(scores, out=scores)


def attention(qp, kp, vp, w_out, n_heads: int, scale: float, mask=None):
    """Multi-head scaled dot-product attention and its output map, as one node.

    `qp` (..., Kq, d), `kp` and `vp` (..., Kk, d) are projected rows; head m
    reads columns m*d/H:(m+1)*d/H of each. The node covers the head split,
    the scores qh @ khᵀ * scale, the optional additive (Kq, Kk) mask, the
    softmax, the weighted sum of values, the head merge and the product with
    `w_out`. The projections stay outside: a query taken from the key input
    must receive its gradient terms in the chain's order.
    """
    qp, kp, vp, w_out = _wrap(qp), _wrap(kp), _wrap(vp), _wrap(w_out)
    scores_grads, y = _attention_weights(qp.values, kp.values, n_heads, scale, mask)
    mixed, mixed_grads = _product(y, _split_heads(vp.values, n_heads))
    values, out_grads = _product(_merge_heads(mixed, n_heads), w_out.values)
    want_q, want_k, want_v, want_w = (_tracked(t) for t in (qp, kp, vp, w_out))

    def push(g):
        g_merged, g_w = out_grads(g, True, want_w)
        g_y, g_vh = mixed_grads(_split_heads(g_merged, n_heads), True, want_v)
        g_qh, g_kt = scores_grads(_softmax_grad(g_y, y) * scale, want_q, want_k)
        g_kh = None if g_kt is None else np.swapaxes(g_kt, -1, -2)
        merged_grads = (None if gh is None else _merge_heads(gh, n_heads) for gh in (g_qh, g_kh, g_vh))
        return (*merged_grads, g_w)

    return _result(values, (qp, kp, vp, w_out), push)


def _graph_attention_weights(xv, theta, score_src, score_dst, score_bias, index, mask, slope):
    """Forward of `graph_attention` up to its (..., H, N, W) neighbour weights.

    Returns (h = x @ theta with a head axis on x, the gradients of that
    product and of h @ score_src and h @ score_dst, raw scores, weights).
    """
    h, h_grads = _product(xv.reshape(xv.shape[:-2] + (1,) + xv.shape[-2:]), theta)
    src, src_grads = _product(h, score_src)
    dst, dst_grads = _product(h, score_dst)
    dst = dst.reshape(h.shape[:-1])
    raw = src + np.take(dst, index, axis=dst.ndim - 1) + score_bias
    alpha = _softmax_values(_leaky_relu_values(raw, slope) + mask)
    return h, (h_grads, src_grads, dst_grads), raw, alpha


def graph_attention(x, theta, score_src, score_dst, score_bias, neighbor_index,
                    neighbor_mask, slope: float):
    """Multi-head graph attention over a padded neighbour table, as one node.

    x (..., N, n_in); theta (H, n_in, n_out); score_src and score_dst
    (H, n_out, 1); score_bias (H, 1, 1); neighbor_index and the additive
    neighbor_mask (N, W). Per head: h = x @ theta, edge scores
    leaky(h_i . src + h_j . dst + bias) + mask over each row's neighbours,
    a softmax over them, and the sigmoid of the weighted neighbour sum; the
    heads are averaged into (..., N, n_out).
    """
    x, theta, score_src, score_dst, score_bias = (
        _wrap(t) for t in (x, theta, score_src, score_dst, score_bias)
    )
    index = np.asarray(neighbor_index, dtype=np.intp)
    xv, bv = x.values, score_bias.values
    h, (h_grads, src_grads, dst_grads), raw, alpha = _graph_attention_weights(
        xv, theta.values, score_src.values, score_dst.values, bv, index, neighbor_mask, slope
    )
    neighbors = np.take(h, index, axis=h.ndim - 2)  # (..., H, N, W, n_out)
    alpha_row = alpha.reshape(alpha.shape[:-1] + (1,) + alpha.shape[-1:])
    mixed, mixed_grads = _product(alpha_row, neighbors)  # (..., H, N, 1, n_out)
    mixed_shape, score_shape = mixed.shape, h.shape[:-1] + (1,)
    heads = _sigmoid_values(mixed.reshape(h.shape))
    values = heads.mean(axis=-3)
    count = heads.size / max(values.size, 1)
    want = [_tracked(t) for t in (x, theta, score_src, score_dst, score_bias)]

    def push(g):
        g_heads = np.broadcast_to(np.expand_dims(g, -3), heads.shape) / count
        g_mixed = _sigmoid_grad(g_heads, heads).reshape(mixed_shape)
        g_alpha, g_neighbors = mixed_grads(g_mixed, True, True)
        g_alpha = _softmax_grad(g_alpha.reshape(alpha.shape), alpha)
        g_raw = _leaky_relu_grad(g_alpha, raw, slope)
        g_bias = _unbroadcast(g_raw, bv.shape) if want[4] else None
        g_dst = _gather_grad(g_raw, index, h.shape[:-1], h.ndim - 2).reshape(score_shape)
        g_h_src, g_score_src = src_grads(_unbroadcast(g_raw, score_shape), True, want[2])
        g_h_dst, g_score_dst = dst_grads(g_dst, True, want[3])
        # h feeds the src and dst scores and the neighbour gather, summed in that order
        g_h = g_h_src + g_h_dst + _gather_grad(g_neighbors, index, h.shape, h.ndim - 2)
        g_xr, g_theta = h_grads(g_h, want[0], want[1])
        g_x = None if g_xr is None else g_xr.reshape(xv.shape)
        return g_x, g_theta, g_score_src, g_score_dst, g_bias

    return _result(values, (x, theta, score_src, score_dst, score_bias), push)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape: Sequence[int]):
    a = _wrap(a)
    orig = a.values.shape
    values = a.values.reshape(shape)

    def push(g):
        return (g.reshape(orig),)

    return _result(values, (a,), push)


def swapaxes(a, i: int, j: int):
    """Swap axes i and j (np.swapaxes); its own inverse, so also the backward."""
    a = _wrap(a)
    values = np.swapaxes(a.values, i, j)

    def push(g):
        return (np.swapaxes(g, i, j),)

    return _result(values, (a,), push)


def take(a, key):
    """Basic indexing (ints / slices / ellipsis) with scatter-add backward."""
    if any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,))):
        raise IndexError(f"take does basic indexing only (ints, slices, Ellipsis), got {key!r}")
    a = _wrap(a)
    av = a.values
    values = av[key]

    def push(g):
        z = np.zeros_like(av)
        z[key] += g  # basic indexing never selects an element twice
        return (z,)

    return _result(values, (a,), push)


def _gather_grad(g: np.ndarray, index: np.ndarray, shape: tuple, axis: int) -> np.ndarray:
    """Gradient of `np.take(a, index, axis)` for an `a` of `shape`; axis >= 0.

    One product with the constant 0/1 selection matrix
    S[m, j] = [index.flat[m] == j], which sums the gradient of every copy of
    an element back into it (much faster than a scatter with np.add.at).
    """
    select = np.zeros((index.size, shape[axis]))
    select[np.arange(index.size), index.ravel()] = 1.0
    g = g.reshape(shape[:axis] + (index.size, -1))
    return (select.T @ g).reshape(shape)


def concat(arrays: Iterable, axis: int = 0):
    parts = [_wrap(x) for x in arrays]
    values = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def push(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(values, tuple(parts), push)


# ---------------------------------------------------------------------------
# dropout


def dropout_keep(draws: np.ndarray, rate: float) -> np.ndarray:
    """Inverted-scaling Bernoulli dropout's keep factors for uniform `draws`:
    0 where a draw falls below `rate`, else 1 / (1 - rate)."""
    return (draws >= rate) / (1.0 - rate)


def dropout(a, keep: np.ndarray | None):
    """`a` times its dropout keep factors (`dropout_keep`); None (not
    training) leaves `a` as it is."""
    return _wrap(a) if keep is None else mul(a, keep)


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
        p.grad = None
    out = f()
    out.backward()
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
                err = abs(an - num) / max(abs(an), abs(num), floor)
                if err > worst:
                    worst = err
    return worst
