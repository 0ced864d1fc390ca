"""Primitive tape nodes that only the reference chains in the tests compose.

The library records its layers and the glue between them as fused nodes
(`radnet.tensor`). The nodes here rebuild the chains those nodes replaced:
the elementwise arithmetic with numpy broadcasting (`add`, `sub`, `mul`,
`div`), `matmul`, the reductions `reduce_sum` and `reduce_mean`, `concat`,
and leaky ReLU, the sigmoid, the neighbour gather, softmax, square root and
dropout, each from the library's private value and gradient helpers (the
gather's own gradient, a product with a selection matrix, lives here).
`DiffArray` takes no arithmetic operator, so a chain calls these functions;
`weighted_sum(out, w)` is the mul and sum nodes a test objective ends in.
`shift_window` is the chain of one rollout step, and `sum_products` the
in-order loop the row-last attention kernel's einsum contractions replaced.
"""

from typing import Iterable

import numpy as np

from radnet.errors import DimensionError
from radnet.tensor import (
    _leaky_relu_grad,
    _leaky_relu_values,
    _product,
    _result,
    _sigmoid_grad,
    _sigmoid_values,
    _softmax_grad,
    _softmax_values,
    _unbroadcast,
    _wrap,
    reshape,
    take,
)


def _broadcast_binop(a, b, fwd, grad_a, grad_b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values
    try:
        values = fwd(av, bv)
    except ValueError as exc:
        raise DimensionError(
            f"operands not broadcastable: {av.shape} vs {bv.shape}"
        ) from exc

    def push(g, wants):
        ga = _unbroadcast(grad_a(g, av, bv), av.shape) if wants[0] else None
        gb = _unbroadcast(grad_b(g, av, bv), bv.shape) if wants[1] else None
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


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    values, grads = _product(a.values, b.values)
    return _result(values, (a, b), grads)


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient as a read-only view over its input's `shape`."""
    return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), shape)


def reduce_sum(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    shape = a.values.shape

    def push(g, _):
        return (_spread(g, shape, axis, keepdims),)

    return _result(a.values.sum(axis=axis, keepdims=keepdims), (a,), push)


def reduce_mean(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    values = a.values.mean(axis=axis, keepdims=keepdims)
    shape, count = a.values.shape, a.values.size / max(values.size, 1)

    def push(g, _):
        return (_spread(g, shape, axis, keepdims) / count,)

    return _result(values, (a,), push)


def concat(arrays: Iterable, axis: int = 0):
    parts = [_wrap(x) for x in arrays]
    values = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.values.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def push(g, _):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(values, tuple(parts), push)


def weighted_sum(a, w):
    """The scalar sum of `a` times `w`: a mul node, then a sum node."""
    return reduce_sum(mul(a, w))


def leaky_relu(a, slope: float):
    a = _wrap(a)
    av = a.values

    def push(g, _):
        return (_leaky_relu_grad(g, av, slope),)

    return _result(_leaky_relu_values(av, slope), (a,), push)


def sigmoid(a):
    a = _wrap(a)
    out = _sigmoid_values(a.values)

    def push(g, _):
        return (_sigmoid_grad(g, out),)

    return _result(out, (a,), push)


def _gather_grad(g: np.ndarray, index: np.ndarray, shape: tuple, axis: int) -> np.ndarray:
    """Gradient of `np.take(a, index, axis)` for an `a` of `shape`; axis >= 0.

    One product with the constant 0/1 selection matrix
    S[m, j] = [index.flat[m] == j], which sums the gradient of every copy of
    an element back into it.
    """
    select = np.zeros((index.size, shape[axis]))
    select[np.arange(index.size), index.ravel()] = 1.0
    g = g.reshape(shape[:axis] + (index.size, -1))
    return (select.T @ g).reshape(shape)


def gather(a, index, axis: int):
    """Integer-array selection `np.take(a, index, axis)`; indices may repeat."""
    a = _wrap(a)
    av = a.values
    index = np.asarray(index, dtype=np.intp)
    axis = axis % av.ndim
    values = np.take(av, index, axis=axis)

    def push(g, _):
        return (_gather_grad(g, index, av.shape, axis),)

    return _result(values, (a,), push)


def softmax(a):
    """Numerically stabilized softmax along the last axis.

    -inf entries (attention masks) come out exactly 0; NaN, +inf and a row
    of only -inf are refused.
    """
    a = _wrap(a)
    y = _softmax_values(a.values)

    def push(g, _):
        return (_softmax_grad(g, y),)

    return _result(y, (a,), push)


def sqrt(a):
    a = _wrap(a)
    sv = np.sqrt(a.values)

    def push(g, _):
        return (g * 0.5 / np.maximum(sv, 1e-150),)

    return _result(sv, (a,), push)


def dropout(a, keep):
    """`a` times its dropout keep factors (`tensor.dropout_keep`); None (not
    training) leaves `a` as it is."""
    return _wrap(a) if keep is None else mul(a, keep)


def shift_window(windows, preds, truth=None, forced=None):
    """The chain `tensor.shift_window` replaced: the windows' tail (a take),
    the predictions, with `forced` mixed with `truth` as preds * keep +
    (1 - keep) * truth, as one more slice (a reshape), and the two joined."""
    windows, preds = _wrap(windows), _wrap(preds)
    if forced is not None:
        keep = (~forced).astype(np.float64).reshape(-1, 1, 1)
        preds = add(mul(preds, keep), (1.0 - keep) * truth)
    slice_ = reshape(preds, (preds.shape[0], 1, *preds.shape[1:]))
    return concat([take(windows, (slice(None), slice(1, None))), slice_], axis=1)


def sum_products(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """(a * b).sum(axis) for b broadcast to a's shape: each term a product
    rounded on its own, the terms added in order from the first."""
    a, b = np.moveaxis(a, axis, 0), np.moveaxis(np.broadcast_to(b, a.shape), axis, 0)
    total, term = a[0] * b[0], None
    for j in range(1, len(a)):
        term = np.multiply(a[j], b[j], out=term)
        total += term
    return total
