"""Primitive tape nodes that only the reference chains in the tests compose.

The library runs leaky ReLU, the sigmoid, the neighbour gather, softmax,
square root and dropout inside its fused nodes only; these stand-alone nodes
rebuild the chains those nodes replaced, from the same private value and
gradient helpers (the gather's own gradient, a product with a selection
matrix, lives here). `sum_products` is the in-order loop the row-last
attention kernel's einsum contractions replaced.
"""

import numpy as np

from radnet.tensor import (
    _leaky_relu_grad,
    _leaky_relu_values,
    _result,
    _sigmoid_grad,
    _sigmoid_values,
    _softmax_grad,
    _softmax_values,
    _wrap,
    mul,
)


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


def sum_products(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """(a * b).sum(axis) for b broadcast to a's shape: each term a product
    rounded on its own, the terms added in order from the first."""
    a, b = np.moveaxis(a, axis, 0), np.moveaxis(np.broadcast_to(b, a.shape), axis, 0)
    total, term = a[0] * b[0], None
    for j in range(1, len(a)):
        term = np.multiply(a[j], b[j], out=term)
        total += term
    return total
