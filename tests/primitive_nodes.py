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

The row-first transformer block is the reference of the rows-last one:
`row_first_layer_norm` and `row_first_attention` are the layer-norm and
attention nodes over (..., R, K, d) input, and `row_first_forward` runs a
`TransformerBlock`'s parameters as the row-first block ran them, with its
layout nodes (`swapaxes`, `reshape`) and dropout draws.
"""

from typing import Iterable

import numpy as np

from radnet.errors import DimensionError, NumericError
from radnet.tensor import (
    _attention_weights,
    _dropout_keep,
    _leaky_relu_grad,
    _leaky_relu_values,
    _merge_heads,
    _product,
    _refuse_non_finite,
    _result,
    _sigmoid_grad,
    _sigmoid_values,
    _softmax_grad,
    _softmax_values,
    _split_heads,
    _sum_last,
    _sum_products,
    _unbroadcast,
    _weight_matrix,
    _wrap,
    feed_forward,
    offset_dropout,
    reshape,
    residual,
    take,
)
from radnet.temporal import position_encoding_table


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
    """`a` times its dropout keep factors (`tensor._dropout_keep`); None (not
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


def moveaxis(a, source: int, destination: int):
    """np.moveaxis, a view; the backward moves the axis back."""
    a = _wrap(a)

    def push(g, _):
        return (np.moveaxis(g, destination, source),)

    return _result(np.moveaxis(a.values, source, destination), (a,), push)


def copy_rows_first(a):
    """A rows-last (..., K, d, R) array as a C-contiguous row-first copy (..., R, K, d)."""
    a = _wrap(a)

    def push(g, _):
        return (np.moveaxis(g, -3, -1),)

    return _result(np.ascontiguousarray(np.moveaxis(a.values, -1, -3)), (a,), push)


def copy_rows_last(a):
    """A row-first (..., R, K, d) array as a C-contiguous rows-last copy
    (..., K, d, R); its gradient comes back as a C-contiguous row-first copy."""
    a = _wrap(a)

    def push(g, _):
        return (np.ascontiguousarray(np.moveaxis(g, -1, -3)),)

    return _result(np.ascontiguousarray(np.moveaxis(a.values, -3, -1)), (a,), push)


def swapaxes(a, i: int, j: int):
    """Swap axes i and j (np.swapaxes); its own inverse, so also the backward."""
    a = _wrap(a)
    values = a.values.swapaxes(i, j)

    def push(g, _):
        return (g.swapaxes(i, j),)

    return _result(values, (a,), push)


# ---------------------------------------------------------------------------
# the row-first transformer block


def row_first_layer_norm(a, gain, shift, eps: float):
    """Layer norm over the last axis of (..., d) input, as one node."""
    a, gain, shift = _wrap(a), _wrap(gain), _wrap(shift)
    av, gv, sv = a.values, gain.values, shift.values
    width = av.shape[-1]
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


def _row_first_product_kernel(xs, ws, n_heads, scale, mask):
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


def _row_first_matrices(xs, ws, n_heads):
    q, k, v = xs
    if k.shape != v.shape or q.shape[:-2] + q.shape[-1:] != k.shape[:-2] + (n_heads,):
        return None
    matrices = [_weight_matrix(q, w) for w in ws]
    if any(w is None for w in matrices):
        return None
    shape = matrices[0].shape[:1] + (n_heads, n_heads)
    return matrices if all(w.shape == shape for w in matrices) else None


def _row_first_width_one_kernel(xs, ws, matrices, n_heads, scale, mask):
    """Width-one heads of (M, R, K, H) input, projected into (M, K, H, R) arrays."""
    members, kq = len(matrices[0]), xs[0].shape[-2]
    rows = [x.reshape(members, -1, *x.shape[-2:]) for x in xs]
    w_query, w_key, w_value, w_out = (w[:, None] for w in matrices)
    qp, kp, vp = (np.matmul(w.swapaxes(-1, -2), x.transpose(0, 2, 3, 1))
                  for x, w in zip(rows, (w_query, w_key, w_value)))
    y = np.multiply(qp[:, :, None], kp[:, None])
    y *= scale
    if mask is not None:
        y += np.asarray(mask)[..., None, None]
    top = y.max(axis=2, keepdims=True)
    _refuse_non_finite(top)
    y -= top
    np.exp(y, out=y)
    y /= y.sum(axis=2, keepdims=True)
    mixed = _sum_products(y, vp[:, None], 2)
    out = np.empty(rows[0].shape[:2] + (kq, n_heads))
    np.matmul(mixed.swapaxes(-1, -2), w_out, out=out.swapaxes(1, 2))

    def push(g, wants):
        g = g.reshape(out.shape).swapaxes(1, 2)
        g_w_out = np.matmul(mixed, g).sum(axis=1).reshape(ws[3].shape) if wants[6] else None
        g_mixed = np.matmul(w_out, g.swapaxes(-1, -2))
        g_vp = _sum_products(y, g_mixed[:, :, None], 1)
        g_scores = np.multiply(g_mixed[:, :, None], vp[:, None])
        g_scores -= _sum_products(g_scores, y, 2)[:, :, None]
        g_scores *= y
        g_scores *= scale
        g_qp = _sum_products(g_scores, kp[:, None], 2)
        g_kp = _sum_products(g_scores, qp[:, :, None], 1)
        g_inputs, g_weights = [], []
        for x, w, g_p, shapes, want in zip(rows, (w_query, w_key, w_value), (g_qp, g_kp, g_vp),
                                           zip(xs, ws), zip(wants[:3], wants[3:6])):
            g_p = g_p.swapaxes(-1, -2)
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


def row_first_attention(q, k, v, w_query, w_key, w_value, w_out, n_heads, scale, mask=None):
    """Attention with its projections over (..., K, d) input, as one node."""
    parents = tuple(_wrap(t) for t in (q, k, v, w_query, w_key, w_value, w_out))
    xs, ws = [p.values for p in parents[:3]], [p.values for p in parents[3:]]
    for x in {id(x): x for x in xs}.values():
        if not np.isfinite(x).all():
            raise NumericError("attention received NaN or inf input")
    matrices = _row_first_matrices(xs, ws, n_heads)
    if matrices is None:
        values, push = _row_first_product_kernel(xs, ws, n_heads, scale, mask)
    else:
        values, push = _row_first_width_one_kernel(xs, ws, matrices, n_heads, scale, mask)
    return _result(values, parents, push)


def row_first_forward(block, window, training=False, rng=None):
    """`temporal.transformer_forward` as the row-first block ran it, on the
    parameters of the rows-last `block`: (S, ..., K, N, D) windows laid out
    as (S, R, K, d) rows, the block's six dropout sites drawn as one
    (S, 6, R, K, d) array, and the (S, R, d) output reshaped back."""
    window = _wrap(window)
    members, (k, n_nodes, width) = window.shape[0], window.shape[-3:]
    if block.cross_attention.d_model == width:
        rows = reshape(swapaxes(window, -3, -2), (members, -1, k, width))
    else:
        rows = reshape(window, (members, -1, k, n_nodes * width))
    keep = [None] * 6
    if training:
        factors = _dropout_keep(rng.random((members, 6) + rows.shape[1:]), block.dropout_rate)
        keep = [factors[:, i] for i in range(6)]
    last_row = lambda f: None if f is None else f[..., -1:, :]

    def attend(mha, q, kv, mask=None):
        return row_first_attention(q, kv, kv, mha.w_query, mha.w_key, mha.w_value, mha.w_out,
                                   mha.n_heads, mha.scale, mask)

    def norm(ln, x):
        return row_first_layer_norm(x, ln.gain, ln.shift, 1e-6)

    def encode(x, f):
        enc = block.encoder
        layers = enc.feed_forward.layers
        x1 = norm(enc.norm_attn, residual(x, attend(enc.attention, x, x), f[0]))
        ff = feed_forward(x, [l.weight for l in layers], [l.bias for l in layers])
        return norm(enc.norm_ff, residual(x1, ff, f[1]))

    table = position_encoding_table(k, rows.shape[-1])
    memory = encode(offset_dropout(rows, table, keep[0]), keep[1:3])
    source = offset_dropout(rows, table, keep[3])
    last = source[..., -1:, :]
    decoded = norm(block.norm_decoder,
                   residual(last, attend(block.decoder_attention, last, source), last_row(keep[4])))
    crossed = attend(block.cross_attention, decoded, memory)
    out = norm(block.norm_out, residual(decoded, crossed, last_row(keep[5])))[..., 0, :]
    return reshape(out, window.shape[:-3] + (n_nodes, width))
