"""Dense float64 arrays with reverse-mode automatic differentiation.

Values are stored in numpy arrays. Each differentiable operation attaches a
tape node (`_Trace`) to its output holding the parent arrays and a closure
that maps the output gradient back to parent gradients. ``backward()`` walks
the recorded graph once in reverse topological order, accumulates gradients
into the participating leaves, and clears the tape so memory stays bounded
by a single forward pass.

Everything runs in 64-bit precision; the engine is meant for desk-scale
models whose gradients are routinely validated against finite differences.

A single forward/backward graph is not thread-safe; distinct graphs over
distinct parameter stores are independent and may run concurrently, and
`no_grad` switches recording off only in the thread that enters it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

_GRAD_ENABLED = contextvars.ContextVar("radnet_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (pure evaluation)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class _Trace:
    """One tape node: parents plus the gradient push-back closure."""

    __slots__ = ("inputs", "push_grads")

    def __init__(self, inputs, push_grads):
        self.inputs = inputs
        self.push_grads = push_grads


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
            raise DimensionError(
                f"backward() needs a scalar output, got shape {self.shape}"
            )
        topo: list[DiffArray] = []
        seen: set[int] = set()
        stack: list[tuple[DiffArray, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if node.op_trace is not None:
                for parent in node.op_trace.inputs:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.values)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            trace = node.op_trace
            if trace is None:
                continue
            for parent, pg in zip(trace.inputs, trace.push_grads(g)):
                if pg is None or not _tracked(parent):
                    continue
                key = id(parent)
                held = grads.get(key)
                grads[key] = pg if held is None else held + pg
            node.op_trace = None

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

    def transpose(self, axes=None):
        return transpose(self, axes)


# ---------------------------------------------------------------------------
# helpers


def _wrap(x) -> DiffArray:
    return x if isinstance(x, DiffArray) else DiffArray(x)


def _tracked(x: DiffArray) -> bool:
    return x.requires_grad or x.op_trace is not None


def _needs_trace(*inputs: DiffArray) -> bool:
    return _GRAD_ENABLED.get() and any(_tracked(x) for x in inputs)


def _result(values: np.ndarray, inputs: tuple, push_grads) -> DiffArray:
    out = DiffArray(values)
    if _needs_trace(*inputs):
        out.op_trace = _Trace(inputs, push_grads)
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


def leaky_relu(a, slope: float):
    a = _wrap(a)
    av = a.values
    values = np.where(av > 0, av, slope * av)

    def push(g):
        return (g * np.where(av > 0, 1.0, slope),)

    return _result(values, (a,), push)


def sigmoid(a):
    a = _wrap(a)
    av = a.values
    # split by sign so exp never overflows
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ez = np.exp(av[~pos])
    out[~pos] = ez / (1.0 + ez)

    def push(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), push)


def sqrt(a):
    a = _wrap(a)
    sv = np.sqrt(a.values)

    def push(g):
        return (g * 0.5 / np.maximum(sv, 1e-150),)

    return _result(sv, (a,), push)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {av.shape} and {bv.shape}"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul inner mismatch: {av.shape} @ {bv.shape}")
    try:
        values = av @ bv
    except ValueError as exc:
        raise DimensionError(f"matmul batch mismatch: {av.shape} @ {bv.shape}") from exc
    want_a, want_b = _tracked(a), _tracked(b)

    def push(g):
        ga = gb = None
        if want_a:
            ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
        if want_b:
            gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
        return ga, gb

    return _result(values, (a, b), push)


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
# softmax


def softmax(a, axis: int = -1):
    """Numerically stabilized softmax along `axis`.

    -inf entries (attention masks) come out exactly 0; NaN input is refused.
    """
    a = _wrap(a)
    av = a.values
    if np.isnan(av).any():
        raise NumericError("softmax received NaN input")
    shifted = av - av.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    y = ex / ex.sum(axis=axis, keepdims=True)

    def push(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _result(y, (a,), push)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape: Sequence[int]):
    a = _wrap(a)
    orig = a.values.shape
    values = a.values.reshape(shape)

    def push(g):
        return (g.reshape(orig),)

    return _result(values, (a,), push)


def transpose(a, axes=None):
    a = _wrap(a)
    values = np.transpose(a.values, axes)
    inv = None if axes is None else np.argsort(axes)

    def push(g):
        return (np.transpose(g, inv),)

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


def gather(a, index, axis: int):
    """Integer-array selection `np.take(a, index, axis)`; indices may repeat.

    The backward is one product with the constant 0/1 selection matrix
    S[m, j] = [index.flat[m] == j], which sums the gradient of every copy of
    an element back into it (much faster than a scatter with np.add.at).
    """
    a = _wrap(a)
    av = a.values
    index = np.asarray(index, dtype=np.intp)
    axis = axis % av.ndim
    values = np.take(av, index, axis=axis)

    def push(g):
        select = np.zeros((index.size, av.shape[axis]))
        select[np.arange(index.size), index.ravel()] = 1.0
        g = g.reshape(av.shape[:axis] + (index.size, -1))
        return ((select.T @ g).reshape(av.shape),)

    return _result(values, (a,), push)


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


def dropout(a, rate: float, rng: np.random.Generator | None, training: bool):
    """Inverted-scaling Bernoulli dropout; identity when not training."""
    if not training or rate <= 0.0:
        return _wrap(a)
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    a = _wrap(a)
    keep = (rng.random(a.values.shape) >= rate) / (1.0 - rate)
    values = a.values * keep

    def push(g):
        return (g * keep,)

    return _result(values, (a,), push)


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
