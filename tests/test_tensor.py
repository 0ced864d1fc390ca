"""Engine-level checks: forward values against closed forms, gradients
against central finite differences."""

import ast
import operator
import re
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radnet import tensor as T
from radnet.errors import DimensionError, NumericError
from radnet.tensor import DiffArray

from primitive_nodes import (
    add,
    concat,
    div,
    dropout,
    gather,
    leaky_relu,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    sigmoid,
    softmax,
    sum_products,
    weighted_sum,
)


def fd_grad(f, p, h=1e-6):
    """Independent central-difference gradient of scalar f at parameter p."""
    out = np.zeros_like(p.values)
    flat = p.values.reshape(-1)
    gflat = out.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = float(f().values)
            flat[i] = keep - h
            lo = float(f().values)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * h)
    return out


def brute_unbroadcast(grad, shape):
    """Sum each element of `grad` into the `shape` cell it was broadcast from."""
    out = np.zeros(shape)
    lead = grad.ndim - len(shape)
    for idx in np.ndindex(grad.shape):
        out[tuple(0 if n == 1 else i for i, n in zip(idx[lead:], shape))] += grad[idx]
    return out


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


class TestMatmul:
    def test_identity(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = matmul(DiffArray(np.eye(2)), DiffArray(a))
        np.testing.assert_array_equal(out.values, a)

    def test_closed_form(self):
        out = matmul(DiffArray([[1.0, 2.0], [3.0, 4.0]]), DiffArray([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(DiffArray(np.zeros((2, 3))), DiffArray(np.zeros((2, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3,), (3, 2)),  # one operand 1-d
        ((2, 2, 3), (3, 3, 2)),  # batch axes do not broadcast
    ])
    def test_operands_that_do_not_multiply_raise(self, a_shape, b_shape):
        match = f"{re.escape(str(a_shape))}.*{re.escape(str(b_shape))}"
        with pytest.raises(DimensionError, match=match):
            matmul(DiffArray(np.zeros(a_shape)), DiffArray(np.zeros(b_shape)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = DiffArray(rng.normal(size=(3, 4)), requires_grad=True)
        b = DiffArray(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return reduce_sum(matmul(a, b))

        out = f()
        out.backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = DiffArray(rng.normal(size=(5, 3, 4)), requires_grad=True)
        b = DiffArray(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return weighted_sum(matmul(a, b), w)

        w = DiffArray(rng.normal(size=(5, 3, 2)))
        f().backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = softmax(DiffArray([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.values, np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = softmax(DiffArray([1000.0, 0.0]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(DiffArray(rng.normal(size=(6, 9)) * 10))
        np.testing.assert_allclose(out.values.sum(axis=-1), np.ones(6), atol=1e-9)
        assert (out.values >= 0).all()

    def test_masked_entries_exactly_zero(self):
        x = np.array([[0.3, -np.inf, 1.2], [0.0, 0.5, -np.inf]])
        out = softmax(DiffArray(x))
        assert out.values[0, 1] == 0.0
        assert out.values[1, 2] == 0.0
        np.testing.assert_allclose(out.values.sum(axis=-1), [1.0, 1.0], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax(DiffArray([np.nan, 0.0]))

    # either row would come out NaN, from inf - inf or -inf - -inf
    @pytest.mark.parametrize("row, problem", [
        ([np.inf, 0.0], r"\+inf input"), ([-np.inf, -np.inf], "every entry is -inf"),
    ])
    def test_non_finite_row_rejected(self, row, problem):
        with pytest.raises(NumericError, match=problem):
            softmax(DiffArray([[0.0, -np.inf], row]))

    # train-radset's per-node attention scores, detect-64's graph attention
    # scores over (batch, head, node, neighbour) and the flattened C07 scores
    @pytest.mark.parametrize("shape", [(32, 16, 7, 5, 5), (32, 1, 64, 3), (32, 5, 5)])
    def test_bit_identical_to_plain_numpy(self, shape):
        rng = np.random.default_rng(17)
        x = rng.normal(size=shape) * 3.0
        x[..., 1:][rng.random(x[..., 1:].shape) < 0.2] = -np.inf  # masked entries
        g = rng.normal(size=shape)
        ex = np.exp(x - x.max(axis=-1, keepdims=True))
        want = ex / ex.sum(axis=-1, keepdims=True)
        want_grad = want * (g - (g * want).sum(axis=-1, keepdims=True))
        a = DiffArray(x, requires_grad=True)
        out = softmax(a)
        weighted_sum(out, g).backward()
        np.testing.assert_array_equal(out.values, want)
        np.testing.assert_array_equal(a.grad, want_grad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = DiffArray(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)

        def f():
            return weighted_sum(softmax(x), w)

        f().backward()
        assert rel_err(x.grad, fd_grad(f, x)) < 1e-5


@st.composite
def last_axis_arrays(draw):
    """Widths on both sides of numpy's pairwise switch at 8, row counts on both
    sides of the slice-by-slice switch, contiguous or strided."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    x = draw(hnp.arrays(np.float64, lead + (draw(st.integers(1, 16)),),
                        elements=st.floats(width=64)))
    if draw(st.booleans()):  # the same rows, enough of them to go slice by slice
        x = np.repeat(x[None], T._SLICE_MIN_ROWS, axis=0)
    if x.ndim > 1 and draw(st.booleans()):
        x = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -1, -2)
    return x


def assert_same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN.

    Which NaN a sum such as inf + -inf + NaN yields depends on the operand
    order inside numpy's compiled loop, not on the order of summation.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestLastAxisReductions:
    @settings(max_examples=300, deadline=None)
    @given(last_axis_arrays())
    # numpy's sum starts from +0.0, so a row of -0.0 sums to +0.0
    @example(np.full((T._SLICE_MIN_ROWS, 1), -0.0))
    @example(np.full((T._SLICE_MIN_ROWS, 3), -0.0))
    def test_sum_and_max_match_numpy_bitwise(self, x):
        with np.errstate(all="ignore"):
            total, top = T._sum_last(x), T._max_last(x)
            assert_same_bits(total, x.sum(axis=-1, keepdims=True))
            assert_same_bits(top, x.max(axis=-1, keepdims=True))
            assert_same_bits(total / x.shape[-1], x.mean(axis=-1, keepdims=True))
        assert not np.shares_memory(total, x) and not np.shares_memory(top, x)


def strided(x: np.ndarray, layout: str) -> np.ndarray:
    """x's values in `layout`: C-contiguous, its last two axes swapped in
    memory, every other element of a larger array, or broadcast over its first axis."""
    if layout == "transposed" and x.ndim > 1:
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -1, -2)
    if layout == "sliced":
        return np.repeat(x, 2, axis=-1)[..., ::2]
    if layout == "broadcast":
        return np.broadcast_to(x[:1], x.shape)
    return x


LAYOUTS = st.sampled_from(["contiguous", "transposed", "sliced", "broadcast"])


@st.composite
def unbroadcast_cases(draw):
    """(grad, shape): `shape` with some axes 1 long, and a gradient broadcast
    from it over those axes and up to two leading ones, in any layout."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=7))
    ones = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    shape = tuple(1 if one else n for n, one in zip(shape, ones))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=9))
    spread = tuple(draw(st.integers(1, 9)) if n == 1 else n for n in shape)
    grad = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=lead + spread)
    return strided(grad, draw(LAYOUTS)), shape


class TestOuterAxisSums:
    """The einsum contractions against the sums they replaced, bit for bit.

    Both rest on numpy's einsum adding a reduced axis that is not the
    innermost one in order, each term after the last. The property tests
    contract from one row up (`_EINSUM_MIN_ROWS` 1), so that small drawn
    shapes run einsum wherever `_sum_axes` allows it at all."""

    @pytest.mark.parametrize("shape, axes, contracted", [
        ((2, 512, 5, 16), (1, 2), True),  # a hidden bias's gradient at N=16, D=7
        ((32, 16, 7), (0, 1), True),
        ((2, 32, 1, 4), (1,), False),  # 64 rows, where numpy's sum is the cheaper call
        ((2, 256, 1, 4), (1,), True),  # _EINSUM_MIN_ROWS rows
        ((511, 4), (0,), False),
        ((2, 512, 5, 1), (1, 2), False),  # a last axis 1 long
        ((512, 16), (0, 1), False),  # the last axis summed
    ])
    def test_sum_axes_contracts_only_over_many_short_rows(self, shape, axes, contracted):
        x = np.random.default_rng(4).normal(size=shape)
        for operand in (x, np.asfortranarray(x)):  # einsum for C-contiguous operands only
            with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
                got = T._sum_axes(operand, axes)
            assert einsum.called == (contracted and operand.flags.c_contiguous)
            assert_same_bits(got, operand.sum(axis=axes))

    @settings(max_examples=150, deadline=None)
    @given(unbroadcast_cases())
    # a hidden bias's gradient: members kept, rows and keys summed, 16 features
    @example((np.random.default_rng(0).normal(size=(2, 512, 5, 16)), (2, 1, 1, 16)))
    @example((np.random.default_rng(1).normal(size=(3, 32, 16, 7)), (7,)))
    # a kept last axis 1 long, which leaves numpy's sum to add the axis innermost
    @example((np.random.default_rng(2).normal(size=(4, 9, 1)), (1, 9, 1)))
    @example((np.random.default_rng(3).normal(size=(4, 9, 1)), (4, 1, 1)))
    def test_unbroadcast_matches_numpy_sum(self, case):
        grad, shape = case
        with mock.patch.object(T, "_EINSUM_MIN_ROWS", 1):
            got = T._unbroadcast(grad, shape)
        with mock.patch.object(T, "_sum_axes", lambda x, axes, keepdims=False:
                               x.sum(axis=axes, keepdims=keepdims)):
            want = T._unbroadcast(grad, shape)
        assert_same_bits(got, want)
        np.testing.assert_allclose(got, brute_unbroadcast(grad, shape), rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=7),
        pick=st.lists(st.booleans(), min_size=5, max_size=5),
        keepdims=st.booleans(),
        layout=LAYOUTS,
        seed=st.integers(0, 2**16),
    )
    def test_sum_axes_matches_numpy_sum(self, shape, pick, keepdims, layout, seed):
        x = strided(np.random.default_rng(seed).normal(size=shape), layout)
        axes = tuple(i for i, p in zip(range(x.ndim), pick) if p)
        with mock.patch.object(T, "_EINSUM_MIN_ROWS", 1):
            got = T._sum_axes(x, axes, keepdims)
        assert_same_bits(got, x.sum(axis=axes, keepdims=keepdims))

    @settings(max_examples=80, deadline=None)
    @given(
        members=st.integers(1, 3),
        kq=st.integers(1, 9),
        kk=st.integers(1, 9),
        heads=st.integers(1, 7),
        rows=st.integers(1, 513),
        axis=st.sampled_from([1, 2]),
        full=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(members=2, kq=5, kk=5, heads=7, rows=512, axis=2, full=False, seed=0)
    @example(members=1, kq=9, kk=9, heads=1, rows=1, axis=2, full=True, seed=1)
    @example(members=3, kq=9, kk=4, heads=1, rows=1, axis=1, full=False, seed=2)
    def test_sum_products_match_the_in_order_loop(self, members, kq, kk, heads, rows, axis,
                                                  full, seed):
        # a is of the scores' shape (M, Kq, Kk, H, R); b is another score-sized
        # array or, as a projection is, broadcast over the axis the sum keeps
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(members, kq, kk, heads, rows))
        b = rng.normal(size=a.shape if full else a.shape[:3 - axis] + (1,) + a.shape[4 - axis:])
        got, want = T._sum_products(a, b, axis), sum_products(a, b, axis)
        if heads * rows > 1:
            assert_same_bits(got, want)
        else:  # one head meets one row: the summed axis is innermost, held within rtol 1e-12
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def where_leaky_relu(x, slope):
    return np.where(x > 0, x, slope * x)


def where_leaky_relu_grad(g, x, slope):
    return g * np.where(x > 0, 1.0, slope)


def sign_split_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310,
               1e308, -1e308, 1.0, -1.0]
edge_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
edge_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=edge_floats)
slopes = st.one_of(st.just(T.LEAKY_SLOPE), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


class TestBranchFreeActivations:
    """The kernels equal the np.where and sign-split forms they replaced, bit for bit.

    The reference chains in primitive_nodes.py call these same kernels, so the
    fused-versus-chain tests cannot see a change in them.
    """

    @settings(max_examples=300, deadline=None)
    @given(edge_arrays, st.data(), slopes)
    def test_leaky_relu_matches_where(self, x, data, slope):
        g = data.draw(hnp.arrays(np.float64, x.shape, elements=edge_floats))
        values = T._leaky_relu_values(x, slope)
        assert_same_bits(values, where_leaky_relu(x, slope))
        assert np.isnan(values[np.isnan(x)]).all()
        assert_same_bits(T._leaky_relu_grad(g, x, slope), where_leaky_relu_grad(g, x, slope))
        # the feed-forward node hands the gradient its input's sign mask instead
        assert_same_bits(T._leaky_relu_grad(g, x > 0, slope), where_leaky_relu_grad(g, x, slope))

    @settings(max_examples=300, deadline=None)
    @given(edge_arrays)
    def test_sigmoid_matches_sign_split(self, x):
        values = T._sigmoid_values(x)
        assert_same_bits(values, sign_split_sigmoid(x))
        assert np.isnan(values[np.isnan(x)]).all()

    def test_default_slope_is_in_the_kernels_range(self):
        # at slope 0, 0 * inf is NaN where np.where kept inf
        assert 0 < T.LEAKY_SLOPE <= 1


class TestElementwise:
    def test_leaky_relu_negative_slope(self):
        out = leaky_relu(DiffArray([-1.0]), slope=0.01)
        np.testing.assert_allclose(out.values, [-0.01])

    def test_sigmoid_at_zero(self):
        assert sigmoid(DiffArray([0.0])).values[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(DiffArray([-800.0, 800.0]))
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)

    def test_broadcast_mismatch(self):
        with pytest.raises(DimensionError):
            add(DiffArray(np.zeros(3)), DiffArray(np.zeros(4)))

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = DiffArray(rng.normal(size=(4, 3)), requires_grad=True)
        b = DiffArray(rng.normal(size=(3,)), requires_grad=True)

        def f():
            return reduce_sum(add(mul(a, b), b))

        f().backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6

    def test_leading_unit_axes_give_the_same_gradient_bits(self):
        # A (1, 1, 1) bias gets exactly the gradient of a (1,) bias, so giving
        # a parameter a unit head axis leaves training bit-identical.
        w = np.random.default_rng(21).normal(size=(6, 5, 7, 7))
        grads = []
        for shape in ((1,), (1, 1, 1)):
            b = DiffArray(np.zeros(shape), requires_grad=True)
            weighted_sum(add(b, w), w).backward()
            grads.append(b.grad.item())
        assert grads[0] == grads[1]

    @settings(max_examples=200, deadline=None)
    @given(
        core=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        units=st.integers(0, 2),
        extra=st.lists(st.integers(1, 3), max_size=2),
        widen=st.lists(st.integers(1, 3), min_size=5, max_size=5),
        seed=st.integers(0, 2**16),
    )
    def test_unbroadcast_matches_brute_force(self, core, units, extra, widen, seed):
        # grad has the broadcast shape of an input of `shape`: extra leading
        # axes, and any unit axis widened
        shape = (1,) * units + tuple(core)
        grad_shape = tuple(extra) + tuple(w if n == 1 else n for n, w in zip(shape, widen))
        rng = np.random.default_rng(seed)
        ints = rng.integers(-9, 10, size=grad_shape).astype(np.float64)  # exact in any order
        np.testing.assert_array_equal(T._unbroadcast(ints, shape), brute_unbroadcast(ints, shape))
        grad = rng.normal(size=grad_shape)
        got = T._unbroadcast(grad, shape)
        assert got.shape == shape
        np.testing.assert_allclose(got, brute_unbroadcast(grad, shape), rtol=1e-12, atol=1e-12)
        # leading unit axes are summed like missing ones: the same bits
        np.testing.assert_array_equal(got, T._unbroadcast(grad, tuple(core)).reshape(shape))

    def test_div_gradients(self):
        rng = np.random.default_rng(5)
        a = DiffArray(rng.normal(size=(3, 2)), requires_grad=True)
        b = DiffArray(rng.uniform(1.0, 2.0, size=(3, 1)), requires_grad=True)

        def f():
            return reduce_sum(div(a, b))

        f().backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6


class TestShapeOps:
    def test_take_and_concat_roundtrip(self):
        rng = np.random.default_rng(6)
        x = DiffArray(rng.normal(size=(5, 2)), requires_grad=True)
        w = rng.normal(size=(5, 2))

        def f():
            head = x[0:2]
            tail = x[2:]
            return weighted_sum(concat([head, tail], axis=0), w)

        f().backward()
        np.testing.assert_allclose(x.grad, w)

    @pytest.mark.parametrize(
        "key",
        [1, slice(1, 3), (Ellipsis, 2), (slice(None, None, -2), Ellipsis, slice(3, 0, -1))],
        ids=["int", "slice", "ellipsis", "negative-step"],
    )
    def test_take_gradient_matches_scatter_add_bits(self, key):
        rng = np.random.default_rng(8)
        x = DiffArray(rng.normal(size=(4, 3, 5)), requires_grad=True)
        g = rng.normal(size=x.values[key].shape)
        weighted_sum(x[key], g).backward()
        reference = np.zeros_like(x.values)
        np.add.at(reference, key, g)
        assert x.grad.tobytes() == reference.tobytes()

    def test_take_rejects_advanced_indexing(self):
        # An index array may repeat an element, whose gradient must then add up.
        x = DiffArray(np.arange(3.0), requires_grad=True)
        with pytest.raises(IndexError, match="basic indexing"):
            x[[0, 0]]

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_gather_gradient_with_repeated_indices(self, axis):
        # the two axes GAT gathers on: scores (..., N) and projections (..., N, F)
        rng = np.random.default_rng(9)
        shape = (2, 4, 3) if axis == -2 else (2, 3, 4)
        x = DiffArray(rng.normal(size=shape), requires_grad=True)
        index = np.array([[0, 2], [2, 3], [1, 1]])
        w = rng.normal(size=gather(x, index, axis).shape)
        assert T.grad_check(lambda: weighted_sum(gather(x, index, axis), w), [x]) < 1e-6

        x.grad = None
        reduce_sum(gather(x, index, axis)).backward()
        counts = np.array([1.0, 2.0, 2.0, 1.0])  # node 1 and node 2 are listed twice
        want = counts[:, None] if axis == -2 else counts
        np.testing.assert_array_equal(x.grad, np.broadcast_to(want, shape))

    def test_gather_forward_is_np_take(self):
        x = DiffArray(np.arange(12.0).reshape(3, 4))
        index = np.array([[3, 3], [0, 1]])
        np.testing.assert_array_equal(gather(x, index, 1).values, np.take(x.values, index, 1))

    @pytest.mark.parametrize("shape, axes, out_shape", [
        ((2, 3, 4, 5, 2), (0, 2, 4, 1, 3), (2, 4, 2, 15)),  # windows to per-node rows last
        ((2, 3, 4, 10), (0, 2, 3, 1), (2, 4, 10, 3)),  # to flattened rows last
        ((2, 10, 3, 4), (0, 2, 3, 1), (2, 3, 4, 10)),  # per-node output back
    ])
    def test_rearrange_gradient(self, shape, axes, out_shape):
        rng = np.random.default_rng(8)
        x = DiffArray(rng.normal(size=(2, 3, 4, 10)), requires_grad=True)
        w = rng.normal(size=out_shape)
        want = x.values.reshape(shape).transpose(axes).reshape(out_shape)
        np.testing.assert_array_equal(T._rearrange(x, shape, axes, out_shape).values, want)

        def f():
            return weighted_sum(T._rearrange(x, shape, axes, out_shape), w)

        f().backward()
        assert rel_err(x.grad, fd_grad(f, x)) < 1e-6

    def test_reduce_mean_gradient(self):
        x = DiffArray(np.arange(6.0).reshape(2, 3), requires_grad=True)
        reduce_mean(x).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))


class TestBackwardMechanics:
    def test_chain_rule_composition(self):
        # f(g(x)) with g = sigmoid, f = sum of squares: df/dx = 2 g(x) g'(x)
        rng = np.random.default_rng(8)
        xv = rng.normal(size=5)
        x = DiffArray(xv, requires_grad=True)
        y = sigmoid(x)
        weighted_sum(y, y).backward()
        s = 1 / (1 + np.exp(-xv))
        np.testing.assert_allclose(x.grad, 2 * s * s * (1 - s), rtol=1e-12)

    def test_grad_accumulates_on_reuse(self):
        x = DiffArray([2.0], requires_grad=True)
        weighted_sum(x, x).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_requires_scalar(self):
        x = DiffArray(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            mul(x, 2.0).backward()

    def test_tape_cleared_after_backward(self):
        x = DiffArray([1.0, 2.0], requires_grad=True)
        y = weighted_sum(x, 3.0)
        y.backward()
        assert y.op_trace is None

    def test_backward_on_a_leaf_root(self):
        x = DiffArray([2.0], requires_grad=True)
        x.backward()
        np.testing.assert_array_equal(x.grad, [1.0])
        x.backward()
        np.testing.assert_array_equal(x.grad, [2.0])
        c = DiffArray(3.0)
        c.backward()
        assert c.grad is None and c.op_trace is None

    def test_push_raising_midway_leaves_no_mark(self):
        def failing(a):
            def push(g, wants):
                raise RuntimeError("push failed")

            return T._result(a.values.copy(), (a,), push)

        w = DiffArray([0.5, -1.0, 2.0], requires_grad=True)
        v = DiffArray([1.5, 0.25, -3.0], requires_grad=True)
        held = np.ones(3)
        v.grad = held
        h = mul(w, v)
        stuck = failing(h)
        # the walk pushes h * h's gradient into h, then fails on `stuck`
        with pytest.raises(RuntimeError, match="push failed"):
            reduce_sum(add(mul(h, h), stuck)).backward()
        assert w.grad is None and v.grad is held
        traces, stack = [], [stuck]
        while stack:
            node = stack.pop()
            if node.op_trace is not None:
                traces.append(node.op_trace)
                stack.extend(node.op_trace.inputs)
        assert len(traces) == 2 and all(t.grad is None for t in traces)

        # a fresh graph over the same parameters and the uncleared h
        v.grad = None
        weighted_sum(h, w).backward()
        w_clean = DiffArray(w.values.copy(), requires_grad=True)
        v_clean = DiffArray(v.values.copy(), requires_grad=True)
        weighted_sum(mul(w_clean, v_clean), w_clean).backward()
        np.testing.assert_array_equal(w.grad, w_clean.grad)
        np.testing.assert_array_equal(v.grad, v_clean.grad)

    def test_every_leaf_owns_a_writable_gradient(self):
        a = DiffArray([1.0, 2.0], requires_grad=True)
        b = DiffArray([3.0, 4.0], requires_grad=True)
        for want in (1.0, 2.0):
            reduce_sum(add(a, b)).backward()
            assert not np.shares_memory(a.grad, b.grad)
            assert a.grad.flags.writeable and b.grad.flags.writeable
            np.testing.assert_array_equal(a.grad, [want, want])
            np.testing.assert_array_equal(b.grad, [want, want])

    def test_constant_input_is_not_wanted_and_keeps_its_grad(self):
        # the push returns a term for every input; `backward()` drops the
        # constant's, even though the constant holds a `grad` array
        seen = []

        def both(a, b):
            def push(g, wants):
                seen.append(wants)
                return g, g

            return T._result(a.values + b.values, (a, b), push)

        w = DiffArray([1.0, 2.0], requires_grad=True)
        c = DiffArray([3.0, 4.0])
        held = np.array([5.0, 6.0])
        c.grad = held
        y = both(w, c)
        assert y.op_trace.wants == (True, False)
        weighted_sum(y, np.array([2.0, 3.0])).backward()
        assert seen == [(True, False)]
        assert c.grad is held
        np.testing.assert_array_equal(held, [5.0, 6.0])
        np.testing.assert_array_equal(w.grad, [2.0, 3.0])

    def test_misshapen_leaf_term_is_refused_before_any_gradient_changes(self):
        def misshapen(a):
            def push(g, wants):
                return (np.zeros(4),)

            return T._result(a.values.copy(), (a,), push)

        w = DiffArray([0.5, -1.0, 2.0], requires_grad=True)
        v = DiffArray([1.5, 0.25, -3.0], requires_grad=True)
        held = np.ones(3)
        v.grad = held
        # w and v get their terms from w * v before the walk reaches `misshapen`
        with pytest.raises(DimensionError, match=r"leaf \(3,\) got a \(4,\) term"):
            reduce_sum(add(mul(w, v), misshapen(w))).backward()
        assert w.grad is None and v.grad is held
        np.testing.assert_array_equal(held, np.ones(3))

    def test_misshapen_held_gradient_is_refused_before_any_gradient_changes(self):
        a = DiffArray([1.0, 2.0, 3.0], requires_grad=True)
        b = DiffArray([2.0, 2.0, 2.0], requires_grad=True)
        held = np.zeros(4)
        b.grad = held
        with pytest.raises(DimensionError, match=r"leaf \(3,\) holds a \(4,\) grad"):
            weighted_sum(a, b).backward()
        assert a.grad is None and b.grad is held
        np.testing.assert_array_equal(held, np.zeros(4))
        b.grad = None  # the walk left no mark behind
        weighted_sum(a, b).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_no_grad_suppresses_tape(self):
        x = DiffArray([1.0], requires_grad=True)
        with T.no_grad():
            y = mul(x, 2.0)
        assert y.op_trace is None

    def test_no_grad_in_one_thread_leaves_another_recording(self):
        entered, release = threading.Event(), threading.Event()

        def evaluate():
            with T.no_grad():
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=evaluate)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            x = DiffArray([1.0, 2.0], requires_grad=True)
            weighted_sum(x, 3.0).backward()
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_dropout_train_vs_eval(self):
        rng = np.random.default_rng(9)
        x = DiffArray(np.ones(1000))
        draws = rng.random(x.shape)
        keep = T._dropout_keep(draws[::-1], 0.25)[::-1]  # a strided view of the draws
        np.testing.assert_array_equal(keep, (draws >= 0.25) / (1.0 - 0.25))
        out = dropout(x, keep)
        kept = out.values != 0
        np.testing.assert_array_equal(kept, draws >= 0.25)
        assert 0.6 < kept.mean() < 0.9
        np.testing.assert_allclose(out.values[kept], 1 / 0.75)
        same = dropout(x, None)
        np.testing.assert_array_equal(same.values, x.values)


class TestGradCheck:
    def test_linear_case(self):
        p = DiffArray(np.arange(4.0), requires_grad=True)
        assert T.grad_check(lambda: reduce_sum(p), [p]) < 1e-9

    def test_quadratic_form(self):
        # f = ||W x||^2 has gradient 2 W^T W x
        rng = np.random.default_rng(10)
        wv = rng.normal(size=(3, 3))
        x = DiffArray(rng.normal(size=(3, 1)), requires_grad=True)
        wall = DiffArray(wv)

        def f():
            y = matmul(wall, x)
            return weighted_sum(y, y)

        err = T.grad_check(f, [x])
        assert err < 1e-7
        x.grad = None
        f().backward()
        np.testing.assert_allclose(x.grad, 2 * wv.T @ wv @ x.values, rtol=1e-10)

    def test_non_contiguous_parameter(self):
        # An F-ordered parameter has no flat view; each coordinate must still
        # be perturbed in place.
        rng = np.random.default_rng(11)
        p = DiffArray(np.asfortranarray(rng.normal(size=(3, 4))), requires_grad=True)
        c = rng.normal(size=(3, 4))
        assert not p.values.flags.c_contiguous
        assert T.grad_check(lambda: weighted_sum(mul(p, p), c), [p]) < 1e-6


class TestNoArithmeticOperators:
    """A DiffArray takes no arithmetic operator, on either side and against
    numpy operands: the model records each step as a named node instead."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.matmul],
                             ids=["add", "sub", "mul", "div", "matmul"])
    @pytest.mark.parametrize("order", ["numpy-left", "numpy-right", "both"])
    def test_binary_operator_is_a_type_error(self, op, order):
        a, x = np.ones((2, 2)), DiffArray(np.ones((2, 2)), requires_grad=True)
        left, right = {"numpy-left": (a, x), "numpy-right": (x, a), "both": (x, x)}[order]
        with pytest.raises(TypeError):
            op(left, right)

    def test_negation_is_a_type_error(self):
        with pytest.raises(TypeError):
            -DiffArray([1.0])

    @pytest.mark.parametrize("method", ["sum", "mean", "item", "reshape"])
    def test_no_reduction_or_reshape_method(self, method):
        assert not hasattr(DiffArray([1.0]), method)


SRC = Path(T.__file__).parent


def imported_from_tensor(path: Path) -> set[str]:
    """The names `path` imports from the tensor module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "radnet.tensor"):
            names.update(alias.name for alias in node.names)
    return names


class TestTensorSurface:
    def test_every_public_node_is_imported_by_another_module(self):
        # `take` is reached through `DiffArray.__getitem__`
        tree = ast.parse((SRC / "tensor.py").read_text(encoding="utf-8"))
        public = {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        imported = set().union(*(imported_from_tensor(p) for p in SRC.glob("*.py")
                                 if p.name != "tensor.py"))
        assert public - imported == {"take"}
