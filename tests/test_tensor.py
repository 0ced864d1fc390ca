"""Engine-level checks: forward values against closed forms, gradients
against central finite differences."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radnet import tensor as T
from radnet.errors import DimensionError, NumericError
from radnet.nn import DEFAULT_LEAKY_SLOPE
from radnet.tensor import DiffArray

from primitive_nodes import gather, leaky_relu, sigmoid


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
        out = T.matmul(DiffArray(np.eye(2)), DiffArray(a))
        np.testing.assert_array_equal(out.values, a)

    def test_closed_form(self):
        out = T.matmul(DiffArray([[1.0, 2.0], [3.0, 4.0]]), DiffArray([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(DiffArray(np.zeros((2, 3))), DiffArray(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = DiffArray(rng.normal(size=(3, 4)), requires_grad=True)
        b = DiffArray(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return T.matmul(a, b).sum()

        out = f()
        out.backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = DiffArray(rng.normal(size=(5, 3, 4)), requires_grad=True)
        b = DiffArray(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return (T.matmul(a, b) * w).sum()

        w = DiffArray(rng.normal(size=(5, 3, 2)))
        f().backward()
        assert rel_err(a.grad, fd_grad(f, a)) < 1e-6
        assert rel_err(b.grad, fd_grad(f, b)) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(DiffArray([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.values, np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = T.softmax(DiffArray([1000.0, 0.0]))
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax(DiffArray(rng.normal(size=(6, 9)) * 10))
        np.testing.assert_allclose(out.values.sum(axis=-1), np.ones(6), atol=1e-9)
        assert (out.values >= 0).all()

    def test_masked_entries_exactly_zero(self):
        x = np.array([[0.3, -np.inf, 1.2], [0.0, 0.5, -np.inf]])
        out = T.softmax(DiffArray(x))
        assert out.values[0, 1] == 0.0
        assert out.values[1, 2] == 0.0
        np.testing.assert_allclose(out.values.sum(axis=-1), [1.0, 1.0], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(DiffArray([np.nan, 0.0]))

    # either row would come out NaN, from inf - inf or -inf - -inf
    @pytest.mark.parametrize("row, problem", [
        ([np.inf, 0.0], r"\+inf input"), ([-np.inf, -np.inf], "every entry is -inf"),
    ])
    def test_non_finite_row_rejected(self, row, problem):
        with pytest.raises(NumericError, match=problem):
            T.softmax(DiffArray([[0.0, -np.inf], row]))

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
        out = T.softmax(a)
        (out * g).sum().backward()
        np.testing.assert_array_equal(out.values, want)
        np.testing.assert_array_equal(a.grad, want_grad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = DiffArray(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)

        def f():
            return (T.softmax(x) * w).sum()

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
slopes = st.one_of(st.just(DEFAULT_LEAKY_SLOPE), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


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

    @settings(max_examples=300, deadline=None)
    @given(edge_arrays)
    def test_sigmoid_matches_sign_split(self, x):
        values = T._sigmoid_values(x)
        assert_same_bits(values, sign_split_sigmoid(x))
        assert np.isnan(values[np.isnan(x)]).all()

    def test_default_slope_is_in_the_kernels_range(self):
        # at slope 0, 0 * inf is NaN where np.where kept inf
        assert 0 < DEFAULT_LEAKY_SLOPE <= 1


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
            T.add(DiffArray(np.zeros(3)), DiffArray(np.zeros(4)))

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(4)
        a = DiffArray(rng.normal(size=(4, 3)), requires_grad=True)
        b = DiffArray(rng.normal(size=(3,)), requires_grad=True)

        def f():
            return (T.mul(a, b) + b).sum()

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
            ((b + w) * w).sum().backward()
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
            return (a / b).sum()

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
            return (T.concat([head, tail], axis=0) * w).sum()

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
        (x[key] * g).sum().backward()
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
        assert T.grad_check(lambda: (gather(x, index, axis) * w).sum(), [x]) < 1e-6

        x.grad = None
        gather(x, index, axis).sum().backward()
        counts = np.array([1.0, 2.0, 2.0, 1.0])  # node 1 and node 2 are listed twice
        want = counts[:, None] if axis == -2 else counts
        np.testing.assert_array_equal(x.grad, np.broadcast_to(want, shape))

    def test_gather_forward_is_np_take(self):
        x = DiffArray(np.arange(12.0).reshape(3, 4))
        index = np.array([[3, 3], [0, 1]])
        np.testing.assert_array_equal(gather(x, index, 1).values, np.take(x.values, index, 1))

    def test_swapaxes_gradient(self):
        rng = np.random.default_rng(8)
        x = DiffArray(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(4, 3, 2))
        np.testing.assert_array_equal(T.swapaxes(x, 0, -1).values, np.swapaxes(x.values, 0, -1))

        def f():
            return (T.swapaxes(x, 0, -1) * w).sum()

        f().backward()
        assert rel_err(x.grad, fd_grad(f, x)) < 1e-6

    def test_reduce_mean_gradient(self):
        x = DiffArray(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))


class TestBackwardMechanics:
    def test_chain_rule_composition(self):
        # f(g(x)) with g = sigmoid, f = sum of squares: df/dx = 2 g(x) g'(x)
        rng = np.random.default_rng(8)
        xv = rng.normal(size=5)
        x = DiffArray(xv, requires_grad=True)
        y = sigmoid(x)
        (y * y).sum().backward()
        s = 1 / (1 + np.exp(-xv))
        np.testing.assert_allclose(x.grad, 2 * s * s * (1 - s), rtol=1e-12)

    def test_grad_accumulates_on_reuse(self):
        x = DiffArray([2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_requires_scalar(self):
        x = DiffArray(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2).backward()

    def test_tape_cleared_after_backward(self):
        x = DiffArray([1.0, 2.0], requires_grad=True)
        y = (x * 3).sum()
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
            def push(g):
                raise RuntimeError("push failed")

            return T._result(a.values.copy(), (a,), push)

        w = DiffArray([0.5, -1.0, 2.0], requires_grad=True)
        v = DiffArray([1.5, 0.25, -3.0], requires_grad=True)
        held = np.ones(3)
        v.grad = held
        h = w * v
        stuck = failing(h)
        # the walk pushes h * h's gradient into h, then fails on `stuck`
        with pytest.raises(RuntimeError, match="push failed"):
            (h * h + stuck).sum().backward()
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
        (h * w).sum().backward()
        w_clean = DiffArray(w.values.copy(), requires_grad=True)
        v_clean = DiffArray(v.values.copy(), requires_grad=True)
        (w_clean * v_clean * w_clean).sum().backward()
        np.testing.assert_array_equal(w.grad, w_clean.grad)
        np.testing.assert_array_equal(v.grad, v_clean.grad)

    def test_no_grad_suppresses_tape(self):
        x = DiffArray([1.0], requires_grad=True)
        with T.no_grad():
            y = x * 2
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
            (x * 3).sum().backward()
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_dropout_train_vs_eval(self):
        rng = np.random.default_rng(9)
        x = DiffArray(np.ones(1000))
        out = T.dropout(x, 0.25, rng, training=True)
        kept = out.values != 0
        assert 0.6 < kept.mean() < 0.9
        np.testing.assert_allclose(out.values[kept], 1 / 0.75)
        same = T.dropout(x, 0.25, None, training=False)
        np.testing.assert_array_equal(same.values, x.values)


class TestGradCheck:
    def test_linear_case(self):
        p = DiffArray(np.arange(4.0), requires_grad=True)
        assert T.grad_check(lambda: p.sum(), [p]) < 1e-9

    def test_quadratic_form(self):
        # f = ||W x||^2 has gradient 2 W^T W x
        rng = np.random.default_rng(10)
        wv = rng.normal(size=(3, 3))
        x = DiffArray(rng.normal(size=(3, 1)), requires_grad=True)
        wall = DiffArray(wv)

        def f():
            y = T.matmul(wall, x)
            return (y * y).sum()

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
        assert T.grad_check(lambda: (p * p * c).sum(), [p]) < 1e-6


class TestNumpyLeftOperand:
    @pytest.mark.parametrize(
        "op,expected_grad",
        [
            (lambda a, x: a + x, lambda a, xv: np.ones_like(xv)),
            (lambda a, x: a - x, lambda a, xv: -np.ones_like(xv)),
            (lambda a, x: a * x, lambda a, xv: a),
            (lambda a, x: a / x, lambda a, xv: -a / (xv * xv)),
        ],
        ids=["add", "sub", "mul", "div"],
    )
    def test_reflected_op_is_one_diffarray(self, op, expected_grad):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 4))
        xv = rng.uniform(1.0, 2.0, size=(3, 4))
        x = DiffArray(xv, requires_grad=True)
        out = op(a, x)
        assert isinstance(out, DiffArray) and out.shape == (3, 4)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, expected_grad(a, xv), rtol=1e-12)
