"""Engine-level checks: forward values against closed forms, gradients
against central finite differences."""

import threading

import numpy as np
import pytest

from radnet import tensor as T
from radnet.errors import DimensionError, NumericError
from radnet.tensor import DiffArray


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
        out = T.softmax(DiffArray([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.values, np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_stabilized_no_overflow(self):
        out = T.softmax(DiffArray([1000.0, 0.0]), axis=-1)
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax(DiffArray(rng.normal(size=(6, 9)) * 10), axis=-1)
        np.testing.assert_allclose(out.values.sum(axis=-1), np.ones(6), atol=1e-9)
        assert (out.values >= 0).all()

    def test_masked_entries_exactly_zero(self):
        x = np.array([[0.3, -np.inf, 1.2], [0.0, 0.5, -np.inf]])
        out = T.softmax(DiffArray(x), axis=-1)
        assert out.values[0, 1] == 0.0
        assert out.values[1, 2] == 0.0
        np.testing.assert_allclose(out.values.sum(axis=-1), [1.0, 1.0], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(DiffArray([np.nan, 0.0]), axis=-1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = DiffArray(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)

        def f():
            return (T.softmax(x, axis=-1) * w).sum()

        f().backward()
        assert rel_err(x.grad, fd_grad(f, x)) < 1e-5


class TestElementwise:
    def test_leaky_relu_negative_slope(self):
        out = T.leaky_relu(DiffArray([-1.0]), slope=0.01)
        np.testing.assert_allclose(out.values, [-0.01])

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(DiffArray([0.0])).values[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(DiffArray([-800.0, 800.0]))
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
        w = rng.normal(size=T.gather(x, index, axis).shape)
        assert T.grad_check(lambda: (T.gather(x, index, axis) * w).sum(), [x]) < 1e-6

        x.grad = None
        T.gather(x, index, axis).sum().backward()
        counts = np.array([1.0, 2.0, 2.0, 1.0])  # node 1 and node 2 are listed twice
        want = counts[:, None] if axis == -2 else counts
        np.testing.assert_array_equal(x.grad, np.broadcast_to(want, shape))

    def test_gather_forward_is_np_take(self):
        x = DiffArray(np.arange(12.0).reshape(3, 4))
        index = np.array([[3, 3], [0, 1]])
        np.testing.assert_array_equal(T.gather(x, index, 1).values, np.take(x.values, index, 1))

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
        y = T.sigmoid(x)
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
