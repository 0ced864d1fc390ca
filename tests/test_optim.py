"""AdamW update rule against a directly evaluated reference recurrence."""

import tracemalloc

import numpy as np
import pytest

from radnet.errors import NumericError
from radnet.nn import ParameterStore
from radnet.optim import AdamW
from radnet.tensor import DiffArray

from primitive_nodes import weighted_sum


def reference_adamw(p, gs, lr, betas, eps, wd):
    """Straight transcription of the update equations, one scalar parameter."""
    b1, b2 = betas
    m = v = 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p * (1 - lr * wd)
        p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    return p


def store_of(**arrays):
    return ParameterStore(
        {name: DiffArray(values, requires_grad=True) for name, values in arrays.items()}
    )


def adamw(store, lr=5e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-5):
    return AdamW(store, lr, betas, eps, weight_decay)


def step_with(opt, grad):
    """Write `grad`, laid out like `store.flat`, into `store.grad`; step."""
    opt.store.grad[...] = grad
    opt.step()


class TestAdamWStep:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        store = store_of(w=[1.5, -2.0])
        opt = adamw(store, lr=0.1, weight_decay=0.0)
        step_with(opt, np.zeros(2))
        np.testing.assert_array_equal(store.params["w"].values, [1.5, -2.0])
        assert opt.step_count == 1

    def test_single_step_reference(self):
        store = store_of(w=[1.0])
        opt = adamw(store, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        step_with(opt, [1.0])
        expected = reference_adamw(1.0, [1.0], 0.1, (0.9, 0.999), 1e-8, 0.0)
        np.testing.assert_allclose(store.params["w"].values, [expected], rtol=1e-14)

    def test_multi_step_reference(self):
        rng = np.random.default_rng(11)
        gs = rng.normal(size=7)
        store = store_of(w=[0.3])
        opt = adamw(store, lr=0.05, weight_decay=0.0)
        for g in gs:
            step_with(opt, [g])
        expected = reference_adamw(0.3, gs, 0.05, (0.9, 0.999), 1e-8, 0.0)
        np.testing.assert_allclose(store.params["w"].values, [expected], rtol=1e-13)

    def test_flat_step_matches_reference_per_coordinate(self):
        # Two tensors of different shapes, one update over the flat buffer:
        # every coordinate follows its own scalar recurrence.
        rng = np.random.default_rng(13)
        a0, b0 = rng.normal(size=(2, 3)), rng.normal(size=4)
        store = store_of(a=a0, b=b0)
        gs = rng.normal(size=(5, 10))
        opt = adamw(store, lr=0.05, weight_decay=1e-2)
        for g in gs:
            step_with(opt, g)
        start = np.concatenate([a0.ravel(), b0])
        expected = [
            reference_adamw(start[i], gs[:, i], 0.05, (0.9, 0.999), 1e-8, 1e-2)
            for i in range(10)
        ]
        np.testing.assert_allclose(store.params["a"].values.ravel(), expected[:6], rtol=1e-13)
        np.testing.assert_allclose(store.params["b"].values, expected[6:], rtol=1e-13)

    def test_weight_decay_shrinks_parameter(self):
        rng = np.random.default_rng(12)
        gs = rng.normal(size=20)
        runs = {}
        for wd in (0.0, 1e-5):
            store = store_of(w=[2.0])
            opt = adamw(store, lr=0.01, weight_decay=wd)
            for g in gs:
                step_with(opt, [g])
            runs[wd] = abs(store.params["w"].values[0])
        assert runs[1e-5] < runs[0.0]

    def test_nan_gradient_aborts_without_mutation(self):
        store = store_of(a=np.ones((2, 2)), b=[1.0, 2.0])
        opt = adamw(store)
        grad = np.zeros(6)
        grad[4] = np.nan
        with pytest.raises(NumericError, match="NaN gradient for b"):
            step_with(opt, grad)
        np.testing.assert_array_equal(store.flat, [1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        assert opt.step_count == 0
        assert not opt.first_moment.any() and not opt.second_moment.any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_aborts_without_mutation(self, bad):
        store = store_of(a=np.ones((2, 2)), b=[1.0, 2.0])
        opt = adamw(store)
        step_with(opt, np.ones(6))
        flat, moments = store.flat.copy(), (opt.first_moment.copy(), opt.second_moment.copy())
        with pytest.raises(NumericError, match="infinite gradient for b"):
            step_with(opt, np.array([1.0, 2.0, 3.0, 4.0, bad, 2.0]))
        np.testing.assert_array_equal(store.flat, flat)
        assert opt.step_count == 1
        np.testing.assert_array_equal(opt.first_moment, moments[0])
        np.testing.assert_array_equal(opt.second_moment, moments[1])

    def test_nan_is_named_before_inf(self):
        opt = adamw(store_of(a=[1.0, 2.0], b=[1.0, 2.0]))
        with pytest.raises(NumericError, match="NaN gradient for b"):
            step_with(opt, np.array([np.inf, 0.0, 0.0, np.nan]))

    def test_finite_gradient_whose_squares_overflow_is_not_refused(self):
        opt = adamw(store_of(w=[1.0, 2.0]))
        with np.errstate(over="ignore"):  # the squares sum past the float range
            step_with(opt, np.array([1e155, -1e155]))
        assert opt.step_count == 1

    def test_moments_match_parameter_shapes(self):
        store = store_of(a=np.zeros((2, 3)), b=np.zeros(4))
        opt = adamw(store)
        step_with(opt, np.ones(10))
        assert opt.first_moment.shape == opt.second_moment.shape == store.flat.shape

    def test_step_consumes_backward_grads(self):
        w = DiffArray([1.0, 1.0], requires_grad=True)
        store = ParameterStore({"w": w})
        opt = adamw(store, lr=0.1, weight_decay=0.0)
        weighted_sum(w, w).backward()
        np.testing.assert_array_equal(store.grad, [2.0, 2.0])
        opt.step()
        assert (np.abs(w.values) < 1.0).all()

    def test_step_allocates_no_parameter_sized_array(self):
        store = store_of(w=np.ones(100_000))
        opt = adamw(store)
        step_with(opt, np.ones(100_000))
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < store.flat.nbytes / 10
