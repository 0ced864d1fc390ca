"""AdamW with decoupled weight decay over a flat parameter store.

The update is elementwise, so it runs once over the store's contiguous
buffer with flat moment vectors of the same length. The decay multiplies the
parameter directly (it is never folded into the gradient), so the moment
estimates see the raw gradient only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .nn import ParameterStore


@dataclass
class AdamWState:
    lr: float = 5e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def adamw_step(store: ParameterStore, grad: np.ndarray, state: AdamWState) -> AdamWState:
    """One step over `store.flat`, in place, from a `grad` laid out like it.

    A NaN anywhere in `grad` aborts the step before anything changes, naming
    the parameter that holds it.
    """
    p = store.flat
    if grad.shape != p.shape:
        raise DimensionError(
            f"gradient shape {grad.shape} does not match the {p.shape} parameter store"
        )
    nan = np.flatnonzero(np.isnan(grad))
    if nan.size:
        raise NumericError(f"NaN gradient for {store.name_at(nan[0])}; step aborted")

    if state.first_moment is None:
        state.first_moment = np.zeros_like(p)
        state.second_moment = np.zeros_like(p)
    state.step_count += 1
    b1, b2 = state.betas
    correct1 = 1.0 - b1**state.step_count
    correct2 = 1.0 - b2**state.step_count
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    if state.weight_decay:
        p *= 1.0 - state.lr * state.weight_decay
    m_hat = m / correct1
    v_hat = v / correct2
    p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


class AdamW:
    """Binds a parameter store to an AdamWState; `step` reads the gradients."""

    def __init__(self, store: ParameterStore, **hyper):
        """`hyper` holds AdamWState settings (lr, betas, eps, weight_decay)."""
        self.store = store
        self.params = store.params
        self.state = AdamWState(**hyper)

    def step(self) -> None:
        adamw_step(self.store, self.store.flat_grad(), self.state)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
