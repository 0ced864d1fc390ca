"""AdamW with decoupled weight decay over a flat parameter store.

The update is elementwise, so it runs once over the store's contiguous
buffer with flat moment vectors of the same length. The decay multiplies the
parameter directly (it is never folded into the gradient), so the moment
estimates see the raw gradient only. `TrainConfig` holds the defaults.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .nn import ParameterStore


class AdamW:
    """AdamW over `store.flat`; `step` reads the parameters' gradients."""

    def __init__(self, store: ParameterStore, lr: float, betas: tuple[float, float],
                 eps: float, weight_decay: float):
        self.store = store
        self.params = store.params
        self.lr, self.betas, self.eps, self.weight_decay = lr, betas, eps, weight_decay
        self.step_count = 0
        self.first_moment = np.zeros_like(store.flat)
        self.second_moment = np.zeros_like(store.flat)

    def step(self) -> None:
        """One update of `store.flat`, in place.

        A NaN gradient aborts the step before anything changes, naming the
        parameter that holds it.
        """
        grad = self.store.flat_grad()
        nan = np.flatnonzero(np.isnan(grad))
        if nan.size:
            raise NumericError(f"NaN gradient for {self.store.name_at(nan[0])}; step aborted")
        self.step_count += 1
        b1, b2 = self.betas
        m, v, p = self.first_moment, self.second_moment, self.store.flat
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        m_hat = m / (1.0 - b1**self.step_count)
        v_hat = v / (1.0 - b2**self.step_count)
        p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
