"""AdamW with decoupled weight decay over a flat parameter store.

The update is elementwise, so it runs once over the store's buffers `flat`
and `grad`, with moment and scratch vectors of their length: a step
allocates none. The decay multiplies the parameter directly (never folded
into the gradient), so the moments see the raw gradient. `TrainConfig` holds
the defaults.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .nn import ParameterStore


class AdamW:
    """AdamW over `store.flat`; `step` reads `store.grad`."""

    def __init__(self, store: ParameterStore, lr: float, betas: tuple[float, float],
                 eps: float, weight_decay: float):
        self.store = store
        self.params = store.params
        self.lr, self.betas, self.eps, self.weight_decay = lr, betas, eps, weight_decay
        self.step_count = 0
        self.first_moment = np.zeros_like(store.flat)
        self.second_moment = np.zeros_like(store.flat)
        self._scratch = np.empty((2, store.flat.size))

    def step(self) -> None:
        """One update of `store.flat`, in place.

        A NaN or infinite gradient aborts the step before anything changes,
        naming the parameter that holds it.
        """
        grad, m, v, p = self.store.grad, self.first_moment, self.second_moment, self.store.flat
        # a sum of squares is finite unless a term is NaN or inf, or the sum overflows
        if not np.isfinite(np.dot(grad, grad)):
            for kind, bad in (("NaN", np.isnan(grad)), ("infinite", np.isinf(grad))):
                if bad.any():
                    name = self.store.name_at(np.flatnonzero(bad)[0])
                    raise NumericError(f"{kind} gradient for {name}; step aborted")
        self.step_count += 1
        b1, b2 = self.betas
        s, u = self._scratch
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(grad, 1.0 - b2, out=s), grad, out=s)
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        # p -= lr * m_hat / (sqrt(v_hat) + eps), m_hat and v_hat the bias-corrected moments
        np.sqrt(np.divide(v, 1.0 - b2**self.step_count, out=u), out=u)
        u += self.eps
        np.multiply(np.divide(m, 1.0 - b1**self.step_count, out=s), self.lr, out=s)
        p -= np.divide(s, u, out=s)
