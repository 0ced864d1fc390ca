"""AdamW with decoupled weight decay.

The decay multiplies the parameter directly (it is never folded into the
gradient), so the moment estimates see the raw gradient only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError
from .tensor import DiffArray


@dataclass
class AdamWState:
    lr: float = 5e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(
    params: dict[str, DiffArray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
) -> AdamWState:
    """One optimizer step over `params`, in place. Aborts on NaN gradients."""
    for name, g in grads.items():
        if g is None:
            continue
        if params[name].shape != g.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} of shape {params[name].shape}"
            )
        if np.isnan(g).any():
            raise NumericError(f"NaN gradient for {name}; step aborted")

    state.step_count += 1
    b1, b2 = state.betas
    correct1 = 1.0 - b1**state.step_count
    correct2 = 1.0 - b2**state.step_count
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.first_moment.setdefault(name, np.zeros_like(p.values))
        v = state.second_moment.setdefault(name, np.zeros_like(p.values))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if state.weight_decay:
            p.values *= 1.0 - state.lr * state.weight_decay
        m_hat = m / correct1
        v_hat = v / correct2
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


class AdamW:
    """Convenience wrapper binding a parameter dict to an AdamWState."""

    def __init__(self, params: dict[str, DiffArray], **hyper):
        """`hyper` holds AdamWState settings (lr, betas, eps, weight_decay)."""
        self.params = params
        self.state = AdamWState(**hyper)

    def step(self) -> None:
        grads = {name: p.grad for name, p in self.params.items()}
        adamw_step(self.params, grads, self.state)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
