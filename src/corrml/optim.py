"""Adam, and the one training loop that kernel-hyperparameter and network
training share.

Pure functional style: `adam_step` returns a fresh state so a step is fully
determined by (state, params, grads). It works elementwise on arrays of any
shape; `adam_minimize` steps one flat parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    m: np.ndarray          # first-moment accumulator
    v: np.ndarray          # second-moment accumulator
    t: int                 # completed step count
    lr: float
    beta1: float = BETA1
    beta2: float = BETA2
    epsilon: float = EPSILON


def adam_init(shape, lr: float) -> AdamState:
    """Fresh zero-moment state for a parameter array of the given shape."""
    return AdamState(m=np.zeros(shape), v=np.zeros(shape), t=0, lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray
              ) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, new params)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise TrainingError(
            f"parameter/gradient shape {params.shape}/{grads.shape} does not match "
            f"optimizer state {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        raise TrainingError("non-finite gradient")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = AdamState(m=m, v=v, t=t, lr=state.lr, beta1=state.beta1,
                          beta2=state.beta2, epsilon=state.epsilon)
    return new_state, new_params


def adam_minimize(objective, theta: np.ndarray, lr: float, epochs: int, stop=None
                  ) -> tuple[np.ndarray, list[float], str | None]:
    """Up to `epochs` Adam steps from `theta` on `objective`, which maps a state
    to (value, gradient) or raises TrainingError for a state it cannot evaluate.

    Every state reached is evaluated; one whose evaluation raises, or whose
    value or gradient is not finite, is rejected and training keeps the state
    before it, with `failure` naming the step (None if no state was rejected;
    a rejected initial state is a TrainingError). `stop(history)`, asked after
    each step, ends training at the new state. Returns (state, history,
    failure), `history` holding the value of every kept state.
    """
    history, state = [], adam_init(theta.shape, lr)
    candidate, stopping = theta, False
    for epoch in range(epochs + 1):
        try:
            value, grad = objective(candidate)
            if not math.isfinite(value):
                raise TrainingError(f"a non-finite value {value}")
            if not np.all(np.isfinite(grad)):
                raise TrainingError("a non-finite gradient")
        except TrainingError as exc:
            if epoch == 0:
                raise TrainingError(f"the state at initialization gave {exc}") from None
            return theta, history, f"the Adam step of epoch {epoch} of {epochs} gave {exc}"
        theta = candidate
        history.append(value)
        if stopping or epoch == epochs:
            break
        state, candidate = adam_step(state, theta, grad)
        stopping = stop is not None and stop(history)
    return theta, history, None
