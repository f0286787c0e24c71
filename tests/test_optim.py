"""Adam update rule: first-step algebra, momentum behaviour, convergence smoke;
the training loop both trainers share: its history, divergence rule and stop."""

import logging

import numpy as np
import pytest

from corrml.errors import TrainingError
from corrml.gpr import fit_gpr
from corrml.neural import TrainConfig, train_dnn
from corrml.optim import AdamState, adam_init, adam_minimize, adam_step


def test_zero_gradient_leaves_params_unchanged():
    state = adam_init(4, lr=0.1)
    params = np.array([1.0, -2.0, 0.5, 3.0])
    new_state, new_params = adam_step(state, params, np.zeros(4))
    np.testing.assert_array_equal(new_params, params)
    assert new_state.t == 1


def test_first_step_magnitude_is_lr_scaled_signed_gradient():
    # bias correction collapses the first update to lr * g / (|g| + eps)
    lr = 0.07
    g = np.array([3.0, -0.2, 1e-12, 0.0])
    state = adam_init(4, lr=lr)
    _, new_params = adam_step(state, np.zeros(4), g)
    expected = -lr * g / (np.abs(g) + state.epsilon)
    np.testing.assert_allclose(new_params, expected, rtol=1e-12)
    # every nonzero coordinate moves by almost exactly lr, against the gradient
    assert abs(abs(new_params[0]) - lr) < 1e-8
    assert new_params[0] < 0 < new_params[1]


def test_constant_gradient_moves_monotonically():
    state = adam_init(2, lr=0.05)
    params = np.array([1.0, -1.0])
    g = np.array([2.0, -3.0])
    p0 = params.copy()
    state, p1 = adam_step(state, p0, g)
    state, p2 = adam_step(state, p1, g)
    assert p1[0] < p0[0] and p2[0] < p1[0]
    assert p1[1] > p0[1] and p2[1] > p1[1]


def test_determinism():
    g = np.array([0.3, -1.7])
    a = adam_step(adam_init(2, lr=0.01), np.ones(2), g)
    b = adam_step(adam_init(2, lr=0.01), np.ones(2), g)
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[0].m, b[0].m)
    np.testing.assert_array_equal(a[0].v, b[0].v)


def test_quadratic_convergence_smoke():
    # minimize f(x) = x^2 from x = 1 with lr = 0.1
    state = adam_init(1, lr=0.1)
    x = np.array([1.0])
    for _ in range(200):
        state, x = adam_step(state, x, 2.0 * x)
    assert abs(x[0]) < 0.05


def test_matrix_shaped_parameters():
    state = adam_init((3, 2), lr=0.1)
    params = np.ones((3, 2))
    g = np.full((3, 2), 0.5)
    state, params = adam_step(state, params, g)
    assert params.shape == (3, 2)
    assert state.v.min() >= 0.0


def test_rejects_nonfinite_and_mismatched_gradients():
    state = adam_init(2, lr=0.1)
    with pytest.raises(TrainingError):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(TrainingError):
        adam_step(state, np.zeros(3), np.zeros(3))


def test_state_is_not_mutated_in_place():
    state = adam_init(2, lr=0.1)
    g = np.array([1.0, 1.0])
    new_state, _ = adam_step(state, np.zeros(2), g)
    assert state.t == 0
    np.testing.assert_array_equal(state.m, np.zeros(2))
    assert new_state is not state


def test_second_moment_nonnegative_invariant():
    state = adam_init(3, lr=0.01)
    rng = np.random.default_rng(0)
    params = np.zeros(3)
    for _ in range(50):
        state, params = adam_step(state, params, rng.normal(size=3))
        assert state.v.min() >= 0.0
        assert state.m.shape == state.v.shape == params.shape


def test_custom_state_fields_respected():
    state = AdamState(m=np.zeros(1), v=np.zeros(1), t=0, lr=1.0, beta1=0.0, beta2=0.0)
    # with both betas zero Adam degenerates to sign(g) * lr steps
    _, p = adam_step(state, np.zeros(1), np.array([4.0]))
    assert p[0] == pytest.approx(-1.0, rel=1e-7)


def _quadratic(theta):
    return float(np.sum((theta - 1.0) ** 2)), 2.0 * (theta - 1.0)


def _hand_loop(theta, steps, lr=0.1):
    state = adam_init(theta.shape, lr)
    for _ in range(steps):
        state, theta = adam_step(state, theta, _quadratic(theta)[1])
    return theta


def test_minimize_is_a_plain_adam_loop():
    start = np.array([3.0, -2.0])
    theta, history, failure = adam_minimize(_quadratic, start, lr=0.1, epochs=25)
    np.testing.assert_array_equal(theta, _hand_loop(start, 25))
    assert failure is None
    assert len(history) == 26  # every state reached, the returned one last
    assert history[0] == _quadratic(start)[0] and history[-1] == _quadratic(theta)[0]


def _unfactorizable(value, grad):
    raise TrainingError("not factorizable")


@pytest.mark.parametrize("bad", [
    lambda value, grad: (value, np.array([np.inf, 0.0])),
    lambda value, grad: (np.nan, grad),
    _unfactorizable,
], ids=["gradient", "value", "raises"])
def test_minimize_keeps_the_state_before_a_rejected_one(bad):
    states = []

    def objective(theta):
        states.append(theta)
        value, grad = _quadratic(theta)
        return bad(value, grad) if len(states) == 4 else (value, grad)

    theta, history, failure = adam_minimize(objective, np.array([3.0, -2.0]), 0.1, 10)
    np.testing.assert_array_equal(theta, states[2])
    assert history == [_quadratic(s)[0] for s in states[:3]]
    assert failure.startswith("the Adam step of epoch 3 of 10 gave ")


def test_minimize_rejects_an_initial_state_it_cannot_evaluate():
    with pytest.raises(TrainingError, match="at initialization gave a non-finite value inf"):
        adam_minimize(lambda theta: (np.inf, theta), np.zeros(2), 0.1, 5)


def test_stop_ends_training_one_evaluated_state_later():
    asked = []

    def stop(history):
        asked.append(list(history))
        return len(history) == 3

    start = np.array([3.0, -2.0])
    theta, history, failure = adam_minimize(_quadratic, start, 0.1, 10, stop)
    assert asked == [history[:1], history[:2], history[:3]]
    assert len(history) == 4 and failure is None
    np.testing.assert_array_equal(theta, _hand_loop(start, 3))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_gp_and_network_report_a_first_step_failure_alike(caplog):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 6))
    y = rng.normal(size=20)
    with caplog.at_level(logging.WARNING):
        gp = fit_gpr(X, y, epochs=5, lr=1e3)
        dnn = train_dnn(X, 100 * y, TrainConfig(lr=1e200, epochs=5, seed=0))
    assert len(gp.history) == len(dnn.history) == 1
    [gp_message] = [r.getMessage() for r in caplog.records if r.name == "corrml.gpr"]
    [dnn_message] = [r.getMessage() for r in caplog.records if r.name == "corrml.neural"]
    for trainer, message in (("GP", gp_message), ("DNN", dnn_message)):
        assert message.startswith(f"{trainer} training stopped: the Adam step of epoch 1 "
                                  f"of 5 gave "), message
        assert "; keeping the state before it (" in message, message
