"""Network forward/backward math, Huber loss, training loop behaviour."""

import json

import numpy as np
import pytest

from corrml.errors import TrainingError, ValidationError
from corrml.neural import (
    DenseNetwork,
    DnnModel,
    TrainConfig,
    _forward_trace,
    backward,
    dnn_from_dict,
    dnn_to_dict,
    forward,
    huber_loss,
    init_network,
    predict_dnn,
    relu,
    train_dnn,
)


def test_relu_definition():
    np.testing.assert_array_equal(relu(np.array([-3.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


def test_zero_network_outputs_zero():
    net = DenseNetwork([np.zeros((3, 4)), np.zeros((4, 1))],
                       [np.zeros(4), np.zeros(1)], ["relu", "identity"])
    assert forward(net, np.array([5.0, -2.0, 7.0])) == 0.0


def test_single_relu_layer_hand_evaluation():
    # max(0, 2x - 1)
    net = DenseNetwork([np.array([[2.0]])], [np.array([-1.0])], ["relu"])
    assert forward(net, np.array([0.0])) == 0.0
    assert forward(net, np.array([1.0])) == 1.0
    assert forward(net, np.array([2.0])) == 3.0


def test_forward_dimension_mismatch():
    net = init_network(3, (2,), seed=0)
    with pytest.raises(ValidationError):
        forward(net, np.zeros(4))


def test_network_architecture():
    net = init_network(41, seed=0)
    shapes = [w.shape for w in net.weights]
    assert shapes == [(41, 64), (64, 32), (32, 16), (16, 8), (8, 1)]
    assert net.activations == ["relu", "relu", "relu", "relu", "identity"]
    for b in net.biases:
        np.testing.assert_array_equal(b, 0.0)
    # He-style bounds: |W| <= sqrt(6 / fan_in)
    for w in net.weights:
        assert np.abs(w).max() <= np.sqrt(6.0 / w.shape[0])


def test_huber_values():
    z = np.zeros(1)
    assert huber_loss(z, z, 0.1) == 0.0
    assert huber_loss(np.array([0.05]), z, 0.1) == pytest.approx(0.00125, rel=1e-12)
    assert huber_loss(np.array([1.0]), z, 0.1) == pytest.approx(0.095, rel=1e-12)
    # mean over samples
    assert huber_loss(np.array([0.05, 1.0]), np.zeros(2), 0.1) == pytest.approx(
        (0.00125 + 0.095) / 2, rel=1e-12)


def test_huber_smooth_at_threshold():
    delta = 0.1
    below = huber_loss(np.array([delta - 1e-9]), np.zeros(1), delta)
    above = huber_loss(np.array([delta + 1e-9]), np.zeros(1), delta)
    assert abs(above - below) < 1e-8
    # first derivative is continuous too: slope ~ delta on both sides
    h = 1e-7
    d_below = (huber_loss(np.array([delta]), np.zeros(1), delta)
               - huber_loss(np.array([delta - h]), np.zeros(1), delta)) / h
    d_above = (huber_loss(np.array([delta + h]), np.zeros(1), delta)
               - huber_loss(np.array([delta]), np.zeros(1), delta)) / h
    assert d_below == pytest.approx(delta, rel=1e-4)
    assert d_above == pytest.approx(delta, rel=1e-4)


def test_backward_zero_error_gives_zero_gradients():
    net = init_network(3, (2,), seed=1)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 3))
    # the targets are training's own forward outputs: scoring's `forward`
    # takes its products by einsum, and may round them differently
    y = _forward_trace(net, X)[1][-1][:, 0]
    loss, gw, gb = backward(net, X, y)
    assert loss == 0.0
    for g in gw + gb:
        np.testing.assert_array_equal(g, 0.0)


def test_backward_matches_finite_differences():
    h = 1e-5
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = init_network(3, (2,), seed=seed)
        X = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        _, gw, gb = backward(net, X, y, delta=0.5)
        for l in range(len(net.weights)):
            for arr, grads in ((net.weights[l], gw[l]), (net.biases[l], gb[l])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = huber_loss(y, np.asarray(forward(net, X)), 0.5)
                    arr[idx] = orig - h
                    dn = huber_loss(y, np.asarray(forward(net, X)), 0.5)
                    arr[idx] = orig
                    fd = (up - dn) / (2 * h)
                    scale = max(abs(fd), abs(grads[idx]), 1e-6)
                    assert abs(grads[idx] - fd) / scale <= 1e-5, (seed, l, idx)


def test_clipped_regime_gradient_independent_of_error_size():
    net = init_network(2, (3,), seed=2)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 2))
    base = np.asarray(forward(net, X))
    _, gw1, gb1 = backward(net, X, base + 10.0, delta=0.1)
    _, gw2, gb2 = backward(net, X, base + 1000.0, delta=0.1)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_backward_raises_on_nonfinite_activations():
    net = init_network(2, (2,), seed=3)
    net.weights[0][:] = 1e308
    with pytest.raises(TrainingError):
        backward(net, np.ones((2, 2)), np.zeros(2))


def test_training_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    cfg = TrainConfig(epochs=30, seed=7)
    a = train_dnn(X, y, cfg)
    b = train_dnn(X, y, cfg)
    for wa, wb in zip(a.network.weights, b.network.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.history == b.history


def test_linear_smoke_loss_drops_tenfold():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(50, 1))
    y = 3 * X[:, 0] + 1
    model = train_dnn(X, y, TrainConfig(seed=0))  # reference defaults
    assert model.history[-1] < model.history[0] / 10


def test_loss_history_windows_mostly_decreasing():
    ok = 0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        X = rng.uniform(-1, 1, size=(50, 1))
        y = 3 * X[:, 0] + 1
        h = np.asarray(train_dnn(X, y, TrainConfig(seed=seed)).history)
        if (h[50:] - h[:-50]).max() <= 1e-7:
            ok += 1
    assert ok >= 8


def test_zero_epochs_returns_initialized_network():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    model = train_dnn(X, y, TrainConfig(epochs=0, seed=11))
    fresh = init_network(4, HIDDEN := model.config.hidden_sizes, seed=11)
    for wa, wb in zip(model.network.weights, fresh.weights):
        np.testing.assert_array_equal(wa, wb)
    assert len(model.history) == 1


def test_plateau_stop_halts_early():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(50, 1))
    y = 3 * X[:, 0] + 1
    cfg = TrainConfig(lr=0.01, epochs=500, seed=0, plateau_stop=True)
    model = train_dnn(X, y, cfg)
    assert len(model.history) - 1 < 500
    no_stop = train_dnn(X, y, TrainConfig(lr=0.01, epochs=500, seed=0))
    assert len(no_stop.history) - 1 == 500


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergent_training_aborts_with_history():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 2)) * 10
    y = rng.normal(size=8) * 10
    model = train_dnn(X, y, TrainConfig(lr=1e60, epochs=10, seed=0))
    assert len(model.history) <= 11
    assert all(np.isfinite(v) for v in model.history)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_diverged_training_keeps_last_finite_network_and_warns(caplog):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40) * 100
    with caplog.at_level("WARNING", logger="corrml.neural"):
        model = train_dnn(X, y, TrainConfig(lr=1e200, epochs=50, seed=0))
    initial = huber_loss(y, forward(init_network(5, seed=0), X))
    assert model.history == [initial]
    pred = predict_dnn(model, X)
    assert np.all(np.isfinite(pred))
    assert huber_loss(y, pred) == model.history[-1]
    [record] = [r for r in caplog.records if r.name == "corrml.neural"]
    assert record.levelname == "WARNING"
    assert "epoch 1 of 50" in record.getMessage() and "non-finite" in record.getMessage()
    # finite inputs whose very first forward pass overflows leave no state to keep
    with pytest.raises(TrainingError, match="at initialization"):
        train_dnn(np.full((4, 5), 1e308), y[:4], TrainConfig(epochs=3, seed=0))


def test_bias_free_relu_network_positively_homogeneous():
    net = init_network(3, (4, 2), seed=8)  # init biases are zero
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    for lam in (0.5, 2.5, 10.0):
        assert forward(net, lam * x) == pytest.approx(lam * forward(net, x), rel=1e-10)


def test_predict_shape_and_serialization_roundtrip():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = train_dnn(X, y, TrainConfig(epochs=20, seed=1))
    preds = predict_dnn(model, X)
    assert preds.shape == (12,)
    rebuilt = dnn_from_dict(json.loads(json.dumps(dnn_to_dict(model), sort_keys=True)))
    np.testing.assert_allclose(predict_dnn(rebuilt, X), preds, rtol=1e-12)
    with pytest.raises(ValidationError):
        dnn_from_dict({"kind": "gpr"})


def test_config_and_network_validation():
    with pytest.raises(ValidationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(lr=float("inf"))
    with pytest.raises(ValidationError):
        TrainConfig(huber_delta=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=-5)
    with pytest.raises(ValidationError):
        DenseNetwork([np.zeros((2, 3)), np.zeros((4, 1))],
                     [np.zeros(3), np.zeros(1)], ["relu", "identity"])
    with pytest.raises(ValidationError):
        DenseNetwork([np.zeros((2, 1))], [np.zeros(1)], ["softmax"])
    with pytest.raises(ValidationError):
        train_dnn(np.ones((3, 2)), np.array([1.0, np.inf, 2.0]))
