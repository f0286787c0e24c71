"""Fully connected regression network: ReLU hidden layers, identity output,
mean Huber loss, analytic backpropagation, full-batch Adam training.

Reference architecture is input -> 64 -> 32 -> 16 -> 8 -> 1. Training is
deterministic given the seed; initialization is He-style scaled uniform
(W ~ U(+-sqrt(6/fan_in)), zero biases). The ReLU subgradient at exactly 0 is 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError, ValidationError
from .preprocess import training_matrices
from .schema import POSITIVE, STRING, array, parse, shown

log = logging.getLogger(__name__)

HIDDEN_SIZES = (64, 32, 16, 8)
DEFAULT_DNN_LR = 0.001
DEFAULT_DNN_EPOCHS = 200
DEFAULT_HUBER_DELTA = 0.1
PLATEAU_WINDOW = 20
PLATEAU_REL_TOL = 1e-5


@dataclass
class TrainConfig:
    lr: float = DEFAULT_DNN_LR
    epochs: int = DEFAULT_DNN_EPOCHS
    huber_delta: float = DEFAULT_HUBER_DELTA
    seed: int = 0
    hidden_sizes: tuple[int, ...] = HIDDEN_SIZES
    plateau_stop: bool = False  # stop when 20-epoch relative improvement < 1e-5

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError("lr must be finite and > 0")
        if self.huber_delta <= 0:
            raise ValidationError("huber_delta must be > 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not all(type(h) is int and h >= 1 for h in self.hidden_sizes):
            raise ValidationError(f"hidden_sizes must be integers >= 1, got "
                                  f"{shown(list(self.hidden_sizes))}")
        self.hidden_sizes = tuple(self.hidden_sizes)


@dataclass
class DenseNetwork:
    """Ordered affine layers with per-layer activation ('relu' or 'identity')."""

    weights: list[np.ndarray]   # layer l maps (fan_in, fan_out)
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations) > 0):
            raise ValidationError("weights, biases, activations must align and be non-empty")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.size:
                raise ValidationError(f"layer {i}: weight/bias shapes {w.shape}/{b.shape} invalid")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValidationError(f"layer {i}: dimension chain broken")
            if act not in ("relu", "identity"):
                raise ValidationError(f"layer {i}: unknown activation {act!r}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {i}: non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def init_network(input_dim: int, hidden_sizes: tuple[int, ...] = HIDDEN_SIZES,
                 seed: int = 0) -> DenseNetwork:
    """He-style uniform init: W ~ U(+-sqrt(6/fan_in)), b = 0, identity output layer."""
    if input_dim < 1:
        raise ValidationError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = [int(input_dim)] + [int(h) for h in hidden_sizes] + [1]
    weights, biases, activations = [], [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
        activations.append("relu")
    activations[-1] = "identity"
    return DenseNetwork(weights, biases, activations)


def _forward_trace(net: DenseNetwork, X: np.ndarray):
    """Activations per layer, keeping pre-activations for backprop."""
    h = X
    pre, post = [], []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ w + b
        h = relu(z) if act == "relu" else z
        pre.append(z)
        post.append(h)
    return pre, post


def forward(net: DenseNetwork, x: np.ndarray) -> float | np.ndarray:
    """Network output; a 1-D input yields a scalar, a matrix yields a vector.
    This is scoring's forward pass, which keeps no activations. Each layer's
    product is einsum's `ij,jk->ik`, which computes a row's outputs from that
    row alone, so they do not depend on the other rows of the batch, as a
    BLAS product's do; training's `_forward_trace` keeps `@`."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.input_dim:
        raise ValidationError(f"input dimension {h.shape[1]} != network input {net.input_dim}")
    for w, b, act in zip(net.weights, net.biases, net.activations):
        h = np.einsum("ij,jk->ik", h, w)
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
    out = h[:, 0]
    return float(out[0]) if single else out


def huber_loss(y: np.ndarray, y_hat: np.ndarray, delta: float = DEFAULT_HUBER_DELTA) -> float:
    """Mean over samples of 1/2 e^2 for |e| <= delta, else delta(|e| - delta/2)."""
    if delta <= 0:
        raise ValidationError("delta must be > 0")
    e = np.asarray(y, dtype=float).ravel() - np.asarray(y_hat, dtype=float).ravel()
    if e.size == 0:
        raise ValidationError("empty batch")
    a = np.abs(e)
    per = np.where(a <= delta, 0.5 * e * e, delta * (a - 0.5 * delta))
    return float(np.mean(per))


def backward(net: DenseNetwork, X: np.ndarray, y: np.ndarray,
             delta: float = DEFAULT_HUBER_DELTA
             ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean Huber loss and exact parameter gradients for one full batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValidationError(f"{X.shape[0]} rows but {y.size} targets")
    pre, post = _forward_trace(net, X)
    if not np.all(np.isfinite(post[-1])):
        raise TrainingError("non-finite activations in forward pass")
    y_hat = post[-1][:, 0]
    e = y - y_hat
    loss = huber_loss(y, y_hat, delta)
    # d(loss)/d(y_hat): -e/n inside the quadratic region, clipped slope outside
    dloss = np.where(np.abs(e) <= delta, -e, -delta * np.sign(e)) / y.size
    grad = dloss[:, None]
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        if net.activations[l] == "relu":
            grad = grad * (pre[l] > 0)
        h_prev = X if l == 0 else post[l - 1]
        grads_w[l] = h_prev.T @ grad
        grads_b[l] = grad.sum(axis=0)
        if l > 0:
            grad = grad @ net.weights[l].T
    return loss, grads_w, grads_b


@dataclass
class DnnModel:
    network: DenseNetwork
    history: list[float] = field(default_factory=list)  # loss of every kept network
    config: TrainConfig = field(default_factory=TrainConfig)


def train_dnn(X: np.ndarray, y: np.ndarray, config: TrainConfig | None = None) -> DnnModel:
    """Full-batch Adam (`optim.adam_minimize`) on the mean Huber loss, over one
    flat vector that the weights and biases of every layer view. A failed step
    is logged and the network before it kept; plateau_stop also stops once the
    relative improvement over the trailing 20 epochs drops below 1e-5.
    """
    from .optim import adam_minimize

    config = config or TrainConfig()
    X, y = training_matrices(X, np.ravel(y))

    init = init_network(X.shape[1], config.hidden_sizes, config.seed)
    params = init.weights + init.biases
    cuts = np.cumsum([p.size for p in params])[:-1]

    def network(theta: np.ndarray) -> DenseNetwork:
        parts = [part.reshape(p.shape) for part, p in zip(np.split(theta, cuts), params)]
        return DenseNetwork(parts[:len(init.weights)], parts[len(init.weights):],
                            init.activations)

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grads_w, grads_b = backward(network(theta), X, y, config.huber_delta)
        return loss, np.concatenate([g.ravel() for g in grads_w + grads_b])

    def plateau(history: list[float]) -> bool:
        if len(history) <= PLATEAU_WINDOW:
            return False
        old = history[-PLATEAU_WINDOW - 1]
        return (old - history[-1]) < PLATEAU_REL_TOL * max(abs(old), 1e-12)

    theta = np.concatenate([p.ravel() for p in params])
    theta, history, failure = adam_minimize(loss_and_grad, theta, config.lr, config.epochs,
                                            plateau if config.plateau_stop else None)
    if failure is not None:
        log.warning("DNN training stopped: %s; keeping the state before it (loss %g)",
                    failure, history[-1])
    return DnnModel(network=network(theta), history=history, config=config)


def predict_dnn(model: DnnModel, X: np.ndarray) -> np.ndarray:
    out = forward(model.network, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.asarray(out, dtype=float)


def dnn_to_dict(model: DnnModel) -> dict:
    return {
        "kind": "dnn",
        "weights": [w.tolist() for w in model.network.weights],
        "biases": [b.tolist() for b in model.network.biases],
        "activations": list(model.network.activations),
        "huber_delta": model.config.huber_delta,
    }


DNN = {"kind": "dnn", "weights": [array(np.float64, 2)], "biases": [array(np.float64, 1)],
       "activations": [STRING], "huber_delta?": POSITIVE}


def dnn_from_dict(d: dict) -> DnnModel:
    d = parse(d, DNN)
    net = DenseNetwork(d["weights"], d["biases"], d["activations"])
    if net.weights[-1].shape[1] != 1:
        raise ValidationError(f"'weights' must end in a layer of one output, got "
                              f"{net.weights[-1].shape[1]}")
    huber_delta = DEFAULT_HUBER_DELTA if d["huber_delta"] is None else d["huber_delta"]
    return DnnModel(network=net, history=[], config=TrainConfig(huber_delta=huber_delta))
