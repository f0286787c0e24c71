"""Exact Gaussian process regression with a constant mean, Gaussian noise,
marginal-likelihood training, and a log-transformed variant for positive rates.

Training minimizes the negative log marginal likelihood

    NLML = 1/2 (y - c)^T (K + s_n^2 I)^(-1) (y - c) + sum_i ln L_ii + n/2 ln 2pi

with Adam in log-hyperparameter space (Rasmussen & Williams, GPML, Alg. 2.1).
Gradients use the trace identity dNLML/dtheta = 1/2 tr((Kinv - alpha alpha^T)
dK/dtheta) and d/dc = -1^T alpha (GPML eq. 5.9), with Kinv from LAPACK dpotri
on the Cholesky factor. For a lengthscale the trace is a sum over
W = (Kinv - alpha alpha^T) o P weighted by squared coordinate differences,
taken as sum_ij W_ij (x_id - x_jd)^2 = 2 (x_d^2 . W1 - x_d . W x_d).
Factorizations go through the jitter ladder; if a step drives the kernel
matrix past the ladder, training stops with a logged warning and keeps the
last factorizable state.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import ddot, dgemm, dgemv
from scipy.linalg.lapack import dpotri

from .errors import TrainingError, ValidationError
from .kernels import (
    KernelSpec,
    MaternKernel,
    RbfKernel,
    SumKernel,
    ard_dim,
    cholesky_jitter,
    gram,
    kernel_from_dict,
    kernel_to_dict,
    leaves,
    param_names,
    set_log_params,
)
from .optim import adam_init, adam_step
from .preprocess import DEFAULT_LOG_EPSILON

log = logging.getLogger(__name__)

DEFAULT_GPR_LR = 0.05
DEFAULT_GPR_EPOCHS = 200

LOG2PI = math.log(2.0 * math.pi)


def default_plain_kernel(dim: int) -> KernelSpec:
    """Reference kernel for rate-space fits: ARD Matern nu=3/2."""
    return MaternKernel(np.ones(dim), 1.0, nu=1.5)


def default_log_kernel(dim: int) -> KernelSpec:
    """Reference kernel for log-space fits: ARD RBF + ARD Matern nu=5/2."""
    return SumKernel(RbfKernel(np.ones(dim), 1.0), MaternKernel(np.ones(dim), 1.0, nu=2.5))


def gpr_param_names(spec: KernelSpec) -> list[str]:
    """Packed trainable-parameter order: kernel params, ln noise variance, mean."""
    return param_names(spec) + ["log_noise_variance", "mean"]


class _NlmlWorkspace:
    """NLML value and gradient over fixed training data, with reusable buffers.

    Only the d_v columns that vary over the training rows enter the kernel: a
    constant column adds exactly 0 to every r^2 and to its own lengthscale
    gradient, which is reported as an exact 0.0. The (d_v, n, n) stack of
    squared coordinate differences is built once, one column at a time, and
    r^2 is its tensordot with the inverse squared lengthscales, so r^2 is
    exactly symmetric with exact zeros on the diagonal. Every evaluation writes
    r^2, kernel values, gradient prefactors, K, its Cholesky factor, K^-1 and
    the gradient weights into n x n buffers owned here, so after the first one
    an evaluation allocates no n x n arrays. The terms and factor an evaluation
    returns are overwritten by the next one.

    Every large BLAS product and LAPACK call goes through scipy's library, none
    through numpy's: when both libraries run multi-threaded, their two thread
    pools compete for the cores and an epoch was about 5x slower on two cores.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValidationError("feature matrix must be 2-D")
        if X.shape[0] != y.size:
            raise ValidationError(f"{X.shape[0]} rows but {y.size} targets")
        if X.shape[0] < 1:
            raise ValidationError("need at least one sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValidationError("non-finite training values")
        self.X = X
        self.y = y
        self.n = n = X.shape[0]
        self.varying = np.flatnonzero(np.any(X != X[0], axis=0))
        Xv = X[:, self.varying]
        self.sqd = np.empty((self.varying.size, n, n))
        for j, col in enumerate(Xv.T):
            np.subtract(col[:, None], col[None, :], out=self.sqd[j])
            self.sqd[j] *= self.sqd[j]
        # differences are shift-invariant; centring keeps the gradient identity's
        # two terms small relative to their difference
        self._xc = np.asfortranarray(Xv - Xv.mean(axis=0))
        self._xc2 = self._xc * self._xc
        self._wx = np.empty_like(self._xc)
        self._K = np.empty((n, n))
        self._L = np.empty((n, n), order="F")
        self._inv = np.empty((n, n), order="F")
        self._A = np.empty((n, n))
        self._scratch = np.empty((n, n))
        self._leaf_bufs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _leaf_terms(self, spec: KernelSpec):
        terms = []
        for i, leaf in enumerate(leaves(spec)):
            if leaf.lengthscales.size != self.X.shape[1]:
                raise ValidationError(
                    f"ARD lengthscale count {leaf.lengthscales.size} != input "
                    f"dimension {self.X.shape[1]}")
            if i == len(self._leaf_bufs):
                self._leaf_bufs.append(tuple(np.empty((self.n, self.n)) for _ in range(3)))
            r2, k, p = self._leaf_bufs[i]
            inv_ls2 = 1.0 / (leaf.lengthscales * leaf.lengthscales)
            if self.varying.size:
                # np.tensordot(inv_ls2, sqd, axes=1), written into the r2 buffer
                dgemv(1.0, self.sqd.reshape(self.varying.size, -1).T, inv_ls2[self.varying],
                      beta=0.0, y=r2.reshape(-1), overwrite_y=1)
            else:
                r2.fill(0.0)
            k, p = leaf.value_and_prefactor(r2, k, p, self._scratch)
            terms.append((leaf, inv_ls2, r2, k, p))
        return terms

    def _factorize(self, spec, noise_variance, c):
        terms = self._leaf_terms(spec)
        K = self._K
        np.copyto(K, terms[0][3])
        for term in terms[1:]:
            K += term[3]
        K.flat[::self.n + 1] += noise_variance
        L, jitter = cholesky_jitter(K, out=self._L)
        resid = self.y - c
        alpha = cho_solve((L, True), resid, check_finite=False)
        value = (0.5 * float(resid @ alpha)
                 + float(np.sum(np.log(np.diag(L))))
                 + 0.5 * self.n * LOG2PI)
        return terms, L, alpha, value, jitter

    def value(self, spec: KernelSpec, noise_variance: float, c: float) -> float:
        return self._factorize(spec, noise_variance, c)[3]

    def value_and_grad(self, spec: KernelSpec, noise_variance: float, c: float
                       ) -> tuple[float, np.ndarray]:
        terms, L, alpha, value, _ = self._factorize(spec, noise_variance, c)
        # K^-1 from the factor (LAPACK dpotri), held in the lower triangle of
        # `inv`; its upper triangle is the factor's exact zeros, so inv + inv^T
        # mirrors it with a doubled diagonal
        inv, A = self._inv, self._A
        np.copyto(inv, L)
        _, info = dpotri(inv, lower=1, overwrite_c=1)
        if info != 0:
            raise TrainingError(f"kernel matrix inverse failed (LAPACK info {info})")
        np.add(inv, inv.T, out=A)
        A.flat[::self.n + 1] *= 0.5
        W = self._scratch                       # free once the leaf terms are built
        np.multiply(alpha[:, None], alpha[None, :], out=W)
        A -= W                                  # A = K^-1 - alpha alpha^T
        grad = []
        for _, inv_ls2, _, k, p in terms:
            ls_grad = np.zeros(inv_ls2.size)
            if self.varying.size:
                np.multiply(A, p, out=W)
                # sum_ij W_ij (x_id - x_jd)^2 = 2 (x_d^2 . W1 - x_d . W x_d), W symmetric;
                # W^T is W in the Fortran order BLAS takes without a copy
                dgemm(1.0, W.T, self._xc, beta=0.0, c=self._wx, overwrite_c=1)
                per_dim = (self._xc2.T @ W.sum(axis=1)
                           - np.einsum("ij,ij->j", self._xc, self._wx))
                ls_grad[self.varying] = per_dim * inv_ls2[self.varying]
            grad.extend(ls_grad)
            grad.append(0.5 * ddot(A.reshape(-1), k.reshape(-1)))
        grad.append(0.5 * float(np.trace(A)) * noise_variance)
        grad.append(-float(np.sum(alpha)))
        return value, np.asarray(grad)


def nlml(X: np.ndarray, y: np.ndarray, spec: KernelSpec, noise_variance: float,
         mean: float) -> float:
    """Negative log marginal likelihood of (X, y) under the given hyperparameters."""
    if noise_variance < 0:
        raise ValidationError("noise variance must be >= 0")
    return _NlmlWorkspace(X, y).value(spec, noise_variance, mean)


def nlml_grad(X: np.ndarray, y: np.ndarray, spec: KernelSpec, noise_variance: float,
              mean: float) -> tuple[float, np.ndarray]:
    """(NLML, gradient) with gradient ordered per gpr_param_names(spec)."""
    if noise_variance < 0:
        raise ValidationError("noise variance must be >= 0")
    return _NlmlWorkspace(X, y).value_and_grad(spec, noise_variance, mean)


@dataclass
class GprModel:
    x_train: np.ndarray
    y_train: np.ndarray
    spec: KernelSpec
    mean: float
    noise_variance: float
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0
    history: list[float] = field(default_factory=list)  # NLML per epoch, then final

    @property
    def prior_variance(self) -> float:
        return float(sum(leaf.variance for leaf in leaves(self.spec)))


def _finalize(workspace: _NlmlWorkspace, spec, noise_variance, c, history) -> GprModel:
    _, L, alpha, value, jitter = workspace._factorize(spec, noise_variance, c)
    return GprModel(x_train=workspace.X, y_train=workspace.y, spec=spec, mean=c,
                    noise_variance=noise_variance, chol=L.copy(order="F"), alpha=alpha,
                    jitter=jitter, history=history + [value])


def fit_gpr(X: np.ndarray, y: np.ndarray, spec: KernelSpec | None = None,
            epochs: int = DEFAULT_GPR_EPOCHS, lr: float = DEFAULT_GPR_LR) -> GprModel:
    """Train hyperparameters by Adam on the NLML.

    The kernel argument fixes structure only (RBF/Matern/sum, ARD dimension);
    starting values follow a fixed rule in scaled feature space: unit
    lengthscales, total signal variance var(y) split across leaves, noise
    variance 0.1 var(y), mean = mean(y). Training is deterministic.
    """
    workspace = _NlmlWorkspace(X, y)
    if workspace.n < 2:
        raise ValidationError("need at least two samples to fit")
    if epochs < 0:
        raise ValidationError("epochs must be >= 0")
    dim = workspace.X.shape[1]
    spec = default_plain_kernel(dim) if spec is None else spec
    if ard_dim(spec) != dim:
        raise ValidationError(f"kernel ARD dimension {ard_dim(spec)} != feature dimension {dim}")

    y_var = float(np.var(workspace.y))
    if y_var <= 0.0:
        y_var = 1.0  # constant targets: fall back to unit scale
    n_leaves = len(leaves(spec))
    log_ls = np.zeros(dim)
    theta_parts = []
    for _ in range(n_leaves):
        theta_parts.append(log_ls)
        theta_parts.append([math.log(y_var / n_leaves)])
    theta = np.concatenate(theta_parts + [[math.log(0.1 * y_var)], [float(np.mean(workspace.y))]])

    def unpack(vec):
        # values outside the representable range are a numerical failure of
        # the optimization, not an input-validation problem
        try:
            k = set_log_params(spec, vec[:-2])
            noise_var = math.exp(vec[-2])
        except (ValidationError, OverflowError) as exc:
            raise TrainingError(f"hyperparameters left the representable range: {exc}") from exc
        if not math.isfinite(noise_var):
            raise TrainingError("noise variance overflowed during training")
        return k, noise_var, float(vec[-1])

    state = adam_init(theta.shape, lr)
    history: list[float] = []
    last_valid = None
    for epoch in range(epochs):
        try:
            kern, noise_var, c = unpack(theta)
            value, grad = workspace.value_and_grad(kern, noise_var, c)
        except TrainingError as exc:
            log.warning("GP training stopped at epoch %d of %d: %s", epoch + 1, epochs, exc)
            theta = None  # fails again if retried; fall back to the last valid state
            break
        history.append(value)
        last_valid = theta
        state, theta = adam_step(state, theta, grad)

    for candidate in (theta, last_valid):
        if candidate is None:
            continue
        try:
            kern, noise_var, c = unpack(candidate)
            return _finalize(workspace, kern, noise_var, c, history)
        except TrainingError as exc:
            if candidate is theta and last_valid is not None:
                log.warning("GP state after the last Adam step could not be factorized "
                            "(%s); keeping the state of epoch %d", exc, len(history))
    raise TrainingError("kernel matrix could not be factorized at any visited state")


def predict_gpr(model: GprModel, X_star: np.ndarray, include_noise: bool = True
                ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at new inputs.

    mean = c + K_*^T alpha; variance = k(x,x) - ||L^-1 K_*||^2, plus the noise
    variance by default (predicting observations rather than the latent rate).
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.shape[1] != model.x_train.shape[1]:
        raise ValidationError(
            f"feature dimension {X_star.shape[1]} != training dimension "
            f"{model.x_train.shape[1]}")
    k_star = gram(model.x_train, X_star, model.spec)
    mean = model.mean + k_star.T @ model.alpha
    w = solve_triangular(model.chol, k_star, lower=True, check_finite=False)
    var = model.prior_variance - np.sum(w * w, axis=0)
    var = np.maximum(var, 1e-12 * model.prior_variance)
    if include_noise:
        var = var + model.noise_variance
    return mean, var


@dataclass
class LogGprModel:
    inner: GprModel
    epsilon: float
    back_transform: str  # "median" or "mean"


def fit_log_gpr(X: np.ndarray, y: np.ndarray, spec: KernelSpec | None = None,
                epochs: int = DEFAULT_GPR_EPOCHS, lr: float = DEFAULT_GPR_LR,
                epsilon: float = DEFAULT_LOG_EPSILON,
                back_transform: str = "median") -> LogGprModel:
    """GPR on ln(y + epsilon); predictions are mapped back to rate space."""
    if back_transform not in ("median", "mean"):
        raise ValidationError(f"back_transform must be 'median' or 'mean', got {back_transform!r}")
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    y = np.asarray(y, dtype=float).ravel()
    if np.any(y + epsilon <= 0):
        raise ValidationError("targets must satisfy y + epsilon > 0 for the log transform")
    dim = np.atleast_2d(X).shape[1]
    spec = default_log_kernel(dim) if spec is None else spec
    inner = fit_gpr(X, np.log(y + epsilon), spec=spec, epochs=epochs, lr=lr)
    return LogGprModel(inner=inner, epsilon=epsilon, back_transform=back_transform)


def back_transform_log_predictions(mu: np.ndarray, var: np.ndarray, epsilon: float,
                                   mode: str) -> np.ndarray:
    """Map a log-space predictive Gaussian back to rate space, clamped at zero.

    median mode: exp(mu) - epsilon (log-normal median, robust to the error
    amplification of exponentiation); mean mode: exp(mu + var/2) - epsilon.
    """
    if mode == "median":
        out = np.exp(np.asarray(mu, dtype=float)) - epsilon
    elif mode == "mean":
        out = np.exp(np.asarray(mu, dtype=float) + 0.5 * np.asarray(var, dtype=float)) - epsilon
    else:
        raise ValidationError(f"back_transform must be 'median' or 'mean', got {mode!r}")
    return np.maximum(out, 0.0)


def predict_log_gpr(model: LogGprModel, X_star: np.ndarray) -> np.ndarray:
    """Back-transformed rate predictions, clamped to be non-negative."""
    mu, var = predict_gpr(model.inner, X_star, include_noise=True)
    return back_transform_log_predictions(mu, var, model.epsilon, model.back_transform)


def _data_checksum(X: np.ndarray, y: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype=float).tobytes())
    h.update(np.ascontiguousarray(y, dtype=float).tobytes())
    h.update(repr(X.shape).encode())
    return h.hexdigest()


def gpr_to_dict(model: GprModel) -> dict:
    """Serializable form; the Cholesky factor and alpha are rebuilt on load."""
    return {
        "kind": "gpr",
        "kernel": kernel_to_dict(model.spec),
        "mean": float(model.mean),
        "noise_variance": float(model.noise_variance),
        "x_train": model.x_train.tolist(),
        "y_train": model.y_train.tolist(),
        "checksum": _data_checksum(model.x_train, model.y_train),
    }


def gpr_from_dict(d: dict) -> GprModel:
    if d.get("kind") != "gpr":
        raise ValidationError(f"expected kind 'gpr', got {d.get('kind')!r}")
    X = np.asarray(d["x_train"], dtype=float)
    y = np.asarray(d["y_train"], dtype=float)
    if _data_checksum(X, y) != d["checksum"]:
        raise ValidationError("training-data checksum mismatch")
    spec = kernel_from_dict(d["kernel"])
    workspace = _NlmlWorkspace(X, y)
    model = _finalize(workspace, spec, float(d["noise_variance"]), float(d["mean"]), [])
    return model


def log_gpr_to_dict(model: LogGprModel) -> dict:
    return {"kind": "log-gpr", "inner": gpr_to_dict(model.inner),
            "epsilon": float(model.epsilon), "back_transform": model.back_transform}


def log_gpr_from_dict(d: dict) -> LogGprModel:
    if d.get("kind") != "log-gpr":
        raise ValidationError(f"expected kind 'log-gpr', got {d.get('kind')!r}")
    return LogGprModel(inner=gpr_from_dict(d["inner"]), epsilon=float(d["epsilon"]),
                       back_transform=str(d["back_transform"]))
