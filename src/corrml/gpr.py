"""Exact Gaussian process regression with a constant mean, Gaussian noise,
marginal-likelihood training, and a log-transformed variant for positive rates.

Training minimizes the negative log marginal likelihood

    NLML = 1/2 (y - c)^T (K + s_n^2 I)^(-1) (y - c) + sum_i ln L_ii + n/2 ln 2pi

with Adam in log-hyperparameter space (Rasmussen & Williams, GPML, Alg. 2.1).
Training and prediction take r^2 from one routine, `kernels.sq_dist`: a dgemm
Gram product on rows centred on the training means.
Gradients use the trace identity dNLML/dtheta = 1/2 tr((Kinv - alpha alpha^T)
dK/dtheta) and d/dc = -1^T alpha (GPML eq. 5.9), with Kinv from LAPACK dpotri
on the Cholesky factor. For a lengthscale the trace is a sum over
W = (Kinv - alpha alpha^T) o P weighted by squared coordinate differences,
taken as sum_ij W_ij (x_id - x_jd)^2 = 2 (x_d^2 . W1 - x_d . W x_d).
Factorizations go through the jitter ladder; if a step drives the kernel
matrix past the ladder, training stops with a logged warning and keeps the
state before that step (`optim.adam_minimize`).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import ddot, dgemm, dpotri, dpotrs, dtrtrs
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
    same_rows,
    set_log_params,
    sq_dist,
)
from .optim import adam_minimize
from .preprocess import DEFAULT_LOG_EPSILON, training_matrices
from .schema import NONNEGATIVE, NUMBER, POSITIVE, STRING, array, one_of, parse

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


def cho_solve(c_and_lower: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """x with (L L^T) x = b for the Cholesky factor L given as (c, lower),
    the factor read from the lower triangle of c when `lower` is true."""
    c, lower = c_and_lower
    x, info = dpotrs(c, b, lower=int(lower))
    if info != 0:
        raise TrainingError(f"Cholesky solve failed (LAPACK dpotrs info {info})")
    return x


class _NlmlWorkspace:
    """NLML value and gradient over fixed training data, with reusable buffers.

    Only the d_v columns that vary over the training rows enter the kernel: a
    constant column adds exactly 0 to every r^2 and to its own lengthscale
    gradient, which is reported as an exact 0.0. Each leaf divides the centred
    varying columns by its lengthscales and takes r^2 from `kernels.sq_dist`,
    as `kernels.gram` does: exactly symmetric, and exactly 0 for the pairs of
    equal rows found here once. Every evaluation writes r^2, kernel values,
    gradient prefactors, K, its Cholesky factor, K^-1 and the gradient
    weights into n x n buffers owned here, as many whatever the input
    dimension, so after the first one an evaluation allocates no n x n
    arrays. The terms and factor an evaluation returns are overwritten by
    the next one.

    Every large BLAS product and LAPACK call goes through scipy's library, bound
    in `corrml._linalg`, none through numpy's: when both libraries run
    multi-threaded, their two thread pools compete for the cores and an epoch
    was about 5x slower on two cores.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X, y = training_matrices(X, np.ravel(y))
        self.X = X
        self.y = y
        self.n = n = X.shape[0]
        self.varying = np.flatnonzero(np.any(X != X[0], axis=0))
        Xv = X[:, self.varying]
        # differences are shift-invariant; centring keeps the terms of r^2's norm
        # expansion and of the gradient identity small relative to their difference
        self._xc = np.asfortranarray(Xv - Xv.mean(axis=0))
        self._same = same_rows(X, X)
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
            Z = self._xc / leaf.lengthscales[self.varying]
            sq_dist(Z, Z, self._same, out=r2, scratch=self._scratch)
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
        alpha = cho_solve((L, True), resid)
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
    """(NLML, gradient). The gradient is packed as the trainable parameters
    are: for each leaf kernel in pre-order, d/dln(l_d) for every lengthscale
    and then d/dln(variance); then d/dln(noise variance); last, d/d(mean)."""
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
    history: list[float] = field(default_factory=list)  # NLML of every kept state

    @property
    def prior_variance(self) -> float:
        return float(sum(leaf.variance for leaf in leaves(self.spec)))


def _finalize(workspace: _NlmlWorkspace, spec, noise_variance, c, history) -> GprModel:
    _, L, alpha, _, jitter = workspace._factorize(spec, noise_variance, c)
    return GprModel(x_train=workspace.X, y_train=workspace.y, spec=spec, mean=c,
                    noise_variance=noise_variance, chol=L.copy(order="F"), alpha=alpha,
                    jitter=jitter, history=history)


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
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError("lr must be finite and > 0")
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

    theta, history, failure = adam_minimize(
        lambda vec: workspace.value_and_grad(*unpack(vec)), theta, lr, epochs)
    if failure is not None:
        log.warning("GP training stopped: %s; keeping the state before it (NLML %g)",
                    failure, history[-1])
    return _finalize(workspace, *unpack(theta), history)


def predict_gpr(model: GprModel, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of an observation at new inputs.

    mean = c + K_*^T alpha; variance = k(x,x) - ||L^-1 K_*||^2 plus the noise
    variance (the latent rate's variance is this less model.noise_variance).
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.shape[1] != model.x_train.shape[1]:
        raise ValidationError(
            f"feature dimension {X_star.shape[1]} != training dimension "
            f"{model.x_train.shape[1]}")
    k_star = gram(model.x_train, X_star, model.spec)
    mean = model.mean + k_star.T @ model.alpha
    w, info = dtrtrs(model.chol, k_star, lower=1)
    if info != 0:
        raise TrainingError(f"triangular solve failed (LAPACK dtrtrs info {info})")
    var = model.prior_variance - np.sum(w * w, axis=0)
    var = np.maximum(var, 1e-12 * model.prior_variance)
    return mean, var + model.noise_variance


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
    mu, var = predict_gpr(model.inner, X_star)
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


GPR = {"kind": "gpr", "kernel": kernel_from_dict, "mean": NUMBER, "noise_variance": POSITIVE,
       "x_train": array(np.float64, 2), "y_train": array(np.float64, 1), "checksum": STRING}


def gpr_from_dict(d: dict) -> GprModel:
    d = parse(d, GPR)
    if _data_checksum(d["x_train"], d["y_train"]) != d["checksum"]:
        raise ValidationError("training-data checksum mismatch")
    return _finalize(_NlmlWorkspace(d["x_train"], d["y_train"]), d["kernel"],
                     d["noise_variance"], d["mean"], [])


def log_gpr_to_dict(model: LogGprModel) -> dict:
    return {"kind": "log-gpr", "inner": gpr_to_dict(model.inner),
            "epsilon": float(model.epsilon), "back_transform": model.back_transform}


# `inner` calls gpr_from_dict by name, so a wrapper bound to the module name
# (bench/tracing.py times GP loads that way) sees the inner load
LOG_GPR = {"kind": "log-gpr", "inner": lambda d: gpr_from_dict(d), "epsilon": NONNEGATIVE,
           "back_transform": one_of("median", "mean")}


def log_gpr_from_dict(d: dict) -> LogGprModel:
    return LogGprModel(**parse(d, LOG_GPR))
