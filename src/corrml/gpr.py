"""Exact Gaussian process regression with a constant mean, Gaussian noise,
marginal-likelihood training, and a log-transformed variant for positive rates.

Training minimizes the negative log marginal likelihood

    NLML = 1/2 (y - c)^T (K + s_n^2 I)^(-1) (y - c) + sum_i ln L_ii + n/2 ln 2pi

with Adam in log-hyperparameter space (Rasmussen & Williams, GPML, Alg. 2.1).
All take r^2 from rows centred on the training means: training's NLML
epochs from `kernels.sq_dist`'s dgemm Gram product, a fitted or loaded
model's K from `kernels.gram` (einsum loops over the same centred rows),
and prediction from `kernels.cross_sq_dist`, which computes a query's
distances from its own row alone. Every product of a prediction is one of
numpy's einsum forms, which compute each query's result from its own row,
so a query's prediction does not depend on the other rows of its batch, as
a BLAS product's would. A model's Cholesky factor, alpha and L^-1 are
einsum forms too (`_finalize`), so scoring from a model file runs no BLAS
and depends on no BLAS core type or thread count; only training imports
`corrml._linalg`, and with it scipy.
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

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TrainingError, ValidationError
from .kernels import (
    KernelSpec,
    MaternKernel,
    RbfKernel,
    SumKernel,
    ard_dim,
    cholesky_jitter,
    centred_rows,
    cross_gram,
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

# CPython's own SHA-256 module, as random.py takes its _sha512: hashlib loads
# OpenSSL's libcrypto (3.5 MB of resident memory) for one checksum
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

log = logging.getLogger(__name__)

DEFAULT_GPR_LR = 0.05
DEFAULT_GPR_EPOCHS = 200

LOG2PI = math.log(2.0 * math.pi)
# the training rows a GP model may hold: each of its n x n float64 arrays is
# 128 MiB at this bound
MAX_TRAIN_ROWS = 4096


def _bounded_rows(n: int) -> None:
    """Refuse `n` training rows over MAX_TRAIN_ROWS, before any n x n array."""
    if n > MAX_TRAIN_ROWS:
        raise ValidationError(f"a GP model takes at most {MAX_TRAIN_ROWS} training rows, got {n}")


def default_plain_kernel(dim: int) -> KernelSpec:
    """Reference kernel for rate-space fits: ARD Matern nu=3/2."""
    return MaternKernel(np.ones(dim), 1.0, nu=1.5)


def default_log_kernel(dim: int) -> KernelSpec:
    """Reference kernel for log-space fits: ARD RBF + ARD Matern nu=5/2."""
    return SumKernel(RbfKernel(np.ones(dim), 1.0), MaternKernel(np.ones(dim), 1.0, nu=2.5))


def cho_solve(c_and_lower: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """x with (L L^T) x = b for the Cholesky factor L given as (c, lower),
    the factor read from the lower triangle of c when `lower` is true."""
    from ._linalg import dpotrs

    c, lower = c_and_lower
    x, info = dpotrs(c, b, lower=int(lower))
    if info != 0:
        raise TrainingError(f"Cholesky solve failed (LAPACK dpotrs info {info})")
    return x


class _NlmlWorkspace:
    """NLML value and gradient over fixed training data, with reusable buffers.

    Only the d_v columns that vary over the training rows enter the kernel: a
    constant column adds exactly 0 to every r^2 and to its own lengthscale
    gradient, which is reported as an exact 0.0. Each leaf divides the
    centred varying columns (`kernels.centred_rows`) by its lengthscales and
    takes r^2 from `kernels.sq_dist`: exactly symmetric, and exactly 0 for
    the pairs of equal rows found here once. The n x n buffers are as many
    whatever the input dimension, so after the first evaluation one
    allocates no n x n arrays:

    - K, and the factor buffer, which holds L once K is factored;
    - each leaf's values k, written over its r^2, and its prefactor p,
      except an RBF leaf's, whose p is its k.

    No buffer holds K^-1 or the gradient weights on its own. K is not read
    once factored, nor L once alpha and the value are taken from it: a
    gradient computes K^-1 over L in place (LAPACK dpotri), writes
    A = K^-1 - alpha alpha^T over K, and each leaf's weights A o p over the
    factor buffer, which until the factorization is also `sq_dist`'s
    scratch and the kernels' work array. So a gradient overwrites the
    factor `_factorize` returns, and the next evaluation every buffer.

    Every large BLAS product and LAPACK call of an NLML evaluation goes
    through scipy's library, bound in `corrml._linalg`, none through numpy's:
    when both libraries run multi-threaded, their two thread pools compete
    for the cores and an epoch was about 5x slower on two cores.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X, y = training_matrices(X, np.ravel(y))
        _bounded_rows(X.shape[0])
        self.X = X
        self.y = y
        self.n = n = X.shape[0]
        self.varying, self._xc = centred_rows(X)
        self._same = same_rows(X, X)
        self._K = np.empty((n, n))
        self._L = np.empty((n, n), order="F")
        # the squared centred columns, the gradient's dgemm output, and each
        # leaf's [k, p], p made once a leaf needs it
        self._xc2 = self._wx = None
        self._leaf_bufs: list[list] = []

    def _leaf_terms(self, spec: KernelSpec):
        """Each leaf's (1/l^2, k, p) in pre-order, p None for an RBF leaf, its
        k its values written over its r^2 in its own buffers, and their sum,
        K without its noise, in K. The factor's buffer, free until the
        factorization, is `sq_dist`'s scratch and the kernels' work array."""
        K, n = self._K, self.n
        free = self._L.T  # the factor buffer's C-ordered view
        terms = []
        for i, leaf in enumerate(leaves(spec)):
            if leaf.lengthscales.size != self.X.shape[1]:
                raise ValidationError(
                    f"ARD lengthscale count {leaf.lengthscales.size} != input "
                    f"dimension {self.X.shape[1]}")
            if i == len(self._leaf_bufs):
                self._leaf_bufs.append([np.empty((n, n)), None])
            k, p = self._leaf_bufs[i]
            if p is None and not isinstance(leaf, RbfKernel):  # an RBF leaf's P is its k
                p = self._leaf_bufs[i][1] = np.empty((n, n))
            Z = self._xc / leaf.lengthscales[self.varying]
            sq_dist(Z, self._same, out=k, scratch=free)
            leaf.value(k, (free,), p)
            terms.append((1.0 / (leaf.lengthscales * leaf.lengthscales), k, p))
            if i:
                K += k
            else:
                np.copyto(K, k)
        return terms

    def _factorize(self, spec, noise_variance, c):
        """(terms, L, alpha, NLML, jitter) at these hyperparameters."""
        terms = self._leaf_terms(spec)
        K = self._K
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
        from ._linalg import ddot, dgemm, dpotri

        terms, L, alpha, value, _ = self._factorize(spec, noise_variance, c)
        if self._xc2 is None:
            self._xc2 = self._xc * self._xc
            self._wx = np.empty_like(self._xc)
        # K^-1 from the factor (LAPACK dpotri), computed over the factor's
        # lower triangle; the upper triangle is the factor's exact zeros, so
        # inv + inv^T mirrors it with a doubled diagonal. That sum goes over
        # K, not read once factored, as a copy and a sum of C-ordered
        # operands: numpy buffers a ufunc over mixed orders or a
        # two-dimensional broadcast, 64 KiB an operand at n = 200
        inv, A = L, self._K
        _, info = dpotri(inv, lower=1, overwrite_c=1)
        if info != 0:
            raise TrainingError(f"kernel matrix inverse failed (LAPACK info {info})")
        np.copyto(A, inv)
        np.add(A, inv.T, out=A)
        A.flat[::self.n + 1] *= 0.5
        W = inv.T                               # free once A holds K^-1
        np.copyto(W, alpha[:, None])
        W *= alpha                              # alpha alpha^T, one buffered operand
        A -= W                                  # A = K^-1 - alpha alpha^T
        grad = []
        for inv_ls2, k, p in terms:
            ls_grad = np.zeros(inv_ls2.size)
            if self.varying.size:
                np.multiply(A, k if p is None else p, out=W)
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

    @cached_property
    def chol_inverse(self) -> np.ndarray:
        """L^-1, C-ordered, made once a predictive variance is first asked for:
        a query's ||L^-1 k_*||^2 is then a product over its own row, where a
        triangular solve over a batch's columns rounds each column
        differently with the batch. Row i of L^-1 is taken by substitution
        from the rows above it, each entry one einsum dot, so its bits
        depend on no BLAS. A zero or non-finite pivot is a TrainingError."""
        L = np.ascontiguousarray(self.chol)
        inv = np.zeros(L.shape)
        for i in range(L.shape[0]):
            pivot = L[i, i]
            if pivot == 0.0 or not math.isfinite(pivot):
                raise TrainingError(f"triangular inverse failed: the factor's pivot "
                                    f"L[{i}, {i}] is {pivot:g}")
            row = inv[i, :i]
            np.einsum("k,kj->j", L[i, :i], inv[:i, :i], out=row)
            row /= -pivot
            inv[i, i] = 1.0 / pivot
        return inv


def _substitute(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (L L^T) x = b for the C-ordered lower factor L, by forward and
    then back substitution, each entry one einsum dot of a row or column of
    L with the entries already solved, so its bits depend on no BLAS."""
    x = np.empty(b.size)
    for i in range(b.size):
        x[i] = (b[i] - np.einsum("i,i->", L[i, :i], x[:i])) / L[i, i]
    for i in reversed(range(b.size)):
        x[i] = (x[i] - np.einsum("i,i->", L[i + 1:, i], x[i + 1:])) / L[i, i]
    return x


def _finalize(X: np.ndarray, y: np.ndarray, spec, noise_variance, c, history,
              origin: str) -> GprModel:
    """The model of these hyperparameters over the training rows (X, y), as
    `training_matrices` returns them. K is `kernels.gram(X, X, spec)` plus the
    noise, and its factor and alpha are numpy only, so a model scores the
    same under any BLAS and a process that loads one loads no BLAS binding.
    `origin` ("fitted" or "loaded") names the model if K needs jitter."""
    K = gram(X, X, spec)
    K.flat[::X.shape[0] + 1] += noise_variance
    L, jitter = cholesky_jitter(K, blas=False)
    if jitter:
        log.warning("%s GP model (%d training rows, noise variance %g) factors only with "
                    "jitter %g added to the diagonal of its kernel matrix",
                    origin, X.shape[0], noise_variance, jitter)
    return GprModel(x_train=X, y_train=y, spec=spec, mean=c, noise_variance=noise_variance,
                    chol=L, alpha=_substitute(L, y - c), jitter=jitter, history=history)


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
    X, y = workspace.X, workspace.y
    del workspace  # training's buffers go before the model's K is built
    return _finalize(X, y, *unpack(theta), history, "fitted")


def predict_gpr(model: GprModel, X_star: np.ndarray, variance: bool = True
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior mean and, with `variance`, the variance of an observation at
    new inputs (None without).

    mean = c + K_*^T alpha; variance = k(x,x) - ||L^-1 K_*||^2 plus the noise
    variance (the latent rate's variance is this less model.noise_variance).
    Each row's results are computed from that row alone (`kernels.cross_gram`,
    and einsum over the query-major K_*), so they do not depend on the batch.
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.shape[1] != model.x_train.shape[1]:
        raise ValidationError(
            f"feature dimension {X_star.shape[1]} != training dimension "
            f"{model.x_train.shape[1]}")
    k_star = cross_gram(model.x_train, X_star, model.spec)
    mean = model.mean + np.einsum("ij,j->i", k_star, model.alpha)
    if not variance:
        return mean, None
    w = np.einsum("ij,kj->ik", k_star, model.chol_inverse)  # row i: L^-1 k_*i
    var = model.prior_variance - np.einsum("ij,ij->i", w, w)
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
    mu, var = predict_gpr(model.inner, X_star, variance=model.back_transform == "mean")
    return back_transform_log_predictions(mu, var, model.epsilon, model.back_transform)


def _data_checksum(X: np.ndarray, y: np.ndarray) -> str:
    h = sha256()
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
    _bounded_rows(d["x_train"].shape[0])
    if _data_checksum(d["x_train"], d["y_train"]) != d["checksum"]:
        raise ValidationError("training-data checksum mismatch")
    return _finalize(*training_matrices(d["x_train"], d["y_train"]), d["kernel"],
                     d["noise_variance"], d["mean"], [], "loaded")


def log_gpr_to_dict(model: LogGprModel) -> dict:
    return {"kind": "log-gpr", "inner": gpr_to_dict(model.inner),
            "epsilon": float(model.epsilon), "back_transform": model.back_transform}


# `inner` calls gpr_from_dict by name, so a wrapper bound to the module name
# (bench/tracing.py times GP loads that way) sees the inner load
LOG_GPR = {"kind": "log-gpr", "inner": lambda d: gpr_from_dict(d), "epsilon": NONNEGATIVE,
           "back_transform": one_of("median", "mean")}


def log_gpr_from_dict(d: dict) -> LogGprModel:
    return LogGprModel(**parse(d, LOG_GPR))
