"""Reference NLML value and gradient: a (d, n, n) stack of squared differences
over every column, K^-1 from a Cholesky solve against the identity, and the
per-dimension lengthscale gradient as a tensordot over the stack, as
corrml.gpr computed them before its workspace dropped constant columns and
took K^-1 from LAPACK dpotri with the matmul-identity gradient. Each leaf's
values and lengthscale-gradient prefactor come from their closed forms here
(`kernel_and_prefactor`), not from corrml's kernels.

Kept only as the oracle the workspace must match (tests/test_gp_workspace.py),
together with the names tests give the packed parameters and gradient entries.
"""

import math

import numpy as np
from scipy.linalg import cho_solve

from corrml.kernels import RbfKernel, leaves

LOG2PI = math.log(2.0 * math.pi)


def kernel_and_prefactor(leaf, r2):
    """K and the prefactor P = -K'(r) / r with dK/dln(l_d) = P * s_d, for s_d
    the per-dimension scaled squared distance, in closed form (Rasmussen &
    Williams, GPML, eqs. 4.14 and 4.16-4.17). P is taken as 0 at r = 0 for
    Matern 1/2, its limit once multiplied by s_d."""
    v = leaf.variance
    if isinstance(leaf, RbfKernel):
        k = v * np.exp(-0.5 * r2)
        return k, k
    r = np.sqrt(r2)
    if leaf.nu == 0.5:
        k = v * np.exp(-r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return k, np.where(r > 0, k / r, 0.0)
    a = math.sqrt(3.0) if leaf.nu == 1.5 else math.sqrt(5.0)
    e = np.exp(-a * r)
    if leaf.nu == 1.5:
        return v * (1.0 + a * r) * e, 3.0 * v * e
    return v * (1.0 + a * r + (5.0 / 3.0) * r2) * e, (5.0 / 3.0) * v * (1.0 + a * r) * e


def param_names(spec):
    """Log-space kernel hyperparameter ids, in get_log_params order."""
    names = []
    for i, leaf in enumerate(leaves(spec)):
        names += [f"k{i}.log_lengthscale.{d}" for d in range(leaf.lengthscales.size)]
        names.append(f"k{i}.log_variance")
    return names


def gpr_param_names(spec):
    """Packed trainable-parameter order, as nlml_grad orders its gradient:
    kernel params, ln noise variance, mean."""
    return param_names(spec) + ["log_noise_variance", "mean"]


def value_and_grad(X, y, spec, noise_variance, c):
    """(NLML, gradient) with gradient ordered per gpr_param_names(spec)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    sqd = np.ascontiguousarray(np.moveaxis(diff * diff, 2, 0))
    terms = []
    for leaf in leaves(spec):
        inv_ls2 = 1.0 / (leaf.lengthscales * leaf.lengthscales)
        r2 = np.tensordot(inv_ls2, sqd, axes=1)
        k, p = kernel_and_prefactor(leaf, r2)
        terms.append((inv_ls2, k, p))
    K = sum(k for _, k, _ in terms)
    K[np.diag_indices(n)] += noise_variance
    L = np.linalg.cholesky(K)
    resid = y - c
    alpha = cho_solve((L, True), resid)
    value = (0.5 * float(resid @ alpha) + float(np.sum(np.log(np.diag(L))))
             + 0.5 * n * LOG2PI)
    A = cho_solve((L, True), np.eye(n)) - np.outer(alpha, alpha)
    grad = []
    for inv_ls2, k, p in terms:
        # all lengthscale partials at once: 1/2 sum_ij A_ij P_ij sqd[d]_ij / ls_d^2
        per_dim = np.tensordot(sqd, A * p, axes=([1, 2], [0, 1]))
        grad.extend(0.5 * per_dim * inv_ls2)
        grad.append(0.5 * float(np.sum(A * k)))
    grad.append(0.5 * float(np.trace(A)) * noise_variance)
    grad.append(-float(np.sum(alpha)))
    return value, np.asarray(grad)
