"""Reference NLML value and gradient: a (d, n, n) stack of squared differences
over every column, K^-1 from a Cholesky solve against the identity, and the
per-dimension lengthscale gradient as a tensordot over the stack, as
corrml.gpr computed them before its workspace dropped constant columns and
took K^-1 from LAPACK dpotri with the matmul-identity gradient.

Kept only as the oracle the workspace must match (tests/test_gp_workspace.py).
"""

import math

import numpy as np
from scipy.linalg import cho_solve

from corrml.kernels import leaves

LOG2PI = math.log(2.0 * math.pi)


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
        k, p = leaf.value_and_prefactor(r2)
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
