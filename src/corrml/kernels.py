"""Covariance functions: ARD RBF, ARD Matern (half-integer nu), sums of kernels,
scaled squared distances, Gram matrices, log-space hyperparameter packing,
per-leaf lengthscale-gradient prefactors (the GP layer assembles the analytic
gradients from them), and jitter-stabilized Cholesky factorization.

Every kernel works on a scaled squared distance r^2 = sum_d (x_d - x'_d)^2 / l_d^2
with one lengthscale per input dimension (ARD) and an output variance per leaf.
`sq_dist` computes it for training and prediction alike from one dgemm Gram
product, exactly 0 for equal rows and exactly symmetric over one set of rows.
Matern kernels are restricted to the closed-form nu in {1/2, 3/2, 5/2}; the
general Bessel-function form is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import dgemm, dpotrf
from .errors import TrainingError, ValidationError
from .schema import NUMBER, array, one_of, parse

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)

DEFAULT_JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)  # multiples of the mean diagonal

MATERN_NUS = (0.5, 1.5, 2.5)


def _check_leaf(lengthscales: np.ndarray, variance: float):
    if lengthscales.ndim != 1 or lengthscales.size == 0:
        raise ValidationError("lengthscales must be a non-empty 1-D array")
    if not np.all(np.isfinite(lengthscales)) or np.any(lengthscales <= 0):
        raise ValidationError("lengthscales must be finite and > 0")
    if not math.isfinite(variance) or variance <= 0:
        raise ValidationError("variance must be finite and > 0")


@dataclass
class RbfKernel:
    """Squared-exponential kernel: v * exp(-r^2 / 2)."""

    lengthscales: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        self.lengthscales = np.asarray(self.lengthscales, dtype=float)
        _check_leaf(self.lengthscales, self.variance)

    def value_and_prefactor(self, r2: np.ndarray, k: np.ndarray | None = None,
                            p: np.ndarray | None = None, scratch: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel values K and lengthscale-gradient prefactor P from r^2, with
        dK/dln(l_d) = P * s_d for s_d the per-dimension scaled squared distance.
        For RBF, P is K itself, so `p` and `scratch` go unused."""
        k = np.multiply(r2, -0.5, out=np.empty_like(r2) if k is None else k)
        np.exp(k, out=k)
        k *= self.variance
        return k, k


@dataclass
class MaternKernel:
    """Half-integer Matern kernel on r = sqrt(r^2):
    nu=1/2: v*exp(-r); nu=3/2: v*(1+sqrt3 r)*exp(-sqrt3 r);
    nu=5/2: v*(1+sqrt5 r+5r^2/3)*exp(-sqrt5 r)."""

    lengthscales: np.ndarray
    variance: float = 1.0
    nu: float = 1.5

    def __post_init__(self):
        self.lengthscales = np.asarray(self.lengthscales, dtype=float)
        _check_leaf(self.lengthscales, self.variance)
        if self.nu not in MATERN_NUS:
            raise ValidationError(f"nu must be one of {MATERN_NUS}, got {self.nu}")

    def value_and_prefactor(self, r2: np.ndarray, k: np.ndarray | None = None,
                            p: np.ndarray | None = None, scratch: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Kernel values K and lengthscale-gradient prefactor P from r^2, with
        dK/dln(l_d) = P * s_d. Both share one sqrt and one exp; results go to
        `k` and `p`, r to `scratch` (each allocated when not given)."""
        k = np.empty_like(r2) if k is None else k
        p = np.empty_like(r2) if p is None else p
        r = np.sqrt(r2, out=np.empty_like(r2) if scratch is None else scratch)
        v = self.variance
        if self.nu == 0.5:
            np.negative(r, out=k)
            np.exp(k, out=k)
            k *= v
            # s_d / r -> 0 as r -> 0, so a zero-filled inverse is the correct limit
            p.fill(0.0)
            np.divide(1.0, r, out=p, where=r > 0)
            p *= k
            return k, p
        c = SQRT3 if self.nu == 1.5 else SQRT5
        np.multiply(r, -c, out=p)
        np.exp(p, out=p)                      # e = exp(-c r)
        if self.nu == 1.5:
            np.multiply(r, c, out=k)
            k += 1.0
            k *= v
            k *= p                            # v (1 + sqrt3 r) e
            p *= 3.0 * v                      # 3 v e
            return k, p
        r *= c
        r += 1.0                              # 1 + sqrt5 r
        np.multiply(r2, 5.0 / 3.0, out=k)
        k += r
        k *= v
        k *= p                                # v (1 + sqrt5 r + 5 r^2 / 3) e
        r *= (5.0 / 3.0) * v
        p *= r                                # 5/3 v (1 + sqrt5 r) e
        return k, p


@dataclass
class SumKernel:
    """Sum of two kernels; carries no hyperparameters of its own."""

    left: "KernelSpec"
    right: "KernelSpec"


KernelSpec = RbfKernel | MaternKernel | SumKernel
LeafKernel = RbfKernel | MaternKernel


def leaves(spec: KernelSpec) -> list[LeafKernel]:
    """Leaf kernels in pre-order: the order in which get_log_params packs
    their hyperparameters, each leaf's log lengthscales then its log
    variance."""
    if isinstance(spec, SumKernel):
        return leaves(spec.left) + leaves(spec.right)
    return [spec]


def ard_dim(spec: KernelSpec) -> int:
    dims = {leaf.lengthscales.size for leaf in leaves(spec)}
    if len(dims) != 1:
        raise ValidationError("sum components disagree on ARD dimension")
    return dims.pop()


def get_log_params(spec: KernelSpec) -> np.ndarray:
    parts = []
    for leaf in leaves(spec):
        parts.append(np.log(leaf.lengthscales))
        parts.append([math.log(leaf.variance)])
    return np.concatenate(parts)


def set_log_params(spec: KernelSpec, values: np.ndarray) -> KernelSpec:
    """New spec with hyperparameters taken from a packed log-space vector."""
    values = np.asarray(values, dtype=float)
    expected = sum(leaf.lengthscales.size + 1 for leaf in leaves(spec))
    if values.ndim != 1 or values.size != expected:
        raise ValidationError(f"expected {expected} packed parameters, got {values.size}")

    def rebuild(node, offset):
        if isinstance(node, SumKernel):
            left, offset = rebuild(node.left, offset)
            right, offset = rebuild(node.right, offset)
            return SumKernel(left, right), offset
        d = node.lengthscales.size
        # an overflow to inf is refused by _check_leaf below, naming it
        with np.errstate(over="ignore"):
            ls = np.exp(values[offset:offset + d])
        var = math.exp(values[offset + d])
        offset += d + 1
        if isinstance(node, MaternKernel):
            return MaternKernel(ls, var, node.nu), offset
        return RbfKernel(ls, var), offset

    rebuilt, _ = rebuild(spec, 0)
    return rebuilt


def same_rows(X: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """Flat indices, into a (len(X), len(Xp)) matrix, of the pairs of equal rows."""
    labels = np.unique(X if Xp is X else np.concatenate([X, Xp]), axis=0,
                       return_inverse=True)[1].ravel()
    return np.flatnonzero(labels[:len(X), None] == labels[labels.size - len(Xp):])


def sq_dist(Z: np.ndarray, Zp: np.ndarray, same: np.ndarray, out: np.ndarray | None = None,
            scratch: np.ndarray | None = None) -> np.ndarray:
    """r^2[i, j] = |Z_i|^2 + |Zp_j|^2 - 2 Z_i . Zp_j for centred, lengthscale-scaled
    rows, into the C-ordered `out`: clamped at 0 and exactly 0 at the flat
    indices `same`. When Zp is Z, half of it goes to `scratch` and r^2 is that
    plus its transpose, exactly symmetric where a dgemm product is not."""
    out = np.empty((Z.shape[0], Zp.shape[0])) if out is None else out
    if out.size == 0:  # f2py's dgemm rejects an empty c
        return out
    if Zp is Z:
        half = 0.5 * np.einsum("ij,ij->i", Z, Z)
        g = np.empty_like(out) if scratch is None else scratch
        np.add(half[:, None], half, out=g)
        dgemm(-1.0, Z, Z, beta=1.0, c=g.T, trans_b=1, overwrite_c=1)
        np.add(g, g.T, out=out)
    else:
        np.add(np.einsum("ij,ij->i", Z, Z)[:, None], np.einsum("ij,ij->i", Zp, Zp), out=out)
        # out^T, the Fortran-ordered view dgemm writes in place, gets -2 Zp Z^T
        dgemm(-2.0, Zp, Z, beta=1.0, c=out.T, trans_b=1, overwrite_c=1)
    np.maximum(out, 0.0, out=out)
    out.reshape(-1)[same] = 0.0
    return out


def gram(X: np.ndarray, Xp: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix K[i, j] = k(X_i, Xp_j), from rows centred on X's column
    means. Exactly symmetric when Xp is X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xp = np.atleast_2d(np.asarray(Xp, dtype=float))
    if X.shape[1] != Xp.shape[1]:
        raise ValidationError(f"input dimensions differ: {X.shape[1]} vs {Xp.shape[1]}")
    Xc, Xpc = X - X.mean(axis=0), Xp - X.mean(axis=0)
    same = same_rows(X, Xp)
    K = None
    for leaf in leaves(spec):
        if leaf.lengthscales.size != X.shape[1]:
            raise ValidationError(f"ARD lengthscale count {leaf.lengthscales.size} != "
                                  f"input dimension {X.shape[1]}")
        Z = Xc / leaf.lengthscales
        Zp = Z if Xp is X else Xpc / leaf.lengthscales
        k, _ = leaf.value_and_prefactor(sq_dist(Z, Zp, same))
        K = k if K is None else K + k
    return K


def cholesky_jitter(K: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + j*I for the smallest workable jitter j.

    The jitters tried are DEFAULT_JITTER_LADDER's multiples of the mean
    diagonal, so stabilization is invariant to the output-variance
    magnitude. Returns (L, applied jitter).
    L is Fortran-ordered with an exactly zero upper triangle; it is written
    into `out` (a Fortran-ordered float array of K's shape, not K itself)
    when given, so repeated factorizations can reuse one buffer.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError("matrix must be square")
    L = np.empty(K.shape, order="F") if out is None else out
    scale = float(np.mean(np.diag(K)))
    for mult in DEFAULT_JITTER_LADDER:
        jitter = mult * scale
        np.copyto(L, K)
        if jitter != 0.0:
            L.flat[::K.shape[0] + 1] += jitter
        _, info = dpotrf(L, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
    raise TrainingError(f"Cholesky factorization failed at maximum jitter {jitter:g}")


def kernel_to_dict(spec: KernelSpec) -> dict:
    if isinstance(spec, SumKernel):
        return {"kind": "sum", "left": kernel_to_dict(spec.left),
                "right": kernel_to_dict(spec.right)}
    d = {"kind": "rbf" if isinstance(spec, RbfKernel) else "matern",
         "lengthscales": spec.lengthscales.tolist(), "variance": float(spec.variance)}
    if isinstance(spec, MaternKernel):
        d["nu"] = float(spec.nu)
    return d


def kernel_from_dict(d: dict) -> KernelSpec:
    """The kernel a dict holds; its "kind" picks its class and table."""
    make, table = KERNELS[parse(d, {"kind": one_of(*KERNELS)})["kind"]]
    return make(**parse(d, table))


_LEAF = {"lengthscales": array(np.float64, 1), "variance": NUMBER}
KERNELS = {"sum": (SumKernel, {"left": kernel_from_dict, "right": kernel_from_dict}),
           "rbf": (RbfKernel, _LEAF), "matern": (MaternKernel, {**_LEAF, "nu": NUMBER})}
