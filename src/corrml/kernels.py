"""Covariance functions: ARD RBF, ARD Matern (half-integer nu), sums of kernels,
scaled squared distances, Gram matrices, log-space hyperparameter packing,
per-leaf lengthscale-gradient prefactors (the GP layer assembles the analytic
gradients from them), and jitter-stabilized Cholesky factorization.

Each leaf kernel evaluates its arithmetic in one method, `value`, which
writes its values over r^2 and, given an output for it, the gradient
prefactor from the same intermediates. Training asks for both; `gram` (a
model's K and a prediction's K_*) asks for the values only: the same bytes.

Every kernel works on a scaled squared distance r^2 = sum_d (x_d - x'_d)^2 / l_d^2
with one lengthscale per input dimension (ARD) and an output variance per leaf,
exactly 0 for equal rows. Between query rows and training rows
(prediction) `cross_sq_dist` takes it, query by query, from numpy's einsum
loops, which compute each entry from its two rows alone: a BLAS product
rounds a row's entries differently with the number of rows beside it, so a
query's prediction would depend on its batch. Over one set of rows
`sq_dist` takes it exactly symmetric from the rows `centred_rows` makes: in
training, from a dgemm Gram product, and in `gram`, which builds every
model's K, from those einsum loops, so that a model's K, and the numpy-only
factor `cholesky_jitter` takes of it, depend on no BLAS library, core type
or thread count.
Matern kernels are restricted to the closed-form nu in {1/2, 3/2, 5/2}; the
general Bessel-function form is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    work_arrays = 0

    def value(self, r2: np.ndarray, work=(), p: np.ndarray | None = None) -> np.ndarray:
        """Kernel values from r^2, written over r2 and returned. With `p`, the
        lengthscale-gradient prefactor P, dK/dln(l_d) = P * s_d for s_d the
        per-dimension scaled squared distance, is written there too: for RBF,
        P equals K, and K is copied there."""
        r2 *= -0.5
        np.exp(r2, out=r2)
        r2 *= self.variance
        if p is not None:
            np.copyto(p, r2)
        return r2


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

    @property
    def work_arrays(self) -> int:
        """How many arrays of r^2's shape `value` needs besides r^2."""
        return MATERN_NUS.index(self.nu)

    def value(self, r2: np.ndarray, work=(), p: np.ndarray | None = None) -> np.ndarray:
        """Kernel values from r^2, written over r2 and returned. With `p`, the
        lengthscale-gradient prefactor P, dK/dln(l_d) = P * s_d, is written
        there from the same sqrt and exp. nu=3/2 and 5/2 use the first one
        and two arrays of `work`, each of r2's shape, and one array fewer
        with `p`, which then holds exp(-c r)."""
        v = self.variance
        if self.nu == 0.5:
            r = np.sqrt(r2, out=r2)
            if p is not None:
                # s_d / r -> 0 as r -> 0, so a zero-filled inverse is the correct limit
                p.fill(0.0)
                np.divide(1.0, r, out=p, where=r > 0)
            np.negative(r, out=r)
            np.exp(r, out=r)
            r *= v
            if p is not None:
                p *= r                        # v e / r
            return r
        c = SQRT3 if self.nu == 1.5 else SQRT5
        if self.nu == 1.5:
            e = work[0] if p is None else p
            r = np.sqrt(r2, out=r2)
            np.multiply(r, -c, out=e)
            np.exp(e, out=e)                  # e = exp(-c r)
            r *= c
            r += 1.0
            r *= v
            r *= e                            # v (1 + sqrt3 r) e
            if p is not None:
                p *= 3.0 * v                  # 3 v e
            return r
        r, e = work[0], (work[1] if p is None else p)
        np.sqrt(r2, out=r)
        np.multiply(r, -c, out=e)
        np.exp(e, out=e)                      # e = exp(-c r)
        r *= c
        r += 1.0                              # 1 + sqrt5 r
        r2 *= 5.0 / 3.0
        r2 += r
        r2 *= v
        r2 *= e                               # v (1 + sqrt5 r + 5 r^2 / 3) e
        if p is not None:
            r *= (5.0 / 3.0) * v
            p *= r                            # 5/3 v (1 + sqrt5 r) e
        return r2


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
    """Flat indices, into a (len(X), len(Xp)) matrix, of the pairs of equal rows.
    Each row is compared as one opaque value of its bytes, after adding 0.0
    turns -0.0 into 0.0, which sorts several times faster than numpy's
    row-wise unique."""
    rows = np.concatenate([X] if Xp is X else [X, Xp])
    rows += 0.0
    labels = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                       return_inverse=True)[1]
    return np.flatnonzero(labels[:len(X), None] == labels[labels.size - len(Xp):])


def centred_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(varying, Xc): the indices of the columns of X that vary over its rows,
    and those columns centred on their means, Fortran-ordered: every r^2 over
    one row set, training's and `gram`'s, is taken from them. Centring keeps
    the terms of r^2's norm expansion small relative to their difference."""
    varying = np.flatnonzero(np.any(X != X[:1], axis=0))
    Xv = X[:, varying]
    return varying, np.asfortranarray(Xv - Xv.mean(axis=0))


def _add_outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = a[i] + b[j] into the C-ordered `out`, each the one rounding
    of that sum, with no ufunc buffer: numpy buffers a two-dimensional
    broadcast sum, about 128 KiB a call for a 262 x 331 `out`. Each row of
    `out` is set to a[i], then a rank-one dgemm adds b[j] * 1, a product that
    is exact, so each entry is a[i] + b[j] rounded once, whatever the BLAS."""
    from ._linalg import dgemm

    np.copyto(out, a[:, None])
    dgemm(1.0, b[:, None], np.ones((1, a.size)), beta=1.0, c=out.T, overwrite_c=1)


def sq_dist(Z: np.ndarray, same: np.ndarray, out: np.ndarray | None = None,
            scratch: np.ndarray | None = None, blas: bool = True) -> np.ndarray:
    """r^2[i, j] = |Z_i|^2 + |Z_j|^2 - 2 Z_i . Z_j for centred, lengthscale-scaled
    rows, into the C-ordered `out`: clamped at 0 and exactly 0 at the flat
    indices `same`. Half of it goes to `scratch`, and r^2 is that plus its
    transpose, exactly symmetric where the half is not. With `blas` the half
    comes from one dgemm (training); without, it is half of
    `cross_sq_dist(Z, Z)`, from numpy's einsum loops alone (a model's K)."""
    out = np.empty((Z.shape[0], Z.shape[0])) if out is None else out
    if out.size == 0:  # f2py's dgemm rejects an empty c
        return out
    g = np.empty_like(out) if scratch is None else scratch
    if blas:
        from ._linalg import dgemm

        half = 0.5 * np.einsum("ij,ij->i", Z, Z)
        _add_outer(half, half, g)
        dgemm(-1.0, Z, Z, beta=1.0, c=g.T, trans_b=1, overwrite_c=1)
    else:
        cross_sq_dist(Z, Z, same, out=g)
        g *= 0.5
    # g^T + g, the sum of two C-ordered operands, which numpy does not
    # buffer as it buffers g + g^T
    np.copyto(out, g.T)
    np.add(out, g, out=out)
    np.maximum(out, 0.0, out=out)
    out.reshape(-1)[same] = 0.0
    return out


def cross_sq_dist(Zq: np.ndarray, Z: np.ndarray, same: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Query-major r^2[i, j] = |Zq_i|^2 + |Z_j|^2 - 2 Zq_i . Z_j between query
    rows Zq and training rows Z, centred and lengthscale-scaled alike, into
    the C-ordered (len(Zq), len(Z)) `out`: clamped at 0 and exactly 0 at the
    flat indices `same`. Each entry is computed from its two rows alone, so
    it does not depend on the other queries: the products by einsum's loops
    (`ij,kj->ik`), and the norms added one query row at a time, because
    numpy buffers a two-dimensional broadcast sum."""
    out = np.einsum("ij,kj->ik", Zq, Z, out=out)
    out *= -2.0
    norms = np.einsum("ij,ij->i", Z, Z)
    for row, norm in zip(out, np.einsum("ij,ij->i", Zq, Zq)):
        row += norms
        row += norm
    np.maximum(out, 0.0, out=out)
    out.reshape(-1)[same] = 0.0
    return out


def gram(X: np.ndarray, Xp: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix K[i, j] = k(X_i, Xp_j): when Xp is X, a model's K, exactly
    symmetric and numpy only (`sq_dist` over `centred_rows(X)`), and
    otherwise the transpose of `cross_gram(X, Xp, spec)`."""
    return _gram(X, X, spec, True) if Xp is X else cross_gram(X, Xp, spec).T


def cross_gram(X: np.ndarray, Xq: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Query-major covariances K_*[i, j] = k(Xq_i, X_j) of query rows Xq with
    training rows X, C-ordered. Row i is computed from Xq_i and X alone
    (`cross_sq_dist`), so it does not depend on Xq's other rows, even where
    Xq is X."""
    return _gram(X, Xq, spec, False)


def _gram(X: np.ndarray, Xq: np.ndarray, spec: KernelSpec, one: bool) -> np.ndarray:
    """The (len(Xq), len(X)) kernel matrix, r^2 from `sq_dist` without BLAS
    over `centred_rows(X)` when `one` (Xq is X), its first work array the
    scratch, and otherwise from `cross_sq_dist`. Each leaf's values are added
    into K before the next leaf's are made, so K, one later leaf's values
    and their `value` work are the only arrays of K's shape alive."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xq = X if one else np.atleast_2d(np.asarray(Xq, dtype=float))
    if X.shape[1] != Xq.shape[1]:
        raise ValidationError(f"input dimensions differ: {X.shape[1]} vs {Xq.shape[1]}")
    if one:
        cols, Xc = centred_rows(X)
    else:
        cols, mean = slice(None), X.mean(axis=0)
        Xc, Xqc = X - mean, Xq - mean
    same = same_rows(Xq, X)
    K, work = None, []
    for leaf in leaves(spec):
        if leaf.lengthscales.size != X.shape[1]:
            raise ValidationError(f"ARD lengthscale count {leaf.lengthscales.size} != "
                                  f"input dimension {X.shape[1]}")
        Z = Xc / leaf.lengthscales[cols]
        # work[:w] is the leaf's `value` work and work[w] a later leaf's r^2
        w = max(leaf.work_arrays, int(one))
        while len(work) < w + (K is not None):
            work.append(np.empty((Xq.shape[0], X.shape[0])))
        r2 = None if K is None else work[w]
        if one:
            r2 = sq_dist(Z, same, out=r2, scratch=work[0], blas=False)
        else:
            r2 = cross_sq_dist(Xqc / leaf.lengthscales, Z, same, out=r2)
        if K is None:
            K = leaf.value(r2, work)
        else:
            K += leaf.value(r2, work)
    return K


def cholesky_jitter(K: np.ndarray, out: np.ndarray | None = None,
                    blas: bool = True) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + j*I for the smallest workable jitter j.

    The jitters tried are DEFAULT_JITTER_LADDER's multiples of the mean
    diagonal, so stabilization is invariant to the output-variance
    magnitude. Returns (L, applied jitter).
    L has an exactly zero upper triangle. With `blas` it comes from LAPACK
    dpotrf and is Fortran-ordered; without, from `_cholesky_rows`, numpy
    only, and C-ordered. It is written into `out` (a float array of K's
    shape in that order, not K itself) when given, so repeated
    factorizations can reuse one buffer.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValidationError("matrix must be square")
    if blas:
        from ._linalg import dpotrf
    L = np.empty(K.shape, order="F" if blas else "C") if out is None else out
    scale = float(np.mean(np.diag(K)))
    for mult in DEFAULT_JITTER_LADDER:
        jitter = mult * scale
        np.copyto(L, K)
        if jitter != 0.0:
            L.flat[::K.shape[0] + 1] += jitter
        # dpotrf passes a NaN pivot, which _cholesky_rows refuses
        factored = (dpotrf(L, lower=1, clean=1, overwrite_a=1)[1] == 0
                    and np.isfinite(np.diagonal(L)).all() if blas else _cholesky_rows(L))
        if factored:
            return L, jitter
    raise TrainingError(f"Cholesky factorization failed at maximum jitter {jitter:g}")


def _cholesky_rows(L: np.ndarray) -> bool:
    """Lower Cholesky factor of the symmetric matrix in the C-ordered L,
    written over it column by column with an exactly zero upper triangle.
    Each entry takes one einsum dot of the leading parts of two of the
    factor's rows, so its bits depend on no BLAS. False, with L part
    written, at the first pivot that is not positive or is NaN, where
    reference LAPACK's dpotrf reports a matrix not positive definite."""
    for j in range(L.shape[0]):
        row = L[j, :j]
        pivot = L[j, j] - np.einsum("i,i->", row, row)
        if not pivot > 0.0:
            return False
        L[j, j] = diag = math.sqrt(pivot)
        L[j, j + 1:] = 0.0
        below = L[j + 1:, j]
        below -= np.einsum("ij,j->i", L[j + 1:, :j], row)
        below /= diag
    return True


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
