"""Kernel values, gradients, Cholesky stabilization, serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrml.errors import TrainingError, ValidationError
from corrml.gpr import _substitute
from corrml.kernels import (
    DEFAULT_JITTER_LADDER,
    MaternKernel,
    RbfKernel,
    SumKernel,
    ard_dim,
    cholesky_jitter,
    cross_sq_dist,
    get_log_params,
    gram,
    kernel_from_dict,
    kernel_to_dict,
    leaves,
    set_log_params,
    sq_dist,
)
from gp_reference import kernel_and_prefactor, param_names

# hand-computed closed-form values at unit distance, unit lengthscale/variance
RBF_AT_1 = 0.6065306597126334
M12_AT_1 = 0.36787944117144233
M32_AT_1 = 0.4833577245965077
M52_AT_1 = 0.5239941088318203

X0 = np.zeros(1)
X1 = np.ones(1)


def eval_kernel(x, xp, spec) -> float:
    """Covariance between two input vectors: the Gram matrix of one row each."""
    return float(gram(np.atleast_2d(x), np.atleast_2d(xp), spec)[0, 0])


def test_point_values_at_unit_distance():
    one = np.ones(1)
    assert eval_kernel(X0, X1, RbfKernel(one)) == pytest.approx(RBF_AT_1, rel=1e-12)
    assert eval_kernel(X0, X1, MaternKernel(one, nu=0.5)) == pytest.approx(M12_AT_1, rel=1e-12)
    assert eval_kernel(X0, X1, MaternKernel(one, nu=1.5)) == pytest.approx(M32_AT_1, rel=1e-12)
    assert eval_kernel(X0, X1, MaternKernel(one, nu=2.5)) == pytest.approx(M52_AT_1, rel=1e-12)


def test_ard_point_values():
    # x=(0,0), xp=(2,3), ls=(2,1), v=1.7 -> r^2 = 10
    x, xp = np.zeros(2), np.array([2.0, 3.0])
    ls = np.array([2.0, 1.0])
    assert eval_kernel(x, xp, RbfKernel(ls, 1.7)) == pytest.approx(
        0.011454509898445294, rel=1e-12)
    assert eval_kernel(x, xp, MaternKernel(ls, 1.7, nu=1.5)) == pytest.approx(
        0.04603722100918534, rel=1e-12)


def test_matern_half_is_exponential():
    rng = np.random.default_rng(0)
    spec = MaternKernel(np.array([0.7, 1.3, 2.0]), 2.5, nu=0.5)
    for _ in range(20):
        x, xp = rng.normal(size=3), rng.normal(size=3)
        r = math.sqrt(float(np.sum(((x - xp) / spec.lengthscales) ** 2)))
        assert eval_kernel(x, xp, spec) == pytest.approx(2.5 * math.exp(-r), rel=1e-12)


def test_smoothness_ordering_below_unit_distance():
    one = np.ones(1)
    for r in (0.1, 0.5, 0.9, 1.0):
        x = np.array([r])
        vals = [eval_kernel(X0, x, MaternKernel(one, nu=0.5)),
                eval_kernel(X0, x, MaternKernel(one, nu=1.5)),
                eval_kernel(X0, x, MaternKernel(one, nu=2.5)),
                eval_kernel(X0, x, RbfKernel(one))]
        assert vals == sorted(vals)
        assert len(set(vals)) == 4


def test_self_covariance_is_variance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=5)
    for spec in (RbfKernel(np.full(5, 0.9), 3.3), MaternKernel(np.full(5, 0.9), 3.3, nu=2.5)):
        assert eval_kernel(x, x, spec) == 3.3


def test_gram_is_exactly_the_variance_at_repeated_rows():
    # Matern-1/2 takes sqrt(r^2), so any rounding left in r^2 would show
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 4)) * np.array([1.0, 10.0, 0.1, 3.0]) + 5.0
    # the last rows are within rounding of X's: r^2 there must not come out negative
    near = X * (1.0 + 1e-14 * rng.normal(size=X.shape))
    Xq = np.vstack([X[[3, 11, 3]], rng.normal(size=(2, 4)), near])
    K = gram(X, Xq, MaternKernel(np.array([0.7, 5.0, 0.2, 1.1]), 2.3, nu=0.5))
    assert K[3, 0] == K[11, 1] == K[3, 2] == 2.3
    assert np.all(np.delete(K, [3, 11], axis=0)[:, :3] < 2.3)
    assert np.all(K <= 2.3) and np.all(np.diag(K[:, 5:]) > 2.3 * (1 - 1e-6))


def test_stationarity_and_symmetry():
    rng = np.random.default_rng(2)
    spec = SumKernel(RbfKernel(np.full(4, 1.2), 0.8), MaternKernel(np.full(4, 0.6), 1.5, nu=1.5))
    for _ in range(10):
        x, xp, shift = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        assert eval_kernel(x, xp, spec) == pytest.approx(
            eval_kernel(x + shift, xp + shift, spec), rel=1e-10)
        assert eval_kernel(x, xp, spec) == eval_kernel(xp, x, spec)


def test_ard_rescaling_invariance():
    # scaling one input dimension and its lengthscale together changes nothing
    rng = np.random.default_rng(3)
    x, xp = rng.normal(size=3), rng.normal(size=3)
    ls = np.array([1.0, 2.0, 0.5])
    scaled = ls.copy()
    scaled[1] *= 10
    x2, xp2 = x.copy(), xp.copy()
    x2[1] *= 10
    xp2[1] *= 10
    assert eval_kernel(x, xp, RbfKernel(ls)) == pytest.approx(
        eval_kernel(x2, xp2, RbfKernel(scaled)), rel=1e-12)


def test_gram_matches_eval_and_is_exactly_symmetric():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(7, 3))
    spec = SumKernel(RbfKernel(np.array([1.0, 0.5, 2.0]), 1.1),
                     MaternKernel(np.array([0.8, 1.5, 1.0]), 0.4, nu=2.5))
    K = gram(X, X, spec)
    assert K.shape == (7, 7)
    assert np.array_equal(K, K.T)
    for i in range(7):
        for j in range(7):
            assert K[i, j] == pytest.approx(eval_kernel(X[i], X[j], spec), rel=1e-12)
    np.testing.assert_allclose(np.diag(K), 1.1 + 0.4, rtol=1e-12)


def test_gram_cross_shape():
    rng = np.random.default_rng(5)
    X, Xp = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
    K = gram(X, Xp, RbfKernel(np.ones(2)))
    assert K.shape == (6, 4)
    assert gram(X, Xp[:0], RbfKernel(np.ones(2))).shape == (6, 0)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 5))
    specs = [RbfKernel(np.full(5, 1.3), 2.0),
             MaternKernel(np.full(5, 0.7), 1.0, nu=0.5),
             MaternKernel(np.full(5, 0.7), 1.0, nu=1.5),
             MaternKernel(np.full(5, 0.7), 1.0, nu=2.5),
             SumKernel(RbfKernel(np.full(5, 1.0)), MaternKernel(np.full(5, 2.0), nu=1.5))]
    for spec in specs:
        w = np.linalg.eigvalsh(gram(X, X, spec))
        assert w.min() >= -1e-10


def test_sum_kernel_adds_components():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 3))
    a = RbfKernel(np.array([1.0, 2.0, 0.5]), 0.7)
    b = MaternKernel(np.array([0.9, 0.9, 0.9]), 1.4, nu=1.5)
    np.testing.assert_allclose(gram(X, X, SumKernel(a, b)),
                               gram(X, X, a) + gram(X, X, b), rtol=1e-14)


def test_param_names_and_packing_roundtrip():
    spec = SumKernel(RbfKernel(np.array([1.0, 2.0]), 0.5),
                     MaternKernel(np.array([3.0, 4.0]), 1.5, nu=2.5))
    names = param_names(spec)
    assert names == ["k0.log_lengthscale.0", "k0.log_lengthscale.1", "k0.log_variance",
                     "k1.log_lengthscale.0", "k1.log_lengthscale.1", "k1.log_variance"]
    theta = get_log_params(spec)
    np.testing.assert_allclose(theta, np.log([1.0, 2.0, 0.5, 3.0, 4.0, 1.5]), rtol=1e-14)
    rebuilt = set_log_params(spec, theta + 0.1)
    np.testing.assert_allclose(get_log_params(rebuilt), theta + 0.1, rtol=1e-14)
    # original untouched
    np.testing.assert_allclose(get_log_params(spec), theta, rtol=1e-14)
    assert len(leaves(rebuilt)) == 2 and ard_dim(rebuilt) == 2
    with pytest.raises(ValidationError):
        set_log_params(spec, theta[:-1])


def test_cholesky_jitter_clean_matrix_uses_no_jitter():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(15, 3))
    K = gram(X, X, RbfKernel(np.ones(3))) + 0.1 * np.eye(15)
    L, jitter = cholesky_jitter(K)
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, K, atol=1e-10)
    assert np.allclose(L, np.tril(L))


def test_cholesky_jitter_climbs_ladder_on_rank_deficiency():
    # duplicated inputs make the noiseless Gram matrix exactly singular
    X = np.zeros((40, 2))
    K = gram(X, X, RbfKernel(np.ones(2), 2.0))
    L, jitter = cholesky_jitter(K)
    assert jitter > 0.0
    assert jitter in tuple(m * 2.0 for m in DEFAULT_JITTER_LADDER)
    np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(40), atol=1e-8)


def test_cholesky_jitter_gives_up_on_indefinite_matrix():
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(TrainingError):
        cholesky_jitter(K)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(0.05, 10.0))
def test_numpy_factor_matches_lapack(n, seed, shift):
    # the factor a model scores with is numpy's einsum loops, not LAPACK
    # dpotrf; on a well-conditioned K the two agree to rounding, and the
    # substitutions solve K alpha = b
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    K = A @ A.T + shift * n * np.eye(n)
    K = 0.5 * (K + K.T)
    lapack, jitter = cholesky_jitter(K)
    L, numpy_jitter = cholesky_jitter(K, blas=False)
    assert jitter == numpy_jitter == 0.0
    assert L.flags.c_contiguous and np.all(np.triu(L, 1) == 0.0)
    assert np.max(np.abs(L - lapack)) <= 1e-12 * np.max(np.abs(lapack))
    b = rng.normal(size=n)
    alpha = _substitute(L, b)
    assert np.linalg.norm(K @ alpha - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("K", [np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
                               -np.eye(3), np.array([[1.0, np.nan], [np.nan, 1.0]])],
                         ids=["indefinite", "negative", "nan"])
def test_numpy_factor_gives_up_with_the_lapack_message(K):
    with pytest.raises(TrainingError) as lapack:
        cholesky_jitter(K)
    with pytest.raises(TrainingError) as numpy_only:
        cholesky_jitter(K, blas=False)
    assert str(numpy_only.value) == str(lapack.value)


def test_numpy_sq_dist_keeps_the_contract():
    # a model's r^2 over one row set, from einsum loops: exactly symmetric,
    # clamped at 0, exactly 0 at equal rows, and the BLAS one's to rounding
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(80, 7)) * 1e3
    Z[11] = Z[47]
    same = np.flatnonzero(np.all(Z[:, None] == Z[None], axis=2).ravel())
    r2 = sq_dist(Z, same, blas=False)
    assert np.array_equal(r2, r2.T)
    assert np.all(r2 >= 0.0) and np.all(r2.reshape(-1)[same] == 0.0)
    assert r2[11, 47] == 0.0
    np.testing.assert_allclose(r2, sq_dist(Z, same), rtol=1e-9, atol=1e-6)


def test_serialization_roundtrip():
    spec = SumKernel(RbfKernel(np.array([1.5, 0.5]), 0.9),
                     MaternKernel(np.array([2.0, 3.0]), 1.1, nu=2.5))
    blob = json.dumps(kernel_to_dict(spec), sort_keys=True)
    rebuilt = kernel_from_dict(json.loads(blob))
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 2))
    np.testing.assert_allclose(gram(X, X, rebuilt), gram(X, X, spec), rtol=1e-15)
    with pytest.raises(ValidationError):
        kernel_from_dict({"kind": "product"})


def test_constructor_validation():
    with pytest.raises(ValidationError):
        RbfKernel(np.array([1.0, -1.0]))
    with pytest.raises(ValidationError):
        RbfKernel(np.array([1.0]), 0.0)
    with pytest.raises(ValidationError):
        MaternKernel(np.array([1.0]), 1.0, nu=2.0)
    with pytest.raises(ValidationError):
        gram(np.zeros((1, 3)), np.zeros((1, 2)), RbfKernel(np.ones(3)))
    with pytest.raises(ValidationError):
        gram(np.zeros((4, 3)), np.zeros((4, 3)), RbfKernel(np.ones(2)))


# r^2 values as kernels meet them: exact zeros (equal rows), subnormal and
# tiny distances, ordinary ones, and distances whose kernel value underflows
R2_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e-6),
                      st.floats(0.0, 50.0), st.floats(1e3, 1e300))
LEAVES = {"rbf": RbfKernel, "matern12": lambda ls, v: MaternKernel(ls, v, nu=0.5),
          "matern32": lambda ls, v: MaternKernel(ls, v, nu=1.5),
          "matern52": lambda ls, v: MaternKernel(ls, v, nu=2.5)}


@pytest.mark.parametrize("kind", LEAVES)
@settings(max_examples=60, deadline=None)
@given(r2=arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 9)), elements=R2_VALUES),
       variance=st.floats(1e-3, 1e3))
def test_value_gives_the_same_kernel_with_or_without_the_prefactor(kind, r2, variance):
    # training asks `value` for the prefactor, a loaded model and a prediction
    # do not; their K must be the same bytes, and P the closed form's
    leaf = LEAVES[kind](np.ones(1), variance)
    work = [np.full_like(r2, np.nan) for _ in range(leaf.work_arrays)]
    alone = leaf.value(r2.copy(), work).copy()
    p = np.full_like(r2, np.nan)
    k = leaf.value(r2.copy(), work, p)
    assert k.tobytes() == alone.tobytes()
    want_k, want_p = kernel_and_prefactor(leaf, r2)
    tiny = np.finfo(float).tiny  # below it, subnormal rounding is absolute
    np.testing.assert_allclose(k, want_k, rtol=1e-12, atol=tiny)
    np.testing.assert_allclose(p, want_p, rtol=1e-12, atol=tiny)
    assert not np.isnan(p).any()
    if kind == "matern12":
        assert np.all(p[r2 == 0.0] == 0.0)


def test_cross_gram_holds_under_five_arrays_of_its_shape():
    # the default log-space kernel, an RBF plus a Matern 5/2, evaluated value
    # only into one accumulated K*: K*, one r^2 and two Matern work arrays
    rng = np.random.default_rng(4)
    n, m, d = 200, 150, 8
    X, X_star = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    spec = SumKernel(RbfKernel(rng.uniform(0.5, 2.0, d), 0.7),
                     MaternKernel(rng.uniform(0.5, 2.0, d), 0.4, nu=2.5))
    tracemalloc.start()
    try:
        gram(X, X_star, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * m * 8, f"{peak / (n * m * 8):.2f} arrays of n x m floats"


@pytest.mark.parametrize("same_rows", [False, True], ids=["two-row-sets", "one-row-set"])
def test_sq_dist_fills_its_broadcast_sums_without_a_ufunc_buffer(same_rows):
    # numpy buffers a two-dimensional broadcast sum, two buffers of
    # np.getbufsize() floats a call (128 KiB) at 262 x 331. With one row set,
    # sq_dist fills the half of |Z_i|^2 + |Z_j|^2 without one, and
    # r^2 = g + g^T still buffers its transposed operand, one buffer. Between
    # two row sets, cross_sq_dist adds the norms a query row at a time, with
    # none. Few columns, so the copies dgemm takes of Z stay small.
    rng = np.random.default_rng(41)
    n, m, d = 262, 331, 2
    Z = rng.normal(size=(n, d))
    Zp = Z if same_rows else rng.normal(size=(m, d))
    want = np.maximum(np.add.outer((Z * Z).sum(1), (Zp * Zp).sum(1)) - 2 * Z @ Zp.T, 0.0)
    none = np.array([], dtype=np.intp)
    if same_rows:
        out, scratch = np.empty((n, n)), np.empty((n, n))
        call = lambda: sq_dist(Z, none, out=out, scratch=scratch)  # noqa: E731
    else:
        out = np.empty((m, n))  # query-major
        call = lambda: cross_sq_dist(Zp, Z, none, out=out)  # noqa: E731
        want = want.T
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 10 + same_rows * 8 * np.getbufsize(), peak
    np.testing.assert_allclose(out, want, atol=1e-12)
