"""The NLML workspace against the stack-based reference in tests/gp_reference.py:
value and gradient agreement, exact zeros for constant columns, squared
distances against a per-column sum, untouched constant-column lengthscales
after a fit, n x n memory independent of the input dimension, two buffers
per leaf for a gradient and a fit's peak at those and K's and the factor's,
no n x n allocation once warm, and logged early stops."""

import logging
import tracemalloc

import numpy as np
import pytest

from gp_reference import value_and_grad as reference_value_and_grad
from corrml.gpr import _NlmlWorkspace, default_log_kernel, fit_gpr
from corrml.kernels import MaternKernel, RbfKernel, SumKernel, gram, leaves, sq_dist

CONSTANT_COLS = (1, 4)


def _data(n=40, d=6, seed=0):
    """Rows with two constant columns (one off zero) and a repeated row."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, CONSTANT_COLS[0]] = 0.0
    X[:, CONSTANT_COLS[1]] = 2.5
    X[7] = X[3]
    X[19] = X[3]
    y = np.sin(X[:, 0]) + 0.5 * X[:, 2] + 0.1 * rng.normal(size=n)
    return X, y


def _specs(d, seed=1):
    rng = np.random.default_rng(seed)
    ls = rng.uniform(0.5, 2.5, d)
    return {
        "rbf": RbfKernel(ls, 1.3),
        "matern12": MaternKernel(ls, 0.8, nu=0.5),
        "matern32": MaternKernel(ls, 0.8, nu=1.5),
        "matern52": MaternKernel(ls, 0.8, nu=2.5),
        "sum": SumKernel(RbfKernel(ls, 0.7), MaternKernel(1.4 * ls[::-1], 0.4, nu=2.5)),
    }


def _constant_entries(spec, d):
    """Packed-gradient indices of every leaf's constant-column lengthscales."""
    idx, offset = [], 0
    for _ in leaves(spec):
        idx += [offset + col for col in CONSTANT_COLS]
        offset += d + 1
    return idx


def test_workspace_matches_reference():
    X, y = _data()
    workspace = _NlmlWorkspace(X, y)
    assert workspace.varying.tolist() == [0, 2, 3, 5]
    # two rounds over one workspace: every kernel also runs over buffers
    # another kernel filled
    for _ in range(2):
        for spec in _specs(X.shape[1]).values():
            ref_value, ref_grad = reference_value_and_grad(X, y, spec, 0.05, 0.2)
            value, grad = workspace.value_and_grad(spec, 0.05, 0.2)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))
            const = _constant_entries(spec, X.shape[1])
            assert all(grad[i] == 0.0 for i in const)
            assert np.all(ref_grad[const] == 0.0)
            assert workspace.value(spec, 0.05, 0.2) == value


def _workspace_sq_dist(ws, ls):
    """r^2 of one leaf as `_NlmlWorkspace._leaf_terms` computes it, before
    the leaf's values are written over it."""
    Z = ws._xc / ls[ws.varying]
    return sq_dist(Z, ws._same)


def test_squared_distances_exactly_symmetric_with_zero_diagonal():
    for n, d in ((40, 6), (200, 30)):  # a 200 x 30 dgemm product is itself not bit-symmetric
        X, y = _data(n, d)
        workspace = _NlmlWorkspace(X, y)
        spec = _specs(X.shape[1])["sum"]
        for leaf, (_, k, _) in zip(leaves(spec), workspace._leaf_terms(spec)):
            r2 = _workspace_sq_dist(workspace, leaf.lengthscales)
            assert np.array_equal(r2, r2.T)
            assert np.all(np.diag(r2) == 0.0)
            assert r2[3, 7] == r2[3, 19] == 0.0
            assert np.array_equal(k, k.T)
            assert np.all(np.diag(k) == leaf.variance)
            assert k[3, 7] == k[3, 19] == leaf.variance
        K = gram(X, X, spec)
        assert np.array_equal(K, K.T)


def _per_column_sq_dist(X, Xp, ls):
    return sum(((X[:, None, d] - Xp[None, :, d]) / ls[d]) ** 2 for d in range(X.shape[1]))


@pytest.mark.parametrize("path", ["workspace", "gram"])
def test_squared_distances_match_per_column_sum_far_from_origin(path):
    # without centring, a column near 1e6 leaves about 1e-4 of rounding in r^2
    X, y = _data()
    X[:, 2] += 1e6
    ls = np.random.default_rng(2).uniform(0.5, 2.5, X.shape[1])
    if path == "workspace":
        Xp = X
        r2 = _workspace_sq_dist(_NlmlWorkspace(X, y), ls)
    else:
        Xp, _ = _data(n=20, seed=3)
        Xp[:, 2] += 1e6
        r2 = -2.0 * np.log(gram(X, Xp, RbfKernel(ls)))  # RBF at unit variance: exp(-r^2/2)
    np.testing.assert_allclose(r2, _per_column_sq_dist(X, Xp, ls), rtol=1e-12, atol=0.0)


def test_all_constant_columns_give_the_white_noise_model():
    X = np.full((5, 3), 1.5)
    y = np.array([0.3, -0.2, 0.1, 0.4, -0.6])
    spec = RbfKernel(np.ones(3), 0.5)
    value, grad = _NlmlWorkspace(X, y).value_and_grad(spec, 0.1, 0.0)
    ref_value, ref_grad = reference_value_and_grad(X, y, spec, 0.1, 0.0)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)
    assert np.all(grad[:3] == 0.0)


def test_fit_keeps_constant_column_lengthscales_at_start():
    X, y = _data(n=30)
    model = fit_gpr(X, y, spec=_specs(X.shape[1])["sum"], epochs=25)
    for leaf in leaves(model.spec):
        assert all(leaf.lengthscales[col] == 1.0 for col in CONSTANT_COLS)
        assert np.all(leaf.lengthscales[[0, 2, 3, 5]] != 1.0)


def _n_by_n_arrays_held(d, n=200):
    """n x n float arrays' worth of memory a fresh workspace holds after one
    evaluation, counted over the blocks of at least that size."""
    X, y = _data(n=n, d=d)
    tracemalloc.start()
    try:
        workspace = _NlmlWorkspace(X, y)
        workspace.value_and_grad(_specs(d)["sum"], 0.05, 0.2)
        held = sum(t.size for t in tracemalloc.take_snapshot().traces if t.size >= n * n * 8)
    finally:
        tracemalloc.stop()
    return held / (n * n * 8)


def test_workspace_memory_does_not_grow_with_input_dimension():
    assert _n_by_n_arrays_held(6) == _n_by_n_arrays_held(60)


def test_gradient_keeps_two_n_by_n_buffers_per_leaf():
    # beyond construction's K and factor, only each of the two leaves' values
    # and prefactor, whose values are written over their r^2: K^-1 is
    # computed over the factor, and the gradient weights over K and the factor
    n, d = 200, 8
    X, y = _data(n=n, d=d)
    tracemalloc.start()
    try:
        workspace = _NlmlWorkspace(X, y)
        built = tracemalloc.get_traced_memory()[0]
        workspace.value_and_grad(default_log_kernel(d), 0.05, 0.2)
        held = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert held <= 4.5 * n * n * 8, f"{held / (n * n * 8):.2f} n x n arrays"


def test_an_rbf_leaf_keeps_its_values_as_its_prefactor():
    # the RBF leaf's prefactor P is its K: of the two leaves of the default
    # log kernel, only the Matern 5/2 keeps a buffer for P
    n, d = 200, 8
    X, y = _data(n=n, d=d)
    tracemalloc.start()
    try:
        workspace = _NlmlWorkspace(X, y)
        built = tracemalloc.get_traced_memory()[0]
        workspace.value_and_grad(default_log_kernel(d), 0.05, 0.2)
        held = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert held <= 3.5 * n * n * 8, f"{held / (n * n * 8):.2f} n x n arrays"


@pytest.mark.parametrize("kernel,bound", [
    (default_log_kernel, 5.5),  # K, the factor, the RBF's k, the Matern's k and p
    (lambda d: MaternKernel(np.ones(d), 1.0, nu=2.5), 4.5),  # K, the factor, k and p
], ids=["default-log", "matern52"])
def test_fit_peaks_at_the_buffers_a_gradient_needs(kernel, bound):
    # the peak of a whole fit, its model's K and factor too, which are built
    # by kernels.gram once the workspace is dropped; n x n arrays of scratch,
    # or a workspace kept alive beside the model's K, would show here
    n, d = 200, 8
    X, y = _data(n=n, d=d)
    tracemalloc.start()
    try:
        fit_gpr(X, y, spec=kernel(d), epochs=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n * n * 8, f"{peak / (n * n * 8):.2f} n x n arrays"


def test_warm_evaluation_allocates_no_n_by_n_array():
    X, y = _data(n=200)
    workspace = _NlmlWorkspace(X, y)
    for spec in _specs(X.shape[1]).values():
        workspace.value_and_grad(spec, 0.05, 0.2)
        tracemalloc.start()
        try:
            workspace.value_and_grad(spec, 0.05, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] ** 2 * 8, f"{peak} bytes traced"


def test_fit_logs_early_stop(caplog):
    X, y = _data(n=20)
    with caplog.at_level(logging.WARNING, logger="corrml.gpr"):
        model = fit_gpr(X, y, epochs=5, lr=1e3)  # the first step overflows a lengthscale
    assert len(model.history) == 1  # only the initial state was kept
    messages = [r.getMessage() for r in caplog.records if r.name == "corrml.gpr"]
    assert len(messages) == 1
    assert "the Adam step of epoch 1 of 5" in messages[0]
    assert "representable range" in messages[0]
