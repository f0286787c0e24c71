"""The NLML workspace against the stack-based reference in tests/gp_reference.py:
value and gradient agreement, exact zeros for constant columns, untouched
constant-column lengthscales after a fit, no n x n allocation once warm, and
logged early stops."""

import logging
import tracemalloc

import numpy as np
import pytest

from gp_reference import value_and_grad as reference_value_and_grad
from corrml.gpr import _NlmlWorkspace, fit_gpr
from corrml.kernels import MaternKernel, RbfKernel, SumKernel, leaves

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


def test_squared_distances_exactly_symmetric_with_zero_diagonal():
    X, y = _data()
    workspace = _NlmlWorkspace(X, y)
    spec = _specs(X.shape[1])["sum"]
    for _, _, r2, _, _ in workspace._leaf_terms(spec):
        assert np.array_equal(r2, r2.T)
        assert np.all(np.diag(r2) == 0.0)
        assert r2[3, 7] == r2[3, 19] == 0.0


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
    assert len(model.history) == 2  # one epoch, then the final NLML
    messages = [r.getMessage() for r in caplog.records if r.name == "corrml.gpr"]
    assert len(messages) == 1
    assert "stopped at epoch 2 of 5" in messages[0]
    assert "representable range" in messages[0]
