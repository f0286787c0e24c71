"""The GP layer's BLAS/LAPACK bindings: the objects scipy.linalg exports."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from corrml import _linalg
from corrml.errors import TrainingError
from corrml.gpr import GprModel, cho_solve, predict_gpr
from corrml.kernels import RbfKernel

ROUTINES = {"lapack": ("dpotrf", "dpotri", "dpotrs"),
            "blas": ("dgemm", "ddot")}


@pytest.mark.parametrize("first", ["corrml", "scipy"])
def test_bound_routines_are_scipy_linalg_objects(first):
    # run in a fresh interpreter so each import order is really the first
    imports = ["import corrml._linalg as bound", "import scipy.linalg"]
    if first == "scipy":
        imports.reverse()
    mismatched = " + ".join(
        f"[n for n in {names!r} if getattr(bound, n) is not getattr({module}, n)]"
        for module, names in ROUTINES.items())
    code = "; ".join(imports + ["from scipy.linalg import blas, lapack", f"print({mismatched})"])
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cho_solve_matches_scipy_bit_for_bit():
    from scipy.linalg import cho_factor, cho_solve as scipy_cho_solve

    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 30))
    L, _ = cho_factor(A @ A.T + 30 * np.eye(30), lower=True)
    for b in (rng.normal(size=30), rng.normal(size=(30, 4))):
        np.testing.assert_array_equal(cho_solve((L, True), b), scipy_cho_solve((L, True), b))


def test_predict_reports_a_failed_triangular_solve():
    X = np.array([[0.0], [1.0], [2.0]])
    chol = np.asfortranarray(np.tril(np.ones((3, 3))))
    chol[1, 1] = 0.0  # a factor with a zero pivot is singular
    model = GprModel(x_train=X, y_train=np.zeros(3), spec=RbfKernel(np.ones(1)), mean=0.0,
                     noise_variance=0.1, chol=chol, alpha=np.zeros(3))
    with pytest.raises(TrainingError, match=r"pivot L\[1, 1\] is 0"):
        predict_gpr(model, X)
