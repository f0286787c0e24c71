"""Exact-GP inference against naive dense linear algebra, gradient checks,
training behaviour, log-space wrapper, serialization."""

import hashlib
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

from corrml.errors import ValidationError
from corrml.gpr import (
    GprModel,
    _data_checksum,
    _finalize,
    _NlmlWorkspace,
    back_transform_log_predictions,
    default_log_kernel,
    default_plain_kernel,
    fit_gpr,
    fit_log_gpr,
    gpr_from_dict,
    gpr_to_dict,
    log_gpr_from_dict,
    log_gpr_to_dict,
    nlml,
    nlml_grad,
    predict_gpr,
    predict_log_gpr,
)
from corrml.kernels import (
    MaternKernel,
    RbfKernel,
    SumKernel,
    cholesky_jitter,
    get_log_params,
    gram,
    leaves,
    set_log_params,
)
from gp_reference import gpr_param_names

HALF_LOG_2PI = 0.9189385332046727


def _naive_nlml(X, y, spec, noise_var, c):
    # brute force: dense inverse + slogdet, no Cholesky
    K = gram(X, X, spec) + noise_var * np.eye(len(y))
    resid = y - c
    _, logdet = np.linalg.slogdet(K)
    return 0.5 * resid @ np.linalg.inv(K) @ resid + 0.5 * logdet + 0.5 * len(y) * math.log(2 * math.pi)


def _build_model(X, y, spec, noise_var, c):
    K = gram(X, X, spec) + noise_var * np.eye(len(y))
    L, jitter = cholesky_jitter(K)
    alpha = cho_solve((L, True), y - c)
    return GprModel(x_train=np.asarray(X, float), y_train=np.asarray(y, float), spec=spec,
                    mean=c, noise_variance=noise_var, chol=L, alpha=alpha, jitter=jitter)


def test_single_point_nlml_closed_form():
    X = np.zeros((1, 1))
    y = np.array([0.7])
    value = nlml(X, y, RbfKernel(np.ones(1), 1.0), 0.0, 0.7)
    assert value == pytest.approx(HALF_LOG_2PI, abs=1e-12)


def test_quadratic_term_scales_with_squared_residual():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    spec = RbfKernel(np.ones(2), 1.0)
    base = nlml(X, np.zeros(5), spec, 0.3, 0.0)  # residual-free: log-det + constant
    q1 = nlml(X, y, spec, 0.3, 0.0) - base
    q2 = nlml(X, 2 * y, spec, 0.3, 0.0) - base
    assert q2 == pytest.approx(4.0 * q1, rel=1e-10)


def test_nlml_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for seed in range(20):
        r = np.random.default_rng(seed)
        X = r.normal(size=(6, 3))
        y = r.normal(size=6)
        spec = SumKernel(RbfKernel(r.uniform(0.5, 2.0, size=3), 1.3),
                         MaternKernel(r.uniform(0.5, 2.0, size=3), 0.7, nu=1.5))
        ours = nlml(X, y, spec, 0.2, 0.4)
        naive = _naive_nlml(X, y, spec, 0.2, 0.4)
        assert ours == pytest.approx(naive, rel=1e-8)
    del rng


@pytest.mark.parametrize("make_spec", [
    lambda r: RbfKernel(r.uniform(0.8, 1.5, size=2), 1.3),
    lambda r: MaternKernel(r.uniform(0.8, 1.5, size=2), 0.6, nu=0.5),
    lambda r: MaternKernel(r.uniform(0.8, 1.5, size=2), 0.6, nu=1.5),
    lambda r: MaternKernel(r.uniform(0.8, 1.5, size=2), 0.6, nu=2.5),
    lambda r: SumKernel(RbfKernel(r.uniform(0.8, 1.5, size=2), 1.1),
                        MaternKernel(r.uniform(0.8, 1.5, size=2), 0.9, nu=2.5)),
], ids=["rbf", "matern12", "matern32", "matern52", "sum"])
def test_nlml_grad_matches_finite_differences(make_spec):
    # a duplicated row exercises each kernel's r = 0 gradient limit
    h = 1e-5
    for seed in range(20):
        r = np.random.default_rng(100 + seed)
        X = r.normal(size=(8, 2))
        X[5] = X[2]
        y = r.normal(size=8)
        spec = make_spec(r)
        noise_var, c = 0.3, 0.1
        _, grad = nlml_grad(X, y, spec, noise_var, c)
        names = gpr_param_names(spec)
        assert grad.size == len(names)
        theta = np.concatenate([get_log_params(spec), [math.log(noise_var)], [c]])

        def value_at(vec):
            return nlml(X, y, set_log_params(spec, vec[:-2]), math.exp(vec[-2]), vec[-1])

        for p in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[p] += h
            dn[p] -= h
            fd = (value_at(up) - value_at(dn)) / (2 * h)
            scale = max(abs(fd), 1e-6)
            assert abs(grad[p] - fd) / scale <= 1e-4, names[p]


def test_noise_gradient_trace_identity():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 2))
    y = rng.normal(size=7)
    spec = RbfKernel(np.ones(2), 1.5)
    noise_var = 0.4
    _, grad = nlml_grad(X, y, spec, noise_var, 0.0)
    K = gram(X, X, spec) + noise_var * np.eye(7)
    k_inv = np.linalg.inv(K)
    alpha = k_inv @ y
    expected = 0.5 * np.trace(k_inv - np.outer(alpha, alpha)) * noise_var
    assert grad[-2] == pytest.approx(expected, rel=1e-8)


def test_single_point_variance_stationarity():
    # with (y - c)^2 = sigma^2 + sigma_n^2 the variance directions are stationary
    X = np.zeros((1, 1))
    y = np.array([2.0])
    spec = RbfKernel(np.ones(1), 0.6)
    _, grad = nlml_grad(X, y, spec, 0.4, 1.0)  # residual 1, total variance 1
    names = gpr_param_names(spec)
    by_name = dict(zip(names, grad))
    assert abs(by_name["k0.log_lengthscale.0"]) < 1e-12
    assert abs(by_name["k0.log_variance"]) < 1e-10
    assert abs(by_name["log_noise_variance"]) < 1e-10
    assert by_name["mean"] == pytest.approx(-1.0, rel=1e-10)


def test_mean_gradient_is_negative_alpha_sum():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    spec = MaternKernel(np.ones(2), 1.0, nu=1.5)
    _, grad = nlml_grad(X, y, spec, 0.2, 0.3)
    K = gram(X, X, spec) + 0.2 * np.eye(6)
    alpha = np.linalg.solve(K, y - 0.3)
    assert grad[-1] == pytest.approx(-alpha.sum(), rel=1e-10)


def test_fit_zero_epochs_uses_initialization_rule():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 3))
    y = rng.normal(loc=5.0, scale=2.0, size=12)
    model = fit_gpr(X, y, epochs=0)
    leaf = leaves(model.spec)[0]
    np.testing.assert_array_equal(leaf.lengthscales, np.ones(3))
    assert leaf.variance == pytest.approx(np.var(y), rel=1e-12)
    assert model.noise_variance == pytest.approx(0.1 * np.var(y), rel=1e-12)
    assert model.mean == pytest.approx(np.mean(y), rel=1e-12)
    assert len(model.history) == 1
    mean, var = predict_gpr(model, X)
    assert mean.shape == (12,) and np.all(var > 0)


def test_fit_recovers_known_lengthscale():
    # draw from a 1-D GP prior with l = 1.5 and check recovery within 2x
    recovered = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = np.sort(rng.uniform(-5, 5, size=60))[:, None]
        true = RbfKernel(np.array([1.5]), 1.0)
        K = gram(X, X, true) + 1e-10 * np.eye(60)
        L, _ = cholesky_jitter(K)
        y = L @ rng.normal(size=60) + 0.1 * rng.normal(size=60)
        model = fit_gpr(X, y, spec=RbfKernel(np.ones(1)), epochs=200)
        assert model.history[-1] <= model.history[0]
        recovered.append(float(leaves(model.spec)[0].lengthscales[0]))
    geo_mean = math.exp(np.mean(np.log(recovered)))
    assert 1.5 / 2 <= geo_mean <= 1.5 * 2


def test_training_curve_mostly_decreasing():
    ok = 0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(size=(40, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
        model = fit_gpr(X, y, epochs=100)
        h = np.asarray(model.history)
        windows = h[50:] - h[:-50]
        if windows.max() <= 1e-7:
            ok += 1
    assert ok >= 9


def test_interpolation_at_tiny_noise():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    model = _build_model(X, y, RbfKernel(np.full(2, 1.5), 2.0), 1e-10, 0.0)
    mean, _ = predict_gpr(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-4)


def test_prior_reversion_far_from_data():
    X = np.zeros((5, 1))
    X[:, 0] = np.linspace(-1, 1, 5)
    y = np.array([0.4, 0.1, -0.2, 0.3, 0.0]) + 2.0
    spec = RbfKernel(np.ones(1), 1.3)
    model = _build_model(X, y, spec, 0.2, 2.0)
    far = np.array([[25.0], [-31.0]])
    mean, var = predict_gpr(model, far)
    np.testing.assert_allclose(mean, 2.0, atol=1e-3)
    np.testing.assert_allclose(var, 1.3 + 0.2, atol=1e-3)


def test_posterior_matches_naive_oracle():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    Xs = rng.normal(size=(4, 2))
    spec = SumKernel(RbfKernel(np.array([1.2, 0.8]), 0.9),
                     MaternKernel(np.array([1.0, 1.5]), 1.1, nu=2.5))
    noise_var, c = 0.15, 0.2
    model = _build_model(X, y, spec, noise_var, c)
    mean, var = predict_gpr(model, Xs)
    K_inv = np.linalg.inv(gram(X, X, spec) + noise_var * np.eye(6))
    Ks = gram(X, Xs, spec)
    naive_mean = c + Ks.T @ K_inv @ (y - c)
    prior = sum(leaf.variance for leaf in leaves(spec))
    naive_var = prior - np.diag(Ks.T @ K_inv @ Ks) + noise_var
    np.testing.assert_allclose(mean, naive_mean, rtol=1e-8)
    np.testing.assert_allclose(var, naive_var, rtol=1e-8)


def test_variance_at_training_points_bounded_by_prior():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    model = fit_gpr(X, y, epochs=30)
    _, var = predict_gpr(model, X)
    assert np.all(var <= model.prior_variance + model.noise_variance + 1e-10)
    latent = var - model.noise_variance
    assert np.all(latent > 0)


def test_duplicate_point_does_not_increase_variance():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    spec = RbfKernel(np.ones(2), 1.0)
    at = X[3:4]
    base = _build_model(X, y, spec, 0.1, 0.0)
    _, v1 = predict_gpr(base, at)
    X2 = np.vstack([X, X[3]])
    y2 = np.append(y, y[3])
    dup = _build_model(X2, y2, spec, 0.1, 0.0)
    _, v2 = predict_gpr(dup, at)
    assert v2[0] <= v1[0] + 1e-10


def test_back_transform_formulas():
    assert back_transform_log_predictions(np.array([0.0]), np.array([0.0]), 0.0,
                                          "median")[0] == pytest.approx(1.0)
    assert back_transform_log_predictions(np.array([0.0]), np.array([0.0]), 0.0,
                                          "mean")[0] == pytest.approx(1.0)
    assert back_transform_log_predictions(np.array([1.0]), np.array([2.0]), 0.0,
                                          "median")[0] == pytest.approx(math.e, rel=1e-12)
    assert back_transform_log_predictions(np.array([1.0]), np.array([2.0]), 0.0,
                                          "mean")[0] == pytest.approx(math.e ** 2, rel=1e-12)
    # deep-negative log mean with epsilon shift would go below zero: clamped
    assert back_transform_log_predictions(np.array([-40.0]), np.array([0.0]), 1e-6,
                                          "median")[0] == 0.0
    with pytest.raises(ValidationError):
        back_transform_log_predictions(np.zeros(1), np.zeros(1), 0.0, "mode")


def test_log_gpr_predictions_nonnegative():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    y = np.exp(0.5 * X[:, 0] + 0.1 * rng.normal(size=30))
    model = fit_log_gpr(X, y, epochs=40)
    preds = predict_log_gpr(model, rng.normal(size=(50, 3)) * 3)
    assert np.all(preds >= 0.0)
    assert model.back_transform == "median"
    # mean mode predicts at least the median under positive variance
    mean_model = fit_log_gpr(X, y, epochs=40, back_transform="mean")
    assert np.all(predict_log_gpr(mean_model, X) >= predict_log_gpr(model, X) - 1e-12)


def test_log_gpr_rejects_bad_targets_and_modes():
    X = np.zeros((3, 1))
    with pytest.raises(ValidationError):
        fit_log_gpr(X, np.array([1.0, -2.0, 3.0]), epochs=0)
    with pytest.raises(ValidationError):
        fit_log_gpr(X, np.ones(3), back_transform="geometric", epochs=0)


def test_default_kernel_structures():
    plain = default_plain_kernel(4)
    assert isinstance(plain, MaternKernel) and plain.nu == 1.5
    assert plain.lengthscales.size == 4
    log = default_log_kernel(4)
    kinds = [type(leaf).__name__ for leaf in leaves(log)]
    assert kinds == ["RbfKernel", "MaternKernel"]
    assert leaves(log)[1].nu == 2.5


def test_serialization_roundtrip_reproduces_predictions():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_gpr(X, y, epochs=25)
    blob = json.dumps(gpr_to_dict(model), sort_keys=True)
    rebuilt = gpr_from_dict(json.loads(blob))
    Xs = rng.normal(size=(7, 3))
    np.testing.assert_allclose(predict_gpr(rebuilt, Xs)[0], predict_gpr(model, Xs)[0],
                               rtol=1e-10)
    np.testing.assert_allclose(predict_gpr(rebuilt, Xs)[1], predict_gpr(model, Xs)[1],
                               rtol=1e-10)

    tampered = json.loads(blob)
    tampered["y_train"][0] += 1.0
    with pytest.raises(ValidationError):
        gpr_from_dict(tampered)
    # a model file cannot hold these infinities, so the checks are fed dicts
    for key, value in (("noise_variance", math.inf), ("mean", -math.inf)):
        with pytest.raises(ValidationError, match=key):
            gpr_from_dict({**json.loads(blob), key: value})


def test_log_serialization_roundtrip():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(15, 2))
    y = np.exp(rng.normal(size=15))
    model = fit_log_gpr(X, y, epochs=10)
    rebuilt = log_gpr_from_dict(json.loads(json.dumps(log_gpr_to_dict(model))))
    Xs = rng.normal(size=(5, 2))
    np.testing.assert_allclose(predict_log_gpr(rebuilt, Xs), predict_log_gpr(model, Xs),
                               rtol=1e-10)


def test_fit_validation_errors():
    with pytest.raises(ValidationError):
        fit_gpr(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ValidationError):
        fit_gpr(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValidationError):
        fit_gpr(np.zeros((4, 2)), np.zeros(4), epochs=-1)
    with pytest.raises(ValidationError):
        fit_gpr(np.zeros((4, 2)), np.zeros(4), spec=RbfKernel(np.ones(3)))
    with pytest.raises(ValidationError):
        model = fit_gpr(np.zeros((4, 2)) + np.arange(8).reshape(4, 2), np.arange(4.0),
                        epochs=0)
        predict_gpr(model, np.zeros((2, 5)))


def _repeated_rows_file(noise_variance):
    """A GP model file over 3 distinct rows, each repeated 4 times: at a
    noise variance far below the kernel's rounding, K is singular."""
    X = np.repeat(np.arange(3.0)[:, None], 4, axis=0)
    y = np.arange(12.0) % 5
    return {"kind": "gpr", "kernel": {"kind": "rbf", "lengthscales": [1.0], "variance": 1.0},
            "mean": 0.0, "noise_variance": noise_variance, "x_train": X.tolist(),
            "y_train": y.tolist(), "checksum": _data_checksum(X, y)}


@pytest.mark.parametrize("origin", ["fitted", "loaded"])
def test_jittered_factor_is_logged_naming_the_jitter_and_the_model(caplog, origin):
    d = _repeated_rows_file(1e-300)
    with caplog.at_level(logging.WARNING, logger="corrml.gpr"):
        if origin == "loaded":
            model = gpr_from_dict(d)
        else:
            model = _finalize(np.array(d["x_train"]), np.array(d["y_train"]),
                              RbfKernel(np.ones(1)), 1e-300, 0.0, [], "fitted")
    assert model.jitter > 0.0
    messages = [r.getMessage() for r in caplog.records if r.name == "corrml.gpr"]
    assert messages == [f"{origin} GP model (12 training rows, noise variance 1e-300) factors "
                        f"only with jitter {model.jitter:g} added to the diagonal of its "
                        f"kernel matrix"]


def test_a_loaded_model_takes_the_jitter_rung_lapack_takes(caplog):
    # repeated rows under a kernel variance of 1e5 and a noise variance of
    # 1e-12: K is singular at the kernel's rounding, and the numpy factor a
    # loaded model takes climbs the ladder to the rung LAPACK's takes
    d = {**_repeated_rows_file(1e-12), "kernel": {"kind": "rbf", "lengthscales": [1.0],
                                                  "variance": 1e5}}
    workspace = _NlmlWorkspace(np.array(d["x_train"]), np.array(d["y_train"]))
    lapack_jitter = workspace._factorize(RbfKernel(np.ones(1), 1e5), 1e-12, 0.0)[4]
    assert lapack_jitter > 0.0
    with caplog.at_level(logging.WARNING, logger="corrml.gpr"):
        model = gpr_from_dict(d)
    assert model.jitter == lapack_jitter
    messages = [r.getMessage() for r in caplog.records if r.name == "corrml.gpr"]
    assert messages == [f"loaded GP model (12 training rows, noise variance 1e-12) factors "
                        f"only with jitter {lapack_jitter:g} added to the diagonal of its "
                        f"kernel matrix"]


def test_unjittered_factor_logs_nothing(caplog):
    with caplog.at_level(logging.WARNING, logger="corrml.gpr"):
        model = gpr_from_dict(_repeated_rows_file(0.1))
    assert model.jitter == 0.0
    assert not [r for r in caplog.records if r.name == "corrml.gpr"]


def test_checksum_is_sha256_of_the_data():
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(9, 4)), rng.normal(size=9)
    expected = hashlib.sha256(X.tobytes() + y.tobytes() + repr(X.shape).encode()).hexdigest()
    assert _data_checksum(X, y) == expected


@pytest.mark.parametrize("kernel", [default_log_kernel, default_plain_kernel],
                         ids=["default-log", "matern32"])
def test_fitted_and_loaded_models_factor_the_gram_matrix(kernel):
    # one K path: a fitted model's factor and a loaded one's are the numpy
    # factor of kernels.gram's K plus the noise, bit for bit, on rows with a
    # constant column off zero
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 4))
    X[:, 2] = 1.5
    y = np.exp(np.sin(X[:, 0]) + 0.3 * X[:, 1])
    model = fit_gpr(X, y, spec=kernel(4), epochs=5)
    loaded = gpr_from_dict(json.loads(json.dumps(gpr_to_dict(model))))
    K = gram(model.x_train, model.x_train, model.spec) + model.noise_variance * np.eye(40)
    want = cholesky_jitter(K, blas=False)[0].tobytes()
    assert model.chol.tobytes() == want
    assert loaded.chol.tobytes() == want


def test_load_holds_under_five_n_by_n_arrays_above_the_model():
    # a load builds K once with kernels.gram, value only: K, one later leaf's
    # values and that leaf's two work arrays, the first also the distances'
    # scratch; then K and the kept factor
    rng = np.random.default_rng(6)
    n, d = 200, 8
    X = rng.normal(size=(n, d))
    model = fit_log_gpr(X, np.exp(np.sin(X[:, 0])), epochs=0)
    payload = json.loads(json.dumps(gpr_to_dict(model.inner)))
    tracemalloc.start()
    try:
        loaded = gpr_from_dict(payload)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.chol.tobytes() == model.inner.chol.tobytes()
    assert peak - kept <= 5 * n * n * 8, f"{(peak - kept) / (n * n * 8):.2f} n x n arrays"
