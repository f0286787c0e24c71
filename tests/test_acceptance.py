"""Release gate: ten numbered checks, one test each, run with `pytest -v`.

Each check states its tolerance inline and fails loudly when missed:
exact-GP linear algebra against a dense-inverse oracle, analytic gradients
against central finite differences, kernel algebra identities, interpolation
and prior reversion, tree mechanics, regression-metric identities, synthetic
recovery in both directions, command-line determinism, and unit conversions.
"""

import csv
import json
import math
import time

import numpy as np
from scipy.linalg import cho_solve

from corrml import cli
from corrml.dataset import (
    ELEMENT_ORDER,
    Dataset,
    ElementComposition,
    at_to_wt,
    convert_rate,
    generate_inverse_synthetic,
    generate_synthetic,
    wt_to_at,
)
from corrml.evaluation import compute_metrics
from corrml.gpr import GprModel, fit_gpr, fit_log_gpr, nlml, predict_gpr, predict_log_gpr
from corrml.inverse import (
    INVERSE_BASE_ELEMENTS,
    evaluate_inverse,
    fit_inverse,
    predict_inverse,
    submodel_predict,
)
from corrml.kernels import MaternKernel, RbfKernel, SumKernel, cholesky_jitter, gram
from corrml.neural import backward, forward, huber_loss, init_network
from corrml.preprocess import apply_scaler, build_features, fit_scaler, split_train_test
from corrml.trees import fit_forest, fit_gbm, fit_tree, predict_gbm, predict_tree


# ---------------------------------------------------------------- oracle side
# kernel values recomputed from the closed forms, independent of the package's
# vectorized Gram path

def _oracle_k(x, xp, spec):
    if isinstance(spec, SumKernel):
        return _oracle_k(x, xp, spec.left) + _oracle_k(x, xp, spec.right)
    r2 = sum(((a - b) / l) ** 2 for a, b, l in zip(x, xp, spec.lengthscales))
    if isinstance(spec, RbfKernel):
        return spec.variance * math.exp(-0.5 * r2)
    r = math.sqrt(r2)
    if spec.nu == 0.5:
        return spec.variance * math.exp(-r)
    if spec.nu == 1.5:
        return spec.variance * (1.0 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    return (spec.variance * (1.0 + math.sqrt(5) * r + 5.0 * r2 / 3.0)
            * math.exp(-math.sqrt(5) * r))


def _oracle_gram(X, Xp, spec):
    return np.array([[_oracle_k(x, xp, spec) for xp in Xp] for x in X])


def _random_spec(rng, d):
    def leaf():
        ls = rng.uniform(0.6, 2.0, size=d)
        var = rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            return RbfKernel(ls, var)
        return MaternKernel(ls, var, nu=rng.choice([0.5, 1.5, 2.5]))

    return SumKernel(leaf(), leaf()) if rng.random() < 0.4 else leaf()


def _posterior_model(X, y, spec, noise_var, c):
    """Package-path inference state (Gram + Cholesky), as training builds it."""
    K = gram(X, X, spec) + noise_var * np.eye(len(y))
    L, jitter = cholesky_jitter(K)
    alpha = cho_solve((L, True), y - c, check_finite=False)
    return GprModel(x_train=np.asarray(X, float), y_train=np.asarray(y, float),
                    spec=spec, mean=c, noise_variance=noise_var, chol=L,
                    alpha=alpha, jitter=jitter)


# ------------------------------------------------------------------ the gate

def test_01_gp_posterior_and_nlml_match_dense_oracle():
    worst = 0.0
    start = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(6, d))
        y = rng.normal(size=6)
        spec = _random_spec(rng, d)
        noise_var = float(rng.uniform(0.05, 0.5))
        c = float(rng.uniform(-1.0, 1.0))

        Ko = _oracle_gram(X, X, spec) + noise_var * np.eye(6)
        Ko_inv = np.linalg.inv(Ko)
        resid = y - c
        _, logdet = np.linalg.slogdet(Ko)
        nlml_oracle = (0.5 * resid @ Ko_inv @ resid + 0.5 * logdet
                       + 3.0 * math.log(2.0 * math.pi))
        worst = max(worst, abs(nlml(X, y, spec, noise_var, c) - nlml_oracle))

        model = _posterior_model(X, y, spec, noise_var, c)
        X_star = rng.normal(size=(4, d))
        mean, var = predict_gpr(model, X_star)
        k_star = _oracle_gram(X, X_star, spec)
        mean_oracle = c + k_star.T @ Ko_inv @ resid
        prior = np.array([_oracle_k(x, x, spec) for x in X_star])
        var_oracle = prior - np.sum(k_star * (Ko_inv @ k_star), axis=0) + noise_var
        worst = max(worst, float(np.max(np.abs(mean - mean_oracle))),
                    float(np.max(np.abs(var - var_oracle))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"dense-oracle disagreement {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS: posterior/NLML vs dense oracle, max |diff| {worst:.2e} ({elapsed:.2f}s)")


def test_02_gradients_match_central_finite_differences():
    from corrml.gpr import nlml_grad
    from corrml.kernels import get_log_params, set_log_params

    h = 1e-5
    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        X = rng.normal(size=(7, 2))
        y = rng.normal(size=7)
        spec = SumKernel(RbfKernel(rng.uniform(0.8, 1.5, size=2), 1.2),
                         MaternKernel(rng.uniform(0.8, 1.5, size=2), 0.7, nu=1.5))
        noise_var = float(rng.uniform(0.1, 0.4))
        c = float(rng.uniform(-0.5, 0.5))
        _, grad = nlml_grad(X, y, spec, noise_var, c)
        theta = np.concatenate([get_log_params(spec), [math.log(noise_var)], [c]])

        def value_at(vec):
            return nlml(X, y, set_log_params(spec, vec[:-2]), math.exp(vec[-2]), vec[-1])

        for p in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[p] += h
            dn[p] -= h
            fd = (value_at(up) - value_at(dn)) / (2 * h)
            assert abs(grad[p] - fd) / max(abs(fd), 1e-6) <= 1e-4, f"seed {seed} param {p}"

    def kink_distance(net, X, y, delta):
        # finite differences are meaningless across the ReLU corner or the
        # Huber quadratic/linear boundary, so draws must keep clear of both
        h_prev = X
        closest = math.inf
        for layer, (W, b) in enumerate(zip(net.weights, net.biases)):
            pre = h_prev @ W + b
            if layer < len(net.weights) - 1:
                closest = min(closest, float(np.min(np.abs(pre))))
                h_prev = np.maximum(pre, 0.0)
        e = np.abs(y - pre[:, 0])
        return min(closest, float(np.min(np.abs(e - delta))))

    for seed in range(10):
        rng = np.random.default_rng(2100 + seed)
        net = init_network(3, (4, 3), seed=seed)
        for _ in range(50):
            X = rng.normal(size=(5, 3))
            y = rng.normal(size=5)
            if kink_distance(net, X, y, 0.5) > 1e-3:
                break
        else:
            raise AssertionError(f"no kink-free draw found for seed {seed}")
        _, gw, gb = backward(net, X, y, delta=0.5)
        for layer in range(len(net.weights)):
            for arr, grads in ((net.weights[layer], gw[layer]),
                               (net.biases[layer], gb[layer])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = huber_loss(y, np.asarray(forward(net, X)), 0.5)
                    arr[idx] = orig - h
                    dn = huber_loss(y, np.asarray(forward(net, X)), 0.5)
                    arr[idx] = orig
                    fd = (up - dn) / (2 * h)
                    scale = max(abs(fd), abs(grads[idx]), 1e-6)
                    assert abs(grads[idx] - fd) / scale <= 1e-5, f"seed {seed} layer {layer}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS: NLML grad within 1e-4 and network grad within 1e-5 of FD ({elapsed:.2f}s)")


def test_03_kernel_algebra_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(3000)

    # Matern nu=1/2 is the scaled exponential kernel
    X = rng.normal(size=(10, 3))
    ls = rng.uniform(0.5, 2.0, size=3)
    var = 1.7
    K = gram(X, X, MaternKernel(ls, var, nu=0.5))
    diff = X[:, None, :] - X[None, :, :]
    r = np.sqrt(np.sum((diff / ls) ** 2, axis=2))
    assert np.max(np.abs(K - var * np.exp(-r))) <= 1e-12

    # sums of PSD Grams stay PSD
    worst_ratio = 0.0
    for trial in range(50):
        r2 = np.random.default_rng(3100 + trial)
        d = int(r2.integers(1, 4))
        Xt = r2.normal(size=(20, d))
        spec = SumKernel(_random_spec(r2, d), _random_spec(r2, d))
        eig = np.linalg.eigvalsh(gram(Xt, Xt, spec))
        worst_ratio = max(worst_ratio, -float(eig.min()) / float(eig.max()))
    assert worst_ratio <= 1e-8, f"most negative eigenvalue ratio {worst_ratio:.3e}"

    # ARD invariance: rescaling inputs and lengthscales together is a no-op
    scale = rng.uniform(0.2, 5.0, size=3)
    base = gram(X, X, MaternKernel(ls, 1.3, nu=1.5))
    rescaled = gram(X * scale, X * scale, MaternKernel(ls * scale, 1.3, nu=1.5))
    assert np.max(np.abs(base - rescaled)) <= 1e-12
    base = gram(X, X, RbfKernel(ls, 0.8))
    rescaled = gram(X * scale, X * scale, RbfKernel(ls * scale, 0.8))
    assert np.max(np.abs(base - rescaled)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS: Matern-1/2 closed form, PSD sums (worst ratio {worst_ratio:.1e}), "
          f"ARD invariance ({elapsed:.2f}s)")


def test_04_interpolation_and_prior_reversion():
    rng = np.random.default_rng(4000)
    X = np.array([[0.0], [1.1], [2.3], [3.2], [4.0], [5.0]])
    y = rng.normal(size=6)
    spec = RbfKernel(np.ones(1), 1.5)
    c = 0.3
    model = _posterior_model(X, y, spec, 1e-10, c)

    mean, _ = predict_gpr(model, X)
    assert np.max(np.abs(mean - y)) <= 1e-4, "near-noiseless fit must interpolate"

    far = np.array([[100.0], [150.0]])
    mean_far, var_far = predict_gpr(model, far)
    assert np.max(np.abs(mean_far - c)) <= 1e-3, "mean must revert to the prior"
    assert np.max(np.abs(var_far - (1.5 + 1e-10))) <= 1e-3 * 1.5
    print("PASS: interpolation within 1e-4, prior reversion within 1e-3")


def test_05_tree_memorization_boosting_and_bootstrap():
    rng = np.random.default_rng(5000)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    tree = fit_tree(X, y)  # unlimited depth, leaf size 1
    assert np.array_equal(predict_tree(tree, X), y), "distinct inputs must be memorized"

    gbm = fit_gbm(X, y, n_rounds=2, learning_rate=1.0, max_depth=None)
    assert np.max(np.abs(predict_gbm(gbm, X) - y)) < 1e-9, "unit-rate boosting residuals"

    two = fit_gbm(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]),
                  n_rounds=1, learning_rate=0.1, max_depth=None)
    assert list(predict_gbm(two, np.array([[0.0], [1.0]]))) == [4.5, 5.5]

    n = 400
    Xb = rng.normal(size=(n, 4))
    forest = fit_forest(Xb, rng.normal(size=n), n_estimators=100, max_depth=2, seed=0)
    frac = float(np.mean(forest.unique_inbag_counts)) / n
    assert abs(frac - 0.632) <= 0.05 * 0.632, f"unique in-bag fraction {frac:.4f}"
    print(f"PASS: memorization exact, eta=1 residuals < 1e-9, two-point [4.5, 5.5], "
          f"in-bag fraction {frac:.4f} within 0.632 +/- 5%")


def test_06_metric_identities():
    m = compute_metrics(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert (m.mae, m.rmse, m.r2) == (1.0, 1.0, 0.0)

    rng = np.random.default_rng(6000)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.normal(size=n)
        y_hat = rng.normal(size=n)
        m = compute_metrics(y, y_hat)
        assert m.mae <= m.rmse
        mse = float(np.mean((y - y_hat) ** 2))
        assert abs(m.rmse ** 2 - mse) <= 1e-12 * max(1.0, mse)
    print("PASS: hand example exact, MAE <= RMSE on 1000 draws, RMSE^2 == MSE to 1e-12")


def test_07_synthetic_forward_recovery_log_route_leads():
    start = time.perf_counter()
    wins = 0
    log_r2 = []
    for seed in range(10):
        ds = generate_synthetic(331, seed=seed, noise=0.15)
        fm, _ = build_features(ds, "comp+env")
        y = np.array([s.rate for s in ds.samples])
        split = split_train_test(len(y), seed=seed)
        X_train, X_test = fm.values[split.train], fm.values[split.test]
        y_train, y_test = y[split.train], y[split.test]
        scaler = fit_scaler(X_train)
        X_train, X_test = apply_scaler(scaler, X_train), apply_scaler(scaler, X_test)

        plain = fit_gpr(X_train, y_train, epochs=120)  # default Matern-1.5 kernel
        mu_plain, _ = predict_gpr(plain, X_test)
        log_model = fit_log_gpr(X_train, y_train,
                                spec=MaternKernel(np.ones(X_train.shape[1]), 1.0, 1.5),
                                epochs=120)
        mu_log = predict_log_gpr(log_model, X_test)

        wins += compute_metrics(y_test, mu_log).rmse <= compute_metrics(y_test, mu_plain).rmse
        log_r2.append(compute_metrics(y_test, mu_log).r2)
    elapsed = time.perf_counter() - start
    assert wins >= 8, f"log route won only {wins}/10 seeds"
    assert min(log_r2) >= 0.8, f"Matern-1.5 log-route R2 fell to {min(log_r2):.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS: log route wins {wins}/10 on RMSE, Matern-1.5 R2 >= 0.8 "
          f"(min {min(log_r2):.3f}) ({elapsed:.1f}s)")


def test_08_synthetic_inverse_recovery_union_model():
    start = time.perf_counter()
    ds = generate_inverse_synthetic(300, seed=11)
    split = split_train_test(len(ds.samples), seed=11)
    train = Dataset(samples=[ds.samples[i] for i in split.train],
                    environment_names=ds.environment_names)
    test = Dataset(samples=[ds.samples[i] for i in split.test],
                   environment_names=ds.environment_names)
    ensemble = fit_inverse(train, seed=11,
                           configs={"rf": {"n_estimators": 60}, "gbm": {"n_rounds": 60}})
    report = evaluate_inverse(ensemble, test)
    low = min(m.r2 for m in report.union.values())
    assert low > 0.9, {el: round(m.r2, 3) for el, m in report.union.items()}

    # every prediction is clamped to [0, 100] and stays inside the hull of the
    # submodels that served it
    preds = predict_inverse(ensemble, test)
    for s, p in zip(test.samples, preds):
        per_set = []
        for feature_set in p.contributing:
            x = [s.rate, float(s.environment)]
            x += [s.composition.get(e) for e in INVERSE_BASE_ELEMENTS]
            if feature_set != "base":
                x.append(s.duration)
            if feature_set == "base+dur+temp":
                x.append(s.temperature)
            per_set.append(submodel_predict(ensemble.submodels[feature_set],
                                            np.asarray([x])) [0])
        stack = np.vstack(per_set)
        values = np.array([p.values[el] for el in ensemble.target_names])
        assert np.all(values >= 0.0) and np.all(values <= 100.0)
        assert np.all(values >= stack.min(axis=0) - 1e-9)
        assert np.all(values <= stack.max(axis=0) + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"PASS: union R2 per element > 0.9 (min {low:.3f}), convexity and "
          f"clamping hold on {len(preds)} predictions ({elapsed:.1f}s)")


def test_09_cli_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    ds = generate_synthetic(50, seed=7)
    elems = [s for s in ELEMENT_ORDER
             if any(smp.composition.get(s) for smp in ds.samples)]
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "env", "temp_c", "duration_days", "rate", "rate_unit",
                    "grade"] + elems)
        for s in ds.samples:
            w.writerow([s.id, ds.environment_names[s.environment],
                        "" if s.temperature is None else repr(float(s.temperature)),
                        "" if s.duration is None else repr(float(s.duration)),
                        repr(float(s.rate)), "mpy", ""]
                       + [repr(float(s.composition.get(e))) if s.composition.get(e)
                          else "" for e in elems])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model_params": {"rf": {"n_estimators": 8},
                                                "gpr": {"epochs": 5}}}))

    def run_chain(root):
        assert cli.main(["ingest", "--input", str(data), "--out", str(root / "ds")]) == 0
        assert cli.main(["train-forward", "--dataset", str(root / "ds" / "dataset.json"),
                         "--model", "gpr", "--seed", "3", "--config", str(cfg),
                         "--out", str(root / "fwd")]) == 0
        assert cli.main(["predict", "--model", str(root / "fwd" / "model.json"),
                         "--direction", "forward", "--input", str(data),
                         "--out", str(root / "pred")]) == 0
        return ["ds/summary.csv", "fwd/metrics.csv", "fwd/pairs.csv",
                "pred/predictions.csv"]

    names = run_chain(tmp_path / "a")
    run_chain(tmp_path / "b")
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print(f"PASS: {len(names)} CSV outputs byte-identical across repeated runs")


def test_10_pipeline_unit_conversions():
    rng = np.random.default_rng(9000)
    for _ in range(20):
        symbols = rng.choice(ELEMENT_ORDER, size=int(rng.integers(2, 7)), replace=False)
        raw = rng.uniform(0.5, 10.0, size=len(symbols))
        entries = {s: float(v / raw.sum() * 100.0) for s, v in zip(symbols, raw)}
        at = ElementComposition(entries=entries, basis="atomic")
        back = wt_to_at(at_to_wt(at))
        for sym, pct in entries.items():
            assert abs(back.get(sym) - pct) <= 1e-10

    for v in (0.0, 1.0, 2.54, 17.3, 100.0):
        assert convert_rate(v, "mpy", "mmpy") == v * 0.0254
        assert convert_rate(v, "mmpy", "mpy") == v / 0.0254
        assert convert_rate(v, "mpy", "mpy") == v
    assert convert_rate(1.0, "mpy", "mmpy") == 0.0254
    assert convert_rate(2.54, "mmpy", "mpy") == 100.0

    half = wt_to_at(ElementComposition(entries={"Al": 50.0, "Mg": 50.0}, basis="weight"))
    assert abs(half.get("Al") - 47.39) <= 0.01
    assert abs(half.get("Mg") - 52.61) <= 0.01
    print("PASS: wt/at round trip to 1e-10, rate conversions exact, "
          "50-50 Al/Mg within 0.01 at%")
