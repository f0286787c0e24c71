"""Metrics identities, forward-model comparison harness."""

import numpy as np
import pytest

from corrml.dataset import DEFAULT_ENVIRONMENTS, CorrosionSample, Dataset, ElementComposition
from corrml.errors import ValidationError
from corrml.evaluation import (
    ComparisonCell,
    compare_forward_models,
    comparison_metrics_rows,
    comparison_pairs_rows,
    compute_metrics,
)


def test_perfect_predictions():
    y = np.array([1.0, 2.0, 3.0])
    m = compute_metrics(y, y)
    assert m.r2 == 1.0 and m.mae == 0.0 and m.mse == 0.0 and m.rmse == 0.0


def test_mean_predictor_gives_zero_r2():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    m = compute_metrics(y, np.full(4, y.mean()))
    assert m.r2 == pytest.approx(0.0, abs=1e-15)


def test_hand_computed_case():
    m = compute_metrics(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert m.mae == 1.0
    assert m.mse == 1.0
    assert m.rmse == 1.0
    assert m.r2 == pytest.approx(0.0, abs=1e-15)


def test_metrics_match_naive_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.normal(size=30)
        p = rng.normal(size=30)
        m = compute_metrics(y, p)
        assert m.mae == pytest.approx(sum(abs(a - b) for a, b in zip(y, p)) / 30, rel=1e-12)
        assert m.mse == pytest.approx(sum((a - b) ** 2 for a, b in zip(y, p)) / 30, rel=1e-12)
        assert m.rmse == pytest.approx(np.sqrt(m.mse), rel=1e-12)
        ss_res = sum((a - b) ** 2 for a, b in zip(y, p))
        ss_tot = sum((a - np.mean(y)) ** 2 for a in y)
        assert m.r2 == pytest.approx(1 - ss_res / ss_tot, rel=1e-12)
        assert m.mae <= m.rmse + 1e-15


def test_r2_affine_invariance():
    rng = np.random.default_rng(1)
    y = rng.normal(size=25)
    p = rng.normal(size=25)
    base = compute_metrics(y, p).r2
    shifted = compute_metrics(3.7 * y - 2.0, 3.7 * p - 2.0).r2
    assert shifted == pytest.approx(base, rel=1e-10)


def test_constant_target_flagged():
    y = np.full(5, 4.0)
    m = compute_metrics(y, np.array([4.0, 4.1, 3.9, 4.0, 4.2]))
    assert m.constant_target and m.r2 == 0.0 and np.isfinite(m.r2)
    perfect = compute_metrics(y, y)
    assert perfect.constant_target and perfect.r2 == 1.0


def test_metrics_validation():
    with pytest.raises(ValidationError):
        compute_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError):
        compute_metrics(np.zeros(0), np.zeros(0))


def _linear_dataset(n: int = 220, seed: int = 0) -> Dataset:
    """Noiseless rates, linear in two element fractions, spread over environments."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        zn = float(rng.uniform(0, 10))
        si = float(rng.uniform(0, 10))
        comp = ElementComposition(
            entries={"Zn": zn, "Si": si, "Al": 100.0 - zn - si}, basis="atomic")
        env = int(rng.integers(0, 9))
        rate = 2.0 + 4.0 * zn + 2.5 * si + 1.5 * env
        samples.append(CorrosionSample(id=f"s{i:04d}", composition=comp,
                                       environment=env, rate=rate))
    return Dataset(samples=samples)


FAST_CONFIGS = {
    "rf": {"n_estimators": 60},
    "dnn": {"lr": 0.02, "epochs": 800},
    "gpr": {"epochs": 80},
    "loggpr": {"epochs": 80},
}


def test_comparison_has_eight_cells_and_is_reproducible():
    data = _linear_dataset(80)
    quick = {"rf": {"n_estimators": 10}, "dnn": {"epochs": 5},
             "gpr": {"epochs": 3}, "loggpr": {"epochs": 3}}
    cells = compare_forward_models(data, seed=0, configs=quick)
    assert len(cells) == 8
    assert {(c.model, c.feature_set) for c in cells} == {
        (m, f) for m in ("rf", "dnn", "gpr", "loggpr") for f in ("comp", "comp+env")}
    again = compare_forward_models(data, seed=0, configs=quick)
    assert [c.metrics for c in cells] == [c.metrics for c in again]
    assert comparison_metrics_rows(cells) == comparison_metrics_rows(again)
    assert comparison_pairs_rows(cells) == comparison_pairs_rows(again)


def test_comparison_all_models_fit_linear_data():
    data = _linear_dataset(220)
    cells = compare_forward_models(data, seed=1, feature_sets=("comp+env",),
                                   configs=FAST_CONFIGS)
    for c in cells:
        assert c.metrics.r2 > 0.9, (c.model, c.metrics.r2)


def test_comparison_csv_rows_shape():
    data = _linear_dataset(60)
    quick = {"rf": {"n_estimators": 5}, "dnn": {"epochs": 2},
             "gpr": {"epochs": 2}, "loggpr": {"epochs": 2}}
    cells = compare_forward_models(data, seed=2, feature_sets=("comp",), configs=quick)
    metrics_rows = comparison_metrics_rows(cells)
    assert metrics_rows[0] == ["model", "feature_set", "r2", "mae", "rmse"]
    assert len(metrics_rows) == 1 + len(cells)
    pairs_rows = comparison_pairs_rows(cells)
    n_test = len(cells[0].sample_ids)
    assert len(pairs_rows) == 1 + n_test * len(cells)
    # every float cell round-trips exactly
    for row in metrics_rows[1:]:
        for cell in row[2:]:
            assert repr(float(cell)) == cell


def test_comparison_rejects_unknown_model():
    data = _linear_dataset(40)
    with pytest.raises(ValidationError):
        compare_forward_models(data, models=("svm",))
