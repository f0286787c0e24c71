"""Metrics identities, forward-model comparison harness."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrml import jobs
from corrml.dataset import DEFAULT_ENVIRONMENTS, CorrosionSample, Dataset, ElementComposition
from corrml.errors import ValidationError
from corrml.evaluation import (
    CAP_MPY,
    DEFAULT_COMPARE_FEATURE_SETS,
    FAMILIES,
    ComparisonCell,
    _fit_predict_cell,
    compare_forward_models,
    comparison_metrics_rows,
    comparison_pairs_rows,
    compute_metrics,
)
from conftest import child_env
from test_jobs import no_children


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


def test_comparison_loads_numpy_random_before_its_workers_fork():
    # a worker that imports numpy.random itself holds its extension modules
    # in pages of its own instead of sharing the parent's
    code = ("import sys; from corrml import evaluation; "
            "evaluation.run_jobs = lambda *a: print('numpy.random' in sys.modules) or []; "
            "evaluation.compare_forward_models(None)")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "True"


QUICK_CONFIGS = {"rf": {"n_estimators": 10}, "dnn": {"epochs": 5},
                 "gpr": {"epochs": 3}, "loggpr": {"epochs": 3}}


@pytest.fixture
def pools(monkeypatch):
    """`pools(n)` makes `compare_forward_models` use `n` processes, whatever the
    CPU count, and returns the list of the processes it forks."""
    forked = []
    fork = os.fork

    def recorded():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)

    def force(n):
        monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: n)
        return forked

    return force


@pytest.mark.parametrize("workers", [2, 1])
def test_comparison_equals_a_serial_loop_of_cells(pools, workers):
    data = _linear_dataset(80)
    forked = pools(workers)
    cells = compare_forward_models(data, seed=3, configs=QUICK_CONFIGS)
    assert len(forked) == 8  # one process per cell, one worker or two
    serial = [_fit_predict_cell(model, data, feature_set, 3, QUICK_CONFIGS[model], CAP_MPY,
                                "drop", 0.2)[0]
              for feature_set in DEFAULT_COMPARE_FEATURE_SETS for model in FAMILIES]
    assert [(c.model, c.feature_set) for c in cells] == [
        (c.model, c.feature_set) for c in serial]
    for got, want in zip(cells, serial):
        assert got.metrics == want.metrics
        assert got.sample_ids == want.sample_ids
        assert got.y_true.tobytes() == want.y_true.tobytes()
        assert got.y_pred.tobytes() == want.y_pred.tobytes()
    assert no_children()


def _failing_fit(message, delay):
    def fit(X, y, seed, params):
        time.sleep(delay)
        raise ValidationError(message)
    return fit


@pytest.mark.parametrize("workers", [2, 1])
def test_comparison_raises_the_first_failing_cell_in_job_order(pools, monkeypatch, workers):
    # dnn precedes gpr in job order but, with two workers, fails after it
    monkeypatch.setitem(FAMILIES, "dnn", FAMILIES["dnn"]._replace(
        fit=_failing_fit("dnn cell failed", 0.5)))
    monkeypatch.setitem(FAMILIES, "gpr", FAMILIES["gpr"]._replace(
        fit=_failing_fit("gpr cell failed", 0.0)))
    forked = pools(workers)
    with pytest.raises(ValidationError, match="^dnn cell failed$"):
        compare_forward_models(_linear_dataset(40), feature_sets=("comp",),
                               configs=QUICK_CONFIGS)
    assert len(forked) == 4
    assert no_children()


def test_comparison_rejects_unknown_model_before_any_process_starts(pools):
    forked = pools(2)
    with pytest.raises(ValidationError, match="unknown forward model 'svm'"):
        compare_forward_models(_linear_dataset(40), models=("rf", "svm"))
    assert forked == []
    assert no_children()


ROUND_TRIP_CASES = {
    "rf": ("rf", {"n_estimators": 5}),
    "dnn": ("dnn", {"epochs": 10, "hidden_sizes": (8, 4)}),
    "gpr": ("gpr", {"epochs": 5}),
    "loggpr-median": ("loggpr", {"epochs": 5, "back_transform": "median"}),
    "loggpr-mean": ("loggpr", {"epochs": 5, "back_transform": "mean"}),
}


def _encoded(family, model):
    # a tree model's payload holds its tree list as an iterator, which stands
    # for the list of its items, as cli.write_json reads it
    return json.dumps(family.to_dict(model), sort_keys=True, default=list)


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(8, 30))
def test_model_file_round_trip_is_bit_exact(case, seed, n):
    name, params = ROUND_TRIP_CASES[case]
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = np.exp(X[:, 0] + 0.3 * rng.normal(size=n))
    model = family.fit(X, y, seed, params)
    text = _encoded(family, model)
    loaded = family.from_dict(json.loads(text))
    X_new = rng.normal(size=(7, 4))
    for rows in (X, X_new):
        assert family.predict(loaded, rows).tobytes() == family.predict(model, rows).tobytes()
    assert _encoded(family, loaded) == text
    if name in ("gpr", "loggpr"):
        fitted, rebuilt = (m if name == "gpr" else m.inner for m in (model, loaded))
        assert rebuilt.chol.tobytes() == fitted.chol.tobytes()
        assert rebuilt.alpha.tobytes() == fitted.alpha.tobytes()
