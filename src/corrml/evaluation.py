"""The forward-family table and the four-family forward-model comparison
harness (rate prediction from composition / composition+environment).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import TrainingError, ValidationError
from .gpr import (fit_gpr, fit_log_gpr, gpr_from_dict, gpr_to_dict, log_gpr_from_dict,
                  log_gpr_to_dict, predict_gpr, predict_log_gpr)
from .metrics import Metrics, compute_metrics
from .neural import TrainConfig, dnn_from_dict, dnn_to_dict, predict_dnn, train_dnn
from .preprocess import apply_scaler, build_features, cap_target, fit_scaler, split_train_test
from .trees import fit_forest, forest_from_dict, forest_to_dict, predict_forest

DEFAULT_COMPARE_FEATURE_SETS = ("comp", "comp+env")
CAP_MPY = 100.0


class Family(NamedTuple):
    """One forward model family: `fit(X, y, seed, params)` trains it (only rf
    and dnn draw on the seed; GP training is deterministic),
    `predict(model, X)` gives rates, `to_dict`/`from_dict` round-trip it
    through a model file, `n_inputs(model)` is the feature count a model
    takes, and `scaled` says whether it trains on standardized features
    (trees split on raw thresholds; the rest want z-scores)."""
    fit: Callable
    predict: Callable
    to_dict: Callable
    from_dict: Callable
    n_inputs: Callable
    scaled: bool


FAMILIES: dict[str, Family] = {
    "rf": Family(fit=lambda X, y, seed, p: fit_forest(X, y, seed=seed, **p),
                 predict=predict_forest, to_dict=forest_to_dict,
                 from_dict=forest_from_dict, n_inputs=lambda m: m.n_features, scaled=False),
    "dnn": Family(fit=lambda X, y, seed, p: train_dnn(X, y, TrainConfig(seed=seed, **p)),
                  predict=predict_dnn, to_dict=dnn_to_dict, from_dict=dnn_from_dict,
                  n_inputs=lambda m: m.network.input_dim, scaled=True),
    "gpr": Family(fit=lambda X, y, seed, p: fit_gpr(X, y, **p),
                  predict=lambda model, X: predict_gpr(model, X)[0],
                  to_dict=gpr_to_dict, from_dict=gpr_from_dict,
                  n_inputs=lambda m: m.x_train.shape[1], scaled=True),
    "loggpr": Family(fit=lambda X, y, seed, p: fit_log_gpr(X, y, **p),
                     predict=predict_log_gpr, to_dict=log_gpr_to_dict,
                     from_dict=log_gpr_from_dict,
                     n_inputs=lambda m: m.inner.x_train.shape[1], scaled=True),
}


def forward_family(name: str) -> Family:
    """The table entry for `name`; an unknown name is a ValidationError."""
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ValidationError(f"unknown forward model {name!r}; choose from {tuple(FAMILIES)}")
    return family


@dataclass
class ComparisonCell:
    model: str
    feature_set: str
    metrics: Metrics
    sample_ids: list[str]
    y_true: np.ndarray
    y_pred: np.ndarray


def _fit_predict_cell(family: str, dataset: Dataset, feature_set: str, seed: int,
                      params: dict, cap: float, cap_mode: str, test_fraction: float):
    """One cell of the shared protocol, the one fit path of `compare-forward`
    and `train-forward`: cap extreme rates, build `feature_set`'s features,
    split by `seed`, standardize for a family that wants z-scores, fit on the
    training rows and score the test rows. Returns (cell, model, scaler,
    feature matrix); `scaler` is None for a family fit on raw features."""
    entry = forward_family(family)
    capped = Dataset(samples=cap_target(dataset.samples, cap, cap_mode),
                     environment_names=dataset.environment_names)
    fm, y = build_features(capped, feature_set)
    split = split_train_test(y.size, seed=seed, test_fraction=test_fraction)
    X_train, X_test, y_test = fm.values[split.train], fm.values[split.test], y[split.test]
    scaler = None
    if entry.scaled:
        scaler = fit_scaler(X_train)
        X_train = apply_scaler(scaler, X_train)
        X_test = apply_scaler(scaler, X_test)
    model = entry.fit(X_train, y[split.train], seed, params)
    pred = np.asarray(entry.predict(model, X_test), dtype=float)
    cell = ComparisonCell(model=family, feature_set=feature_set,
                          metrics=compute_metrics(y_test, pred),
                          sample_ids=[fm.sample_ids[i] for i in split.test],
                          y_true=y_test, y_pred=pred)
    return cell, model, scaler, fm


def _fit_cell(job: tuple) -> ComparisonCell:
    """The cell of `_fit_predict_cell(*job)`, its model dropped. This is the
    function `compare_forward_models` hands its worker processes by name: it
    must stay a module-level function that nothing replaces at run time."""
    return _fit_predict_cell(*job)[0]


def _worker_count(n_jobs: int) -> int:
    """Processes for `n_jobs` independent cells: one per CPU this process may
    run on, at most one per cell."""
    return max(1, min(len(os.sched_getaffinity(0)), n_jobs))


def compare_forward_models(dataset: Dataset, seed: int = 0,
                           feature_sets: tuple[str, ...] = DEFAULT_COMPARE_FEATURE_SETS,
                           models: tuple[str, ...] = tuple(FAMILIES),
                           configs: dict | None = None,
                           cap: float = CAP_MPY, cap_mode: str = "drop",
                           test_fraction: float = 0.2) -> list[ComparisonCell]:
    """Shared-protocol comparison: every family fit on the identical split of
    each feature set (same seed), one `_fit_predict_cell` each. `configs`
    overrides per-family training parameters, e.g. {"dnn": {"lr": 0.01},
    "rf": {"n_estimators": 50}}.

    The cells are independent, so they run in up to one forked process per
    usable CPU (`_worker_count`), each cell whole in one process with the
    parent's BLAS thread setting; with one usable CPU they run in this
    process. Cells come back in job order (feature sets outer, models inner),
    and a failure raises the error of the first failing cell in that order.
    A worker that dies loses the cells its pool had not finished; if that is
    the first failure, a TrainingError names them.
    """
    configs = configs or {}
    for model in models:
        forward_family(model)  # an unknown name fails before any process starts
    jobs = [(model, dataset, feature_set, seed, configs.get(model, {}), cap, cap_mode,
             test_fraction)
            for feature_set in feature_sets for model in models]
    workers = _worker_count(len(jobs))
    if workers == 1:
        return list(map(_fit_cell, jobs))
    # imported here so the commands that fit one cell do not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # forked workers inherit the loaded modules and the BLAS thread setting;
    # each job, the dataset in it, is pickled to its worker
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_fit_cell, job) for job in jobs]
    # the pool has stopped: every cell is done, failed, or lost with a dead worker
    failures = [future.exception() for future in futures if future.exception() is not None]
    if failures and isinstance(failures[0], BrokenProcessPool):
        lost = [f"{job[0]} on {job[2]}" for job, future in zip(jobs, futures)
                if isinstance(future.exception(), BrokenProcessPool)]
        raise TrainingError(f"a worker process ended abruptly; the cells {', '.join(lost)} "
                            "were lost")
    return [future.result() for future in futures]


def comparison_metrics_rows(cells: list[ComparisonCell]) -> list[list[str]]:
    """CSV rows (with header) of per-cell metrics; floats via repr for
    byte-stable output."""
    rows = [["model", "feature_set", "r2", "mae", "rmse"]]
    for c in cells:
        rows.append([c.model, c.feature_set, repr(c.metrics.r2), repr(c.metrics.mae),
                     repr(c.metrics.rmse)])
    return rows


def comparison_pairs_rows(cells: list[ComparisonCell]) -> list[list[str]]:
    """CSV rows (with header) of test-set true-vs-predicted pairs for every cell."""
    rows = [["model", "feature_set", "sample_id", "true", "predicted"]]
    for c in cells:
        for sid, t, p in zip(c.sample_ids, c.y_true, c.y_pred):
            rows.append([c.model, c.feature_set, sid, repr(float(t)), repr(float(p))])
    return rows
