"""The forward-family table and the four-family forward-model comparison
harness (rate prediction from composition / composition+environment).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import NoSamplesError, ValidationError
from .gpr import (fit_gpr, fit_log_gpr, gpr_from_dict, gpr_to_dict, log_gpr_from_dict,
                  log_gpr_to_dict, predict_gpr, predict_log_gpr)
from .jobs import run_jobs
from .metrics import Metrics, compute_metrics
from .neural import TrainConfig, dnn_from_dict, dnn_to_dict, predict_dnn, train_dnn
from .preprocess import (apply_scaler, build_features, cap_target, fit_scaler, sample_table,
                         select, split_train_test)
from .trees import fit_forest, forest_from_dict, forest_to_dict, predict_forest

log = logging.getLogger(__name__)

DEFAULT_COMPARE_FEATURE_SETS = ("comp", "comp+env")
CAP_MPY = 100.0
# forward `predict` reads and scores this many query rows at a time: a GP
# chunk's cross-covariances and their kernel work are a few hundred KB
_ROW_CHUNK = 64


class Family(NamedTuple):
    """One forward model family: `fit(X, y, seed, params)` trains it (only rf
    and dnn draw on the seed; GP training is deterministic),
    `predict(model, X)` gives rates, each row's from that row alone, so that
    it does not depend on the rows scored beside it, `to_dict`/`from_dict`
    round-trip it through a model file, `n_inputs(model)` is the feature
    count a model takes, and `scaled` says whether it trains on standardized
    features (trees split on raw thresholds; the rest want z-scores)."""
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
                  predict=lambda model, X: predict_gpr(model, X, variance=False)[0],
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


def forward_prediction_rows(family: Family, model, scaler, records, fields,
                            feature_set: str, model_path: str) -> Iterator[list[str]]:
    """CSV rows (sample_id, predicted_mpy), the header first, of the
    `records` (id, row of `fields`) that carry every field of `feature_set`,
    read and scored a table of _ROW_CHUNK at a time as the iteration reaches
    it. A table that predicts a non-finite value is a ValidationError naming
    `model_path`, raised before any of its rows. The rows skipped for a
    missing field are counted in a warning, and none scored is refused."""
    yield ["sample_id", "predicted_mpy"]
    read = scored = 0
    for table in sample_table(records, fields, _ROW_CHUNK):
        rows, X = select(table, feature_set)
        read, scored = read + len(table), scored + rows.size
        if not rows.size:
            continue
        values = np.asarray(family.predict(model, X if scaler is None
                                           else apply_scaler(scaler, X)), dtype=float)
        if not np.isfinite(values).all():
            raise ValidationError(f"{model_path}: the model predicts a non-finite value")
        yield from zip(table.ids(rows), map(repr, values.tolist()))
    if not scored:
        raise NoSamplesError(f"no samples carry the fields required by {feature_set!r}")
    if scored < read:
        log.warning("%d row(s) lack fields required by feature set %r and were skipped",
                    read - scored, feature_set)


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
    fm, y = build_features(Dataset(samples=cap_target(dataset.samples, cap, cap_mode)), feature_set)
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

    The cells are independent jobs of `jobs.run_jobs`: each cell runs in a
    process forked for it, up to one at a time per usable CPU, one CPU too.
    Cells come back in job order (feature sets outer, models inner), and a
    failure raises the error of the first failing cell in that order. A
    cell whose process dies is lost, and only that cell; if that is the
    first failure, a TrainingError names the lost cells.
    """
    # every cell draws from numpy.random, and GP cells train through the
    # BLAS/LAPACK binding; imported before the fork, their extension modules
    # (and OpenSSL's libcrypto, in a process that lets hashlib load it) are
    # pages the workers share instead of each loading them
    import numpy.random  # noqa: F401

    from . import _linalg  # noqa: F401

    configs = configs or {}
    for model in models:
        forward_family(model)  # an unknown name fails before any process starts
    cells = [(model, feature_set) for feature_set in feature_sets for model in models]
    return run_jobs([lambda m=model, f=feature_set: _fit_predict_cell(
        m, dataset, f, seed, configs.get(m, {}), cap, cap_mode, test_fraction)[0]
        for model, feature_set in cells], [f"{m} on {f}" for m, f in cells], "cells")


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
