"""The forward-family table and the four-family forward-model comparison
harness (rate prediction from composition / composition+environment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
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
    through a model file, and `scaled` says whether it trains on
    standardized features (trees split on raw thresholds; the rest want
    z-scores)."""
    fit: Callable
    predict: Callable
    to_dict: Callable
    from_dict: Callable
    scaled: bool


FAMILIES: dict[str, Family] = {
    "rf": Family(fit=lambda X, y, seed, p: fit_forest(X, y, seed=seed, **p),
                 predict=predict_forest, to_dict=forest_to_dict,
                 from_dict=forest_from_dict, scaled=False),
    "dnn": Family(fit=lambda X, y, seed, p: train_dnn(X, y, TrainConfig(seed=seed, **p)),
                  predict=predict_dnn, to_dict=dnn_to_dict, from_dict=dnn_from_dict,
                  scaled=True),
    "gpr": Family(fit=lambda X, y, seed, p: fit_gpr(X, y, **p),
                  predict=lambda model, X: predict_gpr(model, X)[0],
                  to_dict=gpr_to_dict, from_dict=gpr_from_dict, scaled=True),
    "loggpr": Family(fit=lambda X, y, seed, p: fit_log_gpr(X, y, **p),
                     predict=predict_log_gpr, to_dict=log_gpr_to_dict,
                     from_dict=log_gpr_from_dict, scaled=True),
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


def _fit_predict_cell(family: str, X_train, y_train, X_test, seed: int, params: dict):
    """Fit one family on a training split and predict its test rows: the one
    fit path of `compare-forward` and `train-forward`. Returns (model,
    scaler, predictions); `scaler` is None for a family fit on raw features."""
    entry = forward_family(family)
    scaler = None
    if entry.scaled:
        scaler = fit_scaler(X_train)
        X_train = apply_scaler(scaler, X_train)
        X_test = apply_scaler(scaler, X_test)
    model = entry.fit(X_train, y_train, seed, params)
    return model, scaler, np.asarray(entry.predict(model, X_test), dtype=float)


def compare_forward_models(dataset: Dataset, seed: int = 0,
                           feature_sets: tuple[str, ...] = DEFAULT_COMPARE_FEATURE_SETS,
                           models: tuple[str, ...] = tuple(FAMILIES),
                           configs: dict | None = None,
                           cap: float = CAP_MPY, cap_mode: str = "drop",
                           test_fraction: float = 0.2) -> list[ComparisonCell]:
    """Shared-protocol comparison: cap extreme rates, one 80/20 split per
    feature set (same seed), fit every family on the identical split, report
    test metrics and true-vs-predicted pairs. `configs` overrides per-family
    training parameters, e.g. {"dnn": {"lr": 0.01}, "rf": {"n_estimators": 50}}.
    """
    configs = configs or {}
    capped = Dataset(samples=cap_target(dataset.samples, cap, cap_mode),
                     environment_names=dataset.environment_names)
    cells = []
    for feature_set in feature_sets:
        fm, y = build_features(capped, feature_set)
        split = split_train_test(y.size, seed=seed, test_fraction=test_fraction)
        X_train, X_test = fm.values[split.train], fm.values[split.test]
        y_train, y_test = y[split.train], y[split.test]
        test_ids = [fm.sample_ids[i] for i in split.test]
        for model in models:
            # keep only the predictions, so each model is freed before the next fit
            pred = _fit_predict_cell(model, X_train, y_train, X_test, seed,
                                     dict(configs.get(model, {})))[2]
            cells.append(ComparisonCell(model=model, feature_set=feature_set,
                                        metrics=compute_metrics(y_test, pred),
                                        sample_ids=test_ids, y_true=y_test, y_pred=pred))
    return cells


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
