"""The forward-family table, `ForwardModel`, and the four-family comparison
harness (rate prediction from composition / composition+environment)."""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import DEFAULT_ENVIRONMENTS, Dataset
from .errors import NoSamplesError, ValidationError
from .gpr import (fit_gpr, fit_log_gpr, gpr_from_dict, gpr_to_dict, log_gpr_from_dict,
                  log_gpr_to_dict, predict_gpr, predict_log_gpr)
from .jobs import run_jobs
from .metrics import Metrics, compute_metrics
from .neural import TrainConfig, dnn_from_dict, dnn_to_dict, predict_dnn, train_dnn
from .preprocess import (FEATURE_SETS, ScalerState, apply_scaler, build_features, cap_target,
                         feature_columns, feature_width, fit_scaler, sample_table, select,
                         split_train_test)
from .schema import load, one_of
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


class ForwardModel(NamedTuple):
    """`fit`, a `family` model of `feature_set`'s columns standardized by
    `scaler` (None for a family fit on raw features): the one forward scorer,
    and with `forward_model_from_dict` the one writer and reader of its file."""
    family: str
    feature_set: str
    scaler: ScalerState | None
    fit: object

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The rates of the rows of `X`, the feature set's columns."""
        if self.scaler is not None:
            X = apply_scaler(self.scaler, X)
        return np.asarray(FAMILIES[self.family].predict(self.fit, X), dtype=float)

    def to_dict(self, cap_mode: str, cap_threshold: float, seed: int) -> dict:
        """The model file; its preprocessing records the run's cap and seed."""
        return {"kind": "forward-model", "family": self.family, "feature_set": self.feature_set,
                "environment_names": list(DEFAULT_ENVIRONMENTS),
                "preprocess": {"feature_set": self.feature_set,
                               "columns": feature_columns(self.feature_set),
                               "cap_mode": cap_mode, "cap_threshold": cap_threshold, "seed": seed,
                               "scaler": None if self.scaler is None else self.scaler.to_dict()},
                "model": FAMILIES[self.family].to_dict(self.fit)}


def forward_model_from_dict(payload: dict, path: str) -> ForwardModel:
    """The model of the forward model file `payload`, read from `path`: its
    envelope, scaler, model, model width and recorded preprocessing checked
    in turn, a refusal a ValidationError naming `path` and the key."""
    where, state = f"{path}: forward model file", f"{path}: model file key"
    head = load(payload, {"kind": "forward-model", "environment_names": list(DEFAULT_ENVIRONMENTS),
                          "family": one_of(*FAMILIES), "feature_set": one_of(*FEATURE_SETS),
                          "preprocess": {"scaler": (None, {})}, "model": {}}, where)
    name, feature_set = head["family"], head["feature_set"]
    family, preprocess = FAMILIES[name], payload["preprocess"]
    scaler, width = preprocess["scaler"], feature_width(feature_set)
    if scaler is not None:
        scaler = load(scaler, ScalerState.from_dict, f"{state} 'preprocess.scaler'")
        if scaler.means.size != width:
            raise ValidationError(f"{state} 'preprocess.scaler' has {scaler.means.size} "
                                  f"columns, feature set {feature_set!r} has {width}")
    if (scaler is not None) != family.scaled:
        raise ValidationError(f"{state} 'preprocess.scaler' must be "
                              f"{'an object' if family.scaled else 'null'} for family {name!r}")
    fit = load(payload["model"], family.from_dict, f"{state} 'model'")
    if family.n_inputs(fit) != width:
        raise ValidationError(f"{state} 'model' takes {family.n_inputs(fit)} features, "
                              f"feature set {feature_set!r} has {width}")
    for key, want in {"feature_set": feature_set, "columns": feature_columns(feature_set)}.items():
        if preprocess.get(key) != want:
            raise ValidationError(f"{state} 'preprocess.{key}' does not match feature "
                                  f"set {feature_set!r}")
    return ForwardModel(name, feature_set, scaler, fit)


def forward_prediction_rows(model: ForwardModel, records, fields,
                            model_path: str) -> Iterator[list[str]]:
    """CSV rows (sample_id, predicted_mpy), the header first, of the
    `records` (id, row of `fields`) that carry every field `model` reads,
    read and scored a table of _ROW_CHUNK at a time as the iteration reaches
    it. A table that predicts a non-finite value is a ValidationError naming
    `model_path`, raised before any of its rows. The rows skipped for a
    missing field are counted in a warning, and none scored is refused."""
    yield ["sample_id", "predicted_mpy"]
    read = scored = 0
    for table in sample_table(records, fields, _ROW_CHUNK):
        rows, X = select(table, model.feature_set)
        read, scored = read + len(table), scored + rows.size
        if not rows.size:
            continue
        values = model.predict(X)
        if not np.isfinite(values).all():
            raise ValidationError(f"{model_path}: the model predicts a non-finite value")
        yield from zip(table.ids(rows), map(repr, values.tolist()))
    if not scored:
        raise NoSamplesError(f"no samples carry the fields required by {model.feature_set!r}")
    if scored < read:
        log.warning("%d row(s) lack fields required by feature set %r and were skipped",
                    read - scored, model.feature_set)


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
    split by `seed`, fit on the training rows (z-scores for a family that
    wants them) and score the test rows. Returns (cell, ForwardModel)."""
    entry = forward_family(family)
    fm, y = build_features(Dataset(samples=cap_target(dataset.samples, cap, cap_mode)), feature_set)
    split = split_train_test(y.size, seed=seed, test_fraction=test_fraction)
    X_train, y_test = fm.values[split.train], y[split.test]
    scaler = fit_scaler(X_train) if entry.scaled else None
    model = ForwardModel(family, feature_set, scaler, entry.fit(
        X_train if scaler is None else apply_scaler(scaler, X_train), y[split.train], seed, params))
    pred = model.predict(fm.values[split.test])
    cell = ComparisonCell(model=family, feature_set=feature_set,
                          metrics=compute_metrics(y_test, pred),
                          sample_ids=[fm.sample_ids[i] for i in split.test],
                          y_true=y_test, y_pred=pred)
    return cell, model


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
