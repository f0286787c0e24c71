"""Inverse prediction: trace-element atomic percentages from corrosion rate
and context.

Three submodels ordered by feature availability — base (rate, numeric
environment id, at% Al/Si/Mg), base+duration, base+duration+temperature —
each a weighted pair of multi-output regressors (random forest + gradient
boosting). Pair weights come from validation R^2 clamped at zero and
normalized; equal scores give (0.5, 0.5). Queries are dataset samples, and
every row a submodel reads comes from `inverse_features`. A sample is served
by every submodel whose fields it carries, and the served predictions are
averaged unweighted (the union model), then clamped to the physical [0, 100]
at% range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ELEMENT_ORDER, Dataset
from .errors import ValidationError
from .metrics import Metrics, compute_metrics
from .preprocess import INVERSE_BASE_ELEMENTS, feature_rows, split_train_test
from .schema import NUMBER, STRING, integer, parse
from .trees import (
    MultiOutputModel,
    fit_forests,
    fit_gbms,
    multi_output_from_dict,
    multi_output_to_dict,
    predict_forest,
    predict_gbm,
    predict_multi_output,
)

INVERSE_TARGETS = ("Zn", "Ti", "Ni", "Cu", "Fe", "Mn")
SUBMODEL_SETS = ("base", "base+dur", "base+dur+temp")
MIN_SUBSET_ROWS = 10
VALIDATION_FRACTION = 0.2  # share of a subset held out to weight its forest/GBM pair


def clamp_at_pct(values: np.ndarray) -> np.ndarray:
    """Atomic percentages are physical: clamp raw regressor output to [0, 100]."""
    return np.clip(values, 0.0, 100.0)


def n_features(feature_set: str) -> int:
    """A submodel's input width: rate, environment id, the base elements and
    one column per optional part."""
    return 2 + len(INVERSE_BASE_ELEMENTS) + feature_set.count("+")


def inverse_features(dataset: Dataset, feature_set: str
                     ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(row positions, X, Y) for one submodel subset: the samples that carry
    every optional field the submodel reads, by position in the dataset.

    X columns: rate, environment id, at% Al, Si, Mg [, duration [, temperature]];
    Y columns: at% of the six target elements, read from the comp columns.
    """
    if feature_set not in SUBMODEL_SETS:
        raise ValidationError(f"unknown inverse feature set {feature_set!r}")
    width = n_features(feature_set)
    rows, M = feature_rows(dataset, feature_set + "+comp", width + len(ELEMENT_ORDER))
    return rows, M[:, :width], M[:, [width + ELEMENT_ORDER.index(e) for e in INVERSE_TARGETS]]


def pair_weights(forest_r2: float, gbm_r2: float) -> tuple[float, float]:
    """Validation-score weighting: w_i = max(R^2_i, 0) normalized; symmetric
    fallback (0.5, 0.5) when both clamp to zero."""
    wf, wg = max(forest_r2, 0.0), max(gbm_r2, 0.0)
    s = wf + wg
    if s == 0.0:
        return 0.5, 0.5
    return wf / s, wg / s


@dataclass
class InverseSubmodel:
    feature_set: str
    forest: MultiOutputModel
    gbm: MultiOutputModel
    weights: tuple[float, float]          # (forest, gbm), nonnegative, sum 1
    n_rows: int
    validation_r2: tuple[float, float]    # mean per-element validation scores
    sample_ids: list[str] = field(default_factory=list)


@dataclass
class InverseEnsemble:
    submodels: dict[str, InverseSubmodel | None]
    target_names: tuple[str, ...]
    seed: int

    def available_sets(self) -> list[str]:
        return [name for name in SUBMODEL_SETS if self.submodels.get(name) is not None]


def _mean_r2(Y_true: np.ndarray, Y_pred: np.ndarray) -> float:
    return float(np.mean([compute_metrics(Y_true[:, j], Y_pred[:, j]).r2
                          for j in range(Y_true.shape[1])]))


def _score(predict, models: list, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean validation R^2 of one fitted model per inverse target."""
    return _mean_r2(Y, np.column_stack([predict(m, X) for m in models]))


def fit_inverse(dataset: Dataset, seed: int = 0, configs: dict | None = None) -> InverseEnsemble:
    """Fit the three-submodel ensemble.

    Per submodel: an internal train/validation split sets the forest/GBM pair
    weights from validation R^2, then both regressors are refit on the full
    subset. Extension subsets smaller than MIN_SUBSET_ROWS are flagged
    absent; an undersized base subset is an error since nothing could be
    served. Every subset is checked before anything is fit.

    Only the refits are kept, so each validation model is dropped once it is
    scored. The validation fits and refits of all GBMs share one boosting
    run, and every validation GBM is scored and dropped before any forest
    grows; then, per subset, the validation forests are grown, scored and
    dropped before the refit forests are grown.
    """
    configs = configs or {}
    rf_params = dict(configs.get("rf", {}))
    gbm_params = dict(configs.get("gbm", {}))
    # subset i's forests are seeded from entry 2i of six: drawing three would reseed them
    subset_seeds = np.random.SeedSequence(seed).generate_state(2 * len(SUBMODEL_SETS))[::2]
    subsets = []
    for feature_set, subset_seed in zip(SUBMODEL_SETS, subset_seeds):
        rows, X, Y = inverse_features(dataset, feature_set)
        if len(rows) < MIN_SUBSET_ROWS:
            if feature_set == "base":
                raise ValidationError(
                    f"base subset has {len(rows)} rows; need at least {MIN_SUBSET_ROWS}")
            continue
        if np.ptp(Y) == 0.0:
            raise ValidationError(f"{feature_set}: all target values identical")
        split = split_train_test(len(rows), seed=seed, test_fraction=VALIDATION_FRACTION)
        forest_seeds = np.random.SeedSequence(int(subset_seed)).generate_state(Y.shape[1])
        subsets.append((feature_set, [dataset.samples[i].id for i in rows], forest_seeds,
                        (X[split.train], Y[split.train]), (X[split.test], Y[split.test]), (X, Y)))
    gbms = fit_gbms([fit for *_, train, _, full in subsets for fit in (train, full)],
                    **gbm_params)
    # score every validation GBM, then keep only the refits
    gbm_r2 = [_score(predict_gbm, val, *valid) for val, (*_, valid, _) in zip(gbms[::2], subsets)]
    del gbms[::2]
    submodels: dict[str, InverseSubmodel | None] = dict.fromkeys(SUBMODEL_SETS)
    for (feature_set, ids, forest_seeds, train, valid, full), gbm, r2_g in zip(
            subsets, gbms, gbm_r2):
        r2_f = _score(predict_forest, fit_forests(*train, forest_seeds, **rf_params), *valid)
        forest = fit_forests(*full, forest_seeds, **rf_params)
        submodels[feature_set] = InverseSubmodel(
            feature_set=feature_set,
            forest=MultiOutputModel("forest", forest, list(INVERSE_TARGETS)),
            gbm=MultiOutputModel("gbm", gbm, list(INVERSE_TARGETS)),
            weights=pair_weights(r2_f, r2_g), n_rows=len(ids),
            validation_r2=(r2_f, r2_g), sample_ids=ids)
    return InverseEnsemble(submodels=submodels, target_names=INVERSE_TARGETS, seed=seed)


@dataclass
class InversePrediction:
    query_id: str
    values: dict[str, float]          # element -> predicted at%
    contributing: list[str]           # submodel feature sets that served the query


def submodel_predict(sub: InverseSubmodel, X: np.ndarray) -> np.ndarray:
    """Convex forest/GBM combination for one submodel; clamped to [0, 100]."""
    wf, wg = sub.weights
    raw = wf * predict_multi_output(sub.forest, X) + wg * predict_multi_output(sub.gbm, X)
    return clamp_at_pct(raw)


def _predict_submodels(ensemble: InverseEnsemble, dataset: Dataset
                       ) -> tuple[np.ndarray, list[list[str]], dict[str, tuple]]:
    """One submodel_predict per available submodel, over the samples that
    carry its fields, so tree traversal stays vectorized.

    Returns the union per sample (the sum of its submodels' predictions, in
    SUBMODEL_SETS order, divided by their count, then clamped), the
    submodels that served each sample, and per submodel its (Y, predictions).
    """
    n = len(dataset.samples)
    # -0.0 is the exact additive identity, so each total is bit for bit the
    # sum np.mean over the sample's submodel predictions would take
    total = np.full((n, len(ensemble.target_names)), -0.0)
    count = np.zeros(n)
    served: list[list[str]] = [[] for _ in range(n)]
    per_set = {}
    for feature_set in ensemble.available_sets():
        rows, X, Y = inverse_features(dataset, feature_set)
        P = submodel_predict(ensemble.submodels[feature_set], X)
        per_set[feature_set] = (Y, P)
        total[rows] += P
        count[rows] += 1
        for i in rows:
            served[i].append(feature_set)
    return clamp_at_pct(total / count[:, None]), served, per_set


def predict_inverse(ensemble: InverseEnsemble, dataset: Dataset) -> list[InversePrediction]:
    """Union-model predictions for every sample of `dataset`: its rate,
    environment, at% Al/Si/Mg and, where present, duration and temperature."""
    union, served, _ = _predict_submodels(ensemble, dataset)
    return [InversePrediction(query_id=s.id,
                              values={el: float(union[i, j])
                                      for j, el in enumerate(ensemble.target_names)},
                              contributing=served[i])
            for i, s in enumerate(dataset.samples)]


@dataclass
class InverseReport:
    union: dict[str, Metrics]                      # element -> metrics
    per_submodel: dict[str, dict[str, Metrics]]    # feature set -> element -> metrics
    counts: dict[str, int]                         # rows served per feature set


def evaluate_inverse(ensemble: InverseEnsemble, dataset: Dataset) -> InverseReport:
    """Score the union model per element on held-out samples, and each
    submodel on the subset of rows it can serve, from one prediction pass.
    Every sample carries the base fields, so the base subset's Y is the
    union's truth."""
    union, _, per_set = _predict_submodels(ensemble, dataset)
    names = ensemble.target_names
    truth = per_set["base"][0]
    per_submodel: dict[str, dict[str, Metrics]] = {}
    counts: dict[str, int] = {}
    for feature_set, (Y, P) in per_set.items():
        counts[feature_set] = len(Y)
        per_submodel[feature_set] = {el: compute_metrics(Y[:, j], P[:, j])
                                     for j, el in enumerate(names)} if len(Y) else {}
    return InverseReport(
        union={el: compute_metrics(truth[:, j], union[:, j]) for j, el in enumerate(names)},
        per_submodel=per_submodel, counts=counts)


def inverse_report_rows(report: InverseReport) -> tuple[list[list[str]], list[list[str]]]:
    """The two CSV tables (element, r2, rmse, submodel_set), each with its
    header: union accuracy per element, and the per-submodel comparison."""
    header = ["element", "r2", "rmse", "submodel_set"]
    union = [[el, repr(m.r2), repr(m.rmse), "union"] for el, m in report.union.items()]
    per_submodel = [[el, repr(m.r2), repr(m.rmse), feature_set] for feature_set in SUBMODEL_SETS
                    for el, m in report.per_submodel.get(feature_set, {}).items()]
    return [header] + union, [header] + per_submodel


def inverse_prediction_rows(preds: list[InversePrediction]) -> list[list[str]]:
    """CSV rows (query_id, element, predicted_at_pct, contributing_submodels)."""
    rows = [["query_id", "element", "predicted_at_pct", "contributing_submodels"]]
    for p in preds:
        tag = "|".join(p.contributing)  # "+" appears inside submodel names
        for el, v in p.values.items():
            rows.append([p.query_id, el, repr(v), tag])
    return rows


def inverse_to_dict(ensemble: InverseEnsemble) -> dict:
    subs = {}
    for name, sub in ensemble.submodels.items():
        if sub is None:
            subs[name] = None
            continue
        subs[name] = {"feature_set": sub.feature_set,
                      "forest": multi_output_to_dict(sub.forest),
                      "gbm": multi_output_to_dict(sub.gbm),
                      "weights": [float(w) for w in sub.weights],
                      "n_rows": int(sub.n_rows),
                      "validation_r2": [float(r) for r in sub.validation_r2],
                      "sample_ids": list(sub.sample_ids)}
    return {"kind": "inverse", "submodels": subs,
            "target_names": list(ensemble.target_names), "seed": int(ensemble.seed)}


def _slot(name: str, kind: str):
    """The spec of submodel `name`'s `kind` slot: a multi-output model of
    that kind over the inverse targets, every tree as wide as its inputs."""
    def parse_slot(d: dict) -> MultiOutputModel:
        parse(d, {"kind": "multi", "base": kind, "target_names": list(INVERSE_TARGETS)})
        model = multi_output_from_dict(d)
        widths = {t.n_features for m in model.models
                  for t in (m.stages if kind == "gbm" else m.trees)} - {n_features(name)}
        if widths:
            raise ValidationError(f"holds trees of {min(widths)} features; submodel {name!r} "
                                  f"has {n_features(name)}")
        return model
    return parse_slot


def _submodel(name: str):
    """The spec of the submodel stored under `name`: its table, then convex
    pair weights."""
    table = {"forest": _slot(name, "forest"), "gbm": _slot(name, "gbm"),
             "weights": [NUMBER, NUMBER], "n_rows": integer(0),
             "validation_r2": [NUMBER, NUMBER], "sample_ids": [STRING], "feature_set": name}

    def parse_submodel(d: dict) -> InverseSubmodel:
        sub = InverseSubmodel(feature_set=name, **parse(d, table))
        if not (min(sub.weights) >= 0 and abs(sum(sub.weights) - 1.0) <= 1e-9):
            raise ValidationError(f"'weights' must be two values >= 0 summing to 1, "
                                  f"got {list(sub.weights)!r}")
        return sub
    return parse_submodel


# the "base" submodel must be present; the others may be absent or null
INVERSE = {"kind": "inverse", "target_names": list(INVERSE_TARGETS), "seed": integer(0),
           "submodels": {"base": _submodel("base"), **{
               name + "?": (None, _submodel(name)) for name in SUBMODEL_SETS[1:]}}}


def inverse_from_dict(d: dict) -> InverseEnsemble:
    """The ensemble a dict holds (INVERSE), checked to be one predict_inverse
    serves: it names no submodel but those of SUBMODEL_SETS."""
    ensemble = InverseEnsemble(**parse(d, INVERSE))
    unknown = set(d["submodels"]) - set(SUBMODEL_SETS)
    if unknown:
        raise ValidationError(f"unknown submodel {min(unknown)!r}; expected one of "
                              f"{list(SUBMODEL_SETS)}")
    return ensemble
