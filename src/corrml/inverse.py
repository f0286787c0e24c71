"""Inverse prediction: trace-element atomic percentages from corrosion rate
and context.

Three submodels ordered by feature availability — base (rate, numeric
environment id, at% Al/Si/Mg), base+duration, base+duration+temperature —
each a weighted pair of multi-output regressors (random forest + gradient
boosting). Pair weights come from validation R^2 clamped at zero and
normalized; equal scores give (0.5, 0.5). A query is served by every submodel
whose features it carries, and the served predictions are averaged unweighted
(the union model), then clamped to the physical [0, 100] at% range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CorrosionSample, Dataset, wt_to_at
from .errors import ValidationError
from .metrics import Metrics, compute_metrics
from .preprocess import split_train_test
from .trees import (
    MultiOutputModel,
    fit_multi_output,
    multi_output_from_dict,
    multi_output_to_dict,
    predict_multi_output,
)

INVERSE_TARGETS = ("Zn", "Ti", "Ni", "Cu", "Fe", "Mn")
INVERSE_BASE_ELEMENTS = ("Al", "Si", "Mg")
SUBMODEL_SETS = ("base", "base+dur", "base+dur+temp")
MIN_SUBSET_ROWS = 10


def clamp_at_pct(values: np.ndarray) -> np.ndarray:
    """Atomic percentages are physical: clamp raw regressor output to [0, 100]."""
    return np.clip(values, 0.0, 100.0)


def _at_composition(sample: CorrosionSample):
    c = sample.composition
    return wt_to_at(c) if c.basis == "weight" else c


def _subset(dataset: Dataset, feature_set: str) -> list[CorrosionSample]:
    if feature_set == "base":
        return list(dataset.samples)
    if feature_set == "base+dur":
        return [s for s in dataset.samples if s.duration is not None]
    if feature_set == "base+dur+temp":
        return [s for s in dataset.samples
                if s.duration is not None and s.temperature is not None]
    raise ValidationError(f"unknown inverse feature set {feature_set!r}")


def inverse_features(dataset: Dataset, feature_set: str
                     ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(sample ids, X, Y) for one submodel subset.

    X columns: rate, environment id, at% Al, Si, Mg [, duration [, temperature]];
    Y columns: at% of the six target elements.
    """
    rows = _subset(dataset, feature_set)
    ids, X, Y = [], [], []
    for s in rows:
        at = _at_composition(s)
        x = [s.rate, float(s.environment)] + [at.get(e) for e in INVERSE_BASE_ELEMENTS]
        if feature_set != "base":
            x.append(s.duration)
        if feature_set == "base+dur+temp":
            x.append(s.temperature)
        ids.append(s.id)
        X.append(x)
        Y.append([at.get(e) for e in INVERSE_TARGETS])
    if not rows:
        d = {"base": 5, "base+dur": 6, "base+dur+temp": 7}[feature_set]
        return ids, np.zeros((0, d)), np.zeros((0, len(INVERSE_TARGETS)))
    return ids, np.asarray(X, dtype=float), np.asarray(Y, dtype=float)


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


def fit_inverse(dataset: Dataset, seed: int = 0, configs: dict | None = None,
                min_rows: int = MIN_SUBSET_ROWS,
                val_fraction: float = 0.2) -> InverseEnsemble:
    """Fit the three-submodel ensemble.

    Per submodel: an internal train/validation split sets the forest/GBM pair
    weights from validation R^2, then both regressors are refit on the full
    subset. Extension subsets smaller than `min_rows` are flagged absent; an
    undersized base subset is an error since nothing could be served.
    """
    configs = configs or {}
    rf_params = dict(configs.get("rf", {}))
    gbm_params = dict(configs.get("gbm", {}))
    sub_seeds = np.random.SeedSequence(seed).generate_state(2 * len(SUBMODEL_SETS))
    submodels: dict[str, InverseSubmodel | None] = {}
    for i, feature_set in enumerate(SUBMODEL_SETS):
        ids, X, Y = inverse_features(dataset, feature_set)
        if len(ids) < min_rows:
            if feature_set == "base":
                raise ValidationError(
                    f"base subset has {len(ids)} rows; need at least {min_rows}")
            submodels[feature_set] = None
            continue
        if np.ptp(Y) == 0.0:
            raise ValidationError(f"{feature_set}: all target values identical")
        split = split_train_test(len(ids), seed=seed, test_fraction=val_fraction)
        Xt, Yt = X[split.train], Y[split.train]
        Xv, Yv = X[split.test], Y[split.test]
        forest_seed, gbm_seed = int(sub_seeds[2 * i]), int(sub_seeds[2 * i + 1])
        forest_val = fit_multi_output(Xt, Yt, kind="forest", seed=forest_seed,
                                      target_names=list(INVERSE_TARGETS), **rf_params)
        gbm_val = fit_multi_output(Xt, Yt, kind="gbm", seed=gbm_seed,
                                   target_names=list(INVERSE_TARGETS), **gbm_params)
        r2_f = _mean_r2(Yv, predict_multi_output(forest_val, Xv))
        r2_g = _mean_r2(Yv, predict_multi_output(gbm_val, Xv))
        weights = pair_weights(r2_f, r2_g)
        forest = fit_multi_output(X, Y, kind="forest", seed=forest_seed,
                                  target_names=list(INVERSE_TARGETS), **rf_params)
        gbm = fit_multi_output(X, Y, kind="gbm", seed=gbm_seed,
                               target_names=list(INVERSE_TARGETS), **gbm_params)
        submodels[feature_set] = InverseSubmodel(
            feature_set=feature_set, forest=forest, gbm=gbm, weights=weights,
            n_rows=len(ids), validation_r2=(r2_f, r2_g), sample_ids=ids)
    return InverseEnsemble(submodels=submodels, target_names=INVERSE_TARGETS, seed=seed)


@dataclass
class InversePrediction:
    query_id: str
    values: dict[str, float]          # element -> predicted at%
    contributing: list[str]           # submodel feature sets that served the query


REQUIRED_QUERY_KEYS = ("rate", "environment", "Al", "Si", "Mg")


def _query_vector(query: dict, feature_set: str) -> list[float]:
    x = [float(query["rate"]), float(query["environment"])]
    x += [float(query[e]) for e in INVERSE_BASE_ELEMENTS]
    if feature_set != "base":
        x.append(float(query["duration"]))
    if feature_set == "base+dur+temp":
        x.append(float(query["temperature"]))
    return x


def _applicable_sets(ensemble: InverseEnsemble, query: dict) -> list[str]:
    has_dur = query.get("duration") is not None
    has_temp = query.get("temperature") is not None
    out = []
    for feature_set in ensemble.available_sets():
        if feature_set == "base+dur" and not has_dur:
            continue
        if feature_set == "base+dur+temp" and not (has_dur and has_temp):
            continue
        out.append(feature_set)
    return out


def submodel_predict(sub: InverseSubmodel, X: np.ndarray) -> np.ndarray:
    """Convex forest/GBM combination for one submodel; clamped to [0, 100]."""
    wf, wg = sub.weights
    raw = wf * predict_multi_output(sub.forest, X) + wg * predict_multi_output(sub.gbm, X)
    return clamp_at_pct(raw)


def predict_inverse(ensemble: InverseEnsemble, queries: list[dict]
                    ) -> list[InversePrediction]:
    """Union-model predictions for a batch of query dicts.

    Required keys: rate, environment, Al, Si, Mg (at%); optional: duration,
    temperature, id. Queries are grouped by their applicable submodel
    signature so tree traversal stays vectorized.
    """
    for q in queries:
        for key in REQUIRED_QUERY_KEYS:
            if q.get(key) is None:
                raise ValidationError(f"query missing base feature {key!r}")
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, q in enumerate(queries):
        groups.setdefault(tuple(_applicable_sets(ensemble, q)), []).append(i)
    results: list[InversePrediction | None] = [None] * len(queries)
    for sets, rows in groups.items():
        stack = []
        for feature_set in sets:
            X = np.asarray([_query_vector(queries[i], feature_set) for i in rows])
            stack.append(submodel_predict(ensemble.submodels[feature_set], X))
        union = clamp_at_pct(np.mean(stack, axis=0))
        for row_pos, i in enumerate(rows):
            values = {el: float(union[row_pos, j])
                      for j, el in enumerate(ensemble.target_names)}
            results[i] = InversePrediction(query_id=str(queries[i].get("id", i)),
                                           values=values, contributing=list(sets))
    return results  # type: ignore[return-value]


def queries_from_dataset(dataset: Dataset) -> list[dict]:
    """Query dicts (base features + available extensions) for every sample."""
    out = []
    for s in dataset.samples:
        at = _at_composition(s)
        q = {"id": s.id, "rate": s.rate, "environment": s.environment,
             "Al": at.get("Al"), "Si": at.get("Si"), "Mg": at.get("Mg"),
             "duration": s.duration, "temperature": s.temperature}
        out.append(q)
    return out


@dataclass
class InverseReport:
    union: dict[str, Metrics]                      # element -> metrics
    per_submodel: dict[str, dict[str, Metrics]]    # feature set -> element -> metrics
    counts: dict[str, int]                         # rows served per feature set


def evaluate_inverse(ensemble: InverseEnsemble, dataset: Dataset) -> InverseReport:
    """Score the union model per element on held-out samples, and each
    submodel on the subset of rows it can serve."""
    queries = queries_from_dataset(dataset)
    preds = predict_inverse(ensemble, queries)
    truth = {s.id: _at_composition(s) for s in dataset.samples}
    union_true = {el: [] for el in ensemble.target_names}
    union_pred = {el: [] for el in ensemble.target_names}
    for p in preds:
        at = truth[p.query_id]
        for el in ensemble.target_names:
            union_true[el].append(at.get(el))
            union_pred[el].append(p.values[el])
    union = {el: compute_metrics(np.asarray(union_true[el]), np.asarray(union_pred[el]))
             for el in ensemble.target_names}

    per_submodel: dict[str, dict[str, Metrics]] = {}
    counts: dict[str, int] = {}
    for feature_set in ensemble.available_sets():
        ids, X, Y = inverse_features(dataset, feature_set)
        counts[feature_set] = len(ids)
        if not ids:
            per_submodel[feature_set] = {}
            continue
        P = submodel_predict(ensemble.submodels[feature_set], X)
        per_submodel[feature_set] = {
            el: compute_metrics(Y[:, j], P[:, j])
            for j, el in enumerate(ensemble.target_names)}
    return InverseReport(union=union, per_submodel=per_submodel, counts=counts)


def inverse_report_rows(report: InverseReport) -> list[list[str]]:
    """CSV rows (element, r2, rmse, submodel_set) for the union and submodels."""
    rows = [["element", "r2", "rmse", "submodel_set"]]
    for el, m in report.union.items():
        rows.append([el, repr(m.r2), repr(m.rmse), "union"])
    for feature_set in SUBMODEL_SETS:
        for el, m in report.per_submodel.get(feature_set, {}).items():
            rows.append([el, repr(m.r2), repr(m.rmse), feature_set])
    return rows


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


def inverse_from_dict(d: dict) -> InverseEnsemble:
    if d.get("kind") != "inverse":
        raise ValidationError(f"expected kind 'inverse', got {d.get('kind')!r}")
    subs: dict[str, InverseSubmodel | None] = {}
    for name, sd in d["submodels"].items():
        if sd is None:
            subs[name] = None
            continue
        subs[name] = InverseSubmodel(
            feature_set=sd["feature_set"],
            forest=multi_output_from_dict(sd["forest"]),
            gbm=multi_output_from_dict(sd["gbm"]),
            weights=(float(sd["weights"][0]), float(sd["weights"][1])),
            n_rows=int(sd["n_rows"]),
            validation_r2=(float(sd["validation_r2"][0]), float(sd["validation_r2"][1])),
            sample_ids=list(sd["sample_ids"]))
    return InverseEnsemble(submodels=subs, target_names=tuple(d["target_names"]),
                           seed=int(d["seed"]))
