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

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import ELEMENT_ORDER, Dataset
from .errors import ValidationError
from .metrics import Metrics, compute_metrics
from .preprocess import INVERSE_BASE_ELEMENTS, feature_rows, split_train_test
from .trees import (
    MultiOutputModel,
    fit_multi_outputs,
    multi_output_from_dict,
    multi_output_to_dict,
    predict_multi_output,
)

INVERSE_TARGETS = ("Zn", "Ti", "Ni", "Cu", "Fe", "Mn")
SUBMODEL_SETS = ("base", "base+dur", "base+dur+temp")
MIN_SUBSET_ROWS = 10


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


def fit_inverse(dataset: Dataset, seed: int = 0, configs: dict | None = None,
                min_rows: int = MIN_SUBSET_ROWS,
                val_fraction: float = 0.2) -> InverseEnsemble:
    """Fit the three-submodel ensemble.

    Per submodel: an internal train/validation split sets the forest/GBM pair
    weights from validation R^2, then both regressors are refit on the full
    subset. Extension subsets smaller than `min_rows` are flagged absent; an
    undersized base subset is an error since nothing could be served. Every
    subset is checked before anything is fit.

    Only the refits are kept, so each validation model is scored as soon as
    it is grown and dropped before the next grow. The validation fits and
    refits of all GBMs grow each boosting round's trees together; then, per
    subset, the validation forests are grown, scored and dropped before the
    refit forests are grown, so no batch of trees mixes the two.
    """
    configs = configs or {}
    rf_params = dict(configs.get("rf", {}))
    gbm_params = dict(configs.get("gbm", {}))
    sub_seeds = np.random.SeedSequence(seed).generate_state(2 * len(SUBMODEL_SETS))
    submodels: dict[str, InverseSubmodel | None] = dict.fromkeys(SUBMODEL_SETS)
    subsets = []
    for i, feature_set in enumerate(SUBMODEL_SETS):
        rows, X, Y = inverse_features(dataset, feature_set)
        if len(rows) < min_rows:
            if feature_set == "base":
                raise ValidationError(
                    f"base subset has {len(rows)} rows; need at least {min_rows}")
            continue
        if np.ptp(Y) == 0.0:
            raise ValidationError(f"{feature_set}: all target values identical")
        ids = [dataset.samples[i].id for i in rows]
        split = split_train_test(len(ids), seed=seed, test_fraction=val_fraction)
        forest_seed, gbm_seed = int(sub_seeds[2 * i]), int(sub_seeds[2 * i + 1])
        subsets.append((feature_set, ids, (X[split.train], Y[split.train]),
                        (X[split.test], Y[split.test]), (X, Y), forest_seed, gbm_seed))
    names = list(INVERSE_TARGETS)
    gbms = fit_multi_outputs("gbm", [(*fit, gbm_seed) for _, _, train, _, full, _, gbm_seed
                                     in subsets for fit in (train, full)], names, **gbm_params)
    # pop(k) takes subset k's validation GBM, so only the refits stay, in order
    gbm_r2 = [_mean_r2(Yv, predict_multi_output(gbms.pop(k), Xv))
              for k, (_, _, _, (Xv, Yv), _, _, _) in enumerate(subsets)]
    for (feature_set, ids, train, (Xv, Yv), full, forest_seed, _), gbm, r2_g in zip(
            subsets, gbms, gbm_r2):
        forest_val, = fit_multi_outputs("forest", [(*train, forest_seed)], names, **rf_params)
        r2_f = _mean_r2(Yv, predict_multi_output(forest_val, Xv))
        del forest_val
        forest, = fit_multi_outputs("forest", [(*full, forest_seed)], names, **rf_params)
        submodels[feature_set] = InverseSubmodel(
            feature_set=feature_set, forest=forest, gbm=gbm, weights=pair_weights(r2_f, r2_g),
            n_rows=len(ids), validation_r2=(r2_f, r2_g), sample_ids=ids)
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


def _check_weights(name: str, weights) -> tuple[float, float]:
    """A submodel's pair weights, which must form a convex combination."""
    w = [float(v) for v in weights]
    if not (len(w) == 2 and all(math.isfinite(v) and v >= 0 for v in w)
            and abs(w[0] + w[1] - 1.0) <= 1e-9):
        raise ValidationError(f"submodel {name!r} 'weights' must be two finite values >= 0 "
                              f"summing to 1, got {weights!r}")
    return w[0], w[1]


def _pair_member(name: str, sd: dict, slot: str) -> MultiOutputModel:
    """The submodel's `slot` regressor: a model of that kind per target,
    every tree trained on the submodel's features."""
    model = multi_output_from_dict(sd[slot])
    if model.kind != slot or tuple(model.target_names) != INVERSE_TARGETS:
        raise ValidationError(f"submodel {name!r} {slot!r} must be a {slot} model of the "
                              f"targets {list(INVERSE_TARGETS)}, got a {model.kind} model of "
                              f"{model.target_names}")
    width = n_features(name)
    widths = {t.n_features for m in model.models
              for t in (m.stages if slot == "gbm" else m.trees)} - {width}
    if widths:
        raise ValidationError(f"submodel {name!r} {slot!r} holds trees of {min(widths)} "
                              f"features; the submodel has {width}")
    return model


def inverse_from_dict(d: dict) -> InverseEnsemble:
    """The ensemble a dict holds, checked to be one predict_inverse serves:
    a base submodel, only known submodel names, each stored under its own
    feature set, and per submodel convex pair weights over a forest and a GBM
    model of every inverse target."""
    if d.get("kind") != "inverse":
        raise ValidationError(f"expected kind 'inverse', got {d.get('kind')!r}")
    if tuple(d["target_names"]) != INVERSE_TARGETS:
        raise ValidationError(f"'target_names' must be {list(INVERSE_TARGETS)}, got "
                              f"{d['target_names']!r}")
    stored = d["submodels"]
    if not isinstance(stored, dict) or stored.get("base") is None:
        raise ValidationError("'submodels' must be an object holding the 'base' submodel")
    subs: dict[str, InverseSubmodel | None] = {}
    for name, sd in stored.items():
        if name not in SUBMODEL_SETS:
            raise ValidationError(f"unknown submodel {name!r}; expected one of "
                                  f"{list(SUBMODEL_SETS)}")
        if sd is None:
            subs[name] = None
            continue
        forest, gbm = _pair_member(name, sd, "forest"), _pair_member(name, sd, "gbm")
        if sd["feature_set"] != name:
            raise ValidationError(f"submodel {name!r} 'feature_set' must be {name!r}, "
                                  f"got {sd['feature_set']!r}")
        subs[name] = InverseSubmodel(
            feature_set=name, forest=forest, gbm=gbm,
            weights=_check_weights(name, sd["weights"]),
            n_rows=int(sd["n_rows"]),
            validation_r2=(float(sd["validation_r2"][0]), float(sd["validation_r2"][1])),
            sample_ids=list(sd["sample_ids"]))
    return InverseEnsemble(submodels=subs, target_names=INVERSE_TARGETS, seed=int(d["seed"]))
