"""Inverse prediction: trace-element atomic percentages from corrosion rate
and context.

Three submodels ordered by feature availability — base (rate, numeric
environment id, at% Al/Si/Mg), base+duration, base+duration+temperature —
each a weighted pair of multi-output regressors (random forest + gradient
boosting). Pair weights come from validation R^2 clamped at zero and
normalized; equal scores give (0.5, 0.5). Training and evaluation read a
dataset's rows through `inverse_features`; queries, a dataset's at once or a
file's a block at a time, are scored from a `preprocess.SampleTable`, each
submodel selecting its feature set from it as training does. A query is
served by every submodel whose fields it carries, and the served predictions
are averaged unweighted (the union model), then clamped to the physical
[0, 100] at% range.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import Dataset
from .errors import NoSamplesError, ValidationError
from .jobs import run_jobs
from .metrics import Metrics, compute_metrics
from .preprocess import INVERSE_BASE_ELEMENTS  # noqa: F401  (the base part's; re-exported)
from .preprocess import (feature_fields, feature_width, sample_records, sample_table, select,
                         split_train_test)
from .schema import NUMBER, STRING, integer, parse, shown
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
# Queries read and scored at once (the benchmark's 1,000 are one chunk), and
# the fields of their table, those the widest submodel reads. Chunks of 1,024
# scored 10,000 queries about 12 % slower, as their descent blocks are more,
# and chunks of 4,096 peaked about 0.9 MB higher at 40,000 queries.
_QUERY_CHUNK = 1 << 11
QUERY_FIELDS = feature_fields(SUBMODEL_SETS[-1])


def clamp_at_pct(values: np.ndarray) -> np.ndarray:
    """Atomic percentages are physical: clamp raw regressor output to [0, 100]."""
    return np.clip(values, 0.0, 100.0)


def inverse_features(dataset: Dataset, feature_set: str
                     ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(row positions, X, Y) for one submodel subset: the samples that carry
    every optional field the submodel reads, by position in the dataset.

    X columns: rate, environment id, at% Al, Si, Mg [, duration [, temperature]];
    Y columns: at% of the six target elements.
    """
    if feature_set not in SUBMODEL_SETS:
        raise ValidationError(f"unknown inverse feature set {feature_set!r}")
    fields = feature_fields(feature_set) + INVERSE_TARGETS
    (table,) = sample_table(sample_records(dataset.samples, fields), fields)
    rows, X = select(table, feature_set)
    return rows.tolist(), X, table.columns(INVERSE_TARGETS, rows)


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


def _gbm_job(problems: list, params: dict) -> tuple[list[float], list]:
    """fit_inverse's gbm job: one boosting run fits the validation GBMs and
    the refits of every subset's (train, valid, full) problem, and each
    validation GBM is scored and dropped. Returns per subset the validation
    R^2 and the refits."""
    gbms = fit_gbms([fit for train, _, full in problems for fit in (train, full)], **params)
    r2s = [_score(predict_gbm, val, *valid) for val, (_, valid, _) in zip(gbms[::2], problems)]
    del gbms[::2]
    return r2s, gbms


def _forest_job(seeds, train, valid, full, params: dict) -> tuple[float, list]:
    """One subset's forest job of fit_inverse: its validation forests are
    grown, scored and dropped before its refit forests grow. Returns the
    validation R^2 and the refits."""
    r2 = _score(predict_forest, fit_forests(*train, seeds, **params), *valid)
    return r2, fit_forests(*full, seeds, **params)


def fit_inverse(dataset: Dataset, seed: int = 0, configs: dict | None = None) -> InverseEnsemble:
    """Fit the three-submodel ensemble.

    Per submodel: an internal train/validation split sets the forest/GBM pair
    weights from validation R^2, then both regressors are refit on the full
    subset. Extension subsets smaller than MIN_SUBSET_ROWS are flagged
    absent; an undersized base subset is an error since nothing could be
    served. Every subset is checked before anything is fit.

    The fits are independent jobs of `jobs.run_jobs`, each in a process
    forked for it, up to one at a time per usable CPU, one CPU too, in this
    job order: `gbm` (`_gbm_job`), the one boosting run that fits the
    validation GBMs and refits of every subset, then one `_forest_job` per
    present subset (`base`, `base+dur`, `base+dur+temp`). A failure raises
    the error of the first failing job in that order, so a bad GBM setting
    is reported before a bad forest one. A job whose process dies loses only
    itself. The ensemble is the same whatever the number of processes.

    Only the refits are kept, so within each job every validation model is
    dropped once it is scored: the gbm job scores and drops every validation
    GBM before it returns, and a forest job grows, scores and drops its
    validation forests before it grows the refit forests.
    """
    configs = configs or {}
    rf_params = dict(configs.get("rf", {}))
    gbm_params = dict(configs.get("gbm", {}))
    # subset i's forests are seeded from entry 2i of six: drawing three would reseed them
    subset_seeds = np.random.SeedSequence(seed).generate_state(2 * len(SUBMODEL_SETS))[::2]
    ids, problems, forest_jobs = {}, [], []
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
        ids[feature_set] = [dataset.samples[i].id for i in rows]
        problems.append(((X[split.train], Y[split.train]), (X[split.test], Y[split.test]),
                         (X, Y)))
        forest_jobs.append(partial(_forest_job, forest_seeds, *problems[-1], rf_params))
    (gbm_r2, gbms), *forests = run_jobs([partial(_gbm_job, problems, gbm_params), *forest_jobs],
                                        ["gbm", *ids], "jobs")
    submodels: dict[str, InverseSubmodel | None] = dict.fromkeys(SUBMODEL_SETS)
    for (feature_set, sample_ids), gbm, r2_g, (r2_f, forest) in zip(
            ids.items(), gbms, gbm_r2, forests):
        submodels[feature_set] = InverseSubmodel(
            feature_set=feature_set,
            forest=MultiOutputModel("forest", forest, list(INVERSE_TARGETS)),
            gbm=MultiOutputModel("gbm", gbm, list(INVERSE_TARGETS)),
            weights=pair_weights(r2_f, r2_g), n_rows=len(sample_ids),
            validation_r2=(r2_f, r2_g), sample_ids=sample_ids)
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


def _union(ensemble: InverseEnsemble, n: int, subsets) -> tuple[np.ndarray, dict]:
    """(union, per-set predictions) over `n` rows, from each serving
    submodel's (feature set, rows, X), in SUBMODEL_SETS order: a row's union
    is the sum of its submodels' predictions in that order, divided by their
    count, then clamped. One submodel_predict per submodel, over the rows it
    serves, so tree traversal stays vectorized."""
    # -0.0 is the exact additive identity, so each total is bit for bit the
    # sum np.mean over the sample's submodel predictions would take
    total = np.full((n, len(ensemble.target_names)), -0.0)
    count = np.zeros(n)
    per_set = {}
    for feature_set, rows, X in subsets:
        per_set[feature_set] = P = submodel_predict(ensemble.submodels[feature_set], X)
        total[rows] += P
        count[rows] += 1
    return clamp_at_pct(total / count[:, None]), per_set


def _score_table(ensemble: InverseEnsemble, table) -> tuple[np.ndarray, dict]:
    """(union, served) of a QUERY_FIELDS table's queries, served[feature_set]
    marking those that submodel selects (they carry its fields) and serves."""
    subsets = [(feature_set, *select(table, feature_set))
               for feature_set in ensemble.available_sets()]
    served = {feature_set: np.zeros(len(table), dtype=bool) for feature_set, _, _ in subsets}
    for feature_set, rows, _ in subsets:
        served[feature_set][rows] = True
    return _union(ensemble, len(table), subsets)[0], served


def predict_inverse(ensemble: InverseEnsemble, dataset: Dataset) -> list[InversePrediction]:
    """Union-model predictions for every sample of `dataset`, scored as one
    query table; a dataset of no sample is a NoSamplesError."""
    if not dataset.samples:
        raise NoSamplesError("no sample to predict")
    (table,) = sample_table(sample_records(dataset.samples, QUERY_FIELDS), QUERY_FIELDS)
    union, served = _score_table(ensemble, table)
    return [InversePrediction(s.id, dict(zip(ensemble.target_names, values)),
                              [feature_set for feature_set, mask in served.items() if mask[i]])
            for i, (s, values) in enumerate(zip(dataset.samples, union.tolist()))]


def inverse_prediction_rows(ensemble: InverseEnsemble, records, model: str
                            ) -> Iterator[list[str]]:
    """CSV rows (query_id, element, predicted_at_pct, contributing_submodels),
    the header first, of the query `records` (id, row of QUERY_FIELDS), read
    and scored a table of _QUERY_CHUNK at a time as the iteration reaches it.
    A table that predicts a non-finite value is a ValidationError naming
    `model`, raised before any of its rows; no query is a NoSamplesError."""
    yield ["query_id", "element", "predicted_at_pct", "contributing_submodels"]
    queries = 0
    for table in sample_table(records, QUERY_FIELDS, _QUERY_CHUNK):
        queries += len(table)
        union, served = _score_table(ensemble, table)
        if not np.isfinite(union).all():
            raise ValidationError(f"{model}: the model predicts a non-finite value")
        for i, query_id in enumerate(table.ids(np.arange(len(table)))):
            tag = "|".join(feature_set for feature_set, mask in served.items() if mask[i])
            for el, v in zip(ensemble.target_names, union[i].tolist()):
                yield [query_id, el, repr(v), tag]  # "|" joins the tags: "+" is in their names
        del union, served  # freed before the next table is read
    if not queries:
        raise NoSamplesError("no sample to predict")


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
    truths, subsets = {}, []
    for feature_set in ensemble.available_sets():
        rows, X, truths[feature_set] = inverse_features(dataset, feature_set)
        subsets.append((feature_set, rows, X))
    union, per_set = _union(ensemble, len(dataset.samples), subsets)
    names = ensemble.target_names
    truth = truths["base"]
    per_submodel: dict[str, dict[str, Metrics]] = {}
    counts: dict[str, int] = {}
    for feature_set, P in per_set.items():
        Y = truths[feature_set]
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
        widths = {w for m in model.models for w in
                  (m.stages if kind == "gbm" else m.trees).n_features} - {feature_width(name)}
        if widths:
            raise ValidationError(f"holds trees of {min(widths)} features; submodel {name!r} "
                                  f"has {feature_width(name)}")
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
        raise ValidationError(f"unknown submodel {shown(min(unknown))}; expected one of "
                              f"{list(SUBMODEL_SETS)}")
    return ensemble
