"""Inverse ensemble: submodel construction, pair weighting, union aggregation."""

import copy
import math
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrml import cli, inverse, jobs, trees
from corrml.dataset import (CorrosionSample, Dataset, ElementComposition,
                            generate_inverse_synthetic)
from corrml.errors import NoSamplesError, ValidationError
from corrml.inverse import (
    INVERSE_TARGETS,
    MIN_SUBSET_ROWS,
    QUERY_FIELDS,
    SUBMODEL_SETS,
    InverseSubmodel,
    _mean_r2,
    clamp_at_pct,
    evaluate_inverse,
    fit_inverse,
    inverse_features,
    inverse_from_dict,
    inverse_prediction_rows,
    inverse_report_rows,
    inverse_to_dict,
    pair_weights,
    predict_inverse,
    submodel_predict,
)
from corrml.preprocess import sample_records, split_train_test
from corrml.trees import (MultiOutputModel, fit_forests, fit_gbms, multi_output_to_dict,
                          node_arrays, predict_multi_output)
from test_jobs import no_children
from test_trees import written

QUICK = {"rf": {"n_estimators": 8, "max_depth": 10}, "gbm": {"n_rounds": 15}}


def _vector(sample, feature_set):
    """A sample's features for one submodel: the base ones, then its fields."""
    fields = {"base": [], "base+dur": ["duration"], "base+dur+temp": ["duration", "temperature"]}
    return ([sample.rate, float(sample.environment)]
            + [sample.composition.get(e) for e in ("Al", "Si", "Mg")]
            + [getattr(sample, f) for f in fields[feature_set]])


def _query(query_id, rate, environment, duration=None, temperature=None,
           al=42.0, si=1.5, mg=3.0):
    """A query sample: the base features, and optionally duration and temperature."""
    return CorrosionSample(
        id=query_id, composition=ElementComposition({"Al": al, "Si": si, "Mg": mg}, "atomic"),
        environment=environment, rate=rate, duration=duration, temperature=temperature)


def _queries(samples) -> Dataset:
    return Dataset(samples=list(samples))


def _strip_extensions(dataset: Dataset) -> Dataset:
    samples = [CorrosionSample(id=s.id, composition=s.composition,
                               environment=s.environment, rate=s.rate)
               for s in dataset.samples]
    return Dataset(samples=samples, environment_names=dataset.environment_names)


def _without_temperatures(dataset: Dataset) -> Dataset:
    samples = [CorrosionSample(id=s.id, composition=s.composition,
                               environment=s.environment, rate=s.rate, duration=s.duration)
               for s in dataset.samples]
    return Dataset(samples=samples, environment_names=dataset.environment_names)


def _fit_inverse_subset_by_subset(dataset, seed, configs):
    """fit_inverse as independent fit_forests and fit_gbms calls, one subset
    and one fit at a time: the oracle for its batched fits."""
    sub_seeds = np.random.SeedSequence(seed).generate_state(2 * len(SUBMODEL_SETS))
    names = list(INVERSE_TARGETS)
    submodels = {}
    for i, feature_set in enumerate(SUBMODEL_SETS):
        rows, X, Y = inverse_features(dataset, feature_set)
        if len(rows) < MIN_SUBSET_ROWS:
            submodels[feature_set] = None
            continue
        split = split_train_test(len(rows), seed=seed, test_fraction=0.2)
        Xt, Yt, Xv, Yv = X[split.train], Y[split.train], X[split.test], Y[split.test]
        forest_seeds = np.random.SeedSequence(int(sub_seeds[2 * i])).generate_state(len(names))

        def model(kind, X, Y):
            if kind == "forest":
                return MultiOutputModel(kind, fit_forests(X, Y, forest_seeds, **configs["rf"]),
                                        names)
            return MultiOutputModel(kind, fit_gbms([(X, Y)], **configs["gbm"])[0], names)

        r2_f = _mean_r2(Yv, predict_multi_output(model("forest", Xt, Yt), Xv))
        r2_g = _mean_r2(Yv, predict_multi_output(model("gbm", Xt, Yt), Xv))
        submodels[feature_set] = InverseSubmodel(
            feature_set=feature_set, forest=model("forest", X, Y), gbm=model("gbm", X, Y),
            weights=pair_weights(r2_f, r2_g), n_rows=len(rows), validation_r2=(r2_f, r2_g),
            sample_ids=[dataset.samples[i].id for i in rows])
    return submodels


@pytest.mark.parametrize("strip,present", [
    (lambda d: d, list(SUBMODEL_SETS)),
    (_without_temperatures, ["base", "base+dur"]),
    (_strip_extensions, ["base"]),
], ids=["all-subsets", "no-temperature", "base-only"])
@pytest.mark.parametrize("configs", [
    QUICK,
    {"rf": {"n_estimators": 10, "max_depth": 4, "max_features": "sqrt"},
     "gbm": {"n_rounds": 8, "max_depth": 2, "min_samples_leaf": 3}},
], ids=["quick", "feature-subsets"])
def test_batched_fit_equals_subset_by_subset_fits(monkeypatch, tmp_path, strip, present,
                                                  configs):
    # small forest batches, so that a forest fit spans several batches
    monkeypatch.setattr(trees, "_SLOT_BUDGET", 1 << 12)
    data = strip(generate_inverse_synthetic(70, seed=14))
    ens = fit_inverse(data, seed=3, configs=configs)
    want = _fit_inverse_subset_by_subset(data, 3, configs)
    assert list(ens.submodels) == list(want) == list(SUBMODEL_SETS)
    assert ens.available_sets() == present
    for name in SUBMODEL_SETS:
        got, exp = ens.submodels[name], want[name]
        assert (got is None) == (exp is None), name
        if got is None:
            continue
        assert got.weights == exp.weights and got.validation_r2 == exp.validation_r2, name
        assert (got.n_rows, got.sample_ids) == (exp.n_rows, exp.sample_ids), name
        for kind in ("forest", "gbm"):
            got_file = written(multi_output_to_dict(getattr(got, kind)), tmp_path / "got.json")
            exp_file = written(multi_output_to_dict(getattr(exp, kind)), tmp_path / "exp.json")
            assert got_file == exp_file, (name, kind)


def test_pair_weight_rule():
    assert pair_weights(0.8, 0.2) == (0.8, 0.2)
    assert pair_weights(0.5, 0.5) == (0.5, 0.5)
    assert pair_weights(-0.3, -0.9) == (0.5, 0.5)
    assert pair_weights(0.6, -0.5) == (1.0, 0.0)
    wf, wg = pair_weights(0.9, 0.3)
    assert wf == pytest.approx(0.75) and wg == pytest.approx(0.25)


def test_clamp_bounds():
    np.testing.assert_array_equal(clamp_at_pct(np.array([-0.3, 50.0, 150.0])),
                                  [0.0, 50.0, 100.0])


def test_feature_and_target_layout():
    data = generate_inverse_synthetic(40, seed=0)
    rows, X, Y = inverse_features(data, "base")
    assert X.shape == (40, 5) and Y.shape == (40, 6) and rows == list(range(40))
    rows_d, X_d, _ = inverse_features(data, "base+dur")
    assert X_d.shape[1] == 6 and len(rows_d) == round(0.85 * 40)
    # rows are positions in the dataset, in order
    assert rows_d == [i for i, s in enumerate(data.samples) if s.duration is not None]
    np.testing.assert_array_equal(X_d, [_vector(data.samples[i], "base+dur") for i in rows_d])
    rows_dt, X_dt, _ = inverse_features(data, "base+dur+temp")
    assert X_dt.shape[1] == 7
    assert len(rows_dt) <= len(rows_d) <= len(rows)
    with pytest.raises(ValidationError):
        inverse_features(data, "base+temp")


def test_fit_builds_three_submodels_with_subset_counts():
    data = generate_inverse_synthetic(80, seed=1)
    ens = fit_inverse(data, seed=0, configs=QUICK)
    assert ens.available_sets() == list(SUBMODEL_SETS)
    base = ens.submodels["base"]
    assert base.n_rows == 80
    assert ens.submodels["base+dur"].n_rows == round(0.85 * 80)
    assert ens.submodels["base+dur+temp"].n_rows < ens.submodels["base+dur"].n_rows
    for sub in ens.submodels.values():
        wf, wg = sub.weights
        assert wf >= 0 and wg >= 0
        assert wf + wg == pytest.approx(1.0)


def test_missing_durations_flag_submodels_absent():
    data = _strip_extensions(generate_inverse_synthetic(60, seed=2))
    ens = fit_inverse(data, seed=0, configs=QUICK)
    assert ens.available_sets() == ["base"]
    assert ens.submodels["base+dur"] is None
    assert ens.submodels["base+dur+temp"] is None
    preds = predict_inverse(ens, data)
    assert all(p.contributing == ["base"] for p in preds)


def test_base_only_query_served_verbatim_by_base_submodel():
    data = generate_inverse_synthetic(70, seed=3)
    ens = fit_inverse(data, seed=1, configs=QUICK)
    q = _query("q0", rate=5.0, environment=3, al=45.0, si=2.0, mg=4.0)
    pred = predict_inverse(ens, _queries([q]))[0]
    assert pred.query_id == "q0" and pred.contributing == ["base"]
    X = np.array([[5.0, 3.0, 45.0, 2.0, 4.0]])
    direct = submodel_predict(ens.submodels["base"], X)[0]
    for j, el in enumerate(INVERSE_TARGETS):
        assert pred.values[el] == pytest.approx(direct[j], rel=1e-12)


def test_pair_prediction_is_convex_combination():
    data = generate_inverse_synthetic(70, seed=4)
    ens = fit_inverse(data, seed=2, configs=QUICK)
    sub = ens.submodels["base"]
    _, X, _ = inverse_features(data, "base")
    f = predict_multi_output(sub.forest, X)
    g = predict_multi_output(sub.gbm, X)
    pair = submodel_predict(sub, X)
    lo = clamp_at_pct(np.minimum(f, g))
    hi = clamp_at_pct(np.maximum(f, g))
    assert np.all(pair >= lo - 1e-9) and np.all(pair <= hi + 1e-9)


def test_union_within_submodel_envelope_and_equal_outputs_pass_through():
    data = generate_inverse_synthetic(90, seed=5)
    ens = fit_inverse(data, seed=3, configs=QUICK)
    full = [s for s in data.samples
            if s.duration is not None and s.temperature is not None][:8]
    preds = predict_inverse(ens, _queries(full))
    for x, p in zip(full, preds):
        assert p.contributing == list(SUBMODEL_SETS)
        per_set = []
        for fs in SUBMODEL_SETS:
            per_set.append(submodel_predict(ens.submodels[fs], np.array([_vector(x, fs)]))[0])
        per_set = np.stack(per_set)
        for j, el in enumerate(INVERSE_TARGETS):
            assert per_set[:, j].min() - 1e-9 <= p.values[el] <= per_set[:, j].max() + 1e-9


def test_interleaved_query_signatures_get_the_mean_of_their_submodels():
    data = generate_inverse_synthetic(90, seed=15)
    ens = fit_inverse(data, seed=5, configs=QUICK)
    assert ens.available_sets() == list(SUBMODEL_SETS)
    optional = [{}, {"duration": 40.0}, {"temperature": 25.0},
                {"duration": 40.0, "temperature": 25.0}]
    # temperature without duration is served by base only
    served = [["base"], ["base", "base+dur"], ["base"], list(SUBMODEL_SETS)]
    # every signature, interleaved, each at a few rates
    signatures = [0, 1, 2, 3, 3, 2, 1, 0, 1, 3, 0, 2]
    queries = [_query(f"q{i}", rate=1.0 + i, environment=2, **optional[k])
               for i, k in enumerate(signatures)]
    preds = predict_inverse(ens, _queries(queries))
    for q, k, p in zip(queries, signatures, preds):
        sets = served[k]
        assert p.query_id == q.id and p.contributing == sets
        want = clamp_at_pct(np.mean([submodel_predict(ens.submodels[fs],
                                                      np.array([_vector(q, fs)]))[0]
                                     for fs in sets], axis=0))
        assert np.array_equal([p.values[el] for el in INVERSE_TARGETS], want), q.id


def test_removing_unused_submodel_preserves_predictions():
    data = generate_inverse_synthetic(80, seed=6)
    ens = fit_inverse(data, seed=4, configs=QUICK)
    # no temperature: base+dur+temp cannot serve
    q = _queries([_query("q", rate=2.0, environment=1, duration=30.0, al=40.0, si=1.0, mg=2.0)])
    before = predict_inverse(ens, q)[0]
    ens.submodels["base+dur+temp"] = None
    after = predict_inverse(ens, q)[0]
    assert before.values == after.values
    assert before.contributing == after.contributing == ["base", "base+dur"]


def test_fit_deterministic_in_seed(tmp_path):
    data = generate_inverse_synthetic(60, seed=7)
    a = fit_inverse(data, seed=5, configs=QUICK)
    b = fit_inverse(data, seed=5, configs=QUICK)
    assert (written(inverse_to_dict(a), tmp_path / "a.json")
            == written(inverse_to_dict(b), tmp_path / "b.json"))
    qs = _queries(data.samples[:10])
    pa, pb = predict_inverse(a, qs), predict_inverse(b, qs)
    assert [p.values for p in pa] == [p.values for p in pb]


def test_evaluation_schema_and_recoverability():
    train = generate_inverse_synthetic(220, seed=8)
    test = generate_inverse_synthetic(80, seed=9)
    ens = fit_inverse(train, seed=6,
                      configs={"rf": {"n_estimators": 25}, "gbm": {"n_rounds": 60}})
    report = evaluate_inverse(ens, test)
    assert tuple(report.union) == INVERSE_TARGETS
    for el, m in report.union.items():
        assert m.r2 > 0.9, (el, m.r2)
    assert set(report.per_submodel) == set(SUBMODEL_SETS)
    assert report.counts["base"] == 80


def test_report_and_prediction_rows():
    data = generate_inverse_synthetic(50, seed=10)
    ens = fit_inverse(data, seed=7, configs=QUICK)
    report = evaluate_inverse(ens, data)
    union_rows, submodel_rows = inverse_report_rows(report)
    assert union_rows[0] == submodel_rows[0] == ["element", "r2", "rmse", "submodel_set"]
    assert [r[0] for r in union_rows[1:]] == list(INVERSE_TARGETS)
    assert {r[3] for r in union_rows[1:]} == {"union"}
    assert [r[3] for r in submodel_rows[1::6]] == list(SUBMODEL_SETS)
    assert (len(union_rows), len(submodel_rows)) == (1 + 6, 1 + 6 * 3)

    queries = sample_records(data.samples[:4], QUERY_FIELDS)
    prows = list(inverse_prediction_rows(ens, queries, "ensemble.json"))
    assert prows[0] == ["query_id", "element", "predicted_at_pct", "contributing_submodels"]
    assert len(prows) == 1 + 4 * 6
    # no query is refused by the iteration, once the records end
    with pytest.raises(NoSamplesError):
        list(inverse_prediction_rows(ens, iter([]), "m"))


def test_serialization_roundtrip(tmp_path):
    data = generate_inverse_synthetic(60, seed=11)
    ens = fit_inverse(data, seed=8, configs=QUICK)
    written(inverse_to_dict(ens), tmp_path / "ensemble.json")
    state = cli.read_json(str(tmp_path / "ensemble.json"))
    rebuilt = inverse_from_dict(state)
    qs = _queries(data.samples[:12])
    pa, pb = predict_inverse(ens, qs), predict_inverse(rebuilt, qs)
    assert [p.values for p in pa] == [p.values for p in pb]
    with pytest.raises(ValidationError):
        inverse_from_dict({"kind": "forward"})
    # a model file cannot hold these infinities, so the checks are fed dicts
    for key, edit in [
            ("'weights'", lambda sub: sub.update(weights=[math.inf, 0.5])),
            ("'learning_rate'", lambda sub: sub["gbm"]["models"][0].update(learning_rate=math.inf)),
            ("'init_value'", lambda sub: sub["gbm"]["models"][0].update(init_value=math.inf))]:
        edited = copy.deepcopy(state)
        edit(edited["submodels"]["base"])
        with pytest.raises(ValidationError, match=key):
            inverse_from_dict(edited)


def _prediction_bytes(preds) -> tuple:
    return (np.array([[p.values[el] for el in INVERSE_TARGETS] for p in preds]).tobytes(),
            [(p.query_id, p.contributing) for p in preds])


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_ensemble_file_round_trip_is_bit_exact(seed):
    # written as train-inverse writes it, read as predict reads it
    data = generate_inverse_synthetic(60, seed=seed)
    ens = fit_inverse(data, seed=seed, configs=QUICK)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "ensemble.json")
        text = written(inverse_to_dict(ens), path)
        loaded = inverse_from_dict(cli.read_json(str(path), object_hook=node_arrays))
        # a bool, so that a failure does not diff the two files
        same_file = written(inverse_to_dict(loaded), path) == text
        assert same_file
    fresh = generate_inverse_synthetic(20, seed=seed + 1)
    for queries in (data, _without_temperatures(fresh), _strip_extensions(fresh)):
        assert (_prediction_bytes(predict_inverse(loaded, queries))
                == _prediction_bytes(predict_inverse(ens, queries)))


@pytest.fixture(scope="module")
def ensemble_file(tmp_path_factory):
    """The file of an ensemble of default-size models over 150 rows."""
    path = tmp_path_factory.mktemp("ensemble") / "ensemble.json"
    written(inverse_to_dict(fit_inverse(generate_inverse_synthetic(150, seed=5))), path)
    return str(path)


def test_a_loaded_ensemble_holds_its_node_bytes_and_a_little_more(ensemble_file):
    # each forest and GBM is packed into its table as the parser closes it:
    # what the ensemble holds is its node table, not an object and five
    # arrays per tree, and at most one model's trees are per-tree arrays
    # beside the tables while the file is read
    tracemalloc.start()
    try:
        loaded = inverse_from_dict(cli.read_json(ensemble_file, object_hook=node_arrays))
        traced, peak = tracemalloc.get_traced_memory()
        tables = [m.trees for sub in loaded.submodels.values() for m in sub.forest.models]
        tables += [m.stages for sub in loaded.submodels.values() for m in sub.gbm.models]
        node_bytes = [sum(getattr(table, key).nbytes for key in
                          ("feature", "threshold", "left", "right", "value")) for table in tables]
        del tables
        now = tracemalloc.get_traced_memory()[0]
        del loaded
        held = now - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.05 * sum(node_bytes), (held, sum(node_bytes))
    assert peak - sum(node_bytes) <= 2 * max(node_bytes) + (1 << 20), (
        peak, traced, sum(node_bytes), max(node_bytes))


def test_validation_errors():
    with pytest.raises(ValidationError):
        fit_inverse(generate_inverse_synthetic(5, seed=13), configs=QUICK)


def test_evaluation_predicts_each_submodel_once(monkeypatch):
    data = generate_inverse_synthetic(60, seed=12)
    ens = fit_inverse(data, seed=9, configs=QUICK)
    assert ens.available_sets() == list(SUBMODEL_SETS)
    calls = []

    def counted(sub, X):
        calls.append(sub.feature_set)
        return submodel_predict(sub, X)

    monkeypatch.setattr(inverse, "submodel_predict", counted)
    report = evaluate_inverse(ens, data)
    assert calls == list(SUBMODEL_SETS)
    assert report.counts == {fs: len(inverse_features(data, fs)[0]) for fs in SUBMODEL_SETS}


def test_fit_inverse_holds_only_the_models_it_keeps(monkeypatch):
    # each validation model is dropped once it is scored, so as each fit
    # returns, the traced memory is at most the ensemble fit_inverse returns
    # plus one forest; a validation forest kept alive past its scoring
    # exceeds that. The traced memory is read between fits, because within a
    # grow the grower's scratch, bounded by _SLOT_BUDGET, outweighs these
    # small forests. `run_jobs` runs each job in a forked process, which
    # tracemalloc does not see, so here fit_inverse's `_gbm_job` and
    # `_forest_job` partials are called directly, in job order, in this one.
    monkeypatch.setattr(inverse, "run_jobs", lambda fits, names, noun: [fit() for fit in fits])
    data = generate_inverse_synthetic(60, seed=5)
    held = []

    def sampled(fit):
        def call(*args, **kwargs):
            models = fit(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            return models
        return call

    for name in ("fit_forests", "fit_gbms"):
        monkeypatch.setattr(inverse, name, sampled(getattr(inverse, name)))
    tracemalloc.start()
    try:
        ens = fit_inverse(data, seed=0, configs=QUICK)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    largest = max(sum(getattr(t, key).nbytes for m in sub.forest.models for t in m.trees
                      for key in ("feature", "threshold", "left", "right", "value"))
                  for sub in ens.submodels.values() if sub is not None)
    assert max(held) < retained + largest, (held, retained, largest)


def test_fit_inverse_writes_the_same_bytes_on_one_worker_or_two(monkeypatch, tmp_path):
    data = generate_inverse_synthetic(60, seed=4)
    payloads = []
    for workers in (2, 1):
        monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: workers)
        ensemble = fit_inverse(data, seed=2, configs=QUICK)
        payloads.append(written({"ensemble": inverse_to_dict(ensemble)},
                                tmp_path / f"{workers}.json"))
        assert no_children()
    assert payloads[0] == payloads[1]
