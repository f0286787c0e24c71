"""Feature assembly, scaling, capping, splits, folds, log transform."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feature_reference as ref
from corrml.dataset import (
    ELEMENT_ORDER,
    CorrosionSample,
    Dataset,
    ElementComposition,
    generate_inverse_synthetic,
    generate_synthetic,
)
from corrml.errors import ValidationError
from corrml.gpr import fit_gpr, fit_log_gpr
from corrml.inverse import INVERSE_TARGETS, SUBMODEL_SETS, inverse_features
from corrml.neural import TrainConfig, train_dnn
from corrml.preprocess import (
    DEFAULT_LOG_EPSILON,
    FEATURE_SETS,
    ScalerState,
    apply_scaler,
    build_features,
    cap_target,
    feature_columns,
    feature_fields,
    feature_width,
    fit_scaler,
    sample_records,
    sample_table,
    select,
    split_train_test,
)
from corrml.trees import fit_forest, fit_gbm


def _sample(i, rate=1.0, env=0, temp=None, dur=None):
    comp = ElementComposition(entries={"Al": 97.0, "Zn": 3.0}, basis="atomic")
    return CorrosionSample(id=f"s{i}", composition=comp, environment=env,
                           rate=rate, temperature=temp, duration=dur)


# ---------------------------------------------------------------------------
# feature assembly


def _columns(feature_set):
    """The columns a model file records for `feature_set`."""
    return feature_columns(feature_set)


def test_feature_widths():
    ds = generate_synthetic(30, seed=0)
    fm, y = build_features(ds, "comp")
    assert fm.values.shape == (30, 32)
    fm_env, _ = build_features(ds, "comp+env")
    assert fm_env.values.shape == (30, 41)
    assert y.shape == (30,)


def test_one_hot_rows_sum_to_one():
    ds = generate_synthetic(50, seed=2)
    fm, _ = build_features(ds, "comp+env")
    env_cols = [i for i, c in enumerate(_columns("comp+env"))
                if c["kind"] == "environment-indicator"]
    block = fm.values[:, env_cols]
    assert set(np.unique(block)) <= {0.0, 1.0}
    assert np.all(block.sum(axis=1) == 1.0)
    # indicator position matches the sample's environment id
    for row, s in zip(block, ds.samples):
        assert row[s.environment] == 1.0


def test_optional_fields_subset_rows():
    samples = [_sample(0, temp=20.0, dur=5.0), _sample(1, temp=30.0), _sample(2)]
    ds = Dataset(samples=samples)
    fm, y = build_features(ds, "comp+env+temp")
    assert fm.sample_ids == ["s0", "s1"]
    fm2, _ = build_features(ds, "comp+env+temp+dur")
    assert fm2.sample_ids == ["s0"]
    assert fm2.values[0, -2:].tolist() == [20.0, 5.0]
    with pytest.raises(ValidationError):
        build_features(Dataset(samples=[_sample(0)]), "comp+env+dur")
    with pytest.raises(ValidationError):
        build_features(ds, "comp+phase-of-moon")


# each part's columns of a sample, and the field a sample must carry for it
_PART_COLUMNS = {
    "comp": lambda s: [s.composition.get(e) for e in ELEMENT_ORDER],
    "env": lambda s: [float(k == s.environment) for k in range(9)],
    "base": lambda s: [s.rate, float(s.environment)]
    + [s.composition.get(e) for e in ("Al", "Si", "Mg")],
    "temp": lambda s: [s.temperature],
    "dur": lambda s: [s.duration],
}
_PART_FIELD = {"temp": "temperature", "dur": "duration"}
_PART_KINDS = {"comp": ["composition"] * 32, "env": ["environment-indicator"] * 9,
               "temp": ["temperature"], "dur": ["duration"]}


@pytest.mark.parametrize("feature_set", FEATURE_SETS + SUBMODEL_SETS)
def test_feature_set_rows_and_columns(feature_set):
    # 40 inverse samples hold every mix of temperature and duration, present or not
    ds = generate_inverse_synthetic(40, seed=0)
    parts = feature_set.split("+")
    rows = [i for i, s in enumerate(ds.samples)
            if all(getattr(s, _PART_FIELD[p]) is not None for p in parts if p in _PART_FIELD)]
    assert (len(rows) < len(ds.samples)) == any(p in _PART_FIELD for p in parts)
    want = [[v for p in parts for v in _PART_COLUMNS[p](ds.samples[i])] for i in rows]
    if feature_set in FEATURE_SETS:
        fm, y = build_features(ds, feature_set)
        assert fm.sample_ids == [ds.samples[i].id for i in rows]
        assert [c["kind"] for c in _columns(feature_set)] == [
            k for p in parts for k in _PART_KINDS[p]]
        assert fm.values.shape[1] == feature_width(feature_set) == len(_columns(feature_set))
        np.testing.assert_array_equal(fm.values, want)
        np.testing.assert_array_equal(y, [ds.samples[i].rate for i in rows])
        with pytest.raises(ValidationError):  # each direction takes only its own sets
            inverse_features(ds, feature_set)
    else:
        positions, X, Y = inverse_features(ds, feature_set)
        assert positions == rows
        np.testing.assert_array_equal(X, want)
        assert X.shape[1] == feature_width(feature_set)
        np.testing.assert_array_equal(
            Y, [[ds.samples[i].composition.get(e) for e in INVERSE_TARGETS] for i in rows])
        with pytest.raises(ValidationError):
            build_features(ds, feature_set)


def _zero_or(values):
    """0.0, -0.0 or one of `values`."""
    return st.sampled_from([0.0, -0.0]) | values


@st.composite
def _table_samples(draw):
    """Up to 12 samples, each field drawn on its own: a composition of no
    entries or of some, an entry possibly an explicit 0.0 or -0.0, and a
    temperature or duration possibly absent."""
    samples = []
    for i in range(draw(st.integers(0, 12))):
        entries = draw(st.dictionaries(st.sampled_from(ELEMENT_ORDER),
                                       _zero_or(st.floats(0.0, 3.0)), max_size=8))
        samples.append(CorrosionSample(
            id=f"{draw(st.text(max_size=3))}#{i}",
            composition=ElementComposition(entries=entries, basis="atomic"),
            environment=draw(st.integers(0, 8)), rate=draw(_zero_or(st.floats(0.0, 1e3))),
            temperature=draw(st.none() | _zero_or(st.floats(-273.15, 500.0))),
            duration=draw(st.none() | st.floats(1e-3, 1e4))))
    return samples


@settings(max_examples=150, deadline=None)
@given(samples=_table_samples(), size=st.integers(1, 12))
def test_feature_sets_match_the_per_sample_reference(samples, size):
    # every feature set of each direction selects, from the column table,
    # the rows, ids and bytes the per-sample reference builds
    ds = Dataset(samples=samples)
    for feature_set in FEATURE_SETS:
        positions, M = ref.feature_rows(samples, feature_set + "+rate")
        if not positions:
            with pytest.raises(ValidationError):
                build_features(ds, feature_set)
            continue
        fm, y = build_features(ds, feature_set)
        assert fm.sample_ids == [samples[i].id for i in positions]
        assert fm.values.shape == (len(positions), feature_width(feature_set))
        assert fm.values.tobytes() == np.ascontiguousarray(M[:, :-1]).tobytes()
        assert y.tobytes() == np.ascontiguousarray(M[:, -1]).tobytes()
    fields = feature_fields(SUBMODEL_SETS[-1])
    tables = list(sample_table(sample_records(samples, fields), fields, size))
    assert [len(t) for t in tables] == [size] * (len(samples) // size) + [len(samples) % size]
    for feature_set in SUBMODEL_SETS:
        width = feature_width(feature_set)
        positions, M = ref.feature_rows(samples, feature_set + "+targets")
        rows, X, Y = inverse_features(ds, feature_set)
        assert rows == positions
        assert (X.shape, Y.shape) == ((len(rows), width), (len(rows), len(INVERSE_TARGETS)))
        assert X.tobytes() == np.ascontiguousarray(M[:, :width]).tobytes()
        assert Y.tobytes() == np.ascontiguousarray(M[:, width:]).tobytes()
        # each table of a stream of query records serves the same rows,
        # with the same bytes
        for lo, table in zip(range(0, len(samples) + 1, size), tables):
            served, X = select(table, feature_set)
            in_chunk = [i for i in positions if lo <= i < lo + size]
            assert (served + lo).tolist() == in_chunk
            assert X.tobytes() == np.ascontiguousarray(
                M[[positions.index(i) for i in in_chunk], :width]).tobytes()


def test_a_selection_writes_its_columns_into_one_matrix():
    # beyond the matrix and rows it returns, a forward selection briefly
    # holds its NaN mask, well under a quarter of X; a copy of each part's
    # columns, stacked, added nearly all of X
    fields = feature_fields("comp+env") + ("rate",)
    (table,) = sample_table(sample_records(generate_synthetic(20000, seed=0).samples, fields),
                            fields)
    tracemalloc.start()
    try:
        _, X = select(table, "comp+env")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.flags.c_contiguous
    assert peak - held <= X.nbytes / 2, f"{(peak - held) / X.nbytes:.2f} X"


def test_a_selection_writes_only_the_rows_that_carry_its_fields():
    # rows that lack a temperature or a duration are found before any column
    # is written, so the selection never holds a matrix of every row: a
    # full-height X, from which the kept rows were copied, took 3.2 X here
    samples = generate_synthetic(20000, seed=0).samples
    for i, s in enumerate(samples):
        s.temperature = None if i % 2 else (s.temperature or 25.0)
        s.duration = None if i % 3 == 1 else (s.duration or 30.0)
    fields = feature_fields("comp+env+temp+dur") + ("rate",)
    (table,) = sample_table(sample_records(samples, fields), fields)
    tracemalloc.start()
    try:
        rows, X = select(table, "comp+env+temp+dur")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(X) == len(range(0, 20000, 2)) - len(range(4, 20000, 6))
    assert X.flags.c_contiguous
    assert peak - held <= X.nbytes / 2, f"{(peak - held) / X.nbytes:.2f} X"


def test_feature_order_is_stable():
    names = [c["name"] for c in _columns("comp+env+temp+dur")]
    assert names[0] == "Al"      # fixed element order, balance element first
    assert names[32].startswith("env=")
    assert names[-2:] == ["temp_c", "duration_days"]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_forest(X, y, n_estimators=2),
    lambda X, y: fit_gbm(X, y, n_rounds=2),
    lambda X, y: train_dnn(X, y, TrainConfig(epochs=2)),
    lambda X, y: fit_gpr(X, y, epochs=2),
], ids=["rf", "gbm", "dnn", "gpr"])
def test_every_family_refuses_non_finite_training_values(fit):
    X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    fit(X, y)
    for bad in (np.nan, np.inf, -np.inf):
        X_bad, y_bad = X.copy(), y.copy()
        X_bad[3, 1] = y_bad[3] = bad
        for args in ((X_bad, y), (X, y_bad)):
            with pytest.raises(ValidationError, match="non-finite"):
                fit(*args)


# ---------------------------------------------------------------------------
# scaler


def test_scaler_hand_values():
    X = np.array([[1.0], [2.0], [3.0]])
    state = fit_scaler(X)
    z = apply_scaler(state, X)
    assert z[:, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])
    assert abs(z.mean()) < 1e-9
    assert abs(z.std() - 1.0) < 1e-9


def test_scaler_constant_column_passthrough():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    state = fit_scaler(X)
    assert state.constant.tolist() == [True, False]
    z = apply_scaler(state, X)
    assert z[:, 0].tolist() == [5.0, 5.0, 5.0]


def test_scaler_round_trip_and_leakage():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 6)) * 7 + 2
    state = fit_scaler(X[:30])
    assert np.allclose(apply_scaler(state, X) * state.stds + state.means, X, atol=1e-12)
    # fitting on train+test must give different statistics (no silent refit)
    other = fit_scaler(X)
    assert not np.allclose(state.means, other.means)
    with pytest.raises(ValidationError):
        fit_scaler(X[:1])


def test_scaler_state_round_trip():
    state = fit_scaler(np.array([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0]]))
    back = ScalerState.from_dict(state.to_dict())
    assert np.array_equal(back.means, state.means)
    assert np.array_equal(back.stds, state.stds)
    assert np.array_equal(back.constant, state.constant)


# ---------------------------------------------------------------------------
# capping


def test_cap_target_modes():
    samples = [_sample(0, rate=3.0), _sample(1, rate=150.0), _sample(2, rate=100.0)]
    dropped = cap_target(samples, 100.0, "drop")
    assert [s.id for s in dropped] == ["s0", "s2"]      # boundary inclusive
    clipped = cap_target(samples, 100.0, "clip")
    assert [s.rate for s in clipped] == [3.0, 100.0, 100.0]
    with pytest.raises(ValidationError):
        cap_target(samples, -1.0)
    with pytest.raises(ValidationError):
        cap_target(samples, 100.0, "ignore")
    with pytest.raises(ValidationError):
        cap_target([_sample(0, rate=500.0)], 100.0)


# ---------------------------------------------------------------------------
# splits and folds


def test_split_sizes_and_determinism():
    s = split_train_test(10, seed=0)
    assert len(s.test) == 2 and len(s.train) == 8
    assert set(s.train) | set(s.test) == set(range(10))
    assert set(s.train) & set(s.test) == set()
    again = split_train_test(10, seed=0)
    assert s.train == again.train
    assert split_train_test(10, seed=1).test != s.test


def test_split_paper_sized():
    s = split_train_test(331, seed=7)
    assert len(s.test) == round(0.2 * 331) == 66
    assert len(s.train) == 265


def test_split_extreme_fractions_clamped():
    tiny = split_train_test(5, seed=0, test_fraction=0.01)
    assert len(tiny.test) == 1
    big = split_train_test(5, seed=0, test_fraction=0.999)
    assert len(big.train) == 1


# ---------------------------------------------------------------------------
# log transform


def test_log_transform_values():
    # the log-GP family trains on ln(y + epsilon), which keeps zero rates finite
    X = np.arange(8.0).reshape(4, 2)
    y = np.array([0.0, 0.5, 40.0, 100.0])
    z = fit_log_gpr(X, y, epochs=0).inner.y_train
    np.testing.assert_array_equal(z, np.log(y + DEFAULT_LOG_EPSILON))
    assert z[0] == np.log(DEFAULT_LOG_EPSILON)
    z = fit_log_gpr(X[:2], np.array([1.0, np.e ** 2]), epsilon=0.0, epochs=0).inner.y_train
    assert z[0] == 0.0 and z[1] == pytest.approx(2.0)


def test_feature_sets_constant_lists_known_selectors():
    assert FEATURE_SETS == ("comp", "comp+env", "comp+env+temp", "comp+env+dur",
                            "comp+env+temp+dur")
