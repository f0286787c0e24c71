"""Feature assembly, scaling, capping, splits, folds, log transform."""

import numpy as np
import pytest

from corrml.dataset import (
    CorrosionSample,
    Dataset,
    ElementComposition,
    generate_synthetic,
)
from corrml.errors import ValidationError
from corrml.preprocess import (
    DEFAULT_LOG_EPSILON,
    FEATURE_SETS,
    ScalerState,
    apply_scaler,
    build_features,
    cap_target,
    fit_scaler,
    inv_log_transform,
    invert_scaler,
    log_transform,
    run_metadata,
    split_train_test,
)


def _sample(i, rate=1.0, env=0, temp=None, dur=None):
    comp = ElementComposition(entries={"Al": 97.0, "Zn": 3.0}, basis="atomic")
    return CorrosionSample(id=f"s{i}", composition=comp, environment=env,
                           rate=rate, temperature=temp, duration=dur)


# ---------------------------------------------------------------------------
# feature assembly


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
    env_cols = [i for i, c in enumerate(fm.columns) if c.kind == "environment-indicator"]
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


def test_feature_order_is_stable():
    ds = generate_synthetic(10, seed=5)
    names = [c.name for c in build_features(ds, "comp+env+temp+dur")[0].columns]
    assert names[0] == "Al"      # fixed element order, balance element first
    assert names[32].startswith("env=")
    assert names[-2:] == ["temp_c", "duration_days"]
    assert len(set(names)) == len(names)


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
    assert np.allclose(invert_scaler(state, apply_scaler(state, X)), X, atol=1e-12)
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
    assert log_transform(np.array([1.0]), epsilon=0.0)[0] == 0.0
    assert log_transform(np.array([np.e ** 2]), epsilon=0.0)[0] == pytest.approx(2.0)
    y = np.array([0.0, 0.5, 40.0, 100.0])
    z = log_transform(y)
    assert np.allclose(inv_log_transform(z), y, rtol=1e-10, atol=1e-12)
    assert z[0] == np.log(DEFAULT_LOG_EPSILON)


def test_run_metadata_contents():
    ds = generate_synthetic(20, seed=1)
    fm, _ = build_features(ds, "comp+env")
    scaler = fit_scaler(fm.values)
    meta = run_metadata("comp+env", fm, scaler, "drop", 100.0, seed=3, log_epsilon=1e-6)
    assert meta["feature_set"] == "comp+env"
    assert len(meta["columns"]) == 41
    assert meta["cap_mode"] == "drop" and meta["cap_threshold"] == 100.0
    assert meta["seed"] == 3 and meta["log_epsilon"] == 1e-6
    assert meta["scaler"] == scaler.to_dict()
    assert "log_epsilon" not in run_metadata("comp", fm, None, "drop", 100.0, seed=0)


def test_feature_sets_constant_lists_known_selectors():
    assert FEATURE_SETS == ("comp", "comp+env", "comp+env+temp", "comp+env+dur",
                            "comp+env+temp+dur")
