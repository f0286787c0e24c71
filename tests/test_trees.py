"""CART splitting, forests, boosting, multi-output wrapper."""

import numpy as np
import pytest

from corrml import cli
from corrml.errors import ValidationError
from corrml.trees import (
    LEAF,
    DecisionTree,
    fit_forest,
    fit_gbm,
    fit_multi_outputs,
    fit_tree,
    forest_from_dict,
    forest_to_dict,
    gbm_from_dict,
    gbm_to_dict,
    multi_output_from_dict,
    multi_output_to_dict,
    node_arrays,
    predict_forest,
    predict_gbm,
    predict_multi_output,
    predict_tree,
    tree_from_dict,
    tree_to_dict,
)


def written(payload, path) -> bytes:
    """The bytes cli.write_json writes to `path` for `payload`."""
    cli.write_json(str(path), payload)
    return path.read_bytes()


def _fit_multi(X, Y, kind, seed=0, **params):
    names = [f"t{j}" for j in range(np.shape(Y)[1])]
    return fit_multi_outputs(kind, [(X, Y, seed)], names, **params)[0]


def _depth(tree: DecisionTree) -> int:
    """Longest root-to-leaf path; preorder numbering puts parents first."""
    depths = np.zeros(tree.feature.size, dtype=int)
    for i in np.flatnonzero(tree.feature != LEAF):
        depths[[tree.left[i], tree.right[i]]] = depths[i] + 1
    return int(depths.max())


def _training_sse(model, X, y) -> list[float]:
    """Training SSE after each boosting round, from the stage predictions."""
    pred = np.full(y.size, model.init_value)
    sse = []
    for tree in model.stages:
        pred += model.learning_rate * predict_tree(tree, X)
        sse.append(float(np.sum((y - pred) ** 2)))
    return sse


def _leaf_tree(value: float) -> DecisionTree:
    return DecisionTree(feature=np.array([LEAF]), threshold=np.zeros(1),
                        left=np.array([LEAF]), right=np.array([LEAF]),
                        value=np.array([value]), n_features=2)


def test_two_point_split():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    tree = fit_tree(X, y, max_depth=1)
    assert tree.feature.size == 3
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    np.testing.assert_array_equal(predict_tree(tree, X), y)


def test_constant_targets_give_single_leaf():
    X = np.arange(10.0)[:, None]
    tree = fit_tree(X, np.full(10, 7.0))
    assert tree.feature.size == 1
    assert tree.feature[0] == LEAF
    np.testing.assert_array_equal(predict_tree(tree, X), 7.0)


def test_unlimited_depth_memorizes_distinct_inputs():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    tree = fit_tree(X, y)
    np.testing.assert_allclose(predict_tree(tree, X), y, rtol=1e-12)


def test_max_depth_respected():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    for depth in (0, 1, 2, 4):
        tree = fit_tree(X, y, max_depth=depth)
        assert _depth(tree) <= depth


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    tree = fit_tree(X, y, min_samples_leaf=5)
    # count training rows reaching each leaf
    node = np.zeros(60, dtype=int)
    active = tree.feature[node] != LEAF
    while np.any(active):
        cur = node[active]
        go = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go, tree.left[cur], tree.right[cur])
        active = tree.feature[node] != LEAF
    _, counts = np.unique(node, return_counts=True)
    assert counts.min() >= 5


def test_tie_breaks_lowest_feature_then_lowest_threshold():
    # identical columns: equal gain everywhere, must pick feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    tree = fit_tree(X, np.array([0.0, 1.0]), max_depth=1)
    assert tree.feature[0] == 0
    # two equal-gain thresholds on one feature: 0.5 and 1.5 both yield 1/6
    X2 = np.array([[0.0], [1.0], [2.0]])
    tree2 = fit_tree(X2, np.array([0.0, 1.0, 0.0]), max_depth=1)
    assert tree2.threshold[0] == 0.5


def test_predictions_piecewise_constant():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    tree = fit_tree(X, y, max_depth=3)
    thresholds = tree.threshold[tree.feature != LEAF]
    gap = 1e-9
    probe = np.array([[0.3, -0.4]])
    # nudge by less than the distance to any threshold: same leaf, same output
    base = predict_tree(tree, probe)
    assert predict_tree(tree, probe + gap)[0] == base[0]


def test_forest_mean_of_trees():
    forest_like = [_leaf_tree(1.0), _leaf_tree(3.0)]
    from corrml.trees import RandomForest
    forest = RandomForest(trees=forest_like, n_estimators=2, max_features=2,
                          bootstrap=False, seed=0, n_features=2)
    X = np.zeros((4, 2))
    np.testing.assert_array_equal(predict_forest(forest, X), 2.0)
    # identical trees = single-tree prediction; order cannot matter
    forest.trees = [_leaf_tree(5.0), _leaf_tree(5.0)]
    np.testing.assert_array_equal(predict_forest(forest, X), 5.0)
    forest.trees = forest_like[::-1]
    np.testing.assert_array_equal(predict_forest(forest, X), 2.0)


def test_degenerate_forest_equals_single_tree():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    forest = fit_forest(X, y, n_estimators=1, bootstrap=False, max_features="all")
    tree = fit_tree(X, y)
    np.testing.assert_array_equal(predict_forest(forest, X), predict_tree(tree, X))


def test_forest_deterministic_in_seed(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)

    def model_file(seed):
        forest = fit_forest(X, y, n_estimators=10, max_features="sqrt", seed=seed)
        return written(forest_to_dict(forest), tmp_path / f"{seed}.json")

    assert model_file(42) == model_file(42)
    assert model_file(42) != model_file(43)


def test_bootstrap_unique_coverage_statistic():
    # resampling n of n rows covers ~ (1 - 1/e) of them on average
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 2))
    y = rng.normal(size=200)
    forest = fit_forest(X, y, n_estimators=100, max_depth=1, seed=0)
    frac = np.mean(forest.unique_inbag_counts) / 200
    assert abs(frac - 0.632) <= 0.05 * 0.632


def test_forest_prediction_within_tree_envelope():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    forest = fit_forest(X, y, n_estimators=12, max_depth=4, seed=1)
    Xs = rng.normal(size=(20, 3))
    per_tree = np.stack([predict_tree(t, Xs) for t in forest.trees])
    pred = predict_forest(forest, Xs)
    assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
    assert np.all(pred <= per_tree.max(axis=0) + 1e-12)


def test_gbm_hand_computed_first_round():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    model = fit_gbm(X, y, n_rounds=1, learning_rate=0.1, max_depth=1)
    assert model.init_value == 5.0
    np.testing.assert_allclose(predict_gbm(model, X), [4.5, 5.5], rtol=1e-12)


def test_gbm_unit_rate_single_round_memorizes():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = fit_gbm(X, y, n_rounds=1, learning_rate=1.0, max_depth=None)
    np.testing.assert_allclose(predict_gbm(model, X), y, atol=1e-9)
    assert _training_sse(model, X, y)[-1] < 1e-18


def test_gbm_training_sse_nonincreasing():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(80, 3))
    y = np.sin(X[:, 0]) + rng.normal(size=80) * 0.1
    model = fit_gbm(X, y, n_rounds=40, learning_rate=0.1, max_depth=3)
    h = np.asarray(_training_sse(model, X, y))
    assert np.all(np.diff(h) <= 1e-9)


def test_multi_output_single_target_reduces_to_base():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    multi = _fit_multi(X, y[:, None], "gbm", n_rounds=10)
    base = fit_gbm(X, y, n_rounds=10)
    np.testing.assert_array_equal(predict_multi_output(multi, X)[:, 0],
                                  predict_gbm(base, X))


def test_multi_output_duplicate_and_independent_targets():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    other = rng.normal(size=30)
    Y = np.column_stack([y, y, other])
    model = fit_multi_outputs("gbm", [(X, Y, 0)], ["a", "b", "c"], n_rounds=8)[0]
    P = predict_multi_output(model, X)
    assert P.shape == (30, 3)
    np.testing.assert_array_equal(P[:, 0], P[:, 1])
    # perturbing one target leaves the others' predictions untouched
    Y2 = Y.copy()
    Y2[:, 2] += 5.0
    P2 = predict_multi_output(_fit_multi(X, Y2, "gbm", n_rounds=8), X)
    np.testing.assert_array_equal(P2[:, 0], P[:, 0])


def test_multi_output_forest_kind():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 2))
    Y = rng.normal(size=(30, 2))
    model = _fit_multi(X, Y, "forest", seed=3, n_estimators=4)
    assert predict_multi_output(model, X).shape == (30, 2)
    with pytest.raises(ValidationError):
        _fit_multi(X, Y, "dnn")


def test_serialization_roundtrips(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    Xs = rng.normal(size=(10, 3))

    def reloaded(payload, from_dict):
        written(payload, tmp_path / "model.json")
        return from_dict(cli.read_json(str(tmp_path / "model.json")))

    tree = fit_tree(X, y, max_depth=4)
    tree2 = reloaded(tree_to_dict(tree), tree_from_dict)
    np.testing.assert_array_equal(predict_tree(tree2, Xs), predict_tree(tree, Xs))

    forest = fit_forest(X, y, n_estimators=5, max_features="third", seed=2)
    forest2 = reloaded(forest_to_dict(forest), forest_from_dict)
    np.testing.assert_array_equal(predict_forest(forest2, Xs), predict_forest(forest, Xs))

    gbm = fit_gbm(X, y, n_rounds=6)
    gbm2 = reloaded(gbm_to_dict(gbm), gbm_from_dict)
    np.testing.assert_array_equal(predict_gbm(gbm2, Xs), predict_gbm(gbm, Xs))

    multi = _fit_multi(X, np.column_stack([y, -y]), "gbm", n_rounds=4)
    multi2 = reloaded(multi_output_to_dict(multi), multi_output_from_dict)
    np.testing.assert_array_equal(predict_multi_output(multi2, Xs),
                                  predict_multi_output(multi, Xs))

    with pytest.raises(ValidationError):
        tree_from_dict({"kind": "forest"})


def test_trees_store_int32_indices_fitted_or_loaded(tmp_path):
    # 4-byte feature and child indices, 8-byte thresholds and values
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 3))
    Y = rng.normal(size=(40, 2))
    path = tmp_path / "model.json"
    for kind, params in (("forest", {"n_estimators": 3}), ("gbm", {"n_rounds": 3})):
        model = _fit_multi(X, Y, kind, **params)
        written(multi_output_to_dict(model), path)
        loaded = [multi_output_from_dict(cli.read_json(str(path), object_hook=hook))
                  for hook in (node_arrays, None)]
        for m in [model] + loaded:
            for tree in (t for sub in m.models
                         for t in (sub.trees if kind == "forest" else sub.stages)):
                assert [getattr(tree, k).dtype for k in
                        ("feature", "left", "right", "threshold", "value")] == (
                    [np.dtype(np.int32)] * 3 + [np.dtype(np.float64)] * 2), kind


def _split_tree_dict():
    """A depth-2 tree's dict: root splits, its left child splits, three leaves."""
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = fit_tree(X, np.array([0.0, 1.0, 5.0, 5.0]))
    d = tree_to_dict(tree)
    assert d["feature"] == [0, 0, LEAF, LEAF, LEAF] and d["left"][:2] == [1, 2]
    return d


def _set(d, key, node, value):
    return {**d, key: d[key][:node] + [value] + d[key][node + 1:]}


@pytest.mark.parametrize("edit,key", [
    (lambda d: _set(d, "left", 0, 0), "'left'"),              # a cycle back to the root
    (lambda d: _set(d, "left", 1, 1), "'left'"),
    (lambda d: _set(d, "left", 0, 4), "'left'"),              # left after right
    (lambda d: _set(d, "right", 0, 10 ** 6), "'right'"),
    (lambda d: _set(d, "right", 2, 3), "'right'"),            # a leaf with a child
    (lambda d: _set(d, "left", 4, 0), "'left'"),
    (lambda d: _set(d, "feature", 0, 99), "'feature'"),
    (lambda d: _set(d, "feature", 1, -2), "'feature'"),
    (lambda d: {**d, "n_features": 0}, "'feature'"),
    (lambda d: _set(d, "threshold", 0, float("inf")), "'threshold'"),
    (lambda d: _set(d, "value", 3, float("nan")), "'value'"),
    (lambda d: {**d, "value": d["value"][:-1]}, "one length"),
    (lambda d: {**d, "feature": [d["feature"]]}, "one length"),
    (lambda d: {k: [] if isinstance(v, list) else v for k, v in d.items()}, "nonempty"),
], ids=["root-left-cycle", "left-self", "left-after-right", "right-out-of-range",
        "leaf-right-child", "leaf-left-child", "feature-too-large", "feature-negative",
        "no-features", "threshold-inf", "value-nan", "short-value", "nested-feature",
        "no-nodes"])
def test_tree_from_dict_rejects_malformed_nodes(edit, key):
    d = _split_tree_dict()
    assert predict_tree(tree_from_dict(d), np.array([[2.5]]))[0] == 5.0
    with pytest.raises(ValidationError, match=key):
        tree_from_dict(edit(d))


def test_tree_from_dict_ignores_stored_gain():
    d = _split_tree_dict()
    assert "gain" not in d
    legacy = tree_from_dict({**d, "gain": [4.5, 0.5, 0.0, 0.0, 0.0]})
    assert tree_to_dict(legacy) == d


def test_validation_errors():
    with pytest.raises(ValidationError):
        fit_tree(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValidationError):
        fit_tree(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValidationError):
        fit_forest(np.zeros((3, 2)), np.zeros(3), n_estimators=0)
    with pytest.raises(ValidationError):
        fit_gbm(np.zeros((3, 2)), np.zeros(3), learning_rate=0.0)
    tree = fit_tree(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValidationError):
        predict_tree(tree, np.zeros((2, 5)))
