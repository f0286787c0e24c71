"""The level-wise grower and the stacked descent against the node-at-a-time
reference (tests/cart_reference.py): trees must serialize identically and
ensemble predictions must equal the per-tree sums bit for bit, however the
trees are batched."""

import numpy as np
import pytest

import cart_reference as ref
from corrml import trees
from corrml.trees import (
    _Grower,
    MultiOutputModel,
    _kept_columns,
    fit_forest,
    fit_forests,
    fit_gbm,
    fit_gbms,
    fit_tree,
    predict_forest,
    predict_gbm,
    predict_multi_output,
    tree_to_dict,
)


def _assert_same_trees(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert tree_to_dict(a) == tree_to_dict(b), f"tree {i} differs"


def _forest_sum(trees, X):
    total = np.zeros(X.shape[0])
    for tree in trees:
        total += ref.predict_tree(tree, X)
    return total / len(trees)


def _gbm_sum(init_value, learning_rate, stages, X):
    out = np.full(X.shape[0], init_value)
    for tree in stages:
        out += learning_rate * ref.predict_tree(tree, X)
    return out


def _inverse_like(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = X[:, 0] * np.sin(X[:, 1]) + rng.normal(scale=0.3, size=n)
    return X, y


@pytest.mark.parametrize("d", [5, 7])
def test_bootstrap_forest_matches_reference(d):
    X, y = _inverse_like(150, d, seed=d)
    forest = fit_forest(X, y, n_estimators=12, seed=3)
    want = ref.fit_forest_trees(X, y, 12, seed=3)
    _assert_same_trees(forest.trees, want)
    Xq = _inverse_like(40, d, seed=100 + d)[0]
    assert np.array_equal(predict_forest(forest, Xq), _forest_sum(want, Xq))


def test_constant_columns_match_reference():
    # 41 columns, 21 of them constant; enough trees to need several batches
    rng = np.random.default_rng(41)
    n = 150
    X = np.empty((n, 41))
    varying = np.sort(rng.choice(41, size=20, replace=False))
    constant = np.setdiff1d(np.arange(41), varying)
    X[:, varying] = rng.lognormal(size=(n, 20))
    X[:, constant] = rng.uniform(0.0, 5.0, size=21)
    y = X[:, varying[:3]].sum(axis=1) + rng.normal(scale=0.1, size=n)
    forest = fit_forest(X, y, n_estimators=40, seed=11)
    want = ref.fit_forest_trees(X, y, 40, seed=11)
    _assert_same_trees(forest.trees, want)
    assert np.array_equal(predict_forest(forest, X), _forest_sum(want, X))


@pytest.mark.parametrize("params", [
    {"min_samples_leaf": 3},
    {"max_depth": 4},
    {"max_depth": 6, "min_samples_leaf": 2},
    {"max_depth": 0},
])
def test_limits_and_repeated_values_match_reference(params):
    rng = np.random.default_rng(7)
    n = 120
    X = rng.integers(0, 4, size=(n, 5)).astype(float)   # many repeated values
    # one decimal: pure nodes appear early, and sums still round differently
    # when tied rows are added in another order
    y = np.round(X[:, 0] - X[:, 2] + rng.normal(size=n), 1)
    forest = fit_forest(X, y, n_estimators=8, seed=5, **params)
    _assert_same_trees(forest.trees, ref.fit_forest_trees(X, y, 8, seed=5, **params))
    _assert_same_trees([fit_tree(X, y, **params)], [ref.fit_tree(X, y, **params)])
    unbagged = fit_forest(X, y, n_estimators=3, bootstrap=False, seed=5, **params)
    _assert_same_trees(unbagged.trees,
                       ref.fit_forest_trees(X, y, 3, seed=5, bootstrap=False, **params))


@pytest.mark.parametrize("d", [5, 7])
def test_depth3_gbm_matches_reference(d):
    X, y = _inverse_like(150, d, seed=20 + d)
    gbm = fit_gbm(X, y, n_rounds=15, learning_rate=0.1, max_depth=3)
    f0, stages = ref.fit_gbm_stages(X, y, 15, 0.1, 3)
    assert gbm.init_value == f0
    _assert_same_trees(gbm.stages, stages)
    Xq = _inverse_like(40, d, seed=200 + d)[0]
    assert np.array_equal(predict_gbm(gbm, Xq), _gbm_sum(f0, 0.1, stages, Xq))


def test_multi_output_gbm_targets_grown_together_match_reference():
    X, y = _inverse_like(120, 6, seed=31)
    Y = np.column_stack([y, -2.0 * y, np.cos(X[:, 3]), np.zeros(120) + 4.0])
    gbms, = fit_gbms([(X, Y)], n_rounds=10, max_depth=3, min_samples_leaf=2)
    expected = []
    for j, gbm in enumerate(gbms):
        f0, stages = ref.fit_gbm_stages(X, np.ascontiguousarray(Y[:, j]), 10,
                                        0.1, 3, min_samples_leaf=2)
        assert gbm.init_value == f0
        _assert_same_trees(gbm.stages, stages)
        expected.append(_gbm_sum(f0, 0.1, stages, X))
    model = MultiOutputModel("gbm", gbms, list("abcd"))
    assert np.array_equal(predict_multi_output(model, X), np.column_stack(expected))



def test_multi_output_forest_targets_grown_together_match_reference(monkeypatch):
    # small batches, so that batches end inside a target's forest and span two
    monkeypatch.setattr(trees, "_SLOT_BUDGET", 1 << 12)
    X, y = _inverse_like(60, 5, seed=41)
    Y = np.column_stack([y, np.cos(X[:, 2]), X[:, 4] - X[:, 0]])
    seeds = np.random.SeedSequence(8).generate_state(3)
    forests = fit_forests(X, Y, seeds, n_estimators=7, max_depth=5)
    for j, forest in enumerate(forests):
        assert forest.seed == seeds[j]
        _assert_same_trees(forest.trees, ref.fit_forest_trees(
            X, np.ascontiguousarray(Y[:, j]), 7, seed=int(seeds[j]), max_depth=5))

def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        for key in ("feature", "threshold", "left", "right", "value"):
            x, y = getattr(a, key), getattr(b, key)
            assert x.dtype.kind == y.dtype.kind and np.array_equal(x, y), f"tree {i} {key}"
        assert (a.n_features, a.max_depth, a.min_samples_leaf) == \
            (b.n_features, b.max_depth, b.min_samples_leaf), f"tree {i}"


def _two_blocks(seed):
    """Two bootstrap blocks that differ in row count and in kept columns
    (4 of 5 against 7 of 7), with their trees' targets in slot order."""
    rng = np.random.default_rng(seed)
    X1 = np.round(rng.uniform(0.0, 4.0, size=(90, 5)), 1)
    X1[:, 2] = 3.0
    y1 = X1[:, 0] - X1[:, 3] + rng.normal(scale=0.2, size=90)
    X2, y2 = _inverse_like(130, 7, seed=seed + 1)
    rows1 = rng.integers(0, 90, size=(3, 90))
    rows2 = rng.integers(0, 130, size=(4, 130))
    return [(X1, y1, rows1), (X2, y2, rows2)]


@pytest.mark.parametrize("params", [{}, {"max_depth": 3, "min_samples_leaf": 2}])
def test_two_block_grower_matches_each_block_alone_and_reference(params):
    data = _two_blocks(61)
    blocks = [(X, rows, _kept_columns(X)) for X, _, rows in data]
    assert [cols.size for _, _, cols in blocks] == [4, 7]
    depth, leaf = params.get("max_depth"), params.get("min_samples_leaf", 1)
    trees, fitted = _Grower(blocks).grow(
        np.concatenate([y[rows].ravel() for _, y, rows in data]), depth, leaf)
    alone, want, want_fitted = [], [], []
    for block, (X, y, rows) in zip(blocks, data):
        alone += _Grower([block]).grow(y[rows].ravel(), depth, leaf)[0]
        for r in rows:
            want.append(ref.fit_tree(X[r], y[r], **params))
            want_fitted.append(ref.predict_tree(want[-1], X[r]))
    _assert_same_arrays(trees, alone)
    _assert_same_arrays(trees, want)
    assert [t.n_features for t in trees] == [5] * 3 + [7] * 4
    # each slot's fitted value is the leaf value its row descends to
    assert np.array_equal(fitted, np.concatenate(want_fitted))


def test_two_block_grower_draws_feature_subsets_as_each_block_alone():
    data = _two_blocks(62)
    blocks = [(X, rows, _kept_columns(X)) for X, _, rows in data]
    y = [y[rows].ravel() for _, y, rows in data]
    streams = np.random.SeedSequence(9).spawn(7)

    def rngs(lo, hi):
        return [np.random.default_rng(s) for s in streams[lo:hi]]

    trees, _ = _Grower(blocks).grow(np.concatenate(y), None, 1, "sqrt", rngs(0, 7))
    alone = (_Grower(blocks[:1]).grow(y[0], None, 1, "sqrt", rngs(0, 3))[0]
             + _Grower(blocks[1:]).grow(y[1], None, 1, "sqrt", rngs(3, 7))[0])
    _assert_same_arrays(trees, alone)
    every_column = _Grower(blocks).grow(np.concatenate(y), None, 1)[0]
    assert [tree_to_dict(t) for t in trees] != [tree_to_dict(t) for t in every_column]
