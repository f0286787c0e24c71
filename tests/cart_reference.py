"""Reference CART: depth-first, node-at-a-time growth with an argsort at every
node, as corrml.trees fitted trees before its level-wise grower.

Kept only as the oracle the level-wise grower must match node for node
(tests/test_tree_growth.py). The single-tree descent and the forest and
boosting loops below replay the tree-by-tree prediction and construction
that predict_forest, fit_forest and fit_gbm replaced.
"""

import numpy as np

from corrml.trees import LEAF, DecisionTree, _resolve_max_features


def _best_split(Xn, yn, min_leaf):
    """Best (local feature, threshold) over all midpoints, or None."""
    m = yn.size
    if m < 2:
        return None
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ys = yn[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1]
    n_left = np.arange(1, m, dtype=float)[:, None]
    s_left = csum[:-1]
    gains = (s_left * s_left / n_left
             + (total - s_left) ** 2 / (m - n_left)
             - (total * total) / m)
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        counts = np.arange(1, m)[:, None]
        valid &= (counts >= min_leaf) & (m - counts >= min_leaf)
    gains = np.where(valid, gains, -np.inf)
    # feature-major argmax: ties fall to the lowest feature, then lowest threshold
    flat = np.argmax(gains.T)
    f, pos = divmod(flat, m - 1)
    best = gains[pos, f]
    if not best > 0.0:
        return None
    thr = 0.5 * (xs[pos, f] + xs[pos + 1, f])
    return int(f), float(thr)


def fit_tree(X, y, max_depth=None, min_samples_leaf=1, max_features=None, rng=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    mf = _resolve_max_features(max_features, d)
    if mf < d and rng is None:
        rng = np.random.default_rng(0)
    feature, threshold, left, right, value = [], [], [], [], []
    # stack entries: (row indices, depth, parent node id, is_left_child)
    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        nid = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = nid
        yn = y[idx]
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(float(yn.mean()))
        if (max_depth is not None and depth >= max_depth) or idx.size < 2 * min_samples_leaf:
            continue
        if np.ptp(yn) == 0.0:
            continue
        feats = np.sort(rng.choice(d, size=mf, replace=False)) if mf < d else np.arange(d)
        found = _best_split(X[np.ix_(idx, feats)], yn, min_samples_leaf)
        if found is None:
            continue
        f_local, thr = found
        f = int(feats[f_local])
        go_left = X[idx, f] <= thr
        feature[nid] = f
        threshold[nid] = thr
        stack.append((idx[~go_left], depth + 1, nid, False))
        stack.append((idx[go_left], depth + 1, nid, True))
    return DecisionTree(feature=np.asarray(feature), threshold=np.asarray(threshold),
                        left=np.asarray(left), right=np.asarray(right),
                        value=np.asarray(value), n_features=d, max_depth=max_depth,
                        min_samples_leaf=min_samples_leaf)


def predict_tree(tree, X):
    """One tree's descent, one indexing pass per level."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    node = np.zeros(X.shape[0], dtype=int)
    active = tree.feature[node] != LEAF
    while np.any(active):
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[node] != LEAF
    return tree.value[node]


def fit_forest_trees(X, y, n_estimators, seed, max_depth=None, min_samples_leaf=1,
                     bootstrap=True):
    """fit_forest's trees (every column a candidate), fitted one at a time by
    the reference fit_tree."""
    n = X.shape[0]
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(n_estimators):
        rows = np.random.default_rng(stream).integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(fit_tree(X[rows], y[rows], max_depth=max_depth,
                              min_samples_leaf=min_samples_leaf))
    return trees


def fit_gbm_stages(X, y, n_rounds, learning_rate, max_depth, min_samples_leaf=1):
    """fit_gbm's (init value, stage trees), one round at a time."""
    f0 = float(y.mean())
    pred = np.full(y.size, f0)
    stages = []
    for _ in range(n_rounds):
        tree = fit_tree(X, y - pred, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        stages.append(tree)
        pred += learning_rate * predict_tree(tree, X)
    return f0, stages
