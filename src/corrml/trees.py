"""Regression trees and ensembles: CART with variance-reduction splitting,
bagged forests with per-split feature subsetting, gradient boosting on
residuals, and a per-target multi-output wrapper.

Trees are stored as flat parallel arrays (feature, threshold, children, value),
nodes numbered in preorder, so serialization is trivial. Prediction stacks a
model's trees into one node table and descends all of them together, one
indexing pass per level.

Fitting grows a batch of trees together, breadth first over presorted
attribute lists (SLIQ, Mehta et al. 1996; SPRINT, Shafer et al. 1996): the
trees of a forest, in batches of bounded memory, or one boosting round's
stage trees of every target of a multi-output model. Each tree's columns are
stably sorted once, ties kept in row order, and a split stably partitions
every sorted list between its children. Every candidate node of a depth
level is scored in one set of array operations, each midpoint threshold by
prefix sums:

    gain = S_L^2/n_L + S_R^2/n_R - S_parent^2/m

which equals the node's SSE reduction (the sum-of-squares terms cancel).
Equal-gain ties resolve to the lowest feature index, then lowest threshold.
A node's prefix sums and mean run over its own rows in the order a per-node
stable sort gives, so the trees are bit-identical to depth-first,
node-at-a-time growth. With max_features below the column count, a tree's
splittable nodes draw their candidate subsets from its RNG stream in level
order: depth by depth, left to right. Per-tree RNG streams are spawned from
the forest seed up front, so the batch a tree is grown in never changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

DEFAULT_N_ESTIMATORS = 100
DEFAULT_GBM_ROUNDS = 100
DEFAULT_GBM_LR = 0.1
DEFAULT_GBM_DEPTH = 3

LEAF = -1


@dataclass
class DecisionTree:
    feature: np.ndarray    # split feature per node, LEAF marks leaves
    threshold: np.ndarray  # split threshold per node (x <= t goes left)
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray      # mean target of the rows reaching the node
    gain: np.ndarray       # SSE reduction of the node's split (0 at leaves)
    n_features: int
    max_depth: int | None = None
    min_samples_leaf: int = 1

    def node_count(self) -> int:
        return self.feature.size

    def depth(self) -> int:
        depths = np.zeros(self.node_count(), dtype=int)
        out = 0
        for i in range(self.node_count()):
            if self.feature[i] != LEAF:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
            else:
                out = max(out, depths[i])
        return out


def _resolve_max_features(max_features, d: int) -> int:
    if max_features is None or max_features == "all":
        return d
    if max_features == "sqrt":
        return max(1, round(math.sqrt(d)))
    if max_features == "third":
        return max(1, round(d / 3))
    mf = int(max_features)
    if mf < 1:
        raise ValidationError("max_features must be >= 1")
    return min(mf, d)


# Cells (nodes x columns x padded rows) scored at once when searching one
# level's splits; bounds the search's scratch memory whatever the batch size.
_CELL_BUDGET = 1 << 14
# Entries (training rows x presorted lists) of the trees grown in one batch;
# bounds the presort's and the partition's memory whatever the forest size.
_SLOT_BUDGET = 1 << 16


def _check_training(X: np.ndarray, Y: np.ndarray, max_depth, min_samples_leaf: int):
    """Validated (X, Y) as float arrays, Y with one column per target."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ValidationError("empty training data")
    if Y.shape[0] != n:
        raise ValidationError(f"{n} rows but {Y.shape[0]} targets")
    if max_depth is not None and max_depth < 0:
        raise ValidationError("max_depth must be >= 0")
    if min_samples_leaf < 1:
        raise ValidationError("min_samples_leaf must be >= 1")
    return X, Y


def _segment_means(v: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Mean of each segment v[start:start + size], bit-equal to its `.mean()`:
    segments of one size are summed together by one `np.add.reduce` along
    rows, which reduces each row as it would the 1-D segment."""
    out = np.empty(size.size)
    by_size = np.argsort(size, kind="stable")
    cuts = np.flatnonzero(np.diff(size[by_size])) + 1
    for group in np.split(by_size, cuts):
        m = int(size[group[0]])
        out[group] = np.add.reduce(v[start[group, None] + np.arange(m)], axis=1) / m
    return out


def _best_splits(x: np.ndarray, y: np.ndarray, order: np.ndarray, start: np.ndarray,
                 size: np.ndarray, cand: np.ndarray | None, min_leaf: int):
    """Best split of each node: (kept column or LEAF, threshold, gain).

    Node i holds positions start[i]:start[i]+size[i] of every row of `order`.
    Nodes are padded to the next power of two of their size, by repeating
    their last row, and scored a chunk of _CELL_BUDGET cells at a time. A
    node's prefix sums run over its own sorted rows from its first, as a
    per-node cumsum would; the argmax is feature-major, so equal gains fall
    to the lowest column, then the lowest threshold.
    """
    n_cols = x.shape[0]
    feat = np.full(size.size, LEAF)
    thr = np.zeros(size.size)
    gain = np.zeros(size.size)
    if n_cols == 0 or size.size == 0:
        return feat, thr, gain
    width = np.left_shift(1, np.frexp(size - 1)[1])
    cols = np.arange(n_cols)[:, None, None]
    for w in np.unique(width):
        group = np.flatnonzero(width == w)
        step = max(1, _CELL_BUDGET // (n_cols * int(w)))
        n_left = np.arange(1, w, dtype=float)
        counts = np.arange(1, w)
        for lo in range(0, group.size, step):
            nodes = group[lo:lo + step]
            m = size[nodes]
            first = start[nodes]
            pos = np.minimum(first[:, None] + np.arange(w), (first + m - 1)[:, None])
            slots = order[:n_cols, pos]                          # (cols, nodes, w)
            xs = x[cols, slots]
            csum = np.cumsum(y[slots], axis=2)
            del slots
            idx = np.arange(nodes.size)
            total = csum[:, idx, m - 1][:, :, None]
            s_left = csum[:, :, :-1]
            mm = m[:, None].astype(float)
            # gain = s_left^2/n_left + (total - s_left)^2/(m - n_left) - total^2/m,
            # evaluated in place in that order
            gains = s_left * s_left
            gains /= n_left
            right = total - s_left
            del csum, s_left
            right *= right
            with np.errstate(divide="ignore", invalid="ignore"):
                right /= mm - n_left
                gains += right
                del right
                gains -= (total * total) / mm
            # also masks the padding: a left side of size >= m is never valid
            valid = xs[:, :, 1:] != xs[:, :, :-1]
            valid &= (counts >= min_leaf) & (m[:, None] - counts >= min_leaf)
            if cand is not None:
                valid &= cand[nodes].T[:, :, None]
            gains = np.where(valid, gains, -np.inf)
            at = gains.argmax(axis=2)                            # (cols, nodes)
            top = np.take_along_axis(gains, at[:, :, None], axis=2)[:, :, 0]
            f = top.argmax(axis=0)
            g = top[f, idx]
            p = at[f, idx]
            ok = g > 0.0
            feat[nodes[ok]] = f[ok]
            thr[nodes[ok]] = (0.5 * (xs[f, idx, p] + xs[f, idx, p + 1]))[ok]
            gain[nodes[ok]] = g[ok]
    return feat, thr, gain


class _Grower:
    """The training matrices of a batch of trees, presorted once.

    Tree t trains on rows `rows[t]` of X: a bootstrap resample, or every row,
    and sees only the columns `cols` that vary over X. Each tree owns a
    block of n slots, one per training row; row f of `order` lists every
    tree's slots sorted by kept column f, stably, so equal values keep row
    order, and the last row lists them in row order.
    """

    def __init__(self, X: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        n_trees, n = rows.shape
        self.n = n
        self.n_features = X.shape[1]
        self.cols = cols
        slots = n_trees * n
        self.x = np.empty((self.cols.size, slots))
        self.order = np.empty((self.cols.size + 1, slots), dtype=np.intp)
        first = (np.arange(n_trees) * n)[:, None]
        for f, col in enumerate(self.cols):
            values = X[rows, col]                                # (trees, n)
            self.x[f] = values.ravel()
            self.order[f] = (np.argsort(values, axis=1, kind="stable") + first).ravel()
        self.order[-1] = np.arange(slots)

    def grow(self, y: np.ndarray, max_depth: int | None, min_leaf: int, mf: int,
             rngs) -> list[DecisionTree]:
        """One tree per row of y (tree t's targets, in its row order), grown
        together one depth level at a time. With mf below the feature count,
        each splittable node draws its candidate subset from rngs[t], nodes
        taken level by level and left to right within a level."""
        n_trees = y.shape[0]
        y = y.reshape(-1)
        x, cols, order = self.x, self.cols, self.order
        start = np.arange(n_trees) * self.n
        size = np.full(n_trees, self.n)
        tree = np.arange(n_trees)
        go_left = np.empty(y.size, dtype=bool)
        levels = []
        depth = 0
        while True:
            ys = y[order[-1]]
            value = _segment_means(ys, start, size)
            splittable = ((size >= 2 * min_leaf)
                          & (np.maximum.reduceat(ys, start) - np.minimum.reduceat(ys, start)
                             != 0.0))
            if max_depth is not None and depth >= max_depth:
                splittable[:] = False
            nodes = np.flatnonzero(splittable)
            cand = None
            if mf < self.n_features:
                cand = np.empty((nodes.size, cols.size), dtype=bool)
                for i, node in enumerate(nodes):
                    drawn = rngs[tree[node]].choice(self.n_features, size=mf, replace=False)
                    cand[i] = np.isin(cols, drawn)
            feat = np.full(size.size, LEAF)
            thr = np.zeros(size.size)
            gain = np.zeros(size.size)
            feat[nodes], thr[nodes], gain[nodes] = _best_splits(
                x, y, order, start[nodes], size[nodes], cand, min_leaf)
            split = np.flatnonzero(feat != LEAF)
            # per node of the level: tree, value, split; and the split nodes
            levels.append((tree, value, feat, thr, gain, split))
            if split.size == 0:
                break
            # stable partition: every sorted list keeps its order inside each child
            seg = np.repeat(np.arange(size.size), size)
            go = x[feat[seg], order[-1]] <= thr[seg]   # read only for split nodes' rows
            go_left[order[-1]] = go
            keep = np.flatnonzero(feat[seg] != LEAF)
            n_left = np.add.reduceat(go, start, dtype=np.intp)[split]
            child_size = np.column_stack((n_left, size[split] - n_left)).ravel()
            child_start = np.cumsum(child_size) - child_size
            to_left = np.zeros(size.size, dtype=np.intp)
            to_right = np.zeros(size.size, dtype=np.intp)
            to_left[split] = child_start[0::2]
            to_right[split] = child_start[1::2]
            seg = seg[keep]
            first = start[seg]
            left_base = to_left[seg]
            right_base = to_right[seg] + keep - first
            new = np.empty((order.shape[0], child_start[-1] + child_size[-1]), dtype=np.intp)
            for r, slots in enumerate(order):
                fl = go_left[slots]
                before = np.cumsum(fl)
                before -= fl
                before = before[keep] - before[first]
                fl = fl[keep]
                new[r, np.where(fl, left_base + before, right_base - before)] = slots[keep]
            order, start, size = new, child_start, child_size
            tree = np.repeat(tree[split], 2)
            depth += 1
        return self._assemble(levels, n_trees, max_depth, min_leaf)

    def _assemble(self, levels, n_trees: int, max_depth, min_leaf: int) -> list[DecisionTree]:
        """Number each tree's nodes in preorder (node, left subtree, right
        subtree), as a depth-first stack that pops the left child first does."""
        tree, value, feat, thr, gain = (np.concatenate([lv[i] for lv in levels])
                                        for i in range(5))
        first = np.cumsum([0] + [lv[0].size for lv in levels])
        # (split node ids, their left children's ids); right child = left + 1
        links = [(first[i] + lv[5], first[i + 1] + 2 * np.arange(lv[5].size))
                 for i, lv in enumerate(levels) if lv[5].size]
        left = np.full(tree.size, LEAF)
        right = np.full(tree.size, LEAF)
        count = np.ones(tree.size, dtype=np.intp)
        for parent, child in reversed(links):
            count[parent] += count[child] + count[child + 1]
        pre = np.zeros(tree.size, dtype=np.intp)
        for parent, child in links:
            pre[child] = pre[parent] + 1
            pre[child + 1] = pre[child] + count[child]
            left[parent] = pre[child]
            right[parent] = pre[child + 1]
        feature = np.full(tree.size, LEAF)
        is_split = feat != LEAF
        feature[is_split] = self.cols[feat[is_split]]
        perm = np.lexsort((pre, tree))
        cuts = np.cumsum(np.bincount(tree, minlength=n_trees))[:-1]
        parts = [np.split(a[perm], cuts) for a in (feature, thr, left, right, value, gain)]
        return [DecisionTree(*arrays, n_features=self.n_features, max_depth=max_depth,
                             min_samples_leaf=min_leaf) for arrays in zip(*parts)]


def _kept_columns(X: np.ndarray) -> np.ndarray:
    """Columns that vary over X; a constant column can never split."""
    return np.flatnonzero(np.ptp(X, axis=0) != 0.0)


def fit_tree(X: np.ndarray, y: np.ndarray, max_depth: int | None = None,
             min_samples_leaf: int = 1, max_features=None,
             rng: np.random.Generator | None = None) -> DecisionTree:
    """Greedy CART fit, grown level by level over columns presorted once.
    With every column a candidate, the tree is the one depth-first,
    node-at-a-time growth gives. max_features < n_features draws a fresh
    candidate subset at every splittable node from `rng` (the forest's
    per-tree stream), nodes taken level by level, left to right."""
    X, Y = _check_training(X, np.asarray(y, dtype=float).ravel()[:, None],
                           max_depth, min_samples_leaf)
    n, d = X.shape
    mf = _resolve_max_features(max_features, d)
    if mf < d and rng is None:
        rng = np.random.default_rng(0)
    grower = _Grower(X, np.arange(n)[None], _kept_columns(X))
    return grower.grow(Y.T, max_depth, min_samples_leaf, mf, [rng])[0]


def _stacked_values(trees: list[DecisionTree], X: np.ndarray) -> np.ndarray:
    """(trees, rows) predictions of every tree, from one vectorized descent
    over the trees' node tables stacked end to end."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    for tree in trees:
        if X.shape[1] != tree.n_features:
            raise ValidationError(f"feature count {X.shape[1]} != training {tree.n_features}")
    n = X.shape[0]
    if not trees:
        return np.zeros((0, n))
    sizes = [tree.feature.size for tree in trees]
    root = np.cumsum(sizes) - sizes
    shift = np.repeat(root, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    node = np.repeat(root, n)
    row = np.tile(np.arange(n), len(trees))
    active = np.flatnonzero(feature[node] != LEAF)
    while active.size:
        cur = node[active]
        go = X[row[active], feature[cur]] <= threshold[cur]
        cur = np.where(go, left[cur], right[cur])
        node[active] = cur
        active = active[feature[cur] != LEAF]
    return np.concatenate([tree.value for tree in trees])[node].reshape(len(trees), n)


def predict_tree(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Vectorized descent: one indexing pass per tree level."""
    return _stacked_values([tree], X)[0]


@dataclass
class RandomForest:
    trees: list[DecisionTree]
    n_estimators: int
    max_features: int
    bootstrap: bool
    seed: int
    n_features: int
    unique_inbag_counts: list[int] = field(default_factory=list)


def fit_forest(X: np.ndarray, y: np.ndarray, n_estimators: int = DEFAULT_N_ESTIMATORS,
               max_depth: int | None = None, max_features=None,
               min_samples_leaf: int = 1, bootstrap: bool = True,
               seed: int = 0) -> RandomForest:
    """Bagged trees; each tree owns a pre-spawned RNG stream for its bootstrap
    resample and per-split feature subsets, so fits are deterministic in seed.
    The trees are grown together, in as few equal batches as _SLOT_BUDGET
    allows."""
    y = np.asarray(y, dtype=float).ravel()
    if n_estimators < 1:
        raise ValidationError("n_estimators must be >= 1")
    X, _ = _check_training(X, y[:, None], max_depth, min_samples_leaf)
    n, d = X.shape
    mf = _resolve_max_features(max_features, d)
    rows, rngs, unique_counts = [], [], []
    for stream in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(stream)
        rows.append(rng.integers(0, n, size=n) if bootstrap else np.arange(n))
        unique_counts.append(int(np.unique(rows[-1]).size) if bootstrap else n)
        rngs.append(rng)
    rows = np.asarray(rows)
    cols = _kept_columns(X)
    batches = min(n_estimators, -(-n_estimators * n * (cols.size + 1) // _SLOT_BUDGET))
    trees = []
    for part in np.array_split(np.arange(n_estimators), batches):
        grower = _Grower(X, rows[part], cols)
        trees += grower.grow(y[rows[part]], max_depth, min_samples_leaf, mf,
                             [rngs[t] for t in part])
    return RandomForest(trees=trees, n_estimators=n_estimators, max_features=mf,
                        bootstrap=bootstrap, seed=seed, n_features=d,
                        unique_inbag_counts=unique_counts)


def predict_forest(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Unweighted mean over trees, summed in fixed index order."""
    values = _stacked_values(forest.trees, X)
    total = np.zeros(values.shape[1])
    for v in values:
        total += v
    return total / len(forest.trees)


def feature_importance(forest: RandomForest) -> np.ndarray:
    """Mean SSE decrease per feature over trees, normalized to sum to 1."""
    totals = np.zeros(forest.n_features)
    for tree in forest.trees:
        split = tree.feature != LEAF
        np.add.at(totals, tree.feature[split], tree.gain[split])
    totals /= len(forest.trees)
    s = totals.sum()
    return totals / s if s > 0 else totals


@dataclass
class GradientBoostedTrees:
    init_value: float      # F0 = mean(y)
    stages: list[DecisionTree]
    learning_rate: float
    sse_history: list[float] = field(default_factory=list)  # training SSE per round


def _fit_gbms(X: np.ndarray, Y: np.ndarray, n_rounds: int = DEFAULT_GBM_ROUNDS,
              learning_rate: float = DEFAULT_GBM_LR, max_depth: int | None = DEFAULT_GBM_DEPTH,
              min_samples_leaf: int = 1) -> list[GradientBoostedTrees]:
    """One boosted model per column of Y; each round grows every target's
    stage tree together over the one presort of X."""
    Y = np.asarray(Y, dtype=float)
    if Y.size == 0:
        raise ValidationError("empty training data")
    if learning_rate <= 0:
        raise ValidationError("learning_rate must be > 0")
    if n_rounds < 0:
        raise ValidationError("n_rounds must be >= 0")
    X, Y = _check_training(X, Y, max_depth, min_samples_leaf)
    n, d = X.shape
    targets = np.ascontiguousarray(Y.T)
    f0 = [float(y.mean()) for y in targets]
    pred = np.array([np.full(n, f) for f in f0])
    grower = _Grower(X, np.tile(np.arange(n), (len(f0), 1)), _kept_columns(X))
    stages = [[] for _ in f0]
    history = [[] for _ in f0]
    for _ in range(n_rounds):
        trees = grower.grow(targets - pred, max_depth, min_samples_leaf, d, None)
        pred += learning_rate * _stacked_values(trees, X)
        for j, tree in enumerate(trees):
            stages[j].append(tree)
            history[j].append(float(np.sum((targets[j] - pred[j]) ** 2)))
    return [GradientBoostedTrees(init_value=f, stages=s, learning_rate=learning_rate,
                                 sse_history=h) for f, s, h in zip(f0, stages, history)]


def fit_gbm(X: np.ndarray, y: np.ndarray, n_rounds: int = DEFAULT_GBM_ROUNDS,
            learning_rate: float = DEFAULT_GBM_LR, max_depth: int | None = DEFAULT_GBM_DEPTH,
            min_samples_leaf: int = 1) -> GradientBoostedTrees:
    """Least-squares boosting: each stage fits the current residuals,
    F_m = F_{m-1} + lr * tree_m. Stage trees see all features, so the fit is
    deterministic."""
    y = np.asarray(y, dtype=float).ravel()
    return _fit_gbms(X, y[:, None], n_rounds=n_rounds, learning_rate=learning_rate,
                     max_depth=max_depth, min_samples_leaf=min_samples_leaf)[0]


def predict_gbm(model: GradientBoostedTrees, X: np.ndarray) -> np.ndarray:
    values = _stacked_values(model.stages, X)
    out = np.full(values.shape[1], model.init_value)
    for v in values:
        out += model.learning_rate * v
    return out


@dataclass
class MultiOutputModel:
    kind: str              # "forest" or "gbm"
    models: list
    target_names: list[str]


def fit_multi_output(X: np.ndarray, Y: np.ndarray, kind: str = "gbm",
                     target_names: list[str] | None = None, seed: int = 0,
                     **params) -> MultiOutputModel:
    """One independent regressor per target column; the GBMs of all targets
    grow each round's stage trees together."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    t = Y.shape[1]
    if target_names is None:
        target_names = [f"target{i}" for i in range(t)]
    if len(target_names) != t:
        raise ValidationError(f"{len(target_names)} names for {t} targets")
    if kind == "gbm":
        models = _fit_gbms(X, Y, **params)
    elif kind == "forest":
        seeds = np.random.SeedSequence(seed).generate_state(t)
        models = [fit_forest(X, Y[:, i], seed=int(seeds[i]), **params) for i in range(t)]
    else:
        raise ValidationError(f"unknown base regressor {kind!r}")
    return MultiOutputModel(kind=kind, models=models, target_names=list(target_names))


def predict_multi_output(model: MultiOutputModel, X: np.ndarray) -> np.ndarray:
    predict = predict_gbm if model.kind == "gbm" else predict_forest
    return np.column_stack([predict(m, X) for m in model.models])


def tree_to_dict(tree: DecisionTree) -> dict:
    return {"kind": "tree", "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(), "left": tree.left.tolist(),
            "right": tree.right.tolist(), "value": tree.value.tolist(),
            "gain": tree.gain.tolist(), "n_features": tree.n_features,
            "max_depth": tree.max_depth, "min_samples_leaf": tree.min_samples_leaf}


def tree_from_dict(d: dict) -> DecisionTree:
    if d.get("kind") != "tree":
        raise ValidationError(f"expected kind 'tree', got {d.get('kind')!r}")
    return DecisionTree(feature=np.asarray(d["feature"], dtype=int),
                        threshold=np.asarray(d["threshold"], dtype=float),
                        left=np.asarray(d["left"], dtype=int),
                        right=np.asarray(d["right"], dtype=int),
                        value=np.asarray(d["value"], dtype=float),
                        gain=np.asarray(d["gain"], dtype=float),
                        n_features=int(d["n_features"]),
                        max_depth=d["max_depth"],
                        min_samples_leaf=int(d["min_samples_leaf"]))


def forest_to_dict(forest: RandomForest) -> dict:
    return {"kind": "forest", "trees": [tree_to_dict(t) for t in forest.trees],
            "n_estimators": int(forest.n_estimators), "max_features": int(forest.max_features),
            "bootstrap": bool(forest.bootstrap), "seed": int(forest.seed),
            "n_features": int(forest.n_features),
            "unique_inbag_counts": [int(c) for c in forest.unique_inbag_counts]}


def forest_from_dict(d: dict) -> RandomForest:
    if d.get("kind") != "forest":
        raise ValidationError(f"expected kind 'forest', got {d.get('kind')!r}")
    return RandomForest(trees=[tree_from_dict(t) for t in d["trees"]],
                        n_estimators=int(d["n_estimators"]),
                        max_features=int(d["max_features"]),
                        bootstrap=bool(d["bootstrap"]), seed=int(d["seed"]),
                        n_features=int(d["n_features"]),
                        unique_inbag_counts=list(d["unique_inbag_counts"]))


def gbm_to_dict(model: GradientBoostedTrees) -> dict:
    return {"kind": "gbm", "init_value": float(model.init_value),
            "learning_rate": float(model.learning_rate),
            "stages": [tree_to_dict(t) for t in model.stages]}


def gbm_from_dict(d: dict) -> GradientBoostedTrees:
    if d.get("kind") != "gbm":
        raise ValidationError(f"expected kind 'gbm', got {d.get('kind')!r}")
    return GradientBoostedTrees(init_value=float(d["init_value"]),
                                stages=[tree_from_dict(t) for t in d["stages"]],
                                learning_rate=float(d["learning_rate"]))


def multi_output_to_dict(model: MultiOutputModel) -> dict:
    to_dict = gbm_to_dict if model.kind == "gbm" else forest_to_dict
    return {"kind": "multi", "base": model.kind,
            "target_names": list(model.target_names),
            "models": [to_dict(m) for m in model.models]}


def multi_output_from_dict(d: dict) -> MultiOutputModel:
    if d.get("kind") != "multi":
        raise ValidationError(f"expected kind 'multi', got {d.get('kind')!r}")
    from_dict = gbm_from_dict if d["base"] == "gbm" else forest_from_dict
    return MultiOutputModel(kind=d["base"], models=[from_dict(m) for m in d["models"]],
                            target_names=list(d["target_names"]))
