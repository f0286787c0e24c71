"""Regression trees and ensembles: CART with variance-reduction splitting,
bagged forests with per-split feature subsetting, gradient boosting on
residuals, and multi-output models (one regressor per target column).

Trees are stored as flat parallel arrays (feature, threshold, children, value),
nodes numbered in preorder, so serialization is trivial. Feature and child
indices are 4-byte integers (np.int32), thresholds and values float64, so a
node takes 28 bytes. A model's trees, fitted or loaded, are one node table
(`TreeTable`): every tree's node arrays laid end to end, which reads as a
sequence of DecisionTree views and pickles as a few arrays, however many
trees it holds. A loaded model's table is packed from its tree list as the
parser closes the model, its nodes checked to be well formed, so every
descent ends inside it. Prediction descends a model's trees in blocks of
bounded size over views of its table, each block's trees together, one
indexing pass per level, and folds each block's values into the model's
sums in tree order as the block is scored, so no (trees, rows) matrix of
values is made.

Fitting grows a batch of trees together, breadth first over presorted
attribute lists (SLIQ, Mehta et al. 1996; SPRINT, Shafer et al. 1996). A
batch may span models: `fit_forests` grows every target's forest in
batches of bounded memory, and `fit_gbms` grows one boosting round's stage
trees of every target of every training set together. Trees
that train on one matrix form a block sharing its kept columns, as XGBoost's
column blocks are shared across trees (Chen & Guestrin 2016). Each tree's
columns are stably sorted once, ties kept in row order, and a split stably
partitions every sorted list between its children. Every candidate node of a
depth level is scored in one set of array operations, each midpoint threshold
by prefix sums:

    gain = S_L^2/n_L + S_R^2/n_R - S_parent^2/m

which equals the node's SSE reduction (the sum-of-squares terms cancel).
Equal-gain ties resolve to the lowest feature index, then lowest threshold.
A node's prefix sums and mean run over its own rows in the order a per-node
stable sort gives, so the trees are bit-identical to depth-first,
node-at-a-time growth, whatever else shares their batch. With max_features
below the column count, a tree's splittable nodes draw their candidate
subsets from its RNG stream in level order: depth by depth, left to right.
Per-tree RNG streams are spawned from the forest seed up front, so the batch
a tree is grown in never changes it.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ValidationError
from .preprocess import training_matrices
from .schema import (BOOL, NUMBER, POSITIVE, STRING, Fault, array, integer, one_of, parse,
                     shown)

DEFAULT_N_ESTIMATORS = 100
DEFAULT_GBM_ROUNDS = 100
DEFAULT_GBM_LR = 0.1
DEFAULT_GBM_DEPTH = 3

LEAF = -1
INDEX = np.int32           # dtype of the feature and child index arrays


@dataclass
class DecisionTree:
    feature: np.ndarray    # int32 split feature per node, LEAF marks leaves
    threshold: np.ndarray  # float64 split threshold per node (x <= t goes left)
    left: np.ndarray       # int32 left child per node, LEAF at leaves
    right: np.ndarray      # int32 right child per node, LEAF at leaves
    value: np.ndarray      # float64 mean target of the rows reaching the node
    n_features: int
    max_depth: int | None = None
    min_samples_leaf: int = 1


# a tree's node arrays, in DecisionTree's field order, and their dtypes
_NODE_DTYPES = {"feature": INDEX, "threshold": np.float64, "left": INDEX, "right": INDEX,
                "value": np.float64}
_NODE_KEYS = tuple(_NODE_DTYPES)


class TreeTable(Sequence):
    """A model's trees as one node table: each node array of every tree laid
    end to end, tree t's nodes at offsets[t]:offsets[t + 1], its child
    indices local to the tree, beside per-tree tuples of the DecisionTree
    scalars. It reads as a read-only sequence of DecisionTree, each built on
    demand as views of the table, and no array of it is writeable. It
    pickles as its arrays and tuples, so a model sent between processes is
    a few arrays, not one object and five arrays per tree."""

    __slots__ = (*_NODE_KEYS, "offsets", "n_features", "max_depth", "min_samples_leaf")

    def __init__(self, feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
                 right: np.ndarray, value: np.ndarray, offsets: np.ndarray,
                 n_features: tuple, max_depth: tuple, min_samples_leaf: tuple):
        for column in (feature, threshold, left, right, value, offsets):
            column.flags.writeable = False
        self.feature, self.threshold, self.left, self.right = feature, threshold, left, right
        self.value, self.offsets = value, offsets
        self.n_features = n_features
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    @classmethod
    def pack(cls, trees) -> TreeTable:
        """The table of `trees`, an iterable of DecisionTree, their node
        arrays copied end to end."""
        trees = list(trees)
        return cls(*(np.concatenate([np.empty(0, dtype), *(getattr(t, key) for t in trees)],
                                    dtype=dtype) for key, dtype in _NODE_DTYPES.items()),
                   offsets=np.cumsum([0, *(tree.feature.size for tree in trees)]),
                   **{key: tuple(getattr(t, key) for t in trees)
                      for key in ("n_features", "max_depth", "min_samples_leaf")})

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i) -> DecisionTree:
        i = range(len(self))[operator.index(i)]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return DecisionTree(*(getattr(self, key)[lo:hi] for key in _NODE_KEYS),
                            n_features=self.n_features[i], max_depth=self.max_depth[i],
                            min_samples_leaf=self.min_samples_leaf[i])

    def __reduce__(self):
        return TreeTable, tuple(getattr(self, key) for key in self.__slots__)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _resolve_max_features(max_features, d: int) -> int:
    if max_features is None or max_features == "all":
        return d
    if max_features == "sqrt":
        return max(1, round(math.sqrt(d)))
    if max_features == "third":
        return max(1, round(d / 3))
    if not _is_int(max_features):
        raise ValidationError("max_features must be null, 'all', 'sqrt', 'third' or an "
                              f"integer, got {shown(max_features)}")
    if max_features < 1:
        raise ValidationError("max_features must be >= 1")
    return min(int(max_features), d)


# Cells (nodes x columns x padded rows) scored at once when searching one
# level's splits; bounds the search's scratch memory whatever the batch size.
_CELL_BUDGET = 1 << 14
# Entries (training rows x presorted lists) of the trees grown in one batch;
# bounds the presort's and the partition's memory whatever the forest size.
_SLOT_BUDGET = 1 << 16
# (tree, row) slots of the trees descended in one block; bounds the descent's
# scratch, a dozen or so slot-sized arrays, whatever the model's size. The
# benchmark's 1,000 inverse queries descend 8 trees a block; blocks of
# 1 << 14 and 1 << 16 slots peaked 0.6 and 3.1 MB higher there, and 1 << 14
# scored 10,000 queries about 5 % faster.
_DESCENT_SLOTS = 1 << 13


def _check_training(X: np.ndarray, Y: np.ndarray, max_depth, min_samples_leaf: int):
    """Validated (X, Y) as float arrays, Y with one column per target."""
    X, Y = training_matrices(X, Y)
    if max_depth is not None and not _is_int(max_depth):
        raise ValidationError(f"max_depth must be null or an integer, got {shown(max_depth)}")
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
    sizes = size[by_size]
    edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), size.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        group = by_size[lo:hi]
        m = int(sizes[lo])
        out[group] = np.add.reduce(v[start[group, None] + np.arange(m)], axis=1) / m
    return out


def _best_splits(x: np.ndarray, y: np.ndarray, order: np.ndarray, start: np.ndarray,
                 size: np.ndarray, cand: np.ndarray | None, min_leaf: int):
    """Best split of each node: (kept column or LEAF, threshold).

    Node i holds positions start[i]:start[i]+size[i] of every row of `order`.
    The level's y values and ties are first gathered into each column's
    sorted order. Nodes are then scored largest first, a chunk of up to
    _CELL_BUDGET cells at a time (one node if it alone is larger): a chunk
    is laid out (position, node, column), its nodes padded to its largest
    size by repeating their last row. A node's prefix sums run over its own
    sorted rows from its first, as a per-node cumsum would; equal gains fall
    to the lowest column, then the lowest threshold.
    """
    n_cols = x.shape[0]
    feat = np.full(size.size, LEAF)
    thr = np.zeros(size.size)
    if n_cols == 0 or size.size == 0:
        return feat, thr
    xs = np.take(x, order[:n_cols] + (np.arange(n_cols) * x.shape[1])[:, None])
    ys = np.ascontiguousarray(np.take(y, order[:n_cols]).T)     # (level rows, cols)
    # positions no split may follow: the next value is equal, or the node ends
    ties = np.ones(xs.shape, dtype=bool)
    np.equal(xs[:, 1:], xs[:, :-1], out=ties[:, :-1])
    ties[:, start + size - 1] = True
    ties = np.ascontiguousarray(ties.T)
    by_size = np.argsort(-size, kind="stable")
    lo = 0
    while lo < size.size:
        w = int(size[by_size[lo]])
        nodes = by_size[lo:lo + max(1, _CELL_BUDGET // (n_cols * w))]
        lo += nodes.size
        n_left = np.arange(1, w, dtype=float)[:, None, None]
        counts = np.arange(1, w)[:, None]
        m = size[nodes]
        first = start[nodes]
        pos = np.minimum(np.arange(w)[:, None] + first, first + m - 1)   # (w, nodes)
        csum = np.take(ys, pos, axis=0)                      # (w, nodes, cols)
        if w <= 32:
            # on short runs, adding position by position beats cumsum's
            # loop per (node, column); the sums are the same
            for i in range(1, w):
                np.add(csum[i - 1], csum[i], out=csum[i])
        else:
            np.cumsum(csum, axis=0, out=csum)
        idx = np.arange(nodes.size)
        total = csum[m - 1, idx]                             # (nodes, cols)
        s_left = csum[:-1]
        # gain = s_left^2/n_left + (total - s_left)^2/(m - n_left) - total^2/m,
        # evaluated in place in that order
        gains = s_left * s_left
        gains /= n_left
        right = total - s_left
        del csum, s_left
        right *= right
        with np.errstate(divide="ignore", invalid="ignore"):
            right /= (m - counts)[:, :, None]
            gains += right
            del right
            gains -= (total * total) / m[:, None]
        # the padding repeats a node's last position, so it is masked too
        invalid = np.take(ties, pos[:-1], axis=0)
        if min_leaf > 1:
            invalid |= ((counts < min_leaf) | (m - counts < min_leaf))[:, :, None]
        if cand is not None:
            invalid |= ~cand[nodes]
        np.putmask(gains, invalid, -np.inf)
        # a column's best gain, NaN if any (as argmax would pick it)
        top = gains.max(axis=0)                              # (nodes, cols)
        f = top.argmax(axis=1)
        ok = top[idx, f] > 0.0
        p = gains[:, idx, f].argmax(axis=0)
        f, p = f[ok], first[ok] + p[ok]
        feat[nodes[ok]] = f
        thr[nodes[ok]] = 0.5 * (xs[f, p] + xs[f, p + 1])
    return feat, thr


class _Grower:
    """The training matrices of a batch of trees, presorted once.

    The batch is a list of blocks (X, rows, cols). Tree t of a block trains
    on rows `rows[t]` of its X, a bootstrap resample or every row, and sees
    only the columns `cols` that vary over X. Each tree owns a range of
    slots, one per training row, the blocks' trees laid end to end. Row f of
    `order` lists every tree's slots sorted by its f-th kept column, stably,
    so equal values keep row order, and the last row lists them in row order.
    A block with fewer kept columns than the widest is padded with constant
    rows of `x`, which never split.
    """

    def __init__(self, blocks):
        width = max(cols.size for _, _, cols in blocks)
        slots = sum(rows.size for _, rows, _ in blocks)
        self.x = np.zeros((width, slots))
        self.order = np.empty((width + 1, slots), dtype=np.intp)
        self.order[-1] = np.arange(slots)
        n_rows, colmap, n_features = [], [], []
        offset = 0
        for X, rows, cols in blocks:
            n_trees, n = rows.shape
            span = slice(offset, offset + rows.size)
            first = (offset + np.arange(n_trees) * n)[:, None]
            for f, col in enumerate(cols):
                values = X[rows, col]                            # (trees, n)
                self.x[f, span] = values.ravel()
                self.order[f, span] = (np.argsort(values, axis=1, kind="stable")
                                       + first).ravel()
            self.order[cols.size:-1, span] = self.order[-1, span]
            n_rows += [n] * n_trees
            # tree t's f-th kept column is colmap[t, f]; LEAF marks padding
            colmap += [np.pad(cols, (0, width - cols.size), constant_values=LEAF)] * n_trees
            n_features += [X.shape[1]] * n_trees
            offset += rows.size
        self.n_rows = np.asarray(n_rows)
        self.colmap = np.array(colmap, dtype=np.intp)
        self.n_features = np.asarray(n_features)

    def grow(self, y: np.ndarray, max_depth: int | None, min_leaf: int,
             max_features=None, rngs=None) -> tuple[list[DecisionTree], np.ndarray]:
        """One tree per tree of the blocks, grown together one depth level at
        a time; y holds each tree's targets in its slots. Returns the trees,
        views of one table, and, per slot, the value of the leaf its row
        reaches. A tree whose resolved max_features is below its feature
        count draws each splittable node's candidate subset from rngs[t],
        nodes taken level by level and left to right within a level."""
        x, order = self.x, self.order
        n_trees = self.n_rows.size
        mf = np.array([_resolve_max_features(max_features, d) for d in self.n_features])
        subset = mf < self.n_features
        size = self.n_rows
        start = np.cumsum(size) - size
        tree = np.arange(n_trees)
        fitted = np.empty(y.size)
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
            if subset.any():
                cand = np.ones((nodes.size, x.shape[0]), dtype=bool)
                for i, node in enumerate(nodes):
                    t = tree[node]
                    if subset[t]:
                        drawn = rngs[t].choice(self.n_features[t], size=mf[t], replace=False)
                        cand[i] = np.isin(self.colmap[t], drawn)
            feat = np.full(size.size, LEAF)
            thr = np.zeros(size.size)
            feat[nodes], thr[nodes] = _best_splits(
                x, y, order, start[nodes], size[nodes], cand, min_leaf)
            split = np.flatnonzero(feat != LEAF)
            # per node of the level: tree, value, split; and the split nodes
            levels.append((tree, value, feat, thr, split))
            seg = np.repeat(np.arange(size.size), size)
            at_leaf = feat[seg] == LEAF
            fitted[order[-1][at_leaf]] = value[seg[at_leaf]]
            if split.size == 0:
                break
            # stable partition of the split nodes' rows (the kept positions):
            # every sorted list keeps its order inside each child
            keep = np.flatnonzero(~at_leaf)
            seg = seg[keep]
            rows = order[-1][keep]
            go = x[feat[seg], rows] <= thr[seg]
            go_left[rows] = go
            parent_size = size[split]
            kept_start = np.cumsum(parent_size) - parent_size
            n_left = np.add.reduceat(go, kept_start, dtype=np.intp)
            child_size = np.column_stack((n_left, parent_size - n_left)).ravel()
            child_start = np.cumsum(child_size) - child_size
            # `before` below counts a list's left-goers from its first kept
            # position. A node's left child starts at its kept start, its right
            # child n_left later, and `earlier` left-goers precede the node.
            earlier = np.cumsum(n_left) - n_left
            left_base = np.repeat(kept_start - earlier, parent_size)
            right_base = np.repeat(n_left + earlier, parent_size) + np.arange(keep.size)
            new = np.empty((order.shape[0], keep.size), dtype=np.intp)
            for r, row in enumerate(order):
                slots = row[keep]
                fl = go_left[slots]
                before = np.cumsum(fl)
                before -= fl
                new[r, np.where(fl, left_base + before, right_base - before)] = slots
            order, start, size = new, child_start, child_size
            tree = np.repeat(tree[split], 2)
            depth += 1
        return list(self._assemble(levels, max_depth, min_leaf)), fitted

    def _assemble(self, levels, max_depth, min_leaf: int) -> TreeTable:
        """Number each tree's nodes in preorder (node, left subtree, right
        subtree), as a depth-first stack that pops the left child first does,
        and name each split by the tree's own column index."""
        tree, value, feat, thr = (np.concatenate([lv[i] for lv in levels]) for i in range(4))
        first = np.cumsum([0] + [lv[0].size for lv in levels])
        # (split node ids, their left children's ids); right child = left + 1
        links = [(first[i] + lv[4], first[i + 1] + 2 * np.arange(lv[4].size))
                 for i, lv in enumerate(levels) if lv[4].size]
        left = np.full(tree.size, LEAF, dtype=INDEX)
        right = np.full(tree.size, LEAF, dtype=INDEX)
        count = np.ones(tree.size, dtype=np.intp)
        for parent, child in reversed(links):
            count[parent] += count[child] + count[child + 1]
        pre = np.zeros(tree.size, dtype=np.intp)
        for parent, child in links:
            pre[child] = pre[parent] + 1
            pre[child + 1] = pre[child] + count[child]
            left[parent] = pre[child]
            right[parent] = pre[child + 1]
        feature = np.full(tree.size, LEAF, dtype=INDEX)
        is_split = feat != LEAF
        feature[is_split] = self.colmap[tree[is_split], feat[is_split]]
        perm = np.lexsort((pre, tree))
        n_trees = self.n_rows.size
        return TreeTable(*(a[perm] for a in (feature, thr, left, right, value)),
                         offsets=np.cumsum([0, *np.bincount(tree, minlength=n_trees)]),
                         n_features=tuple(int(d) for d in self.n_features),
                         max_depth=(max_depth,) * n_trees,
                         min_samples_leaf=(min_leaf,) * n_trees)


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
    grower = _Grower([(X, np.arange(n)[None], _kept_columns(X))])
    return grower.grow(Y[:, 0], max_depth, min_samples_leaf, max_features, [rng])[0][0]


def _value_blocks(trees: TreeTable, X: np.ndarray):
    """Each block's (trees, rows) predictions, block after block in tree
    order. The trees descend a block at a time, each block (one tree at
    least) holding at most _DESCENT_SLOTS (tree, row) slots, so the
    descent's scratch is bounded whatever the model's size: views of the
    table, one indexing pass per level. Slot s of a block is row s % rows of
    X, and a slot still descending reads its node's feature at its row's
    offset in X's flat values, one gather where a two-index one is slower."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    wrong = [width for width in trees.n_features if width != X.shape[1]]
    if wrong:
        raise ValidationError(f"feature count {X.shape[1]} != training {wrong[0]}")
    n, d = X.shape
    flat = X.ravel()
    step = max(1, _DESCENT_SLOTS // max(n, 1))
    for lo in range(0, len(trees), step):
        hi = min(lo + step, len(trees))
        nodes = slice(trees.offsets[lo], trees.offsets[hi])
        root = trees.offsets[lo:hi] - nodes.start
        shift = np.repeat(root, np.diff(trees.offsets[lo:hi + 1]))
        feature, threshold = trees.feature[nodes], trees.threshold[nodes]
        left = trees.left[nodes] + shift
        right = trees.right[nodes] + shift
        node = np.repeat(root, n)
        active = np.flatnonzero(feature[node] != LEAF)
        at = active % n * d
        while active.size:
            cur = node[active]
            go = flat[at + feature[cur]] <= threshold[cur]
            cur = np.where(go, left[cur], right[cur])
            node[active] = cur
            keep = feature[cur] != LEAF
            active, at = active[keep], at[keep]
        yield trees.value[nodes][node].reshape(hi - lo, n)


def _stacked_values(trees: TreeTable, X: np.ndarray) -> np.ndarray:
    """(trees, rows) predictions of every tree, from `_value_blocks`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values = np.empty((len(trees), X.shape[0]))
    at = 0
    for block in _value_blocks(trees, X):
        values[at:at + len(block)] = block
        at += len(block)
    return values


def predict_tree(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Vectorized descent: one indexing pass per tree level."""
    return _stacked_values(TreeTable.pack([tree]), X)[0]


@dataclass
class RandomForest:
    trees: TreeTable
    n_estimators: int
    max_features: int
    bootstrap: bool
    seed: int
    n_features: int
    unique_inbag_counts: list[int] = field(default_factory=list)


def fit_forests(X: np.ndarray, Y: np.ndarray, seeds,
                n_estimators: int = DEFAULT_N_ESTIMATORS, max_depth: int | None = None,
                max_features=None, min_samples_leaf: int = 1,
                bootstrap: bool = True) -> list[RandomForest]:
    """One forest per column j of Y, seeded by seeds[j]. Each tree owns a
    pre-spawned RNG stream for its bootstrap resample and per-split feature
    subsets, so fits are deterministic in seed. The trees of every forest are
    grown together, in as few equal batches as _SLOT_BUDGET allows.

    A batch may hold trees of two targets' forests: batching each forest
    alone takes more, smaller grow calls (18 instead of 14 for the
    six-target refit on train-inverse's 240-row base subset), and
    fit_inverse took about 4 % longer that way (median of 6 interleaved
    pairs on the benchmark's inverse data, 2-core Xeon)."""
    if n_estimators < 1:
        raise ValidationError("n_estimators must be >= 1")
    X, Y = _check_training(X, Y, max_depth, min_samples_leaf)
    n, d = X.shape
    mf = _resolve_max_features(max_features, d)
    targets, cols = np.ascontiguousarray(Y.T), _kept_columns(X)
    rows, rngs, unique_counts = [], [], []
    for seed in seeds:
        for stream in np.random.SeedSequence(int(seed)).spawn(n_estimators):
            rng = np.random.default_rng(stream)
            rows.append(rng.integers(0, n, size=n) if bootstrap else np.arange(n))
            unique_counts.append(int(np.unique(rows[-1]).size) if bootstrap else n)
            rngs.append(rng)
    rows = np.asarray(rows)                                   # (trees, n)
    column = np.repeat(np.arange(len(seeds)), n_estimators)[:, None]  # each tree's in Y
    parts = np.array_split(np.arange(len(rows)),
                           min(len(rows), -(-rows.size * (cols.size + 1) // _SLOT_BUDGET)))
    # a batch is grown when a forest first takes one of its trees, and its
    # table is dropped once the forests holding them are packed
    grown = chain.from_iterable(
        _Grower([(X, rows[part], cols)]).grow(
            targets[column[part], rows[part]].ravel(), max_depth, min_samples_leaf,
            max_features, [rngs[t] for t in part])[0]
        for part in parts)
    return [RandomForest(trees=TreeTable.pack(islice(grown, n_estimators)),
                         n_estimators=n_estimators,
                         max_features=mf, bootstrap=bootstrap, seed=int(seed), n_features=d,
                         unique_inbag_counts=unique_counts[at:at + n_estimators])
            for at, seed in zip(range(0, len(rows), n_estimators), seeds)]


def fit_forest(X: np.ndarray, y: np.ndarray, n_estimators: int = DEFAULT_N_ESTIMATORS,
               max_depth: int | None = None, max_features=None,
               min_samples_leaf: int = 1, bootstrap: bool = True,
               seed: int = 0) -> RandomForest:
    """Bagged trees, each with its own RNG stream spawned from `seed` for its
    bootstrap resample and per-split feature subsets."""
    y = np.asarray(y, dtype=float).ravel()
    return fit_forests(X, y[:, None], [seed], n_estimators, max_depth, max_features,
                       min_samples_leaf, bootstrap)[0]


def predict_forest(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Unweighted mean over trees, summed in fixed index order, each
    descent block folded into the sum as it is scored."""
    total = np.zeros(np.atleast_2d(X).shape[0])
    for block in _value_blocks(forest.trees, X):
        for v in block:
            total += v
    return total / len(forest.trees)


@dataclass
class GradientBoostedTrees:
    init_value: float      # F0 = mean(y)
    stages: TreeTable
    learning_rate: float


def fit_gbms(problems, n_rounds: int = DEFAULT_GBM_ROUNDS,
             learning_rate: float = DEFAULT_GBM_LR, max_depth: int | None = DEFAULT_GBM_DEPTH,
             min_samples_leaf: int = 1) -> list[list[GradientBoostedTrees]]:
    """Per problem (X, Y), one boosted model per column of Y. Each round
    grows the stage trees of every target of every problem together, over
    one presort of each X; the grower's per-row leaf values then advance
    the training predictions, as a descent of the new trees would.

    The problems share their rounds because a round's grow call has a fixed
    cost that outweighs its few shallow trees: fitting train-inverse's six
    boosting problems one per call took 2.04 s against 1.34 s (median of 5
    interleaved pairs, 2-core Xeon)."""
    if learning_rate <= 0:
        raise ValidationError("learning_rate must be > 0")
    if n_rounds < 0:
        raise ValidationError("n_rounds must be >= 0")
    blocks, targets = [], []
    for X, Y in problems:
        X, Y = _check_training(X, Y, max_depth, min_samples_leaf)
        targets.append(np.ascontiguousarray(Y.T))
        blocks.append((X, np.tile(np.arange(X.shape[0]), (Y.shape[1], 1)), _kept_columns(X)))
    f0 = [float(y.mean()) for T in targets for y in T]
    pred = [np.array([np.full(T.shape[1], float(y.mean())) for y in T]) for T in targets]
    grower = _Grower(blocks)
    cuts = np.cumsum([T.size for T in targets])[:-1]
    rounds = []     # per round, its stage trees, one per model
    for _ in range(n_rounds):
        residuals = np.concatenate([(T - P).ravel() for T, P in zip(targets, pred)])
        trees, fitted = grower.grow(residuals, max_depth, min_samples_leaf)
        for P, fit in zip(pred, np.split(fitted, cuts)):
            P += learning_rate * fit.reshape(P.shape)
        rounds.append(trees)
    models = [GradientBoostedTrees(init_value=f, stages=TreeTable.pack(r[j] for r in rounds),
                                   learning_rate=learning_rate)
              for j, f in enumerate(f0)]
    at = np.cumsum([0] + [T.shape[0] for T in targets])
    return [models[a:b] for a, b in zip(at[:-1], at[1:])]


def fit_gbm(X: np.ndarray, y: np.ndarray, n_rounds: int = DEFAULT_GBM_ROUNDS,
            learning_rate: float = DEFAULT_GBM_LR, max_depth: int | None = DEFAULT_GBM_DEPTH,
            min_samples_leaf: int = 1) -> GradientBoostedTrees:
    """Least-squares boosting: each stage fits the current residuals,
    F_m = F_{m-1} + lr * tree_m. Stage trees see all features, so the fit is
    deterministic."""
    y = np.asarray(y, dtype=float).ravel()
    return fit_gbms([(X, y[:, None])], n_rounds, learning_rate, max_depth,
                    min_samples_leaf)[0][0]


def predict_gbm(model: GradientBoostedTrees, X: np.ndarray) -> np.ndarray:
    """F0 plus each stage's learning-rate-scaled value, in stage order, each
    descent block folded into the sum as it is scored."""
    out = np.full(np.atleast_2d(X).shape[0], model.init_value)
    for block in _value_blocks(model.stages, X):
        for v in block:
            out += model.learning_rate * v
    return out


@dataclass
class MultiOutputModel:
    kind: str              # "forest" or "gbm"
    models: list
    target_names: list[str]


def predict_multi_output(model: MultiOutputModel, X: np.ndarray) -> np.ndarray:
    predict = predict_gbm if model.kind == "gbm" else predict_forest
    return np.column_stack([predict(m, X) for m in model.models])


def tree_to_dict(tree: DecisionTree) -> dict:
    return {"kind": "tree", "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(), "left": tree.left.tolist(),
            "right": tree.right.tolist(), "value": tree.value.tolist(),
            "n_features": tree.n_features,
            "max_depth": tree.max_depth, "min_samples_leaf": tree.min_samples_leaf}


# What a tree's node indices must satisfy beyond their types: the grower's
# invariants, which keep every descent inside the node table. Children
# numbered after their parent rule out cycles.
_NODE_RULES = {
    "feature": "a split node's feature must lie in [0, n_features)",
    "left": "a leaf's left child must be -1, a split node's must follow the node "
            "and precede its right child",
    "right": "a leaf's right child must be -1, a split node's must be a node index",
}


# Node lists are arrays of 4-byte indices or of finite floats, their shapes
# tree_table's to judge; a per-node "gain" list older versions wrote is ignored.
TREE = {"kind": "tree", "feature": array(INDEX), "threshold": array(np.float64),
        "left": array(INDEX), "right": array(INDEX), "value": array(np.float64),
        "n_features": integer(0), "max_depth": (None, integer(0)),
        "min_samples_leaf": integer(1)}


def tree_table(trees) -> TreeTable:
    """The table of a list of tree dicts, checked to be well formed (a
    TreeTable, as node_arrays makes, is taken as it is): the dicts parsed,
    the trees packed, and all their nodes judged together by their local
    indices. A fault names the first bad tree, as judging each in turn would."""
    if isinstance(trees, TreeTable):
        return trees
    parsed = []

    def parse_tree(d):
        tree = DecisionTree(**parse(d, TREE))
        n = tree.feature.size
        if n == 0 or any(getattr(tree, key).shape != (n,) for key in _NODE_KEYS):
            raise ValidationError(f"tree node lists {', '.join(map(repr, _NODE_KEYS))} "
                                  "must be nonempty and of one length")
        parsed.append(tree)
    try:
        parse(trees, [parse_tree])
    finally:  # the trees before one refused are judged, and a bad node among them comes first
        table = TreeTable.pack(parsed)
        sizes = np.diff(table.offsets)
        tree = np.repeat(np.arange(len(table)), sizes)
        node = np.arange(tree.size) - np.repeat(table.offsets[:-1], sizes)
        feature, left, right = table.feature, table.left, table.right
        leaf = feature == LEAF
        faults = {
            "feature": ~leaf & ((feature < 0) | (feature >= np.repeat(table.n_features, sizes))),
            "left": np.where(leaf, left != LEAF, (left <= node) | (left >= right)),
            "right": np.where(leaf, right != LEAF, right >= np.repeat(sizes, sizes)),
        }
        first = [(tree[i], rank, key, i) for rank, (key, bad) in enumerate(faults.items())
                 for i in np.flatnonzero(bad)[:1]]
        if first:
            t, _, key, i = min(first)
            fault = Fault(f"tree {key!r} of node {node[i]} is {getattr(table, key)[i].item()!r}: "
                          f"{_NODE_RULES[key]}")
            fault.path.append(int(t))
            raise fault
    return table


def node_arrays(d: dict) -> dict:
    """A JSON `object_hook`: a tree's node lists as arrays, and a forest's
    or a GBM's tree list as its TreeTable, each made as the parser closes
    the object, so a model file's trees are never all held as lists, nor as
    per-tree arrays. What does not convert is left for the schema walk."""
    kind = d.get("kind")
    if kind == "tree":
        for key in _NODE_KEYS:
            with contextlib.suppress(KeyError, ValidationError):
                d[key] = TREE[key](d[key])
    elif kind in ("forest", "gbm"):
        key = "trees" if kind == "forest" else "stages"
        with contextlib.suppress(KeyError, ValidationError):
            d[key] = tree_table(d[key])
    return d


def forest_to_dict(forest: RandomForest) -> dict:
    """The tree list is an iterator of the trees' dicts, so the writer
    (cli.write_json) builds one tree's view and node lists at a time; the
    payload is spent once written."""
    return {"kind": "forest", "trees": map(tree_to_dict, forest.trees),
            "n_estimators": int(forest.n_estimators), "max_features": int(forest.max_features),
            "bootstrap": bool(forest.bootstrap), "seed": int(forest.seed),
            "n_features": int(forest.n_features),
            "unique_inbag_counts": [int(c) for c in forest.unique_inbag_counts]}


FOREST = {"kind": "forest", "trees": tree_table, "n_estimators": integer(1),
          "max_features": integer(1), "bootstrap": BOOL, "seed": integer(0),
          "n_features": integer(0), "unique_inbag_counts": [integer(0)]}


def forest_from_dict(d: dict) -> RandomForest:
    forest = RandomForest(**parse(d, FOREST))
    if not forest.trees:
        raise ValidationError("a forest's 'trees' must hold at least one tree")
    widths = set(forest.trees.n_features) - {forest.n_features}
    if widths:
        raise ValidationError(f"a forest of 'n_features' {forest.n_features} holds trees of "
                              f"{min(widths)} features")
    return forest


def gbm_to_dict(model: GradientBoostedTrees) -> dict:
    """The stage list is deferred as forest_to_dict's tree list is."""
    return {"kind": "gbm", "init_value": float(model.init_value),
            "learning_rate": float(model.learning_rate),
            "stages": map(tree_to_dict, model.stages)}


GBM = {"kind": "gbm", "init_value": NUMBER, "learning_rate": POSITIVE, "stages": tree_table}


def gbm_from_dict(d: dict) -> GradientBoostedTrees:
    return GradientBoostedTrees(**parse(d, GBM))


def multi_output_to_dict(model: MultiOutputModel) -> dict:
    to_dict = gbm_to_dict if model.kind == "gbm" else forest_to_dict
    return {"kind": "multi", "base": model.kind,
            "target_names": list(model.target_names),
            "models": [to_dict(m) for m in model.models]}


MULTI = {"kind": "multi", "base": one_of("forest", "gbm")}


def multi_output_from_dict(d: dict) -> MultiOutputModel:
    kind = parse(d, MULTI)["base"]
    d = parse(d, {"target_names": [STRING],
                  "models": [gbm_from_dict if kind == "gbm" else forest_from_dict]})
    if len(d["models"]) != len(d["target_names"]):
        raise ValidationError(f"{len(d['models'])} 'models' for {len(d['target_names'])} "
                              "'target_names': one model per target")
    return MultiOutputModel(kind, **d)
