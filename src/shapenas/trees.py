"""Regression trees and squared-error gradient boosting, numpy only."""
from __future__ import annotations

import itertools

import numpy as np


class RegressionTree:
    """Binary CART regressor with variance-reduction splits.

    Grown as node lists: internal node i splits on ``feature[i]`` at
    ``threshold[i]`` (left if x <= t) into ``left[i]`` and ``right[i]``,
    which come after it; leaves have feature -1 and carry the mean of their
    training targets in ``value[i]``. ``fitted`` holds, per training row,
    the value of the leaf the row reached: boosting's in-sample step. A tree
    has no predict of its own: ``to_dict`` is the form that boosting keeps,
    ``model.json`` stores and ``Forest`` compiles.

    ``fit`` sorts each feature once (XGBoost's presorted column blocks,
    Chen & Guestrin, KDD 2016) and no node sorts again: a node holds every
    feature's rows in sorted order and scores all features in one pass, and
    a split filters each sorted column with the same mask. The tree is
    bit-identical to one grown by a stable argsort of every feature at every
    node: the prefix sums run in the same order, the gains use the same
    arithmetic and node means sum their rows in row order.
    """

    def __init__(self, max_depth=4, min_samples_leaf=5):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.fitted = np.empty(0)

    def fit(self, X: np.ndarray, y: np.ndarray,
            order: np.ndarray | None = None) -> "RegressionTree":
        """Grow the tree on ``(X, y)``. ``order`` is
        ``np.argsort(X, axis=0, kind="stable")``, computed here when not
        given; boosting passes it, since its trees all share one ``X``."""
        if order is None:
            order = np.argsort(X, axis=0, kind="stable")
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self.fitted = np.empty(len(y))
        # block[f] lists the node's rows by ascending X[:, f], ties in row
        # order: what a stable argsort of the node's own rows would give
        self._grow(X, y, np.arange(len(y)), np.ascontiguousarray(order.T),
                   depth=0)
        return self

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _grow(self, X, y, rows, block, depth) -> int:
        """Grow the subtree of ``rows`` (ascending) whose sorted columns are
        ``block``; ``block`` is None where the subtree is a leaf by depth.
        A leaf writes its mean to its rows of ``fitted``."""
        node = self._new_node()
        node_y = y[rows]
        mean = self.value[node] = float(node_y.mean())
        split = (None if depth >= self.max_depth
                 else self._best_split(X, y, node_y, mean, block))
        if split is None:
            self.fitted[rows] = mean
            return node
        f, t = split
        go_left = X[:, f] <= t
        self.feature[node] = f
        self.threshold[node] = t
        left_block = right_block = None
        if depth + 1 < self.max_depth:
            block_left = go_left[block]
            left_block = block[block_left].reshape(len(block), -1)
            right_block = block[~block_left].reshape(len(block), -1)
        row_left = go_left[rows]
        self.left[node] = self._grow(X, y, rows[row_left], left_block,
                                     depth + 1)
        self.right[node] = self._grow(X, y, rows[~row_left], right_block,
                                      depth + 1)
        return node

    def _best_split(self, X, y, node_y, mean, block):
        """The split of highest gain above 1e-12 as ``(feature, threshold)``,
        or None; ``mean`` is ``node_y``'s. Ties go to the first feature, then
        to the first boundary in ascending value order."""
        n = len(node_y)
        m = max(self.min_samples_leaf, 1)  # 0 allows what 1 allows
        # the boundary after sorted position i leaves i + 1 rows on the left;
        # each side keeps at least m rows, so lo <= i < hi
        lo, hi = m - 1, n - m
        if hi <= lo:
            return None
        xs = X[block, np.arange(len(block))[:, None]]
        f, i = np.nonzero(xs[:, lo:hi] < xs[:, lo + 1:hi + 1])
        if not len(f):
            return None
        i += lo
        # prefix sums, sequential along each sorted column
        ys = y[block]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys * ys, axis=1)
        total_ss = float(((node_y - mean) ** 2).sum())
        sizes = i + 1
        left_ss = csq[f, i] - csum[f, i] ** 2 / sizes
        rsum = csum[f, -1] - csum[f, i]
        rsq = csq[f, -1] - csq[f, i]
        right_ss = rsq - rsum ** 2 / (n - sizes)
        gain = total_ss - left_ss - right_ss
        k = int(np.argmax(gain))  # the first maximum in (feature, i) order
        if not gain[k] > 1e-12:
            return None
        f, i = int(f[k]), int(i[k])
        return f, float((xs[f, i] + xs[f, i + 1]) / 2.0)

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "value": self.value,
        }


class BoostedRegressor:
    """Gradient boosting on squared error: fit trees to residuals, shrink, sum.

    ``trees`` holds each round's node dict (``RegressionTree.to_dict()``),
    the one form a tree takes from fit to file; there is no per-tree
    predict. The regressor is read-only once fitted or loaded:
    ``learning_rate`` and ``base_prediction`` are read at each call, the
    trees only when a ``Forest`` compiles them. ``predict`` is the walk of
    a forest of this one regressor; a caller that predicts more than once,
    or with several regressors, compiles a ``Forest`` and keeps it.
    """

    def __init__(self, rounds=50, learning_rate=0.1, max_depth=4,
                 min_samples_leaf=5):
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.base_prediction = 0.0
        self.trees: list[dict] = []
        self.train_losses: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.base_prediction = float(y.mean())
        self.trees, self.train_losses = [], []
        current = np.full(len(y), self.base_prediction)
        order = np.argsort(X, axis=0, kind="stable")  # same X every round
        for _ in range(self.rounds):
            residual = y - current
            tree = RegressionTree(self.max_depth, self.min_samples_leaf).fit(
                X, residual, order)
            self.trees.append(tree.to_dict())
            current = current + self.learning_rate * tree.fitted
            self.train_losses.append(float(((y - current) ** 2).mean()))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return Forest([self], X.shape[1]).predict(X)[0]

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "base_prediction": self.base_prediction,
            "train_losses": self.train_losses,
            "trees": self.trees,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedRegressor":
        """The regressor ``to_dict`` wrote; its trees are checked when a
        ``Forest`` compiles them."""
        model = cls(d["rounds"], d["learning_rate"], d["max_depth"],
                    d["min_samples_leaf"])
        model.base_prediction = float(d["base_prediction"])
        model.train_losses = d["train_losses"]
        model.trees = d["trees"]
        return model


def _node_arrays(trees: list, n_features: int):
    """The node lists of ``trees`` stacked tree after tree, as ``(sizes,
    local, feature, threshold, left, right, value)``: each tree's node
    count, each node's index in its tree, and the five lists. Raises
    ValueError naming the tree and node unless every tree's node lists
    share one nonzero length, values are finite, and each feature is -1 (a
    leaf) or a column below ``n_features`` with a finite threshold and
    children after it in its own tree, so that every walk ends at a leaf."""
    lengths = np.array([[len(t[name]) for t in trees] for name in
                        ("feature", "threshold", "left", "right", "value")],
                       dtype=np.intp).reshape(5, len(trees))
    sizes = lengths[0]
    uneven = (sizes == 0) | (lengths != sizes).any(axis=0)
    if uneven.any():
        raise ValueError(f"tree {int(np.argmax(uneven))}: node lists are "
                         f"empty or differ in length")
    n_nodes = int(sizes.sum())

    def stacked(name, dtype):
        return np.fromiter(itertools.chain.from_iterable(
            t[name] for t in trees), dtype, n_nodes)

    feature, left, right = (stacked(name, np.intp)
                            for name in ("feature", "left", "right"))
    threshold, value = stacked("threshold", float), stacked("value", float)
    local = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    size = np.repeat(sizes, sizes)
    bad = ~np.isfinite(value) | (feature != -1) & (
        (feature < 0) | (feature >= n_features) | ~np.isfinite(threshold)
        | (left <= local) | (left >= size)
        | (right <= local) | (right >= size))
    if bad.any():
        i = int(np.argmax(bad))
        tree = int(np.searchsorted(np.cumsum(sizes), i, side="right"))
        raise ValueError(
            f"tree {tree} node {local[i]}: feature {feature[i]}, threshold "
            f"{threshold[i]}, children {left[i]} and {right[i]}, value "
            f"{value[i]}: not a node of a {size[i]}-node tree over "
            f"{n_features} columns")
    return sizes, local, feature, threshold, left, right, value


class Forest:
    """The trees of several boosted regressors compiled once into one node
    array (QuickScorer's point, Lucchese et al., SIGIR 2015: one traversal
    over all trees of an additive ensemble).

    The trees lie back to back: tree j's nodes keep their order, from entry
    ``_roots[j]`` on, and each child index is its tree's offset plus the
    local one. Every leaf is its own left and right child, so ``predict``
    walks all trees for all rows together, a fixed number of levels (the
    deepest tree's depth). The trees of regressor r come after those of
    regressor r - 1. ``names`` (one per regressor) prefix the ValueError
    that a malformed tree raises; the tree and node it names count within
    the regressor.
    """

    def __init__(self, regressors, n_features: int, names=None):
        self.regressors = list(regressors)
        blocks = []
        for r, reg in enumerate(self.regressors):
            try:
                blocks.append(_node_arrays(reg.trees, n_features))
            except (KeyError, TypeError, ValueError) as exc:
                if names is None:
                    raise
                problem = f"no key {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{names[r]}: {problem}") from exc
        sizes, local, feature, threshold, left, right, value = (
            np.concatenate(arrays) for arrays in zip(*blocks))
        # tree j is tree rank[j] of regressor owner[j]
        self._counts = np.array([len(b[0]) for b in blocks], dtype=np.intp)
        self._owner = np.repeat(np.arange(len(blocks)), self._counts)
        self._rank = np.arange(len(sizes)) - np.repeat(
            np.cumsum(self._counts) - self._counts, self._counts)
        self._roots = np.cumsum(sizes) - sizes
        node = np.arange(len(feature))
        leaf = feature == -1
        self._feature = np.where(leaf, 0, feature)
        self._threshold, self._value = threshold, value
        self._left = np.where(leaf, node, node - local + left)
        self._right = np.where(leaf, node, node - local + right)
        self._levels, nodes = 0, self._roots  # the deepest tree's depth
        while (inner := nodes[self._left[nodes] != nodes]).size:
            nodes = np.concatenate([self._left[inner], self._right[inner]])
            self._levels += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """``(n_regressors, len(X))``: row r is regressor r's prediction,
        ``base + lr*t1 + lr*t2 ...`` summed in tree order, as a per-tree
        loop would sum it, so the result is bit-identical to one."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = np.arange(len(X))
        node = np.repeat(self._roots[:, None], len(X), axis=1)
        for _ in range(self._levels):
            go_left = X[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        regs = self.regressors
        # terms[r] is regressor r's base, then its trees' shrunk leaf values
        # in tree order, then zeros up to the longest regressor's count; the
        # running sum is read at the regressor's own count, so padding
        # never adds a term
        terms = np.zeros((len(regs), int(self._counts.max(initial=0)) + 1,
                          len(X)))
        terms[:, 0] = np.array([reg.base_prediction for reg in regs])[:, None]
        rate = np.array([reg.learning_rate for reg in regs])[self._owner]
        terms[self._owner, self._rank + 1] = (rate[:, None]
                                              * self._value[node])
        return np.cumsum(terms, axis=1)[np.arange(len(regs)), self._counts]
