"""Regression trees and squared-error gradient boosting, numpy only."""
from __future__ import annotations

import itertools

import numpy as np


class RegressionTree:
    """Binary CART regressor with variance-reduction splits.

    Stored as flat arrays: internal node i splits on ``feature[i]`` at
    ``threshold[i]`` (left if x <= t), leaves have feature -1 and carry the
    mean of their training targets in ``value[i]``. ``predict`` walks one
    tree and serves the in-sample step of boosting; ``BoostedRegressor``
    scores its trees from compiled copies of these arrays.
    """

    def __init__(self, max_depth=4, min_samples_leaf=5):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self._grow(X, y, depth=0)
        return self

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _grow(self, X, y, depth) -> int:
        node = self._new_node()
        self.value[node] = float(y.mean())
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        f, t = split
        mask = X[:, f] <= t
        self.feature[node] = f
        self.threshold[node] = t
        self.left[node] = self._grow(X[mask], y[mask], depth + 1)
        self.right[node] = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X, y):
        n = len(y)
        best_gain, best = 1e-12, None
        total_ss = float(((y - y.mean()) ** 2).sum())
        m = self.min_samples_leaf
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            # candidate split after position i (1-based left size)
            sizes = np.arange(1, n)
            valid = (sizes >= m) & (n - sizes >= m) & (xs[:-1] < xs[1:])
            if not valid.any():
                continue
            left_ss = csq[:-1] - csum[:-1] ** 2 / sizes
            rsum = csum[-1] - csum[:-1]
            rsq = csq[-1] - csq[:-1]
            right_ss = rsq - rsum ** 2 / (n - sizes)
            gain = np.where(valid, total_ss - left_ss - right_ss, -np.inf)
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain = float(gain[i])
                best = (f, float((xs[i] + xs[i + 1]) / 2.0))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        idx = np.zeros(len(X), dtype=int)
        while True:
            internal = feature[idx] >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            nodes = idx[rows]
            go_left = X[rows, feature[nodes]] <= threshold[nodes]
            idx[rows] = np.where(go_left, left[nodes], right[nodes])
        return value[idx]

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "feature": list(self.feature),
            "threshold": list(self.threshold),
            "left": list(self.left),
            "right": list(self.right),
            "value": list(self.value),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        tree = cls(d["max_depth"], d["min_samples_leaf"])
        tree.feature = list(d["feature"])
        tree.threshold = [float(t) for t in d["threshold"]]
        tree.left = list(d["left"])
        tree.right = list(d["right"])
        tree.value = [float(v) for v in d["value"]]
        return tree


class BoostedRegressor:
    """Gradient boosting on squared error: fit trees to residuals, shrink, sum.

    ``fit`` and ``from_dict`` compile the trees into padded
    ``(n_trees, max_nodes)`` arrays in which every leaf is its own child, so
    ``predict`` walks all trees for all rows together, a fixed number of
    levels (the deepest tree's depth). The terms are summed in tree order,
    ``base + lr*t1 + lr*t2 ...``, as a per-tree loop would sum them, so
    predictions are bit-identical to one. The regressor is read-only once
    fitted or loaded: ``learning_rate`` and ``base_prediction`` are read at
    each call, the trees only when compiling.
    """

    def __init__(self, rounds=50, learning_rate=0.1, max_depth=4,
                 min_samples_leaf=5):
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.base_prediction = 0.0
        self.trees: list[RegressionTree] = []
        self.train_losses: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.base_prediction = float(y.mean())
        self.trees, self.train_losses = [], []
        current = np.full(len(y), self.base_prediction)
        for _ in range(self.rounds):
            residual = y - current
            tree = RegressionTree(self.max_depth,
                                  self.min_samples_leaf).fit(X, residual)
            self.trees.append(tree)
            current = current + self.learning_rate * tree.predict(X)
            self.train_losses.append(float(((y - current) ** 2).mean()))
        self._compile()
        return self

    def _compile(self) -> None:
        sizes = np.array([len(t.feature) for t in self.trees], dtype=np.intp)
        width = int(sizes.max(initial=1))
        n_slots = len(sizes) * width
        # node j of tree k is entry k*width + j of the flattened arrays
        self._roots = np.arange(len(sizes)) * width
        offset = np.repeat(self._roots, sizes)
        slot = offset + np.arange(len(offset)) \
            - np.repeat(np.cumsum(sizes) - sizes, sizes)

        def stacked(name, dtype):
            return np.fromiter(itertools.chain.from_iterable(
                getattr(t, name) for t in self.trees), dtype, len(slot))

        feature = stacked("feature", np.intp)
        leaf = feature < 0
        self._feature = np.zeros(n_slots, dtype=np.intp)
        self._feature[slot] = np.where(leaf, 0, feature)
        self._threshold = np.zeros(n_slots)
        self._threshold[slot] = stacked("threshold", float)
        self._value = np.zeros(n_slots)
        self._value[slot] = stacked("value", float)
        # a leaf, like a padding entry, is its own left and right child
        self._left, self._right = np.arange(n_slots), np.arange(n_slots)
        self._left[slot] = np.where(leaf, slot,
                                    offset + stacked("left", np.intp))
        self._right[slot] = np.where(leaf, slot,
                                     offset + stacked("right", np.intp))
        self._levels, nodes = 0, self._roots  # the deepest tree's depth
        while (inner := nodes[self._left[nodes] != nodes]).size:
            nodes = np.concatenate([self._left[inner], self._right[inner]])
            self._levels += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = np.arange(len(X))
        node = np.repeat(self._roots[:, None], len(X), axis=1)
        for _ in range(self._levels):
            go_left = X[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        terms = np.empty((len(self._roots) + 1, len(X)))
        terms[0] = self.base_prediction
        terms[1:] = self.learning_rate * self._value[node]
        return np.cumsum(terms, axis=0)[-1]  # sequential, in tree order

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "base_prediction": self.base_prediction,
            "train_losses": list(self.train_losses),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedRegressor":
        model = cls(d["rounds"], d["learning_rate"], d["max_depth"],
                    d["min_samples_leaf"])
        model.base_prediction = float(d["base_prediction"])
        model.train_losses = [float(v) for v in d["train_losses"]]
        model.trees = [RegressionTree.from_dict(t) for t in d["trees"]]
        model._compile()
        return model

