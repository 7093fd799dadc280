"""Regression trees and squared-error gradient boosting, numpy only."""
from __future__ import annotations

import itertools
import math
import operator

import numpy as np

# a fit empties the node cache first when the cached nodes hold more than
# this many times the root's bytes, so its memory does not grow with the
# boosting rounds
_CACHE_ROOTS = 16


def split_columns(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The columns of ``X`` that can win a split, ascending; ``order`` is
    ``np.argsort(X, axis=0, kind="stable")``.

    A column is left out if it is constant, or if it has the stable order,
    the boundaries (the sorted positions where its value rises) and the
    NaN count of an earlier column, as an increasing function of that
    column does. Every node then sorts its rows by the two columns alike
    and finds a boundary in both or in neither, so the later column's gains
    equal the earlier one's bit for bit, and ties go to the earlier column.
    This is LightGBM's pre-filter of the features that cannot split (Ke et
    al., NeurIPS 2017), kept exact."""
    xs = np.take_along_axis(X, order, axis=0)
    rises = xs[:-1] < xs[1:]
    nans = np.isnan(xs).sum(axis=0)
    keep, seen = [], set()
    for f in range(X.shape[1]):
        key = (order[:, f].tobytes(), rises[:, f].tobytes(), int(nans[f]))
        if rises[:, f].any() and key not in seen:
            keep.append(f)
        seen.add(key)
    return np.array(keep, dtype=np.intp)


class _Node:
    """One row set of a fit, with what scoring it needs that does not
    depend on ``y``: ``rows`` ascending; where the node has split
    candidates, ``block[c]`` lists its rows by ascending
    ``X[:, columns[c]]``, ``(c, i)`` are the candidates, ``index`` holds
    the flat indices of each candidate's left and whole-column prefix sums
    in the stacked ``(ys, ys * ys)`` cumsum, and ``sizes`` the two sides'
    row counts as floats; ``nbytes`` counts all of these arrays.
    ``children`` maps ``(c, i, scored)`` to the split's ``(feature,
    threshold, left, right)``."""

    __slots__ = ("rows", "block", "c", "i", "index", "sizes", "nbytes",
                 "children", "__weakref__")

    def __init__(self, rows):
        self.rows = rows
        self.block = None
        self.c = ()
        self.nbytes = rows.nbytes
        self.children = {}


class _Root:
    """What every fit on one ``X`` shares: the columns that can win a
    split, ``X.T``'s rows of them (contiguous), the root node, the node
    cache (a row set's bytes to its scored ``_Node``), ``size``, the bytes
    of the nodes built below the root, and a buffer for the largest node's
    stacked prefix sums."""

    __slots__ = ("columns", "xt", "node", "nodes", "size", "scratch")

    def __init__(self, columns, xt, node):
        self.columns, self.xt, self.node = columns, xt, node
        self.scratch = np.empty(2 * xt.size)
        self.empty()

    def empty(self):
        """Drop every node below the root."""
        self.node.children = {}
        self.nodes = {self.node.rows.tobytes(): self.node}
        self.size = 0


class RegressionTree:
    """Binary CART regressor with variance-reduction splits.

    Grown as node lists: internal node i splits on ``feature[i]`` at
    ``threshold[i]`` (left if x <= t) into ``left[i]`` and ``right[i]``,
    which come after it; leaves have feature -1 and carry the mean of their
    training targets in ``value[i]``. ``fitted`` holds, per training row,
    the value of the leaf the row reached: boosting's in-sample step. A tree
    has no predict of its own: ``to_dict`` is the form that boosting keeps,
    ``model.json`` stores and ``Forest`` compiles.

    ``presort`` sorts each feature once (XGBoost's presorted column blocks,
    Chen & Guestrin, KDD 2016) and no node sorts again. Only the columns
    that can win a split (``split_columns``) are scored; nodes store their
    original indices. A node holds those columns' rows in sorted order and
    scores every column in one pass, and a split takes the rows apart at
    the same flat indices. The tree is bit-identical to one grown by a
    stable argsort of every feature at every node: the prefix sums run in
    the same order, the gains use the same arithmetic, node means sum their
    rows in row order, and ties go to the first feature.

    The root that ``presort`` returns also carries a node cache, keyed by
    a node's row set, so that each distinct node is partitioned and indexed
    once per fit, not once per boosting round: its sorted row block, split
    candidates, gather indices and divisors do not depend on ``y``, and a
    round that reaches the node again only gathers ``y`` and scores. Boosted
    rounds mostly reach row sets an earlier round reached. A node also keeps
    its children per split, keyed as well by whether they will be scored
    (``depth + 1 < max_depth``): one row set can be reached at different
    depths, and a child at ``max_depth`` is a leaf that needs no block, so
    children built for one depth class do not serve the other. A fit
    empties the cache first once its nodes hold more than ``_CACHE_ROOTS``
    times the root's bytes, so that its memory is bounded by the size of
    ``X``, not by the number of rounds. The cache lives as long as the
    root, which boosting drops when its fit returns.
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

    def fit(self, X: np.ndarray, y: np.ndarray, root=None) -> "RegressionTree":
        """Grow the tree on ``(X, y)`` from ``root``, this tree's
        ``presort(X)``, which is taken here when not given. The root does
        not depend on ``y``, so boosting presorts once and hands it to
        every round. A fit makes new node lists, so the ``to_dict`` of an
        earlier fit stays as it was."""
        if root is None:
            root = self.presort(X)
        elif root.size > _CACHE_ROOTS * root.node.nbytes:
            root.empty()
        y = np.asarray(y, dtype=float)  # the scratch buffer takes floats
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self.fitted = np.empty(len(y))
        self._grow(root, y, root.node, 0)
        return self

    def presort(self, X: np.ndarray) -> _Root:
        """The root of a fit on ``X``, its node scored under this tree's
        ``min_samples_leaf``, and an empty cache but for that node."""
        order = np.argsort(X, axis=0, kind="stable")
        columns = split_columns(X, order)
        xt = np.ascontiguousarray(X.T[columns])
        # block[c] lists the rows by ascending X[:, columns[c]], ties in
        # row order: what a stable argsort of a node's own rows would give
        return _Root(columns, xt,
                     self._node(xt, np.arange(len(X)), order.T[columns]))

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _node(self, xt, rows, block) -> _Node:
        """The scored ``_Node`` of ``rows`` (ascending), whose ``block[c]``
        lists them by ascending ``xt[c]``. Its candidates are the
        boundaries between sorted positions i and i + 1 of a column, in
        (column, position) order, that leave at least
        ``min_samples_leaf`` rows, and one, on each side."""
        node = _Node(rows)
        xs = np.take_along_axis(xt, block, axis=1)
        m = max(self.min_samples_leaf, 1)  # 0 allows what 1 allows
        n = len(rows)
        lo, hi = m - 1, n - m  # lo <= i < hi; none if hi <= lo
        c, i = (xs[:, lo:hi] < xs[:, lo + 1:hi + 1]).nonzero()
        if len(c):
            i += lo
            # prefix sums read at (c, i) and at the column's last entry,
            # in the ys half and in the ys * ys half
            at, end = c * n + i, c * n + n - 1
            node.block, node.c, node.i = block, c, i
            node.index = np.stack([at, end, at + block.size,
                                   end + block.size]).reshape(2, 2, -1)
            node.sizes = np.stack([i + 1, n - 1 - i]).astype(float)
            node.nbytes += sum(a.nbytes for a in (block, c, i, node.index,
                                                  node.sizes))
        return node

    def _grow(self, root, y, node, depth) -> int:
        """Grow the subtree of ``node`` at ``depth``. A leaf writes its
        mean to its rows of ``fitted``."""
        index = self._new_node()
        rows = node.rows
        node_y = y[rows]
        # node_y.mean()'s bits; an empty fit makes one NaN leaf
        mean = self.value[index] = float(np.add.reduce(node_y) / len(rows))
        split = (None if depth >= self.max_depth else
                 self._best_split(root.scratch, y, node, node_y, mean))
        if split is None:
            self.fitted[rows] = mean
            return index
        key = (*split, depth + 1 < self.max_depth)
        children = node.children.get(key)
        if children is None:
            children = node.children[key] = self._split(root, node, *key)
        (self.feature[index], self.threshold[index], left,
         right) = children
        self.left[index] = self._grow(root, y, left, depth + 1)
        self.right[index] = self._grow(root, y, right, depth + 1)
        return index

    def _split(self, root, node, c, i, scored):
        """``(feature, threshold, left, right)`` of ``node``'s split at
        candidate ``(c, i)``; the children are scored ``_Node``s from the
        cache if ``scored``, else bare ones."""
        x, block = root.xt[c], node.block
        t = float((x[block[c, i]] + x[block[c, i + 1]]) / 2.0)
        go_left = x <= t
        row_left = go_left[node.rows]
        sides = node.rows[row_left], node.rows[~row_left]
        if not scored:
            root.size += node.rows.nbytes
            return int(root.columns[c]), t, *map(_Node, sides)
        # each sorted column keeps its order on both sides; flat indices
        # and take are faster than boolean masks here
        in_left = go_left[block].ravel()
        children = []
        for rows, side in zip(sides, (in_left, ~in_left)):
            key = rows.tobytes()
            child = root.nodes.get(key)
            if child is None:
                child = root.nodes[key] = self._node(
                    root.xt, rows, block.ravel()[side.nonzero()[0]].reshape(
                        len(block), -1))
                root.size += child.nbytes
            children.append(child)
        return int(root.columns[c]), t, *children

    def _best_split(self, scratch, y, node, node_y, mean):
        """The split of highest gain above 1e-12 as ``(c, i)``, column c
        of ``node.block`` between sorted positions i and i + 1, or None;
        ``mean`` is ``node_y``'s. Ties go to the first column, then to the
        first boundary in ascending value order. ``scratch`` takes the
        stacked prefix sums."""
        if not len(node.c):
            return None
        # prefix sums, sequential along each sorted column
        block = node.block
        sums = scratch[:2 * block.size].reshape(2, *block.shape)
        y.take(block, out=sums[0], mode="clip")
        np.multiply(sums[0], sums[0], out=sums[1])
        sums.cumsum(axis=2, out=sums)
        # (sum, sum of squares) of the left side and of the whole column,
        # then of the right side in place of the whole column
        parts = sums.ravel()[node.index]
        parts[:, 1] -= parts[:, 0]
        ss = parts[1] - parts[0] ** 2 / node.sizes
        d = node_y - mean
        total_ss = float(np.add.reduce(d * d))
        gain = total_ss - ss[0] - ss[1]
        k = int(gain.argmax())  # the first maximum in (c, i) order
        if not gain[k] > 1e-12:
            return None
        return int(node.c[k]), int(node.i[k])

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

    ``fit`` takes one ``RegressionTree.presort`` of ``X`` and hands that
    root to every round's tree fit, so ``X`` is sorted once per regressor.
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
        # every round fits the same X: presort it once for all of them
        tree = RegressionTree(self.max_depth, self.min_samples_leaf)
        root = tree.presort(X)
        for _ in range(self.rounds):
            tree.fit(X, y - current, root)
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
        """The regressor ``to_dict`` wrote. ``learning_rate`` and
        ``base_prediction`` must be finite numbers; the trees are checked
        when a ``Forest`` compiles them."""
        for key in ("learning_rate", "base_prediction"):
            # not a bool, a string or None, which numpy reads as a number
            if not (type(d[key]) in (int, float) and math.isfinite(d[key])):
                raise ValueError(f"{key} {d[key]!r} is not a finite number")
        model = cls(d["rounds"], d["learning_rate"], d["max_depth"],
                    d["min_samples_leaf"])
        model.base_prediction = float(d["base_prediction"])
        model.train_losses = d["train_losses"]
        model.trees = d["trees"]
        return model


_NODE_LISTS = ("feature", "threshold", "left", "right", "value")


def _node_arrays(trees: list, n_features: int):
    """The node lists of ``trees`` stacked tree after tree, as ``(sizes,
    local, feature, threshold, left, right, value)``: each tree's node
    count, each node's index in its tree, and the five lists. Raises
    ValueError naming the tree and node unless every tree's node lists
    share one nonzero length, ``feature``, ``left`` and ``right`` hold ints
    in intp's range, ``threshold`` and ``value`` hold ints or floats (not
    bools) in the double range, values are finite, and each feature is -1
    (a leaf) or a column below ``n_features`` with a finite threshold and
    children after it in its own tree, so that every walk ends at a
    leaf."""
    # per_tree[name] holds each tree's list; map and itemgetter keep the
    # per-tree work out of Python bytecode
    per_tree = dict(zip(_NODE_LISTS, list(zip(*map(
        operator.itemgetter(*_NODE_LISTS), trees))) or [()] * 5))
    lengths = np.array([list(map(len, per_tree[name]))
                        for name in _NODE_LISTS],
                       dtype=np.intp).reshape(5, len(trees))
    sizes = lengths[0]
    uneven = (sizes == 0) | (lengths != sizes).any(axis=0)
    if uneven.any():
        raise ValueError(f"tree {int(np.argmax(uneven))}: node lists are "
                         f"empty or differ in length")
    n_nodes = int(sizes.sum())
    ends = np.cumsum(sizes)

    def node_of(i) -> str:
        tree = int(np.searchsorted(ends, i, side="right"))
        return f"tree {tree} node {i - ends[tree] + sizes[tree]}"

    def indices(name):
        # numpy would read 1.5, true or "2" as an index; an int past intp
        # overflows
        entries = list(itertools.chain.from_iterable(per_tree[name]))
        if list(map(type, entries)).count(int) == n_nodes:
            try:
                return np.fromiter(entries, np.intp, n_nodes)
            except OverflowError:
                pass
        info = np.iinfo(np.intp)
        i = next(i for i, v in enumerate(entries) if type(v) is not int
                 or not info.min <= v <= info.max)
        raise ValueError(f"{node_of(i)}: {name} {entries[i]!r} is not an "
                         f"index")

    def numbers(name):
        # numpy would read true, "1.5" or null as a float; the set of the
        # entries' types is the cheapest check of the whole list
        def entries():
            return itertools.chain.from_iterable(per_tree[name])

        if {*map(type, entries())} <= {int, float}:
            try:
                return np.fromiter(entries(), float, n_nodes)
            except OverflowError:  # an int past the double range
                pass

        def number(v):
            try:  # math.isfinite overflows on an int past the double range
                return type(v) is float or type(v) is int and math.isfinite(v)
            except OverflowError:
                return False

        i, bad = next((i, v) for i, v in enumerate(entries())
                      if not number(v))
        raise ValueError(f"{node_of(i)}: {name} {bad!r} is not a number")

    feature, left, right = map(indices, ("feature", "left", "right"))
    threshold, value = map(numbers, ("threshold", "value"))
    local = np.arange(n_nodes) - np.repeat(ends - sizes, sizes)
    size = np.repeat(sizes, sizes)
    bad = ~np.isfinite(value) | (feature != -1) & (
        (feature < 0) | (feature >= n_features) | ~np.isfinite(threshold)
        | (left <= local) | (left >= size)
        | (right <= local) | (right >= size))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{node_of(i)}: feature {feature[i]}, threshold "
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
        try:  # all regressors' trees in one pass
            sizes, local, feature, threshold, left, right, value = (
                _node_arrays([tree for reg in self.regressors
                              for tree in reg.trees], n_features))
        except (KeyError, TypeError, ValueError):
            # the first malformed regressor names the error
            for r, reg in enumerate(self.regressors):
                try:
                    _node_arrays(reg.trees, n_features)
                except (KeyError, TypeError, ValueError) as exc:
                    if names is None:
                        raise
                    problem = (f"no key {exc}" if isinstance(exc, KeyError)
                               else exc)
                    raise ValueError(f"{names[r]}: {problem}") from exc
            raise
        # tree j is tree rank[j] of regressor owner[j]
        self._counts = np.array([len(reg.trees) for reg in self.regressors],
                                dtype=np.intp)
        self._owner = np.repeat(np.arange(len(self.regressors)), self._counts)
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
