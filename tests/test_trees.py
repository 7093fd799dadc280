import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapenas.trees import (BoostedRegressor, Forest, RegressionTree,
                            split_columns)


def walk(tree, X):
    """The value of the leaf each row of ``X`` reaches in the node dict
    ``tree``, one tree at a time: the reference for the compiled walk and
    for a grown tree's ``fitted``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    feature, threshold, left, right, value = (np.asarray(tree[name]) for name
                                              in ("feature", "threshold",
                                                  "left", "right", "value"))
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


def test_tree_fits_step_function():
    X = np.linspace(0, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    tree = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, y)
    assert np.allclose(walk(tree.to_dict(), X), y)


def test_tree_respects_depth_and_leaf_means():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(100, 3))
    y = X[:, 0] + 0.2 * rng.normal(size=100)
    tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
    # internal node count of a binary tree of depth d is < 2^d
    assert sum(1 for f in tree.feature if f >= 0) < 2 ** 3
    # a leaf prediction is a mean of targets, hence inside the target range
    pred = walk(tree.to_dict(), X)
    assert pred.min() >= y.min() and pred.max() <= y.max()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_empty_fit_makes_one_nan_leaf():
    tree = RegressionTree().fit(np.empty((0, 3)), np.empty(0))
    assert tree.feature == [-1] and np.isnan(tree.value).all()


def test_boosting_constant_target_is_exact():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.full(20, 3.25)
    model = BoostedRegressor(rounds=10, learning_rate=0.3).fit(X, y)
    assert np.allclose(model.predict(X), 3.25)


def test_boosting_loss_nonincreasing():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(120, 4))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=120)
    model = BoostedRegressor(rounds=40, learning_rate=0.1).fit(X, y)
    losses = np.asarray(model.train_losses)
    assert np.all(np.diff(losses) <= 1e-12)


def test_boosting_learns_linear_function():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(300, 2))
    y = 2.0 * X[:, 0] - X[:, 1]
    model = BoostedRegressor(rounds=80, learning_rate=0.2,
                             min_samples_leaf=3).fit(X, y)
    mse = float(np.mean((model.predict(X) - y) ** 2))
    assert mse < 0.01


def test_tree_roundtrip_is_exact():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(60, 3))
    y = X[:, 0] * X[:, 1]
    model = BoostedRegressor(rounds=15).fit(X, y)
    clone = BoostedRegressor.from_dict(model.to_dict())
    assert np.array_equal(model.predict(X), clone.predict(X))


# --- compiled ensemble walk -------------------------------------------------

N_FEATURES = 3
# thresholds on the grid the rows are rounded to, so that x == t occurs
THRESHOLDS = st.one_of(st.sampled_from([-0.5, 0.0, 0.3]),
                       st.floats(-1.0, 1.0))


def reference_predict(model, X):
    """The per-tree loop that the compiled walk replaces."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(len(X), model.base_prediction)
    for tree in model.trees:
        out = out + model.learning_rate * walk(tree, X)
    return out


@st.composite
def tree_dicts(draw, max_depth=5):
    nodes = {"feature": [], "threshold": [], "left": [], "right": [],
             "value": []}

    def grow(depth):
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1)):
            nodes[key].append(blank)
        nodes["value"].append(draw(st.floats(-10.0, 10.0)))
        if depth < max_depth and draw(st.booleans()):
            nodes["feature"][node] = draw(st.integers(0, N_FEATURES - 1))
            nodes["threshold"][node] = draw(THRESHOLDS)
            nodes["left"][node] = grow(depth + 1)
            nodes["right"][node] = grow(depth + 1)
        return node

    grow(0)
    return dict(nodes, max_depth=max_depth, min_samples_leaf=1)


def random_rows(seed, n_rows):
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(-1.2, 1.2, size=(n_rows, N_FEATURES)), 1)


@settings(max_examples=60, deadline=None)
@given(trees=st.lists(tree_dicts(), max_size=8),
       base=st.floats(-5.0, 5.0), learning_rate=st.floats(0.01, 1.0),
       n_rows=st.sampled_from([1, 1000]), seed=st.integers(0, 2 ** 16))
def test_compiled_walk_equals_per_tree_loop(trees, base, learning_rate,
                                            n_rows, seed):
    # unequal sizes and depths, single-leaf trees, and no trees at all
    model = BoostedRegressor.from_dict({
        "rounds": len(trees), "learning_rate": learning_rate,
        "max_depth": 5, "min_samples_leaf": 1, "base_prediction": base,
        "train_losses": [0.0] * len(trees), "trees": trees})
    X = random_rows(seed, n_rows)
    assert np.array_equal(model.predict(X), reference_predict(model, X))


@pytest.mark.parametrize("name", ["threshold", "value"])
def test_forest_names_an_int_past_double_range(name):
    # numpy would raise a bare OverflowError converting it to a float
    reg = BoostedRegressor.from_dict({
        "rounds": 1, "learning_rate": 0.5, "max_depth": 1,
        "min_samples_leaf": 1, "base_prediction": 0.0, "train_losses": [0.0],
        "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                   "left": [1, -1, -1], "right": [2, -1, -1],
                   "value": [0.0, 1.0, 2.0]}]})
    reg.trees[0][name][0] = 10 ** 400
    with pytest.raises(ValueError, match=re.escape(
            f"reg: tree 0 node 0: {name} {10 ** 400!r} is not a number")):
        Forest([reg], 1, ["reg"])


@settings(max_examples=30, deadline=None)
@given(rounds=st.integers(0, 6), max_depth=st.integers(0, 4),
       min_samples_leaf=st.integers(1, 6), n_rows=st.sampled_from([1, 1000]),
       seed=st.integers(0, 2 ** 16))
def test_fitted_walk_equals_per_tree_loop(rounds, max_depth,
                                          min_samples_leaf, n_rows, seed):
    X = random_rows(seed, 60)
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
    model = BoostedRegressor(rounds, 0.3, max_depth,
                             min_samples_leaf).fit(X, y)
    assert len(model.trees) == rounds
    rows = random_rows(seed + 1, n_rows)
    assert np.array_equal(model.predict(rows), reference_predict(model, rows))


# --- presorted fit ------------------------------------------------------------


class ReferenceTree(RegressionTree):
    """The grower the presorted fit replaces: a stable argsort of every
    feature at every node, all features scored. ``root`` is accepted and
    ignored, so that boosting can run on this grower. ``fitted`` comes from
    the reference walk."""

    def fit(self, X, y, root=None):
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self._grow(X, y, depth=0)
        self.fitted = walk(self.to_dict(), X)
        return self

    def _grow(self, X, y, depth):
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


COPIES = {"copy": lambda x: x, "increasing": lambda x: 3 * x + 1,
          "decreasing": lambda x: -x}


@st.composite
def fit_data(draw):
    """Rows and targets with the ties that decide splits: columns of 1-4
    levels (a constant one among them), copies of earlier columns and
    increasing functions of them (equal gains across features, which the
    fit prunes), decreasing ones (which it must keep), continuous columns,
    bootstrap duplicates, and few-level or constant targets."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 80))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["levels", "continuous", "copy",
                                     "increasing", "decreasing"]))
        if kind in COPIES and columns:
            earlier = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(COPIES[kind](earlier))
        elif kind == "continuous":
            columns.append(rng.normal(size=n))
        else:
            levels = draw(st.integers(1, 4))
            columns.append(rng.integers(0, levels, n) * 0.5 - 1.0)
    X = np.stack(columns, axis=1)
    target = draw(st.sampled_from(["continuous", "levels", "constant"]))
    if target == "continuous":
        y = rng.normal(size=n) * 10.0
    elif target == "levels":
        y = rng.integers(0, 3, n).astype(float)
    else:
        y = np.full(n, 2.75)
    if draw(st.booleans()):  # a bootstrap draw, as each bag member fits
        boot = rng.integers(0, n, n)
        X, y = X[boot], y[boot]
    return X, y


@settings(max_examples=300, deadline=None)
@given(data=fit_data(), max_depth=st.integers(0, 4),
       min_samples_leaf=st.integers(0, 6))
def test_presorted_fit_equals_per_node_sort(data, max_depth,
                                            min_samples_leaf):
    # covers n < 2 * min_samples_leaf too: n starts at 1; the pruned tree
    # scores fewer columns than the reference, which sees all of X
    X, y = data
    tree = RegressionTree(max_depth, min_samples_leaf).fit(X, y)
    ref = ReferenceTree(max_depth, min_samples_leaf).fit(X, y)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(tree, name) == getattr(ref, name), name


@settings(max_examples=60, deadline=None)
@given(data=fit_data(), rounds=st.integers(0, 5),
       max_depth=st.integers(0, 4), min_samples_leaf=st.integers(0, 6))
def test_presorted_boosting_equals_per_node_sort(data, rounds, max_depth,
                                                 min_samples_leaf):
    X, y = data
    params = (rounds, 0.3, max_depth, min_samples_leaf)
    fitted = BoostedRegressor(*params).fit(X, y).to_dict()
    with mock.patch("shapenas.trees.RegressionTree", ReferenceTree):
        reference = BoostedRegressor(*params).fit(X, y).to_dict()
    assert fitted == reference


@settings(max_examples=200, deadline=None)
@given(data=fit_data(), max_depth=st.integers(0, 4),
       min_samples_leaf=st.integers(0, 6))
def test_fitted_equals_walk_over_training_rows(data, max_depth,
                                               min_samples_leaf):
    X, y = data
    tree = RegressionTree(max_depth, min_samples_leaf).fit(X, y)
    assert np.array_equal(tree.fitted, walk(tree.to_dict(), X))


def test_split_columns_drops_constant_columns_and_increasing_copies():
    rng = np.random.default_rng(4)
    base = rng.integers(0, 5, 50) * 0.5
    other = rng.normal(size=50)
    X = np.stack([np.full(50, 2.0),   # constant
                  base,
                  3 * base + 1,       # an increasing function of base
                  -base,              # decreasing: sorts ties another way
                  base,               # a copy
                  other,
                  np.exp(other),      # increasing in other
                  np.minimum(base, 1.0),  # merges levels: kept
                  base + (base >= 1.0)    # increasing with a jump
                  ], axis=1)
    order = np.argsort(X, axis=0, kind="stable")
    assert split_columns(X, order).tolist() == [1, 3, 5, 7]


def test_split_columns_keeps_a_column_that_differs_only_in_nans():
    # the first two columns sort alike and rise at the same places, but
    # NaN < 2 is false: once the third column splits off the rows of 2, the
    # node left holds 0, 1 and NaN, which only the second column separates
    nan_col = np.repeat([0.0, 1.0, 2.0, np.nan], 3)
    X = np.stack([nan_col, np.repeat([0.0, 1.0, 2.0, 2.0], 3),
                  np.repeat([0.0, 0.0, 1.0, 0.0], 3)], axis=1)
    y = np.repeat([0.0, 1.0, 100.0, 8.0], 3)
    assert split_columns(X, np.argsort(X, axis=0, kind="stable")).tolist() \
        == [0, 1, 2]
    tree = RegressionTree(2, 1).fit(X, y)
    assert tree.feature == [2, 1, -1, -1, -1]
    assert tree.to_dict() == ReferenceTree(2, 1).fit(X, y).to_dict()


def test_refit_on_same_presort_equals_fresh_fit():
    rng = np.random.default_rng(5)
    X = np.round(rng.uniform(size=(60, 3)), 1)
    for min_samples_leaf in (0, 2, 20):
        tree = RegressionTree(3, min_samples_leaf)
        root = tree.presort(X)
        for seed in range(3):
            y = np.random.default_rng(seed).normal(size=60)
            refit = tree.fit(X, y, root).to_dict()
            assert refit == RegressionTree(3, min_samples_leaf).fit(
                X, y).to_dict()
            assert np.array_equal(tree.fitted, walk(refit, X))
        # the root's candidates depend on min_samples_leaf: the best split
        # at 2 sets the few rows of the largest X[:, 0] apart, which 20
        # forbids
        y = 100.0 * (X[:, 0] == X[:, 0].max())
        assert tree.fit(X, y, root).to_dict() == RegressionTree(
            3, min_samples_leaf).fit(X, y).to_dict()


@pytest.mark.parametrize("rounds", [2, 7])
def test_boosting_presorts_once_per_fit(rounds):
    X = random_rows(3, 40)
    y = X[:, 0] - 2 * X[:, 1]
    presort = RegressionTree.presort
    with mock.patch.object(RegressionTree, "presort", autospec=True,
                           side_effect=presort) as spy:
        model = BoostedRegressor(rounds, 0.3, 3, 2).fit(X, y)
        assert spy.call_count == 1
        model.fit(X[:20], y[:20])
        assert spy.call_count == 2
    assert len(model.trees) == rounds
