import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapenas.trees import BoostedRegressor, RegressionTree


def test_tree_fits_step_function():
    X = np.linspace(0, 1, 40).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    tree = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, y)
    assert np.allclose(tree.predict(X), y)


def test_tree_respects_depth_and_leaf_means():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(100, 3))
    y = X[:, 0] + 0.2 * rng.normal(size=100)
    tree = RegressionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
    # internal node count of a binary tree of depth d is < 2^d
    assert sum(1 for f in tree.feature if f >= 0) < 2 ** 3
    # a leaf prediction is a mean of targets, hence inside the target range
    pred = tree.predict(X)
    assert pred.min() >= y.min() and pred.max() <= y.max()


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
        out = out + model.learning_rate * tree.predict(X)
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
