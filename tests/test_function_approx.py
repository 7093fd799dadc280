import copy
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapenas import ShapingConfig, SyntheticOracle, SyntheticTaskSpec
from shapenas.controller import (CallableSecondary, load_checkpoint,
                                 run_search, save_checkpoint)
from shapenas.function_approx import (DimensionError, MlpApprox, MlpValues,
                                      TabularValues, sgd_step)

from gradcheck import finite_difference_gradients


def reference_input(s, a, input_dim):
    onehot = np.zeros(input_dim - len(s))
    onehot[a] = 1.0
    return np.concatenate([np.asarray(s, dtype=float), onehot])


def reference_forward(net, x):
    """One 1-D input through the net, layer by layer: the reference for
    the stacked forward."""
    a = x
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.tanh(a @ W + b)
    return float((a @ net.weights[-1] + net.biases[-1])[0])


def reference_sgd_step(net, x, target):
    """One SGD step as a per-row store takes it: outer-product gradients,
    then each parameter less ``lr * err * grad``."""
    if not math.isfinite(target):
        raise ValueError(f"non-finite regression target {target!r}")
    activations = [x]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ W + b))
    out = float((activations[-1] @ net.weights[-1] + net.biases[-1])[0])
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    delta = np.ones(1)
    for layer in range(len(net.weights) - 1, -1, -1):
        grad_w[layer] = np.outer(activations[layer], delta)
        grad_b[layer] = delta.copy()
        if layer > 0:
            delta = (net.weights[layer] @ delta) * (
                1.0 - activations[layer] ** 2)
    err = out - target
    for param, grad in zip(net.weights + net.biases, grad_w + grad_b):
        param -= net.step_size * err * grad


class ReferenceMlpValues(MlpValues):
    """The store the stacked forward replaces: one 1-D forward per value
    and a row of values as a loop of them."""

    def value(self, s, a):
        return reference_forward(self.net,
                                 reference_input(s, a, self.net.input_dim))

    def values(self, s, actions):
        return [self.value(s, a) for a in actions]

    def blend(self, s, a, target, rate=1.0):
        reference_sgd_step(self.net,
                           reference_input(s, a, self.net.input_dim), target)


def test_zero_weights_give_zero_output():
    net = MlpApprox([np.zeros((4, 3)), np.zeros((3, 1))],
                    [np.zeros(3), np.zeros(1)])
    assert net.forward(np.ones(4)) == 0.0


def test_single_linear_layer_is_w_dot_x():
    net = MlpApprox([np.array([[2.0], [3.0]])], [np.zeros(1)])
    assert net.forward([1.0, 1.0]) == pytest.approx(5.0)


def test_forward_is_pure():
    net = MlpApprox.create(5, hidden=(8,), seed=1)
    x = np.random.default_rng(0).normal(size=5)
    assert net.forward(x) == net.forward(x)


def test_dimension_mismatch_rejected():
    net = MlpApprox.create(5, seed=0)
    with pytest.raises(DimensionError):
        net.forward(np.ones(4))


def test_sgd_step_zero_gradient_at_target():
    net = MlpApprox.create(4, hidden=(6,), seed=2)
    x = np.ones(4)
    target = net.forward(x)
    before = [W.copy() for W in net.weights]
    sgd_step(net, x, target)
    for W, W2 in zip(before, net.weights):
        assert np.array_equal(W, W2)


def test_sgd_step_zero_learning_rate_is_identity():
    net = MlpApprox.create(4, hidden=(6,), seed=2)
    before = [W.copy() for W in net.weights]
    sgd_step(net, np.ones(4), 5.0, step_size=0.0)
    for W, W2 in zip(before, net.weights):
        assert np.array_equal(W, W2)


def test_linear_sgd_matches_closed_form():
    # 1-d linear net: output w*x + b; gradient of 0.5*(wx+b-t)^2 is
    # (wx+b-t)*x for w and (wx+b-t) for b
    w, b, x, t, lr = 1.5, 0.25, 2.0, 4.0, 0.1
    net = MlpApprox([np.array([[w]])], [np.array([b])])
    assert sgd_step(net, [x], t, step_size=lr) is None
    err = w * x + b - t
    assert net.weights[0][0, 0] == pytest.approx(w - lr * err * x)
    assert net.biases[0][0] == pytest.approx(b - lr * err)


def test_sgd_step_rejects_non_finite_target():
    net = MlpApprox.create(3, seed=0)
    with pytest.raises(ValueError):
        sgd_step(net, np.ones(3), float("nan"))


def test_blend_updates_in_place():
    net = MlpApprox.create(3, hidden=(4,), seed=5)
    arrays = net.weights + net.biases
    expected = MlpApprox([W.copy() for W in net.weights],
                         [b.copy() for b in net.biases], net.step_size)
    out, grad_w, grad_b = expected.gradients(np.ones(3))
    err = out - 10.0
    mlp = MlpValues(net)
    assert mlp.blend(np.ones(2), 0, target=10.0) is None
    assert mlp.net is net
    for param, grad, got in zip(expected.weights + expected.biases,
                                grad_w + grad_b, arrays):
        assert np.array_equal(got, param - net.step_size * err * grad)
    tab = TabularValues()
    table = tab.table
    assert tab.blend(("s",), 0, target=2.0) is None
    assert tab.table is table and table == {("s",): {0: 2.0}}


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(7)
    for case in range(10):
        net = MlpApprox.create(4, hidden=(5, 3), seed=case)
        x = rng.normal(size=4)
        _, gw, gb = net.gradients(x)
        fw, fb = finite_difference_gradients(net, x)
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(b), 1e-8)
            assert np.max(np.abs(a - b) / denom) <= 1e-4


def test_repeated_steps_converge_monotonically():
    net = MlpApprox.create(3, hidden=(8,), step_size=1e-3, seed=11)
    x = np.array([0.5, -1.0, 2.0])
    target = 3.0
    last = abs(net.forward(x) - target)
    for _ in range(1000):
        sgd_step(net, x, target)
        gap = abs(net.forward(x) - target)
        assert gap <= last + 1e-12
        last = gap
    assert last < abs(MlpApprox.create(3, hidden=(8,), seed=11).forward(x)
                      - target)


def test_tabular_backend_same_interface():
    tab = TabularValues()
    assert tab.value(("s",), 0) == 0.0
    tab.blend(("s",), 0, target=5.0)
    assert tab.value(("s",), 0) == 5.0
    assert tab.value(("s",), 1) == 0.0  # other actions untouched
    tab.blend(("s",), 0, target=1.0, rate=0.5)
    assert tab.value(("s",), 0) == 3.0


def test_values_roundtrip():
    tab = TabularValues()
    tab.blend((0, 1), 2, target=1.25)
    clone = TabularValues.from_dict(tab.to_dict())
    assert clone.value((0, 1), 2) == 1.25
    mlp = MlpValues.create(4 + 3, hidden=(6, 5), seed=0)
    embed = np.ones(4)
    mlp.blend(embed, 2, target=3.0)
    mlp.values(embed, [0, 1, 2])
    clones = [MlpValues.from_dict(mlp.to_dict()), copy.deepcopy(mlp),
              pickle.loads(pickle.dumps(mlp))]
    saved = mlp.to_dict()
    assert [len(clone._memo) for clone in clones] == [0, 0, 0]
    assert clones[0].value(embed, 1) == mlp.value(embed, 1)
    mlp.blend(embed, 1, target=-1.0)
    for clone in clones:
        assert clone.to_dict() == saved
        # the net's arrays are views, back to back, of one flat buffer
        # that a step updates in place
        net = clone.net
        arrays = net.weights + net.biases
        assert all(p.base is net.params for p in arrays)
        assert np.concatenate([p.ravel() for p in arrays]).tobytes() \
            == net.params.tobytes()
        clone.blend(embed, 1, target=-1.0)
        assert clone.net.params is net.params
        assert clone.to_dict() == mlp.to_dict() != saved
        assert [p.tolist() for p in arrays] \
            == clone.to_dict()["weights"] + clone.to_dict()["biases"]


STATES = st.lists(st.integers(0, 3), max_size=3).map(tuple)
ACTIONS = st.integers(0, 4)
TARGETS = st.floats(-1e3, 1e3)
STORE_OPS = st.one_of(
    st.tuples(st.just("blend"), STATES, ACTIONS, TARGETS,
              st.sampled_from([1.0, 0.5, 0.3])),
    st.tuples(st.just("value"), STATES, ACTIONS),
    st.tuples(st.just("values"), STATES, st.lists(ACTIONS, max_size=6)))


def hexes(values):
    return [v.hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(start=st.dictionaries(st.tuples(STATES, ACTIONS), TARGETS,
                             max_size=8),
       ops=st.lists(STORE_OPS, max_size=40))
def test_row_store_matches_flat_reference(start, ops):
    """The table's rows answer, update and save as the flat
    ``{(s, a): v}`` dict that they replaced."""
    tab, flat = TabularValues(start), dict(start)
    for op, s, *rest in ops:
        if op == "blend":
            a, target, rate = rest
            tab.blend(s, a, target, rate)
            v = flat.get((s, a), 0.0)
            flat[s, a] = v + rate * (target - v)
        elif op == "value":
            assert tab.value(s, rest[0]).hex() \
                == flat.get((s, rest[0]), 0.0).hex()
        else:
            assert hexes(tab.values(s, rest[0])) \
                == hexes([flat.get((s, a), 0.0) for a in rest[0]])
    saved = tab.to_dict()
    listing = [[list(s), a, v] for (s, a), v in sorted(flat.items())]
    assert saved == {"backend": "tabular", "table": listing}
    assert hexes(v for _, _, v in saved["table"]) \
        == hexes(v for _, _, v in listing)
    for clone in (TabularValues.from_dict(saved),
                  TabularValues.from_dict(json.loads(json.dumps(saved)))):
        assert clone.to_dict() == saved and clone.table == tab.table


def test_values_row_matches_single_lookups():
    tab = TabularValues()
    tab.blend((0, 1), 2, target=1.25)
    tab.blend((0, 1), 0, target=-0.1 + 0.2)
    tab.blend((0,), 1, target=7.0)
    actions = [0, 1, 2, 3]  # (0, 1) has no value for 1 or 3
    mlp = MlpValues.create(4 + len(actions), hidden=(6,), seed=3)
    for store, s in ((tab, (0, 1)), (tab, (5,)), (mlp, np.full(4, 0.3)),
                     (mlp, np.array([1.0, -2.0, 0.5, 0.0]))):
        row = store.values(s, actions)
        assert isinstance(row, list)
        assert [v.hex() for v in row] \
            == [store.value(s, a).hex() for a in actions]
    assert tab.values((0, 1), [3, 2, 2]) == [0.0, 1.25, 1.25]


@settings(max_examples=200, deadline=None)
@given(hidden=st.sampled_from([(), (4,), (8, 3)]),
       seed=st.integers(0, 2 ** 16),
       n_actions=st.integers(1, 13),
       state=st.lists(st.tuples(st.floats(1e-3, 1e3), st.booleans()),
                      min_size=1, max_size=8),
       data=st.data())
def test_mlp_rows_match_per_row_reference(hidden, seed, n_actions, state,
                                          data):
    s = np.array([-v if negative else v for v, negative in state])
    actions = data.draw(st.lists(st.integers(0, n_actions - 1),
                                 max_size=13))
    mlp = MlpValues.create(len(s) + n_actions, hidden=hidden, seed=seed)
    expected = [reference_forward(mlp.net, reference_input(s, a,
                                                           mlp.net.input_dim))
                for a in actions]
    row = mlp.values(s, actions)
    assert isinstance(row, list) and all(type(v) is float for v in row)
    assert [v.hex() for v in row] == [v.hex() for v in expected]
    assert [mlp.value(s, a).hex() for a in actions] \
        == [v.hex() for v in expected]


MLP_OPS = st.tuples(st.sampled_from(["values", "value", "blend", "sgd_step"]),
                    st.integers(0, 2),  # which state
                    st.lists(st.integers(0, 3), min_size=1, max_size=6),
                    st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(hidden=st.sampled_from([(), (4,), (8, 3)]),
       seed=st.integers(0, 2 ** 16),
       limit=st.sampled_from([MlpValues.MEMO_LIMIT, 4]),
       ops=st.lists(MLP_OPS, max_size=25))
def test_mlp_memo_matches_memo_free_reference(hidden, seed, limit, ops):
    """Any interleaving of reads, blends and direct steps on ``.net`` reads
    and updates as the store without remembered forwards does, also when
    the memo fills up; the fixed tail reads (s, a) right after a step at
    (s, a), and again after a direct step, both of which must not see the
    forward from before."""
    states = [np.array([0.5, -1.0, 2.0]), np.array([0.0, 0.0, 0.0]),
              np.array([3.0, 0.25, -0.75])]
    for s in states:
        s.flags.writeable = False
    mlp = MlpValues.create(3 + 4, hidden=hidden, step_size=0.05, seed=seed)
    mlp.MEMO_LIMIT = limit
    ref = ReferenceMlpValues(MlpApprox.create(3 + 4, hidden=hidden,
                                              step_size=0.05, seed=seed))
    tail = [("values", 0, [0, 1, 2, 3], 0.0), ("blend", 0, [2], 1.5),
            ("value", 0, [2], 0.0), ("values", 0, [2, 1], 0.0),
            ("sgd_step", 0, [1], -2.0), ("value", 0, [1], 0.0)]
    for op, i, actions, target in ops + tail:
        s, a = states[i], actions[0]
        if op == "values":
            got, expected = mlp.values(s, actions), ref.values(s, actions)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
        elif op == "value":
            assert mlp.value(s, a).hex() == ref.value(s, a).hex()
        elif op == "blend":
            mlp.blend(s, a, target)
            ref.blend(s, a, target)
        else:
            x = reference_input(s, a, mlp.net.input_dim)
            sgd_step(mlp.net, x, target)
            reference_sgd_step(ref.net, x, target)
        assert mlp.net.params.tobytes() == ref.net.params.tobytes()
        assert len(mlp._memo) < limit + 6  # a row holds up to 6 actions
    assert mlp.to_dict() == ref.to_dict()


def test_mlp_search_matches_per_row_reference(tmp_path, toy_space):
    oracle = SyntheticOracle(SyntheticTaskSpec((0.25, 0.05, 0.02)))
    one = CallableSecondary(
        lambda net, actions: [sum((5, 40, 70)[a] for a in actions)], 1)
    two = CallableSecondary(
        lambda net, actions: [sum((5, 40, 70)[a] for a in actions),
                              25.0 * len(actions)], 2)
    setups = [
        (one, ShapingConfig(episodes=20, max_steps=4, tau=-1e9,
                            backend="mlp", hidden=(8,))),
        (two, ShapingConfig(episodes=20, max_steps=4, tau=-1e9,
                            backend="mlp", hidden=(32, 32),
                            epsilon0=(1.0, 0.5), budgets=(200.0, 100.0)))]

    def runs():
        out = []
        for secondary, cfg in setups:
            for weights in (None, (1.0,) + (0.1,) * len(cfg.epsilon0)):
                full = run_search(toy_space, oracle, secondary, cfg, seed=9,
                                  weights=weights)
                half = run_search(toy_space, oracle, secondary, cfg, seed=9,
                                  episodes=10, weights=weights)
                path = tmp_path / "ckpt.json"
                save_checkpoint(half.state, path)
                rest = run_search(toy_space, oracle, secondary, cfg, seed=9,
                                  state=load_checkpoint(path), episodes=10,
                                  weights=weights)
                out.append((full.fingerprint(), half.fingerprint(),
                            rest.fingerprint(), rest.state.q.to_dict(),
                            [phi.to_dict() for phi in rest.state.phis],
                            type(rest.state.q)))
        return out

    got = runs()
    with mock.patch("shapenas.controller.MlpValues", ReferenceMlpValues), \
            mock.patch("shapenas.function_approx.MlpValues",
                       ReferenceMlpValues):
        expected = runs()
    assert [run[-1] for run in got] == [MlpValues] * 4
    assert [run[-1] for run in expected] == [ReferenceMlpValues] * 4
    assert [run[:-1] for run in got] == [run[:-1] for run in expected]


@pytest.mark.parametrize("state_len, input_dim, action, where", [
    (9, 7, 0, "a state of 9 entries leaves no room for an action one-hot "
              "in the net's 7 inputs"),
    (4, 7, 3, "action 3 lies outside the one-hot of 3 slots that a state "
              "of 4 entries leaves in the net's 7 inputs"),
    (4, 7, -1, "action -1 lies outside"),
])
def test_mlp_rejects_action_outside_one_hot(state_len, input_dim, action,
                                            where):
    mlp = MlpValues.create(input_dim, hidden=(4,), seed=0)
    s = np.ones(state_len)
    before = mlp.to_dict()
    for call in (lambda: mlp.values(s, [0, action]),
                 lambda: mlp.value(s, action),
                 lambda: mlp.blend(s, action, 1.0)):
        with pytest.raises(DimensionError, match=where):
            call()
    assert mlp.to_dict() == before
