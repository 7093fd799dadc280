import numpy as np
import pytest

from shapenas.function_approx import (DimensionError, MlpApprox, MlpValues,
                                      TabularValues, sgd_step)

from gradcheck import finite_difference_gradients


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
    assert tab.table is table and table == {(("s",), 0): 2.0}


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
    mlp = MlpValues.create(4 + 3, hidden=(6,), seed=0)
    clone = MlpValues.from_dict(mlp.to_dict())
    embed = np.ones(4)
    assert clone.value(embed, 1) == mlp.value(embed, 1)
