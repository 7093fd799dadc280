"""Central-difference gradients of an MLP, the reference backprop is
checked against."""
import numpy as np

from shapenas.function_approx import MlpApprox


def finite_difference_gradients(fa: MlpApprox, x, h=1e-5):
    """Central-difference d(output)/d(parameters); oracle for backprop."""
    grad_w = [np.zeros_like(W) for W in fa.weights]
    grad_b = [np.zeros_like(b) for b in fa.biases]
    for layer, W in enumerate(fa.weights):
        for idx in np.ndindex(W.shape):
            Wp = [w.copy() for w in fa.weights]
            Wm = [w.copy() for w in fa.weights]
            Wp[layer][idx] += h
            Wm[layer][idx] -= h
            up = MlpApprox(Wp, fa.biases, fa.step_size).forward(x)
            dn = MlpApprox(Wm, fa.biases, fa.step_size).forward(x)
            grad_w[layer][idx] = (up - dn) / (2 * h)
    for layer, b in enumerate(fa.biases):
        for idx in np.ndindex(b.shape):
            bp = [v.copy() for v in fa.biases]
            bm = [v.copy() for v in fa.biases]
            bp[layer][idx] += h
            bm[layer][idx] -= h
            up = MlpApprox(fa.weights, bp, fa.step_size).forward(x)
            dn = MlpApprox(fa.weights, bm, fa.step_size).forward(x)
            grad_b[layer][idx] = (up - dn) / (2 * h)
    return grad_w, grad_b

