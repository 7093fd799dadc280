"""Value-function approximators: a small MLP and an exact tabular backend.

Both backends answer ``value(s, a)``, "what is the value of (state,
action)?", and take ``blend(s, a, target, rate)``, one regression step
toward a scalar target. The state ``s`` is the backend's own view of a
chain: the tabular backend keys on the chain's action tuple and is exact,
which is what the policy-invariance tests need; the MLP consumes the
chain's fixed-length ``embed_state`` vector concatenated with an action
one-hot.

Approximators are mutable stores: ``blend`` and ``sgd_step`` update the
table or the net's arrays in place and return nothing, so a caller that
needs an earlier state must take a copy (``to_dict``) first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    pass


@dataclass
class MlpApprox:
    """Tanh MLP mapping (state ++ action one-hot) to one scalar."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    step_size: float = 1e-3

    @classmethod
    def create(cls, input_dim: int, hidden=(32, 32), step_size=1e-3,
               seed=0) -> "MlpApprox":
        rng = np.random.default_rng(seed)
        widths = [input_dim, *hidden, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, fan_out))
        return cls(weights, biases, step_size)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.input_dim:
            raise DimensionError(
                f"input has {x.shape[0]} features, net expects "
                f"{self.input_dim}")
        return x

    def forward(self, x) -> float:
        x = self._check(x)
        a = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ W + b)
        out = a @ self.weights[-1] + self.biases[-1]
        return float(out[0])

    def gradients(self, x) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Output and d(output)/d(weights), d(output)/d(biases)."""
        x = self._check(x)
        activations = [x]
        a = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ W + b)
            activations.append(a)
        out = float((a @ self.weights[-1] + self.biases[-1])[0])

        grad_w = [None] * len(self.weights)
        grad_b = [None] * len(self.biases)
        delta = np.ones(1)
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w[layer] = np.outer(activations[layer], delta)
            grad_b[layer] = delta.copy()
            if layer > 0:
                delta = (self.weights[layer] @ delta) * (
                    1.0 - activations[layer] ** 2)
        return out, grad_w, grad_b


def sgd_step(fa: MlpApprox, x, target: float,
             step_size: float | None = None) -> None:
    """One gradient step on 0.5*(forward(x) - target)^2, in place."""
    if not np.isfinite(target):
        raise ValueError(f"non-finite regression target {target!r}")
    lr = fa.step_size if step_size is None else step_size
    out, grad_w, grad_b = fa.gradients(x)
    err = out - target
    for param, grad in zip(fa.weights + fa.biases, grad_w + grad_b):
        param -= lr * err * grad


# ---------------------------------------------------------------------------
# Unified (state, action) value interface used by the controller
# ---------------------------------------------------------------------------


class TabularValues:
    """Exact dictionary over discrete (action tuple, action index) pairs."""

    def __init__(self, table=None):
        self.table = dict(table or {})

    def value(self, s, a) -> float:
        return self.table.get((s, a), 0.0)

    def blend(self, s, a, target, rate=1.0) -> None:
        """v <- v + rate * (target - v) in place; rate=1 (the default)
        assigns exactly."""
        if not np.isfinite(target):
            raise ValueError(f"non-finite regression target {target!r}")
        v = self.table.get((s, a), 0.0)
        self.table[(s, a)] = v + rate * (target - v)

    def to_dict(self):
        return {"backend": "tabular",
                "table": [[list(k[0]), k[1], v]
                          for k, v in sorted(self.table.items())]}

    @classmethod
    def from_dict(cls, d):
        return cls({(tuple(k), a): float(v) for k, a, v in d["table"]})


class MlpValues:
    """MLP over (state embedding ++ action one-hot); the one-hot fills the
    net's input past the embedding."""

    def __init__(self, net: MlpApprox):
        self.net = net

    @classmethod
    def create(cls, input_dim, hidden=(32, 32), step_size=1e-3, seed=0):
        return cls(MlpApprox.create(input_dim, hidden, step_size, seed))

    def _input(self, s, a):
        onehot = np.zeros(self.net.input_dim - len(s))
        onehot[a] = 1.0
        return np.concatenate([np.asarray(s, dtype=float), onehot])

    def value(self, s, a) -> float:
        return self.net.forward(self._input(s, a))

    def blend(self, s, a, target, rate=1.0) -> None:
        """One SGD step in place at the net's own step size; ``rate`` (the
        tabular blend fraction) is ignored, since as a step size it
        diverges."""
        sgd_step(self.net, self._input(s, a), target)

    def to_dict(self):
        return {"backend": "mlp",
                "step_size": self.net.step_size,
                "weights": [W.tolist() for W in self.net.weights],
                "biases": [b.tolist() for b in self.net.biases]}

    @classmethod
    def from_dict(cls, d):
        net = MlpApprox([np.asarray(W) for W in d["weights"]],
                        [np.asarray(b) for b in d["biases"]],
                        d["step_size"])
        return cls(net)


def values_from_dict(d):
    if d["backend"] == "tabular":
        return TabularValues.from_dict(d)
    return MlpValues.from_dict(d)
