"""Value-function approximators: a small MLP and an exact tabular backend.

Both backends answer ``value(s, a)``, "what is the value of (state,
action)?", and ``values(s, actions)``, the list of ``value(s, a)`` for each
action in turn, and take ``blend(s, a, target, rate)``, one regression step
toward a scalar target. The state ``s`` is the backend's own view of a
chain: the tabular backend keys on the chain's action tuple and is exact,
which is what the policy-invariance tests need; the MLP consumes the
chain's fixed-length ``embed_state`` vector concatenated with an action
one-hot, and answers a state's row of values in one stacked forward.

Approximators are mutable stores: ``blend`` and ``sgd_step`` update the
table or the net's arrays in place and return nothing, so a caller that
needs an earlier state must take a copy (``to_dict``) first.
"""
from __future__ import annotations

import math
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

    def forward_rows(self, X: np.ndarray) -> np.ndarray:
        """The output for every row of the 2-D float array ``X``.

        Each row goes through the net as a one-row matmul
        (``X[:, None, :] @ W``), which numpy runs through the same
        matrix-vector kernel as a 1-D ``x @ W``, so a row's output has the
        bits of its own 1-D forward; a plain ``X @ W`` is a matrix product,
        which may round differently.
        """
        a = X[:, None, :]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ W
            a += b
            np.tanh(a, out=a)
        return (a @ self.weights[-1] + self.biases[-1])[:, 0, 0]

    def forward(self, x) -> float:
        return float(self.forward_rows(self._check(x)[None])[0])

    def gradients(self, x) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Output and d(output)/d(weights), d(output)/d(biases)."""
        return self._gradients(self._check(x))

    def _gradients(self, x: np.ndarray):
        """``gradients`` of a float vector of ``input_dim`` entries."""
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
            grad_w[layer] = activations[layer][:, None] * delta
            grad_b[layer] = delta  # the next delta is a new array
            if layer > 0:
                delta = (self.weights[layer] @ delta) * (
                    1.0 - activations[layer] ** 2)
        return out, grad_w, grad_b

    def _descend(self, x: np.ndarray, target: float, lr: float) -> None:
        """``sgd_step`` at step size ``lr`` on a float vector of
        ``input_dim`` entries: each parameter less ``(lr*err)*grad``."""
        if not math.isfinite(target):
            raise ValueError(f"non-finite regression target {target!r}")
        out, grad_w, grad_b = self._gradients(x)
        scale = lr * (out - target)
        for param, grad in zip(self.weights + self.biases, grad_w + grad_b):
            grad *= scale
            param -= grad


def sgd_step(fa: MlpApprox, x, target: float,
             step_size: float | None = None) -> None:
    """One gradient step on 0.5*(forward(x) - target)^2, in place."""
    fa._descend(fa._check(x), target,
                fa.step_size if step_size is None else step_size)


# ---------------------------------------------------------------------------
# Unified (state, action) value interface used by the controller
# ---------------------------------------------------------------------------


class TabularValues:
    """Exact dictionary over discrete (action tuple, action index) pairs."""

    def __init__(self, table=None):
        self.table = dict(table or {})

    def value(self, s, a) -> float:
        return self.table.get((s, a), 0.0)

    def values(self, s, actions) -> list:
        get = self.table.get
        return [get((s, a), 0.0) for a in actions]

    def blend(self, s, a, target, rate=1.0) -> None:
        """v <- v + rate * (target - v) in place; rate=1 (the default)
        assigns exactly."""
        if not math.isfinite(target):
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

    def _inputs(self, s, actions) -> np.ndarray:
        """The (actions × input) block: each row is the state, then the
        row's action one-hot, which fills the net's input past the state."""
        n, width = len(s), self.net.input_dim
        if n >= width:
            raise DimensionError(
                f"a state of {n} entries leaves no room for an action "
                f"one-hot in the net's {width} inputs (actions "
                f"{list(actions)})")
        X = np.zeros((len(actions), width))
        X[:, :n] = s
        for row, a in enumerate(actions):
            if not 0 <= a < width - n:
                raise DimensionError(
                    f"action {a} lies outside the one-hot of {width - n} "
                    f"slots that a state of {n} entries leaves in the net's "
                    f"{width} inputs")
            X[row, n + a] = 1.0
        return X

    def value(self, s, a) -> float:
        return self.values(s, (a,))[0]

    def values(self, s, actions) -> list:
        return self.net.forward_rows(self._inputs(s, actions)).tolist()

    def blend(self, s, a, target, rate=1.0) -> None:
        """One SGD step in place at the net's own step size; ``rate`` (the
        tabular blend fraction) is ignored, since as a step size it
        diverges."""
        self.net._descend(self._inputs(s, (a,))[0], target,
                          self.net.step_size)

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
