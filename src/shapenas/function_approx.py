"""Value-function approximators: a small MLP and an exact tabular backend.

Both backends answer ``value(s, a)``, "what is the value of (state,
action)?", and ``values(s, actions)``, the list of ``value(s, a)`` for each
action in turn, and take ``blend(s, a, target, rate)``, one regression step
toward a scalar target. The state ``s`` is the backend's own view of a
chain: the tabular backend keys its rows on the chain's action tuple and is
exact, which is what the policy-invariance tests need; the MLP consumes the
chain's fixed-length ``embed_state`` vector concatenated with an action
one-hot, and answers a state's row of values in one stacked forward.

Approximators are mutable stores: ``blend`` and ``sgd_step`` update the
table or the net's arrays in place and return nothing, so a caller that
needs an earlier state must take a copy (``to_dict``) first. The net's
weights and biases are views of one flat array, which a step updates in one
subtraction.

The MLP store remembers each stacked forward it runs (the input rows, the
hidden activations and the outputs), keyed by the identity of ``s`` and by
action, until the net's next update (``MlpApprox.updates`` counts them,
``blend`` and ``sgd_step`` alike). So ``value(s, a)`` after
``values(s, actions)`` returns the row's output, and ``blend(s, a, ...)``
takes its gradient from the row's activations, without another forward.
Since a state is known by its identity, a state must not change once a
store has seen it: the controller hands the store read-only arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    pass


_ONE = np.ones(1)  # d(output)/d(output), the first delta of backprop
_ONE.flags.writeable = False


@dataclass
class MlpApprox:
    """Tanh MLP mapping (state ++ action one-hot) to one scalar.

    ``weights`` and ``biases`` are views of the flat array ``params``, and
    ``grad`` has its layout: a step writes each layer's gradient into its
    view of ``grad``, scales ``grad`` and subtracts it from ``params``, all
    in place. ``updates`` counts the steps taken.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    step_size: float = 1e-3

    def __post_init__(self):
        arrays = [np.asarray(p, dtype=float)
                  for p in (*self.weights, *self.biases)]
        self.params = np.empty(sum(p.size for p in arrays))
        self.grad = np.empty_like(self.params)
        self.updates = 0
        views, grads, start = [], [], 0
        for p in arrays:
            stop = start + p.size
            views.append(self.params[start:stop].reshape(p.shape))
            views[-1][...] = p
            grads.append(self.grad[start:stop].reshape(p.shape))
            start = stop
        n = len(self.weights)
        self.weights, self.biases = views[:n], views[n:]
        self._grad_w, self._grad_b = grads[:n], grads[n:]

    def __reduce__(self):
        # a copy or an unpickled net packs its own buffer: copied one by
        # one, the views would come back as arrays apart from ``params``
        return type(self), (self.weights, self.biases, self.step_size)

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

    def _stack(self, X: np.ndarray):
        """The stacked forward of the rows of the 2-D float array ``X``:
        each layer's input as a (rows, 1, width) block (``X``'s rows, then
        each hidden layer's activations), and the outputs, one per row.

        Each row goes through the net as a one-row matmul
        (``X[:, None, :] @ W``), which numpy runs through the same
        matrix-vector kernel as a 1-D ``x @ W``, so a row's output has the
        bits of its own 1-D forward; a plain ``X @ W`` is a matrix product,
        which may round differently.
        """
        a = X[:, None, :]
        layers = [a]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ W
            a += b
            np.tanh(a, out=a)
            layers.append(a)
        return layers, (a @ self.weights[-1] + self.biases[-1])[:, 0, 0]

    def forward(self, x) -> float:
        return float(self._stack(self._check(x)[None])[1][0])

    def gradients(self, x) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Output and d(output)/d(weights), d(output)/d(biases), in new
        arrays."""
        layers, out = self._stack(self._check(x)[None])
        self._gradients(layers, 0)
        return (float(out[0]), [g.copy() for g in self._grad_w],
                [g.copy() for g in self._grad_b])

    def _gradients(self, layers, row: int) -> None:
        """Write d(output)/d(params) at row ``row`` of the stacked forward
        whose layer inputs are ``layers`` into ``grad``."""
        delta = _ONE
        for layer in range(len(self.weights) - 1, -1, -1):
            a = layers[layer][row, 0]
            np.multiply(a[:, None], delta, out=self._grad_w[layer])
            self._grad_b[layer][...] = delta
            if layer > 0:
                delta = (self.weights[layer] @ delta) * (1.0 - a ** 2)

    def _descend(self, layers, row: int, out: float, target: float,
                 lr: float) -> None:
        """``sgd_step`` at step size ``lr`` from row ``row`` of a stacked
        forward, whose layer inputs are ``layers`` and whose output there
        is ``out``: each parameter less ``(lr*err)*grad``."""
        if not math.isfinite(target):
            raise ValueError(f"non-finite regression target {target!r}")
        self._gradients(layers, row)
        self.grad *= lr * (out - target)
        self.params -= self.grad
        self.updates += 1


def sgd_step(fa: MlpApprox, x, target: float,
             step_size: float | None = None) -> None:
    """One gradient step on 0.5*(forward(x) - target)^2, in place."""
    layers, out = fa._stack(fa._check(x)[None])
    fa._descend(layers, 0, float(out[0]), target,
                fa.step_size if step_size is None else step_size)


# ---------------------------------------------------------------------------
# Unified (state, action) value interface used by the controller
# ---------------------------------------------------------------------------


class TabularValues:
    """Exact dictionary over discrete (action tuple, action index) pairs,
    held as one row per state, ``{state: {action: value}}``, so that a
    state's row of values hashes the state once. The constructor takes, and
    ``to_dict`` writes sorted, the flat ``(state, action) -> value`` pairs.
    """

    def __init__(self, table=None):
        self.table = {}
        for (s, a), v in (table or {}).items():
            self.table.setdefault(s, {})[a] = v

    def value(self, s, a) -> float:
        return self.table.get(s, {}).get(a, 0.0)

    def values(self, s, actions) -> list:
        row = self.table.get(s)
        if row is None:  # a state not yet updated, as every new chain is
            return [0.0] * len(actions)
        get = row.get
        return [get(a, 0.0) for a in actions]

    def blend(self, s, a, target, rate=1.0) -> None:
        """v <- v + rate * (target - v) in place; rate=1 (the default)
        assigns exactly."""
        if not math.isfinite(target):
            raise ValueError(f"non-finite regression target {target!r}")
        row = self.table.setdefault(s, {})
        v = row.get(a, 0.0)
        row[a] = v + rate * (target - v)

    def to_dict(self):
        return {"backend": "tabular",
                "table": [[list(s), a, v] for s in sorted(self.table)
                          for a, v in sorted(self.table[s].items())]}

    @classmethod
    def from_dict(cls, d):
        return cls({(tuple(k), a): float(v) for k, a, v in d["table"]})


class MlpValues:
    """MLP over (state embedding ++ action one-hot); the one-hot fills the
    net's input past the embedding.

    ``_memo`` maps ``(id(s), a)`` to a remembered stacked forward
    ``(s, layers, outputs)`` and the row of ``a`` in it; holding ``s`` keeps
    its id from being reused. It is emptied when the net has taken a step
    since it was filled, or once it holds ``MEMO_LIMIT`` entries.
    """

    MEMO_LIMIT = 4096

    def __init__(self, net: MlpApprox):
        self.net = net
        self._memo = {}
        self._memo_at = net.updates

    def __reduce__(self):
        """Copies and pickles hold the net, not the remembered forwards,
        whose keys are identities in this process."""
        return type(self), (self.net,)

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

    def _remembered(self) -> dict:
        """The memo, emptied first if it is stale or full."""
        if self._memo_at != self.net.updates \
                or len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
            self._memo_at = self.net.updates
        return self._memo

    def _entry(self, s, a):
        """The remembered forward at (s, a) and its row there; a miss runs
        the one-row forward."""
        entry = self._remembered().get((id(s), a))
        if entry is None:
            self.values(s, (a,))
            entry = self._memo[id(s), a]
        return entry

    def value(self, s, a) -> float:
        (_, _, out), row = self._entry(s, a)
        return out.item(row)

    def values(self, s, actions) -> list:
        layers, out = self.net._stack(self._inputs(s, actions))
        memo, forward, key = self._remembered(), (s, layers, out), id(s)
        for row, a in enumerate(actions):
            memo[key, a] = forward, row
        return out.tolist()

    def blend(self, s, a, target, rate=1.0) -> None:
        """One SGD step in place at the net's own step size; ``rate`` (the
        tabular blend fraction) is ignored, since as a step size it
        diverges."""
        (_, layers, out), row = self._entry(s, a)
        self.net._descend(layers, row, out.item(row), target,
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
