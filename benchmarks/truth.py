"""Ground truth the checks compare against, written apart from the program.

Shape arithmetic, the synthetic accuracy formula, the linear layer cost
model and a walker for saved boosted trees are re-implemented here from
their documented definitions, so that a fault in the program's own version
cannot hide itself from the check that uses these.
"""
from __future__ import annotations

import math

import numpy as np


def layer_params(template: dict):
    """(kernel, stride, padding) of a resolved layer; dense and skip layers
    resolve to (1, 1, 0)."""
    if template["block_kind"] in ("dense", "skip"):
        return 1, 1, 0
    return (template.get("kernel_size", 1), template.get("stride", 1),
            template.get("padding", 0))


def out_shape(template: dict, shape):
    """Output (channels, height, width) of one catalog template, or None
    when the template does not fit the input shape."""
    c, h, w = shape
    kind = template["block_kind"]
    want = template.get("channels", 0) or c
    if kind == "dense":
        return (want, 1, 1)
    if kind == "skip":
        return (c, h, w)
    k, s, p = layer_params(template)
    if k > min(h, w) + 2 * p:
        return None
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        return None
    return (c if kind == "pool" else want, oh, ow)


def chain_layers(actions, catalog: dict, input_shape):
    """[(template, in_shape, out_shape)] for an action chain; raises
    ValueError if the chain is not shape-valid."""
    shape, layers = tuple(input_shape), []
    for a in actions:
        template = catalog["actions"][a]
        nxt = out_shape(template, shape)
        if nxt is None:
            raise ValueError(f"chain {list(actions)} is not shape-valid")
        layers.append((template, shape, nxt))
        shape = nxt
    return layers


def random_chain(catalog: dict, input_shape, rng):
    """A random shape-valid chain of random depth (1..max_depth)."""
    depth = int(rng.integers(1, catalog["max_depth"] + 1))
    shape, actions = tuple(input_shape), []
    for _ in range(depth):
        legal = [i for i, t in enumerate(catalog["actions"])
                 if out_shape(t, shape) is not None]
        if not legal:
            break
        a = int(legal[int(rng.integers(len(legal)))])
        shape = out_shape(catalog["actions"][a], shape)
        actions.append(a)
    return actions


def synthetic_accuracy(spec: dict, actions) -> float:
    """Diminishing repeats, pair bonuses, clipped to [0, cap]; zero below
    min_depth (the oracle's noise is off in every workload)."""
    if not actions or len(actions) < spec.get("min_depth", 0):
        return 0.0
    base, dim = spec["base_utility"], spec.get("diminishing", 0.9)
    bonus = {(p, c): b for p, c, b in spec.get("interaction_bonus", [])}
    raw, seen = 0.0, {}
    for i, a in enumerate(actions):
        raw += base[a] * dim ** seen.get(a, 0)
        seen[a] = seen.get(a, 0) + 1
        if i:
            raw += bonus.get((actions[i - 1], a), 0.0)
    return min(spec.get("accuracy_cap", 1.0), max(0.0, raw))


class CostModel:
    """The linear layer cost model and memory rule of a ``synth_stats_model``
    config block, with the documented defaults."""

    def __init__(self, spec: dict):
        self.lat = spec.get("latency_coeffs", (0.5, 0.02, 0.05, 0.001))
        self.mem = spec.get("memory_coeffs", (0.1, 0.004))
        self.mult = spec.get("context_multipliers", (1.0,))
        self.rule = spec.get("infeasibility_rule", True)

    def latency(self, k, channels, volume, ci) -> float:
        c0, c1, c2, c3 = self.lat
        return (c0 + c1 * k * k + c2 * channels + c3 * volume) * self.mult[ci]

    def memory(self, volume, ci) -> float:
        return (self.mem[0] + self.mem[1] * volume) * self.mult[ci]

    def feasible(self, volume, ci, memory_mb) -> bool:
        return not self.rule or self.memory(volume, ci) <= memory_mb


def layer_features(template, in_shape, out, ctx, columns) -> list:
    """One feature row in the saved model's column order."""
    c, h, w = out
    k, s, p = layer_params(template)
    values = {
        f"type={template['block_kind']}": 1.0,
        "kernel_size": k, "stride": s, "padding": p,
        "expansion_ratio": template.get("expansion_ratio", 1.0),
        "id_skip": float(bool(template.get("id_skip", False))),
        "channels": c, "height": h, "width": w,
        "input_volume": in_shape[0] * in_shape[1] * in_shape[2],
        "output_volume": c * h * w,
        "cores": ctx["cores"], "compute_units": ctx["compute_units"],
        "memory_mb": ctx["memory_mb"], "clock_freq_mhz": ctx["clock_freq_mhz"],
        "memory_bandwidth": ctx["memory_bandwidth"],
        f"processor={ctx.get('processor_kind', 'cpu')}": 1.0,
    }
    for i, v in enumerate(ctx.get("task", ())):
        values[f"task_{i}"] = v
    return [float(values.get(col, 0.0)) for col in columns]


def _tree(doc, X):
    feature, left, right = (np.asarray(doc[k]) for k in
                            ("feature", "left", "right"))
    threshold = np.asarray(doc["threshold"], dtype=float)
    node = np.zeros(len(X), dtype=int)
    for _ in range(len(feature)):
        inner = feature[node] >= 0
        if not inner.any():
            break
        rows, at = np.nonzero(inner)[0], node[inner]
        go_left = X[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])
    return np.asarray(doc["value"], dtype=float)[node]


def _booster(doc, X):
    out = np.full(len(X), float(doc["base_prediction"]))
    for tree in doc["trees"]:
        out += doc["learning_rate"] * _tree(tree, X)
    return out


def model_predict(model: dict, X: np.ndarray):
    """(feasible mask, per-target predictions) of a saved model on rows X:
    registry hits and gate outputs below 0.5 are infeasible; targets are
    the bag mean, floored at zero."""
    n_arch = sum(c.startswith("type=") for c in model["columns"]) + 10
    registry = {(tuple(a), tuple(c)) for a, c in model["infeasible_registry"]}
    feasible = np.array([(tuple(r[:n_arch]), tuple(r[n_arch:])) not in registry
                         for r in X.tolist()], dtype=bool)
    if model["gate"] is not None:
        feasible &= _booster(model["gate"], X) >= 0.5
    Y = np.zeros((len(X), len(model["target_names"])))
    for member in model["members"]:
        for t, name in enumerate(model["target_names"]):
            Y[:, t] += _booster(member[name], X)
    return feasible, np.clip(Y / len(model["members"]), 0.0, None)


def r2(y, pred) -> float:
    y, pred = np.asarray(y, dtype=float), np.asarray(pred, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot else math.nan
