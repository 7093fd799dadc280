"""Accuracy oracles and synthetic ground-truth stats generation.

Real candidate training and on-device measurement are replaced by two
pluggable accuracy sources (a synthetic utility model and a tabular lookup)
plus a generator of layerwise execution stats with a known linear ground
truth, which doubles as the brute-force oracle for predictor fidelity tests.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from .design_space import (ActionCatalog, CandidateNetwork, ContextSpec,
                           encode_context, encode_layer, feature_columns,
                           grow, legal_actions)


def encode_chain(actions) -> str:
    """Canonical key for an action-index chain, e.g. ``0-2-1``."""
    return "-".join(str(a) for a in actions) if len(actions) else "empty"


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Accuracy as cap-saturated sum of per-action utilities.

    The j-th use of the same action contributes ``base * diminishing**j``;
    consecutive pairs can add interaction bonuses. Networks shallower than
    ``min_depth`` score 0, which makes the primary signal sparse.
    Deterministic when ``noise_sigma`` is 0.
    """

    base_utility: tuple[float, ...]  # indexed by catalog action
    diminishing: float = 0.9
    interaction_bonus: tuple = ()  # ((prev, curr, bonus), ...)
    noise_sigma: float = 0.0
    accuracy_cap: float = 1.0
    min_depth: int = 0
    seed: int = 0


class SyntheticOracle:
    def __init__(self, spec: SyntheticTaskSpec):
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._bonus = {(p, c): b for p, c, b in spec.interaction_bonus}

    def accuracy(self, net: CandidateNetwork, actions) -> float:
        spec = self.spec
        if len(actions) == 0 or len(actions) < spec.min_depth:
            return 0.0
        utility, diminishing, bonus = (spec.base_utility, spec.diminishing,
                                       self._bonus)
        raw = 0.0
        counts: dict[int, int] = {}
        prev = None
        for a in actions:
            n = counts.get(a, 0)
            raw += utility[a] * (diminishing ** n)
            counts[a] = n + 1
            if prev is not None:
                raw += bonus.get((prev, a), 0.0)
            prev = a
        if spec.noise_sigma > 0:
            raw += float(self._rng.normal(0.0, spec.noise_sigma))
        return float(min(spec.accuracy_cap, max(0.0, raw)))


class TabularLookupError(KeyError):
    pass


class TabularOracle:
    """Exact accuracy lookup keyed by the encoded action chain.

    File format: CSV with header ``chain,accuracy[,latency_<i>...]``; the
    latency columns (one per context) ride along for benchmark-style use.
    """

    def __init__(self, path):
        self.table = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "chain" not in reader.fieldnames \
                    or "accuracy" not in reader.fieldnames:
                raise ValueError(f"{path}: expected 'chain,accuracy,...' header")
            for row in reader:
                self.table[row["chain"]] = float(row["accuracy"])

    def accuracy(self, net: CandidateNetwork, actions) -> float:
        key = encode_chain(actions)
        if key not in self.table:
            raise TabularLookupError(f"no benchmark row for chain {key!r}")
        return self.table[key]


# ---------------------------------------------------------------------------
# Synthetic layerwise stats with known ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthStatsModel:
    """Linear layerwise cost model with a memory-budget infeasibility rule.

    Per-layer latency (ms) is
    ``(c0 + c1*kernel^2 + c2*channels + c3*output_volume) * multiplier`` and
    memory (MB) is ``(m0 + m1*output_volume) * multiplier`` with one
    multiplier per context. A layer is infeasible on a context when its
    memory estimate exceeds the context's memory budget; rule can be
    disabled.
    """

    latency_coeffs: tuple[float, float, float, float] = (0.5, 0.02, 0.05, 0.001)
    memory_coeffs: tuple[float, float] = (0.1, 0.004)
    context_multipliers: tuple[float, ...] = (1.0,)
    infeasibility_rule: bool = True

    def layer_latency(self, layer, multiplier: float) -> float:
        c0, c1, c2, c3 = self.latency_coeffs
        vol = math.prod(layer.output_shape)
        return (c0 + c1 * layer.kernel_size ** 2 + c2 * layer.channels
                + c3 * vol) * multiplier

    def layer_memory(self, layer, multiplier: float) -> float:
        m0, m1 = self.memory_coeffs
        vol = math.prod(layer.output_shape)
        return (m0 + m1 * vol) * multiplier

    def layer_feasible(self, layer, ctx: ContextSpec, multiplier: float) -> bool:
        if not self.infeasibility_rule:
            return True
        return self.layer_memory(layer, multiplier) <= ctx.memory_mb


TARGET_NAMES = ["Execution time", "Memory Usage"]


def random_network(catalog: ActionCatalog, input_shape, rng) -> tuple:
    """A random shape-valid chain of random depth; returns (net, actions)."""
    depth = int(rng.integers(1, catalog.max_depth + 1))
    net = CandidateNetwork(input_shape)
    actions = []
    for _ in range(depth):
        legal = legal_actions(net, catalog)
        if not legal:
            break
        a = int(rng.choice(legal))
        net = grow(net, catalog, a)
        actions.append(a)
    return net, actions


def gen_synth_stats(catalog: ActionCatalog, contexts, true_model: SynthStatsModel,
                    count: int, seed: int,
                    input_shape=(3, 16, 16)) -> tuple[ds.MetaDataset, list]:
    """Generate ``count`` layerwise stats rows from the linear ground truth.

    Returns the encoded dataset plus the raw rows (ready for write_stats).
    Deterministic given the seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(true_model.context_multipliers) != len(contexts):
        raise ValueError("one context multiplier per context required")
    rng = np.random.default_rng(seed)
    raw_rows, X_rows, Y_rows = [], [], []
    while len(raw_rows) < count:
        net, _ = random_network(catalog, input_shape, rng)
        ci = int(rng.integers(len(contexts)))
        ctx, mult = contexts[ci], true_model.context_multipliers[ci]
        ctx_vec = encode_context(ctx)
        for shape, layer in net.layer_inputs():
            if len(raw_rows) >= count:
                break
            feasible = true_model.layer_feasible(layer, ctx, mult)
            row = ds.stats_record(layer, shape, ctx)
            row["feasible"] = int(feasible)
            if feasible:
                targets = [true_model.layer_latency(layer, mult),
                           true_model.layer_memory(layer, mult)]
            else:
                targets = ["", ""]
            row.update(zip(TARGET_NAMES, targets))
            raw_rows.append(row)
            X_rows.append(encode_layer(layer, shape) + ctx_vec)
            Y_rows.append(targets if feasible else [np.nan, np.nan])

    data = ds.MetaDataset(feature_columns(len(contexts[0].task)),
                          list(TARGET_NAMES), X_rows, Y_rows,
                          [r["feasible"] for r in raw_rows])
    return data, raw_rows
