"""Accuracy oracles and synthetic ground-truth stats generation.

Real candidate training and on-device measurement are replaced by two
pluggable accuracy sources (a synthetic utility model and a tabular lookup)
plus a generator of layerwise execution stats with a known linear ground
truth, which doubles as the brute-force oracle for predictor fidelity tests.
"""
from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import dataset as ds
from .design_space import (ActionCatalog, CandidateNetwork, ContextSpec,
                           grow, legal_actions)
from .rules import FINITE, POSITIVE, Range, check, check_fields


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

    base_utility: tuple[Annotated[float, FINITE], ...]  # per action
    diminishing: Annotated[float, FINITE] = 0.9
    interaction_bonus: tuple[tuple[int, int, Annotated[float, FINITE]],
                             ...] = ()  # ((prev, curr, bonus), ...)
    noise_sigma: Annotated[float, Range(0, ends="[)")] = 0.0
    accuracy_cap: Annotated[float, POSITIVE] = 1.0
    min_depth: Annotated[int, Range(0)] = 0
    seed: Annotated[int, Range(0)] = 0

    __post_init__ = check_fields


class SyntheticOracle:
    """Accuracy of a chain under a ``SyntheticTaskSpec``.

    ``deterministic`` is true when ``noise_sigma`` is 0: the accuracy is
    then a function of the chain alone, and a search scores each chain
    once per run. A noisy oracle draws from its own generator on every
    call, so a search asks it again on every step.
    """

    def __init__(self, spec: SyntheticTaskSpec):
        self.spec = spec
        self.deterministic = bool(spec.noise_sigma == 0)
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
    A lookup is a function of the chain, so the oracle is ``deterministic``.
    """

    deterministic = True

    def __init__(self, path):
        self.table = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if not {"chain", "accuracy"} <= set(reader.fieldnames or ()):
                raise ValueError(f"{path}: expected 'chain,accuracy,...' header")
            for row in reader:
                chain, raw = row["chain"], row["accuracy"]
                at = f"{path}:{reader.line_num}"
                if chain in self.table:
                    raise ValueError(f"{at}: chain {chain!r} is listed twice")
                with contextlib.suppress(TypeError, ValueError):
                    raw = float(raw)  # else check names it; None: no cell
                self.table[chain] = check(raw, Annotated[float, FINITE],
                                          f"{at}: column 'accuracy'")

    def accuracy(self, net: CandidateNetwork, actions) -> float:
        key = encode_chain(actions)
        if key not in self.table:
            raise TabularLookupError(f"no benchmark row for chain {key!r}")
        return self.table[key]


# ---------------------------------------------------------------------------
# Synthetic layerwise stats with known ground truth
# ---------------------------------------------------------------------------

_COEFF = Annotated[float, Range(0, ends="[)")]  # a cost coefficient


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

    latency_coeffs: tuple[_COEFF, _COEFF, _COEFF, _COEFF] = (0.5, 0.02, 0.05,
                                                             0.001)
    memory_coeffs: tuple[_COEFF, _COEFF] = (0.1, 0.004)
    context_multipliers: tuple[Annotated[float, Range(0, ends="()")],
                               ...] = (1.0,)
    infeasibility_rule: bool = True

    __post_init__ = check_fields

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


def random_network(catalog: ActionCatalog, input_shape,
                   rng) -> CandidateNetwork:
    """A random shape-valid chain of random depth."""
    depth = int(rng.integers(1, catalog.max_depth + 1))
    net = CandidateNetwork(input_shape)
    for _ in range(depth):
        legal = legal_actions(net, catalog)
        if not legal:
            break
        net = grow(net, catalog, int(rng.choice(legal)))
    return net


def gen_synth_stats(catalog: ActionCatalog, contexts, true_model: SynthStatsModel,
                    count: int, seed: int, input_shape=(3, 16, 16)) -> list:
    """Generate ``count`` layerwise stats records from the linear ground
    truth: the rows ``write_stats`` writes, which ``ingest_stats`` reads
    back as a corpus. Deterministic given the seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(true_model.context_multipliers) != len(contexts):
        raise ValueError("one context multiplier per context required")
    for i, ctx in enumerate(contexts):
        if len(ctx.task) != len(contexts[0].task):
            raise ValueError(f"context {i} has {len(ctx.task)} task values, "
                             f"but context 0 has {len(contexts[0].task)}")
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        net = random_network(catalog, input_shape, rng)
        ci = int(rng.integers(len(contexts)))
        ctx, mult = contexts[ci], true_model.context_multipliers[ci]
        for shape, layer in net.layer_inputs():
            if len(rows) >= count:
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
            rows.append(row)
    return rows
