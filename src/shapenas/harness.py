"""Experiment harness: the four commands, replicate management, reports.

Each command is a pure function of (config, seed); re-running overwrites its
deterministic outputs with identical bytes. Wall-clock timings go to a
separate file so the deterministic artifacts stay reproducible.
"""
from __future__ import annotations

import concurrent.futures
import copy
import functools
import itertools
import json
import logging
import math
import os
import shutil
from typing import Annotated

import numpy as np

from . import (bob, config as cfgmod, controller, dataset as ds,
               design_space, oracle as orc)
from .rules import OneOf, Range, check

log = logging.getLogger(__name__)


class HarnessError(RuntimeError):
    pass


def _ensure_out(out_dir, config_path) -> None:
    os.makedirs(out_dir, exist_ok=True)
    shutil.copyfile(config_path, os.path.join(out_dir, "config.yaml"))


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def network_size(net) -> float:
    """Parameter-count proxy: kernel area times channel fan for weight layers."""
    size = 0.0
    for shape, layer in net.layer_inputs():
        in_c = shape[0]
        if layer.block_kind == "conv":
            size += layer.kernel_size ** 2 * in_c * layer.channels
        elif layer.block_kind == "dwconv":
            size += layer.kernel_size ** 2 * in_c + in_c * layer.channels
        elif layer.block_kind == "dense":
            size += math.prod(shape) * layer.channels
    return size


def reference_network(space, reference_chain=None):
    """Reference for size ratios: a configured chain, or the greedy-largest
    one. A chain that is not a list of fitting catalog indices raises a
    ConfigError naming ``reference_chain``."""
    net = space.empty_network()
    if reference_chain is not None:
        n = len(space.catalog.actions)
        if not isinstance(reference_chain, list):
            raise cfgmod.ConfigError(
                f"config key 'reference_chain' must be a list of catalog "
                f"indices, got {reference_chain!r}")
        for a in reference_chain:
            if type(a) is not int or not 0 <= a < n:  # bools are not indices
                raise cfgmod.ConfigError(
                    f"config key 'reference_chain': {a!r} is not a catalog "
                    f"index (0 to {n - 1})")
            try:
                net = design_space.grow(net, space.catalog, a)
            except design_space.IllegalActionError as exc:
                raise cfgmod.ConfigError(
                    f"config key 'reference_chain': action {a} does not fit "
                    f"after {net.depth} layers: {exc}") from exc
        return net
    while True:
        legal = design_space.legal_actions(net, space.catalog)
        if not legal:
            return net
        grown = [design_space.grow(net, space.catalog, a) for a in legal]
        net = max(grown, key=network_size)


def normalize_curve(returns) -> np.ndarray:
    """Map per-episode returns to [0,1]; constant (and empty) curves map
    to all-ones."""
    r = np.asarray(returns, dtype=float)
    lo, hi = (r.min(), r.max()) if r.size else (0.0, 0.0)
    if hi == lo:
        return np.ones_like(r)
    return (r - lo) / (hi - lo)


def smooth(values, window: int = 3) -> np.ndarray:
    """Trailing moving average, the documented plateau-detection smoother:
    entry i is the mean of the last ``window`` values up to i (of all of
    them while i < window - 1). Each window is summed from 0.0, oldest term
    first, and divided by its count, in elementwise IEEE adds: the bits of
    numpy 2's ``np.mean`` of each slice (which also starts from 0.0, so an
    all -0.0 window gives 0.0), but in one pass over the curve and without
    depending on a numpy version's reduction order."""
    v = np.asarray(values, dtype=float)
    # window - 1 leading zeros stand in for the 0.0 each sum starts from
    padded = np.concatenate([np.zeros(window - 1), v])
    total = np.zeros(len(v))
    for j in range(window):
        total += padded[j:j + len(v)]
    return total / np.minimum(np.arange(1, len(v) + 1), window)


def episodes_to_plateau(returns, fraction: float = 0.95,
                        window: int = 3) -> int:
    """First episode (1-based) whose smoothed normalized return reaches
    ``fraction`` of the final smoothed value; 0 for an empty curve."""
    sm = smooth(normalize_curve(returns), window)
    if not sm.size:
        return 0
    level = fraction * sm[-1]
    hits = np.nonzero(sm >= level)[0]
    return int(hits[0]) + 1 if len(hits) else len(sm)


def write_curve(path, trace, n_secondary: int) -> None:
    """Per-episode curve rows: episode,return_normalized,epsilon_1..k,delta."""
    norm = normalize_curve(trace.episode_returns)
    last_by_ep = {rec.episode: rec for rec in trace.records}
    header = ["episode", "return_normalized",
              *(f"epsilon_{i + 1}" for i in range(n_secondary)), "delta"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for ep, value in enumerate(norm):
            rec = last_by_ep[ep]
            eps = list(rec.epsilons) + [0.0] * (n_secondary - len(rec.epsilons))
            row = [repr(float(v)) for v in (value, *eps, rec.delta)]
            fh.write(",".join([str(ep), *row]) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_synth(config_path, seed: int, out_dir) -> str:
    """Generate a synthetic layerwise stats corpus; returns the CSV path."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    catalog = cfgmod.build_catalog(doc)
    contexts, model, count = cfgmod.build_synth_corpus(doc)
    rows = orc.gen_synth_stats(catalog, contexts, model, count, seed,
                               cfgmod.build_input_shape(doc))
    path = os.path.join(out_dir, "stats.csv")
    ds.write_stats(rows, orc.TARGET_NAMES, path)
    return path


def cmd_train_predictor(config_path, seed: int, out_dir) -> dict:
    """Ingest -> oversample -> fit -> score; writes model.json + report."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    bob_cfg, stats_path, fraction, factor = cfgmod.build_predictor_cfg(doc)
    data = ds.ingest_stats(stats_path)
    train, holdout = ds.train_holdout_split(data, fraction, seed)
    if factor > 1.0:
        train = ds.oversample(train, factor, seed)
    # named here, where the key is known; learn_meta rejects a split with
    # no feasible row itself
    n_feasible = int(np.sum(train.feasible))
    if 0 < n_feasible < bob_cfg.min_samples:
        raise cfgmod.ConfigError(f"config key 'predictor.min_samples': need "
                                 f">= {bob_cfg.min_samples} feasible rows, "
                                 f"got {n_feasible}")
    model = bob.learn_meta(train, bob_cfg, seed)
    report = bob.score(model, holdout)
    model_path = os.path.join(out_dir, "model.json")
    bob.save_model(model, model_path)
    report_doc = {"seed": seed, "model_path": model_path,
                  "n_train": len(train), "n_holdout": len(holdout),
                  "scores": report}
    _write_json(os.path.join(out_dir, "predictor_report.json"), report_doc)
    return report_doc


def _per_action_total(metric, net, actions):
    return [sum(metric[a] for a in actions)]


def _no_metrics(net, actions):
    return []


def _build_secondary(doc, space):
    """The configured secondary source; module-level callables, so that it
    pickles into worker processes."""
    spec = doc.get("secondary", {"kind": "none"})
    # the keys of all kinds: a kind ignores the others' keys
    cfgmod.check_keys(spec, "secondary", ("kind", "model_path", "metric"))
    kinds = Annotated[str, OneOf(("predictor", "per_action", "none"))]
    kind = cfgmod.check(spec.get("kind", "none"), kinds, "secondary.kind")
    if kind == "predictor":
        path = cfgmod.path_key(spec, "model_path", "secondary")
        model = bob.load_model(path)
        _check_columns(model, path, space.context)
        return controller.PredictorSecondary(model, space.context)
    if kind == "per_action":
        metric = cfgmod.check(cfgmod.require(spec, "metric", "secondary"),
                              tuple[float, ...], "secondary.metric")
        if len(metric) != len(space.catalog.actions):
            raise cfgmod.ConfigError(
                f"config key 'secondary.metric' has {len(metric)} entries, "
                f"but the catalog has {len(space.catalog.actions)} actions")
        return controller.CallableSecondary(
            functools.partial(_per_action_total, metric), 1)
    return controller.CallableSecondary(_no_metrics, 0)


def _check_columns(model, path, context) -> None:
    """The predictor must read the rows ``parse_network`` builds for the
    search context; a mismatch is named here, not at the first step."""
    want = design_space.feature_columns(len(context.task))
    if model.columns == want:
        return
    i = next((i for i, (a, b) in enumerate(zip(model.columns, want))
              if a != b), min(len(model.columns), len(want)))
    got, need = (repr(cols[i]) if i < len(cols) else "missing"
                 for cols in (model.columns, want))
    raise cfgmod.ConfigError(
        f"config key 'secondary.model_path': the model in {path} does not "
        f"fit the search context: its feature column {i} is {got}, the "
        f"context's is {need} (the context has {len(context.task)} task "
        f"values and the model {len(model.columns)} columns)")


def _check_metric_count(secondary, key: str, count: int) -> None:
    if count != secondary.n_metrics:
        raise cfgmod.ConfigError(
            f"config key '{key}' is for {count} secondary metrics, but the "
            f"secondary supplies {secondary.n_metrics}")


def _run_one(space, oracle, secondary, shaping, run):
    seed, weights = run
    # a fresh copy per replicate: a noisy oracle restarts its noise stream
    return controller.run_search(space, copy.deepcopy(oracle), secondary,
                                 shaping, seed, weights=weights)


def _replicate_summary(oracle, secondary, trace, ref_size: float) -> dict:
    final_net = trace.final_network
    final_acc = (float(oracle.accuracy(final_net, trace.final_actions))
                 if final_net is not None and final_net.depth else 0.0)
    raw = secondary.metrics(final_net, trace.final_actions) \
        if final_net is not None and secondary.n_metrics else None
    return {
        "seed": trace.seed,
        "final_accuracy": final_acc,
        "final_metrics": None if raw is None else [float(v) for v in raw],
        "depth": 0 if final_net is None else final_net.depth,
        "size_ratio": (network_size(final_net) / ref_size
                       if final_net is not None and ref_size else 0.0),
        "episodes_to_95": episodes_to_plateau(trace.episode_returns),
        "episodes": len(trace.episode_returns),
        "error": trace.error,
    }


def _aggregate(rows, keys) -> dict:
    agg = {}
    for key in keys:
        vals = [r[key] for r in rows if r[key] is not None]
        if vals:
            agg[key] = {"mean": float(np.mean(vals)),
                        "stddev": float(np.std(vals))}
    return agg


class _Command:
    """What ``search`` and ``compare`` share, their one run path: the config
    read and the search's parts built once per command, and ``run``."""

    def __init__(self, config_path, seed, replicates, jobs, out_dir):
        for name, count in (("replicates", replicates), ("jobs", jobs)):
            # below 1: an empty or NaN report
            check(count, Annotated[int, Range(1)], name)
        self.doc = doc = cfgmod.load_config(config_path)
        _ensure_out(out_dir, config_path)
        self.seeds = [seed + i for i in range(replicates)]
        self.jobs, self.out_dir = jobs, out_dir
        self.space = space = cfgmod.build_space(doc)
        self.oracle = cfgmod.build_oracle(doc, space.catalog)
        self.secondary = _build_secondary(doc, space)
        self.shaping = cfgmod.build_shaping(doc)
        _check_metric_count(self.secondary, "shaping.epsilon0",
                            len(self.shaping.epsilon0))

    def run(self, arms, report) -> dict:
        """Runs each ``(name, weights)`` arm at each of ``seeds`` in one
        fan-out; writes its ``curve_<name>_replicate_<seed>.csv``
        (unnamed: ``curve_replicate_<seed>.csv``), returns ``report(traces
        by arm, failed seeds)``, and then raises if a replicate failed."""
        runs = [(s, weights) for _, weights in arms for s in self.seeds]
        run = functools.partial(_run_one, self.space, self.oracle,
                                self.secondary, self.shaping)
        if self.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(self.jobs) as pool:
                results = iter(list(pool.map(run, runs)))
        else:
            results = map(run, runs)
        traces, errors = {}, {s: [] for s in self.seeds}
        for name, _ in arms:
            traces[name] = list(itertools.islice(results, len(self.seeds)))
            for trace in traces[name]:
                write_curve(os.path.join(self.out_dir, "_".join(filter(None, (
                    "curve", name, f"replicate_{trace.seed}.csv")))), trace,
                    len(self.shaping.epsilon0))
                if trace.error is not None:  # lstrip: an unnamed arm
                    errors[trace.seed].append(
                        f"{name} seed {trace.seed}: {trace.error}".lstrip())
        failed = [s for s in self.seeds if errors[s]]
        result = report(traces, failed)
        if isinstance(self.secondary, controller.PredictorSecondary):
            # the memos of worker processes (jobs > 1) are not counted
            log.debug("predictor layer memo: %d layers",
                      len(self.secondary.memo))
        if failed:
            raise HarnessError(f"replicates failed for seeds {failed}: "
                               + "; ".join(e for s in failed
                                           for e in errors[s]))
        return result


_AGG_KEYS = ("final_accuracy", "depth", "size_ratio", "episodes_to_95")


def cmd_search(config_path, seed: int, replicates: int, jobs: int,
               out_dir) -> dict:
    """R replicate searches, ``compare``'s shaped arm alone; writes
    per-replicate traces, curves and a report."""
    cmd = _Command(config_path, seed, replicates, jobs, out_dir)
    ref_size = network_size(reference_network(
        cmd.space, cmd.doc.get("reference_chain")))

    def report(traces, failed):
        rows, timings = [], []
        for trace in traces[""]:
            trace.export_csv(os.path.join(
                out_dir, f"trace_replicate_{trace.seed}.csv"))
            rows.append(_replicate_summary(cmd.oracle, cmd.secondary, trace,
                                           ref_size))
            timings.append({"seed": trace.seed,
                            "wall_time_s": trace.wall_time})
        doc = {"replicates": rows, "aggregate": _aggregate(rows, _AGG_KEYS),
               "failed_seeds": failed}
        _write_json(os.path.join(out_dir, "report.json"), doc)
        _write_json(os.path.join(out_dir, "timings.json"), timings)
        return doc

    return cmd.run([("", None)], report)


def cmd_compare(config_path, seed: int, replicates: int, jobs: int,
                out_dir) -> dict:
    """Shaped vs scalarized on identical seeds; reports the plateau speedup.

    Each arm is a ``(name, weights)`` entry, ``weights`` as in
    ``controller.run_search``: a new arm is one more entry in ``arms``. An
    arm's curves are ``curve_<name>_replicate_<seed>.csv``, and its report
    keys are ``<name>_episodes_to_95`` and ``mean_<name>``.
    """
    cmd = _Command(config_path, seed, replicates, jobs, out_dir)
    weights = tuple(cfgmod.check(cfgmod.require(cmd.doc, "scalarized_weights"),
                                 tuple[float, ...], "scalarized_weights"))
    if not weights:
        raise cfgmod.ConfigError("config key 'scalarized_weights' must start "
                                 "with the primary's weight, got []")
    _check_metric_count(cmd.secondary, "scalarized_weights", len(weights) - 1)
    arms = [("shaped", None), ("scalarized", weights)]

    def report(traces, failed):
        doc = {"seeds": cmd.seeds, "failed_seeds": failed}
        for name, _ in arms:
            plateaus = [episodes_to_plateau(trace.episode_returns)
                        for trace in traces[name]]
            doc[f"{name}_episodes_to_95"] = plateaus
            doc[f"mean_{name}"] = float(np.mean(plateaus))
        shaped, scalar = doc["mean_shaped"], doc["mean_scalarized"]
        doc["speedup_ratio"] = scalar / shaped if shaped else None
        _write_json(os.path.join(out_dir, "compare_report.json"), doc)
        return doc

    return cmd.run(arms, report)
