"""Experiment harness: the four commands, replicate management, reports.

Each command is a pure function of (config, seed); re-running overwrites its
deterministic outputs with identical bytes. Wall-clock timings go to a
separate file so the deterministic artifacts stay reproducible.
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import logging
import math
import os
import shutil

import numpy as np

from . import (bob, config as cfgmod, controller, dataset as ds,
               design_space, oracle as orc)

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
    """Trailing moving average, the documented plateau-detection smoother."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    for i in range(len(v)):
        out[i] = v[max(0, i - window + 1):i + 1].mean()
    return out


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
    last_by_ep = {}
    for rec in trace.records:
        last_by_ep[rec.episode] = rec
    header = ["episode", "return_normalized"]
    header += [f"epsilon_{i + 1}" for i in range(n_secondary)]
    header.append("delta")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for ep, value in enumerate(norm):
            rec = last_by_ep[ep]
            eps = list(rec.epsilons) + [0.0] * (n_secondary - len(rec.epsilons))
            row = [ep, repr(float(value))]
            row += [repr(float(e)) for e in eps]
            row.append(repr(float(rec.delta)))
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_synth(config_path, seed: int, out_dir) -> str:
    """Generate a synthetic layerwise stats corpus; returns the CSV path."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    catalog = cfgmod.build_catalog(doc)
    contexts, model, count = cfgmod.build_synth_corpus(doc)
    _, raw_rows = orc.gen_synth_stats(catalog, contexts, model, count, seed,
                                      cfgmod.build_input_shape(doc))
    path = os.path.join(out_dir, "stats.csv")
    ds.write_stats(raw_rows, orc.TARGET_NAMES, path,
                   task_arity=len(contexts[0].task))
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
    kind = spec.get("kind", "none")
    if kind == "predictor":
        path = cfgmod.path_key(spec, "model_path", "secondary")
        model = bob.load_model(path)
        _check_columns(model, path, space.context)
        return controller.PredictorSecondary(model, space.context)
    if kind == "per_action":
        metric = cfgmod.number_list(
            cfgmod.require(spec, "metric", "secondary"), "secondary.metric")
        if len(metric) != len(space.catalog.actions):
            raise cfgmod.ConfigError(
                f"config key 'secondary.metric' has {len(metric)} entries, "
                f"but the catalog has {len(space.catalog.actions)} actions")
        return controller.CallableSecondary(
            functools.partial(_per_action_total, metric), 1)
    if kind == "none":
        return controller.CallableSecondary(_no_metrics, 0)
    raise cfgmod.ConfigError(f"unknown secondary kind {kind!r}")


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


def _log_layer_memo(secondary) -> None:
    """Log how many layers the predictor secondary has memoized in this
    process; the memos of worker processes (``jobs > 1``) are not counted."""
    if isinstance(secondary, controller.PredictorSecondary):
        log.debug("predictor layer memo: %d layers", len(secondary.memo))


def _run_one(doc, space, secondary, shaping, run):
    seed, weights = run
    # a fresh oracle per replicate: a noisy one restarts its noise stream
    oracle = cfgmod.build_oracle(doc, space.catalog)
    return controller.run_search(space, oracle, secondary, shaping, seed,
                                 weights=weights)


def _run_replicates(doc, space, secondary, shaping, jobs, runs):
    """One trace per ``(seed, weights)`` run, in order, on up to ``jobs``
    worker processes; ``weights`` is the arm, as in ``run_search``."""
    run = functools.partial(_run_one, doc, space, secondary, shaping)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, runs))
    return list(map(run, runs))


def _replicate_summary(oracle, secondary, trace, ref_size: float) -> dict:
    final_net = trace.final_network
    final_acc = (float(oracle.accuracy(final_net, list(trace.final_actions)))
                 if final_net is not None and final_net.depth else 0.0)
    raw = secondary.metrics(final_net, list(trace.final_actions)) \
        if final_net is not None and secondary.n_metrics else None
    summary = {
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
    return summary


def _aggregate(rows, keys) -> dict:
    agg = {}
    for key in keys:
        vals = [r[key] for r in rows if r[key] is not None]
        if vals:
            agg[key] = {"mean": float(np.mean(vals)),
                        "stddev": float(np.std(vals))}
    return agg


_AGG_KEYS = ("final_accuracy", "depth", "size_ratio", "episodes_to_95")


def cmd_search(config_path, seed: int, replicates: int, jobs: int,
               out_dir) -> dict:
    """R replicate searches; writes per-replicate traces, curves, a report."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    space = cfgmod.build_space(doc)
    oracle = cfgmod.build_oracle(doc, space.catalog)
    secondary = _build_secondary(doc, space)
    shaping = cfgmod.build_shaping(doc)
    n_sec = len(shaping.epsilon0)
    _check_metric_count(secondary, "shaping.epsilon0", n_sec)
    ref_size = network_size(reference_network(space,
                                              doc.get("reference_chain")))
    traces = _run_replicates(doc, space, secondary, shaping, jobs,
                             [(seed + i, None) for i in range(replicates)])

    rows, timings, failed, errors = [], [], [], []
    for trace in traces:
        tag = f"replicate_{trace.seed}"
        trace.export_csv(os.path.join(out_dir, f"trace_{tag}.csv"))
        write_curve(os.path.join(out_dir, f"curve_{tag}.csv"), trace, n_sec)
        rows.append(_replicate_summary(oracle, secondary, trace, ref_size))
        timings.append({"seed": trace.seed, "wall_time_s": trace.wall_time})
        if trace.error is not None:
            failed.append(trace.seed)
            errors.append(f"seed {trace.seed}: {trace.error}")
    report = {"replicates": rows, "aggregate": _aggregate(rows, _AGG_KEYS),
              "failed_seeds": failed}
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_json(os.path.join(out_dir, "timings.json"), timings)
    _log_layer_memo(secondary)
    if failed:
        raise HarnessError(f"replicates failed for seeds {failed}: "
                           + "; ".join(errors))
    return report


def cmd_compare(config_path, seed: int, replicates: int, jobs: int,
                out_dir) -> dict:
    """Shaped vs scalarized on identical seeds; reports the plateau speedup.

    Each arm is a ``(name, weights)`` entry, ``weights`` as in
    ``controller.run_search``: a new arm is one more entry in ``arms``. An
    arm's curves are ``curve_<name>_replicate_<seed>.csv``, and its report
    keys are ``<name>_episodes_to_95`` and ``mean_<name>``.
    """
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    space = cfgmod.build_space(doc)
    cfgmod.build_oracle(doc, space.catalog)  # fail before any replicate
    shaping = cfgmod.build_shaping(doc)
    n_sec = len(shaping.epsilon0)
    seeds = [seed + i for i in range(replicates)]
    weights = cfgmod.number_list(cfgmod.require(doc, "scalarized_weights"),
                                 "scalarized_weights")
    if not weights:
        raise cfgmod.ConfigError("config key 'scalarized_weights' must start "
                                 "with the primary's weight, got []")
    secondary = _build_secondary(doc, space)
    _check_metric_count(secondary, "shaping.epsilon0", n_sec)
    _check_metric_count(secondary, "scalarized_weights", len(weights) - 1)
    arms = [("shaped", None), ("scalarized", weights)]
    traces = iter(_run_replicates(doc, space, secondary, shaping, jobs,
                                  [(s, w) for _, w in arms for s in seeds]))
    _log_layer_memo(secondary)

    report = {"seeds": seeds}
    errors = {s: [] for s in seeds}
    for name, _ in arms:
        plateaus = []
        for trace in itertools.islice(traces, replicates):
            write_curve(os.path.join(
                out_dir, f"curve_{name}_replicate_{trace.seed}.csv"), trace,
                n_sec)
            plateaus.append(episodes_to_plateau(trace.episode_returns))
            if trace.error is not None:
                errors[trace.seed].append(
                    f"{name} seed {trace.seed}: {trace.error}")
        report[f"{name}_episodes_to_95"] = plateaus
        report[f"mean_{name}"] = float(np.mean(plateaus))
    shaped, scalar = report["mean_shaped"], report["mean_scalarized"]
    report["speedup_ratio"] = scalar / shaped if shaped else None
    failed = report["failed_seeds"] = [s for s in seeds if errors[s]]
    _write_json(os.path.join(out_dir, "compare_report.json"), report)
    if failed:
        raise HarnessError(f"replicates failed for seeds {failed}: "
                           + "; ".join(e for s in failed for e in errors[s]))
    return report
