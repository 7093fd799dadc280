"""Experiment harness: the four commands, replicate management, reports.

Each command is a pure function of (config, seed); re-running overwrites its
deterministic outputs with identical bytes. Wall-clock timings go to a
separate file so the deterministic artifacts stay reproducible.
"""
from __future__ import annotations

import concurrent.futures
import functools
import json
import logging
import os
import shutil

import numpy as np

from . import bob, config as cfgmod, controller, dataset as ds, oracle as orc
from .design_space import parse_network

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
    shape = net.input_shape
    for layer in net.layers:
        in_c = shape[0]
        if layer.block_kind == "conv":
            size += layer.kernel_size ** 2 * in_c * layer.channels
        elif layer.block_kind == "dwconv":
            size += layer.kernel_size ** 2 * in_c + in_c * layer.channels
        elif layer.block_kind == "dense":
            size += shape[0] * shape[1] * shape[2] * layer.channels
        shape = (layer.channels, layer.height, layer.width)
    return size


def reference_network(space, reference_chain=None):
    """Reference for size ratios: a configured chain, or the greedy-largest one."""
    from .design_space import apply_action, legal_actions
    net = space.empty_network()
    if reference_chain is not None:
        for a in reference_chain:
            net = apply_action(net, space.catalog.actions[a])
        return net
    while True:
        legal = legal_actions(net, space.catalog)
        if not legal:
            return net
        grown = [apply_action(net, space.catalog.actions[a]) for a in legal]
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
    contexts = cfgmod.build_contexts(doc)
    model = cfgmod.build_synth_stats_model(doc)
    synth_stats = doc.get("synth_stats", {})
    cfgmod.check_keys(synth_stats, "synth_stats", ("count",))
    count = synth_stats.get("count", 1000)
    input_shape = tuple(doc.get("input_shape", (3, 16, 16)))
    _, raw_rows = orc.gen_synth_stats(catalog, contexts, model, count, seed,
                                      input_shape)
    path = os.path.join(out_dir, "stats.csv")
    ds.write_stats(raw_rows, orc.TARGET_NAMES, path, has_processor=True,
                   task_arity=len(contexts[0].task))
    return path


def cmd_train_predictor(config_path, seed: int, out_dir) -> dict:
    """Ingest -> oversample -> fit -> score; writes model.json + report."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    pred_doc = doc.get("predictor", {})
    stats_path = pred_doc.get("stats_path")
    if not stats_path:
        raise cfgmod.ConfigError("missing required config key "
                                 "'predictor.stats_path'")
    data = ds.ingest_stats(stats_path)
    train, holdout = ds.train_holdout_split(
        data, pred_doc.get("test_fraction", 0.25), seed)
    factor = pred_doc.get("oversample_factor", 1.0)
    if factor > 1.0:
        train = ds.oversample(train, factor, seed)
    model = bob.learn_meta(train, cfgmod.build_predictor_cfg(doc), seed)
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
        model = bob.load_model(cfgmod.require(spec, "model_path"))
        return controller.PredictorSecondary(model, space.context)
    if kind == "per_action":
        metric = list(cfgmod.require(spec, "metric"))
        return controller.CallableSecondary(
            functools.partial(_per_action_total, metric), 1)
    if kind == "none":
        return controller.CallableSecondary(_no_metrics, 0)
    raise cfgmod.ConfigError(f"unknown secondary kind {kind!r}")


def _check_metric_count(secondary, key: str, count: int) -> None:
    if count != secondary.n_metrics:
        raise cfgmod.ConfigError(
            f"config key '{key}' is for {count} secondary metrics, but the "
            f"secondary supplies {secondary.n_metrics}")


def _log_row_cache(secondary) -> None:
    """Log the predictor row cache's hits and misses in this process; the
    caches of worker processes (``jobs > 1``) are not counted."""
    if isinstance(secondary, controller.PredictorSecondary):
        log.debug("predictor row cache: %d hits, %d misses",
                  secondary.model.cache_hits, secondary.model.cache_misses)


def _run_one(doc, space, secondary, shaping, seed, weights):
    # a fresh oracle per replicate: a noisy one restarts its noise stream
    return controller.run_search(space, cfgmod.build_oracle(doc), secondary,
                                 shaping, seed, weights=weights)


def _run_replicates(doc, space, secondary, shaping, jobs, seeds, weights):
    """One trace per (seed, weights) pair, in order; ``weights`` None runs
    the shaped search. Up to ``jobs`` worker processes."""
    run = functools.partial(_run_one, doc, space, secondary, shaping)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, seeds, weights))
    return list(map(run, seeds, weights))


def _replicate_summary(doc, space, oracle, secondary, trace) -> dict:
    final_net = trace.final_network
    final_acc = (float(oracle.accuracy(final_net, list(trace.final_actions)))
                 if final_net is not None and final_net.depth else 0.0)
    raw = secondary.metrics(final_net, list(trace.final_actions)) \
        if final_net is not None and getattr(secondary, "n_metrics", 0) else None
    ref = reference_network(space, doc.get("reference_chain"))
    ref_size = network_size(ref)
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
    oracle = cfgmod.build_oracle(doc)
    secondary = _build_secondary(doc, space)
    shaping = cfgmod.build_shaping(doc)
    n_sec = len(shaping.epsilon0)
    _check_metric_count(secondary, "shaping.epsilon0", n_sec)
    seeds = [seed + i for i in range(replicates)]
    traces = _run_replicates(doc, space, secondary, shaping, jobs, seeds,
                             [None] * replicates)

    rows, timings, failed = [], [], []
    for trace in traces:
        tag = f"replicate_{trace.seed}"
        trace.export_csv(os.path.join(out_dir, f"trace_{tag}.csv"))
        write_curve(os.path.join(out_dir, f"curve_{tag}.csv"), trace, n_sec)
        rows.append(_replicate_summary(doc, space, oracle, secondary, trace))
        timings.append({"seed": trace.seed, "wall_time_s": trace.wall_time})
        if trace.error is not None:
            failed.append(trace.seed)
    report = {"replicates": rows, "aggregate": _aggregate(rows, _AGG_KEYS),
              "failed_seeds": failed}
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_json(os.path.join(out_dir, "timings.json"), timings)
    _log_row_cache(secondary)
    if failed:
        raise HarnessError(f"replicates failed for seeds {failed}")
    return report


def cmd_compare(config_path, seed: int, replicates: int, jobs: int,
                out_dir) -> dict:
    """Shaped vs scalarized on identical seeds; reports the plateau speedup."""
    doc = cfgmod.load_config(config_path)
    _ensure_out(out_dir, config_path)
    space = cfgmod.build_space(doc)
    shaping = cfgmod.build_shaping(doc)
    n_sec = len(shaping.epsilon0)
    seeds = [seed + i for i in range(replicates)]
    weights = tuple(cfgmod.require(doc, "scalarized_weights"))
    secondary = _build_secondary(doc, space)
    _check_metric_count(secondary, "shaping.epsilon0", n_sec)
    _check_metric_count(secondary, "scalarized_weights", len(weights) - 1)
    traces = _run_replicates(doc, space, secondary, shaping, jobs, seeds * 2,
                             [None] * replicates + [weights] * replicates)
    _log_row_cache(secondary)
    shaped, scalar = traces[:replicates], traces[replicates:]

    failed = []
    shaped_ep, scalar_ep = [], []
    for ts, tc in zip(shaped, scalar):
        tag = f"replicate_{ts.seed}"
        write_curve(os.path.join(out_dir, f"curve_shaped_{tag}.csv"), ts,
                    n_sec)
        write_curve(os.path.join(out_dir, f"curve_scalarized_{tag}.csv"), tc,
                    n_sec)
        shaped_ep.append(episodes_to_plateau(ts.episode_returns))
        scalar_ep.append(episodes_to_plateau(tc.episode_returns))
        for t in (ts, tc):
            if t.error is not None:
                failed.append(t.seed)
    mean_shaped = float(np.mean(shaped_ep))
    mean_scalar = float(np.mean(scalar_ep))
    report = {
        "seeds": seeds,
        "shaped_episodes_to_95": shaped_ep,
        "scalarized_episodes_to_95": scalar_ep,
        "mean_shaped": mean_shaped,
        "mean_scalarized": mean_scalar,
        "speedup_ratio": (mean_scalar / mean_shaped if mean_shaped else None),
        "failed_seeds": failed,
    }
    _write_json(os.path.join(out_dir, "compare_report.json"), report)
    if failed:
        raise HarnessError(f"replicates failed for seeds {failed}")
    return report
