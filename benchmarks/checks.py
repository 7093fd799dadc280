"""Independent output checks. None calls the program function it checks.

Each check raises CheckError on the first wrong value, naming the file and
row, except ``phi_in_bound``, which returns a verdict because the search-mlp
workload counts its violations as failed replicates instead.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

import truth

EPS_REL_TOL = 1e-9       # epsilon closed form, as in acceptance test A4
TARGET_REL_TOL = 1e-9    # stats.csv targets against the cost model
MIN_R2 = 0.9             # per target on fresh rows (A3's bound)
MIN_GATE_AGREEMENT = 0.95  # gate against the memory rule (A3's bound)
LATENCY_REL_TOL = 0.20   # predicted against true network latency ...
LATENCY_ABS_TOL_MS = 0.5  # ... whichever of the two is larger
PHI_MARGIN = 0.10        # |phi| may exceed 1/(1-gamma) by this share


class CheckError(AssertionError):
    pass


def ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _context_index(row, contexts) -> int:
    key = (float(row["Cores"]), float(row["Compute Units"]),
           float(row["Memory"]), float(row["Clock Freq."]),
           float(row["Memory B/w"]), row["Processor Kind"])
    for i, c in enumerate(contexts):
        if key == (c["cores"], c["compute_units"], c["memory_mb"],
                   c["clock_freq_mhz"], c["memory_bandwidth"],
                   c.get("processor_kind", "cpu")):
            return i
    raise CheckError(f"stats row names no configured context: {key}")


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-12)


def check_stats(rows, doc, where="stats.csv") -> None:
    """Every row's feasible flag and targets follow the configured cost
    model and memory rule."""
    cost = truth.CostModel(doc["synth_stats_model"])
    ensure(len(rows) == doc["synth_stats"]["count"],
           f"{where}: {len(rows)} rows, config asks for "
           f"{doc['synth_stats']['count']}")
    for line, row in enumerate(rows, start=2):
        ci = _context_index(row, doc["contexts"])
        vol = float(row["Output Volume"])
        ensure(vol == float(row["Channels"]) * float(row["Height"])
               * float(row["Width"]), f"{where}:{line}: output volume")
        feasible = cost.feasible(vol, ci, doc["contexts"][ci]["memory_mb"])
        ensure(row["feasible"] == str(int(feasible)),
               f"{where}:{line}: feasible={row['feasible']}, memory rule "
               f"says {int(feasible)}")
        if not feasible:
            ensure(row["Execution time"] == row["Memory Usage"] == "",
                   f"{where}:{line}: infeasible row carries targets")
            continue
        lat = cost.latency(float(row["Kernel Size"]), float(row["Channels"]),
                           vol, ci)
        ensure(_close(float(row["Execution time"]), lat, TARGET_REL_TOL),
               f"{where}:{line}: latency {row['Execution time']} != {lat}")
        ensure(_close(float(row["Memory Usage"]), cost.memory(vol, ci),
                      TARGET_REL_TOL), f"{where}:{line}: memory usage")


def fresh_layer_rows(doc, columns, n_chains: int, seed: int):
    """Feature rows, true targets and true feasibility for layers of random
    chains built by the benchmark itself, spread over every context."""
    cost = truth.CostModel(doc["synth_stats_model"])
    rng = np.random.default_rng(seed)
    X, Y, feasible = [], [], []
    for _ in range(n_chains):
        ci = int(rng.integers(len(doc["contexts"])))
        ctx = doc["contexts"][ci]
        actions = truth.random_chain(doc["catalog"], doc["input_shape"], rng)
        for template, in_shape, out in truth.chain_layers(
                actions, doc["catalog"], doc["input_shape"]):
            vol = out[0] * out[1] * out[2]
            k = truth.layer_params(template)[0]
            X.append(truth.layer_features(template, in_shape, out, ctx,
                                          columns))
            Y.append((cost.latency(k, out[0], vol, ci), cost.memory(vol, ci)))
            feasible.append(cost.feasible(vol, ci, ctx["memory_mb"]))
    return np.asarray(X), np.asarray(Y), np.asarray(feasible)


def check_model(model: dict, doc, seed: int) -> dict:
    """R^2 per target and gate agreement of a saved model on fresh rows."""
    X, Y, feasible = fresh_layer_rows(doc, model["columns"], 300, seed)
    gate, pred = truth.model_predict(model, X)
    scores = {name: truth.r2(Y[feasible, t], pred[feasible, t])
              for t, name in enumerate(model["target_names"])}
    agreement = float(np.mean(gate == feasible))
    for name, value in scores.items():
        ensure(value >= MIN_R2, f"model R^2 {value:.4f} on {name!r} "
               f"below {MIN_R2} on {int(feasible.sum())} fresh rows")
    ensure(agreement >= MIN_GATE_AGREEMENT,
           f"gate agrees with the memory rule on {agreement:.3f} of "
           f"{len(X)} fresh rows, need {MIN_GATE_AGREEMENT}")
    return {"r2": scores, "gate_agreement": agreement, "rows": len(X)}


def episode_chains(rows, where):
    """Yield (row, chain so far) with the chain rebuilt from each episode's
    actions; steps must run 0, 1, 2, ... within an episode."""
    chain, episode = [], None
    for line, row in enumerate(rows, start=2):
        if row["episode"] != episode:
            episode, chain = row["episode"], []
        ensure(int(row["step"]) == len(chain),
               f"{where}:{line}: step {row['step']} after {len(chain)} steps")
        chain = chain + [int(row["action"])]
        yield line, row, chain


def _layers(chain, doc, where, line):
    try:
        return truth.chain_layers(chain, doc["catalog"], doc["input_shape"])
    except ValueError as exc:
        raise CheckError(f"{where}:{line}: {exc}") from None


def check_rp(rows, doc, where) -> None:
    spec = doc["oracle"]
    for line, row, chain in episode_chains(rows, where):
        _layers(chain, doc, where, line)
        want = truth.synthetic_accuracy(spec, chain)
        ensure(_close(float(row["r_p"]), want, 1e-12),
               f"{where}:{line}: r_p {row['r_p']} != {want!r} for {chain}")


def check_epsilons(rows, shaping, where) -> None:
    """eps_i = eps0_i * exp(r_p(t) - r_p(first)) while alive, then 0."""
    if not rows:
        return
    threshold = shaping.get("epsilon_threshold", 0.01)
    eps0 = shaping["epsilon0"]
    alive = [e > threshold for e in eps0]
    first = float(rows[0]["r_p"])
    for line, row in enumerate(rows, start=2):
        for i, e0 in enumerate(eps0):
            got = float(row[f"epsilon_{i + 1}"])
            if not alive[i]:
                ensure(got == 0.0, f"{where}:{line}: epsilon_{i + 1} is "
                       f"{got} after it reached zero")
                continue
            want = e0 * math.exp(float(row["r_p"]) - first)
            ensure(_close(got, want, EPS_REL_TOL),
                   f"{where}:{line}: epsilon_{i + 1} {got!r} != {want!r}")
            if want <= threshold:
                alive[i] = False


def phi_in_bound(rows, gamma: float, n_sec: int) -> bool:
    """Every potential is finite and within (1 + margin) / (1 - gamma)."""
    bound = (1.0 + PHI_MARGIN) / (1.0 - gamma)
    for row in rows:
        for i in range(n_sec):
            phi = float(row[f"phi_{i + 1}"])
            if not math.isfinite(phi) or abs(phi) > bound:
                return False
    return True


def check_predicted_behaviour(rows, doc, setup_doc, model, where) -> None:
    """Recover each step's predicted network latency from r_s_1 and the
    budget. It must equal the saved model's per-layer predictions summed over
    the chain, and lie within the stated tolerance of the true latency; the
    infeasible flag must follow the memory rule."""
    cost = truth.CostModel(setup_doc["synth_stats_model"])
    ctx = doc["context"]
    ci = setup_doc["contexts"].index(ctx)
    budget = doc["shaping"]["budgets"][0]
    steps = [(line, row, _layers(chain, doc, where, line))
             for line, row, chain in episode_chains(rows, where)]
    distinct = {}
    for _, _, layers in steps:
        for t, i, o in layers:
            row = tuple(truth.layer_features(t, i, o, ctx, model["columns"]))
            distinct.setdefault(row, len(distinct))
    _, pred = truth.model_predict(model, np.asarray(list(distinct)))
    for line, row, layers in steps:
        vols = [o[0] * o[1] * o[2] for _, _, o in layers]
        infeasible = not all(cost.feasible(v, ci, ctx["memory_mb"])
                             for v in vols)
        ensure(int(row["infeasible"]) == int(infeasible),
               f"{where}:{line}: infeasible={row['infeasible']}, memory rule "
               f"says {int(infeasible)}")
        if infeasible:
            ensure(float(row["r_s_1"]) == 0.0,
                   f"{where}:{line}: infeasible step scores r_s_1 "
                   f"{row['r_s_1']}, not 0")
            continue
        true_ms = sum(cost.latency(truth.layer_params(t)[0], o[0], v, ci)
                      for (t, _, o), v in zip(layers, vols))
        model_ms = sum(pred[distinct[tuple(truth.layer_features(
            t, i, o, ctx, model["columns"]))], 0] for t, i, o in layers)
        ensure(max(true_ms, model_ms) < budget, f"{where}:{line}: budget "
               f"{budget} ms does not cover the network latency")
        got_ms = (1.0 - float(row["r_s_1"])) * budget
        ensure(abs(got_ms - model_ms) <= 1e-9 * budget,
               f"{where}:{line}: r_s_1 gives {got_ms!r} ms, the model "
               f"predicts {model_ms!r} ms")
        ensure(abs(got_ms - true_ms) <= max(LATENCY_ABS_TOL_MS,
                                            LATENCY_REL_TOL * true_ms),
               f"{where}:{line}: predicted latency {got_ms:.4f} ms, true "
               f"{true_ms:.4f} ms")


def plateau(values, fraction=0.95, window=3) -> int:
    """1-based first episode whose trailing mean reaches ``fraction`` of the
    final trailing mean, on the normalized curve."""
    v = [float(x) for x in values]
    lo, hi = min(v), max(v)
    norm = [1.0] * len(v) if hi == lo else [(x - lo) / (hi - lo) for x in v]
    smooth = [sum(norm[max(0, i - window + 1):i + 1])
              / len(norm[max(0, i - window + 1):i + 1])
              for i in range(len(norm))]
    level = fraction * smooth[-1]
    return next(i + 1 for i, s in enumerate(smooth) if s >= level)


def check_compare(report: dict, curves: dict, doc, seeds, where) -> None:
    """curves maps (arm, seed) to the rows of that curve CSV."""
    episodes = doc["shaping"]["episodes"]
    n_sec = len(doc["shaping"]["epsilon0"])
    ensure(report["seeds"] == list(seeds), f"{where}: seeds {report['seeds']}")
    means = {}
    for arm in ("shaped", "scalarized"):
        want = []
        for seed in seeds:
            rows = curves[arm, seed]
            name = f"curve_{arm}_replicate_{seed}.csv"
            ensure(len(rows) == episodes,
                   f"{name}: {len(rows)} rows, expected {episodes}")
            ensure([int(r["episode"]) for r in rows] == list(range(episodes)),
                   f"{name}: episode column is not 0..{episodes - 1}")
            for i in range(n_sec):
                eps = [float(r[f"epsilon_{i + 1}"]) for r in rows]
                if arm == "scalarized":
                    ensure(not any(eps), f"{name}: scalarized epsilon_{i + 1}"
                           " is not all zero")
                elif 0.0 in eps:
                    dead = eps.index(0.0)
                    ensure(not any(eps[dead:]), f"{name}: epsilon_{i + 1} "
                           f"leaves zero after episode {dead}")
            want.append(plateau(r["return_normalized"] for r in rows))
        got = report[f"{arm}_episodes_to_95"]
        ensure(got == want, f"{where}: {arm} episodes_to_95 {got}, "
               f"recomputed {want}")
        means[arm] = sum(want) / len(want)
        ensure(_close(report[f"mean_{arm}"], means[arm], 1e-12),
               f"{where}: mean_{arm} {report[f'mean_{arm}']}")
    ratio = means["scalarized"] / means["shaped"]
    ensure(_close(report["speedup_ratio"], ratio, 1e-12),
           f"{where}: speedup_ratio {report['speedup_ratio']} != {ratio}")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
