"""The four workloads: their generated inputs, one timed round, and checks.

A round is the same program commands on the same inputs every time, so a
run of whole rounds attempts and fails the same share of operations however
long it lasts. Inputs come from the workload seed; search-mlp's are fixed
(see its docstring). The program sees only the YAML configs written here.
"""
from __future__ import annotations

import os
import time

import numpy as np
import yaml

from shapenas import harness

import checks

A3_ACTIONS = [
    {"block_kind": "conv", "kernel_size": 3, "stride": 1, "padding": 1,
     "channels": 8},
    {"block_kind": "conv", "kernel_size": 5, "stride": 1, "padding": 2,
     "channels": 16},
    {"block_kind": "dwconv", "kernel_size": 3, "stride": 1, "padding": 1,
     "channels": 16},
    {"block_kind": "pool", "kernel_size": 2, "stride": 2},
    {"block_kind": "dense", "channels": 32},
]
A3_CONTEXTS = [
    {"cores": 8, "compute_units": 2, "memory_mb": 4096.0,
     "clock_freq_mhz": 2800.0, "memory_bandwidth": 25.6,
     "processor_kind": "cpu"},
    {"cores": 4, "compute_units": 16, "memory_mb": 2048.0,
     "clock_freq_mhz": 1500.0, "memory_bandwidth": 51.2,
     "processor_kind": "gpu"},
    # memory-starved: about one layer row in nine breaks the memory rule
    {"cores": 2, "compute_units": 1, "memory_mb": 15.0,
     "clock_freq_mhz": 800.0, "memory_bandwidth": 6.4,
     "processor_kind": "dsp"},
]
WIDE_ACTIONS = A3_ACTIONS + [
    {"block_kind": "conv", "kernel_size": 1, "stride": 1, "padding": 0,
     "channels": 4},
    {"block_kind": "dwconv", "kernel_size": 3, "stride": 2, "padding": 1,
     "channels": 8},
    {"block_kind": "skip"},
    {"block_kind": "conv", "kernel_size": 3, "stride": 1, "padding": 1,
     "channels": 32},
    {"block_kind": "pool", "kernel_size": 3, "stride": 1, "padding": 1},
    {"block_kind": "conv", "kernel_size": 1, "stride": 2, "padding": 0,
     "channels": 8},
    {"block_kind": "dense", "channels": 8},
]


def write_config(path, doc) -> None:
    """Write a config and make sure PyYAML reads back every value as
    written (it reads ``-1.0e9`` as a string, for one)."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    with open(path, encoding="utf-8") as fh:
        if yaml.safe_load(fh) != doc:
            raise ValueError(f"{path} does not read back as written")


def synth_doc(rng, count, stats_path):
    """A3-shaped corpus: five actions, depth 6, three contexts."""
    jitter = rng.uniform(0.9, 1.1, size=4)
    return {
        "schema_version": 1,
        "input_shape": [3, 16, 16],
        "catalog": {"max_depth": 6, "actions": A3_ACTIONS},
        "contexts": A3_CONTEXTS,
        "synth_stats": {"count": count},
        "synth_stats_model": {
            "latency_coeffs": [float(c * j) for c, j in
                               zip((0.5, 0.02, 0.05, 0.001), jitter)],
            "memory_coeffs": [0.1, 0.004],
            "context_multipliers": [1.0, 0.6, 3.0]},
        "predictor": {"stats_path": stats_path, "test_fraction": 0.25,
                      "oversample_factor": 1.5, "bag_size": 1},
    }


def oracle_doc(rng, n_actions, min_depth=0):
    pairs = rng.choice(n_actions, size=(2, 2))
    return {"kind": "synthetic",
            "base_utility": [round(float(u), 4) for u in
                             rng.uniform(0.04, 0.25, n_actions)],
            "diminishing": 0.8,
            "interaction_bonus": [[int(p), int(c), round(float(b), 4)]
                                  for (p, c), b in
                                  zip(pairs, rng.uniform(0.01, 0.06, 2))],
            "min_depth": min_depth}


def _replicate_traces(out_dir, seeds):
    return {s: checks.read_rows(os.path.join(out_dir,
                                             f"trace_replicate_{s}.csv"))
            for s in seeds}


class Round:
    """What one round did: work items, operations, per-command seconds."""

    def __init__(self, items, attempted, commands):
        self.items = items
        self.attempted = attempted
        self.commands = commands  # command -> (seconds, work items)
        self.wall = sum(secs for secs, _ in commands.values())


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class TrainPredictor:
    """gen-synth, then train-predictor, on an A3-shaped corpus with
    oversampling. The BobConfig is the default but for one bag member, so
    that a round takes about a second (see README, Sizing). The seed draws
    the cost model; the program's own seed is fixed, because the corpus it
    draws sets how many tree nodes can split, and so the cost of a round."""

    name = "train-predictor"
    COUNT = 300
    PROGRAM_SEED = 0

    def setup(self, work, seed):
        self.seed = seed
        self.doc = synth_doc(np.random.default_rng([1, seed]), self.COUNT,
                             os.path.join(work, "out", "stats.csv"))
        self.config = os.path.join(work, "train.yaml")
        write_config(self.config, self.doc)
        self.out = os.path.join(work, "out")

    def run_round(self):
        _, gen_s = _timed(harness.cmd_gen_synth, self.config,
                          self.PROGRAM_SEED, self.out)
        report, fit_s = _timed(harness.cmd_train_predictor, self.config,
                               self.PROGRAM_SEED, self.out)
        return Round(report["n_train"], 2,
                     {"gen-synth": (gen_s, self.COUNT),
                      "train-predictor": (fit_s, report["n_train"])})

    def check(self):
        rows = checks.read_rows(os.path.join(self.out, "stats.csv"))
        checks.check_stats(rows, self.doc)
        model = checks.load_json(os.path.join(self.out, "model.json"))
        facts = checks.check_model(model, self.doc, self.seed + 1)
        self.rows = rows
        return 0, facts

    def demos(self):
        bad = [dict(r) for r in self.rows]
        i = next(i for i, r in enumerate(bad) if r["feasible"] == "1")
        bad[i]["feasible"] = "0"
        yield "flipped feasible flag", lambda: checks.check_stats(bad,
                                                                  self.doc)


class _Search:
    """Shared by the three workloads that run ``search`` or ``compare``."""

    replicates = 2

    def seeds(self):
        return [self.base_seed + i for i in range(self.replicates)]

    def run_round(self):
        report, secs = _timed(harness.cmd_search, self.config,
                              self.base_seed, self.replicates, 1, self.out)
        steps = sum(len(t) for t in _replicate_traces(self.out,
                                                      self.seeds()).values())
        return Round(steps, 1 + self.replicates, {"search": (secs, steps)})

    def check_traces(self):
        self.traces = _replicate_traces(self.out, self.seeds())
        for seed, rows in self.traces.items():
            where = f"trace_replicate_{seed}.csv"
            checks.check_rp(rows, self.doc, where)
            checks.check_epsilons(rows, self.doc["shaping"], where)

    def _first_trace(self):
        return [dict(r) for r in next(iter(self.traces.values()))]

    def epsilon_demo(self):
        bad = self._first_trace()
        bad[0]["epsilon_1"] = repr(float(bad[0]["epsilon_1"]) * (1 + 1e-6))
        return "perturbed epsilon", lambda: checks.check_epsilons(
            bad, self.doc["shaping"], "corrupted trace")


class SearchPredictor(_Search):
    """search with a predictor secondary on a default-size model that set-up
    trains. The seed draws the oracle. The model and the replicate seeds are
    fixed, and the context never breaks the memory rule, so every seed
    predicts the same layer rows: rows differ by up to 40% in how many tree
    levels they walk, and the cost of a round must not depend on the seed."""

    name = "search-predictor"
    CORPUS = 200
    MODEL_SEED = 0
    episodes = 3

    def setup(self, work, seed):
        self.base_seed = 1000
        model_dir = os.path.join(work, "model")
        self.setup_doc = synth_doc(np.random.default_rng(self.MODEL_SEED),
                                   self.CORPUS,
                                   os.path.join(model_dir, "stats.csv"))
        self.setup_doc["predictor"] = {
            "stats_path": self.setup_doc["predictor"]["stats_path"]}
        self.setup_doc["contexts"] = [A3_CONTEXTS[1]]
        self.setup_doc["synth_stats_model"]["context_multipliers"] = [0.6]
        train = os.path.join(work, "train.yaml")
        write_config(train, self.setup_doc)
        harness.cmd_gen_synth(train, self.MODEL_SEED, model_dir)
        harness.cmd_train_predictor(train, self.MODEL_SEED, model_dir)
        rng = np.random.default_rng([2, seed])
        self.doc = {
            "schema_version": 1,
            "input_shape": [3, 16, 16],
            "catalog": {"max_depth": 6, "actions": A3_ACTIONS},
            "context": A3_CONTEXTS[1],
            "oracle": oracle_doc(rng, len(A3_ACTIONS)),
            "secondary": {"kind": "predictor", "model_path":
                          os.path.join(model_dir, "model.json")},
            "shaping": {"episodes": self.episodes, "max_steps": 3,
                        "tau": -1.0e9, "epsilon0": [1.0, 1.0],
                        "budgets": [100.0, 200.0]},
        }
        self.config = os.path.join(work, "search.yaml")
        write_config(self.config, self.doc)
        self.out = os.path.join(work, "out")

    def check(self):
        self.check_traces()
        self.model = checks.load_json(self.doc["secondary"]["model_path"])
        for seed, rows in self.traces.items():
            checks.check_predicted_behaviour(
                rows, self.doc, self.setup_doc, self.model,
                f"trace_replicate_{seed}.csv")
        return 0, {}

    def demos(self):
        yield self.epsilon_demo()
        bad_rs = self._first_trace()
        bad_rs[-1]["r_s_1"] = repr(float(bad_rs[-1]["r_s_1"]) - 0.05)
        yield "shifted r_s_1", lambda: checks.check_predicted_behaviour(
            bad_rs, self.doc, self.setup_doc, self.model, "corrupted trace")


class CompareTabular(_Search):
    """compare, shaped against scalarized, with a per-action secondary and
    the tabular backend on a wide catalog with sparse rewards."""

    name = "compare-tabular"
    episodes = 250
    replicates = 1

    def setup(self, work, seed):
        rng = np.random.default_rng([3, seed])
        self.base_seed = 2000 + seed
        n = len(WIDE_ACTIONS)
        self.doc = {
            "schema_version": 1,
            "input_shape": [3, 16, 16],
            "catalog": {"max_depth": 6, "actions": WIDE_ACTIONS},
            "context": A3_CONTEXTS[0],
            "oracle": oracle_doc(rng, n, min_depth=3),
            "secondary": {"kind": "per_action", "metric": [
                round(float(v), 2) for v in rng.uniform(5.0, 95.0, n)]},
            "shaping": {"episodes": self.episodes, "max_steps": 6,
                        "tau": -1.0e9, "epsilon0": [1.0],
                        "budgets": [600.0]},
            "scalarized_weights": [1.0, 0.1],
        }
        self.config = os.path.join(work, "compare.yaml")
        write_config(self.config, self.doc)
        self.out = os.path.join(work, "out")

    def run_round(self):
        report, secs = _timed(harness.cmd_compare, self.config,
                              self.base_seed, self.replicates, 1, self.out)
        # dense and skip fit every shape, so every episode runs max_steps
        steps = (self.replicates * 2 * self.episodes
                 * self.doc["shaping"]["max_steps"])
        return Round(steps, 1 + 2 * self.replicates, {"compare": (secs, steps)})

    def _curves(self):
        return {(arm, s): checks.read_rows(os.path.join(
            self.out, f"curve_{arm}_replicate_{s}.csv"))
            for arm in ("shaped", "scalarized") for s in self.seeds()}

    def check(self):
        self.report = checks.load_json(os.path.join(self.out,
                                                    "compare_report.json"))
        self.curves = self._curves()
        checks.check_compare(self.report, self.curves, self.doc,
                             self.seeds(), "compare_report.json")
        return 0, {"shaped_episodes_to_95":
                   self.report["shaped_episodes_to_95"],
                   "scalarized_episodes_to_95":
                   self.report["scalarized_episodes_to_95"]}

    def demos(self):
        report = dict(self.report)
        report["shaped_episodes_to_95"] = [
            report["shaped_episodes_to_95"][0] + 1,
            *report["shaped_episodes_to_95"][1:]]
        yield "off-by-one plateau count", lambda: checks.check_compare(
            report, self.curves, self.doc, self.seeds(), "corrupted report")
        curves = dict(self.curves)
        key = ("shaped", self.seeds()[0])
        rows = [dict(r) for r in curves[key]]
        rows[-2]["epsilon_1"], rows[-1]["epsilon_1"] = "0.0", "0.5"
        curves[key] = rows
        yield "resurrected epsilon", lambda: checks.check_compare(
            self.report, curves, self.doc, self.seeds(), "corrupted curve")


class SearchMlp(_Search):
    """search with the MLP backend, a per-action secondary and the default
    beta. Its inputs are fixed, not drawn from the seed: every replicate
    breaks the potential bound (see README), and a failure kept in the
    benchmark must not depend on the seed."""

    name = "search-mlp"
    episodes = 50
    replicates = 3
    GAMMA = 0.9  # ShapingConfig's default; the config leaves it unset

    def setup(self, work, seed):
        self.base_seed = 3000
        self.doc = {
            "schema_version": 1,
            "input_shape": [3, 16, 16],
            "catalog": {"max_depth": 6, "actions": A3_ACTIONS},
            "context": A3_CONTEXTS[0],
            "oracle": {"kind": "synthetic",
                       "base_utility": [0.2, 0.12, 0.16, 0.05, 0.08],
                       "diminishing": 0.8,
                       "interaction_bonus": [[3, 0, 0.05], [1, 4, 0.03]]},
            "secondary": {"kind": "per_action",
                          "metric": [20.0, 60.0, 35.0, 5.0, 80.0]},
            "shaping": {"episodes": self.episodes, "max_steps": 6,
                        "tau": -1.0e9, "epsilon0": [1.0],
                        "budgets": [600.0], "backend": "mlp"},
        }
        self.config = os.path.join(work, "search.yaml")
        write_config(self.config, self.doc)
        self.out = os.path.join(work, "out")

    def check(self):
        self.check_traces()
        over = [s for s, rows in self.traces.items()
                if not checks.phi_in_bound(rows, self.GAMMA, 1)]
        return len(over), {"phi_out_of_bound_seeds": over}

    def demos(self):
        yield self.epsilon_demo()
        tame = self._first_trace()
        for row in tame:
            row["phi_1"] = "1.0"
        checks.ensure(checks.phi_in_bound(tame, self.GAMMA, 1),
                      "potential check rejects a trace with phi = 1")
        tame[-1]["phi_1"] = repr(1.2 / (1 - self.GAMMA))
        yield "inflated phi", lambda: checks.ensure(
            checks.phi_in_bound(tame, self.GAMMA, 1), "phi out of bound")


WORKLOADS = {w.name: w for w in (TrainPredictor, SearchPredictor,
                                 CompareTabular, SearchMlp)}
