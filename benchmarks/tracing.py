"""Spans and counts around the program's public functions, for the traced run.

Wrappers are installed on the module and class attributes the program looks
names up in, including names bound by ``from ... import`` (for example
``controller.legal_actions``), and removed again afterwards. Spans live in
memory as (name, start, end, parent) and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

from shapenas import (bob, config, controller, dataset, design_space,
                      function_approx, harness, oracle, trees)


def _count_predict_rows(counts, tracer, args, result):
    counts["trees.predict_rows"] += len(result)


def _count_network_rows(counts, tracer, args, result):
    rows = args[1]
    counts["bob.rows_predicted"] += len(rows)
    tracer.distinct_rows.update(r.tobytes() for r in rows)
    counts["bob.infeasible_predictions"] += not result.feasible


def _count_ingested(counts, tracer, args, result):
    counts["dataset.ingest_rows"] += len(result)


def _count_table(counts, tracer, args, result):
    counts["function_approx.table_entries_copied"] += len(args[0].table)


def _count_steps(counts, tracer, args, result):
    counts["controller.steps"] += len(args[6].records)
    counts["controller.episodes"] += len(args[6].episode_returns)


# (owner, attribute, span name, counter hook)
PATCHES = (
    (trees.RegressionTree, "fit", "trees.fit", None),
    (trees.BoostedRegressor, "fit", "trees.boost_fit", None),
    (trees.BoostedRegressor, "predict", "trees.predict", _count_predict_rows),
    (bob, "learn_meta", "bob.learn_meta", None),
    (bob, "score", "bob.score", None),
    (bob, "save_model", "bob.save_model", None),
    (bob, "load_model", "bob.load_model", None),
    (controller, "predict_network", "bob.predict_network",
     _count_network_rows),
    (dataset, "ingest_stats", "dataset.ingest", _count_ingested),
    (dataset, "oversample", "dataset.oversample", None),
    (dataset, "train_holdout_split", "dataset.split", None),
    (dataset, "write_stats", "dataset.write_stats", None),
    (oracle, "gen_synth_stats", "oracle.gen_synth", None),
    (oracle.SyntheticOracle, "accuracy", "oracle.accuracy", None),
    (design_space, "legal_actions", "design_space.legal_actions", None),
    (controller, "legal_actions", "design_space.legal_actions", None),
    (oracle, "legal_actions", "design_space.legal_actions", None),
    (controller, "embed_state", "design_space.embed_state", None),
    (controller, "parse_network", "design_space.parse_network", None),
    (function_approx.TabularValues, "value", "function_approx.value", None),
    (function_approx.TabularValues, "blend", "function_approx.blend",
     _count_table),
    (function_approx.MlpValues, "value", "function_approx.value", None),
    (function_approx.MlpValues, "blend", "function_approx.blend", None),
    (controller, "select_action", "controller.select_action", None),
    (controller, "q_update", "controller.q_update", None),
    (controller, "potential_update", "controller.potential_update", None),
    (controller, "run_episodes", "controller.run_episodes", _count_steps),
    (controller.PredictorSecondary, "metrics", "controller.secondary", None),
    (controller.CallableSecondary, "metrics", "controller.secondary", None),
    (config, "load_config", "harness.config_load", None),
    (harness, "write_curve", "harness.write", None),
    (controller.SearchTrace, "export_csv", "harness.write", None),
    (harness, "_write_json", "harness.write", None),
    (harness, "_replicate_summary", "harness.summary", None),
    (harness, "_aggregate", "harness.summary", None),
    (harness, "episodes_to_plateau", "harness.summary", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self.distinct_rows: set = set()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock, stack = time.perf_counter, self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, self, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; plus "_top_s", the time
        covered by spans without a parent."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out[self.names[self.name_id[i]]]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[i]
            if self.parent[i] < 0:
                top += dur
        result = dict(out)
        result["_top_s"] = top
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced round lasting ``wall_s``."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "trees.fit_calls": calls("trees.fit"),
        "trees.fit_s": spans.get("trees.fit", {}).get("self_s", 0.0),
        "trees.boost_fit_s": spans.get("trees.boost_fit", {}).get(
            "self_s", 0.0),
        "trees.predict_calls": calls("trees.predict"),
        "trees.predict_rows": counts["trees.predict_rows"],
        "trees.rows_per_predict": ratio(counts["trees.predict_rows"],
                                        calls("trees.predict")),
        "trees.predict_s": total("trees.predict"),
        "bob.learn_meta_s": total("bob.learn_meta"),
        "bob.score_s": total("bob.score"),
        "bob.save_model_s": total("bob.save_model"),
        "bob.load_model_calls": calls("bob.load_model"),
        "bob.load_model_s": total("bob.load_model"),
        "bob.predict_network_calls": calls("bob.predict_network"),
        "bob.predict_network_s": total("bob.predict_network"),
        "bob.rows_predicted": counts["bob.rows_predicted"],
        "bob.distinct_row_ratio": ratio(len(tracer.distinct_rows),
                                        counts["bob.rows_predicted"]),
        "bob.infeasible_predictions": counts["bob.infeasible_predictions"],
        "dataset.ingest_calls": calls("dataset.ingest"),
        "dataset.ingest_s": total("dataset.ingest"),
        "dataset.ingest_rows_per_s": ratio(counts["dataset.ingest_rows"],
                                           total("dataset.ingest")),
        "dataset.oversample_s": total("dataset.oversample"),
        "dataset.split_s": total("dataset.split"),
        "dataset.write_stats_s": total("dataset.write_stats"),
        "oracle.gen_synth_s": total("oracle.gen_synth"),
        "oracle.accuracy_calls": calls("oracle.accuracy"),
        "oracle.accuracy_s": total("oracle.accuracy"),
        "function_approx.table_entries_copied":
            counts["function_approx.table_entries_copied"],
        "controller.steps": counts["controller.steps"],
        "controller.episodes": counts["controller.episodes"],
        "controller.run_episodes_self_s": spans.get(
            "controller.run_episodes", {}).get("self_s", 0.0),
        "harness.config_loads": calls("harness.config_load"),
        "harness.write_s": total("harness.write"),
        "harness.summary_s": total("harness.summary"),
        "trace.coverage_pct": 100.0 * ratio(spans["_top_s"], wall_s),
        "trace.spans": len(tracer.start),
    }
    for name in ("design_space.legal_actions", "design_space.embed_state",
                 "design_space.parse_network", "function_approx.value",
                 "function_approx.blend"):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_s"] = total(name)
    for name in ("controller.select_action", "controller.q_update",
                 "controller.potential_update", "controller.secondary"):
        m[f"{name}_s"] = total(name)
    return m
