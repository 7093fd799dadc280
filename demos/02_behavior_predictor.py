"""Train the execution-behavior predictor on synthetic layer statistics.

A ground-truth cost model generates per-layer latency and memory records for
three execution contexts; the third has so little memory that about one row
in ten is infeasible. The records go through a stats CSV, written as
``gen-synth`` writes it and read as ``train-predictor`` reads it. A bag of
boosted regression trees learns each target, a boosted classifier learns
the feasibility gate, and rows observed as infeasible are remembered
exactly in a registry that short-circuits the gate.
"""
import os
import tempfile

import numpy as np

from shapenas import ActionCatalog, ContextSpec, LayerTemplate
from shapenas.bob import BobConfig, learn_meta, predict, score
from shapenas.dataset import ingest_stats, train_holdout_split, write_stats
from shapenas.oracle import TARGET_NAMES, SynthStatsModel, gen_synth_stats

catalog = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=5, stride=1, padding=2, channels=16),
    LayerTemplate("dwconv", kernel_size=3, stride=1, padding=1, channels=16),
    LayerTemplate("pool", kernel_size=2, stride=2),
), max_depth=6)
contexts = [
    ContextSpec(8, 2, 4096, 2800, 25.6, "cpu"),
    ContextSpec(4, 16, 2048, 1500, 51.2, "gpu"),
    ContextSpec(2, 1, 15.0, 800, 6.4, "dsp"),   # tiny memory budget
]
truth = SynthStatsModel(context_multipliers=(1.0, 0.6, 3.0))

rows = gen_synth_stats(catalog, contexts, truth, count=1500, seed=0)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "stats.csv")
    write_stats(rows, TARGET_NAMES, path)
    data = ingest_stats(path)
print(f"{len(data)} layer records, "
      f"{(~data.feasible).mean():.1%} infeasible")

train, holdout = train_holdout_split(data, 0.25, seed=0)
model = learn_meta(train, BobConfig(bag_size=5, rounds=30), seed=0)

report = score(model, holdout)
for name, s in report["targets"].items():
    print(f"{name}: holdout R2 {s['r2']:.4f}, rmse {s['rmse']:.4f}")
print(f"feasibility gate accuracy: {report['gate_accuracy']:.3f}")

# Point predictions: one feasible row, one row pushed past the memory budget
i = int(np.nonzero(data.feasible)[0][0])
print("\nfeasible row ->", predict(model, data.X[i]))
j = int(np.nonzero(~data.feasible)[0][0])
print("registry row ->", predict(model, data.X[j]))
