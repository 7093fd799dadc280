"""Shaped search against the scalarized baseline on a sparse-reward task.

Below depth three the oracle returns zero accuracy, so a controller that
only sees the weighted sum of rewards wanders. The shaped controller keeps
the hardware signal in a separate potential whose weight decays as accuracy
grows, and reaches its return plateau severalfold sooner.
"""
import numpy as np

from shapenas import (ActionCatalog, ContextSpec, LayerTemplate, SearchSpace,
                      ShapingConfig, SyntheticOracle, SyntheticTaskSpec,
                      run_search)
from shapenas.controller import CallableSecondary
from shapenas.harness import episodes_to_plateau

catalog = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=4),
    LayerTemplate("pool", kernel_size=2, stride=2),
), max_depth=4)
space = SearchSpace(catalog, ContextSpec(8, 2, 4096, 2800, 25.6, "cpu"),
                    (3, 16, 16))

oracle = SyntheticOracle(SyntheticTaskSpec(
    base_utility=(0.25, 0.05, 0.02), min_depth=3))
COST = [5.0, 80.0, 95.0]
secondary = CallableSecondary(
    lambda net, actions: [sum(COST[a] for a in actions) / len(actions)], 1)

cfg = ShapingConfig(episodes=120, max_steps=4, tau=-1e9, epsilon0=(1.0,),
                    softmax_temperature=0.2, budgets=(100.0,))

shaped, scalar = [], []
for seed in range(10):
    ts = run_search(space, oracle, secondary, cfg, seed=seed)
    tc = run_search(space, oracle, secondary, cfg, seed=seed,
                    weights=(1.0, 0.1))
    shaped.append(episodes_to_plateau(ts.episode_returns))
    scalar.append(episodes_to_plateau(tc.episode_returns))
    print(f"seed {seed}: shaped plateau at episode {shaped[-1]:3d}, "
          f"scalarized at {scalar[-1]:3d}")

ratio = np.mean(scalar) / np.mean(shaped)
print(f"\nmean episodes to 95% plateau: shaped {np.mean(shaped):.1f}, "
      f"scalarized {np.mean(scalar):.1f}  ->  speedup {ratio:.1f}x")
