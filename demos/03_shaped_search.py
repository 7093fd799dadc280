"""Run the shaped multi-criteria search and watch the coupling decay.

Accuracy drives the Q-values; the hardware metric trains a separate
potential function whose influence is weighted by epsilon. Epsilon is tied
to accuracy growth: it multiplies by exp(growth) each step while above its
cutoff, then drops to zero for good — so early episodes trade accuracy for
cheap layers and late episodes chase accuracy alone.
"""
from shapenas import (ActionCatalog, ContextSpec, LayerTemplate, SearchSpace,
                      ShapingConfig, SyntheticOracle, SyntheticTaskSpec,
                      greedy_rollout, run_search)
from shapenas.controller import CallableSecondary

catalog = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=4),
    LayerTemplate("pool", kernel_size=2, stride=2),
), max_depth=4)
context = ContextSpec(8, 2, 4096, 2800, 25.6, "cpu")
space = SearchSpace(catalog, context, (3, 16, 16))

oracle = SyntheticOracle(SyntheticTaskSpec(
    base_utility=(0.22, 0.16, 0.1), diminishing=0.8,
    interaction_bonus=((1, 2, 0.06),)))

# Mean per-layer cost: the wide conv is 9x the price of everything else
COST = [90.0, 10.0, 10.0]
secondary = CallableSecondary(
    lambda net, actions: [sum(COST[a] for a in actions) / len(actions)], 1)

cfg = ShapingConfig(episodes=200, max_steps=4, tau=-1e9, epsilon0=(1.0,),
                    shaping_episodes=60, budgets=(100.0,))
trace = run_search(space, oracle, secondary, cfg, seed=1)

print("episode  return  epsilon")
for ep in range(0, cfg.episodes, 20):
    last = [r for r in trace.records if r.episode == ep][-1]
    eps = last.epsilons[0] if last.epsilons else 0.0
    print(f"{ep:7d}  {trace.episode_returns[ep]:6.3f}  {eps:.4f}")

chain = greedy_rollout(trace.state, space)
print(f"\ngreedy architecture after training: {chain}")
print(f"final accuracy: {oracle.accuracy(None, chain):.3f}")
