"""End-to-end acceptance gate.

Each test exercises one headline claim at a pinned tolerance and prints a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them as they happen).
"""
import time

import numpy as np
import pytest

from shapenas import (ActionCatalog, ContextSpec, LayerTemplate, SearchSpace,
                      ShapingConfig, SyntheticOracle, SyntheticTaskSpec,
                      brute_force_best_chain, check_epsilon_schedule,
                      greedy_rollout, run_search)
from shapenas.bob import BobConfig, learn_meta, load_model, save_model, score
from shapenas.controller import CallableSecondary
from shapenas.dataset import train_holdout_split
from shapenas.function_approx import MlpApprox
from shapenas.harness import episodes_to_plateau
from shapenas.oracle import SynthStatsModel, gen_synth_stats

from gradcheck import finite_difference_gradients


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


SMALL_CATALOG = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=4),
    LayerTemplate("pool", kernel_size=2, stride=2),
), max_depth=4)
CPU_CONTEXT = ContextSpec(cores=8, compute_units=2, memory_mb=4096,
                          clock_freq_mhz=2800, memory_bandwidth=25.6,
                          processor_kind="cpu")
SMALL_SPACE = SearchSpace(SMALL_CATALOG, CPU_CONTEXT, (3, 16, 16))


def mean_metric_secondary(per_action):
    def fn(net, actions):
        return [sum(per_action[a] for a in actions) / len(actions)]

    return CallableSecondary(fn, 1)


# A1: the shaped search must still find the reward-optimal policy. The
# secondary metric is deliberately misaligned with accuracy; once shaping
# switches off, the greedy policy has to match exhaustive enumeration on at
# least 19 of 20 seeds, inside 10 seconds.
A1_ORACLE = SyntheticOracle(SyntheticTaskSpec(
    base_utility=(0.22, 0.16, 0.1), diminishing=0.8,
    interaction_bonus=((1, 2, 0.06),)))
A1_SECONDARY = mean_metric_secondary([90.0, 10.0, 10.0])
A1_CFG = ShapingConfig(episodes=400, max_steps=4, tau=-1e9, epsilon0=(1.0,),
                       shaping_episodes=60, softmax_temperature=1.0,
                       budgets=(100.0,))
A1_SEEDS = range(100, 120)


def test_a1_policy_invariance_tabular():
    t0 = time.perf_counter()
    best = brute_force_best_chain(SMALL_SPACE, A1_ORACLE, gamma=A1_CFG.gamma)
    wins = 0
    for seed in A1_SEEDS:
        trace = run_search(SMALL_SPACE, A1_ORACLE, A1_SECONDARY, A1_CFG,
                           seed=seed)
        if greedy_rollout(trace.state, SMALL_SPACE) == best:
            wins += 1
    elapsed = time.perf_counter() - t0
    report("A1 policy invariance", wins >= 19 and elapsed < 10.0,
           f"greedy policy matched brute force {best} on {wins}/20 seeds "
           f"in {elapsed:.1f}s (need >=19, <10s)")


# A2: on a sparse-reward task (accuracy is zero below depth 3), shaping must
# reach its return plateau at least 2x faster than the scalarized baseline,
# averaged over 10 paired seeds, inside 2 minutes.
A2_ORACLE = SyntheticOracle(SyntheticTaskSpec(
    base_utility=(0.25, 0.05, 0.02), min_depth=3))
A2_SECONDARY = mean_metric_secondary([5.0, 80.0, 95.0])
A2_CFG = ShapingConfig(episodes=120, max_steps=4, tau=-1e9, beta=0.5,
                       epsilon0=(1.0,), softmax_temperature=0.2,
                       budgets=(100.0,))
A2_SEEDS = range(10)


def test_a2_plateau_speedup():
    t0 = time.perf_counter()
    shaped, scalar = [], []
    for seed in A2_SEEDS:
        ts = run_search(SMALL_SPACE, A2_ORACLE, A2_SECONDARY, A2_CFG,
                        seed=seed)
        tc = run_search(SMALL_SPACE, A2_ORACLE, A2_SECONDARY,
                        A2_CFG, seed=seed, weights=(1.0, 0.1))
        shaped.append(episodes_to_plateau(ts.episode_returns))
        scalar.append(episodes_to_plateau(tc.episode_returns))
    ratio = float(np.mean(scalar)) / float(np.mean(shaped))
    elapsed = time.perf_counter() - t0
    report("A2 plateau speedup", ratio >= 2.0 and elapsed < 120.0,
           f"scalarized/shaped episodes-to-95% ratio {ratio:.2f} over "
           f"{len(shaped)} seeds in {elapsed:.1f}s (need >=2.0, <2min)")


# A3: the behavior predictor, trained on 2000 synthetic layer records across
# three execution contexts (about 10% infeasible), must reach R^2 >= 0.9 on
# every target and >= 0.95 feasibility-gate accuracy on held-out rows,
# inside 30 seconds.
A3_CATALOG = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=5, stride=1, padding=2, channels=16),
    LayerTemplate("dwconv", kernel_size=3, stride=1, padding=1, channels=16),
    LayerTemplate("pool", kernel_size=2, stride=2),
    LayerTemplate("dense", channels=32),
), max_depth=6)
A3_CONTEXTS = [
    ContextSpec(8, 2, 4096, 2800, 25.6, "cpu"),
    ContextSpec(4, 16, 2048, 1500, 51.2, "gpu"),
    ContextSpec(2, 1, 15.0, 800, 6.4, "dsp"),
]
A3_TRUE_MODEL = SynthStatsModel(context_multipliers=(1.0, 0.6, 3.0))


def a3_fit(seed=7):
    data, _ = gen_synth_stats(A3_CATALOG, A3_CONTEXTS, A3_TRUE_MODEL,
                              count=2000, seed=seed)
    train, holdout = train_holdout_split(data, 0.25, seed=seed)
    model = learn_meta(train, BobConfig(), seed=seed)
    return data, model, score(model, holdout)


def test_a3_predictor_fidelity():
    t0 = time.perf_counter()
    data, model, scores = a3_fit()
    elapsed = time.perf_counter() - t0
    infeasible = 1.0 - float(data.feasible.mean())
    r2s = {name: s["r2"] for name, s in scores["targets"].items()}
    gate = scores["gate_accuracy"]
    ok = (all(r2 is not None and r2 >= 0.9 for r2 in r2s.values())
          and gate >= 0.95 and elapsed < 30.0)
    report("A3 predictor fidelity", ok,
           f"holdout R2 {({k: round(v, 4) for k, v in r2s.items()})}, "
           f"gate accuracy {gate:.3f}, {infeasible:.1%} infeasible rows, "
           f"{elapsed:.1f}s (need R2>=0.9 each, gate>=0.95, <30s)")


# A4: every epsilon value logged by a shaped run must match the closed form
# eps_0 * exp(r_P(t) - r_P(0)) to 1e-9 relative error while above the
# cutoff, and be exactly zero ever after.
def test_a4_epsilon_closed_form():
    checked = 0
    for seed in (0, 1, 2, 100):
        for oracle, secondary, cfg in (
                (A1_ORACLE, A1_SECONDARY, A1_CFG),
                (A2_ORACLE, A2_SECONDARY, A2_CFG)):
            trace = run_search(SMALL_SPACE, oracle, secondary, cfg, seed=seed)
            check_epsilon_schedule(trace, cfg, rel_tol=1e-9)
            checked += len(trace.records)
    report("A4 epsilon closed form", True,
           f"{checked} logged steps match eps0*exp(primary growth) "
           f"to 1e-9 relative")


# A5: with the coupling switched off (all eps_0 = 0) the shaped controller
# must be bit-for-bit identical to the scalarized baseline with weights
# (1, 0); a secondary with zero initial epsilon must leave the remaining
# components bit-for-bit unchanged.
def test_a5_degenerate_equivalence():
    oracle = A2_ORACLE
    secondary = A2_SECONDARY
    cfg0 = ShapingConfig(episodes=60, max_steps=4, tau=-1e9, epsilon0=(0.0,),
                         softmax_temperature=0.2, budgets=(100.0,))
    exact = 0
    for seed in range(5):
        a = run_search(SMALL_SPACE, oracle, secondary, cfg0, seed=seed)
        b = run_search(SMALL_SPACE, oracle, secondary, cfg0,
                       seed=seed, weights=(1.0, 0.0))
        assert [(r.action, r.r_p, r.q_target) for r in a.records] == \
            [(r.action, r.r_p, r.q_target) for r in b.records]
        exact += len(a.records)

    def two_fn(net, actions):
        return [secondary.fn(net, actions)[0], 0.0]

    cfg1 = ShapingConfig(episodes=60, max_steps=4, tau=-1e9, epsilon0=(1.0,),
                         softmax_temperature=0.2, budgets=(100.0,))
    cfg2 = ShapingConfig(episodes=60, max_steps=4, tau=-1e9,
                         epsilon0=(1.0, 0.0), softmax_temperature=0.2,
                         budgets=(100.0, 1.0))
    for seed in range(5):
        a = run_search(SMALL_SPACE, oracle, secondary, cfg1, seed=seed)
        b = run_search(SMALL_SPACE, oracle, CallableSecondary(two_fn, 2),
                       cfg2, seed=seed)
        assert [(r.action, r.q_target, r.epsilons[0], r.phi_values[0])
                for r in a.records] == \
            [(r.action, r.q_target, r.epsilons[0], r.phi_values[0])
             for r in b.records]
        assert all(r.epsilons[1] == 0.0 for r in b.records)
        exact += len(a.records)
    report("A5 degenerate equivalence", True,
           f"{exact} steps bit-exact across both degenerate pairings")


# A6: analytic gradients of the value network must agree with central
# finite differences to 1e-4 relative error on 100 random cases.
def test_a6_gradient_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        dim = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(2, 9))
                       for _ in range(int(rng.integers(1, 4))))
        net = MlpApprox.create(dim, hidden=hidden, seed=case)
        x = rng.normal(size=dim)
        _, gw, gb = net.gradients(x)
        fw, fb = finite_difference_gradients(net, x)
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(b), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    report("A6 gradient check", worst <= 1e-4,
           f"worst relative error {worst:.2e} over 100 random networks "
           f"(need <=1e-4)")


# A7: every boosted fit inside the predictor must have a non-increasing
# training-loss sequence, and a save/load round trip must predict
# identically on 100 random rows.
def test_a7_boosting_and_serialization(tmp_path):
    data, model, _ = a3_fit(seed=11)
    fits = 0
    for member in model.members:
        for booster in member.values():
            losses = booster.train_losses
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
            fits += 1
    losses = model.gate.train_losses
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 60, size=(100, data.X.shape[1]))
    identical = (np.array_equal(model.predict_matrix(X),
                                clone.predict_matrix(X))
                 and np.array_equal(model.gate_feasible(X),
                                    clone.gate_feasible(X)))
    report("A7 boosting + serialization", identical,
           f"{fits} boosted fits monotone in training loss; save/load "
           f"round trip identical on 100 rows")
