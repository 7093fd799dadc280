"""Pinned fingerprints and greedy chains of small tabular searches.

The other trace tests compare two runs of the same code, so a refactor of
the search loop that changed every result would still pass them. These
values were recorded before the value stores took one state argument, and
must not move under any change that claims to keep results. The four
shaped digests were re-recorded, on an unchanged search loop, when the
fingerprint began to hash float fields as ``float``: before, a potential's
``np.float64`` hashed as its numpy repr, which depends on numpy's version.

The ``noisy_oracle`` case draws the oracle's noise on every step: a
search memoizes a chain's scores only for an oracle that declares itself
deterministic, so this case pins the per-step scoring path.

Tabular backend only: MLP values depend on the BLAS summation order of the
host, so their digests are not portable across machines.
"""
import pytest

from shapenas import (ShapingConfig, SyntheticOracle, SyntheticTaskSpec,
                      greedy_rollout, run_search)
from shapenas.controller import CallableSecondary


def per_action(net, actions):
    """One metric; infeasible (None) when a chain of 3+ ends in a pool."""
    if len(actions) >= 3 and actions[-1] == 2:
        return None
    return [sum((5.0, 40.0, 70.0)[a] for a in actions)]


def two_metrics(net, actions):
    return [sum((5.0, 40.0, 70.0)[a] for a in actions),
            sum((30.0, 10.0, 1.0)[a] for a in actions)]


TWO = dict(epsilon0=(1.0, 0.7), budgets=(100.0, 80.0))

# name: (config overrides, secondary, scalarized weights[, oracle overrides])
CASES = {
    "shaped_infeasible": ({}, CallableSecondary(per_action, 1), None),
    "scalarized": ({}, CallableSecondary(per_action, 1), (1.0, 0.1)),
    "finite_phase_capped": (dict(shaping_episodes=5, epsilon_cap=1.5),
                            CallableSecondary(per_action, 1), None),
    "per_secondary_two": (dict(delta_mode="per_secondary", **TWO),
                          CallableSecondary(two_metrics, 2), None),
    "tau_warmup": (dict(tau=0.05, warmup=2),
                   CallableSecondary(per_action, 1), None),
    "noisy_oracle": ({}, CallableSecondary(per_action, 1), None,
                     dict(noise_sigma=0.05, seed=5)),
}

PINNED = {
    "shaped_infeasible": (
        "b961c44a6fd0244fd084fa342ec53607ddd2850a26429c48cfa7c62bbeebeb22",
        (0, 0, 1, 0)),
    "scalarized": (
        "0a335ddff271ed2da8b87eb95dbedc55d9d88f20475605a5f50ae7fb22856dbb",
        (0, 1, 2, 0)),
    "finite_phase_capped": (
        "2b11797dc9355d0ea6ef766146565e4a7540d5883053f56c7b9aad8a182cd49e",
        (0, 0, 1, 0)),
    "per_secondary_two": (
        "4651ad003b444db1371a5680ec38d0fc060026e244582907472899551493e896",
        (0, 0, 1, 0)),
    "tau_warmup": (
        "80e97e839001032e0a4f40456626bc566ca8742270f0923009ffecbe57931c22",
        (0, 0, 1, 0)),
    "noisy_oracle": (
        "731109e2cc5fc3c800f7e37e0933a3d6c3d5276c42dd09ba7054c070a8c49389",
        (0, 0, 1, 0)),
}


def search(toy_space, name):
    overrides, secondary, weights, *oracle_overrides = CASES[name]
    cfg = ShapingConfig(**dict(dict(episodes=12, max_steps=4, tau=-1e9,
                                    budgets=(100.0,)), **overrides))
    oracle = SyntheticOracle(SyntheticTaskSpec(
        (0.25, 0.1, 0.02), diminishing=0.7, interaction_bonus=((0, 1, 0.05),),
        **dict(*oracle_overrides)))
    return run_search(toy_space, oracle, secondary, cfg, seed=3,
                      weights=weights)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tabular_trace_matches_pinned_values(toy_space, name):
    trace = search(toy_space, name)
    fingerprint, chain = PINNED[name]
    assert trace.fingerprint() == fingerprint
    assert greedy_rollout(trace.state, toy_space) == chain


def test_pinned_cases_cover_what_they_name(toy_space):
    shaped = search(toy_space, "shaped_infeasible")
    assert 0 < sum(r.infeasible for r in shaped.records) \
        < len(shaped.records)
    capped = search(toy_space, "finite_phase_capped")
    assert max(max(r.epsilons) for r in capped.records) == 1.5
    assert all(r.epsilons == (0.0,) for r in capped.records
               if r.episode >= 5)
    stopped = search(toy_space, "tau_warmup")
    assert len(stopped.records) < 12 * 4  # some episode stopped early
    noisy = search(toy_space, "noisy_oracle")
    scores = {}  # chain -> the primary rewards its visits drew
    for r in noisy.records:
        scores.setdefault(r.state_key + (r.action,), set()).add(r.r_p)
    assert any(len(drawn) > 1 for drawn in scores.values())
