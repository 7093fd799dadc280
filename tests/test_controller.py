import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from shapenas import (ActionCatalog, BobConfig, CandidateNetwork, ContextSpec,
                      LayerTemplate, SearchSpace, ShapingConfig,
                      SyntheticOracle, SyntheticTaskSpec,
                      brute_force_best_chain, check_epsilon_schedule,
                      greedy_rollout, grow, learn_meta, legal_actions,
                      parse_network, predict_network, run_search)
from shapenas import controller, harness
from shapenas.controller import (CallableSecondary, PredictorSecondary,
                                 TerminalStateError, epsilon_update,
                                 load_checkpoint, potential_update, q_update,
                                 save_checkpoint, select_action, softmax)
from shapenas.function_approx import TabularValues
from shapenas.oracle import SynthStatsModel, TabularOracle, encode_chain
from shapenas.rules import FieldError

from corpus import synth_corpus
from test_pinned_traces import per_action, two_metrics


def make_secondary(per_action, mode="mean"):
    def fn(net, actions):
        total = sum(per_action[a] for a in actions)
        return [total / len(actions) if mode == "mean" else total]

    return CallableSecondary(fn, 1)


def make_oracle(**kw):
    kw.setdefault("base_utility", (0.25, 0.05, 0.02))
    return SyntheticOracle(SyntheticTaskSpec(**kw))


def config(**kw):
    kw.setdefault("episodes", 40)
    kw.setdefault("max_steps", 4)
    kw.setdefault("budgets", (100.0,))
    kw.setdefault("tau", -1e9)
    return ShapingConfig(**kw)


# --- elementary updates -----------------------------------------------------


def test_potential_zero_reward_zero_fixed_point():
    phi = TabularValues()
    assert potential_update(phi, ("s",), 0, ("t",), 1, 0.0,
                            beta=0.5, gamma=0.9) is None
    assert phi.value(("s",), 0) == 0.0


def test_potential_single_update_arithmetic():
    phi = TabularValues()
    potential_update(phi, ("s",), 0, ("t",), 1, 0.8, beta=0.5, gamma=0.9)
    assert phi.value(("s",), 0) == pytest.approx(0.4)


def test_potential_self_loop_converges_to_geometric_sum():
    gamma, c = 0.9, 0.5
    phi = TabularValues()
    for _ in range(3000):
        potential_update(phi, ("s",), 0, ("s",), 0, c, beta=0.5,
                         gamma=gamma)
    assert phi.value(("s",), 0) == pytest.approx(c / (1 - gamma), rel=1e-6)


def test_potential_rejects_non_finite_reward():
    with pytest.raises(ValueError):
        potential_update(TabularValues(), ("s",), 0, ("t",), 0,
                         float("inf"), beta=0.5, gamma=0.9)


def test_q_update_no_shaping_is_plain_q_target():
    q = TabularValues()
    q.blend(("t",), 1, target=2.0)
    target = q_update(q, [], (), ("s",), 0, ("t",), 1.0, [0, 1], gamma=0.9)
    assert target == pytest.approx(1.0 + 0.9 * 2.0)
    assert q.value(("s",), 0) == pytest.approx(target)


def test_q_update_from_zero_tables():
    phi = TabularValues()
    target = q_update(TabularValues(), [phi.value(("s",), 0)], (1.0,),
                      ("s",), 0, ("t",), 1.0, [0], gamma=0.9)
    assert target == 1.0


def test_q_update_shaping_term():
    phi = TabularValues()
    phi.blend(("s",), 0, target=2.0)
    target = q_update(TabularValues(), [phi.value(("s",), 0)], (0.5,),
                      ("s",), 0, ("t",), 1.0, [0], gamma=0.9)
    assert target == pytest.approx(2.0)  # 1 + 0.9*0 + 0.5*2


def test_q_update_terminal_successor():
    target = q_update(TabularValues(), [], (), ("s",), 0, ("t",),
                      0.7, [], gamma=0.9)
    assert target == pytest.approx(0.7)


def test_epsilon_update_cases():
    assert epsilon_update(0.5, 0.0, 0.01) == 0.5
    assert epsilon_update(1.0, math.log(2.0), 0.01) == pytest.approx(2.0)
    assert epsilon_update(0.005, 123.0, 0.01) == 0.0


def test_softmax_uniform_and_exact_values():
    assert np.allclose(softmax(np.array([2.0, 2.0, 2.0]), 1.0), 1 / 3)
    p = softmax(np.array([1.0, 0.0]), 1.0)
    e = math.e
    assert p[0] == pytest.approx(e / (e + 1))
    assert p[1] == pytest.approx(1 / (e + 1))
    # temperature -> 0+ concentrates on the argmax
    p = softmax(np.array([1.0, 0.0]), 1e-4)
    assert p[0] > 1 - 1e-12


def test_select_action_terminal_raises():
    with pytest.raises(TerminalStateError):
        select_action(TabularValues(), [], (), ("s",), [], 1.0,
                      np.random.default_rng(0))


def reference_softmax(scores, temperature):
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1


def generator_drawing(u):
    """A PCG64 Generator whose next ``random()`` is ``u``, a multiple of
    2**-53 in [0, 1). PCG64 steps its 128-bit state by ``state * mult +
    inc`` and then outputs the xor of the state's halves, rotated right by
    the top six bits; ``random()`` keeps that output's top 53 bits."""
    out = int(u * 2**53) << 11
    hi = 0xA5A5A5A5A5A5A5A5  # rotation 41
    rot = hi >> 58
    lo = hi ^ (((out << rot) | (out >> (64 - rot))) & MASK64)
    state = (((hi << 64) | lo) - 1) * pow(PCG64_MULTIPLIER, -1, 1 << 128)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": state % (1 << 128), "inc": 1}}
    return rng


# a few values recur, so that some draws see tied scores
SCORES = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-1.0, 0.0, 2.5]))


@settings(max_examples=400, deadline=None)
@given(scores=st.lists(st.tuples(SCORES, SCORES), min_size=1, max_size=13),
       eps=st.sampled_from([0.0, 0.3, 1.7]),
       temperature=st.floats(0.05, 10.0), seed=st.integers(0, 2**32 - 1),
       tie=st.none() | st.integers(0, 13))
# every shaped score equal: the uniform draw, at widths 1 and 13, on mixed
# -0.0 and 0.0 (q -0.0 plus 0.3 * -0.0 stays -0.0), and with u at the
# divided running sums k/k of the uniform probabilities
@example(scores=[(2.5, 2.5)], eps=0.3, temperature=1.0, seed=7, tie=None)
@example(scores=[(-1.0, 2.5)] * 13, eps=1.7, temperature=0.05, seed=7,
         tie=None)
@example(scores=[(-0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)], eps=0.3,
         temperature=2.0, seed=11, tie=None)
@example(scores=[(0.0, 0.0)] * 4, eps=0.0, temperature=1.0, seed=0, tie=0)
@example(scores=[(0.0, 0.0)] * 4, eps=0.0, temperature=1.0, seed=0, tie=2)
@example(scores=[(0.0, 0.0)] * 4, eps=0.0, temperature=1.0, seed=0, tie=3)
@example(scores=[(2.5, -1.0)] * 13, eps=0.3, temperature=3.0, seed=0, tie=5)
def test_select_action_draws_as_generator_choice(scores, eps, temperature,
                                                 seed, tie):
    s = (2, 0)
    legal = [3 * i + 1 for i in range(len(scores))]
    q = TabularValues({(s, a): v for a, (v, _) in zip(legal, scores)})
    phi = TabularValues({(s, a): v for a, (_, v) in zip(legal, scores)})
    shaped = np.array([q.value(s, a) + eps * phi.value(s, a) for a in legal])
    probs = reference_softmax(shaped, temperature)
    assert softmax(shaped, temperature) == probs.tolist()
    if tie is None:
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    else:
        # the uniform draw equals 0 or an entry of choice's CDF, the only
        # draws on which searching from the left, or a CDF rounded
        # otherwise, would pick another action
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        ties = [0.0] + [c for c in cdf.tolist()
                        if c < 1.0 and (c * 2**53).is_integer()]
        u = ties[tie % len(ties)]
        assert generator_drawing(u).random() == u
        rng, twin = generator_drawing(u), generator_drawing(u)
    want = legal[twin.choice(len(legal), p=probs)]
    assert select_action(q, [phi], (eps,), s, legal, temperature, rng) == want
    assert rng.bit_generator.state == twin.bit_generator.state


def numpy_softmax(scores, temperature):
    """The softmax as numpy operations throughout: the reference for the
    bits of the one that does its exact steps in Python floats."""
    z = np.array(scores, dtype=float)
    z /= temperature
    z -= z.max()
    np.exp(z, out=z)
    z /= z.sum()
    return z


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(scores=st.lists(SCORES | st.sampled_from([math.nan, math.inf,
                                                 -math.inf]),
                       min_size=1, max_size=13),
       temperature=st.floats(0.05, 10.0) | st.sampled_from([1, 3]))
@example(scores=[-math.inf, -math.inf, -math.inf], temperature=1.0)
@example(scores=[1.0, math.nan, 2.0], temperature=0.5)
@example(scores=[math.inf, 1.0, -math.inf], temperature=2.0)
@example(scores=[-0.0, 0.0, -math.inf], temperature=1)
# all equal: uniform at widths 1 and 13 and on mixed -0.0 and 0.0; 1e308 over
# 0.05 overflows, so that draw must still raise; all NaN
@example(scores=[2.5], temperature=0.5)
@example(scores=[-1.0] * 13, temperature=0.05)
@example(scores=[-0.0, 0.0, -0.0, 0.0], temperature=3)
@example(scores=[1e308, 1e308], temperature=0.05)
@example(scores=[math.nan, math.nan, math.nan], temperature=1.0)
def test_softmax_bits_equal_numpy_softmax(scores, temperature):
    want = numpy_softmax(scores, temperature)
    got = softmax(scores, temperature)
    assert all(type(p) is float for p in got)
    # every entry is NaN on both sides, or every bit is equal (a NaN's
    # sign and payload are not compared)
    non_finite = bool(np.isnan(want).any())
    if non_finite:
        assert np.isnan(want).all() and np.isnan(got).all()
    else:
        assert np.array(got).tobytes() == want.tobytes()
    q = TabularValues({(("s",), a): v for a, v in enumerate(scores)})
    legal = list(range(len(scores)))
    if non_finite:
        with pytest.raises(ValueError, match="is not finite"):
            select_action(q, [], (), ("s",), legal, temperature,
                          np.random.default_rng(0))
    else:
        assert select_action(q, [], (), ("s",), legal, temperature,
                             np.random.default_rng(0)) in legal


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scores", [
    [0.0, math.nan], [math.inf, 1.0], [-math.inf, -math.inf]],
    ids=["nan", "inf", "all_minus_inf"])
def test_select_action_rejects_non_finite_softmax(scores):
    q = TabularValues({(("s",), a): v for a, v in enumerate(scores)})
    with pytest.raises(ValueError, match=r"state \('s',\)"):
        select_action(q, [], (), ("s",), [0, 1], 1.0,
                      np.random.default_rng(0))


def test_select_action_never_draws_minus_inf_score():
    # probability zero, as with Generator.choice
    q = TabularValues({(("s",), 0): -math.inf})
    rng = np.random.default_rng(0)
    assert {select_action(q, [], (), ("s",), [0, 1], 1.0, rng)
            for _ in range(50)} == {1}


def test_q_update_rejects_non_finite_primary():
    for r_p in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="primary"):
            q_update(TabularValues(), [], (), ("s",), 0, ("t",),
                     r_p, [0], gamma=0.9)


# --- search loop ------------------------------------------------------------


def test_tau_infinite_stops_after_warmup(toy_space):
    cfg = config(tau=math.inf, warmup=2, max_steps=4)
    trace = run_search(toy_space, make_oracle(), make_secondary([1, 1, 1]),
                       cfg, seed=0)
    for ep in range(cfg.episodes):
        steps = [r for r in trace.records if r.episode == ep]
        assert len(steps) == 2


def test_constant_accuracy_freezes_epsilon(toy_space):
    class ConstOracle:
        def accuracy(self, net, actions):
            return 0.4

    trace = run_search(toy_space, ConstOracle(), make_secondary([1, 1, 1]),
                       config(episodes=10), seed=0)
    for rec in trace.records:
        assert rec.epsilons == (1.0,)


def test_depth_cap_limits_steps(toy_space):
    trace = run_search(toy_space, make_oracle(), make_secondary([1, 1, 1]),
                       config(max_steps=10, episodes=5), seed=0)
    for ep in range(5):
        steps = [r for r in trace.records if r.episode == ep]
        assert len(steps) <= toy_space.catalog.max_depth


def test_trace_determinism(toy_space):
    args = (toy_space, make_oracle(), make_secondary([5, 40, 70]),
            config(episodes=15))
    a = run_search(*args, seed=3)
    b = run_search(*args, seed=3)
    assert a.fingerprint() == b.fingerprint()
    c = run_search(*args, seed=4)
    assert c.fingerprint() != a.fingerprint()


def test_small_task_recovers_brute_force_optimum(toy_space):
    oracle = make_oracle(base_utility=(0.25, 0.1, 0.02), diminishing=0.5)
    best = brute_force_best_chain(toy_space, oracle, gamma=0.9)
    cfg = config(episodes=400, softmax_temperature=1.0, epsilon0=(1.0,),
                 shaping_episodes=60)
    trace = run_search(toy_space, oracle, make_secondary([10, 10, 10]), cfg,
                       seed=1)
    assert greedy_rollout(trace.state, toy_space) == best


def test_oracle_and_secondary_see_only_tuples(toy_space):
    """A chain is an action tuple wherever the search, the replicate summary
    and the brute-force enumeration hand it to the oracle or the
    secondary."""
    seen = []

    class RecordingOracle(SyntheticOracle):
        def accuracy(self, net, actions):
            seen.append(type(actions))
            return super().accuracy(net, actions)

    def metric(net, actions):
        seen.append(type(actions))
        return [float(len(actions))]

    oracle = RecordingOracle(SyntheticTaskSpec((0.25, 0.05, 0.02)))
    secondary = CallableSecondary(metric, 1)
    trace = run_search(toy_space, oracle, secondary, config(episodes=3),
                       seed=0)
    assert trace.final_actions and seen.count(tuple) == len(seen)
    seen.clear()
    harness._replicate_summary(oracle, secondary, trace, ref_size=1.0)
    assert seen == [tuple, tuple]
    seen.clear()
    brute_force_best_chain(toy_space, oracle, gamma=0.9)
    assert seen and seen.count(tuple) == len(seen)


def test_epsilon_zero_matches_plain_q_learning(toy_space):
    oracle = make_oracle()
    secondary = make_secondary([5, 40, 70])
    for backend in ("tabular", "mlp"):
        cfg_shaped = config(episodes=25, epsilon0=(0.0,), backend=backend)
        shaped = run_search(toy_space, oracle, secondary, cfg_shaped, seed=7)
        plain = run_search(toy_space, oracle, secondary,
                           config(episodes=25, backend=backend), seed=7,
                           weights=(1.0, 0.0))
        assert [r.q_target for r in shaped.records] == \
            [r.q_target for r in plain.records]
        assert [r.action for r in shaped.records] == \
            [r.action for r in plain.records]


def test_each_chain_state_computed_once(toy_space, monkeypatch):
    # a search derives each chain once: one grow, one legality check and
    # (MLP only) one embedding per distinct chain, plus the empty network's
    # legality check and embedding, and hands the stores one state object
    # per chain
    calls, states = Counter(), []
    for name in ("grow", "legal_actions", "embed_state", "select_action"):
        def counted(*args, _fn=getattr(controller, name), _name=name):
            calls[_name] += 1
            if _name == "select_action":
                states.append(args[3])
            return _fn(*args)
        monkeypatch.setattr(controller, name, counted)
    for backend in ("tabular", "mlp"):
        for weights in (None, (1.0, 0.1)):
            calls.clear()
            states.clear()
            trace = run_search(toy_space, make_oracle(),
                               make_secondary([5, 40, 70]),
                               config(episodes=10, backend=backend,
                                      hidden=(8,)), seed=0, weights=weights)
            assert len(trace.records) == 40
            chains = {r.state_key + (r.action,) for r in trace.records}
            assert len(chains) < len(trace.records)  # chains recur
            assert calls["grow"] == len(chains)
            assert calls["legal_actions"] == len(chains) + 1
            # an MLP store takes its input width from one embedding
            stores = 1 + len(trace.state.phis)
            assert calls["embed_state"] == \
                (0 if backend == "tabular" else stores + len(chains) + 1)
            # the state handed to the stores is one object per chain
            by_chain = {}
            for s, r in zip(states, trace.records, strict=True):
                assert by_chain.setdefault(r.state_key, s) is s
            assert len({id(s) for s in by_chain.values()}) == len(by_chain)
            for chain, s in by_chain.items():
                if backend == "tabular":
                    assert s == chain
                else:
                    assert not s.flags.writeable


class Undeclared:
    """An oracle that does not declare itself deterministic, so a search
    asks it on every step."""

    def __init__(self, oracle):
        self.accuracy = oracle.accuracy


# toy_space is a frozen dataclass, so one instance serves every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(backend=st.sampled_from(["tabular", "mlp"]),
       weights=st.sampled_from([None, (1.0, 0.1), (0.5, 2.0)]),
       secondary=st.sampled_from(["infeasible", "two"]),
       seed=st.integers(0, 50), min_depth=st.integers(0, 2))
def test_scores_memo_equals_per_step_scoring(toy_space, backend, weights,
                                             secondary, seed, min_depth):
    # a deterministic oracle's memoized scores give the run an oracle
    # asked on every step gives
    if secondary == "infeasible":
        source, extra = CallableSecondary(per_action, 1), {}
    else:
        source = CallableSecondary(two_metrics, 2)
        extra = dict(epsilon0=(1.0, 0.7), budgets=(100.0, 80.0))
        weights = None if weights is None else weights + (0.3,)
    cfg = config(episodes=8, backend=backend, hidden=(8,), **extra)
    oracle = make_oracle(base_utility=(0.25, 0.1, 0.02), diminishing=0.7,
                         interaction_bonus=((0, 1, 0.05),),
                         min_depth=min_depth)
    assert oracle.deterministic
    memo, asked = (run_search(toy_space, o, source, cfg, seed=seed,
                              weights=weights)
                   for o in (oracle, Undeclared(oracle)))
    assert memo.fingerprint() == asked.fingerprint()
    assert greedy_rollout(memo.state, toy_space) == \
        greedy_rollout(asked.state, toy_space)


def all_chains(space):
    """Every non-empty chain of the design space."""
    chains, frontier = [], [((), space.empty_network())]
    while frontier:
        actions, net = frontier.pop()
        for a in legal_actions(net, space.catalog):
            chain = actions + (a,)
            chains.append(chain)
            frontier.append((chain, grow(net, space.catalog, a)))
    return chains


def test_deterministic_oracle_scores_each_chain_once(toy_space, tmp_path,
                                                     caplog):
    def counted(fn, counter):
        def wrapper(net, actions):
            counter[tuple(actions)] += 1
            return fn(net, actions)
        return wrapper

    synthetic = make_oracle(base_utility=(0.25, 0.1, 0.02), diminishing=0.7)
    table = tmp_path / "table.csv"
    table.write_text("chain,accuracy\n" + "".join(
        f"{encode_chain(c)},{synthetic.accuracy(None, c)!r}\n"
        for c in all_chains(toy_space)))
    noisy = make_oracle(base_utility=(0.25, 0.1, 0.02), diminishing=0.7,
                        noise_sigma=0.05, seed=5)
    caplog.set_level(logging.DEBUG, logger="shapenas.controller")
    for oracle in (synthetic, TabularOracle(table), noisy):
        oracle_calls, secondary_calls = Counter(), Counter()
        oracle.accuracy = counted(oracle.accuracy, oracle_calls)
        secondary = CallableSecondary(
            counted(per_action, secondary_calls), 1)
        caplog.clear()
        trace = run_search(toy_space, oracle, secondary,
                           config(episodes=10), seed=0)
        chains = Counter(r.state_key + (r.action,) for r in trace.records)
        assert len(chains) < len(trace.records)  # chains recur
        per_run = chains if oracle is noisy else Counter(set(chains))
        assert oracle_calls == per_run
        assert secondary_calls == per_run
        # one DEBUG line per run: steps, and the chains scored if memoized
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "shapenas.controller"]
        assert lines == [
            f"run_episodes: 40 steps; the oracle is not memoized (it does "
            f"not declare itself deterministic)" if oracle is noisy else
            f"run_episodes: 40 steps, {len(chains)} distinct chains scored"]


def test_scalarized_rejects_state_with_potentials(toy_space):
    args = (toy_space, make_oracle(), make_secondary([5, 40, 70]),
            config(episodes=2))
    shaped = run_search(*args, seed=0)
    with pytest.raises(ValueError, match="potentials"):
        run_search(*args, seed=0, state=shaped.state, weights=(1.0, 0.1))


@pytest.mark.parametrize("copies", [0, 2])
def test_shaped_rejects_state_with_other_potential_count(toy_space, copies):
    # the shaped arm needs one potential per epsilon0 entry: without them
    # it would run unshaped, and with more it would index past the r_S
    args = (toy_space, make_oracle(), make_secondary([5, 40, 70]),
            config(episodes=2))
    state = run_search(*args, seed=0).state
    state = dataclasses.replace(state, phis=state.phis * copies,
                                epsilons=state.epsilons * copies)
    with pytest.raises(ValueError,
                       match=f"1 potentials.* {copies} potentials"):
        run_search(*args, seed=0, state=state)


def test_null_second_secondary_reduces_to_single(toy_space):
    oracle = make_oracle()
    one = make_secondary([5, 40, 70])

    def two_fn(net, actions):
        return [one.fn(net, actions)[0], 0.0]

    two = CallableSecondary(two_fn, 2)
    cfg1 = config(episodes=20, epsilon0=(1.0,), budgets=(100.0,))
    cfg2 = config(episodes=20, epsilon0=(1.0, 0.0), budgets=(100.0, 1.0))
    t1 = run_search(toy_space, oracle, one, cfg1, seed=5)
    t2 = run_search(toy_space, oracle, two, cfg2, seed=5)
    for a, b in zip(t1.records, t2.records):
        assert a.action == b.action
        assert a.q_target == b.q_target
        assert a.epsilons[0] == b.epsilons[0]
        assert a.phi_values[0] == b.phi_values[0]
        assert b.epsilons[1] == 0.0


def test_epsilon_schedule_closed_form_on_traces(toy_space):
    cfg = config(episodes=30)
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       cfg, seed=2)
    check_epsilon_schedule(trace, cfg)


def test_epsilon_schedule_check_follows_a_cutoff(toy_space):
    # epsilon 0.5 dies once accuracy falls ln(0.9) below its first value
    cfg = config(episodes=10, epsilon0=(0.5,), epsilon_threshold=0.45)
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       cfg, seed=2)
    died = next(i for i, r in enumerate(trace.records)
                if r.epsilons == (0.0,))
    assert 0 < died < len(trace.records) - 1
    assert all(r.epsilons == (0.0,) for r in trace.records[died:])
    check_epsilon_schedule(trace, cfg)

    def corrupted(index, epsilon):
        records = list(trace.records)
        records[index] = records[index]._replace(epsilons=(epsilon,))
        return dataclasses.replace(trace, records=records)

    with pytest.raises(AssertionError, match="epsilon_0 resurrected"):
        check_epsilon_schedule(corrupted(died + 1, 0.1), cfg)
    alive = trace.records[died - 1].epsilons[0]
    with pytest.raises(AssertionError, match="epsilon_0 off closed form"):
        check_epsilon_schedule(corrupted(died - 1, alive * (1 + 1e-6)), cfg)


def test_epsilon_schedule_check_rejects_under_python_O():
    # -O strips assert statements: the check raises AssertionError itself,
    # so the cutoff test's pytest.raises still sees each bad trace rejected
    test = f"{__file__}::test_epsilon_schedule_check_follows_a_cutoff"
    src = os.path.dirname(os.path.dirname(controller.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_scalarized_zero_weights_uniform_policy(toy_space):
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       config(episodes=10), seed=1, weights=(0.0, 0.0))
    assert all(r.q_target == 0.0 for r in trace.records)
    # all three root actions appear under the uniform policy
    roots = {r.action for r in trace.records if r.step == 0}
    assert roots == {0, 1, 2}


def test_infeasible_secondary_marks_trace(toy_space):
    secondary = CallableSecondary(lambda net, actions: None, 1)
    trace = run_search(toy_space, make_oracle(), secondary,
                       config(episodes=3), seed=0)
    assert all(r.infeasible for r in trace.records)
    assert all(r.r_s == (0.0,) for r in trace.records)


def test_oracle_failure_truncates_trace(toy_space):
    class FailingOracle:
        def __init__(self):
            self.calls = 0

        def accuracy(self, net, actions):
            self.calls += 1
            if self.calls > 5:
                raise RuntimeError("device went away")
            return 0.5

    trace = run_search(toy_space, FailingOracle(), make_secondary([1, 1, 1]),
                       config(episodes=10), seed=0)
    assert trace.error is not None
    assert "device went away" in trace.error
    assert len(trace.records) == 5


def test_mlp_backend_runs(toy_space):
    cfg = config(episodes=5, backend="mlp", hidden=(8,), q_step_size=1e-2)
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       cfg, seed=0)
    assert len(trace.episode_returns) == 5
    check_epsilon_schedule(trace, cfg)


def test_mlp_potentials_stay_within_return_bound(toy_space):
    # r_s lies in [0, 1], so no potential should leave 1/(1-gamma)
    cfg = config(episodes=10, backend="mlp")
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       cfg, seed=0)
    bound = 1.0 / (1.0 - cfg.gamma)
    assert all(abs(phi) <= bound
               for r in trace.records for phi in r.phi_values)


def test_mlp_backend_deterministic(toy_space):
    cfg = config(episodes=5, backend="mlp", hidden=(8,))
    args = (toy_space, make_oracle(), make_secondary([5, 40, 70]), cfg)
    assert run_search(*args, seed=2).fingerprint() == \
        run_search(*args, seed=2).fingerprint()


def test_checkpoint_resume_reproduces_trace(tmp_path, toy_space):
    oracle = make_oracle()
    secondary = make_secondary([5, 40, 70])
    for backend in ("tabular", "mlp"):
        for weights in (None, (1.0, 0.1)):
            cfg = config(episodes=20, backend=backend, hidden=(8,))
            full = run_search(toy_space, oracle, secondary, cfg, seed=9,
                              weights=weights)

            half = run_search(toy_space, oracle, secondary, cfg, seed=9,
                              episodes=10, weights=weights)
            path = tmp_path / "ckpt.json"
            save_checkpoint(half.state, path)
            resumed_state = load_checkpoint(path)
            rest = run_search(toy_space, oracle, secondary, cfg, seed=9,
                              state=resumed_state, episodes=10,
                              weights=weights)
            combined = half.records + rest.records
            assert [r.q_target for r in combined] == \
                [r.q_target for r in full.records]
            assert [r.action for r in combined] == \
                [r.action for r in full.records]
            assert rest.final_actions == full.final_actions
            resumed = controller.SearchTrace(combined, [], None, (), 0.0, 9)
            assert resumed.fingerprint() == full.fingerprint(), \
                (backend, weights)


def resume_holding_dropped_key(tmp_path, toy_space, key, value_of):
    """Resume from a checkpoint that also holds ``key``, set to
    ``value_of(first half's trace)`` as an older build wrote it; assert it
    loads, and resumes to the trace of an uninterrupted run."""
    oracle = make_oracle()
    secondary = make_secondary([5, 40, 70])
    cfg = config(episodes=20)
    full = run_search(toy_space, oracle, secondary, cfg, seed=9)
    half = run_search(toy_space, oracle, secondary, cfg, seed=9, episodes=10)
    path = tmp_path / "ckpt.json"
    save_checkpoint(half.state, path)
    doc = json.loads(path.read_text())
    assert key not in doc
    doc[key] = value_of(half)
    path.write_text(json.dumps(doc))
    rest = run_search(toy_space, oracle, secondary, cfg, seed=9,
                      state=load_checkpoint(path), episodes=10)
    resumed = controller.SearchTrace(half.records + rest.records, [], None,
                                     (), 0.0, 9)
    assert resumed.fingerprint() == full.fingerprint()


def test_checkpoint_holding_step_count_loads_and_resumes(tmp_path,
                                                         toy_space):
    """A checkpoint from before ``step_count`` was dropped still holds it."""
    resume_holding_dropped_key(tmp_path, toy_space, "step_count",
                               lambda half: len(half.records))


def test_checkpoint_holding_last_secondary_loads_and_resumes(tmp_path,
                                                             toy_space):
    """A checkpoint from before the per-secondary epsilon schedule was
    dropped holds the last step's normalized secondary rewards."""
    resume_holding_dropped_key(tmp_path, toy_space, "last_secondary",
                               lambda half: list(half.records[-1].r_s))


def test_secondary_metric_count_must_match_budgets(toy_space):
    one_metric = make_secondary([5, 40, 70])
    cfg = config(episodes=2, epsilon0=(1.0, 1.0), budgets=(100.0, 100.0))
    with pytest.raises(ValueError, match="gave 1 metrics for 2 budgets"):
        run_search(toy_space, make_oracle(), one_metric, cfg, seed=0)


def test_step_scalars_are_python_floats(toy_space):
    """The step's scalars stay ``float``, whatever number types the
    config and the secondary hand in: integer config values and a numpy
    secondary included."""
    def numpy_secondary(net, actions):
        return np.array([sum((5, 40, 70)[a] for a in actions)])

    def numpy_two(net, actions):
        return np.array([sum((5, 40, 70)[a] for a in actions),
                         25 * len(actions)])

    secondary = CallableSecondary(numpy_secondary, 1)
    runs = [
        run_search(toy_space, make_oracle(), secondary,
                   config(episodes=10, epsilon0=(1,), budgets=(100,)),
                   seed=4),
        run_search(toy_space, make_oracle(), CallableSecondary(numpy_two, 2),
                   config(episodes=10, epsilon0=(1, 2), budgets=(100, 80)),
                   seed=4),
        run_search(toy_space, make_oracle(), secondary,
                   config(episodes=10, budgets=(100,)), seed=4,
                   weights=(1, 0.1)),
        run_search(toy_space, make_oracle(), secondary,
                   config(episodes=5, backend="mlp", hidden=(8,)), seed=4),
    ]
    for trace in runs:
        for r in trace.records:
            for v in (r.r_p, *r.r_s, *r.epsilons, r.delta, r.q_target,
                      *r.phi_values, r.cum_return):
                assert type(v) is float, (r, v)
        state = trace.state
        for v in state.epsilons:
            assert type(v) is float, v
        for store in (state.q, *state.phis):
            if isinstance(store, TabularValues):
                assert all(type(v) is float for row in store.table.values()
                           for v in row.values())


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format_version": 42}')
    with pytest.raises(ValueError, match="42"):
        load_checkpoint(path)


def test_trace_export_columns(tmp_path, toy_space):
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       config(episodes=4), seed=0)
    path = tmp_path / "trace.csv"
    trace.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("episode,step,action,r_p,r_s_1,epsilon_1,delta,"
                        "q_target,phi_1,cum_return,infeasible")
    assert len(lines) == len(trace.records) + 1


def test_trace_export_cells_are_numbers(tmp_path, toy_space):
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       config(episodes=4), seed=0)
    path = tmp_path / "trace.csv"
    trace.export_csv(path)
    for line in path.read_text().strip().splitlines()[1:]:
        for cell in line.split(","):
            float(cell)


def test_shaping_config_validation():
    with pytest.raises(ValueError):
        ShapingConfig(gamma=1.0)
    with pytest.raises(ValueError):
        ShapingConfig(epsilon0=(0.5,), epsilon_threshold=0.6)
    with pytest.raises(ValueError):
        ShapingConfig(budgets=(1.0, 2.0))
    for budget in (0.0, math.nan):
        with pytest.raises(ValueError, match=re.escape(
                f"budgets entries must be in (0, inf], got ({budget!r},)")):
            ShapingConfig(budgets=(budget,))
    for key in ("beta", "softmax_temperature", "epsilon_threshold"):
        with pytest.raises(ValueError, match=re.escape(
                f"{key} must be in (0, inf], got nan")):
            ShapingConfig(**{key: math.nan})
    for e0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"epsilon0 entries must be in (-inf, inf), got ({e0!r},)")):
            ShapingConfig(epsilon0=(e0,))
    # once built, and run_search then died on a bare TypeError
    with pytest.raises(FieldError, match=re.escape(
            "episodes must be an integer, got 2.5")):
        ShapingConfig(episodes=2.5)


def test_tau_may_be_infinite_but_not_nan():
    with pytest.raises(ValueError, match=re.escape(
            "tau must be in [-inf, inf], got nan")):
        ShapingConfig(tau=math.nan)
    for tau in (math.inf, -math.inf):
        assert ShapingConfig(tau=tau).tau == tau


# --- predictor secondary ----------------------------------------------------

STARVED_CATALOG = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=5, stride=1, padding=2, channels=16),
    LayerTemplate("dwconv", kernel_size=3, stride=1, padding=1, channels=16),
    LayerTemplate("pool", kernel_size=2, stride=2),
    LayerTemplate("dense", channels=32),
), max_depth=5)
STARVED_CONTEXT = ContextSpec(2, 1, 15.0, 800, 6.4, "dsp", task=(0.25,))


@pytest.fixture(scope="module")
def starved_model(tmp_path_factory):
    """A predictor for a memory-starved context: its corpus marks the large
    layers infeasible, so it has a gate and registry rows."""
    _, data = synth_corpus(tmp_path_factory.mktemp("starved") / "stats.csv",
                           STARVED_CATALOG, [STARVED_CONTEXT],
                           SynthStatsModel(context_multipliers=(3.0,)),
                           count=300, seed=0)
    model = learn_meta(data, BobConfig(bag_size=2, rounds=15, min_samples=5),
                       seed=0)
    assert model.gate is not None and model.infeasible_registry
    return model


def bits(values):
    """A metrics tuple as exact float bits; None (infeasible) stays None."""
    return None if values is None else [v.hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 100), max_size=6))
def test_predictor_memo_matches_whole_chain_prediction(starved_model, picks):
    net, actions = CandidateNetwork((3, 16, 16)), []
    for pick in picks:
        legal = legal_actions(net, STARVED_CATALOG)
        if not legal:
            break
        actions.append(legal[pick % len(legal)])
        net = grow(net, STARVED_CATALOG, actions[-1])
    expected = bits(predict_network(
        starved_model, parse_network(net, STARVED_CONTEXT)).values)
    secondary = PredictorSecondary(starved_model, STARVED_CONTEXT)
    assert bits(secondary.metrics(net, actions)) == expected  # cold memo
    assert len(secondary.memo) == len(set(net.layer_inputs()))
    assert bits(secondary.metrics(net, actions)) == expected  # warm memo
