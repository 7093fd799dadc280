import math

import numpy as np
import pytest

from shapenas import (SearchSpace, ShapingConfig, SyntheticOracle,
                      SyntheticTaskSpec, brute_force_best_chain,
                      check_epsilon_schedule, greedy_rollout, run_search)
from shapenas.controller import (CallableSecondary, TerminalStateError,
                                 epsilon_update, load_checkpoint,
                                 potential_update, q_update,
                                 save_checkpoint, select_action, softmax)
from shapenas.function_approx import TabularValues


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
    phi2 = potential_update(phi, ("s",), None, 0, ("t",), None, 1, 0.0,
                            beta=0.5, gamma=0.9, n_actions=2)
    assert phi2.value(("s",), None, 0, 2) == 0.0


def test_potential_single_update_arithmetic():
    phi = TabularValues()
    phi2 = potential_update(phi, ("s",), None, 0, ("t",), None, 1, 0.8,
                            beta=0.5, gamma=0.9, n_actions=2)
    assert phi2.value(("s",), None, 0, 2) == pytest.approx(0.4)


def test_potential_self_loop_converges_to_geometric_sum():
    gamma, c = 0.9, 0.5
    phi = TabularValues()
    for _ in range(3000):
        phi = potential_update(phi, ("s",), None, 0, ("s",), None, 0, c,
                               beta=0.5, gamma=gamma, n_actions=1)
    assert phi.value(("s",), None, 0, 1) == pytest.approx(c / (1 - gamma),
                                                          rel=1e-6)


def test_potential_rejects_non_finite_reward():
    with pytest.raises(ValueError):
        potential_update(TabularValues(), ("s",), None, 0, ("t",), None, 0,
                         float("inf"), beta=0.5, gamma=0.9, n_actions=1)


def test_q_update_no_shaping_is_plain_q_target():
    q = TabularValues().blend(("t",), None, 1, 2, target=2.0)
    q2, target = q_update(q, [], (), ("s",), None, 0, ("t",), None, 1.0,
                          [0, 1], gamma=0.9, n_actions=2)
    assert target == pytest.approx(1.0 + 0.9 * 2.0)
    assert q2.value(("s",), None, 0, 2) == pytest.approx(target)


def test_q_update_from_zero_tables():
    q2, target = q_update(TabularValues(), [TabularValues()], (1.0,),
                          ("s",), None, 0, ("t",), None, 1.0, [0],
                          gamma=0.9, n_actions=1)
    assert target == 1.0


def test_q_update_shaping_term():
    phi = TabularValues().blend(("s",), None, 0, 1, target=2.0)
    q2, target = q_update(TabularValues(), [phi], (0.5,), ("s",), None, 0,
                          ("t",), None, 1.0, [0], gamma=0.9, n_actions=1)
    assert target == pytest.approx(2.0)  # 1 + 0.9*0 + 0.5*2


def test_q_update_terminal_successor():
    _, target = q_update(TabularValues(), [], (), ("s",), None, 0, ("t",),
                         None, 0.7, [], gamma=0.9, n_actions=1)
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
        select_action(TabularValues(), [], (), ("s",), None, [], 1.0, 2,
                      np.random.default_rng(0))


def test_q_update_rejects_non_finite_primary():
    for r_p in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="primary"):
            q_update(TabularValues(), [], (), ("s",), None, 0, ("t",), None,
                     r_p, [0], gamma=0.9, n_actions=1)


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


def test_epsilon_zero_matches_plain_q_learning(toy_space):
    oracle = make_oracle()
    secondary = make_secondary([5, 40, 70])
    cfg_shaped = config(episodes=25, epsilon0=(0.0,))
    shaped = run_search(toy_space, oracle, secondary, cfg_shaped, seed=7)
    plain = run_search(toy_space, oracle, secondary, config(episodes=25),
                       seed=7, weights=(1.0, 0.0))
    assert [r.q_target for r in shaped.records] == \
        [r.q_target for r in plain.records]
    assert [r.action for r in shaped.records] == \
        [r.action for r in plain.records]


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
    cfg = config(episodes=20)
    full = run_search(toy_space, oracle, secondary, cfg, seed=9)

    half = run_search(toy_space, oracle, secondary, cfg, seed=9, episodes=10)
    path = tmp_path / "ckpt.json"
    save_checkpoint(half.state, path)
    resumed_state = load_checkpoint(path)
    rest = run_search(toy_space, oracle, secondary, cfg, seed=9,
                      state=resumed_state, episodes=10)
    combined = half.records + rest.records
    assert [r.q_target for r in combined] == \
        [r.q_target for r in full.records]
    assert [r.action for r in combined] == [r.action for r in full.records]
    assert rest.final_actions == full.final_actions


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
        ShapingConfig(delta_mode="weird")
    with pytest.raises(ValueError):
        ShapingConfig(budgets=(1.0, 2.0))


def test_per_secondary_delta_mode_runs(toy_space):
    cfg = config(episodes=10, delta_mode="per_secondary")
    trace = run_search(toy_space, make_oracle(), make_secondary([5, 40, 70]),
                       cfg, seed=0)
    assert len(trace.episode_returns) == 10
