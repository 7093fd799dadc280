"""Multi-criteria Q-learning controller with learned-potential shaping.

The primary reward (accuracy) drives the Q approximator; each secondary
reward (a normalized hardware metric) trains its own potential function,
which is added to the Q targets weighted by a trade-off epsilon. Epsilon is
coupled back to the primary signal: it multiplies by exp(growth in primary
reward) each step while above a cutoff and drops to zero permanently once
below it. The comparison baseline is the same loop without potentials or
epsilons: plain Q-learning on the scalarized reward w0*r_P + sum_i w_i*r_S^i.

An arm is described by ``weights`` alone: None is the shaped arm, and a
tuple (w0, w1, ...) is the scalarized arm's Q-reward weights. ``run_search``
derives the arm's potentials from it, so a new arm is one more
``(name, weights)`` entry in ``harness.cmd_compare``'s list.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .bob import (BobModel, MetaPrediction, network_prediction,
                  predict_network)
from .design_space import (ActionCatalog, CandidateNetwork, ContextSpec,
                           embed_state, grow, legal_actions, parse_network)
from .function_approx import (MlpValues, TabularValues, values_from_dict)

CHECKPOINT_FORMAT_VERSION = 1

log = logging.getLogger(__name__)


class TerminalStateError(ValueError):
    """Action requested in a state with no legal actions."""


@dataclass(frozen=True)
class ShapingConfig:
    gamma: float = 0.9
    beta: float = 0.5
    epsilon0: tuple[float, ...] = (1.0,)
    epsilon_threshold: float = 0.01
    tau: float = 1e-3
    softmax_temperature: float = 1.0
    max_steps: int = 8
    episodes: int = 100
    warmup: int = 3  # steps before the tau stopping rule can fire
    budgets: tuple[float, ...] = (100.0,)  # metric budget per secondary
    shaping_episodes: int | None = None  # finite shaping phase; None = always
    epsilon_cap: float = math.inf
    delta_mode: str = "primary"  # or "per_secondary"
    backend: str = "tabular"  # or "mlp"
    hidden: tuple[int, ...] = (32, 32)
    q_step_size: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax_temperature must be positive")
        if self.epsilon_threshold <= 0:
            raise ValueError("epsilon_threshold must be positive")
        for name, least in (("max_steps", 1), ("episodes", 1), ("warmup", 0),
                            ("shaping_episodes", 0)):
            value = getattr(self, name)
            if name == "shaping_episodes" and value is None:
                continue
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{least}, got {value!r}")
        for e0 in self.epsilon0:
            if e0 > 0 and self.epsilon_threshold >= e0:
                raise ValueError("epsilon_threshold must be < epsilon0")
        if len(self.budgets) != len(self.epsilon0):
            raise ValueError("one budget per secondary required")
        if any(b <= 0 for b in self.budgets):
            raise ValueError("budgets must be positive")
        if not self.epsilon_cap >= 0:  # NaN fails this too
            raise ValueError(f"epsilon_cap must be >= 0, got "
                             f"{self.epsilon_cap!r}")
        if self.delta_mode not in ("primary", "per_secondary"):
            raise ValueError("delta_mode must be 'primary' or 'per_secondary'")
        if self.backend not in ("tabular", "mlp"):
            raise ValueError("backend must be 'tabular' or 'mlp'")
        if not (isinstance(self.hidden, (tuple, list))
                and all(type(h) is int and h >= 1 for h in self.hidden)):
            raise ValueError(f"hidden must be a list of positive integers "
                             f"(the hidden layer widths), got "
                             f"{self.hidden!r}")
        if not (isinstance(self.q_step_size, (int, float))
                and 0 < self.q_step_size < math.inf):  # NaN fails this too
            raise ValueError(f"q_step_size must be a finite number > 0, got "
                             f"{self.q_step_size!r}")


@dataclass(frozen=True)
class SearchSpace:
    catalog: ActionCatalog
    context: ContextSpec
    input_shape: tuple[int, int, int] = (3, 16, 16)

    def empty_network(self) -> CandidateNetwork:
        return CandidateNetwork(self.input_shape)


@dataclass
class ShapingState:
    q: object
    phis: list
    epsilons: tuple  # floats, one per potential
    last_primary: float | None  # runs across episode boundaries
    last_secondary: list | None  # the last step's normalized r_s
    episode_count: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))


class StepRecord(NamedTuple):
    episode: int
    step: int
    state_key: tuple
    action: int
    r_p: float
    r_s: tuple
    epsilons: tuple
    delta: float
    q_target: float
    phi_values: tuple
    cum_return: float
    infeasible: bool = False


@dataclass
class SearchTrace:
    records: list
    episode_returns: list  # cumulative primary return per episode
    final_network: CandidateNetwork | None
    final_actions: tuple
    wall_time: float
    seed: int
    error: str | None = None
    state: ShapingState | None = None  # controller state after the run

    def fingerprint(self) -> str:
        """sha256 of the records' values: every float field is cast with
        ``float()``, so a numpy scalar and a float of equal value hash
        alike, and ``repr`` of a float round-trips every bit."""
        def floats(values):
            return tuple(float(v) for v in values)

        payload = repr([(r.episode, r.step, r.state_key, r.action,
                         float(r.r_p), floats(r.r_s), floats(r.epsilons),
                         float(r.delta), float(r.q_target),
                         floats(r.phi_values), r.infeasible)
                        for r in self.records])
        return hashlib.sha256(payload.encode()).hexdigest()

    def export_csv(self, path) -> None:
        """Per-step rows: episode,step,action,r_p,r_s_*,epsilon_*,delta,
        q_target,phi_*,cum_return,infeasible."""
        n_sec = len(self.records[0].r_s) if self.records else 0
        header = ["episode", "step", "action", "r_p"]
        header += [f"r_s_{i + 1}" for i in range(n_sec)]
        header += [f"epsilon_{i + 1}" for i in range(n_sec)]
        header += ["delta", "q_target"]
        header += [f"phi_{i + 1}" for i in range(n_sec)]
        header += ["cum_return", "infeasible"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for r in self.records:
                row = [r.episode, r.step, r.action, r.r_p, *r.r_s,
                       *r.epsilons, r.delta, r.q_target, *r.phi_values,
                       r.cum_return, int(r.infeasible)]
                fh.write(",".join(map(str, row)) + "\n")


# ---------------------------------------------------------------------------
# Secondary reward sources
# ---------------------------------------------------------------------------


class PredictorSecondary:
    """Raw metrics from the learned behavior predictor, summed over layers.

    Given the model and the context, a layer's prediction depends only on
    its input shape and its resolved layer, so ``memo`` maps each
    ``(input shape, layer)`` to its MetaPrediction, predicted once from the
    row ``parse_network`` builds for the layer alone. The memo is never
    evicted, because a design space reaches finitely many such pairs.
    """

    def __init__(self, model: BobModel, context: ContextSpec):
        self.model = model
        self.context = context
        self.n_metrics = len(model.target_names)
        self.memo: dict = {}

    def _layer(self, shape, layer) -> MetaPrediction:
        pred = self.memo.get((shape, layer))
        if pred is None:
            row = parse_network(CandidateNetwork(shape, (layer,)),
                                self.context)
            pred = self.memo[shape, layer] = predict_network(self.model, row)
        return pred

    def metrics(self, net, actions):
        return network_prediction(
            [self._layer(shape, layer) for shape, layer in net.layer_inputs()],
            self.n_metrics).values


class CallableSecondary:
    """Raw metrics from an arbitrary function of (network, action chain).

    ``fn`` must be a function of the chain: with a deterministic oracle,
    ``run_episodes`` calls it once per distinct chain in a run and reuses
    the metrics on later visits.
    """

    def __init__(self, fn, n_metrics: int):
        self.fn = fn
        self.n_metrics = n_metrics

    def metrics(self, net, actions):
        out = self.fn(net, actions)
        return None if out is None else [float(v) for v in out]


def normalize_secondary(raw, budgets) -> list:
    """Map raw metrics to rewards in [0,1], larger = better, via budgets:
    ``1 - min(max(x/b, 0), 1)`` per metric, which keeps a NaN."""
    if len(raw) != len(budgets):
        raise ValueError(f"the secondary gave {len(raw)} metrics for "
                         f"{len(budgets)} budgets")
    return [1.0 - min(max(x / b, 0.0), 1.0) for x, b in zip(raw, budgets)]


# ---------------------------------------------------------------------------
# Elementary update rules
# ---------------------------------------------------------------------------


def epsilon_update(eps_i: float, delta_i: float, threshold: float) -> float:
    """Multiplicative coupling to primary growth; zero is absorbing."""
    if eps_i > threshold:
        return eps_i * math.exp(delta_i)
    return 0.0


def potential_update(phi, s, a, sp, a_prime, r_s: float, beta: float,
                     gamma: float):
    """SARSA-style step of the potential toward r_s + gamma*Phi(s',a'), in
    place; ``sp`` None is a terminal successor."""
    if not math.isfinite(r_s):
        raise ValueError(f"non-finite secondary reward {r_s!r}")
    succ = 0.0 if sp is None else phi.value(sp, a_prime)
    phi.blend(s, a, r_s + gamma * succ, rate=beta)


def q_update(q, phi_values, epsilons, s, a, sp, r_p: float, legal_prime,
             gamma: float) -> float:
    """Shaped Q step toward r_P + gamma*max Q(s',.) + sum_i eps_i*Phi_i(s,a);
    ``phi_values`` holds each Phi_i(s,a).

    With the tabular backend the blend rate is 1, which applies the update
    rule literally (the new value *is* the target). Updates ``q`` in place
    and returns the target.
    """
    if not math.isfinite(r_p):
        raise ValueError(f"non-finite primary reward {r_p!r}")
    if legal_prime:
        max_q = max(q.values(sp, legal_prime))
    else:
        max_q = 0.0  # terminal successor
    shaping = 0.0
    for eps_i, phi_sa in zip(epsilons, phi_values):
        shaping += eps_i * phi_sa
    target = r_p + gamma * max_q + shaping
    q.blend(s, a, target)
    return target


def shaped_scores(q, phis, epsilons, s, legal) -> list:
    """Q(s,a) + sum_i eps_i*Phi_i(s,a) for each legal a, as floats; the
    terms are added in that order."""
    scores = q.values(s, legal)
    for eps_i, phi in zip(epsilons, phis):
        scores = [v + eps_i * p for v, p in zip(scores, phi.values(s, legal))]
    return scores


def softmax(scores, temperature: float) -> list[float]:
    """Softmax of ``scores / temperature`` as a list of floats. The
    division, the max, the shift and the normalization are exact IEEE
    operations, done here in Python floats with the bits numpy's give; only
    ``np.exp`` and numpy's pairwise ``sum`` stay, since ``math.exp`` and a
    sequential sum round otherwise. A NaN or +inf score, or all -inf, makes
    every entry NaN, as in numpy (``max`` may pass over a NaN, but then the
    sum is NaN)."""
    z = [x / temperature for x in scores]
    top = max(z)
    e = np.exp([x - top for x in z])
    total = float(e.sum())
    return [x / total for x in e.tolist()]


def select_action(q, phis, epsilons, s, legal, temperature, rng) -> int:
    """Sample from the softmax over shaped scores restricted to legal actions.

    The draw is ``legal[rng.choice(len(legal), p=probs)]`` done with
    ``Generator.choice``'s own arithmetic, without its checks of ``p``: the
    sequential cumulative sum of ``probs`` (``np.cumsum``'s), and the first
    entry that, divided by the last, lies above one ``rng.random()`` (the
    index ``searchsorted(side="right")`` finds among the divided entries).
    So both the action drawn and the generator's state after the draw are
    ``choice``'s.
    """
    if not legal:
        raise TerminalStateError("no legal actions in this state")
    cdf = list(accumulate(softmax(shaped_scores(q, phis, epsilons, s, legal),
                                  temperature)))
    total = cdf[-1]
    if not math.isfinite(total):  # a NaN or +inf score, or all -inf
        raise ValueError(f"state {s!r}: the softmax of the shaped scores at "
                         f"temperature {temperature!r} is not finite")
    u = rng.random()
    for a, c in zip(legal, cdf):  # the last entry divides to 1.0 > u
        if c / total > u:
            return int(a)


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


def _make_values(cfg: ShapingConfig, space: SearchSpace, seed: int, tag: int):
    if cfg.backend == "tabular":
        return TabularValues()
    dim = embed_state(space.empty_network(), space.context).shape[0]
    return MlpValues.create(dim + len(space.catalog.actions), cfg.hidden,
                            cfg.q_step_size, seed=seed * 1000 + tag)


def _state_of(q, ctx):
    """The value stores' state of a chain, by the store's type: its action
    tuple for the table, its ``embed_state`` vector, made read-only, for the
    MLP. ``embed_state`` is looked up in this module at each call, where the
    traced benchmark run wraps it."""
    if not isinstance(q, MlpValues):
        return lambda net, chain: chain

    def embedded(net, chain):
        s = embed_state(net, ctx)
        s.flags.writeable = False
        return s
    return embedded


def run_episodes(state: ShapingState, space: SearchSpace, oracle, secondary,
                 cfg: ShapingConfig, n_episodes: int, trace: SearchTrace,
                 weights=None) -> None:
    """Advance the controller by n_episodes, appending to the trace in place.

    ``weights`` is the arm, as in ``run_search``: None is the shaped arm,
    whose Q reward is r_P and which reads one secondary per potential of
    ``state``; (w0, w1, ...) is the scalarized arm, whose Q reward is
    w0*r_P + sum_i w_i*r_S^i over one secondary per weight after w0.

    A chain is an action tuple, and the run derives each chain once: on its
    first visit ``nodes`` maps it to its network (``grow``), its state in
    the value stores and its legal actions, and later visits read them
    back. So an MLP state is one array per chain, which the store's
    remembered forwards find again by identity. When the oracle declares
    itself ``deterministic``, the node also keeps the chain's scores (r_P,
    the normalized r_S, the infeasible flag and the Q reward) from the
    first visit, so each chain is scored once per call; the secondary must
    then be a function of the chain, as ``CallableSecondary`` requires. Any
    other oracle, and the secondary with it, is asked on every step.
    """
    catalog = space.catalog
    q, phis, rng = state.q, state.phis, state.rng
    state_of = _state_of(q, space.context)
    n_sec = len(phis) if weights is None else len(weights) - 1
    budgets = [float(b) for b in cfg.budgets[:n_sec]]
    cap = float(cfg.epsilon_cap)
    beta, gamma, temperature = cfg.beta, cfg.gamma, cfg.softmax_temperature
    threshold, tau, warmup = cfg.epsilon_threshold, cfg.tau, cfg.warmup
    per_secondary = cfg.delta_mode == "per_secondary" and n_sec > 0
    memo = getattr(oracle, "deterministic", False) is True
    record = trace.records.append
    first = len(trace.records)  # the run's steps are the records after it
    root = space.empty_network()
    # chain -> (network, state, legal actions, scores or None)
    nodes = {(): (root, state_of(root, ()), legal_actions(root, catalog),
                  None)}

    for _ in range(n_episodes):
        episode = state.episode_count
        shaping_phase = cfg.shaping_episodes is None \
            or episode < cfg.shaping_episodes
        if not shaping_phase:  # a finite shaping phase is over
            state.epsilons = (0.0,) * len(state.epsilons)
        # each step's successor is the next step's (chain, net, s, legal)
        actions = ()
        net, s, legal, _ = nodes[actions]
        ep_return = 0.0
        episode_last_primary = None
        pending = None  # (s, a, r_s) awaiting successor action
        for step in range(cfg.max_steps):
            if not legal:
                break
            a = select_action(q, phis, state.epsilons, s, legal, temperature,
                              rng)
            if pending is not None:
                p_s, p_a, p_rs = pending
                for i, phi in enumerate(phis):
                    potential_update(phi, p_s, p_a, s, a, p_rs[i], beta, gamma)
            chain = actions + (a,)
            node = nodes.get(chain)
            if node is None:
                grown = grow(net, catalog, a)
                node = nodes[chain] = (grown, state_of(grown, chain),
                                       legal_actions(grown, catalog), None)
            net_next, sp, legal_prime, scores = node
            if scores is None:
                try:
                    r_p = float(oracle.accuracy(net_next, chain))
                except Exception as exc:  # oracle failure truncates the trace
                    trace.error = f"oracle failure at episode {episode} " \
                                  f"step {step}: {exc}"
                    trace.final_network = net
                    trace.final_actions = actions
                    _log_scoring(memo, nodes, len(trace.records) - first)
                    return
                raw = secondary.metrics(net_next, chain) if n_sec else None
                infeasible = n_sec > 0 and raw is None
                r_s = ((0.0,) * n_sec if raw is None  # worst normalized score
                       else tuple(normalize_secondary(raw, budgets)))
                reward = r_p
                if weights is not None:
                    # term by term, not sum(): from Python 3.12 sum() rounds
                    # a float sum differently (compensated summation)
                    reward = 0.0
                    for w, v in zip(weights[1:], r_s):
                        reward += w * v
                    reward = weights[0] * r_p + reward
                if memo:
                    nodes[chain] = (net_next, sp, legal_prime,
                                    (r_p, r_s, infeasible, reward))
            else:
                r_p, r_s, infeasible, reward = scores

            delta = 0.0 if state.last_primary is None \
                else r_p - state.last_primary
            delta_stop = math.inf if episode_last_primary is None \
                else r_p - episode_last_primary

            if per_secondary:
                deltas = ([0.0] * n_sec if state.last_secondary is None
                          else [v - last for v, last in
                                zip(r_s, state.last_secondary)])
            else:
                deltas = [delta] * n_sec
            if shaping_phase:
                state.epsilons = tuple([
                    min(cap, epsilon_update(eps_i, delta_i, threshold))
                    for eps_i, delta_i in zip(state.epsilons, deltas)])
            pending = (s, a, r_s)
            # the potentials at (s, a) after the pending blend, which moves
            # them on the MLP backend; a list makes a tuple faster
            phi_sa = tuple([phi.value(s, a) for phi in phis])
            target = q_update(q, phi_sa, state.epsilons, s, a, sp, reward,
                              legal_prime, gamma)

            ep_return += r_p
            record(StepRecord(episode, step, actions, a, r_p, r_s,
                              state.epsilons, delta, target, phi_sa,
                              ep_return, infeasible))

            actions, net, s, legal = chain, net_next, sp, legal_prime
            state.last_primary = r_p
            state.last_secondary = r_s if n_sec else None
            episode_last_primary = r_p
            if step + 1 >= warmup and delta_stop < tau:
                break
        # flush the trailing potential update with a terminal successor
        if pending is not None:
            p_s, p_a, p_rs = pending
            for i, phi in enumerate(phis):
                potential_update(phi, p_s, p_a, None, 0, p_rs[i], beta, gamma)
        state.episode_count += 1
        trace.episode_returns.append(ep_return)
        trace.final_network = net
        trace.final_actions = actions
    _log_scoring(memo, nodes, len(trace.records) - first)


def _log_scoring(memo, nodes, steps) -> None:
    """Log at DEBUG how many steps a run took and how many distinct chains
    it scored, or that its oracle is not memoized."""
    if not log.isEnabledFor(logging.DEBUG):
        return
    if memo:
        log.debug("run_episodes: %d steps, %d distinct chains scored", steps,
                  sum(node[3] is not None for node in nodes.values()))
    else:
        log.debug("run_episodes: %d steps; the oracle is not memoized (it "
                  "does not declare itself deterministic)", steps)


def run_search(space: SearchSpace, oracle, secondary, cfg: ShapingConfig,
               seed: int, state: ShapingState | None = None,
               episodes: int | None = None, weights=None) -> SearchTrace:
    """Full search: init (or resume from ``state``), run episodes.

    ``weights`` describes the arm. None is the shaped arm, with one
    potential and one epsilon per ``cfg.epsilon0`` entry; (w0, w1, ...) is
    the scalarized baseline, the same loop without potentials or epsilons
    on the Q reward w0*r_P + sum_i w_i*r_S^i (see ``run_episodes``). A
    resumed ``state`` must hold as many potentials and epsilons as the arm.
    """
    t0 = time.perf_counter()
    n_phi = len(cfg.epsilon0) if weights is None else 0
    if state is None:
        state = ShapingState(
            q=_make_values(cfg, space, seed, 0),
            phis=[_make_values(cfg, space, seed, 1 + i)
                  for i in range(n_phi)],
            epsilons=tuple(float(e) for e in cfg.epsilon0[:n_phi]),
            last_primary=None,
            last_secondary=None,
            rng=np.random.default_rng(seed))
    elif len(state.phis) != n_phi or len(state.epsilons) != n_phi:
        raise ValueError(
            f"the {'shaped' if weights is None else 'scalarized'} arm runs "
            f"on {n_phi} potentials and epsilons, but the state has "
            f"{len(state.phis)} potentials and {len(state.epsilons)} "
            f"epsilons")
    trace = SearchTrace([], [], None, (), 0.0, seed)
    run_episodes(state, space, oracle, secondary, cfg,
                 episodes if episodes is not None else cfg.episodes, trace,
                 weights=None if weights is None else tuple(weights))
    trace.wall_time = time.perf_counter() - t0
    trace.state = state
    return trace


def greedy_rollout(state: ShapingState, space: SearchSpace) -> tuple:
    """Argmax rollout of the shaped score; ties break to the lowest index."""
    state_of = _state_of(state.q, space.context)
    net = space.empty_network()
    actions = ()
    while True:
        legal = legal_actions(net, space.catalog)
        if not legal:
            return actions
        scores = shaped_scores(state.q, state.phis, state.epsilons,
                               state_of(net, actions), legal)
        a = legal[int(np.argmax(scores))]
        net = grow(net, space.catalog, a)
        actions += (a,)


def brute_force_best_chain(space: SearchSpace, oracle, gamma: float) -> tuple:
    """Enumerate every complete chain; maximize the discounted primary return."""
    best, best_value = (), -math.inf

    def visit(net, actions, value, t):
        nonlocal best, best_value
        legal = legal_actions(net, space.catalog)
        if not legal:
            if value > best_value:
                best, best_value = tuple(actions), value
            return
        for a in legal:
            net_next = grow(net, space.catalog, a)
            r = float(oracle.accuracy(net_next, actions + [a]))
            visit(net_next, actions + [a], value + (gamma ** t) * r, t + 1)

    visit(space.empty_network(), [], 0.0, 0)
    return best


# ---------------------------------------------------------------------------
# Epsilon schedule verification
# ---------------------------------------------------------------------------


def check_epsilon_schedule(trace: SearchTrace, cfg: ShapingConfig,
                           rel_tol: float = 1e-9) -> None:
    """Verify the closed form of the epsilon schedule on an emitted trace.

    While a component has stayed above the cutoff, eps_t must equal
    eps_0 * exp(r_P(t) - r_P(0)); once it falls to zero (by crossing the
    cutoff or by the end of a finite shaping phase) it must stay exactly
    zero. Raises AssertionError with the offending record on violation.
    """
    if not trace.records:
        return
    if cfg.delta_mode != "primary" or math.isfinite(cfg.epsilon_cap):
        raise ValueError("closed-form check applies to the uncapped "
                         "primary-growth schedule only")
    n_sec = len(trace.records[0].epsilons)
    first_rp = trace.records[0].r_p
    eps0 = np.asarray(cfg.epsilon0, dtype=float)
    alive = [e > cfg.epsilon_threshold for e in eps0]
    for rec in trace.records:
        phase_over = (cfg.shaping_episodes is not None
                      and rec.episode >= cfg.shaping_episodes)
        for i in range(n_sec):
            got = rec.epsilons[i]
            if phase_over or not alive[i]:
                assert got == 0.0, (
                    f"epsilon_{i} resurrected at ep {rec.episode} "
                    f"step {rec.step}: {got}")
                continue
            expected = eps0[i] * math.exp(rec.r_p - first_rp)
            err = abs(got - expected) / max(abs(expected), 1e-300)
            assert err <= rel_tol, (
                f"epsilon_{i} off closed form at ep {rec.episode} "
                f"step {rec.step}: {got} vs {expected}")
            if expected <= cfg.epsilon_threshold:
                alive[i] = False  # next update drops it to exactly zero


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(state: ShapingState, path) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "q": state.q.to_dict(),
        "phis": [phi.to_dict() for phi in state.phis],
        "epsilons": list(state.epsilons),
        "last_primary": state.last_primary,
        "last_secondary": state.last_secondary,
        "episode_count": state.episode_count,
        "rng_state": state.rng.bit_generator.state,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # json.dump never takes the C encoder


def load_checkpoint(path) -> ShapingState:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version}, this build "
                         f"reads {CHECKPOINT_FORMAT_VERSION}")
    rng = np.random.default_rng(0)
    rng.bit_generator.state = doc["rng_state"]
    return ShapingState(
        q=values_from_dict(doc["q"]),
        phis=[values_from_dict(d) for d in doc["phis"]],
        epsilons=tuple(doc["epsilons"]),
        last_primary=doc["last_primary"],
        last_secondary=doc["last_secondary"],
        episode_count=doc["episode_count"],
        rng=rng)
