"""Multi-criteria Q-learning controller with learned-potential shaping.

The primary reward (accuracy) drives the Q approximator; each secondary
reward (a normalized hardware metric) trains its own potential function,
which is added to the Q targets weighted by a trade-off epsilon. Epsilon is
coupled back to the primary signal: it multiplies by exp(growth in primary
reward) each step while above a cutoff and drops to zero permanently once
below it. A scalarized single-reward controller with the same loop is kept
as the comparison baseline.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bob import BobModel, predict_network
from .design_space import (ActionCatalog, CandidateNetwork, ContextSpec,
                           apply_action, embed_state, legal_actions,
                           parse_network)
from .function_approx import (MlpValues, TabularValues, values_from_dict)

CHECKPOINT_FORMAT_VERSION = 1


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
        if self.beta <= 0 or self.softmax_temperature <= 0:
            raise ValueError("beta and softmax_temperature must be positive")
        if self.epsilon_threshold <= 0:
            raise ValueError("epsilon_threshold must be positive")
        for e0 in self.epsilon0:
            if e0 > 0 and self.epsilon_threshold >= e0:
                raise ValueError("epsilon_threshold must be < epsilon0")
        if len(self.budgets) != len(self.epsilon0):
            raise ValueError("one budget per secondary required")
        if self.delta_mode not in ("primary", "per_secondary"):
            raise ValueError("delta_mode must be 'primary' or 'per_secondary'")
        if self.backend not in ("tabular", "mlp"):
            raise ValueError("backend must be 'tabular' or 'mlp'")


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
    epsilons: np.ndarray
    last_primary: float | None  # runs across episode boundaries
    last_secondary: np.ndarray | None
    step_count: int = 0
    episode_count: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))


@dataclass(frozen=True)
class StepRecord:
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
        payload = repr([(r.episode, r.step, r.state_key, r.action, r.r_p,
                         r.r_s, r.epsilons, r.delta, r.q_target,
                         r.phi_values, r.infeasible) for r in self.records])
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
                # float() first: a numpy scalar's repr is not a number
                fh.write(",".join(repr(float(v)) if isinstance(v, float)
                                  else str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Secondary reward sources
# ---------------------------------------------------------------------------


class PredictorSecondary:
    """Raw metrics from the learned behavior predictor, summed over layers."""

    def __init__(self, model: BobModel, context: ContextSpec):
        self.model = model
        self.context = context
        self.n_metrics = len(model.target_names)

    def metrics(self, net, actions):
        pred = predict_network(self.model, parse_network(net, self.context))
        return None if not pred.feasible else np.asarray(pred.values)


class CallableSecondary:
    """Raw metrics from an arbitrary function of (network, action chain)."""

    def __init__(self, fn, n_metrics: int):
        self.fn = fn
        self.n_metrics = n_metrics

    def metrics(self, net, actions):
        out = self.fn(net, actions)
        return None if out is None else np.asarray(out, dtype=float)


def normalize_secondary(raw, budgets) -> np.ndarray:
    """Map raw metrics to rewards in [0,1], larger = better, via budgets."""
    raw = np.asarray(raw, dtype=float)
    return 1.0 - np.clip(raw / np.asarray(budgets, dtype=float), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Elementary update rules
# ---------------------------------------------------------------------------


def epsilon_update(eps_i: float, delta_i: float, threshold: float) -> float:
    """Multiplicative coupling to primary growth; zero is absorbing."""
    if eps_i > threshold:
        return eps_i * math.exp(delta_i)
    return 0.0


def potential_update(phi, s_key, s_embed, a, sp_key, sp_embed, a_prime,
                     r_s: float, beta: float, gamma: float, n_actions: int,
                     terminal: bool = False):
    """SARSA-style step of the potential toward r_s + gamma*Phi(s',a')."""
    if not np.isfinite(r_s):
        raise ValueError(f"non-finite secondary reward {r_s!r}")
    succ = 0.0 if terminal else phi.value(sp_key, sp_embed, a_prime, n_actions)
    target = r_s + gamma * succ
    return phi.blend(s_key, s_embed, a, n_actions, target, rate=beta)


def q_update(q, phis, epsilons, s_key, s_embed, a, sp_key, sp_embed,
             r_p: float, legal_prime, gamma: float, n_actions: int):
    """Shaped Q step toward r_P + gamma*max Q(s',.) + sum_i eps_i*Phi_i(s,a).

    With the tabular backend the blend rate is 1, which applies the update
    rule literally (the new value *is* the target). Returns (new_q, target).
    """
    if not np.isfinite(r_p):
        raise ValueError(f"non-finite primary reward {r_p!r}")
    if legal_prime:
        max_q = max(q.value(sp_key, sp_embed, ap, n_actions)
                    for ap in legal_prime)
    else:
        max_q = 0.0  # terminal successor
    shaping = 0.0
    for eps_i, phi in zip(epsilons, phis):
        shaping += eps_i * phi.value(s_key, s_embed, a, n_actions)
    target = r_p + gamma * max_q + shaping
    return q.blend(s_key, s_embed, a, n_actions, target), target


def shaped_scores(q, phis, epsilons, s_key, s_embed, legal, n_actions):
    scores = []
    for a in legal:
        v = q.value(s_key, s_embed, a, n_actions)
        for eps_i, phi in zip(epsilons, phis):
            v += eps_i * phi.value(s_key, s_embed, a, n_actions)
        scores.append(v)
    return np.asarray(scores)


def softmax(scores: np.ndarray, temperature: float) -> np.ndarray:
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def select_action(q, phis, epsilons, s_key, s_embed, legal, temperature,
                  n_actions, rng) -> int:
    """Sample from the softmax over shaped scores restricted to legal actions."""
    if not legal:
        raise TerminalStateError("no legal actions in this state")
    scores = shaped_scores(q, phis, epsilons, s_key, s_embed, legal, n_actions)
    probs = softmax(scores, temperature)
    return int(legal[int(rng.choice(len(legal), p=probs))])


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


def _make_values(cfg: ShapingConfig, space: SearchSpace, seed: int, tag: int):
    if cfg.backend == "tabular":
        return TabularValues()
    dim = embed_state(space.empty_network(), space.context).shape[0]
    return MlpValues.create(dim, len(space.catalog.actions), cfg.hidden,
                            cfg.q_step_size, seed=seed * 1000 + tag)


def init_state(cfg: ShapingConfig, space: SearchSpace, seed: int) -> ShapingState:
    n_sec = len(cfg.epsilon0)
    return ShapingState(
        q=_make_values(cfg, space, seed, 0),
        phis=[_make_values(cfg, space, seed, 1 + i) for i in range(n_sec)],
        epsilons=np.asarray(cfg.epsilon0, dtype=float),
        last_primary=None,
        last_secondary=None,
        rng=np.random.default_rng(seed))


def _shaping_active(cfg: ShapingConfig, episode: int) -> bool:
    return cfg.shaping_episodes is None or episode < cfg.shaping_episodes


def run_episodes(state: ShapingState, space: SearchSpace, oracle, secondary,
                 cfg: ShapingConfig, n_episodes: int, trace: SearchTrace,
                 scalar_weights=None) -> None:
    """Advance the controller by n_episodes, appending to the trace in place.

    ``scalar_weights`` switches to the scalarized baseline: a single reward
    w0*r_P + sum_i w_i*r_S^i fed to plain Q-learning, no potentials, no
    epsilon coupling.
    """
    catalog, ctx = space.catalog, space.context
    n_actions = len(catalog.actions)
    scalarized = scalar_weights is not None
    n_sec = (len(scalar_weights) - 1) if scalarized else len(cfg.epsilon0)

    for _ in range(n_episodes):
        episode = state.episode_count
        if not scalarized and cfg.shaping_episodes is not None \
                and episode == cfg.shaping_episodes:
            state.epsilons = np.zeros_like(state.epsilons)
        net = space.empty_network()
        actions: list[int] = []
        ep_return = 0.0
        episode_last_primary = None
        pending = None  # (s_key, s_embed, a, r_s) awaiting successor action
        for step in range(cfg.max_steps):
            legal = legal_actions(net, catalog)
            if not legal:
                break
            s_key = tuple(actions)
            s_embed = embed_state(net, ctx)
            if scalarized:
                a = select_action(state.q, [], (), s_key, s_embed, legal,
                                  cfg.softmax_temperature, n_actions,
                                  state.rng)
            else:
                a = select_action(state.q, state.phis, state.epsilons, s_key,
                                  s_embed, legal, cfg.softmax_temperature,
                                  n_actions, state.rng)
                if pending is not None:
                    p_key, p_embed, p_a, p_rs = pending
                    state.phis = [
                        potential_update(phi, p_key, p_embed, p_a, s_key,
                                         s_embed, a, p_rs[i], cfg.beta,
                                         cfg.gamma, n_actions)
                        for i, phi in enumerate(state.phis)]
                    pending = None
            net_next = apply_action(net, catalog.actions[a])
            chain = actions + [a]
            try:
                r_p = float(oracle.accuracy(net_next, chain))
            except Exception as exc:  # oracle failure truncates the trace
                trace.error = f"oracle failure at episode {episode} " \
                              f"step {step}: {exc}"
                trace.final_network = net
                trace.final_actions = tuple(actions)
                return
            raw = secondary.metrics(net_next, chain) if n_sec else None
            infeasible = n_sec > 0 and raw is None
            if n_sec == 0:
                r_s = np.zeros(0)
            elif infeasible:
                r_s = np.zeros(n_sec)  # worst normalized score
            else:
                r_s = normalize_secondary(raw, cfg.budgets[:n_sec])

            delta = 0.0 if state.last_primary is None \
                else r_p - state.last_primary
            delta_stop = math.inf if episode_last_primary is None \
                else r_p - episode_last_primary

            sp_key = tuple(chain)
            sp_embed = embed_state(net_next, ctx)
            legal_prime = legal_actions(net_next, catalog)

            if scalarized:
                reward = scalar_weights[0] * r_p + sum(
                    w * v for w, v in zip(scalar_weights[1:], r_s))
                state.q, target = q_update(state.q, [], (), s_key, s_embed,
                                           a, sp_key, sp_embed, reward,
                                           legal_prime, cfg.gamma, n_actions)
                eps_rec, phi_rec = (), ()
            else:
                if cfg.delta_mode == "per_secondary" and n_sec:
                    deltas = (np.zeros(n_sec)
                              if state.last_secondary is None
                              else r_s - state.last_secondary)
                else:
                    deltas = np.full(n_sec, delta)
                if _shaping_active(cfg, episode):
                    state.epsilons = np.asarray([
                        min(cfg.epsilon_cap,
                            epsilon_update(state.epsilons[i], deltas[i],
                                           cfg.epsilon_threshold))
                        for i in range(n_sec)])
                pending = (s_key, s_embed, a, r_s)
                state.q, target = q_update(state.q, state.phis,
                                           state.epsilons, s_key, s_embed, a,
                                           sp_key, sp_embed, r_p, legal_prime,
                                           cfg.gamma, n_actions)
                eps_rec = tuple(float(e) for e in state.epsilons)
                phi_rec = tuple(phi.value(s_key, s_embed, a, n_actions)
                                for phi in state.phis)

            ep_return += r_p
            trace.records.append(StepRecord(
                episode=episode, step=step, state_key=s_key, action=a,
                r_p=r_p, r_s=tuple(float(v) for v in r_s),
                epsilons=eps_rec, delta=delta, q_target=float(target),
                phi_values=phi_rec, cum_return=ep_return,
                infeasible=bool(infeasible)))

            net, actions = net_next, chain
            state.last_primary = r_p
            state.last_secondary = r_s if n_sec else None
            state.step_count += 1
            episode_last_primary = r_p
            if step + 1 >= cfg.warmup and delta_stop < cfg.tau:
                break
        # flush the trailing potential update with a terminal successor
        if not scalarized and pending is not None:
            p_key, p_embed, p_a, p_rs = pending
            state.phis = [
                potential_update(phi, p_key, p_embed, p_a, None, None, 0,
                                 p_rs[i], cfg.beta, cfg.gamma, n_actions,
                                 terminal=True)
                for i, phi in enumerate(state.phis)]
        state.episode_count += 1
        trace.episode_returns.append(ep_return)
        trace.final_network = net
        trace.final_actions = tuple(actions)


def run_search(space: SearchSpace, oracle, secondary, cfg: ShapingConfig,
               seed: int, state: ShapingState | None = None,
               episodes: int | None = None, weights=None) -> SearchTrace:
    """Full search: init (or resume from ``state``), run episodes.

    Shaped by default; ``weights`` (w0, w1, ...) selects the scalarized
    baseline on the same loop (see ``run_episodes``).
    """
    t0 = time.perf_counter()
    if state is None:
        state = init_state(cfg, space, seed)
    trace = SearchTrace([], [], None, (), 0.0, seed)
    run_episodes(state, space, oracle, secondary, cfg,
                 episodes if episodes is not None else cfg.episodes, trace,
                 scalar_weights=None if weights is None else tuple(weights))
    trace.wall_time = time.perf_counter() - t0
    trace.state = state
    return trace


def greedy_rollout(state: ShapingState, space: SearchSpace) -> tuple:
    """Argmax rollout of the shaped score; ties break to the lowest index."""
    net = space.empty_network()
    actions = []
    n_actions = len(space.catalog.actions)
    while True:
        legal = legal_actions(net, space.catalog)
        if not legal:
            return tuple(actions)
        s_key = tuple(actions)
        s_embed = embed_state(net, space.context)
        scores = shaped_scores(state.q, state.phis, state.epsilons, s_key,
                               s_embed, legal, n_actions)
        a = legal[int(np.argmax(scores))]
        net = apply_action(net, space.catalog.actions[a])
        actions.append(a)


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
            net_next = apply_action(net, space.catalog.actions[a])
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
        "epsilons": state.epsilons.tolist(),
        "last_primary": state.last_primary,
        "last_secondary": (None if state.last_secondary is None
                           else list(state.last_secondary)),
        "step_count": state.step_count,
        "episode_count": state.episode_count,
        "rng_state": state.rng.bit_generator.state,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


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
        epsilons=np.asarray(doc["epsilons"], dtype=float),
        last_primary=doc["last_primary"],
        last_secondary=(None if doc["last_secondary"] is None
                        else np.asarray(doc["last_secondary"])),
        step_count=doc["step_count"],
        episode_count=doc["episode_count"],
        rng=rng)
