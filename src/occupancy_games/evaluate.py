"""Exact and Monte Carlo evaluation of fixed joint policies.

The history-space route computes tabular state-value functions by the
backward recursion over (state, joint history) pairs; the occupancy route is
the linear pairing of those tables with an occupancy state.  Simulation draws
batched episodes from one seeded PCG64 stream with a fixed draw order
(episode-major within each time step), so results are reproducible bit for
bit for a given seed regardless of platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import PosgModel
from .occupancy import OccupancyState
from .policies import (
    DecisionRule,
    JointHistory,
    JointPolicy,
    PrivateHistory,
    agent_rules,
    empty_joint_history,
    joint_action_dist,
)


@dataclass(frozen=True)
class ValueTable:
    """State-value table at one time step for one agent under a fixed policy
    suffix; the boundary table at the horizon is identically zero (empty)."""

    agent: int
    t: int
    values: Mapping[tuple[int, JointHistory], float]

    def value(self, x: int, o: JointHistory) -> float:
        return self.values.get((x, o), 0.0)


@dataclass(frozen=True)
class SimResult:
    episodes: int
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    seed: int


def value_tables(
    model: PosgModel,
    rules_by_step: Sequence[Sequence[DecisionRule]],
    agent: int,
    t0: int = 0,
    seed_histories: Sequence[JointHistory] | None = None,
) -> list[ValueTable]:
    """Backward recursion from the horizon down to ``t0``.

    Only histories reachable under the joint policy from the seed set are
    populated; unreachable values never influence any occupancy evaluation.
    Returns tables indexed t0..horizon (the last one empty).
    """
    horizon = model.horizon
    if seed_histories is None:
        seed_histories = [empty_joint_history(model.n_agents)]
    # per joint action, the per-agent observations possible from any state
    possible: dict[int, dict[tuple[int, ...], None]] = {}

    reachable: list[list[JointHistory]] = [list(seed_histories)]
    for t in range(t0, horizon - 1):
        rules = rules_by_step[t]
        nxt: dict[JointHistory, None] = {}
        for o in reachable[-1]:
            for u in joint_action_dist(model, rules, o):
                us = model.split_joint_action(u)
                if u not in possible:
                    possible[u] = {
                        obs: None
                        for x in range(model.n_states)
                        for _, _, obs, _ in model.successors(u, x)
                    }
                for obs in possible[u]:
                    nxt.setdefault(o.child(us, obs))
        reachable.append(list(nxt))

    tables: list[ValueTable] = [ValueTable(agent, horizon, {})]
    for t in range(horizon - 1, t0 - 1, -1):
        rules = rules_by_step[t]
        nxt = tables[0]
        values: dict[tuple[int, JointHistory], float] = {}
        for o in reachable[t - t0]:
            dists = joint_action_dist(model, rules, o)
            for x in range(model.n_states):
                total = 0.0
                for u, a_p in dists.items():
                    q = model.rewards[agent, x, u]
                    if t + 1 < horizon:
                        us = model.split_joint_action(u)
                        for x2, _, obs, dyn in model.successors(u, x):
                            q += model.discount * dyn * nxt.value(x2, o.child(us, obs))
                    total += a_p * q
                values[(x, o)] = total
        tables.insert(0, ValueTable(agent, t, values))
    return tables


def evaluate_history(
    model: PosgModel, policy: JointPolicy, agent: int
) -> list[ValueTable]:
    """State-value tables for every time step under a fixed joint policy."""
    if policy.is_mixed:
        raise ValueError("value tables are defined for tree or behavioral policies")
    if policy.horizon != model.horizon:
        raise ValueError(
            f"policy horizon {policy.horizon} != model horizon {model.horizon}"
        )
    return value_tables(model, policy.joint_rules(model), agent)


def value_table_to_csv(model: PosgModel, table: ValueTable) -> str:
    header = (
        "t,state,"
        + ",".join(f"history_{i + 1}" for i in range(model.n_agents))
        + ",value"
    )
    rows = [header]
    for (x, o), v in sorted(
        table.values.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())
    ):
        hist = ",".join(h.label(model) for h in o.privates)
        rows.append(f"{table.t},{model.states[x]},{hist},{v:.10g}")
    return "\n".join(rows) + "\n"


def sim_result_to_csv(result: SimResult) -> str:
    rows = ["agent,mean,stderr,episodes,seed"]
    for i, (mean, err) in enumerate(zip(result.means, result.stderrs)):
        rows.append(f"{i + 1},{mean:.10g},{err:.10g},{result.episodes},{result.seed}")
    return "\n".join(rows) + "\n"


def evaluate_occupancy(
    model: PosgModel, policy: JointPolicy, s: OccupancyState, agent: int
) -> float:
    """Expected return from occupancy state ``s`` onward under the policy.

    Mixtures are evaluated as weight-averaged pure-policy values."""
    if policy.is_mixed:
        return sum(
            w * evaluate_occupancy(model, pure, s, agent)
            for w, pure in policy.pure_expansions()
        )
    if s.t >= model.horizon:
        return 0.0
    seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
    tables = value_tables(
        model, policy.joint_rules(model), agent, t0=s.t, seed_histories=seeds
    )
    return linear_eval(s, tables[0])


def linear_eval(s: OccupancyState, table: ValueTable) -> float:
    """Pairing sum(s(x,o) * table(x,o)); every entry of ``s`` needs a value."""
    if table.t != s.t:
        raise ValueError(f"time-step mismatch: occupancy t={s.t}, table t={table.t}")
    missing = 0
    total = 0.0
    for key, p in s.entries.items():
        if key in table.values:
            total += p * table.values[key]
        else:
            missing += 1
    if missing:
        raise ValueError(f"{missing} occupancy entries missing from value table")
    return total


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------


def _rule_arrays(
    model: PosgModel, agent_policy, agent: int, horizon: int
) -> tuple[list[np.ndarray], list[dict]]:
    """Dense per-step (row -> action distribution) arrays plus row indices for
    every history reachable under the policy, for vectorized lookups."""
    rules = agent_rules(model, agent_policy)
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    dists: list[np.ndarray] = []
    index: list[dict] = []
    rows = {(): 0}
    for t in range(horizon):
        rule = rules[t]
        arr = np.zeros((len(rows), n_u))
        for steps, r in rows.items():
            arr[r] = rule.dist(PrivateHistory(agent, steps))
        dists.append(arr)
        index.append(rows)
        nxt = {}
        for steps, r in rows.items():
            for u in np.nonzero(arr[r])[0]:
                for z in range(n_z):
                    nxt.setdefault(steps + ((int(u), z),), len(nxt))
        rows = nxt
    return dists, index


def _child_tables(
    model: PosgModel, index: list[dict], agent: int, horizon: int
) -> list[np.ndarray]:
    """next_row[row, u, z] per step; -1 marks transitions the policy never takes."""
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    tables = []
    for t in range(horizon - 1):
        cur, nxt = index[t], index[t + 1]
        table = np.full((len(cur), n_u, n_z), -1, dtype=np.int64)
        for steps, r in cur.items():
            for u in range(n_u):
                for z in range(n_z):
                    key = steps + ((u, z),)
                    if key in nxt:
                        table[r, u, z] = nxt[key]
        tables.append(table)
    return tables


def _draw_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``probs``."""
    cum = np.cumsum(probs, axis=1)
    r = rng.random(probs.shape[0])
    return (r[:, None] > cum).sum(axis=1)


def simulate(
    model: PosgModel,
    policy: JointPolicy,
    episodes: int,
    seed: int,
) -> SimResult:
    """Monte Carlo estimate of the per-agent discounted return at the start
    belief; deterministic for a given seed."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    horizon = policy.horizon
    returns = np.zeros((model.n_agents, episodes))

    if policy.is_mixed:
        # sample one pure component per episode, then merge by episode index
        combos = list(policy.pure_expansions())
        weights = np.array([w for w, _ in combos])
        picks = _draw_rows(rng, np.tile(weights, (episodes, 1)))
        for c, (_, pure) in enumerate(combos):
            mask = picks == c
            if not mask.any():
                continue
            returns[:, mask] = _simulate_pure(model, pure, int(mask.sum()), rng, horizon)
    else:
        returns = _simulate_pure(model, policy, episodes, rng, horizon)

    means = returns.mean(axis=1)
    if episodes > 1:
        stderrs = returns.std(axis=1, ddof=1) / np.sqrt(episodes)
    else:
        stderrs = np.zeros(model.n_agents)
    return SimResult(
        episodes,
        tuple(float(v) for v in means),
        tuple(float(v) for v in stderrs),
        seed,
    )


def _simulate_pure(
    model: PosgModel,
    policy: JointPolicy,
    episodes: int,
    rng: np.random.Generator,
    horizon: int,
) -> np.ndarray:
    n_agents = model.n_agents
    dists = []
    children = []
    for i, agent_policy in enumerate(policy.agents):
        d, idx = _rule_arrays(model, agent_policy, i, horizon)
        dists.append(d)
        children.append(_child_tables(model, idx, i, horizon))

    # per-(joint action, state) distribution over flattened (x', z) outcomes
    n_x, n_z = model.n_states, model.n_joint_obs
    outcome = (
        model.transition[:, :, :, None] * model.observation[:, None, :, :]
    ).reshape(model.n_joint_actions, n_x, n_x * n_z)

    agent_obs_of = [
        np.array([model.agent_obs_of_joint(i, z) for z in range(n_z)])
        for i in range(n_agents)
    ]

    x = _draw_rows(rng, np.tile(model.start, (episodes, 1)))
    rows = [np.zeros(episodes, dtype=np.int64) for _ in range(n_agents)]
    returns = np.zeros((n_agents, episodes))
    gamma_t = 1.0
    for t in range(horizon):
        us = [_draw_rows(rng, dists[i][t][rows[i]]) for i in range(n_agents)]
        u = np.zeros(episodes, dtype=np.int64)
        for i in range(n_agents):
            u = u * len(model.actions[i]) + us[i]
        for i in range(n_agents):
            returns[i] += gamma_t * model.rewards[i, x, u]
        gamma_t *= model.discount
        if t + 1 < horizon:
            flat = _draw_rows(rng, outcome[u, x])
            x, z = np.divmod(flat, n_z)
            for i in range(n_agents):
                rows[i] = children[i][t][rows[i], us[i], agent_obs_of[i][z]]
    return returns
