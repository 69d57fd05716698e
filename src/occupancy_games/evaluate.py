"""Exact and Monte Carlo evaluation of fixed joint policies.

The history-space route computes tabular state-value functions by the
backward recursion over (state, joint history) pairs; the occupancy route is
the linear pairing of those values with an occupancy state.  Both push their
levels forward through the array kernel ``occupancy.next_level`` and pull
the values back over the same rows: the tables over every state at each
reachable history, the occupancy route over the entries its support reaches,
each step's bytes checked against ``CAP_BYTES`` before it.  Simulation runs
blocks of ``_BLOCK`` episodes on uniforms from one seeded PCG64 stream in a
fixed order: one draw after another (the start, then per step each agent's
action and the outcome), each one uniform per episode.  Every draw reads its
own cursor, a copy of the stream advanced to where that draw starts, so a
block gets the same uniforms whatever the block size, and results are
reproducible bit for bit for a given seed regardless of platform.  Rule rows
go by trie code (``occupancy.rule_rows``).  Each categorical table is
cumulated once per call.  A draw is the number of its row's cumulative sums
below the episode's uniform, at most the row's last positive column.  A guide
table (Chen and Asau's index table) answers it with one gather: per row and
per bin of [0, 1) in ``_BINS`` equal bins, the last open above, it holds the
answer where that is the same for every uniform in the bin.  The episodes
whose bin holds one of the row's sums, and every draw from a table with
fewer draws than guide entries, count the sums one column at a time, so the
guide changes neither the draw order nor any result.  Before its first
draw, ``simulate`` counts the bytes it holds, the whole returns and a
block's working set, against ``CAP_BYTES``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CAP_BYTES, WALK_FIXED_BYTES, CapExceededError
from .model import PosgModel
from .occupancy import (
    Level,
    OccupancyState,
    action_probs,
    child_histories,
    entries_of,
    level_of,
    next_level,
    rows_at,
    rule_arrays,
    rule_rows,
    sum_in_order,
    to_level,
)
from .policies import (
    DecisionRule,
    JointHistory,
    JointPolicy,
    PrivateHistory,
    agent_rules,
    empty_joint_history,
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
    populated, each at every state; unreachable values never influence any
    occupancy evaluation.  Returns tables indexed t0..horizon (the last one
    empty).
    """
    if seed_histories is None:
        seed_histories = [empty_joint_history(model.n_agents)]
    # one entry per seed history, then every state at each
    level, hists = to_level(model, {(0, o): 1.0 for o in seed_histories})
    levels = _pull(model, rules_by_step, agent, t0, _every_state(model, level)[0], hists, True)
    tables = [ValueTable(agent, model.horizon, {})]
    for t, (level, hists, v) in reversed(list(enumerate(levels, t0))):
        tables.insert(0, ValueTable(agent, t, entries_of(level._replace(mass=v), hists)))
    return tables


def _pull(
    model: PosgModel,
    rules_by_step: Sequence[Sequence[DecisionRule]],
    agent: int,
    t0: int,
    level: Level,
    hists,
    every_state: bool,
) -> list[tuple[Level, tuple, np.ndarray]]:
    """Per step from ``t0`` on: the level (every state at each of its joint
    histories if ``every_state``), its histories and each entry's value.

    The levels are pushed forward once at unit mass; the values are pulled
    back over the same rows, so an entry's value depends only on the entries
    below it, whichever level it sits in.  Before each step (and its push)
    its bytes, ``_pull_bytes``, are checked against ``CAP_BYTES``."""
    levels, pulls = [], []
    rows = entries = 0  # rows pushed and entries held so far
    begin = model._successor_arrays.begin
    for t in range(t0, model.horizon):
        push = 0 if t + 1 == model.horizon else int((begin[level.xs + 1] - begin[level.xs]).sum())
        entries += len(level.xs)
        n_bytes = _pull_bytes(model, rows, entries, len(level.xs), push, every_state)
        if n_bytes > CAP_BYTES:
            raise CapExceededError("exact evaluation", n_bytes, CAP_BYTES, " bytes")
        rows += push
        a = action_probs(model, level, rule_arrays(model, rules_by_step[t], hists))
        levels.append((level, hists, (a * model.rewards[agent][level.xs]).sum(axis=1)))
        if t + 1 == model.horizon:
            break
        unit = level._replace(mass=np.ones(len(level.xs)))
        pushed = next_level(model, unit, a)
        level, place = pushed.level, np.arange(len(pushed.level.xs))
        if every_state:
            level, place = _every_state(model, level)
        pulls.append((pushed.entry, place[pushed.where], pushed.weight))
        hists = child_histories(model, hists, pushed.reached)
    for k in range(len(pulls) - 1, -1, -1):
        entry, child, weight = pulls[k]
        below = levels[k + 1][2]
        level, hists, v = levels[k]
        v = v + model.discount * np.bincount(entry, weight * below[child], len(v))
        levels[k] = (level, hists, v)
    return levels


def _pull_bytes(
    model: PosgModel, rows: int, entries: int, n: int, push: int, every_state: bool
) -> int:
    """The most ``_pull`` holds at a step of ``n`` entries and a ``push``-row
    push, counted high: 3 numbers per earlier row (entry, child, weight),
    ``n_agents + 3`` per entry held, 3 per (entry, joint action) and 9 per
    row pushed, plus ``WALK_FIXED_BYTES``.  With ``every_state``, also the
    grid built from the push, ``n_agents + 3`` numbers (state, ids, mass,
    place) per entry: every state at each child history, at most ``n_x``
    per row pushed and ``n_joint_actions · n_joint_obs`` per entry of a
    grid; and for each entry held, its value table's dict entry, about
    ``40 + n_agents`` numbers (slot, key tuple, joint history with its
    tuple of privates and hash, value)."""
    n_agents = model.n_agents
    items = 3 * rows + (n_agents + 3) * entries + 3 * model.n_joint_actions * n
    if every_state:
        grid = min(model.n_states * push, n * model.n_joint_actions * model.n_joint_obs)
        items += (n_agents + 3) * grid + (40 + n_agents) * entries
    return 8 * (items + 9 * push) + WALK_FIXED_BYTES


def _every_state(model: PosgModel, level: Level) -> tuple[Level, np.ndarray]:
    """Every state at each joint history of ``level`` (histories in id
    order, states inner, mass 1), and the place of each entry of ``level``
    in it."""
    code = np.zeros(len(level.xs), dtype=np.int64)
    for ids, n in zip(level.ids, level.n_sets):
        code = code * n + ids
    codes, history = np.unique(code, return_inverse=True)
    n_x = model.n_states
    grid = Level(
        np.tile(np.arange(n_x), len(codes)),
        tuple(np.repeat(k, n_x) for k in np.unravel_index(codes, level.n_sets)),
        np.ones(len(codes) * n_x),
        level.n_sets,
    )
    return grid, history * n_x + level.xs


def check_policy_fits(model: PosgModel, policy: JointPolicy) -> None:
    """Raise ``ValueError`` unless the policy has one agent policy per model
    agent, each spanning the model horizon."""
    horizons = [a.horizon for a in policy.agents]
    if horizons != [model.horizon] * model.n_agents:
        raise ValueError(
            f"policy horizons {horizons} != model horizon {model.horizon} "
            f"for each of {model.n_agents} agents"
        )


def evaluate_occupancy(
    model: PosgModel, policy: JointPolicy, s: OccupancyState, agent: int
) -> float:
    """Expected return from occupancy state ``s`` onward under the policy: the
    pairing of ``s`` with the values pulled back over the levels its support
    reaches, equal to the pairing with its value table.

    Mixtures are evaluated as weight-averaged pure-policy values."""
    check_policy_fits(model, policy)
    if policy.is_mixed:
        return sum(
            w * evaluate_occupancy(model, pure, s, agent)
            for w, pure in policy.pure_expansions()
        )
    return occupancy_value(model, policy.joint_rules(model), agent, s)


def occupancy_value(
    model: PosgModel,
    rules_by_step: Sequence[Sequence[DecisionRule]],
    agent: int,
    s: OccupancyState,
) -> float:
    """The pairing of ``s`` with the values of ``rules_by_step`` (one tuple of
    rules per step from ``s.t`` on) pulled back over the levels its support
    reaches: ``s(x, o)`` times the value table's ``value(x, o)``, summed
    over the entries of ``s`` in entry order.  ``s`` is converted to a level
    once and kept, so pricing many plans on one state converts it once."""
    if s.t >= model.horizon:
        return 0.0
    level, hists = level_of(model, s)
    levels = _pull(model, rules_by_step, agent, s.t, level, hists, False)
    return sum_in_order(level.mass * levels[0][2])


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------


def _rule_arrays(
    model: PosgModel, agent_policy, agent: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per step, the agent's rule as action rows by trie code below the empty
    history (``rule_rows``) and, below the last step, next_row[row, u, z]:
    the row of the child after ``u`` and ``z``, -1 where the policy never
    plays ``u`` or never reaches the row.  Raises
    ``UndefinedDecisionRuleError`` where a played child has no row."""
    rules = agent_rules(model, agent_policy)
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    root = [PrivateHistory(agent)]
    rows = rule_rows(model, agent, rules[0], root, 0)
    reached = rows_at(rows, np.zeros(1, dtype=np.intp), agent, 0)
    dists, children = [rows[1]], []
    for t in range(1, model.horizon):
        codes, probs = rows
        kids = (codes[:, None, None] * n_u + np.arange(n_u)[:, None]) * n_z + np.arange(n_z)
        played = np.zeros(probs.shape, dtype=bool)
        played[reached] = probs[reached] > 0.0
        played = np.broadcast_to(played[:, :, None], kids.shape)
        rows = rule_rows(model, agent, rules[t], root, 0)
        table = np.full(kids.shape, -1, dtype=np.intp)
        table[played] = reached = rows_at(rows, kids[played], agent, t)
        dists.append(rows[1])
        children.append(table)
    return dists, children


# the episodes ``simulate`` runs at once
_BLOCK = 2**14
# the bins of a guide table: [k, k + 1) / _BINS for k < _BINS - 1, the last
# bin open above; a power of two, so a uniform's bin is exact
_BINS = 2**8


class _Cumulative(NamedTuple):
    """A table of categorical rows, cumulated once: ``cum[j]`` holds column
    ``j`` of every row's cumulative sums, ``last`` each row's last column
    with positive probability, and ``guide[row * _BINS + k]`` the draw's
    answer for every uniform in bin ``k``, or -1 where one of the row's
    cumulative sums lies in the bin (``None`` where no guide was built)."""

    cum: np.ndarray
    last: np.ndarray
    guide: np.ndarray | None


def _cumulative(probs: np.ndarray, draws: float = np.inf) -> _Cumulative:
    """``probs`` (row, column) as a table to draw from, with a guide if
    ``draws`` are at least as many as its entries: a table of many rows
    drawn by few episodes counts its columns instead."""
    n_rows, width = probs.shape
    positive = probs[:, ::-1] > 0.0
    last = width - 1 - np.argmax(positive, axis=1)
    cum = np.cumsum(probs, axis=1)
    table = _Cumulative(np.ascontiguousarray(cum.T), last, None)
    if n_rows * _BINS > draws:
        return table
    bins = np.minimum(cum * _BINS, _BINS - 1).astype(np.intp)
    rows = np.arange(n_rows)[:, None] * _BINS
    hits = np.bincount((rows + bins).ravel(), minlength=n_rows * _BINS).reshape(n_rows, _BINS)
    # the sums below each bin, clamped to the last positive column
    guide = np.cumsum(hits, axis=1)
    guide -= hits
    np.minimum(guide, last[:, None], out=guide)
    guide[hits > 0] = -1
    return table._replace(guide=guide.ravel())


def _draw(rng: np.random.Generator, table: _Cumulative, key: np.ndarray) -> np.ndarray:
    """One categorical draw from row ``key[e]`` of ``table`` per episode
    ``e``: the number of the row's cumulative sums below one uniform, at
    most the row's last positive column (a row may sum to a little less
    than 1).  The guide answers the uniforms whose bin holds none of the
    row's sums; the rest count the sums one column at a time."""
    r = rng.random(len(key))
    if table.guide is None:
        return _count(table, r, key)
    at = (r * _BINS).astype(np.intp)
    np.minimum(at, _BINS - 1, out=at)
    at += key * _BINS
    out = table.guide.take(at)
    miss = np.flatnonzero(out < 0)
    out[miss] = _count(table, r[miss], key[miss])
    return out


def _count(table: _Cumulative, r: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The number of row ``key[e]``'s cumulative sums below ``r[e]``, at
    most the row's last positive column."""
    n = np.zeros(len(key), dtype=np.intp)
    for column in table.cum:
        n += r > column.take(key)
    return np.minimum(n, table.last.take(key))


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
    check_policy_fits(model, policy)
    n_bytes = _simulate_bytes(model, episodes)
    if n_bytes > CAP_BYTES:
        raise CapExceededError("simulation", n_bytes, CAP_BYTES, " bytes")
    rng = np.random.Generator(np.random.PCG64(seed))

    if policy.is_mixed:
        # sample one pure component per episode, then merge by episode index
        returns = np.zeros((model.n_agents, episodes))
        combos = list(policy.pure_expansions())
        weights = _cumulative(np.array([[w for w, _ in combos]]), episodes)
        picks = np.empty(episodes, dtype=np.intp)
        for lo in range(0, episodes, _BLOCK):
            block = picks[lo : lo + _BLOCK]
            block[:] = _draw(rng, weights, np.zeros(len(block), dtype=np.intp))
        for c, (_, pure) in enumerate(combos):
            mask = picks == c
            if not mask.any():
                continue
            part = _simulate_pure(model, pure, int(mask.sum()), rng)
            for row, values in zip(returns, part):
                row[mask] = values
    else:
        returns = _simulate_pure(model, policy, episodes, rng)

    # one agent at a time, so std's temporary is one row long
    means = tuple(float(row.mean()) for row in returns)
    if episodes > 1:
        stderrs = tuple(float(row.std(ddof=1) / np.sqrt(episodes)) for row in returns)
    else:
        stderrs = (0.0,) * model.n_agents
    return SimResult(episodes, means, stderrs, seed)


def _simulate_bytes(model: PosgModel, episodes: int) -> int:
    """The most ``simulate`` holds at once, counted high.  Per episode: its
    return per agent, one agent's ``std`` temporary and, for a mixture, its
    pick, a byte of a component's mask and a component's return per agent.
    Per episode of a block, its working set: four numbers per agent
    (history row, action, reward as read and as discounted) and ten for the
    state, the joint action, the outcome and a draw's working arrays.  The
    drawing tables are left out: a guide holds at most one entry per
    episode, and the rest grow with the histories the policy reaches."""
    n = model.n_agents
    return episodes * (8 * (2 * n + 2) + 1) + 8 * _BLOCK * (4 * n + 10)


def _cursors(rng: np.random.Generator, n_draws: int, episodes: int) -> list[np.random.Generator]:
    """A generator per draw, draw ``d``'s at the state of ``rng`` advanced
    by ``d · episodes`` uniforms: where that draw starts when one stream
    gives each draw, in turn, one uniform per episode."""
    cursors = []
    for d in range(n_draws):
        bits = copy.deepcopy(rng.bit_generator)
        cursors.append(np.random.Generator(bits.advance(d * episodes)))
    return cursors


def _simulate_pure(
    model: PosgModel,
    policy: JointPolicy,
    episodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each agent's discounted return per episode, run ``_BLOCK`` episodes
    at a time, over the model's horizon (``simulate`` checked that the
    policy spans it).  Each draw reads its own cursor (``_cursors``), so every
    block gets the uniforms that one stream drawn one draw after another
    gives it, and ``rng`` ends past them all."""
    n_agents = model.n_agents
    n_u = [len(actions) for actions in model.actions]
    dists = []
    children = []
    for i, agent_policy in enumerate(policy.agents):
        d, c = _rule_arrays(model, agent_policy, i)
        dists.append([_cumulative(rule, episodes) for rule in d])
        children.append([table.ravel() for table in c])

    # per (joint action, state) row, a distribution over flattened (x', z),
    # and per flattened (x', z) the next state and each agent's observation
    n_x, n_z = model.n_states, model.n_joint_obs
    outcome = _cumulative(model._dynamics.reshape(model.n_joint_actions * n_x, n_x * n_z), episodes)
    next_x = np.repeat(np.arange(n_x), n_z)
    own_obs = [
        np.tile([model.agent_obs_of_joint(i, z) for z in range(n_z)], n_x)
        for i in range(n_agents)
    ]
    rewards = model.rewards.reshape(n_agents, -1)
    start = _cumulative(model.start[None, :], episodes)

    # the start, then per step each agent's action and, below the horizon,
    # the outcome
    horizon = model.horizon
    n_draws = horizon * (n_agents + 1)
    cursors = _cursors(rng, n_draws, episodes)
    returns = np.zeros((n_agents, episodes))
    for lo in range(0, episodes, _BLOCK):
        block = returns[:, lo : lo + _BLOCK]
        draws = iter(cursors)
        root = np.zeros(block.shape[1], dtype=np.intp)
        x = _draw(next(draws), start, root)
        rows = [root] * n_agents
        gamma_t = 1.0
        for t in range(horizon):
            us = [_draw(next(draws), dists[i][t], rows[i]) for i in range(n_agents)]
            u = us[0]
            for i in range(1, n_agents):
                u = u * n_u[i] + us[i]
            block += gamma_t * rewards.take(x * model.n_joint_actions + u, axis=1)
            gamma_t *= model.discount
            if t + 1 < horizon:
                flat = _draw(next(draws), outcome, u * n_x + x)
                x = next_x.take(flat)
                for i in range(n_agents):
                    own = (rows[i] * n_u[i] + us[i]) * model.n_agent_obs(i) + own_obs[i].take(flat)
                    rows[i] = children[i][t].take(own)
    rng.bit_generator.advance(n_draws * episodes)
    return returns
