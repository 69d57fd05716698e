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
reproducible bit for bit for a given seed regardless of platform.  A draw
reads each uniform as the PCG64 word ``w`` that ``Generator.random`` reads
as ``(w >> 11) · 2⁻⁵³``.  Each agent's policy is read as
``occupancy.RuleRows`` below the empty history, and a played child without
a rule is refused before the first draw.  Each categorical table is
cumulated once per call.  A draw is the number of its row's cumulative sums
below the episode's uniform, at most the row's last positive column.  A
guide table (Chen and Asau's index table) answers it with one gather: per
row and per bin of [0, 1) in ``_BINS`` equal bins, the word's top 8 bits,
it holds the answer where that is the same for every uniform in the bin.
The episodes whose bin holds one of the row's sums, and every draw from a
table with fewer draws than guide entries, count the sums one column at a
time, so the guide changes neither the draw order nor any result.

Per step, the block loop makes each gather index the next.  An agent's draw
answers its (row, action) code; the code gathers the agent's digit of the
key ``u · n_x + x`` of joint action and state, formed once per step, and,
with the outcome flattened over (x', z), its child's row, kept times
``_BINS`` where the next table has a guide, as that guide's first entry.
The key gathers the step's discounted rewards ``γᵗ · r`` per agent and the
outcome's row.  At h=3 with two agents a block of 2¹⁴ episodes makes about
85 array passes (132 when each draw answered a column and every index was
recomputed from it).  Before its first draw, ``simulate`` counts the bytes
it holds, the whole returns and a block's working set, against
``CAP_BYTES``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CAP_BYTES, WALK_FIXED_BYTES, CapExceededError
from .model import PosgModel
from .occupancy import (
    PRUNE_EPS,
    Level,
    OccupancyState,
    action_probs,
    child_histories,
    entries_of,
    level_of,
    next_level,
    push_items,
    rule_arrays,
    rule_table,
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
    for t in range(t0, model.horizon):
        push, items = push_items(model, level, t + 1 == model.horizon)
        entries += len(level.xs)
        n_bytes = _pull_bytes(model, rows, entries, len(level.xs), push, items, every_state)
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
    model: PosgModel, rows: int, entries: int, n: int, push: int, items: int, every_state: bool
) -> int:
    """The most ``_pull`` holds at a step of ``n`` entries and a ``push``-row
    push holding ``items`` numbers (``push_items``), counted high: also 3
    numbers per earlier row (entry, child, weight) and ``n_agents + 3`` per
    entry held, plus ``WALK_FIXED_BYTES``.  With ``every_state``, also the
    grid built from the push, ``n_agents + 3`` numbers (state, ids, mass,
    place) per entry: every state at each child history, at most ``n_x``
    per row pushed and ``n_joint_actions · n_joint_obs`` per entry of a
    grid; and for each entry held, its value table's dict entry, about
    ``40 + n_agents`` numbers (slot, key tuple, joint history with its
    tuple of privates and hash, value)."""
    n_agents = model.n_agents
    items += 3 * rows + (n_agents + 3) * entries
    if every_state:
        grid = min(model.n_states * push, n * model.n_joint_actions * model.n_joint_obs)
        items += (n_agents + 3) * grid + (40 + n_agents) * entries
    return 8 * items + WALK_FIXED_BYTES


def check_full_support_fits(model: PosgModel) -> None:
    """Raise ``CapExceededError`` where exact evaluation from the start
    belief (``evaluate_occupancy``) of any policy that plays every action at
    every history would, with the same count, without a policy: its levels
    then hold every (state, joint history) the successor table reaches.
    Each level is kept as the number of joint histories per set of states
    they reach, each child found by (joint action, own observations)."""
    arrays = model._successor_arrays
    begin = arrays.begin
    pushed = np.diff(begin).tolist()
    below = []  # per state, per child, its next states
    for x in range(model.n_states):
        children = {}
        for r in range(begin[x], begin[x + 1]):
            children.setdefault((arrays.joint[r], *arrays.obs[r]), set()).add(int(arrays.nxt[r]))
        below.append(children)
    level = {frozenset(np.flatnonzero(model.start > PRUNE_EPS).tolist()): 1}
    rows = entries = 0
    for t in range(model.horizon):
        last = t + 1 == model.horizon
        n = sum(len(xs) * k for xs, k in level.items())
        push = 0 if last else sum(sum(pushed[x] for x in xs) * k for xs, k in level.items())
        entries += n
        # as push_items counts
        items = 3 * model.n_joint_actions * n + 9 * push
        n_bytes = _pull_bytes(model, rows, entries, n, push, items, False)
        if n_bytes > CAP_BYTES:
            raise CapExceededError("exact evaluation", n_bytes, CAP_BYTES, " bytes")
        rows += push
        if last:
            break
        nxt = {}
        for xs, count in level.items():
            children = {}
            for x in xs:
                for child, ys in below[x].items():
                    children.setdefault(child, set()).update(ys)
            for ys in map(frozenset, children.values()):
                nxt[ys] = nxt.get(ys, 0) + count
        level = nxt


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


# the episodes ``simulate`` runs at once
_BLOCK = 2**14
# the bins of a guide table, [k, k + 1) / _BINS: a uniform's bin is the top
# 8 bits of the PCG64 word ``w`` it is read from, as ``Generator.random``
# reads ``(w >> 11) · 2⁻⁵³``
_BINS = 2**8


class _Cumulative(NamedTuple):
    """A table of categorical rows, cumulated once.  ``cum[j]`` holds column
    ``j`` of every row's cumulative sums, the sums a draw counts: those
    before the row's last column with positive probability, +inf from there
    on, so that no draw passes that column.  ``guide[row * _BINS + k]``
    holds the draw's answer for every uniform in bin ``k``, or -1 where one
    of the row's counted sums lies in the bin (``None`` where no guide was
    built).  A draw answers ``row * stride + column``: the column where
    ``stride`` is 0, the (row, column) code where it is the width."""

    cum: np.ndarray
    guide: np.ndarray | None
    stride: int = 0

    @property
    def scale(self) -> int:
        """A draw's key for row ``r`` is ``r · scale``: the place of the
        row's first guide entry, or the row where the table has no guide."""
        return 1 if self.guide is None else _BINS


def _cumulative(probs: np.ndarray, draws: float = np.inf, coded: bool = False) -> _Cumulative:
    """``probs`` (row, column) as a table to draw from, answering with
    (row, column) codes if ``coded``, with a guide if ``draws`` are at least
    as many as its entries: a table of many rows drawn by few episodes
    counts its columns instead."""
    n_rows, width = probs.shape
    positive = probs[:, ::-1] > 0.0
    last = width - 1 - np.argmax(positive, axis=1)
    cum = np.cumsum(probs, axis=1)
    counted = np.arange(width - 1) < last[:, None]
    table = _Cumulative(
        np.ascontiguousarray(np.where(counted, cum[:, :-1], np.inf).T), None, width if coded else 0
    )
    if n_rows * _BINS > draws:
        return table
    row, column = np.nonzero(counted)
    bins = np.minimum(cum[row, column] * _BINS, _BINS - 1).astype(np.intp)
    hits = np.bincount(row * _BINS + bins, minlength=n_rows * _BINS).reshape(n_rows, _BINS)
    # the counted sums below each bin
    guide = np.cumsum(hits, axis=1)
    guide -= hits
    guide += np.arange(n_rows)[:, None] * table.stride
    guide[hits > 0] = -1
    return table._replace(guide=guide.ravel())


def _draw(bits: np.random.BitGenerator, table: _Cumulative, n: int, key=None) -> np.ndarray:
    """One categorical draw per episode ``e < n``, from row ``key[e] //
    table.scale`` of ``table`` (row 0 if ``key`` is None): the number of the
    row's cumulative sums below one uniform, at most the row's last positive
    column (a row may sum to a little less than 1), as ``table`` answers it.
    Each uniform is read from one word of ``bits``.  The guide answers the
    words whose bin holds none of the row's counted sums; the rest count
    them (``_count``)."""
    words = bits.random_raw(n)
    if table.guide is None:
        return _count(table, _uniforms(words), _rows(table, n, key))
    at = (words >> 56).view(np.intp)
    if key is not None:
        at += key
    out = table.guide.take(at)
    miss = np.flatnonzero(out < 0)
    if len(miss):
        rows = _rows(table, len(miss), None if key is None else key.take(miss))
        out[miss] = _count(table, _uniforms(words.take(miss)), rows)
    return out


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms ``Generator.random`` reads from PCG64 ``words``."""
    return (words >> 11) * 2.0**-53


def _rows(table: _Cumulative, n: int, key) -> np.ndarray:
    """The rows that ``n`` keys of ``table`` name (all 0 if ``key`` is None)."""
    return np.zeros(n, dtype=np.intp) if key is None else key // table.scale


def _count(table: _Cumulative, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The number of row ``rows[e]``'s cumulative sums below ``r[e]`` up to
    the row's last positive column, as ``table`` answers it: every column at
    once where that holds at most ``_BLOCK`` sums (a guide's misses), else
    one column at a time."""
    if len(table.cum) * len(rows) <= _BLOCK:
        n = (r > table.cum.take(rows, axis=1)).sum(axis=0)
    else:
        n = np.zeros(len(rows), dtype=np.intp)
        for column in table.cum:
            n += r > column.take(rows)
    if table.stride:
        n += rows * table.stride
    return n


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
            block[:] = _draw(rng.bit_generator, weights, len(block))
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
    Per episode of a block, its working set: four numbers per agent (key
    into its rule rows, its code, the next step's key and the reward as
    read) and ten for the state, the key of joint action and state, the
    outcome and a draw's working arrays (words, guide positions and
    answers).  The drawing tables are left out: a guide holds at most one
    entry per episode, and the rest grow with the histories the policy
    reaches and with the dynamics table."""
    n = model.n_agents
    return episodes * (8 * (2 * n + 2) + 1) + 8 * _BLOCK * (4 * n + 10)


def _cursors(
    rng: np.random.Generator, n_draws: int, episodes: int
) -> list[np.random.BitGenerator]:
    """A bit generator per draw, draw ``d``'s at the state of ``rng``'s
    advanced by ``d · episodes`` words: where that draw starts when one
    stream gives each draw, in turn, one uniform per episode."""
    return [copy.deepcopy(rng.bit_generator).advance(d * episodes) for d in range(n_draws)]


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
    gives it, and ``rng`` ends past them all.  Per step, each agent's
    (row, action) code gathers its digit of the key ``u · n_x + x`` and,
    with the outcome, its child's key; the key gathers the rewards and the
    outcome's row (see the module docstring)."""
    n_agents, horizon = model.n_agents, model.horizon
    n_x, n_z = model.n_states, model.n_joint_obs
    n_flat = n_x * n_z
    n_u = [len(actions) for actions in model.actions]
    dists, digits, children = [], [], []
    for i, agent_policy in enumerate(policy.agents):
        table = rule_table(model, i, agent_rules(model, agent_policy), [PrivateHistory(i)])
        for d, (rows, below) in enumerate(zip(table.rows, table.children)):
            # a played child without a rule fails before any draw
            r, u, z = np.nonzero((below < 0) & (rows > 0.0)[:, :, None])
            if len(r):
                raise table.undefined(i, d, r[0], u[0], z[0])
        dists.append([_cumulative(rows, episodes, coded=True) for rows in table.rows])
        # the agent's action adds its digit of u, times n_x, to the key
        digit = n_x * math.prod(n_u[i + 1 :])
        digits.append([np.tile(np.arange(n_u[i]) * digit, len(rows)) for rows in table.rows])
        # per (code, flattened outcome) the child's key, by own observation
        own = np.tile([model.agent_obs_of_joint(i, z) for z in range(n_z)], n_x)
        children.append(
            [
                below[:, :, own].ravel() * dists[i][t + 1].scale
                for t, below in enumerate(table.children)
            ]
        )

    # per (joint action, state) row, a distribution over flattened (x', z),
    # the next state of each, and per step the discounted rewards by key
    n_ja = model.n_joint_actions
    outcome = _cumulative(model._dynamics.reshape(n_ja * n_x, n_flat), episodes)
    next_x = np.repeat(np.arange(n_x), n_z)
    by_key = model.rewards.transpose(0, 2, 1).reshape(n_agents, n_ja * n_x)
    discounted, gamma_t = [], 1.0
    for t in range(horizon):
        discounted.append(gamma_t * by_key)
        gamma_t *= model.discount
    start = _cumulative(model.start[None, :], episodes)

    # the start, then per step each agent's action and, below the horizon,
    # the outcome
    n_draws = horizon * (n_agents + 1)
    cursors = _cursors(rng, n_draws, episodes)
    returns = np.zeros((n_agents, episodes))
    for lo in range(0, episodes, _BLOCK):
        block = returns[:, lo : lo + _BLOCK]
        n = block.shape[1]
        draws = iter(cursors)
        key = _draw(next(draws), start, n)  # the state, each agent's digit added
        rows = [None] * n_agents
        for t in range(horizon):
            codes = [_draw(next(draws), dists[i][t], n, rows[i]) for i in range(n_agents)]
            for i, code in enumerate(codes):
                key += digits[i][t].take(code)
            for row, rewards in zip(block, discounted[t]):
                row += rewards.take(key)
            if t + 1 < horizon:
                key *= outcome.scale
                flat = _draw(next(draws), outcome, n, key)
                for i, code in enumerate(codes):
                    code *= n_flat
                    code += flat
                    rows[i] = children[i][t].take(code)
                key = next_x.take(flat)  # the next state
    rng.bit_generator.advance(n_draws * episodes)
    return returns
