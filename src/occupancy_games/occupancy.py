"""Occupancy states, private occupancy states, and their exact updates.

An occupancy state is the posterior over (hidden state, joint history) given
everything a central planner knows at plan time: the initial belief, the
decision rules issued so far, and the public observation stream.  A private
occupancy state conditions instead on one agent's own history plus the fixed
policy of the others.  Both support exact Bayesian one-step updates, and any
occupancy state reachable under a joint policy splits into a mixture of one
agent's private occupancy states, weighted by the marginal probability of
that agent's histories.

Every update pushes mass through one array kernel, ``next_level``, which
works level by level over integer history ids: a level holds a state, one
history id per agent and a mass per entry (``Level``), and the kernel expands
it through every joint action and outcome at once, weighted by per-agent
rule arrays indexed by (history id, own action).  Both updates split the
children into branches, each normalized on its own (``_branches``): ``step``
one per public observation, ``private_step`` one per own observation (the
agent's own child history), the agent's rule a point mass on the action it
played.
A level numbers each agent's histories in steps order, which pushes keep and
``to_level`` sorts into.  Every reader of a fixed policy reads it in one
form, ``RuleRows``: per depth below its roots, one row of action
probabilities per history and a table of each child's row, so each level
entry carries one row per agent and no number grows with depth.
``rule_table`` builds it from decision rules, each history found under its
parent's row, and is the one reader that turns rules into arrays and names
a history without a rule.  A walk (exact evaluation and the history-route
best response, the private DP, the sequence-form walk, ``simulate``) builds
it once at its roots and follows each child's row from its parent's;
``step``, ``private_step`` and the rewards take its depth-0 rows at the
state's histories.  History objects are built only at the public boundary:
once per private history of a state an update returns, and, the first time
a returned state's ``entries`` is read, once per joint history.  Each
returned state keeps its level, so the next update skips the conversion from
its entries, and a state that is only pushed on, priced or solved from never
builds its joint histories.  Each update counts its push against
``CAP_BYTES`` first.

Within each group, entries whose mass over the group's probability is at or
below ``PRUNE_EPS`` are dropped and the rest renormalized; two states are
considered equal when their pruned supports coincide and no entry differs by
more than ``EQUALITY_ATOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CAP_BYTES,
    WALK_FIXED_BYTES,
    CapExceededError,
    InconsistentOccupancyError,
    UndefinedDecisionRuleError,
    UnreachableHistoryError,
)
from .model import PosgModel
from .policies import (
    DecisionRule,
    JointHistory,
    JointPolicy,
    PrivateHistory,
    _is_distribution,
    empty_joint_history,
)

PRUNE_EPS = 1e-12
EQUALITY_ATOL = 1e-9

Entry = tuple[int, JointHistory]


def _sorted_items(entries: Mapping[Entry, float]):
    return sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))


class _PushedEntries:
    """``entries`` of a state returned by an update: it carries only its
    level, and its entries dict is built from that level on first read and
    kept, so pushes whose children are only pushed on or priced build no
    joint history."""

    def __getattr__(self, name: str):
        if name != "entries":
            raise AttributeError(name)
        entries = entries_of(*self._level)
        object.__setattr__(self, "entries", entries)
        return entries


def _pushed(cls, level: tuple[Level, Histories], **fields):
    """A ``cls`` state with ``fields`` and ``level`` whose entries are built
    on first read."""
    s = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(s, name, value)
    object.__setattr__(s, "_level", level)
    return s


@dataclass(frozen=True)
class OccupancyState(_PushedEntries):
    """Sparse posterior over (state, joint history) at one time step."""

    t: int
    entries: dict[Entry, float]
    # (Level, histories) once converted or pushed; entries are not mutated
    _level: object = field(default=None, init=False, repr=False, compare=False)

    def items(self):
        return _sorted_items(self.entries)

    def equals(self, other: "OccupancyState") -> bool:
        if self.t != other.t or self.entries.keys() != other.entries.keys():
            return False
        return all(abs(v - other.entries[k]) <= EQUALITY_ATOL for k, v in self.entries.items())


@dataclass(frozen=True)
class PrivateOccupancyState(_PushedEntries):
    """Posterior over (state, joint history) given one agent's history and the
    others' fixed policy; every support history agrees with the anchor on the
    agent's own component."""

    agent: int
    anchor: PrivateHistory
    entries: dict[Entry, float]
    _level: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def t(self) -> int:
        return self.anchor.t


@dataclass(frozen=True)
class Mixture:
    """Convex combination of one agent's private occupancy states with
    pairwise distinct anchors."""

    agent: int
    components: tuple[tuple[float, PrivateOccupancyState], ...]

    def __post_init__(self):
        if not _is_distribution([w for w, _ in self.components]):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        anchors = [c.anchor for _, c in self.components]
        if len(set(anchors)) != len(anchors):
            raise ValueError("mixture anchors must be pairwise distinct")


# ---------------------------------------------------------------------------
# the level kernel
# ---------------------------------------------------------------------------


class Level(NamedTuple):
    """A measure over (state, joint history) as arrays: entry ``k`` is state
    ``xs[k]`` with agent ``i``'s history ``ids[i][k]``, one of its
    ``n_sets[i]`` histories at the level, and has mass ``mass[k]``."""

    xs: np.ndarray
    ids: tuple[np.ndarray, ...]
    mass: np.ndarray
    n_sets: tuple[int, ...]


Histories = tuple[list[PrivateHistory], ...]  # each agent's histories by id


class Pushed(NamedTuple):
    """What ``next_level`` returns: the children; each agent's child codes
    ``(parent id * n_u + u) * n_z + z``, child ``c`` of agent ``i`` having
    code ``reached[i][c]``; and each row's (one outcome of one joint action
    at one entry) entry, child entry and mass.  A caller that needs only
    the first two takes ``next_level(...)[:2]``, so the rows go with the
    push."""

    level: Level
    reached: tuple[np.ndarray, ...]
    entry: np.ndarray
    where: np.ndarray
    weight: np.ndarray


def next_level(model: PosgModel, level: Level, a: np.ndarray | None = None) -> Pushed:
    """Every outcome of every joint action at each entry of ``level``, equal
    (state, joint history) keys merged: the one push behind every occupancy
    update, value table, best response and sequence-form walk.

    ``a`` holds (entry, joint action) probabilities (``action_probs``): a row
    carries entry mass x action probability x outcome probability, and rows
    without mass are dropped.  Without ``a`` every row is kept at entry mass
    x outcome probability, so each agent's actions stay sequences.  Children
    are numbered by their codes and merged entries by (state, child id per
    agent), in increasing key; each entry's mass is summed over its rows in
    row order: (entry, joint action, outcome).  An update splits the
    children into groups afterwards (``normalized_groups``)."""
    arrays = model._successor_arrays
    begin = arrays.begin
    counts = begin[level.xs + 1] - begin[level.xs]
    # outcome out[r] of entry entry[r], in (entry, joint action, outcome) order
    entry = np.repeat(np.arange(len(level.xs)), counts)
    out = np.arange(len(entry)) + np.repeat(begin[level.xs] + counts - np.cumsum(counts), counts)
    weight = level.mass[entry]
    if a is not None:
        weight *= a[entry, arrays.joint[out]]
    weight *= arrays.prob[out]
    if a is not None:
        keep = weight > 0.0
        entry, out, weight = entry[keep], out[keep], weight[keep]
    key = arrays.nxt[out]
    reached = []
    for i, n_sets in enumerate(level.n_sets):
        n_u, n_z = len(model.actions[i]), model.n_agent_obs(i)
        code = level.ids[i][entry] * (n_u * n_z)
        code += (arrays.acts[:, i] * n_z + arrays.obs[:, i])[out]
        codes, child = _rank(code, n_sets * n_u * n_z)
        del code
        key *= len(codes)
        key += child
        reached.append(codes)
    del out, child
    merged, where = np.unique(key, return_inverse=True)
    del key
    n_sets = tuple(len(codes) for codes in reached)
    xs, *ids = np.unravel_index(merged, (model.n_states,) + n_sets)
    mass = np.bincount(where, weights=weight, minlength=len(merged))
    return Pushed(Level(xs, tuple(ids), mass, n_sets), tuple(reached), entry, where, weight)


def _rank(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in ``[0, space)``,
    with one flag per possible code in place of a sort: one agent's codes
    range over the children its histories could have, a space no larger than
    its full trie level."""
    hit = np.zeros(space, dtype=bool)
    hit[codes] = True
    return np.flatnonzero(hit), (np.cumsum(hit) - 1)[codes]


def action_probs(
    model: PosgModel, level: Level, probs: Sequence[np.ndarray | None]
) -> np.ndarray:
    """(entry, joint action) probabilities under per-agent rule arrays
    ``probs[i][history id, own action]``, multiplied in agent order; an agent
    whose array is None plays each action with weight 1."""
    n = len(level.xs)
    a = np.ones((n, 1))
    for i, p in enumerate(probs):
        own = np.ones((n, len(model.actions[i]))) if p is None else p[level.ids[i]]
        a = (a[:, :, None] * own[:, None, :]).reshape(n, a.shape[1] * own.shape[1])
    return a


def own_rewards(model: PosgModel, level: Level, a: np.ndarray, agent: int) -> np.ndarray:
    """``agent``'s immediate reward on ``level`` under the (entry, joint
    action) probabilities ``a``, mass-weighted and summed per own sequence
    (history id * n_u + own action) in (entry, joint action) order."""
    n_u = len(model.actions[agent])
    shape = [len(labels) for labels in model.actions]
    own = np.unravel_index(np.arange(model.n_joint_actions), shape)[agent]
    reward = level.mass[:, None] * a * model.rewards[agent][level.xs]
    seq = level.ids[agent][:, None] * n_u + own
    return np.bincount(seq.ravel(), reward.ravel(), level.n_sets[agent] * n_u)


def sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum: every mass and reward here is summed in entry
    (and joint action) order, so a result depends on that order only, not
    on how numpy blocks a reduction."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def child_histories(
    model: PosgModel,
    hists: Sequence[Sequence[PrivateHistory]],
    reached: Sequence[np.ndarray],
) -> tuple[list[PrivateHistory], ...]:
    """Each agent's histories at the next level, in child id order, built
    once per history from its parent's."""
    out = []
    for i, (parents, codes) in enumerate(zip(hists, reached)):
        n_z = model.n_agent_obs(i)
        j, uz = np.divmod(codes, len(model.actions[i]) * n_z)
        u, z = np.divmod(uz, n_z)
        out.append([parents[p].child(b, c) for p, b, c in zip(j.tolist(), u.tolist(), z.tolist())])
    return tuple(out)


class RuleRows(NamedTuple):
    """One agent's policy as a walk reads it, per depth ``d`` below the
    walk's roots (root ``r`` is row ``r`` of depth 0): ``rows[d][r, u]`` is
    the probability of own action ``u`` at row ``r``, ``children[d][r, u,
    z]`` the row after ``u`` and own observation ``z`` (-1 where the policy
    defines none), and ``steps[d][r]`` the row's history, or None for plan
    rows (``solve._plan_rows``), which define every child of what they play."""

    rows: list[np.ndarray]
    children: list[np.ndarray]
    steps: list[list[tuple]] | None

    def below(self) -> "RuleRows":
        """The table one depth down."""
        return RuleRows(self.rows[1:], self.children[1:], self.steps and self.steps[1:])

    def child_rows(self, model: PosgModel, agent: int, rows: np.ndarray, reached: np.ndarray):
        """The depth-1 row of each child ``(parent id * n_u + u) * n_z + z``
        of a push (``next_level``'s ``reached``), ``rows[parent id]`` its
        parent's depth-0 row; a child without one raises as
        ``DecisionRule.dist`` does."""
        shape = (len(rows), len(model.actions[agent]), model.n_agent_obs(agent))
        parent, u, z = np.unravel_index(reached, shape)
        out = self.children[0][rows[parent], u, z]
        if (out < 0).any():
            k = np.argmax(out < 0)
            raise self.undefined(agent, 0, rows[parent[k]], u[k], z[k])
        return out

    def undefined(self, agent: int, d: int, r: int, u: int, z: int):
        """The error naming the child of row ``r`` of depth ``d`` after
        ``u`` and ``z``."""
        steps = self.steps[d][int(r)] + ((int(u), int(z)),)
        return UndefinedDecisionRuleError.at(agent, steps, len(steps))


def rule_table(
    model: PosgModel, agent: int, rules: Sequence[DecisionRule], roots: Sequence[PrivateHistory]
) -> RuleRows:
    """``RuleRows`` of the agent's ``rules`` (one per step from the roots'
    step on) below ``roots``: every history the rules' actions reach, in
    (parent row, action, observation) order, found by its parent's steps.
    A root without a rule raises ``UndefinedDecisionRuleError``."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    dists = [rules[0].probs.get(h) for h in roots]
    if None in dists:
        h = roots[dists.index(None)]
        raise UndefinedDecisionRuleError.at(agent, h.steps, h.t)
    kept = [h.steps for h in roots]
    rows, children, steps = [np.array(dists, dtype=float).reshape(len(kept), n_u)], [], [kept]
    for rule in rules[1:]:
        index = {h: r for r, h in enumerate(kept)}
        hs, dists = list(rule.probs), list(rule.probs.values())
        parent = np.array([index.get(h.steps[:-1], -1) for h in hs], dtype=np.intp)
        u, z = np.array([h.steps[-1] for h in hs], dtype=np.intp).reshape(-1, 2).T
        live = parent >= 0
        live[live] = rows[-1][parent[live], u[live]] > 0.0
        at = (parent * n_u + u) * n_z + z
        order = np.flatnonzero(live)
        order = order[np.argsort(at[order])].tolist()
        table = np.full(len(kept) * n_u * n_z, -1, dtype=np.intp)
        table[at[order]] = np.arange(len(order))
        children.append(table.reshape(len(kept), n_u, n_z))
        kept = [hs[k].steps for k in order]
        rows.append(np.array([dists[k] for k in order], dtype=float).reshape(len(kept), n_u))
        steps.append(kept)
    return RuleRows(rows, children, steps)


def _rule_rows(
    model: PosgModel, rules, hists: Histories, skip: int | None = None
) -> list[np.ndarray | None]:
    """Each agent's rule ``rules[i]`` at its histories ``hists[i]``, as
    ``rule_table``'s depth-0 rows, one per history id; None for agent
    ``skip``, which plays each own action with weight 1."""
    return [
        None if i == skip else rule_table(model, i, [rules[i]], hs).rows[0]
        for i, hs in enumerate(hists)
    ]


def level_of(model: PosgModel, s) -> tuple[Level, Histories]:
    """The level of a (private) occupancy state and each agent's histories by
    id, converted from its entries once and kept on the state."""
    if s._level is None:
        object.__setattr__(s, "_level", to_level(model, s.entries))
    return s._level


def to_level(model: PosgModel, entries: Mapping[Entry, float]) -> tuple[Level, Histories]:
    """``entries`` as a level, each agent's histories numbered in steps
    order, which every push keeps."""
    privates = [o.privates for _, o in entries]
    hists, ids = [], []
    for i in range(model.n_agents):
        own = [o[i] for o in privates]
        hists.append(sorted(set(own), key=lambda h: h.steps))
        index = {h: k for k, h in enumerate(hists[-1])}
        ids.append(np.array([index[h] for h in own], dtype=np.intp))
    level = Level(
        np.array([x for x, _ in entries], dtype=np.intp),
        tuple(ids),
        np.array(list(entries.values()), dtype=float),
        tuple(len(h) for h in hists),
    )
    return level, tuple(hists)


def entries_of(level: Level, hists: Histories) -> dict[Entry, float]:
    """The public form of a level: one joint history per distinct (history
    id per agent), shared by the keys of all its states."""
    joint, at = np.unique(np.ravel_multi_index(level.ids, level.n_sets), return_inverse=True)
    ids = np.unravel_index(joint, level.n_sets)
    privates = zip(*([hs[k] for k in i.tolist()] for hs, i in zip(hists, ids)))
    keys = list(map(JointHistory.unchecked, privates))
    return dict(zip(zip(level.xs.tolist(), [keys[k] for k in at.tolist()]), level.mass.tolist()))


def normalized_groups(
    pushed: Pushed, group: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The children of a push split into ``n`` groups, child
    entry ``k`` in group ``group[k]``, each normalized on its own: every
    group's probability ``ω``, its rows' mass summed in row order, and the
    entries kept, those whose mass over ``ω`` is above ``PRUNE_EPS``, at
    that ratio renormalized within their group.  Returns ``(ω, kept
    entries, their masses, ends)``: the kept entries in increasing group,
    each group's in entry order, group ``g``'s at ``ends[g]:ends[g + 1]``."""
    omega = np.bincount(group[pushed.where], pushed.weight, n)
    p = pushed.level.mass / omega[group]
    keep = np.flatnonzero(p > PRUNE_EPS)
    keep = keep[np.argsort(group[keep], kind="stable")]
    group, p = group[keep], p[keep]
    p /= np.bincount(group, p, n)[group]
    return omega, keep, p, np.concatenate([[0], np.cumsum(np.bincount(group, minlength=n))])


def sub_level(
    level: Level, entries: np.ndarray, mass: np.ndarray
) -> tuple[Level, tuple[np.ndarray, ...]]:
    """The ``entries`` of ``level`` at ``mass``, each agent's histories
    renumbered in id order and those left without an entry dropped; with
    each agent's kept ids."""
    used, ids = zip(*(_rank(i[entries], size) for i, size in zip(level.ids, level.n_sets)))
    return Level(level.xs[entries], ids, mass, tuple(map(len, used))), used


def _branches(
    model: PosgModel, hists: Histories, pushed: Pushed, group: np.ndarray, n: int
) -> list[tuple[int, float, tuple[Level, Histories]]]:
    """The children of a push from histories ``hists`` in ``n``
    groups, ``group`` per child entry, each normalized on its own: ``(g, ω,
    (sub-level, histories))`` per group ``g`` of positive ``ω``, increasing."""
    omega, keep, p, ends = normalized_groups(pushed, group, n)
    out = []
    for g in np.flatnonzero(omega).tolist():
        sub, used = sub_level(pushed.level, keep[ends[g] : ends[g + 1]], p[ends[g] : ends[g + 1]])
        nxt = (sub, child_histories(model, hists, [r[u] for r, u in zip(pushed.reached, used)]))
        out.append((g, float(omega[g]), nxt))
    return out


# ---------------------------------------------------------------------------
# occupancy dynamics
# ---------------------------------------------------------------------------


def push_items(model: PosgModel, level: Level, last: bool = False) -> tuple[int, int]:
    """The rows a push of ``level`` makes before rows without mass are
    dropped (none at the ``last`` step, which pushes nothing), and the
    numbers its step holds, counted high: 3 per (entry, joint action) and 9
    per row pushed."""
    begin = model._successor_arrays.begin
    rows = 0 if last else int((begin[level.xs + 1] - begin[level.xs]).sum())
    return rows, 3 * model.n_joint_actions * len(level.xs) + 9 * rows


def _check_push(model: PosgModel, level: Level) -> None:
    """Raise ``CapExceededError`` unless an update's push of ``level``
    (``push_items``) and ``WALK_FIXED_BYTES`` fit ``CAP_BYTES``."""
    n_bytes = 8 * push_items(model, level)[1] + WALK_FIXED_BYTES
    if n_bytes > CAP_BYTES:
        raise CapExceededError("occupancy update", n_bytes, CAP_BYTES, " bytes")


def _start_entries(model: PosgModel) -> dict[Entry, float]:
    """The start belief over states, every history empty, pruned."""
    empty = empty_joint_history(model.n_agents)
    kept = {(x, empty): float(p) for x, p in enumerate(model.start) if p > PRUNE_EPS}
    mass = sum(kept.values())
    return {k: v / mass for k, v in kept.items()}


def initial_occupancy(model: PosgModel) -> OccupancyState:
    """t=0 occupancy: the initial belief over states, histories empty."""
    return OccupancyState(0, _start_entries(model))


def step(
    model: PosgModel, s: OccupancyState, rules: Sequence[DecisionRule]
) -> list[tuple[int, float, OccupancyState]]:
    """One exact update: returns (public observation, probability, next state)
    for every public branch with positive probability, in increasing public
    observation; each branch is normalized by its own probability."""
    if len(rules) != model.n_agents:
        raise ValueError("one decision rule per agent required")
    level, hists = level_of(model, s)
    _check_push(model, level)
    a = action_probs(model, level, _rule_rows(model, rules, hists))
    pushed = next_level(model, level, a)
    n_pub = len(model.public_obs)
    # a child's public observation ends each agent's observation code
    public = pushed.reached[0][pushed.level.ids[0]] % n_pub
    return [
        (w, omega, _pushed(OccupancyState, nxt, t=s.t + 1))
        for w, omega, nxt in _branches(model, hists, pushed, public, n_pub)
    ]


def expected_reward(
    model: PosgModel, s: OccupancyState, rules: Sequence[DecisionRule], agent: int
) -> float:
    """Immediate expected reward of one agent under a joint decision rule."""
    level, hists = level_of(model, s)
    a = action_probs(model, level, _rule_rows(model, rules, hists))
    return sum_in_order((level.mass[:, None] * a * model.rewards[agent][level.xs]).ravel())


# ---------------------------------------------------------------------------
# private occupancy dynamics
# ---------------------------------------------------------------------------


def initial_private_occupancy(model: PosgModel, agent: int) -> PrivateOccupancyState:
    return PrivateOccupancyState(agent, PrivateHistory(agent), _start_entries(model))


def private_step(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
) -> list[tuple[int, float, PrivateOccupancyState]]:
    """One private update after the agent plays ``u_i``, as ``step``: (own
    observation, probability, next private occupancy state) for every own
    observation (private and public parts) with positive probability, in
    increasing own observation.  Only ``u_i``'s rows are pushed."""
    agent = s_i.agent
    level, hists = level_of(model, s_i)
    _check_push(model, level)
    probs = _rule_rows(model, others_rules, hists, agent)
    probs[agent] = np.eye(len(model.actions[agent]))[np.full(level.n_sets[agent], u_i)]
    pushed = next_level(model, level, action_probs(model, level, probs))
    codes, n_z = pushed.reached[agent], model.n_agent_obs(agent)
    out = []
    for c, omega, nxt in _branches(model, hists, pushed, pushed.level.ids[agent], len(codes)):
        z_i = int(codes[c]) % n_z  # the anchor's child code is u_i * n_z + z_i
        anchor = s_i.anchor.child(u_i, z_i)
        out.append((z_i, omega, _pushed(PrivateOccupancyState, nxt, agent=agent, anchor=anchor)))
    return out


def private_reward(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
) -> float:
    """Immediate expected reward of the anchored agent for its action, the
    others acting by their rules."""
    level, hists = level_of(model, s_i)
    a = action_probs(model, level, _rule_rows(model, others_rules, hists, s_i.agent))
    return float(own_rewards(model, level, a, s_i.agent)[u_i])


def private_occupancy(
    model: PosgModel,
    others_rules_by_step: Sequence[Mapping[int, DecisionRule]],
    o_i: PrivateHistory,
) -> PrivateOccupancyState:
    """Private occupancy state reached by filtering the agent's history
    through the others' fixed policy, starting from the model's start belief.

    Raises for histories with zero probability under that data.
    """
    s = initial_private_occupancy(model, o_i.agent)
    for k, (u, z) in enumerate(o_i.steps):
        branches = {z_i: s_z for z_i, _, s_z in private_step(model, s, others_rules_by_step[k], u)}
        if z not in branches:
            raise UnreachableHistoryError(f"history {o_i.steps[: k + 1]} has probability 0")
        s = branches[z]
    return s


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def decompose(
    s: OccupancyState,
    model: PosgModel,
    policy: JointPolicy | Sequence[tuple[DecisionRule, ...]],
    agent: int,
) -> Mixture:
    """Express ``s`` on the basis of one agent's private occupancy states.

    The generating joint policy pins down both the weights (the marginal
    probability of each of the agent's histories) and the components (the
    filtered private occupancy states).  An occupancy state that recombination
    fails to reproduce within ``EQUALITY_ATOL`` is rejected as inconsistent.
    The components are filtered in one walk over the agent's histories, one
    ``private_step`` per (prefix, own action), shared by every history below
    it; each is the state ``private_occupancy`` reaches.
    """
    rules_by_step = (
        policy.joint_rules(model) if isinstance(policy, JointPolicy) else list(policy)
    )
    others_by_step = [
        {j: rules[j] for j in range(model.n_agents) if j != agent}
        for rules in rules_by_step
    ]
    marginal: dict[PrivateHistory, float] = {}
    for (_, o), p in s.entries.items():
        own = o.privates[agent]
        marginal[own] = marginal.get(own, 0.0) + p
    root = initial_private_occupancy(model, agent)
    pushes: dict = {}  # per (steps before, own action): {own observation: state}
    components = []
    for own in sorted(marginal, key=lambda h: h.steps):
        s_i = root
        for k, (u, z) in enumerate(own.steps):
            key = (own.steps[:k], u)
            if key not in pushes:
                branches = private_step(model, s_i, others_by_step[k], u)
                pushes[key] = {z_i: s_z for z_i, _, s_z in branches}
            if z not in pushes[key]:
                raise InconsistentOccupancyError(
                    f"support history {own.steps} unreachable under the generating policy"
                )
            s_i = pushes[key][z]
        components.append((marginal[own], s_i))
    mixture = Mixture(agent, tuple(components))
    recombined = recombine(mixture)
    for key in set(s.entries) | set(recombined.entries):
        if abs(s.entries.get(key, 0.0) - recombined.entries.get(key, 0.0)) > EQUALITY_ATOL:
            raise InconsistentOccupancyError(
                "occupancy state is inconsistent with the generating policy"
            )
    return mixture


def recombine(mixture: Mixture) -> OccupancyState:
    """Pointwise weighted sum of the mixture components."""
    weights, components = zip(*mixture.components)
    return mix_occupancies(components, weights)


def mix_occupancies(
    states: Sequence[OccupancyState | PrivateOccupancyState], weights: Sequence[float]
) -> OccupancyState:
    """Convex combination of (private) occupancy states at a common time step."""
    ts = {s.t for s in states}
    if len(ts) != 1:
        raise ValueError("can only mix occupancy states at one time step")
    entries: dict[Entry, float] = {}
    for s, w in zip(states, weights):
        for key, p in s.entries.items():
            entries[key] = entries.get(key, 0.0) + w * p
    return OccupancyState(ts.pop(), entries)


def occupancy_l1(a: OccupancyState, b: OccupancyState) -> float:
    """1-norm distance in the standard (state, joint history) basis."""
    keys = set(a.entries) | set(b.entries)
    return sum(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def occupancy_to_csv(model: PosgModel, s: OccupancyState) -> str:
    """CSV rows ``state,history_1..history_n,probability`` in canonical order
    with 10 significant digits."""
    header = (
        "state,"
        + ",".join(f"history_{i + 1}" for i in range(model.n_agents))
        + ",probability"
    )
    rows = [header]
    for (x, o), p in s.items():
        hist = ",".join(h.label(model) for h in o.privates)
        rows.append(f"{model.states[x]},{hist},{p:.10g}")
    return "\n".join(rows) + "\n"

