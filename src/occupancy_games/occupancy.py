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
rule arrays indexed by (history id, own action).  A joint update splits the
children by the public observation; a private update pushes every own action
of the agent at once, the others acting by their rules, and splits the
children by its own (action, observation).
History objects are built only at the public boundary, once per private
history and once per returned entry, and each returned state keeps its level
so that the next update skips the conversion from its entries.

Entries below ``PRUNE_EPS`` are dropped and the remaining mass renormalized;
two states are considered equal when their pruned supports coincide and no
entry differs by more than ``EQUALITY_ATOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ImpossibleObservationError,
    InconsistentOccupancyError,
    UnreachableHistoryError,
)
from .model import PosgModel
from .policies import (
    DecisionRule,
    JointHistory,
    JointPolicy,
    PrivateHistory,
    empty_joint_history,
)

PRUNE_EPS = 1e-12
EQUALITY_ATOL = 1e-9

Entry = tuple[int, JointHistory]


def _sorted_items(entries: Mapping[Entry, float]):
    return sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))


@dataclass(frozen=True)
class OccupancyState:
    """Sparse posterior over (state, joint history) at one time step."""

    t: int
    entries: Mapping[Entry, float]
    # (Level, histories) once converted or pushed; entries are not mutated
    _level: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def support(self):
        return self.entries.keys()

    def prob(self, x: int, o: JointHistory) -> float:
        return self.entries.get((x, o), 0.0)

    def items(self):
        return _sorted_items(self.entries)

    def equals(self, other: "OccupancyState") -> bool:
        if self.t != other.t or self.entries.keys() != other.entries.keys():
            return False
        return all(abs(v - other.entries[k]) <= EQUALITY_ATOL for k, v in self.entries.items())


@dataclass(frozen=True)
class MarginalOccupancy:
    """Distribution over one agent's private histories."""

    agent: int
    probs: Mapping[PrivateHistory, float]


@dataclass(frozen=True)
class ConditionalOccupancy:
    """Per private history of one agent, a distribution over (state, others'
    histories)."""

    agent: int
    slices: Mapping[PrivateHistory, Mapping[tuple[int, tuple[PrivateHistory, ...]], float]]


@dataclass(frozen=True)
class PrivateOccupancyState:
    """Posterior over (state, joint history) given one agent's history and the
    others' fixed policy; every support history agrees with the anchor on the
    agent's own component."""

    agent: int
    anchor: PrivateHistory
    entries: Mapping[Entry, float]
    _level: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def t(self) -> int:
        return self.anchor.t

    def items(self):
        return _sorted_items(self.entries)


@dataclass(frozen=True)
class Mixture:
    """Convex combination of one agent's private occupancy states with
    pairwise distinct anchors."""

    agent: int
    components: tuple[tuple[float, PrivateOccupancyState], ...]

    def __post_init__(self):
        if abs(sum(w for w, _ in self.components) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
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
    """One branch of ``next_level``: the children; each agent's child codes
    ``(parent id * n_u + u) * n_z + z``, child ``c`` of agent ``i`` having
    code ``reached[i][c]``; and, if asked for, each row's (one outcome of one
    joint action at one entry) entry, child entry and mass."""

    level: Level
    reached: tuple[np.ndarray, ...]
    entry: np.ndarray | None = None
    where: np.ndarray | None = None
    weight: np.ndarray | None = None


def next_level(
    model: PosgModel,
    level: Level,
    a: np.ndarray | None = None,
    branch: np.ndarray | None = None,
    only: int | None = None,
    rows: bool = False,
    first_seen: bool = False,
) -> list[tuple[int | None, Pushed]]:
    """Every outcome of every joint action at each entry of ``level``, equal
    (state, joint history) keys merged: the one push behind every occupancy
    update, value table, best response and sequence-form walk.

    ``a`` holds (entry, joint action) probabilities (``action_probs``): a row
    carries entry mass x action probability x outcome probability, and rows
    without mass are dropped.  Without ``a`` every row is kept at entry mass
    x outcome probability, so each agent's actions stay sequences.
    ``branch`` maps each outcome of ``model._successor_arrays`` to a key,
    such as the public observation or one agent's own observation: there is
    one ``(key, Pushed)`` per key reached, in increasing key, each numbered
    on its own, and ``only`` (with ``a``) keeps one key.  Without ``branch``
    there is one, keyed None.  Children are numbered by their codes, merged
    entries by (state, child id per agent) or, with ``first_seen``, in order
    of first appearance, and each entry's mass is summed over its rows in row
    order: (entry, joint action, outcome)."""
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
        if only is not None:
            keep &= branch[out] == only
        entry, out, weight = entry[keep], out[keep], weight[keep]
    if branch is None:
        parts = [(None, entry, out, weight)]
    else:
        keys = branch[out]
        order = np.argsort(keys, kind="stable")
        parts = [
            (int(keys[part[0]]), entry[part], out[part], weight[part])
            for part in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
            if len(part)
        ]
    del entry, out, weight  # each branch's row arrays go as soon as they are used
    pushed = []
    while parts:
        b, entry, out, weight = parts.pop(0)
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
        if not rows:
            entry = None
        if not first_seen:
            merged, where = np.unique(key, return_inverse=True)
        else:
            merged, first, where = np.unique(key, return_index=True, return_inverse=True)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            merged, where = merged[order], rank[where]
        del key
        n_sets = tuple(len(codes) for codes in reached)
        xs, *ids = np.unravel_index(merged, (model.n_states,) + n_sets)
        mass = np.bincount(where, weights=weight, minlength=len(merged))
        children = Level(xs, tuple(ids), mass, n_sets)
        if rows:
            pushed.append((b, Pushed(children, tuple(reached), entry, where, weight)))
        else:
            pushed.append((b, Pushed(children, tuple(reached))))
    return pushed


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


def own_actions(model: PosgModel, agent: int) -> np.ndarray:
    """``agent``'s own action in each joint action."""
    shape = [len(labels) for labels in model.actions]
    return np.unravel_index(np.arange(model.n_joint_actions), shape)[agent]


def rule_arrays(
    model: PosgModel,
    rules: Sequence[DecisionRule | None],
    hists: Sequence[Sequence[PrivateHistory]],
) -> list[np.ndarray | None]:
    """Each agent's rule as an array over (history id, own action); None
    where its rule is None."""
    return [
        None
        if rule is None
        else np.array([rule.dist(h) for h in hs], dtype=float).reshape(len(hs), len(labels))
        for rule, hs, labels in zip(rules, hists, model.actions)
    ]


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


def level_of(model: PosgModel, s) -> tuple[Level, Histories]:
    """The level of a (private) occupancy state and each agent's histories by
    id, converted from its entries once and kept on the state."""
    if s._level is None:
        object.__setattr__(s, "_level", to_level(model, s.entries))
    return s._level


def to_level(model: PosgModel, entries: Mapping[Entry, float]) -> tuple[Level, Histories]:
    """``entries`` as a level, each agent's histories numbered in order of
    first appearance."""
    index: list[dict[PrivateHistory, int]] = [{} for _ in range(model.n_agents)]
    hists: Histories = tuple([] for _ in range(model.n_agents))
    ids: list[list[int]] = [[] for _ in range(model.n_agents)]
    for _, o in entries:
        for i, h in enumerate(o.privates):
            k = index[i].get(h)
            if k is None:
                k = index[i][h] = len(hists[i])
                hists[i].append(h)
            ids[i].append(k)
    level = Level(
        np.array([x for x, _ in entries], dtype=np.intp),
        tuple(np.array(k, dtype=np.intp) for k in ids),
        np.array(list(entries.values()), dtype=float),
        tuple(len(h) for h in hists),
    )
    return level, hists


def _normalized(level: Level, hists: Histories, mass: float) -> tuple[Level, Histories]:
    """``level`` over ``mass``, entries at or below ``PRUNE_EPS`` dropped and
    the rest renormalized; histories left without entries are dropped too."""
    p = level.mass / mass
    keep = p > PRUNE_EPS
    if not keep.any():
        raise ValueError("cannot normalize an empty or zero-mass distribution")
    if not keep.all():
        ids, kept = [], []
        for i, hs in enumerate(hists):
            used, inverse = np.unique(level.ids[i][keep], return_inverse=True)
            ids.append(inverse)
            kept.append([hs[k] for k in used.tolist()])
        level = Level(level.xs[keep], tuple(ids), p[keep], tuple(len(hs) for hs in kept))
        hists, p = tuple(kept), p[keep]
    return level._replace(mass=p / sum_in_order(p)), hists


def entries_of(level: Level, hists: Histories) -> dict[Entry, float]:
    """The public form of a level: one joint history per entry."""
    privates = zip(*([hs[k] for k in ids.tolist()] for hs, ids in zip(hists, level.ids)))
    keys = zip(level.xs.tolist(), map(JointHistory, privates))
    return dict(zip(keys, level.mass.tolist()))


def _with_level(s, level: tuple[Level, Histories]):
    object.__setattr__(s, "_level", level)
    return s


def _branches(
    model: PosgModel,
    level: Level,
    hists: Histories,
    a: np.ndarray,
    branch: np.ndarray,
    only: int | None = None,
) -> list[tuple[int, float, dict[Entry, float], tuple[Level, Histories]]]:
    """An exact update's branches, each normalized by its probability:
    ``(key, probability, entries, (level, histories))``."""
    out = []
    for key, pushed in next_level(model, level, a, branch, only, rows=True, first_seen=True):
        mass = sum_in_order(pushed.weight)
        nxt = _normalized(pushed.level, child_histories(model, hists, pushed.reached), mass)
        out.append((key, mass, entries_of(*nxt), nxt))
    return out


# ---------------------------------------------------------------------------
# occupancy dynamics
# ---------------------------------------------------------------------------


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
    a = action_probs(model, level, rule_arrays(model, rules, hists))
    return [
        (w, p, _with_level(OccupancyState(s.t + 1, entries), nxt))
        for w, p, entries, nxt in _branches(model, level, hists, a, model._successor_arrays.pub)
    ]


def expected_reward(
    model: PosgModel, s: OccupancyState, rules: Sequence[DecisionRule], agent: int
) -> float:
    """Immediate expected reward of one agent under a joint decision rule."""
    level, hists = level_of(model, s)
    a = action_probs(model, level, rule_arrays(model, rules, hists))
    return sum_in_order((level.mass[:, None] * a * model.rewards[agent][level.xs]).ravel())


def factorize(
    s: OccupancyState, agent: int
) -> tuple[MarginalOccupancy, ConditionalOccupancy]:
    """Split s into the agent's history marginal and the conditional over
    (state, others' histories); recompose reproduces s exactly on support."""
    marginal: dict[PrivateHistory, float] = {}
    groups: dict[PrivateHistory, dict] = {}
    for (x, o), p in s.entries.items():
        own = o.privates[agent]
        marginal[own] = marginal.get(own, 0.0) + p
        groups.setdefault(own, {})[(x, o.others(agent))] = p
    slices = {
        own: {k: v / marginal[own] for k, v in group.items()}
        for own, group in groups.items()
    }
    return MarginalOccupancy(agent, marginal), ConditionalOccupancy(agent, slices)


def recompose(
    marginal: MarginalOccupancy, conditional: ConditionalOccupancy, t: int
) -> OccupancyState:
    if marginal.agent != conditional.agent:
        raise ValueError("marginal and conditional must describe the same agent")
    i = marginal.agent
    entries: dict[Entry, float] = {}
    for own, m in marginal.probs.items():
        for (x, others), c in conditional.slices[own].items():
            entries[(x, JointHistory(others[:i] + (own,) + others[i:]))] = m * c
    return OccupancyState(t, entries)


# ---------------------------------------------------------------------------
# private occupancy dynamics
# ---------------------------------------------------------------------------


def initial_private_occupancy(model: PosgModel, agent: int) -> PrivateOccupancyState:
    return PrivateOccupancyState(agent, PrivateHistory(agent), _start_entries(model))


def private_branches(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    only: tuple[int, int] | None = None,
    push: bool = True,
) -> tuple[list[float], list[tuple[int, int, float, PrivateOccupancyState]]]:
    """The joint update with every own action of the anchored agent at once,
    the others acting by their rules: its immediate reward for each own
    action and, unless ``push`` is off, ``(u_i, z_i, probability, next
    private occupancy state)`` for every own action and observation with
    positive probability (only the pair ``only`` when given), in increasing
    ``(u_i, z_i)``.  The agent's own rule is None, weight 1 per own action,
    so each action's rows carry what a point-mass rule on it would."""
    agent = s_i.agent
    level, hists = level_of(model, s_i)
    rules = [None if j == agent else others_rules[j] for j in range(model.n_agents)]
    a = action_probs(model, level, rule_arrays(model, rules, hists))
    arrays, n_z = model._successor_arrays, model.n_agent_obs(agent)
    reward = level.mass[:, None] * a * model.rewards[agent][level.xs]
    own = own_actions(model, agent)
    rewards = [sum_in_order(reward[:, own == u].ravel()) for u in range(len(model.actions[agent]))]
    if not push:
        return rewards, []
    own_step = arrays.acts[:, agent] * n_z + arrays.obs[:, agent]
    key = None if only is None else only[0] * n_z + only[1]
    children = []
    for k, p, entries, nxt in _branches(model, level, hists, a, own_step, key):
        u_i, z_i = divmod(k, n_z)
        state = PrivateOccupancyState(agent, s_i.anchor.child(u_i, z_i), entries)
        children.append((u_i, z_i, p, _with_level(state, nxt)))
    return rewards, children


def private_step(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
    z_i: int,
) -> tuple[float, PrivateOccupancyState]:
    """One private update: probability of observing ``z_i`` after playing
    ``u_i``, and the renormalized next private occupancy state.

    ``z_i`` is the agent's flattened observation (private and public parts),
    so only joint observations whose public component matches contribute.
    """
    _, children = private_branches(model, s_i, others_rules, only=(u_i, z_i))
    if not children:
        raise ImpossibleObservationError(
            f"observation {z_i} has probability 0 after action {u_i} for agent {s_i.agent}"
        )
    _, _, prob, next_state = children[0]
    return prob, next_state


def private_reward(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
) -> float:
    """Immediate expected reward of the anchored agent for its action, the
    others acting by their rules."""
    return private_branches(model, s_i, others_rules, push=False)[0][u_i]


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
        try:
            _, s = private_step(model, s, others_rules_by_step[k], u, z)
        except ImpossibleObservationError as exc:
            raise UnreachableHistoryError(
                f"history {o_i.steps[: k + 1]} has probability 0"
            ) from exc
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
    """
    rules_by_step = (
        policy.joint_rules(model) if isinstance(policy, JointPolicy) else list(policy)
    )
    others_by_step = [
        {j: rules[j] for j in range(model.n_agents) if j != agent}
        for rules in rules_by_step
    ]
    marginal, _ = factorize(s, agent)
    components = []
    for own in sorted(marginal.probs, key=lambda h: h.steps):
        try:
            comp = private_occupancy(model, others_by_step, own)
        except UnreachableHistoryError as exc:
            raise InconsistentOccupancyError(
                f"support history {own.steps} unreachable under the generating policy"
            ) from exc
        components.append((marginal.probs[own], comp))
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


def occupancy_to_tree_text(model: PosgModel, s: OccupancyState) -> str:
    """Deterministic indented rendering grouped by joint history."""
    groups: dict[JointHistory, list[tuple[int, float]]] = {}
    for (x, o), p in s.items():
        groups.setdefault(o, []).append((x, p))
    lines = []
    for o in sorted(groups, key=lambda o: o.sort_key()):
        lines.append("(" + ", ".join(h.label(model) for h in o.privates) + ")")
        for x, p in groups[o]:
            lines.append(f"  {model.states[x]}: {p:.10g}")
    return "\n".join(lines) + "\n"
