"""Occupancy states, private occupancy states, and their exact updates.

An occupancy state is the posterior over (hidden state, joint history) given
everything a central planner knows at plan time: the initial belief, the
decision rules issued so far, and the public observation stream.  A private
occupancy state conditions instead on one agent's own history plus the fixed
policy of the others.  Both support exact Bayesian one-step updates, and any
occupancy state reachable under a joint policy splits into a mixture of one
agent's private occupancy states, weighted by the marginal probability of
that agent's histories.  Every update pushes mass through one kernel,
``expand``; a private update is the joint one with the agent's own action a
point-mass rule, split by its own observation instead of the public one.

Entries below ``PRUNE_EPS`` are dropped and the remaining mass renormalized;
two states are considered equal when their pruned supports coincide and no
entry differs by more than ``EQUALITY_ATOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
    joint_action_dist,
)

PRUNE_EPS = 1e-12
EQUALITY_ATOL = 1e-9

Entry = tuple[int, JointHistory]


def _pruned(entries: dict[Entry, float]) -> dict[Entry, float]:
    kept = {k: v for k, v in entries.items() if v > PRUNE_EPS}
    total = sum(kept.values())
    if total <= 0.0:
        raise ValueError("cannot normalize an empty or zero-mass distribution")
    return {k: v / total for k, v in kept.items()}


def _sorted_items(entries: Mapping[Entry, float]):
    return sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))


@dataclass(frozen=True)
class OccupancyState:
    """Sparse posterior over (state, joint history) at one time step."""

    t: int
    entries: Mapping[Entry, float]

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

    @property
    def t(self) -> int:
        return self.anchor.t

    def items(self):
        return _sorted_items(self.entries)

    def canonical_key(self):
        """Hashable key identifying the state up to 1e-12 rounding."""
        return tuple(
            (x, o.sort_key(), round(p, 12)) for (x, o), p in _sorted_items(self.entries)
        )


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
# occupancy dynamics
# ---------------------------------------------------------------------------


def initial_occupancy(model: PosgModel) -> OccupancyState:
    """t=0 occupancy: the initial belief over states, histories empty."""
    empty = empty_joint_history(model.n_agents)
    entries = {
        (x, empty): float(p) for x, p in enumerate(model.start) if p > PRUNE_EPS
    }
    return OccupancyState(0, _pruned(entries))


def expand(
    model: PosgModel,
    entries: Mapping[Entry, float],
    rules: Sequence[DecisionRule],
    agent: int | None = None,
    only: int | None = None,
    push: bool = True,
) -> tuple[float, dict[int, float], dict[int, dict[Entry, float]]]:
    """Push a measure over (state, joint history) through one joint decision
    rule and the model dynamics.

    Returns the immediate expected reward of ``agent`` (0.0 when None) and,
    unless ``push`` is off, the unnormalized next measure and mass of every
    branch with positive mass.  Branches are keyed by the public observation,
    or by ``agent``'s own observation when given; ``only`` keeps one branch
    and builds no history for the others.  Sums accumulate in (entry, joint
    action, outcome) order.
    """
    reward = 0.0
    masses: dict[int, float] = {}
    buckets: dict[int, dict[Entry, float]] = {}
    for (x, o), p in entries.items():
        for u, a_p in joint_action_dist(model, rules, o).items():
            pa = p * a_p
            if agent is not None:
                reward += pa * model.rewards[agent, x, u]
            if not push:
                continue
            us = model.split_joint_action(u)
            for x2, w, obs, dyn in model.successors(u, x):
                b = w if agent is None else obs[agent]
                if only is not None and b != only:
                    continue
                weight = pa * dyn
                if weight <= 0.0:
                    continue
                key = (x2, o.child(us, obs))
                bucket = buckets.setdefault(b, {})
                bucket[key] = bucket.get(key, 0.0) + weight
                masses[b] = masses.get(b, 0.0) + weight
    return reward, masses, buckets


def step(
    model: PosgModel, s: OccupancyState, rules: Sequence[DecisionRule]
) -> list[tuple[int, float, OccupancyState]]:
    """One exact update: returns (public observation, probability, next state)
    for every public branch with positive probability, in increasing public
    observation; each branch is normalized by its own probability."""
    if len(rules) != model.n_agents:
        raise ValueError("one decision rule per agent required")
    _, masses, buckets = expand(model, s.entries, rules)
    out = []
    for w in sorted(masses):
        entries = {k: v / masses[w] for k, v in buckets[w].items()}
        out.append((w, masses[w], OccupancyState(s.t + 1, _pruned(entries))))
    return out


def expected_reward(
    model: PosgModel, s: OccupancyState, rules: Sequence[DecisionRule], agent: int
) -> float:
    """Immediate expected reward of one agent under a joint decision rule."""
    return expand(model, s.entries, rules, agent, push=False)[0]


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
    empty = empty_joint_history(model.n_agents)
    entries = {(x, empty): float(p) for x, p in enumerate(model.start) if p > PRUNE_EPS}
    return PrivateOccupancyState(agent, PrivateHistory(agent), _pruned(entries))


def anchored_rules(
    model: PosgModel,
    anchor: PrivateHistory,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
) -> tuple[DecisionRule, ...]:
    """Joint decision rule whose anchored agent plays ``u_i`` for sure at its
    anchor history, next to the others' rules."""
    point = [0.0] * len(model.actions[anchor.agent])
    point[u_i] = 1.0
    own = DecisionRule(anchor.agent, anchor.t, {anchor: tuple(point)})
    return tuple(
        own if j == anchor.agent else others_rules[j] for j in range(model.n_agents)
    )


def private_branches(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
    only: int | None = None,
    push: bool = True,
) -> tuple[float, list[tuple[int, float, PrivateOccupancyState]]]:
    """The joint update with the agent's own action a point-mass rule: its
    immediate reward for ``u_i`` and, unless ``push`` is off, ``(z_i,
    probability, next private occupancy state)`` for every own observation
    with positive probability (only ``only`` when given), in increasing z_i."""
    rules = anchored_rules(model, s_i.anchor, others_rules, u_i)
    reward, masses, buckets = expand(model, s_i.entries, rules, s_i.agent, only, push)
    children = []
    for z_i in sorted(masses):
        entries = {k: v / masses[z_i] for k, v in buckets[z_i].items()}
        nxt = PrivateOccupancyState(s_i.agent, s_i.anchor.child(u_i, z_i), _pruned(entries))
        children.append((z_i, masses[z_i], nxt))
    return reward, children


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
    _, children = private_branches(model, s_i, others_rules, u_i, only=z_i)
    if not children:
        raise ImpossibleObservationError(
            f"observation {z_i} has probability 0 after action {u_i} for agent {s_i.agent}"
        )
    _, prob, next_state = children[0]
    return prob, next_state


def private_reward(
    model: PosgModel,
    s_i: PrivateOccupancyState,
    others_rules: Mapping[int, DecisionRule],
    u_i: int,
) -> float:
    """Immediate expected reward of the anchored agent for its action, the
    others acting by their rules."""
    return private_branches(model, s_i, others_rules, u_i, push=False)[0]


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
