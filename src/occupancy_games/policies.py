"""Histories, decision rules, and policy trees.

Private histories are interleaved (action, observation) id sequences; the
observation component is the flattened per-agent observation (private and
public parts combined).  Histories are trie nodes: ``child`` keeps each child
on its parent, keyed by the step that grew it, so equal histories grown from
one root are one object, and a trie's nodes are freed with its root unless
held elsewhere (there is no cache outside the trie).  Each history stores
its hash at construction, the hash of its fields, so a dict lookup within
one trie costs one stored hash and an identity test, and equal histories
from different roots still compare and hash equal.  Policy trees are
reduced: a node fixes one action and branches only on the observation, so
decisions exist exactly for histories reachable under the tree's own past
actions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import (
    CapExceededError,
    UndefinedDecisionRuleError,
    UnreachableHistoryError,
)
from .model import PosgModel


_set = object.__setattr__


@dataclass(frozen=True, eq=False)
class PrivateHistory:
    """One agent's (action, observation) stream; the empty tuple at t=0."""

    agent: int
    steps: tuple[tuple[int, int], ...] = ()
    _hash: int = field(init=False, repr=False)
    _kids: dict | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        _set(self, "_hash", hash((self.agent, self.steps)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not PrivateHistory:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.agent == other.agent
            and self.steps == other.steps
        )

    @property
    def t(self) -> int:
        return len(self.steps)

    def child(self, action: int, obs: int) -> "PrivateHistory":
        """The history one step on: one object per (action, observation)."""
        if self._kids is None:
            _set(self, "_kids", {})
        step = (action, obs)
        kid = self._kids.get(step)
        if kid is None:
            kid = self._kids[step] = PrivateHistory(self.agent, self.steps + (step,))
        return kid

    def label(self, model: PosgModel) -> str:
        if not self.steps:
            return "()"
        return "|".join(
            f"{model.actions[self.agent][u]}:{model.agent_obs_label(self.agent, z)}"
            for u, z in self.steps
        )


@dataclass(frozen=True, eq=False)
class JointHistory:
    """Per-agent private histories of equal length."""

    privates: tuple[PrivateHistory, ...]
    _hash: int = field(init=False, repr=False)
    _kids: dict | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        lengths = {h.t for h in self.privates}
        if len(lengths) > 1:
            raise ValueError("joint history components must share one length")
        _set(self, "_hash", hash((self.privates,)))

    @classmethod
    def unchecked(cls, privates: tuple[PrivateHistory, ...]) -> "JointHistory":
        """The joint history of ``privates``, of equal length by
        construction, without the check."""
        o = object.__new__(cls)
        _set(o, "privates", privates)
        _set(o, "_hash", hash((privates,)))
        _set(o, "_kids", None)
        return o

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not JointHistory:
            return NotImplemented
        return self._hash == other._hash and self.privates == other.privates

    @property
    def t(self) -> int:
        return self.privates[0].t

    def child(self, actions: tuple[int, ...], obs: tuple[int, ...]) -> "JointHistory":
        """The joint history one step on: one object per (joint action,
        per-agent observations), its components its privates' children."""
        if self._kids is None:
            _set(self, "_kids", {})
        step = (actions, obs)
        kid = self._kids.get(step)
        if kid is None:
            kid = self._kids[step] = JointHistory.unchecked(
                tuple(h.child(u, z) for h, u, z in zip(self.privates, actions, obs))
            )
        return kid

    def others(self, agent: int) -> tuple[PrivateHistory, ...]:
        return tuple(h for i, h in enumerate(self.privates) if i != agent)

    def sort_key(self):
        return tuple(h.steps for h in self.privates)


def empty_joint_history(n_agents: int) -> JointHistory:
    return JointHistory(tuple(PrivateHistory(i) for i in range(n_agents)))


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """Map from private histories of one time step to action distributions."""

    agent: int
    t: int
    probs: Mapping[PrivateHistory, tuple[float, ...]]

    def dist(self, history: PrivateHistory) -> tuple[float, ...]:
        try:
            return self.probs[history]
        except KeyError:
            raise UndefinedDecisionRuleError(
                f"undefined decision rule for agent {self.agent} at history "
                f"{history.steps} (t={self.t})"
            ) from None

    def __post_init__(self):
        for hist, dist in self.probs.items():
            if hist.t != self.t:
                raise ValueError("decision rule domain must match its time step")
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError("decision rule image must be a distribution")


@dataclass(frozen=True)
class PolicyTree:
    """Reduced deterministic policy tree; children indexed by observation id."""

    agent: int
    action: int
    children: tuple["PolicyTree", ...] = ()

    @property
    def horizon(self) -> int:
        return 1 if not self.children else 1 + self.children[0].horizon


@dataclass(frozen=True)
class BehavioralPolicy:
    """One decision rule per time step for a single agent."""

    agent: int
    rules: tuple[DecisionRule, ...]

    @property
    def horizon(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class PolicyMixture:
    """Weighted pure policies for one agent of one horizon; weights sum to 1."""

    agent: int
    components: tuple[tuple[float, PolicyTree], ...]

    def __post_init__(self):
        if abs(sum(w for w, _ in self.components) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        horizons = sorted({tree.horizon for _, tree in self.components})
        if len(horizons) > 1:
            raise ValueError(f"mixture components differ in horizon: {horizons}")

    @property
    def horizon(self) -> int:
        return self.components[0][1].horizon


AgentPolicy = Union[PolicyTree, BehavioralPolicy, PolicyMixture]


@dataclass(frozen=True)
class JointPolicy:
    agents: tuple[AgentPolicy, ...]

    @property
    def horizon(self) -> int:
        return self.agents[0].horizon

    @property
    def is_mixed(self) -> bool:
        return any(isinstance(a, PolicyMixture) for a in self.agents)

    def pure_expansions(self):
        """Yield (weight, JointPolicy without mixtures) over mixture supports."""
        choices = []
        for a in self.agents:
            if isinstance(a, PolicyMixture):
                choices.append(list(a.components))
            else:
                choices.append([(1.0, a)])
        for combo in itertools.product(*choices):
            weight = 1.0
            for w, _ in combo:
                weight *= w
            yield weight, JointPolicy(tuple(p for _, p in combo))

    def joint_rules(self, model: PosgModel) -> list[tuple[DecisionRule, ...]]:
        """Per-step tuples of decision rules; undefined for mixtures."""
        if self.is_mixed:
            raise ValueError("mixture policies have no single decision-rule form")
        per_agent = [agent_rules(model, a) for a in self.agents]
        return [tuple(rules[t] for rules in per_agent) for t in range(self.horizon)]


def pure_policy_count(n_actions: int, n_obs: int, horizon: int) -> int:
    """Number of reduced deterministic trees."""
    nodes = horizon if n_obs == 1 else (n_obs**horizon - 1) // (n_obs - 1)
    return n_actions**nodes


def enumerate_pure_policies(
    model: PosgModel, agent: int, horizon: int, cap: int = 10**6
) -> list[PolicyTree]:
    """All reduced deterministic policy trees for one agent.

    Ordering is lexicographic over preorder action labels (root action varies
    slowest), so indices are stable across runs.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    count = pure_policy_count(n_u, n_z, horizon)
    if count > cap:
        raise CapExceededError("enumeration", count, cap)

    def build(depth: int) -> list[PolicyTree]:
        if depth == 1:
            return [PolicyTree(agent, a) for a in range(n_u)]
        subs = build(depth - 1)
        out = []
        for a in range(n_u):
            for combo in itertools.product(range(len(subs)), repeat=n_z):
                out.append(PolicyTree(agent, a, tuple(subs[i] for i in combo)))
        return out

    return build(horizon)


def decision_at(policy: PolicyTree, history: PrivateHistory) -> dict[int, float]:
    """Action distribution prescribed at ``history``, as {action id: prob}.

    Deterministic trees return a point mass.  Histories whose actions leave
    the tree's support are rejected: in reduced form the tree makes no
    decision there.
    """
    node = policy
    for u, z in history.steps:
        if u != node.action:
            raise UnreachableHistoryError(
                f"history plays action {u} where the tree plays {node.action}"
            )
        if not node.children:
            raise UnreachableHistoryError("history is longer than the tree horizon")
        node = node.children[z]
    return {node.action: 1.0}


def agent_rules(model: PosgModel, policy: AgentPolicy) -> tuple[DecisionRule, ...]:
    """Per-step decision rules of one agent's tree or behavioral policy."""
    if isinstance(policy, PolicyTree):
        return tree_to_rules(model, policy)
    if isinstance(policy, BehavioralPolicy):
        return policy.rules
    raise TypeError("expected a tree or behavioral policy")


def tree_to_rules(model: PosgModel, tree: PolicyTree) -> tuple[DecisionRule, ...]:
    """Decision rules over the tree's on-support histories."""
    return rules_from_trees(model, tree.agent, {PrivateHistory(tree.agent): tree})


def rules_from_trees(
    model: PosgModel,
    agent: int,
    roots: Mapping[PrivateHistory, PolicyTree],
    t0: int = 0,
) -> tuple[DecisionRule, ...]:
    """Decision rules from ``t0`` onward for trees of equal depth rooted at
    the given length-``t0`` histories, over their on-support histories."""
    n_u = len(model.actions[agent])
    rules = []
    level = dict(roots)
    while level:
        probs = {}
        nxt = {}
        for hist, node in level.items():
            dist = [0.0] * n_u
            dist[node.action] = 1.0
            probs[hist] = tuple(dist)
            for z, child in enumerate(node.children):
                nxt[hist.child(node.action, z)] = child
        rules.append(DecisionRule(agent, t0 + len(rules), probs))
        level = nxt
    return tuple(rules)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _tree_to_obj(model: PosgModel, tree: PolicyTree) -> dict:
    obj: dict = {"action": model.actions[tree.agent][tree.action]}
    if tree.children:
        obj["children"] = {
            model.agent_obs_label(tree.agent, z): _tree_to_obj(model, child)
            for z, child in enumerate(tree.children)
        }
    return obj


def _tree_from_obj(model: PosgModel, agent: int, obj: dict) -> PolicyTree:
    action = model.actions[agent].index(obj["action"])
    children = ()
    if "children" in obj:
        labels = [model.agent_obs_label(agent, z) for z in range(model.n_agent_obs(agent))]
        children = tuple(_tree_from_obj(model, agent, obj["children"][lab]) for lab in labels)
    return PolicyTree(agent, action, children)


def _history_from_key(model: PosgModel, agent: int, key: str) -> PrivateHistory:
    """The history ``PrivateHistory.label`` wrote as ``key``: its steps read
    one ``action:observation`` label at a time, where an observation label
    carries its ``|public`` part once the model has public observations."""
    if key == "()":
        return PrivateHistory(agent)
    labels = {
        f"{u_lab}:{model.agent_obs_label(agent, z)}": (u, z)
        for u, u_lab in enumerate(model.actions[agent])
        for z in range(model.n_agent_obs(agent))
    }
    steps, part = [], ""
    for piece in key.split("|"):
        part = f"{part}|{piece}" if part else piece
        if part in labels:
            steps.append(labels[part])
            part = ""
    if part:
        raise ValueError(f"history {key!r} of agent {agent + 1} ends in no step label: {part!r}")
    return PrivateHistory(agent, tuple(steps))


def policy_to_json(model: PosgModel, policy: JointPolicy) -> str:
    """Deterministic, node-ordered text form of a joint policy."""
    agents = []
    for a in policy.agents:
        if isinstance(a, PolicyTree):
            agents.append({"type": "tree", "tree": _tree_to_obj(model, a)})
        elif isinstance(a, BehavioralPolicy):
            rules = []
            for rule in a.rules:
                entry = {}
                for hist in sorted(rule.probs, key=lambda h: h.steps):
                    dist = rule.probs[hist]
                    entry[hist.label(model)] = {
                        model.actions[a.agent][u]: p for u, p in enumerate(dist) if p > 0
                    }
                rules.append(entry)
            agents.append({"type": "behavioral", "rules": rules})
        else:
            agents.append(
                {
                    "type": "mixture",
                    "components": [
                        {"weight": w, "tree": _tree_to_obj(model, tree)}
                        for w, tree in a.components
                    ],
                }
            )
    return json.dumps({"horizon": policy.horizon, "agents": agents}, indent=2)


def policy_from_json(model: PosgModel, text: str) -> JointPolicy:
    data = json.loads(text)
    agents: list[AgentPolicy] = []
    for i, spec in enumerate(data["agents"]):
        if spec["type"] == "tree":
            agents.append(_tree_from_obj(model, i, spec["tree"]))
        elif spec["type"] == "behavioral":
            n_u = len(model.actions[i])
            rules = []
            for t, entry in enumerate(spec["rules"]):
                probs = {}
                for key, dist_obj in entry.items():
                    dist = [0.0] * n_u
                    for lab, p in dist_obj.items():
                        dist[model.actions[i].index(lab)] = p
                    probs[_history_from_key(model, i, key)] = tuple(dist)
                rules.append(DecisionRule(i, t, probs))
            agents.append(BehavioralPolicy(i, tuple(rules)))
        elif spec["type"] == "mixture":
            comps = tuple(
                (c["weight"], _tree_from_obj(model, i, c["tree"]))
                for c in spec["components"]
            )
            agents.append(PolicyMixture(i, comps))
        else:
            raise ValueError(f"unknown policy type {spec['type']!r}")
    return JointPolicy(tuple(agents))
