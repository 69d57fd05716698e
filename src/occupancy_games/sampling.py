"""Seeded random models, decision rules, and policies.

Everything here draws from a caller-supplied ``numpy.random.Generator`` so
fixtures, verification suites, and simulations stay reproducible bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CAP_BYTES, CapExceededError
from .model import PosgModel
from .policies import (
    BehavioralPolicy,
    DecisionRule,
    JointPolicy,
    PrivateHistory,
)


def random_posg(
    rng: np.random.Generator,
    n_states: int = 2,
    n_actions: tuple[int, ...] = (2, 2),
    n_obs: tuple[int, ...] = (2, 2),
    n_public: int = 1,
    horizon: int = 2,
    discount: float = 1.0,
    criterion: str = "general",
) -> PosgModel:
    """Random dense model with Dirichlet rows and rewards in [-1, 1]."""
    n_agents = len(n_actions)
    n_joint_u = int(np.prod(n_actions))
    n_joint_z = int(np.prod(n_obs)) * n_public
    transition = rng.dirichlet(np.ones(n_states), size=(n_joint_u, n_states))
    observation = rng.dirichlet(np.ones(n_joint_z), size=(n_joint_u, n_states))
    rewards = rng.uniform(-1.0, 1.0, size=(n_agents, n_states, n_joint_u))
    if criterion == "common":
        rewards = np.repeat(rewards[:1], n_agents, axis=0)
    elif criterion == "zerosum":
        rewards[1] = -rewards[0]
    start = rng.dirichlet(np.ones(n_states))
    return PosgModel(
        states=tuple(f"s{k}" for k in range(n_states)),
        actions=tuple(tuple(f"a{i}{k}" for k in range(n)) for i, n in enumerate(n_actions)),
        private_obs=tuple(tuple(f"z{i}{k}" for k in range(n)) for i, n in enumerate(n_obs)),
        public_obs=tuple(f"w{k}" for k in range(n_public)),
        transition=transition,
        observation=observation,
        rewards=rewards,
        discount=discount,
        horizon=horizon,
        start=start,
        criterion=criterion,
    )


def all_histories(model: PosgModel, agent: int, t: int) -> list[PrivateHistory]:
    """Every length-t private history of one agent, in lexicographic order."""
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    out = []
    for steps in itertools.product(itertools.product(range(n_u), range(n_z)), repeat=t):
        out.append(PrivateHistory(agent, steps))
    return out


def _check_draw(model: PosgModel, rules) -> None:
    """Raise ``CapExceededError`` unless random rules for the (agent, step)
    pairs ``rules`` fit ``CAP_BYTES``, counted before the first draw: per
    history, its object, steps, distribution and dict slot, ``300 + 32 n_u
    + 8 t`` bytes, above the 360-920 bytes ``tracemalloc`` measures on
    tiger and on a 20-action model."""
    n_bytes = 0
    for i, t in rules:
        n_u = len(model.actions[i])
        n_bytes += (n_u * model.n_agent_obs(i)) ** t * (300 + 32 * n_u + 8 * t)
    if n_bytes > CAP_BYTES:
        raise CapExceededError("random policy", n_bytes, CAP_BYTES, " bytes")


def random_decision_rule(
    model: PosgModel,
    agent: int,
    t: int,
    rng: np.random.Generator,
    support: int | None = None,
) -> DecisionRule:
    """Dirichlet action distributions over all length-t histories.

    ``support`` caps how many actions get positive probability per history;
    ``support=1`` yields a uniformly random deterministic rule.
    """
    _check_draw(model, [(agent, t)])
    return _draw_rule(model, agent, t, rng, support)


def _draw_rule(
    model: PosgModel, agent: int, t: int, rng: np.random.Generator, support: int | None = None
) -> DecisionRule:
    """``random_decision_rule`` without its budget check."""
    n_u = len(model.actions[agent])
    probs = {}
    for hist in all_histories(model, agent, t):
        if support is None or support >= n_u:
            dist = rng.dirichlet(np.ones(n_u))
        else:
            chosen = rng.choice(n_u, size=support, replace=False)
            dist = np.zeros(n_u)
            if support == 1:
                dist[chosen[0]] = 1.0
            else:
                dist[np.sort(chosen)] = rng.dirichlet(np.ones(support))
        probs[hist] = tuple(float(v) for v in dist)
    return DecisionRule(agent, t, probs)


def random_behavioral_policy(
    model: PosgModel,
    agent: int,
    rng: np.random.Generator,
    horizon: int | None = None,
) -> BehavioralPolicy:
    horizon = model.horizon if horizon is None else horizon
    _check_draw(model, [(agent, t) for t in range(horizon)])
    return BehavioralPolicy(agent, tuple(_draw_rule(model, agent, t, rng) for t in range(horizon)))


def check_random_policy_fits(model: PosgModel) -> None:
    """Raise ``CapExceededError`` unless ``random_joint_policy``'s rules fit
    ``CAP_BYTES``."""
    _check_draw(model, itertools.product(range(model.n_agents), range(model.horizon)))


def random_joint_policy(model: PosgModel, rng: np.random.Generator) -> JointPolicy:
    check_random_policy_fits(model)
    return JointPolicy(tuple(
        BehavioralPolicy(i, tuple(_draw_rule(model, i, t, rng) for t in range(model.horizon)))
        for i in range(model.n_agents)
    ))
