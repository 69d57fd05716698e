"""Numerical verification suites for the sufficiency and structure results.

Each check contrasts two computational routes: a raw-definition oracle that
expands full trajectory trees from the model primitives, and the production
path through occupancy updates, best-response solvers, and normal forms.
The oracles share one naive step, ``_raw_step``, over plain ints and
tuples: a raw measure is keyed ``(state, each agent's number)``, where each
agent's numbering (``names``, built by the walk) numbers every tuple of
(action, observation) steps it reaches, each child once by (parent's
number, action, own observation), and keeps each number's steps.  One pass
enumerates every positive-probability outcome of one step, read straight
from the transition and observation rows (as Python floats, once per step),
into each observation's mass and its next measure; ``_raw_rewards`` prices
every agent's reward in one pass.  ``_decoded`` keys a numbered measure by
steps again.  The oracles build no history object and read no production
update: each decision rule is read once into a dict by its histories'
steps, and looked up once per joint history and step.  Both sufficiency
checks walk one raw prefix, ``_raw_prefix``: it carries the unnormalized raw
measure forward one expansion per step, drawing each step's observation
(public, or the agent's own) from the raw route, and normalizes only where a
distribution is read.  One step gap, ``_raw_gap``, then compares a
production step with the raw one: the reward (every agent's in the master
check), each observation's probability, and the next state of every branch
production returns, read from its level into the walk's numbering
(``_by_numbers``; a history the walk never reached gets a fresh number).
Each raw step is enumerated once.  Every worst case is taken by ``_worst``,
which keeps a NaN, and a report with a non-finite violation fails.
The structure checks draw their pairs of states from one sampler,
``_state_pair`` (two start beliefs at t=0, else two sampled prefixes,
optionally under one shared leader prefix), and the zero-sum ones price one
max-of-concave certificate, ``_concave_certificate``.
Reports carry the worst observed discrepancy against a tolerance: 1e-9 for
exact identities (sufficiency, mixtures, linearity), 1e-6 for quantities
routed through iterative solvers (convexity, saddle certificates, Lipschitz
bounds).

Every check accepts ``negative_control=True``, which injects a deliberate
corruption into the production route; a suite that still passes under the
corruption would be vacuous.  ``_checks`` is the one list of check calls
that apply to a model: ``run_suite`` runs the selected suites' entries, and
the ``controls`` suite reruns the entries of the suites named beside it (all
of them if it is named alone) with their corruptions injected, at each
check's own tolerance and seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .errors import CAP_BYTES, CapExceededError, UnknownSuiteError
from .evaluate import anchored_plan_values
from .model import PosgModel
from .occupancy import (
    OccupancyState,
    expected_reward,
    initial_occupancy,
    level_of,
    mix_occupancies,
    occupancy_l1,
    private_occupancy,
    private_reward,
    private_step,
    decompose,
    recombine,
    step,
)
from .policies import (
    AgentPolicy,
    DecisionRule,
    PrivateHistory,
    agent_rules,
    empty_joint_history,
)
from .sampling import random_decision_rule, random_joint_policy
from .solve import (
    _normal_form,
    _trie_size,
    best_response_private_from,
    best_response_value_from,
    dec_value_from,
    stackelberg_value_from,
    zero_sum_value_from,
)

EXACT_TOL = 1e-9
SOLVER_TOL = 1e-6
# the pwlc certificate still enumerates its anchored plans, priced a block at a
# time: the count grows as n_u to the power of the anchors' trie nodes
ORACLE_PLANS = 10**4
_CORRUPTION = 1e-3
_BIG_CORRUPTION = 100.0


@dataclass(frozen=True)
class PropertyReport:
    """Machine-readable outcome of one verification property."""

    name: str
    fixture: str
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    seed: int
    notes: Mapping[str, object] = field(default_factory=dict)

    def line(self) -> str:
        note_text = json.dumps(dict(self.notes), sort_keys=True)
        return (
            f"property={self.name} fixture={self.fixture} samples={self.samples} "
            f"seed={self.seed} max_violation={self.max_violation:.6g} "
            f"tolerance={self.tolerance:.6g} passed={str(self.passed).lower()} "
            f"notes={note_text}"
        )


def _report(
    name, fixture, samples, violation, tol, seed, negative_control, notes=()
) -> PropertyReport:
    violation = float(violation)
    return PropertyReport(
        name=name,
        fixture=fixture,
        samples=samples,
        max_violation=violation,
        tolerance=tol,
        passed=math.isfinite(violation) and violation <= tol,
        seed=seed,
        notes={**dict(notes), **({"negative_control": True} if negative_control else {})},
    )


def report_lines(reports: Sequence[PropertyReport]) -> str:
    return "\n".join(r.line() for r in reports) + "\n"


# ---------------------------------------------------------------------------
# raw-definition oracles (independent of the occupancy machinery)
# ---------------------------------------------------------------------------


def _action_product(dists: Sequence[Sequence[float]]) -> list[tuple[tuple[int, ...], float]]:
    """Positive-probability joint actions under per-agent action
    distributions, each with its probability multiplied in agent order."""
    out = []
    for combo in itertools.product(*(range(len(d)) for d in dists)):
        p = 1.0
        for d, u in zip(dists, combo):
            p *= d[u]
        if p > 0.0:
            out.append((combo, p))
    return out


def _steps_table(rule: DecisionRule) -> dict:
    """``rule``'s action distributions keyed by each history's steps."""
    return {h.steps: dist for h, dist in rule.probs.items()}


def _played(rules: Sequence[DecisionRule]):
    """Each agent's action distribution at a raw joint history ``o`` (each
    agent's steps) under ``rules``, each rule read once."""
    tables = [_steps_table(rule) for rule in rules]
    return lambda o: [table[steps] for table, steps in zip(tables, o)]


def _anchored(model: PosgModel, agent: int, profile: Mapping[int, DecisionRule], u_i: int):
    """The others' distributions under ``profile``, and a point mass on
    ``u_i`` for ``agent``."""
    point = tuple(float(u == u_i) for u in range(len(model.actions[agent])))
    tables = {j: _steps_table(rule) for j, rule in profile.items()}
    return lambda o: [point if j == agent else tables[j][steps] for j, steps in enumerate(o)]


def _child(name, n: int, u: int, z: int) -> int:
    """The number of the child by action ``u`` and own observation ``z`` of
    number ``n`` in one agent's numbering ``name``, ``({(number, action,
    observation): child's number}, [steps by number])``: a fresh one,
    appended with its steps, if it has none."""
    kids, by_number = name
    c = kids.get((n, u, z))
    if c is None:
        c = kids[n, u, z] = len(by_number)
        by_number.append(by_number[n] + ((u, z),))
    return c


def _number(name, steps) -> int:
    """The number of ``steps`` in one agent's numbering ``name``, each step
    numbered as a child of the steps before it."""
    n = 0
    for u, z in steps:
        n = _child(name, n, u, z)
    return n


def _steps_of(names, o) -> tuple:
    """Each agent's steps at the numbered joint history ``o``."""
    return tuple(by_number[n] for (_, by_number), n in zip(names, o))


def _decoded(measure: Mapping, names) -> dict:
    """A numbered raw measure keyed by each agent's steps, ``{(state, each
    agent's steps): mass}``, in its key order."""
    return {(x, _steps_of(names, o)): p for (x, o), p in measure.items()}


def _start_measure(model: PosgModel) -> tuple[dict, list]:
    """The start belief as a raw measure, every agent's steps empty and
    numbered 0, with each agent's numbering: ``(measure, names)``."""
    names = [({}, [()]) for _ in range(model.n_agents)]
    empty = (0,) * model.n_agents
    return {(x, empty): float(p) for x, p in enumerate(model.start) if p > 0.0}, names


def _raw_step(
    model: PosgModel, measure: Mapping, names, dists, of, n_obs: int
) -> tuple[np.ndarray, dict]:
    """One step from the raw measure ``{(state, each agent's number): mass}``
    numbered by ``names``, where ``dists(o)`` lists each agent's action
    distribution at steps ``o``: each observation ``of(z)`` in
    ``range(n_obs)`` of the joint observations ``z``, with its mass and its
    unnormalized measure one step on, ``(mass per observation, {of(z):
    measure})``.  Every positive-probability outcome is read straight from
    the transition and observation rows (as Python floats, once per call) in
    (entry, joint action, next state, joint observation) order, and its mass
    ``p * a_p * t_p * o_p`` is added to both in that order.  Each joint
    history's joint actions and each (joint action, state)'s outcomes are
    read once per call, and each child is numbered once per (joint history,
    joint action, z): each agent's number for its (action, own observation)
    below the parent's, in ``names``."""
    transition = model.transition.tolist()
    observation = model.observation.tolist()
    agent_obs, seen_of = [], []
    for z in range(model.n_joint_obs):
        zs, w = model.split_joint_obs(z)
        agent_obs.append(tuple(model.agent_obs_index(i, zs[i], w) for i in range(model.n_agents)))
        seen_of.append(of(z))
    played: dict = {}  # per joint history: (joint action, us, a_p, {z: child})
    outcomes: dict = {}  # per (joint action, state): (x2, t_p, [(z, o_p)])
    om = [0.0] * n_obs
    by_obs: dict = {}
    for (x, o), p in measure.items():
        acts = played.get(o)
        if acts is None:
            acts = played[o] = [
                (model.joint_action_index(us), us, a_p, {})
                for us, a_p in _action_product(dists(_steps_of(names, o)))
            ]
        for u, us, a_p, kids in acts:
            outs = outcomes.get((u, x))
            if outs is None:
                outs = outcomes[u, x] = [
                    (x2, t_p, [(z, o_p) for z, o_p in enumerate(observation[u][x2]) if o_p > 0.0])
                    for x2, t_p in enumerate(transition[u][x])
                    if t_p != 0.0
                ]
            pa = p * a_p
            for x2, t_p, obs in outs:
                pat = pa * t_p
                for z, o_p in obs:
                    mass = pat * o_p
                    kid = kids.get(z)
                    if kid is None:
                        seen = seen_of[z]
                        kid = kids[z] = (seen, by_obs.setdefault(seen, {}), tuple(
                            _child(name, n, u_i, z_i)
                            for name, n, u_i, z_i in zip(names, o, us, agent_obs[z])
                        ))
                    seen, new, child = kid
                    om[seen] += mass
                    key = (x2, child)
                    new[key] = new.get(key, 0.0) + mass
    return np.array(om), by_obs


def _raw_rewards(model: PosgModel, measure: Mapping, names, dists, agents) -> list[float]:
    """Each of ``agents``' expected reward under the numbered raw
    ``measure``, all in one pass: ``p * a_p * r`` added in (entry, joint
    action) order, the rewards read as Python floats."""
    rewards = [model.rewards[i].tolist() for i in agents]
    totals = [0.0] * len(rewards)
    played: dict = {}
    for (x, o), p in measure.items():
        acts = played.get(o)
        if acts is None:
            acts = played[o] = [
                (model.joint_action_index(us), a_p)
                for us, a_p in _action_product(dists(_steps_of(names, o)))
            ]
        for u, a_p in acts:
            pa = p * a_p
            for k, r in enumerate(rewards):
                totals[k] += pa * r[x][u]
    return totals


def _normalized(measure: Mapping) -> dict:
    total = sum(measure.values())
    return {k: v / total for k, v in measure.items()}


def _worst(*values: float) -> float:
    """The largest of ``values``, or NaN if one is NaN: ``max`` keeps a NaN
    only where it comes first, so a NaN from production would read as no
    violation."""
    worst = values[0]
    for v in values[1:]:
        if v > worst or v != v:
            worst = v
    return worst


def _dist_diff(a: Mapping, b: Mapping) -> float:
    """The largest absolute difference over the keys of either measure."""
    return _worst(
        0.0,
        *(abs(p - b.get(k, 0.0)) for k, p in a.items()),
        *(abs(p) for k, p in b.items() if k not in a),
    )


# ---------------------------------------------------------------------------
# sufficiency suites
# ---------------------------------------------------------------------------


def _raw_prefix(model: PosgModel, rng, t: int, dists, n_obs: int, of) -> tuple[dict, list, list]:
    """The unnormalized raw measure ``t`` steps on, where ``dists(tau)``
    gives step ``tau``'s action distributions (as ``_raw_step`` reads them),
    and each step's observation ``of(z)`` is drawn from its raw distribution:
    ``(measure, names, picks)``, its numbering and the drawn observations in
    step order."""
    measure, names = _start_measure(model)
    picks: list[int] = []
    for tau in range(t):
        om, by_obs = _raw_step(model, measure, names, dists(tau), of, n_obs)
        picks.append(int(rng.choice(n_obs, p=om / om.sum())))
        measure = by_obs[picks[-1]]
    return measure, names, picks


def _by_numbers(model: PosgModel, s, names) -> dict:
    """The entries of a state an update returned, keyed as the raw measures
    are, ``{(state, each agent's number): mass}``, read from its level: each
    history numbered in ``names`` once, a fresh number for one the raw walk
    never reached."""
    level, hists = level_of(model, s)
    numbers = [[_number(name, h.steps) for h in hs] for name, hs in zip(names, hists)]
    ids = [[own[k] for k in ids.tolist()] for own, ids in zip(numbers, level.ids)]
    return dict(zip(zip(level.xs.tolist(), zip(*ids)), level.mass.tolist()))


def _raw_gap(
    model: PosgModel, measure, names, played, n_obs: int, of, rewards: Mapping[int, float],
    branches,
) -> float:
    """The largest gap between one production step from the raw ``measure``
    (numbered by ``names``) under ``played`` and the raw step itself: each
    agent's reward in ``rewards`` (``{agent: reward}``), each observation
    ``of(z)``'s probability, and the next state of every branch ``(obs,
    probability, next state)`` that production returns."""
    raw_om, raw_next = _raw_step(model, measure, names, played, of, n_obs)
    om = np.zeros(n_obs)
    for z, omega, _ in branches:
        om[z] = omega
    raw = _normalized(measure)
    exact = _raw_rewards(model, raw, names, played, list(rewards))
    gap = _worst(
        float(np.abs(raw_om / sum(measure.values()) - om).max()),
        *(abs(e - r) for e, r in zip(exact, rewards.values())),
    )
    for z, _, nxt in branches:
        nxt_gap = _dist_diff(_normalized(raw_next.get(z, {})), _by_numbers(model, nxt, names))
        gap = _worst(gap, nxt_gap)
    return gap


def check_sufficiency_master(
    model: PosgModel,
    n_samples: int = 100,
    seed: int = 0,
    fixture: str = "model",
    negative_control: bool = False,
) -> PropertyReport:
    """Every agent's reward, public-observation, and next-state predictions
    from occupancy states match the raw plan-time definitions on random
    plan-time data."""
    rng = np.random.default_rng(seed)
    n_pub, of = len(model.public_obs), model.public_of_joint_obs
    shift = _CORRUPTION if negative_control else 0.0
    worst = 0.0
    for _ in range(n_samples):
        t = int(rng.integers(0, model.horizon))
        rules_by_step = [
            tuple(random_decision_rule(model, i, tau, rng) for i in range(model.n_agents))
            for tau in range(t + 1)
        ]
        played = [_played(rules) for rules in rules_by_step]
        # a positive-probability public stream, drawn on the raw route
        measure, names, stream = _raw_prefix(model, rng, t, lambda tau: played[tau], n_pub, of)
        s = initial_occupancy(model)
        for rules, w in zip(rules_by_step, stream):
            s = next(nxt for b, _, nxt in step(model, s, rules) if b == w)
        a_t = rules_by_step[t]
        rewards = {i: expected_reward(model, s, a_t, i) for i in range(model.n_agents)}
        rewards[0] += shift
        branches = step(model, s, a_t)
        gap = _raw_gap(model, measure, names, played[t], n_pub, of, rewards, branches)
        worst = _worst(worst, gap)
    return _report(
        "sufficiency-master", fixture, n_samples, worst, EXACT_TOL, seed, negative_control
    )


def check_sufficiency_private(
    model: PosgModel,
    agent: int,
    n_samples: int = 100,
    seed: int = 0,
    fixture: str = "model",
    negative_control: bool = False,
) -> PropertyReport:
    """Private-side analogue over random private plan-time histories."""
    rng = np.random.default_rng(seed)
    n_u, n_obs = len(model.actions[agent]), model.n_agent_obs(agent)
    of = partial(model.agent_obs_of_joint, agent)
    others = [j for j in range(model.n_agents) if j != agent]
    shift = _CORRUPTION if negative_control else 0.0
    worst = 0.0
    for _ in range(n_samples):
        t = int(rng.integers(0, model.horizon))
        profiles = [
            {j: random_decision_rule(model, j, tau, rng) for j in others} for tau in range(t + 1)
        ]
        actions: list[int] = []

        def dists(tau):  # draws the own action of step tau
            actions.append(int(rng.integers(0, n_u)))
            return _anchored(model, agent, profiles[tau], actions[-1])

        # a positive-probability own history, drawn on the raw route, then
        # the last own action
        measure, names, own = _raw_prefix(model, rng, t, dists, n_obs, of)
        played = dists(t)
        s_i = private_occupancy(model, profiles, PrivateHistory(agent, tuple(zip(actions, own))))
        u_i = actions[t]
        rewards = {agent: private_reward(model, s_i, profiles[t], u_i) + shift}
        branches = private_step(model, s_i, profiles[t], u_i)
        worst = _worst(worst, _raw_gap(model, measure, names, played, n_obs, of, rewards, branches))
    return _report(
        f"sufficiency-private-agent{agent + 1}", fixture, n_samples, worst, EXACT_TOL, seed,
        negative_control,
    )


# ---------------------------------------------------------------------------
# structure suites
# ---------------------------------------------------------------------------


def _sample_prefix_occupancy(
    model: PosgModel,
    t: int,
    rng: np.random.Generator,
    fixed_rules: Mapping[int, Sequence[DecisionRule]] | None = None,
) -> tuple[OccupancyState, list[tuple[DecisionRule, ...]]]:
    """Occupancy state reached at time t under random two-action prefix
    rules (optionally pinning some agents' rules), sampling public branches."""
    s = initial_occupancy(model)
    prefix: list[tuple[DecisionRule, ...]] = []
    for tau in range(t):
        rules = tuple(
            fixed_rules[i][tau]
            if fixed_rules and i in fixed_rules
            else random_decision_rule(model, i, tau, rng, support=2)
            for i in range(model.n_agents)
        )
        branches = step(model, s, rules)
        probs = np.array([p for _, p, _ in branches])
        pick = int(rng.choice(len(branches), p=probs / probs.sum()))
        s = branches[pick][2]
        prefix.append(rules)
    return s, prefix


def _state_pair(
    model: PosgModel, t: int, rng: np.random.Generator, shared_leader: bool
) -> tuple[OccupancyState, OccupancyState]:
    """Two occupancy states at step ``t``: two random start beliefs at t=0,
    else two sampled prefixes, under one random leader prefix drawn first if
    ``shared_leader`` (mixing them then stays on the follower basis)."""
    if t == 0:
        beliefs = (rng.dirichlet(np.ones(model.n_states)) for _ in range(2))
        return tuple(_belief_occupancy(model, b) for b in beliefs)
    leader = None
    if shared_leader:
        leader = {0: [random_decision_rule(model, 0, tau, rng, support=2) for tau in range(t)]}
    return tuple(_sample_prefix_occupancy(model, t, rng, fixed_rules=leader)[0] for _ in range(2))


def _lambda_grid(n: int) -> list[float]:
    lams = [0.1, 0.3, 0.5, 0.7, 0.9]
    return [lams[i % len(lams)] for i in range(n)]


def check_slave_structure(
    model: PosgModel,
    others_policy,
    agent: int,
    n_samples: int = 50,
    seed: int = 0,
    fixture: str = "model",
    negative_control: bool = False,
    certificate_samples: int = 8,
) -> PropertyReport:
    """Two structural facts about best responses against a fixed policy:

    (a) linearity on the agent's own basis: the best-response value of any
        reweighted mixture of the agent's private occupancy states equals the
        mixture of per-component best-response values;
    (b) the best-response value over occupancy states equals the max over
        enumerated pure policy suffixes of their linear evaluations.
    """
    rng = np.random.default_rng(seed)
    others = dict(others_policy)
    others_rules = {j: agent_rules(model, p) for j, p in others.items()}
    worst_lin = 0.0
    worst_cert = 0.0
    for k in range(n_samples):
        t = int(rng.integers(1, model.horizon)) if model.horizon > 1 else 0
        s, prefix = _sample_prefix_occupancy(model, t, rng, fixed_rules=others_rules)
        mixture = decompose(s, model, prefix, agent)
        weights = np.array([w for w, _ in mixture.components])
        comps = [c for _, c in mixture.components]
        lam = rng.dirichlet(np.ones(len(comps))) if len(comps) > 1 else np.ones(1)
        s_mix = mix_occupancies(comps, lam)
        lhs = best_response_value_from(model, others, agent, s_mix)
        if negative_control:
            lhs += _CORRUPTION
        # each component priced once, for both weightings
        values = [best_response_private_from(model, others, agent, c) for c in comps]
        rhs = sum(float(l) * v for l, v in zip(lam, values))
        worst_lin = _worst(worst_lin, abs(lhs - rhs))
        # also the natural weights, recombining to the sampled state itself
        lhs0 = best_response_value_from(model, others, agent, recombine(mixture))
        rhs0 = sum(float(w) * v for w, v in zip(weights, values))
        worst_lin = _worst(worst_lin, abs(lhs0 - rhs0))

        if k < certificate_samples:
            worst_cert = _worst(
                worst_cert,
                _pwlc_certificate(model, others, others_rules, agent, s, negative_control),
            )
    # the full game itself (t=0) is one more certificate point
    s0 = initial_occupancy(model)
    worst_cert = _worst(
        worst_cert, _pwlc_certificate(model, others, others_rules, agent, s0, negative_control)
    )
    worst = _worst(worst_lin, worst_cert)
    return _report(
        f"slave-structure-agent{agent + 1}",
        fixture,
        n_samples,
        worst,
        EXACT_TOL,
        seed,
        negative_control,
        {"linearity_violation": worst_lin, "pwlc_violation": worst_cert},
    )


def _pwlc_certificate(
    model: PosgModel,
    others: Mapping[int, AgentPolicy],
    others_rules: Mapping[int, Sequence[DecisionRule]],
    agent: int,
    s: OccupancyState,
    negative_control: bool = False,
) -> float:
    """|DP best-response value - max over pure suffixes of linear evals|
    against the others' policies ``others`` (their rules by step
    ``others_rules``): every pure suffix from the anchors of ``s``, priced
    on ``s``'s own level (``evaluate.anchored_plan_values``), refused above
    ``ORACLE_PLANS`` before any is built."""
    n_anchors = level_of(model, s)[0].n_sets[agent]
    plans = _trie_size(model, agent, n_anchors, model.horizon - s.t)[1]
    if plans > ORACLE_PLANS:
        raise CapExceededError("anchored plans of the pwlc certificate", plans, ORACLE_PLANS)
    best = _worst(*anchored_plan_values(model, others_rules, agent, s).tolist())
    dp = best_response_value_from(model, others, agent, s)
    if negative_control:
        dp += _CORRUPTION
    return abs(dp - best)


def check_master_structure(
    model: PosgModel,
    criterion: str | None = None,
    horizon: int | None = None,
    n_samples: int = 50,
    seed: int = 0,
    fixture: str = "model",
    tolerance: float = SOLVER_TOL,
    negative_control: bool = False,
) -> PropertyReport:
    """Criterion-specific structure of the optimal value over occupancy states.

    common: midpoint convexity over sampled occupancy mixtures plus the
    pointwise-max-of-linear certificate.  zerosum: convexity over mixtures on
    the opponent basis, the max-of-concave certificate (optimal mixture
    achieves the value, arbitrary mixtures stay below), convexity over
    marginals at fixed conditionals, and the documented standard-basis
    non-convexity probe (reported in notes, never failed on).  stackelberg:
    leader-value convexity over follower-basis mixtures.
    """
    criterion = criterion or model.criterion
    if criterion != model.criterion:
        raise ValueError(
            f"criterion mismatch: model is {model.criterion}, asked for {criterion}"
        )
    model = model.with_horizon(model.horizon if horizon is None else horizon)
    rng = np.random.default_rng(seed)
    notes: Mapping[str, object] = {}
    if criterion == "common":
        worst = _dec_structure(model, rng, n_samples, negative_control)
    elif criterion == "zerosum":
        worst, notes = _zs_structure(model, rng, n_samples, negative_control)
    elif criterion == "stackelberg":
        worst = _st_structure(model, rng, n_samples, negative_control)
    else:
        raise ValueError(f"no master-structure property for criterion {criterion!r}")
    return _report(
        f"master-structure-{criterion}",
        fixture,
        n_samples,
        worst,
        tolerance,
        seed,
        negative_control,
        notes,
    )


def _convexity_violation(v_mix: float, lam: float, v_a: float, v_b: float) -> float:
    return v_mix - (lam * v_a + (1.0 - lam) * v_b)


def _dec_structure(model, rng, n_samples, negative_control) -> float:
    worst = 0.0
    t = model.horizon - 1 if model.horizon > 1 else 0
    lams = _lambda_grid(n_samples)
    for k in range(n_samples):
        s_a, s_b = _state_pair(model, t, rng, False)
        lam = lams[k]
        v_a = dec_value_from(model, s_a)
        v_b = dec_value_from(model, s_b)
        v_mix = dec_value_from(model, mix_occupancies([s_a, s_b], [lam, 1 - lam]))
        if negative_control:
            v_mix += _BIG_CORRUPTION
        worst = _worst(worst, _convexity_violation(v_mix, lam, v_a, v_b))
        # PWLC certificate: the one-sided search equals the brute-force max
        # of linear functions on the full suffix product
        if k < 8:
            (mat,), _, _ = _normal_form(model, s_a, [0], CAP_BYTES)
            brute = float(mat.max())
            sep = v_a
            if negative_control:
                sep += _CORRUPTION
            worst = _worst(worst, abs(brute - sep))
    return worst


def _zs_structure(model, rng, n_samples, negative_control) -> tuple[float, dict]:
    worst = 0.0
    # opponent-basis mixtures are degenerate at t=0 (every initial occupancy
    # is itself a private occupancy state), so mixture convexity needs t >= 1
    t = model.horizon - 1 if model.horizon > 1 else 0
    lams = _lambda_grid(n_samples)
    for k in range(n_samples):
        if t == 0:
            s_mix = _belief_occupancy(model, rng.dirichlet(np.ones(model.n_states)))
            v_mix, sol, G = _zs_priced(model, s_mix)
            if negative_control:
                v_mix += _CORRUPTION
        else:
            s_a, s_b = _state_pair(model, t, rng, True)
            lam = lams[k]
            v_a, _, _ = zero_sum_value_from(model, s_a)
            v_b, _, _ = zero_sum_value_from(model, s_b)
            s_mix = mix_occupancies([s_a, s_b], [lam, 1 - lam])
            v_mix, sol, G = _zs_priced(model, s_mix)
            if negative_control:
                v_mix += _BIG_CORRUPTION
            worst = _worst(worst, _convexity_violation(v_mix, lam, v_a, v_b))
            # convexity over marginals at a fixed conditional (opponent factor)
            worst = _worst(worst, _marginal_convexity(model, s_a, rng, negative_control))
        worst = _worst(worst, _concave_certificate(model, v_mix, sol, G, rng, 3))
    notes: dict[str, object] = {}
    if model.n_states == 2 and model.horizon == 1:
        cert, gap, grid_points = _zs_grid_certificate(model, rng, negative_control)
        worst = _worst(worst, cert)
        notes["nonconvexity_gap"] = gap
        notes["grid_points"] = grid_points
    notes["norm"] = "l1"
    return worst, notes


def _zs_priced(model: PosgModel, s: OccupancyState):
    """``zero_sum_value_from`` at ``s`` for the max-of-concave certificates,
    which price leader plans on its ``G``: refused (``CapExceededError``)
    unless that ``G`` spans both agents' whole tries, for a restricted one
    lacks the follower replies outside the loop's sets.  The count is the
    sequences of both full tries, the cap the sequences the loop kept."""
    v, sol, G = zero_sum_value_from(model, s)
    if sol.metadata["method"] == "sequence-form-double-oracle":
        depth = model.horizon - s.t
        full = sum(sum(_trie_size(model, i, len(sol.anchors[i]), depth)[0]) for i in range(2))
        kept = sum(sol.metadata["sequences"])
        raise CapExceededError("sequence form of the leader-plan check", full, kept, " sequences")
    return v, sol, G


def _concave_certificate(model: PosgModel, v: float, sol, G, rng, n_plans: int, shift=0.0):
    """Max-of-concave certificate at one state of zero-sum value ``v``: the
    optimal leader plan achieves ``v`` (its gap moved by ``shift``), and
    ``n_plans`` random leader plans never exceed it."""
    worst = abs(v - _follower_reply(model, sol, sol.plans[0] @ G) + shift)
    for _ in range(n_plans):
        x = _random_leader_plan(model, sol, rng)
        worst = _worst(worst, _follower_reply(model, sol, x @ G) - v)
    return worst


def _sets_below(parents: np.ndarray) -> dict[int, list[int]]:
    """Information sets right after each sequence, the anchors after -1."""
    below: dict[int, list[int]] = {}
    for c, p in enumerate(parents.tolist()):
        below.setdefault(p, []).append(c)
    return below


def _follower_reply(model: PosgModel, sol, g: np.ndarray) -> float:
    """Leader payoff after the follower's best reply, where ``g`` holds the
    leader's payoff per follower sequence (a leader plan times ``G``): a
    backward min over the follower's information sets, set by set."""
    n_u = len(model.actions[1])
    below = _sets_below(sol.tries[1][0])

    def worst_case(j: int) -> float:
        return min(
            g[j * n_u + u] + sum(worst_case(c) for c in below.get(j * n_u + u, ()))
            for u in range(n_u)
        )

    return float(sum(worst_case(a) for a in below[-1]))


def _random_leader_plan(model: PosgModel, sol, rng) -> np.ndarray:
    """Realization plan of a random behavioral leader strategy: Dirichlet
    action weights at each set, times the mass of the sequence leading to it."""
    n_u = len(model.actions[0])
    parents = sol.tries[0][0]
    below = _sets_below(parents)
    x = np.zeros(len(parents) * n_u)

    def spread(j: int, mass: float) -> None:
        x[j * n_u : (j + 1) * n_u] = mass * rng.dirichlet(np.ones(n_u))
        for u in range(n_u):
            for c in below.get(j * n_u + u, ()):
                spread(c, x[j * n_u + u])

    for a in below[-1]:
        spread(a, 1.0)
    return x


def _belief_occupancy(model: PosgModel, belief) -> OccupancyState:
    empty = empty_joint_history(model.n_agents)
    return OccupancyState(
        0, {(x, empty): float(p) for x, p in enumerate(belief) if p > 1e-12}
    )


def _marginal_swap(s: OccupancyState, agent: int):
    """The agent's histories, sorted by steps, and the map from weights over
    them to ``s`` with that marginal: each entry's mass over its history's
    mass, times the history's weight, in ``s.entries`` order within each
    history."""
    marginal: dict[PrivateHistory, float] = {}
    groups: dict[PrivateHistory, list] = {}
    for key, p in s.entries.items():
        own = key[1].privates[agent]
        marginal[own] = marginal.get(own, 0.0) + p
        groups.setdefault(own, []).append((key, p))
    anchors = sorted(marginal, key=lambda h: h.steps)

    def with_marginal(weights) -> OccupancyState:
        entries = {
            key: w * (p / marginal[own])
            for own, w in zip(anchors, weights)
            for key, p in groups[own]
        }
        return OccupancyState(s.t, entries)

    return anchors, with_marginal


def _marginal_convexity(model, s, rng, negative_control) -> float:
    """Convexity of the zero-sum value over the opponent's marginal at the
    sampled state's conditional."""
    anchors, with_marginal = _marginal_swap(s, 1)
    if len(anchors) < 2:
        return 0.0

    m_a = rng.dirichlet(np.ones(len(anchors)))
    m_b = rng.dirichlet(np.ones(len(anchors)))
    lam = 0.5
    v_a, _, _ = zero_sum_value_from(model, with_marginal(m_a))
    v_b, _, _ = zero_sum_value_from(model, with_marginal(m_b))
    v_mix, _, _ = zero_sum_value_from(model, with_marginal(lam * m_a + (1 - lam) * m_b))
    if negative_control:
        v_mix += _BIG_CORRUPTION
    return _convexity_violation(v_mix, lam, v_a, v_b)


def _zs_grid_certificate(model, rng, negative_control) -> tuple[float, float, int]:
    """Max-of-concave certificate on a 101-point belief grid for one-stage
    two-state games, plus the measured standard-basis non-convexity gap."""
    grid = np.linspace(0.0, 1.0, 101)
    values = []
    worst = 0.0
    shift = _CORRUPTION if negative_control else 0.0
    for b in grid:
        s = _belief_occupancy(model, np.array([b, 1.0 - b]))
        v, sol, G = _zs_priced(model, s)
        values.append(v)
        worst = _worst(worst, _concave_certificate(model, v, sol, G, rng, 2, shift))
    # expected-positive diagnostic: convexity on the standard basis fails
    gap = 0.0
    values = np.array(values)
    for ia, ib in itertools.combinations(range(0, 101, 10), 2):
        for lam in (0.25, 0.5, 0.75):
            bm = lam * grid[ia] + (1 - lam) * grid[ib]
            im = int(round(bm * 100))
            if abs(grid[im] - bm) > 1e-12:
                continue
            chord = lam * values[ia] + (1 - lam) * values[ib]
            gap = max(gap, float(values[im] - chord))
    return worst, gap, len(grid)


def _st_structure(model, rng, n_samples, negative_control) -> float:
    if model.horizon < 2:  # only the initial state: no two states to mix
        raise ValueError("the stackelberg master property needs horizon >= 2")
    worst = 0.0
    t = model.horizon - 1
    lams = _lambda_grid(n_samples)
    for k in range(n_samples):
        s_a, s_b = _state_pair(model, t, rng, True)
        lam = lams[k]
        v_a = stackelberg_value_from(model, s_a)
        v_b = stackelberg_value_from(model, s_b)
        v_mix = stackelberg_value_from(
            model, mix_occupancies([s_a, s_b], [lam, 1 - lam])
        )
        if negative_control:
            v_mix += _BIG_CORRUPTION
        worst = _worst(worst, _convexity_violation(v_mix, lam, v_a, v_b))
    return worst


def check_lipschitz(
    model: PosgModel,
    horizon: int | None = None,
    n_samples: int = 50,
    seed: int = 0,
    fixture: str = "model",
    tolerance: float = SOLVER_TOL,
    negative_control: bool = False,
) -> PropertyReport:
    """Zero-sum optimal values vary by at most kappa_t times the 1-norm
    distance between same-step occupancy states."""
    if model.criterion != "zerosum":
        raise ValueError("Lipschitz suite applies to zerosum models")
    model = model.with_horizon(model.horizon if horizon is None else horizon)
    rng = np.random.default_rng(seed)
    c = model.reward_bound
    worst = 0.0
    kappas = {}
    for _ in range(n_samples):
        t = int(rng.integers(1, model.horizon)) if model.horizon > 1 else 0
        s_a, s_b = _state_pair(model, t, rng, False)
        kappa = lipschitz_constant(model.discount, c, model.horizon, t)
        kappas[t] = kappa
        v_a, _, _ = zero_sum_value_from(model, s_a)
        v_b, _, _ = zero_sum_value_from(model, s_b)
        if negative_control:  # ||s_a - s_b||_1 <= 2: over the bound by construction
            v_a += _BIG_CORRUPTION + 4.0 * kappa
        worst = _worst(worst, abs(v_a - v_b) - kappa * occupancy_l1(s_a, s_b))
    return _report(
        "lipschitz-zerosum",
        fixture,
        n_samples,
        _worst(worst, 0.0),
        tolerance,
        seed,
        negative_control,
        {"norm": "l1", "kappa": {str(t): k for t, k in sorted(kappas.items())}},
    )


def lipschitz_constant(gamma: float, c: float, horizon: int, t: int) -> float:
    """kappa_t = (1 - gamma^(horizon-t)) / (1 - gamma) * c, with the
    undiscounted limit (horizon - t) * c at gamma = 1."""
    steps = horizon - t
    if abs(1.0 - gamma) < 1e-12:
        return steps * c
    return (1.0 - gamma**steps) / (1.0 - gamma) * c


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

SUITES = ("sufficiency", "slave", "master", "lipschitz", "controls")
CONTROL_SAMPLES = 4  # each corruption is injected into every sample


def selected_suites(model: PosgModel, suites: str | Sequence[str] = "all") -> list[str]:
    """The suite names ``suites`` selects for ``model``, in order and each
    once: a comma-separated string or a sequence of names, where ``all``,
    wherever it is named, stands for every suite that applies to the model's
    criterion except ``controls``.  An unknown name, or one that does not
    apply, raises ``UnknownSuiteError``."""
    given = [s.strip() for s in suites.split(",")] if isinstance(suites, str) else list(suites)
    every = [s for s in SUITES if s != "controls" and _applies(model, s)]
    names = list(dict.fromkeys(itertools.chain(*(every if s == "all" else [s] for s in given))))
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; expected one of {', '.join(SUITES)} or 'all'"
            )
        if not _applies(model, name):
            at = f" at horizon {model.horizon}" if _applies(model.with_horizon(2), name) else ""
            raise UnknownSuiteError(
                f"suite {name!r} does not apply to criterion {model.criterion!r}{at}"
            )
    return names


def run_suite(
    model: PosgModel,
    suites: str | Sequence[str] = "all",
    seed: int = 0,
    n_samples: int = 50,
    fixture: str = "model",
    tolerance_solver: float = SOLVER_TOL,
) -> list[PropertyReport]:
    """Run the checks of the suites ``selected_suites`` picks, each at
    ``n_samples``; deterministic given the seed.  ``tolerance_solver`` is the
    tolerance of the master and lipschitz checks.

    ``controls`` reruns the checks of the other suites named beside it, or
    every check that applies to the model if it is named alone, each at the
    check's own tolerance and seed, on ``CONTROL_SAMPLES`` with its
    corruption injected, and reports a meta-property that passes exactly
    when the corrupted check fails.
    """
    names = selected_suites(model, suites)
    checks = _checks(model, seed, fixture, tolerance_solver)
    reports: list[PropertyReport] = []
    for name in names:
        if name == "controls":
            rerun = _suites_run(names)
            reports.extend(_negative_controls([c for c in checks if c[0] in rerun]))
        else:
            reports.extend(check(n_samples=n_samples) for suite, check in checks if suite == name)
    return reports


def _applies(model: PosgModel, suite: str) -> bool:
    """Whether ``suite`` has a property for the model's criterion and horizon."""
    if suite == "master":  # the Stackelberg property mixes states at t >= 1
        stackelberg = model.criterion == "stackelberg" and model.horizon > 1
        return stackelberg or model.criterion in ("common", "zerosum")
    if suite == "lipschitz":
        return model.criterion == "zerosum"
    return True


def _checks(
    model: PosgModel, seed: int = 0, fixture: str = "model", tolerance_solver: float = SOLVER_TOL
) -> list[tuple[str, partial]]:
    """Every check call that applies to ``model``, after its suite's name:
    each bound to its model, agent, seed and fixture, and the master and
    lipschitz checks to ``tolerance_solver``; only the samples are left."""
    at = dict(seed=seed, fixture=fixture)
    checks = [("sufficiency", partial(check_sufficiency_master, model, **at))]
    for i in range(model.n_agents):
        private = partial(check_sufficiency_private, model, i, seed=seed + i + 1, fixture=fixture)
        checks.append(("sufficiency", private))
    checks.append(("slave", partial(_slave_check, model, **at)))
    solver = dict(at, tolerance=tolerance_solver)
    if _applies(model, "master"):
        checks.append(("master", partial(check_master_structure, model, **solver)))
    if _applies(model, "lipschitz"):
        checks.append(("lipschitz", partial(check_lipschitz, model, **solver)))
    return checks


def _slave_check(model: PosgModel, seed: int, **kwargs) -> PropertyReport:
    """``check_slave_structure`` for agent 0 against the others' random
    joint policy from ``seed + 10_000``, drawn only when the check runs."""
    policy = random_joint_policy(model, np.random.default_rng(seed + 10_000))
    others = {j: policy.agents[j] for j in range(1, model.n_agents)}
    return check_slave_structure(model, others, 0, seed=seed, **kwargs)


def _suites_run(names: Sequence[str]) -> Sequence[str]:
    """The suites whose checks ``names`` runs, as checks or as controls:
    those named beside ``controls``, or every suite if ``controls`` is
    named alone."""
    return [name for name in names if name != "controls"] or SUITES


def _reads_tolerance(model: PosgModel, suites: Sequence[str]) -> bool:
    """Whether a check that ``suites`` runs on ``model``, or reruns as a
    control, reads ``tolerance_solver``."""
    return any(
        "tolerance" in check.keywords
        for suite, check in _checks(model)
        if suite in _suites_run(suites)
    )


def _negative_controls(checks) -> list[PropertyReport]:
    """Each check of ``checks`` must fail when its computation is
    deliberately corrupted."""
    out = []
    for suite, check in checks:
        fewer = {"certificate_samples": 1} if suite == "slave" else {}
        inner = check(n_samples=CONTROL_SAMPLES, negative_control=True, **fewer)
        out.append(
            PropertyReport(
                name=f"{inner.name}-negative-control",
                fixture=inner.fixture,
                samples=inner.samples,
                max_violation=0.0 if not inner.passed else float("inf"),
                tolerance=0.0,
                passed=not inner.passed,
                seed=inner.seed,
                notes={
                    "corrupted_check_tolerance": inner.tolerance,
                    "corrupted_check_violation": inner.max_violation,
                },
            )
        )
    return out
