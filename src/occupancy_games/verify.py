"""Numerical verification suites for the sufficiency and structure results.

Each check contrasts two computational routes: a raw-definition oracle that
expands full trajectory trees from the model primitives, and the production
path through occupancy updates, best-response solvers, and normal forms.
The oracles share one naive enumerator, ``_outcomes``: every positive-
probability outcome of one step from a raw (state, joint history) measure,
read straight from the transition and observation tables, with three small
reducers for the next measure, an observation distribution and the reward.
The sufficiency checks carry the unnormalized raw measure forward one
expansion per step and normalize it only where a distribution is read.
Reports carry the worst observed discrepancy against a tolerance: 1e-9 for
exact identities (sufficiency, mixtures, linearity), 1e-6 for quantities
routed through iterative solvers (convexity, saddle certificates, Lipschitz
bounds).

Every check accepts ``negative_control=True``, which injects a deliberate
corruption into the production route; a suite that still passes under the
corruption would be vacuous.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CapExceededError, ImpossibleObservationError, UnknownSuiteError
from .evaluate import linear_eval, value_tables
from .model import PosgModel
from .occupancy import (
    MarginalOccupancy,
    OccupancyState,
    expected_reward,
    factorize,
    initial_occupancy,
    mix_occupancies,
    occupancy_l1,
    private_occupancy,
    private_reward,
    private_step,
    decompose,
    recombine,
    recompose,
    step,
)
from .policies import (
    BehavioralPolicy,
    DecisionRule,
    JointPolicy,
    PrivateHistory,
    agent_rules,
    empty_joint_history,
    rules_from_trees,
)
from .sampling import random_decision_rule, random_joint_policy
from .solve import (
    _anchored_space,
    _anchors,
    _trie_size,
    best_response_private_from,
    best_response_value_from,
    dec_value_from,
    stackelberg_value_from,
    suffix_normal_form,
    zero_sum_value_from,
)

EXACT_TOL = 1e-9
SOLVER_TOL = 1e-6
ORACLE_PLANS = 10**4  # the pwlc certificate evaluates each anchored plan on its own
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


def _report(name, fixture, samples, violation, tol, seed, notes=None) -> PropertyReport:
    violation = float(violation)
    return PropertyReport(
        name=name,
        fixture=fixture,
        samples=samples,
        max_violation=violation,
        tolerance=tol,
        passed=violation <= tol,
        seed=seed,
        notes=notes or {},
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


def _played(rules: Sequence[DecisionRule]):
    """Each agent's action distribution at a joint history under ``rules``."""
    return lambda o: [rule.dist(h) for rule, h in zip(rules, o.privates)]


def _anchored(model: PosgModel, agent: int, profile: Mapping[int, DecisionRule], u_i: int):
    """The others' distributions under ``profile``, and a point mass on
    ``u_i`` for ``agent``."""
    point = tuple(float(u == u_i) for u in range(len(model.actions[agent])))
    return lambda o: [
        point if j == agent else profile[j].dist(h) for j, h in enumerate(o.privates)
    ]


def _start_measure(model: PosgModel) -> dict:
    empty = empty_joint_history(model.n_agents)
    return {(x, empty): float(p) for x, p in enumerate(model.start) if p > 0.0}


def _outcomes(model: PosgModel, measure: Mapping, dists):
    """Every positive-probability outcome of one step from the raw measure
    ``{(state, joint history): mass}``, where ``dists(o)`` lists each agent's
    action distribution at joint history ``o``: (next state, history, joint
    actions, joint observation, mass), in (entry, joint action, next state,
    joint observation) order."""
    for (x, o), p in measure.items():
        for us, a_p in _action_product(dists(o)):
            u = model.joint_action_index(us)
            for x2 in range(model.n_states):
                t_p = model.transition[u, x, x2]
                if t_p == 0.0:
                    continue
                for z in range(model.n_joint_obs):
                    o_p = model.observation[u, x2, z]
                    if o_p > 0.0:
                        yield x2, o, us, z, p * a_p * t_p * o_p


def _next_measure(model: PosgModel, outcomes, of=None, seen=None) -> dict:
    """The unnormalized measure one step on, over the outcomes whose joint
    observation ``z`` has ``of(z) == seen`` (every outcome without ``of``)."""
    new: dict = {}
    for x2, o, us, z, mass in outcomes:
        if of is not None and of(z) != seen:
            continue
        zs, w = model.split_joint_obs(z)
        obs = tuple(model.agent_obs_index(i, zs[i], w) for i in range(model.n_agents))
        key = (x2, o.child(us, obs))
        new[key] = new.get(key, 0.0) + mass
    return new


def _obs_dist(outcomes, size: int, of) -> np.ndarray:
    """Mass per observation ``of(z)`` of each outcome's joint observation."""
    om = np.zeros(size)
    for _, _, _, z, mass in outcomes:
        om[of(z)] += mass
    return om


def _raw_reward(model: PosgModel, measure: Mapping, dists, agent: int) -> float:
    total = 0.0
    for (x, o), p in measure.items():
        for us, a_p in _action_product(dists(o)):
            total += p * a_p * model.rewards[agent, x, model.joint_action_index(us)]
    return total


def _normalized(measure: Mapping) -> dict:
    total = sum(measure.values())
    return {k: v / total for k, v in measure.items()}


def _dist_diff(a: Mapping, b: Mapping) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


# ---------------------------------------------------------------------------
# sufficiency suites
# ---------------------------------------------------------------------------


def check_sufficiency_master(
    model: PosgModel,
    n_samples: int = 100,
    seed: int = 0,
    fixture: str = "model",
    tolerance: float = EXACT_TOL,
    negative_control: bool = False,
) -> PropertyReport:
    """Reward, public-observation, and next-state predictions from occupancy
    states match the raw plan-time definitions on random plan-time data."""
    rng = np.random.default_rng(seed)
    n_pub = len(model.public_obs)
    worst = 0.0
    for _ in range(n_samples):
        t = int(rng.integers(0, model.horizon))
        rules_by_step = [
            tuple(
                random_decision_rule(model, i, tau, rng)
                for i in range(model.n_agents)
            )
            for tau in range(t + 1)
        ]
        # sample a positive-probability public stream from the raw route,
        # carrying the unnormalized raw measure forward
        measure = _start_measure(model)
        s = initial_occupancy(model)
        for tau in range(t):
            played = _played(rules_by_step[tau])
            om = _obs_dist(
                _outcomes(model, _normalized(measure), played), n_pub, model.public_of_joint_obs
            )
            w = int(rng.choice(len(om), p=om / om.sum()))
            measure = _next_measure(
                model, _outcomes(model, measure, played), model.public_of_joint_obs, w
            )
            branches = {b: nxt for b, _, nxt in step(model, s, rules_by_step[tau])}
            s = branches[w]

        raw = _normalized(measure)
        a_t = rules_by_step[t]
        played = _played(a_t)
        # reward sufficiency
        r_raw = _raw_reward(model, raw, played, 0)
        r_impl = expected_reward(model, s, a_t, 0)
        if negative_control:
            r_impl += _CORRUPTION
        worst = max(worst, abs(r_raw - r_impl))
        # public observation sufficiency
        om_raw = _obs_dist(_outcomes(model, raw, played), n_pub, model.public_of_joint_obs)
        branches = step(model, s, a_t)
        om_impl = np.zeros(n_pub)
        for w, p, _ in branches:
            om_impl[w] = p
        worst = max(worst, float(np.abs(om_raw - om_impl).max()))
        # next-state sufficiency, every positive public branch
        for w, p, nxt in branches:
            raw_next = _next_measure(
                model, _outcomes(model, measure, played), model.public_of_joint_obs, w
            )
            worst = max(worst, _dist_diff(_normalized(raw_next), nxt.entries))
    return _report(
        "sufficiency-master",
        fixture,
        n_samples,
        worst,
        tolerance,
        seed,
        {"negative_control": negative_control} if negative_control else {},
    )


def check_sufficiency_private(
    model: PosgModel,
    agent: int,
    n_samples: int = 100,
    seed: int = 0,
    fixture: str = "model",
    tolerance: float = EXACT_TOL,
    negative_control: bool = False,
) -> PropertyReport:
    """Private-side analogue over random private plan-time histories."""
    rng = np.random.default_rng(seed)
    n_u = len(model.actions[agent])
    n_obs = model.n_agent_obs(agent)

    def own_obs(z):
        return model.agent_obs_of_joint(agent, z)

    worst = 0.0
    for _ in range(n_samples):
        t = int(rng.integers(0, model.horizon))
        profiles = [
            {
                j: random_decision_rule(model, j, tau, rng)
                for j in range(model.n_agents)
                if j != agent
            }
            for tau in range(t + 1)
        ]
        # sample a positive-probability own history from the raw route,
        # carrying the unnormalized raw measure forward
        measure = _start_measure(model)
        steps: list[tuple[int, int]] = []
        for tau in range(t):
            u_i = int(rng.integers(0, n_u))
            dists = _anchored(model, agent, profiles[tau], u_i)
            om = _obs_dist(_outcomes(model, _normalized(measure), dists), n_obs, own_obs)
            z_i = int(rng.choice(len(om), p=om / om.sum()))
            steps.append((u_i, z_i))
            measure = _next_measure(model, _outcomes(model, measure, dists), own_obs, z_i)

        raw = _normalized(measure)
        s_i = private_occupancy(model, profiles, PrivateHistory(agent, tuple(steps)))
        u_i = int(rng.integers(0, n_u))
        dists = _anchored(model, agent, profiles[t], u_i)
        # reward sufficiency
        r_raw = _raw_reward(model, raw, dists, agent)
        r_impl = private_reward(model, s_i, profiles[t], u_i)
        if negative_control:
            r_impl += _CORRUPTION
        worst = max(worst, abs(r_raw - r_impl))
        # observation and next-state sufficiency
        om_raw = _obs_dist(_outcomes(model, raw, dists), n_obs, own_obs)
        for z_i in range(n_obs):
            try:
                omega, nxt = private_step(model, s_i, profiles[t], u_i, z_i)
            except ImpossibleObservationError:
                omega, nxt = 0.0, None
            worst = max(worst, abs(om_raw[z_i] - omega))
            if nxt is not None and om_raw[z_i] > 1e-12:
                raw_next = _next_measure(model, _outcomes(model, measure, dists), own_obs, z_i)
                worst = max(worst, _dist_diff(_normalized(raw_next), nxt.entries))
    return _report(
        f"sufficiency-private-agent{agent + 1}",
        fixture,
        n_samples,
        worst,
        tolerance,
        seed,
        {"negative_control": negative_control} if negative_control else {},
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
    tolerance: float = EXACT_TOL,
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
    if isinstance(others_policy, JointPolicy):
        others = {
            j: p for j, p in enumerate(others_policy.agents) if j != agent
        }
    else:
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
        rhs = sum(
            float(l) * best_response_private_from(model, others, agent, c, t)
            for l, c in zip(lam, comps)
        )
        worst_lin = max(worst_lin, abs(lhs - rhs))
        # also the natural weights, recombining to the sampled state itself
        lhs0 = best_response_value_from(model, others, agent, recombine(mixture))
        rhs0 = sum(
            float(w) * best_response_private_from(model, others, agent, c, t)
            for w, c in zip(weights, comps)
        )
        worst_lin = max(worst_lin, abs(lhs0 - rhs0))

        if k < certificate_samples:
            worst_cert = max(
                worst_cert,
                _pwlc_certificate(model, others_rules, agent, s, negative_control),
            )
    # the full game itself (t=0) is one more certificate point
    worst_cert = max(
        worst_cert,
        _pwlc_certificate(
            model, others_rules, agent, initial_occupancy(model), negative_control
        ),
    )
    worst = max(worst_lin, worst_cert)
    return _report(
        f"slave-structure-agent{agent + 1}",
        fixture,
        n_samples,
        worst,
        tolerance,
        seed,
        {
            "linearity_violation": worst_lin,
            "pwlc_violation": worst_cert,
            **({"negative_control": True} if negative_control else {}),
        },
    )


def _pwlc_certificate(
    model: PosgModel,
    others_rules: Mapping[int, Sequence[DecisionRule]],
    agent: int,
    s: OccupancyState,
    negative_control: bool = False,
) -> float:
    """|DP best-response value - max over pure suffixes of linear evals|."""
    t = s.t
    anchors = _anchors(s, agent)
    plans = _trie_size(model, agent, len(anchors), model.horizon - t)[1]
    if plans > ORACLE_PLANS:
        raise CapExceededError("anchored plans of the pwlc certificate", plans, ORACLE_PLANS)
    space = _anchored_space(model, agent, anchors, model.horizon - t)
    seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
    best = -np.inf
    for assign in space:
        own_rules = rules_from_trees(model, agent, assign, t)
        rules_by_step = [None] * t + [
            tuple(
                own_rules[tau - t] if j == agent else others_rules[j][tau]
                for j in range(model.n_agents)
            )
            for tau in range(t, model.horizon)
        ]
        tables = value_tables(model, rules_by_step, agent, t, seeds)
        best = max(best, linear_eval(s, tables[0]))
    others = {
        j: BehavioralPolicy(j, tuple(rules)) for j, rules in others_rules.items()
    }
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
    notes: dict[str, object] = {}
    if negative_control:
        notes["negative_control"] = True

    if criterion == "common":
        worst = _dec_structure(model, rng, n_samples, negative_control)
    elif criterion == "zerosum":
        worst, extra = _zs_structure(model, rng, n_samples, negative_control)
        notes.update(extra)
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
        notes,
    )


def _convexity_violation(v_mix: float, lam: float, v_a: float, v_b: float) -> float:
    return v_mix - (lam * v_a + (1.0 - lam) * v_b)


def _dec_structure(model, rng, n_samples, negative_control) -> float:
    worst = 0.0
    t = model.horizon - 1 if model.horizon > 1 else 0
    lams = _lambda_grid(n_samples)
    for k in range(n_samples):
        if t == 0:
            s_a = initial_occupancy(model)
            s_b = _belief_occupancy(model, rng.dirichlet(np.ones(model.n_states)))
        else:
            s_a, _ = _sample_prefix_occupancy(model, t, rng)
            s_b, _ = _sample_prefix_occupancy(model, t, rng)
        lam = lams[k]
        v_a = dec_value_from(model, s_a)
        v_b = dec_value_from(model, s_b)
        v_mix = dec_value_from(model, mix_occupancies([s_a, s_b], [lam, 1 - lam]))
        if negative_control:
            v_mix += _BIG_CORRUPTION
        worst = max(worst, _convexity_violation(v_mix, lam, v_a, v_b))
        # PWLC certificate: the one-sided search equals the brute-force max
        # of linear functions on the full suffix product
        if k < 8:
            mats, _ = suffix_normal_form(model, s_a, (0,))
            brute = float(mats[0].max())
            sep = dec_value_from(model, s_a)
            if negative_control:
                sep += _CORRUPTION
            worst = max(worst, abs(brute - sep))
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
            v_mix, sol, G = zero_sum_value_from(model, s_mix)
            if negative_control:
                v_mix += _CORRUPTION
        else:
            # common leader prefix keeps the follower-basis components fixed
            leader_rules = {
                0: [
                    random_decision_rule(model, 0, tau, rng, support=2)
                    for tau in range(t)
                ]
            }
            s_a, _ = _sample_prefix_occupancy(model, t, rng, fixed_rules=leader_rules)
            s_b, _ = _sample_prefix_occupancy(model, t, rng, fixed_rules=leader_rules)
            lam = lams[k]
            v_a, _, _ = zero_sum_value_from(model, s_a)
            v_b, _, _ = zero_sum_value_from(model, s_b)
            s_mix = mix_occupancies([s_a, s_b], [lam, 1 - lam])
            v_mix, sol, G = zero_sum_value_from(model, s_mix)
            if negative_control:
                v_mix += _BIG_CORRUPTION
            worst = max(worst, _convexity_violation(v_mix, lam, v_a, v_b))
            # convexity over marginals at a fixed conditional (opponent factor)
            worst = max(worst, _marginal_convexity(model, s_a, rng, negative_control))
        # max-of-concave certificate: the optimal leader plan achieves the
        # value, arbitrary leader plans never exceed it
        achieve = v_mix - _follower_reply(model, sol, sol.plans[0] @ G)
        worst = max(worst, abs(achieve))
        for _ in range(3):
            x = _random_leader_plan(model, sol, rng)
            worst = max(worst, _follower_reply(model, sol, x @ G) - v_mix)
    notes: dict[str, object] = {}
    if model.n_states == 2 and model.horizon == 1:
        cert, gap, grid_points = _zs_grid_certificate(model, rng, negative_control)
        worst = max(worst, cert)
        notes["nonconvexity_gap"] = gap
        notes["grid_points"] = grid_points
    notes["norm"] = "l1"
    return worst, notes


def _sets_below(kids) -> dict[tuple[int, int], list[int]]:
    """Information sets right after each (set, own action) pair."""
    below: dict[tuple[int, int], list[int]] = {}
    for (j, u, _), c in kids.items():
        below.setdefault((j, u), []).append(c)
    return below


def _follower_reply(model: PosgModel, sol, g: np.ndarray) -> float:
    """Leader payoff after the follower's best reply, where ``g`` holds the
    leader's payoff per follower sequence (a leader plan times ``G``): a
    backward min over the follower's information sets, set by set."""
    n_u = len(model.actions[1])
    below = _sets_below(sol.kids[1])

    def worst_case(j: int) -> float:
        return min(
            g[j * n_u + u] + sum(worst_case(c) for c in below.get((j, u), ()))
            for u in range(n_u)
        )

    return float(sum(worst_case(a) for a in range(len(sol.anchors[1]))))


def _random_leader_plan(model: PosgModel, sol, rng) -> np.ndarray:
    """Realization plan of a random behavioral leader strategy: Dirichlet
    action weights at each set, times the mass of the sequence leading to it."""
    n_u = len(model.actions[0])
    below = _sets_below(sol.kids[0])
    x = np.zeros((len(sol.anchors[0]) + len(sol.kids[0])) * n_u)

    def spread(j: int, mass: float) -> None:
        x[j * n_u : (j + 1) * n_u] = mass * rng.dirichlet(np.ones(n_u))
        for u in range(n_u):
            for c in below.get((j, u), ()):
                spread(c, x[j * n_u + u])

    for a in range(len(sol.anchors[0])):
        spread(a, 1.0)
    return x


def _belief_occupancy(model: PosgModel, belief) -> OccupancyState:
    empty = empty_joint_history(model.n_agents)
    return OccupancyState(
        0, {(x, empty): float(p) for x, p in enumerate(belief) if p > 1e-12}
    )


def _marginal_convexity(model, s, rng, negative_control) -> float:
    """Convexity of the zero-sum value over the opponent's marginal at the
    sampled state's conditional."""
    marg, cond = factorize(s, 1)
    anchors = sorted(marg.probs, key=lambda h: h.steps)
    if len(anchors) < 2:
        return 0.0

    def with_marginal(weights) -> OccupancyState:
        m = MarginalOccupancy(1, dict(zip(anchors, weights)))
        return recompose(m, cond, s.t)

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
    for b in grid:
        s = _belief_occupancy(model, np.array([b, 1.0 - b]))
        v, sol, G = zero_sum_value_from(model, s)
        values.append(v)
        achieve = v - _follower_reply(model, sol, sol.plans[0] @ G)
        if negative_control:
            achieve += _CORRUPTION
        worst = max(worst, abs(achieve))
        for _ in range(2):
            x = _random_leader_plan(model, sol, rng)
            worst = max(worst, _follower_reply(model, sol, x @ G) - v)
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
    worst = 0.0
    if model.horizon < 2:
        return worst
    t = model.horizon - 1
    lams = _lambda_grid(n_samples)
    for k in range(n_samples):
        leader_rules = {
            0: [random_decision_rule(model, 0, tau, rng, support=2) for tau in range(t)]
        }
        s_a, _ = _sample_prefix_occupancy(model, t, rng, fixed_rules=leader_rules)
        s_b, _ = _sample_prefix_occupancy(model, t, rng, fixed_rules=leader_rules)
        lam = lams[k]
        v_a = stackelberg_value_from(model, s_a)
        v_b = stackelberg_value_from(model, s_b)
        v_mix = stackelberg_value_from(
            model, mix_occupancies([s_a, s_b], [lam, 1 - lam])
        )
        if negative_control:
            v_mix += _BIG_CORRUPTION
        worst = max(worst, _convexity_violation(v_mix, lam, v_a, v_b))
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
        if t == 0:
            s_a = _belief_occupancy(model, rng.dirichlet(np.ones(model.n_states)))
            s_b = _belief_occupancy(model, rng.dirichlet(np.ones(model.n_states)))
        else:
            s_a, _ = _sample_prefix_occupancy(model, t, rng)
            s_b, _ = _sample_prefix_occupancy(model, t, rng)
        kappa = lipschitz_constant(model.discount, c, model.horizon, t)
        kappas[t] = kappa
        v_a, _, _ = zero_sum_value_from(model, s_a)
        v_b, _, _ = zero_sum_value_from(model, s_b)
        if negative_control:
            v_a += _BIG_CORRUPTION
        worst = max(
            worst, abs(v_a - v_b) - kappa * occupancy_l1(s_a, s_b)
        )
    return _report(
        "lipschitz-zerosum",
        fixture,
        n_samples,
        max(worst, 0.0),
        tolerance,
        seed,
        {
            "norm": "l1",
            "kappa": {str(t): k for t, k in sorted(kappas.items())},
            **({"negative_control": True} if negative_control else {}),
        },
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
TOLERANCE_SUITES = ("master", "lipschitz")  # the suites ``tolerance_solver`` reaches


def selected_suites(model: PosgModel, suites: str | Sequence[str] = "all") -> list[str]:
    """The suite names ``suites`` selects for ``model``: a comma-separated
    string or a sequence of names, where ``all`` stands for every suite that
    applies to the model's criterion except ``controls``.  An unknown name, or
    one that does not apply, raises ``UnknownSuiteError``."""
    if isinstance(suites, str):
        names = [s.strip() for s in suites.split(",")] if suites != "all" else ["all"]
    else:
        names = list(suites)
    if names == ["all"]:
        names = [s for s in SUITES if s != "controls" and _applies(model, s)]
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; expected one of {', '.join(SUITES)} or 'all'"
            )
        if not _applies(model, name):
            raise UnknownSuiteError(
                f"suite {name!r} does not apply to criterion {model.criterion!r}"
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
    """Run the suites ``selected_suites`` picks; deterministic given the
    seed.

    ``controls`` reruns each applicable check with its corruption enabled and
    reports a meta-property that passes exactly when the corrupted check
    fails.  ``tolerance_solver`` is read by ``TOLERANCE_SUITES`` only.
    """
    names = selected_suites(model, suites)
    reports: list[PropertyReport] = []
    for name in names:
        if name == "sufficiency":
            reports.append(check_sufficiency_master(model, n_samples, seed, fixture))
            for agent in range(model.n_agents):
                reports.append(
                    check_sufficiency_private(model, agent, n_samples, seed + agent + 1, fixture)
                )
        elif name == "slave":
            others = _suite_others_policy(model, seed)
            reports.append(check_slave_structure(model, others, 0, n_samples, seed, fixture))
        elif name == "master":
            reports.append(
                check_master_structure(
                    model,
                    model.criterion,
                    model.horizon,
                    n_samples,
                    seed,
                    fixture,
                    tolerance_solver,
                )
            )
        elif name == "lipschitz":
            reports.append(
                check_lipschitz(model, model.horizon, n_samples, seed, fixture, tolerance_solver)
            )
        elif name == "controls":
            reports.extend(_negative_controls(model, seed, fixture))
    return reports


def _applies(model: PosgModel, suite: str) -> bool:
    """Whether ``suite`` has a property for the model's criterion."""
    if suite == "master":
        return model.criterion in ("common", "zerosum", "stackelberg")
    if suite == "lipschitz":
        return model.criterion == "zerosum"
    return True


def _suite_others_policy(model: PosgModel, seed: int):
    rng = np.random.default_rng(seed + 10_000)
    policy = random_joint_policy(model, rng)
    return {j: policy.agents[j] for j in range(model.n_agents) if j != 0}


def _negative_controls(model, seed, fixture) -> list[PropertyReport]:
    """Each check must fail when its computation is deliberately corrupted."""
    out = []
    checks = [
        (
            "sufficiency-master",
            lambda: check_sufficiency_master(
                model, 5, seed, fixture, negative_control=True
            ),
        ),
        (
            "sufficiency-private",
            lambda: check_sufficiency_private(
                model, 0, 5, seed, fixture, negative_control=True
            ),
        ),
        (
            "slave-structure",
            lambda: check_slave_structure(
                model,
                _suite_others_policy(model, seed),
                0,
                4,
                seed,
                fixture,
                negative_control=True,
                certificate_samples=1,
            ),
        ),
    ]
    if _applies(model, "master"):
        checks.append(
            (
                "master-structure",
                lambda: check_master_structure(
                    model,
                    model.criterion,
                    model.horizon,
                    4,
                    seed,
                    fixture,
                    negative_control=True,
                ),
            )
        )
    if _applies(model, "lipschitz"):
        checks.append(
            (
                "lipschitz",
                lambda: check_lipschitz(
                    model, model.horizon, 4, seed, fixture, negative_control=True
                ),
            )
        )
    for name, run in checks:
        inner = run()
        out.append(
            PropertyReport(
                name=f"{name}-negative-control",
                fixture=fixture,
                samples=inner.samples,
                max_violation=0.0 if not inner.passed else float("inf"),
                tolerance=0.0,
                passed=not inner.passed,
                seed=seed,
                notes={"corrupted_check_violation": inner.max_violation},
            )
        )
    return out
