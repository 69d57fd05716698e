"""Differential tests of the level kernel against verify's naive oracles.

Every occupancy update, reward, value table and best response runs through
``occupancy.next_level``; here each is checked against the raw trajectory-tree
expansions of ``verify`` (its one raw step ``_raw_step`` and
``_raw_rewards``, run through ``conftest.raw_step`` and ``conftest.raw_reward``
on measures keyed by each agent's steps, against which production entries are
read through ``conftest.raw_keys``) on random
models: 1e-12 on values, identical supports.  Each check has a negative
control: the same comparison with the production route on a copy of the
model whose outcome probabilities and rewards are off by 1e-6 must fail.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games import evaluate, occupancy, solve
from occupancy_games.evaluate import evaluate_occupancy, simulate, value_tables
from occupancy_games.occupancy import (
    PRUNE_EPS,
    expected_reward,
    initial_occupancy,
    initial_private_occupancy,
    private_reward,
    private_step,
    step,
)
from occupancy_games.policies import (
    BehavioralPolicy,
    JointPolicy,
    PrivateHistory,
    enumerate_pure_policies,
    rules_from_trees,
)
from occupancy_games.sampling import random_decision_rule, random_posg
from occupancy_games.solve import (
    best_response_history,
    best_response_private,
    best_response_private_from,
    best_response_value_from,
)
from occupancy_games.verify import _anchored, _decoded, _normalized, _played, _start_measure

from conftest import code_names, pairing, raw_keys, raw_reward, raw_step, recorded_pushes

TOL = 1e-12

# (actions, observations, public observations, horizon, discount)
SHAPES = [
    ((2, 2), (2, 2), 1, 3, 1.0),
    ((3, 2), (2, 1), 2, 3, 0.9),  # public observations, discount < 1
    ((2, 2, 2), (2, 1, 2), 2, 2, 1.0),  # three agents
    ((2, 3), (1, 2), 2, 3, 0.7),
]
# best responses enumerate the responder's pure trees
BR_SHAPES = [
    ((2, 2), (2, 2), 1, 2, 1.0),
    ((3, 2), (1, 2), 2, 2, 0.9),
    ((2, 2, 2), (2, 1, 2), 2, 2, 1.0),
]
CONTROL_SEEDS = range(3)


def sparse_posg(seed: int, shape):
    """Random model with about two thirds of its transition and observation
    entries set to zero (one entry per row kept), so that some observations
    have probability zero."""
    rng = np.random.default_rng(seed)
    n_actions, n_obs, n_public, horizon, discount = shape
    m = random_posg(rng, 2, n_actions, n_obs, n_public, horizon, discount)
    tables = {}
    for name in ("transition", "observation"):
        table = np.array(getattr(m, name))
        zero = rng.random(table.shape) < 0.65
        zero[..., rng.integers(table.shape[-1])] = False
        table[zero] = 0.0
        tables[name] = table / table.sum(axis=-1, keepdims=True)
    return dataclasses.replace(m, **tables)


def corrupted(model):
    """The model with every other outcome probability and every reward off by
    1e-6, in the arrays the kernel reads; the raw oracles never see it."""
    bad = dataclasses.replace(model, rewards=model.rewards * (1 + 1e-6) + 1e-6)
    arrays = model._successor_arrays
    prob = arrays.prob.copy()
    prob[::2] *= 1 + 1e-6
    bad.__dict__["_successor_arrays"] = arrays._replace(prob=prob)
    return bad


def random_rules(model, rng):
    """One rule per agent and step; a third of them deterministic and a third
    with two actions, so that rules have zero entries."""
    supports = [None, 1, 2]
    return [
        tuple(
            random_decision_rule(model, i, t, rng, support=supports[rng.integers(3)])
            for i in range(model.n_agents)
        )
        for t in range(model.horizon)
    ]


def policy_of(rules_by_step, model) -> JointPolicy:
    return JointPolicy(
        tuple(
            BehavioralPolicy(i, tuple(rules[i] for rules in rules_by_step))
            for i in range(model.n_agents)
        )
    )


def expand(model, measure: dict, rules, of=lambda z: 0, seen=0) -> dict:
    """The raw measure one step on under ``rules``, over the outcomes whose
    joint observation ``z`` has ``of(z) == seen`` (every outcome by default)."""
    return raw_step(model, measure, _played(rules), of, model.n_joint_obs)[1].get(seen, {})


def mid_game(model, production, rules_by_step, rng):
    """A random time step, a public stream drawn along the production route,
    the production state there and the raw distribution of the same stream."""
    t = int(rng.integers(model.horizon))
    s, raw = initial_occupancy(production), _decoded(*_start_measure(model))
    for tau in range(t):
        branches = step(production, s, rules_by_step[tau])
        probs = np.array([p for _, p, _ in branches])
        w, _, s = branches[rng.choice(len(branches), p=probs / probs.sum())]
        raw = expand(model, raw, rules_by_step[tau], model.public_of_joint_obs, w)
    return t, s, _normalized(raw)


def normalized(dist: dict) -> dict:
    mass = sum(dist.values())
    return {k: v / mass for k, v in dist.items() if v / mass > PRUNE_EPS}


def compare(raw: dict, got) -> float:
    """Worst difference of two distributions over the same support; inf when
    the supports differ."""
    if raw.keys() != got.keys():
        return np.inf
    return max((abs(v - got[k]) for k, v in raw.items()), default=0.0)


def raw_return(model, dist: dict, rules_by_step, t0: int, agent: int) -> float:
    """Discounted return of ``agent`` from the unnormalized ``dist`` at ``t0``,
    rolled out by the raw expansion."""
    total, scale = 0.0, 1.0
    for t in range(t0, model.horizon):
        total += scale * raw_reward(model, dist, _played(rules_by_step[t]), agent)
        if t + 1 < model.horizon:
            dist = expand(model, dist, rules_by_step[t])
        scale *= model.discount
    return total


# -- step and expected_reward -----------------------------------------------------


def step_gap(seed: int, shape, production=lambda m: m) -> float:
    model = sparse_posg(seed, shape)
    bad = production(model)
    rng = np.random.default_rng(seed + 1)
    rules_by_step = random_rules(model, rng)
    t, s, raw = mid_game(model, bad, rules_by_step, rng)
    rules = rules_by_step[t]
    worst = max(
        abs(expected_reward(bad, s, rules, i) - raw_reward(model, raw, _played(rules), i))
        for i in range(model.n_agents)
    )
    if t + 1 == model.horizon:
        return worst
    n_pub = len(model.public_obs)
    by_w: dict[int, dict] = {}
    for key, v in expand(model, raw, rules).items():
        w = key[1][0][-1][1] % n_pub
        by_w.setdefault(w, {})[key] = v
    branches = step(bad, s, rules)
    if [w for w, _, _ in branches] != sorted(by_w):
        return np.inf
    for w, p, nxt in branches:
        raw_w = by_w[w]
        got = raw_keys(nxt.entries)
        worst = max(worst, abs(p - sum(raw_w.values())), compare(normalized(raw_w), got))
    return worst


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(SHAPES))
def test_step_and_reward_match_raw_expansion(seed, shape):
    assert step_gap(seed, shape) <= TOL


@pytest.mark.parametrize("shape", SHAPES)
def test_step_and_reward_control(shape):
    assert all(step_gap(seed, shape, corrupted) > TOL for seed in CONTROL_SEEDS)


def rare_first_observation(seed: int, n_obs):
    """A random model with two public observations whose first joint
    observation has probability 1e-13 (before renormalizing): with one
    private observation per agent that is the first public observation, so
    its whole branch is that unlikely; with two, it is one outcome within
    the branch."""
    rng = np.random.default_rng(seed)
    m = random_posg(rng, 2, (3, 3), n_obs, 2, 2, 1.0)
    observation = m.observation.copy()
    observation[..., 0] = 1e-13
    observation /= observation.sum(axis=-1, keepdims=True)
    return dataclasses.replace(m, observation=observation)


def branch_gap(model, rules, branches: dict) -> float:
    """Worst difference of ``{public observation: next entries}`` from the
    raw expansion of the start under ``rules``, each branch normalized by
    its own mass, pruned (``normalized``) and renormalized over the entries
    kept; inf when a branch or a support differs."""
    n_pub = len(model.public_obs)
    by_w: dict[int, dict] = {}
    for key, v in expand(model, _decoded(*_start_measure(model)), rules).items():
        by_w.setdefault(key[1][0][-1][1] % n_pub, {})[key] = v
    if sorted(branches) != sorted(by_w):
        return np.inf
    return max(compare(normalized(normalized(by_w[w])), raw_keys(branches[w])) for w in by_w)


def misnormalized(model, s, pushed, whole: bool) -> dict:
    """The branches of ``step``'s push normalized in a wrong order: with
    ``whole``, pruned against the mass of the whole push before each branch
    is renormalized on its own; without, each branch renormalized before
    the drop and not after."""
    level = pushed.level
    hists = occupancy.child_histories(model, occupancy.level_of(model, s)[1], pushed.reached)
    public = pushed.reached[0][level.ids[0]] % len(model.public_obs)
    branches: dict[int, dict] = {}
    for (key, v), w in zip(occupancy.entries_of(level, hists).items(), public.tolist()):
        branches.setdefault(w, {})[key] = v
    if not whole:
        return {w: normalized(b) for w, b in branches.items()}
    total = level.mass.sum()
    kept = {w: {k: v for k, v in b.items() if v / total > PRUNE_EPS} for w, b in branches.items()}
    return {w: normalized(b) for w, b in kept.items() if b}


@pytest.mark.parametrize("n_obs", [(1, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_step_prunes_each_branch_on_its_own(seed, n_obs, monkeypatch):
    m = rare_first_observation(seed, n_obs)
    rules = random_rules(m, np.random.default_rng(seed))[0]
    pushes = recorded_pushes(monkeypatch)
    s = initial_occupancy(m)
    branches = step(m, s, rules)
    assert branch_gap(m, rules, {w: nxt.entries for w, _, nxt in branches}) <= 1e-14
    if n_obs == (1, 1):
        # the first public branch is less likely than PRUNE_EPS and keeps its
        # entries, which pruning against the whole push would drop
        assert branches[0][1] < PRUNE_EPS
    else:
        # the unlikely outcome's entries are dropped within their branch,
        # and the rest renormalized
        assert sum(len(nxt.entries) for _, _, nxt in branches) < len(pushes[0].level.xs)
    assert branch_gap(m, rules, misnormalized(m, s, pushes[0], n_obs == (1, 1))) > 1e-14


# -- private_step and private_reward -----------------------------------------------


def private_gap(seed: int, shape, production=lambda m: m) -> float:
    model = sparse_posg(seed, shape)
    bad = production(model)
    rng = np.random.default_rng(seed + 2)
    agent = int(rng.integers(model.n_agents))
    rules_by_step = random_rules(model, rng)
    profiles = [{j: r[j] for j in range(model.n_agents) if j != agent} for r in rules_by_step]
    n_u = len(model.actions[agent])

    def own_obs(z):
        return model.agent_obs_of_joint(agent, z)

    s_i, worst = initial_private_occupancy(bad, agent), 0.0
    measure = _decoded(*_start_measure(model))
    for t in range(model.horizon):
        raw = _normalized(measure)
        worst = max(worst, compare(normalized(raw), raw_keys(s_i.entries)))
        for u in range(n_u):
            got = private_reward(bad, s_i, profiles[t], u)
            exact = raw_reward(model, raw, _anchored(model, agent, profiles[t], u), agent)
            worst = max(worst, abs(got - exact))
        if t + 1 == model.horizon:
            break
        u = int(rng.integers(n_u))
        dists = _anchored(model, agent, profiles[t], u)
        n_obs = model.n_agent_obs(agent)
        omega = raw_step(model, raw, dists, own_obs, n_obs)[0]
        children = {z: (w, c) for z, w, c in private_step(bad, s_i, profiles[t], u)}
        for z in range(model.n_agent_obs(agent)):
            worst = max(worst, abs(children.get(z, (0.0,))[0] - omega[z]))
        if np.flatnonzero(omega).tolist() != list(children):
            return np.inf
        z = int(rng.choice(len(omega), p=omega / omega.sum()))
        s_i = children[z][1]
        measure = raw_step(model, measure, dists, own_obs, n_obs)[1][z]
    return worst


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(SHAPES))
def test_private_step_and_reward_match_raw_expansion(seed, shape):
    assert private_gap(seed, shape) <= TOL


@pytest.mark.parametrize("shape", SHAPES)
def test_private_step_and_reward_control(shape):
    assert all(private_gap(seed, shape, corrupted) > TOL for seed in CONTROL_SEEDS)


# -- value_tables and evaluate_occupancy -------------------------------------------


def value_gap(seed: int, shape, production=lambda m: m) -> float:
    model = sparse_posg(seed, shape)
    bad = production(model)
    rng = np.random.default_rng(seed + 3)
    rules_by_step = random_rules(model, rng)
    t, s, _ = mid_game(model, bad, rules_by_step, rng)
    policy = policy_of(rules_by_step, model)
    seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
    worst = 0.0
    for agent in range(model.n_agents):
        exact = raw_return(model, raw_keys(s.entries), rules_by_step, t, agent)
        tables = value_tables(bad, rules_by_step, agent, t, seeds)
        worst = max(
            worst,
            abs(evaluate_occupancy(bad, policy, s, agent) - exact),
            abs(pairing(s, tables[0]) - exact),
        )
        # the tables hold every state at each history the raw expansion reaches
        histories = {o for _, o in raw_keys(s.entries)}
        for tau, table in enumerate(tables[:-1], t):
            if {o for _, o in raw_keys(table.values)} != histories or len(table.values) != len(
                histories
            ) * model.n_states:
                return np.inf
            grid = {(x, o): 1.0 for o in histories for x in range(model.n_states)}
            expanded = expand(model, grid, rules_by_step[tau])
            histories = {o for _, o in expanded} if tau + 1 < model.horizon else set()
    return worst


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(SHAPES))
def test_values_match_raw_rollout(seed, shape):
    assert value_gap(seed, shape) <= TOL


@pytest.mark.parametrize("shape", SHAPES)
def test_values_control(shape):
    assert all(value_gap(seed, shape, corrupted) > TOL for seed in CONTROL_SEEDS)


# -- both best-response routes and their *_from twins --------------------------------


def best_raw(model, agent, rules_by_step, dist, t0, anchors) -> float:
    """Best return of ``agent`` from ``dist`` at ``t0`` by enumeration: at
    each anchor its best pure tree (anchors are information sets), the others
    by their rules."""
    total = 0.0
    for anchor in anchors:
        part = {k: v for k, v in dist.items() if k[1][agent] == anchor.steps}
        values = []
        for tree in enumerate_pure_policies(model, agent, model.horizon - t0):
            own = rules_from_trees(model, agent, {anchor: tree}, t0)
            rules = [None] * t0 + [
                tuple(own[t - t0] if j == agent else r for j, r in enumerate(rules_by_step[t]))
                for t in range(t0, model.horizon)
            ]
            values.append(raw_return(model, part, rules, t0, agent))
        total += max(values)
    return total


def br_gap(seed: int, shape, production=lambda m: m) -> float:
    model = sparse_posg(seed, shape)
    bad = production(model)
    rng = np.random.default_rng(seed + 4)
    agent = int(rng.integers(model.n_agents))
    rules_by_step = random_rules(model, rng)
    others = {
        j: a for j, a in enumerate(policy_of(rules_by_step, model).agents) if j != agent
    }
    start = {(x, ((),) * model.n_agents): float(p) for x, p in enumerate(model.start)}
    root = PrivateHistory(agent)
    best = best_raw(model, agent, rules_by_step, start, 0, [root])
    worst = 0.0
    for route in (best_response_history, best_response_private):
        br = route(bad, others, agent)
        agents = [br.policy if j == agent else others[j] for j in range(model.n_agents)]
        played = JointPolicy(tuple(agents)).joint_rules(model)
        worst = max(
            worst, abs(br.value - best), abs(raw_return(model, start, played, 0, agent) - best)
        )
    # the twins, one step in
    s = step(bad, initial_occupancy(bad), rules_by_step[0])[0][2]
    anchors = sorted({o.privates[agent] for _, o in s.entries}, key=lambda h: h.steps)
    best = best_raw(model, agent, rules_by_step, raw_keys(s.entries), 1, anchors)
    worst = max(worst, abs(best_response_value_from(bad, others, agent, s) - best))
    profiles = [{j: r[j] for j in others} for r in rules_by_step]
    _, _, s_i = private_step(bad, initial_private_occupancy(bad, agent), profiles[0], 0)[0]
    best = best_raw(model, agent, rules_by_step, raw_keys(s_i.entries), 1, [s_i.anchor])
    return max(worst, abs(best_response_private_from(bad, others, agent, s_i) - best))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(BR_SHAPES))
def test_best_responses_match_enumeration(seed, shape):
    assert br_gap(seed, shape) <= TOL


@pytest.mark.parametrize("shape", BR_SHAPES)
def test_best_responses_control(shape):
    assert all(br_gap(seed, shape, corrupted) > TOL for seed in CONTROL_SEEDS)


# -- exact values against simulation ---------------------------------------------------


def simulate_z(seed: int, shift: float = 0.0) -> float:
    """Largest distance, in standard errors, between each agent's exact value
    (plus ``shift``) and its Monte Carlo estimate."""
    model = sparse_posg(seed, SHAPES[1])
    policy = policy_of(random_rules(model, np.random.default_rng(seed + 5)), model)
    sim = simulate(model, policy, 20_000, seed)
    s0 = initial_occupancy(model)
    return max(
        abs(sim.means[i] - evaluate_occupancy(model, policy, s0, i) - shift) / sim.stderrs[i]
        for i in range(model.n_agents)
    )


@pytest.mark.parametrize("seed", range(4))
def test_exact_values_match_simulation(seed):
    assert simulate_z(seed) <= 5.0


def test_exact_values_match_simulation_control():
    # an exact value off by 0.1 is many standard errors away at 20,000 episodes
    assert all(simulate_z(seed, shift=0.1) > 5.0 for seed in range(4))


# -- one form of the dynamics ----------------------------------------------------------


def _module_names(module) -> set[str]:
    return code_names(compile(inspect.getsource(module), module.__file__, "exec"))


FACTORS = {"transition", "observation", "joint_dynamics"}


def test_dynamics_go_through_the_level_kernel():
    # occupancy, evaluate and solve read the dynamics only as the model's own
    # product (its successor arrays, or the dense product in simulate), never
    # the transition and observation tables it is formed from
    for module in (occupancy, evaluate, solve):
        assert not _module_names(module) & FACTORS, module


def test_dynamics_guard_control():
    snippet = (
        "def f(model, x, u):\n"
        "    return joint_dynamics(model, x, u), model.transition[u, x] * model.observation[u]\n"
    )
    assert code_names(compile(snippet, "<snippet>", "exec")) >= FACTORS
