import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games.errors import (
    CapExceededError,
    InconsistentOccupancyError,
    UndefinedDecisionRuleError,
    UnreachableHistoryError,
)
from occupancy_games.model import parse_posg
from occupancy_games import occupancy, solve
from occupancy_games.occupancy import (
    Mixture,
    OccupancyState,
    PrivateOccupancyState,
    action_probs,
    decompose,
    expected_reward,
    entries_of,
    initial_occupancy,
    initial_private_occupancy,
    level_of,
    occupancy_to_csv,
    others_rule_arrays,
    private_occupancy,
    private_reward,
    private_step,
    recombine,
    step,
)
from occupancy_games.policies import (
    DecisionRule,
    JointHistory,
    PrivateHistory,
    empty_joint_history,
)
from occupancy_games.solve import best_response_private
from occupancy_games.sampling import (
    random_behavioral_policy,
    random_decision_rule,
    random_joint_policy,
    random_posg,
)
from occupancy_games.verify import _anchored, _normalized, _played

from conftest import (
    MODELS, in_steps_order, load, private_children, raw_keys, raw_step, recorded_pushes,
)


def det_rule(model, agent, t, action, histories):
    n = len(model.actions[agent])
    dist = tuple(1.0 if u == action else 0.0 for u in range(n))
    return DecisionRule(agent, t, {h: dist for h in histories})


def root_rules(model, actions):
    return tuple(
        det_rule(model, i, 0, a, [PrivateHistory(i)]) for i, a in enumerate(actions)
    )


# -- initial occupancy -------------------------------------------------------


def test_initial_occupancy_tiger(tiger):
    s0 = initial_occupancy(tiger)
    empty = empty_joint_history(2)
    assert s0.t == 0
    assert s0.entries == {(0, empty): 0.5, (1, empty): 0.5}


def test_initial_occupancy_point_mass(one_stage):
    s0 = initial_occupancy(one_stage.with_start([1.0, 0.0]))
    assert list(s0.entries.values()) == [1.0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_initial_occupancy_normalized(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=4)
    assert sum(initial_occupancy(m).entries.values()) == pytest.approx(1.0, abs=1e-12)


# -- step ---------------------------------------------------------------------


def test_step_listen_listen(tiger):
    (w, p, s1), = step(tiger, initial_occupancy(tiger), root_rules(tiger, (0, 0)))
    assert (w, p) == (0, pytest.approx(1.0, abs=1e-12))
    assert len(s1.entries) == 8
    key = (
        0,
        JointHistory((PrivateHistory(0, ((0, 0),)), PrivateHistory(1, ((0, 0),)))),
    )
    assert s1.entries[key] == pytest.approx(0.36125, abs=1e-15)


def test_step_listen_openleft_occupancy_update(tiger):
    (w, p, s1), = step(tiger, initial_occupancy(tiger), root_rules(tiger, (0, 1)))
    assert p == pytest.approx(1.0, abs=1e-12)
    assert len(s1.entries) == 8
    assert all(v == pytest.approx(0.125, abs=1e-15) for v in s1.entries.values())


def test_step_single_observation_is_belief_update(one_stage):
    # one observation per agent: the next occupancy is the belief update
    # attached to the single possible joint history
    (w, p, s1), = step(one_stage, initial_occupancy(one_stage), root_rules(one_stage, (0, 0)))
    assert p == pytest.approx(1.0, abs=1e-12)
    # manual Bayes filter over states under (listen, listen)
    u = one_stage.joint_action_index((0, 0))
    belief = one_stage.start @ one_stage.transition[u]
    marg = {}
    for (x, o), q in s1.entries.items():
        marg[x] = marg.get(x, 0.0) + q
    assert len({o for (_, o) in s1.entries}) == 1
    for x, b in enumerate(belief):
        assert marg.get(x, 0.0) == pytest.approx(b, abs=1e-12)


def test_updates_refuse_a_push_over_the_budget_before_making_it(tiger, monkeypatch):
    # step and private_step count their push against CAP_BYTES first: under
    # a budget that leaves nothing past the fixed bytes neither pushes
    rules = root_rules(tiger, (0, 0))
    pushes = []
    push = occupancy.next_level
    monkeypatch.setattr(occupancy, "next_level", lambda *a: pushes.append(1) or push(*a))
    assert step(tiger, initial_occupancy(tiger), rules) and len(pushes) == 1
    monkeypatch.setattr(occupancy, "CAP_BYTES", occupancy.WALK_FIXED_BYTES)
    with pytest.raises(CapExceededError, match="^occupancy update too large"):
        step(tiger, initial_occupancy(tiger), rules)
    with pytest.raises(CapExceededError, match="^occupancy update too large"):
        private_step(tiger, initial_private_occupancy(tiger, 0), {1: rules[1]}, 0)
    assert len(pushes) == 1


def test_step_missing_rule_entry(tiger):
    s0 = initial_occupancy(tiger)
    incomplete = DecisionRule(0, 0, {})
    with pytest.raises(UndefinedDecisionRuleError):
        step(tiger, s0, (incomplete, root_rules(tiger, (0, 0))[1]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_step_branches_form_distribution(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=2, n_obs=(2, 2), n_public=2, horizon=2)
    s = initial_occupancy(m)
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    branches = step(m, s, rules)
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-9)
    for _, _, nxt in branches:
        assert sum(nxt.entries.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v > 0 for v in nxt.entries.values())
        assert all(o.t == 1 for (_, o) in nxt.entries)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_every_level_numbers_its_histories_in_steps_order(seed):
    # the one numbering of a level's histories, by steps: levels converted
    # from shuffled entries, the children of step and private_step, and the
    # private DP's sub-levels, whose own states' (parent sequence, own
    # observation) and other agents' rows per id follow their histories' steps
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=2, n_actions=(2, 3), n_obs=(2, 2), n_public=2, horizon=3)
    s, levels = initial_occupancy(m), []
    for t in range(2):
        branches = step(m, s, tuple(random_decision_rule(m, i, t, rng) for i in range(2)))
        levels += [level_of(m, nxt) for _, _, nxt in branches]
        s = branches[rng.integers(len(branches))][2]
    items = list(s.entries.items())
    shuffled = OccupancyState(s.t, dict(items[k] for k in rng.permutation(len(items))))
    levels.append(level_of(m, shuffled))
    assert entries_of(*levels[-1]) == shuffled.entries
    others = [{1: random_decision_rule(m, 1, t, rng)} for t in range(2)]
    for _, _, _, s_i in private_children(m, initial_private_occupancy(m, 0), others[0]):
        levels.append(level_of(m, s_i))
        levels += [level_of(m, c) for *_, c in private_children(m, s_i, others[1])]
    assert all(in_steps_order(hists) for _, hists in levels)
    rows, own, batch = [], [], solve._private_batch
    def record(m, i, level, r, others, t, first, batches, trie):
        rows.append(r)
        n = level.n_sets[i]
        own.append(list(zip(trie[0][first : first + n], trie[1][first : first + n])))
        return batch(m, i, level, r, others, t, first, batches, trie)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solve, "_private_batch", record)
        best_response_private(m, {1: random_behavioral_policy(m, 1, rng)}, 0)
    assert len(rows) > 2 and all(own[k] == sorted(set(own[k])) for k in range(len(own)))
    assert all((np.diff(r) > 0).all() for per_agent in rows for r in per_agent if r is not None)


# -- expected reward ----------------------------------------------------------


def test_expected_reward_one_stage(one_stage):
    s0 = initial_occupancy(one_stage)
    assert expected_reward(one_stage, s0, root_rules(one_stage, (0, 0)), 0) == pytest.approx(1.0)
    assert expected_reward(one_stage, s0, root_rules(one_stage, (1, 1)), 0) == pytest.approx(0.0)


def test_expected_reward_zero_table(one_stage):
    import dataclasses

    zero = dataclasses.replace(one_stage, rewards=np.zeros_like(one_stage.rewards))
    s0 = initial_occupancy(zero)
    assert expected_reward(zero, s0, root_rules(zero, (1, 1)), 0) == 0.0


# -- private occupancy --------------------------------------------------------


def test_private_occupancy_boundary(tiger):
    s = private_occupancy(tiger, [], PrivateHistory(0))
    empty = empty_joint_history(2)
    assert s.entries == {(0, empty): 0.5, (1, empty): 0.5}
    assert s.anchor == PrivateHistory(0)


def test_private_occupancy_basis_decomposition_component(tiger):
    # Calvin listened and heard left while Susie opened the left door
    others = [{1: det_rule(tiger, 1, 0, 1, [PrivateHistory(1)])}]
    s = private_occupancy(tiger, others, PrivateHistory(0, ((0, 0),)))
    assert len(s.entries) == 4
    assert all(v == pytest.approx(0.25, abs=1e-15) for v in s.entries.values())
    assert all(o.privates[0] == s.anchor for (_, o) in s.entries)


def test_private_occupancy_unreachable(tiger):
    others = [{1: det_rule(tiger, 1, 0, 1, [PrivateHistory(1)])}]
    # observation probabilities are full-support in the tiger, so force an
    # unreachable history through an impossible anchor action sequence in a
    # restricted model instead
    one_hot = parse_posg(
        """
agents: 2
horizon: 2
states: s
actions:
a
a
observations:
y n
y n
T: * * : * : * : 1.0
O: * * : * : y y : 1.0
"""
    )
    others = [{1: det_rule(one_hot, 1, 0, 0, [PrivateHistory(1)])}]
    with pytest.raises(UnreachableHistoryError):
        private_occupancy(one_hot, others, PrivateHistory(0, ((0, 1),)))


def test_one_sided_private_occupancy_collapses_to_belief(one_sided):
    # agent 2's observation reveals agent 1's action and observation, so the
    # conditional over joint histories is a point mass and the state marginal
    # follows the standard Bayes filter
    m = one_sided
    rng = np.random.default_rng(1)
    a1_rule = random_decision_rule(m, 0, 0, rng)
    anchor = PrivateHistory(1, ((0, m.agent_obs_index(1, 0, 0)),))  # (stay, L-hl)
    s = private_occupancy(m, [{0: a1_rule}], anchor)
    histories = {o for (_, o) in s.entries}
    assert len(histories) == 1  # unique joint history: o1 is revealed
    o1 = next(iter(histories)).privates[0]
    assert o1.steps == ((0, 0),)  # (listen, hear-left)
    # independent belief filter for u=(listen, stay), z1=hear-left
    u = m.joint_action_index((0, 0))
    z1 = 0
    num = np.zeros(m.n_states)
    for x, b in enumerate(m.start):
        for x2 in range(m.n_states):
            p_obs = sum(
                m.observation[u, x2, z]
                for z in range(m.n_joint_obs)
                if m.split_joint_obs(z)[0][0] == z1
            )
            num[x2] += b * m.transition[u, x, x2] * p_obs
    belief = num / num.sum()
    marg = np.zeros(m.n_states)
    for (x, _), p in s.entries.items():
        marg[x] += p
    assert np.allclose(marg, belief, atol=1e-12)


# -- private step / reward ----------------------------------------------------


def test_private_step_observation_probabilities(tiger):
    from occupancy_games.occupancy import initial_private_occupancy

    others = {1: det_rule(tiger, 1, 0, 0, [PrivateHistory(1)])}
    s0 = initial_private_occupancy(tiger, 0)
    z, omega, _ = private_step(tiger, s0, others, 0)[0]
    assert z == 0 and omega == pytest.approx(0.5 * 0.85 + 0.5 * 0.15, abs=1e-12)

    anchored = initial_private_occupancy(tiger.with_start([1.0, 0.0]), 0)
    z, omega, _ = private_step(tiger, anchored, others, 0)[0]
    assert z == 0 and omega == pytest.approx(0.85, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_private_step_probs_sum_to_one(seed):
    from occupancy_games.occupancy import initial_private_occupancy

    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=2, n_obs=(2, 3), horizon=2)
    agent = int(rng.integers(0, 2))
    others = {
        j: random_decision_rule(m, j, 0, rng) for j in range(2) if j != agent
    }
    s0 = initial_private_occupancy(m, agent)
    u = int(rng.integers(0, len(m.actions[agent])))
    branches = private_step(m, s0, others, u)
    assert [z for z, _, _ in branches] == sorted({z for z, _, _ in branches})
    for z, omega, nxt in branches:
        assert omega > 0 and nxt.anchor == s0.anchor.child(u, z)
        assert sum(nxt.entries.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(o.privates[agent] == nxt.anchor for (_, o) in nxt.entries)
    assert sum(omega for _, omega, _ in branches) == pytest.approx(1.0, abs=1e-9)


def test_private_reward_one_stage(one_stage_zs):
    from occupancy_games.occupancy import initial_private_occupancy

    others = {1: det_rule(one_stage_zs, 1, 0, 0, [PrivateHistory(1)])}
    s0 = initial_private_occupancy(one_stage_zs, 0)
    assert private_reward(one_stage_zs, s0, others, 0) == pytest.approx(1.0)
    assert private_reward(one_stage_zs, s0, others, 1) == pytest.approx(0.0)


def test_private_step_pushes_only_the_rows_of_its_own_action(tiger, monkeypatch):
    # tiger h=2 from the start and from a t=1 state: each private_step makes
    # one push, which holds the rows of its own action under the others'
    # weighted actions only; private_reward pushes nothing, step once
    m = tiger.with_horizon(2)
    rules = random_joint_policy(m, np.random.default_rng(3)).joint_rules(m)
    s0 = initial_private_occupancy(m, 0)
    arrays, n_u = m._successor_arrays, len(m.actions[0])
    pushes = recorded_pushes(monkeypatch)

    def own_rows(s_i, t, u):
        """The rows of own action ``u`` at ``s_i`` whose others' action has
        weight, and the rows of every own action."""
        level, hists = level_of(m, s_i)
        entry = np.repeat(np.arange(len(level.xs)), np.diff(arrays.begin)[level.xs])
        out = np.concatenate([np.arange(arrays.begin[x], arrays.begin[x + 1]) for x in level.xs])
        other = others_rule_arrays(m, {1: rules[t][1]}, 0, hists)[1]
        weighted = other[level.ids[1][entry], arrays.acts[out, 1]] > 0.0
        return int((weighted & (arrays.acts[out, 0] == u)).sum()), int(weighted.sum())

    _, _, s1 = private_step(m, s0, {1: rules[0][1]}, 0)[1]
    del pushes[:]
    for t, s_i in enumerate((s0, s1)):
        for u in range(n_u):
            private_reward(m, s_i, {1: rules[t][1]}, u)
            assert pushes == []
            private_step(m, s_i, {1: rules[t][1]}, u)
            (pushed,) = pushes
            assert len(pushed.weight) == own_rows(s_i, t, u)[0]
            del pushes[:]
    step(m, initial_occupancy(m), rules[0])
    assert len(pushes) == 1
    # control: a push with weight 1 on every own action holds more rows
    level, hists = level_of(m, s1)
    a = action_probs(m, level, others_rule_arrays(m, {1: rules[1][1]}, 0, hists))
    every = occupancy.next_level(m, level, a)
    assert len(every.weight) == own_rows(s1, 1, 0)[1] != own_rows(s1, 1, 0)[0]


def test_private_step_impossible_observation():
    m = parse_posg(
        """
agents: 2
horizon: 2
states: s
actions:
a
a
observations:
y n
y n
T: * * : * : * : 1.0
O: * * : * : y y : 1.0
"""
    )
    from occupancy_games.occupancy import initial_private_occupancy

    others = {1: det_rule(m, 1, 0, 0, [PrivateHistory(1)])}
    # both agents always observe y: the branch list leaves n out, and a
    # history through n is unreachable
    (branch,) = private_step(m, initial_private_occupancy(m, 0), others, 0)
    assert branch[:2] == (0, 1.0)
    with pytest.raises(UnreachableHistoryError, match="probability 0"):
        private_occupancy(m, [others], PrivateHistory(0, ((0, 1),)))


# -- decompose / recombine ----------------------------------------------------


def test_decompose_basis_decomposition(tiger):
    rules = root_rules(tiger, (0, 1))
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules)
    mixture = decompose(s1, tiger, [rules], 0)
    assert [w for w, _ in mixture.components] == [pytest.approx(0.5)] * 2
    for _, comp in mixture.components:
        assert len(comp.entries) == 4
        assert all(v == pytest.approx(0.25, abs=1e-15) for v in comp.entries.values())
    back = recombine(mixture)
    assert back.entries.keys() == s1.entries.keys()
    for k, v in s1.entries.items():
        assert back.entries[k] == v  # exact


def test_decompose_t0_trivial(tiger):
    s0 = initial_occupancy(tiger)
    mixture = decompose(s0, tiger, [], 0)
    assert len(mixture.components) == 1
    w, comp = mixture.components[0]
    assert w == pytest.approx(1.0)
    assert comp.anchor == PrivateHistory(0)


def test_decompose_roundtrip_random_policies(tiger):
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        policy = random_joint_policy(tiger, rng)
        rules = policy.joint_rules(tiger)
        (_, _, s1), = step(tiger, initial_occupancy(tiger), rules[0])
        for agent in range(2):
            mixture = decompose(s1, tiger, rules, agent)
            back = recombine(mixture)
            assert back.entries.keys() == s1.entries.keys()
            for key, v in s1.entries.items():
                assert back.entries[key] == pytest.approx(v, abs=1e-12)
            assert sum(w for w, _ in mixture.components) == pytest.approx(1.0, abs=1e-12)


def test_decompose_rejects_inconsistent_occupancy(tiger):
    rules = root_rules(tiger, (0, 1))
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules)
    # tamper with one entry beyond tolerance
    entries = dict(s1.entries)
    k0 = next(iter(entries))
    entries[k0] += 1e-3
    total = sum(entries.values())
    bad = OccupancyState(1, {k: v / total for k, v in entries.items()})
    with pytest.raises(InconsistentOccupancyError):
        decompose(bad, tiger, [rules], 0)


@pytest.mark.parametrize(
    "weights", [(1.5, -0.5), (float("nan"), 1.0)], ids=["negative", "nan"]
)
def test_mixture_rejects_negative_and_non_finite_weights(tiger, weights):
    # both pairs slip past a check of the sum alone: 1.5 - 0.5 is 1, and a
    # NaN compares false with any bound
    rules = root_rules(tiger, (0, 1))
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules)
    components = decompose(s1, tiger, [rules], 0).components
    assert Mixture(0, components).components == components
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        Mixture(0, tuple(zip(weights, (c for _, c in components))))


@pytest.mark.parametrize("name", sorted(path.stem for path in MODELS.glob("*.posg")))
def test_decompose_builds_every_mixture_on_the_bundled_models(name):
    # every state step reaches under a seeded random policy, up to t=2, on
    # each agent's basis: its weights are positive and sum to 1
    m = load(name)
    rules = random_joint_policy(m, np.random.default_rng(7)).joint_rules(m)
    states = [initial_occupancy(m)]
    for t in range(min(m.horizon, 3)):
        for s in states:
            for agent in range(m.n_agents):
                weights = [w for w, _ in decompose(s, m, rules[:t], agent).components]
                assert min(weights) > 0.0 and sum(weights) == pytest.approx(1.0, abs=1e-9)
        if t + 1 < min(m.horizon, 3):
            states = [s1 for s in states for _, _, s1 in step(m, s, rules[t])]


def per_history_components(s, model, rules_by_step, agent) -> list:
    """``decompose``'s components by the definition: ``private_occupancy``
    of each of the agent's histories in ``s``, in steps order."""
    others = [{j: r[j] for j in range(model.n_agents) if j != agent} for r in rules_by_step]
    anchors = sorted({o.privates[agent] for _, o in s.entries}, key=lambda h: h.steps)
    return [private_occupancy(model, others, h) for h in anchors]


@pytest.mark.parametrize("name", ["tiger", "tiger-duel", "stackelberg-tiger"])
def test_decompose_components_equal_each_historys_private_occupancy(name):
    # down to t=2, where histories share their first step's push
    m = load(name).with_horizon(3)
    rules = random_joint_policy(m, np.random.default_rng(5)).joint_rules(m)
    s = initial_occupancy(m)
    for t in range(3):
        for agent in range(2):
            components = [c for _, c in decompose(s, m, rules[:t], agent).components]
            assert components == per_history_components(s, m, rules[:t], agent)
        if t < 2:
            s = step(m, s, rules[t])[-1][2]


def test_decompose_pushes_once_per_prefix_and_own_action(tiger, monkeypatch):
    # agent 1 plays two actions, each heard two ways: four histories under
    # two pushes, where filtering each history on its own pushes four times
    rng = np.random.default_rng(3)
    rules = tuple(random_decision_rule(tiger, i, 0, rng, support=2) for i in range(2))
    ((_, _, s1),) = step(tiger, initial_occupancy(tiger), rules)
    pushed, real = [], occupancy.private_step
    monkeypatch.setattr(occupancy, "private_step", lambda *a: pushed.append(a[3]) or real(*a))
    components = [c for _, c in decompose(s1, tiger, [rules], 0).components]
    assert len(components) == 4 and sorted(pushed) == sorted(set(pushed)) and len(pushed) == 2
    pushed.clear()
    assert components == per_history_components(s1, tiger, [rules], 0) and len(pushed) == 4


def test_decompose_refuses_a_support_history_the_policy_never_reaches(one_sided):
    # agent 1 opens, so agent 2 never hears the listen observation L-hl (0):
    # an entry on agent 2's history ((stay, L-hl),) is unreachable
    rules = root_rules(one_sided, (1, 0))
    ((_, _, s1),) = step(one_sided, initial_occupancy(one_sided), rules)
    x, o = next(iter(s1.entries))
    heard = JointHistory((o.privates[0], PrivateHistory(1, ((0, 0),))))
    entries = {k: v / 2 for k, v in {**s1.entries, (x, heard): 1.0}.items()}
    with pytest.raises(InconsistentOccupancyError, match=r"history \(\(0, 0\),\) unreachable"):
        decompose(OccupancyState(1, entries), one_sided, [rules], 1)


# -- serialization ------------------------------------------------------------

LISTEN_OPENLEFT_CSV = """state,history_1,history_2,probability
tiger-left,listen:hear-left,open-left:hear-left,0.125
tiger-left,listen:hear-left,open-left:hear-right,0.125
tiger-left,listen:hear-right,open-left:hear-left,0.125
tiger-left,listen:hear-right,open-left:hear-right,0.125
tiger-right,listen:hear-left,open-left:hear-left,0.125
tiger-right,listen:hear-left,open-left:hear-right,0.125
tiger-right,listen:hear-right,open-left:hear-left,0.125
tiger-right,listen:hear-right,open-left:hear-right,0.125
"""


def test_occupancy_csv_golden(tiger):
    (_, _, s1), = step(tiger, initial_occupancy(tiger), root_rules(tiger, (0, 1)))
    assert occupancy_to_csv(tiger, s1) == LISTEN_OPENLEFT_CSV


def test_transition_probability_recoverable_from_branches():
    # the implicit occupancy-to-occupancy kernel is the omega-weighted sum of
    # point masses on the per-branch successors, with equality up to pruning
    rng = np.random.default_rng(17)
    m = random_posg(rng, n_states=2, n_public=2, horizon=2)
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    branches = step(m, initial_occupancy(m), rules)
    assert len(branches) == 2
    for w, p, nxt in branches:
        mass = sum(
            q for _, q, other in branches if other.equals(nxt)
        )
        assert mass == pytest.approx(p, abs=1e-12)  # successors are distinct here
    assert not branches[0][2].equals(branches[1][2])


def test_decompose_with_public_observations():
    rng = np.random.default_rng(23)
    m = random_posg(rng, n_states=2, n_public=2, horizon=2)
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    branches = step(m, initial_occupancy(m), rules)
    for _, _, s1 in branches:
        for agent in range(2):
            mixture = decompose(s1, m, [rules], agent)
            back = recombine(mixture)
            assert back.entries.keys() == s1.entries.keys()
            for k, v in s1.entries.items():
                assert back.entries[k] == pytest.approx(v, abs=1e-12)


# -- entries of pushed states, built on first read --------------------------------


def pushed_children(m, rng):
    """``step`` and ``private_step`` children from the start under a random
    policy, each with its entries by the raw definition (``verify``'s raw
    step, normalized per branch), keyed by each agent's steps."""
    rules = random_joint_policy(m, rng).joint_rules(m)[0]
    s0 = initial_occupancy(m)
    public = lambda z: m.split_joint_obs(z)[1]
    raw = raw_step(m, raw_keys(s0.entries), _played(rules), public, len(m.public_obs))[1]
    out = [(s, _normalized(raw[w])) for w, _, s in step(m, s0, rules)]
    s_i, others = initial_private_occupancy(m, 0), {1: rules[1]}
    own = lambda z: m.agent_obs_of_joint(0, z)
    for u, z, _, s in private_children(m, s_i, others):
        dists = _anchored(m, 0, others, u)
        raw = raw_step(m, raw_keys(s_i.entries), dists, own, m.n_agent_obs(0))[1]
        out.append((s, _normalized(raw[z])))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_pushed_states_build_their_entries_on_first_read(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=2, n_actions=(2, 3), n_obs=(2, 2), n_public=2, horizon=2)
    for s, raw in pushed_children(m, rng):
        assert "entries" not in vars(s)  # nothing built yet
        first = s.entries
        assert s.entries is first and first == entries_of(*level_of(m, s))
        assert type(first) is dict
        if isinstance(s, OccupancyState):
            copy = OccupancyState(s.t, dict(first))
            by_steps = OccupancyState(s.t, raw_keys(first))
            assert by_steps.equals(OccupancyState(s.t, raw)) and copy.equals(s)
        else:
            copy = PrivateOccupancyState(s.agent, s.anchor, dict(first))
            assert raw_keys(first).keys() == raw.keys()
            assert all(abs(p - raw[k]) <= 1e-12 for k, p in raw_keys(first).items())
            assert all(o.privates[0] == s.anchor for _, o in first)
        assert s == copy and copy == s and repr(s) == repr(copy)
    # equality reads entries: two branches of one update differ
    rules = random_joint_policy(m, rng).joint_rules(m)[0]
    (_, _, a), (_, _, b), *_ = step(m, initial_occupancy(m), rules)
    assert a != b and not a.equals(b)


def test_private_best_response_builds_no_joint_history(tiger, monkeypatch):
    calls = []
    real = occupancy.entries_of
    monkeypatch.setattr(occupancy, "entries_of", lambda *a: calls.append(1) or real(*a))
    m = tiger.with_horizon(3)
    policy = random_joint_policy(m, np.random.default_rng(5))
    br = best_response_private(m, {1: policy.agents[1]}, 0)
    assert calls == [] and np.isfinite(br.value)
    # a pushed state still builds them when read, once
    _, _, s = step(m, initial_occupancy(m), policy.joint_rules(m)[0])[0]
    assert s.entries is s.entries and calls == [1]


# -- the one merge order and shared joint histories ------------------------------


def level_keys(m, s) -> list[tuple[int, ...]]:
    """Each entry's (state, id per agent) key, in the state's level order."""
    level, _ = level_of(m, s)
    return list(zip(level.xs.tolist(), *(ids.tolist() for ids in level.ids)))


def test_step_and_private_step_merge_entries_in_increasing_key(tiger):
    # every push numbers its merged entries by (state, child id per agent),
    # so every branch's level is sorted by that key, strictly
    m = tiger.with_horizon(3)
    rng = np.random.default_rng(3)
    rules = random_joint_policy(m, rng).joint_rules(m)
    states, checked = [initial_occupancy(m)], 0
    for t in range(m.horizon):
        states = [nxt for s in states for _, _, nxt in step(m, s, rules[t])]
        for s in states:
            keys = level_keys(m, s)
            assert keys == sorted(set(keys))
            checked += len(keys)
    for agent in range(m.n_agents):
        others = [{j: r[j] for j in range(m.n_agents) if j != agent} for r in rules]
        frontier = [initial_private_occupancy(m, agent)]
        for t in range(m.horizon):
            frontier = [c for s_i in frontier for *_, c in private_children(m, s_i, others[t])]
            for s_i in frontier:
                keys = level_keys(m, s_i)
                assert keys == sorted(set(keys))
                checked += len(keys)
    assert checked > 10**4


def test_entries_share_one_joint_history_per_history_pair(tiger):
    m = tiger.with_horizon(2)
    rules = random_joint_policy(m, np.random.default_rng(4)).joint_rules(m)
    (_, _, s), = step(m, initial_occupancy(m), rules[0])
    level, hists = level_of(m, s)
    entries = entries_of(level, hists)
    # the same keys, values and order as one joint history per entry
    privates = zip(*([hs[k] for k in ids.tolist()] for hs, ids in zip(hists, level.ids)))
    one_each = dict(zip(zip(level.xs.tolist(), map(JointHistory, privates)), level.mass.tolist()))
    assert list(entries.items()) == list(one_each.items())
    # both states at one joint history hold one key object
    by_history: dict = {}
    for x, o in entries:
        by_history.setdefault(o, []).append(o)
    assert {len(keys) for keys in by_history.values()} == {2}
    assert all(a is b for a, b in by_history.values())
