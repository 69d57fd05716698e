import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games.errors import CapExceededError, UnreachableHistoryError
from occupancy_games.occupancy import Level, action_probs, initial_occupancy, rule_table, step
from occupancy_games.policies import (
    DecisionRule,
    JointHistory,
    JointPolicy,
    PolicyMixture,
    PolicyTree,
    PrivateHistory,
    empty_joint_history,
    decision_at,
    enumerate_pure_policies,
    policy_from_json,
    policy_to_json,
    pure_policy_count,
    tree_to_rules,
)
from occupancy_games.sampling import (
    all_histories,
    random_decision_rule,
    random_joint_policy,
    random_posg,
)


def brute_force_count(n_actions: int, n_obs: int, horizon: int) -> int:
    # independent recursive construction of reduced trees
    if horizon == 1:
        return n_actions
    return n_actions * brute_force_count(n_actions, n_obs, horizon - 1) ** n_obs


@pytest.mark.parametrize("n_u", [1, 2, 3])
@pytest.mark.parametrize("n_z", [1, 2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_pure_policy_count_matches_recursion(n_u, n_z, h):
    assert pure_policy_count(n_u, n_z, h) == brute_force_count(n_u, n_z, h)


def test_tiger_policy_counts(tiger):
    assert len(enumerate_pure_policies(tiger, 0, 1)) == 3
    assert len(enumerate_pure_policies(tiger, 0, 2)) == 27
    assert len(enumerate_pure_policies(tiger, 0, 3)) == 2187


def test_enumeration_cap(tiger):
    with pytest.raises(CapExceededError, match="2187"):
        enumerate_pure_policies(tiger, 0, 3, cap=1000)


def test_enumeration_deterministic_and_lexicographic(tiger):
    a = enumerate_pure_policies(tiger, 0, 2)
    b = enumerate_pure_policies(tiger, 0, 2)
    assert a == b

    def preorder(tree):
        out = [tree.action]
        for child in tree.children:
            out.extend(preorder(child))
        return out

    orders = [preorder(t) for t in a]
    assert orders == sorted(orders)
    assert orders[0] == [0, 0, 0]  # all-lowest-action tree comes first


def test_decision_at(tiger):
    trees = enumerate_pure_policies(tiger, 0, 2)
    listen_then = trees[0]
    assert decision_at(listen_then, PrivateHistory(0)) == {0: 1.0}
    h = PrivateHistory(0, ((0, 0),))  # (listen, hear-left)
    assert decision_at(listen_then, h) == {listen_then.children[0].action: 1.0}
    off_tree = PrivateHistory(0, ((2, 0),))  # open-right never played at root
    with pytest.raises(UnreachableHistoryError):
        decision_at(listen_then, off_tree)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pure_trees_give_point_masses(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=2, n_actions=(2, 3), n_obs=(2, 2), horizon=2)
    trees = enumerate_pure_policies(m, 1, 2)
    tree = trees[rng.integers(len(trees))]
    # every on-tree history yields a single full-mass action
    for z in range(m.n_agent_obs(1)):
        h = PrivateHistory(1, ((tree.action, z),))
        dist = decision_at(tree, h)
        assert sum(dist.values()) == 1.0 and len(dist) == 1


def test_tree_to_rules_roundtrip(tiger):
    tree = enumerate_pure_policies(tiger, 0, 2)[13]
    rules = tree_to_rules(tiger, tree)
    assert len(rules) == 2
    for t, rule in enumerate(rules):
        for hist, dist in rule.probs.items():
            assert hist.t == t
            assert decision_at(tree, hist) == {
                int(np.argmax(dist)): 1.0
            }


def test_policy_json_roundtrip(tiger):
    rng = np.random.default_rng(5)
    behavioral = random_joint_policy(tiger, rng)
    text = policy_to_json(tiger, behavioral)
    back = policy_from_json(tiger, text)
    assert policy_to_json(tiger, back) == text

    tree_policy = JointPolicy(
        (
            enumerate_pure_policies(tiger, 0, 2)[7],
            enumerate_pure_policies(tiger, 1, 2)[11],
        )
    )
    text = policy_to_json(tiger, tree_policy)
    assert policy_from_json(tiger, text) == tree_policy


def test_policy_mixture_json_roundtrip(tiger):
    trees = [enumerate_pure_policies(tiger, i, 2) for i in range(2)]
    mixture = PolicyMixture(0, ((0.25, trees[0][3]), (0.75, trees[0][10])))
    policy = JointPolicy((mixture, trees[1][5]))
    text = policy_to_json(tiger, policy)
    assert '"type": "mixture"' in text
    back = policy_from_json(tiger, text)
    assert back == policy and isinstance(back.agents[0], PolicyMixture)
    assert policy_to_json(tiger, back) == text


@pytest.mark.parametrize("n_public", [1, 2])
def test_behavioral_json_reads_back_labels_that_carry_a_public_part(n_public):
    # with two public observations an own-observation label reads
    # "z00|w1", so a history label holds one "|" inside each step as well
    # as one between steps
    m = random_posg(np.random.default_rng(0), n_obs=(2, 1), n_public=n_public, horizon=3)
    text = policy_to_json(m, random_joint_policy(m, np.random.default_rng(1)))
    back = policy_from_json(m, text)
    assert policy_to_json(m, back) == text
    rule = back.agents[0].rules[2]
    assert len(rule.probs) == (2 * 2 * n_public) ** 2
    assert all(len(h.steps) == 2 for h in rule.probs)


def test_a_history_label_that_ends_inside_a_step_is_refused():
    m = random_posg(np.random.default_rng(0), n_obs=(2, 1), n_public=2, horizon=2)
    text = policy_to_json(m, random_joint_policy(m, np.random.default_rng(1)))
    with pytest.raises(ValueError, match="ends in no step label: 'a00:z00'"):
        policy_from_json(m, text.replace('"a00:z00|w0"', '"a00:z00"'))


def test_decision_rule_validates():
    with pytest.raises(ValueError, match="distribution"):
        DecisionRule(0, 0, {PrivateHistory(0): (0.5, 0.2)})
    with pytest.raises(ValueError, match="time step"):
        DecisionRule(0, 1, {PrivateHistory(0): (1.0,)})


def test_a_mixture_of_trees_of_unequal_horizons_is_refused(tiger):
    trees = enumerate_pure_policies(tiger, 0, 2)
    assert PolicyMixture(0, ((0.5, trees[0]), (0.5, trees[-1]))).horizon == 2
    with pytest.raises(ValueError, match=r"differ in horizon: \[1, 2\]"):
        PolicyMixture(0, ((0.5, trees[0]), (0.5, PolicyTree(0, 0))))


@pytest.mark.parametrize("n_actions", [(3,), (2, 3), (3, 2, 2)])
@pytest.mark.parametrize("support", [1, 2, None])
def test_joint_action_dist_matches_brute_force_product(n_actions, support):
    # the kernel's (entry, joint action) product, one entry per joint history
    rng = np.random.default_rng(10 * len(n_actions) + (support or 0))
    m = random_posg(rng, n_actions=n_actions, n_obs=(2,) * len(n_actions))
    rules = [random_decision_rule(m, i, 1, rng, support=support) for i in range(m.n_agents)]
    histories = [all_histories(m, i, 1) for i in range(m.n_agents)]
    joints = list(itertools.product(*histories))
    ids = np.array(list(itertools.product(*(range(len(hs)) for hs in histories))))
    level = Level(
        np.zeros(len(joints), dtype=int),
        tuple(ids.T),
        np.ones(len(joints)),
        tuple(len(hs) for hs in histories),
    )
    rows = [rule_table(m, i, [rule], hs).rows[0] for i, (rule, hs) in enumerate(zip(rules, histories))]
    got = action_probs(m, level, rows)
    for privates, row in zip(joints, got):
        dists = [rule.dist(h) for rule, h in zip(rules, privates)]
        expected = [0.0] * m.n_joint_actions
        for combo in itertools.product(*(range(len(d)) for d in dists)):
            p = 1.0
            for d, u in zip(dists, combo):
                p *= d[u]
            if p > 0.0:
                expected[m.joint_action_index(combo)] = p
        assert row.tolist() == expected


# -- histories as trie nodes ---------------------------------------------------


@st.composite
def joint_streams(draw):
    """An agent count and joint (actions, observations) streams, to be grown
    from one root, so that they share prefixes."""
    n = draw(st.integers(1, 3))
    ids = st.tuples(*[st.integers(0, 2)] * n)
    return n, draw(st.lists(st.lists(st.tuples(ids, ids), max_size=3), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(joint_streams())
def test_grown_histories_are_the_built_ones_and_one_object_per_history(case):
    n, streams = case
    root = empty_joint_history(n)
    for stream in streams:
        o = root
        for us, zs in stream:
            o = o.child(us, zs)
        privates = tuple(
            PrivateHistory(i, tuple((us[i], zs[i]) for us, zs in stream)) for i in range(n)
        )
        built = JointHistory(privates)
        # equal to the constructor's history, with the dataclass hash formulas
        assert o == built and built == o
        assert hash(o) == hash(built) == hash((privates,))
        for grown, h in zip(o.privates, privates):
            assert grown == h and hash(grown) == hash((h.agent, h.steps))
        assert {o: 1}[built] == 1 and {built: 1}[o] == 1
        # a repeated child is the same object, in the joint trie and in each
        # private one
        again = root
        for us, zs in stream:
            again = again.child(us, zs)
        assert again is o
        for i, h in enumerate(root.privates):
            for us, zs in stream:
                h = h.child(us[i], zs[i])
            assert h is o.privates[i]


def test_a_memo_keyed_on_the_action_alone_fails_the_property(monkeypatch):
    # negative control: a child memo that ignores the observation hands the
    # first child grown after an action to every observation after it
    def child(self, action, obs):
        if self._kids is None:
            object.__setattr__(self, "_kids", {})
        if action not in self._kids:
            self._kids[action] = PrivateHistory(self.agent, self.steps + ((action, obs),))
        return self._kids[action]

    monkeypatch.setattr(PrivateHistory, "child", child)
    with pytest.raises(AssertionError):
        test_grown_histories_are_the_built_ones_and_one_object_per_history()


def test_joint_history_components_must_share_one_length():
    with pytest.raises(ValueError, match="share one length"):
        JointHistory((PrivateHistory(0), PrivateHistory(1, ((0, 0),))))
    o = empty_joint_history(2).child((0, 1), (1, 0))
    assert o.t == 1 and JointHistory(o.privates) == o


def test_a_trie_is_freed_with_its_root_and_states(tiger):
    # no cache outside the trie: once the root and the states holding its
    # histories are gone, so is a grandchild
    rules = random_joint_policy(tiger, np.random.default_rng(3)).joint_rules(tiger)
    root = empty_joint_history(2)
    grandchild = root.child((0, 0), (1, 0)).child((0, 0), (0, 0))
    s0 = initial_occupancy(tiger)
    s2 = step(tiger, step(tiger, s0, rules[0])[0][2], rules[1])[0][2]
    (_, o), = itertools.islice(s2.entries, 1)
    refs = [weakref.ref(h) for h in (grandchild, *grandchild.privates, *o.privates)]
    del grandchild, o, s2
    gc.collect()
    assert all(ref() is not None for ref in refs)  # held by the tries' roots
    del root, s0
    gc.collect()
    assert all(ref() is None for ref in refs)
