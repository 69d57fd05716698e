import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog as scipy_linprog

from occupancy_games.errors import (
    CapExceededError,
    ModelValidationError,
    UndefinedDecisionRuleError,
    UnreachableHistoryError,
)
from occupancy_games import evaluate, occupancy, solve, verify
from occupancy_games.evaluate import (
    anchored_plan_values,
    evaluate_occupancy,
    simulate,
    value_tables,
)
from occupancy_games.model import parse_posg, reinterpret_criterion
from occupancy_games.occupancy import (
    OccupancyState,
    expected_reward,
    initial_occupancy,
    initial_private_occupancy,
    level_of,
    mix_occupancies,
    private_reward,
    private_step,
    step,
)
from occupancy_games.policies import (
    BehavioralPolicy,
    DecisionRule,
    JointPolicy,
    PolicyTree,
    PrivateHistory,
    agent_rules,
    decision_at,
    enumerate_pure_policies,
    rules_from_trees,
)
from occupancy_games.sampling import (
    all_histories,
    random_behavioral_policy,
    random_decision_rule,
    random_joint_policy,
    random_posg,
)
from occupancy_games.solve import (
    best_response_history,
    best_response_private,
    best_response_private_from,
    best_response_value_from,
    dec_value_from,
    induced_normal_form,
    matrix_game_value,
    solve_dec,
    solve_stackelberg,
    solve_zero_sum,
    stackelberg_from_matrices,
    stackelberg_value_from,
    suffix_normal_form,
    zero_sum_value_from,
)

from conftest import (
    LP_COMMANDS,
    code_names,
    fresh_ogs,
    in_steps_order,
    load,
    model_path,
    pairing,
    private_children,
    restricted_start,
)


# -- independent support-enumeration oracle for matrix games -------------------


def support_enumeration_value(A: np.ndarray, atol=1e-9) -> float:
    """Maximin value by enumerating equal-size support pairs and validating
    the resulting equalizing strategies; complete for nondegenerate games."""
    m, n = A.shape
    # pure saddle first
    maximin = A.min(axis=1).max()
    minimax = A.max(axis=0).min()
    if abs(maximin - minimax) <= atol:
        return float(maximin)
    for k in range(2, min(m, n) + 1):
        for R in itertools.combinations(range(m), k):
            for C in itertools.combinations(range(n), k):
                sub = A[np.ix_(R, C)]
                try:
                    lhs = np.zeros((k + 1, k + 1))
                    lhs[:k, :k] = sub.T
                    lhs[:k, k] = -1.0
                    lhs[k, :k] = 1.0
                    x_v = np.linalg.solve(lhs, np.concatenate([np.zeros(k), [1.0]]))
                except np.linalg.LinAlgError:
                    continue
                x_r, v = x_v[:k], x_v[k]
                if (x_r < -atol).any():
                    continue
                x = np.zeros(m)
                x[list(R)] = np.clip(x_r, 0.0, None)
                x /= x.sum()
                if (x @ A).min() < v - 1e-7:
                    continue
                # column side
                try:
                    lhs = np.zeros((k + 1, k + 1))
                    lhs[:k, :k] = sub
                    lhs[:k, k] = -1.0
                    lhs[k, :k] = 1.0
                    y_v = np.linalg.solve(lhs, np.concatenate([np.zeros(k), [1.0]]))
                except np.linalg.LinAlgError:
                    continue
                y_c, v2 = y_v[:k], y_v[k]
                if (y_c < -atol).any() or abs(v2 - v) > 1e-7:
                    continue
                y = np.zeros(n)
                y[list(C)] = np.clip(y_c, 0.0, None)
                y /= y.sum()
                if (A @ y).max() > v + 1e-7:
                    continue
                return float(v)
    raise AssertionError("support enumeration found no equilibrium")


def test_matrix_game_examples():
    assert matrix_game_value(np.array([[1.0, 0.0], [0.0, 0.0]])).value == pytest.approx(
        support_enumeration_value(np.array([[1.0, 0.0], [0.0, 0.0]]))
    )
    assert matrix_game_value(np.array([[1.0, 0.0], [0.0, 0.0]])).value == 0.0
    sol = matrix_game_value(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert sol.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.allclose(sol.row_mix, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert matrix_game_value(np.array([[3.5]])).value == 3.5
    # one side without a choice: the other picks its best action, here away
    # from index 0
    sol = matrix_game_value(np.array([[3.0, 1.0, 2.0]]))
    assert (sol.value, sol.col_mix.tolist()) == (1.0, [0.0, 1.0, 0.0])
    sol = matrix_game_value(np.array([[1.0], [3.0], [2.0]]))
    assert (sol.value, sol.row_mix.tolist()) == (3.0, [0.0, 1.0, 0.0])


def test_matrix_game_lp_matches_support_enumeration():
    for k in range(10):
        rng = np.random.default_rng(500 + k)
        A = rng.uniform(-2, 2, size=(rng.integers(3, 5), rng.integers(3, 6)))
        sol = matrix_game_value(A)
        assert sol.value == pytest.approx(support_enumeration_value(A), abs=1e-7)


def test_matrix_game_saddle_certificate():
    for k in range(10):
        rng = np.random.default_rng(900 + k)
        A = rng.uniform(-1, 1, size=(6, 4))
        sol = matrix_game_value(A)
        assert (sol.row_mix @ A).min() >= sol.value - 1e-8
        assert (A @ sol.col_mix).max() <= sol.value + 1e-8
        assert sol.row_mix.sum() == pytest.approx(1.0, abs=1e-9)
        assert sol.col_mix.sum() == pytest.approx(1.0, abs=1e-9)


def test_matrix_game_lp_drops_duplicate_rows_and_columns():
    # copies change no value; the mixtures keep their weight on first copies
    for k in range(5):
        rng = np.random.default_rng(700 + k)
        A = rng.uniform(-1, 1, size=(3, 4))
        rows, cols = [0, 1, 0, 2, 1, 2], [3, 0, 3, 1, 2, 0, 1]
        B = A[np.ix_(rows, cols)]
        a, b = matrix_game_value(A), matrix_game_value(B)
        assert a.method == b.method == "lp" and abs(a.value - b.value) <= 1e-12
        first_rows, first_cols = [0, 1, 3], [1, 3, 4, 0]  # A's rows and columns
        assert np.abs(b.row_mix[first_rows] - a.row_mix).max() <= 1e-9
        assert np.abs(b.col_mix[first_cols] - a.col_mix).max() <= 1e-9
        assert b.row_mix.sum() == b.row_mix[first_rows].sum()
        assert b.col_mix.sum() == b.col_mix[first_cols].sum()
    # a matrix with two copies of one row still goes to the LP, not the 2x2
    # closed form
    assert matrix_game_value(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])).method == "lp"


def test_matrix_game_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_game_value(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        matrix_game_value(np.array([[np.inf]]))


# -- best responses -------------------------------------------------------------


def test_best_response_one_stage_rows(one_stage_zs):
    br = best_response_history(one_stage_zs, {1: PolicyTree(1, 0)}, 0)
    assert br.value == pytest.approx(1.0)
    assert br.policy.action == 0  # listen
    assert br.q[PrivateHistory(0)] == (pytest.approx(1.0), pytest.approx(0.0))

    at_treasure = one_stage_zs.with_start([1.0, 0.0])
    br = best_response_history(at_treasure, {1: PolicyTree(1, 1)}, 0)
    assert br.value == pytest.approx(2.0)
    assert br.policy.action == 1  # open


def test_best_response_single_action_agent(one_sided):
    # agent 1 has two actions; give the responder a single-action variant by
    # fixing the others' policy and checking the value equals plain evaluation
    rng = np.random.default_rng(2)
    other = random_behavioral_policy(one_sided, 0, rng)
    br = best_response_private(one_sided, {0: other}, 1)
    joint = JointPolicy((other, br.policy))
    value = evaluate_occupancy(one_sided, joint, initial_occupancy(one_sided), 1)
    assert br.value == pytest.approx(value, abs=1e-9)


def test_best_response_one_agent_model_is_pomdp(minimal):
    m = minimal.with_horizon(2)
    br = best_response_history(m, {}, 0)
    assert br.value == 0.0  # zero rewards
    br_p = best_response_private(m, {}, 0)
    assert br_p.value == 0.0


@pytest.mark.parametrize("horizon", [1, 2])
def test_best_response_routes_agree(tiger, horizon):
    m = tiger.with_horizon(horizon)
    for k in range(10):
        rng = np.random.default_rng(40 + k)
        other = random_behavioral_policy(m, 1, rng, horizon=horizon)
        a = best_response_history(m, {1: other}, 0)
        b = best_response_private(m, {1: other}, 0)
        assert abs(a.value - b.value) <= 1e-9
        assert a.policy == b.policy
        # returned value matches evaluating the returned policy
        joint = JointPolicy((a.policy, other))
        assert evaluate_occupancy(m, joint, initial_occupancy(m), 0) == pytest.approx(
            a.value, abs=1e-9
        )


def test_best_response_q_tables_agree(tiger):
    rng = np.random.default_rng(17)
    other = random_behavioral_policy(tiger, 1, rng)
    a = best_response_history(tiger, {1: other}, 0)
    b = best_response_private(tiger, {1: other}, 0)
    for hist, qs in a.q.items():
        if hist in b.q:
            assert np.allclose(qs, b.q[hist], atol=1e-9)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10**6), agent=st.integers(0, 2))
def test_three_agent_routes_agree(seed, agent):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 1, 2), n_public=2, horizon=3
    )
    policy = random_joint_policy(m, rng)
    rules = policy.joint_rules(m)
    s0 = initial_occupancy(m)
    # branch-weighted rollout along the occupancy update vs the value tables
    branches = [[(1.0, s0)]]
    for t in range(m.horizon - 1):
        branches.append(
            [(p * q, s2) for p, s in branches[-1] for _, q, s2 in step(m, s, rules[t])]
        )
    for i in range(m.n_agents):
        rollout = sum(
            m.discount**t * p * expected_reward(m, s, rules[t], i)
            for t in range(m.horizon)
            for p, s in branches[t]
        )
        assert abs(rollout - evaluate_occupancy(m, policy, s0, i)) <= 1e-9
    # both best-response routes and their mid-game twins, from the start
    value = best_response_history(m, policy, agent).value
    assert abs(best_response_private(m, policy, agent).value - value) <= 1e-9
    assert abs(best_response_value_from(m, policy, agent, s0) - value) <= 1e-9
    root = initial_private_occupancy(m, agent)
    assert abs(best_response_private_from(m, policy, agent, root) - value) <= 1e-9


def _reached_histories(m, policy, agent, tree):
    """Own histories of ``agent`` with positive probability when it plays
    ``tree`` against the others' policies, by rolling the occupancy update."""
    agents = list(policy.agents)
    agents[agent] = tree
    rules = JointPolicy(tuple(agents)).joint_rules(m)
    level, reached = [initial_occupancy(m)], set()
    for t in range(m.horizon):
        reached |= {o.privates[agent] for s in level for (_, o) in s.entries}
        if t + 1 < m.horizon:
            level = [s2 for s in level for _, _, s2 in step(m, s, rules[t])]
    return reached


@pytest.mark.parametrize("case", ["three-agent", "tiger-h3"])
def test_private_q_table_is_its_greedy_tree(tiger, case):
    rng = np.random.default_rng(29)
    if case == "three-agent":
        m = random_posg(
            rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 1, 2), n_public=2, horizon=3
        )
    else:
        m = tiger.with_horizon(3)
    policy = random_joint_policy(m, rng)
    for agent in range(m.n_agents):
        private = best_response_private(m, policy, agent)
        history = best_response_history(m, policy, agent)
        assert set(private.q) == _reached_histories(m, policy, agent, private.policy)
        for hist, qs in private.q.items():
            assert np.allclose(qs, history.q[hist], rtol=0.0, atol=1e-9)


def recursion_private_dp(model, profiles, agent, s_i, t):
    """The private route as one recursion per private occupancy state, each
    priced by ``private_reward`` and pushed by ``private_step`` once per own
    action and observation: the differential oracle of the batched
    ``solve._private_dp``, with its (value, greedy tree, q-table)."""
    qs = [private_reward(model, s_i, profiles[t], u) for u in range(len(model.actions[agent]))]
    below = {}
    if t + 1 < model.horizon:
        for u_i, z_i, omega, nxt in private_children(model, s_i, profiles[t]):
            below[u_i, z_i] = recursion_private_dp(model, profiles, agent, nxt, t + 1)
            qs[u_i] += model.discount * omega * below[u_i, z_i][0]
    u_i = solve._argmax_lowest(qs)
    q = {s_i.anchor: tuple(qs)}
    if t + 1 >= model.horizon:
        return max(qs), PolicyTree(agent, u_i), q
    subtrees = []
    for z_i in range(model.n_agent_obs(agent)):
        if (u_i, z_i) in below:
            _, tree, q_below = below[u_i, z_i]
            q.update(q_below)
        else:
            tree = solve._tree(model, agent, 0, model.horizon - t - 1)
        subtrees.append(tree)
    return max(qs), PolicyTree(agent, u_i, tuple(subtrees)), q


def _private_cases():
    """The bundled models at h=1-3 and tiger at h=4, and random models with
    two public observations, with three agents, with a discount, and with
    outcomes so unlikely that their entries are pruned (``PRUNE_EPS``)."""
    cases = [
        pytest.param(load(name).with_horizon(h), h, id=f"{name}-h{h}")
        for name in ("tiger", "tiger-zs", "tiger-duel", "stackelberg-tiger", "tiger-one-stage")
        for h in (1, 2, 3)
    ]
    cases.append(pytest.param(load("tiger").with_horizon(4), 4, id="tiger-h4"))
    for seed in range(4):
        rng = np.random.default_rng(300 + seed)
        two_public = random_posg(
            rng, n_states=2, n_actions=(3, 3), n_obs=(2, 2), n_public=2, horizon=3,
            discount=0.9 if seed % 2 else 1.0,
        )
        cases.append(pytest.param(two_public, seed, id=f"random-{seed}"))
        observation = two_public.observation.copy()
        observation[..., 0] = 1e-13  # every agent's first observation at once
        observation /= observation.sum(axis=-1, keepdims=True)
        pruned = dataclasses.replace(two_public, observation=observation)
        cases.append(pytest.param(pruned, seed, id=f"pruned-{seed}"))
        three = random_posg(
            rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 1, 2), n_public=2, horizon=3
        )
        cases.append(pytest.param(three, seed, id=f"three-agent-{seed}"))
    return cases


@pytest.mark.parametrize("budget", ["default", "one-state"])
@pytest.mark.parametrize("m, seed", _private_cases())
def test_private_batches_equal_the_per_state_recursion(m, seed, budget, monkeypatch):
    # value, greedy tree and q-table are equal, not close, to one recursion
    # per state, from the start and from a mid-game root, whatever the batch
    if budget == "one-state":
        monkeypatch.setattr(solve, "PRIVATE_BATCH_ROWS", 1)
    rng = np.random.default_rng(700 + seed)
    policy = random_joint_policy(m, rng)
    for agent in range(m.n_agents):
        profiles = solve._others_profiles(m, policy, agent)
        root = initial_private_occupancy(m, agent)
        expected = recursion_private_dp(m, profiles, agent, root, 0)
        br = best_response_private(m, policy, agent)
        assert (br.value, br.policy, br.q) == expected
        assert list(br.q) == list(expected[2])
        if m.horizon < 2:
            continue
        # a mid-game root: the last own action and observation of positive
        # probability
        _, _, _, s_i = private_children(m, root, profiles[0])[-1]
        below = recursion_private_dp(m, profiles, agent, s_i, 1)
        assert solve._private_dp(m, profiles, agent, s_i) == below
        assert best_response_private_from(m, policy, agent, s_i) == below[0]


def _batches(monkeypatch) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """The own histories, as (step, state number), of every batch agent 0's
    private route makes, and the states and rows (before rows without mass
    are dropped) of each of its pushes (``next_level`` calls)."""
    batches, pushes = [], []
    batch, push = solve._private_batch, solve.next_level

    def recorded_batch(model, agent, level, rows, others, t, first, *args):
        batches.append([(t, first + k) for k in range(level.n_sets[agent])])
        return batch(model, agent, level, rows, others, t, first, *args)

    def recorded_push(model, level, *args, **kwargs):
        rows = int(np.diff(model._successor_arrays.begin)[level.xs].sum())
        pushes.append((level.n_sets[0], rows))
        return push(model, level, *args, **kwargs)

    monkeypatch.setattr(solve, "_private_batch", recorded_batch)
    monkeypatch.setattr(solve, "next_level", recorded_push)
    return batches, pushes


def test_private_route_pushes_each_state_once(tiger, monkeypatch):
    # against a full-support opponent every one of agent 1's 1 + 6 + 36
    # histories of tiger h=3 is reached; each is in exactly one batch, and
    # the default budget pushes the root and then its 6 children at once
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    batches, pushes = _batches(monkeypatch)
    best_response_private(m, {1: other}, 0)
    hists = [h for batch in batches for h in batch]
    assert len(hists) == len(set(hists)) == 43
    assert [states for states, _ in pushes] == [1, 6]


def test_private_route_pushes_each_state_once_from_a_mid_game_state(tiger, monkeypatch):
    # a t=1 state of tiger h=3 and its 3 x 2 children, in one push
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    branches = private_step(m, initial_private_occupancy(m, 0), {1: other.rules[0]}, 2)
    (s_i,) = [s for z, _, s in branches if z == 1]
    batches, pushes = _batches(monkeypatch)
    best_response_private_from(m, {1: other}, 0, s_i)
    hists = [h for batch in batches for h in batch]
    # the root, state 0 at t=1, and its 6 children below it, states 1..6 at t=2
    assert sorted(hists) == [(1, 0)] + [(2, k) for k in range(1, 7)]
    assert [states for states, _ in pushes] == [1]


@pytest.mark.parametrize("budget", [2000, solve.PRIVATE_BATCH_ROWS])
def test_private_batches_keep_within_the_row_budget(tiger, budget, monkeypatch):
    # tiger h=4's pushes hold at most the budget's rows, or one state each,
    # and the budget splits a step into several batches
    m = tiger.with_horizon(4)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    monkeypatch.setattr(solve, "PRIVATE_BATCH_ROWS", budget)
    _, pushes = _batches(monkeypatch)
    best_response_private(m, {1: other}, 0)
    assert all(rows <= budget or states == 1 for states, rows in pushes), pushes
    assert sum(states for states, _ in pushes) == 1 + 6 + 36 and len(pushes) > 3
    assert any(states > 1 for states, _ in pushes[1:])


def test_last_step_batches_are_sized_by_what_they_hold(tiger, monkeypatch):
    # tiger h=3's 36 last-step states push nothing; each holds 72 entries x 9
    # joint actions, so a budget of 2000 packs them three to a batch (their
    # push would hold 2,592 rows, which would leave one state per batch)
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    monkeypatch.setattr(solve, "PRIVATE_BATCH_ROWS", 2000)
    leaves, batch = [], solve._private_batch

    def recorded_batch(model, agent, level, codes, others, t, *args):
        if t + 1 == model.horizon:
            leaves.append((level.n_sets[agent], len(level.xs) * model.n_joint_actions))
        return batch(model, agent, level, codes, others, t, *args)

    monkeypatch.setattr(solve, "_private_batch", recorded_batch)
    best_response_private(m, {1: other}, 0)
    assert sum(states for states, _ in leaves) == 36
    assert all(pairs <= 2000 for _, pairs in leaves), leaves
    assert len(leaves) == 12


def test_best_responses_name_a_missing_agent(tiger):
    for route in (best_response_history, best_response_private):
        with pytest.raises(ValueError, match=r"agent\(s\) 2"):
            route(tiger, {}, 0)


def random_tree(m, agent, depth, rng) -> PolicyTree:
    """A depth-``depth`` tree of random actions."""
    below = () if depth == 1 else tuple(
        random_tree(m, agent, depth - 1, rng) for _ in range(m.n_agent_obs(agent))
    )
    return PolicyTree(agent, int(rng.integers(len(m.actions[agent]))), below)


def test_a_wide_model_reads_its_policy_by_rows_on_every_route():
    # agent 0 plays a fixed depth-9 tree over 200 actions and 2 observations:
    # a trie code of its depth-8 histories would reach 400**8, past int64.
    # Each walk holds rows, so the private route answers as the history
    # route does and simulate lands within 5 standard errors of the exact
    # value
    m = random_posg(
        np.random.default_rng(0), n_states=2, n_actions=(200, 1), n_obs=(2, 1), horizon=9
    )
    rng = np.random.default_rng(1)
    policy = JointPolicy((random_tree(m, 0, 9, rng), random_tree(m, 1, 9, rng)))
    assert 400**8 > np.iinfo(np.int64).max
    history = best_response_history(m, {0: policy.agents[0]}, 1)
    private = best_response_private(m, {0: policy.agents[0]}, 1)
    assert abs(private.value - history.value) <= 1e-9 and private.policy == history.policy
    assert private.q.keys() == history.q.keys()
    for hist, qs in private.q.items():
        assert np.allclose(qs, history.q[hist], rtol=0.0, atol=1e-9)
    result = simulate(m, policy, 2000, 1)
    for i in range(2):
        exact = evaluate_occupancy(m, policy, initial_occupancy(m), i)
        assert abs(result.means[i] - exact) <= 5 * result.stderrs[i]


def test_a_reached_history_without_a_rule_is_named_alike_on_every_route(tiger):
    # tiger h=3 against a tree whose hear-right subtree stops one step
    # short: both best-response routes, the history route's value, exact
    # evaluation and simulate name the first history left without a rule as
    # DecisionRule.dist does
    m = tiger.with_horizon(3)
    leaf = PolicyTree(0, 0)
    ragged = PolicyTree(0, 0, (PolicyTree(0, 0, (leaf, leaf)), leaf))
    policy = JointPolicy((ragged, solve._tree(m, 1, 0, 3)))
    text = "undefined decision rule for agent 0 at history ((0, 1), (0, 0)) (t=2)"
    routes = (
        lambda: best_response_history(m, {0: ragged}, 1),
        lambda: best_response_value_from(m, {0: ragged}, 1, initial_occupancy(m)),
        lambda: best_response_private(m, {0: ragged}, 1),
        lambda: evaluate_occupancy(m, policy, initial_occupancy(m), 1),
        lambda: simulate(m, policy, 100, 1),
    )
    for route in routes:
        with pytest.raises(UndefinedDecisionRuleError) as error:
            route()
        assert str(error.value) == text


def test_the_history_route_counts_its_bytes_before_it_pushes(tiger, monkeypatch):
    # the history route walks through exact evaluation's push: with the cap
    # below its first step's count, both of its entry points refuse before
    # any next_level call
    m = tiger.with_horizon(3)
    other = {1: solve._tree(m, 1, 0, 3)}
    pushes = []
    for module in (occupancy, evaluate, solve):
        push = module.next_level
        monkeypatch.setattr(
            module, "next_level", lambda *a, push=push, **k: pushes.append(1) or push(*a, **k)
        )
    routes = (
        lambda: best_response_history(m, other, 0),
        lambda: best_response_value_from(m, other, 0, initial_occupancy(m)),
    )
    monkeypatch.setattr(evaluate, "CAP_BYTES", evaluate.WALK_FIXED_BYTES)
    for route in routes:
        with pytest.raises(CapExceededError, match="^exact evaluation too large"):
            route()
    assert pushes == []
    # control: under the real cap both push and answer alike
    monkeypatch.setattr(evaluate, "CAP_BYTES", solve.CAP_BYTES)
    assert routes[0]().value == routes[1]() and pushes


def test_the_history_route_is_refused_at_tiger_h7(tiger):
    # its walk keeps every (entry, joint action) reward term of every level:
    # at h=7 that is counted at 2,678,829,856 bytes, past the cap; control:
    # the private route, which pushes in bounded batches, answers
    m = tiger.with_horizon(7)
    other = {1: solve._tree(m, 1, 0, 7)}
    with pytest.raises(CapExceededError, match="^exact evaluation too large: 2678829856 bytes"):
        best_response_history(m, other, 0)
    assert abs(best_response_private(m, other, 0).value - 7.0) <= 1e-9


def test_walks_under_a_fixed_policy_build_no_history(tiger, monkeypatch):
    # from a t=1 state, exact evaluation, the anchored plan prices and the
    # history route's value read the policy as rule rows and decode nothing:
    # no PrivateHistory is constructed while they run (each gets a fresh
    # state, so no child is cached on its histories)
    m = tiger.with_horizon(3)
    rng = np.random.default_rng(3)
    policy = JointPolicy(tuple(random_behavioral_policy(m, i, rng) for i in range(2)))
    others = {1: policy.agents[1]}
    # agent 0 plays one action first, so its 2 anchors have 3^6 plans
    first = (random_decision_rule(m, 0, 0, rng, support=1), random_decision_rule(m, 1, 0, rng))
    routes = {
        "evaluate_occupancy": lambda s: evaluate_occupancy(m, policy, s, 0),
        "anchored_plan_values": lambda s: anchored_plan_values(
            m, {1: agent_rules(m, policy.agents[1])}, 0, s
        ),
        "best_response_value_from": lambda s: best_response_value_from(m, others, 0, s),
    }
    built = []
    init = PrivateHistory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PrivateHistory, "__init__", counting_init)
    for name, route in routes.items():
        (_, _, s), *_ = step(m, initial_occupancy(m), first)
        assert len(level_of(m, s)[1][0]) == 2
        del built[:]
        route(s)
        assert built == [], name
    # control: best_response_history builds the keys of its q-table
    br = best_response_history(m, others, 0)
    assert set(br.q) <= set(built) and len(br.q) > 1


def test_the_private_twin_decodes_nothing(tiger, monkeypatch):
    # best_response_private_from prices through the batched private DP: no
    # PolicyTree and no q-table key is constructed while it runs, from the
    # start or from t=1 states, and each value is the decoding route's
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    root = initial_private_occupancy(m, 0)
    rules = {1: other.rules[0]}
    states = [root] + [s for u in range(3) for _, _, s in private_step(m, root, rules, u)]
    profiles = solve._others_profiles(m, {1: other}, 0)
    expected = [solve._private_dp(m, profiles, 0, s)[0] for s in states]
    built = []
    for cls in (PolicyTree, PrivateHistory):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    assert [best_response_private_from(m, {1: other}, 0, s) for s in states] == expected
    assert len(states) == 7 and built == []
    # control: the decoding route builds its tree and the keys of its q-table
    # (from a fresh root, so no child is cached on its histories)
    fresh = initial_private_occupancy(m, 0)
    del built[:]
    solve._private_dp(m, profiles, 0, fresh)
    assert {type(b) for b in built} == {PolicyTree, PrivateHistory}


# -- solve_dec -------------------------------------------------------------------


def test_solve_dec_one_stage(one_stage):
    eq = solve_dec(one_stage)
    assert eq.values == (pytest.approx(1.0),) * 2
    # lexicographically smallest argmax: both play listen (index 0)
    assert eq.mixtures == ({0: 1.0}, {0: 1.0})

    eq = solve_dec(one_stage.with_start([1.0, 0.0]))
    assert eq.values[0] == pytest.approx(2.0)
    assert eq.mixtures == ({1: 1.0}, {1: 1.0})


def test_solve_dec_zero_rewards(one_stage):
    import dataclasses

    zero = dataclasses.replace(one_stage, rewards=np.zeros_like(one_stage.rewards))
    eq = solve_dec(zero)
    assert eq.values[0] == 0.0


def test_solve_dec_requires_common(one_stage_zs):
    with pytest.raises(ModelValidationError):
        solve_dec(one_stage_zs)


def test_solve_dec_respects_cap(tiger):
    # tiger at horizon 2, in doubles: depth blocks 3^2 + 18^2, agent 1's
    # 27 x 21 realization matrix and the 21 x 27 payoffs contracted with it
    assert solve_dec(tiger, cap_bytes=11_736).values[0] == pytest.approx(2.4)
    with pytest.raises(CapExceededError, match="11736 bytes exceeds cap 11735 bytes"):
        solve_dec(tiger, cap_bytes=11_735)


# Dec-Tiger's optimal values as published (Szer, Charpillet & Zilberstein,
# MAA*, UAI 2005), to their 6 printed decimals: an outside reference
DEC_TIGER_OPTIMA = {2: -4.0, 3: 5.190812}


def dec_tiger_pins(model) -> list[bool]:
    """Whether ``solve_dec`` gives each agent the published optimum at each
    pinned horizon, rounded to 6 decimals."""
    return [
        all(round(v, 6) == value for v in solve_dec(model.with_horizon(h)).values)
        for h, value in DEC_TIGER_OPTIMA.items()
    ]


def test_solve_dec_matches_the_published_dec_tiger_optima():
    assert dec_tiger_pins(load("dec-tiger")) == [True, True]


def test_dec_tiger_pins_fail_with_one_reward_entry_off():
    # control: each (joint action, state) entry of the common reward table
    # moved by 1e-3, in both agents' rows, fails a pin
    text = model_path("dec-tiger").read_text()
    entries = [line[4:] for line in text.splitlines() if line.startswith("R1: ")]
    assert len(entries) == 18
    for entry in entries:
        label, value = entry.rsplit(": ", 1)
        off = text.replace(f": {entry}\n", f": {label}: {float(value) + 1e-3!r}\n")
        assert off.count(f"{float(value) + 1e-3!r}") == 2
        assert not all(dec_tiger_pins(parse_posg(off))), entry


def three_agent_common(horizon: int):
    rng = np.random.default_rng(17)
    return random_posg(
        rng, n_actions=(2, 2, 2), n_obs=(1, 1, 2), horizon=horizon, criterion="common"
    )


@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("name", ["tiger_zs", "st_tiger", "three_agent"])
def test_normal_form_cells_match_per_cell_evaluation(request, name, horizon):
    # the per-cell route the normal form replaced: evaluate every pure profile
    if name == "three_agent":
        m = three_agent_common(horizon)
    else:
        m = request.getfixturevalue(name).with_horizon(horizon)
    agents = list(range(m.n_agents))
    mats, spaces = induced_normal_form(m, agents)
    s0 = initial_occupancy(m)
    for cell in itertools.product(*(range(len(space)) for space in spaces)):
        profile = JointPolicy(tuple(space[c] for space, c in zip(spaces, cell)))
        for agent in agents:
            expected = evaluate_occupancy(m, profile, s0, agent)
            assert abs(mats[agent][cell] - expected) <= 1e-12


@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_solve_dec_three_agents_matches_brute_force(horizon, tied):
    m = three_agent_common(horizon)
    if tied:  # reward 1 whenever agent 1 plays its second action: many maximisers
        first = np.array([m.split_joint_action(u)[0] for u in range(m.n_joint_actions)])
        rewards = np.broadcast_to(first == 1, m.rewards.shape).astype(float)
        m = dataclasses.replace(m, rewards=rewards)
    spaces = [enumerate_pure_policies(m, i, horizon) for i in range(3)]
    s0 = initial_occupancy(m)
    best_value, best_combo = -np.inf, None
    for combo in itertools.product(*(range(len(space)) for space in spaces)):
        profile = JointPolicy(tuple(space[c] for space, c in zip(spaces, combo)))
        v = evaluate_occupancy(m, profile, s0, 0)
        if v > best_value:  # strict: keeps the lexicographically first maximiser
            best_value, best_combo = v, combo
    eq = solve_dec(m)
    assert all(abs(v - best_value) <= 1e-12 for v in eq.values)
    assert eq.mixtures == tuple({c: 1.0} for c in best_combo)
    assert all(type(c) is int for mix in eq.mixtures for c in mix)
    assert eq.policies == tuple({c: space[c]} for space, c in zip(spaces, best_combo))


def per_cell_value(m, s, spaces, cell, agent):
    """The per-cell route: each agent's anchored trees as decision rules from
    ``s.t`` on, one backward pass over the reachable histories, paired with
    ``s``."""
    assigned = [space[c] for space, c in zip(spaces, cell)]
    profile = [rules_from_trees(m, i, a, s.t) for i, a in enumerate(assigned)]
    depth = m.horizon - s.t
    rules_by_step = [[]] * s.t + [tuple(r[d] for r in profile) for d in range(depth)]
    seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
    tables = value_tables(m, rules_by_step, agent, s.t, seeds)
    return pairing(s, tables[0])


def one_step_states(m, seed, support):
    """The t=1 occupancy states of every public branch under a seeded rule."""
    rng = np.random.default_rng(seed)
    rules = tuple(
        random_decision_rule(m, i, 0, rng, support=support) for i in range(m.n_agents)
    )
    return [s1 for _, _, s1 in step(m, initial_occupancy(m), rules)]


@pytest.mark.parametrize("name", ["tiger_zs", "st_tiger", "random_public"])
def test_mid_game_normal_form_matches_per_cell_route(request, name):
    if name == "random_public":
        rng = np.random.default_rng(23)
        m = random_posg(rng, n_actions=(2, 2), n_obs=(2, 1), n_public=2, horizon=2)
        states = one_step_states(m, 31, support=None)
    else:
        m = request.getfixturevalue(name).with_horizon(2)
        states = one_step_states(m, 31, support=1)
    assert len(states) == (2 if name == "random_public" else 1)
    for s in states:
        mats, spaces = suffix_normal_form(m, s, (0, 1))
        assert min(len(space[0]) for space in spaces) >= 2  # several anchors per agent
        for cell in itertools.product(*(range(len(space)) for space in spaces)):
            for agent in (0, 1):
                expected = per_cell_value(m, s, spaces, cell, agent)
                assert abs(mats[agent][cell] - expected) <= 1e-12


@pytest.mark.parametrize("discount", [1.0, 0.95])
def test_deep_normal_form_cells_match_per_cell_route(st_tiger, discount):
    m = dataclasses.replace(st_tiger.with_horizon(3), discount=discount)
    s0 = initial_occupancy(m)
    mats, spaces = suffix_normal_form(m, s0, (0, 1))
    assert mats[0].shape == (128, 128)
    rng = np.random.default_rng(41)
    for cell in zip(rng.integers(128, size=50), rng.integers(128, size=50)):
        for agent in (0, 1):
            expected = per_cell_value(m, s0, spaces, cell, agent)
            assert abs(mats[agent][cell] - expected) <= 1e-12


def test_solve_dec_tie_rule_ignores_summation_order(tiger):
    # seven joint policies are worth 2.4 here, some of them 1 ulp above it
    b = float(np.linspace(0.0, 1.0, 21)[3])
    m = tiger.with_start([b, 1.0 - b])
    spaces = [enumerate_pure_policies(m, i, m.horizon) for i in range(2)]
    s0 = initial_occupancy(m)
    values = np.array([
        [evaluate_occupancy(m, JointPolicy((row, col)), s0, 0) for col in spaces[1]]
        for row in spaces[0]
    ])
    top = values.max()
    tied = np.argwhere(values >= top - 1e-12 * max(1.0, abs(top)))
    assert len(tied) == 7 and abs(top - 2.4) <= 1e-12
    eq = solve_dec(m)
    assert eq.mixtures == tuple({int(c): 1.0} for c in tied[0])
    assert abs(eq.values[0] - top) <= 1e-12


def test_solve_dec_tie_rule_takes_the_first_cell_within_tolerance(one_stage):
    # listen/listen is worth 1 and listen/open 1e-13 more: both are ties
    rewards = np.zeros_like(one_stage.rewards)
    rewards[:, :, 0], rewards[:, :, 1] = 1.0, 1.0 + 1e-13
    eq = solve_dec(dataclasses.replace(one_stage, rewards=rewards))
    assert eq.mixtures == ({0: 1.0}, {0: 1.0}) and eq.values[0] == 1.0


def test_normal_form_stays_off_the_per_cell_route():
    # the payoff tensors come from one sequence-form walk, never per cell
    code = compile(inspect.getsource(solve), solve.__file__, "exec")
    assert not code_names(code) & {"value_tables", "occupancy_value"}


def test_one_sided_solvers_stay_off_the_joint_normal_form():
    # common payoff and Stackelberg enumerate one agent, the other stays in
    # sequence form: no joint tensor and no cap on joint profiles
    for fn in (
        solve_dec, solve_stackelberg, dec_value_from, solve.stackelberg_value_from,
        solve._one_sided, solve._stackelberg_kernel, solve._multiple_lp,
    ):
        code = compile(inspect.getsource(fn), solve.__file__, "exec")
        (body,) = [c for c in code.co_consts if hasattr(c, "co_varnames")]
        used = code_names(code) | set(body.co_varnames)
        assert not used & {"induced_normal_form", "suffix_normal_form", "cap_joint"}, fn
    assert "cap_joint" not in inspect.getsource(solve)


def test_only_normal_form_sets_up_a_sequence_form():
    # depth check, cap, walk and parent numbering live in _normal_form alone
    for fn in (
        solve._double_oracle, solve._private_best, solve._one_sided, solve._stackelberg_kernel,
    ):
        code = compile(inspect.getsource(fn), solve.__file__, "exec")
        forbidden = {"_sequence_payoffs", "_trie_size", "_predicted_bytes", "_extend_trie"}
        assert not code_names(code) & forbidden, fn
    assert "pure_policy_count" not in inspect.getsource(solve)


# -- solve_zero_sum ---------------------------------------------------------------


@pytest.mark.parametrize(
    "b,expected",
    [(0.5, 0.0), (1.0, 2.0 / 3.0), (0.75, 0.5)],
)
def test_solve_zero_sum_one_stage(one_stage_zs, b, expected):
    eq = solve_zero_sum(one_stage_zs.with_start([b, 1.0 - b]))
    assert eq.values[0] == pytest.approx(expected, abs=1e-9)
    assert eq.values[1] == pytest.approx(-expected, abs=1e-9)


def test_solve_zero_sum_saddle_certificate(tiger_zs):
    eq = solve_zero_sum(tiger_zs)
    assert eq.metadata["residual"] <= 1e-6
    assert all(abs(sum(m.values()) - 1.0) < 1e-9 for m in eq.mixtures)


def test_zero_sum_value_from_refuses_a_state_at_the_horizon(tiger_zs):
    m = tiger_zs.with_horizon(1)
    rules = tuple(random_decision_rule(m, i, 0, np.random.default_rng(0)) for i in range(2))
    s1 = step(m, initial_occupancy(m), rules)[0][2]
    with pytest.raises(ValueError, match="already at the horizon"):
        zero_sum_value_from(m, s1)


def test_zero_sum_value_from_t0_matches_solver(tiger_zs):
    v, _, _ = zero_sum_value_from(tiger_zs, initial_occupancy(tiger_zs))
    eq = solve_zero_sum(tiger_zs)
    assert v == pytest.approx(eq.values[0], abs=1e-6)


def test_dec_value_from_matches_solver(tiger):
    v = dec_value_from(tiger, initial_occupancy(tiger))
    eq = solve_dec(tiger)
    assert v == pytest.approx(eq.values[0], abs=1e-9)


def test_dec_value_from_fast_path_matches_general(tiger):
    rules = tuple(
        random_decision_rule(tiger, i, 0, np.random.default_rng(60 + i), support=2)
        for i in range(2)
    )
    branches = step(tiger, initial_occupancy(tiger), rules)
    s1 = branches[0][2]
    from occupancy_games.solve import suffix_normal_form

    mats, _ = suffix_normal_form(tiger, s1, (0,))
    assert dec_value_from(tiger, s1) == pytest.approx(float(mats[0].max()), abs=1e-12)


# -- solve_stackelberg -------------------------------------------------------------


def test_sse_degenerate_follower():
    # follower has one action: SSE value is the best leader pure policy
    L = np.array([[1.0], [3.0], [2.0]])
    F = np.array([[0.0], [0.0], [0.0]])
    value, sigma, k = stackelberg_from_matrices(L, F)
    assert value == pytest.approx(3.0)
    assert k == 0


def test_sse_degenerate_leader():
    # leader has one row: follower best-responds, ties favour the leader
    L = np.array([[5.0, 1.0]])
    F = np.array([[2.0, 2.0]])
    value, sigma, k = stackelberg_from_matrices(L, F)
    assert value == pytest.approx(5.0)
    assert k == 0


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_sse_follower_tie_window_scales_with_the_payoffs(scale):
    # the leader gets 1 - 5e-13 and 1 against the follower's two plans, which
    # tie; within the one tie window both are the best LP value at any scale,
    # so the follower's pick is the lowest plan
    value, _, k = stackelberg_from_matrices(scale * np.array([[1 - 5e-13, 1.0]]), np.zeros((1, 2)))
    assert k == 0 and value == scale * (1 - 5e-13)


def plan_matrix(parents, n_u):
    """``E`` of ``E x = e`` as a dense array, and ``e``."""
    (rows, cols, values), e = solve._plan_constraints(parents, n_u)
    E = np.zeros((len(parents), len(parents) * n_u))
    E[rows, cols] = values
    return E, e


def dense_row_sse(L, F, parents, n_u):
    """Oracle: strong Stackelberg equilibrium by one LP per follower pure plan
    ``k``, each with one row per follower plan (``F.T - F[:, k]``), every
    plan tried in index order and a later plan kept only when it beats the
    best so far by more than 1e-12.  Rows of ``L`` and ``F`` are the
    leader's sequences, numbered by ``parents``.  Returns (value, leader
    plan, k)."""
    E, e = plan_matrix(parents, n_u)
    best = None
    for k in range(F.shape[1]):
        res = scipy_linprog(
            -L[:, k], A_ub=F.T - F[:, k], b_ub=np.zeros(F.shape[1]), A_eq=E, b_eq=e,
            method="highs",
        )
        if res.success and (best is None or -res.fun > best[0] + 1e-12):
            best = (-res.fun, np.clip(res.x, 0.0, None), k)
    return best


def test_sse_pruning_keeps_the_unpruned_result(monkeypatch):
    calls, real = [], solve.linprog
    monkeypatch.setattr(solve, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    unpruned = pruned = 0
    one_set = np.full(1, -1, dtype=np.intp)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 7, size=2)
        # small integer payoffs make ties between columns common
        L = rng.integers(-3, 4, size=(m, n)).astype(float)
        F = rng.integers(-3, 4, size=(m, n)).astype(float)
        best = dense_row_sse(L, F, one_set, m)
        before = n  # the oracle's LPs, one per follower plan
        calls.clear()
        value, sigma, k = stackelberg_from_matrices(L, F)
        assert len(calls) <= before
        unpruned, pruned = unpruned + before, pruned + len(calls)
        assert value == best[0] and k == best[2]
        assert np.array_equal(sigma, best[1])
    assert pruned < unpruned


def test_solve_stackelberg_three_steps(st_tiger):
    eq = solve_stackelberg(st_tiger.with_horizon(3))
    assert abs(eq.values[0] - 3.13975625) <= 1e-9
    (L, F), _ = induced_normal_form(st_tiger.with_horizon(3), [0, 1])
    sigma = np.zeros(L.shape[0])
    for idx, w in eq.mixtures[0].items():
        sigma[idx] = w
    (k,) = eq.mixtures[1]
    assert sigma @ F[:, k] >= (sigma @ F).max() - 1e-9
    assert abs(eq.values[1] - sigma @ F[:, k]) <= 1e-9


def test_solve_stackelberg_one_stage(one_stage_st):
    eq = solve_stackelberg(one_stage_st)
    assert eq.values[0] == pytest.approx(1.0, abs=1e-9)
    assert eq.mixtures[1] == {0: 1.0}


def test_sse_leader_value_at_least_maxmin(one_stage_st, st_tiger):
    for model in (one_stage_st, st_tiger):
        from occupancy_games.solve import induced_normal_form

        (L, F), _ = induced_normal_form(model, [0, 1])
        sse_value, _, _ = stackelberg_from_matrices(L, F)
        maxmin = matrix_game_value(L).value
        assert sse_value >= maxmin - 1e-9


def test_sse_equals_dec_on_common_payoffs(one_stage, one_stage_st):
    # identical reward tables: commitment attains the cooperative optimum
    dec_value = solve_dec(one_stage).values[0]
    sse_value = solve_stackelberg(one_stage_st).values[0]
    assert sse_value == pytest.approx(dec_value, abs=1e-9)


def test_solver_outputs_deterministic(tiger_zs):
    a = solve_zero_sum(tiger_zs)
    b = solve_zero_sum(tiger_zs)
    assert a.values == b.values and a.mixtures == b.mixtures


def test_solve_dec_argmax_certificate(one_stage):
    # the returned value dominates every pure joint policy in the enumeration
    from occupancy_games.policies import enumerate_pure_policies

    eq = solve_dec(one_stage)
    s0 = initial_occupancy(one_stage)
    spaces = [enumerate_pure_policies(one_stage, i, 1) for i in range(2)]
    for row in spaces[0]:
        for col in spaces[1]:
            v = evaluate_occupancy(one_stage, JointPolicy((row, col)), s0, 0)
            assert eq.values[0] >= v - 1e-12


# -- zero-sum games in sequence form ------------------------------------------------


def brute_force_zero_sum(m, s) -> float:
    """The old route: the matrix game over anchored pure policy suffixes."""
    (A,), _ = suffix_normal_form(m, s, (0,))
    return matrix_game_value(A).value


def full_lp(m, s):
    """The differential oracle: the full sequence-form LP below ``s`` (Koller,
    Megiddo & von Stengel 1996), one realization-plan LP with no masks over
    the walk of both agents' whole tries.  Returns its saddle point,
    numbered as the solver numbers its sets, and ``G``."""
    (G,), _, tries = solve._normal_form(m, s, [0], solve.CAP_BYTES, keep=(0, 1))
    parents = [p for p, _ in tries]
    value, x, y, _ = solve._realization_plan_lp(G, parents, [len(u) for u in m.actions])
    anchors = tuple(tuple(level_of(m, s)[1][i]) for i in range(2))
    return solve.SequenceFormSolution((value, -value), (x, y), anchors, tuple(tries), {}), G


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    horizon=st.integers(1, 2),
    n_public=st.integers(1, 2),
)
def test_zero_sum_sequence_form_matches_normal_form(seed, horizon, n_public):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(2, 3), n_obs=(2, 1), n_public=n_public, horizon=horizon,
        discount=0.9, criterion="zerosum",
    )
    s0 = initial_occupancy(m)
    states = [s0]
    if horizon == 2:  # t=1 states, several anchors per agent
        rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
        states += [s1 for _, _, s1 in step(m, s0, rules)]
    for s in states:
        v, sol, _ = zero_sum_value_from(m, s)
        assert abs(v - brute_force_zero_sum(m, s)) <= 1e-9
        if s.t == 1:
            assert min(len(anchors) for anchors in sol.anchors) >= 2
    assert abs(solve_zero_sum(m).values[0] - brute_force_zero_sum(m, s0)) <= 1e-9


def test_zero_sum_sequence_form_matches_normal_form_three_steps():
    rng = np.random.default_rng(5)
    m = random_posg(
        rng, n_actions=(2, 2), n_obs=(2, 2), horizon=3, discount=0.9, criterion="zerosum"
    )
    s0 = initial_occupancy(m)
    eq = solve_zero_sum(m)
    assert eq.metadata["method"] == "sequence-form-lp"
    assert abs(eq.values[0] - brute_force_zero_sum(m, s0)) <= 1e-9


def kids_of(trie, n_u) -> dict:
    """The sets of a trie ``(parents, obs)`` below its anchors, keyed by
    (parent set, own action, own observation)."""
    parents, obs = (a.tolist() for a in trie)
    return {(p // n_u, p % n_u, z): c for c, (p, z) in enumerate(zip(parents, obs)) if p >= 0}


def marked_realization(m, agent, anchors, trie, space) -> np.ndarray:
    """0/1 realization of each assignment of one tree per anchor (rows in
    ``space`` order), marked by one walk down each tree from its anchor's
    set along the sets the trie ``(parents, obs)`` numbers."""
    n_u = len(m.actions[agent])
    kids = kids_of(trie, n_u)
    R = np.zeros((len(space), len(trie[0]) * n_u))

    def mark(r, node, j):
        R[r, j * n_u + node.action] = 1.0
        for z, child in enumerate(node.children):
            c = kids.get((j, node.action, z))
            if c is not None:
                mark(r, child, c)

    for r, assign in enumerate(space):
        for a, h in enumerate(anchors):
            mark(r, assign[h], a)
    return R


def plan_from_tree(m, agent, sol, tree) -> np.ndarray:
    """0/1 realization of a tree rooted at the single anchor."""
    (root,) = sol.anchors[agent]
    return marked_realization(m, agent, [root], sol.tries[agent], [{root: tree}])[0]


def set_histories(sol, agent, n_u) -> dict:
    """Private history of each of the agent's information sets."""
    hist = dict(enumerate(sol.anchors[agent]))
    for (j, u, z), c in sorted(kids_of(sol.tries[agent], n_u).items(), key=lambda kv: kv[1]):
        hist[c] = hist[j].child(u, z)
    return hist


def parent_sequences(sol, agent, n_u) -> dict:
    return {c: j * n_u + u for (j, u, _), c in kids_of(sol.tries[agent], n_u).items()}


def behavioral_from_plan(m, agent, sol) -> BehavioralPolicy:
    """pi(u | j) = x[j, u] / x[parent(j)] on the sets the walk reached (each
    set's mass checked against its parent's), uniform elsewhere."""
    x = sol.plans[agent]
    n_u = len(m.actions[agent])
    parents = parent_sequences(sol, agent, n_u)
    sets = {h: j for j, h in set_histories(sol, agent, n_u).items()}
    rules = []
    for t in range(m.horizon):
        probs = {}
        for h in all_histories(m, agent, t):
            j = sets.get(h)
            mass = 0.0 if j is None else x[parents[j]] if j in parents else 1.0
            if mass <= 1e-12:
                probs[h] = (1.0 / n_u,) * n_u
                continue
            row = x[j * n_u : (j + 1) * n_u]
            assert abs(row.sum() - mass) <= 1e-12
            probs[h] = tuple(row / row.sum())
        rules.append(DecisionRule(agent, t, probs))
    return BehavioralPolicy(agent, tuple(rules))


def realization_of(m, agent, sol, policy) -> np.ndarray:
    """Realization plan of a behavioral policy over the agent's sets."""
    n_u = len(m.actions[agent])
    parents = parent_sequences(sol, agent, n_u)
    x = np.zeros(len(sol.plans[agent]))
    for j, h in sorted(set_histories(sol, agent, n_u).items()):  # parents first
        mass = x[parents[j]] if j in parents else 1.0
        x[j * n_u : (j + 1) * n_u] = mass * np.array(policy.rules[h.t].dist(h))
    return x


def random_zero_sum(seed=3, horizon=2):
    rng = np.random.default_rng(seed)
    return random_posg(
        rng, n_actions=(2, 3), n_obs=(2, 1), n_public=2, horizon=horizon,
        discount=0.9, criterion="zerosum",
    )


@pytest.mark.parametrize(
    "name, horizon", [("tiger_zs", 1), ("tiger_zs", 2), ("tiger_zs", 3), ("random", 2)]
)
def test_zero_sum_exploitability_matches_history_best_response(request, name, horizon):
    if name == "random":
        m = random_zero_sum(horizon=horizon)
    else:
        m = request.getfixturevalue(name).with_horizon(horizon)
    eq = solve_zero_sum(m)
    v, sol, _ = zero_sum_value_from(m, initial_occupancy(m))
    assert v == eq.values[0]
    if name == "random":
        assert abs(v) > 0.05  # tiger-zs is worth 0 everywhere: no sign check
    for agent in (0, 1):
        opponent = 1 - agent
        br = best_response_history(m, {agent: behavioral_from_plan(m, agent, sol)}, opponent)
        gain = br.value - eq.values[opponent]
        assert abs(gain - eq.metadata["exploitability"][agent]) <= 1e-9
    assert eq.metadata["residual"] == max(eq.metadata["exploitability"])
    assert eq.metadata["duality_gap"] <= 1e-9
    # the trie max also prices plans far from optimal, on the full G (at
    # h=3 the solver's loop ends on restricted sets)
    full, G = full_lp(m, initial_occupancy(m))
    assert abs(full.values[0] - v) <= 1e-9
    rng = np.random.default_rng(11)
    n_u = len(m.actions[0])
    parents = full.tries[0][0]
    for _ in range(3):
        pi = random_behavioral_policy(m, 1, rng)
        br = best_response_history(m, {1: pi}, 0)
        y = realization_of(m, 1, full, pi)
        assert abs(float(solve._trie_best(G @ y, parents, n_u, np.max)) - br.value) <= 1e-9


@pytest.mark.parametrize(
    "name, horizon",
    [("tiger_zs", 1), ("tiger_zs", 2), ("tiger_zs", 3), ("random", 1), ("random", 2)],
)
def test_zero_sum_kuhn_mixtures_realize_the_plans(request, name, horizon):
    if name == "random":
        m = random_zero_sum(horizon=horizon)
    else:
        m = request.getfixturevalue(name).with_horizon(horizon)
    eq = solve_zero_sum(m)
    _, sol, _ = zero_sum_value_from(m, initial_occupancy(m))
    mixed = 0
    for agent in (0, 1):
        mixture, trees = eq.mixtures[agent], eq.policies[agent]
        assert abs(sum(mixture.values()) - 1.0) <= 1e-9
        assert set(trees) == set(mixture)
        enumerated = enumerate_pure_policies(m, agent, horizon, cap=10**4)
        realized = np.zeros(len(sol.plans[agent]))
        for i, w in mixture.items():
            assert enumerated[i] == trees[i]
            realized += w * plan_from_tree(m, agent, sol, trees[i])
        assert np.abs(realized - sol.plans[agent]).max() <= 1e-9
        assert len(mixture) <= len(sol.plans[agent])
        mixed += len(mixture) > 1
    if name == "random":
        assert mixed  # a mixed saddle point


def test_zero_sum_loop_counts_each_pair_once(one_stage_zs, tiger_zs, monkeypatch):
    # the start rule counts the whole pair and the seed pair, and the loop
    # walks whichever it picks without counting it again; past the seed, each
    # grown pair is counted once, and the best replies count nothing
    count, pairs = solve._restricted_bytes, []

    def counted(model, n_anchors, depth, sets):
        pairs.append(sets)
        return count(model, n_anchors, depth, sets)

    monkeypatch.setattr(solve, "_restricted_bytes", counted)
    solve_zero_sum(one_stage_zs)
    assert pairs == [[None, None], [[1], [1]]]
    pairs.clear()
    eq = solve_zero_sum(tiger_zs.with_horizon(3))
    assert eq.metadata["iterations"] == 2
    assert pairs == [[None, None], [[1, 2, 4], [1, 2, 4]], [[1, 2, 4], [1, 4, 8]]]


def test_zero_sum_cap_counts_sequences_before_the_walk(tiger_zs):
    # tiger-zs: 3 actions x 2 observations.  The loop starts from both
    # agents' whole tries where that walk fits the cap and counts no more
    # than four walks of the seed pair (plan 0 each).  _restricted_bytes
    # counts 8-byte items plus WALK_FIXED_BYTES.  At h=2 the whole walk
    # counts most where it builds the sparse G: six items per cell of its
    # 9 + 36 * 9 payoff cells
    fixed = solve.WALK_FIXED_BYTES
    whole = 8 * 6 * (9 + 36 * 9) + fixed
    # the seed walk counts most at the start: three arrays over its 9 payoff
    # cells, and for each of its 2 entries the 9 joint actions, the level's
    # 4 arrays and 6 arrays over the push's 68 dynamics rows
    seed = 8 * (3 * 9 + 2 * (9 + 4 + 6 * 68)) + fixed
    assert (whole, seed) == (15_984 + 131_072, 6_952 + 131_072) and whole <= 4 * seed
    eq = solve_zero_sum(tiger_zs, cap_bytes=whole)
    assert eq.metadata["method"] == "sequence-form-lp" and eq.metadata["sequences"] == (21, 21)
    assert "iterations" not in eq.metadata
    # under the whole walk's count the loop starts from the seed pair, and
    # under the seed's own count it is refused
    with pytest.raises(CapExceededError, match=f"restricted game too large: {seed} bytes"):
        solve_zero_sum(tiger_zs, cap_bytes=seed - 1)
    # at the seed's count the loop runs: its second pair, agent 1's set of
    # two trees against agent 0's one, counts most at the start too
    for cap in (seed, whole - 1):
        eq = solve_zero_sum(tiger_zs, cap_bytes=cap)
        assert eq.metadata["method"] == "sequence-form-double-oracle"
        assert eq.metadata["sequences"] == (3, 6) and eq.metadata["iterations"] == 2
    # at h=3 the whole walk's 6 * 9 * (1 + 36 + 1296) items are over four
    # seed walks, each largest at depth 1: the 9 cells above, three arrays
    # over 4 * 9 cells and 2 entries on each of 4 joint sets with
    # 9 + 4 + 6 * 68 items
    whole = 8 * 6 * 9 * (1 + 36 + 1296) + fixed
    seed = 8 * (9 + 3 * 36 + 2 * 4 * (9 + 4 + 6 * 68)) + fixed
    assert (whole, seed) == (706_928, 158_952) and whole > 4 * seed
    eq = solve_zero_sum(tiger_zs.with_horizon(3))
    assert eq.metadata["method"] == "sequence-form-double-oracle"
    # at h=4 the loop's largest count is its second pair's, at depth 2:
    # agent 0's 4 sets there against agent 1's 8 (two trees), the
    # 9 * (1 + 8) cells above, three arrays over 9 * 32 cells, and 2 * 32
    # entries with 9 + 4 + 6 * 68 items each
    largest = 8 * (9 * (1 + 8) + 3 * 9 * 32 + 2 * 32 * (9 + 4 + 6 * 68)) + fixed
    assert largest == 223_112 + 131_072
    with pytest.raises(CapExceededError, match=f"restricted game too large: {largest} bytes"):
        solve_zero_sum(tiger_zs.with_horizon(4), cap_bytes=largest - 1)
    eq = solve_zero_sum(tiger_zs.with_horizon(4), cap_bytes=largest)
    assert eq.metadata["sequences"] == (15, 30) and eq.metadata["iterations"] == 2


def no_build(*args, **kwargs):
    raise AssertionError("built past the budget")


def value_from_the_start(m):
    return zero_sum_value_from(m, initial_occupancy(m))


@pytest.mark.parametrize(
    "name, solver, horizon, doubles",
    [
        # the loop's seed pair, plan 0 each: 2^d * 2^d joint sets at depth d,
        # 9 cells each, largest at depth 9 with the cells above, three arrays
        # over its cells and 2 entries per joint set, each with 9 joint
        # actions, 4 level arrays and 6 arrays over its push's 68 rows; h=11
        # is the first horizon whose seed pair counts over 2^30 bytes (1.8
        # GB; h=10 counts 457 MB), and the mid-game route runs the same loop
        *(
            ("tiger_zs", solver, 11,
             9 * sum(4**d for d in range(9)) + 3 * 9 * 4**9 + 2 * 4**9 * (9 + 4 + 6 * 68))
            for solver in (value_from_the_start, solve_zero_sum)
        ),
        # 3^15 agent-1 trees over 777 sequences, and the payoffs contracted
        # with them
        ("tiger", solve_dec, 4, sum((3 * 6**d) ** 2 for d in range(4)) + 2 * 3**15 * 777),
        # 2^31 follower trees over 682 sequences, the leader's payoffs
        # contracted with them, the follower's dense sequence form
        (
            "st_tiger", solve_stackelberg, 5,
            2 * sum((2 * 4**d) ** 2 for d in range(5)) + 2 * 2**31 * 682 + 682**2,
        ),
    ],
)
def test_budget_refuses_before_any_walk_or_enumeration(
    request, monkeypatch, name, solver, horizon, doubles
):
    monkeypatch.setattr(solve, "_sequence_payoffs", no_build)
    monkeypatch.setattr(solve, "_plan_realization", no_build)
    monkeypatch.setattr(solve, "enumerate_pure_policies", no_build)
    monkeypatch.setattr(solve, "best_response_history", no_build)
    m = request.getfixturevalue(name).with_horizon(horizon)
    with pytest.raises(CapExceededError) as info:
        solver(m)
    # the zero-sum loop's count adds the walk's fixed costs
    zero_sum = solver in (solve_zero_sum, value_from_the_start)
    n_bytes = 8 * doubles + (solve.WALK_FIXED_BYTES if zero_sum else 0)
    assert info.value.count == n_bytes and info.value.cap == solve.CAP_BYTES == 2**30
    if solver is not value_from_the_start:  # at exactly the count, the walk starts
        with pytest.raises(AssertionError, match="built past the budget"):
            solver(m, cap_bytes=n_bytes)


def test_zero_sum_four_steps(tiger_zs):
    # the whole tries' walk would count 20.9 MB, the loop's first
    # iteration about 3.4 MB: the loop starts from the seed pair
    eq = solve_zero_sum(tiger_zs.with_horizon(4))
    assert abs(eq.values[0]) <= 1e-9
    assert eq.metadata["method"] == "sequence-form-double-oracle"
    assert eq.metadata["sequences"] == (15, 30) and eq.metadata["iterations"] == 2
    assert eq.metadata["residual"] <= 1e-9


# -- the double oracle past the budget -----------------------------------------


@pytest.mark.parametrize(
    "b, h, expected",
    [(b, 2, v) for b, v in zip((0.0, 0.25, 0.5, 0.75, 1.0), (0.5, 0.25, 0.5, 0.25, 0.5))]
    + [(b, 3, v) for b, v in zip((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 0.75, 0.5, 0.75, 1.0))],
)
def test_tiger_duel_values_depend_on_the_belief(tiger_duel, b, h, expected):
    m = tiger_duel.with_horizon(h).with_start([b, 1.0 - b])
    value = solve_zero_sum(m).values[0]
    assert abs(value - expected) <= 1e-9
    if h == 2:
        assert abs(value - brute_force_zero_sum(m, initial_occupancy(m))) <= 1e-9


def distinct_strategies_value(m) -> float:
    """The brute-force joint normal form's value (``matrix_game_value``
    keeps each agent's duplicate pure trees once)."""
    (A,), _ = suffix_normal_form(m, initial_occupancy(m), (0,))
    return matrix_game_value(A).value


@pytest.mark.parametrize("b, expected", [(0.25, 0.75), (0.5, 0.5), (0.9, 0.9)])
def test_tiger_duel_three_steps_match_the_brute_force_normal_form(tiger_duel, b, expected):
    # 3^7 = 2,187 pure trees per agent
    m = tiger_duel.with_horizon(3).with_start([b, 1.0 - b])
    value = solve_zero_sum(m).values[0]
    assert abs(value - distinct_strategies_value(m)) <= 1e-12
    assert abs(value - expected) <= 1e-12


def loop_models():
    """tiger-zs at h=1..5, tiger-duel at h=2..4 and three beliefs, and the
    random zero-sum models of this file."""
    zs, duel = load("tiger-zs"), load("tiger-duel")
    cases = [(f"tiger-zs-{h}", zs.with_horizon(h)) for h in range(1, 6)]
    cases += [
        (f"tiger-duel-{h}-{b}", duel.with_horizon(h).with_start([b, 1.0 - b]))
        for h in (2, 3, 4)
        for b in (0.25, 0.5, 0.9)
    ]
    cases += [(f"random-3-{h}", random_zero_sum(horizon=h)) for h in (1, 2)]
    for seed, h, n_public in [(0, 1, 1), (1, 2, 1), (2, 2, 2), (4, 2, 2)]:
        rng = np.random.default_rng(seed)
        m = random_posg(
            rng, n_actions=(2, 3), n_obs=(2, 1), n_public=n_public, horizon=h,
            discount=0.9, criterion="zerosum",
        )
        cases.append((f"random-{seed}-{h}-{n_public}", m))
    rng = np.random.default_rng(5)
    cases.append(("random-5-3", random_posg(
        rng, n_actions=(2, 2), n_obs=(2, 2), horizon=3, discount=0.9, criterion="zerosum"
    )))
    cases += [(f"sees-opponent-{seed}-3", sees_opponent(seed)) for seed in (3, 6)]
    return cases


def sees_opponent(seed):
    """A random zero-sum model at h=3 where agent 1 observes agent 2's last
    action: its sets after an action agent 2's restricted set lacks go
    unreached in the restricted walk."""
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(2, 3), n_obs=(3, 2), horizon=3, discount=0.9, criterion="zerosum"
    )
    observation = np.zeros_like(m.observation)
    for u0, u1 in itertools.product(range(2), range(3)):
        for x2 in range(m.n_states):
            p = rng.dirichlet(np.ones(2))
            for z1 in range(2):
                joint = m.joint_obs_index((u1, z1), 0)
                observation[m.joint_action_index((u0, u1)), x2, joint] = p[z1]
    return dataclasses.replace(m, observation=observation)


def mid_game_root(m, t, seed=7):
    """The first public branch after ``t`` steps of seeded random rules
    with full support: several anchors per agent."""
    rng = np.random.default_rng(seed)
    s = initial_occupancy(m)
    for tau in range(t):
        rules = tuple(random_decision_rule(m, i, tau, rng) for i in range(2))
        s = step(m, s, rules)[0][2]
    return s


@pytest.mark.parametrize("name, m", loop_models(), ids=[name for name, _ in loop_models()])
def test_double_oracle_matches_the_full_lp(name, m, monkeypatch):
    # the loop from the seed pair, as solve_zero_sum runs it where the whole
    # tries' walk costs more than its first iteration (at h <= 2 it starts
    # from the whole tries instead), against the test-side full LP
    full, _ = full_lp(m, initial_occupancy(m))
    restricted_start(monkeypatch)
    eq = solve_zero_sum(m)
    metadata = eq.metadata
    assert metadata["method"] == "sequence-form-double-oracle"
    assert abs(eq.values[0] - full.values[0]) <= 1e-9
    scale = max(1.0, m.reward_bound * m.horizon)
    assert metadata["duality_gap"] + sum(metadata["exploitability"]) <= 1e-9 * scale
    for agent in (0, 1):  # the returned mixtures are the certified plans
        mixture = eq.mixtures[agent]
        assert abs(sum(mixture.values()) - 1.0) <= 1e-9
        opponent = 1 - agent
        gain = agent_zero_reply(m, opponent, mixture) * (1 if opponent == 0 else -1)
        gain -= eq.values[opponent]
        assert abs(gain - metadata["exploitability"][agent]) <= 1e-9 * scale


def differential_cases():
    """tiger-zs and tiger-duel at h=1..4 and three beliefs each, and the
    random models of ``loop_models``, at the start belief."""
    zs, duel = load("tiger-zs"), load("tiger-duel")
    cases = [
        (f"{name}-{h}-{b}", m.with_horizon(h).with_start([b, 1.0 - b]))
        for name, m in (("tiger-zs", zs), ("tiger-duel", duel))
        for h in (1, 2, 3, 4)
        for b in (0.25, 0.5, 0.9)
    ]
    return cases + [(name, m) for name, m in loop_models() if not name.startswith("tiger")]


@pytest.mark.parametrize(
    "name, m", differential_cases(), ids=[name for name, _ in differential_cases()]
)
def test_zero_sum_matches_the_full_lp(name, m):
    # the solver's own start: from the whole tries the loop is the full LP,
    # bit for bit; from the seed pair it matches it within 1e-9
    s0 = initial_occupancy(m)
    full, _ = full_lp(m, s0)
    eq = solve_zero_sum(m)
    v, sol, _ = zero_sum_value_from(m, s0)
    assert v == eq.values[0] and abs(v - full.values[0]) <= 1e-9
    if sol.metadata["method"] == "sequence-form-lp":
        assert v == full.values[0]
        assert all((a == b).all() for a, b in zip(sol.plans, full.plans))
    if m.horizon >= 3 and name.startswith("tiger"):
        assert sol.metadata["method"] == "sequence-form-double-oracle"


@pytest.mark.parametrize(
    "name, h, t",
    [("tiger-duel", 4, 1), ("tiger-zs", 4, 1), ("tiger-duel", 4, 2), ("random-5", 3, 1)],
)
def test_zero_sum_below_mid_game_roots_matches_the_full_lp(name, h, t):
    # roots with several anchors per agent: the loop grows one tree per
    # anchor (depth h - t below a t=1 root starts from the seed pair)
    m = dict(loop_models())["random-5-3"] if name == "random-5" else load(name).with_horizon(h)
    s = mid_game_root(m, t)
    v, sol, _ = zero_sum_value_from(m, s)
    full, _ = full_lp(m, s)
    assert abs(v - full.values[0]) <= 1e-9
    assert min(len(anchors) for anchors in sol.anchors) >= 2
    if name.startswith("tiger") and t == 1:
        assert sol.metadata["method"] == "sequence-form-double-oracle"
        assert sol.metadata["iterations"] >= 2


def test_tiger_duel_five_steps_by_the_loop(tiger_duel):
    # the whole tries' walk would count 746 MB against 32 MB for three seed
    # walks (the full LP there takes about 20 s and 2 GB); the loop grows its
    # restricted sets for several iterations
    eq = solve_zero_sum(tiger_duel.with_horizon(5))
    assert abs(eq.values[0] - 1.0) <= 1e-9
    assert eq.metadata["method"] == "sequence-form-double-oracle"
    assert eq.metadata["iterations"] >= 2


@pytest.mark.parametrize(
    "case", ["tiger-zs-1", "tiger-zs-2", "tiger-zs-3", "tiger-zs-4"]
    + ["loop:tiger-zs-3", "loop:tiger-duel-3-0.25", "loop:random-5-3"],
)
def test_restricted_count_is_at_least_the_walks_peak(monkeypatch, case):
    # every walk of the zero-sum loop (_walk keeping both agents) against its
    # tracemalloc peak: on tiger-zs h=1..4 one walk of both agents' whole
    # tries, on a "loop:" case every pair's walk of the loop from the seed
    # pair on that loop_models() case
    walk, seen = solve._walk, []

    def traced(model, s, agents, keep=(), uncontracted=(), weights=None):
        if keep != (0, 1):
            return walk(model, s, agents, keep, uncontracted, weights)
        sets = [None if w is None else [len(r) for r in w.rows] for w in weights or [None, None]]
        n_anchors = level_of(model, s)[0].n_sets
        count = solve._restricted_bytes(model, n_anchors, model.horizon - s.t, sets)
        model._successor_arrays  # built once per model, before the walk
        tracemalloc.start()
        try:
            out = walk(model, s, agents, keep, uncontracted, weights)
            seen.append((count, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(solve, "_walk", traced)
    if case.startswith("loop:"):
        m = dict(loop_models())[case.removeprefix("loop:")]
        restricted_start(monkeypatch)
        solve._double_oracle(m, initial_occupancy(m), solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    else:
        m = load("tiger-zs").with_horizon(int(case[-1]))
        solve._normal_form(m, initial_occupancy(m), [0], solve.CAP_BYTES, keep=(0, 1))
    assert seen and all(count >= peak for count, peak in seen), seen
    # the walks' fixed costs outweigh the arrays counted; the whole-trie
    # walk pushes no weights, and at h=3 it peaks at 437 KB, under its
    # 576 KB counted without them
    if m.horizon <= (3 if case.startswith("loop:") else 2):
        assert any(count - solve.WALK_FIXED_BYTES < peak for count, peak in seen), seen


def agent_zero_reply(m, agent, mixture, s=None) -> float:
    """Oracle: the best reply of ``agent`` below occupancy ``s`` (default: the
    start) to the other's Kuhn mixture (plan weights by index, one tree per
    anchor of ``s``), by the history route against the mixture's
    behavioural form, in agent 0's payoff (the models here score agent 1
    by -R1)."""
    s = initial_occupancy(m) if s is None else s
    other = 1 - agent
    behaviour = mixture_behaviour(m, other, mixture, level_of(m, s)[1][other])
    value = best_response_value_from(m, {other: behaviour}, agent, s)
    return value if agent == 0 else -value


def tree_index(tree, n_u: int) -> int:
    """The index ``solve._tree`` decodes to ``tree``: its preorder actions as
    base-``n_u`` digits, most significant first."""
    index, stack = 0, [tree]
    while stack:
        node = stack.pop()
        index = index * n_u + node.action
        stack.extend(reversed(node.children))
    return index


def recorded_replies(m, monkeypatch, default: int = 0, s=None) -> list:
    """Every best reply the zero-sum loop prices on ``m`` below occupancy
    ``s`` (default: the start) from the seed pair, in order: (agent, the
    other's Kuhn mixture, the reply's value in agent 0's payoff).  With
    ``default`` not 0, the loop reads each mixture with that action (modulo
    the agent's action count) below the sets its restricted walk never
    reached, while the mixture recorded keeps action 0 there, as the
    returned trees do."""
    s = initial_occupancy(m) if s is None else s
    real_kuhn, real_pure, real_best = solve._kuhn_mixture, solve._pure_tree, solve._private_best
    mixtures, calls = [], []

    def kuhn(model, agent, plan, trie, depth=None):
        relabelled = {}
        n_u, depth = len(model.actions[agent]), model.horizon if depth is None else depth
        nodes = sum(model.n_agent_obs(agent) ** d for d in range(depth))
        kids = kids_of(trie, n_u)

        def pure(model, agent, below, pick, roots=(0,), depth=None):
            index, played = real_pure(model, agent, below, pick, roots, depth)
            relabelled[index] = 0
            for root in roots:  # one tree per anchor, anchor 0's digits first
                tree = picked_tree(model, agent, kids, pick, root, depth, default)
                relabelled[index] = relabelled[index] * n_u**nodes + tree_index(tree, n_u)
            assert default != 0 or relabelled[index] == index
            return index, played

        monkeypatch.setattr(solve, "_pure_tree", pure)
        mixtures.append(real_kuhn(model, agent, plan, trie, depth))
        monkeypatch.setattr(solve, "_pure_tree", real_pure)
        return {relabelled[k]: w for k, w in mixtures[-1].items()}

    def reply(model, agent, level, others, t):
        value, *rest = real_best(model, agent, level, others, t)
        mixture = mixtures[-1] if agent == 0 else mixtures[-2]
        calls.append((agent, mixture, value if agent == 0 else -value))
        return (value, *rest)

    restricted_start(monkeypatch)
    monkeypatch.setattr(solve, "_kuhn_mixture", kuhn)
    monkeypatch.setattr(solve, "_private_best", reply)
    try:
        solve._double_oracle(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    except RuntimeError:  # a corrupted loop may stop short of a certificate
        assert default != 0
    return calls


@pytest.mark.parametrize("name, m", loop_models(), ids=[name for name, _ in loop_models()])
def test_best_reply_matches_the_history_route(name, m, monkeypatch):
    # the loop's best replies, the batched private DP against the mixture's
    # trie-code rows, at the first iteration's plans and at every grown
    # restricted set, against the history route on the behavioural form of
    # the same trees
    calls = recorded_replies(m, monkeypatch)
    assert len(calls) >= 4 and {agent for agent, _, _ in calls} == {0, 1}
    for agent, mixture, value in calls:
        assert abs(value - agent_zero_reply(m, agent, mixture)) <= 1e-9


@pytest.mark.parametrize("order", ["stepped", "entries-reversed"])
def test_best_reply_matches_the_history_route_below_several_anchors(
    tiger_duel, monkeypatch, order
):
    # below a t=1 state of tiger-duel h=4 each agent has several anchors, so
    # each reply is one DP with one root per anchor, its value the roots'
    # best q summed; the same state with its entries reversed numbers its
    # histories in steps order too and replies as the state does, where a
    # level numbered by first appearance replies otherwise
    m = tiger_duel.with_horizon(4)
    s = mid_game_root(m, 1)
    assert min(len(level_of(m, s)[1][i]) for i in range(2)) >= 2
    with monkeypatch.context() as patched:
        calls = recorded_replies(m, patched, s=s)
    if order == "entries-reversed":
        assert not in_steps_order(first_appearance_level(m, reversed_entries(s).entries)[1])
        with monkeypatch.context() as patched:
            patched.setattr(occupancy, "to_level", first_appearance_level)
            assert not same_replies(recorded_replies(m, patched, s=reversed_entries(s)), calls)
        s = reversed_entries(s)
        assert in_steps_order(level_of(m, s)[1])
        with monkeypatch.context() as patched:
            assert same_replies(recorded_replies(m, patched, s=s), calls)
    assert len(calls) >= 4 and {agent for agent, _, _ in calls} == {0, 1}
    for agent, mixture, value in calls:
        assert abs(value - agent_zero_reply(m, agent, mixture, s)) <= 1e-9


def same_replies(got, want) -> bool:
    """The same replies in the same order: agents and mixtures' plans equal,
    weights and values within 1e-12."""
    return len(got) == len(want) and all(
        a == b and mg.keys() == mw.keys() and abs(vg - vw) <= 1e-12
        and all(abs(mg[k] - mw[k]) <= 1e-12 for k in mg)
        for (a, mg, vg), (b, mw, vw) in zip(got, want)
    )


def test_best_reply_control_reads_the_last_action_below_unreached_sets(monkeypatch):
    # weights that play each agent's last action, not action 0, below the
    # sets the restricted walk never reached price another mixture than the
    # returned trees: where agent 1 sees agent 2's action, agent 2's best
    # reply reaches those sets
    calls = recorded_replies(sees_opponent(3), monkeypatch, default=-1)
    worst = max(abs(value - agent_zero_reply(sees_opponent(3), agent, mixture))
                for agent, mixture, value in calls)
    assert worst > 1e-3


def mixture_behaviour(m, agent, mixture, anchors) -> BehavioralPolicy:
    """Behavioural form of a mixture of plans (weights by plan index, one
    tree per anchor, anchor 0's digits first) from the anchors' step on, one
    history at a time: each action's weight among the plans whose tree at
    the history's anchor reaches it (``decision_at``), uniform where none
    does; the rules before that step are empty."""
    n_u, n_z = len(m.actions[agent]), m.n_agent_obs(agent)
    t0 = anchors[0].t
    depth = m.horizon - t0
    nodes = sum(n_z**d for d in range(depth))
    trees = {
        k: [solve._tree(m, agent, k // n_u ** (nodes * e) % n_u**nodes, depth)
            for e in range(len(anchors) - 1, -1, -1)]
        for k in mixture
    }
    rules = [DecisionRule(agent, t, {}) for t in range(t0)]
    for t in range(t0, m.horizon):
        probs = {}
        for a, anchor in enumerate(anchors):
            for below in all_histories(m, agent, t - t0):
                w = np.zeros(n_u)
                for k, p in mixture.items():
                    try:
                        w[next(iter(decision_at(trees[k][a], below)))] += p
                    except UnreachableHistoryError:
                        pass
                h = PrivateHistory(agent, anchor.steps + below.steps)
                probs[h] = tuple(w / w.sum()) if w.sum() > 0 else (1.0 / n_u,) * n_u
        rules.append(DecisionRule(agent, t, probs))
    return BehavioralPolicy(agent, tuple(rules))


@pytest.mark.parametrize("name", ["tiger_zs", "tiger_duel"])
def test_solve_zero_sum_six_steps(request, name):
    # the full form would hold 4.5 GB of depth blocks; the double oracle
    # walks restricted pairs only
    m = request.getfixturevalue(name).with_horizon(6)
    eq = solve_zero_sum(m)
    assert eq.metadata["method"] == "sequence-form-double-oracle"
    certificate = eq.metadata["duality_gap"] + sum(eq.metadata["exploitability"])
    assert certificate <= solve.DEFAULT_TOLERANCE * max(1.0, m.reward_bound * m.horizon)
    if name == "tiger_zs":
        assert abs(eq.values[0]) <= 1e-9
    assert max(eq.metadata["sequences"]) <= 200  # of 27,993 per agent
    assert eq.values[1] == -eq.values[0]
    for i in range(2):  # trees decoded for the returned mixtures only
        assert set(eq.policies[i]) == set(eq.mixtures[i])
        assert all(solve._tree(m, i, k, 6) == tree for k, tree in eq.policies[i].items())


def never_playing(action: int, instead: int):
    """A best reply whose plan plays ``instead`` wherever the true one plays
    ``action``, with the true best reply's value."""
    real = solve._private_best

    def best_reply(model, agent, level, others, t):
        value, index, *rest = real(model, agent, level, others, t)
        n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
        nodes = level.n_sets[agent] * sum(n_z**d for d in range(model.horizon - t))
        relabelled = 0
        for e in range(nodes - 1, -1, -1):  # the plan's actions, in preorder
            u = index // n_u**e % n_u
            relabelled = relabelled * n_u + (instead if u == action else u)
        return (value, relabelled, *rest)

    return best_reply


@pytest.mark.parametrize("root", ["start", "mid-game"])
def test_double_oracle_control_raises_on_a_best_response_that_skips_an_action(
    tiger_duel, monkeypatch, root
):
    # without open-left the restricted sets stop growing while the honest
    # best-reply values still show a gap: the loop must raise, not return;
    # below the mid-game root each agent has several anchors
    if root == "start":
        m = tiger_duel.with_horizon(3)
        s = initial_occupancy(m)
    else:
        m = tiger_duel.with_horizon(4)
        s = mid_game_root(m, 1)
        assert min(len(level_of(m, s)[1][i]) for i in range(2)) >= 2
    sol, _ = solve._double_oracle(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    assert sol.metadata["method"] == "sequence-form-double-oracle"
    assert abs(sol.values[0] - full_lp(m, s)[0].values[0]) <= 1e-9
    monkeypatch.setattr(solve, "_private_best", never_playing(1, 0))
    with pytest.raises(RuntimeError, match="zero-sum certificate"):
        solve._double_oracle(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)


def test_double_oracle_builds_no_history_or_policy_object(tiger_duel, monkeypatch):
    # past its start state the loop builds no private history, rule, policy
    # or tree: each class's constructor is counted while it runs
    built = []

    def counted(init):
        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        return counting_init

    for cls in (PrivateHistory, DecisionRule, BehavioralPolicy, PolicyTree):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    m = tiger_duel.with_horizon(3)
    initial_occupancy(m)
    start = list(built)
    assert start == [PrivateHistory, PrivateHistory]
    sol, _ = solve._double_oracle(
        m, initial_occupancy(m), solve.DEFAULT_TOLERANCE, solve.CAP_BYTES
    )
    assert sol.metadata["method"] == "sequence-form-double-oracle"
    assert built == start * 2 and abs(sol.values[0] - 0.5) <= 1e-9
    # control: the history-route best response builds them
    other = {1: solve._tree(m, 1, 0, m.horizon)}
    before = len(built)
    best_response_history(m, other, 0)
    assert {PrivateHistory, DecisionRule, PolicyTree} <= set(built[before:])


def test_package_import_leaves_scipy_optimize_unloaded():
    # neither the import nor a command that solves LPs loads scipy.optimize,
    # scipy.sparse or scipy.linalg: linprog loads HiGHS's extension from its
    # file, and G and the LP rows are numpy arrays
    src = pathlib.Path(solve.__file__).resolve().parents[1]
    code = (
        "import sys, occupancy_games; "
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    _, run = fresh_ogs("file")
    assert run["codes"] == [0] * len(LP_COMMANDS) and run["lps"] > 0 and run["loaded"] == []
    # control: where the file lookup finds nothing, the package import loads
    # HiGHS's extension and the check sees scipy.optimize
    _, package = fresh_ogs("package")
    assert package["lps"] == run["lps"] and "scipy.optimize" in package["loaded"]


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py binds its spans by (module, attribute); read the list
    # without installing, so nothing is rebound
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"occupancy_games.{module}"), attr))


# -- common payoff and Stackelberg: one agent enumerated, one in sequence form ----


def start_and_step_states(m, rng):
    """The initial occupancy state and, at horizon 2, the t=1 states ``step``
    reaches under seeded random rules (several anchors per agent)."""
    s0 = initial_occupancy(m)
    if m.horizon < 2:
        return [s0]
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    return [s0] + [s1 for _, _, s1 in step(m, s0, rules)]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    horizon=st.integers(1, 2),
    n_public=st.integers(1, 2),
)
def test_common_one_sided_kernel_matches_normal_form(seed, horizon, n_public):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(3, 2), n_obs=(1, 2), n_public=n_public, horizon=horizon,
        discount=0.9, criterion="common",
    )
    for s in start_and_step_states(m, rng):
        (A,), _ = suffix_normal_form(m, s, (0,))
        assert abs(dec_value_from(m, s) - A.max()) <= 1e-12
    (A,), _ = induced_normal_form(m, [0])
    top = A.max()
    first = np.flatnonzero(A >= top - 1e-12 * max(1.0, abs(top)))[0]
    eq = solve_dec(m)
    assert eq.mixtures == tuple({int(c): 1.0} for c in np.unravel_index(first, A.shape))
    assert abs(eq.values[0] - top) <= 1e-12


def leader_realization(m, mixture, trie) -> np.ndarray:
    """Realization plan of a mixture over the leader's pure policy trees."""
    root = PrivateHistory(0)
    space = [{root: t} for t in enumerate_pure_policies(m, 0, m.horizon)]
    R = marked_realization(m, 0, [root], trie, space)
    return sum(w * R[i] for i, w in mixture.items())


def random_stackelberg(seed, horizon, n_public):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(2, 3), n_obs=(2, 1), n_public=n_public, horizon=horizon,
        discount=0.9, criterion="stackelberg",
    )
    return m, rng


def dense_row_oracle(m, s):
    """``dense_row_sse`` below ``s`` on the leader-sequence by follower-plan
    payoffs: (leader value, follower plan, follower payoffs ``F``)."""
    (L, F), _, tries = solve._normal_form(m, s, [0, 1], solve.CAP_BYTES, keep=(0,))
    value, _, k = dense_row_sse(L, F, tries[0][0], len(m.actions[0]))
    return value, k, F


def follower_plan(m, s, sol) -> int:
    """The index of the follower's pure plan in a Stackelberg record: the one
    plan ``_kuhn_mixture`` splits its 0/1 realization into."""
    ((k, w),) = solve._kuhn_mixture(m, 1, sol.plans[1], sol.tries[1], m.horizon - s.t).items()
    assert w == 1.0
    return k


def check_kernel_against_dense_rows(m, s, tolerance=solve.DEFAULT_TOLERANCE):
    """The Stackelberg kernel below ``s`` against ``dense_row_sse`` on the
    same leader-sequence by follower-plan payoffs: values within 1e-12, the
    same follower plan, and that plan a best response to the kernel's leader
    plan on the oracle's ``F``."""
    value, k, F = dense_row_oracle(m, s)
    sol = solve._stackelberg_kernel(m, s, tolerance, solve.CAP_BYTES)
    x = sol.plans[0]
    assert abs(sol.values[0] - value) <= 1e-12 and follower_plan(m, s, sol) == k
    assert abs(sol.values[1] - x @ F[:, k]) <= 1e-12
    assert (x @ F).max() - x @ F[:, k] <= 1e-9  # k is a best response
    assert sol.metadata["follower_regret"] <= 1e-9
    return sol


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    horizon=st.integers(1, 2),
    n_public=st.integers(1, 2),
)
def test_stackelberg_sequence_form_leader_matches_normal_form(seed, horizon, n_public):
    m, rng = random_stackelberg(seed, horizon, n_public)
    one_set = np.full(1, -1, dtype=np.intp)
    for s in start_and_step_states(m, rng):
        sol = check_kernel_against_dense_rows(m, s)
        # the leader mixing over its anchored pure plans reaches the same value
        (L, F), _ = suffix_normal_form(m, s, (0, 1))
        value, _, k = dense_row_sse(L, F, one_set, L.shape[0])
        assert abs(sol.values[0] - value) <= 1e-9 and follower_plan(m, s, sol) == k
        assert abs(solve.stackelberg_value_from(m, s) - value) <= 1e-9
    s0 = initial_occupancy(m)
    sol = solve._stackelberg_kernel(m, s0, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    eq = solve_stackelberg(m)
    assert eq.values == sol.values and eq.mixtures[1] == {follower_plan(m, s0, sol): 1.0}
    assert abs(sum(eq.mixtures[0].values()) - 1.0) <= 1e-9
    realized = leader_realization(m, eq.mixtures[0], sol.tries[0])
    assert np.abs(realized - sol.plans[0]).max() <= 1e-9


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_stackelberg_tiger_matches_the_dense_rows(st_tiger, horizon):
    m = st_tiger.with_horizon(horizon)
    check_kernel_against_dense_rows(m, initial_occupancy(m))


# -- one record for both mixed equilibria ---------------------------------------


def record_cases():
    """Zero-sum and Stackelberg models, bundled and random, each at its start
    state and, past one stage, at one mid-game state with several anchors
    per agent (tiger-duel at h=3 and h=4 go through restricted sets)."""
    one_stage = load("tiger-one-stage")
    models = [
        ("tiger-zs-3", load("tiger-zs").with_horizon(3)),
        ("tiger-duel-3", load("tiger-duel").with_horizon(3)),
        ("tiger-duel-4", load("tiger-duel").with_horizon(4)),
        ("one-stage-zerosum", reinterpret_criterion(one_stage, "zerosum")),
        ("random-zerosum", random_zero_sum(horizon=2)),
        ("sees-opponent", sees_opponent(3)),
        ("stackelberg-tiger-3", load("stackelberg-tiger").with_horizon(3)),
        ("one-stage-stackelberg", reinterpret_criterion(one_stage, "stackelberg")),
        ("random-stackelberg-1", random_stackelberg(0, 2, 1)[0]),
        ("random-stackelberg-2", random_stackelberg(1, 2, 2)[0]),
        ("zeroed-observations", zeroed_observation_stackelberg(2)),
    ]
    cases = [pytest.param(m, initial_occupancy(m), id=f"{name}-start") for name, m in models]
    cases += [
        pytest.param(m, mid_game_root(m, 1), id=f"{name}-mid") for name, m in models if m.horizon > 1
    ]
    return cases


def zeroed_observation_stackelberg(seed, silent=None):
    """A random Stackelberg model at h=2 whose follower never sees its second
    own observation after the actions in ``silent`` (default: action 0 and
    each other one by a seeded coin): those sets go unreached."""
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(2, 3), n_obs=(2, 2), horizon=2, discount=0.9, criterion="stackelberg"
    )
    if silent is None:
        silent = [u1 for u1 in range(3) if u1 == 0 or rng.random() < 0.5]
    observation = m.observation.copy()
    for u0, u1, z0 in itertools.product(range(2), silent, range(2)):
        observation[m.joint_action_index((u0, u1)), :, m.joint_obs_index((z0, 1), 0)] = 0.0
    observation /= observation.sum(axis=-1, keepdims=True)
    return dataclasses.replace(m, observation=observation)


@pytest.mark.parametrize("m, s", record_cases())
def test_the_record_means_the_same_for_both_kernels(m, s):
    # each plan is a realization plan over the record's own sets, and each
    # value its agent's payoff at the pair of plans: on the loop's last G for
    # zero sum, on the whole tries' G_i for Stackelberg
    if m.criterion == "zerosum":
        sol, G = solve._double_oracle(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
        payoffs = [G, G._replace(data=-G.data)]
    else:
        sol = solve._stackelberg_kernel(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
        payoffs, _, _ = solve._normal_form(m, s, [0, 1], solve.CAP_BYTES, keep=(0, 1))
    for i, (plan, (parents, obs)) in enumerate(zip(sol.plans, sol.tries)):
        assert sol.anchors[i] == tuple(level_of(m, s)[1][i])
        assert np.array_equal(parents < 0, np.arange(len(parents)) < len(sol.anchors[i]))
        assert np.array_equal(parents < 0, obs < 0)
        n_u = len(m.actions[i])
        E, e = plan_matrix(parents, n_u)
        assert len(plan) == len(parents) * n_u and plan.min() >= 0.0
        assert np.abs(E @ plan - e).max() <= 1e-9
    x, y = sol.plans
    for value, G_i in zip(sol.values, payoffs):
        assert abs(value - x @ G_i @ y) <= 1e-9


def kernel_pick(m, s) -> int:
    """The index of the follower plan ``_multiple_lp`` picks below ``s``."""
    (L, G_F), (_, R_F), tries = solve._normal_form(
        m, s, [0], solve.CAP_BYTES, keep=(0,), uncontracted=(1,)
    )
    parents = [p for p, _ in tries]
    return solve._multiple_lp(L, G_F, R_F, parents, [len(u) for u in m.actions])[2]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_follower_plan_round_trips_through_kuhn(seed):
    # the follower's 0/1 plan decodes to exactly the plan the kernel picks,
    # which is the oracle's, also where zero observation probabilities
    # leave sets unreached and so give plans of equal realization
    m = zeroed_observation_stackelberg(seed)
    for s in start_and_step_states(m, np.random.default_rng(seed)):
        sol = check_kernel_against_dense_rows(m, s)
        assert follower_plan(m, s, sol) == kernel_pick(m, s)
    eq = solve_stackelberg(m)
    assert eq.mixtures[1] == {kernel_pick(m, initial_occupancy(m)): 1.0}


def test_follower_round_trip_control(monkeypatch):
    # plan k + 1 differs from the kernel's pick k only at the follower's set
    # after its first action and second observation, which the walk never
    # reaches: the same realization, which decodes to k.  A picker that kept
    # the higher index of the two fails the round trip
    m = zeroed_observation_stackelberg(0, silent=range(3))
    s0 = initial_occupancy(m)
    k = kernel_pick(m, s0)
    sol = solve._stackelberg_kernel(m, s0, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    n_u = len(m.actions[1])
    # digits in preorder: the first action, then one per own observation
    assert (0, k // n_u**2, 1) not in kids_of(sol.tries[1], n_u) and k % n_u == 0
    R = solve._plan_realization(m, 1, sol.tries[1], m.horizon)
    assert np.array_equal(R[k + 1], R[k]) and np.array_equal(R[k], sol.plans[1])
    assert follower_plan(m, s0, sol) == k
    real = solve._multiple_lp

    def higher(*args):
        value, x, pick, follower, regret = real(*args)
        return value, x, pick + 1, follower, regret

    monkeypatch.setattr(solve, "_multiple_lp", higher)
    sol = solve._stackelberg_kernel(m, s0, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    assert kernel_pick(m, s0) == k + 1 and follower_plan(m, s0, sol) == k


def without_row_0(A: solve.Csc) -> solve.Csc:
    """``A`` less its row 0, the rows below it moved up one."""
    kept = A.indices != 0
    indptr = np.concatenate([[0], np.cumsum(kept)])[A.indptr]
    return solve.Csc(indptr, A.indices[kept] - 1, A.data[kept], (A.shape[0] - 1, A.shape[1]))


def test_dense_rows_catch_a_dropped_dual_row(monkeypatch):
    # without the dual row of the follower's first sequence the follower may
    # seem to best-respond when it does not: the kernel's value or plan
    # leaves the oracle's, taken before the row is dropped, and the kernel's
    # own certificate, the follower's regret, fails
    m, _ = random_stackelberg(4, 2, 1)
    s0 = initial_occupancy(m)
    check_kernel_against_dense_rows(m, s0)
    value, k, _ = dense_row_oracle(m, s0)
    real = solve.linprog

    def drop_first_row(c, A, row_lo, row_hi, col_lo, col_hi):
        return real(c, without_row_0(A), row_lo[1:], row_hi[1:], col_lo, col_hi)

    monkeypatch.setattr(solve, "linprog", drop_first_row)
    sol = solve._stackelberg_kernel(m, s0, np.inf, solve.CAP_BYTES)
    assert abs(sol.values[0] - value) > 1e-6 and follower_plan(m, s0, sol) != k
    with pytest.raises(RuntimeError, match="follower regret"):
        solve._stackelberg_kernel(m, s0, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)


def test_stackelberg_four_steps_in_one_lp(st_tiger, monkeypatch):
    # 32,768 follower plans; the leader's best pure value against the first
    # one in descending order already falls short of no other plan's LP
    calls, real = [], solve.linprog
    monkeypatch.setattr(solve, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    eq = solve_stackelberg(st_tiger.with_horizon(4))
    assert abs(eq.values[0] - 4.3214405625) <= 1e-9
    assert len(calls) == 1
    assert eq.metadata["follower_regret"] <= 1e-9
    assert eq.metadata["shape"] == (170, 32768)


def test_stackelberg_leader_in_sequence_form_three_steps(st_tiger):
    # one LP per follower plan over the leader's 42 sequences, not its 128 trees
    eq = solve_stackelberg(st_tiger.with_horizon(3))
    assert eq.metadata["shape"] == (42, 128)
    assert abs(eq.values[0] - 3.13975625) <= 1e-9


# -- the array walk: set numbering, depth blocks, differential checks -------------


@pytest.mark.parametrize(
    "name, value_from",
    [("tiger-duel", lambda m, s: zero_sum_value_from(m, s)[0]), ("tiger", dec_value_from),
     ("stackelberg-tiger", stackelberg_value_from)],
    ids=["tiger-duel", "tiger", "stackelberg-tiger"],
)
def test_solving_below_a_step_state_builds_no_joint_history(name, value_from):
    # the walk starts from the state's level: a state that ``step`` returned
    # keeps its entries unbuilt, and its value is the one below a copy built
    # from those entries
    m = load(name).with_horizon(3)
    s, _ = verify._sample_prefix_occupancy(m, 1, np.random.default_rng(4))
    value = value_from(m, s)
    assert "entries" not in vars(s)
    assert value == value_from(m, OccupancyState(s.t, dict(s.entries)))


def test_anchors_are_the_histories_of_the_entries_sorted_by_steps(tiger):
    m = tiger.with_horizon(3)
    rng = np.random.default_rng(11)
    states = [verify._sample_prefix_occupancy(m, t, rng)[0] for t in (1, 1, 2, 2)]
    states += [mix_occupancies(states[:2], [0.4, 0.6]), mix_occupancies(states[2:], [0.5, 0.5])]
    states += [verify._belief_occupancy(m, [0.3, 0.7]), reversed_entries(states[2])]
    for s in states:
        for i in range(2):
            anchors = level_of(m, s)[1][i]
            assert anchors == sorted({o.privates[i] for (_, o) in s.entries}, key=lambda h: h.steps)


def reversed_entries(s):
    """``s`` rebuilt from its entries in reverse order, so that the order in
    which its histories first appear is not their steps order."""
    return OccupancyState(s.t, dict(reversed(list(s.entries.items()))))


STEPS_ORDER_LEVEL = occupancy.to_level


def first_appearance_level(model, entries):
    """``occupancy.to_level`` with each agent's histories numbered in order
    of first appearance in ``entries``, not in steps order."""
    level, hists = STEPS_ORDER_LEVEL(model, entries)
    ids, numbered = [], []
    for k, hs in zip(level.ids, hists):
        _, first = np.unique(k, return_index=True)
        order = np.argsort(first)  # the steps-order ids by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ids.append(rank[k])
        numbered.append([hs[j] for j in order])
    return level._replace(ids=tuple(ids)), tuple(numbered)


def anchored_solution(m, s) -> list:
    """What a solve below ``s`` ties to the anchors: the common-payoff value
    of each of agent 1's anchored plans, or both Stackelberg plans' indices."""
    if m.criterion == "common":
        return solve._one_sided(m, s, solve.CAP_BYTES, np.max)[0].tolist()
    sol = solve._stackelberg_kernel(m, s, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    depth = m.horizon - s.t
    return [
        solve._kuhn_mixture(m, i, plan, trie, depth)
        for i, (plan, trie) in enumerate(zip(sol.plans, sol.tries))
    ]


@pytest.mark.parametrize("control", [False, True], ids=["renumbered", "control"])
@pytest.mark.parametrize("name", ["tiger", "stackelberg-tiger"])
def test_the_walk_numbers_anchors_by_steps_whatever_the_entry_order(name, control, monkeypatch):
    # a state rebuilt from its entries in reverse order numbers its
    # histories in steps order, as every level does, and solves as the
    # state does; the control, a level numbered by first appearance, changes
    # a value or a plan
    m = load(name).with_horizon(3)
    s = verify._sample_prefix_occupancy(m, 1, np.random.default_rng(4))[0]
    out_of_order = reversed_entries(s)
    assert not in_steps_order(first_appearance_level(m, out_of_order.entries)[1])
    want = anchored_solution(m, s)
    if control:
        monkeypatch.setattr(occupancy, "to_level", first_appearance_level)
    assert in_steps_order(level_of(m, out_of_order)[1]) != control
    got = anchored_solution(m, out_of_order)
    assert (np.allclose(got, want, rtol=0.0, atol=1e-12) if m.criterion == "common"
            else got == want) != control


def set_levels(sol, agent, n_u) -> dict:
    """Depth of each of the agent's information sets below its anchors."""
    level = {a: 0 for a in range(len(sol.anchors[agent]))}
    for (j, _, _), c in sorted(kids_of(sol.tries[agent], n_u).items(), key=lambda kv: kv[1]):
        level[c] = level[j] + 1
    return level


def assert_sorted_numbering(sol, agent, n_u):
    # anchors first, then each level's sets in (parent, action, observation)
    # order, right after the level above
    level = set_levels(sol, agent, n_u)
    assert sorted(level) == list(range(len(level)))
    assert [level[c] for c in sorted(level)] == sorted(level.values())
    kids = sorted(kids_of(sol.tries[agent], n_u).items(), key=lambda kv: kv[1])
    for d in range(1, max(level.values(), default=0) + 1):
        keys = [k for k, c in kids if level[c] == d]
        assert keys == sorted(keys)


def reached_histories(m, s) -> list[set]:
    """Each agent's private histories strictly below ``s`` that some joint
    action sequence reaches with positive probability, read off the raw
    transition and observation tables."""
    level = {(x, o.privates) for (x, o) in s.entries}
    out = [set() for _ in range(m.n_agents)]
    for _ in range(s.t, m.horizon - 1):
        nxt = set()
        for x, privates in level:
            for u in range(m.n_joint_actions):
                us = m.split_joint_action(u)
                for x2, z in itertools.product(range(m.n_states), range(m.n_joint_obs)):
                    if m.transition[u, x, x2] * m.observation[u, x2, z] > 0.0:
                        zs, w = m.split_joint_obs(z)
                        nxt.add((x2, tuple(
                            h.child(us[i], m.agent_obs_index(i, zs[i], w))
                            for i, h in enumerate(privates)
                        )))
        level = nxt
        for _, privates in level:
            for i, h in enumerate(privates):
                out[i].add(h)
    return out


def realization_matrix(m, agent, sol, space) -> np.ndarray:
    return marked_realization(m, agent, sol.anchors[agent], sol.tries[agent], space)


def check_walk_against_brute_force(m, s, rng, cells=12):
    """The zero-sum walk below ``s``: numbering, reached sets, block-diagonal
    ``G`` and value against the anchored normal form, and sampled cells of
    that normal form against the per-cell route."""
    v, sol, G = zero_sum_value_from(m, s)
    (A,), spaces = suffix_normal_form(m, s, (0,))
    assert abs(v - matrix_game_value(A).value) <= 1e-9
    R = [realization_matrix(m, i, sol, spaces[i]) for i in range(2)]
    assert np.abs(np.array([r @ G for r in R[0]]) @ R[1].T - A).max() <= 1e-12
    n_us = [len(m.actions[i]) for i in range(2)]
    for i in range(2):
        assert_sorted_numbering(sol, i, n_us[i])
        below = {h for c, h in set_histories(sol, i, n_us[i]).items() if c >= len(sol.anchors[i])}
        assert below == reached_histories(m, s)[i]
    levels = [set_levels(sol, i, n_us[i]) for i in range(2)]
    rows, cols = G.rows(), G.indices
    assert all(levels[0][r // n_us[0]] == levels[1][c // n_us[1]] for r, c in zip(rows, cols))
    for cell in zip(rng.integers(len(spaces[0]), size=cells), rng.integers(len(spaces[1]), size=cells)):
        assert abs(A[cell] - per_cell_value(m, s, spaces, cell, 0)) <= 1e-12
    return sol


@pytest.mark.parametrize("seed", [0, 1])
def test_walk_matches_brute_force_with_public_observations_three_steps(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(2, 2), n_obs=(1, 1), n_public=2, horizon=3,
        discount=0.9, criterion="zerosum",
    )
    s0 = initial_occupancy(m)
    check_walk_against_brute_force(m, s0, rng)
    # the other criteria on the same dynamics, against the same normal form
    common = dataclasses.replace(m, rewards=np.repeat(m.rewards[:1], 2, axis=0), criterion="common")
    (A,), _ = induced_normal_form(common, [0])
    assert abs(solve_dec(common).values[0] - A.max()) <= 1e-12
    leader = dataclasses.replace(m, criterion="stackelberg")
    (L, F), _ = induced_normal_form(leader, [0, 1])
    assert abs(solve_stackelberg(leader).values[0] - stackelberg_from_matrices(L, F)[0]) <= 1e-9


def test_walk_matches_brute_force_below_mid_game_states():
    rng = np.random.default_rng(29)
    m = random_posg(
        rng, n_actions=(2, 2), n_obs=(1, 1), n_public=2, horizon=3,
        discount=0.9, criterion="zerosum",
    )
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    states = [s1 for _, _, s1 in step(m, initial_occupancy(m), rules)]
    assert len(states) == 2
    for s in states:
        sol = check_walk_against_brute_force(m, s, rng)
        assert min(len(anchors) for anchors in sol.anchors) >= 2


def unreached_sets_model():
    """A model whose state never moves, heard by agent 1 and not by agent 2:
    after its first observation agent 1's next one is fixed, so 8 of its 16
    depth-2 sets have probability 0.  Returns it with its generator."""
    rng = np.random.default_rng(31)
    m = random_posg(rng, n_actions=(2, 2), n_obs=(2, 1), horizon=3, discount=0.9, criterion="zerosum")
    transition = np.broadcast_to(np.eye(m.n_states), m.transition.shape)
    observation = np.zeros_like(m.observation)
    for x2 in range(m.n_states):
        observation[:, x2, m.joint_obs_index((x2, 0), 0)] = 1.0
    return dataclasses.replace(m, transition=transition, observation=observation), rng


def test_walk_keeps_unreached_sets_unnumbered():
    m, rng = unreached_sets_model()
    s0 = initial_occupancy(m)
    sol = check_walk_against_brute_force(m, s0, rng)
    assert [np.count_nonzero(parents >= 0) for parents, _ in sol.tries] == [4 + 8, 2 + 4]
    # and below a mid-game state whose anchors already split on the state
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    (s1,) = [s1 for _, _, s1 in step(m, s0, rules)]
    check_walk_against_brute_force(m, s1, rng)


def test_walk_on_three_agents_matches_brute_force():
    m = three_agent_common(3)
    (A,), spaces = induced_normal_form(m, [0])
    eq = solve_dec(m)
    top = A.max()
    first = np.flatnonzero(A >= top - 1e-12 * max(1.0, abs(top)))[0]
    assert eq.mixtures == tuple({int(c): 1.0} for c in np.unravel_index(first, A.shape))
    assert abs(eq.values[0] - top) <= 1e-12
    s0 = initial_occupancy(m)
    rng = np.random.default_rng(37)
    for cell in zip(*(rng.integers(len(space), size=8) for space in spaces)):
        profile = JointPolicy(tuple(space[c] for space, c in zip(spaces, cell)))
        assert abs(A[cell] - evaluate_occupancy(m, profile, s0, 0)) <= 1e-12
    rules = tuple(random_decision_rule(m, i, 0, rng, support=1) for i in range(3))
    for _, _, s1 in step(m, s0, rules):
        (A,), _ = suffix_normal_form(m, s1, (0,))
        assert abs(dec_value_from(m, s1) - A.max()) <= 1e-12


def test_solve_dec_does_not_enumerate_the_last_agent(tiger, monkeypatch):
    # the last agent's policy comes from its trie, so the cap counts its
    # sequences only: tiger h=3 has 129 of them and 3^43 pure trees
    calls = []
    build = solve._plan_realization

    def counted(model, agent, *args):
        calls.append(agent)
        return build(model, agent, *args)

    monkeypatch.setattr(solve, "_plan_realization", counted)
    eq = solve_dec(tiger.with_horizon(3))
    assert calls == [0] and abs(eq.values[0] - 3.4) <= 1e-12


# -- pure plans as indices: realization rows from digits, trees on demand ---------


def check_plan_realizations(m, s, keep=()):
    """``_normal_form``'s realization matrices below ``s``, built from plan
    index digits, against the naive marker over ``_anchored_space``'s trees,
    bit for bit, for every enumerated agent; returns the matrices and the
    tries."""
    _, realizations, tries = solve._normal_form(m, s, [0], solve.CAP_BYTES, keep=keep)
    depth = m.horizon - s.t
    for i, R in enumerate(realizations):
        if i in keep:
            assert R is None
            continue
        anchors = level_of(m, s)[1][i]
        space = solve._anchored_space(m, i, anchors, depth)
        expected = marked_realization(m, i, anchors, tries[i], space)
        assert R.shape == expected.shape and np.abs(R - expected).max() == 0.0
    return realizations, tries


def first_step_states(m, seed):
    rng = np.random.default_rng(seed)
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(m.n_agents))
    return [s1 for _, _, s1 in step(m, initial_occupancy(m), rules)]


@pytest.mark.parametrize("horizon", [2, 3])
def test_plan_realization_matches_the_marker_at_the_start(tiger, horizon):
    m = tiger.with_horizon(horizon)
    check_plan_realizations(m, initial_occupancy(m), keep=(1,))


def test_plan_realization_matches_the_marker_for_a_mid_game_follower(st_tiger):
    # several follower anchors at t=1 and t=2: anchor 0's digits come first
    m = st_tiger.with_horizon(3)
    s1 = first_step_states(m, 5)
    rng = np.random.default_rng(6)
    rules = tuple(random_decision_rule(m, i, 1, rng) for i in range(2))
    s2 = [s for _, _, s in step(m, s1[0], rules)]
    for s in s1 + s2[:2]:
        assert len(level_of(m, s)[1][1]) >= 2
        check_plan_realizations(m, s, keep=(0,))
    m, _ = random_stackelberg(8, 2, 2)
    for s in first_step_states(m, 9):
        check_plan_realizations(m, s, keep=(0,))


def test_plan_realization_matches_the_marker_with_unreached_sets():
    m, _ = unreached_sets_model()
    _, tries = check_plan_realizations(m, initial_occupancy(m))
    assert np.count_nonzero(tries[0][0] >= 0) == 4 + 8 < 4 + 16  # 8 depth-2 sets of agent 1 unreached
    for s in first_step_states(m, 32):
        check_plan_realizations(m, s)


def test_plan_realization_matches_the_marker_on_three_agents():
    m = three_agent_common(3)
    check_plan_realizations(m, initial_occupancy(m))
    for s in first_step_states(m, 38):
        check_plan_realizations(m, s, keep=(2,))


def reversed_digits(k, n_u, n_digits):
    out = 0
    for _ in range(n_digits):
        k, d = divmod(k, n_u)
        out = out * n_u + d
    return out


@pytest.mark.parametrize("order", ["reversed anchors", "little-endian"])
def test_plan_realization_check_catches_a_wrong_plan_order(st_tiger, order):
    # negative control: the marker over the same plans in another order has
    # the same rows, and the bit-for-bit check tells the orders apart
    m = st_tiger.with_horizon(3)
    s = first_step_states(m, 5)[0]
    (_, R), tries = check_plan_realizations(m, s, keep=(0,))
    anchors = level_of(m, s)[1][1]
    depth = m.horizon - s.t
    if order == "reversed anchors":
        space = solve._anchored_space(m, 1, anchors[::-1], depth)
    else:
        space = solve._anchored_space(m, 1, anchors, depth)
        n_digits = len(anchors) * 3  # 2 actions, 1 + 2 nodes per anchor's trie
        assert len(space) == 2**n_digits
        space = [space[reversed_digits(k, 2, n_digits)] for k in range(len(space))]
    wrong = marked_realization(m, 1, anchors, tries[1], space)
    assert np.array_equal(np.unique(wrong, axis=0), np.unique(R, axis=0))
    assert np.abs(R - wrong).max() == 1.0


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_tree_decodes_every_enumerated_index(tiger, st_tiger, horizon):
    for m, agents in ((tiger, (0, 1)), (st_tiger, (1,))):
        for i in agents:
            trees = enumerate_pure_policies(m, i, horizon, cap=10**4)
            assert [solve._tree(m, i, k, horizon) for k in range(len(trees))] == trees


def picked_tree(m, agent, kids, pick, j, depth, default=0):
    """Oracle: the tree playing ``pick(j)`` at each reached set ``j`` in
    preorder and action ``default`` (modulo the action count; 0 in the
    solvers) below unreached ones."""
    u = default % len(m.actions[agent]) if j is None else pick(j)
    if depth == 1:
        return PolicyTree(agent, u)
    below = [None if j is None else kids.get((j, u, z)) for z in range(m.n_agent_obs(agent))]
    return PolicyTree(
        agent, u,
        tuple(picked_tree(m, agent, kids, pick, c, depth - 1, default) for c in below),
    )


def test_plan_index_round_trips_below_several_anchors():
    # one tree per anchor, anchor 0's digits first: _pure_tree's index is
    # the row of _plan_realization that plays exactly its sequences, and
    # _plan_rows reads its picks back at every set's row
    m = dict(loop_models())["random-5-3"]
    s = mid_game_root(m, 1)
    depth = m.horizon - s.t
    _, _, tries = solve._normal_form(m, s, [0], solve.CAP_BYTES, keep=(0, 1))
    rng = np.random.default_rng(43)
    for agent in range(2):
        n_u = len(m.actions[agent])
        n_anchors = len(level_of(m, s)[1][agent])
        assert n_anchors >= 2
        R = solve._plan_realization(m, agent, tries[agent], depth)
        kids = sorted(kids_of(tries[agent], n_u).items(), key=lambda kv: kv[1])
        below = solve._children(*tries[agent])
        for _ in range(5):
            picks = rng.integers(n_u, size=len(tries[agent][0]))
            index, played = solve._pure_tree(
                m, agent, below, lambda j: int(picks[j]), range(n_anchors), depth
            )
            assert set(np.flatnonzero(R[index])) == set(played)
            table = solve._plan_rows(m, agent, {index: 1.0}, n_anchors, depth)
            row, level = list(range(n_anchors)), [0] * n_anchors  # per set
            for (j, u, z), _ in kids:
                on_plan = row[j] >= 0 and u == picks[j]
                row.append(table.children[level[j]][row[j], u, z] if on_plan else -1)
                level.append(level[j] + 1)
            for c in {q // n_u for q in played}:
                assert np.flatnonzero(table.rows[level[c]][row[c]]) == [picks[c]]


@pytest.mark.parametrize("name", ["tiger", "unreached"])
def test_pure_tree_index_round_trips_through_tree(request, name):
    if name == "unreached":
        m, _ = unreached_sets_model()
    else:
        m = request.getfixturevalue(name).with_horizon(3)
    s0 = initial_occupancy(m)
    _, _, tries = solve._normal_form(m, s0, [0], solve.CAP_BYTES, keep=(0, 1))
    rng = np.random.default_rng(41)
    for agent in range(2):
        n_u = len(m.actions[agent])
        trees = enumerate_pure_policies(m, agent, m.horizon, cap=10**4)
        R = solve._plan_realization(m, agent, tries[agent], m.horizon)
        kids, below = kids_of(tries[agent], n_u), solve._children(*tries[agent])
        for _ in range(5):
            picks = rng.integers(n_u, size=1 + len(kids))
            index, played = solve._pure_tree(m, agent, below, lambda j: int(picks[j]))
            tree = picked_tree(m, agent, kids, lambda j: int(picks[j]), 0, m.horizon)
            assert solve._tree(m, agent, index, m.horizon) == tree == trees[index]
            assert tree_index(tree, n_u) == index
            assert sorted(played) == np.flatnonzero(R[index]).tolist()


def reached_solve_names(fn) -> set[str]:
    """Names ``fn`` (a function or its source) uses, and those of every
    ``solve`` function it reaches."""
    names, todo = set(), [fn]
    while todo:
        fn = todo.pop()
        source = fn if isinstance(fn, str) else inspect.getsource(fn)
        code = compile(source, solve.__file__, "exec")
        for name in code_names(code) - names:
            names.add(name)
            g = getattr(solve, name, None)
            if inspect.isfunction(g) and g.__module__ == solve.__name__:
                todo.append(g)
    return names


def test_solver_path_builds_no_policy_tree_space():
    # the solvers read enumerated plans as indices: no tree space on their
    # path (the tree-space builders are reachable, as the check shows on
    # suffix_normal_form), and trees only from _tree
    tree_spaces = {"enumerate_pure_policies", "_anchored_space"}
    for fn in (
        solve._normal_form, solve._one_sided, solve_dec, solve._stackelberg_kernel,
        solve._multiple_lp, solve_zero_sum,
    ):
        assert not reached_solve_names(fn) & tree_spaces, fn
    assert reached_solve_names(suffix_normal_form) >= tree_spaces
    # the double oracle stays in sequence form until it returns: no
    # history-route best response and no policy object; solve_zero_sum
    # decodes the returned mixtures' trees
    policy_objects = {
        "best_response_history", "_history_br", "_others_profiles", "BehavioralPolicy",
        "DecisionRule", "PolicyTree",
    }
    assert not reached_solve_names(solve._double_oracle) & policy_objects
    # control: a history-route best response put back in the loop is caught
    source = inspect.getsource(solve._double_oracle)
    put_back = source.replace("_private_best(model, i, level,", "best_response_history(model,")
    assert put_back != source
    assert reached_solve_names(put_back) & policy_objects >= {
        "best_response_history", "_history_br", "_others_profiles", "PolicyTree"
    }
    assert not hasattr(solve, "_realization")
    tree_makers = set()
    for name, fn in vars(solve).items():
        if inspect.isfunction(fn) and fn.__module__ == solve.__name__:
            code = compile(inspect.getsource(fn), solve.__file__, "exec")
            (body,) = [c for c in code.co_consts if hasattr(c, "co_varnames")]
            if "PolicyTree" in code_names(body):  # in the body, not an annotation
                tree_makers.add(name)
    assert tree_makers == {"_tree"}


@pytest.mark.parametrize("best_response", [best_response_history, best_response_private])
def test_a_best_response_refuses_an_opponent_policy_shorter_than_the_horizon(
    tiger, best_response
):
    short = random_behavioral_policy(tiger.with_horizon(2), 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shorter than the model horizon"):
        best_response(tiger.with_horizon(3), {1: short}, 0)
