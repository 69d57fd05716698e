import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games.errors import CapExceededError, ModelValidationError
from occupancy_games import solve
from occupancy_games.evaluate import evaluate_occupancy, linear_eval, value_tables
from occupancy_games.occupancy import (
    expected_reward,
    initial_occupancy,
    initial_private_occupancy,
    private_step,
    step,
)
from occupancy_games.policies import (
    BehavioralPolicy,
    DecisionRule,
    JointPolicy,
    PolicyTree,
    PrivateHistory,
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
    suffix_normal_form,
    zero_sum_value_from,
)

from conftest import code_names


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
    assert abs(best_response_private_from(m, policy, agent, root, 0) - value) <= 1e-9


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


def _pushed_anchors(monkeypatch) -> list[PrivateHistory]:
    """The anchor of every private occupancy state the private route pushes,
    one per ``private_branches`` call."""
    anchors = []
    push = solve.private_branches

    def counted(model, s_i, *args, **kwargs):
        anchors.append(s_i.anchor)
        return push(model, s_i, *args, **kwargs)

    monkeypatch.setattr(solve, "private_branches", counted)
    return anchors


def test_private_route_pushes_each_state_once(tiger, monkeypatch):
    # against a full-support opponent every one of agent 1's 1 + 6 + 36
    # histories of tiger h=3 is reached, and each state is pushed once with
    # all its own actions
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    anchors = _pushed_anchors(monkeypatch)
    best_response_private(m, {1: other}, 0)
    assert len(anchors) == len(set(anchors)) == 43


def test_private_route_pushes_each_state_once_from_a_mid_game_state(tiger, monkeypatch):
    # a t=1 state of tiger h=3 and its 3 x 2 children
    m = tiger.with_horizon(3)
    other = random_behavioral_policy(m, 1, np.random.default_rng(5))
    _, s_i = private_step(m, initial_private_occupancy(m, 0), {1: other.rules[0]}, 2, 1)
    anchors = _pushed_anchors(monkeypatch)
    best_response_private_from(m, {1: other}, 0, s_i, 1)
    assert len(anchors) == len(set(anchors)) == 7
    assert all(h.steps[0] == (2, 1) for h in anchors)


def test_best_responses_name_a_missing_agent(tiger):
    for route in (best_response_history, best_response_private):
        with pytest.raises(ValueError, match=r"agent\(s\) 2"):
            route(tiger, {}, 0)


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
    return linear_eval(s, tables[0])


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
    assert not code_names(code) & {"value_tables", "linear_eval"}


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
    for fn in (solve._zero_sum_kernel, solve._one_sided, solve._stackelberg_kernel):
        code = compile(inspect.getsource(fn), solve.__file__, "exec")
        forbidden = {"_sequence_payoffs", "_trie_size", "_predicted_bytes", "_parents"}
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


def dense_row_sse(L, F, parents, n_u):
    """Oracle: strong Stackelberg equilibrium by one LP per follower pure plan
    ``k``, each with one row per follower plan (``F.T - F[:, k]``), every
    plan tried in index order and a later plan kept only when it beats the
    best so far by more than 1e-12.  Rows of ``L`` and ``F`` are the
    leader's sequences, numbered by ``parents``.  Returns (value, leader
    plan, k)."""
    E, e = solve._plan_constraints(parents, n_u, dense=True)
    best = None
    for k in range(F.shape[1]):
        res = solve.linprog(
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
        calls.clear()
        best = dense_row_sse(L, F, one_set, m)
        before = len(calls)
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


def plan_from_tree(m, agent, sol, tree) -> np.ndarray:
    """0/1 realization of a tree rooted at the single anchor."""
    n_u = len(m.actions[agent])
    x = np.zeros(len(sol.plans[agent]))

    def mark(node, j):
        x[j * n_u + node.action] = 1.0
        for z, child in enumerate(node.children):
            c = sol.kids[agent].get((j, node.action, z))
            if c is not None:
                mark(child, c)

    mark(tree, 0)
    return x


def set_histories(sol, agent) -> dict:
    """Private history of each of the agent's information sets."""
    hist = dict(enumerate(sol.anchors[agent]))
    for (j, u, z), c in sorted(sol.kids[agent].items(), key=lambda kv: kv[1]):
        hist[c] = hist[j].child(u, z)
    return hist


def parent_sequences(sol, agent, n_u) -> dict:
    return {c: j * n_u + u for (j, u, _), c in sol.kids[agent].items()}


def behavioral_from_plan(m, agent, sol) -> BehavioralPolicy:
    """pi(u | j) = x[j, u] / x[parent(j)] on the sets the walk reached (each
    set's mass checked against its parent's), uniform elsewhere."""
    x = sol.plans[agent]
    n_u = len(m.actions[agent])
    parents = parent_sequences(sol, agent, n_u)
    sets = {h: j for j, h in set_histories(sol, agent).items()}
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
    for j, h in sorted(set_histories(sol, agent).items()):  # parents first
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
    v, sol, G = zero_sum_value_from(m, initial_occupancy(m))
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
    # the trie max also prices plans far from optimal
    rng = np.random.default_rng(11)
    n_u = len(m.actions[0])
    parents = solve._parents(sol.kids[0], len(sol.plans[0]) // n_u, n_u)
    for _ in range(3):
        pi = random_behavioral_policy(m, 1, rng)
        br = best_response_history(m, {1: pi}, 0)
        y = realization_of(m, 1, sol, pi)
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


def test_zero_sum_cap_counts_sequences_before_the_walk(tiger_zs):
    # tiger-zs: 3 actions x 2 observations, 3 * 6^d sequences per agent at
    # depth d; the walk's depth blocks hold sum over d < h of (3 * 6^d)^2
    # doubles (h=6, refused before the walk, is a case of the test below)
    assert solve_zero_sum(tiger_zs, cap_bytes=2_664).metadata["sequences"] == (21, 21)
    with pytest.raises(CapExceededError):
        solve_zero_sum(tiger_zs, cap_bytes=2_663)


def no_build(*args, **kwargs):
    raise AssertionError("built past the budget")


@pytest.mark.parametrize(
    "name, solver, horizon, doubles",
    [
        # both agents' depth blocks, the last one (3 * 6^5)^2 doubles
        ("tiger_zs", solve_zero_sum, 6, sum((3 * 6**d) ** 2 for d in range(6))),
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
    monkeypatch.setattr(solve, "enumerate_pure_policies", no_build)
    with pytest.raises(CapExceededError) as info:
        solver(request.getfixturevalue(name).with_horizon(horizon))
    assert info.value.count == 8 * doubles and info.value.cap == solve.CAP_BYTES == 2**30


def test_zero_sum_four_steps(tiger_zs):
    eq = solve_zero_sum(tiger_zs.with_horizon(4))
    assert abs(eq.values[0]) <= 1e-9
    assert eq.metadata["sequences"] == (777, 777)
    assert eq.metadata["residual"] <= 1e-9


def test_package_import_leaves_scipy_optimize_unloaded():
    src = pathlib.Path(solve.__file__).resolve().parents[1]
    code = "import sys, occupancy_games; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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


def leader_realization(m, mixture, kids) -> np.ndarray:
    """Realization plan of a mixture over the leader's pure policy trees."""
    root = PrivateHistory(0)
    trees = enumerate_pure_policies(m, 0, m.horizon)
    R = solve._realization(len(m.actions[0]), [root], [{root: t} for t in trees], kids)
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
    (L, F), _, _, parents = solve._normal_form(m, s, [0, 1], solve.CAP_BYTES, keep=(0,))
    value, _, k = dense_row_sse(L, F, parents[0], len(m.actions[0]))
    return value, k, F


def check_kernel_against_dense_rows(m, s, tolerance=solve.DEFAULT_TOLERANCE):
    """The Stackelberg kernel below ``s`` against ``dense_row_sse`` on the
    same leader-sequence by follower-plan payoffs: values within 1e-12, the
    same follower plan, and that plan a best response to the kernel's leader
    plan on the oracle's ``F``."""
    value, k, F = dense_row_oracle(m, s)
    sol = solve._stackelberg_kernel(m, s, tolerance, solve.CAP_BYTES)
    assert abs(sol.values[0] - value) <= 1e-12 and sol.k == k
    assert abs(sol.values[1] - sol.plan @ F[:, k]) <= 1e-12
    assert (sol.plan @ F).max() - sol.plan @ F[:, k] <= 1e-9  # k is a best response
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
        assert abs(sol.values[0] - value) <= 1e-9 and sol.k == k
        assert abs(solve.stackelberg_value_from(m, s) - value) <= 1e-9
    s0 = initial_occupancy(m)
    sol = solve._stackelberg_kernel(m, s0, solve.DEFAULT_TOLERANCE, solve.CAP_BYTES)
    eq = solve_stackelberg(m)
    assert eq.values == sol.values and eq.mixtures[1] == {sol.k: 1.0}
    assert abs(sum(eq.mixtures[0].values()) - 1.0) <= 1e-9
    assert np.abs(leader_realization(m, eq.mixtures[0], sol.kids) - sol.plan).max() <= 1e-9


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_stackelberg_tiger_matches_the_dense_rows(st_tiger, horizon):
    m = st_tiger.with_horizon(horizon)
    check_kernel_against_dense_rows(m, initial_occupancy(m))


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

    def drop_first_row(c, A_ub, b_ub, **kwargs):
        return real(c, A_ub=A_ub[1:], b_ub=b_ub[1:], **kwargs)

    monkeypatch.setattr(solve, "linprog", drop_first_row)
    sol = solve._stackelberg_kernel(m, s0, np.inf, solve.CAP_BYTES)
    assert abs(sol.values[0] - value) > 1e-6 and sol.k != k
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


def set_levels(sol, agent) -> dict:
    """Depth of each of the agent's information sets below its anchors."""
    level = {a: 0 for a in range(len(sol.anchors[agent]))}
    for (j, _, _), c in sorted(sol.kids[agent].items(), key=lambda kv: kv[1]):
        level[c] = level[j] + 1
    return level


def assert_sorted_numbering(sol, agent):
    # anchors first, then each level's sets in (parent, action, observation)
    # order, right after the level above
    level = set_levels(sol, agent)
    assert sorted(level) == list(range(len(level)))
    assert [level[c] for c in sorted(level)] == sorted(level.values())
    for d in range(1, max(level.values(), default=0) + 1):
        keys = [k for k, c in sorted(sol.kids[agent].items(), key=lambda kv: kv[1]) if level[c] == d]
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
    return solve._realization(len(m.actions[agent]), sol.anchors[agent], space, sol.kids[agent])


def check_walk_against_brute_force(m, s, rng, cells=12):
    """The zero-sum walk below ``s``: numbering, reached sets, block-diagonal
    ``G`` and value against the anchored normal form, and sampled cells of
    that normal form against the per-cell route."""
    v, sol, G = zero_sum_value_from(m, s)
    (A,), spaces = suffix_normal_form(m, s, (0,))
    assert abs(v - matrix_game_value(A).value) <= 1e-9
    R = [realization_matrix(m, i, sol, spaces[i]) for i in range(2)]
    assert np.abs(R[0] @ G @ R[1].T - A).max() <= 1e-12
    for i in range(2):
        assert_sorted_numbering(sol, i)
        below = {h for c, h in set_histories(sol, i).items() if c >= len(sol.anchors[i])}
        assert below == reached_histories(m, s)[i]
    levels = [set_levels(sol, i) for i in range(2)]
    n_us = [len(m.actions[i]) for i in range(2)]
    rows, cols = G.nonzero()
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


def test_walk_keeps_unreached_sets_unnumbered():
    # the state never moves and agent 1 hears it, agent 2 hears nothing: after
    # its first observation agent 1's next one is fixed, so 8 of its 16
    # depth-2 sets have probability 0
    rng = np.random.default_rng(31)
    m = random_posg(rng, n_actions=(2, 2), n_obs=(2, 1), horizon=3, discount=0.9, criterion="zerosum")
    transition = np.broadcast_to(np.eye(m.n_states), m.transition.shape)
    observation = np.zeros_like(m.observation)
    for x2 in range(m.n_states):
        observation[:, x2, m.joint_obs_index((x2, 0), 0)] = 1.0
    m = dataclasses.replace(m, transition=transition, observation=observation)
    s0 = initial_occupancy(m)
    sol = check_walk_against_brute_force(m, s0, rng)
    assert [len(kids) for kids in sol.kids] == [4 + 8, 2 + 4]
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
    enumerate_all = solve.enumerate_pure_policies

    def counted(model, agent, *args, **kwargs):
        calls.append(agent)
        return enumerate_all(model, agent, *args, **kwargs)

    monkeypatch.setattr(solve, "enumerate_pure_policies", counted)
    eq = solve_dec(tiger.with_horizon(3))
    assert calls == [0] and abs(eq.values[0] - 3.4) <= 1e-12
