import dataclasses
import inspect
import itertools

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
    step,
)
from occupancy_games.policies import (
    JointPolicy,
    PolicyTree,
    PrivateHistory,
    enumerate_pure_policies,
    rules_from_trees,
)
from occupancy_games.sampling import (
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
    with pytest.raises(CapExceededError):
        solve_dec(tiger, cap_joint=100)


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
    mats, spaces = induced_normal_form(m, m.horizon, agents)
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


def _names(code) -> set[str]:
    """Global and attribute names a code object uses, nested ones included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_normal_form_stays_off_the_per_cell_route():
    # the payoff tensors come from one sequence-form walk, never per cell
    code = compile(inspect.getsource(solve), solve.__file__, "exec")
    assert not _names(code) & {"value_tables", "linear_eval"}


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


def test_sse_pruning_keeps_the_unpruned_result(monkeypatch):
    calls, real = [], solve.linprog
    monkeypatch.setattr(solve, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    unpruned = pruned = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 7, size=2)
        # small integer payoffs make ties between columns common
        L = rng.integers(-3, 4, size=(m, n)).astype(float)
        F = rng.integers(-3, 4, size=(m, n)).astype(float)
        calls.clear()
        best = None  # the loop without the pruning test
        for k in range(n):
            out = solve._sse_leader_lp(L[:, k], F, k)
            if out is not None and (best is None or out[0] > best[0] + 1e-12):
                best = (out[0], out[1], k)
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
    (L, F), _ = induced_normal_form(st_tiger, 3, [0, 1])
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

        (L, F), _ = induced_normal_form(model, model.horizon, [0, 1])
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
