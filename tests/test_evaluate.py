import dataclasses

import numpy as np
import pytest

from occupancy_games.evaluate import (
    evaluate_history,
    evaluate_occupancy,
    linear_eval,
    simulate,
    value_tables,
)
from occupancy_games.model import parse_posg
from occupancy_games.occupancy import initial_occupancy, step
from occupancy_games.policies import (
    DecisionRule,
    JointPolicy,
    PolicyMixture,
    PolicyTree,
    PrivateHistory,
    empty_joint_history,
    joint_action_dist,
)
from occupancy_games.sampling import random_joint_policy, random_posg

CONSTANT_REWARD = """
agents: 1
discount: 1.0
horizon: 2
states: s
actions:
a
observations:
z
T: a : s : s : 1.0
O: a : s : z : 1.0
R1: a : s : 1.0
"""


def tree_policy(*roots):
    return JointPolicy(tuple(PolicyTree(i, a) for i, a in enumerate(roots)))


def test_evaluate_history_one_stage(one_stage):
    tables = evaluate_history(one_stage, tree_policy(0, 0), 0)
    empty = empty_joint_history(2)
    assert tables[0].value(0, empty) == pytest.approx(1.0)
    assert tables[0].value(1, empty) == pytest.approx(1.0)
    assert tables[1].values == {}  # boundary

    tables = evaluate_history(one_stage, tree_policy(1, 1), 0)
    treasure = one_stage.states.index("treasure")
    tiger_x = one_stage.states.index("tiger")
    assert tables[0].value(treasure, empty) == pytest.approx(2.0)
    assert tables[0].value(tiger_x, empty) == pytest.approx(-2.0)


def test_evaluate_history_zero_rewards(one_stage):
    zero = dataclasses.replace(one_stage, rewards=np.zeros_like(one_stage.rewards))
    tables = evaluate_history(zero, tree_policy(0, 1), 0)
    assert all(v == 0.0 for table in tables for v in table.values.values())


def test_evaluate_occupancy_one_stage(one_stage):
    s0 = initial_occupancy(one_stage)
    assert evaluate_occupancy(one_stage, tree_policy(0, 0), s0, 0) == pytest.approx(1.0)
    point = initial_occupancy(one_stage.with_start([1.0, 0.0]))
    assert evaluate_occupancy(one_stage, tree_policy(1, 1), point, 0) == pytest.approx(2.0)


def test_evaluate_occupancy_boundary_is_zero(tiger):
    rng = np.random.default_rng(0)
    policy = random_joint_policy(tiger, rng)
    rules = policy.joint_rules(tiger)
    s = initial_occupancy(tiger)
    for t in range(tiger.horizon):
        s = step(tiger, s, rules[t])[0][2]
    assert evaluate_occupancy(tiger, policy, s, 0) == 0.0


def test_evaluate_occupancy_matches_state_weighted_history(tiger):
    rng = np.random.default_rng(3)
    policy = random_joint_policy(tiger, rng)
    s0 = initial_occupancy(tiger)
    for agent in range(2):
        tables = evaluate_history(tiger, policy, agent)
        weighted = sum(
            p * tables[0].value(x, o) for (x, o), p in s0.entries.items()
        )
        assert evaluate_occupancy(tiger, policy, s0, agent) == weighted  # exact


def test_bellman_identity_pointwise(tiger):
    # recompute each table entry one step from its successor table
    rng = np.random.default_rng(11)
    policy = random_joint_policy(tiger, rng)
    rules = policy.joint_rules(tiger)
    tables = evaluate_history(tiger, policy, 0)
    for t in range(tiger.horizon):
        nxt = tables[t + 1]
        for (x, o), v in tables[t].values.items():
            total = 0.0
            for u, a_p in joint_action_dist(tiger, rules[t], o).items():
                q = tiger.rewards[0, x, u]
                us = tiger.split_joint_action(u)
                for x2 in range(tiger.n_states):
                    for z in range(tiger.n_joint_obs):
                        pr = tiger.transition[u, x, x2] * tiger.observation[u, x2, z]
                        if pr == 0.0:
                            continue
                        zs, w = tiger.split_joint_obs(z)
                        obs = tuple(
                            tiger.agent_obs_index(i, zs[i], w) for i in range(2)
                        )
                        q += tiger.discount * pr * nxt.value(x2, o.child(us, obs))
                total += a_p * q
            assert total == pytest.approx(v, abs=1e-9)


def test_linear_eval_point_mass_and_linearity(one_stage):
    s_a = initial_occupancy(one_stage.with_start([1.0, 0.0]))
    s_b = initial_occupancy(one_stage.with_start([0.0, 1.0]))
    s_mid = initial_occupancy(one_stage)
    tables = evaluate_history(one_stage, tree_policy(1, 1), 0)
    va = linear_eval(s_a, tables[0])
    vb = linear_eval(s_b, tables[0])
    assert va == pytest.approx(2.0)
    assert linear_eval(s_mid, tables[0]) == pytest.approx(0.5 * va + 0.5 * vb)


def test_linear_eval_cross_operation(tiger):
    # listen/open-left occupancy against the (listen, listen)-continuation tables
    rules0 = tuple(
        DecisionRule(i, 0, {PrivateHistory(i): (1.0, 0.0, 0.0)}) for i in range(2)
    )
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules0)
    listen_tree = PolicyTree(0, 0, tuple(PolicyTree(0, 0) for _ in range(2)))
    listen_tree2 = PolicyTree(1, 0, tuple(PolicyTree(1, 0) for _ in range(2)))
    policy = JointPolicy((listen_tree, listen_tree2))
    seeds = sorted({o for (_, o) in s1.entries}, key=lambda o: o.sort_key())
    tables = value_tables(tiger, policy.joint_rules(tiger), 0, 1, seeds)
    assert linear_eval(s1, tables[0]) == pytest.approx(
        evaluate_occupancy(tiger, policy, s1, 0), abs=1e-12
    )


def test_linear_eval_time_mismatch(one_stage):
    tables = evaluate_history(one_stage, tree_policy(0, 0), 0)
    s0 = initial_occupancy(one_stage)
    with pytest.raises(ValueError, match="time-step"):
        linear_eval(s0, tables[1])


def test_linear_eval_rejects_missing_entries(tiger):
    rng = np.random.default_rng(5)
    policy = random_joint_policy(tiger, rng)
    tables = evaluate_history(tiger, policy, 0)
    s0 = initial_occupancy(tiger)
    missing_table = dataclasses.replace(
        tables[0], values=dict(list(tables[0].values.items())[:1])
    )
    with pytest.raises(ValueError, match="missing"):
        linear_eval(s0, missing_table)


def test_evaluate_history_rejects_horizon_mismatch(tiger):
    short = JointPolicy((PolicyTree(0, 0), PolicyTree(1, 0)))
    with pytest.raises(ValueError, match="horizon"):
        evaluate_history(tiger, short, 0)


def test_mixture_evaluation_is_weighted_average(one_stage):
    listen = PolicyTree(0, 0)
    open_ = PolicyTree(0, 1)
    partner = PolicyTree(1, 0)
    mix = JointPolicy((PolicyMixture(0, ((0.25, listen), (0.75, open_))), partner))
    s0 = initial_occupancy(one_stage)
    v_listen = evaluate_occupancy(one_stage, JointPolicy((listen, partner)), s0, 0)
    v_open = evaluate_occupancy(one_stage, JointPolicy((open_, partner)), s0, 0)
    assert evaluate_occupancy(one_stage, mix, s0, 0) == pytest.approx(
        0.25 * v_listen + 0.75 * v_open
    )


# -- simulation ----------------------------------------------------------------


def test_simulate_deterministic_chain():
    m = parse_posg(CONSTANT_REWARD)
    policy = JointPolicy((PolicyTree(0, 0, (PolicyTree(0, 0),)),))
    result = simulate(m, policy, episodes=100, seed=0)
    assert result.means == (2.0,)
    assert result.stderrs == (0.0,)


def test_simulate_one_stage_constant_reward(one_stage):
    result = simulate(one_stage, tree_policy(0, 0), episodes=500, seed=9)
    assert result.means[0] == pytest.approx(1.0, abs=0.0)
    assert result.stderrs[0] == 0.0


def test_simulate_reproducible(tiger):
    rng = np.random.default_rng(21)
    policy = random_joint_policy(tiger, rng)
    a = simulate(tiger, policy, episodes=2000, seed=77)
    b = simulate(tiger, policy, episodes=2000, seed=77)
    assert a == b
    c = simulate(tiger, policy, episodes=2000, seed=78)
    assert a.means != c.means


def test_simulate_matches_dp_three_sigma(tiger):
    rng = np.random.default_rng(4)
    policy = random_joint_policy(tiger, rng)
    result = simulate(tiger, policy, episodes=100_000, seed=123)
    dp = evaluate_occupancy(tiger, policy, initial_occupancy(tiger), 0)
    assert abs(result.means[0] - dp) <= 3.0 * result.stderrs[0]


def test_simulation_agrees_with_dp_on_random_draws():
    # >= 95% of 40 seeded (model, policy) draws within three standard errors
    hits = 0
    for k in range(40):
        rng = np.random.default_rng(9000 + k)
        m = random_posg(rng, n_states=2, horizon=2)
        policy = random_joint_policy(m, rng)
        result = simulate(m, policy, episodes=4000, seed=9000 + k)
        ok = True
        for i in range(m.n_agents):
            dp = evaluate_occupancy(m, policy, initial_occupancy(m), i)
            margin = max(3.0 * result.stderrs[i], 1e-12)
            ok = ok and abs(result.means[i] - dp) <= margin
        hits += ok
    assert hits >= 38


def test_simulate_mixture_policy(one_stage):
    mix = JointPolicy(
        (
            PolicyMixture(0, ((0.5, PolicyTree(0, 0)), (0.5, PolicyTree(0, 1)))),
            PolicyTree(1, 0),
        )
    )
    result = simulate(one_stage, mix, episodes=20_000, seed=3)
    exact = evaluate_occupancy(one_stage, mix, initial_occupancy(one_stage), 0)
    assert abs(result.means[0] - exact) <= 3.0 * max(result.stderrs[0], 1e-9)


def test_simulate_rejects_bad_episode_count(one_stage):
    with pytest.raises(ValueError):
        simulate(one_stage, tree_policy(0, 0), episodes=0, seed=0)


def test_csv_dumps(tiger):
    from occupancy_games.evaluate import sim_result_to_csv, value_table_to_csv

    rng = np.random.default_rng(6)
    policy = random_joint_policy(tiger, rng)
    tables = evaluate_history(tiger, policy, 0)
    csv = value_table_to_csv(tiger, tables[0])
    assert csv.splitlines()[0] == "t,state,history_1,history_2,value"
    assert len(csv.splitlines()) == 1 + len(tables[0].values)

    result = simulate(tiger, policy, episodes=10, seed=4)
    csv = sim_result_to_csv(result)
    assert csv.splitlines()[0] == "agent,mean,stderr,episodes,seed"
    assert csv.splitlines()[1].endswith(",10,4")
