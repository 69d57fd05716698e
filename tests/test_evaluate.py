import dataclasses
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from occupancy_games import evaluate
from occupancy_games.errors import CapExceededError, UndefinedDecisionRuleError
from occupancy_games.evaluate import (
    evaluate_occupancy,
    simulate,
    value_tables,
)
from occupancy_games.model import parse_posg
from occupancy_games.occupancy import initial_occupancy, mix_occupancies, rule_table, step
from occupancy_games.policies import (
    BehavioralPolicy,
    DecisionRule,
    JointPolicy,
    PolicyMixture,
    PolicyTree,
    PrivateHistory,
    agent_rules,
    empty_joint_history,
)
from occupancy_games.sampling import random_joint_policy, random_posg
from occupancy_games.verify import _action_product

from conftest import pairing

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


def test_value_tables_one_stage(one_stage):
    tables = value_tables(one_stage, tree_policy(0, 0).joint_rules(one_stage), 0)
    empty = empty_joint_history(2)
    assert tables[0].value(0, empty) == pytest.approx(1.0)
    assert tables[0].value(1, empty) == pytest.approx(1.0)
    assert tables[1].values == {}  # boundary

    tables = value_tables(one_stage, tree_policy(1, 1).joint_rules(one_stage), 0)
    treasure = one_stage.states.index("treasure")
    tiger_x = one_stage.states.index("tiger")
    assert tables[0].value(treasure, empty) == pytest.approx(2.0)
    assert tables[0].value(tiger_x, empty) == pytest.approx(-2.0)


def test_value_tables_zero_rewards(one_stage):
    zero = dataclasses.replace(one_stage, rewards=np.zeros_like(one_stage.rewards))
    tables = value_tables(zero, tree_policy(0, 1).joint_rules(zero), 0)
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
        tables = value_tables(tiger, policy.joint_rules(tiger), agent)
        weighted = sum(
            p * tables[0].value(x, o) for (x, o), p in s0.entries.items()
        )
        assert evaluate_occupancy(tiger, policy, s0, agent) == weighted  # exact


def test_bellman_identity_pointwise(tiger):
    # recompute each table entry one step from its successor table
    rng = np.random.default_rng(11)
    policy = random_joint_policy(tiger, rng)
    rules = policy.joint_rules(tiger)
    tables = value_tables(tiger, policy.joint_rules(tiger), 0)
    for t in range(tiger.horizon):
        nxt = tables[t + 1]
        for (x, o), v in tables[t].values.items():
            total = 0.0
            dists = [rule.dist(h) for rule, h in zip(rules[t], o.privates)]
            for us, a_p in _action_product(dists):
                u = tiger.joint_action_index(us)
                q = tiger.rewards[0, x, u]
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
    # evaluate_occupancy is linear over a mixture of two states
    s_a = initial_occupancy(one_stage.with_start([1.0, 0.0]))
    s_b = initial_occupancy(one_stage.with_start([0.0, 1.0]))
    policy = tree_policy(1, 1)
    va, vb = (evaluate_occupancy(one_stage, policy, s, 0) for s in (s_a, s_b))
    assert va == pytest.approx(2.0) and vb != pytest.approx(va)
    for w in (0.5, 0.3):
        mixed = mix_occupancies([s_a, s_b], [w, 1.0 - w])
        value = evaluate_occupancy(one_stage, policy, mixed, 0)
        assert value == pytest.approx(w * va + (1.0 - w) * vb, abs=1e-12)


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
    assert pairing(s1, tables[0]) == pytest.approx(
        evaluate_occupancy(tiger, policy, s1, 0), abs=1e-12
    )


def test_evaluate_history_rejects_horizon_mismatch(tiger):
    short = JointPolicy((PolicyTree(0, 0), PolicyTree(1, 0)))
    with pytest.raises(ValueError, match="horizon"):
        evaluate_occupancy(tiger, short, initial_occupancy(tiger), 0)


def test_evaluate_and_simulate_reject_horizon_mismatch(tiger):
    policy = random_joint_policy(tiger, np.random.default_rng(3))
    short = tiger.with_horizon(1)
    with pytest.raises(ValueError, match="horizon"):
        evaluate_occupancy(short, policy, initial_occupancy(short), 0)
    with pytest.raises(ValueError, match="horizon"):
        simulate(short, policy, episodes=10, seed=0)


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


# -- the categorical draw --------------------------------------------------------


WORD = 2.0**-53  # the spacing of the uniforms Generator.random reads from PCG64 words


class FixedWords:
    """A stand-in bit generator whose uniforms are given, in order, and
    yielded as the PCG64 words ``Generator.random`` reads them from: ``u`` as
    ``u · 2⁵³ << 11``, so each must be a multiple of 2⁻⁵³ in [0, 1)."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random_raw(self, n):
        u = np.broadcast_to(np.asarray(self.draws.pop(0), dtype=float), (n,))
        assert ((u >= 0.0) & (u < 1.0) & (u / WORD % 1.0 == 0.0)).all()
        return (u / WORD).astype(np.uint64) << np.uint64(11)


def uniforms(bits, n):
    """``n`` uniforms read from ``bits`` as ``Generator.random`` reads them."""
    return (bits.random_raw(n) >> np.uint64(11)) * WORD


def on_grid(u, up=False):
    """``u`` moved to the next multiple of 2⁻⁵³ in [0, 1) below it, or above
    it with ``up``."""
    steps = np.ceil(u / WORD) if up else np.floor(u / WORD)
    return np.minimum(steps, 2.0**53 - 1) * WORD


def test_pcg64_words_give_the_uniforms_and_their_bins():
    # Generator.random reads each PCG64 word w as (w >> 11) · 2⁻⁵³, so the
    # draw may read a word where Generator.random would read its uniform
    words = np.random.PCG64(31).random_raw(10**5)
    u = np.random.Generator(np.random.PCG64(31)).random(10**5)
    assert np.array_equal(evaluate._uniforms(words), u)
    assert np.array_equal((words >> np.uint64(11)) * WORD, u)
    # and the top 8 bits are the uniform's bin, on both sides of every
    # edge k / 256: per edge, words whose uniform is one step below it (the
    # largest such word and the smallest), at it, and one step above it
    k = np.arange(1, evaluate._BINS, dtype=np.uint64)
    edge, ulp, one = k << np.uint64(56), np.uint64(2**11), np.uint64(1)
    sides = [(edge - ulp, -WORD), (edge - one, -WORD), (edge, 0.0), (edge + ulp - one, 0.0),
             (edge + ulp, WORD)]
    for w, offset in sides:
        u = evaluate._uniforms(w)
        assert np.array_equal(u, k / 256.0 + offset)
        assert np.array_equal(w >> np.uint64(56), np.floor(256.0 * u).astype(np.uint64))
    # the smallest and largest words: uniforms 0 and 1 - 2⁻⁵³, bins 0 and 255
    ends = np.array([0, 2**64 - 1], dtype=np.uint64)
    assert evaluate._uniforms(ends).tolist() == [0.0, 1.0 - WORD]
    assert (ends >> np.uint64(56)).tolist() == [0, evaluate._BINS - 1]


def naive_draw(r, probs, key):
    """The definition: per episode, the number of its row's cumulative sums
    below its uniform."""
    return (r[:, None] > np.cumsum(probs[key], axis=1)).sum(axis=1)


def last_positive(probs):
    return probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)


def draw_mismatches(draw, n_tables=400, seed=0, edges=False) -> int:
    """Random tables on which ``draw`` and the definition, clamped to each
    row's last positive column, differ: integer weights give zero columns
    and tied cumulative sums, some rows have one positive column, widths run
    from 1; uniforms run up to each row's total and include 0 and each
    cumulative sum itself, or the uniforms next to it where it is not one.
    Half the tables answer with (row, column) codes; a one-row table is
    sometimes drawn without keys.

    With ``edges``, the guide table's edge cases: dyadic weights in units of
    1/256 put the cumulative sums on bin edges (some rows scaled a little
    short of 1, some to half), widths run to 16 and rows to 40, and
    uniforms also fall on bin edges, just below them, at the largest
    uniform a word gives and just past the row's total."""
    rng = np.random.default_rng(seed)
    bins = evaluate._BINS
    bad = 0
    for _ in range(n_tables):
        if edges:
            width, n_rows, n = int(rng.integers(1, 17)), int(rng.integers(1, 41)), 400
            cuts = np.sort(rng.integers(0, bins + 1, (n_rows, width - 1)), axis=1)
            whole = np.hstack([np.zeros((n_rows, 1)), cuts, np.full((n_rows, 1), bins)])
            probs = np.diff(whole, axis=1) / bins
            probs[rng.random(n_rows) < 0.3] *= 1.0 - 2.0**-30
            probs[rng.random(n_rows) < 0.1] *= 0.5
        else:
            width, n_rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 5)), 60
            probs = rng.integers(0, 4, (n_rows, width)).astype(float)
        one_hot = rng.random(n_rows) < 0.3
        probs[one_hot] = np.eye(width)[rng.integers(width, size=one_hot.sum())]
        probs[probs.sum(axis=1) == 0, 0] = 1.0
        if not edges:
            probs /= probs.sum(axis=1, keepdims=True)
        key = rng.integers(n_rows, size=n)
        cum = np.cumsum(probs[key], axis=1)
        r = on_grid(rng.random(n) * cum[:, -1])
        tie = rng.random(n) < 0.4
        r[tie] = on_grid(cum[tie, rng.integers(width, size=n)[tie]], up=rng.random() < 0.5)
        r[rng.random(n) < 0.05] = 0.0
        if edges:
            edge = rng.integers(bins + 1, size=n) / bins
            on, below = rng.random(n) < 0.2, rng.random(n) < 0.1
            r[on] = on_grid(edge[on])
            r[below] = np.maximum(edge[below] - WORD, 0.0)
            past = rng.random(n) < 0.1
            above = on_grid(np.nextafter(cum[past, -1], 2.0), up=True)
            r[past] = np.where(rng.random(past.sum()) < 0.5, 1.0 - WORD, above)
        table = evaluate._cumulative(probs, coded=rng.random() < 0.5)
        want = np.minimum(naive_draw(r, probs, key), last_positive(probs)[key])
        want += key * table.stride
        keys = key * table.scale
        if n_rows == 1 and rng.random() < 0.5:
            keys = None
        got = draw(FixedWords(r), table, n, keys)
        bad += not np.array_equal(got, want)
    return bad


def test_draw_matches_the_definition():
    assert draw_mismatches(evaluate._draw) == 0


def test_draw_control_with_an_off_by_one_column_loop_fails():
    def late_draw(bits, table, n, key=None):
        r = uniforms(bits, n)
        rows = np.zeros(n, dtype=np.intp) if key is None else key // table.scale
        out = np.zeros(n, dtype=np.intp)
        for column in table.cum[1:]:
            out += r > column.take(rows)
        return out + rows * table.stride

    assert draw_mismatches(late_draw) > 0


def test_draw_matches_the_definition_on_guide_table_edges(monkeypatch):
    assert draw_mismatches(evaluate._draw, n_tables=200, seed=1, edges=True) == 0

    # and without a guide, as for a table of more entries than draws,
    # counting every column at once and, past a block's worth of sums, one
    # column at a time
    def unguided_draw(bits, table, n, key=None):
        rows = None if key is None else key // table.scale
        return evaluate._draw(bits, table._replace(guide=None), n, rows)

    assert draw_mismatches(unguided_draw, n_tables=200, seed=1, edges=True) == 0
    monkeypatch.setattr(evaluate, "_BLOCK", 0)
    assert draw_mismatches(unguided_draw, n_tables=200, seed=1, edges=True) == 0


def test_draw_control_that_trusts_the_guide_in_every_bin_fails():
    # every uniform answered as its bin's low edge, as a guide would answer
    # it with no fallback where a cumulative sum lies inside the bin
    def trusting_draw(bits, table, n, key=None):
        low = (bits.random_raw(n) >> np.uint64(56)) / evaluate._BINS
        return evaluate._draw(FixedWords(low), table, n, key)

    assert draw_mismatches(trusting_draw) > 0
    assert draw_mismatches(trusting_draw, n_tables=200, seed=1, edges=True) > 0


def test_a_table_drawn_fewer_times_than_its_guide_has_entries_builds_none(tiger, monkeypatch):
    probs = np.full((4, 2), 0.5)
    assert evaluate._cumulative(probs, 4 * evaluate._BINS).guide is not None
    assert evaluate._cumulative(probs, 4 * evaluate._BINS - 1).guide is None
    # tiger h=3 draws from each agent's rules (1, 6 and 36 rows), the
    # dynamics (18 rows) and the start (1 row)
    built = []
    cumulative = evaluate._cumulative

    def recording(probs, draws, coded=False):
        table = cumulative(probs, draws, coded)
        built.append((len(probs), table.guide is not None))
        return table

    monkeypatch.setattr(evaluate, "_cumulative", recording)
    m = tiger.with_horizon(3)
    policy = random_joint_policy(m, np.random.default_rng(14))
    simulate(m, policy, 1000, 0)
    simulate(m, policy, 18 * evaluate._BINS, 0)
    rows = [1, 6, 36, 1, 6, 36, 18, 1]
    assert built == [(n, n <= 3) for n in rows] + [(n, n <= 18) for n in rows]


def test_draw_stays_on_a_row_that_sums_to_less_than_one():
    # validation accepts sums within 1e-9 of 1; a uniform past the row's
    # total lands on its last positive column, not past the row
    probs = np.array([[0.3, 0.3, 0.4 - 5e-10, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
    key = np.array([0, 1, 0])
    r = 1.0 - 1e-12
    assert naive_draw(np.full(3, r), probs, key).tolist() == [5, 0, 5]
    table = evaluate._cumulative(probs)
    got = evaluate._draw(FixedWords(r), table, 3, key * table.scale)
    assert got.tolist() == [2, 0, 2]


def test_simulate_keeps_a_short_rule_on_its_agent(tiger, monkeypatch):
    # agent 2's rule sums to 1 - 5e-10; its draw past the total stays on its
    # last positive action instead of carrying into agent 1's digit of the
    # joint action (both open the left door, not agent 1 opening it alone)
    m = tiger.with_horizon(1)
    root = [PrivateHistory(i) for i in range(2)]

    def policy(dist):
        rules = [DecisionRule(0, 0, {root[0]: (0.0, 1.0, 0.0)}), DecisionRule(1, 0, {root[1]: dist})]
        return JointPolicy(tuple(BehavioralPolicy(i, (rule,)) for i, rule in enumerate(rules)))

    # every draw (the start, then each agent's action) reads 1 - 1e-12
    stubs = lambda rng, n_draws, episodes: [FixedWords(1.0 - 1e-12) for _ in range(n_draws)]
    monkeypatch.setattr(evaluate, "_cursors", stubs)
    rng = np.random.default_rng(0)
    short = evaluate._simulate_pure(m, policy((0.5, 0.5 - 5e-10, 0.0)), 4, rng)
    exact = evaluate._simulate_pure(m, policy((0.5, 0.5, 0.0)), 4, rng)
    assert np.array_equal(short, exact)
    assert np.array_equal(exact, np.full((2, 4), 2.0))  # treasure behind the left door


class Rows(NamedTuple):
    """A table as the definition draws from it: its rows, uncumulated, and
    the stride its answers are coded with; keys hold rows."""

    probs: np.ndarray
    stride: int
    scale: int = 1

    @staticmethod
    def of(probs, draws, coded=False):
        return Rows(probs, probs.shape[1] if coded else 0)

    @staticmethod
    def draw(bits, table, n, key=None):
        rows = np.zeros(n, dtype=np.intp) if key is None else key
        return naive_draw(uniforms(bits, n), table.probs, rows) + rows * table.stride


def test_simulate_draws_exactly_as_the_definition(tiger, monkeypatch):
    # the same episodes, bit for bit, when every draw gathers its rows and
    # counts them by the definition: a small random model at 500 episodes,
    # and the dynamics workload's shapes under full-support policies at
    # 2 x 10^4 (tiger, and 3 x 3 actions with 2 public observations)
    rng = np.random.default_rng(11)
    tiger3 = tiger.with_horizon(3)
    small = random_posg(rng, n_states=2, n_actions=(2, 3), n_obs=(2, 2), n_public=2, horizon=3)
    wide = random_posg(rng, n_states=2, n_actions=(3, 3), n_obs=(2, 2), n_public=2, horizon=3)
    cases = [(m, random_joint_policy(m, rng), n) for m, n in ((tiger3, 500), (small, 500))]
    cases += [(m, random_joint_policy(m, rng), 20_000) for m in (tiger3, wide)]
    fast = [evaluate._simulate_pure(m, p, n, np.random.default_rng(3)) for m, p, n in cases]
    trees = PolicyMixture(0, ((0.25, PolicyTree(0, 0)), (0.75, PolicyTree(0, 1))))
    rules = PolicyMixture(0, ((0.4, cases[2][1].agents[0]), (0.6, cases[0][1].agents[0])))
    mixes = [
        (tiger.with_horizon(1), 300, JointPolicy((trees, PolicyTree(1, 1)))),
        (tiger3, 20_000, JointPolicy((rules, cases[2][1].agents[1]))),
    ]
    fast_mixes = [simulate(m, mix, n, 4) for m, n, mix in mixes]
    monkeypatch.setattr(evaluate, "_cumulative", Rows.of)
    monkeypatch.setattr(evaluate, "_draw", Rows.draw)
    for (m, p, n), returns in zip(cases, fast):
        slow = evaluate._simulate_pure(m, p, n, np.random.default_rng(3))
        assert np.array_equal(returns, slow)
    for (m, n, mix), result in zip(mixes, fast_mixes):
        assert simulate(m, mix, n, 4) == result


def step_major_returns(model, policy, episodes, rng, horizon) -> np.ndarray:
    """The returns ``_simulate_pure`` must give, by its draws' definition:
    all episodes at once, one draw after another from ``rng`` (the start,
    then per step each agent's action and, below the horizon, the outcome),
    each reading one uniform per episode and counting its row's cumulative
    sums up to the row's last positive column."""

    def draw(probs, key):
        r = rng.random(len(key))
        return np.minimum(naive_draw(r, probs, key), last_positive(probs)[key])

    n_agents, n_x, n_z = model.n_agents, model.n_states, model.n_joint_obs
    n_u = [len(actions) for actions in model.actions]
    rules = [
        rule_table(model, i, agent_rules(model, p), [PrivateHistory(i)])
        for i, p in enumerate(policy.agents)
    ]
    dynamics = model._dynamics.reshape(model.n_joint_actions * n_x, n_x * n_z)
    own_obs = [[model.agent_obs_of_joint(i, z) for z in range(n_z)] for i in range(n_agents)]
    own_obs = np.array(own_obs, dtype=np.intp)
    rewards = model.rewards.reshape(n_agents, -1)
    x = draw(model.start[None, :], np.zeros(episodes, dtype=np.intp))
    rows = [np.zeros(episodes, dtype=np.intp)] * n_agents
    returns = np.zeros((n_agents, episodes))
    gamma_t = 1.0
    for t in range(horizon):
        us = [draw(rules[i].rows[t], rows[i]) for i in range(n_agents)]
        u = np.zeros(episodes, dtype=np.intp)
        for i in range(n_agents):
            u = u * n_u[i] + us[i]
        returns += gamma_t * rewards[:, x * model.n_joint_actions + u]
        gamma_t *= model.discount
        if t + 1 < horizon:
            flat = draw(dynamics, u * n_x + x)
            x = flat // n_z
            rows = [
                rules[i].children[t][rows[i], us[i], own_obs[i][flat % n_z]]
                for i in range(n_agents)
            ]
    return returns


def step_major_simulate(model, policy, episodes, seed) -> evaluate.SimResult:
    """``simulate`` of a mixture by its definition: the picks, then each
    component's episodes, from one stream (``step_major_returns``), and the
    statistics over all agents at once."""
    rng = np.random.Generator(np.random.PCG64(seed))
    returns = np.zeros((model.n_agents, episodes))
    combos = list(policy.pure_expansions())
    weights = np.array([[w for w, _ in combos]])
    picks = naive_draw(rng.random(episodes), weights, np.zeros(episodes, dtype=np.intp))
    picks = np.minimum(picks, last_positive(weights)[0])
    for c, (_, pure) in enumerate(combos):
        mask = picks == c
        if mask.any():
            returns[:, mask] = step_major_returns(model, pure, int(mask.sum()), rng, policy.horizon)
    stderrs = [0.0] * model.n_agents
    if episodes > 1:
        stderrs = returns.std(axis=1, ddof=1) / np.sqrt(episodes)
    return evaluate.SimResult(
        episodes, tuple(map(float, returns.mean(axis=1))), tuple(map(float, stderrs)), seed
    )


def step_major_cases(tiger):
    """One-, two- and three-agent models under full-support policies, and
    two mixtures: of trees at h=1, and of behavioural policies for both
    agents at h=3."""
    rng = np.random.default_rng(17)
    tiger3 = tiger.with_horizon(3)
    alone = random_posg(rng, n_states=3, n_actions=(3,), n_obs=(2,), n_public=2, horizon=3)
    three = random_posg(rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 2, 2), horizon=3)
    pures = [(m, random_joint_policy(m, rng)) for m in (alone, tiger3, three)]
    one, other = pures[1][1], random_joint_policy(tiger3, rng)
    trees = PolicyMixture(0, ((0.25, PolicyTree(0, 0)), (0.75, PolicyTree(0, 1))))
    mixes = [
        (tiger.with_horizon(1), JointPolicy((trees, PolicyTree(1, 1)))),
        (tiger3, JointPolicy(tuple(
            PolicyMixture(i, ((0.4, one.agents[i]), (0.6, other.agents[i]))) for i in range(2)
        ))),
    ]
    return pures, mixes


BLOCK = evaluate._BLOCK


@pytest.mark.parametrize("episodes", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_simulate_in_blocks_draws_as_one_stream_step_major(tiger, episodes):
    # every block reads each draw's uniforms from that draw's cursor, so
    # the episodes are those of one stream drawn step-major, bit for bit,
    # on either side of every block edge; the caller's generator ends where
    # the stream does, so two components run in turn draw as one stream
    pures, mixes = step_major_cases(tiger)
    for m, p in pures:
        fast, slow = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(2):
            got = evaluate._simulate_pure(m, p, episodes, fast)
            assert np.array_equal(got, step_major_returns(m, p, episodes, slow, m.horizon))
            assert fast.bit_generator.state == slow.bit_generator.state
    for m, mix in mixes:
        assert simulate(m, mix, episodes, 4) == step_major_simulate(m, mix, episodes, 4)


def test_simulate_control_that_reads_one_stream_block_major_fails(tiger, monkeypatch):
    # every draw of every block from one shared stream: the same episodes
    # while one block holds them all, others past the first block edge
    monkeypatch.setattr(
        evaluate, "_cursors", lambda rng, n_draws, episodes: [rng.bit_generator] * n_draws
    )
    (_, (m, p), _), _ = step_major_cases(tiger)

    def same(episodes):
        got = evaluate._simulate_pure(m, p, episodes, np.random.default_rng(21))
        want = step_major_returns(m, p, episodes, np.random.default_rng(21), m.horizon)
        return np.array_equal(got, want)

    assert same(BLOCK)
    assert not same(BLOCK + 1)
    assert not same(3 * BLOCK + 7)


def test_simulate_gathers_each_distinct_reward_table_once(tiger, monkeypatch):
    # agents with equal reward tables share one gather per step, the rest
    # keep their own: a team game, a zero-sum game, three agents of which
    # the first and the last share a table, and a general-sum model
    rng = np.random.default_rng(19)
    three = random_posg(rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 2, 2), horizon=3)
    shared = dataclasses.replace(three, rewards=three.rewards[[0, 1, 0]])
    general = random_posg(rng, n_states=3, n_actions=(2, 3), n_obs=(2, 2), horizon=3)
    zero_sum = dataclasses.replace(
        general, rewards=np.stack([general.rewards[0], -general.rewards[0]])
    )
    cases = [(tiger.with_horizon(3), [[0, 1]]), (zero_sum, [[0], [1]]), (shared, [[0, 2], [1]]),
             (general, [[0], [1]])]

    def same(m):
        p = random_joint_policy(m, np.random.default_rng(22))
        got = evaluate._simulate_pure(m, p, 1000, np.random.default_rng(21))
        return np.array_equal(got, step_major_returns(m, p, 1000, np.random.default_rng(21), 3))

    for m, agents in cases:
        tables, got = evaluate._reward_tables(m)
        assert got == agents and len(tables) == len(agents)
        for k, owners in enumerate(agents):
            assert all(np.array_equal(tables[k], m.rewards[i]) for i in owners)
        assert same(m)
    # control: every agent adding agent 1's gather passes on the team game
    # and fails on the general-sum model
    monkeypatch.setattr(
        evaluate, "_reward_tables", lambda m: (m.rewards[:1], [list(range(m.n_agents))])
    )
    assert same(tiger.with_horizon(3)) and not same(general)


def test_simulate_counts_at_least_what_it_holds(tiger):
    # the byte count against the tracemalloc peak at 2 x 10^5 and 2 x 10^6
    # episodes, on the dynamics workload's shapes, a one-agent model and a
    # mixture
    rng = np.random.default_rng(12)
    tiger3 = tiger.with_horizon(3)
    wide = random_posg(rng, n_states=2, n_actions=(3, 3), n_obs=(2, 2), n_public=2, horizon=3)
    alone = random_posg(rng, n_states=2, n_actions=(3,), n_obs=(2,), horizon=3)
    runs = [(m, random_joint_policy(m, rng)) for m in (tiger3, wide, alone)]
    one, other = random_joint_policy(tiger3, rng), random_joint_policy(tiger3, rng)
    mixed = PolicyMixture(0, ((0.5, one.agents[0]), (0.5, other.agents[0])))
    runs.append((tiger3, JointPolicy((mixed, one.agents[1]))))
    for episodes in (200_000, 2_000_000):
        for m, policy in runs:
            tracemalloc.start()
            try:
                simulate(m, policy, episodes, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= evaluate._simulate_bytes(m, episodes)


def test_simulate_refuses_before_its_first_draw(tiger, monkeypatch):
    policy = random_joint_policy(tiger, np.random.default_rng(13))
    draws = []
    draw = evaluate._draw
    monkeypatch.setattr(evaluate, "_draw", lambda *args: draws.append(1) or draw(*args))
    with pytest.raises(CapExceededError) as info:
        simulate(tiger, policy, 10**12, 0)
    assert info.value.count == evaluate._simulate_bytes(tiger, 10**12) and not draws
    # both sides of the cap at 1,000 episodes: 1,000 x (8 x (2 x 2 + 2) + 1)
    # bytes held whole and 8 x 2^14 x (4 x 2 + 10) for a block
    n_bytes = evaluate._simulate_bytes(tiger, 1000)
    assert n_bytes == 2_408_296
    monkeypatch.setattr(evaluate, "CAP_BYTES", n_bytes - 1)
    with pytest.raises(CapExceededError):
        simulate(tiger, policy, 1000, 0)
    assert not draws
    monkeypatch.setattr(evaluate, "CAP_BYTES", n_bytes)
    assert simulate(tiger, policy, 1000, 0).episodes == 1000 and draws


def test_simulate_names_the_agent_and_step_of_an_undefined_history(tiger):
    # simulate reads each rule as rows below the empty history: a played
    # history without a rule fails as DecisionRule.dist does, naming the
    # agent and the step, the empty history at t=0 included; the children
    # of an action never played need no rule
    m = tiger.with_horizon(2)
    listen = (1.0, 0.0, 0.0)

    def policy(first, second, roots=(0, 1)):
        rules = [
            (DecisionRule(i, 0, {PrivateHistory(i): listen} if i in roots else {}),
             DecisionRule(i, 1, {PrivateHistory(i, ((0, z),)): listen for z in (first, second)}))
            for i in range(2)
        ]
        return JointPolicy(tuple(BehavioralPolicy(i, r) for i, r in enumerate(rules)))

    with pytest.raises(UndefinedDecisionRuleError, match=r"for agent 0 .*\(t=1\)"):
        simulate(m, policy(0, 0), 50, 1)
    with pytest.raises(UndefinedDecisionRuleError, match=r"for agent 1 .*\(t=0\)"):
        simulate(m, policy(0, 1, roots=(0,)), 50, 1)
    # listening twice pays the same in every episode
    defined = simulate(m, policy(0, 1), 50, 1)
    assert defined.means[0] == evaluate_occupancy(m, policy(0, 1), initial_occupancy(m), 0)


def test_simulate_builds_no_history(tiger, monkeypatch):
    # simulate and exact evaluation look each agent's rules up by the
    # histories' steps (rule_table): neither builds a history nor reads a
    # rule through DecisionRule.dist
    m = tiger.with_horizon(4)
    policy = random_joint_policy(m, np.random.default_rng(14))
    calls = []
    child, dist = PrivateHistory.child, DecisionRule.dist
    monkeypatch.setattr(PrivateHistory, "child", lambda *a: calls.append("child") or child(*a))
    monkeypatch.setattr(DecisionRule, "dist", lambda *a: calls.append("dist") or dist(*a))
    simulate(m, policy, 1000, 2)
    evaluate_occupancy(m, policy, initial_occupancy(m), 0)
    assert calls == []
    value_tables(m, policy.joint_rules(m), 0)  # control: the tables' keys are histories
    assert "child" in calls


def pull_counts(monkeypatch) -> list:
    """Every byte count exact evaluation checks from here on, in call order."""
    counts, count = [], evaluate._pull_bytes
    monkeypatch.setattr(evaluate, "_pull_bytes", lambda *a: counts.append(count(*a)) or counts[-1])
    return counts


@pytest.mark.parametrize("h", [3, 4, 5])
def test_exact_evaluation_counts_at_least_what_it_holds(tiger, monkeypatch, h):
    # the largest count of an exact evaluation against its tracemalloc
    # peak; at h=5 the largest push has 6,345,216 rows and its count stays
    # within CAP_BYTES
    m = tiger.with_horizon(h)
    policy = random_joint_policy(m, np.random.default_rng(15))
    counts = pull_counts(monkeypatch)
    tracemalloc.start()
    try:
        evaluate_occupancy(m, policy, initial_occupancy(m), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(counts) <= evaluate.CAP_BYTES


@pytest.mark.parametrize("h", [3, 4])
def test_value_tables_count_at_least_what_they_hold(tiger, monkeypatch, h):
    # the largest count of value_tables against its tracemalloc peak, which
    # comes after the last step: the grids of every state at each history,
    # and the tables' dicts of (state, joint history) entries
    m = tiger.with_horizon(h)
    rules = random_joint_policy(m, np.random.default_rng(15)).joint_rules(m)
    counts = pull_counts(monkeypatch)
    tracemalloc.start()
    try:
        value_tables(m, rules, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(counts) <= evaluate.CAP_BYTES


def test_full_support_count_is_exact_evaluations(tiger, monkeypatch):
    # the count made without a policy is the one exact evaluation of a
    # full-support policy makes, step by step: tiger from h=1 to h=4, tiger
    # from one start state (its other pruned), public observations, three
    # agents and a model whose dynamics have zeros
    rng = np.random.default_rng(18)
    sparse = random_posg(rng, n_states=3, n_actions=(2, 2), n_obs=(2, 2), horizon=3)
    kept = sparse.transition == sparse.transition.max(axis=2, keepdims=True)
    kept |= sparse.transition > 0.3
    transition = np.where(kept, sparse.transition, 0.0)
    transition /= transition.sum(axis=2, keepdims=True)
    sparse = dataclasses.replace(sparse, transition=transition)
    models = [tiger.with_horizon(h) for h in range(1, 5)]
    models += [
        tiger.with_horizon(3).with_start([1.0, 0.0]),
        random_posg(rng, n_states=2, n_actions=(3, 3), n_obs=(2, 2), n_public=2, horizon=3),
        random_posg(rng, n_states=2, n_actions=(2, 2, 2), n_obs=(2, 2, 2), horizon=2),
        sparse,
    ]
    counts = pull_counts(monkeypatch)
    for m in models:
        evaluate.check_full_support_fits(m)
        counted = counts[:]
        counts.clear()
        evaluate_occupancy(m, random_joint_policy(m, rng), initial_occupancy(m), 0)
        assert counted == counts and len(counts) == m.horizon
        counts.clear()
    # refused at the step exact evaluation is refused at, with its count
    m = tiger.with_horizon(4)
    evaluate_occupancy(m, random_joint_policy(m, rng), initial_occupancy(m), 0)
    largest = max(counts)
    monkeypatch.setattr(evaluate, "CAP_BYTES", largest - 1)
    with pytest.raises(CapExceededError) as info:
        evaluate.check_full_support_fits(m)
    assert info.value.count == largest
    monkeypatch.setattr(evaluate, "CAP_BYTES", largest)
    evaluate.check_full_support_fits(m)


def test_exact_evaluation_refuses_before_the_push_over_its_budget(tiger, monkeypatch):
    # both sides of the budget at h=3: a cap one byte under the largest
    # count refuses at that step, before its push; at the count it passes
    m = tiger.with_horizon(3)
    policy = random_joint_policy(m, np.random.default_rng(16))
    s0 = initial_occupancy(m)
    counts = pull_counts(monkeypatch)
    value = evaluate_occupancy(m, policy, s0, 0)
    largest = max(counts)
    pushes = []
    push = evaluate.next_level
    monkeypatch.setattr(evaluate, "next_level", lambda *a, **k: pushes.append(1) or push(*a, **k))
    monkeypatch.setattr(evaluate, "CAP_BYTES", largest - 1)
    with pytest.raises(CapExceededError) as info:
        evaluate_occupancy(m, policy, s0, 0)
    assert info.value.count == largest and len(pushes) == counts.index(largest)
    monkeypatch.setattr(evaluate, "CAP_BYTES", largest)
    assert evaluate_occupancy(m, policy, s0, 0) == value


def test_simulate_rejects_bad_episode_count(one_stage):
    with pytest.raises(ValueError):
        simulate(one_stage, tree_policy(0, 0), episodes=0, seed=0)
