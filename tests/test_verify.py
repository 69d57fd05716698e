import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games import solve, verify
from occupancy_games.errors import CapExceededError, ModelValidationError, UnknownSuiteError
from occupancy_games.evaluate import occupancy_value, value_tables
from occupancy_games.occupancy import initial_occupancy, level_of, step
from occupancy_games.policies import BehavioralPolicy, DecisionRule, PrivateHistory, agent_rules
from occupancy_games.sampling import random_behavioral_policy, random_decision_rule, random_posg
from occupancy_games.verify import (
    check_lipschitz,
    check_master_structure,
    check_slave_structure,
    check_sufficiency_master,
    check_sufficiency_private,
    lipschitz_constant,
    report_lines,
    run_suite,
)

from conftest import code_names, load, pairing, recorded_pushes, restricted_start


def test_sufficiency_master_tiger(tiger):
    report = check_sufficiency_master(tiger, n_samples=25, seed=7, fixture="tiger")
    assert report.passed and report.max_violation <= 1e-9


def test_sufficiency_master_single_state(minimal):
    report = check_sufficiency_master(minimal.with_horizon(2), n_samples=5, seed=0)
    assert report.max_violation == 0.0


def test_sufficiency_master_negative_control(tiger):
    report = check_sufficiency_master(tiger, n_samples=3, seed=7, negative_control=True)
    assert not report.passed


def test_sufficiency_private_tiger(tiger):
    for agent in range(2):
        report = check_sufficiency_private(tiger, agent, n_samples=25, seed=11)
        assert report.passed, report.line()


def test_sufficiency_private_one_sided(one_sided):
    report = check_sufficiency_private(one_sided, 1, n_samples=25, seed=3)
    assert report.passed and report.max_violation <= 1e-9


def test_sufficiency_private_negative_control(tiger):
    report = check_sufficiency_private(
        tiger, 0, n_samples=3, seed=7, negative_control=True
    )
    assert not report.passed


def test_sufficiency_private_pushes_once_per_step(tiger, monkeypatch):
    # private_step returns every own observation's branch from one push, so
    # the check pushes once per prefix step (in private_occupancy) and once
    # per sample
    prefix, reach = [], verify.private_occupancy
    monkeypatch.setattr(verify, "private_occupancy", lambda m, profiles, o_i: (
        prefix.append(len(o_i.steps)) or reach(m, profiles, o_i)
    ))
    pushes = recorded_pushes(monkeypatch)
    report = check_sufficiency_private(tiger.with_horizon(3), 0, n_samples=10, seed=1)
    assert report.passed and len(prefix) == 10
    assert len(pushes) == sum(prefix) + 10 == 19


def test_sufficiency_checks_enumerate_each_raw_step_once(tiger, monkeypatch):
    # one _outcomes pass per raw step gives both the observation law and the
    # next measures: t prefix steps and the compared step, per sample
    events, prefix, outcomes = [], verify._raw_prefix, verify._outcomes
    monkeypatch.setattr(verify, "_raw_prefix", lambda m, rng, t, *rest: (
        events.append(t) or prefix(m, rng, t, *rest)
    ))
    monkeypatch.setattr(verify, "_outcomes", lambda *args: (
        events.append(None) or outcomes(*args)
    ))
    m = tiger.with_horizon(3)
    assert check_sufficiency_master(m, n_samples=4, seed=3).passed
    assert check_sufficiency_private(m, 1, n_samples=6, seed=2).passed
    starts = [k for k, e in enumerate(events) if e is not None] + [len(events)]
    samples = [(events[a], b - a - 1) for a, b in zip(starts, starts[1:])]
    assert len(samples) == 10 and {t for t, _ in samples} == {0, 1, 2}
    assert all(calls == t + 1 for t, calls in samples), samples


def test_sufficiency_private_propagates_step_faults(tiger, monkeypatch):
    # the check catches nothing that private_step raises
    def broken(*args, **kwargs):
        raise RuntimeError("broken private_step")

    monkeypatch.setattr(verify, "private_step", broken)
    with pytest.raises(RuntimeError, match="broken private_step"):
        check_sufficiency_private(tiger, 0, n_samples=3, seed=7)


def test_sufficiency_with_public_observations():
    rng = np.random.default_rng(42)
    m = random_posg(rng, n_states=2, n_obs=(2, 2), n_public=2, horizon=2)
    assert check_sufficiency_master(m, n_samples=20, seed=5).passed
    assert check_sufficiency_private(m, 0, n_samples=20, seed=5).passed


def test_slave_structure_tiger(tiger):
    rng = np.random.default_rng(8)
    others = {1: random_behavioral_policy(tiger, 1, rng)}
    report = check_slave_structure(tiger, others, 0, n_samples=15, seed=2)
    assert report.passed
    assert report.notes["linearity_violation"] <= 1e-9
    assert report.notes["pwlc_violation"] <= 1e-9


def test_slave_structure_negative_control(tiger):
    rng = np.random.default_rng(8)
    others = {1: random_behavioral_policy(tiger, 1, rng)}
    report = check_slave_structure(
        tiger, others, 0, n_samples=3, seed=2, negative_control=True
    )
    assert not report.passed


def test_master_structure_dec(tiger):
    report = check_master_structure(tiger, "common", n_samples=15, seed=3)
    assert report.passed, report.line()


def test_master_structure_zs_grid(one_stage_zs):
    report = check_master_structure(one_stage_zs, "zerosum", n_samples=15, seed=3)
    assert report.passed
    assert report.notes["nonconvexity_gap"] > 0.0
    assert report.notes["grid_points"] == 101


def test_master_structure_zs_tiger(tiger_zs):
    report = check_master_structure(tiger_zs, "zerosum", n_samples=10, seed=3)
    assert report.passed, report.line()


# -- the zero-sum master check's marginal swap -----------------------------------


def marginal_of(s, agent) -> dict:
    out = {}
    for (_, o), p in s.entries.items():
        out[o.privates[agent]] = out.get(o.privates[agent], 0.0) + p
    return out


def swap_case(seed):
    """A random two-agent state one step in, and a seeded generator."""
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=3, horizon=2)
    rules = tuple(random_decision_rule(m, i, 0, rng) for i in range(2))
    branches = step(m, initial_occupancy(m), rules)
    return branches[int(rng.integers(len(branches)))][2], rng


def test_marginal_swap_of_the_own_marginal_gives_back_the_state(tiger):
    # agent 2 opens left: two histories of mass 0.5 each, so the swap's
    # division and product are exact; entries go by history in steps order,
    # then in the state's own order
    rules = tuple(
        DecisionRule(i, 0, {PrivateHistory(i): tuple(np.eye(3)[u])})
        for i, u in enumerate((0, 1))
    )
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules)
    anchors, with_marginal = verify._marginal_swap(s1, 1)
    marginal = marginal_of(s1, 1)
    assert [h.steps for h in anchors] == [((1, 0),), ((1, 1),)]
    back = with_marginal([marginal[h] for h in anchors])
    assert back.t == s1.t and back.entries == s1.entries
    assert list(back.entries) == [
        k for h in anchors for k in s1.entries if k[1].privates[1] == h
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_marginal_swap_sets_the_marginal_and_keeps_each_conditional(seed):
    s1, rng = swap_case(seed)
    anchors, with_marginal = verify._marginal_swap(s1, 1)
    marginal = marginal_of(s1, 1)
    assert anchors == sorted(marginal, key=lambda h: h.steps)
    # the own marginal back, to the rounding of one division and one product
    back = with_marginal([marginal[h] for h in anchors])
    assert back.entries.keys() == s1.entries.keys()
    for k, v in s1.entries.items():
        assert abs(back.entries[k] - v) <= 2 * np.spacing(v)
    # new weights: agent 2's marginal is those weights, each history's
    # conditional stays as it was
    weights = rng.dirichlet(np.ones(len(anchors)))
    swapped = with_marginal(weights)
    assert swapped.entries.keys() == s1.entries.keys()
    new = marginal_of(swapped, 1)
    for h, w in zip(anchors, weights):
        assert new[h] == pytest.approx(w, rel=1e-12, abs=1e-300)
    for k, v in s1.entries.items():
        h = k[1].privates[1]
        assert swapped.entries[k] / new[h] == pytest.approx(v / marginal[h], rel=1e-12)


def test_master_structure_zs_swaps_the_opponent_marginal(tiger_zs, monkeypatch):
    swaps = []
    swap = verify._marginal_swap
    monkeypatch.setattr(
        verify, "_marginal_swap", lambda s, agent: swaps.append(agent) or swap(s, agent)
    )
    assert check_master_structure(tiger_zs, "zerosum", n_samples=3, seed=3).passed
    assert swaps == [1, 1, 1]


@pytest.mark.parametrize("name", ["one_stage_zs", "tiger_zs"])
def test_master_structure_zs_refuses_a_restricted_g(request, monkeypatch, name):
    # the max-of-concave certificates price leader plans on the G that
    # zero_sum_value_from returns.  With the loop forced to start from the
    # seed pair at these depth-1 states (the whole pair counted over any
    # cap), that G lacks the follower replies outside the loop's sets: the
    # check refuses (exit 3) and does not pass
    model = request.getfixturevalue(name)
    assert check_master_structure(model, "zerosum", n_samples=3, seed=3).passed
    restricted_start(monkeypatch)
    with pytest.raises(CapExceededError, match="sequence form of the leader-plan check"):
        check_master_structure(model, "zerosum", n_samples=3, seed=3)
    t = model.horizon - 1  # the priced states' step: depth 1 below them
    s, _ = verify._sample_prefix_occupancy(model, t, np.random.default_rng(0))
    _, sol, _ = solve.zero_sum_value_from(model, s)
    assert sol.metadata["method"] == "sequence-form-double-oracle"


def test_master_structure_stackelberg(st_tiger):
    report = check_master_structure(st_tiger, "stackelberg", n_samples=10, seed=3)
    assert report.passed, report.line()


def test_master_structure_stackelberg_needs_two_steps(st_tiger):
    # at horizon 1 the only state is the initial one: nothing to mix, so the
    # property is refused rather than passed with nothing checked
    short = st_tiger.with_horizon(1)
    with pytest.raises(ValueError, match="horizon >= 2"):
        check_master_structure(short, "stackelberg", n_samples=3)
    assert not verify._applies(short, "master") and verify._applies(st_tiger, "master")
    names = [r.name for r in run_suite(short, "all", n_samples=2)]
    assert names and not any(name.startswith("master") for name in names)
    with pytest.raises(UnknownSuiteError, match="at horizon 1"):
        verify.selected_suites(short, "master")


def test_master_structure_criterion_mismatch(tiger):
    with pytest.raises(ValueError, match="criterion mismatch"):
        check_master_structure(tiger, "zerosum")


def test_master_structure_negative_controls(tiger, tiger_zs, st_tiger):
    for model, crit in ((tiger, "common"), (tiger_zs, "zerosum"), (st_tiger, "stackelberg")):
        report = check_master_structure(
            model, crit, n_samples=3, seed=3, negative_control=True
        )
        assert not report.passed, (crit, report.line())


def test_lipschitz_tiger(tiger_zs):
    report = check_lipschitz(tiger_zs, n_samples=15, seed=5)
    assert report.passed
    assert report.notes["norm"] == "l1"
    assert report.notes["kappa"]["1"] == pytest.approx(2.0)


def test_lipschitz_negative_control(tiger_zs):
    report = check_lipschitz(tiger_zs, n_samples=3, seed=5, negative_control=True)
    assert not report.passed


@pytest.mark.parametrize("scale", [100.0, 1e4])
def test_lipschitz_control_fails_the_check_at_any_reward_scale(tiger_zs, scale):
    # kappa_t grows with the rewards; a corruption of 100 + 4 kappa_t still
    # clears |v_a - v_b| + kappa_t ||s_a - s_b||_1 <= 4 kappa_t by 100
    scaled = dataclasses.replace(tiger_zs, rewards=tiger_zs.rewards * scale)
    reports = {r.name: r for r in run_suite(scaled, "lipschitz,controls", n_samples=3)}
    assert reports["lipschitz-zerosum"].passed
    control = reports["lipschitz-zerosum-negative-control"]
    assert control.passed, control.line()
    assert control.notes["corrupted_check_violation"] >= 100.0


def test_dec_structure_solves_each_state_once(tiger, monkeypatch):
    # 4 samples of (s_a, s_b, their mixture); the pwlc certificate of the
    # first 8 samples reuses s_a's value
    solved, real = [], verify.dec_value_from

    def counted(model, s):
        solved.append(s)
        return real(model, s)

    monkeypatch.setattr(verify, "dec_value_from", counted)
    report = check_master_structure(tiger, "common", n_samples=4, seed=3)
    assert report.passed and len(solved) == 12


def test_horizon_zero_is_applied_not_ignored(tiger_zs):
    with pytest.raises(ModelValidationError, match="horizon must be >= 1"):
        check_lipschitz(tiger_zs, horizon=0, n_samples=1)
    with pytest.raises(ModelValidationError, match="horizon must be >= 1"):
        check_master_structure(tiger_zs, horizon=0, n_samples=1)


def test_lipschitz_requires_zerosum(tiger):
    with pytest.raises(ValueError):
        check_lipschitz(tiger)


def test_lipschitz_constant_values():
    assert lipschitz_constant(0.9, 2.0, 3, 0) == pytest.approx(5.42)
    assert lipschitz_constant(1.0, 2.0, 3, 1) == 4.0  # undiscounted limit
    assert lipschitz_constant(0.5, 1.0, 2, 1) == pytest.approx(1.0)


def test_run_suite_all_passes(tiger):
    reports = run_suite(tiger, "all", seed=7, n_samples=8)
    assert reports and all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "sufficiency-master" in names
    assert "master-structure-common" in names


def test_run_suite_every_suite_and_control_passes_on_dec_tiger():
    m = load("dec-tiger")
    reports = run_suite(m, verify.selected_suites(m, "all") + ["controls"], n_samples=8)
    assert len(reports) == 10 and all(r.passed for r in reports), report_lines(reports)


def test_run_suite_reproducible(tiger_zs):
    a = report_lines(run_suite(tiger_zs, "all", seed=9, n_samples=5))
    b = report_lines(run_suite(tiger_zs, "all", seed=9, n_samples=5))
    assert a == b


def test_run_suite_empty_selection(tiger):
    assert run_suite(tiger, [], seed=0) == []


def test_run_suite_unknown_name(tiger):
    with pytest.raises(UnknownSuiteError):
        run_suite(tiger, "bogus", seed=0)


def test_run_suite_controls_fail_the_corrupted_checks(tiger_zs):
    reports = run_suite(tiger_zs, "controls", seed=4, n_samples=3)
    assert reports and all(r.passed for r in reports)
    assert all(r.name.endswith("negative-control") for r in reports)


@pytest.mark.parametrize(
    "name, horizon",
    [("tiger", None), ("tiger-zs", None), ("tiger-one-stage", None),
     ("stackelberg-tiger", None), ("stackelberg-tiger", 1)],
)
def test_each_check_has_one_control_from_the_same_call(name, horizon):
    model = load(name)
    model = model if horizon is None else model.with_horizon(horizon)
    checks = run_suite(model, "all", seed=3, n_samples=1)
    controls = run_suite(model, "controls", seed=3)
    assert [c.name for c in controls] == [f"{r.name}-negative-control" for r in checks]
    assert [c.seed for c in controls] == [r.seed for r in checks]
    assert all(c.passed for c in controls), report_lines(controls)


def test_tiger_duel_passes_every_check_and_fails_every_control():
    # the zero-sum model with belief-dependent values, at its horizon 2
    model = load("tiger-duel")
    checks = run_suite(model, "all", seed=3, n_samples=5)
    assert {r.name for r in checks} >= {"master-structure-zerosum", "lipschitz-zerosum"}
    assert all(r.passed for r in checks), report_lines(checks)
    controls = run_suite(model, "controls", seed=3)
    assert len(controls) == len(checks) and all(c.passed for c in controls)


def test_tiger_duel_three_steps_master_and_lipschitz_with_their_controls():
    # at h=3 the master and lipschitz checks pass and their corruptions fail
    # them.  Named beside them, "controls" reruns only their two checks, not
    # the slave one, whose pwlc certificate enumerates 3^16 anchored plans
    model = load("tiger-duel").with_horizon(3)
    reports = run_suite(model, "master,lipschitz,controls", n_samples=5)
    checks, controls = reports[:2], reports[2:]
    assert [r.name for r in checks] == ["master-structure-zerosum", "lipschitz-zerosum"]
    assert all(r.passed for r in checks), report_lines(checks)
    assert [c.name for c in controls] == [f"{r.name}-negative-control" for r in checks]
    assert all(c.passed for c in controls), report_lines(controls)


def test_all_stands_for_its_suites_wherever_it_is_named(tiger_zs):
    every = ["sufficiency", "slave", "master", "lipschitz"]
    assert verify.selected_suites(tiger_zs, "all,controls") == every + ["controls"]
    assert verify.selected_suites(tiger_zs, "master,all") == ["master", "sufficiency", "slave", "lipschitz"]
    assert verify.selected_suites(tiger_zs, ["all", "sufficiency", "all"]) == every
    names = [r.name for r in run_suite(tiger_zs, "master,all", n_samples=1)]
    assert names.count("master-structure-zerosum") == 1 and names[0] == "master-structure-zerosum"


def test_zero_sum_certificate_on_a_two_step_trie():
    # tiger-duel h=2 from the start: both tries two steps deep, value 0.5.
    # The optimal leader plan achieves the value against the follower's
    # backward reply over every set, and random behavioural leader plans,
    # spread over both depths, stay below it
    m = load("tiger-duel")
    v, sol, G = verify._zs_priced(m, initial_occupancy(m))
    n_u, n_z = len(m.actions[0]), m.n_agent_obs(0)
    assert m.horizon == 2 and abs(v - 0.5) <= 1e-9
    assert G.shape == (n_u + n_u * n_z * n_u,) * 2
    assert abs(verify._follower_reply(m, sol, sol.plans[0] @ G) - v) <= 1e-9
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = verify._random_leader_plan(m, sol, rng)
        assert len(x) == G.shape[0] and (x > 0.0).all()
        # mass 1 at the anchor, and each sequence's mass on each set below it
        assert abs(x[:n_u].sum() - 1.0) <= 1e-12 and abs(x[n_u:].sum() - n_z) <= 1e-12
        assert verify._follower_reply(m, sol, x @ G) <= v - 0.1


def test_controls_named_beside_other_suites_rerun_only_their_checks(tiger):
    reports = run_suite(tiger, "sufficiency,controls", seed=2, n_samples=1)
    checks = ["sufficiency-master", "sufficiency-private-agent1", "sufficiency-private-agent2"]
    assert [r.name for r in reports] == checks + [f"{c}-negative-control" for c in checks]
    assert all(r.passed for r in reports), report_lines(reports)
    # named alone, it reruns every check that applies
    alone = [r.name for r in run_suite(tiger, "controls", seed=2)]
    assert alone == [f"{r.name}-negative-control" for r in run_suite(tiger, "all", n_samples=1)]


def test_report_line_format(tiger):
    report = check_sufficiency_master(tiger, n_samples=2, seed=1, fixture="tiger")
    line = report.line()
    for key in ("property=", "fixture=tiger", "samples=2", "seed=1", "passed=true"):
        assert key in line


@pytest.mark.parametrize(
    "criterion, suite", [(None, "lipschitz"), ("general", "master"), ("general", "lipschitz")]
)
def test_run_suite_refuses_a_named_suite_that_does_not_apply(tiger, criterion, suite):
    model = dataclasses.replace(tiger, criterion=criterion) if criterion else tiger
    with pytest.raises(UnknownSuiteError, match=f"'{suite}'.*'{model.criterion}'"):
        run_suite(model, f"sufficiency,{suite}", seed=0, n_samples=1)


def test_run_suite_all_skips_the_suites_that_do_not_apply(tiger):
    general = dataclasses.replace(tiger, criterion="general")
    names = [r.name for r in run_suite(general, "all", seed=0, n_samples=1)]
    assert names == [
        "sufficiency-master",
        "sufficiency-private-agent1",
        "sufficiency-private-agent2",
        "slave-structure-agent1",
    ]


ORACLES = (
    "_action_product", "_played", "_anchored", "_start_measure", "_outcomes",
    "_next_measures", "_raw_reward", "_normalized", "_dist_diff",
)


def test_raw_oracles_stay_off_the_production_dynamics():
    production = {
        "_dynamics", "_successor_arrays", "joint_dynamics", "step", "private_step",
        "next_level", "action_probs",
    }
    for name in ORACLES:
        fn = getattr(verify, name)
        assert not code_names(fn.__code__) & production, name
    # control: the checks themselves do reach the production route
    assert code_names(verify.check_sufficiency_master.__code__) & production


# -- the slave check's pricing on the state's own level ------------------------


PRICING_CASES = ("tiger", "tiger-zs", "stackelberg-tiger", 1, 2)


def pricing_case(case):
    """A bundled h=2 tiger model, or a random h=2 model with ``case`` public
    observations, with a seeded generator."""
    if isinstance(case, str):
        return load(case), np.random.default_rng(31)
    rng = np.random.default_rng(40 + case)
    return random_posg(rng, n_states=3, n_actions=(2, 3), n_public=case), rng


def slave_states(model, rng, n=3):
    """States the slave check samples at t >= 1 against a random fixed
    policy of agent 2, each with that policy's rules."""
    others = {1: agent_rules(model, random_behavioral_policy(model, 1, rng))}
    for _ in range(n):
        t = int(rng.integers(1, model.horizon))
        yield others, verify._sample_prefix_occupancy(model, t, rng, fixed_rules=others)[0]


def plan_prices(model, rng):
    """For every anchored plan of agent 1 on each sampled state: the state,
    the plan's price as the pwlc certificate takes it, and its value table."""
    for others, s in slave_states(model, rng):
        seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
        for rules in verify._anchored_plans(model, others, 0, s):
            table = value_tables(model, rules, 0, s.t, seeds)[0]
            yield s, occupancy_value(model, rules, 0, s), table


@pytest.mark.parametrize("case", PRICING_CASES)
def test_slave_pricing_equals_the_value_table_pairing(case):
    priced = 0
    for s, price, table in plan_prices(*pricing_case(case)):
        assert price == pairing(s, table)
        priced += 1
    assert priced > 0


def test_slave_pricing_control_pairing_in_reversed_entry_order_fails():
    # the comparison is exact: the same products summed the other way round
    # differ in the last bits on some plan
    differ = 0
    for case in PRICING_CASES:
        for s, price, table in plan_prices(*pricing_case(case)):
            backwards = 0.0
            for key, p in reversed(list(s.entries.items())):
                backwards += p * table.values[key]
            differ += backwards != price
    assert differ > 0


def test_the_pwlc_certificate_prices_every_anchored_plan(monkeypatch):
    priced = []

    def counting(*args):
        priced.append(args)
        return occupancy_value(*args)

    monkeypatch.setattr(verify, "occupancy_value", counting)
    for case in PRICING_CASES:
        model, rng = pricing_case(case)
        for others, s in slave_states(model, rng, n=2):
            priced.clear()
            policies = {j: BehavioralPolicy(j, rules) for j, rules in others.items()}
            verify._pwlc_certificate(model, policies, others, 0, s)
            depth = model.horizon - s.t
            plans = verify._trie_size(model, 0, len(level_of(model, s)[1][0]), depth)[1]
            assert len(priced) == plans > 1


# -- the raw oracles' reducers ---------------------------------------------------


def filtered_next_measure(model, outcomes, of, seen) -> dict:
    """The unnormalized measure one step on over the outcomes whose joint
    observation ``z`` has ``of(z) == seen``: the per-branch reducer the
    grouped one replaces, kept here as its reference."""
    new: dict = {}
    for x2, o, us, z, mass in outcomes:
        if of(z) != seen:
            continue
        zs, w = model.split_joint_obs(z)
        obs = tuple(model.agent_obs_index(i, zs[i], w) for i in range(model.n_agents))
        key = (x2, o.child(us, obs))
        new[key] = new.get(key, 0.0) + mass
    return new


def grouped_cases():
    """Each step's outcomes along a raw run under random rules, with each
    observation function that branches them and its number of values, on
    random models with one and two public observations."""
    for n_public in (1, 2):
        for seed in range(3):
            rng = np.random.default_rng(seed + 10 * n_public)
            model = random_posg(rng, 2, (2, 3), (2, 2), n_public, horizon=2)
            observers = [(model.public_of_joint_obs, n_public)] + [
                (lambda z, i=i: model.agent_obs_of_joint(i, z), model.n_agent_obs(i))
                for i in range(model.n_agents)
            ]
            measure = verify._start_measure(model)
            for t in range(model.horizon):
                rules = [random_decision_rule(model, i, t, rng) for i in range(model.n_agents)]
                outcomes = list(verify._outcomes(model, measure, verify._played(rules)))
                for of, n in observers:
                    yield model, outcomes, of, n
                measure = filtered_next_measure(model, outcomes, lambda z: 0, 0)


def test_grouped_next_measures_equal_the_filtered_ones():
    for model, outcomes, of, n in grouped_cases():
        mass, grouped = verify._next_measures(model, outcomes, of, n)
        assert set(grouped) <= set(range(n)) and all(grouped.values())
        for seen in range(n):
            # same keys, in the same order, with the same values
            want = filtered_next_measure(model, outcomes, of, seen)
            assert list(grouped.get(seen, {}).items()) == list(want.items())
            # the observation's mass, summed in outcome order in the same pass
            assert mass[seen] == sum(m for *_, z, m in outcomes if of(z) == seen)


def test_grouped_next_measures_control_reversed_outcomes_fail():
    # outcomes taken in the other order build each measure in another key
    # order, which the comparison above must see
    differ = 0
    for model, outcomes, of, n in grouped_cases():
        grouped = verify._next_measures(model, outcomes[::-1], of, n)[1]
        for seen in range(n):
            want = filtered_next_measure(model, outcomes, of, seen)
            differ += list(grouped.get(seen, {}).items()) != list(want.items())
    assert differ > 0


def union_diff(a, b) -> float:
    """The largest absolute difference over the union of the keys."""
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


@pytest.mark.parametrize(
    "a, b",
    [
        ({}, {}),
        ({1: 0.5}, {}),
        ({}, {2: -0.25}),
        ({1: 0.5, 2: 0.5}, {3: 0.75, 4: 0.25}),  # disjoint
        ({1: 0.5, 2: 0.5}, {2: 0.25, 1: 0.75, 5: 0.1}),
        ({1: 0.3}, {1: 0.3}),
    ],
)
def test_dist_diff_is_the_largest_difference_over_the_union(a, b):
    assert verify._dist_diff(a, b) == union_diff(a, b)
    assert verify._dist_diff(b, a) == union_diff(b, a)


measures = st.dictionaries(st.integers(0, 8), st.floats(-2.0, 2.0), max_size=6)


@settings(max_examples=200, deadline=None)
@given(a=measures, b=measures)
def test_dist_diff_matches_the_union_definition(a, b):
    assert verify._dist_diff(a, b) == union_diff(a, b)


def test_the_tolerance_check_draws_no_policy(tiger, monkeypatch):
    # which checks read --tolerance is known from their keywords alone; the
    # slave check draws its others' random policy when it runs
    drawn, draw = [], verify.random_joint_policy
    monkeypatch.setattr(verify, "random_joint_policy", lambda *a: drawn.append(1) or draw(*a))
    assert verify._reads_tolerance(tiger, ["master"])
    assert not verify._reads_tolerance(tiger, ["sufficiency", "slave"])
    assert run_suite(tiger.with_horizon(1), suites="sufficiency", n_samples=1)
    assert drawn == []
    (report,) = run_suite(tiger.with_horizon(1), suites="slave", n_samples=1)
    assert drawn == [1] and report.passed
