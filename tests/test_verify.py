import dataclasses
import functools
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games import evaluate, solve, verify
from occupancy_games.cli import main
from occupancy_games.errors import CapExceededError, ModelValidationError, UnknownSuiteError
from occupancy_games.evaluate import occupancy_value, value_tables
from occupancy_games.occupancy import (
    initial_occupancy,
    initial_private_occupancy,
    level_of,
    private_step,
    step,
)
from occupancy_games.policies import (
    BehavioralPolicy,
    DecisionRule,
    JointHistory,
    PrivateHistory,
    agent_rules,
    rules_from_trees,
)
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

from conftest import (
    code_names,
    load,
    model_path,
    numbered,
    pairing,
    raw_keys,
    raw_step,
    recorded_pushes,
    restricted_start,
)


def test_sufficiency_master_tiger(tiger):
    report = check_sufficiency_master(tiger, n_samples=25, seed=7, fixture="tiger")
    assert report.passed and report.max_violation <= 1e-9


def test_sufficiency_master_single_state(minimal):
    report = check_sufficiency_master(minimal.with_horizon(2), n_samples=5, seed=0)
    assert report.max_violation == 0.0


def test_sufficiency_master_negative_control(tiger):
    report = check_sufficiency_master(tiger, n_samples=3, seed=7, negative_control=True)
    assert not report.passed


def test_sufficiency_master_prices_every_agents_reward(monkeypatch):
    # stackelberg-tiger is a team game (its R1 and R2 lines are equal), yet
    # the check prices each agent's reward on its own, so a fault in agent
    # 2's alone must show
    m = load("stackelberg-tiger")
    assert check_sufficiency_master(m, n_samples=5, seed=0).max_violation <= 1e-12
    real = verify.expected_reward
    monkeypatch.setattr(verify, "expected_reward", lambda model, s, rules, agent: (
        real(model, s, rules, agent) + (1e-3 if agent == 1 else 0.0)
    ))
    report = check_sufficiency_master(m, n_samples=5, seed=0)
    assert not report.passed and report.max_violation == pytest.approx(1e-3)


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
    # one _raw_step call per raw step gives both the observation law and the
    # next measures: t prefix steps and the compared step, per sample
    events, prefix, raw_step = [], verify._raw_prefix, verify._raw_step
    monkeypatch.setattr(verify, "_raw_prefix", lambda m, rng, t, *rest: (
        events.append(t) or prefix(m, rng, t, *rest)
    ))
    monkeypatch.setattr(verify, "_raw_step", lambda *args: (
        events.append(None) or raw_step(*args)
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
    "_action_product", "_steps_table", "_played", "_anchored", "_child", "_number", "_steps_of",
    "_decoded", "_start_measure", "_raw_step", "_raw_rewards", "_normalized", "_dist_diff",
)
# the production dynamics, and the history objects production keys its
# states by
PRODUCTION = {
    "_dynamics", "_successor_arrays", "joint_dynamics", "step", "private_step",
    "next_level", "action_probs", "child", "JointHistory", "PrivateHistory", "entries_of",
}


def test_raw_oracles_stay_off_the_production_dynamics():
    for name in ORACLES:
        fn = getattr(verify, name)
        assert not code_names(fn.__code__) & PRODUCTION, name
    # control: the checks themselves do reach the production route, and a
    # key grown as a history's child is seen
    assert code_names(verify.check_sufficiency_master.__code__) & PRODUCTION
    assert "PrivateHistory" in code_names(verify.check_sufficiency_private.__code__)
    grown = compile("def f(o, us, obs):\n    return o.child(us, obs)\n", "<snippet>", "exec")
    assert code_names(grown) & PRODUCTION == {"child"}


def history_constructions(monkeypatch) -> list:
    """The class of every ``PrivateHistory`` and ``JointHistory`` built from
    here on, in order: through the constructor or ``JointHistory.unchecked``."""
    built = []
    for cls in (PrivateHistory, JointHistory):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs: (
            built.append(type(self)) or _init(self, *args, **kwargs)
        ))
    unchecked = JointHistory.unchecked
    monkeypatch.setattr(JointHistory, "unchecked", classmethod(lambda cls, privates: (
        built.append(cls) or unchecked(privates)
    )))
    return built


def raw_walk(model, rng, t, dists, of, n):
    """The raw prefix ``t`` steps on under ``dists`` (by step), then the
    step after it, observed through ``of``, its next measures decoded."""
    measure, names, _ = verify._raw_prefix(model, rng, t, dists.__getitem__, n, of)
    mass, by_obs = verify._raw_step(model, measure, names, dists[t], of, n)
    return mass, {seen: verify._decoded(new, names) for seen, new in by_obs.items()}


def raw_walks(model, rng):
    """For a random step ``t`` of ``model``: the raw prefix and the step
    after it, first under random rules observed publicly, then with agent
    1's actions drawn and its own observations, as the two sufficiency
    checks walk them; the rules are drawn, and read, before the walk."""
    t = int(rng.integers(model.horizon))
    rules = [[random_decision_rule(model, i, tau, rng) for i in range(2)] for tau in range(t + 1)]
    played = [verify._played(r) for r in rules]
    anchored = [verify._anchored(model, 0, {1: r[1]}, int(rng.integers(2))) for r in rules]
    own = functools.partial(model.agent_obs_of_joint, 0)
    return [
        functools.partial(
            raw_walk, model, rng, t, played, model.public_of_joint_obs, len(model.public_obs)
        ),
        functools.partial(raw_walk, model, rng, t, anchored, own, model.n_agent_obs(0)),
    ]


@pytest.mark.parametrize("n_public", [1, 2])
def test_the_raw_route_builds_no_history(n_public, monkeypatch):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = random_posg(rng, 2, (2, 3), (2, 2), n_public, horizon=3)
        walks = raw_walks(model, rng)
        built = history_constructions(monkeypatch)
        assert all(walk()[1] for walk in walks)
        assert built == []
        monkeypatch.undo()


def test_the_history_count_control_a_step_grown_by_child_builds_histories(monkeypatch):
    rng = np.random.default_rng(0)
    model = random_posg(rng, 2, (2, 3), (2, 2), 2, horizon=3)
    walks = raw_walks(model, np.random.default_rng(1))
    want = [walk() for walk in walks]
    walks = raw_walks(model, np.random.default_rng(1))
    built = history_constructions(monkeypatch)
    monkeypatch.setattr(
        verify, "_raw_step", lambda *args: numbered_literal_step(*args, grow=by_child)
    )
    got = [walk() for walk in walks]
    assert built and set(built) == {PrivateHistory, JointHistory}
    assert [(list(m), b) for m, b in got] == [(list(m), b) for m, b in want]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n_public=st.sampled_from([1, 2]))
def test_a_level_read_by_steps_equals_the_converted_entries(seed, n_public):
    # the states step and private_step (of agent 1, each own action) return
    # over two steps from the start
    rng = np.random.default_rng(seed)
    model = random_posg(rng, 2, (2, 3), (2, 2), n_public, horizon=3)
    states = [initial_occupancy(model), initial_private_occupancy(model, 0)]
    for t in range(2):
        rules = [random_decision_rule(model, i, t, rng) for i in range(2)]
        pushed = []
        for s in states:
            if hasattr(s, "anchor"):  # a private occupancy state
                branches = [b for u in range(2) for b in private_step(model, s, {1: rules[1]}, u)]
            else:
                branches = step(model, s, rules)
            pushed += [nxt for _, _, nxt in branches]
        states = pushed
        for s in states:
            names = verify._start_measure(model)[1]
            read = verify._decoded(verify._by_numbers(model, s, names), names)
            assert "entries" not in vars(s)  # the level was read, not the entries
            assert list(read.items()) == list(raw_keys(s.entries).items())


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


def anchored_plans(model, others, agent, s):
    """Every pure suffix of ``agent`` from the anchors of ``s`` against
    ``others`` (rules by step), as rules by step (None before ``s.t``), in
    plan index order: one tree per anchor from ``solve._anchored_space``,
    read into rules by ``rules_from_trees``."""
    t = s.t
    anchors = level_of(model, s)[1][agent]
    for assign in solve._anchored_space(model, agent, anchors, model.horizon - t):
        own = rules_from_trees(model, agent, assign, t)
        yield [None] * t + [
            tuple(own[tau - t] if j == agent else others[j][tau] for j in range(model.n_agents))
            for tau in range(t, model.horizon)
        ]


def each_plans_price(model, others, agent, s) -> list[float]:
    """``occupancy_value`` of every anchored plan, one plan at a time."""
    plans = anchored_plans(model, others, agent, s)
    return [occupancy_value(model, rules, agent, s) for rules in plans]


def plan_prices(model, rng):
    """For every anchored plan of agent 1 on each sampled state: the state,
    the plan's price as the pwlc certificate takes it, and its value table;
    each state's prices are those of its plans one at a time."""
    for others, s in slave_states(model, rng):
        seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
        prices = evaluate.anchored_plan_values(model, others, 0, s)
        assert prices.tolist() == each_plans_price(model, others, 0, s)
        for price, rules in zip(prices.tolist(), anchored_plans(model, others, 0, s)):
            table = value_tables(model, rules, 0, s.t, seeds)[0]
            yield s, price, table


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


def both_agents_states(model, rng, ts=(0, 1)):
    """For each agent, a random fixed policy of the others' rules and a
    state at each step of ``ts`` sampled under it (the start at t=0)."""
    for agent in range(model.n_agents):
        others = {
            j: agent_rules(model, random_behavioral_policy(model, j, rng))
            for j in range(model.n_agents) if j != agent
        }
        for t in ts:
            yield agent, others, verify._sample_prefix_occupancy(model, t, rng, others)[0]


BUNDLED = ("tiger", "tiger-zs", "tiger-duel", "stackelberg-tiger", "dec-tiger", "tiger-one-stage")


@pytest.mark.parametrize("name", BUNDLED)
def test_batched_plan_prices_equal_each_plans_price_on_bundled_models(name):
    # each plan's price from the one push and pull equals occupancy_value of
    # that plan, built as trees and read into rules, in plan index order
    model, rng = load(name).with_horizon(2), np.random.default_rng(33)
    for agent, others, s in both_agents_states(model, rng):
        prices = evaluate.anchored_plan_values(model, others, agent, s)
        assert prices.tolist() == each_plans_price(model, others, agent, s)
        n_anchors = len(level_of(model, s)[1][agent])
        assert len(prices) == verify._trie_size(model, agent, n_anchors, 2 - s.t)[1] > 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n_public=st.sampled_from([1, 2]))
def test_batched_plan_prices_equal_each_plans_price_on_random_models(seed, n_public):
    rng = np.random.default_rng(seed)
    model = random_posg(rng, n_states=3, n_actions=(2, 3), n_obs=(2, 2), n_public=n_public)
    for agent, others, s in both_agents_states(model, rng):
        prices = evaluate.anchored_plan_values(model, others, agent, s)
        assert prices.tolist() == each_plans_price(model, others, agent, s)


def priced_in_blocks(monkeypatch, cap, model, others, s):
    """The prices at ``CAP_BYTES = cap`` and the blocks they took."""
    monkeypatch.setattr(evaluate, "CAP_BYTES", cap)
    blocks, pulled = [], evaluate._pulled
    monkeypatch.setattr(evaluate, "_pulled", lambda *a: blocks.append(1) or pulled(*a))
    try:
        return evaluate.anchored_plan_values(model, others, 0, s), len(blocks)
    finally:
        monkeypatch.undo()


def least_cap(holds) -> int:
    """The least ``CAP_BYTES`` at which ``holds(cap)``, which holds at every
    cap above it up to the real one."""
    fits, fails = evaluate.CAP_BYTES, 0
    while fits - fails > 1:
        cap = (fits + fails) // 2
        try:
            fits, fails = (cap, fails) if holds(cap) else (fits, cap)
        except CapExceededError:
            fails = cap
    return fits


def test_batched_plan_prices_in_small_blocks_equal_one_block(monkeypatch):
    for case in PRICING_CASES:
        model, rng = pricing_case(case)
        for others, s in slave_states(model, rng, n=2):
            def priced(cap):
                return priced_in_blocks(monkeypatch, cap, model, others, s)

            whole, n_blocks = priced(evaluate.CAP_BYTES)
            n = len(whole)
            assert n_blocks == 1 and n > 2
            # the least cap that prices a plan holds one plan per block, the
            # least that holds two one plan's bytes more
            one = least_cap(lambda cap: priced(cap))
            two = least_cap(lambda cap: priced(cap)[1] <= -(-n // 2))
            for plans, cap in ((1, one), (2, two), (3, 2 * two - one)):
                tracemalloc.start()
                try:
                    prices, n_blocks = priced(cap)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert np.array_equal(prices, whole) and n_blocks == -(-n // plans)
                assert peak <= cap  # each block counted at least what it holds
            with pytest.raises(CapExceededError, match=f"exact evaluation too large: {one} "):
                priced(one - 1)


def test_plan_prices_at_tiger_h3_take_a_fixed_working_set():
    # tiger h=3 from the start, 2,187 plans: blocks that filled CAP_BYTES
    # peaked at 396 MB of tracemalloc; a fixed working set per block holds
    # the peak to a few MB, and each sampled price is still the plan's own
    model = load("tiger").with_horizon(3)
    others = {1: agent_rules(model, random_behavioral_policy(model, 1, np.random.default_rng(5)))}
    s = initial_occupancy(model)
    tracemalloc.start()
    try:
        prices = evaluate.anchored_plan_values(model, others, 0, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prices) == 2187 and peak < 64 * 2**20, peak
    sample = itertools.islice(enumerate(anchored_plans(model, others, 0, s)), 0, None, 97)
    for k, rules in sample:
        assert prices[k] == occupancy_value(model, rules, 0, s), k


def mutant(old: str, new: str):
    """``evaluate.anchored_plan_values`` with ``old`` replaced by ``new``."""
    source = inspect.getsource(evaluate.anchored_plan_values)
    assert old in source
    namespace = dict(vars(evaluate))
    exec(compile(source.replace(old, new), evaluate.__file__, "exec"), namespace)
    return namespace["anchored_plan_values"]


@pytest.mark.parametrize("old, new", [
    # a child placed at its parent's first subtrie, whatever its observation
    ("pos = pos[parent] + 1 + uz % n_z * nodes[depth - d]", "pos = pos[parent] + 1"),
    # every row pulled back for every plan
    ("np.nonzero(digits[d][:, entry] == acts[d])", "np.nonzero(digits[d][:, entry] >= 0)"),
])
def test_batched_plan_prices_control_mutants_fail(old, new):
    priced = mutant(old, new)
    differ = 0
    for name in ("tiger", "tiger-zs", "stackelberg-tiger"):
        model, rng = load(name), np.random.default_rng(33)
        for agent, others, s in both_agents_states(model, rng):
            differ += priced(model, others, agent, s).tolist() != each_plans_price(
                model, others, agent, s
            )
    assert differ > 0


def test_the_pwlc_certificate_prices_every_anchored_plan(monkeypatch):
    priced = []

    def counting(*args):
        priced.append(evaluate.anchored_plan_values(*args))
        return priced[-1]

    monkeypatch.setattr(verify, "anchored_plan_values", counting)
    for case in PRICING_CASES:
        model, rng = pricing_case(case)
        for others, s in slave_states(model, rng, n=2):
            priced.clear()
            policies = {j: BehavioralPolicy(j, rules) for j, rules in others.items()}
            verify._pwlc_certificate(model, policies, others, 0, s)
            depth = model.horizon - s.t
            plans = verify._trie_size(model, 0, len(level_of(model, s)[1][0]), depth)[1]
            (prices,) = priced
            assert len(prices) == plans > 1


# -- the raw step against a literal enumeration --------------------------------


def literal_outcomes(model, measure, dists):
    """Every positive-probability outcome of one step from a raw measure, by
    the definition: (next state, steps, joint actions, joint observation,
    mass) in (entry, joint action, next state, joint observation) order, the
    mass entry x actions (in agent order) x transition x observation."""
    for (x, o), p in measure.items():
        for us in itertools.product(*(range(len(d)) for d in dists(o))):
            a_p = 1.0
            for d, u in zip(dists(o), us):
                a_p *= d[u]
            if a_p == 0.0:
                continue
            u = model.joint_action_index(us)
            for x2 in range(model.n_states):
                t_p = float(model.transition[u, x, x2])
                for z in range(model.n_joint_obs):
                    o_p = float(model.observation[u, x2, z])
                    if t_p > 0.0 and o_p > 0.0:
                        yield x2, o, us, z, p * a_p * t_p * o_p


def by_steps(model, o, us, z):
    """Each agent's steps ``o`` one step on: its action in ``us`` and its
    own part of the joint observation ``z``."""
    zs, w = model.split_joint_obs(z)
    return tuple(
        steps + ((u, model.agent_obs_index(i, zs[i], w)),)
        for i, (steps, u) in enumerate(zip(o, us))
    )


def by_child(model, o, us, z):
    """``by_steps`` through the production histories: ``o`` as a
    ``JointHistory``, grown by its ``child``."""
    zs, w = model.split_joint_obs(z)
    obs = tuple(model.agent_obs_index(i, zs[i], w) for i in range(model.n_agents))
    root = JointHistory(tuple(PrivateHistory(i, steps) for i, steps in enumerate(o)))
    return tuple(h.steps for h in root.child(us, obs).privates)


def filtered_next_measure(model, outcomes, of, seen, grow=by_steps) -> tuple[float, dict]:
    """The mass of observation ``seen`` and the unnormalized measure one
    step on, over the outcomes whose joint observation ``z`` has ``of(z) ==
    seen``, each summed in outcome order."""
    mass, new = 0.0, {}
    for x2, o, us, z, m in outcomes:
        if of(z) == seen:
            mass += m
            key = (x2, grow(model, o, us, z))
            new[key] = new.get(key, 0.0) + m
    return mass, new


def literal_step(model, measure, dists, of, n_obs, grow=by_steps):
    """``_raw_step`` by the definition: one filtered pass per observation."""
    outcomes = list(literal_outcomes(model, measure, dists))
    per_obs = [filtered_next_measure(model, outcomes, of, seen, grow) for seen in range(n_obs)]
    grouped = {seen: new for seen, (_, new) in enumerate(per_obs) if new}
    return np.array([m for m, _ in per_obs]), grouped


def numbered_literal_step(model, measure, names, dists, of, n_obs, grow=by_steps):
    """``literal_step`` in ``_raw_step``'s form: from a numbered measure,
    each next measure numbered in ``names``."""
    mass, grouped = literal_step(model, verify._decoded(measure, names), dists, of, n_obs, grow)
    return mass, {seen: numbered(model, new, names)[0] for seen, new in grouped.items()}


def observers(model):
    """Each observation function that branches a step, with its number of
    values: the public observation, and each agent's own."""
    return [(model.public_of_joint_obs, len(model.public_obs))] + [
        (lambda z, i=i: model.agent_obs_of_joint(i, z), model.n_agent_obs(i))
        for i in range(model.n_agents)
    ]


def raw_step_cases(rng, n_public, horizon=2):
    """Each step of a raw run under random rules on a random model with
    ``n_public`` public observations: the measure, the action
    distributions and each observer of ``observers``."""
    model = random_posg(rng, 2, (2, 3), (2, 2), n_public, horizon=horizon)
    measure = verify._decoded(*verify._start_measure(model))
    for t in range(model.horizon):
        rules = [random_decision_rule(model, i, t, rng) for i in range(model.n_agents)]
        dists = verify._played(rules)
        for of, n in observers(model):
            yield model, measure, dists, of, n
        _, grouped = literal_step(model, measure, dists, lambda z: 0, 1)
        measure = grouped[0]


def grouped_cases():
    for n_public in (1, 2):
        for seed in range(3):
            yield from raw_step_cases(np.random.default_rng(seed + 10 * n_public), n_public)


def assert_raw_step_is_literal(model, measure, dists, of, n):
    mass, grouped = raw_step(model, measure, dists, of, n)
    assert set(grouped) <= set(range(n)) and all(grouped.values())
    outcomes = list(literal_outcomes(model, measure, dists))
    for seen in range(n):
        want_mass, want = filtered_next_measure(model, outcomes, of, seen)
        # same keys, in the same order, with the same values
        assert list(grouped.get(seen, {}).items()) == list(want.items())
        # the observation's mass, summed in outcome order in the same pass
        assert mass[seen] == want_mass


def test_grouped_next_measures_equal_the_filtered_ones():
    for case in grouped_cases():
        assert_raw_step_is_literal(*case)


def test_grouped_next_measures_control_reversed_outcomes_fail():
    # outcomes taken in the other order build each measure in another key
    # order, which the comparison above must see
    differ = 0
    for model, measure, dists, of, n in grouped_cases():
        grouped = raw_step(model, measure, dists, of, n)[1]
        outcomes = list(literal_outcomes(model, measure, dists))[::-1]
        for seen in range(n):
            want = filtered_next_measure(model, outcomes, of, seen)[1]
            differ += list(grouped.get(seen, {}).items()) != list(want.items())
    assert differ > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n_public=st.sampled_from([1, 2]), horizon=st.integers(1, 2))
def test_raw_step_equals_the_literal_enumeration(seed, n_public, horizon):
    for case in raw_step_cases(np.random.default_rng(seed), n_public, horizon):
        assert_raw_step_is_literal(*case)


def test_raw_step_control_one_observation_summed_in_reverse_fails():
    # the same outcomes of one observation added up the other way round
    # differ in the last bits somewhere, which == on the values must see
    differ = 0
    for model, measure, dists, of, n in grouped_cases():
        mass, grouped = raw_step(model, measure, dists, of, n)
        outcomes = list(literal_outcomes(model, measure, dists))
        for seen in range(n):
            mine = [o for o in outcomes if of(o[3]) == seen]
            want_mass, want = filtered_next_measure(model, mine[::-1], of, seen)
            differ += mass[seen] != want_mass or grouped.get(seen, {}) != want
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


# -- the raw walk's numbering ---------------------------------------------------


def test_raw_step_numbers_each_child_by_its_action_and_observation(tiger):
    # from the start under full-support rules every agent reaches each
    # (action, own observation): one number each, beside the root's 0
    rng = np.random.default_rng(0)
    dists = verify._played([random_decision_rule(tiger, i, 0, rng) for i in range(2)])
    measure, names = verify._start_measure(tiger)
    verify._raw_step(tiger, measure, names, dists, lambda z: 0, 1)
    for i, (kids, by_number) in enumerate(names):
        n_u, n_z = len(tiger.actions[i]), tiger.n_agent_obs(i)
        assert by_number[0] == () and len(by_number) == 1 + n_u * n_z
        assert sorted(kids) == [(0, u, z) for u in range(n_u) for z in range(n_z)]
        assert all(by_number[c] == ((u, z),) for (_, u, z), c in kids.items())
        numbers = [verify._number(names[i], steps) for steps in by_number]
        assert numbers == list(range(len(by_number)))


def test_raw_gap_counts_an_entry_on_a_history_the_raw_step_never_reached(tiger):
    # both agents listen, so no raw history of agent 1 opens a door: an entry
    # that production put on one must count in the gap with its whole mass
    rules = tuple(DecisionRule(i, 0, {PrivateHistory(i): (1.0, 0.0, 0.0)}) for i in range(2))
    measure, names = verify._start_measure(tiger)
    played, of, n_pub = verify._played(rules), tiger.public_of_joint_obs, len(tiger.public_obs)
    branches = step(tiger, initial_occupancy(tiger), rules)
    assert verify._raw_gap(tiger, measure, names, played, n_pub, of, {}, branches) <= 1e-15
    ((w, omega, s1),) = branches
    x, o = next(iter(s1.entries))
    opened = JointHistory((PrivateHistory(0, ((1, 0),)), o.privates[1]))
    bad = dataclasses.replace(s1, entries={**s1.entries, (x, opened): 0.25})
    assert verify._raw_gap(tiger, measure, names, played, n_pub, of, {}, [(w, omega, bad)]) == 0.25


def literal_reward(model, measure, names, dists, agent) -> float:
    """One agent's expected reward under a numbered raw measure, by the
    definition: entry x actions (in agent order) x reward, in entry order."""
    total = 0.0
    for (x, o), p in measure.items():
        d = dists(verify._steps_of(names, o))
        for us in itertools.product(*(range(len(d_i)) for d_i in d)):
            a_p = 1.0
            for d_i, u in zip(d, us):
                a_p *= d_i[u]
            if a_p > 0.0:
                total += p * a_p * float(model.rewards[agent, x, model.joint_action_index(us)])
    return total


def test_raw_rewards_price_each_agent_by_its_own_rewards():
    # a random general-sum model: one agent's rewards priced for the other
    # show
    rng = np.random.default_rng(2)
    m = random_posg(rng, 2, (2, 3), (2, 2), 1, horizon=2)
    rules = [[random_decision_rule(m, i, t, rng) for i in range(2)] for t in range(2)]
    played = [verify._played(r) for r in rules]
    measure, names, _ = verify._raw_prefix(m, rng, 1, played.__getitem__, 1, lambda z: 0)
    want = [literal_reward(m, measure, names, played[1], i) for i in range(2)]
    assert want[0] != want[1]
    for agents in ([0, 1], [1, 0], [1]):
        got = verify._raw_rewards(m, measure, names, played[1], agents)
        assert got == [want[i] for i in agents]


# -- a NaN from production fails its check ----------------------------------------


NAN = float("nan")


def poisoned(value, nan: bool):
    """A production result, with its value replaced by NaN if ``nan``: the
    zero-sum solver's (value, solution, G) keeps its other parts."""
    if isinstance(value, tuple):
        return (NAN if nan else value[0], *value[1:])
    if isinstance(value, np.ndarray):  # one plan's price of many
        return np.where(np.arange(len(value)) == len(value) // 2, NAN, value) if nan else value
    return NAN if nan else value


NAN_CASES = {
    "expected_reward": lambda m: check_sufficiency_master(m["tiger"], n_samples=3, seed=7),
    "private_reward": lambda m: check_sufficiency_private(m["tiger"], 0, n_samples=3, seed=7),
    "best_response_value_from": lambda m: check_slave_structure(
        m["tiger"], {1: random_behavioral_policy(m["tiger"], 1, np.random.default_rng(8))}, 0,
        n_samples=2, seed=2, certificate_samples=1,
    ),
    "anchored_plan_values": lambda m: check_slave_structure(
        m["tiger"], {1: random_behavioral_policy(m["tiger"], 1, np.random.default_rng(8))}, 0,
        n_samples=2, seed=2, certificate_samples=1,
    ),
    "dec_value_from": lambda m: check_master_structure(m["tiger"], n_samples=2, seed=3),
    "stackelberg_value_from": lambda m: check_master_structure(
        m["stackelberg-tiger"], n_samples=2, seed=3
    ),
    "zero_sum_value_from": lambda m: check_lipschitz(m["tiger-zs"], n_samples=3, seed=5),
}


@pytest.mark.parametrize("nan", [True, False], ids=["nan", "finite"])
@pytest.mark.parametrize("name", list(NAN_CASES))
def test_a_nan_from_production_fails_its_check(name, nan, monkeypatch):
    # the same patch, once returning NaN and once the value itself
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a, **k: poisoned(real(*a, **k), nan))
    models = {n: load(n) for n in ("tiger", "tiger-zs", "stackelberg-tiger")}
    report = NAN_CASES[name](models)
    if nan:
        assert not report.passed and np.isnan(report.max_violation), report.line()
        assert "max_violation=nan" in report.line()
    else:
        assert report.passed and np.isfinite(report.max_violation), report.line()


def test_ogs_verify_exits_1_on_a_nan_from_production(monkeypatch, capsys):
    real = verify.expected_reward
    monkeypatch.setattr(verify, "expected_reward", lambda *a: poisoned(real(*a), True))
    args = ["verify", str(model_path("tiger")), "--suite", "sufficiency", "--samples", "2"]
    assert main(args) == 1
    master = capsys.readouterr().out.splitlines()[0]
    assert "property=sufficiency-master " in master
    assert "max_violation=nan" in master and "passed=false" in master


def test_worst_keeps_a_nan_wherever_it_comes():
    for values in ((0.0, NAN, 1.0), (0.0, 1.0, NAN), (NAN, 1.0), (NAN, NAN)):
        assert np.isnan(verify._worst(*values))
    assert verify._worst(0.0, 2.0, 1.0) == 2.0 and verify._worst(0.0, -1.0) == 0.0
    for bad in (NAN, np.inf, -np.inf):
        assert not verify._report("p", "f", 1, bad, 1e-9, 0, False).passed
    assert verify._report("p", "f", 1, -1.0, 1e-9, 0, False).passed
