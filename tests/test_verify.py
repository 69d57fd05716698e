import dataclasses

import numpy as np
import pytest

from occupancy_games import verify
from occupancy_games.errors import ModelValidationError, UnknownSuiteError
from occupancy_games.sampling import random_behavioral_policy, random_posg
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

from conftest import code_names, load


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


def test_sufficiency_private_propagates_step_faults(tiger, monkeypatch):
    # only an impossible observation is an expected outcome of private_step
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
    # them.  The two controls run from the same check calls: "controls" in
    # run_suite reruns every check, the slave one too, whose pwlc
    # certificate enumerates 3^16 anchored plans at h=3
    model = load("tiger-duel").with_horizon(3)
    reports = run_suite(model, "master,lipschitz", n_samples=5)
    assert [r.name for r in reports] == ["master-structure-zerosum", "lipschitz-zerosum"]
    assert all(r.passed for r in reports), report_lines(reports)
    checks = [(suite, c) for suite, c in verify._checks(model) if suite in ("master", "lipschitz")]
    controls = verify._negative_controls(checks)
    assert [c.name for c in controls] == [f"{r.name}-negative-control" for r in reports]
    assert all(c.passed for c in controls), report_lines(controls)


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
    "_next_measure", "_obs_dist", "_raw_reward", "_normalized",
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
