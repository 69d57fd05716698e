"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and never relaxed at runtime.
"""

import time

import numpy as np

from occupancy_games.cli import main as cli_main
from occupancy_games.evaluate import evaluate_occupancy, simulate
from occupancy_games.occupancy import (
    decompose,
    initial_occupancy,
    occupancy_to_csv,
    recombine,
    step,
)
from occupancy_games.policies import DecisionRule, PrivateHistory
from occupancy_games.sampling import (
    random_behavioral_policy,
    random_joint_policy,
    random_posg,
)
from occupancy_games.solve import best_response_history, best_response_private
from occupancy_games.verify import (
    check_lipschitz,
    check_master_structure,
    check_slave_structure,
    check_sufficiency_master,
    check_sufficiency_private,
    lipschitz_constant,
)

from conftest import model_path

EXACT = 1e-9
SOLVER = 1e-6


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} - {detail}")
    assert ok, detail


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


def listen_openleft_rules(tiger):
    return (
        DecisionRule(0, 0, {PrivateHistory(0): (1.0, 0.0, 0.0)}),
        DecisionRule(1, 0, {PrivateHistory(1): (0.0, 1.0, 0.0)}),
    )


def test_acceptance_1_occupancy_update(tiger):
    started = time.monotonic()
    branches = step(tiger, initial_occupancy(tiger), listen_openleft_rules(tiger))
    elapsed = time.monotonic() - started
    (w, p, s1), = branches
    ok = (
        len(s1.entries) == 8
        and all(v == 0.125 for v in s1.entries.values())
        and p == 1.0
        and occupancy_to_csv(tiger, s1) == LISTEN_OPENLEFT_CSV
        and elapsed < 1.0
    )
    report(1, ok, f"8 entries of 0.125, byte-exact CSV, {elapsed:.3f}s")


def test_acceptance_2_basis_decomposition(tiger):
    rules = listen_openleft_rules(tiger)
    (_, _, s1), = step(tiger, initial_occupancy(tiger), rules)
    mixture = decompose(s1, tiger, [rules], 0)
    weights = [w for w, _ in mixture.components]
    comps = [c for _, c in mixture.components]
    back = recombine(mixture)
    ok = (
        weights == [0.5, 0.5]
        and all(len(c.entries) == 4 for c in comps)
        and all(v == 0.25 for c in comps for v in c.entries.values())
        and back.entries.keys() == s1.entries.keys()
        and all(back.entries[k] == v for k, v in s1.entries.items())
    )
    report(2, ok, "weights (0.5, 0.5), 4x0.25 components, exact recombination")


def test_acceptance_3_one_stage_sweeps(tmp_path):
    one_stage = str(model_path("tiger-one-stage"))
    dec_csv = tmp_path / "dec.csv"
    zs_csv = tmp_path / "zs.csv"
    assert cli_main(["sweep", one_stage, "--grid", "101", "--output", str(dec_csv)]) == 0
    assert (
        cli_main(
            ["sweep", one_stage, "--criterion", "zerosum", "--grid", "101",
             "--output", str(zs_csv)]
        )
        == 0
    )
    worst_dec = 0.0
    for row in dec_csv.read_text().splitlines()[1:]:
        b, v = map(float, row.split(","))
        worst_dec = max(worst_dec, abs(v - max(1.0, 4.0 * b - 2.0)))
    worst_zs = 0.0
    for row in zs_csv.read_text().splitlines()[1:]:
        cells = [float(c) for c in row.split(",")]
        b, v = cells[0], cells[1]
        expected = 0.0 if b <= 0.5 else (4.0 * b - 2.0) / (4.0 * b - 1.0)
        worst_zs = max(worst_zs, abs(v - expected))
    ok = worst_dec <= EXACT and worst_zs <= SOLVER
    report(3, ok, f"dec max|d|={worst_dec:.2e} (<=1e-9), zs max|d|={worst_zs:.2e} (<=1e-6)")


def test_acceptance_4_sufficiency_suites(tiger):
    started = time.monotonic()
    models = [("tiger", tiger)]
    for k, n_public in ((1, 1), (2, 2)):
        rng = np.random.default_rng(1234 + k)
        models.append(
            (f"random-{k}", random_posg(rng, n_states=2, n_public=n_public, horizon=2))
        )
    worst = 0.0
    total = 0
    for name, m in models:
        r = check_sufficiency_master(m, n_samples=40, seed=7, fixture=name)
        worst = max(worst, r.max_violation)
        total += r.samples
        for agent in range(2):
            r = check_sufficiency_private(
                m, agent, n_samples=20, seed=11 + agent, fixture=name
            )
            worst = max(worst, r.max_violation)
            total += r.samples
    elapsed = time.monotonic() - started
    ok = worst <= EXACT and total >= 200 and elapsed < 30.0
    report(4, ok, f"{total} histories, max violation {worst:.2e} (<=1e-9), {elapsed:.1f}s")


def test_acceptance_5_best_response_crosscheck(tiger):
    worst = 0.0
    for horizon in (1, 2):
        m = tiger.with_horizon(horizon)
        for k in range(10):
            rng = np.random.default_rng(500 + k)
            other = random_behavioral_policy(m, 1, rng, horizon=horizon)
            a = best_response_history(m, {1: other}, 0)
            b = best_response_private(m, {1: other}, 0)
            worst = max(worst, abs(a.value - b.value))
    ok = worst <= EXACT
    report(5, ok, f"history vs private DP on 20 seeded cases, max |d|={worst:.2e}")


def test_acceptance_6_slave_structure(tiger):
    rng = np.random.default_rng(99)
    others = {1: random_behavioral_policy(tiger, 1, rng)}
    r = check_slave_structure(tiger, others, 0, n_samples=50, seed=13, fixture="tiger")
    ok = (
        r.passed
        and r.notes["linearity_violation"] <= EXACT
        and r.notes["pwlc_violation"] <= EXACT
    )
    report(
        6,
        ok,
        f"linearity {r.notes['linearity_violation']:.2e}, "
        f"pwlc {r.notes['pwlc_violation']:.2e} (<=1e-9)",
    )


def test_acceptance_7_master_structure(tiger, tiger_zs, one_stage_zs, st_tiger):
    r_dec = check_master_structure(tiger, "common", n_samples=50, seed=21)
    r_grid = check_master_structure(one_stage_zs, "zerosum", n_samples=50, seed=22)
    r_mix = check_master_structure(tiger_zs, "zerosum", n_samples=50, seed=23)
    r_st = check_master_structure(st_tiger, "stackelberg", n_samples=50, seed=24)
    gap = r_grid.notes["nonconvexity_gap"]
    ok = (
        r_dec.passed
        and r_grid.passed
        and r_grid.notes["grid_points"] == 101
        and r_mix.passed
        and r_st.passed
        and gap > 0.0
    )
    report(
        7,
        ok,
        "dec %.1e, zs-grid %.1e, zs-mixture %.1e, st %.1e (<=1e-6); probe gap %.4f > 0"
        % (
            r_dec.max_violation,
            r_grid.max_violation,
            r_mix.max_violation,
            r_st.max_violation,
            gap,
        ),
    )


def test_acceptance_8_lipschitz(tiger_zs):
    r = check_lipschitz(tiger_zs, n_samples=50, seed=31, fixture="tiger-zs")
    expected_kappa = lipschitz_constant(
        tiger_zs.discount, tiger_zs.reward_bound, tiger_zs.horizon, 1
    )
    ok = r.passed and r.notes["kappa"]["1"] == expected_kappa
    report(8, ok, f"50 pairs, violation {r.max_violation:.2e} (<=1e-6), kappa_1={expected_kappa}")


def test_acceptance_9_monte_carlo(tiger):
    started = time.monotonic()
    hits = 0
    for k in range(5):
        rng = np.random.default_rng(700 + k)
        policy = random_joint_policy(tiger, rng)
        result = simulate(tiger, policy, episodes=100_000, seed=700 + k)
        ok = True
        for agent in range(2):
            dp = evaluate_occupancy(tiger, policy, initial_occupancy(tiger), agent)
            ok = ok and abs(result.means[agent] - dp) <= 3.0 * result.stderrs[agent]
        hits += ok
    elapsed = time.monotonic() - started
    ok = hits >= 4 and elapsed < 60.0
    report(9, ok, f"{hits}/5 policies within 3 stderr, {elapsed:.1f}s")


def test_acceptance_10_negative_controls(tiger, tiger_zs, st_tiger):
    rng = np.random.default_rng(1)
    others = {1: random_behavioral_policy(tiger, 1, rng)}
    failures = [
        not check_sufficiency_master(tiger, 3, 5, negative_control=True).passed,
        not check_sufficiency_private(tiger, 0, 3, 5, negative_control=True).passed,
        not check_slave_structure(
            tiger, others, 0, 3, 5, negative_control=True, certificate_samples=1
        ).passed,
        not check_master_structure(
            tiger, "common", n_samples=3, seed=5, negative_control=True
        ).passed,
        not check_master_structure(
            tiger_zs, "zerosum", n_samples=3, seed=5, negative_control=True
        ).passed,
        not check_master_structure(
            st_tiger, "stackelberg", n_samples=3, seed=5, negative_control=True
        ).passed,
        not check_lipschitz(tiger_zs, n_samples=3, seed=5, negative_control=True).passed,
    ]
    report(10, all(failures), f"{sum(failures)}/7 corrupted suites failed as required")
