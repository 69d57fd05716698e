import json
import time

import numpy as np
import pytest

from occupancy_games import cli, solve, verify
from occupancy_games.cli import main
from occupancy_games.model import parse_posg
from occupancy_games.solve import induced_normal_form

from conftest import model_path

TIGER = str(model_path("tiger"))
TIGER_ZS = str(model_path("tiger-zs"))
ONE_STAGE = str(model_path("tiger-one-stage"))
ST_TIGER = str(model_path("stackelberg-tiger"))
TIGER_DUEL = str(model_path("tiger-duel"))
DEC_TIGER = str(model_path("dec-tiger"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", TIGER)
    assert code == 0
    assert "criterion: common" in out
    assert "reward_bound: 2" in out


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "no-such-model.posg")
    assert code == 2 and "error" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.posg"
    bad.write_text("agents: 2\nstates: s\nnonsense\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2 and "error" in err


def test_solve_common_one_stage(capsys):
    code, out, _ = run(capsys, "solve", ONE_STAGE, "--criterion", "common", "--horizon", "1")
    assert code == 0
    assert "value_1: 1" in out


def test_solve_zerosum_one_stage_point_mass(capsys):
    code, out, _ = run(
        capsys, "solve", ONE_STAGE, "--criterion", "zerosum", "--horizon", "1",
        "--start", "1", "0",
    )
    assert code == 0
    assert "value_1: 0.6666666667" in out


def test_solve_cap_exceeded(capsys):
    # tiger at its horizon 2, in doubles: the walk's depth blocks 3^2 + 18^2,
    # agent 1's 27 x 21 realization matrix and the 21 x 27 payoffs
    # contracted with it, 1,467 in all
    code, _, err = run(capsys, "solve", TIGER, "--cap", "11735")
    assert code == 3 and "normal form too large: 11736 bytes exceeds cap 11735 bytes" in err
    code, out, _ = run(capsys, "solve", TIGER, "--cap", "11736")
    assert code == 0 and "value_1: 2.4" in out.splitlines()


def test_zero_sum_cap_counts_sequences(capsys):
    # tiger-zs at its horizon 2.  The loop starts from both agents' whole
    # tries where that walk fits the cap (and counts no more than four
    # walks of the seed pair, 4 x 138,024 bytes).  The whole walk counts
    # most where it builds the sparse G: 8-byte items, six per cell of its
    # 9 + 36 * 9 payoff cells, plus the walk's fixed 2^17 bytes,
    # 8 * 6 * (9 + 36 * 9) + 131,072 = 147,056 bytes
    code, out, _ = run(capsys, "solve", TIGER_ZS, "--cap", "147056")
    assert code == 0 and "value_1: 0" in out
    assert "method: sequence-form-lp" in out and "iterations" not in out
    # one byte under, the loop starts from plan 0 for each agent; its first
    # walk counts three arrays over the 9 payoff cells at the start and, for
    # each of its 2 entries, 9 joint actions, 4 level arrays and 6 arrays
    # over 68 dynamics rows, 8 * (3 * 9 + 2 * (9 + 4 + 6 * 68)) + 131,072 =
    # 138,024 bytes; its second pair counts most at the start too, the same
    # 138,024, and the best replies count nothing
    for cap in ("147055", "138024"):
        code, out, _ = run(capsys, "solve", TIGER_ZS, "--cap", cap)
        lines = out.splitlines()
        assert code == 0 and "value_1: 0" in lines
        method = lines.index("method: sequence-form-double-oracle")
        assert lines[method + 1 : method + 3] == ["sequences: 3 6", "iterations: 2"]
    code, _, err = run(capsys, "solve", TIGER_ZS, "--cap", "138023")
    assert code == 3 and "restricted game too large: 138024 bytes exceeds cap 138023 bytes" in err


def test_solve_tiger_duel(capsys):
    # at its horizon 2 the value follows the belief: 0.5 at 1/2, 0.25 at 1/4
    code, out, _ = run(capsys, "solve", TIGER_DUEL)
    lines = out.splitlines()
    assert code == 0 and lines[:4] == [
        "criterion: zerosum", "horizon: 2", "value_1: 0.5", "value_2: -0.5"
    ]
    assert "method: sequence-form-lp" in lines
    code, out, _ = run(capsys, "solve", TIGER_DUEL, "--start", "0.25", "0.75")
    assert code == 0 and "value_1: 0.25" in out.splitlines()
    # the whole walk counts the same 147,056 bytes as tiger-zs's; under it
    # the loop starts from the seed pair, whose first walk counts as
    # tiger-zs's with tiger-duel's 60 dynamics rows per state,
    # 8 * (3 * 9 + 2 * (9 + 4 + 6 * 60)) + 131,072 = 137,256 bytes, and so
    # does its second pair
    for cap in ("147055", "137256"):
        code, out, _ = run(capsys, "solve", TIGER_DUEL, "--cap", cap)
        assert code == 0 and "value_1: 0.5" in out.splitlines()
        assert "method: sequence-form-double-oracle" in out
    code, out, err = run(capsys, "solve", TIGER_DUEL, "--cap", "137255")
    assert code == 3 and out == ""
    assert "restricted game too large: 137256 bytes exceeds cap 137255 bytes" in err


def test_an_uncertified_solve_exits_6(capsys, monkeypatch):
    # an LP whose plan for agent 1 is off by 1e-3 (mixed with plan 0, which
    # every restricted set holds) leaves the zero-sum loop's certificate
    # open until its sets stop growing: an error line and exit 6
    real = solve._realization_plan_lp

    def off(G, parents, n_us, played=None):
        value, x, y, gap = real(G, parents, n_us, played)
        plan_0 = np.zeros_like(x)
        for c, p in enumerate(parents[0]):  # sets follow their parents
            plan_0[c * n_us[0]] = 1.0 if p < 0 else plan_0[p] * (p % n_us[0] == 0)
        return value, (1 - 1e-3) * x + 1e-3 * plan_0, y, gap

    monkeypatch.setattr(solve, "_realization_plan_lp", off)
    code, out, err = run(capsys, "solve", TIGER_DUEL, "--horizon", "3")
    assert code == 6 and out == "" and "Traceback" not in err
    assert err.startswith("error: zero-sum certificate") and "exceeds tolerance" in err


@pytest.mark.parametrize(
    "model, error",
    [
        (TIGER_ZS, "sequence-form LP failed"),
        (ST_TIGER, "no follower plan admits an incentive-compatible leader plan"),
    ],
    ids=["zerosum", "stackelberg"],
)
def test_a_failed_lp_exits_6(capsys, monkeypatch, model, error):
    # an LP HiGHS does not solve is an uncertified result: one error line
    # naming HiGHS's model status, exit 6, no traceback
    failed = solve.LpResult(False, "HiGHS model status: Solve error", None, None, float("nan"))
    monkeypatch.setattr(solve, "linprog", lambda *lp: failed)
    code, out, err = run(capsys, "solve", model)
    assert code == 6 and out == "" and "Traceback" not in err
    assert err == f"error: {error}: HiGHS model status: Solve error\n"


def test_verify_tiger_duel(capsys):
    code, out, _ = run(capsys, "verify", TIGER_DUEL, "--samples", "5")
    names = [line.split(" ")[0] for line in out.splitlines()]
    assert code == 0 and "passed=false" not in out
    assert names == [
        "property=sufficiency-master",
        "property=sufficiency-private-agent1",
        "property=sufficiency-private-agent2",
        "property=slave-structure-agent1",
        "property=master-structure-zerosum",
        "property=lipschitz-zerosum",
    ]
    # at tolerance 1000 the master and lipschitz checks accept their
    # corruptions, so their controls fail
    argv = ("--suite", "master,lipschitz,controls", "--samples", "3", "--tolerance", "1000")
    code, out, _ = run(capsys, "verify", TIGER_DUEL, *argv)
    failed = [line.split(" ")[0] for line in out.splitlines() if "passed=false" in line]
    assert code == 1 and failed == [
        "property=master-structure-zerosum-negative-control",
        "property=lipschitz-zerosum-negative-control",
    ]


def test_stackelberg_cap_counts_leader_sequences(capsys):
    # stackelberg-tiger at its horizon 2: the leader stays in sequence form
    # with 2 + 8 sequences, the follower's 8 pure policies are enumerated;
    # in doubles, 2 x (2^2 + 8^2) for the depth blocks of both payoffs,
    # 8 x 10 for the follower's realization matrix, 10 x 8 for the leader's
    # payoffs contracted with it and 10 x 10 for the follower's sequence form
    path = str(model_path("stackelberg-tiger"))
    code, _, err = run(capsys, "solve", path, "--cap", "3167")
    assert code == 3 and "normal form too large: 3168 bytes exceeds cap 3167 bytes" in err
    code, out, _ = run(capsys, "solve", path, "--cap", "3168")
    assert code == 0 and "method: multiple-lp" in out


def test_solve_stackelberg_prints_the_follower_regret(capsys):
    path = str(model_path("stackelberg-tiger"))
    code, out, _ = run(capsys, "solve", path, "--horizon", "3", "--tolerance", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("method: multiple-lp") + 1].startswith("follower_regret: ")
    assert float(lines[-1].split(": ")[1]) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", TIGER, "--suite", "sufficiency,slave", "--samples", "1", "--tolerance", "0"],
        ["solve", TIGER, "--tolerance", "0"],
        ["sweep", ONE_STAGE, "--grid", "3", "--tolerance", "0"],
    ],
    ids=["verify-without-master-or-lipschitz", "solve-common", "sweep-common"],
)
def test_tolerance_that_nothing_reads_is_a_usage_error(capsys, argv):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--tolerance" in err and "Traceback" not in err


def test_solve_zero_sum_four_steps(capsys):
    # the whole tries' walk (777 sequences per agent) counts more than four
    # seed walks: the loop starts from the seed pair
    code, out, _ = run(capsys, "solve", TIGER_ZS, "--horizon", "4")
    assert code == 0
    lines = out.splitlines()
    assert "value_1: 0" in lines and "method: sequence-form-double-oracle" in lines
    assert "sequences: 15 30" in lines and "iterations: 2" in lines


def test_solve_zero_sum_five_steps(capsys):
    # of 4,665 sequences per agent, the loop keeps 31 and 62
    code, out, _ = run(capsys, "solve", TIGER_ZS, "--horizon", "5")
    assert code == 0
    lines = out.splitlines()
    assert "value_1: 0" in lines and "method: sequence-form-double-oracle" in lines
    fields = dict(line.split(": ", 1) for line in lines)
    assert fields["sequences"] == "31 62" and fields["iterations"] == "2"
    assert float(fields["residual"]) <= 1e-9 and float(fields["duality_gap"]) <= 1e-9


def test_verify_sufficiency(capsys):
    code, out, _ = run(
        capsys, "verify", TIGER, "--suite", "sufficiency", "--samples", "5",
        "--seed", "7",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3  # master + one per agent
    assert all("passed=true" in l for l in lines)


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", TIGER, "--suite", "bogus")
    assert code == 4 and "unknown suite" in err


def test_verify_all_beside_controls_runs_each_check_and_its_control(capsys):
    argv = ("--suite", "all,controls", "--horizon", "2", "--samples", "2")
    code, out, err = run(capsys, "verify", DEC_TIGER, *argv)
    names = [line.split(" ")[0].removeprefix("property=") for line in out.splitlines()]
    checks = [
        "sufficiency-master", "sufficiency-private-agent1", "sufficiency-private-agent2",
        "slave-structure-agent1", "master-structure-common",
    ]
    assert code == 0 and err == "" and "passed=false" not in out
    assert names == checks + [f"{c}-negative-control" for c in checks]


def test_verify_one_stage_zero_sum_master_and_its_control(capsys):
    # at one stage the zero-sum master check prices a belief grid, and its
    # control corrupts the grid certificate
    argv = ("--criterion", "zerosum", "--suite", "master,controls", "--samples", "3")
    code, out, _ = run(capsys, "verify", ONE_STAGE, *argv)
    check, control = out.splitlines()
    assert code == 0
    assert check.startswith("property=master-structure-zerosum ") and "passed=true" in check
    assert '"grid_points": 101' in check
    assert control.startswith("property=master-structure-zerosum-negative-control ")
    assert "passed=true" in control


def test_verify_failure_exit_code(capsys, monkeypatch):
    argv = ("verify", TIGER, "--suite", "master", "--samples", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "passed=true" in out
    # the certificate compares dec_value_from against a brute-force maximum:
    # a production value off by 0.1 must fail it
    dec_value_from = verify.dec_value_from
    monkeypatch.setattr(verify, "dec_value_from", lambda *a: dec_value_from(*a) + 0.1)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "passed=false" in out


def test_verify_tolerance_zero_is_applied(capsys):
    code, out, err = run(capsys, "verify", ONE_STAGE, "--suite", "master", "--tolerance", "0")
    # whether a 1e-16 residue fails at tolerance 0 is round-off; the contract
    # is that the flag reaches the report
    assert code in (0, 1) and "Traceback" not in err
    assert " tolerance=0 " in out


def test_verify_controls_rerun_the_checks_at_their_tolerance(capsys):
    # at tolerance 1000 the injected corruptions (100 and about 98) pass the
    # master and lipschitz checks, so their controls must fail
    argv = ("--suite", "master,lipschitz,controls", "--samples", "3", "--tolerance", "1000")
    code, out, _ = run(capsys, "verify", TIGER_ZS, *argv)
    lines = {line.split(" ")[0]: line for line in out.splitlines()}
    assert code == 1
    for name in ("master-structure-zerosum", "lipschitz-zerosum"):
        control = lines[f"property={name}-negative-control"]
        assert "passed=false" in control and '"corrupted_check_tolerance": 1000' in control
    # named beside other suites, controls reruns only their checks
    assert "property=sufficiency-master-negative-control" not in lines
    assert len(lines) == 4


def test_verify_controls_beside_other_suites_read_the_tolerance_only_through_them(capsys):
    # controls beside sufficiency reruns only the sufficiency checks, which
    # never read --tolerance; named alone it reruns the master check too
    argv = ["verify", TIGER_ZS, "--tolerance", "1e-6", "--samples", "1"]
    assert exit_code(argv + ["--suite", "sufficiency,controls"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tolerance" in captured.err
    assert exit_code(argv + ["--suite", "lipschitz,controls"]) == 0


def test_verify_controls_beside_other_suites_skip_the_slave_certificate(capsys):
    # at h=3 the slave check's pwlc certificate would enumerate 3^16 anchored
    # plans and exit 3; controls named beside master and lipschitz never runs it
    argv = ("--horizon", "3", "--suite", "master,lipschitz,controls", "--samples", "3")
    code, out, err = run(capsys, "verify", TIGER_DUEL, *argv)
    names = [line.split(" ")[0] for line in out.splitlines()]
    assert code == 0 and err == "" and "passed=false" not in out
    assert names == [
        "property=master-structure-zerosum",
        "property=lipschitz-zerosum",
        "property=master-structure-zerosum-negative-control",
        "property=lipschitz-zerosum-negative-control",
    ]
    # the corruptions fail their checks
    assert out.count('"corrupted_check_tolerance": 1e-06') == 2


def test_verify_controls_read_the_tolerance_where_a_solver_check_applies(capsys):
    code, out, _ = run(capsys, "verify", TIGER_ZS, "--suite", "controls", "--tolerance", "1e-6")
    assert code == 0 and "passed=false" not in out
    general = ["verify", TIGER_ZS, "--suite", "controls", "--tolerance", "1e-6"]
    assert exit_code(general + ["--criterion", "general"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tolerance" in captured.err


@pytest.mark.parametrize(
    "argv, suite, criterion",
    [
        (["--suite", "lipschitz"], "lipschitz", "common"),
        (["--criterion", "general", "--suite", "master"], "master", "general"),
    ],
)
def test_verify_refuses_a_named_suite_that_does_not_apply(capsys, argv, suite, criterion):
    code, out, err = run(capsys, "verify", TIGER, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error:") and f"'{suite}'" in err and f"'{criterion}'" in err


def test_verify_stackelberg_master_is_refused_below_two_steps(capsys):
    code, out, err = run(capsys, "verify", ST_TIGER, "--horizon", "1", "--suite", "master")
    assert code == 4 and out == ""
    assert err.startswith("error:") and "'master'" in err and "'stackelberg' at horizon 1" in err
    code, out, _ = run(capsys, "verify", ST_TIGER, "--horizon", "1", "--samples", "2")
    assert code == 0 and "master-structure" not in out
    # the master control could not fail at horizon 1, so controls exited 1
    code, out, _ = run(capsys, "verify", ST_TIGER, "--horizon", "1", "--suite", "controls")
    assert code == 0 and len(out.splitlines()) == 4 and "master-structure" not in out


def test_verify_stackelberg_master_still_runs_at_two_steps(capsys):
    code, out, _ = run(
        capsys, "verify", ST_TIGER, "--horizon", "2", "--suite", "master", "--samples", "5"
    )
    (line,) = out.splitlines()
    fields = dict(f.split("=", 1) for f in line.split(" ")[:-1])  # all but the notes
    assert code == 0 and float(fields.pop("max_violation")) <= 1e-12
    assert fields == {
        "property": "master-structure-stackelberg", "fixture": ST_TIGER, "samples": "5",
        "seed": "0", "tolerance": "1e-06", "passed": "true",
    }
    code, out, _ = run(capsys, "verify", ST_TIGER, "--horizon", "2", "--suite", "controls")
    last = out.splitlines()[-1]
    assert code == 0 and last.startswith("property=master-structure-stackelberg-negative-control")
    assert "passed=true" in last


def test_sweep_dec_curve(tmp_path, capsys):
    out_file = tmp_path / "dec.csv"
    code, _, _ = run(
        capsys, "sweep", ONE_STAGE, "--grid", "101", "--output", str(out_file)
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "belief,value"
    for row in rows[1:]:
        b, v = map(float, row.split(","))
        assert v == pytest.approx(max(1.0, 4.0 * b - 2.0), abs=1e-9)


def test_sweep_zs_curve_and_components(tmp_path, capsys):
    out_file = tmp_path / "zs.csv"
    code, _, _ = run(
        capsys, "sweep", ONE_STAGE, "--criterion", "zerosum", "--grid", "101",
        "--output", str(out_file),
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "belief,value,component_0,component_1"
    for row in rows[1:]:
        b, v, c0, c1 = map(float, row.split(","))
        expected = 0.0 if b <= 0.5 else (4 * b - 2) / (4 * b - 1)
        assert v == pytest.approx(expected, abs=1e-6)
        assert c0 == pytest.approx(min(1.0, 0.0))
        assert c1 == pytest.approx(min(0.0, 4 * b - 2.0))


def test_sweep_bytes_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", ONE_STAGE, "--criterion", "zerosum", "--output", str(a))
    run(capsys, "sweep", ONE_STAGE, "--criterion", "zerosum", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_two_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", ONE_STAGE, "--grid", "2")
    assert code == 0
    assert out.splitlines() == ["belief,value", "0,1", "1,2"]


def test_sweep_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", ONE_STAGE, "--grid", "1")
    assert code == 5 and "grid" in err


def test_sweep_wrong_state_count(tmp_path, capsys):
    three = tmp_path / "three.posg"
    three.write_text(
        """
agents: 2
states: a b c
actions:
x
x
observations:
z
z
T: x x : * : a : 1.0
T: x x : * : b : 0.0
T: x x : * : c : 0.0
O: x x : * : z z : 1.0
R1: x x : * : 1.0
R2: x x : * : 1.0
"""
    )
    code, _, err = run(capsys, "sweep", str(three))
    assert code == 5 and "2 states" in err


def test_evaluate_with_policy_roundtrip(tmp_path, capsys):
    policy_file = tmp_path / "policy.json"
    code, out, _ = run(
        capsys, "evaluate", TIGER, "--seed", "5", "--episodes", "2000",
        "--dump-policy", str(policy_file),
    )
    assert code == 0
    assert "value_1:" in out and "simulated_1:" in out
    first_value = [l for l in out.splitlines() if l.startswith("value_1:")][0]
    # re-evaluating the dumped policy reproduces the exact value
    code, out2, _ = run(capsys, "evaluate", TIGER, "--policy", str(policy_file))
    assert code == 0
    assert first_value in out2


def test_evaluate_refuses_too_many_episodes(capsys):
    # 10^12 episodes of two agents would hold 10^12 x (8 x (2 x 2 + 2) + 1)
    # bytes, and a block 8 x 2^14 x (4 x 2 + 10)
    code, out, err = run(capsys, "evaluate", TIGER, "--episodes", "1000000000000")
    assert code == 3 and "value_1:" in out and "simulated_1" not in out
    assert err.splitlines()[-1] == (
        "error: simulation too large: 49000002359296 bytes exceeds cap 1073741824 bytes"
    )
    assert "Traceback" not in err


LEAF = {"action": "listen"}
FULL = {"action": "listen", "children": {"hear-left": LEAF, "hear-right": LEAF}}


def tree_file(path, *roots) -> str:
    """A joint policy file of one tree per agent, at the trees' horizon."""
    agents = [{"type": "tree", "tree": root} for root in roots]
    path.write_text(json.dumps({"horizon": 3, "agents": agents}))
    return str(path)


@pytest.mark.parametrize("episodes", [[], ["--episodes", "100"]], ids=["exact", "simulated"])
@pytest.mark.parametrize("policy", ["deleted-history", "ragged-tree"])
def test_a_policy_that_leaves_a_reached_history_undefined_exits_2(
    tmp_path, capsys, policy, episodes
):
    # a behavioral rule with one history deleted, and a tree whose
    # hear-right subtree stops one step short at h=3, leave a history the
    # policy reaches without a decision: a bad policy file, not a failed
    # property
    path = tmp_path / "policy.json"
    if policy == "deleted-history":
        assert main(["evaluate", TIGER, "--horizon", "2", "--dump-policy", str(path)]) == 0
        data = json.loads(path.read_text())
        del data["agents"][0]["rules"][1]["listen:hear-right"]
        path.write_text(json.dumps(data))
        argv, where = ["--horizon", "2"], "((0, 1),) (t=1)"
    else:
        ragged = {"action": "listen", "children": {"hear-left": FULL, "hear-right": LEAF}}
        tree_file(path, ragged, {"action": "listen", "children": {"hear-left": FULL, "hear-right": FULL}})
        argv, where = ["--horizon", "3"], "((0, 1), (0, 0)) (t=2)"
    capsys.readouterr()
    code, out, err = run(capsys, "evaluate", TIGER, *argv, "--policy", str(path), *episodes)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines() == [f"error: undefined decision rule for agent 0 at history {where}"]


def test_a_mixture_of_trees_of_unequal_horizons_exits_2(tmp_path, capsys):
    # the mixture's first component has the model's horizon, its second
    # does not: the file is refused where it is read
    mixture = {"type": "mixture", "components": [
        {"weight": 0.5, "tree": {"action": "listen", "children": {"hear-left": FULL, "hear-right": FULL}}},
        {"weight": 0.5, "tree": LEAF},
    ]}
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps({"horizon": 3, "agents": [mixture, {"type": "tree", "tree": LEAF}]}))
    code, out, err = run(capsys, "evaluate", TIGER, "--horizon", "3", "--policy", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: policy file {path}: mixture components differ in horizon")


def test_exact_evaluation_over_the_budget_exits_3(capsys):
    # tiger at h=6: the step at t=4 would push 228,427,776 rows, refused
    # before that push, after pushes of at most 6,345,216 rows
    code, out, err = run(capsys, "evaluate", TIGER, "--horizon", "6")
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "error: exact evaluation too large: 17467369552 bytes exceeds cap 1073741824 bytes"
    )


@pytest.mark.parametrize("h", [6, 8])
def test_exact_evaluation_over_the_budget_exits_3_before_the_random_policy(capsys, monkeypatch, h):
    # a drawn rule plays every action, so exact evaluation is counted, and
    # refused at t=4 on the same line, before the policy is drawn
    def no_draw(*args):
        raise AssertionError("random policy drawn")

    monkeypatch.setattr(cli, "random_joint_policy", no_draw)
    start = time.perf_counter()
    code, out, err = run(capsys, "evaluate", TIGER, "--horizon", str(h))
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        "error: exact evaluation too large: 17467369552 bytes exceeds cap 1073741824 bytes"
    ]


def test_a_random_policy_over_the_budget_exits_3_before_any_draw(capsys):
    # tiger at h=12 would draw rules for 2 x 435,356,467 histories: the
    # draw is counted first and refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, "evaluate", TIGER, "--horizon", "12")
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        "error: random policy too large: 420031919400 bytes exceeds cap 1073741824 bytes"
    ]


def test_an_occupancy_update_over_the_budget_exits_3(capsys):
    # the master check samples tiger h=8 prefixes by step, whose push at
    # t=6 would hold 141,426,672 rows: refused before it, with no random
    # policy drawn for the tolerance check
    code, out, err = run(
        capsys, "verify", TIGER, "--suite", "master", "--horizon", "8", "--tolerance", "1e-6"
    )
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        "error: occupancy update too large: 10632089120 bytes exceeds cap 1073741824 bytes"
    ]


@pytest.mark.parametrize("episodes", [[], ["--episodes", "1000"]], ids=["exact", "simulated"])
@pytest.mark.parametrize("dist", [{"listen": 1.5, "open-left": -0.5}, {"listen": float("nan")}],
                         ids=["negative", "nan"])
def test_a_policy_with_a_negative_or_nan_probability_exits_2(tmp_path, capsys, dist, episodes):
    # (1.5, -0.5) sums to 1 and NaN fails no comparison: both are refused
    # where the file is read, exact and simulated
    path = tmp_path / "policy.json"
    assert main(["evaluate", TIGER, "--horizon", "1", "--dump-policy", str(path)]) == 0
    data = json.loads(path.read_text())
    data["agents"][1]["rules"][0]["()"] = dist
    path.write_text(json.dumps(data))
    capsys.readouterr()
    argv = ["evaluate", TIGER, "--horizon", "1", "--policy", str(path), *episodes]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        f"error: policy file {path}: decision rule image must be a distribution"
    ]


def test_a_mixture_with_a_negative_weight_exits_2(tmp_path, capsys):
    leaf = {"action": "listen"}
    mixture = {"type": "mixture", "components": [
        {"weight": 1.5, "tree": leaf}, {"weight": -0.5, "tree": leaf},
    ]}
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"horizon": 1, "agents": [mixture, {"type": "tree", "tree": leaf}]}))
    code, out, err = run(capsys, "evaluate", TIGER, "--horizon", "1", "--policy", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        f"error: policy file {path}: mixture weights must be nonnegative and sum to 1"
    ]


def test_verify_lipschitz_on_zs(capsys):
    code, out, _ = run(
        capsys, "verify", TIGER_ZS, "--suite", "lipschitz", "--samples", "5"
    )
    assert code == 0 and "lipschitz-zerosum" in out


def exit_code(argv):
    """Exit code of one invocation; argparse usage errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", TIGER, "--horizon", "0"], 2),
        (["solve", TIGER, "--cap", "0"], 3),
        (["sweep", ONE_STAGE, "--criterion", "zerosum", "--grid", "3", "--cap", "1"], 3),
        (["verify", ONE_STAGE, "--suite", "lipschitz", "--tolerance", "0"], 4),
        (["evaluate", ONE_STAGE, "--episodes", "-5"], 2),
        (["verify", ONE_STAGE, "--samples", "0"], 2),
        (["verify", ONE_STAGE, "--samples", "-3"], 2),
        # flags a subcommand does not read are not accepted
        (["verify", ONE_STAGE, "--suite", "master", "--cap", "0"], 2),
        (["evaluate", ONE_STAGE, "--cap", "0"], 2),
        (["parse", ONE_STAGE, "--cap", "0"], 2),
        (["evaluate", ONE_STAGE, "--tolerance", "0"], 2),
        (["parse", ONE_STAGE, "--tolerance", "0"], 2),
        (["parse", ONE_STAGE, "--seed", "1"], 2),
        (["solve", ONE_STAGE, "--seed", "1"], 2),
        (["sweep", ONE_STAGE, "--seed", "1"], 2),
        (["sweep", ONE_STAGE, "--start", "0.5", "0.5"], 2),
        # seeds are >= 0; tolerances are finite and >= 0
        (["evaluate", ONE_STAGE, "--seed", "-1"], 2),
        (["verify", ONE_STAGE, "--suite", "master", "--seed", "-1"], 2),
        (["solve", ONE_STAGE, "--criterion", "zerosum", "--tolerance", "nan"], 2),
        (["sweep", ONE_STAGE, "--criterion", "zerosum", "--grid", "3", "--tolerance", "nan"], 2),
        (["verify", ONE_STAGE, "--suite", "master", "--tolerance", "nan"], 2),
        (["verify", ONE_STAGE, "--suite", "master,lipschitz", "--tolerance", "inf"], 2),
        (["verify", ONE_STAGE, "--suite", "master", "--tolerance=-1e-9"], 2),
        (["solve", ONE_STAGE, "--criterion", "zerosum", "--tolerance", "-1"], 2),
        # caps are >= 0; --cap 0 is honoured above
        (["solve", TIGER_ZS, "--cap", "-5"], 2),
        (["sweep", ONE_STAGE, "--criterion", "zerosum", "--grid", "3", "--cap", "-1"], 2),
    ],
)
def test_flags_at_zero_and_bad_counts(capsys, argv, code):
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:  # --horizon 0 fails validation; the rest are usage errors
        assert err.startswith("error:" if "--horizon" in argv else "usage:")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["parse", TIGER, "--start", "1"], 2, "error: --start needs 2 probabilities, got 1"),
        (
            ["solve", TIGER, "--criterion", "general"], 2,
            "error: no solver for criterion 'general'; pass --criterion to choose one",
        ),
        (
            ["sweep", TIGER, "--criterion", "general"], 5,
            "error: sweep needs a zerosum/common/stackelberg criterion",
        ),
        (
            ["solve", TIGER, "--tolerance", "abc"], 2,
            "ogs solve: error: argument --tolerance: must be a finite number >= 0, got abc",
        ),
        (
            ["verify", TIGER, "--suite", "slave", "--horizon", "3"], 3,
            "error: anchored plans of the pwlc certificate too large: 43046721 exceeds cap 10000",
        ),
    ],
    ids=["start-count", "solve-general", "sweep-general", "tolerance-not-a-number", "slave-h3"],
)
def test_each_refusal_exits_with_its_code_and_one_error_line(capsys, argv, code, message):
    assert exit_code(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if "error:" in line] == [message]


# the public-observation grammar model of tests/test_model.py, with rewards
PUBLIC_OBS = """
agents: 2
horizon: 2
states: s0 s1
actions:
a b
a b
observations:
y
y
public-observations: w0 w1
start: 1.0 0.0
T: * * : * : s0 : 0.5
T: * * : * : s1 : 0.5
O: * * : s0 : y y w0 : 1.0
O: * * : s1 : y y w1 : 1.0
R1: a a : * : 1.0
R1: b * : s1 : -0.5
R2: * b : s0 : 2.0
"""


def test_a_dumped_policy_reads_back_where_two_observations_are_public(tmp_path, capsys):
    # a history label there reads "a:y|w0|b:y|w1": each step's observation
    # label carries its public part
    model = tmp_path / "public.posg"
    model.write_text(PUBLIC_OBS)
    policy = tmp_path / "p.json"
    code, dumped, _ = run(capsys, "evaluate", str(model), "--dump-policy", str(policy))
    assert code == 0 and '"a:y|w0"' in policy.read_text()
    code, out, err = run(capsys, "evaluate", str(model), "--policy", str(policy))
    assert (code, out, err) == (0, dumped, "")
    assert out.startswith("value_1: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", str(model_path("tiger").parent)],
        ["parse", "{tmp}/latin1.posg"],
        ["evaluate", TIGER, "--policy", "{tmp}/brace.json"],
        ["evaluate", TIGER, "--policy", "{tmp}/list.json"],
        ["evaluate", ONE_STAGE, "--policy", "{tmp}/tiger.json"],
        ["evaluate", TIGER, "--policy", "{tmp}/tiger.json", "--horizon", "3"],
        [
            "evaluate", TIGER, "--policy", "{tmp}/tiger.json", "--horizon", "1",
            "--episodes", "20000", "--seed", "3",
        ],
    ],
)
def test_unreadable_inputs_exit_2(tmp_path, capsys, argv):
    (tmp_path / "latin1.posg").write_bytes(b"agents: 2\nstates: \xe9t\xe9\n")
    (tmp_path / "brace.json").write_text("{")
    (tmp_path / "list.json").write_text("[1]")
    assert main(["evaluate", TIGER, "--dump-policy", str(tmp_path / "tiger.json")]) == 0
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    culprit = argv[argv.index("--policy") + 1] if "--policy" in argv else argv[1]
    assert culprit in err


@pytest.mark.parametrize(
    "line, command",
    [
        ("start: 0.5 0.5", "solve"),
        ("T: listen listen : tiger-left : tiger-left : 1.0", "solve"),
        ("O: listen listen : tiger-left : hear-left hear-left : 0.7225", "evaluate"),
    ],
    ids=["start", "transition", "observation"],
)
def test_non_finite_tables_exit_2(tmp_path, capsys, line, command):
    text = model_path("tiger").read_text()
    assert line in text
    path = tmp_path / "nan.posg"
    path.write_text(text.replace(line, line.rsplit(" ", 1)[0] + " nan"))
    assert exit_code([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err and "Traceback" not in err


def test_solve_common_three_steps(capsys):
    code, out, _ = run(capsys, "solve", TIGER, "--horizon", "3")
    assert code == 0
    assert "value_1: 3.4" in out.splitlines()


@pytest.mark.parametrize("criterion", ["zerosum", "common", "stackelberg"])
def test_sweep_rows_match_solve(capsys, criterion):
    code, out, _ = run(capsys, "sweep", ONE_STAGE, "--criterion", criterion, "--grid", "5")
    assert code == 0
    for row in out.splitlines()[1:]:
        belief, value = row.split(",")[:2]
        b = float(belief)
        code, solved, _ = run(
            capsys, "solve", ONE_STAGE, "--criterion", criterion,
            "--start", repr(b), repr(1.0 - b),
        )
        assert code == 0
        assert f"value_1: {value}" in solved.splitlines()


def test_sweep_zero_sum_components_are_row_minima(capsys):
    code, out, _ = run(capsys, "sweep", TIGER_ZS, "--grid", "5")
    assert code == 0
    model = parse_posg(model_path("tiger-zs").read_text())
    rows = out.splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        belief, _, *components = row.split(",")
        b = float(belief)
        (A,), _ = induced_normal_form(model.with_start([b, 1.0 - b]), [0])
        minima = A.min(axis=1)
        assert len(components) == len(minima) == 27
        assert max(abs(float(c) - v) for c, v in zip(components, minima)) <= 1e-9
