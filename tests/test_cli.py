import pytest

from occupancy_games.cli import main

from conftest import model_path

TIGER = str(model_path("tiger"))
TIGER_ZS = str(model_path("tiger-zs"))
ONE_STAGE = str(model_path("tiger-one-stage"))


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
    code, _, err = run(capsys, "solve", TIGER, "--cap", "3")
    assert code == 3 and "cap" in err


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


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", TIGER, "--suite", "master", "--samples", "2",
        "--tolerance=-1",
    )
    assert code == 1
    assert "passed=false" in out


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
        (["verify", ONE_STAGE, "--suite", "master", "--tolerance", "0"], 1),
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
    ],
)
def test_flags_at_zero_and_bad_counts(capsys, argv, code):
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:  # --horizon 0 fails validation; the rest are usage errors
        assert err.startswith("error:" if "--horizon" in argv else "usage:")


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
