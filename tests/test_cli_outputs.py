"""Recorded CLI output: each command below reruns through ``cli.main`` from
the repository root and must print what ``tests/cli_outputs/<name>.txt``
holds (its first line the exit code, the rest stdout).

The recorder also writes ``tests/cli_outputs/VERSIONS``: the Python, numpy
and scipy versions and the machine the recordings come from.  Where the
running versions match it, every line must be byte-identical.  Elsewhere
tokens compare one by one: text and integers exactly, and a pair of numbers of
which either is a float within 1e-9 relative or 1e-12 absolute, so that other
numpy and scipy releases may move residuals near 1e-16 in their last bits.  To
record again after a change that is meant to change the output:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import io
import math
import os
import pathlib
import platform
import re
import sys

import numpy
import pytest
import scipy

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "cli_outputs"

ONE_STAGE = ["models/tiger-one-stage.posg", "--start", "0.3", "0.7"]
CASES = {
    "parse-tiger-duel": ["parse", "models/tiger-duel.posg"],
    "parse-tiger-zerosum-h3": [
        "parse", "models/tiger.posg", "--horizon", "3", "--criterion", "zerosum",
        "--start", "0.2", "0.8",
    ],
    "evaluate-tiger-h3": [
        "evaluate", "models/tiger.posg", "--horizon", "3", "--episodes", "20000", "--seed", "5",
    ],
    "evaluate-stackelberg-tiger": ["evaluate", "models/stackelberg-tiger.posg", "--seed", "2"],
    **{f"solve-{name}": ["solve", f"models/{name}.posg"] for name in (
        "tiger", "tiger-zs", "tiger-duel", "stackelberg-tiger", "tiger-one-stage",
    )},
    **{
        f"solve-stackelberg-tiger-h{h}": ["solve", "models/stackelberg-tiger.posg", "--horizon", h]
        for h in ("1", "3", "4")
    },
    **{
        f"solve-{name}-h{h}": ["solve", f"models/{name}.posg", "--horizon", h]
        for name in ("tiger-zs", "tiger-duel") for h in ("3", "4")
    },
    **{
        f"solve-one-stage-{c}": ["solve", *ONE_STAGE, "--criterion", c]
        for c in ("zerosum", "common", "stackelberg")
    },
    **{
        f"sweep-one-stage-{c}": ["sweep", "models/tiger-one-stage.posg", "--grid", "5",
                                 "--criterion", c]
        for c in ("zerosum", "common", "stackelberg")
    },
    **{
        f"verify-{name}": ["verify", f"models/{name}.posg", "--samples", "3"]
        for name in ("tiger", "tiger-zs", "stackelberg-tiger")
    },
    "verify-one-stage-zerosum": [
        "verify", "models/tiger-one-stage.posg", "--criterion", "zerosum", "--samples", "3",
    ],
    "verify-tiger-duel-h3": [
        "verify", "models/tiger-duel.posg", "--suite", "master,lipschitz,controls",
        "--horizon", "3", "--samples", "3",
    ],
    "verify-stackelberg-tiger-h3": [
        "verify", "models/stackelberg-tiger.posg", "--suite", "master,controls",
        "--horizon", "3", "--samples", "3",
    ],
    "cap-stackelberg-tiger-h2": [
        "solve", "models/stackelberg-tiger.posg", "--horizon", "2", "--cap", "3167",
    ],
    "cap-tiger-zs-h2": ["solve", "models/tiger-zs.posg", "--horizon", "2", "--cap", "138023"],
}

NUMBER = r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
TOKEN = re.compile(rf"{NUMBER}|[A-Za-z_]+|\S")


def versions() -> str:
    """The releases and machine that the printed floats depend on."""
    return (f"python {platform.python_version()}\nnumpy {numpy.__version__}\n"
            f"scipy {scipy.__version__}\nmachine {platform.machine()}\n")


VERSIONS = RECORDED / "VERSIONS"
EXACT = VERSIONS.is_file() and VERSIONS.read_text() == versions()


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``ogs argv`` run in this process from the
    repository root; stderr is dropped."""
    from occupancy_games.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def same_token(a: str, b: str, exact: bool = EXACT) -> bool:
    if a == b:
        return True
    if exact:
        return False
    if not (re.fullmatch(NUMBER, a) and re.fullmatch(NUMBER, b)):
        return False
    if not re.search(r"[.eE]", a + b):  # two integers
        return False
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_recording(name):
    expected = (RECORDED / f"{name}.txt").read_text()
    code, out = run(CASES[name])
    want_code, want_out = expected.split("\n", 1)
    assert f"exit: {code}" == want_code
    got, want = out.split("\n"), want_out.split("\n")
    assert len(got) == len(want), out
    for line, recorded in zip(got, want):
        tokens, recorded_tokens = TOKEN.findall(line), TOKEN.findall(recorded)
        assert len(tokens) == len(recorded_tokens), (line, recorded)
        assert all(map(same_token, tokens, recorded_tokens)), (line, recorded)
        assert not EXACT or line == recorded, (line, recorded)


def test_token_comparison_control():
    """The comparison is no looser than stated: integers and text exactly,
    floats to 1e-9 relative or 1e-12 absolute, and nothing but equal tokens
    where the recording's versions match."""
    def same(a, b):
        return same_token(a, b, exact=False)

    assert same("1.1e-16", "0") and same("4.321440563", "4.3214405630001")
    assert not same("3", "4") and not same("value_1", "value_2")
    assert not same("0.5", "0.5001") and not same("2e-12", "0")
    assert same("4.321440563", "4.321440564")
    assert not same_token("4.321440563", "4.321440564", exact=True)
    assert same_token("4.321440563", "4.321440563", exact=True)


if __name__ == "__main__":
    RECORDED.mkdir(exist_ok=True)
    VERSIONS.write_text(versions())
    for name, argv in CASES.items():
        code, out = run(argv)
        (RECORDED / f"{name}.txt").write_text(f"exit: {code}\n{out}")
        print(name, code, file=sys.stderr)
