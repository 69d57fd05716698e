import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from occupancy_games.model import parse_posg, reinterpret_criterion

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

# One-sided variant: agent 2's observation reveals agent 1's last action and
# observation exactly, so agent 2's private occupancy collapses to a belief.
ONE_SIDED = """
agents: 2
discount: 1.0
horizon: 2
criterion: common
states: tiger-left tiger-right
actions:
listen open
stay probe
observations:
hear-left hear-right
L-hl L-hr O-hl O-hr
start: 0.5 0.5
T: listen * : tiger-left : tiger-left : 1.0
T: listen * : tiger-left : tiger-right : 0.0
T: listen * : tiger-right : tiger-right : 1.0
T: listen * : tiger-right : tiger-left : 0.0
T: open * : * : * : 0.5
O: listen * : tiger-left : hear-left L-hl : 0.85
O: listen * : tiger-left : hear-right L-hr : 0.15
O: listen * : tiger-right : hear-left L-hl : 0.15
O: listen * : tiger-right : hear-right L-hr : 0.85
O: open * : * : hear-left O-hl : 0.5
O: open * : * : hear-right O-hr : 0.5
R1: * * : * : 0.5
R2: * * : * : 0.5
"""

MINIMAL = """
agents: 1
states: s
actions:
a
observations:
z
T: a : s : s : 1.0
O: a : s : z : 1.0
"""


def code_names(code) -> set[str]:
    """Global and attribute names a code object uses, nested ones included:
    the guard tests read which names a module or function reaches."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def raw_keys(entries) -> dict:
    """Production entries ``{(state, joint history): mass}`` keyed as the
    raw oracles of ``verify`` key their measures: ``{(state, each agent's
    steps): mass}``, in entry order."""
    return {(x, tuple(h.steps for h in o.privates)): p for (x, o), p in entries.items()}


def numbered(model, measure: dict, names=None) -> tuple[dict, list]:
    """A measure keyed by each agent's steps, numbered as the raw oracles of
    ``verify`` key theirs, in ``names`` (a fresh numbering by default):
    ``(measure, names)``."""
    from occupancy_games import verify

    names = names or verify._start_measure(model)[1]
    return {
        (x, tuple(verify._number(name, steps) for name, steps in zip(names, o))): p
        for (x, o), p in measure.items()
    }, names


def raw_step(model, measure: dict, dists, of, n_obs) -> tuple:
    """``verify._raw_step`` on a measure keyed by each agent's steps, its
    next measures decoded to the same keys."""
    from occupancy_games import verify

    measure, names = numbered(model, measure)
    mass, by_obs = verify._raw_step(model, measure, names, dists, of, n_obs)
    return mass, {seen: verify._decoded(new, names) for seen, new in by_obs.items()}


def raw_reward(model, measure: dict, dists, agent: int) -> float:
    """``verify._raw_rewards`` of one agent on a measure keyed by each
    agent's steps."""
    from occupancy_games import verify

    return verify._raw_rewards(model, *numbered(model, measure), dists, [agent])[0]


def in_steps_order(hists) -> bool:
    """Whether each agent's histories of a level (``level_of``'s second
    item) are numbered in steps order."""
    return all(list(hs) == sorted(hs, key=lambda h: h.steps) for hs in hists)


def private_children(model, s_i, others_rules) -> list[tuple]:
    """``(u_i, z_i, probability, next private occupancy state)`` for every own
    action and observation of positive probability below ``s_i``, in
    increasing ``(u_i, z_i)``: one ``private_step`` per own action."""
    from occupancy_games.occupancy import private_step

    return [
        (u_i, z_i, omega, nxt)
        for u_i in range(len(model.actions[s_i.agent]))
        for z_i, omega, nxt in private_step(model, s_i, others_rules, u_i)
    ]


def recorded_pushes(monkeypatch) -> list:
    """Every ``Pushed`` that ``occupancy.next_level`` returns to the
    occupancy updates from here on, in call order."""
    from occupancy_games import occupancy

    pushes, push = [], occupancy.next_level

    def recorded(*args, **kwargs):
        pushes.append(push(*args, **kwargs))
        return pushes[-1]

    monkeypatch.setattr(occupancy, "next_level", recorded)
    return pushes


def pairing(s, table) -> float:
    """The state's pairing with a value table: ``s(x, o) * table.value(x, o)``
    added up over the entries of ``s`` in entry order."""
    total = 0.0
    for (x, o), p in s.entries.items():
        total += p * table.value(x, o)
    return total


def restricted_start(monkeypatch) -> None:
    """Make the zero-sum loop start from the seed pair at every depth: the
    whole pair's walk counts over any cap."""
    from occupancy_games import solve

    count = solve._restricted_bytes

    def over_any_cap(model, n_anchors, depth, sets):
        if all(n is None for n in sets):
            return 2**63
        return count(model, n_anchors, depth, sets)

    monkeypatch.setattr(solve, "_restricted_bytes", over_any_cap)


# ``ogs`` commands that solve LPs, run one after another in one fresh
# interpreter by ``fresh_ogs``: both solver criteria with an LP, the
# zero-sum loop on restricted sets, and the zero-sum master check
LP_COMMANDS = (
    "solve models/tiger-duel.posg",
    "solve models/stackelberg-tiger.posg",
    "solve models/tiger-duel.posg --horizon 4",
    "verify models/tiger-duel.posg --suite master",
)

FRESH_OGS = """
import hashlib, importlib.util, json, sys
if sys.argv[1] == "package":  # the file lookup finds nothing: scipy is not searched
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = (
        lambda name, *rest: None if name == "scipy" else find_spec(name, *rest)
    )
from occupancy_games import solve
from occupancy_games.cli import main
digest, lps, linprog = hashlib.sha256(), [], solve.linprog

def record(*lp):
    res = linprog(*lp)
    lps.append(res.success)
    digest.update(repr((res.success, res.message, res.value)).encode())
    if res.success:
        digest.update(res.x.tobytes() + res.duals.tobytes())
    return res

solve.linprog = record
codes = [main(command.split()) for command in sys.argv[2:]]
loaded = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules]
print(json.dumps({"codes": codes, "lps": len(lps), "digest": digest.hexdigest(), "loaded": loaded}))
"""


@functools.cache
def fresh_ogs(lookup: str, commands: tuple[str, ...] = LP_COMMANDS) -> tuple[str, dict]:
    """``ogs`` commands run by the CLI's ``main`` in one fresh interpreter,
    HiGHS's extension found by ``solve.linprog``'s file lookup (``lookup``
    "file") or, with that lookup finding nothing, through the package
    ("package").  Returns the commands' output and what the run saw: exit
    codes, the LP count, a digest of every LP result's bits, and which of
    ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` were loaded."""
    env = dict(os.environ, PYTHONPATH=str(MODELS.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_OGS, lookup, *commands], cwd=MODELS.parent, env=env,
        capture_output=True, text=True, check=True, timeout=300,
    )
    *lines, last = out.stdout.splitlines()
    return "\n".join(lines), json.loads(last)


def model_path(name: str) -> pathlib.Path:
    return MODELS / f"{name}.posg"


def load(name: str):
    return parse_posg(model_path(name).read_text())


@pytest.fixture(scope="session")
def tiger():
    return load("tiger")


@pytest.fixture(scope="session")
def tiger_zs():
    return load("tiger-zs")


@pytest.fixture(scope="session")
def tiger_duel():
    return load("tiger-duel")


@pytest.fixture(scope="session")
def one_stage():
    return load("tiger-one-stage")


@pytest.fixture(scope="session")
def one_stage_zs(one_stage):
    return reinterpret_criterion(one_stage, "zerosum")


@pytest.fixture(scope="session")
def one_stage_st(one_stage):
    return reinterpret_criterion(one_stage, "stackelberg")


@pytest.fixture(scope="session")
def st_tiger():
    return load("stackelberg-tiger")


@pytest.fixture(scope="session")
def one_sided():
    return parse_posg(ONE_SIDED)


@pytest.fixture(scope="session")
def minimal():
    return parse_posg(MINIMAL)
