import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occupancy_games.errors import ModelValidationError, PosgParseError
from occupancy_games.model import classify, parse_posg, reinterpret_criterion
from occupancy_games.sampling import random_posg

from conftest import MINIMAL, model_path


def test_tiger_observation_probability(tiger):
    # both listening in tiger-left: each agent hears left with 0.85
    u = tiger.joint_action_index((0, 0))
    x_left = tiger.states.index("tiger-left")
    z_both_left = tiger.joint_obs_index((0, 0), 0)
    assert tiger.observation[u, x_left, z_both_left] == pytest.approx(0.85 * 0.85)
    # marginal for one agent
    marg = sum(
        tiger.observation[u, x_left, tiger.joint_obs_index((0, z2), 0)]
        for z2 in range(2)
    )
    assert marg == pytest.approx(0.85, abs=1e-12)


def test_minimal_model_parses(minimal):
    assert minimal.n_states == 1
    assert minimal.transition.shape == (1, 1, 1)
    assert minimal.transition[0, 0, 0] == 1.0
    assert minimal.start[0] == 1.0


def test_row_sum_validation_error():
    bad = model_path("tiger").read_text().replace(
        "T: listen listen : tiger-left : tiger-left : 1.0",
        "T: listen listen : tiger-left : tiger-left : 0.9",
    )
    with pytest.raises(ModelValidationError, match="row sum"):
        parse_posg(bad)


def test_parse_errors_report_position():
    with pytest.raises(PosgParseError, match="line 3"):
        parse_posg("agents: 1\nstates: s\nbogus-key: 1\n")
    with pytest.raises(PosgParseError, match="unknown label"):
        parse_posg(
            "agents: 1\nstates: s\nactions:\na\nobservations:\nz\n"
            "T: a : nope : s : 1.0\nO: a : s : z : 1.0\n"
        )
    with pytest.raises(PosgParseError, match="duplicate"):
        parse_posg("agents: 1\nagents: 2\n")
    with pytest.raises(PosgParseError, match="expected 1 action labels"):
        parse_posg(
            "agents: 1\nstates: s\nactions:\na\nobservations:\nz\n"
            "T: a a : s : s : 1.0\nO: a : s : z : 1.0\n"
        )


# a two-agent model whose line numbers the error table below refers to
GOOD = """agents: 2
horizon: 2
states: s0 s1
actions:
a b
a b
observations:
y
y
start: 1.0 0.0
T: * * : * : s0 : 0.5
T: * * : * : s1 : 0.5
O: * * : * : y y : 1.0
R1: a a : * : 1.0
R2: a a : * : 1.0
"""


def _edit(old, new):
    assert GOOD.count(old) == 1, old
    return GOOD.replace(old, new)


@pytest.mark.parametrize(
    "text, kind, message, line",
    [
        ("states: s0 s1\n", PosgParseError, "missing 'agents:' declaration", None),
        (_edit("states: s0 s1\n", ""), PosgParseError, "missing 'states:' declaration", None),
        (
            _edit("observations:\ny\ny\n", ""),
            PosgParseError, "missing 'observations:' section", None,
        ),
        (
            _edit("agents: 2\n", "") + "agents: 2\n",
            PosgParseError, "'agents:' must precede 'actions'", 3,
        ),
        (
            "agents: 2\nstates: s\nactions:\na b\n",
            PosgParseError, "expected 2 label lines after 'actions'", 3,
        ),
        (_edit("R2:", "Rx:"), PosgParseError, "unknown key 'Rx'", 15),
        (_edit("agents: 2", "agents: 0"), PosgParseError, "agents must be >= 1", 1),
        (
            _edit("horizon: 2", "criterion: best"),
            PosgParseError, "criterion must be one of zerosum/common/stackelberg/general, "
            "got 'best'", 2,
        ),
        (_edit("horizon: 2", "horizon: two"), PosgParseError, "bad value for 'horizon'", 2),
        (
            _edit("T: * * : * : s0 : 0.5", "T: * * : * : s0"),
            PosgParseError, "expected 4 ':'-separated fields, got 3", 11,
        ),
        (
            _edit("states: s0 s1", "states: s0 s0"),
            PosgParseError, "duplicate label in 'states'", None,
        ),
        (
            _edit("actions:\na b", "actions:\na a"),
            PosgParseError, "duplicate label in agent 1 'actions'", None,
        ),
        (_edit("R2:", "R3:"), PosgParseError, "reward for unknown agent 3", 15),
        (_edit("s0 : 0.5", "s0 : half"), PosgParseError, "expected a number, got 'half'", 11),
        (
            _edit("start: 1.0 0.0", "start: 1.0"),
            PosgParseError, "start has 1 entries, expected 2", None,
        ),
        (
            _edit("s0 : 0.5\nT: * * : * : s1 : 0.5", "s0 : -0.5\nT: * * : * : s1 : 1.5"),
            ModelValidationError, "negative probability entry", None,
        ),
        (
            _edit("y y : 1.0", "y y : 0.5"),
            ModelValidationError, "observation row sum for \\(action 0, state s0\\) is 0.5", None,
        ),
        (
            "criterion: common\n" + _edit("R2: a a : * : 1.0", "R2: a a : * : 2.0"),
            ModelValidationError, "declared common but rewards differ across agents", None,
        ),
    ],
    ids=[
        "no-agents", "no-states", "no-observations", "agents-after-actions", "too-few-label-lines",
        "bad-reward-key", "zero-agents", "bad-criterion", "non-numeric-header", "field-count",
        "duplicate-states", "duplicate-actions", "unknown-reward-agent", "non-numeric-probability",
        "start-length", "negative-probability", "observation-row-sum", "common-rewards-differ",
    ],
)
def test_malformed_models_are_refused_with_their_line(text, kind, message, line):
    with pytest.raises(kind, match=message) as exc:
        parse_posg(text)
    assert type(exc.value) is kind
    assert getattr(exc.value, "line", None) == line
    if line is not None:
        assert str(exc.value).startswith(f"line {line}")


def test_the_table_model_parses():
    m = parse_posg(GOOD)
    assert m.criterion == "common" and m.horizon == 2 and m.n_joint_obs == 1


def test_parse_command_exits_2_on_a_malformed_model(tmp_path, capsys):
    from occupancy_games.cli import main

    path = tmp_path / "bad.posg"
    path.write_text(_edit("s0 : 0.5", "s0 : half"))
    assert main(["parse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 11, col 19: expected a number, got 'half'\n"


def test_later_lines_override():
    text = MINIMAL.replace("T: a : s : s : 1.0", "T: a : s : s : 0.3\nT: * : * : * : 1.0")
    m = parse_posg(text)
    assert m.transition[0, 0, 0] == 1.0


def test_missing_sections_rejected():
    with pytest.raises(PosgParseError, match="missing 'actions:'"):
        parse_posg("agents: 1\nstates: s\nobservations:\nz\n")


def test_classify_tags(one_stage):
    assert classify(one_stage) == "common"
    assert classify(reinterpret_criterion(one_stage, "zerosum")) == "zerosum"
    assert classify(reinterpret_criterion(one_stage, "stackelberg")) == "stackelberg"


def test_classify_general():
    text = """
agents: 2
states: s
actions:
a b
a b
observations:
z
z
T: * * : * : * : 1.0
O: * * : * : z z : 1.0
R1: a a : s : 1.0
R2: b b : s : 1.0
"""
    m = parse_posg(text)
    assert m.criterion == "general"
    assert classify(m) == "general"


def test_declared_zerosum_must_match():
    bad = model_path("tiger").read_text().replace(
        "criterion: common", "criterion: zerosum"
    )
    with pytest.raises(ModelValidationError, match="zerosum"):
        parse_posg(bad)


def test_joint_dynamics_tiger(tiger):
    u_listen = tiger.joint_action_index((0, 0))
    d = tiger._dynamics[u_listen, 0]
    assert d[0, tiger.joint_obs_index((0, 0), 0)] == pytest.approx(0.7225)
    assert d.sum() == pytest.approx(1.0, abs=1e-12)
    # any open action resets: every (state, joint obs) cell is 0.5 * 0.25
    u_open = tiger.joint_action_index((0, 1))
    d = tiger._dynamics[u_open, 0]
    assert np.allclose(d, 0.125)


def test_joint_dynamics_minimal(minimal):
    d = minimal._dynamics[0, 0]
    assert d.shape == (1, 1) and d[0, 0] == 1.0


def successor_rows(model, arrays) -> list[tuple]:
    """Every outcome of ``arrays`` as (state, joint action, per-agent actions,
    per-agent observations, next state, probability)."""
    return [
        (
            x,
            int(arrays.joint[r]),
            tuple(arrays.acts[r].tolist()),
            tuple(arrays.obs[r].tolist()),
            int(arrays.nxt[r]),
            float(arrays.prob[r]),
        )
        for x in range(model.n_states)
        for r in range(arrays.begin[x], arrays.begin[x + 1])
    ]


def dynamics_rows(model) -> list[tuple]:
    """The nonzero cells of ``_dynamics`` in the same form, in (state,
    joint action, next state, joint observation) order."""
    rows = []
    for x in range(model.n_states):
        for u in range(model.n_joint_actions):
            dyn = model._dynamics[u, x]
            for x2, z in zip(*np.nonzero(dyn)):
                rows.append(
                    (
                        x,
                        u,
                        model.split_joint_action(u),
                        tuple(model.agent_obs_of_joint(i, int(z)) for i in range(model.n_agents)),
                        int(x2),
                        float(dyn[x2, z]),
                    )
                )
    return rows


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_joint_dynamics_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    m = random_posg(rng, n_states=3, n_actions=(2, 2), n_obs=(2, 2))
    # a second, three-agent model with public observations for the successor arrays
    m3 = random_posg(rng, n_actions=(2, 2, 2), n_obs=(2, 1, 2), n_public=2)
    for x in range(m.n_states):
        for u in range(m.n_joint_actions):
            assert abs(m._dynamics[u, x].sum() - 1.0) < 1e-9
    for model in (m, m3):
        # every field equal, probabilities bit for bit
        arrays = model._successor_arrays
        expected = dynamics_rows(model)
        assert successor_rows(model, arrays) == expected
        # control: one probability one ulp off is caught
        prob = arrays.prob.copy()
        k = int(rng.integers(len(prob)))
        prob[k] = np.nextafter(prob[k], 2.0)
        assert successor_rows(model, arrays._replace(prob=prob)) != expected


def test_reinterpret_criterion_rebuilds_rewards(one_stage):
    zs = reinterpret_criterion(one_stage, "zerosum")
    assert np.allclose(zs.rewards[1], -zs.rewards[0])
    assert reinterpret_criterion(zs, "zerosum") is zs


def test_reinterpret_criterion_to_common_copies_agent_one_rewards(tiger_zs):
    common = reinterpret_criterion(tiger_zs, "common")
    assert common.criterion == "common" and classify(common) == "common"
    assert np.array_equal(common.rewards[1], common.rewards[0])
    assert np.array_equal(common.rewards[0], tiger_zs.rewards[0])
    # the model it came from keeps its own tables
    assert np.array_equal(tiger_zs.rewards[1], -tiger_zs.rewards[0])


def test_start_override_and_validation(one_stage):
    m = one_stage.with_start([1.0, 0.0])
    assert m.start[0] == 1.0
    with pytest.raises(ModelValidationError):
        one_stage.with_start([0.7, 0.7])


def test_public_observation_grammar():
    text = """
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
"""
    m = parse_posg(text)
    assert m.public_obs == ("w0", "w1")
    assert m.n_joint_obs == 2
    # the public label is required in O lines once declared
    with pytest.raises(PosgParseError, match="expected 3 observation labels"):
        parse_posg(text.replace("O: * * : s0 : y y w0 : 1.0", "O: * * : s0 : y y : 1.0"))


def test_history_labels_name_both_observations_where_two_are_public():
    from occupancy_games.policies import PrivateHistory

    m = random_posg(np.random.default_rng(3), n_obs=(2, 1), n_public=2)
    for agent in range(2):
        labels = [m.agent_obs_label(agent, z) for z in range(m.n_agent_obs(agent))]
        assert labels == [f"{p}|{w}" for p in m.private_obs[agent] for w in m.public_obs]
    h = PrivateHistory(0, ((1, m.agent_obs_index(0, 1, 0)), (0, m.agent_obs_index(0, 0, 1))))
    assert h.label(m) == "a01:z01|w0|a00:z00|w1"


@pytest.mark.parametrize("n_public", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_joint_obs_reads_one_table_that_inverts_the_index(seed, n_public):
    rng = np.random.default_rng(seed)
    n_obs = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4))))
    m = random_posg(rng, n_actions=(2,) * len(n_obs), n_obs=n_obs, n_public=n_public)
    cells = []
    for zs in itertools.product(*map(range, n_obs)):
        for w in range(n_public):
            z = m.joint_obs_index(zs, w)
            cells.append(z)
            assert m.split_joint_obs(z) == (zs, w)
            for i in range(m.n_agents):
                assert m.agent_obs_of_joint(i, z) == zs[i] * n_public + w
    assert sorted(cells) == list(range(m.n_joint_obs))
    table = m._joint_obs_parts
    assert type(table) is tuple and len(table) == m.n_joint_obs
    assert all(type(zs) is tuple for zs, _ in table)
    assert m._joint_obs_parts is table  # built once per model
    with pytest.raises(TypeError):
        table[0] = table[-1]
