"""Finite-horizon POSG models: definition, parsing, validation, classification.

A model couples a hidden Markov chain over states with per-agent action and
observation spaces.  Joint observations factor into one shared public
observation and one private observation per agent; models that declare no
public observations get the singleton space ``("none",)`` so the public
component carries no information.

Text format (``.posg``, line oriented, ``#`` starts a comment)::

    agents: <n>
    discount: <float>                 # default 1.0
    horizon: <int>                    # default 1
    criterion: zerosum|common|stackelberg|general   # default: inferred
    states: <labels...>
    actions:                          # followed by n lines, one per agent
    <labels...>
    observations:                     # followed by n lines of private labels
    <labels...>
    public-observations: <labels...>  # optional, default singleton "none"
    start: <probs...>                 # default uniform
    T: <a1> ... <an> : <s> : <s'> : <prob>
    O: <a1> ... <an> : <s'> : <z1> ... <zn> [w] : <prob>
    R<i>: <a1> ... <an> : <s> : <value>

``*`` is a wildcard in any label slot; later lines override earlier ones.
Unspecified T/O/R entries are zero.  The trailing ``w`` label in O lines is
required exactly when the declared public space has more than one label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ModelValidationError, PosgParseError

STOCHASTIC_ATOL = 1e-9

CRITERIA = ("zerosum", "common", "stackelberg", "general")


class SuccessorArrays(NamedTuple):
    """The positive-probability outcomes of one step as flat arrays over
    (state, joint action, outcome): ``begin[x]:begin[x + 1]`` are the
    outcomes in state ``x``, each with its joint action, the per-agent
    actions and observations (outcome x agent arrays, observations flattened
    as in ``agent_obs_index``, so each ends in the public observation), the
    next state and the probability."""

    begin: np.ndarray
    joint: np.ndarray
    acts: np.ndarray
    obs: np.ndarray
    nxt: np.ndarray
    prob: np.ndarray


@dataclass(frozen=True)
class PosgModel:
    """Immutable finite-horizon POSG.

    Dense float64 tables indexed by integer ids; labels live in the ordered
    label lists.  Joint actions flatten per-agent action ids in C order
    (agent 1 slowest); joint observations flatten per-agent private
    observation ids followed by the public observation id.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    private_obs: tuple[tuple[str, ...], ...]
    public_obs: tuple[str, ...]
    transition: np.ndarray  # (n_joint_actions, n_states, n_states)
    observation: np.ndarray  # (n_joint_actions, n_states, n_joint_obs), indexed by next state
    rewards: np.ndarray  # (n_agents, n_states, n_joint_actions)
    discount: float = 1.0
    horizon: int = 1
    start: np.ndarray = field(default=None)  # type: ignore[assignment]
    criterion: str = "general"

    def __post_init__(self):
        if self.start is None:
            object.__setattr__(
                self, "start", np.full(len(self.states), 1.0 / len(self.states))
            )
        for name in ("transition", "observation", "rewards", "start"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _validate(self)

    # -- sizes ---------------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self.actions)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def n_joint_actions(self) -> int:
        return int(np.prod([len(a) for a in self.actions]))

    @cached_property
    def n_joint_obs(self) -> int:
        return int(np.prod([len(z) for z in self.private_obs])) * len(self.public_obs)

    @property
    def reward_bound(self) -> float:
        """Least c with every |reward| <= c."""
        return float(np.max(np.abs(self.rewards))) if self.rewards.size else 0.0

    # -- joint-index helpers ---------------------------------------------------

    def joint_action_index(self, us: tuple[int, ...]) -> int:
        idx = 0
        for i, u in enumerate(us):
            idx = idx * len(self.actions[i]) + u
        return idx

    def split_joint_action(self, u: int) -> tuple[int, ...]:
        out = []
        for labels in reversed(self.actions):
            out.append(u % len(labels))
            u //= len(labels)
        return tuple(reversed(out))

    def joint_obs_index(self, zs: tuple[int, ...], w: int) -> int:
        idx = 0
        for i, z in enumerate(zs):
            idx = idx * len(self.private_obs[i]) + z
        return idx * len(self.public_obs) + w

    def split_joint_obs(self, z: int) -> tuple[tuple[int, ...], int]:
        return self._joint_obs_parts[z]

    @cached_property
    def _joint_obs_parts(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(private observations, public observation) of every joint
        observation, in index order, built once per model on first use."""
        ranges = [range(len(labels)) for labels in (*self.private_obs, self.public_obs)]
        return tuple((zw[:-1], zw[-1]) for zw in itertools.product(*ranges))

    def public_of_joint_obs(self, z: int) -> int:
        return z % len(self.public_obs)

    # -- per-agent observation flattening: (private, public) pairs ------------

    def n_agent_obs(self, agent: int) -> int:
        return len(self.private_obs[agent]) * len(self.public_obs)

    def agent_obs_index(self, agent: int, z_priv: int, w: int) -> int:
        return z_priv * len(self.public_obs) + w

    def agent_obs_of_joint(self, agent: int, z: int) -> int:
        zs, w = self.split_joint_obs(z)
        return self.agent_obs_index(agent, zs[agent], w)

    def agent_obs_label(self, agent: int, obs: int) -> str:
        z_priv, w = divmod(obs, len(self.public_obs))
        if len(self.public_obs) == 1:
            return self.private_obs[agent][z_priv]
        return f"{self.private_obs[agent][z_priv]}|{self.public_obs[w]}"

    # -- one-step dynamics -----------------------------------------------------

    @cached_property
    def _dynamics(self) -> np.ndarray:
        """Read-only (joint action, state, next state, joint observation)
        array of ``transition[u, x, x'] * observation[u, x', z]``, formed
        once per model."""
        product = self.transition[:, :, :, None] * self.observation[:, None, :, :]
        product.setflags(write=False)
        return product

    @cached_property
    def _successor_arrays(self) -> SuccessorArrays:
        """The nonzero cells of ``_dynamics`` in (state, joint action, next
        state, joint observation) order, built once per model."""
        cells = self._dynamics.transpose(1, 0, 2, 3)
        xs, joint, nxt, z = np.nonzero(cells)
        prob = cells[xs, joint, nxt, z]
        acts = np.stack(np.unravel_index(joint, [len(a) for a in self.actions]), axis=1)
        *own, pub = np.unravel_index(
            z, [len(o) for o in self.private_obs] + [len(self.public_obs)]
        )
        obs = np.stack(own, axis=1) * len(self.public_obs) + pub[:, None]
        begin = np.searchsorted(xs, np.arange(self.n_states + 1))
        return SuccessorArrays(begin, joint, acts, obs, nxt, prob)

    # -- variants --------------------------------------------------------------

    def with_horizon(self, horizon: int) -> "PosgModel":
        return replace(self, horizon=horizon) if horizon != self.horizon else self

    def with_start(self, start) -> "PosgModel":
        return replace(self, start=np.asarray(start, dtype=float))


def _validate(model: PosgModel) -> None:
    n = model.n_agents
    if n < 1:
        raise ModelValidationError("at least one agent required")
    if len(model.private_obs) != n:
        raise ModelValidationError("one private observation space per agent required")
    if model.horizon < 1:
        raise ModelValidationError(f"horizon must be >= 1, got {model.horizon}")
    if not (0.0 <= model.discount <= 1.0):
        raise ModelValidationError(f"discount must lie in [0, 1], got {model.discount}")
    if model.criterion not in CRITERIA:
        raise ModelValidationError(f"unknown criterion {model.criterion!r}")

    nu, nx, nz = model.n_joint_actions, model.n_states, model.n_joint_obs
    if model.transition.shape != (nu, nx, nx):
        raise ModelValidationError(
            f"transition shape {model.transition.shape} != {(nu, nx, nx)}"
        )
    if model.observation.shape != (nu, nx, nz):
        raise ModelValidationError(
            f"observation shape {model.observation.shape} != {(nu, nx, nz)}"
        )
    if model.rewards.shape != (n, nx, nu):
        raise ModelValidationError(f"rewards shape {model.rewards.shape} != {(n, nx, nu)}")
    for name in ("rewards", "transition", "observation", "start"):
        if not np.isfinite(getattr(model, name)).all():
            raise ModelValidationError(f"{name} must be finite")

    if np.any(model.transition < -STOCHASTIC_ATOL) or np.any(model.observation < -STOCHASTIC_ATOL):
        raise ModelValidationError("negative probability entry")
    t_sums = model.transition.sum(axis=2)
    bad = np.argwhere(np.abs(t_sums - 1.0) > STOCHASTIC_ATOL)
    if bad.size:
        u, x = bad[0]
        raise ModelValidationError(
            f"transition row sum for (action {u}, state {model.states[x]}) is "
            f"{t_sums[u, x]:.12g}, expected 1"
        )
    o_sums = model.observation.sum(axis=2)
    bad = np.argwhere(np.abs(o_sums - 1.0) > STOCHASTIC_ATOL)
    if bad.size:
        u, x = bad[0]
        raise ModelValidationError(
            f"observation row sum for (action {u}, state {model.states[x]}) is "
            f"{o_sums[u, x]:.12g}, expected 1"
        )

    if model.start.shape != (nx,):
        raise ModelValidationError(f"start has {model.start.shape[0]} entries, expected {nx}")
    if np.any(model.start < -STOCHASTIC_ATOL) or abs(model.start.sum() - 1.0) > STOCHASTIC_ATOL:
        raise ModelValidationError("start must be a probability distribution over states")

    if model.criterion == "zerosum":
        if n != 2:
            raise ModelValidationError("zerosum requires exactly 2 agents")
        if not np.allclose(model.rewards[0], -model.rewards[1], atol=STOCHASTIC_ATOL):
            raise ModelValidationError("declared zerosum but r1 != -r2")
    elif model.criterion == "common":
        for i in range(1, n):
            if not np.allclose(model.rewards[0], model.rewards[i], atol=STOCHASTIC_ATOL):
                raise ModelValidationError("declared common but rewards differ across agents")
    elif model.criterion == "stackelberg" and n != 2:
        raise ModelValidationError("stackelberg requires exactly 2 agents")


def classify(model: PosgModel) -> str:
    """Strictest criterion tag consistent with the reward tables.

    A declared criterion is returned as is (``_validate`` checks declared
    zerosum and common tables; ``stackelberg`` is a commitment protocol, not a
    reward property).  Ties between zerosum and common resolve to zerosum.
    """
    if model.criterion != "general":
        return model.criterion
    return _infer_reward_tag(model)


def _infer_reward_tag(model: PosgModel) -> str:
    if model.n_agents == 2 and np.allclose(
        model.rewards[0], -model.rewards[1], atol=STOCHASTIC_ATOL
    ):
        return "zerosum"
    if all(
        np.allclose(model.rewards[0], model.rewards[i], atol=STOCHASTIC_ATOL)
        for i in range(1, model.n_agents)
    ):
        return "common"
    return "general"


def reinterpret_criterion(model: PosgModel, criterion: str) -> PosgModel:
    """View the game under a different criterion, rebuilding opponent rewards
    from agent 1's payoff table when needed.

    ``common`` copies agent 1's rewards to everyone; ``zerosum`` (two agents)
    negates them for agent 2; ``stackelberg`` keeps both tables and marks the
    commitment protocol.  A model already satisfying the requested criterion
    is only re-tagged.
    """
    if criterion not in CRITERIA:
        raise ModelValidationError(f"unknown criterion {criterion!r}")
    if criterion == model.criterion:
        return model
    rewards = np.array(model.rewards)
    if criterion == "common":
        for i in range(1, model.n_agents):
            rewards[i] = rewards[0]
    elif criterion == "zerosum":
        if model.n_agents != 2:
            raise ModelValidationError("zerosum requires exactly 2 agents")
        rewards[1] = -rewards[0]
    elif criterion == "stackelberg" and model.n_agents != 2:
        raise ModelValidationError("stackelberg requires exactly 2 agents")
    return replace(model, rewards=rewards, criterion=criterion)


# ---------------------------------------------------------------------------
# .posg parser
# ---------------------------------------------------------------------------

_HEADER_KEYS = {
    "agents",
    "discount",
    "horizon",
    "criterion",
    "states",
    "public-observations",
    "start",
}


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self) -> tuple[int, str] | None:
        """Next non-blank, non-comment line as (1-based lineno, stripped text)."""
        while self.pos < len(self.raw):
            lineno = self.pos + 1
            line = self.raw[self.pos].split("#", 1)[0].strip()
            self.pos += 1
            if line:
                return lineno, line
        return None


def _col_of(raw_line: str, token: str) -> int | None:
    at = raw_line.find(token)
    return at + 1 if at >= 0 else None


class _Builder:
    """Accumulates declarations, then assembles and validates a PosgModel."""

    def __init__(self):
        self.n_agents: int | None = None
        self.discount = 1.0
        self.horizon = 1
        self.criterion: str | None = None
        self.states: list[str] | None = None
        self.actions: list[list[str]] | None = None
        self.private_obs: list[list[str]] | None = None
        self.public_obs: list[str] | None = None
        self.start: list[float] | None = None
        self.t_entries: list[tuple] = []  # (lineno, raw, action tokens, s, s', prob)
        self.o_entries: list[tuple] = []
        self.r_entries: list[tuple] = []  # (lineno, raw, agent, action tokens, s, value)
        self.seen: set[str] = set()

    def mark(self, key: str, lineno: int):
        if key in self.seen:
            raise PosgParseError(f"duplicate definition of {key!r}", lineno)
        self.seen.add(key)


def parse_posg(text: str) -> PosgModel:
    """Parse a ``.posg`` description into a validated model."""
    b = _Builder()
    lines = _Lines(text)
    while True:
        item = lines.next_content()
        if item is None:
            break
        lineno, line = item
        raw = lines.raw[lineno - 1]
        if ":" not in line:
            raise PosgParseError(f"expected 'key: value', got {line!r}", lineno, 1)
        key = line.split(":", 1)[0].strip()
        if key in _HEADER_KEYS:
            _parse_header(b, key, line.split(":", 1)[1].strip(), lineno, raw)
        elif key in ("actions", "observations"):
            b.mark(key, lineno)
            if b.n_agents is None:
                raise PosgParseError(f"'agents:' must precede {key!r}", lineno)
            rows = []
            for _ in range(b.n_agents):
                nxt = lines.next_content()
                if nxt is None:
                    raise PosgParseError(
                        f"expected {b.n_agents} label lines after {key!r}", lineno
                    )
                rows.append(nxt[1].split())
            if key == "actions":
                b.actions = rows
            else:
                b.private_obs = rows
        elif key == "T":
            b.t_entries.append((lineno, raw, *_split_fields(line, 4, lineno)))
        elif key == "O":
            b.o_entries.append((lineno, raw, *_split_fields(line, 4, lineno)))
        elif key.startswith("R"):
            try:
                agent = int(key[1:])
            except ValueError:
                raise PosgParseError(f"unknown key {key!r}", lineno, 1) from None
            b.r_entries.append((lineno, raw, agent, *_split_fields(line, 3, lineno)))
        else:
            raise PosgParseError(f"unknown key {key!r}", lineno, 1)
    return _assemble(b)


def _parse_header(b: _Builder, key: str, value: str, lineno: int, raw: str):
    b.mark(key, lineno)
    try:
        if key == "agents":
            b.n_agents = int(value)
            if b.n_agents < 1:
                raise PosgParseError("agents must be >= 1", lineno)
        elif key == "discount":
            b.discount = float(value)
        elif key == "horizon":
            b.horizon = int(value)
        elif key == "criterion":
            if value not in CRITERIA:
                raise PosgParseError(
                    f"criterion must be one of {'/'.join(CRITERIA)}, got {value!r}",
                    lineno,
                    _col_of(raw, value),
                )
            b.criterion = value
        elif key == "states":
            b.states = value.split()
        elif key == "public-observations":
            b.public_obs = value.split()
        elif key == "start":
            b.start = [float(tok) for tok in value.split()]
    except ValueError as exc:
        raise PosgParseError(f"bad value for {key!r}: {exc}", lineno) from None


def _split_fields(line: str, n_fields: int, lineno: int) -> tuple:
    fields = [f.strip() for f in line.split(":")]
    # fields[0] is the key itself
    if len(fields) - 1 != n_fields:
        raise PosgParseError(
            f"expected {n_fields} ':'-separated fields, got {len(fields) - 1}", lineno
        )
    return tuple(fields[1:])


def _index_of(labels: tuple[str, ...], token: str, lineno: int, raw: str) -> list[int]:
    if token == "*":
        return list(range(len(labels)))
    try:
        return [labels.index(token)]
    except ValueError:
        raise PosgParseError(
            f"unknown label {token!r}", lineno, _col_of(raw, token)
        ) from None


def _mixed_radix(choices: list[list[int]], radix: list[int]) -> list[int]:
    """Flat index of every combination of one choice per digit, the first
    digit most significant and varying slowest."""
    out = [0]
    for options, base in zip(choices, radix):
        out = [idx * base + c for idx in out for c in options]
    return out


def _action_combos(b: _Builder, tokens: list[str], lineno: int, raw: str) -> list[int]:
    if len(tokens) != b.n_agents:
        raise PosgParseError(
            f"expected {b.n_agents} action labels, got {len(tokens)}", lineno
        )
    choices = [_index_of(tuple(b.actions[i]), tok, lineno, raw) for i, tok in enumerate(tokens)]
    return _mixed_radix(choices, [len(a) for a in b.actions])


def _assemble(b: _Builder) -> PosgModel:
    if b.n_agents is None:
        raise PosgParseError("missing 'agents:' declaration")
    if b.states is None:
        raise PosgParseError("missing 'states:' declaration")
    if b.actions is None:
        raise PosgParseError("missing 'actions:' section")
    if b.private_obs is None:
        raise PosgParseError("missing 'observations:' section")
    for name, labels in (("states", b.states), ("public-observations", b.public_obs or [])):
        if len(set(labels)) != len(labels):
            raise PosgParseError(f"duplicate label in {name!r}")
    for i in range(b.n_agents):
        for name, labels in (("actions", b.actions[i]), ("observations", b.private_obs[i])):
            if len(set(labels)) != len(labels):
                raise PosgParseError(f"duplicate label in agent {i + 1} {name!r}")

    public = tuple(b.public_obs) if b.public_obs else ("none",)
    n_states = len(b.states)
    n_joint_u = int(np.prod([len(a) for a in b.actions]))
    n_joint_z = int(np.prod([len(z) for z in b.private_obs])) * len(public)

    transition = np.zeros((n_joint_u, n_states, n_states))
    observation = np.zeros((n_joint_u, n_states, n_joint_z))
    rewards = np.zeros((b.n_agents, n_states, n_joint_u))
    states = tuple(b.states)

    for lineno, raw, a_field, s_field, s2_field, p_field in b.t_entries:
        us = _action_combos(b, a_field.split(), lineno, raw)
        xs = _index_of(states, s_field, lineno, raw)
        x2s = _index_of(states, s2_field, lineno, raw)
        prob = _parse_float(p_field, lineno, raw)
        for u in us:
            for x in xs:
                for x2 in x2s:
                    transition[u, x, x2] = prob

    obs_radix = [len(z) for z in b.private_obs] + [len(public)]
    for lineno, raw, a_field, s2_field, z_field, p_field in b.o_entries:
        us = _action_combos(b, a_field.split(), lineno, raw)
        x2s = _index_of(states, s2_field, lineno, raw)
        z_tokens = z_field.split()
        expected = b.n_agents + (1 if len(public) > 1 else 0)
        if len(z_tokens) != expected:
            raise PosgParseError(
                f"expected {expected} observation labels, got {len(z_tokens)}", lineno
            )
        z_choices = [
            _index_of(tuple(b.private_obs[i]), z_tokens[i], lineno, raw)
            for i in range(b.n_agents)
        ]
        w_choices = (
            _index_of(public, z_tokens[-1], lineno, raw) if len(public) > 1 else [0]
        )
        prob = _parse_float(p_field, lineno, raw)
        zs = _mixed_radix(z_choices + [w_choices], obs_radix)
        for u in us:
            for x2 in x2s:
                observation[u, x2, zs] = prob

    for lineno, raw, agent, a_field, s_field, v_field in b.r_entries:
        if not (1 <= agent <= b.n_agents):
            raise PosgParseError(f"reward for unknown agent {agent}", lineno)
        us = _action_combos(b, a_field.split(), lineno, raw)
        xs = _index_of(states, s_field, lineno, raw)
        value = _parse_float(v_field, lineno, raw)
        for u in us:
            for x in xs:
                rewards[agent - 1, x, u] = value

    if b.start is not None and len(b.start) != n_states:
        raise PosgParseError(f"start has {len(b.start)} entries, expected {n_states}")
    start = np.asarray(b.start, dtype=float) if b.start is not None else None

    model = PosgModel(
        states=states,
        actions=tuple(tuple(a) for a in b.actions),
        private_obs=tuple(tuple(z) for z in b.private_obs),
        public_obs=public,
        transition=transition,
        observation=observation,
        rewards=rewards,
        discount=b.discount,
        horizon=b.horizon,
        start=start,
        criterion=b.criterion or "general",
    )
    if b.criterion is None:
        model = replace(model, criterion=_infer_reward_tag(model))
    return model


def _parse_float(token: str, lineno: int, raw: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise PosgParseError(
            f"expected a number, got {token!r}", lineno, _col_of(raw, token)
        ) from None
