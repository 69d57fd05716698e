"""Best-response and equilibrium solvers at desk scale.

Best responses come in two exchangeable routes: backward induction over the
agent's private histories carrying unnormalized measures (one forward walk
with the agent's actions as sequences, then one reverse fold over its
histories), and dynamic programming over private occupancy states with
normalized Bayesian updates.  Both break ties toward the lowest action within
``1e-12 * max(1, |max|)`` of the best.
Equality of their values on every input is the operational form of the
sufficiency of private occupancy states.

Every equilibrium solver starts from one forward walk below an occupancy state
(the initial one for the start-belief solvers) that builds a sequence-form
payoff tensor over the agents' sequences: one per own action at each
information set, i.e. private history below an anchor of the state (exact
under perfect recall).  Zero-sum games solve as one realization-plan linear
program over that tensor (Koller, Megiddo & von Stengel 1996), read back as
mixtures over pure policy trees; a game where each agent has a single
information set is the matrix game itself and keeps its closed forms.
Common-payoff and Stackelberg games enumerate reduced pure policy trees (one
per anchor) for all agents but one and keep that agent in sequence form: the
last agent of a common-payoff game best-responds to each enumerated profile by
one reverse max over its information sets; a Stackelberg leader's realization
plan is the variable of one incentive-constrained linear program per follower
pure policy that could still raise its value (Conitzer & Sandholm 2006; strong
equilibrium: follower ties break in the leader's favor).
Ties everywhere break toward the lowest enumeration index.

``_normal_form`` is the one set-up of that walk.  ``cap_per_agent`` caps what
it builds for each agent: sequences for an agent kept in sequence form (both
zero-sum agents, the last common-payoff agent, the Stackelberg leader) and
anchored pure policies for an enumerated one.  Every solver reads the model's
own horizon; ``PosgModel.with_horizon`` sets another.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, ModelValidationError
from .model import PosgModel
from .occupancy import (
    Level,
    OccupancyState,
    PrivateOccupancyState,
    action_probs,
    child_histories,
    initial_occupancy,
    initial_private_occupancy,
    level_of,
    next_level,
    private_branches,
    rule_arrays,
)
from .policies import (
    DecisionRule,
    JointPolicy,
    PolicyTree,
    PrivateHistory,
    agent_rules,
    enumerate_pure_policies,
)

DEFAULT_TOLERANCE = 1e-9
CAP_PER_AGENT = 10**4
CAP_JOINT = 10**6


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: ``scipy.optimize``
    is most of the package's import time and many commands never solve an
    LP."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    method: str
    gap: float = 0.0  # LP duality gap; 0 for closed forms


@dataclass(frozen=True)
class BestResponse:
    agent: int
    value: float
    policy: PolicyTree
    q: Mapping[PrivateHistory, tuple[float, ...]]
    method: str


@dataclass(frozen=True)
class Equilibrium:
    criterion: str
    values: tuple[float, ...]
    mixtures: tuple[Mapping[int, float], ...]
    policies: tuple[Mapping[int, PolicyTree], ...]
    metadata: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# matrix-game kernel
# ---------------------------------------------------------------------------


def matrix_game_value(payoffs, tolerance: float = DEFAULT_TOLERANCE) -> MatrixGameSolution:
    """Minimax value and eps-optimal mixtures of the zero-sum matrix game
    ``payoffs`` for the row maximizer.

    Degenerate shapes and 2x2 games use closed forms; anything larger goes to
    the realization-plan LP with one information set per player, with the
    duality gap checked against the tolerance.
    """
    A = np.asarray(payoffs, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("payoff matrix must be a nonempty 2-d array")
    if not np.isfinite(A).all():
        raise ValueError("payoff entries must be finite")
    m, n = A.shape
    if m == 1 and n == 1:
        return MatrixGameSolution(float(A[0, 0]), np.ones(1), np.ones(1), "closed-form")
    if m == 1:
        k = int(np.argmin(A[0]))
        col = np.zeros(n)
        col[k] = 1.0
        return MatrixGameSolution(float(A[0, k]), np.ones(1), col, "closed-form")
    if n == 1:
        j = int(np.argmax(A[:, 0]))
        row = np.zeros(m)
        row[j] = 1.0
        return MatrixGameSolution(float(A[j, 0]), row, np.ones(1), "closed-form")
    if m == 2 and n == 2:
        return _solve_2x2(A)
    one_set = np.full(1, -1, dtype=np.intp)
    value, row, col, gap = _realization_plan_lp(_block_diagonal([A]), (one_set, one_set), (m, n))
    if gap > max(tolerance, 1e-7) * max(1.0, np.abs(A).max()):
        raise RuntimeError(f"matrix game duality gap {gap:.3g} exceeds tolerance")
    return MatrixGameSolution(value, row, col, "lp", gap)


def _solve_2x2(A: np.ndarray) -> MatrixGameSolution:
    row_guarantees = A.min(axis=1)
    col_exposures = A.max(axis=0)
    j = int(np.argmax(row_guarantees))
    k = int(np.argmin(col_exposures))
    if row_guarantees[j] == col_exposures[k]:
        row = np.zeros(2)
        row[j] = 1.0
        col = np.zeros(2)
        col[k] = 1.0
        return MatrixGameSolution(float(row_guarantees[j]), row, col, "saddle")
    a, b = A[0]
    c, d = A[1]
    denom = a + d - b - c
    value = (a * d - b * c) / denom
    row = np.array([(d - c) / denom, (a - b) / denom])
    col = np.array([(d - b) / denom, (a - c) / denom])
    return MatrixGameSolution(float(value), row, col, "closed-form")


# ---------------------------------------------------------------------------
# best responses (two routes)
# ---------------------------------------------------------------------------


def _others_profiles(model: PosgModel, others, agent: int) -> list[dict[int, DecisionRule]]:
    """Per-step rule dictionaries for every agent except ``agent``."""
    if isinstance(others, JointPolicy):
        entries = {j: p for j, p in enumerate(others.agents) if j != agent}
    else:
        entries = dict(others)
    missing = [j + 1 for j in range(model.n_agents) if j != agent and j not in entries]
    if missing:
        raise ValueError(f"no policy for agent(s) {', '.join(map(str, missing))}")
    per_agent: dict[int, Sequence[DecisionRule]] = {}
    for j, pol in entries.items():
        per_agent[j] = agent_rules(model, pol)
        if len(per_agent[j]) < model.horizon:
            raise ValueError("others' policy horizon shorter than the model horizon")
    return [{j: rules[t] for j, rules in per_agent.items()} for t in range(model.horizon)]


def _argmax_lowest(values: Sequence[float]) -> int:
    """The lowest index whose value is within ``1e-12 * max(1, |max|)`` of the
    maximum, so that the pick does not depend on the order the values were
    summed in."""
    values = np.asarray(values)
    top = values.max()
    return int(np.flatnonzero(values >= top - 1e-12 * max(1.0, abs(top)))[0])


def best_response_history(model: PosgModel, others, agent: int) -> BestResponse:
    """Bellman optimality over the agent's private histories.

    Carries unnormalized conditional measures forward, so no per-branch
    renormalization is ever needed; reported q-values are normalized by each
    history's probability.
    """
    value, trees, q = _history_br(model, others, agent, initial_occupancy(model))
    return BestResponse(agent, value, trees[PrivateHistory(agent)], q, "history-dp")


def _history_br(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> tuple[float, dict[PrivateHistory, PolicyTree], dict]:
    """Backward induction over private histories from the unnormalized
    measure ``s`` puts on each of the agent's histories; returns (total
    mass-weighted value, greedy tree per seed history, normalized q per
    visited history).

    One forward walk keeps every own action as a sequence, the others acting
    by their rules, and collects each sequence's mass-weighted reward; one
    reverse fold over the agent's histories (numbered level by level, as in
    ``_sequence_payoffs``) then adds each history's best discounted
    continuation to its parent sequence."""
    profiles = _others_profiles(model, others, agent)
    n_u = len(model.actions[agent])
    own_action = np.unravel_index(
        np.arange(model.n_joint_actions), [len(labels) for labels in model.actions]
    )[agent]
    level, hists = level_of(model, s)
    seeds = hists[agent]
    own_hists = list(seeds)
    parents = [-1] * len(seeds)
    kids: dict[tuple[int, int, int], int] = {}
    g, mass = [], []
    for t in range(s.t, model.horizon):
        rules = [None if j == agent else profiles[t][j] for j in range(model.n_agents)]
        a = action_probs(model, level, rule_arrays(model, rules, hists))
        reward = level.mass[:, None] * a * model.rewards[agent][level.xs]
        seq = level.ids[agent][:, None] * n_u + own_action
        g.append(np.bincount(seq.ravel(), reward.ravel(), level.n_sets[agent] * n_u))
        mass.append(np.bincount(level.ids[agent], level.mass, level.n_sets[agent]))
        if t + 1 == model.horizon:
            break
        ((_, pushed),) = next_level(model, level, a)
        first = len(own_hists) - level.n_sets[agent]
        for c, (j, u, z) in enumerate(_kid_keys(model, agent, pushed.reached[agent], first)):
            kids[(j, u, z)] = len(own_hists) + c
            parents.append(j * n_u + u)
        hists = child_histories(model, hists, pushed.reached)
        own_hists.extend(hists[agent])
        level = pushed.level
    v = _trie_fold(np.concatenate(g), np.array(parents), n_u, np.max, model.discount)
    mass = np.concatenate(mass)
    q_out = {
        h: tuple((v[j] / mass[j]).tolist()) for j, h in enumerate(own_hists) if mass[j] > 0.0
    }
    depth = model.horizon - s.t
    trees = {
        h: _pure_tree(model, agent, kids, lambda j: _argmax_lowest(v[j]), root, depth)[1]
        for root, h in enumerate(seeds)
    }
    total = float(sum(v[root].max() for root in range(len(seeds))))
    return total, trees, q_out


def best_response_value_from(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> float:
    """History-route best-response value starting from an occupancy state."""
    return _history_br(model, others, agent, s)[0]


def _private_dp(
    model: PosgModel, profiles: list[dict[int, DecisionRule]], agent: int
) -> Callable[[PrivateOccupancyState, int], tuple[float, tuple[float, ...]]]:
    """Memoized Bellman optimality over private occupancy states: returns
    ``V(s_i, t) -> (value, q per own action)``.

    Values are memoized on the occupancy state itself (canonical rounded
    form), so histories inducing the same posterior share one subproblem.
    """
    horizon = model.horizon
    n_u = len(model.actions[agent])
    memo: dict = {}

    def V(s_i: PrivateOccupancyState, t: int) -> tuple[float, tuple[float, ...]]:
        if t >= horizon:
            return 0.0, ()
        key = (t, s_i.canonical_key())
        if key in memo:
            return memo[key]
        qs = []
        for u_i in range(n_u):
            q, children = private_branches(
                model, s_i, profiles[t], u_i, push=t + 1 < horizon
            )
            for _, omega, nxt in children:
                q += model.discount * omega * V(nxt, t + 1)[0]
            qs.append(q)
        result = (max(qs), tuple(qs))
        memo[key] = result
        return result

    return V


def best_response_private(model: PosgModel, others, agent: int) -> BestResponse:
    """Dynamic programming over the private occupancy-state MDP; one walk of
    the greedy tree collects the policy and the q-table."""
    horizon = model.horizon
    profiles = _others_profiles(model, others, agent)
    n_z = model.n_agent_obs(agent)
    V = _private_dp(model, profiles, agent)
    q_out: dict[PrivateHistory, tuple[float, ...]] = {}

    def walk(s_i: PrivateOccupancyState, t: int) -> PolicyTree:
        _, qs = V(s_i, t)
        q_out[s_i.anchor] = qs
        u_i = _argmax_lowest(qs)
        if t + 1 >= horizon:
            return PolicyTree(agent, u_i)
        _, children = private_branches(model, s_i, profiles[t], u_i)
        reached = {z_i: nxt for z_i, _, nxt in children}
        children = tuple(
            walk(reached[z_i], t + 1)
            if z_i in reached
            else _pure_tree(model, agent, {}, None, None, horizon - t - 1)[1]
            for z_i in range(n_z)
        )
        return PolicyTree(agent, u_i, children)

    root = initial_private_occupancy(model, agent)
    value, _ = V(root, 0)
    tree = walk(root, 0)
    return BestResponse(agent, value, tree, q_out, "private-occupancy-dp")


def best_response_private_from(
    model: PosgModel, others, agent: int, s_i: PrivateOccupancyState, t0: int
) -> float:
    """Private-route best-response value from one private occupancy state."""
    profiles = _others_profiles(model, others, agent)
    return _private_dp(model, profiles, agent)(s_i, t0)[0]


# ---------------------------------------------------------------------------
# the occupancy-rooted normal form
# ---------------------------------------------------------------------------


def _anchors(s: OccupancyState, agent: int) -> list[PrivateHistory]:
    return sorted({o.privates[agent] for (_, o) in s.entries}, key=lambda h: h.steps)


def _anchored_space(
    model: PosgModel,
    agent: int,
    anchors: Sequence[PrivateHistory],
    depth: int,
    cap: int = CAP_PER_AGENT,
) -> list[dict[PrivateHistory, PolicyTree]]:
    """Pure policy suffixes: one depth-``depth`` tree per anchor history."""
    trees = enumerate_pure_policies(model, agent, depth, cap)
    count = len(trees) ** len(anchors)
    if count > cap:
        raise CapExceededError("anchored policy enumeration", count, cap)
    combos = itertools.product(trees, repeat=len(anchors))
    return [dict(zip(anchors, combo)) for combo in combos]


def _sequence_payoffs(
    model: PosgModel,
    s: OccupancyState,
    anchors: Sequence[Sequence[PrivateHistory]],
    agents_of_interest: Sequence[int],
) -> tuple[list[np.ndarray], list[dict[tuple[int, int, int], int]]]:
    """Sequence-form payoff tensor below occupancy ``s``, one block per depth.

    One forward walk, level by level, pushes the mass of ``s`` through
    (state, per-agent information set) pairs, every joint action and outcome
    of a level at once.  Agent ``i``'s sets are numbered level by level: set
    ``a`` is its anchor ``anchors[i][a]``, then each level's reached sets
    follow in (parent set, own action, own observation) order, and
    ``kids[i][(j, u, z)]`` is the set after action ``u`` and observation ``z``
    at set ``j``.  Sets the walk never reaches get no number.  Sequence
    ``j * n_u + u`` is action ``u`` at set ``j``, so the sequences of one
    depth are contiguous, and a sequence pairs only with the others'
    sequences of its depth: ``blocks[d]`` has one axis per agent over its
    depth-``d`` sequences and a last axis over ``agents_of_interest``, the
    discounted reward at those joint sequences weighted by the probability
    of the outcomes along them.  The full tensor is block diagonal in them.
    """
    n_us = tuple(len(labels) for labels in model.actions)
    # rewards[x, u_0, ..., u_{n-1}, k] for the k-th agent of interest
    rewards = np.moveaxis(model.rewards[list(agents_of_interest)], 0, -1)
    rewards = rewards.reshape((model.n_states,) + n_us + (-1,))
    pos = [{h: a for a, h in enumerate(anc)} for anc in anchors]
    start: dict[tuple[int, ...], float] = {}
    for (x, o), p in s.entries.items():
        key = (x,) + tuple(pos[i][h] for i, h in enumerate(o.privates))
        start[key] = start.get(key, 0.0) + p
    xs, *ids = np.array(list(start), dtype=np.intp).reshape(-1, model.n_agents + 1).T
    n_sets = tuple(len(anc) for anc in anchors)
    level = Level(xs, tuple(ids), np.array(list(start.values())), n_sets)
    first = [0] * model.n_agents  # id of the level's first set, per agent
    kids: list[dict[tuple[int, int, int], int]] = [{} for _ in anchors]
    blocks = [_payoff_block(level, rewards)]
    for _ in range(model.horizon - s.t - 1):
        level = level._replace(mass=level.mass * model.discount)
        ((_, pushed),) = next_level(model, level, None)
        for i, codes in enumerate(pushed.reached):
            base = first[i] + level.n_sets[i]
            keys = _kid_keys(model, i, codes, first[i])
            kids[i].update(zip(keys, range(base, base + len(codes))))
            first[i] = base
        level = pushed.level
        blocks.append(_payoff_block(level, rewards))
    return blocks, kids


def _kid_keys(model: PosgModel, agent: int, codes: np.ndarray, first: int):
    """``(parent set, own action, own observation)`` of each child code, the
    parent numbered from ``first``."""
    n_z = model.n_agent_obs(agent)
    j, uz = np.divmod(codes, len(model.actions[agent]) * n_z)
    return zip((j + first).tolist(), *(c.tolist() for c in np.divmod(uz, n_z)))


def _payoff_block(level: Level, rewards: np.ndarray) -> np.ndarray:
    """One level's payoff block: the level's mass at each (state, set per
    agent) times the reward of each joint action, summed over states, with
    axes (sequence per agent, agent of interest)."""
    n_us = rewards.shape[1:-1]
    n_sets = level.n_sets
    at = np.zeros((len(rewards),) + tuple(n_sets))
    at[(level.xs, *level.ids)] = level.mass
    # axes (set_0, u_0, ..., set_{n-1}, u_{n-1}, k), merged into sequences
    at_shape = tuple(itertools.chain(*((k, 1) for k in n_sets))) + (1,)
    r_shape = tuple(itertools.chain(*((1, n_u) for n_u in n_us))) + rewards.shape[-1:]
    block = at[0].reshape(at_shape) * rewards[0].reshape(r_shape)
    for x in range(1, len(rewards)):
        block += at[x].reshape(at_shape) * rewards[x].reshape(r_shape)
    return block.reshape(tuple(k * n_u for k, n_u in zip(n_sets, n_us)) + rewards.shape[-1:])


def _realization(
    n_u: int,
    anchors: Sequence[PrivateHistory],
    space: Sequence[Mapping[PrivateHistory, PolicyTree]],
    kids: Mapping[tuple[int, int, int], int],
) -> np.ndarray:
    """0/1 matrix over (assignment, sequence of ``_sequence_payoffs``): 1
    where the assignment's tree at the sequence's anchor plays every action
    along it."""
    index: dict[int, int] = {}  # id(tree) -> k
    trees: list[PolicyTree] = []
    which = np.empty((len(space), len(anchors)), dtype=np.intp)
    for r, assign in enumerate(space):
        for a, h in enumerate(anchors):
            tree = assign[h]
            if id(tree) not in index:
                index[id(tree)] = len(trees)
                trees.append(tree)
            which[r, a] = index[id(tree)]
    # plays[k, a]: the sequences tree k plays when rooted at anchor a
    plays = np.zeros((len(trees), len(anchors), (len(anchors) + len(kids)) * n_u))

    def mark(k: int, a: int, node: PolicyTree, j: int) -> None:
        plays[k, a, j * n_u + node.action] = 1.0
        for z, child in enumerate(node.children):
            c = kids.get((j, node.action, z))
            if c is not None:  # None: the walk never reached it
                mark(k, a, child, c)

    for k, tree in enumerate(trees):
        for a in range(len(anchors)):
            mark(k, a, tree, a)
    return sum(plays[which[:, a], a] for a in range(len(anchors)))


def _sequence_count(model: PosgModel, agent: int, n_anchors: int, depth: int) -> int:
    """Sequences of the agent's full trie, ``depth`` steps below
    ``n_anchors`` anchors."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    return n_anchors * n_u * sum((n_u * n_z) ** d for d in range(depth))


def _parents(kids: Mapping[tuple[int, int, int], int], n_sets: int, n_u: int) -> np.ndarray:
    """Parent sequence of each information set, -1 at the anchors."""
    parents = [-1] * n_sets
    for (j, u, _), c in kids.items():
        parents[c] = j * n_u + u
    return np.array(parents, dtype=np.intp)


def _normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    cap_per_agent: int,
    keep: Sequence[int] = (),
) -> tuple[list[np.ndarray], list[list[dict] | None], list[dict], list[np.ndarray | None]]:
    """Payoff tensors below occupancy ``s``, one per agent of interest and one
    axis per agent, with each agent's assignment space, the ``kids`` of
    ``_sequence_payoffs`` and each kept agent's parent sequences.

    Under perfect recall a pure profile's payoff is multilinear in the
    agents' 0/1 sequence realizations, so every tensor is the sequence-form
    payoff contracted with each agent's realization matrix (for two agents,
    ``R_0 @ G @ R_1.T``), taken one depth block at a time.  The agents in
    ``keep`` are left uncontracted: their axes stay over their sequences,
    their spaces and the others' parents are ``None``.  When both agents of a
    two-agent game are kept, each tensor is the block-diagonal ``G`` itself,
    as a ``scipy.sparse`` CSR array.  ``cap_per_agent`` caps each agent's
    sequences if kept and its anchored pure policies otherwise, all checked
    before the walk.
    """
    depth = model.horizon - s.t
    if depth < 1:
        raise ValueError("occupancy state is already at the horizon")
    anchors = [_anchors(s, i) for i in range(model.n_agents)]
    spaces: list[list[dict] | None] = []
    for i in range(model.n_agents):
        if i not in keep:
            spaces.append(_anchored_space(model, i, anchors[i], depth, cap_per_agent))
            continue
        count = _sequence_count(model, i, len(anchors[i]), depth)
        if count > cap_per_agent:
            raise CapExceededError(f"sequence form of agent {i + 1}", count, cap_per_agent)
        spaces.append(None)
    count = math.prod(len(space) for space in spaces if space is not None)
    if count > CAP_JOINT:
        raise CapExceededError("joint enumeration", count, CAP_JOINT)
    blocks, kids = _sequence_payoffs(model, s, anchors, agents_of_interest)
    parents: list[np.ndarray | None] = []
    realizations: list[np.ndarray | None] = []
    for i, space in enumerate(spaces):
        n_u = len(model.actions[i])
        if space is None:
            parents.append(_parents(kids[i], len(anchors[i]) + len(kids[i]), n_u))
            realizations.append(None)
        else:
            parents.append(None)
            realizations.append(_realization(n_u, anchors[i], space, kids[i]))
    parts = []
    lo = [0] * model.n_agents  # each agent's first sequence of the block
    for block in blocks:
        out = block
        for i, R in enumerate(realizations):
            hi = lo[i] + block.shape[i]
            if R is None:
                out = np.moveaxis(out, 0, -1)
            else:  # moves agent i's axis last
                out = np.tensordot(out, R[:, lo[i] : hi], axes=([0], [1]))
            lo[i] = hi
        parts.append(out)
    # axes (agent of interest, agent 0, ..., agent n-1)
    kept = sorted(keep)
    if not kept:
        return list(sum(parts)), spaces, kids, parents
    if len(kept) == 1:
        return list(np.concatenate(parts, axis=1 + kept[0])), spaces, kids, parents
    # both agents of a two-agent game kept: block diagonal, stored sparse
    mats = [_block_diagonal([part[k] for part in parts]) for k in range(len(agents_of_interest))]
    return mats, spaces, kids, parents


def _block_diagonal(blocks: Sequence[np.ndarray]):
    """The block-diagonal matrix of dense 2-d ``blocks`` as a ``scipy.sparse``
    CSR array that stores their nonzero entries only."""
    from scipy import sparse

    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    n_cols = 0
    for block in blocks:
        nonzero = block != 0.0
        indptr.append(indptr[-1][-1] + np.cumsum(np.count_nonzero(nonzero, axis=1)))
        indices.append(np.flatnonzero(nonzero) % block.shape[1] + n_cols)
        data.append(block[nonzero])
        n_cols += block.shape[1]
    n_rows = sum(block.shape[0] for block in blocks)
    return sparse.csr_array(
        (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
        shape=(n_rows, n_cols),
    )


def suffix_normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int] = (0,),
    cap_per_agent: int = CAP_PER_AGENT,
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff tensors over anchored pure policy suffixes from occupancy ``s``;
    axis ``i`` indexes agent ``i``'s assignments of one tree per anchor."""
    mats, spaces, _, _ = _normal_form(model, s, agents_of_interest, cap_per_agent)
    return mats, spaces


def induced_normal_form(
    model: PosgModel,
    agents_of_interest: Sequence[int],
    cap_per_agent: int = CAP_PER_AGENT,
) -> tuple[list[np.ndarray], list[list[PolicyTree]]]:
    """Payoff tensors over reduced pure policy profiles at the start belief,
    one axis per agent: the occupancy-rooted normal form at the initial
    occupancy state, each one-anchor assignment unwrapped to its tree."""
    s0 = initial_occupancy(model)
    mats, spaces, _, _ = _normal_form(model, s0, agents_of_interest, cap_per_agent)
    roots = [PrivateHistory(i) for i in range(model.n_agents)]
    return mats, [[a[root] for a in space] for root, space in zip(roots, spaces)]


def _require(model: PosgModel, criterion: str, solver: str) -> None:
    """Raise unless ``model`` is a ``criterion`` game."""
    if model.criterion != criterion:
        raise ModelValidationError(f"{solver} needs a {criterion} model, got {model.criterion}")


# ---------------------------------------------------------------------------
# equilibria in sequence form: both agents in zero-sum games, one agent in
# common-payoff and Stackelberg games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceFormSolution:
    """Saddle point of the zero-sum game below an occupancy state.

    Sets and sequences are numbered as in ``_sequence_payoffs``: agent ``i``'s
    set ``a`` is its anchor ``anchors[i][a]``, then each depth's reached sets
    follow in (parent set, own action, own observation) order;
    ``kids[i][(j, u, z)]`` is the set after own action ``u`` and observation
    ``z`` at set ``j``, and sequence ``j * n_u + u`` is action ``u`` at set
    ``j``.  ``plans[i]`` is agent ``i``'s realization plan: mass 1 over the
    actions at each anchor, and each sequence's mass spread over the actions
    at every set below it.
    """

    value: float
    plans: tuple[np.ndarray, ...]
    anchors: tuple[tuple[PrivateHistory, ...], ...]
    kids: tuple[Mapping[tuple[int, int, int], int], ...]
    metadata: Mapping[str, object]


def _trie_fold(
    g: np.ndarray, parents: np.ndarray, n_u: int, best, discount: float = 1.0
) -> np.ndarray:
    """Per-sequence payoffs ``g[..., sequence]`` plus the ``best`` (``np.max``
    or ``np.min``) pure continuation below each sequence, times ``discount``
    per step, over (set, action) in the last two axes.  One reverse pass
    folds each set's best action into its parent sequence; sets are numbered
    after their parents, so a set is complete when it is folded."""
    v = g.reshape(g.shape[:-1] + (len(parents), n_u)).copy()
    for c in range(len(parents) - 1, -1, -1):
        p = parents[c]
        if p >= 0:
            v[..., p // n_u, p % n_u] += discount * best(v[..., c, :], axis=-1)
    return v


def _trie_best(g: np.ndarray, parents: np.ndarray, n_u: int, best) -> np.ndarray:
    """Best total of per-sequence payoffs ``g[..., sequence]`` over one
    agent's pure plans, for each index of the leading axes."""
    v = _trie_fold(g, parents, n_u, best)
    return best(v[..., parents < 0, :], axis=-1).sum(axis=-1)


def _plan_constraints(parents: np.ndarray, n_u: int):
    """Sparse ``E`` and right-hand side ``e`` of ``E x = e``: one row per set,
    its actions' mass minus its parent sequence's mass, 1 at the anchors."""
    from scipy import sparse

    n = len(parents)
    # row c: -1 at its parent sequence (none at an anchor), then 1 at its own
    cols = np.column_stack([parents, np.arange(n * n_u).reshape(n, n_u)])
    values = np.column_stack([-np.ones(n), np.ones((n, n_u))])
    stored = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    E = sparse.csr_array((values[stored], cols[stored], indptr), shape=(n, n * n_u))
    return E, (parents < 0).astype(float)


def _realization_plan_lp(
    G, parents: Sequence[np.ndarray], n_us: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """max f^T q  s.t.  E x = e, x >= 0, F^T q <= G^T x, via HiGHS, with
    ``G`` a ``scipy.sparse`` array.

    ``x`` is agent 0's realization plan and ``q`` one free value per set of
    agent 1; the duals of the ``F^T q <= G^T x`` rows are agent 1's plan.
    Returns (value, x, y, duality gap)."""
    from scipy import sparse

    E, e = _plan_constraints(parents[0], n_us[0])
    F, f = _plan_constraints(parents[1], n_us[1])
    n_x, n_q = E.shape[1], F.shape[0]
    res = linprog(
        np.concatenate([np.zeros(n_x), -f]),
        A_ub=sparse.hstack([-G.T, F.T]),
        b_ub=np.zeros(G.shape[1]),
        A_eq=sparse.hstack([E, sparse.csr_array((E.shape[0], n_q))]),
        b_eq=e,
        bounds=[(0, None)] * n_x + [(None, None)] * n_q,
        method="highs",
    )
    if not res.success:  # pragma: no cover - plans exist and payoffs are bounded
        raise RuntimeError(f"sequence-form LP failed: {res.message}")
    x = np.clip(res.x[:n_x], 0.0, None)
    y = np.clip(-res.ineqlin.marginals, 0.0, None)
    gap = abs(float(res.fun - e @ res.eqlin.marginals))
    return -float(res.fun), x, y, gap


def _zero_sum_kernel(
    model: PosgModel, s: OccupancyState, tolerance: float, cap_per_agent: int
) -> tuple[SequenceFormSolution, object]:
    """Saddle point below occupancy ``s`` and agent 0's sequence-form payoff
    matrix ``G`` (a ``scipy.sparse`` CSR array).

    The certificate, the duality gap plus each side's exploitability (what
    the opponent's best pure plan gains against it), must stay within
    ``max(tolerance, 1e-7)`` times the largest payoff magnitude."""
    (G,), _, kids, parents = _normal_form(model, s, [0], cap_per_agent, keep=(0, 1))
    n_us = [len(model.actions[i]) for i in range(2)]
    payoffs = G
    if all(len(p) == 1 for p in parents):  # one set each: G is the matrix game
        payoffs = G.toarray()
        sol = matrix_game_value(payoffs, tolerance)
        value, x, y, gap = sol.value, sol.row_mix, sol.col_mix, sol.gap
        method = f"normal-form+{sol.method}"
    else:
        value, x, y, gap = _realization_plan_lp(G, parents, n_us)
        method = "sequence-form-lp"
    exploitability = (
        max(0.0, value - float(_trie_best(x @ payoffs, parents[1], n_us[1], np.min))),
        max(0.0, float(_trie_best(payoffs @ y, parents[0], n_us[0], np.max)) - value),
    )
    certificate = gap + sum(exploitability)
    if certificate > max(tolerance, 1e-7) * max(1.0, float(np.abs(G.data).max(initial=0.0))):
        raise RuntimeError(f"zero-sum certificate {certificate:.3g} exceeds tolerance")
    metadata = {
        "method": method,
        "sequences": G.shape,
        "duality_gap": gap,
        "exploitability": exploitability,
        "residual": max(exploitability),
    }
    anchors = tuple(tuple(_anchors(s, i)) for i in range(2))
    solution = SequenceFormSolution(value, (x, y), anchors, tuple(kids), metadata)
    return solution, G


def _pure_tree(
    model: PosgModel,
    agent: int,
    kids: Mapping[tuple[int, int, int], int],
    pick,
    root: int = 0,
    depth: int | None = None,
) -> tuple[int, PolicyTree, list[int]]:
    """The depth-``depth`` (default: the horizon) pure policy tree rooted at
    set ``root`` that plays ``pick(j)`` at each set ``j`` the walk reached,
    asked in preorder, and action 0 below sets it never reached (everywhere,
    for root None: the filler of unreached branches); with its
    ``enumerate_pure_policies`` index (the preorder actions read as a
    base-``n_u`` number) and the sequences it plays."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    played: list[int] = []
    index = 0

    def build(j: int | None, depth: int) -> PolicyTree:
        nonlocal index
        u = 0 if j is None else pick(j)
        index = index * n_u + u
        if j is not None:
            played.append(j * n_u + u)
        if depth == 1:
            return PolicyTree(agent, u)
        below = (None if j is None else kids.get((j, u, z)) for z in range(n_z))
        return PolicyTree(agent, u, tuple(build(c, depth - 1) for c in below))

    tree = build(root, model.horizon if depth is None else depth)
    return index, tree, played


def _kuhn_mixture(
    model: PosgModel,
    agent: int,
    plan: np.ndarray,
    kids: Mapping[tuple[int, int, int], int],
) -> tuple[dict[int, float], dict[int, PolicyTree]]:
    """Pure policy trees whose mixture realizes ``plan`` (one anchor, at the
    start), keyed by their ``enumerate_pure_policies`` index.

    Each round takes the tree playing the heaviest remaining action at every
    set it reaches, weighs it by the least remaining mass on its sequences
    and subtracts it; that empties at least one sequence, so there are at
    most ``len(plan)`` trees."""
    n_u = len(model.actions[agent])
    rest = plan.copy()
    weights: dict[int, float] = {}
    trees: dict[int, PolicyTree] = {}
    for _ in range(len(plan)):
        index, tree, played = _pure_tree(
            model, agent, kids, lambda j: int(np.argmax(rest[j * n_u : (j + 1) * n_u]))
        )
        w = float(rest[played].min())
        if w <= 1e-12:  # what is left is LP round-off
            break
        rest[played] -= w
        rest[rest <= 1e-12] = 0.0
        weights[index] = weights.get(index, 0.0) + w
        trees[index] = tree
    return weights, trees


def solve_zero_sum(
    model: PosgModel,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_per_agent: int = CAP_PER_AGENT,
) -> Equilibrium:
    """Saddle value of a zero-sum game at the start belief, from one
    realization-plan LP, with each agent's optimal plan as a mixture over pure
    policy trees."""
    _require(model, "zerosum", "solve_zero_sum")
    sol, _ = _zero_sum_kernel(model, initial_occupancy(model), tolerance, cap_per_agent)
    mixtures, policies = zip(
        *(_kuhn_mixture(model, i, sol.plans[i], sol.kids[i]) for i in range(2))
    )
    return Equilibrium(
        criterion="zerosum",
        values=(sol.value, -sol.value),
        mixtures=mixtures,
        policies=policies,
        metadata=dict(sol.metadata),
    )


def _one_sided(model: PosgModel, s: OccupancyState, cap_per_agent: int, best) -> tuple:
    """Agents 0..n-2 enumerated below occupancy ``s`` against the last agent in
    sequence form: agent 0's payoff for each enumerated profile (C order) when
    the last agent plays its ``best`` (``np.max`` or ``np.min``) pure plan, one
    reverse trie pass each; the profiles' payoffs ``Y`` over its sequences; the
    enumerated spaces; its ``kids`` and parent sequences.  No joint tensor is
    built."""
    last = model.n_agents - 1
    (Y,), spaces, kids, parents = _normal_form(model, s, [0], cap_per_agent, keep=(last,))
    Y = Y.reshape(-1, Y.shape[-1])
    values = _trie_best(Y, parents[last], len(model.actions[last]), best)
    return values, Y, spaces[:last], kids[last], parents[last]


def zero_sum_guarantees(model: PosgModel, cap_per_agent: int = CAP_PER_AGENT) -> np.ndarray:
    """What each of agent 0's pure policy trees (``enumerate_pure_policies``
    order) guarantees it at the start belief of a zero-sum game: the
    components of the value's max-of-concave decomposition, each tree's
    payoff minimised over agent 1's pure plans."""
    return _one_sided(model, initial_occupancy(model), cap_per_agent, np.min)[0]


def solve_dec(model: PosgModel, cap_per_agent: int = CAP_PER_AGENT) -> Equilibrium:
    """Optimal joint policy of a common-payoff game: every agent but the last
    enumerates its reduced pure policies, the last best-responds in sequence
    form.  Ties go to the lexicographically smallest index tuple whose value is
    within ``1e-12 * max(1, |max|)`` of the maximum (the first such profile of
    the others, then the last agent's first such policy), so the pick does not
    depend on the order the payoffs were summed in.  The last agent's policy
    comes from one preorder pass over its sets: at each, the lowest action
    whose best completion still reaches that bound."""
    _require(model, "common", "solve_dec")
    s0 = initial_occupancy(model)
    values, Y, spaces, kids, parents = _one_sided(model, s0, cap_per_agent, np.max)
    top = values.max()
    tol = 1e-12 * max(1.0, abs(top))
    row = int(np.flatnonzero(values >= top - tol)[0])
    last = model.n_agents - 1
    n_u = len(model.actions[last])
    v = _trie_fold(Y[row], parents, n_u, np.max)
    slack = v[0].max() - (top - tol)  # what the picks below may still lose

    def lowest_within(j: int) -> int:
        nonlocal slack
        loss = v[j].max() - v[j]
        u = int(np.flatnonzero(loss <= slack)[0])
        slack -= loss[u]
        return u

    col, tree, played = _pure_tree(model, last, kids, lowest_within)
    realization = np.zeros(Y.shape[-1])
    realization[played] = 1.0
    best = np.unravel_index(row, [len(space) for space in spaces]) + (col,)
    chosen = [space[c][PrivateHistory(i)] for i, (space, c) in enumerate(zip(spaces, best))]
    return Equilibrium(
        criterion="common",
        values=(float(realization @ Y[row]),) * model.n_agents,
        mixtures=tuple({int(c): 1.0} for c in best),
        policies=tuple({int(c): t} for c, t in zip(best, chosen + [tree])),
        metadata={"method": "sequence-form-argmax", "shape": (len(values), Y.shape[-1])},
    )


def _sse_leader_lp(L_col: np.ndarray, F: np.ndarray, k: int, E: np.ndarray, e: np.ndarray):
    """max_x x^T L[:,k] over leader realization plans (E x = e, x >= 0)
    under which the follower's pure plan k is a best response."""
    A_ub = F.T - F[:, k]  # row k is 0 <= 0; x >= 0 is linprog's default bound
    res = linprog(-L_col, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=E, b_eq=e, method="highs")
    return (-res.fun, np.clip(res.x, 0.0, None)) if res.success else None


def _multiple_lp(
    L: np.ndarray, F: np.ndarray, parents: np.ndarray, n_u: int
) -> tuple[float, np.ndarray, int]:
    """Strong Stackelberg equilibrium, one LP per follower pure plan (Conitzer
    & Sandholm 2006; follower ties break in the leader's favor): (leader value,
    leader realization plan, follower plan).  Rows of ``L`` and ``F`` are the
    leader's sequences, numbered by ``parents`` as in ``_trie_best``; columns
    are the follower's pure plans, tried in index order."""
    E, e = _plan_constraints(parents, n_u)
    E = E.toarray()  # dense, like the best-response rows
    bounds = _trie_best(L.T, parents, n_u, np.max)
    best = None
    for k in range(F.shape[1]):
        if best is not None and bounds[k] <= best[0] + 1e-12:
            continue  # even the leader's best pure plan cannot beat ``best``
        out = _sse_leader_lp(L[:, k], F, k, E, e)
        if out is not None and (best is None or out[0] > best[0] + 1e-12):
            best = (*out, k)
    if best is None:  # pragma: no cover - some plan is always a best response
        raise RuntimeError("no follower plan admits an incentive-compatible leader plan")
    return best


def stackelberg_from_matrices(L: np.ndarray, F: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Strong Stackelberg equilibrium of a bimatrix game: (leader value,
    leader mixture, follower pure response); one leader information set."""
    return _multiple_lp(L, F, np.full(1, -1, dtype=np.intp), L.shape[0])


def _stackelberg_kernel(model: PosgModel, s: OccupancyState, cap_per_agent: int) -> tuple:
    """Strong Stackelberg equilibrium below occupancy ``s``, the follower's
    pure plans enumerated and the leader in sequence form: (leader value, its
    realization plan, follower plan, follower payoffs ``F`` over (leader
    sequence, follower plan), follower space, leader ``kids``)."""
    (L, F), spaces, kids, parents = _normal_form(model, s, [0, 1], cap_per_agent, keep=(0,))
    value, x, k = _multiple_lp(L, F, parents[0], len(model.actions[0]))
    return value, x, k, F, spaces[1], kids[0]


def solve_stackelberg(model: PosgModel, cap_per_agent: int = CAP_PER_AGENT) -> Equilibrium:
    """Strong Stackelberg equilibrium with agent 1 committing publicly; its
    plan is returned as a mixture over pure policy trees (Kuhn)."""
    _require(model, "stackelberg", "solve_stackelberg")
    s0 = initial_occupancy(model)
    value, x, k, F, space, kids = _stackelberg_kernel(model, s0, cap_per_agent)
    mixture, trees = _kuhn_mixture(model, 0, x, kids)
    return Equilibrium(
        criterion="stackelberg",
        values=(float(value), float(x @ F[:, k])),
        mixtures=(mixture, {k: 1.0}),
        policies=(trees, {k: space[k][PrivateHistory(1)]}),
        metadata={"method": "multiple-lp", "shape": F.shape},
    )


# ---------------------------------------------------------------------------
# values from mid-game occupancy states
# ---------------------------------------------------------------------------


def zero_sum_value_from(
    model: PosgModel,
    s: OccupancyState,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_per_agent: int = CAP_PER_AGENT,
) -> tuple[float, SequenceFormSolution, object]:
    """Saddle value of the zero-sum subgame rooted at occupancy ``s``, with
    the saddle point and agent 0's sequence-form payoff matrix (a
    ``scipy.sparse`` CSR array)."""
    sol, G = _zero_sum_kernel(model, s, tolerance, cap_per_agent)
    return sol.value, sol, G


def dec_value_from(
    model: PosgModel, s: OccupancyState, cap_per_agent: int = CAP_PER_AGENT
) -> float:
    """Optimal common-payoff value from occupancy ``s`` onward."""
    return float(_one_sided(model, s, cap_per_agent, np.max)[0].max())


def stackelberg_value_from(
    model: PosgModel, s: OccupancyState, cap_per_agent: int = CAP_PER_AGENT
) -> float:
    """Strong Stackelberg leader value from occupancy ``s`` onward."""
    return float(_stackelberg_kernel(model, s, cap_per_agent)[0])
