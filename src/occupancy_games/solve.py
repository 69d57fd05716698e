"""Best-response and equilibrium solvers at desk scale.

Best responses come in two exchangeable routes: backward induction over the
agent's private histories carrying unnormalized measures (one forward walk
with the agent's actions as sequences, then one reverse fold over its
histories), and dynamic programming over private occupancy states with
normalized Bayesian updates (one recursion that pushes each state once, all
own actions in that push).  Both break ties toward the lowest action within
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
plan is the variable of one linear program per follower pure plan, tried in
descending order of what the leader could get against it (Conitzer & Sandholm
2006; strong equilibrium: follower ties break in the leader's favor), with the
follower's optimality written by LP duality as one value per follower
information set (Bošanský & Čermák 2015).
Ties everywhere break toward the lowest enumeration index.

``_normal_form`` is the one set-up of that walk.  ``cap_bytes`` is one budget
for every criterion: the bytes of the dense arrays it would build, predicted
from the agents' full tries before any walk or enumeration.  It leaves out
the per-policy Python objects, the LP matrices and intermediate copies, so
it does not bound peak memory.  Every solver
reads the model's own horizon; ``PosgModel.with_horizon`` sets another.
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
    own_actions,
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
CAP_BYTES = 2**30


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
    own_action = own_actions(model, agent)
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
    model: PosgModel,
    profiles: list[dict[int, DecisionRule]],
    agent: int,
    s_i: PrivateOccupancyState,
    t: int,
) -> tuple[float, PolicyTree, dict[PrivateHistory, tuple[float, ...]]]:
    """Bellman optimality over private occupancy states below ``s_i`` at step
    ``t``: its value, its greedy tree, and the q per own action on every
    history that tree reaches.

    Each state is pushed once, every own action in that one push, and each
    action's q adds its branches' discounted values in increasing own
    observation."""
    rewards, children = private_branches(model, s_i, profiles[t], push=t + 1 < model.horizon)
    qs, below = list(rewards), {}
    for u_i, z_i, omega, nxt in children:
        below[u_i, z_i] = _private_dp(model, profiles, agent, nxt, t + 1)
        qs[u_i] += model.discount * omega * below[u_i, z_i][0]
    u_i = _argmax_lowest(qs)
    q = {s_i.anchor: tuple(qs)}
    if t + 1 >= model.horizon:
        return max(qs), PolicyTree(agent, u_i), q
    subtrees = []
    for z_i in range(model.n_agent_obs(agent)):
        if (u_i, z_i) in below:
            _, tree, q_below = below[u_i, z_i]
            q.update(q_below)
        else:
            tree = _pure_tree(model, agent, {}, None, None, model.horizon - t - 1)[1]
        subtrees.append(tree)
    return max(qs), PolicyTree(agent, u_i, tuple(subtrees)), q


def best_response_private(model: PosgModel, others, agent: int) -> BestResponse:
    """Dynamic programming over the private occupancy-state MDP from the
    start, with the greedy tree and its q-table."""
    profiles = _others_profiles(model, others, agent)
    root = initial_private_occupancy(model, agent)
    value, tree, q = _private_dp(model, profiles, agent, root, 0)
    return BestResponse(agent, value, tree, q, "private-occupancy-dp")


def best_response_private_from(
    model: PosgModel, others, agent: int, s_i: PrivateOccupancyState, t0: int
) -> float:
    """Private-route best-response value from one private occupancy state;
    0 at or past the horizon."""
    if t0 >= model.horizon:
        return 0.0
    return _private_dp(model, _others_profiles(model, others, agent), agent, s_i, t0)[0]


# ---------------------------------------------------------------------------
# the occupancy-rooted normal form
# ---------------------------------------------------------------------------


def _anchors(s: OccupancyState, agent: int) -> list[PrivateHistory]:
    return sorted({o.privates[agent] for (_, o) in s.entries}, key=lambda h: h.steps)


def _anchored_space(
    model: PosgModel, agent: int, anchors: Sequence[PrivateHistory], depth: int
) -> list[dict[PrivateHistory, PolicyTree]]:
    """Pure policy suffixes: one depth-``depth`` tree per anchor history.
    Callers bound their count, ``_trie_size``, before enumerating."""
    plans = _trie_size(model, agent, len(anchors), depth)[1]
    trees = enumerate_pure_policies(model, agent, depth, cap=plans)
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


def _trie_size(model: PosgModel, agent: int, n_anchors: int, depth: int) -> tuple[list[int], int]:
    """Sequences per depth of the agent's full trie ``depth`` steps below
    ``n_anchors`` anchors, and its anchored pure plans: ``n_u`` to the power
    of the trie's nodes, one tree per anchor."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    per_depth = [n_anchors * n_u * (n_u * n_z) ** d for d in range(depth)]
    return per_depth, n_u ** (n_anchors * sum(n_z**d for d in range(depth)))


def _predicted_bytes(
    model: PosgModel,
    n_anchors: Sequence[int],
    depth: int,
    keep: Sequence[int],
    n_contracted: int,
    n_uncontracted: int,
) -> int:
    """What ``_normal_form`` builds, in bytes of doubles on the agents' full
    tries: every depth block of the walk, and, when some agent is enumerated,
    each enumerated agent's realization matrix, the tensors contracted with
    them and the dense sequence-form matrices of the uncontracted agents of
    interest.  The policy trees, the LP matrices and intermediate copies are
    not counted: peak memory runs 2-3 times this at the bundled frontier."""
    tries = [_trie_size(model, i, n_anchors[i], depth) for i in range(model.n_agents)]
    seqs = [sum(per_depth) for per_depth, _ in tries]
    n_interest = n_contracted + n_uncontracted
    doubles = n_interest * sum(math.prod(t[0][d] for t in tries) for d in range(depth))
    enumerated = [i for i in range(model.n_agents) if i not in keep]
    if enumerated:
        doubles += sum(tries[i][1] * seqs[i] for i in enumerated)
        axes = [tries[i][1] if i in enumerated else seqs[i] for i in range(model.n_agents)]
        doubles += n_contracted * math.prod(axes) + n_uncontracted * math.prod(seqs)
    return 8 * doubles


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
    cap_bytes: int,
    keep: Sequence[int] = (),
    uncontracted: Sequence[int] = (),
) -> tuple[list, list[list[dict] | None], list[dict], list[np.ndarray]]:
    """Payoff tensors below occupancy ``s``, one per agent of interest and one
    axis per agent, with each agent's assignment space, the ``kids`` of
    ``_sequence_payoffs`` and each agent's parent sequences.

    Under perfect recall a pure profile's payoff is multilinear in the
    agents' 0/1 sequence realizations, so every tensor is the sequence-form
    payoff contracted with each agent's realization matrix (for two agents,
    ``R_0 @ G @ R_1.T``), taken one depth block at a time.  The agents in
    ``keep`` are left uncontracted: their axes stay over their sequences and
    their spaces are ``None``.  When both agents of a two-agent game are
    kept, each tensor is the block-diagonal ``G`` itself, as a
    ``scipy.sparse`` CSR array.  The payoffs of the agents in
    ``uncontracted`` follow, each the dense block-diagonal ``G`` over the two
    agents' sequences.  ``_predicted_bytes`` must stay within ``cap_bytes``,
    checked before the walk and any enumeration.
    """
    depth = model.horizon - s.t
    if depth < 1:
        raise ValueError("occupancy state is already at the horizon")
    anchors = [_anchors(s, i) for i in range(model.n_agents)]
    n_bytes = _predicted_bytes(
        model, [len(a) for a in anchors], depth, keep, len(agents_of_interest), len(uncontracted)
    )
    if n_bytes > cap_bytes:
        raise CapExceededError("normal form", n_bytes, cap_bytes, " bytes")
    spaces = [
        None if i in keep else _anchored_space(model, i, anchors[i], depth)
        for i in range(model.n_agents)
    ]
    blocks, kids = _sequence_payoffs(
        model, s, anchors, list(agents_of_interest) + list(uncontracted)
    )
    parents = [
        _parents(kids[i], len(anchors[i]) + len(kids[i]), len(model.actions[i]))
        for i in range(model.n_agents)
    ]
    realizations = [
        None if space is None else _realization(len(model.actions[i]), anchors[i], space, kids[i])
        for i, space in enumerate(spaces)
    ]
    n_c = len(agents_of_interest)
    if uncontracted:
        from scipy.linalg import block_diag
    dense = [
        block_diag(*(block[..., n_c + k] for block in blocks)) for k in range(len(uncontracted))
    ]
    parts = []
    lo = [0] * model.n_agents  # each agent's first sequence of the block
    for block in blocks:
        out = block[..., :n_c]
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
        mats = list(sum(parts))
    elif len(kept) == 1:
        mats = list(np.concatenate(parts, axis=1 + kept[0]))
    else:  # both agents of a two-agent game kept: block diagonal, stored sparse
        mats = [_block_diagonal([part[k] for part in parts]) for k in range(n_c)]
    return mats + dense, spaces, kids, parents


def _block_diagonal(blocks: Sequence[np.ndarray]):
    """The block-diagonal matrix of 2-d ``blocks`` as a ``scipy.sparse`` CSR
    array that stores their nonzero entries only."""
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
    cap_bytes: int = CAP_BYTES,
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff tensors over anchored pure policy suffixes from occupancy ``s``;
    axis ``i`` indexes agent ``i``'s assignments of one tree per anchor."""
    mats, spaces, _, _ = _normal_form(model, s, agents_of_interest, cap_bytes)
    return mats, spaces


def induced_normal_form(
    model: PosgModel,
    agents_of_interest: Sequence[int],
    cap_bytes: int = CAP_BYTES,
) -> tuple[list[np.ndarray], list[list[PolicyTree]]]:
    """Payoff tensors over reduced pure policy profiles at the start belief,
    one axis per agent: the occupancy-rooted normal form at the initial
    occupancy state, each one-anchor assignment unwrapped to its tree."""
    s0 = initial_occupancy(model)
    mats, spaces, _, _ = _normal_form(model, s0, agents_of_interest, cap_bytes)
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


def _plan_constraints(parents: np.ndarray, n_u: int, dense: bool = False):
    """``E`` (``scipy.sparse`` unless ``dense``) and right-hand side ``e`` of
    ``E x = e``: one row per set, its actions' mass minus its parent
    sequence's mass, 1 at the anchors."""
    n = len(parents)
    # row c: -1 at its parent sequence (none at an anchor), then 1 at its own
    cols = np.column_stack([parents, np.arange(n * n_u).reshape(n, n_u)])
    values = np.column_stack([-np.ones(n), np.ones((n, n_u))])
    stored = cols >= 0
    e = (parents < 0).astype(float)
    if dense:
        E = np.zeros((n, n * n_u))
        E[np.nonzero(stored)[0], cols[stored]] = values[stored]
        return E, e
    from scipy import sparse

    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return sparse.csr_array((values[stored], cols[stored], indptr), shape=(n, n * n_u)), e


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
    model: PosgModel, s: OccupancyState, tolerance: float, cap_bytes: int
) -> tuple[SequenceFormSolution, object]:
    """Saddle point below occupancy ``s`` and agent 0's sequence-form payoff
    matrix ``G`` (a ``scipy.sparse`` CSR array).

    The certificate, the duality gap plus each side's exploitability (what
    the opponent's best pure plan gains against it), must stay within
    ``max(tolerance, 1e-7)`` times the largest payoff magnitude."""
    (G,), _, kids, parents = _normal_form(model, s, [0], cap_bytes, keep=(0, 1))
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
    cap_bytes: int = CAP_BYTES,
) -> Equilibrium:
    """Saddle value of a zero-sum game at the start belief, from one
    realization-plan LP, with each agent's optimal plan as a mixture over pure
    policy trees."""
    _require(model, "zerosum", "solve_zero_sum")
    sol, _ = _zero_sum_kernel(model, initial_occupancy(model), tolerance, cap_bytes)
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


def _one_sided(model: PosgModel, s: OccupancyState, cap_bytes: int, best) -> tuple:
    """Agents 0..n-2 enumerated below occupancy ``s`` against the last agent in
    sequence form: agent 0's payoff for each enumerated profile (C order) when
    the last agent plays its ``best`` (``np.max`` or ``np.min``) pure plan, one
    reverse trie pass each; the profiles' payoffs ``Y`` over its sequences; the
    enumerated spaces; its ``kids`` and parent sequences.  No joint tensor is
    built."""
    last = model.n_agents - 1
    (Y,), spaces, kids, parents = _normal_form(model, s, [0], cap_bytes, keep=(last,))
    Y = Y.reshape(-1, Y.shape[-1])
    values = _trie_best(Y, parents[last], len(model.actions[last]), best)
    return values, Y, spaces[:last], kids[last], parents[last]


def zero_sum_guarantees(model: PosgModel, cap_bytes: int = CAP_BYTES) -> np.ndarray:
    """What each of agent 0's pure policy trees (``enumerate_pure_policies``
    order) guarantees it at the start belief of a zero-sum game: the
    components of the value's max-of-concave decomposition, each tree's
    payoff minimised over agent 1's pure plans."""
    return _one_sided(model, initial_occupancy(model), cap_bytes, np.min)[0]


def solve_dec(model: PosgModel, cap_bytes: int = CAP_BYTES) -> Equilibrium:
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
    values, Y, spaces, kids, parents = _one_sided(model, s0, cap_bytes, np.max)
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


def _multiple_lp(
    L: np.ndarray,
    G_F,
    realize: Callable[[int], np.ndarray],
    parents: Sequence[np.ndarray],
    n_us: Sequence[int],
) -> tuple[float, np.ndarray, int, float, float]:
    """Strong Stackelberg equilibrium, one LP per follower pure plan (Conitzer
    & Sandholm 2006; follower ties break in the leader's favor): (leader
    value, leader realization plan ``x``, follower plan ``k``, follower value
    ``x G_F r_k``, follower regret).

    Rows of ``L`` (leader payoff over follower plans) and of ``G_F`` (follower
    payoff over follower sequences) are the leader's sequences;
    ``realize(k)`` is plan ``k``'s 0/1 realization ``r_k``.  Plan ``k`` is a
    best response to ``x`` when some value ``v`` per follower set has
    ``F^T v >= G_F^T x`` and ``f^T v <= x G_F r_k`` (LP duality on the
    follower's plans ``F r = f``; Bošanský & Čermák 2015), so each LP has
    one row per follower sequence, not one per plan.  Plans are tried in
    descending order of the leader's best pure value against them, until
    that bound falls below the best LP value less 1e-12; ties go to the
    lowest plan whose value is within 1e-12 of the best."""
    E, e = _plan_constraints(parents[0], n_us[0], dense=True)
    F, f = _plan_constraints(parents[1], n_us[1], dense=True)
    n_x, n_v = E.shape[1], F.shape[0]
    # G_F^T x - F^T v <= 0, then f^T v - x G_F r_k <= 0 (set per plan)
    A_ub = np.zeros((G_F.shape[1] + 1, n_x + n_v))
    A_ub[:-1, :n_x] = G_F.T
    A_ub[:-1, n_x:] = -F.T
    A_ub[-1, n_x:] = f
    A_eq = np.hstack([E, np.zeros((len(e), n_v))])
    bounds = [(0, None)] * n_x + [(None, None)] * n_v
    top = _trie_best(L.T, parents[0], n_us[0], np.max)
    solved: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    best = -np.inf
    for k in np.argsort(-top, kind="stable").tolist():
        if top[k] < best - 1e-12:
            break  # neither this plan nor any later one can reach ``best``
        r = realize(k)
        A_ub[-1, :n_x] = -(G_F @ r)
        res = linprog(
            np.concatenate([-L[:, k], np.zeros(n_v)]),
            A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq, b_eq=e,
            bounds=bounds, method="highs",
        )
        if res.success:
            solved[k] = (-float(res.fun), np.clip(res.x[:n_x], 0.0, None), r)
            best = max(best, solved[k][0])
    if not solved:  # pragma: no cover - some plan is always a best response
        raise RuntimeError("no follower plan admits an incentive-compatible leader plan")
    k = min(j for j, (v, _, _) in solved.items() if v >= best - 1e-12)
    value, x, r = solved[k]
    payoffs = x @ G_F
    follower = float(payoffs @ r)
    regret = max(0.0, float(_trie_best(payoffs, parents[1], n_us[1], np.max)) - follower)
    return value, x, k, follower, regret


def stackelberg_from_matrices(L: np.ndarray, F: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Strong Stackelberg equilibrium of a bimatrix game: (leader value,
    leader mixture, follower pure response); one information set each."""
    one_set = np.full(1, -1, dtype=np.intp)
    unit = np.eye(F.shape[1])
    value, x, k, _, _ = _multiple_lp(L, F, lambda k: unit[k], (one_set, one_set), F.shape)
    return value, x, k


@dataclass(frozen=True)
class StackelbergSolution:
    """Strong Stackelberg equilibrium below an occupancy state: the leader's
    realization plan ``plan`` over its sequences (numbered by ``kids`` as in
    ``SequenceFormSolution``) and the follower's pure plan ``k``, its index
    in the follower's anchored space and ``assignment`` its tree per anchor."""

    values: tuple[float, float]
    plan: np.ndarray
    k: int
    assignment: Mapping[PrivateHistory, PolicyTree]
    kids: Mapping[tuple[int, int, int], int]
    metadata: Mapping[str, object]


def _stackelberg_kernel(
    model: PosgModel, s: OccupancyState, tolerance: float, cap_bytes: int
) -> StackelbergSolution:
    """Strong Stackelberg equilibrium below occupancy ``s``, the follower's
    pure plans enumerated and the leader in sequence form.

    The certificate, the follower's regret (its best pure plan's value
    against the leader's plan less the chosen plan's), must stay within
    ``max(tolerance, 1e-7)`` times the follower's largest payoff magnitude."""
    (L, G_F), spaces, kids, parents = _normal_form(
        model, s, [0], cap_bytes, keep=(0,), uncontracted=(1,)
    )
    anchors, space = _anchors(s, 1), spaces[1]
    n_us = [len(model.actions[i]) for i in range(2)]

    def realize(k: int) -> np.ndarray:
        return _realization(n_us[1], anchors, space[k : k + 1], kids[1])[0]

    value, x, k, follower, regret = _multiple_lp(L, G_F, realize, parents, n_us)
    if regret > max(tolerance, 1e-7) * max(1.0, float(np.abs(G_F).max(initial=0.0))):
        raise RuntimeError(f"stackelberg follower regret {regret:.3g} exceeds tolerance")
    metadata = {"method": "multiple-lp", "shape": L.shape, "follower_regret": regret}
    return StackelbergSolution((value, follower), x, k, space[k], kids[0], metadata)


def solve_stackelberg(
    model: PosgModel,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_bytes: int = CAP_BYTES,
) -> Equilibrium:
    """Strong Stackelberg equilibrium with agent 1 committing publicly; its
    plan is returned as a mixture over pure policy trees (Kuhn)."""
    _require(model, "stackelberg", "solve_stackelberg")
    sol = _stackelberg_kernel(model, initial_occupancy(model), tolerance, cap_bytes)
    mixture, trees = _kuhn_mixture(model, 0, sol.plan, sol.kids)
    return Equilibrium(
        criterion="stackelberg",
        values=sol.values,
        mixtures=(mixture, {sol.k: 1.0}),
        policies=(trees, {sol.k: sol.assignment[PrivateHistory(1)]}),
        metadata=dict(sol.metadata),
    )


# ---------------------------------------------------------------------------
# values from mid-game occupancy states
# ---------------------------------------------------------------------------


def zero_sum_value_from(
    model: PosgModel,
    s: OccupancyState,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_bytes: int = CAP_BYTES,
) -> tuple[float, SequenceFormSolution, object]:
    """Saddle value of the zero-sum subgame rooted at occupancy ``s``, with
    the saddle point and agent 0's sequence-form payoff matrix (a
    ``scipy.sparse`` CSR array)."""
    sol, G = _zero_sum_kernel(model, s, tolerance, cap_bytes)
    return sol.value, sol, G


def dec_value_from(
    model: PosgModel, s: OccupancyState, cap_bytes: int = CAP_BYTES
) -> float:
    """Optimal common-payoff value from occupancy ``s`` onward."""
    return float(_one_sided(model, s, cap_bytes, np.max)[0].max())


def stackelberg_value_from(
    model: PosgModel, s: OccupancyState, cap_bytes: int = CAP_BYTES
) -> float:
    """Strong Stackelberg leader value from occupancy ``s`` onward."""
    return _stackelberg_kernel(model, s, DEFAULT_TOLERANCE, cap_bytes).values[0]
