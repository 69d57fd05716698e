"""Best-response and equilibrium solvers at desk scale.

Best responses come in two exchangeable routes: backward induction over the
agent's private histories carrying unnormalized measures, and dynamic
programming over private occupancy states with normalized Bayesian updates.
Equality of their values on every input is the operational form of the
sufficiency of private occupancy states.

Equilibrium solvers work on one normal form rooted at an occupancy state (the
initial one for the start-belief solvers): one tensor axis per agent over
reduced pure policy trees, one tree per private history in the support (exact
at desk scale under perfect recall).  It is built as a sequence-form payoff
tensor, from one forward walk below the state, contracted with each agent's
0/1 realization matrix.  Zero-sum games reduce to a matrix game,
common-payoff games to an argmax over the tensor, and Stackelberg games to one
incentive-constrained linear program per follower pure policy that could still
raise the leader's value (strong equilibrium: follower ties break in the
leader's favor).
Ties everywhere break toward the lowest enumeration index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import CapExceededError, ModelValidationError
from .model import PosgModel
from .occupancy import (
    OccupancyState,
    PrivateOccupancyState,
    anchored_rules,
    expand,
    initial_occupancy,
    initial_private_occupancy,
    private_branches,
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


@dataclass(frozen=True)
class MatrixGame:
    """Zero-sum payoff matrix for the row maximizer."""

    payoffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.payoffs, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("payoff matrix must be a nonempty 2-d array")
        if not np.isfinite(arr).all():
            raise ValueError("payoff entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "payoffs", arr)


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    method: str


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


def matrix_game_value(
    game: MatrixGame | np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> MatrixGameSolution:
    """Minimax value and eps-optimal mixtures of a zero-sum matrix game.

    Degenerate shapes and 2x2 games use closed forms; anything larger goes to
    a linear program (one per player), with the duality gap checked against
    the tolerance.
    """
    A = game.payoffs if isinstance(game, MatrixGame) else MatrixGame(game).payoffs
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
    return _solve_lp(A, tolerance)


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


def _one_sided_lp(A: np.ndarray) -> tuple[float, np.ndarray]:
    """max_x min_k (x^T A)_k over the simplex, via HiGHS."""
    m, n = A.shape
    # variables: x_1..x_m, v; minimize -v
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    if not res.success:  # pragma: no cover - LP over a simplex is always feasible
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    x = np.clip(res.x[:m], 0.0, None)
    return float(res.x[-1]), x / x.sum()


def _solve_lp(A: np.ndarray, tolerance: float) -> MatrixGameSolution:
    v_row, row = _one_sided_lp(A)
    v_col_neg, col = _one_sided_lp(-A.T)
    gap = abs(v_row + v_col_neg)
    if gap > max(tolerance, 1e-7) * max(1.0, np.abs(A).max()):
        raise RuntimeError(f"matrix game duality gap {gap:.3g} exceeds tolerance")
    return MatrixGameSolution(v_row, row, col, "lp")


# ---------------------------------------------------------------------------
# best responses (two routes)
# ---------------------------------------------------------------------------


def _others_profiles(
    model: PosgModel, others, agent: int, horizon: int
) -> list[dict[int, DecisionRule]]:
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
        if len(per_agent[j]) < horizon:
            raise ValueError("others' policy horizon shorter than the model horizon")
    return [{j: rules[t] for j, rules in per_agent.items()} for t in range(horizon)]


def _filler_tree(agent: int, n_obs: int, depth: int) -> PolicyTree:
    """Canonical all-lowest-action subtree for unreachable branches."""
    if depth == 1:
        return PolicyTree(agent, 0)
    child = _filler_tree(agent, n_obs, depth - 1)
    return PolicyTree(agent, 0, tuple(child for _ in range(n_obs)))


def _argmax_lowest(values: Sequence[float]) -> int:
    best, best_v = 0, values[0]
    for i in range(1, len(values)):
        if values[i] > best_v:
            best, best_v = i, values[i]
    return best


def best_response_history(
    model: PosgModel, others, agent: int, horizon: int | None = None
) -> BestResponse:
    """Bellman optimality over the agent's private histories.

    Carries unnormalized conditional measures forward, so no per-branch
    renormalization is ever needed; reported q-values are normalized by each
    history's probability.
    """
    model = model.with_horizon(model.horizon if horizon is None else horizon)
    value, trees, q = _history_br(model, others, agent, initial_occupancy(model))
    return BestResponse(agent, value, trees[PrivateHistory(agent)], q, "history-dp")


def _history_br(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> tuple[float, dict[PrivateHistory, PolicyTree], dict]:
    """Backward induction over private histories from the unnormalized
    measure ``s`` puts on each of the agent's histories; returns (total
    mass-weighted value, greedy tree per seed history, normalized q per
    visited history)."""
    horizon = model.horizon
    profiles = _others_profiles(model, others, agent, horizon)
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    seeds: dict[PrivateHistory, dict] = {}
    for (x, o), p in s.entries.items():
        seeds.setdefault(o.privates[agent], {})[(x, o)] = p
    q_out: dict[PrivateHistory, tuple[float, ...]] = {}

    def solve_node(hist: PrivateHistory, beta: dict, t: int) -> tuple[float, PolicyTree]:
        mass = sum(beta.values())
        last = t + 1 >= horizon
        q_tilde = []
        best_children: list[tuple[PolicyTree, ...]] = []
        for u_i in range(n_u):
            rules = anchored_rules(model, hist, profiles[t], u_i)
            q_u, _, children_beta = expand(model, beta, rules, agent, push=not last)
            subtrees = []
            for z_i in range(0 if last else n_z):
                if z_i in children_beta:
                    v_child, tree_child = solve_node(
                        hist.child(u_i, z_i), children_beta[z_i], t + 1
                    )
                    q_u += model.discount * v_child
                else:
                    tree_child = _filler_tree(agent, n_z, horizon - t - 1)
                subtrees.append(tree_child)
            q_tilde.append(q_u)
            best_children.append(tuple(subtrees))
        best = _argmax_lowest(q_tilde)
        if mass > 0.0:
            q_out[hist] = tuple(v / mass for v in q_tilde)
        return q_tilde[best], PolicyTree(agent, best, best_children[best])

    total = 0.0
    trees: dict[PrivateHistory, PolicyTree] = {}
    for hist in sorted(seeds, key=lambda h: h.steps):
        v, tree = solve_node(hist, seeds[hist], s.t)
        total += v
        trees[hist] = tree
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
        result = (qs[_argmax_lowest(qs)], tuple(qs))
        memo[key] = result
        return result

    return V


def best_response_private(
    model: PosgModel, others, agent: int, horizon: int | None = None
) -> BestResponse:
    """Dynamic programming over the private occupancy-state MDP; one walk of
    the greedy tree collects the policy and the q-table."""
    horizon = model.horizon if horizon is None else horizon
    model = model.with_horizon(horizon)
    profiles = _others_profiles(model, others, agent, horizon)
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
            else _filler_tree(agent, n_z, horizon - t - 1)
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
    profiles = _others_profiles(model, others, agent, model.horizon)
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
) -> tuple[np.ndarray, list[dict[tuple[int, int, int], int]]]:
    """Sequence-form payoff tensor below occupancy ``s``.

    One forward walk over every joint action and outcome pushes the mass of
    ``s`` through (state, per-agent information set) pairs.  Agent ``i``'s
    sets are numbered as they are reached: set ``a`` is its anchor
    ``anchors[i][a]``, and ``kids[i][(j, u, z)]`` is the set after own action
    ``u`` and observation ``z`` at set ``j``.  Sequence ``j * n_u + u`` is
    action ``u`` at set ``j``.  The tensor has one axis per agent over its
    sequences and a last axis over ``agents_of_interest``: the discounted
    reward at those joint sequences, weighted by the probability of the
    outcomes along them.
    """
    n = model.n_agents
    n_us = tuple(len(labels) for labels in model.actions)
    pos = [{h: a for a, h in enumerate(anc)} for anc in anchors]
    kids: list[dict[tuple[int, int, int], int]] = [{} for _ in range(n)]
    level: dict[tuple[int, tuple[int, ...]], float] = {}
    for (x, o), p in s.entries.items():
        key = (x, tuple(pos[i][h] for i, h in enumerate(o.privates)))
        level[key] = level.get(key, 0.0) + p
    visited = list(level.items())
    for _ in range(model.horizon - s.t - 1):
        nxt: dict[tuple[int, tuple[int, ...]], float] = {}
        for (x, sets), p in level.items():
            for u in range(model.n_joint_actions):
                us = model.split_joint_action(u)
                for x2, _, obs, dyn in model.successors(u, x):
                    children = tuple(
                        kids[i].setdefault(
                            (sets[i], us[i], obs[i]), len(anchors[i]) + len(kids[i])
                        )
                        for i in range(n)
                    )
                    key = (x2, children)
                    nxt[key] = nxt.get(key, 0.0) + p * model.discount * dyn
        level = nxt
        visited += level.items()
    # rewards[x, u_0, ..., u_{n-1}, k] for the k-th agent of interest
    rewards = np.moveaxis(model.rewards[list(agents_of_interest)], 0, -1)
    rewards = rewards.reshape((model.n_states,) + n_us + (-1,))
    xs = np.array([x for (x, _), _ in visited], dtype=np.intp)
    ids = np.array([sets for (_, sets), _ in visited], dtype=np.intp).reshape(-1, n)
    mass = np.array([p for _, p in visited]).reshape((-1,) + (1,) * (n + 1))
    n_sets = [len(anc) + len(k) for anc, k in zip(anchors, kids)]
    # axes (set_0, u_0, ..., set_{n-1}, u_{n-1}, k), merged below into
    # sequence axes j * n_u + u
    G = np.zeros(tuple(itertools.chain(*zip(n_sets, n_us))) + rewards.shape[-1:])
    index = tuple(itertools.chain(*((ids[:, i], slice(None)) for i in range(n))))
    np.add.at(G, index + (slice(None),), mass * rewards[xs])
    shape = tuple(k * n_u for k, n_u in zip(n_sets, n_us))
    return G.reshape(shape + rewards.shape[-1:]), kids


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


def _normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    cap_per_agent: int,
    cap_joint: int,
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff tensors, one axis per agent, over anchored pure policy suffixes
    from occupancy ``s``, with each agent's assignment space.

    Under perfect recall a pure profile's payoff is multilinear in the
    agents' 0/1 sequence realizations, so every tensor is the sequence-form
    payoff contracted with each agent's realization matrix (for two agents,
    ``R_0 @ G @ R_1.T``).
    """
    depth = model.horizon - s.t
    if depth < 1:
        raise ValueError("occupancy state is already at the horizon")
    anchors = [_anchors(s, i) for i in range(model.n_agents)]
    spaces = [
        _anchored_space(model, i, anchors[i], depth, cap_per_agent)
        for i in range(model.n_agents)
    ]
    shape = tuple(len(space) for space in spaces)
    if math.prod(shape) > cap_joint:
        raise CapExceededError("joint enumeration", math.prod(shape), cap_joint)
    out, kids = _sequence_payoffs(model, s, anchors, agents_of_interest)
    for i, space in enumerate(spaces):
        R = _realization(len(model.actions[i]), anchors[i], space, kids[i])
        out = np.tensordot(out, R, axes=([0], [1]))  # moves agent i's axis last
    return list(out), spaces


def suffix_normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int] = (0,),
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff tensors over anchored pure policy suffixes from occupancy ``s``;
    axis ``i`` indexes agent ``i``'s assignments of one tree per anchor."""
    return _normal_form(model, s, agents_of_interest, cap_per_agent, cap_joint)


def induced_normal_form(
    model: PosgModel,
    horizon: int,
    agents_of_interest: Sequence[int],
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> tuple[list[np.ndarray], list[list[PolicyTree]]]:
    """Payoff tensors over reduced pure policy profiles at the start belief,
    one axis per agent: the occupancy-rooted normal form at the initial
    occupancy state, each one-anchor assignment unwrapped to its tree."""
    m = model.with_horizon(horizon)
    mats, spaces = _normal_form(
        m, initial_occupancy(m), agents_of_interest, cap_per_agent, cap_joint
    )
    roots = [PrivateHistory(i) for i in range(m.n_agents)]
    return mats, [[a[root] for a in space] for root, space in zip(roots, spaces)]


def _game_at(
    model: PosgModel, horizon: int | None, criterion: str, solver: str
) -> PosgModel:
    """The model at ``horizon`` (default: its own), which must be ``criterion``."""
    m = model.with_horizon(model.horizon if horizon is None else horizon)
    if m.criterion != criterion:
        raise ModelValidationError(f"{solver} needs a {criterion} model, got {m.criterion}")
    return m


def solve_zero_sum(
    model: PosgModel,
    horizon: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> Equilibrium:
    """Saddle value and optimal mixtures of a zero-sum game at the start
    belief, on the induced normal form over pure policies."""
    m = _game_at(model, horizon, "zerosum", "solve_zero_sum")
    (A,), spaces = induced_normal_form(m, m.horizon, [0], cap_per_agent, cap_joint)
    sol = matrix_game_value(A, tolerance)
    residual = max(
        float(sol.value - (sol.row_mix @ A).min()),
        float((A @ sol.col_mix).max() - sol.value),
        0.0,
    )
    mixtures = tuple(_support_dict(mix) for mix in (sol.row_mix, sol.col_mix))
    policies = tuple(
        {idx: spaces[i][idx] for idx in mixtures[i]} for i in range(2)
    )
    return Equilibrium(
        criterion="zerosum",
        values=(sol.value, -sol.value),
        mixtures=mixtures,
        policies=policies,
        metadata={
            "method": f"normal-form+{sol.method}",
            "shape": A.shape,
            "residual": residual,
            "row_guarantees": tuple(float(v) for v in A.min(axis=1)),
        },
    )


def _support_dict(mix: np.ndarray, atol: float = 1e-12) -> dict[int, float]:
    return {int(i): float(w) for i, w in enumerate(mix) if w > atol}


def solve_dec(
    model: PosgModel,
    horizon: int | None = None,
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> Equilibrium:
    """Optimal joint policy of a common-payoff game by exhaustive search over
    reduced pure policies; ties go to the lexicographically smallest index
    tuple whose value is within ``1e-12 * max(1, |max|)`` of the maximum, so
    the pick does not depend on the order the payoffs were summed in."""
    m = _game_at(model, horizon, "common", "solve_dec")
    (values,), spaces = induced_normal_form(m, m.horizon, [0], cap_per_agent, cap_joint)
    top = values.max()
    first = np.flatnonzero(values >= top - 1e-12 * max(1.0, abs(top)))[0]
    best = tuple(int(c) for c in np.unravel_index(first, values.shape))
    return Equilibrium(
        criterion="common",
        values=(float(values[best]),) * m.n_agents,
        mixtures=tuple({c: 1.0} for c in best),
        policies=tuple({c: spaces[i][c]} for i, c in enumerate(best)),
        metadata={"method": "normal-form-argmax", "joint_policies": values.size},
    )


def _sse_leader_lp(L_col: np.ndarray, F: np.ndarray, k: int):
    """max_sigma sigma^T L[:,k] s.t. k is a follower best response."""
    m, n = F.shape
    c = -L_col
    rows = [F[:, kp] - F[:, k] for kp in range(n) if kp != k]
    A_ub = np.vstack(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=[(0, None)] * m,
        method="highs",
    )
    if not res.success:
        return None
    sigma = np.clip(res.x, 0.0, None)
    return -res.fun, sigma / sigma.sum()


def stackelberg_from_matrices(
    L: np.ndarray, F: np.ndarray
) -> tuple[float, np.ndarray, int]:
    """Strong Stackelberg equilibrium of a bimatrix game: (leader value,
    leader mixture, follower pure response)."""
    best = None
    for k in range(F.shape[1]):
        if best is not None and L[:, k].max() <= best[0] + 1e-12:
            continue  # even the leader's best row cannot beat ``best``
        out = _sse_leader_lp(L[:, k], F, k)
        if out is None:
            continue
        value, sigma = out
        if best is None or value > best[0] + 1e-12:
            best = (value, sigma, k)
    if best is None:  # pragma: no cover - some column is always a best response
        raise RuntimeError("no follower column admits an incentive-compatible leader mix")
    return best


def solve_stackelberg(
    model: PosgModel,
    horizon: int | None = None,
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> Equilibrium:
    """Strong Stackelberg equilibrium with agent 1 committing publicly."""
    m = _game_at(model, horizon, "stackelberg", "solve_stackelberg")
    (L, F), spaces = induced_normal_form(m, m.horizon, [0, 1], cap_per_agent, cap_joint)
    value, sigma, k = stackelberg_from_matrices(L, F)
    follower_value = float(sigma @ F[:, k])
    mixtures = (_support_dict(sigma), {int(k): 1.0})
    policies = (
        {idx: spaces[0][idx] for idx in mixtures[0]},
        {int(k): spaces[1][k]},
    )
    return Equilibrium(
        criterion="stackelberg",
        values=(float(value), follower_value),
        mixtures=mixtures,
        policies=policies,
        metadata={"method": "multiple-lp", "shape": L.shape},
    )


# ---------------------------------------------------------------------------
# values from mid-game occupancy states
# ---------------------------------------------------------------------------


def zero_sum_value_from(
    model: PosgModel,
    s: OccupancyState,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_per_agent: int = CAP_PER_AGENT,
) -> tuple[float, MatrixGameSolution, np.ndarray]:
    """Saddle value of the zero-sum subgame rooted at occupancy ``s``."""
    (A,), _ = suffix_normal_form(model, s, (0,), cap_per_agent)
    sol = matrix_game_value(A, tolerance)
    return sol.value, sol, A


def dec_value_from(
    model: PosgModel, s: OccupancyState, cap_per_agent: int = CAP_PER_AGENT
) -> float:
    """Optimal common-payoff value from occupancy ``s`` onward.

    One step from the horizon the inner maximization separates per anchor of
    the second agent, which keeps the search linear in the row space.
    """
    depth = model.horizon - s.t
    if model.n_agents == 2 and depth == 1:
        anchors = [_anchors(s, i) for i in range(2)]
        n_u0, n_u1 = (len(model.actions[i]) for i in range(2))
        row_idx = {a: i for i, a in enumerate(anchors[0])}
        col_idx = {a: i for i, a in enumerate(anchors[1])}
        # accumulated payoff per (row anchor, row action, col anchor, col action)
        W = np.zeros((len(anchors[0]), n_u0, len(anchors[1]), n_u1))
        for (x, o), p in s.entries.items():
            W[row_idx[o.privates[0]], :, col_idx[o.privates[1]], :] += (
                p * model.rewards[0, x].reshape(n_u0, n_u1)
            )
        best = -np.inf
        for combo in itertools.product(range(n_u0), repeat=len(anchors[0])):
            gathered = W[np.arange(len(anchors[0])), combo]  # (rows anchors, col anchors, n_u1)
            total = gathered.sum(axis=0).max(axis=1).sum()
            best = max(best, float(total))
        return best
    mats, _ = suffix_normal_form(model, s, (0,), cap_per_agent)
    return float(mats[0].max())


def stackelberg_value_from(
    model: PosgModel, s: OccupancyState, cap_per_agent: int = CAP_PER_AGENT
) -> float:
    """Strong Stackelberg leader value from occupancy ``s`` onward."""
    (L, F), _ = suffix_normal_form(model, s, (0, 1), cap_per_agent)
    value, _, _ = stackelberg_from_matrices(L, F)
    return float(value)
