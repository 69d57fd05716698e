"""Best-response and equilibrium solvers at desk scale.

Best responses come in two exchangeable routes: backward induction over the
agent's private histories carrying unnormalized measures, and dynamic
programming over private occupancy states with normalized Bayesian updates.
Equality of their values on every input is the operational form of the
sufficiency of private occupancy states.

Equilibrium solvers work on the induced normal form over reduced pure policy
trees (exact at desk scale under perfect recall): zero-sum games reduce to a
matrix game, common-payoff games to an argmax over joint pure policies, and
Stackelberg games to one incentive-constrained linear program per follower
pure policy (strong equilibrium: follower ties break in the leader's favor).
Ties everywhere break toward the lowest enumeration index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import CapExceededError, ModelValidationError
from .model import PosgModel
from .occupancy import (
    OccupancyState,
    PrivateOccupancyState,
    initial_occupancy,
    initial_private_occupancy,
    private_reward,
    private_step,
    _others_action_dists,
)
from .errors import ImpossibleObservationError
from .evaluate import evaluate_occupancy, linear_eval, value_tables
from .policies import (
    DecisionRule,
    JointPolicy,
    PolicyTree,
    PrivateHistory,
    agent_rules,
    enumerate_pure_policies,
    pure_policy_count,
    rules_from_trees,
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
    horizon = model.horizon if horizon is None else horizon
    model = model.with_horizon(horizon)
    profiles = _others_profiles(model, others, agent, horizon)
    root = initial_private_occupancy(model, agent).entries  # mass-1 measure
    value, tree, q = _history_br_from_measures(
        model, profiles, agent, {PrivateHistory(agent): dict(root)}, 0
    )
    return BestResponse(agent, value, tree[PrivateHistory(agent)], q, "history-dp")


def _history_br_from_measures(
    model: PosgModel,
    profiles: list[dict[int, DecisionRule]],
    agent: int,
    seeds: dict[PrivateHistory, dict],
    t0: int,
) -> tuple[float, dict[PrivateHistory, PolicyTree], dict]:
    """Backward induction over private histories from unnormalized seed
    measures; returns (total mass-weighted value, greedy tree per seed,
    normalized q per visited history)."""
    horizon = model.horizon
    n_u = len(model.actions[agent])
    n_z = model.n_agent_obs(agent)
    gamma = model.discount

    q_out: dict[PrivateHistory, tuple[float, ...]] = {}

    def solve_node(hist: PrivateHistory, beta: dict, t: int) -> tuple[float, PolicyTree]:
        mass = sum(beta.values())
        q_tilde = []
        best_children: list[tuple[PolicyTree, ...]] = []
        for u_i in range(n_u):
            reward = 0.0
            children_beta: dict[int, dict] = {}
            for (x, o), p in beta.items():
                for partial, a_p in _others_action_dists(
                    model, agent, profiles[t], o
                ).items():
                    us = tuple(
                        u_i if j == agent else partial[j] for j in range(model.n_agents)
                    )
                    u = model.joint_action_index(us)
                    reward += p * a_p * model.rewards[agent, x, u]
                    if t + 1 >= horizon:
                        continue
                    for x2, _, obs, dyn in model.successors(u, x):
                        key = (x2, o.child(us, obs))
                        bucket = children_beta.setdefault(obs[agent], {})
                        bucket[key] = bucket.get(key, 0.0) + p * a_p * dyn
            q_u = reward
            subtrees = []
            for z_i in range(n_z):
                child = children_beta.get(z_i)
                if t + 1 < horizon:
                    if child and sum(child.values()) > 0.0:
                        v_child, tree_child = solve_node(
                            hist.child(u_i, z_i), child, t + 1
                        )
                        q_u += gamma * v_child
                    else:
                        tree_child = _filler_tree(agent, n_z, horizon - t - 1)
                    subtrees.append(tree_child)
            q_tilde.append(q_u)
            best_children.append(tuple(subtrees))
        best = _argmax_lowest(q_tilde)
        if mass > 0.0:
            q_out[hist] = tuple(v / mass for v in q_tilde)
        tree = PolicyTree(agent, best, best_children[best] if t + 1 < horizon else ())
        return q_tilde[best], tree

    total = 0.0
    trees: dict[PrivateHistory, PolicyTree] = {}
    for hist in sorted(seeds, key=lambda h: h.steps):
        v, tree = solve_node(hist, seeds[hist], t0)
        total += v
        trees[hist] = tree
    return total, trees, q_out


def best_response_value_from(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> float:
    """History-route best-response value starting from an occupancy state."""
    profiles = _others_profiles(model, others, agent, model.horizon)
    seeds: dict[PrivateHistory, dict] = {}
    for (x, o), p in s.entries.items():
        own = o.privates[agent]
        seeds.setdefault(own, {})[(x, o)] = p
    value, _, _ = _history_br_from_measures(model, profiles, agent, seeds, s.t)
    return value


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
    n_z = model.n_agent_obs(agent)
    memo: dict = {}

    def V(s_i: PrivateOccupancyState, t: int) -> tuple[float, tuple[float, ...]]:
        if t >= horizon:
            return 0.0, ()
        key = (t, s_i.canonical_key())
        if key in memo:
            return memo[key]
        qs = []
        for u_i in range(n_u):
            q = private_reward(model, s_i, profiles[t], u_i)
            if t + 1 < horizon:
                for z_i in range(n_z):
                    try:
                        omega, nxt = private_step(model, s_i, profiles[t], u_i, z_i)
                    except ImpossibleObservationError:
                        continue
                    q += model.discount * omega * V(nxt, t + 1)[0]
            qs.append(q)
        result = (qs[_argmax_lowest(qs)], tuple(qs))
        memo[key] = result
        return result

    return V


def best_response_private(
    model: PosgModel, others, agent: int, horizon: int | None = None
) -> BestResponse:
    """Dynamic programming over the private occupancy-state MDP."""
    horizon = model.horizon if horizon is None else horizon
    model = model.with_horizon(horizon)
    profiles = _others_profiles(model, others, agent, horizon)
    n_z = model.n_agent_obs(agent)
    V = _private_dp(model, profiles, agent)

    def greedy_tree(s_i: PrivateOccupancyState, t: int) -> PolicyTree:
        _, qs = V(s_i, t)
        u_i = _argmax_lowest(qs)
        if t + 1 >= horizon:
            return PolicyTree(agent, u_i)
        children = []
        for z_i in range(n_z):
            try:
                _, nxt = private_step(model, s_i, profiles[t], u_i, z_i)
            except ImpossibleObservationError:
                children.append(_filler_tree(agent, n_z, horizon - t - 1))
                continue
            children.append(greedy_tree(nxt, t + 1))
        return PolicyTree(agent, u_i, tuple(children))

    def collect_q(
        s_i: PrivateOccupancyState, t: int, hist: PrivateHistory, q_out: dict
    ):
        value, qs = V(s_i, t)
        q_out[hist] = qs
        if t + 1 >= horizon:
            return
        u_i = _argmax_lowest(qs)
        for z_i in range(n_z):
            try:
                _, nxt = private_step(model, s_i, profiles[t], u_i, z_i)
            except ImpossibleObservationError:
                continue
            collect_q(nxt, t + 1, hist.child(u_i, z_i), q_out)

    root = initial_private_occupancy(model, agent)
    value, _ = V(root, 0)
    tree = greedy_tree(root, 0)
    q_out: dict[PrivateHistory, tuple[float, ...]] = {}
    collect_q(root, 0, PrivateHistory(agent), q_out)
    return BestResponse(agent, value, tree, q_out, "private-occupancy-dp")


def best_response_private_from(
    model: PosgModel, others, agent: int, s_i: PrivateOccupancyState, t0: int
) -> float:
    """Private-route best-response value from one private occupancy state."""
    profiles = _others_profiles(model, others, agent, model.horizon)
    return _private_dp(model, profiles, agent)(s_i, t0)[0]


# ---------------------------------------------------------------------------
# induced normal forms
# ---------------------------------------------------------------------------


def _check_joint_cap(count: int, cap: int):
    if count > cap:
        raise CapExceededError("joint enumeration", count, cap)


def induced_normal_form(
    model: PosgModel,
    horizon: int,
    agents_of_interest: Sequence[int],
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> tuple[list[np.ndarray], list[list[PolicyTree]]]:
    """Payoff matrices over reduced pure policy pairs (two-agent models)."""
    if model.n_agents != 2:
        raise ModelValidationError("normal-form construction expects 2 agents")
    spaces = [
        enumerate_pure_policies(model, i, horizon, cap_per_agent) for i in range(2)
    ]
    _check_joint_cap(len(spaces[0]) * len(spaces[1]), cap_joint)
    s0 = initial_occupancy(model)
    mats = [np.zeros((len(spaces[0]), len(spaces[1]))) for _ in agents_of_interest]
    for j, row_tree in enumerate(spaces[0]):
        for k, col_tree in enumerate(spaces[1]):
            joint = JointPolicy((row_tree, col_tree))
            for a_pos, agent in enumerate(agents_of_interest):
                mats[a_pos][j, k] = evaluate_occupancy(model, joint, s0, agent)
    return mats, spaces


def solve_zero_sum(
    model: PosgModel,
    horizon: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> Equilibrium:
    """Saddle value and optimal mixtures of a zero-sum game at the start
    belief, on the induced normal form over pure policies."""
    horizon = model.horizon if horizon is None else horizon
    m = model.with_horizon(horizon)
    if m.criterion != "zerosum":
        raise ModelValidationError(f"solve_zero_sum needs a zerosum model, got {m.criterion}")
    (A,), spaces = induced_normal_form(m, horizon, [0], cap_per_agent, cap_joint)
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
    tuple."""
    horizon = model.horizon if horizon is None else horizon
    m = model.with_horizon(horizon)
    if m.criterion != "common":
        raise ModelValidationError(f"solve_dec needs a common-payoff model, got {m.criterion}")
    spaces = [
        enumerate_pure_policies(m, i, horizon, cap_per_agent)
        for i in range(m.n_agents)
    ]
    total = 1
    for space in spaces:
        total *= len(space)
    _check_joint_cap(total, cap_joint)
    s0 = initial_occupancy(m)
    best_value = -np.inf
    best_combo: tuple[int, ...] | None = None
    for combo in itertools.product(*(range(len(space)) for space in spaces)):
        joint = JointPolicy(tuple(spaces[i][c] for i, c in enumerate(combo)))
        v = evaluate_occupancy(m, joint, s0, 0)
        if v > best_value:
            best_value, best_combo = v, combo
    assert best_combo is not None
    mixtures = tuple({c: 1.0} for c in best_combo)
    policies = tuple({c: spaces[i][c]} for i, c in enumerate(best_combo))
    return Equilibrium(
        criterion="common",
        values=(float(best_value),) * m.n_agents,
        mixtures=mixtures,
        policies=policies,
        metadata={"method": "normal-form-argmax", "joint_policies": total},
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
    horizon = model.horizon if horizon is None else horizon
    m = model.with_horizon(horizon)
    if m.criterion != "stackelberg":
        raise ModelValidationError(
            f"solve_stackelberg needs a stackelberg model, got {m.criterion}"
        )
    (L, F), spaces = induced_normal_form(m, horizon, [0, 1], cap_per_agent, cap_joint)
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
    count = pure_policy_count(
        len(model.actions[agent]), model.n_agent_obs(agent), depth
    ) ** len(anchors)
    if count > cap:
        raise CapExceededError("anchored policy enumeration", count, cap)
    out = []
    for combo in itertools.product(range(len(trees)), repeat=len(anchors)):
        out.append({anchor: trees[i] for anchor, i in zip(anchors, combo)})
    return out


def _suffix_payoffs_fast(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    row_space: list[dict],
    col_space: list[dict],
    row_anchors: list[PrivateHistory],
    col_anchors: list[PrivateHistory],
) -> list[np.ndarray]:
    """One-step-left payoff matrices by direct gathering (t = horizon - 1)."""
    n_u0 = len(model.actions[0])
    n_u1 = len(model.actions[1])
    row_idx = {a: i for i, a in enumerate(row_anchors)}
    col_idx = {a: i for i, a in enumerate(col_anchors)}
    J = np.array(
        [[assign[a].action for a in row_anchors] for assign in row_space], dtype=int
    )
    K = np.array(
        [[assign[a].action for a in col_anchors] for assign in col_space], dtype=int
    )
    mats = [np.zeros((len(row_space), len(col_space))) for _ in agents_of_interest]
    for (x, o), p in s.entries.items():
        a0 = row_idx[o.privates[0]]
        a1 = col_idx[o.privates[1]]
        for pos, agent in enumerate(agents_of_interest):
            G = p * model.rewards[agent, x].reshape(n_u0, n_u1)
            mats[pos] += G[np.ix_(J[:, a0], K[:, a1])]
    return mats


def suffix_normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int] = (0,),
    cap_per_agent: int = CAP_PER_AGENT,
    cap_joint: int = CAP_JOINT,
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff matrices over anchored pure policy suffixes from occupancy ``s``.

    Rows belong to agent 1, columns to agent 2 (two-agent models only).
    """
    if model.n_agents != 2:
        raise ModelValidationError("suffix normal form expects 2 agents")
    t, depth = s.t, model.horizon - s.t
    if depth < 1:
        raise ValueError("occupancy state is already at the horizon")
    anchors = [_anchors(s, i) for i in range(2)]
    spaces = [
        _anchored_space(model, i, anchors[i], depth, cap_per_agent) for i in range(2)
    ]
    _check_joint_cap(len(spaces[0]) * len(spaces[1]), cap_joint)
    if depth == 1:
        mats = _suffix_payoffs_fast(
            model, s, agents_of_interest, spaces[0], spaces[1], anchors[0], anchors[1]
        )
        return mats, spaces
    mats = [np.zeros((len(spaces[0]), len(spaces[1]))) for _ in agents_of_interest]
    seeds = sorted({o for (_, o) in s.entries}, key=lambda o: o.sort_key())
    for j, row_assign in enumerate(spaces[0]):
        row_rules = rules_from_trees(model, 0, row_assign, t)
        for k, col_assign in enumerate(spaces[1]):
            col_rules = rules_from_trees(model, 1, col_assign, t)
            rules_by_step = [[]] * t + [
                (row_rules[d], col_rules[d]) for d in range(depth)
            ]
            for pos, agent in enumerate(agents_of_interest):
                tables = value_tables(model, rules_by_step, agent, t, seeds)
                mats[pos][j, k] = linear_eval(s, tables[0])
    return mats, spaces


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
