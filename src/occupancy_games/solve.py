"""Best-response and equilibrium solvers at desk scale.

Best responses come in two exchangeable routes: backward induction over the
agent's private histories carrying unnormalized measures (exact
evaluation's walk, ``evaluate._push``, the agent's actions kept as
sequences, then one reverse fold over its histories, whose trie
``best_response_history`` decodes once), and dynamic programming over
private occupancy states with normalized Bayesian updates (states pushed in
batches of consecutive own histories, depth first, each state once with all
its own actions, each normalized on its own and backed up as ``γ·ω·V``).
Both read the others' rules as ``occupancy.RuleRows``, built once at the
root.
Both break ties toward the lowest action whose value ties with the best.
Equality of their values on every input is the operational form of the
sufficiency of private occupancy states.

Every equilibrium solver starts from one forward walk below an occupancy state
(the initial one for the start-belief solvers) that builds a sequence-form
payoff tensor over the agents' sequences: one per own action at each
information set, i.e. private history below an anchor of the state (exact
under perfect recall).  Zero-sum games, from the start belief or any
occupancy state, solve by one loop: the sequence-form double oracle
(Bošanský, Kiekintveld, Lisý & Pěchouček 2014) over the realization-plan
linear program (Koller, Megiddo & von Stengel 1996), in sequence form
throughout.  Each agent's set of sequences is its whole trie or a union of
pure plans; restricted sets and the opponents' mixtures are ``RuleRows`` of
action weights (``_plan_rows``), one row per information set.  Every step
is the same walk under those weights, the
LP, or a best reply: the private occupancy-state DP above from the state's
level, one root per anchor, against the other's rows; trees are decoded
only for the returned mixtures.  It stops when the full LP's certificate
closes.  Where the whole tries' walk counts no more than four walks of the
seed pair, both sets start whole and the loop is the full LP, done in one
iteration; a game where each agent then has a single information set is
the matrix game itself and keeps its closed forms.  Where a solver cannot
certify its result within the tolerance it raises ``CertificateError``.
Common-payoff and Stackelberg games enumerate pure plans (a reduced policy
tree per anchor, each plan an index whose base-``n_u`` digits are its
actions) for all agents but one and keep that agent in sequence form: the
last agent of a common-payoff game best-responds to each enumerated profile by
one reverse max over its information sets; a Stackelberg leader's realization
plan is the variable of one linear program per follower pure plan, tried in
descending order of what the leader could get against it (Conitzer & Sandholm
2006; strong equilibrium: follower ties break in the leader's favor), with the
follower's optimality written by LP duality as one value per follower
information set (Bošanský & Čermák 2015).  The saddle point and the strong
Stackelberg equilibrium below an occupancy state are one record,
``SequenceFormSolution``: a realization plan and a value per agent, the
follower's plan the 0/1 realization of its pure plan.  ``_equilibrium``
decodes every start-belief solver's mixtures of plan indices to trees.
Ties everywhere break toward the lowest action or enumeration index, within
one window written once, ``_tie_floor``: a value ties with the best value
``top`` when it is at least ``top - 1e-12 * max(1, |top|)``, relative to the
payoffs' scale above 1.

``_walk`` is the one set-up of that walk (behind ``_normal_form``, and
called directly by the zero-sum loop, which counts its own walks), and it
starts from the state's level (``occupancy.level_of``), never from its
entries: a level numbers each agent's histories in steps order, so its ids
are the anchor numbers, and below it sets are numbered as they are reached.
Every walk (this one and both best responses') keeps each agent's sets as
one trie of two integer arrays, ``(parents, obs)``: set ``c``'s parent
sequence, -1 at an anchor, and the own observation that reached it;
``E x = e``, the folds and the plan decoders read nothing else.
``cap_bytes`` is one budget for every criterion, checked before each walk.
Where some agent is enumerated (common payoff and Stackelberg) it bounds the
dense arrays the walk and the enumeration would build, predicted from the
agents' full tries (not the LP matrices, so not peak memory); in the
zero-sum loop it bounds each pair's walk (``_restricted_bytes``), at or
above its ``tracemalloc`` peak on every model measured.  The loop's best
replies are not counted: the private DP pushes in batches of at most
``PRIVATE_BATCH_ROWS`` rows.  The normal forms and the values from mid-game
states keep the default ``CAP_BYTES``.
Every solver reads the model's own horizon; ``PosgModel.with_horizon`` sets
another.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CAP_BYTES,
    WALK_FIXED_BYTES,
    CapExceededError,
    CertificateError,
    ModelValidationError,
)
from .evaluate import _push
from .model import PosgModel
from .occupancy import (
    Level,
    OccupancyState,
    PrivateOccupancyState,
    RuleRows,
    action_probs,
    initial_occupancy,
    initial_private_occupancy,
    level_of,
    next_level,
    normalized_groups,
    own_rewards,
    rule_table,
    sub_level,
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
# the most rows (entry, joint action, outcome) one batch of the private DP
# pushes at once, or, at the last step, (entry, joint action) pairs it
# prices, unless one state alone has more: tiger h=5's private best response
# peaks at about 52 MB of RSS under it, 65 MB under 2**18, 42 MB with one
# state per batch and 1.1 GB with each step's states in one batch
PRIVATE_BATCH_ROWS = 2**17


# the options ``scipy.optimize.linprog(method="highs")`` sets: no output,
# presolve on, dual simplex (1), no debugging (0)
HIGHS_OPTIONS = (
    ("output_flag", False), ("log_to_console", False), ("presolve", "on"),
    ("simplex_strategy", 1), ("highs_debug_level", 0),
)
# the slack ``scipy.optimize.linprog`` allows a solution's bounds: 10·√(1e-9)
LP_FEASIBILITY_SLACK = 10 * math.sqrt(1e-9)


class LpResult(NamedTuple):
    """An LP's outcome: on success the solution ``x``, one dual per row and
    the objective value; otherwise None, None and NaN, and ``message``
    names HiGHS's model status."""

    success: bool
    message: str
    x: np.ndarray | None
    duals: np.ndarray | None
    value: float


class Csc(NamedTuple):
    """An LP's rows in numpy arrays laid out as ``scipy.sparse`` lays out
    CSC: column ``j`` holds ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``, increasing.  Its own type, so a
    ``Csr`` matrix, whose fields read the same, is never taken for it."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def linprog(c, A, row_lo, row_hi, col_lo, col_hi) -> LpResult:
    """min c^T x  s.t.  row_lo <= A x <= row_hi,  col_lo <= x <= col_hi, by
    HiGHS through the bindings scipy ships (``scipy.optimize._highspy``).
    Their extension module is loaded on first use from its file, without
    its packages: importing ``scipy.optimize`` costs more than the
    package's own import, and many commands never solve an LP.  It is
    registered in ``sys.modules`` under its own name, so a later import of
    ``scipy.optimize`` uses this module (the package ``_highspy`` then does
    not hold it as an attribute; imports of it by name still find it).
    Where the file is not found the package import loads it.  ``A`` is a
    ``Csc`` matrix (``_sequence_form_rows``); an infinite bound is ``±np.inf``.

    The options and the check after the solve are
    ``scipy.optimize.linprog``'s: success is an optimal model status with
    ``x`` and every row activity within ``LP_FEASIBILITY_SLACK`` of their
    bounds, NaN failing.  Given the same rows (the inequalities first), each
    result is linprog's bit for bit, without its wrapper's cost."""
    name = "scipy.optimize._highspy._core"
    highs = sys.modules.get(name)
    if highs is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "optimize", "_highspy") for d in scipy.submodule_search_locations]
        )
        if spec is None:
            from scipy.optimize._highspy import _core as highs
        else:
            highs = sys.modules[name] = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(highs)
            except BaseException:
                del sys.modules[name]
                raise
    if not isinstance(A, Csc):
        raise TypeError(f"linprog takes a Csc matrix, not {type(A).__name__}")
    start, index, value, shape = A
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, col_lo, col_hi
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    solver = highs._Highs()
    for option, setting in HIGHS_OPTIONS:
        solver.setOptionValue(option, setting)
    status = highs.HighsModelStatus.kModelError
    if solver.passModel(lp) != highs.HighsStatus.kError:
        solver.run()
        status = solver.getModelStatus()
    message = f"HiGHS model status: {solver.modelStatusToString(status)}"
    if status != highs.HighsModelStatus.kOptimal:
        return LpResult(False, message, None, None, math.nan)
    solution = solver.getSolution()
    x, activity = np.array(solution.col_value), np.array(solution.row_value)
    value, slack = solver.getInfo().objective_function_value, LP_FEASIBILITY_SLACK
    if not (
        np.all((x >= col_lo - slack) & (x <= col_hi + slack))
        and np.all((activity >= row_lo - slack) & (activity <= row_hi + slack))
        and not math.isnan(value)
    ):
        return LpResult(False, f"{message}, but outside its bounds", None, None, math.nan)
    return LpResult(True, message, x, np.array(solution.row_dual), value)


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


def _certificate_bound(tolerance: float, payoffs: np.ndarray) -> float:
    """The largest certificate (duality gap, gap plus exploitability, regret) a
    solver accepts: ``max(tolerance, 1e-7) · max(1, max |payoffs|)``."""
    return max(tolerance, 1e-7) * max(1.0, float(np.abs(payoffs).max(initial=0.0)))


def matrix_game_value(payoffs, tolerance: float = DEFAULT_TOLERANCE) -> MatrixGameSolution:
    """Minimax value and eps-optimal mixtures of the zero-sum matrix game
    ``payoffs`` for the row maximizer.

    Degenerate shapes and 2x2 games use closed forms; anything larger goes to
    the realization-plan LP with one information set per player, with the
    duality gap checked against the tolerance.  A copy of a row or column
    changes no value, so the LP sees each distinct one once and its weight
    goes to its first copy.
    """
    A = np.asarray(payoffs, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("payoff matrix must be a nonempty 2-d array")
    if not np.isfinite(A).all():
        raise ValueError("payoff entries must be finite")
    m, n = A.shape
    if m == 1 or n == 1:  # the player with a choice picks its best action
        j = int(np.argmax(A[:, 0])) if n == 1 else 0
        k = int(np.argmin(A[0])) if m == 1 else 0
        return MatrixGameSolution(float(A[j, k]), np.eye(m)[j], np.eye(n)[k], "closed-form")
    if m == 2 and n == 2:
        return _solve_2x2(A)
    rows, cols = _first_copies(A), _first_copies(A.T)
    one_set = np.full(1, -1, dtype=np.intp)
    value, x, y, gap = _realization_plan_lp(
        _block_diagonal([A[np.ix_(rows, cols)]]), (one_set, one_set), (len(rows), len(cols))
    )
    if gap > _certificate_bound(tolerance, A):
        raise CertificateError(f"matrix game duality gap {gap:.3g} exceeds tolerance")
    row, col = np.zeros(m), np.zeros(n)
    row[rows], col[cols] = x, y
    return MatrixGameSolution(value, row, col, "lp", gap)


def _first_copies(M: np.ndarray) -> np.ndarray:
    """Increasing index of the first copy of each distinct row of ``M``."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(M):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp)


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


def _tie_floor(top: float) -> float:
    """The least value that ties with the best value ``top``: the one tie
    window, ``1e-12 * max(1, |top|)``, of every solver's pick, so that a
    pick does not depend on the order the values were summed in."""
    return top - 1e-12 * max(1.0, abs(top))


def _argmax_lowest(values: Sequence[float]) -> int:
    """The lowest index whose value ties with the maximum (``_tie_floor``)."""
    values = np.asarray(values)
    return int(np.flatnonzero(values >= _tie_floor(values.max()))[0])


def best_response_history(model: PosgModel, others, agent: int) -> BestResponse:
    """Bellman optimality over the agent's private histories.

    Carries unnormalized conditional measures forward, so no per-branch
    renormalization is ever needed; reported q-values are normalized by each
    history's probability.  The q-table's histories and the greedy tree are
    decoded once, from the walk's trie.
    """
    value, v, mass, (parents, obs) = _history_br(model, others, agent, initial_occupancy(model))
    n_u = len(model.actions[agent])
    own = [PrivateHistory(agent)]
    for p, z in zip(parents[1:].tolist(), obs[1:].tolist()):  # a parent comes first
        own.append(own[p // n_u].child(p % n_u, z))
    q = {h: tuple((v[j] / mass[j]).tolist()) for j, h in enumerate(own) if mass[j] > 0.0}
    index = _pure_tree(model, agent, _children(parents, obs), lambda j: _argmax_lowest(v[j]))[0]
    return BestResponse(agent, value, _tree(model, agent, index, model.horizon), q, "history-dp")


def _history_br(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> tuple[float, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Backward induction over private histories from the unnormalized
    measure ``s`` puts on each of the agent's histories; returns the total
    mass-weighted value, and per set of the agent's trie (its histories, the
    anchors of ``s`` first, then level by level in id order) its
    mass-weighted q per own action, its mass, and the trie ``(parents,
    obs)``.

    The walk is exact evaluation's (``evaluate._push``), the agent's rule
    None, so its actions stay sequences, and its bytes are counted against
    ``CAP_BYTES``.  Each level's mass is carried forward over the push's
    rows and the kept reward terms summed per own sequence; one reverse fold
    over the agent's sets (``_trie_fold``) then adds each set's best
    discounted continuation to its parent sequence."""
    profiles = _others_profiles(model, others, agent)
    rules = [tuple(map(profile.get, range(model.n_agents))) for profile in profiles]
    n_u = len(model.actions[agent])
    level, hists = level_of(model, s)
    levels, pulls, codes = _push(model, rules, agent, s.t, level, hists, False, True)[:3]
    shape = [len(labels) for labels in model.actions]
    own = np.unravel_index(np.arange(model.n_joint_actions), shape)[agent]  # per joint action
    trie = ([-1] * level.n_sets[agent], [-1] * level.n_sets[agent])
    mass, g, masses = level.mass, [], []
    for d, (at, terms) in enumerate(levels):
        if d:  # the parents' sets are the last added
            entry, child, weight = pulls[d - 1]
            mass = np.bincount(child, mass[entry] * weight, len(at.xs))
            first = len(trie[0]) - levels[d - 1][0].n_sets[agent]
            _extend_trie(trie, model, agent, codes[d - 1][agent], first)
        seq = at.ids[agent][:, None] * n_u + own
        g.append(np.bincount(seq.ravel(), (mass[:, None] * terms).ravel(), at.n_sets[agent] * n_u))
        masses.append(np.bincount(at.ids[agent], mass, at.n_sets[agent]))
    parents, obs = map(np.array, trie)
    v = _trie_fold(np.concatenate(g), parents, n_u, np.max, model.discount)
    total = float(sum(v[parents < 0].max(axis=1).tolist()))
    return total, v, np.concatenate(masses), (parents, obs)


def best_response_value_from(
    model: PosgModel, others, agent: int, s: OccupancyState
) -> float:
    """History-route best-response value starting from an occupancy state."""
    return _history_br(model, others, agent, s)[0]


def _private_from(model: PosgModel, profiles: list, agent: int, s_i: PrivateOccupancyState):
    """``_private_best`` below ``s_i``, from its step, the others' rules
    turned into rows once (``rule_table``)."""
    level, hists = level_of(model, s_i)
    others = [
        None if j == agent
        else rule_table(model, j, [rules[j] for rules in profiles[s_i.t:]], hs)
        for j, hs in enumerate(hists)
    ]
    return _private_best(model, agent, level, others, s_i.t)


def _private_dp(
    model: PosgModel,
    profiles: list[dict[int, DecisionRule]],
    agent: int,
    s_i: PrivateOccupancyState,
) -> tuple[float, PolicyTree, dict[PrivateHistory, tuple[float, ...]]]:
    """Bellman optimality over private occupancy states below ``s_i``, from
    its step (``_private_from``): its value, its greedy tree, and the q per
    own action on every history that tree reaches, the only own histories
    built."""
    value, index, played, q, (parents, obs) = _private_from(model, profiles, agent, s_i)
    n_u = len(model.actions[agent])
    own = {0: s_i.anchor}
    for j in (np.array(played[1:], dtype=np.intp) // n_u).tolist():
        p = int(parents[j])  # played in preorder: a parent comes first
        own[j] = own[p // n_u].child(p % n_u, int(obs[j]))
    table = {h: tuple(q[j].tolist()) for j, h in own.items()}
    return value, _tree(model, agent, index, model.horizon - s_i.t), table


def _private_best(
    model: PosgModel,
    agent: int,
    level: Level,
    others: Sequence[RuleRows | None],
    t: int,
) -> tuple[float, int, list[int], np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The agent's best response at step ``t`` by the batched private DP
    (``_private_batch``), one root state per own history ``a`` of ``level``
    at its mass, each other agent ``j`` playing by its rows ``others[j]``,
    row ``a`` at its history ``a``.  Returns the roots' best q summed, the
    greedy plan's index (one tree per root, ``_pure_tree``) and sequences,
    the q per state and the trie of the states, roots first: each state's
    parent sequence (-1 at a root) and own observation."""
    n = level.n_sets[agent]
    batches: list[tuple[int, np.ndarray]] = []
    trie = ([-1] * n, [-1] * n)  # each state's parent sequence and own observation
    rows = tuple(None if o is None else np.arange(k) for o, k in zip(others, level.n_sets))
    _private_batch(model, agent, level, rows, others, t, 0, batches, trie)
    batches.sort(key=lambda batch: batch[0])
    q = np.concatenate([qs for _, qs in batches]).reshape(-1, len(model.actions[agent]))
    parents, obs = map(np.array, trie)
    index, played = _pure_tree(
        model, agent, _children(parents, obs), lambda j: _argmax_lowest(q[j]), range(n),
        model.horizon - t,
    )
    return float(q[:n].max(axis=1).sum()), index, played, q, (parents, obs)


def _private_batch(
    model: PosgModel,
    agent: int,
    level: Level,
    rows: tuple[np.ndarray | None, ...],
    others: Sequence[RuleRows | None],
    t: int,
    first: int,
    batches: list,
    trie: tuple[list[int], list[int]],
) -> np.ndarray:
    """The values at step ``t`` of a batch of private occupancy states: one
    per own history of ``level`` (numbered from ``first``), whose entries
    are those states' entries, each state normalized on its own; ``rows[j]``
    is other agent ``j``'s depth-0 row of ``others[j]`` per history id.

    One push weighs every own action 1, the others acting by those rows;
    each own action's reward is its rows' sum
    per state (``own_rewards``), and the children are grouped by the agent's
    own history, one child state per (state, own action, own observation)
    reached, each normalized on its own with its probability ``ω``
    (``normalized_groups``).  The children go on in batches of consecutive
    states (at least one each) that hold at most ``PRIVATE_BATCH_ROWS``
    rows: the rows their own push holds or, at the last step, which pushes
    nothing, their (entry, joint action) pairs.  Each q then adds ``γ·ω·V``
    of its children in increasing own observation.  Appends ``(first, flat
    q)`` to ``batches`` and the children to ``trie`` (``_extend_trie``),
    numbered in order, and returns each state's best q."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    n = level.n_sets[agent]
    probs = [None if o is None else o.rows[0][r] for o, r in zip(others, rows)]
    a = action_probs(model, level, probs)
    q = own_rewards(model, level, a, agent)
    batches.append((first, q))
    if t + 1 == model.horizon:
        return q.reshape(n, n_u).max(axis=1)
    pushed = next_level(model, level, a)
    del a  # the children are solved depth first: hold no more than needed
    codes, reached = pushed.reached, pushed.reached[agent]
    base = len(trie[0])  # the first child's number
    _extend_trie(trie, model, agent, reached, first)
    omega, keep, p, ends = normalized_groups(pushed, pushed.level.ids[agent], len(reached))
    level = pushed.level
    del pushed
    below = [None if o is None else o.below() for o in others]
    # child states lo..hi-1 hold entries ends[lo]:ends[hi] and cost
    # cost[hi] - cost[lo]: the rows they push or, at the last step, which
    # pushes nothing, their (entry, joint action) pairs
    if t + 2 == model.horizon:
        cost = ends * model.n_joint_actions
    else:
        counts = np.diff(model._successor_arrays.begin)[level.xs[keep]]
        cost = np.concatenate([[0], np.cumsum(counts)])[ends]
    v = np.empty(len(reached))
    lo = 0
    while lo < len(reached):
        hi = int(np.searchsorted(cost, cost[lo] + PRIVATE_BATCH_ROWS, side="right")) - 1
        hi = max(lo + 1, hi)
        entries = slice(ends[lo], ends[hi])
        sub, used = sub_level(level, keep[entries], p[entries])
        kids = tuple(
            None if o is None else o.child_rows(model, j, r, c[u])
            for j, (o, r, c, u) in enumerate(zip(others, rows, codes, used))
        )
        v[lo:hi] = _private_batch(model, agent, sub, kids, below, t + 1, base + lo, batches, trie)
        lo = hi
    for z in range(n_z):  # increasing own observation within each (state, action)
        at = reached % n_z == z
        q[reached[at] // n_z] += model.discount * omega[at] * v[at]
    return q.reshape(n, n_u).max(axis=1)


def best_response_private(model: PosgModel, others, agent: int) -> BestResponse:
    """Dynamic programming over the private occupancy-state MDP from the
    start, with the greedy tree and its q-table."""
    profiles = _others_profiles(model, others, agent)
    root = initial_private_occupancy(model, agent)
    value, tree, q = _private_dp(model, profiles, agent, root)
    return BestResponse(agent, value, tree, q, "private-occupancy-dp")


def best_response_private_from(
    model: PosgModel, others, agent: int, s_i: PrivateOccupancyState
) -> float:
    """Private-route best-response value from one private occupancy state,
    from its step on; no history or tree is decoded."""
    return _private_from(model, _others_profiles(model, others, agent), agent, s_i)[0]


# ---------------------------------------------------------------------------
# the occupancy-rooted normal form
# ---------------------------------------------------------------------------


def _anchored_space(
    model: PosgModel, agent: int, anchors: Sequence[PrivateHistory], depth: int
) -> list[dict[PrivateHistory, PolicyTree]]:
    """Pure policy suffixes as trees, one depth-``depth`` tree per anchor, in
    plan index order; for the tree-space normal forms, never on the solver
    path.  Callers bound their count, ``_trie_size``, before enumerating."""
    plans = _trie_size(model, agent, len(anchors), depth)[1]
    trees = enumerate_pure_policies(model, agent, depth, cap=plans)
    combos = itertools.product(trees, repeat=len(anchors))
    return [dict(zip(anchors, combo)) for combo in combos]


def _sequence_payoffs(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    weights: Sequence[RuleRows | None] | None = None,
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]], list | None]:
    """Sequence-form payoff tensor below occupancy ``s``, one block per depth,
    and each agent's trie.

    One forward walk, level by level, pushes the mass of ``s`` through
    (state, per-agent information set) pairs, every joint action and outcome
    of a level at once, starting from the level of ``s`` (``level_of``).
    Agent ``i``'s sets are numbered level by level: set ``a`` is its anchor
    ``a`` (history ``a`` of the level of ``s``), then each level's reached
    sets follow in (parent set, own action, own observation) order.  Its
    trie is the pair ``(parents, obs)``: set ``c``'s parent sequence
    (-1 at an anchor) and the own observation that reached it (-1 at an
    anchor).  Sets the walk never reaches get no number.
    Sequence ``j * n_u + u`` is action ``u`` at set ``j``, so the sequences
    of one depth are contiguous, and a sequence pairs only with the others'
    sequences of its depth: ``blocks[d]`` has one axis per agent over its
    depth-``d`` sequences and a last axis over ``agents_of_interest``, the
    discounted reward at those joint sequences weighted by the probability
    of the outcomes along them.  The full tensor is block diagonal in them.

    With ``weights``, agent ``i`` plays the rows of ``weights[i]``
    (``_plan_rows``; one row per set the walk reaches, anchor ``a`` at row
    ``a``) as ``next_level``'s action probabilities, so only weighted
    actions are pushed, and the third item is each agent's weight per
    sequence (None without ``weights``).  An agent whose weights are None
    plays each action with weight 1, as every agent does without ``weights``.
    """
    n_us = tuple(len(labels) for labels in model.actions)
    # rewards[x, u_0, ..., u_{n-1}, k] for the k-th agent of interest
    rewards = np.moveaxis(model.rewards[list(agents_of_interest)], 0, -1)
    rewards = rewards.reshape((model.n_states,) + n_us + (-1,))
    level = level_of(model, s)[0]
    tries = [([-1] * n, [-1] * n) for n in level.n_sets]  # each set's parent sequence and own obs
    rows = [np.arange(n) for n in level.n_sets]  # each set's row of its agent's weights
    played: list[list[np.ndarray]] = [[] for _ in level.n_sets]  # weights by set, per level
    blocks, a = [], None
    for d in range(model.horizon - s.t):
        if weights is not None:
            for i, (r, w, n) in enumerate(zip(rows, weights, level.n_sets)):
                played[i].append(np.ones((n, n_us[i])) if w is None else w.rows[0][r])
            a = action_probs(model, level, [p[-1] for p in played])
        blocks.append(_payoff_block(level, rewards))
        if d + 1 == model.horizon - s.t:
            break
        n_parents = level.n_sets  # the last sets of each trie so far
        level, reached = next_level(model, level._replace(mass=level.mass * model.discount), a)[:2]
        for i, (codes, n) in enumerate(zip(reached, n_parents)):
            _extend_trie(tries[i], model, i, codes, len(tries[i][0]) - n)
        if weights is not None:
            rows = [
                None if w is None else w.child_rows(model, i, r, c)
                for i, (w, r, c) in enumerate(zip(weights, rows, reached))
            ]
            weights = [None if w is None else w.below() for w in weights]
    tries = [tuple(map(np.array, rows)) for rows in tries]
    if weights is None:
        return blocks, tries, None
    return blocks, tries, [np.concatenate(p, axis=None) for p in played]


def _extend_trie(
    trie: tuple[list[int], list[int]], model: PosgModel, agent: int, codes: np.ndarray, first: int
) -> None:
    """Append to the trie ``(parents, obs)`` the sets a push reached, from
    their child codes ``(parent id * n_u + u) * n_z + z`` (``next_level``'s
    ``reached``), the parent sets numbered from ``first``: parent sequence
    ``(first + parent id) * n_u + u`` and own observation ``z``."""
    seq, z = np.divmod(codes, model.n_agent_obs(agent))
    trie[0].extend((seq + first * len(model.actions[agent])).tolist())
    trie[1].extend(z.tolist())


def _children(parents: np.ndarray, obs: np.ndarray) -> dict[tuple[int, int], int]:
    """Each set of a trie below an anchor, keyed by its parent sequence and
    the own observation that reached it: how ``_pure_tree`` walks down."""
    keys = zip(parents.tolist(), obs.tolist())
    return {key: c for c, key in enumerate(keys) if key[0] >= 0}


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


def _plan_realization(
    model: PosgModel, agent: int, trie: tuple[np.ndarray, np.ndarray], depth: int
) -> np.ndarray:
    """0/1 matrix over (pure plan, sequence of ``_sequence_payoffs``): 1 where
    the plan plays every action along the sequence.

    Plan ``k`` plays the base-``n_u`` digits of ``k``, most significant first,
    in preorder over each anchor's full depth-``depth`` trie, anchor 0 first
    (the order of ``_anchored_space``).  Sequence ``(c, u)``'s column is
    (``k``'s digit at set ``c``'s trie position is ``u``) times its parent
    sequence's column.  A reached set sits 1 + ``z`` subtries below its
    parent set's position, ``z`` its own observation."""
    n_u = len(model.actions[agent])
    parents, obs = trie
    n_anchors = int(np.count_nonzero(parents < 0))
    nodes = [sum(model.n_agent_obs(agent) ** e for e in range(d)) for d in range(depth + 1)]
    n_digits = n_anchors * nodes[depth]
    pos = [a * nodes[depth] for a in range(n_anchors)]
    levels = [depth] * n_anchors  # levels of each set's subtrie, itself included
    for seq, z in zip(parents[n_anchors:].tolist(), obs[n_anchors:].tolist()):
        j = seq // n_u
        pos.append(pos[j] + 1 + z * nodes[levels[j] - 1])
        levels.append(levels[j] - 1)
    plans = np.arange(n_u**n_digits)
    plays = np.empty((len(pos) * n_u, len(plans)), dtype=bool)  # (sequence, plan)
    for c, (p, a) in enumerate(zip(pos, parents.tolist())):
        seqs = slice(c * n_u, (c + 1) * n_u)
        plays[seqs] = plans // n_u ** (n_digits - 1 - p) % n_u == np.arange(n_u)[:, None]
        if a >= 0:
            plays[seqs] &= plays[a]
    return np.ascontiguousarray(plays.T, dtype=float)


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
    interest.  Plans are indices, not objects; the LP matrices and
    intermediate copies are not counted: peak memory runs 1.6-3.2 times this
    at the bundled frontier."""
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


def _restricted_bytes(
    model: PosgModel,
    n_anchors: Sequence[int],
    depth: int,
    sets: Sequence[Sequence[int] | None],
) -> int:
    """The most a zero-sum walk ``depth`` steps below ``n_anchors`` anchors
    per agent holds at once, in bytes, from each agent's information sets
    per depth: ``sets[i][d]`` of them, or its whole trie's where ``sets[i]``
    is None.
    A depth of ``n`` joint sets has at most ``n_states * n`` entries and
    ``n * prod(n_u)`` payoff cells.  The walk holds the blocks above, three
    arrays over the cells and, per entry, the level's four arrays, its
    joint-action probabilities and, above the last depth, six arrays over
    its push's rows (one per nonzero dynamics cell of the entry's state);
    building the sparse ``G`` holds six items per cell.  ``WALK_FIXED_BYTES``
    is added for the rest."""
    n_us = [len(labels) for labels in model.actions]
    rows = int(np.diff(model._successor_arrays.begin).max())
    per_depth = [
        [k // n_u for k in _trie_size(model, i, n_anchors[i], depth)[0]] if n is None else n
        for i, (n_u, n) in enumerate(zip(n_us, sets))
    ]
    joint = [math.prod(n[d] for n in per_depth) for d in range(depth)]
    cells = [n * math.prod(n_us) for n in joint]
    peak = max(
        (
            sum(cells[:d]) + 3 * cells[d]
            + model.n_states * n * (model.n_joint_actions + 4 + 6 * rows * (d + 1 < depth))
            for d, n in enumerate(joint)
        ),
        default=0,  # no depth below the horizon: ``_walk`` refuses the walk
    )
    return 8 * max(peak, 6 * sum(cells)) + WALK_FIXED_BYTES


def _normal_form(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    cap_bytes: int,
    keep: Sequence[int] = (),
    uncontracted: Sequence[int] = (),
) -> tuple[list, list[np.ndarray | None], list[tuple[np.ndarray, np.ndarray]]]:
    """Payoff tensors below occupancy ``s``, one per agent of interest and one
    axis per agent, with each agent's realization matrix and its trie
    ``(parents, obs)`` of ``_sequence_payoffs``.

    Under perfect recall a pure profile's payoff is multilinear in the
    agents' 0/1 sequence realizations, so every tensor is the sequence-form
    payoff contracted with each agent's realization matrix (for two agents,
    ``R_0 @ G @ R_1.T``, ``_plan_realization``), taken one depth block at a
    time.  The agents in ``keep`` are left uncontracted: their axes stay over
    their sequences and their matrices are ``None``.  When both agents of a
    two-agent game are kept, each tensor is the block-diagonal ``G`` itself,
    as a ``Csr`` matrix.  The payoffs of the agents in
    ``uncontracted`` follow, each its own block-diagonal ``G`` over the two
    agents' sequences, also as a ``Csr`` matrix.

    ``_predicted_bytes`` must stay within ``cap_bytes``, checked before the
    walk and any enumeration.  The zero-sum loop counts its own walks
    (``_restricted_bytes``) and calls ``_walk`` directly.
    """
    depth = model.horizon - s.t
    n_bytes = _predicted_bytes(
        model, level_of(model, s)[0].n_sets, depth, keep, len(agents_of_interest), len(uncontracted)
    )
    if n_bytes > cap_bytes:
        raise CapExceededError("normal form", n_bytes, cap_bytes, " bytes")
    return _walk(model, s, agents_of_interest, keep, uncontracted)


def _walk(
    model: PosgModel,
    s: OccupancyState,
    agents_of_interest: Sequence[int],
    keep: Sequence[int] = (),
    uncontracted: Sequence[int] = (),
    weights: Sequence[RuleRows | None] | None = None,
) -> tuple[list, list[np.ndarray | None], list[tuple[np.ndarray, np.ndarray]]]:
    """``_normal_form`` below ``s`` after its byte count was
    checked: by ``_normal_form``, or by the zero-sum loop, which counts each
    pair it walks once.  With ``weights`` the walk pushes weighted actions
    only (``_sequence_payoffs``), and the second item is each agent's weight
    per sequence."""
    depth = model.horizon - s.t
    if depth < 1:
        raise ValueError("occupancy state is already at the horizon")
    blocks, tries, played = _sequence_payoffs(
        model, s, list(agents_of_interest) + list(uncontracted), weights
    )
    realizations = [
        None if i in keep else _plan_realization(model, i, tries[i], depth)
        for i in range(model.n_agents)
    ]
    n_c = len(agents_of_interest)
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
    mats += [_block_diagonal([b[..., k] for b in blocks]) for k in range(n_c, blocks[0].shape[-1])]
    return mats, realizations if weights is None else played, tries


class Csr(NamedTuple):
    """A sparse matrix in numpy arrays laid out as ``scipy.sparse`` lays out
    CSR: row ``r`` holds ``data[indptr[r]:indptr[r + 1]]`` in the columns
    ``indices[indptr[r]:indptr[r + 1]]``, increasing.  ``G @ y`` and
    ``x @ G`` add the products in the order the nonzeros are stored, as
    scipy's CSR and CSC products do, so they give scipy's results bit for
    bit."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    __array_ufunc__ = None  # ``x @ G`` with an array ``x`` comes to ``__rmatmul__``

    def rows(self) -> np.ndarray:
        """The row of each nonzero."""
        return np.arange(self.shape[0]).repeat(self.indptr[1:] - self.indptr[:-1])

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows(), self.data * y[self.indices], self.shape[0])

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, self.data * x[self.rows()], self.shape[1])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows(), self.indices] = self.data
        return dense


def _block_diagonal(blocks: Sequence[np.ndarray]) -> Csr:
    """The block-diagonal matrix of 2-d ``blocks``, storing their nonzero
    entries only."""
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    n_cols = 0
    for block in blocks:
        rows, cols = np.nonzero(block)
        indptr.append(indptr[-1][-1] + np.cumsum(np.bincount(rows, minlength=len(block))))
        indices.append(cols + n_cols)
        data.append(block[rows, cols])
        n_cols += block.shape[1]
    n_rows = sum(block.shape[0] for block in blocks)
    return Csr(
        np.concatenate(indptr), np.concatenate(indices), np.concatenate(data), (n_rows, n_cols)
    )


def suffix_normal_form(
    model: PosgModel, s: OccupancyState, agents_of_interest: Sequence[int] = (0,)
) -> tuple[list[np.ndarray], list[list[dict]]]:
    """Payoff tensors over anchored pure policy suffixes from occupancy ``s``;
    axis ``i`` indexes agent ``i``'s assignments of one tree per anchor."""
    mats, _, _ = _normal_form(model, s, agents_of_interest, CAP_BYTES)
    depth = model.horizon - s.t
    anchors = level_of(model, s)[1]
    return mats, [_anchored_space(model, i, a, depth) for i, a in enumerate(anchors)]


def induced_normal_form(
    model: PosgModel, agents_of_interest: Sequence[int]
) -> tuple[list[np.ndarray], list[list[PolicyTree]]]:
    """Payoff tensors over reduced pure policy profiles at the start belief,
    one axis per agent: the occupancy-rooted normal form at the initial
    occupancy state, each one-anchor assignment unwrapped to its tree."""
    mats, _, _ = _normal_form(model, initial_occupancy(model), agents_of_interest, CAP_BYTES)
    roots = [PrivateHistory(i) for i in range(model.n_agents)]
    spaces = [_anchored_space(model, i, [root], model.horizon) for i, root in enumerate(roots)]
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
    """Equilibrium of a two-agent game below an occupancy state as a pair of
    realization plans: the zero-sum saddle point of ``_double_oracle``, over
    the sets its last walk reached, or the strong Stackelberg equilibrium of
    ``_stackelberg_kernel``, over every set the walk reached.  ``values`` is
    each agent's payoff: ``(v, -v)`` for zero sum, (leader, follower) for
    Stackelberg.

    Sets and sequences are numbered as in ``_sequence_payoffs``: agent ``i``'s
    set ``a`` is its anchor ``anchors[i][a]``, then each depth's reached sets
    follow in (parent set, own action, own observation) order;
    ``tries[i] = (parents, obs)`` holds set ``c``'s parent sequence (-1 at an
    anchor) and the own observation that reached it, and sequence
    ``j * n_u + u`` is action ``u`` at set ``j``.  ``plans[i]`` is agent
    ``i``'s realization plan: mass 1 over the
    actions at each anchor, and each sequence's mass spread over the actions
    at every set below it.  The Stackelberg follower's plan is its pure
    plan's 0/1 realization, which ``_kuhn_mixture`` returns as that plan.
    """

    values: tuple[float, ...]
    plans: tuple[np.ndarray, ...]
    anchors: tuple[tuple[PrivateHistory, ...], ...]
    tries: tuple[tuple[np.ndarray, np.ndarray], ...]
    metadata: Mapping[str, object]


def _trie_fold(
    g: np.ndarray, parents: np.ndarray, n_u: int, best, discount: float = 1.0
) -> np.ndarray:
    """Per-sequence payoffs ``g[..., sequence]`` plus the ``best`` (``np.max``
    or ``np.min``) pure continuation below each sequence, times ``discount``
    per step, over (set, action) in the last two axes.  One reverse pass
    folds each set's best action into its parent sequence; sets are numbered
    after their parents, so a set is complete when it is folded.  The pass
    runs on a copy with (set, action) leading, so each step reads one
    contiguous block."""
    k = g.ndim - 1
    v = g.reshape(g.shape[:-1] + (len(parents), n_u)).transpose(k, k + 1, *range(k)).copy()
    for c in range(len(parents) - 1, -1, -1):
        p = parents[c]
        if p >= 0:
            v[p // n_u, p % n_u] += discount * best(v[c], axis=0)
    return v.transpose(*range(2, k + 2), 0, 1)


def _trie_best(g: np.ndarray, parents: np.ndarray, n_u: int, best) -> np.ndarray:
    """Best total of per-sequence payoffs ``g[..., sequence]`` over one
    agent's pure plans, for each index of the leading axes."""
    v = _trie_fold(g, parents, n_u, best)
    return best(v[..., parents < 0, :], axis=-1).sum(axis=-1)


def _plan_constraints(parents: np.ndarray, n_u: int):
    """``E x = e`` as the nonzeros of ``E`` (rows, columns and values, row by
    row) and ``e``: one row per set, its actions' mass minus its parent
    sequence's mass, 1 at the anchors."""
    n = len(parents)
    # row c: -1 at its parent sequence (none at an anchor), then 1 at its own
    cols = np.arange(n * (n_u + 1)).reshape(n, n_u + 1) - np.arange(1, n + 1)[:, None]
    cols[:, 0] = parents
    rows, k = np.nonzero(cols >= 0)
    return (rows, cols[rows, k], np.where(k == 0, -1.0, 1.0)), (parents < 0).astype(float)


def _sequence_form_rows(
    G: Csr, parents: Sequence[np.ndarray], n_us: Sequence[int], sign: int, played=None, c=None
) -> tuple[Csc, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows and bounds, in ``linprog``'s order, of every sequence-form
    LP over agent 0's realization plan ``x`` (``E x = e``, ``x >= 0``) and
    one free value ``q`` per set of agent 1, whose plans have ``F y = f``,
    with ``G`` a ``Csr`` matrix over their sequences: ``sign · [-G^T, F^T]
    <= 0`` on agent 1's sequences, then, given ``c``, ``[c^T, f^T] <= 0``,
    then ``[E, 0] = e``; with 0/1 masks ``played``, agent 1's masked-out
    sequences have no row and agent 0's are held at 0.  One ``Csc`` of the
    nonzeros, sorted by column, then row, as ``scipy.sparse`` stores them.
    The saddle LP (``_realization_plan_lp``) takes ``sign = 1``: ``F^T q <=
    G^T x``, whose duals are agent 1's plan.  The Stackelberg LP of follower
    plan ``r`` (``_multiple_lp``) takes ``sign = -1`` and ``c = -G r``:
    ``r`` is a best response to ``x`` when some ``q`` has ``F^T q >= G^T x``
    and ``f^T q <= x G r`` (LP duality on ``F y = f``; Bošanský & Čermák
    2015)."""
    (e_row, e_col, e_val), e = _plan_constraints(parents[0], n_us[0])
    (f_row, f_col, f_val), f = _plan_constraints(parents[1], n_us[1])
    n_x, n_q = G.shape[0], len(f)
    rows = np.ones(G.shape[1], dtype=bool) if played is None else played[1]
    at, n_rows = rows.cumsum() - 1, int(np.count_nonzero(rows))  # each played sequence's row
    kept_g, kept_f = rows[G.indices], rows[f_col]
    extra = np.zeros(0) if c is None else np.concatenate([c, f])
    n_le, on = n_rows + (c is not None), extra.nonzero()[0]  # rows bounded by 0
    row = np.concatenate(
        [at[G.indices[kept_g]], at[f_col[kept_f]], np.full_like(on, n_rows), n_le + e_row]
    )
    col = np.concatenate([G.rows()[kept_g], n_x + f_row[kept_f], on, e_col])
    order = np.lexsort((row, col))
    value = np.concatenate([-sign * G.data[kept_g], sign * f_val[kept_f], extra[on], e_val])
    start = col[order].searchsorted(np.arange(n_x + n_q + 1))
    free = np.full(n_q, np.inf)
    x_hi = np.full(n_x, np.inf) if played is None else np.where(played[0], np.inf, 0.0)
    return (
        Csc(start, row[order], value[order], (n_le + len(e), n_x + n_q)),
        np.concatenate([np.full(n_le, -np.inf), e]), np.concatenate([np.zeros(n_le), e]),
        np.concatenate([np.zeros(n_x), -free]), np.concatenate([x_hi, free]),
    )


def _realization_plan_lp(
    G: Csr, parents: Sequence[np.ndarray], n_us: Sequence[int], played=None
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The saddle LP (Koller, Megiddo & von Stengel 1996), max f^T q over
    ``_sequence_form_rows`` with sign 1, via HiGHS: (value, agent 0's plan
    ``x``, agent 1's plan ``y`` from the duals, duality gap); an LP HiGHS
    does not solve raises ``CertificateError``."""
    A, *bounds = _sequence_form_rows(G, parents, n_us, 1, played)
    n_x, n_rows = G.shape[0], A.shape[0] - len(parents[0])
    res = linprog(np.concatenate([np.zeros(n_x), -(parents[1] < 0).astype(float)]), A, *bounds)
    if not res.success:
        raise CertificateError(f"sequence-form LP failed: {res.message}")
    y = np.zeros(G.shape[1])
    y[slice(None) if played is None else played[1]] = np.clip(-res.duals[:n_rows], 0.0, None)
    gap = abs(float(res.value - bounds[0][n_rows:] @ res.duals[n_rows:]))  # e of the E rows
    return -res.value, np.clip(res.x[:n_x], 0.0, None), y, gap


def _pure_tree(
    model: PosgModel,
    agent: int,
    below: Mapping[tuple[int, int], int],
    pick,
    roots: Sequence[int] = (0,),
    depth: int | None = None,
) -> tuple[int, list[int]]:
    """The pure plan of one depth-``depth`` (default: the horizon) policy
    tree per set of ``roots``, in order, that plays ``pick(j)`` at each set
    ``j`` the walk reached, asked in preorder, and action 0 below sets it
    never reached: its index (each tree's preorder actions as base-``n_u``
    digits, the first tree's most significant, as ``_plan_realization``
    orders them; ``_tree`` decodes a one-tree plan) and the sequences it
    plays.  ``below`` holds the trie's sets by (parent sequence, own
    observation), as ``_children`` builds it."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    played: list[int] = []
    index = 0

    def visit(j: int | None, depth: int) -> None:
        nonlocal index
        u = 0 if j is None else pick(j)
        index = index * n_u + u
        if j is not None:
            played.append(j * n_u + u)
        for z in range(n_z if depth > 1 else 0):
            visit(None if j is None else below.get((j * n_u + u, z)), depth - 1)

    for root in roots:
        visit(root, model.horizon if depth is None else depth)
    return index, played


def _tree(model: PosgModel, agent: int, index: int, depth: int) -> PolicyTree:
    """``enumerate_pure_policies(model, agent, depth)[index]``: the tree whose
    preorder actions are the base-``n_u`` digits of ``index``, most
    significant first."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    n_sub = n_u ** sum(n_z**d for d in range(depth - 1))  # trees one step shorter
    u, rest = divmod(index, n_sub**n_z)
    below = [rest // n_sub**e % n_sub for e in range(n_z - 1, -1, -1)] if depth > 1 else []
    return PolicyTree(agent, u, tuple(_tree(model, agent, k, depth - 1) for k in below))


def _kuhn_mixture(
    model: PosgModel,
    agent: int,
    plan: np.ndarray,
    trie: tuple[np.ndarray, np.ndarray],
    depth: int | None = None,
) -> dict[int, float]:
    """The weights of pure plans, one depth-``depth`` (default: the horizon)
    tree per anchor of ``trie``, whose mixture realizes ``plan``, keyed by
    their index (``_pure_tree``; ``_tree`` decodes a one-anchor plan).

    Each round takes the plan playing the heaviest remaining action at every
    set it reaches, weighs it by the least remaining mass on its sequences
    and subtracts it; that empties at least one sequence, so there are at
    most ``len(plan)`` plans."""
    n_u = len(model.actions[agent])
    below, anchors = _children(*trie), np.flatnonzero(trie[0] < 0).tolist()
    rest = plan.copy()
    weights: dict[int, float] = {}
    for _ in range(len(plan)):
        index, played = _pure_tree(
            model, agent, below, lambda j: int(np.argmax(rest[j * n_u : (j + 1) * n_u])),
            anchors, depth,
        )
        w = float(rest[played].min())
        if w <= 1e-12:  # what is left is LP round-off
            break
        rest[played] -= w
        rest[rest <= 1e-12] = 0.0
        weights[index] = weights.get(index, 0.0) + w
    return weights


def _plan_rows(
    model: PosgModel, agent: int, mixture: Mapping[int, float], n_anchors: int, depth: int
) -> RuleRows:
    """Kuhn's behavioural form of a mixture of pure plans (weights by plan
    index), one depth-``depth`` tree per anchor, as ``RuleRows`` below the
    anchors: one row per set of each plan, action-0 defaults included, and
    per row each action's share of the weight of the plans there.  Plans
    share a set where they share its parent row, action and observation; a
    plan's index digits are its actions in preorder, anchor 0's tree first
    (``_pure_tree``)."""
    n_u, n_z = len(model.actions[agent]), model.n_agent_obs(agent)
    played: list[list[tuple[int, int, float]]] = [[] for _ in range(depth)]
    below: list[dict[tuple[int, int, int], int]] = [{} for _ in range(depth)]  # rows by key
    for index, w in mixture.items():
        nodes = [(0, a) for a in range(n_anchors - 1, -1, -1)]  # (depth, row), popped in preorder
        for e in range(n_anchors * sum(n_z**d for d in range(depth)) - 1, -1, -1):
            d, r = nodes.pop()
            u = index // n_u**e % n_u
            played[d].append((r, u, w))
            if d + 1 < depth:
                kids = [below[d + 1].setdefault((r, u, z), len(below[d + 1])) for z in range(n_z)]
                nodes += [(d + 1, k) for k in reversed(kids)]
    rows, children = [], []
    for d, at_depth in enumerate(played):
        r, u, w = map(np.array, zip(*at_depth))
        shares = np.zeros((len(below[d]) if d else n_anchors, n_u))
        np.add.at(shares, (r, u), w)
        rows.append(shares / shares.sum(axis=1, keepdims=True))
        if d:
            kids = np.full((len(rows[d - 1]), n_u, n_z), -1, dtype=np.intp)
            kids[tuple(np.array(list(below[d])).T)] = list(below[d].values())
            children.append(kids)
    return RuleRows(rows, children, None)


def _double_oracle(
    model: PosgModel, s: OccupancyState, tolerance: float, cap_bytes: int
) -> tuple[SequenceFormSolution, Csr]:
    """Saddle point below occupancy ``s`` by the sequence-form double oracle
    (Bošanský, Kiekintveld, Lisý & Pěchouček 2014), with agent 0's payoff
    matrix ``G`` of its last walk (a ``Csr`` matrix).

    Each agent's set of sequences is its whole trie (None) or a union of
    pure plans, one tree per anchor, held as 0/1 rows (``_plan_rows``).
    Each pair's walk is counted once, before it
    (``_restricted_bytes``), and refused over ``cap_bytes``.  Both sets start
    whole where the whole pair's walk fits ``cap_bytes`` and counts no more
    than four walks of the seed pair, plan 0 each (on the bundled and test
    models that ratio is at most 3.6 or at least 4.4).  Each iteration walks
    the pair, solves its LP and prices each plan by the opponent's best
    reply: a fold over ``G`` on whole sets, so that one iteration is the
    full LP (``sequence-form-lp``, or ``normal-form+…`` for the matrix game
    of one set each), and on restricted ones the batched private DP
    (``_private_best``) from the level of ``s``, one root per anchor,
    against the plan's Kuhn mixture as action rows (``_plan_rows``); agent 1's
    reply is priced in its own payoff, ``-G``.  It stops when the full LP's
    certificate, the duality gap plus what each side's opponent gains by its
    best reply, is within ``_certificate_bound`` of the payoffs in ``G``
    (no larger than the full one); otherwise the replies join the
    restricted sets, and an iteration that adds no sequence raises
    ``CertificateError``."""
    depth = model.horizon - s.t
    level, hists = level_of(model, s)
    n_anchors, n_us = level.n_sets, [len(labels) for labels in model.actions]

    def restricted(plans) -> list[RuleRows]:
        """Each agent's 0/1 rows of the sequences its plans play."""
        rows = [_plan_rows(model, i, p, n_anchors[i], depth) for i, p in enumerate(plans)]
        return [t._replace(rows=[(w > 0.0) * 1.0 for w in t.rows]) for t in rows]

    def sizes(sets) -> tuple[int, ...]:
        return tuple(int(sum(w.sum() for w in t.rows)) for t in sets)

    # plan 0's sets per depth: one per own observation path below each anchor
    seed = [[n * model.n_agent_obs(i) ** d for d in range(depth)] for i, n in enumerate(n_anchors)]
    full = _restricted_bytes(model, n_anchors, depth, [None, None])
    n_bytes = _restricted_bytes(model, n_anchors, depth, seed)
    whole = full <= min(cap_bytes, 4 * n_bytes)
    plans: list[dict[int, float]] = [{0: 1.0}, {0: 1.0}]  # each set's plans, by index
    sets, n_bytes = (None, full) if whole else (restricted(plans), n_bytes)
    for iteration in itertools.count(1):
        if n_bytes > cap_bytes:
            raise CapExceededError("restricted game", n_bytes, cap_bytes, " bytes")
        (G,), played, tries = _walk(model, s, [0], (0, 1), weights=sets)
        parents = [p for p, _ in tries]
        payoffs, method = G, "sequence-form-lp" if whole else "sequence-form-double-oracle"
        if whole and all(len(p) == 1 for p in parents):  # G is the matrix game
            payoffs = G.toarray()
            game = matrix_game_value(payoffs, tolerance)
            value, x, y, gap = game.value, game.row_mix, game.col_mix, game.gap
            method = f"normal-form+{game.method}"
        else:
            masks = None if whole else [p > 0.0 for p in played]
            value, x, y, gap = _realization_plan_lp(G, parents, n_us, masks)
        if whole:
            replies = [
                (float(_trie_best(payoffs @ y, parents[0], n_us[0], np.max)), None),
                (float(_trie_best(x @ payoffs, parents[1], n_us[1], np.min)), None),
            ]
        else:
            kuhn = [_kuhn_mixture(model, i, plan, tries[i], depth) for i, plan in enumerate((x, y))]
            rows = [_plan_rows(model, i, kuhn[i], n_anchors[i], depth) for i in range(2)]
            replies = []
            for i in range(2):  # agent 1 replies in its own payoff, -G
                others = [None if j == i else rows[j] for j in range(2)]
                best, index, *_ = _private_best(model, i, level, others, s.t)
                replies.append((best if i == 0 else -best, index))
        exploitability = (max(0.0, value - replies[1][0]), max(0.0, replies[0][0] - value))
        certificate = gap + sum(exploitability)
        if certificate <= _certificate_bound(tolerance, G.data):
            break
        if not whole:
            plans = [{**p, index: 1.0} for p, (_, index) in zip(plans, replies)]
            grown = restricted(plans)
        if whole or sizes(grown) == sizes(sets):  # nothing left to add
            raise CertificateError(f"zero-sum certificate {certificate:.3g} exceeds tolerance")
        sets = grown
        counts = [[len(w) for w in t.rows] for t in sets]
        n_bytes = _restricted_bytes(model, n_anchors, depth, counts)
    grew = {"sequences": G.shape} if whole else {"sequences": sizes(sets), "iterations": iteration}
    metadata = {
        "method": method, **grew, "duality_gap": gap, "exploitability": exploitability,
        "residual": max(exploitability),
    }
    anchors = tuple(map(tuple, hists))
    return SequenceFormSolution((value, -value), (x, y), anchors, tuple(tries), metadata), G


def _equilibrium(
    model: PosgModel,
    criterion: str,
    values: Sequence[float],
    mixtures: Sequence[Mapping[int, float]],
    metadata: Mapping[str, object],
) -> Equilibrium:
    """The start-belief equilibrium of each agent's mixture (weights by plan
    index), every plan decoded to its tree."""
    return Equilibrium(
        criterion=criterion,
        values=tuple(values),
        mixtures=tuple(mixtures),
        policies=tuple(
            {k: _tree(model, i, k, model.horizon) for k in mixture}
            for i, mixture in enumerate(mixtures)
        ),
        metadata=dict(metadata),
    )


def solve_zero_sum(
    model: PosgModel,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_bytes: int = CAP_BYTES,
) -> Equilibrium:
    """Saddle value of a zero-sum game at the start belief, with each agent's
    optimal plan as a mixture over pure policy trees: the loop of
    ``_double_oracle`` at the initial occupancy state, each plan split into
    a Kuhn mixture."""
    _require(model, "zerosum", "solve_zero_sum")
    sol, _ = _double_oracle(model, initial_occupancy(model), tolerance, cap_bytes)
    mixtures = [_kuhn_mixture(model, i, plan, sol.tries[i]) for i, plan in enumerate(sol.plans)]
    return _equilibrium(model, "zerosum", sol.values, mixtures, sol.metadata)


def _one_sided(model: PosgModel, s: OccupancyState, cap_bytes: int, best) -> tuple:
    """Agents 0..n-2 enumerated below occupancy ``s`` against the last agent in
    sequence form: agent 0's payoff for each enumerated profile (C order) when
    the last agent plays its ``best`` (``np.max`` or ``np.min``) pure plan, one
    reverse trie pass each; the profiles' payoffs ``Y`` over its sequences; the
    enumerated agents' plan counts; its trie ``(parents, obs)``.  No joint
    tensor is built."""
    last = model.n_agents - 1
    (Y,), _, tries = _normal_form(model, s, [0], cap_bytes, keep=(last,))
    flat = Y.reshape(-1, Y.shape[-1])
    values = _trie_best(flat, tries[last][0], len(model.actions[last]), best)
    return values, flat, Y.shape[:-1], tries[last]


def zero_sum_guarantees(model: PosgModel, cap_bytes: int = CAP_BYTES) -> np.ndarray:
    """What each of agent 0's pure policy trees (``enumerate_pure_policies``
    order) guarantees it at the start belief of a zero-sum game: each tree's
    payoff minimised over agent 1's pure plans.  Their maximum can fall
    below the value, which may need a mixture: on tiger-one-stage read as
    zero-sum at belief 0.75 the value is 0.5 and every guarantee is 0."""
    return _one_sided(model, initial_occupancy(model), cap_bytes, np.min)[0]


def solve_dec(model: PosgModel, cap_bytes: int = CAP_BYTES) -> Equilibrium:
    """Optimal joint policy of a common-payoff game: every agent but the last
    enumerates its reduced pure policies, the last best-responds in sequence
    form.  Ties go to the lexicographically smallest index tuple whose value
    ties with the maximum (``_tie_floor``): the first such profile of the
    others, then the last agent's first such policy.  The last agent's policy
    comes from one preorder pass over its sets: at each, the lowest action
    whose best completion still reaches that floor."""
    _require(model, "common", "solve_dec")
    s0 = initial_occupancy(model)
    values, Y, n_plans, (parents, obs) = _one_sided(model, s0, cap_bytes, np.max)
    floor = _tie_floor(values.max())
    row = int(np.flatnonzero(values >= floor)[0])
    last = model.n_agents - 1
    n_u = len(model.actions[last])
    v = _trie_fold(Y[row], parents, n_u, np.max)
    slack = v[0].max() - floor  # what the picks below may still lose

    def lowest_within(j: int) -> int:
        nonlocal slack
        loss = v[j].max() - v[j]
        u = int(np.flatnonzero(loss <= slack)[0])
        slack -= loss[u]
        return u

    col, played = _pure_tree(model, last, _children(parents, obs), lowest_within)
    realization = np.zeros(Y.shape[-1])
    realization[played] = 1.0
    best = [int(c) for c in np.unravel_index(row, n_plans)] + [col]
    return _equilibrium(
        model, "common", (float(realization @ Y[row]),) * model.n_agents,
        [{c: 1.0} for c in best],
        {"method": "sequence-form-argmax", "shape": (len(values), Y.shape[-1])},
    )


def _multiple_lp(
    L: np.ndarray, G_F: Csr, R_F: np.ndarray, parents: Sequence[np.ndarray], n_us: Sequence[int]
) -> tuple[float, np.ndarray, int, float, float]:
    """Strong Stackelberg equilibrium, one LP per follower pure plan (Conitzer
    & Sandholm 2006; follower ties break in the leader's favor): (leader
    value, leader realization plan ``x``, follower plan ``k``, follower value
    ``x G_F r_k``, follower regret).

    Rows of ``L`` (leader payoff over follower plans) and of ``G_F`` (follower
    payoff over follower sequences, a ``Csr`` matrix) are the leader's
    sequences; row ``k`` of ``R_F`` is follower plan ``k``'s 0/1 realization
    ``r_k``.  Plan ``k``'s LP maximises ``x L[:, k]`` over
    ``_sequence_form_rows`` with sign -1 and ``c = -G_F r_k``, one row per
    follower sequence, not one per plan: laid out once with ``c = 1``, each
    LP writes its ``c`` there and drops its zeros.  Plans are tried in
    descending order of the leader's best pure value against them, until
    that bound no longer ties with the best LP value (``_tie_floor``); the
    pick is the lowest plan whose LP value ties with the best, so it does
    not depend on the payoffs' scale."""
    dense, (n_x, n_y) = G_F.toarray(), G_F.shape  # dense once, for the products
    A, *bounds = _sequence_form_rows(G_F, parents, n_us, -1, c=np.ones(n_x))
    # the plan row's entry in each leader column, after its G_F^T rows
    slot, cols = np.flatnonzero(A.indices[: A.indptr[n_x]] == n_y), np.arange(A.shape[1] + 1)
    zeros, data = np.zeros(A.shape[1] - n_x), A.data.copy()
    top = _trie_best(L.T, parents[0], n_us[0], np.max)
    solved: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    best = -np.inf
    for k in np.argsort(-top, kind="stable").tolist():
        if top[k] < _tie_floor(best):
            break  # neither this plan nor any later one can reach ``best``
        r = R_F[k]
        c = data[slot] = -(dense @ r)
        kept = data != 0.0  # the plan row's zeros dropped
        indptr = A.indptr - np.searchsorted(np.flatnonzero(c == 0.0), cols)
        plan = Csc(indptr, A.indices[kept], data[kept], A.shape)
        res = linprog(np.concatenate([-L[:, k], zeros]), plan, *bounds)
        if res.success:
            solved[k] = (-res.value, np.clip(res.x[:n_x], 0.0, None), r)
            best = max(best, solved[k][0])
    if not solved:  # some plan is a best response; its LP failed
        raise CertificateError(
            f"no follower plan admits an incentive-compatible leader plan: {res.message}"
        )
    k = min(j for j, (v, _, _) in solved.items() if v >= _tie_floor(best))
    value, x, r = solved[k]
    payoffs = x @ dense
    follower = float(payoffs @ r)
    regret = max(0.0, float(_trie_best(payoffs, parents[1], n_us[1], np.max)) - follower)
    return value, x, k, follower, regret


def stackelberg_from_matrices(L: np.ndarray, F: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Strong Stackelberg equilibrium of a bimatrix game: (leader value,
    leader mixture, follower pure response); one information set each."""
    one_set = np.full(1, -1, dtype=np.intp)
    G_F, R_F = _block_diagonal([F]), np.eye(F.shape[1])
    return _multiple_lp(L, G_F, R_F, (one_set, one_set), F.shape)[:3]


def _stackelberg_kernel(
    model: PosgModel, s: OccupancyState, tolerance: float, cap_bytes: int
) -> SequenceFormSolution:
    """Strong Stackelberg equilibrium below occupancy ``s``, the follower's
    pure plans enumerated and the leader in sequence form; the follower's
    plan is its chosen pure plan's 0/1 realization.

    The certificate, the follower's regret (its best pure plan's value
    against the leader's plan less the chosen plan's), must stay within
    ``_certificate_bound`` of the follower's payoffs."""
    (L, G_F), (_, R_F), tries = _normal_form(
        model, s, [0], cap_bytes, keep=(0,), uncontracted=(1,)
    )
    n_us = [len(model.actions[i]) for i in range(2)]
    value, x, k, follower, regret = _multiple_lp(L, G_F, R_F, [p for p, _ in tries], n_us)
    if regret > _certificate_bound(tolerance, G_F.data):
        raise CertificateError(f"stackelberg follower regret {regret:.3g} exceeds tolerance")
    anchors = tuple(map(tuple, level_of(model, s)[1]))
    metadata = {"method": "multiple-lp", "shape": L.shape, "follower_regret": regret}
    return SequenceFormSolution((value, follower), (x, R_F[k]), anchors, tuple(tries), metadata)


def solve_stackelberg(
    model: PosgModel,
    tolerance: float = DEFAULT_TOLERANCE,
    cap_bytes: int = CAP_BYTES,
) -> Equilibrium:
    """Strong Stackelberg equilibrium with agent 1 committing publicly; its
    plan is returned as a mixture over pure policy trees (Kuhn), the
    follower's as its one pure plan."""
    _require(model, "stackelberg", "solve_stackelberg")
    sol = _stackelberg_kernel(model, initial_occupancy(model), tolerance, cap_bytes)
    mixtures = [_kuhn_mixture(model, i, plan, sol.tries[i]) for i, plan in enumerate(sol.plans)]
    return _equilibrium(model, "stackelberg", sol.values, mixtures, sol.metadata)


# ---------------------------------------------------------------------------
# values from mid-game occupancy states
# ---------------------------------------------------------------------------


def zero_sum_value_from(
    model: PosgModel, s: OccupancyState
) -> tuple[float, SequenceFormSolution, Csr]:
    """Saddle value of the zero-sum subgame rooted at occupancy ``s``, with
    the saddle point and agent 0's sequence-form payoff matrix of the
    loop's last walk (a ``Csr`` matrix): over both agents' whole
    tries unless the method is ``sequence-form-double-oracle``."""
    sol, G = _double_oracle(model, s, DEFAULT_TOLERANCE, CAP_BYTES)
    return sol.values[0], sol, G


def dec_value_from(model: PosgModel, s: OccupancyState) -> float:
    """Optimal common-payoff value from occupancy ``s`` onward."""
    return float(_one_sided(model, s, CAP_BYTES, np.max)[0].max())


def stackelberg_value_from(model: PosgModel, s: OccupancyState) -> float:
    """Strong Stackelberg leader value from occupancy ``s`` onward."""
    return _stackelberg_kernel(model, s, DEFAULT_TOLERANCE, CAP_BYTES).values[0]
