"""``solve.linprog``, which calls HiGHS directly, against the public
``scipy.optimize.linprog``, and the numpy sparse forms of the zero-sum LPs
against ``scipy.sparse``.

Every LP that the zero-sum loop, the Stackelberg kernel and the verify
master suites make on the bundled models is recorded and solved again by the
public route: both must agree on success everywhere and, where the LP
solves, give the same ``x``, row duals and objective bit for bit.  Every
payoff matrix ``G`` those solves hand to the realization-plan LP, and those
of random zero-sum models, must give the products and the LP's CSC arrays
that ``scipy.sparse`` gives on the same nonzeros, bit for bit.
"""

import importlib.machinery
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from occupancy_games import solve, verify
from occupancy_games.model import reinterpret_criterion
from occupancy_games.sampling import random_posg
from occupancy_games.solve import solve_stackelberg, solve_zero_sum

from conftest import MODELS, fresh_ogs, load


def public_linprog(c, A, row_lo, row_hi, col_lo, col_hi):
    """The row-bounded LP through ``scipy.optimize.linprog``: rows with no
    lower bound are its inequalities and the rest its equalities, in that
    order, which is the order linprog stacks them in.  Returns (success, x,
    row duals, objective)."""
    n_ub = int(np.isneginf(row_lo).sum())
    assert np.isneginf(row_lo[:n_ub]).all() and np.array_equal(row_lo[n_ub:], row_hi[n_ub:])
    res = scipy_linprog(
        c, A_ub=A[:n_ub], b_ub=row_hi[:n_ub], A_eq=A[n_ub:], b_eq=row_hi[n_ub:],
        bounds=np.column_stack([col_lo, col_hi]), method="highs",
    )
    if not res.success:
        return False, None, None, None
    return True, res.x, np.concatenate([res.ineqlin.marginals, res.eqlin.marginals]), res.fun


def same(result, lp) -> bool:
    """Whether ``result`` is the public linprog's on ``lp``, bit for bit."""
    success, x, duals, value = public_linprog(*lp)
    if success != result.success:
        return False
    return not success or (
        np.array_equal(x, result.x) and np.array_equal(duals, result.duals)
        and value == result.value
    )


def as_stackelberg(model):
    return reinterpret_criterion(model, "stackelberg")


def public_copy(a):
    """A copy of one argument of ``solve.linprog``, taken at the call, so
    that no later call can change what was recorded: the CSC matrix of numpy
    arrays, its only matrix form, as the ``scipy.sparse`` CSC array of the
    same arrays, which the public linprog takes."""
    if isinstance(a, solve.Csc):
        start, index, value, shape = a
        return sparse.csc_array((value.copy(), index.copy(), start.copy()), shape=shape)
    return a.copy()


def record_lps(mp) -> list:
    """Every LP ``solve.linprog`` solves under the monkeypatch ``mp``,
    copied at the call, with its result."""
    lps, real = [], solve.linprog

    def record(*lp):
        result = real(*lp)
        lps.append(([public_copy(a) for a in lp], result))
        return result

    mp.setattr(solve, "linprog", record)
    return lps


@pytest.fixture
def recorded(monkeypatch):
    return record_lps(monkeypatch)


def run_solvers(recorded) -> dict[str, list]:
    """Every solver and master-check LP of the bundled models, recorded, by
    group.  Past h=2 the zero-sum loop runs on restricted sets: tiger-duel
    h=4's LPs are the masked double-oracle ones."""
    duel, zs, st = load("tiger-duel"), load("tiger-zs"), load("stackelberg-tiger")
    one_stage = load("tiger-one-stage")
    groups = {}
    for name, run in [
        ("zero-sum", lambda: [
            solve_zero_sum(m.with_horizon(h)) for m in (duel, zs) for h in (1, 2, 3)
        ] + [solve_zero_sum(reinterpret_criterion(one_stage, "zerosum"))]),
        ("double oracle", lambda: solve_zero_sum(duel.with_horizon(4))),
        ("stackelberg", lambda: [
            solve_stackelberg(m.with_horizon(h))
            for m in (st, as_stackelberg(one_stage)) for h in (1, 2, 3)
        ] + [solve_stackelberg(as_stackelberg(duel).with_horizon(h)) for h in (1, 2)]),
        ("master", lambda: [
            verify.check_master_structure(m, horizon=h, n_samples=2, seed=1)
            for m in (duel, zs, st) for h in (2, 3)
        ]),
    ]:
        start = len(recorded)
        run()
        groups[name] = recorded[start:]
    return groups


def test_every_solver_and_master_lp_matches_the_public_linprog(recorded):
    groups = run_solvers(recorded)
    # some LPs hold a sequence of agent 0 at 0, and some follower plans are
    # no best response to any leader plan (tiger-duel's, as Stackelberg)
    assert any((lp[5] == 0).any() for lp, _ in groups["double oracle"])
    assert any(not result.success for _, result in groups["stackelberg"])
    for name, lps in groups.items():
        assert any(result.success for _, result in lps), name
        mismatched = [i for i, (lp, result) in enumerate(lps) if not same(result, lp)]
        assert mismatched == [], (name, mismatched, len(lps))


def test_a_dropped_row_is_told_apart(recorded):
    # negative control: the first LP of tiger-duel h=3's zero-sum loop
    # against the public linprog on the same LP less its first row (agent
    # 1's first played sequence); the objective moves, not only the duals'
    # count
    solve_zero_sum(load("tiger-duel").with_horizon(3))
    lp, result = recorded[0]
    assert result.success and same(result, lp)
    c, A, row_lo, row_hi, col_lo, col_hi = lp
    dropped = [c, A[1:], row_lo[1:], row_hi[1:], col_lo, col_hi]
    assert not same(result, dropped)
    assert public_linprog(*dropped)[3] != result.value


@pytest.mark.parametrize("form", ["csc"])  # linprog's one matrix form
def test_infeasible_and_unbounded_lps_fail_with_their_status(form):
    csc = sparse.csc_array(np.array([[1.0, 1.0], [1.0, -1.0]]))
    A = solve.Csc(csc.indptr, csc.indices, csc.data, csc.shape)
    free = (np.full(2, -np.inf), np.full(2, np.inf))
    # x + y <= -1 with x, y >= 0
    res = solve.linprog(
        np.ones(2), A, np.array([-np.inf, -np.inf]), np.array([-1.0, 0.0]),
        np.zeros(2), np.full(2, np.inf),
    )
    assert not res.success and res.message == "HiGHS model status: Infeasible"
    assert res.x is None and res.duals is None and math.isnan(res.value)
    # min -x with x - y <= 0 and both free
    res = solve.linprog(
        np.array([-1.0, 0.0]), A, np.array([-np.inf, -np.inf]), np.array([np.inf, 0.0]), *free
    )
    assert not res.success and res.message == "HiGHS model status: Unbounded"
    # the same rows with a bounded objective solve
    res = solve.linprog(
        np.array([1.0, 1.0]), A, np.array([1.0, -np.inf]), np.array([np.inf, 0.0]), *free
    )
    assert res.success and res.message == "HiGHS model status: Optimal" and res.value == 1.0


def test_highs_through_the_package_when_its_file_is_not_found():
    # fresh interpreters, one where linprog's file lookup finds nothing:
    # every LP of the commands gives the same bits and the same output
    direct_out, direct = fresh_ogs("file")
    package_out, package = fresh_ogs("package")
    assert package_out == direct_out and "value_1: 0.5" in direct_out.splitlines()
    assert package["codes"] == direct["codes"] and package["lps"] == direct["lps"] > 0
    assert package["digest"] == direct["digest"]
    assert "scipy.optimize" in package["loaded"] and direct["loaded"] == []


# solves tiger-duel's LPs through ``solve.linprog`` in a fresh interpreter,
# then imports ``scipy.optimize`` and solves them again through the public
# linprog; prints whether the extension module was shared and the results
# were the same bit for bit
LINPROG_THEN_SCIPY = """
import json, sys
import numpy as np
from occupancy_games import solve
from occupancy_games.model import parse_posg
name, lps, linprog = "scipy.optimize._highspy._core", [], solve.linprog

def record(*lp):
    res = linprog(*lp)
    lps.append(([a.copy() if isinstance(a, np.ndarray) else a for a in lp], res))
    return res

solve.linprog = record
solve.solve_zero_sum(parse_posg(open("models/tiger-duel.posg").read()))
unloaded, loaded = "scipy.optimize" not in sys.modules, sys.modules[name]
import scipy.optimize
from scipy import sparse
from scipy.optimize._highspy import _core, _highs_wrapper

same = []
for (c, A, row_lo, row_hi, col_lo, col_hi), res in lps:
    if isinstance(A, solve.Csc):
        A = sparse.csc_array((A.data, A.indices, A.indptr), shape=A.shape)
    n_ub = int(np.isneginf(row_lo).sum())
    pub = scipy.optimize.linprog(
        c, A_ub=A[:n_ub], b_ub=row_hi[:n_ub], A_eq=A[n_ub:], b_eq=row_hi[n_ub:],
        bounds=np.column_stack([col_lo, col_hi]), method="highs",
    )
    duals = np.concatenate([pub.ineqlin.marginals, pub.eqlin.marginals])
    same.append(
        res.success and pub.success and np.array_equal(res.x, pub.x)
        and np.array_equal(res.duals, duals) and res.value == pub.fun
    )
print(json.dumps({
    "unloaded_before": unloaded, "same": same,
    "shared": sys.modules[name] is loaded and _core is loaded and _highs_wrapper._h is loaded,
}))
"""


def test_scipy_optimize_imported_after_linprog_uses_its_extension():
    # a library user who solves first and calls scipy.optimize.linprog after
    # gets the module linprog loaded from its file, and the same bits
    env = dict(os.environ, PYTHONPATH=str(MODELS.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", LINPROG_THEN_SCIPY], cwd=MODELS.parent, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    run = json.loads(out.stdout)
    assert run["unloaded_before"] and run["shared"]
    assert run["same"] and all(run["same"])


class BrokenExtension(importlib.machinery.ExtensionFileLoader):
    """A loader whose module fails as it runs."""

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("broken extension")


def test_a_failed_load_leaves_no_module_registered(monkeypatch):
    # a half-run module left in sys.modules would serve every later linprog
    name = "scipy.optimize._highspy._core"
    spec = importlib.util.spec_from_loader(name, BrokenExtension(name, "_core.so"))
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *_: spec)
    lp = np.ones(1), np.ones((1, 1)), np.ones(1), np.ones(1), np.zeros(1), np.ones(1)
    for _ in range(2):
        with pytest.raises(ImportError, match="broken extension"):
            solve.linprog(*lp)
        assert name not in sys.modules


def test_linprog_refuses_a_csr_matrix():
    # a Csr holds its fields in Csc's order; read as Csc it would be the
    # transpose.  A dense array is refused too: Csc is linprog's one form
    dense = np.array([[1.0, 2.0], [0.0, 3.0]])
    for A, name in [(solve._block_diagonal([dense]), "Csr"), (dense, "ndarray")]:
        with pytest.raises(TypeError, match=f"takes a Csc matrix, not {name}$"):
            solve.linprog(np.ones(2), A, np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))


def test_highs_is_reached_only_through_linprog():
    # the test oracles call the public scipy.optimize.linprog; the package
    # calls HiGHS's bindings in one function
    src = pathlib.Path(solve.__file__).parent
    hits = {
        (path.name, i)
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "_highspy" in line
    }
    lines, first = inspect.getsourcelines(solve.linprog)
    assert hits and hits <= {("solve.py", first + i) for i in range(len(lines))}


# -- the numpy sparse forms against scipy.sparse ---------------------------------


def record_plans(mp, lps) -> list:
    """Every call of the realization-plan LP, with its ``G``, tries, masks
    and result, and the rows it handed to linprog as recorded in ``lps``
    (``recorded``'s list, whose recorder ``mp`` already installed)."""
    calls, real = [], solve._realization_plan_lp

    def record(G, parents, n_us, played=None):
        out = real(G, parents, n_us, played)
        calls.append((G, parents, n_us, played, lps[-1][0][1], out))
        return out

    mp.setattr(solve, "_realization_plan_lp", record)
    return calls


def plan_matrices(parents, n_us) -> list[np.ndarray]:
    """Each agent's plan constraints' matrix (``E``, then ``F``) written out
    set by set: 1 at the set's own sequences, -1 at its parent sequence."""
    plans = [[], []]
    for plan, p, n_u in zip(plans, parents, n_us):
        for c, parent in enumerate(p.tolist()):
            row = np.zeros(len(p) * n_u)
            row[c * n_u : (c + 1) * n_u] = 1.0
            if parent >= 0:
                row[parent] = -1.0
            plan.append(row)
    return [np.array(plan) for plan in plans]


def lp_rows(S, parents, n_us, played) -> sparse.csc_array:
    """The realization-plan LP's rows built dense from ``S``'s entries:
    ``[-G^T, F^T]`` on agent 1's played sequences above ``[E, 0]``; as the
    ``scipy.sparse`` CSC array of their nonzeros."""
    E, F = plan_matrices(parents, n_us)
    kept = np.ones(S.shape[1], dtype=bool) if played is None else played[1]
    top = np.hstack([-S.toarray().T, F.T])[kept]
    return sparse.csc_array(np.vstack([top, np.hstack([E, np.zeros((len(E), len(F)))])]))


def csc_mismatches(A, oracle) -> list[str]:
    """Which of the CSC arrays and shape of ``A`` differ from ``oracle``'s."""
    wrong = [
        f"LP {name}" for name in ("indptr", "indices", "data")
        if not np.array_equal(getattr(A, name), getattr(oracle, name))
    ]
    return wrong + ["LP shape"] * (A.shape != oracle.shape)


def scipy_mismatches(call, S, rng) -> list[str]:
    """What of one recorded call differs from ``scipy.sparse`` on ``S``'s
    nonzeros, bit for bit: ``G @ y`` and ``x @ G`` on the LP's plans and on
    random vectors, the dense ``G``, and the CSC arrays of the LP's rows."""
    G, parents, n_us, played, A, (_, x, y, _) = call
    ys, xs = [y, rng.random(G.shape[1])], [x, rng.random(G.shape[0])]
    wrong = [f"G @ y[{k}]" for k, v in enumerate(ys) if not np.array_equal(G @ v, S @ v)]
    wrong += [f"x[{k}] @ G" for k, v in enumerate(xs) if not np.array_equal(v @ G, v @ S)]
    if not np.array_equal(G.toarray(), S.toarray()):
        wrong.append("dense G")
    return wrong + csc_mismatches(A, lp_rows(S, parents, n_us, played))


def as_scipy(G) -> sparse.csr_array:
    return sparse.csr_array((G.data, G.indices, G.indptr), shape=G.shape)


def test_every_solver_g_and_lp_rows_match_scipy_sparse(recorded, monkeypatch):
    calls = record_plans(monkeypatch, recorded)
    run_solvers(recorded)
    assert len(calls) > 20 and any(call[3] is not None for call in calls)
    rng = np.random.default_rng(0)
    for k, call in enumerate(calls):
        assert as_scipy(call[0]).has_canonical_format, k
        assert scipy_mismatches(call, as_scipy(call[0]), rng) == [], k


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), horizon=st.integers(1, 2), n_public=st.integers(1, 2))
def test_random_zero_sum_g_and_lp_rows_match_scipy_sparse(seed, horizon, n_public):
    rng = np.random.default_rng(seed)
    m = random_posg(
        rng, n_actions=(3, 2), n_obs=(2, 2), n_public=n_public, horizon=horizon,
        discount=0.9, criterion="zerosum",
    )
    with pytest.MonkeyPatch.context() as mp:
        calls = record_plans(mp, record_lps(mp))
        solve_zero_sum(m)
    assert calls
    for call in calls:
        assert scipy_mismatches(call, as_scipy(call[0]), rng) == []


def test_an_entry_moved_within_its_column_is_told_apart(recorded, monkeypatch):
    # negative control: tiger-duel h=2's full LP against scipy on G with one
    # nonzero moved to a row of another depth in its column; the products
    # on random vectors, the dense G and the LP's arrays tell it apart (the
    # LP's own plans may put no weight where it moved)
    calls = record_plans(monkeypatch, recorded)
    solve_zero_sum(load("tiger-duel"))
    call = calls[0]
    G, rng = call[0], np.random.default_rng(1)
    assert call[3] is None and scipy_mismatches(call, as_scipy(G), rng) == []
    rows, cols, data = G.rows(), G.indices.copy(), G.data
    empty = np.flatnonzero(np.bincount(rows[cols == cols[0]], minlength=G.shape[0]) == 0)
    moved = rows.copy()
    moved[0] = empty[0]
    S = sparse.csr_array((data, (moved, cols)), shape=G.shape)
    wrong = scipy_mismatches(call, S, rng)
    assert {"G @ y[1]", "x[1] @ G", "dense G", "LP indptr", "LP indices"} <= set(wrong), wrong


# -- the Stackelberg LPs' rows against dense rows ---------------------------------


class ReadRows(np.ndarray):
    """A 2-d array that notes, in ``read``, the index of each row read from
    it, and hands out plain rows."""

    def __getitem__(self, k):
        self.read.append(k)
        return np.asarray(self)[k]


def record_stackelberg(mp, lps) -> list:
    """Every LP ``_multiple_lp`` hands to linprog, as recorded in ``lps``
    (``recorded``'s list, whose recorder ``mp`` already installed), with the
    follower payoff ``G_F``, the realization ``r`` of the follower plan the
    LP is for, and the tries' parents and action counts."""
    calls, real = [], solve._multiple_lp

    def record(L, G_F, R_F, parents, n_us):
        rows, start = R_F.view(ReadRows), len(lps)
        rows.read = []
        out = real(L, G_F, rows, parents, n_us)
        assert len(rows.read) == len(lps) - start  # one plan read per LP
        for k, (lp, _) in zip(rows.read, lps[start:]):
            calls.append((G_F, R_F[k], parents, n_us, lp[1]))
        return out

    mp.setattr(solve, "_multiple_lp", record)
    return calls


def stackelberg_rows(D, r, parents, n_us) -> sparse.csc_array:
    """The Stackelberg LP of follower plan ``r`` built dense from the
    follower payoff ``D``: ``[G_F^T, -F^T]`` over ``[-(G_F r)^T, f^T]`` over
    ``[E, 0]``, ``f`` 1 at the follower's anchors; as the ``scipy.sparse``
    CSC array of their nonzeros."""
    E, F = plan_matrices(parents, n_us)
    f = (parents[1] < 0) * 1.0
    plan = np.concatenate([-(D @ r), f])
    bottom = np.hstack([E, np.zeros((len(E), len(F)))])
    return sparse.csc_array(np.vstack([np.hstack([D.T, -F.T]), plan, bottom]))


def test_every_stackelberg_lp_matches_its_dense_rows(recorded, monkeypatch):
    calls = record_stackelberg(monkeypatch, recorded)
    run_solvers(recorded)
    n_bundled = len(calls)
    m = random_posg(
        np.random.default_rng(2), n_states=2, n_actions=(2, 2), n_obs=(2, 2), horizon=3,
        criterion="stackelberg",
    )
    solve_stackelberg(m)
    # many follower plans each, not a team game's one LP
    assert n_bundled > 20 and len(calls) - n_bundled > 20
    for k, (G_F, r, parents, n_us, A) in enumerate(calls):
        D = as_scipy(G_F).toarray()
        assert (D @ r != 0.0).any(), k
        assert csc_mismatches(A, stackelberg_rows(D, r, parents, n_us)) == [], k
    # negative control: the last LP's rows with the first nonzero of its
    # first column moved to an empty row of that column
    M = stackelberg_rows(D, r, parents, n_us).toarray()
    full, empty = np.flatnonzero(M[:, 0]), np.flatnonzero(M[:, 0] == 0.0)
    M[empty[0], 0], M[full[0], 0] = M[full[0], 0], 0.0
    assert "LP indices" in csc_mismatches(A, sparse.csc_array(M))
