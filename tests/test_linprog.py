"""``solve.linprog``, which calls HiGHS directly, against the public
``scipy.optimize.linprog``.

Every LP that the zero-sum loop, the Stackelberg kernel and the verify
master suites make on the bundled models is recorded and solved again by the
public route: both must agree on success everywhere and, where the LP
solves, give the same ``x``, row duals and objective bit for bit.
"""

import inspect
import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from occupancy_games import solve, verify
from occupancy_games.model import reinterpret_criterion
from occupancy_games.solve import solve_stackelberg, solve_zero_sum

from conftest import load


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


@pytest.fixture
def recorded(monkeypatch):
    """Every LP ``solve.linprog`` solves, copied at the call (the Stackelberg
    kernel rewrites one row of its matrix between calls), with its result."""
    lps, real = [], solve.linprog

    def record(*lp):
        result = real(*lp)
        lps.append(([a.copy() for a in lp], result))
        return result

    monkeypatch.setattr(solve, "linprog", record)
    return lps


def test_every_solver_and_master_lp_matches_the_public_linprog(recorded):
    # past h=2 the zero-sum loop runs on restricted sets: tiger-duel h=4's
    # LPs are the masked double-oracle ones
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


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csc"])
def test_infeasible_and_unbounded_lps_fail_with_their_status(dense):
    from scipy import sparse

    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    A = A if dense else sparse.csc_array(A)
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
