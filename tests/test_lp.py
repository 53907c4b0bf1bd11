import dataclasses

import numpy as np
import pytest

import spectral_optim
from spectral_optim import LinearProgram, LPInfeasibleError, LPUnboundedError, lp_optimize
from spectral_optim import lp as lp_module
from spectral_optim.lp import LPSolution

from oracles import lp_vertex_oracle, run_random_lp_comparison


def test_box_corner():
    lp = LinearProgram(objective=np.array([1.0, 1.0]), normals=np.empty((0, 2)),
                       rhs=np.empty(0), lo=np.zeros(2), hi=np.ones(2))
    x, value = lp_optimize(lp)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(x, (1.0, 1.0), atol=1e-12)


def test_single_constraint():
    lp = LinearProgram(objective=np.array([2.0, 1.0]),
                       normals=np.array([[1.0, 1.0]]), rhs=np.array([1.0]),
                       lo=np.zeros(2), hi=np.full(2, np.inf))
    x, value = lp_optimize(lp)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(x, (1.0, 0.0), atol=1e-12)


def test_min_sense():
    lp = LinearProgram(objective=np.array([1.0, 1.0]),
                       normals=np.array([[-1.0, -1.0]]), rhs=np.array([-1.0]),
                       lo=np.zeros(2), hi=np.ones(2), sense="min")
    x, value = lp_optimize(lp)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_infeasible():
    lp = LinearProgram(objective=np.array([1.0]),
                       normals=np.array([[1.0]]), rhs=np.array([-1.0]),
                       lo=np.zeros(1), hi=np.ones(1))
    with pytest.raises(LPInfeasibleError, match="infeasible"):
        lp_optimize(lp)


def test_unbounded():
    lp = LinearProgram(objective=np.array([1.0]), normals=np.empty((0, 1)),
                       rhs=np.empty(0), lo=np.zeros(1), hi=np.full(1, np.inf))
    with pytest.raises(LPUnboundedError, match="unbounded"):
        lp_optimize(lp)


def test_vertex_has_enough_active_constraints():
    rng = np.random.default_rng(3)
    for case in range(40):
        d = 2 + case % 3
        m = 1 + case % 4
        normals = rng.normal(size=(m, d))
        rhs = rng.uniform(0.1, 1.0, size=m)
        lp = LinearProgram(objective=rng.normal(size=d), normals=normals,
                           rhs=rhs, lo=np.zeros(d), hi=np.ones(d))
        x, _ = lp_optimize(lp)
        active = int(np.sum(np.abs(normals @ x - rhs) <= 1e-10))
        active += int(np.sum(np.abs(x) <= 1e-10))
        active += int(np.sum(np.abs(x - 1.0) <= 1e-10))
        assert active >= d


def test_agrees_with_vertex_enumeration():
    worst, infeasible = run_random_lp_comparison(200, seed=5)
    assert worst <= 1e-9
    assert infeasible >= 1  # the rhs range must actually produce both kinds


def test_validation():
    with pytest.raises(ValueError):
        LinearProgram(objective=np.ones(2), normals=np.empty((0, 2)),
                      rhs=np.empty(0), lo=np.array([0.0, np.inf]), hi=np.ones(2))
    with pytest.raises(ValueError):
        LinearProgram(objective=np.ones(2), normals=np.empty((0, 2)),
                      rhs=np.empty(0), lo=np.ones(2), hi=np.zeros(2))
    with pytest.raises(ValueError):
        LinearProgram(objective=np.ones(2), normals=np.empty((0, 2)),
                      rhs=np.empty(0), lo=np.zeros(2), hi=np.ones(2), sense="between")


def test_pivot_matches_the_row_loop_bit_for_bit():
    # The rank-1 update of a stack must do each row's arithmetic exactly as
    # the row-by-row elimination of each tableau alone.
    from spectral_optim.lp import _pivot

    def loop_pivot(T, basis, row, col):
        T[row] /= T[row, col]
        for i in range(T.shape[0]):
            if i != row and T[i, col] != 0.0:
                T[i] -= T[i, col] * T[row]
        basis[row] = col

    rng = np.random.default_rng(11)
    for k in range(1, 21):
        T = rng.normal(size=(k, 6, 9))
        T[rng.random(T.shape) < 0.3] = 0.0
        row, col = rng.integers(5, size=k), rng.integers(8, size=k)
        T[np.arange(k), row, col] = rng.uniform(0.5, 2.0, size=k)
        got, want = T.copy(), T.copy()
        b_got, b_want = np.tile(np.arange(5), (k, 1)), np.tile(np.arange(5), (k, 1))
        _pivot(got, b_got, row, col)
        for s in range(k):
            loop_pivot(want[s], b_want[s], row[s], col[s])
        assert np.array_equal(got, want)
        assert np.array_equal(b_got, b_want)


def test_dantzig_cycling_example_terminates():
    # Chvatal, Linear Programming, ch. 3: most-negative-reduced-cost entry
    # with smallest-index leaving ties cycles here forever; the switch to
    # Bland's smallest index after a run of degenerate pivots ends it.
    lp = LinearProgram(objective=np.array([10.0, -57.0, -9.0, -24.0]),
                       normals=np.array([[0.5, -5.5, -2.5, 9.0],
                                         [0.5, -1.5, -0.5, 1.0],
                                         [1.0, 0.0, 0.0, 0.0]]),
                       rhs=np.array([0.0, 0.0, 1.0]),
                       lo=np.zeros(4), hi=np.full(4, np.inf))
    sol = lp_optimize(lp)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.x, (1.0, 0.0, 1.0, 0.0), atol=1e-12)
    assert sol.pivots < 1000


def _boxed_lp(objective, normals):
    d = normals.shape[1]
    return LinearProgram(objective=objective, normals=normals,
                         rhs=np.ones(normals.shape[0]), lo=np.zeros(d), hi=np.ones(d))


def test_warm_start_matches_cold_solves():
    rng = np.random.default_rng(21)
    normals = rng.random((8, 6))
    prev = None
    for _ in range(30):
        lp = _boxed_lp(rng.normal(size=6), normals)
        cold = lp_optimize(lp)
        warm = lp_optimize(lp, basis=prev)
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert np.all(normals @ warm.x <= 1.0 + 1e-10)
        assert np.all(warm.x >= -1e-10) and np.all(warm.x <= 1.0 + 1e-10)
        # Restarting at the optimum of the same objective takes no pivot.
        assert lp_optimize(lp, basis=warm).pivots == 0
        prev = warm


def test_unusable_warm_basis_falls_back_to_a_cold_solve():
    lp = LinearProgram(objective=np.array([2.0, 1.0]),
                       normals=np.array([[1.0, 1.0], [1.0, 1.0]]), rhs=np.ones(2),
                       lo=np.zeros(2), hi=np.ones(2))
    cold = lp_optimize(lp)
    # Columns: x0, x1, then the slacks of the two rows; the box is bounds,
    # not rows.  A solution without a kept tableau restarts from its basis
    # and the columns it holds at their upper bound, as one of other
    # constraints does.
    for basis, at_upper in [((0, 1, 2), ()),    # wrong length
                            ((0, 4), ()),       # index out of range
                            ((0, 0), ()),       # repeated index
                            ((0, 1), ()),       # singular: the two rows are equal
                            ((2, 3), (0, 1))]:  # infeasible: x = (1, 1) breaks x0 + x1 <= 1
        earlier = LPSolution(cold.x, cold.value, basis, at_upper, 0, 0, "cold",
                             _tableau=None)
        warm = lp_optimize(lp, basis=earlier)
        assert np.array_equal(warm.x, cold.x)
        assert warm.value == cold.value
        assert warm.pivots == cold.pivots
    assert cold.value == pytest.approx(2.0, abs=1e-12)


def test_a_bare_basis_is_refused():
    lp = _boxed_lp(np.ones(2), np.ones((1, 2)))
    with pytest.raises(TypeError, match="LPSolution"):
        lp_optimize(lp, basis=lp_optimize(lp).basis)


def test_warm_start_from_a_phase_one_basis():
    # rhs < 0 forces phase 1 on the cold solve; its solution warm-starts the
    # next objective.
    rng = np.random.default_rng(22)
    normals = np.vstack([rng.random((3, 4)), -np.ones((1, 4))])
    rhs = np.array([1.5, 1.5, 1.5, -0.5])
    prev = None
    for _ in range(10):
        lp = LinearProgram(objective=rng.normal(size=4), normals=normals, rhs=rhs,
                           lo=np.zeros(4), hi=np.ones(4))
        cold = lp_optimize(lp)
        warm = lp_optimize(lp, basis=prev)
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert np.all(normals @ warm.x <= rhs + 1e-10)
        prev = warm


def test_a_solution_of_other_constraints_is_not_repriced():
    # Same shape, other normals or rhs: the kept tableau encodes the old
    # constraints, so repricing it would return a vertex of the wrong polytope.
    rng = np.random.default_rng(23)
    normals = rng.random((8, 6))
    earlier = lp_optimize(_boxed_lp(rng.random(6), normals))
    assert earlier.start == "cold" and earlier._tableau is not None
    objective = rng.random(6) + 0.1
    for other in (_boxed_lp(objective, rng.random((8, 6))),
                  LinearProgram(objective=objective, normals=normals,
                                rhs=np.full(8, 0.5), lo=np.zeros(6), hi=np.ones(6))):
        cold = lp_optimize(other)
        warm = lp_optimize(other, basis=earlier)
        assert warm.start != "tableau"
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert np.allclose(warm.x, cold.x, atol=1e-12)
    # A copy of the same constraints is checked identical and repriced.
    same = lp_optimize(_boxed_lp(objective, normals.copy()), basis=earlier)
    assert same.start == "tableau"
    assert same.value == pytest.approx(lp_optimize(_boxed_lp(objective, normals)).value,
                                       rel=1e-12)


def test_kept_tableau_is_read_only_and_changes_under_no_solve():
    rng = np.random.default_rng(24)
    normals = rng.random((8, 6))
    earlier = lp_optimize(_boxed_lp(rng.random(6), normals))
    kept = earlier._tableau
    before = kept.T.copy()
    assert not kept.T.flags.writeable and not kept.basis.flags.writeable
    assert all(not a.flags.writeable for a in kept.constraints)
    for _ in range(5):
        assert lp_optimize(_boxed_lp(rng.random(6), normals), basis=earlier).start == "tableau"
    assert np.array_equal(kept.T, before)
    # Changing the caller's arrays in place cannot make the check pass wrongly.
    lp = _boxed_lp(rng.random(6), normals)
    lp.normals[0, 0] += 1.0
    assert lp_optimize(lp, basis=earlier).start != "tableau"


def test_two_thousand_warm_solves_match_cold_solves():
    rng = np.random.default_rng(25)
    d, k = 10, 15
    normals = rng.random((k, d)) / 2.0
    prev, starts = None, []
    for case in range(2000):
        objective = rng.random(d)
        objective[rng.random(d) < 0.3] = 0.0
        lp = _boxed_lp(objective, normals)
        warm = lp_optimize(lp, basis=prev)
        cold = lp_optimize(lp)
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-15), case
        assert np.all(normals @ warm.x <= 1.0 + 1e-10)
        assert np.all(warm.x >= -1e-10) and np.all(warm.x <= 1.0 + 1e-10)
        # A tableau is kept only inside the refactorization rule, and a kept
        # one is always repriced by the next solve.
        kept = warm._tableau
        if kept is not None:
            assert kept.carried < k and np.all(kept.T[:-1, -1] >= -1e-9)
        if case:
            assert (warm.start == "tableau") == (prev._tableau is not None)
        starts.append(warm.start)
        prev = warm
    assert starts.count("basis") >= 1
    assert starts.count("tableau") >= 1000


def _assert_matches_oracle(lp, sol, tol=1e-9):
    want = lp_vertex_oracle(lp.objective, lp.normals, lp.rhs, lp.lo, lp.hi, lp.sense)
    assert want is not None
    assert sol.value == pytest.approx(want[1], abs=tol)
    assert np.all(lp.normals @ sol.x <= lp.rhs + 1e-10)
    assert np.all(sol.x >= lp.lo - 1e-10) and np.all(sol.x <= lp.hi + 1e-10)


def test_fixed_variables_match_the_oracle():
    rng = np.random.default_rng(31)
    for case in range(60):
        d = 2 + case % 3
        lo = rng.uniform(0.0, 0.3, size=d)
        hi = lo + rng.uniform(0.2, 1.0, size=d)
        fixed = rng.random(d) < 0.4
        hi[fixed] = lo[fixed]
        lp = LinearProgram(objective=rng.normal(size=d), normals=rng.normal(size=(2, d)),
                           rhs=rng.uniform(0.5, 1.5, size=2) + 2.0, lo=lo, hi=hi,
                           sense=("max", "min")[case % 2])
        sol = lp_optimize(lp)
        _assert_matches_oracle(lp, sol)
        assert np.array_equal(sol.x[fixed], lo[fixed])


def test_a_flip_of_a_fixed_variable_counts_as_degenerate(monkeypatch):
    # x2 is fixed (lo == hi) and has by far the best steepest-edge score, so
    # it enters first and flips with step 0.  Every vertex of x0 + 2 x1 = 1
    # (after the shift) is optimal: steepest edge then picks x1 and stops at
    # (0, 0.5), Bland's smallest index picks x0 and stops at (0.8, 0.1).
    # With a degenerate run of 1, the path switches to Bland's rule only if
    # the flip counted as degenerate.
    lp = LinearProgram(objective=np.array([1.0, 2.0, 10.0]),
                       normals=np.array([[1.0, 2.0, 1.0]]), rhs=np.array([1.25]),
                       lo=np.array([0.0, 0.0, 0.25]), hi=np.array([0.8, 1.0, 0.25]))
    steepest = lp_optimize(lp)
    assert np.allclose(steepest.x, (0.0, 0.5, 0.25), atol=1e-12)
    assert (steepest.pivots, steepest.flips) == (1, 1)
    monkeypatch.setattr(lp_module, "_DEGENERATE_RUN", 1)
    bland = lp_optimize(lp)
    assert np.allclose(bland.x, (0.8, 0.1, 0.25), atol=1e-12)
    assert (bland.pivots, bland.flips) == (1, 2)
    for sol in (steepest, bland):
        _assert_matches_oracle(lp, sol, tol=1e-12)


def test_finite_and_infinite_upper_bounds_in_one_program():
    rng = np.random.default_rng(32)
    for case in range(60):
        d = 2 + case % 3
        hi = rng.uniform(0.5, 1.5, size=d)
        hi[rng.random(d) < 0.5] = np.inf
        # A positive row keeps the unbounded coordinates bounded.
        normals = np.vstack([rng.uniform(0.2, 1.0, size=(1, d)), rng.normal(size=(2, d))])
        lp = LinearProgram(objective=rng.normal(size=d), normals=normals,
                           rhs=np.array([2.0, 1.0, 1.0]), lo=np.zeros(d), hi=hi,
                           sense=("max", "min")[case % 2])
        _assert_matches_oracle(lp, lp_optimize(lp))


def test_negative_rhs_goes_through_phase_one():
    rng = np.random.default_rng(33)
    for case in range(60):
        d = 2 + case % 3
        # sum x >= 0.3 (a negative right-hand side at x = 0) and two more rows.
        normals = np.vstack([-np.ones((1, d)), rng.uniform(0.0, 1.0, size=(2, d))])
        lp = LinearProgram(objective=-rng.random(d), normals=normals,
                           rhs=np.array([-0.3, 1.5, 1.5]), lo=np.zeros(d), hi=np.ones(d))
        sol = lp_optimize(lp)
        _assert_matches_oracle(lp, sol)
        assert sol.x.sum() == pytest.approx(0.3, abs=1e-12)
        assert sol.pivots >= 1


def test_min_sense_matches_the_oracle():
    rng = np.random.default_rng(34)
    for case in range(60):
        d = 1 + case % 4
        lp = LinearProgram(objective=rng.normal(size=d), normals=rng.normal(size=(3, d)),
                           rhs=rng.uniform(0.1, 1.0, size=3), lo=-rng.random(d),
                           hi=rng.random(d), sense="min")
        _assert_matches_oracle(lp, lp_optimize(lp))


def test_box_only_program_is_answered_by_flips():
    rng = np.random.default_rng(35)
    for case in range(20):
        d = 1 + case % 5
        objective = rng.normal(size=d)
        lo, hi = -rng.random(d), rng.random(d)
        lp = LinearProgram(objective=objective, normals=np.empty((0, d)),
                           rhs=np.empty(0), lo=lo, hi=hi, sense=("max", "min")[case % 2])
        sol = lp_optimize(lp)
        up = objective > 0 if lp.sense == "max" else objective < 0
        assert sol.pivots == 0 and sol.flips == int(up.sum())
        assert sol.basis == () and sol.at_upper == tuple(np.flatnonzero(up).tolist())
        assert np.array_equal(sol.x, np.where(up, hi, lo))
        _assert_matches_oracle(lp, sol, tol=1e-12)


def test_bland_path_matches_the_default_path(monkeypatch):
    # The criterion-10 generator, solved with steepest edge and with Bland's
    # rule from the first step: both agree with the oracle and each other.
    def values():
        got = []

        def spy(lp, **kwargs):
            sol = real(lp, **kwargs)
            got.append(sol.value)
            return sol

        monkeypatch.setattr(spectral_optim, "lp_optimize", spy)
        worst, infeasible = run_random_lp_comparison(500, seed=17)
        assert worst <= 1e-9 and infeasible >= 1
        return got

    real = lp_optimize
    default = values()
    monkeypatch.setattr(lp_module, "_DEGENERATE_RUN", 0)
    bland = values()
    assert len(bland) == len(default) > 400
    assert np.allclose(bland, default, rtol=0.0, atol=1e-9)


def test_warm_solve_refactorizes_from_basis_and_at_upper():
    rng = np.random.default_rng(36)
    d, k = 8, 6
    normals = rng.random((k, d)) / 2.0
    with_upper = 0
    for _ in range(30):
        earlier = lp_optimize(_boxed_lp(rng.normal(size=d), normals))
        lp = _boxed_lp(rng.normal(size=d), normals)
        warm = lp_optimize(lp, basis=dataclasses.replace(earlier, _tableau=None))
        cold = lp_optimize(lp)
        assert warm.start == "basis"
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)
        with_upper += bool(earlier.at_upper)
    assert with_upper >= 10
