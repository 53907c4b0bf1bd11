"""Small dense linear programming solver (two-phase primal simplex).

Solves max/min of a linear objective subject to inequality constraints
(normal, x) <= rhs and box bounds lo <= x <= hi.  Solutions are always
vertices of the feasible polytope, which is what the row-set optimizers need:
a vertex row keeps the iteration on extreme points of the uncertainty sets.

The implementation is the classical tableau method; each pivot is one rank-1
update of the tableau.  The entering column has the most negative reduced
cost (Dantzig's rule) and the leaving row the minimum ratio, ties within the
tolerance going to the smallest basic index.  Dantzig's rule can cycle on a
degenerate vertex, so after a fixed run of pivots without objective gain the
entering column becomes the smallest eligible index instead.  Together with
the leaving tie-break that is Bland's rule (Bland 1977), which cannot cycle;
the first pivot with a gain switches back to Dantzig's rule.

A solve may start from an earlier :class:`LPSolution` of the same
constraints, where only the objective or the sense differ.  Its optimal
basis is still primal feasible, so phase 2 restarts there, usually a pivot
or two from the optimum, in one of two ways:

* *tableau*: the solution keeps a read-only copy of its optimal tableau.
  The new solve copies it, reprices the objective row for the new
  objective and pivots on: no linear solve and no rebuild of the standard
  form.  This needs the constraints to be checked identical, not assumed:
  normals, rhs, lo and hi are compared with the copy the tableau keeps.
* *basis*: otherwise the tableau is refactorized from the basis with one
  linear solve.  That also happens when the tableau has been carried
  through m pivots (m = the number of standard-form rows) since it was last
  built cold or refactorized, or when its right-hand side shows an entry
  below -1e-9, the pivot tolerance: rounding error grows with every rank-1
  update, and a fresh factorization bounds it.  The rule is applied as a
  solve ends: a tableau it condemns is not kept.

A solution whose basis does not fit the program, or is singular or
infeasible for it, is ignored and the solve starts cold.
:attr:`LPSolution.start` names the path taken.  The kept tableau has
(m + 1) x (n + m + 1) floats, beside a copy of the constraints.  For a
polytope in the unit box of R^d cut by k halfspaces (m = k + d, n = d) that
is (k + d + 1)(k + 2d + 1) floats: 61 KB at d=25, k=50, 303 KB at d=100 and
905 KB at d=200 (k=50), against 11, 42 and 84 KB for the copy.  Where several vertices are optimal, which one is
returned can depend on the starting basis and on the path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "LPInfeasibleError",
    "LPSolution",
    "LPUnboundedError",
    "lp_optimize",
]

# Pivots without objective gain after which the entering rule switches from
# Dantzig's to Bland's smallest index.
_DEGENERATE_RUN = 50
# Reduced costs, pivot entries, ratio ties and right-hand sides within this
# of zero count as zero.
_TOL = 1e-9


class LPInfeasibleError(ValueError):
    """No point satisfies all constraints."""


class LPUnboundedError(ValueError):
    """The objective is unbounded over the feasible set."""


@dataclass
class LinearProgram:
    """max or min of (objective, x) s.t. normals @ x <= rhs, lo <= x <= hi.

    ``normals`` is an (m, n) array (m may be zero), ``rhs`` its right-hand
    sides.  Lower bounds must be finite; upper bounds may be +inf.
    """

    objective: np.ndarray
    normals: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sense: str = "max"

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.shape[0]
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, n)
        self.rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if self.rhs.shape[0] != self.normals.shape[0]:
            raise ValueError("rhs length must match number of constraint rows")
        if self.lo.shape[0] != n or self.hi.shape[0] != n:
            raise ValueError("box bounds must match objective length")
        if not np.all(np.isfinite(self.lo)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.hi < self.lo):
            raise ValueError("box is empty (hi < lo)")
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An optimal tableau kept for the next solve, with its basis, the
    constraints it was built from and the pivots it has been carried through
    since it was last built cold or refactorized.  Every array is read-only:
    a solve that restarts here works on copies."""

    T: np.ndarray
    basis: np.ndarray
    constraints: tuple[np.ndarray, ...]   # normals, rhs, lo, hi
    carried: int

    def fits(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has exactly the constraints this tableau encodes."""
        return all(np.array_equal(mine, theirs) for mine, theirs in
                   zip(self.constraints, (lp.normals, lp.rhs, lp.lo, lp.hi)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LPSolution:
    """An optimal vertex ``x``, its objective ``value``, the final ``basis``
    and the number of ``pivots`` taken.

    Unpacks as ``x, value``.  ``basis`` holds the indices of the basic
    columns of the standard form (structural, then one slack per constraint
    row and finite upper bound).  Pass the solution to the next
    :func:`lp_optimize` call on the same constraints to warm-start it from
    the read-only optimal tableau the solution keeps, or from ``basis`` when
    it keeps none: no tableau is kept once the refactorization rule of the
    module docstring is due.  ``start`` names how this solve began:
    ``cold``, ``tableau`` (repriced from an earlier solution's tableau) or
    ``basis`` (refactorized from an earlier solution's basis).
    """

    x: np.ndarray
    value: float
    basis: tuple[int, ...]
    pivots: int
    start: str
    _tableau: _Tableau | None = field(default=None, repr=False)

    def __iter__(self):
        return iter((self.x, self.value))


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row] / T[row, col]
    T -= T[:, col, None] * pivot_row
    T[row] = pivot_row
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> int:
    """Drive the tableau to optimality in place; returns the pivot count.

    The objective row T[-1] holds z_j - c_j for a maximization; a column
    among the first ``ncols`` with T[-1, j] < -_TOL improves the objective.
    """
    m = T.shape[0] - 1
    reduced = T[-1, :ncols]
    max_pivots = 20000 * (ncols + m)
    degenerate = 0
    for pivots in range(max_pivots):
        if degenerate < _DEGENERATE_RUN:
            col = int(reduced.argmin())
            if reduced[col] >= -_TOL:
                return pivots
        else:
            eligible = np.flatnonzero(reduced < -_TOL)
            if eligible.size == 0:
                return pivots
            col = int(eligible[0])
        rows = (T[:m, col] > _TOL).nonzero()[0]
        if rows.size == 0:
            raise LPUnboundedError("LP unbounded")
        ratios = T[rows, -1] / T[rows, col]
        least = ratios.min()
        tied = rows[ratios <= least + _TOL]
        row = int(tied[basis[tied].argmin()])
        degenerate = degenerate + 1 if least <= _TOL else 0
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex exceeded its pivot budget")


def _cold_start(A: np.ndarray, b: np.ndarray):
    """A feasible tableau and basis for A y <= b, y >= 0, and the phase 1
    pivot count.  With b >= 0 no row is flipped and phase 1 stops at once
    on the slack basis."""
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    # Columns: n structural, m slack/surplus, then one artificial per flipped
    # row.  Flipped rows are >= constraints: surplus coefficient -1.
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    ncols = n + m + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    basis[art_rows] = n + m + np.arange(n_art)
    # Phase 1: maximize -sum(artificials).  With artificials basic the
    # priced objective row is -sum of their rows, except on the artificial
    # columns themselves where z_j - c_j = 0.
    T[-1] = -T[art_rows].sum(axis=0)
    T[-1, n + m:ncols] = 0.0
    pivots = _run_simplex(T, basis, ncols)
    if T[-1, -1] < -1e-7:
        raise LPInfeasibleError("LP infeasible")
    # Pivot any artificial still basic (at zero level) out on a real column.
    # A row with no real pivot keeps its artificial; such a basis is not
    # reused for warm starts.
    for i in np.flatnonzero(basis >= n + m):
        real = np.flatnonzero(np.abs(T[i, :n + m]) > _TOL)
        if real.size:
            _pivot(T, basis, i, int(real[0]))
            pivots += 1
    T = np.delete(T, np.s_[n + m:ncols], axis=1)
    return T, basis, pivots


def _warm_start(A: np.ndarray, b: np.ndarray, basis):
    """Like :func:`_cold_start`, from a given basis; None when the basis is
    not a feasible basis of A y <= b, y >= 0."""
    m, n = A.shape
    basis = np.asarray(basis, dtype=np.intp)
    if (basis.shape != (m,) or np.unique(basis).size != m
            or (m and (basis.min() < 0 or basis.max() >= n + m))):
        return None
    M = np.hstack([A, np.eye(m), b[:, None]])
    # The basic columns come out as the identity: solve for the others only.
    rest = np.ones(n + m + 1, dtype=bool)
    rest[basis] = False
    try:
        solved = np.linalg.solve(M[:, basis], M[:, rest])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(solved)) or np.any(solved[:, -1] < -_TOL):
        return None
    T = np.zeros((m + 1, n + m + 1))
    T[:m, rest] = solved
    T[np.arange(m), basis] = 1.0
    np.maximum(T[:m, -1], 0.0, out=T[:m, -1])
    return T, basis, 0


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray) -> int:
    """Price the objective ``c`` (max) for the tableau's basis and run the
    simplex to optimality; returns the pivot count."""
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    cost = np.zeros(ncols + m)   # room for artificials left basic at zero
    cost[:c.size] = c
    T[-1] = cost[basis] @ T[:m]
    T[-1, :ncols] -= cost[:ncols]
    return _run_simplex(T, basis, ncols)


def _standard_form(lp: LinearProgram):
    """A, b of A y <= b, y >= 0 with y = x - lo: the constraint rows, then
    one row per finite upper bound."""
    n = lp.objective.shape[0]
    rows = [lp.normals]
    rhs = [lp.rhs - lp.normals @ lp.lo]
    finite_hi = np.isfinite(lp.hi)
    if np.any(finite_hi):
        idx = np.flatnonzero(finite_hi)
        ub = np.zeros((idx.size, n))
        ub[np.arange(idx.size), idx] = 1.0
        rows.append(ub)
        rhs.append(lp.hi[idx] - lp.lo[idx])
    return np.vstack(rows), np.concatenate(rhs)


def lp_optimize(lp: LinearProgram, *, basis: LPSolution | None = None) -> LPSolution:
    """Solve the program to an optimal vertex (see :class:`LPSolution`).

    ``basis`` is an earlier :class:`LPSolution` of a program with the same
    constraints; the solve then restarts phase 2 from it.  Its kept tableau
    is repriced and reused when the constraints check identical; otherwise
    the tableau is refactorized from its basis (see the module docstring).

    Raises
    ------
    LPInfeasibleError
        When no feasible point exists.
    LPUnboundedError
        When the objective is unbounded in the requested direction.
    """
    n = lp.objective.shape[0]
    c = lp.objective if lp.sense == "max" else -lp.objective
    if basis is not None and not isinstance(basis, LPSolution):
        raise TypeError(f"basis must be an earlier LPSolution, "
                        f"got {type(basis).__name__}")
    kept = None if basis is None else basis._tableau
    if kept is not None and kept.fits(lp):
        T, basic, carried = kept.T.copy(), kept.basis.copy(), kept.carried
        start, pivots = "tableau", 0
    else:
        A, b = _standard_form(lp)
        warm = None if basis is None else _warm_start(A, b, basis.basis)
        start = "cold" if warm is None else "basis"
        T, basic, pivots = warm if warm is not None else _cold_start(A, b)
        carried = 0
    pivots += _phase2(T, basic, c)
    carried += pivots

    y = np.zeros(n)
    structural = basic < n
    y[basic[structural]] = T[:-1, -1][structural]
    x = y + lp.lo
    tableau = None
    if carried < T.shape[0] - 1 and not np.any(T[:-1, -1] < -_TOL):
        constraints = kept.constraints if start == "tableau" else tuple(
            _read_only(a.copy()) for a in (lp.normals, lp.rhs, lp.lo, lp.hi))
        tableau = _Tableau(_read_only(T), _read_only(basic), constraints, carried)
    return LPSolution(x, float(lp.objective @ x), tuple(basic.tolist()), pivots,
                      start, tableau)
