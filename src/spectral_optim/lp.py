"""Small dense linear programming solver (bounded-variable primal simplex).

Solves max/min of a linear objective subject to inequality constraints
(normal, x) <= rhs and box bounds lo <= x <= hi.  Solutions are always
vertices of the feasible polytope, which is what the row-set optimizers need:
a vertex row keeps the iteration on extreme points of the uncertainty sets.

The box is not a set of constraint rows: each variable carries its bounds
(Chvatal, *Linear Programming*, ch. 8).  With y = x - lo and one slack per
constraint row, the tableau has m + 1 rows (m = the number of constraint
rows) and n + m + 1 columns.  A nonbasic variable sits at its lower or at its
upper bound; one at its upper bound is complemented (y' = hi - lo - y), so
every nonbasic variable reads 0 in the tableau and every basis change is one
rank-1 update of it.  When the entering variable reaches its own other bound
before any basic variable reaches one of its bounds, the step is a *bound
flip*: the variable is complemented, which changes its column and the
right-hand side, and the basis stays.

The entering column has the largest steepest-edge score d_j^2 / w_j, where
d_j is its reduced cost and w_j = 1 + ||column j||^2 the squared length of
its edge (Goldfarb & Reid, *Math. Programming* 12, 1977).  The weights are
exact: the tableau holds every column, so they are recomputed from its body
after each pivot and kept with it, and a warm solve prices with them.  (At
m = 50, up to about 1,000 columns, one pass over the body takes less time
than Goldfarb and Reid's update by the product of the entering column with
the body.)  Flips and complemented rows change signs, not weights.  The
leaving row has the minimum ratio, ties within the tolerance going to the
smallest basic index; ties in the score go to the lowest column.  A rule of
this kind can cycle on a degenerate vertex, so after a fixed run of steps
without objective gain (a flip of a fixed variable, lo == hi, is one) the
entering column becomes the smallest eligible index instead.  Together with
the leaving tie-break that is Bland's rule (Bland 1977), which cannot
cycle; the first step with a gain switches back to steepest edge.  Rows
with a negative right-hand side at y = 0 get an artificial variable and a
phase 1 that removes it.

A solve may start from an earlier :class:`LPSolution` of the same
constraints, where only the objective or the sense differ.  Its optimal
basis is still primal feasible, so phase 2 restarts there, usually a pivot
or two from the optimum, in one of two ways:

* *tableau*: the solution keeps a read-only copy of its optimal tableau and
  weights.  The new solve copies them, reprices the objective row for the
  new objective and pivots on: no linear solve and no rebuild.  This needs
  the constraints to be checked identical, not assumed: normals, rhs, lo
  and hi are compared with the copy the tableau keeps.
* *basis*: otherwise the tableau is refactorized from the basis and the
  columns held at their upper bound with one linear solve.  That also
  happens when the tableau has been carried through m pivots since it was
  last built cold or refactorized, or when its right-hand side shows a
  basic value more than 1e-9, the pivot tolerance, outside its bounds:
  rounding error grows with every rank-1 update, and a fresh factorization
  bounds it.  The rule is applied as a solve ends: a tableau it condemns is
  not kept.

A solution whose basis does not fit the program, or is singular or
infeasible for it, is ignored and the solve starts cold.
:attr:`LPSolution.start` names the path taken.  The kept tableau has
(m + 1)(n + m + 1) floats, beside a copy of the constraints.  For a
polytope in the unit box of R^d cut by m halfspaces that is 31 KB at d=25,
m=50, 61 KB at d=100 and 102 KB at d=200 (m=50), against 11, 42 and 84 KB
for the copy.  Where several vertices are optimal, which one is returned
can depend on the starting basis and on the path.
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

# Steps without objective gain after which the entering rule switches from
# steepest edge to Bland's smallest index.
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
    columns held at their upper bound, the steepest-edge weights, the
    constraints it was built from, their upper bounds and the pivots it has
    been carried through since it was last built cold or refactorized.
    Every array is read-only: a solve that restarts here works on copies."""

    T: np.ndarray
    basis: np.ndarray
    at_upper: np.ndarray
    weights: np.ndarray
    constraints: tuple[np.ndarray, ...]   # normals, rhs, lo, hi
    u: np.ndarray                         # upper bounds after the shift to lo = 0
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
    and ``at_upper``, and the numbers of ``pivots`` and bound ``flips`` taken.

    Unpacks as ``x, value``.  Columns are numbered structural first, then
    one slack per constraint row; ``basis`` holds the basic column of each
    row and ``at_upper`` the nonbasic columns held at their upper bound (the
    others are at their lower bound).  ``pivots`` counts basis changes and
    ``flips`` the steps that moved one variable to its other bound.  Pass
    the solution to the next :func:`lp_optimize` call on the same
    constraints to warm-start it from the read-only optimal tableau the
    solution keeps, or from ``basis`` and ``at_upper`` when it keeps none:
    no tableau is kept once the refactorization rule of the module docstring
    is due.  ``start`` names how this solve began: ``cold``, ``tableau``
    (repriced from an earlier solution's tableau) or ``basis`` (refactorized
    from an earlier solution's basis).
    """

    x: np.ndarray
    value: float
    basis: tuple[int, ...]
    at_upper: tuple[int, ...]
    pivots: int
    flips: int
    start: str
    _tableau: _Tableau | None = field(default=None, repr=False)

    def __iter__(self):
        return iter((self.x, self.value))


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row] / T[row, col]
    T -= T[:, col, None] * pivot_row
    T[row] = pivot_row
    basis[row] = col


def _weights(T: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact steepest-edge weights 1 + ||column||^2 of the tableau body,
    into ``out`` when given."""
    body = T[:-1, :-1]
    out = np.einsum("ij,ij->j", body, body, out=out)
    out += 1.0
    return out


def _complement_row(T, at_upper, u, row: int, col: int) -> None:
    """Substitute u_col - y for the basic variable ``col`` of ``row``."""
    T[row] *= -1.0
    T[row, col] = 1.0
    T[row, -1] += u[col]
    at_upper[col] = not at_upper[col]


def _exchange(T, basis, at_upper, u, w, row: int, col: int) -> None:
    """Pivot ``col`` into the basis at ``row`` and recompute the weights."""
    _pivot(T, basis, row, col)
    if at_upper[col]:
        _complement_row(T, at_upper, u, row, col)
    _weights(T, out=w)


def _run_simplex(T, basis, at_upper, u, w) -> tuple[int, int]:
    """Drive the tableau to optimality in place; returns (pivots, flips).

    The objective row T[-1] holds z_j - c_j for a maximization; a column
    with T[-1, j] < -_TOL improves the objective.  ``u`` holds the upper
    bound of every column (after the shift to lo = 0) and of every index the
    basis may hold; ``at_upper`` marks the complemented columns.
    """
    m = T.shape[0] - 1
    ncols = w.size
    reduced = T[-1, :ncols]
    rhs = T[:m, -1]
    basic_upper = u[basis]
    ratios = np.empty(m)
    pivots = flips = degenerate = 0
    for _ in range(20000 * (ncols + m)):
        eligible = reduced < -_TOL
        if degenerate < _DEGENERATE_RUN:
            score = np.where(eligible, reduced, 0.0)
            score *= score
            score /= w
            col = int(score.argmax())
        else:
            col = int(eligible.argmax())
        if not eligible[col]:
            return pivots, flips
        # A basic variable falls to 0 on a positive entry of the column and
        # rises to its upper bound on a negative one.
        a = T[:m, col]
        size = np.abs(a)
        room = np.where(a > 0.0, rhs, basic_upper - rhs)
        ratios[:] = np.inf
        np.divide(room, size, out=ratios, where=size > _TOL)
        least = ratios.min() if m else np.inf
        bound = u[col]
        if bound <= least:
            if bound == np.inf:
                raise LPUnboundedError("LP unbounded")
            # Bound flip: complement the entering column; the basis stays.
            degenerate = degenerate + 1 if bound <= _TOL else 0
            T[:, -1] -= T[:, col] * bound
            T[:, col] *= -1.0
            at_upper[col] = not at_upper[col]
            flips += 1
            continue
        tied = (ratios <= least + _TOL).nonzero()[0]
        row = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
        degenerate = degenerate + 1 if least <= _TOL else 0
        if a[row] < 0.0:
            _complement_row(T, at_upper, u, row, int(basis[row]))
        _exchange(T, basis, at_upper, u, w, row, col)
        basic_upper[row] = bound
        pivots += 1
    raise RuntimeError("simplex exceeded its pivot budget")


def _cold_start(A: np.ndarray, b: np.ndarray, u: np.ndarray):
    """A feasible tableau, basis, bound flags and weights for A y <= b,
    0 <= y <= u, and the phase 1 pivot and flip counts.  With b >= 0 no row
    is flipped and phase 1 stops at once on the slack basis."""
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
    at_upper = np.zeros(ncols, dtype=bool)
    w = _weights(T)
    # Phase 1: maximize -sum(artificials).  With artificials basic the
    # priced objective row is -sum of their rows, except on the artificial
    # columns themselves where z_j - c_j = 0.
    T[-1] = -T[art_rows].sum(axis=0)
    T[-1, n + m:ncols] = 0.0
    pivots, flips = _run_simplex(T, basis, at_upper, u, w)
    if T[-1, -1] < -1e-7:
        raise LPInfeasibleError("LP infeasible")
    # Pivot any artificial still basic (at zero level) out on a real column.
    # A row with no real pivot keeps its artificial; such a basis is not
    # reused for warm starts.
    for i in np.flatnonzero(basis >= n + m):
        real = np.flatnonzero(np.abs(T[i, :n + m]) > _TOL)
        if real.size:
            _exchange(T, basis, at_upper, u, w, i, int(real[0]))
            pivots += 1
    T = np.delete(T, np.s_[n + m:ncols], axis=1)
    return T, basis, at_upper[:n + m], w[:n + m], pivots, flips


def _warm_start(A: np.ndarray, b: np.ndarray, u: np.ndarray, basis, at_upper):
    """Like :func:`_cold_start`, from a given basis and set of columns at
    their upper bound; None when they are not a feasible basis of
    A y <= b, 0 <= y <= u."""
    m, n = A.shape
    basis = np.asarray(basis, dtype=np.intp)
    upper = np.asarray(at_upper, dtype=np.intp)
    if (basis.shape != (m,) or np.unique(basis).size != m
            or (m and (basis.min() < 0 or basis.max() >= n + m))
            or (upper.size and (upper.min() < 0 or upper.max() >= n + m))):
        return None
    flags = np.zeros(n + m, dtype=bool)
    flags[upper] = True
    if np.any(flags[basis]) or not np.all(np.isfinite(u[upper])):
        return None
    b = b - A[:, flags[:n]] @ u[:n][flags[:n]]
    M = np.hstack([A, np.eye(m), b[:, None]])
    # The basic columns come out as the identity: solve for the others only.
    rest = np.ones(n + m + 1, dtype=bool)
    rest[basis] = False
    try:
        solved = np.linalg.solve(M[:, basis], M[:, rest])
    except np.linalg.LinAlgError:
        return None
    values = solved[:, -1]
    if (not np.all(np.isfinite(solved)) or np.any(values < -_TOL)
            or np.any(values > u[basis] + _TOL)):
        return None
    T = np.zeros((m + 1, n + m + 1))
    T[:m, rest] = solved
    T[np.arange(m), basis] = 1.0
    np.clip(T[:m, -1], 0.0, u[basis], out=T[:m, -1])
    T[:m, :-1][:, flags] *= -1.0
    return T, basis, flags, _weights(T), 0, 0


def _phase2(T, basis, at_upper, u, w, c: np.ndarray) -> tuple[int, int]:
    """Price the objective ``c`` (max) for the tableau's basis and bound
    flags and run the simplex to optimality; returns (pivots, flips)."""
    m = T.shape[0] - 1
    ncols = w.size
    cost = np.zeros(ncols + m)   # room for artificials left basic at zero
    cost[:c.size] = c
    # A complemented column y' = u - y carries cost -c and adds c u.
    signed = np.where(at_upper, -cost[:ncols], cost[:ncols])
    T[-1] = cost[basis] @ T[:m]
    T[-1, :ncols] -= signed
    T[-1, -1] += cost[:ncols][at_upper] @ u[:ncols][at_upper]
    return _run_simplex(T, basis, at_upper, u, w)


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
    m = lp.rhs.shape[0]
    c = lp.objective if lp.sense == "max" else -lp.objective
    if basis is not None and not isinstance(basis, LPSolution):
        raise TypeError(f"basis must be an earlier LPSolution, "
                        f"got {type(basis).__name__}")
    kept = None if basis is None else basis._tableau
    if kept is not None and kept.fits(lp):
        T, basic, upper, w = (a.copy() for a in
                              (kept.T, kept.basis, kept.at_upper, kept.weights))
        u = kept.u
        start, pivots, flips, carried = "tableau", 0, 0, kept.carried
    else:
        # Upper bounds after the shift y = x - lo: the structural columns,
        # then the slacks and the artificials a phase 1 may leave basic.
        u = _read_only(np.concatenate([lp.hi - lp.lo, np.full(2 * m, np.inf)]))
        b = lp.rhs - lp.normals @ lp.lo
        warm = None if basis is None else _warm_start(lp.normals, b, u, basis.basis,
                                                      basis.at_upper)
        start = "cold" if warm is None else "basis"
        T, basic, upper, w, pivots, flips = (
            warm if warm is not None else _cold_start(lp.normals, b, u))
        carried = 0
    more_pivots, more_flips = _phase2(T, basic, upper, u, w, c)
    pivots += more_pivots
    flips += more_flips
    carried += pivots

    values = T[:-1, -1]
    y = np.zeros(u.size)
    y[basic] = values
    x = np.where(upper[:n], lp.hi, lp.lo + y[:n])
    tableau = None
    if carried < m and values.min() >= -_TOL and (values - u[basic]).max() <= _TOL:
        constraints = kept.constraints if start == "tableau" else tuple(
            _read_only(a.copy()) for a in (lp.normals, lp.rhs, lp.lo, lp.hi))
        tableau = _Tableau(_read_only(T), _read_only(basic), _read_only(upper),
                           _read_only(w), constraints, u, carried)
    return LPSolution(x, float(lp.objective @ x), tuple(basic.tolist()),
                      tuple(np.flatnonzero(upper).tolist()), pivots, flips, start,
                      tableau)
