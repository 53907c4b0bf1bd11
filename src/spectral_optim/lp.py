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

One loop runs the simplex, on a stack of tableaux of one shape.  Each step
prices every tableau that can still improve, lets each one flip bounds
until it has a pivot, and takes all those pivots in one rank-1 update of
the stack; a tableau at its optimum moves behind the others and no later
step touches it.  Every rule above is applied per tableau, and so is the
arithmetic: products and differences are elementwise, with no fused
multiply-add, and each sum over one tableau (its weights, its priced
objective row) is taken as a lone solve takes it.  A program solved in a
stack therefore takes the same pivots and flips and ends at the same x, to
the last bit, as when it is solved alone.
:func:`lp_optimize` solves a stack of one; a family of halfspace polytopes
(:mod:`.rows`) solves all of its sets of one shape in one stack per call, at
the cost of the slowest one's steps, not the sum of them.  Stacks hold at
most ``_CHUNK_ENTRIES`` = 2^20 tableau entries (8 MB), beside as much room
for the update, whatever the number of programs.

A solve may start from an earlier :class:`LPSolution` of the same
constraints, where only the objective or the sense differ.  Its optimal
basis is still primal feasible, so phase 2 restarts there, usually a pivot
or two from the optimum, in one of two ways:

* *tableau*: the solution keeps its optimal tableau and weights, read-only.
  The new solve copies them into its stack, reprices the objective row for
  the new objective and pivots on: no linear solve and no rebuild.  This
  needs the constraints to be checked identical, not assumed: normals, rhs,
  lo and hi must be the very arrays the tableau was built from, read-only
  all the way down (as a polytope set's own program is), or else equal in
  content to the read-only copy the tableau then keeps.
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
(m + 1)(n + m + 1) floats: for a polytope in the unit box of R^d cut by m
halfspaces that is 31 KB at d=25, m=50, 61 KB at d=100 and 102 KB at d=200
(m=50).  It is a view of the stack its solve ran in, so the stack lives as
long as one of its tableaux is kept.  A program whose arrays are not
read-only also has its constraints copied, (m + 2) n + m floats: 11, 42
and 84 KB there.  Where several vertices are optimal, which one is returned
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
# Tableau entries solved in lockstep at once: programs are stacked in chunks
# of at most this many entries (at least one program per chunk), so neither
# the stack nor the temporary of its rank-1 update grows with the number of
# programs.
_CHUNK_ENTRIES = 1 << 20


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> bool:
    """Whether ``a`` and every array it is a view of are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An optimal tableau kept for the next solve, with its basis, the
    columns held at their upper bound, the steepest-edge weights, the
    constraints it was built from, their upper bounds and the pivots it has
    been carried through since it was last built cold or refactorized.
    Every array is read-only: a solve that restarts here works on copies.
    The constraints are the program's own arrays where those were read-only
    all the way down, else read-only copies of them."""

    T: np.ndarray
    basis: np.ndarray
    at_upper: np.ndarray
    weights: np.ndarray
    constraints: tuple[np.ndarray, ...]   # normals, rhs, lo, hi
    u: np.ndarray                         # upper bounds after the shift to lo = 0
    carried: int

    def fits(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has exactly the constraints this tableau encodes:
        the same read-only arrays, or arrays of equal content."""
        return all((mine is theirs and not mine.flags.writeable)
                   or np.array_equal(mine, theirs) for mine, theirs in
                   zip(self.constraints, (lp.normals, lp.rhs, lp.lo, lp.hi)))


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


# The kernels below work on a stack of k tableaux of one shape: T is
# (k, m + 1, ncols + 1), basis (k, m), at_upper and the weights w (k, ncols),
# u (k, ncols + m).  Row and column arguments hold one index per tableau.
# The loop calls the ufuncs' own reductions: the array methods wrap each of
# its few-microsecond calls in Python.
_any, _all, _min = np.logical_or.reduce, np.logical_and.reduce, np.minimum.reduce


def _pivot(T, basis, row, col, out=None) -> None:
    """Pivot column col[s] into the basis at row row[s] of every tableau
    T[s]; ``out`` is room for the rank-1 update, of T's shape."""
    s = np.arange(T.shape[0])
    pivot_row = T[s, row] / T[s, row, col][:, None]
    # One rounding per product, as a broadcast multiply, but faster; einsum
    # writes +0.0 where that product is -0.0, and zero signs decide no
    # comparison.  The subtraction is a rounding of its own (no fused
    # multiply-add).
    T -= np.einsum("ki,kj->kij", T[s, :, col], pivot_row, out=out)
    T[s, row] = pivot_row
    basis[s, row] = col


def _weights(T: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact steepest-edge weights 1 + ||column||^2 of each tableau body,
    into ``out`` when given."""
    body = T[:, :-1, :-1]
    out = np.einsum("kij,kij->kj", body, body, out=out)
    out += 1.0
    return out


def _complement_row(T, at_upper, u, s, row, col) -> None:
    """Substitute u_col - y for the basic variable col[i] of row row[i] of
    tableau s[i]."""
    T[s, row] *= -1.0
    T[s, row, col] = 1.0
    T[s, row, -1] += u[s, col]
    at_upper[s, col] = ~at_upper[s, col]


def _exchange(T, basis, at_upper, u, w, row, col, out=None) -> None:
    """Pivot col[s] into the basis of every tableau at row[s] and recompute
    the weights."""
    _pivot(T, basis, row, col, out)
    up = at_upper[np.arange(col.size), col].nonzero()[0]
    if up.size:
        _complement_row(T, at_upper, u, up, row[up], col[up])
    _weights(T, out=w)


def _run_simplex(T, basis, at_upper, u, w):
    """Drive every tableau of the stack to optimality in place, in
    lockstep; returns (pivots, flips, order), per position in the stack.

    The objective row T[s, -1] holds z_j - c_j for a maximization; a column
    with T[s, -1, j] < -_TOL improves the objective.  ``u`` holds the upper
    bound of every column (after the shift to lo = 0) and of every index the
    basis may hold; ``at_upper`` marks the complemented columns.  Each step
    prices every tableau that can still improve, flips bounds until each
    one has a pivot, and takes all those pivots in one rank-1 update.  A
    tableau at its optimum moves behind the active ones, so no later step
    touches it; ``order[p]`` is the tableau that ends at position p.
    """
    k, m = basis.shape
    ncols = w.shape[1]
    positions = np.arange(k)
    # Per-position counters and the pending pivot (row, column and the
    # entering column's upper bound), as views of two arrays, so that a
    # move of positions is one copy per array.
    counters = np.zeros((k, 6), dtype=np.intp)
    order, pivots, flips, degenerate, rows, cols = counters.T
    order[:] = positions
    bounds = np.empty((k, m + 1))
    basic_upper, entering_upper = bounds[:, :m], bounds[:, m]
    basic_upper[:] = u[positions[:, None], basis]
    per_position = (T, basis, at_upper, u, w, counters, bounds)
    room_for_update = np.empty_like(T)
    room_for_ratios = np.empty((k, m))
    no_row = u.shape[1]   # above every index a basis holds
    active = k
    budget = 20000 * (ncols + m)
    while active:
        done = []
        # The tableaux still to price: ``todo`` holds their positions, and
        # ``sel`` selects them, as the slice of the active prefix (views, no
        # copies) until a tableau drops out of this step.
        todo, sel = positions[:active], slice(0, active)
        while todo.size:
            budget -= 1
            if budget < 0:
                raise RuntimeError("simplex exceeded its pivot budget")
            ahead = positions[:todo.size]
            reduced = T[sel, -1, :ncols]
            eligible = reduced < -_TOL
            score = np.where(eligible, reduced, 0.0)
            score *= score
            score /= w[sel]
            col = score.argmax(axis=1)
            bland = degenerate[sel] >= _DEGENERATE_RUN
            if _any(bland):
                col[bland] = eligible[bland].argmax(axis=1)
            live = eligible[ahead, col]
            if not _all(live):
                done.append(todo[~live])
                todo = sel = todo[live]
                col = col[live]
                ahead = positions[:todo.size]
                if not todo.size:
                    break
            # A basic variable falls to 0 on a positive entry of the column
            # and rises to its upper bound on a negative one.
            a = T[todo, :m, col]
            rhs = T[sel, :m, -1]
            size = np.abs(a)
            room = np.where(a > 0.0, rhs, basic_upper[sel] - rhs)
            ratios = room_for_ratios[:todo.size]
            ratios.fill(np.inf)
            np.divide(room, size, out=ratios, where=size > _TOL)
            least = _min(ratios, axis=1, initial=np.inf)
            bound = u[todo, col]
            flip = bound <= least
            flipped = todo[flip]
            if flipped.size:
                if np.isinf(bound[flip]).any():
                    raise LPUnboundedError("LP unbounded")
                # Bound flip: complement the entering column; the basis stays.
                fc, fb = col[flip], bound[flip]
                degenerate[flipped] = np.where(fb <= _TOL, degenerate[flipped] + 1, 0)
                T[flipped, :, -1] -= T[flipped, :, fc] * fb[:, None]
                T[flipped, :, fc] *= -1.0
                at_upper[flipped, fc] = ~at_upper[flipped, fc]
                flips[flipped] += 1
                go = ~flip
                todo = sel = todo[go]
                col, a, ratios, least, bound = col[go], a[go], ratios[go], least[go], bound[go]
                ahead = positions[:todo.size]
            if todo.size:
                tied = ratios <= least[:, None] + _TOL
                row = np.where(tied, basis[sel], no_row).argmin(axis=1)
                degenerate[sel] = np.where(least <= _TOL, degenerate[sel] + 1, 0)
                rows[sel], cols[sel], entering_upper[sel] = row, col, bound
                leaving = a[ahead, row] < 0.0
                if _any(leaving):
                    q, qr = todo[leaving], row[leaving]
                    _complement_row(T, at_upper, u, q, qr, basis[q, qr])
            todo = sel = flipped
        if done:
            # Move the tableaux at their optimum behind the active ones: each
            # swaps places with the last active one, in one move per array.
            source = list(range(active))
            for position in sorted(np.concatenate(done).tolist(), reverse=True):
                active -= 1
                source[position], source[active] = source[active], source[position]
            moved = [p for p, q in enumerate(source) if p != q]
            if moved:
                sources = [source[p] for p in moved]
                for arr in per_position:
                    arr[moved] = arr[sources]
        if active:
            _exchange(T[:active], basis[:active], at_upper[:active], u[:active],
                      w[:active], rows[:active], cols[:active], room_for_update[:active])
            basic_upper[positions[:active], rows[:active]] = entering_upper[:active]
            pivots[:active] += 1
    return pivots, flips, order


def _cold_start(A: np.ndarray, b: np.ndarray, u: np.ndarray):
    """A feasible tableau, basis, bound flags and weights for A y <= b,
    0 <= y <= u, and the phase 1 pivot and flip counts.  With b >= 0 no row
    is flipped, and the slack basis is feasible without a phase 1."""
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    # Columns: n structural, m slack/surplus, then one artificial per flipped
    # row.  Flipped rows are >= constraints: surplus coefficient -1.
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    ncols = n + m + n_art
    T = np.zeros((1, m + 1, ncols + 1))
    T[0, :m, :n] = A
    T[0, np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    T[0, art_rows, n + m + np.arange(n_art)] = 1.0
    T[0, :m, -1] = b
    basis = np.arange(n, n + m)[None]
    basis[0, art_rows] = n + m + np.arange(n_art)
    at_upper = np.zeros((1, ncols), dtype=bool)
    w = _weights(T)
    if not n_art:
        return T[0], basis[0], at_upper[0], w[0], 0, 0
    # Phase 1: maximize -sum(artificials).  With artificials basic the
    # priced objective row is -sum of their rows, except on the artificial
    # columns themselves where z_j - c_j = 0.
    T[0, -1] = -T[0, art_rows].sum(axis=0)
    T[0, -1, n + m:ncols] = 0.0
    pivots, flips, _ = _run_simplex(T, basis, at_upper, u[None], w)
    pivots, flips = int(pivots[0]), int(flips[0])
    if T[0, -1, -1] < -1e-7:
        raise LPInfeasibleError("LP infeasible")
    # Pivot any artificial still basic (at zero level) out on a real column.
    # A row with no real pivot keeps its artificial; such a basis is not
    # reused for warm starts.
    for i in np.flatnonzero(basis[0] >= n + m):
        real = np.flatnonzero(np.abs(T[0, i, :n + m]) > _TOL)
        if real.size:
            _exchange(T, basis, at_upper, u[None], w, np.array([i]), real[:1])
            pivots += 1
    T = np.delete(T[0], np.s_[n + m:ncols], axis=1)
    return T, basis[0], at_upper[0, :n + m], w[0, :n + m], pivots, flips


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
    return T, basis, flags, _weights(T[None])[0], 0, 0


def _price(T, basis, at_upper, u, c: np.ndarray) -> None:
    """Price the objectives c[s] (max) for each tableau's basis and bound
    flags."""
    m = basis.shape[1]
    ncols = at_upper.shape[1]
    cost = np.zeros((c.shape[0], ncols + m))   # room for artificials left basic at zero
    cost[:, :c.shape[1]] = c
    # A complemented column y' = u - y carries cost -c and adds c u.
    signed = np.where(at_upper, -cost[:, :ncols], cost[:, :ncols])
    basic_cost = cost[np.arange(basis.shape[0])[:, None], basis]
    T[:, -1] = np.matmul(basic_cost[:, None], T[:, :m])[:, 0]
    T[:, -1, :ncols] -= signed
    for s in np.flatnonzero(at_upper.any(axis=1)):
        up = at_upper[s]
        T[s, -1, -1] += cost[s, :ncols][up] @ u[s, :ncols][up]


def _solve_stack(problems):
    """Solve each (program, earlier) pair of ``problems``, where earlier is
    an :class:`LPSolution` of the same constraints or None, and yield the
    solutions in order (see :func:`lp_optimize`).

    Runs of programs of one shape are solved in lockstep, in chunks of at
    most ``_CHUNK_ENTRIES`` tableau entries.  A pair is taken from
    ``problems`` only as its chunk is formed, and a chunk's solutions are
    yielded before the next chunk is solved, so a caller that stores each
    solution as it comes frees the earlier ones chunk by chunk.
    """
    chunk, shape, room = [], None, 0
    for lp, earlier in problems:
        m, n = lp.normals.shape
        if (m, n) != shape or len(chunk) == room:
            if chunk:
                yield from _solve_chunk(chunk)
            chunk, shape = [], (m, n)
            room = max(1, _CHUNK_ENTRIES // ((m + 1) * (n + m + 1)))
        chunk.append((lp, earlier))
    if chunk:
        yield from _solve_chunk(chunk)


def _solve_chunk(problems) -> list[LPSolution]:
    """The solutions of (program, earlier) pairs whose programs have one
    shape, solved as one stack."""
    k = len(problems)
    m, n = problems[0][0].normals.shape
    T = np.empty((k, m + 1, n + m + 1))
    basis = np.empty((k, m), dtype=np.intp)
    at_upper = np.empty((k, n + m), dtype=bool)
    w = np.empty((k, n + m))
    # Upper bounds after the shift y = x - lo: the structural columns, then
    # the slacks and the artificials a phase 1 may leave basic.
    u = np.empty((k, n + 2 * m))
    pivots = np.zeros(k, dtype=np.intp)
    flips = np.zeros(k, dtype=np.intp)
    carried = np.zeros(k, dtype=np.intp)
    starts, constraints = [], []
    for s, (lp, earlier) in enumerate(problems):
        kept = None if earlier is None else earlier._tableau
        if kept is not None and kept.fits(lp):
            T[s], basis[s], at_upper[s], w[s], u[s] = (
                kept.T, kept.basis, kept.at_upper, kept.weights, kept.u)
            carried[s] = kept.carried
            starts.append("tableau")
            constraints.append(kept.constraints)
            continue
        u[s, :n] = lp.hi - lp.lo
        u[s, n:] = np.inf
        b = lp.rhs - lp.normals @ lp.lo
        warm = None if earlier is None else _warm_start(
            lp.normals, b, u[s], earlier.basis, earlier.at_upper)
        starts.append("cold" if warm is None else "basis")
        constraints.append(tuple(a if _frozen(a) else _read_only(a.copy())
                                 for a in (lp.normals, lp.rhs, lp.lo, lp.hi)))
        T[s], basis[s], at_upper[s], w[s], pivots[s], flips[s] = (
            warm if warm is not None else _cold_start(lp.normals, b, u[s]))
    c = np.array([lp.objective if lp.sense == "max" else -lp.objective
                  for lp, _ in problems]).reshape(k, n)
    _price(T, basis, at_upper, u, c)
    more_pivots, more_flips, order = _run_simplex(T, basis, at_upper, u, w)
    # From here on every per-program array is read by position in the stack.
    pivots, flips = pivots[order] + more_pivots, flips[order] + more_flips
    carried = carried[order] + pivots

    values = T[:, :m, -1]
    positions = np.arange(k)[:, None]
    y = np.zeros(u.shape)
    y[positions, basis] = values
    lo = np.array([problems[s][0].lo for s in order]).reshape(k, n)
    hi = np.array([problems[s][0].hi for s in order]).reshape(k, n)
    x = np.where(at_upper[:, :n], hi, lo + y[:, :n])
    keep = ((carried < m) & (_min(values, axis=1, initial=np.inf) >= -_TOL)
            & (np.maximum.reduce(values - u[positions, basis], axis=1, initial=-np.inf)
               <= _TOL))
    for a in (T, basis, at_upper, w, u):
        _read_only(a)
    bases = basis.tolist()
    solutions = [None] * k
    for p, s in enumerate(order.tolist()):
        lp = problems[s][0]
        tableau = (_Tableau(T[p], basis[p], at_upper[p], w[p], constraints[s], u[p],
                            int(carried[p])) if keep[p] else None)
        solutions[s] = LPSolution(x[p], float(lp.objective @ x[p]), tuple(bases[p]),
                                  tuple(at_upper[p].nonzero()[0].tolist()),
                                  int(pivots[p]), int(flips[p]), starts[s], tableau)
    return solutions


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
    if basis is not None and not isinstance(basis, LPSolution):
        raise TypeError(f"basis must be an earlier LPSolution, "
                        f"got {type(basis).__name__}")
    (solution,) = _solve_stack([(lp, basis)])
    return solution
