"""Row uncertainty sets and product families of non-negative matrices.

A product family is a set of d x d matrices assembled row by row: row i is
drawn independently from its own uncertainty set F_i of non-negative
d-vectors.  Because the rows decouple, optimizing the spectral radius over
the family reduces to repeatedly answering one question per row: which members
of F_i maximize and minimize the inner product with a given non-negative
direction v?  :meth:`ProductFamily.extremes` answers both for every row in one
call: it validates v once and fills the maximizing and the minimizing matrix.

Finite sets, L1 balls, degree sets and halfspace polytopes each have one
kernel, written for a stack of k sets of their kind: it finds the best and
the worst row of every set of the stack at once.  A set's own oracle runs
it on a stack of one, over views of the set's arrays.  A family runs it
once for all of its sets where they are of one such kind, chosen by set
type when the family is made:

* a family of L1 balls copies its centers into one (d, d) array and its
  radii into a column (``apps.stabilization_family`` makes its one copy of
  A that array, with the centers its rows);
* a family of degree sets keeps its degrees as two columns, one per sense;
* a family from ``gen.generate_random_family`` owns the read-only
  (d, N, d) block whose slices are its finite sets, which the generator
  hands over with the family.  A small block is scanned whole on every
  call.  A large one keeps bounds on its rows' products: its row L1 norms,
  which answer the all-ones vector of a start matrix and which the
  generator sums as it writes the rows, and per-row intervals for the last
  call's vector, so a call rescans only the rows that can still be a set's
  extreme (see :class:`_FiniteBatch`).  That costs three (d, N) arrays and
  one chunk of gathered rows.  Its copies and pickles are rebuilt from the
  block, with no bounds, and make the norms as block @ 1;
* a family of halfspace polytopes solves the LPs of all of its sets in one
  lockstep simplex per call (see :mod:`.lp`): each step prices every set
  that can still improve and pivots them all in one update, so a call
  costs about as many steps as its slowest set, not the sum of them.  Sets
  of one number of normals share a stack; the batch keeps nothing but the
  sets, so it costs nothing until the first call.

Every other family (mixed set types, subclasses, finite sets built by hand
or read from a file) runs the kernels one set at a time, with the same
results to the last bit, but for a large generated block: there, of two
rows whose products agree to within rounding, either may be the pick.  A
family of L1 balls also tests a matrix's membership in one pass.  The
kernels are exact:

* :class:`FiniteSet` scans an explicit list of rows: one product ``rows @ v``
  gives both the argmax and the argmin.  A v whose largest component is
  below 1/2 is first scaled by the power of two that lifts it to [1/2, 1);
  the scaling is exact, so it keeps every comparison, but products of a
  tiny v no longer underflow into false ties.
* :class:`GraphDegreeSet` is the 0/1 rows with a row-sum constraint; the
  optimum puts ones on the largest (or smallest) components of v, those
  whose rank in the stable order of v is below the degree.
* :class:`L1Ball` moves budget from a non-negative center row; the maximum
  spends everything on the single best coordinate, the minimum removes mass
  from the most expensive coordinates first.
* :class:`HalfspacePoly` is a polytope cut from the unit box by non-negative
  halfspaces; the maximum is a small LP solved to a vertex, and the minimum
  is the origin.  The set owns its program: its normals are read-only (a
  copy, unless the given array is read-only and owns its memory, as the
  generator's are), and it builds and validates the program once, on its
  first solve; each solve copies that program with v as the objective.
  The set keeps its last :class:`~.lp.LPSolution`, and the next solve
  warm-starts from it: only v changes, so its optimal tableau is repriced
  for the new v and pivoted on, with no linear solve and no check of the
  constraints, which no one else can change.  It refactorizes from the
  basis once the tableau has been carried through as many pivots as it
  has rows, or shows a basic value outside its bounds (see :mod:`.lp`).
  The unit box is variable bounds there, not rows, so the kept tableau
  costs (m + 1)(m + d + 1) floats for m normals: 31 KB at d=25, m=50.
  Copies and pickles of a set are rebuilt from its normals and start
  cold.  The LP runs on every visit, so selecting the minimum alone also
  solves it and moves the warm start.
* :class:`Ellipsoid` is an axis-aligned ellipsoid strictly inside the
  positive orthant, with a closed-form touching point; one scaled direction
  gives both extremes.

The graph and L1 kernels order the components of v with a stable sort.  The
sort is made at most once per call, on first use, and shared by every set
of the family.  :meth:`RowSet.best_row` and :meth:`ProductFamily.best_matrix`
return one side of the same kernels' pair.

Ties are broken deterministically toward the lowest index so that runs are
reproducible: the first maximal (minimal) finite row, the lowest indices
among equal components of v, the first coordinate of largest v for the L1
maximum.  The exception is the LP-backed maximum: where several vertices of
a polytope are optimal, the one returned depends on the basis the set's
previous solve ended at.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_entries, check_count, check_vector
# No set calls lp_optimize (polytopes solve through _solve_stack); the name
# stays because the benchmark's tracing (perfbench/tracing.py) replaces it.
from .lp import LinearProgram, LPSolution, _solve_stack, lp_optimize  # noqa: F401

__all__ = [
    "RowSet",
    "FiniteSet",
    "GraphDegreeSet",
    "L1Ball",
    "HalfspacePoly",
    "Ellipsoid",
    "ProductFamily",
]


def _check_direction(direction: str) -> None:
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")


class _Objective:
    """A validated objective v with its stable orders and its lifted copy,
    each made on first use and shared by every set the oracle call visits."""

    __slots__ = ("v", "_descending", "_ascending", "_lifted")

    def __init__(self, v, d: int):
        v = check_vector(v, d)
        if not np.any(v > 0.0):
            raise ValueError("degenerate objective: v has no positive component")
        self.v = v
        self._descending = None
        self._ascending = None
        self._lifted = None

    def descending(self) -> np.ndarray:
        """Indices by decreasing v, equal components in index order."""
        if self._descending is None:
            self._descending = np.argsort(-self.v, kind="stable")
        return self._descending

    def ascending(self) -> np.ndarray:
        """Indices by increasing v, equal components in index order."""
        if self._ascending is None:
            self._ascending = np.argsort(self.v, kind="stable")
        return self._ascending

    def lifted(self) -> np.ndarray:
        """v times the power of two that brings its largest component to
        [1/2, 1), when that component is smaller."""
        if self._lifted is None:
            exponent = int(np.frexp(self.v.max())[1])
            self._lifted = np.ldexp(self.v, -exponent) if exponent < 0 else self.v
        return self._lifted


class RowSet(abc.ABC):
    """A set of admissible non-negative rows of fixed length."""

    @property
    @abc.abstractmethod
    def d(self) -> int:
        """Ambient row length."""

    def best_row(self, v, direction: str = "max") -> np.ndarray:
        """Row of the set with extremal inner product against v.

        ``v`` must be non-negative and nonzero.  Ties are resolved
        deterministically (lowest index wins).
        """
        _check_direction(direction)
        up, down = self._extremes(_Objective(v, self.d))
        return up if direction == "max" else down

    @abc.abstractmethod
    def _extremes(self, obj: _Objective) -> tuple[np.ndarray, np.ndarray]:
        """The maximizing and the minimizing row against ``obj.v``, as new
        arrays."""

    @abc.abstractmethod
    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether x belongs to the set up to tolerance tol."""

    @abc.abstractmethod
    def entry_range(self) -> tuple[float, float]:
        """Smallest and largest entry value over all rows and coordinates."""


@dataclass(frozen=True, eq=False)
class FiniteSet(RowSet):
    """An explicit finite list of non-negative rows (N x d array)."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise ValueError(f"rows must be a non-empty 2-D array, got shape {r.shape}")
        _check_entries(r, "rows")
        object.__setattr__(self, "rows", r)

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def _extremes(self, obj):
        _, up, down = _scan(self.rows[None], obj.lifted())
        return self.rows[up[0]], self.rows[down[0]]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            return False
        return bool(np.any(np.max(np.abs(self.rows - x), axis=1) <= tol))

    def entry_range(self):
        return float(self.rows.min()), float(self.rows.max())


@dataclass(frozen=True)
class GraphDegreeSet(RowSet):
    """0/1 rows of length d with row sum <= n ('at_most') or >= n ('at_least').

    Models one vertex of a directed graph whose out-edges are free subject to
    a prescribed degree budget.
    """

    dim: int
    n: int
    sense: str = "at_most"

    def __post_init__(self):
        check_count(self.dim, "dim")
        if check_count(self.n, "n") > self.dim:
            raise ValueError(f"need 1 <= n <= dim, got n={self.n}, dim={self.dim}")
        if self.sense not in ("at_most", "at_least"):
            raise ValueError(f"sense must be 'at_most' or 'at_least', got {self.sense!r}")

    @property
    def d(self) -> int:
        return self.dim

    def _extremes(self, obj):
        up, down = _DegreeBatch((self,)).extremes(obj)
        return up[0], down[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        r = np.rint(x)
        if np.max(np.abs(x - r)) > tol or np.any((r != 0.0) & (r != 1.0)):
            return False
        total = int(r.sum())
        return total <= self.n if self.sense == "at_most" else total >= self.n

    def entry_range(self):
        lo = 1.0 if (self.sense == "at_least" and self.n == self.dim) else 0.0
        return lo, 1.0


@dataclass(frozen=True, eq=False)
class L1Ball(RowSet):
    """Rows within L1 distance ``radius`` of a non-negative center row,
    intersected with the non-negative orthant."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = check_vector(self.center)
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise ValueError("radius must be finite and non-negative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def _as_batch(self) -> _L1Batch:
        return _L1Batch(self.center[None], np.array([[self.radius]]))

    def _extremes(self, obj):
        up, down = self._as_batch().extremes(obj)
        return up[0], down[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == (self.d,) and self._as_batch().contains(x[None], tol)

    def entry_range(self):
        lo = float(np.min(np.maximum(self.center - self.radius, 0.0)))
        hi = float(np.max(self.center + self.radius))
        return lo, hi


@dataclass(frozen=True, eq=False)
class HalfspacePoly(RowSet):
    """{x : 0 <= x <= 1, (normal_j, x) <= 1 for every j} with normals >= 0.

    The set owns its program: ``normals`` is read-only, a copy of the
    given array unless that one is read-only and owns its memory (as
    ``gen`` makes them), so no one can change the constraints that its kept
    tableau encodes (see :mod:`.lp`).  Copies and pickles are rebuilt from
    the normals, with no warm start."""

    normals: np.ndarray
    _lp: LinearProgram | None = field(default=None, init=False, repr=False)
    _last: LPSolution | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        nm = np.asarray(self.normals, dtype=float)
        if nm.ndim != 2 or nm.shape[1] < 1:
            raise ValueError(f"normals must be a 2-D array, got shape {nm.shape}")
        _check_entries(nm, "normals")
        if nm.flags.writeable or not nm.flags.owndata:
            nm = nm.copy()
            nm.flags.writeable = False
        object.__setattr__(self, "normals", nm)

    def __reduce__(self):
        return type(self), (self.normals,)

    @property
    def d(self) -> int:
        return self.normals.shape[1]

    def _program(self, v: np.ndarray) -> LinearProgram:
        """The set's program with objective v."""
        if self._lp is None:
            # Built and validated on the first solve, not with the set; the
            # constant rhs and box are read-only.  Two threads may both
            # build it: the programs are equal, and either one serves.
            m, d = self.normals.shape
            rhs, lo, hi = np.ones(m), np.zeros(d), np.ones(d)
            for a in (rhs, lo, hi):
                a.flags.writeable = False
            object.__setattr__(self, "_lp", LinearProgram(
                objective=np.zeros(d), normals=self.normals, rhs=rhs, lo=lo, hi=hi))
        lp = copy.copy(self._lp)
        lp.objective = v
        return lp

    def _extremes(self, obj):
        up, down = _PolyBatch((self,)).extremes(obj)
        return up[0], down[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            return False
        if np.any(x < -tol) or np.any(x > 1.0 + tol):
            return False
        return bool(np.all(self.normals @ x <= 1.0 + tol))

    def entry_range(self):
        return 0.0, 1.0


@dataclass(frozen=True, eq=False)
class Ellipsoid(RowSet):
    """Axis-aligned ellipsoid {center + radius * diag(axes) u : ||u||_2 <= 1}
    strictly inside the positive orthant (center_i - radius * axes_i > 0)."""

    center: np.ndarray
    radius: float
    axes: np.ndarray

    def __post_init__(self):
        c = check_vector(self.center)
        a = np.asarray(self.axes, dtype=float)
        if a.shape != c.shape:
            raise ValueError("axes must match center length")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ValueError("axes must be finite and positive")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")
        if np.any(c - self.radius * a <= 0):
            raise ValueError("ellipsoid must lie strictly inside the positive orthant")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "axes", a)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def _extremes(self, obj):
        # Maximize (v, c + r D u) over ||u|| <= 1 with D = diag(axes): the
        # optimal u is Dv normalized, so the step is r * axes^2 * v scaled by
        # 1 / ||axes * v||; the minimum steps the other way.
        w = self.axes * obj.v
        step = self.radius * self.axes * w / float(np.linalg.norm(w))
        return self.center + step, self.center - step

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,) or np.any(x < -tol):
            return False
        u = (x - self.center) / (self.radius * self.axes)
        return bool(np.linalg.norm(u) <= 1.0 + tol)

    def entry_range(self):
        lo = float(np.min(self.center - self.radius * self.axes))
        hi = float(np.max(self.center + self.radius * self.axes))
        return lo, hi


def _ranks(order: np.ndarray) -> np.ndarray:
    """rank[j] is the position of index j in the permutation ``order``."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank


def _scan(block: np.ndarray, w: np.ndarray):
    """The products block @ w, and the first maximal and the first minimal
    row of each set."""
    dots = block @ w
    return dots, dots.argmax(axis=1), dots.argmin(axis=1)


# A block of fewer entries is scanned whole: below this the bound arithmetic
# costs more than it saves.  At 10^6 entries (d=100, N=100) a pruned run
# took as long as a scanned one, at 2 x 10^6 (d=200, N=50) 30% less.
_PRUNE_ENTRIES = 1_500_000
# The block is scanned whole when more than this share of its rows are
# candidates: a gathered row costs about three times a scanned one.
_PRUNE_SHARE = 0.25
# Bytes of candidate rows gathered per product.  Chunks of 0.5 MB ran
# faster than larger ones; the chunk is what a call adds to memory.
_CHUNK_BYTES = 1 << 19


class _FiniteBatch:
    """Finite sets of N rows each, stacked as one read-only (k, N, d) array.

    A block of fewer than ``_PRUNE_ENTRIES`` entries is scanned whole: one
    product, and argmax and argmin along the set axis.  A larger one keeps
    bounds on its rows' products and rescans only the rows that can still
    be a set's extreme.  It keeps the row L1 norms: the sums the generator
    made as it wrote the rows (see :func:`_finite_family`), else block @ 1,
    made on the first pruned call; and, from its last call, a copy of the
    lifted vector and an interval [lo, hi] per row that holds a computed
    product of the row with it.  A call with lifted w measures the largest
    rise and fall from each kept vector to w: from the all-ones vector,
    whose products are the norms, and from the last one; it takes the
    nearer.  r >= 0, so row r's product with w lies in its interval widened
    by |r|_1 times the rise above and the fall below, plus a slack for the
    rounding of both products and of the bound arithmetic.  A row is a
    candidate for the maximum when its hi reaches the largest lo of its
    set, and for the minimum when its lo reaches the smallest hi.  A set's
    lone candidate is its pick; where a set has more, they are gathered in
    chunks and multiplied, and the first extremal one is the pick.

    A whole scan's pick is always a candidate, so a pick can differ from
    it only where two rows' products agree to within rounding.  The
    all-ones vector of a start matrix is answered from the norms alone,
    and too many candidates take a whole scan.  The state is replaced
    whole, so concurrent callers each read a consistent one."""

    __slots__ = ("block", "_norms", "_kept")

    def __init__(self, block: np.ndarray, norms: np.ndarray | None = None):
        self.block = block
        self._norms = norms  # row L1 norms, else made on the first pruned call
        self._kept = None    # (w, lo, hi) of the last pruned call

    def __len__(self):
        return self.block.shape[0]

    def extremes(self, obj):
        b = self.block
        if b.size < _PRUNE_ENTRIES:
            dots = b @ obj.lifted()
            up, down = dots.argmax(axis=1), dots.argmin(axis=1)
        else:
            up, down = self._pruned(obj.lifted())
        rows = np.arange(b.shape[0])
        return b[rows, up], b[rows, down]

    def _pruned(self, w):
        b = self.block
        norms = self._norms
        if norms is None:
            # Two threads may both make it: the products are equal.
            norms = self._norms = b @ np.ones(b.shape[2])
        # r >= 0, so r.w - r.v lies in [-|r|_1 below, |r|_1 above], with
        # above and below the largest rise and fall from v to w.
        diff = w - 1.0
        above, below = max(float(diff.max()), 0.0), max(float(-diff.min()), 0.0)
        if above == below == 0.0:
            return norms.argmax(axis=1), norms.argmin(axis=1)
        lo = hi = norms
        scale = 1.0
        kept = self._kept
        if kept is not None:
            diff = w - kept[0]
            k_above, k_below = max(float(diff.max()), 0.0), max(float(-diff.min()), 0.0)
            if k_above + k_below < above + below:
                ref, lo, hi = kept
                above, below, scale = k_above, k_below, float(ref.max())
        # A computed product is within gamma_d |r|_1 |w|_inf of the exact
        # one; the slack takes eight times that, for both products, the
        # rounding of the shifts, of the norms and of the bounds themselves.
        # The generator's norms are sums of a row's at most d entries, in
        # another order than block @ 1 but within the same gamma_d |r|_1.
        scale = max(scale, float(w.max()))
        slack = 8.0 * (b.shape[2] + 2) * 2.0 ** -53 * scale
        lo = np.maximum(lo - norms * (below + slack), 0.0) * (1.0 - 2.0 ** -50)
        hi = (hi + norms * (above + slack)) * (1.0 + 2.0 ** -50)
        up = hi >= lo.max(axis=1, keepdims=True)
        down = lo <= hi.min(axis=1, keepdims=True)
        # A set's lone candidate for a side is its pick, with no product.
        up &= np.count_nonzero(up, axis=1, keepdims=True) > 1
        down &= np.count_nonzero(down, axis=1, keepdims=True) > 1
        idx = np.flatnonzero(up | down)
        if idx.size > _PRUNE_SHARE * up.size:
            dots, up, down = _scan(b, w)
            self._kept = (w.copy(), dots, dots)
            return up, down
        flat = b.reshape(-1, b.shape[2])
        step = max(1, _CHUNK_BYTES // flat[0].nbytes)
        chunk = np.empty((min(step, idx.size), flat.shape[1]))
        dots = np.empty(idx.size)
        for s in range(0, idx.size, step):
            part = idx[s:s + step]
            np.take(flat, part, axis=0, out=chunk[:part.size])
            np.matmul(chunk[:part.size], w, out=dots[s:s + part.size])
        lo.flat[idx] = dots
        hi.flat[idx] = dots
        self._kept = (w.copy(), lo, hi)
        # A row that is no candidate lies strictly past the bound of one
        # that is, so the first extreme of the bounds is a candidate's.
        return hi.argmax(axis=1), lo.argmin(axis=1)


class _L1Batch:
    """L1 balls with their centers stacked as a (k, d) array and their radii
    as a (k, 1) column."""

    __slots__ = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: np.ndarray):
        self.center, self.radius = center, radius

    def __len__(self):
        return self.center.shape[0]

    def extremes(self, obj):
        c, r, v = self.center, self.radius, obj.v
        # The whole budget on the single most valuable coordinate is
        # optimal: objective gain is linear in each coordinate's share.
        up = c.copy()
        up[:, v.argmax()] += r[:, 0]
        # The minimum removes mass from the coordinates of positive v in
        # decreasing order of v until the budget runs out.  budget[:, m] is
        # what remains before coordinate m, subtracted in that same order
        # along each row, so it is the sequential loop's budget to the last
        # bit; coordinate m keeps what exceeds it, and nothing once it is
        # spent.
        live = obj.descending()[: np.count_nonzero(v > 0.0)]
        mass = c[:, live]
        budget = np.subtract.accumulate(np.concatenate((r, mass), axis=1), axis=1)[:, :-1]
        down = c.copy()
        down[:, live] = np.where(budget > 0.0, np.maximum(mass - budget, 0.0), mass)
        return up, down

    def contains(self, X: np.ndarray, tol: float) -> bool:
        if (X < -tol).any():
            return False
        return bool((np.abs(X - self.center).sum(axis=1) <= self.radius[:, 0] + tol).all())


class _DegreeBatch:
    """Degree sets of both senses.  Row i of the maximum has ones where the
    rank of v's component in the stable descending order is below n_up[i]
    (n for 'at_most', d, the full row, for 'at_least'); row i of the
    minimum where its rank in the ascending order is below n_down[i] (0,
    the empty row, for 'at_most', n for 'at_least').  Ties go to the lowest
    index, and an order no row needs is not made."""

    __slots__ = ("n_up", "n_down", "sorts_up", "sorts_down")

    def __init__(self, sets):
        d = sets[0].dim
        n_up = [rs.n if rs.sense == "at_most" else d for rs in sets]
        n_down = [rs.n if rs.sense == "at_least" else 0 for rs in sets]
        self.sorts_up, self.sorts_down = min(n_up) < d, max(n_down) > 0
        self.n_up, self.n_down = np.array(n_up)[:, None], np.array(n_down)[:, None]

    def __len__(self):
        return self.n_up.shape[0]

    def extremes(self, obj):
        shape = (self.n_up.shape[0], obj.v.shape[0])
        up = (np.less(_ranks(obj.descending()), self.n_up, out=np.empty(shape))
              if self.sorts_up else np.ones(shape))
        down = (np.less(_ranks(obj.ascending()), self.n_down, out=np.empty(shape))
                if self.sorts_down else np.zeros(shape))
        return up, down


class _PolyBatch:
    """Halfspace polytopes, solved by one lockstep simplex per call (see
    :mod:`.lp`): each set's program with objective v, warm-started from the
    set's own last solution, which the call then replaces.  Only v changes
    between calls, so that solution's optimal tableau stays feasible; it is
    immutable and copied on use, and it is replaced whole, so concurrent
    callers share no mutable state.  v >= 0 and the origin is feasible, so
    the origin is the minimum."""

    __slots__ = ("sets",)

    def __init__(self, sets):
        self.sets = sets

    def __len__(self):
        return len(self.sets)

    def extremes(self, obj):
        v = obj.v
        up = np.empty((len(self.sets), v.shape[0]))
        # Each set's last solution is read as its chunk is formed and
        # replaced as soon as it is solved, so a call holds at most about two
        # chunks beside the kept tableaux.
        solved = _solve_stack((rs._program(v), rs._last) for rs in self.sets)
        for i, (rs, sol) in enumerate(zip(self.sets, solved)):
            object.__setattr__(rs, "_last", sol)
            np.maximum(sol.x, 0.0, out=up[i])
        return up, np.zeros_like(up)


def _batch_of(sets):
    """One batch kernel for a family of L1 balls only, of degree sets only
    or of halfspace polytopes only, else None."""
    kind = type(sets[0])
    if any(type(rs) is not kind for rs in sets):
        return None
    if kind is GraphDegreeSet:
        return _DegreeBatch(sets)
    if kind is L1Ball:
        return _L1Batch(np.array([rs.center for rs in sets]),
                        np.array([[rs.radius] for rs in sets]))
    if kind is HalfspacePoly:
        return _PolyBatch(sets)
    return None


def _finite_family(block: np.ndarray, norms: np.ndarray | None = None) -> ProductFamily:
    """The family of the finite sets block[0], ..., block[d-1] of one
    (d, N, d) float64 array, answered by one batch over the block.  The
    family owns the block, so its kept bounds cannot go stale: a block that
    is read-only and owns its memory (as the generator's is) is kept as it
    is, any other is copied and frozen.  The sets are views of it.
    ``norms``, where given, is the (d, N) array of the rows' L1 norms,
    each a sum of the row's entries (the generator's, made as it writes
    the block); the batch keeps it in place of computing block @ 1."""
    if block.flags.writeable or not block.flags.owndata:
        block = block.copy()
        block.flags.writeable = False
    return ProductFamily(tuple(FiniteSet(rows) for rows in block),
                         _batch=_FiniteBatch(block, norms))


def _l1_family(C: np.ndarray, radius: float) -> ProductFamily:
    """The family of the L1 balls of one radius around the rows of the
    (d, d) float64 array C, answered by one batch over C itself: the
    balls' centers are views of it."""
    sets = tuple(L1Ball(c, radius) for c in C)
    return ProductFamily(sets, _batch=_L1Batch(C, np.full((C.shape[0], 1), sets[0].radius)))


@dataclass(frozen=True, eq=False)
class ProductFamily:
    """Square-matrix family with one independent row uncertainty set per row."""

    sets: tuple[RowSet, ...]
    # One batch kernel for the whole family, found from the sets unless a
    # private constructor (_finite_family, _l1_family) hands one over.
    _batch: _FiniteBatch | _L1Batch | _DegreeBatch | _PolyBatch | None = field(
        default=None, repr=False, kw_only=True)

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("family needs at least one row set")
        d = len(sets)
        for i, rs in enumerate(sets):
            if not isinstance(rs, RowSet):
                raise TypeError(f"sets[{i}] is not a RowSet")
            if rs.d != d:
                raise ValueError(
                    f"sets[{i}] has row length {rs.d}, expected {d} "
                    "(one set per row of a square matrix)")
        object.__setattr__(self, "sets", sets)
        if self._batch is None:
            object.__setattr__(self, "_batch", _batch_of(sets))
        elif len(self._batch) != d:
            raise ValueError(f"the batch answers {len(self._batch)} rows, expected {d}")

    def __reduce__(self):
        # Copies and pickles rebuild the family from its one block when it
        # has one, so they keep the block scan, else from its sets.
        # Pickling the fields would write a generated family's block beside
        # the sets' views of it: 32 MB in place of 16 MB at d=200, N=50.
        if isinstance(self._batch, _FiniteBatch):
            return _finite_family, (self._batch.block,)
        return ProductFamily, (self.sets,)

    @property
    def d(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def extremes(self, v) -> tuple[np.ndarray, np.ndarray]:
        """The maximizing and the minimizing member against v, as a pair
        (up, down) of new d x d matrices: row i of each is the best and the
        worst row of set i, with the tie rules of the module docstring.

        ``v`` is validated once for the whole family; every set is visited
        once.  A generated family with a large block rescans only the rows
        that its kept bounds cannot rule out.  Its picks are the whole
        scan's, except that of two rows whose products agree to within
        rounding either may be returned.  It keeps a copy of v, not v, so
        v may change after the call; its state is replaced whole, so
        threads may share the family.
        """
        obj = _Objective(v, self.d)
        if self._batch is not None:
            return self._batch.extremes(obj)
        up = np.empty((self.d, self.d))
        down = np.empty((self.d, self.d))
        for i, rs in enumerate(self.sets):
            up[i], down[i] = rs._extremes(obj)
        return up, down

    def best_matrix(self, v, direction: str = "max") -> np.ndarray:
        """Matrix assembled from each set's best row against v: one side
        of :meth:`extremes`."""
        _check_direction(direction)
        up, down = self.extremes(v)
        return up if direction == "max" else down

    def contains_matrix(self, A, tol: float = 1e-9) -> bool:
        A = np.asarray(A, dtype=float)
        if A.shape != (self.d, self.d):
            return False
        if isinstance(self._batch, _L1Batch):
            return self._batch.contains(A, tol)
        return all(rs.contains(A[i], tol) for i, rs in enumerate(self.sets))
