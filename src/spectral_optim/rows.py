"""Row uncertainty sets and product families of non-negative matrices.

A product family is a set of d x d matrices assembled row by row: row i is
drawn independently from its own uncertainty set F_i of non-negative
d-vectors.  Because the rows decouple, optimizing the spectral radius over
the family reduces to repeatedly answering one question per row: which members
of F_i maximize and minimize the inner product with a given non-negative
direction v?  :meth:`ProductFamily.extremes` answers both for every row in one
call: it validates v once and fills the maximizing and the minimizing matrix
from one kernel per set, so each set is visited once per call.  Each set
variant's kernel is exact:

* :class:`FiniteSet` scans an explicit list of rows: one product ``rows @ v``
  gives both the argmax and the argmin.  A v whose largest component is
  below 1/2 is first scaled by the power of two that lifts it to [1/2, 1);
  the scaling is exact, so it keeps every comparison, but products of a
  tiny v no longer underflow into false ties.
* :class:`GraphDegreeSet` is the 0/1 rows with a row-sum constraint; the
  optimum puts ones on the largest (or smallest) components of v.
* :class:`L1Ball` moves budget from a non-negative center row; the maximum
  spends everything on the single best coordinate, the minimum removes mass
  from the most expensive coordinates first.
* :class:`HalfspacePoly` is a polytope cut from the unit box by non-negative
  halfspaces; the maximum is a small LP solved to a vertex, warm-started
  from the set's previous optimal basis, and the minimum is the origin.
  The LP runs on every visit, so selecting the minimum alone also solves it
  and moves the warm-start basis.
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
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_vector
from .lp import LinearProgram, lp_optimize

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
        return np.array(up if direction == "max" else down)

    @abc.abstractmethod
    def _extremes(self, obj: _Objective) -> tuple[np.ndarray, np.ndarray]:
        """The maximizing and the minimizing row against ``obj.v``.

        The rows may be views of the set's own arrays: callers copy them
        before handing them out.
        """

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
        if not np.all(np.isfinite(r)):
            raise ValueError("rows must be finite")
        if np.any(r < 0):
            raise ValueError("rows must be non-negative")
        object.__setattr__(self, "rows", r)

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def _extremes(self, obj):
        dots = self.rows @ obj.lifted()
        return self.rows[int(np.argmax(dots))], self.rows[int(np.argmin(dots))]

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
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not (1 <= self.n <= self.dim):
            raise ValueError(f"need 1 <= n <= dim, got n={self.n}, dim={self.dim}")
        if self.sense not in ("at_most", "at_least"):
            raise ValueError(f"sense must be 'at_most' or 'at_least', got {self.sense!r}")

    @property
    def d(self) -> int:
        return self.dim

    def _extremes(self, obj):
        # At most n ones: the maximum puts them on the n largest components,
        # the minimum is the empty row.  At least n ones: the maximum is the
        # full row, the minimum keeps the n smallest components.
        if self.sense == "at_most":
            up = np.zeros(self.dim)
            up[obj.descending()[: self.n]] = 1.0
            return up, np.zeros(self.dim)
        down = np.zeros(self.dim)
        down[obj.ascending()[: self.n]] = 1.0
        return np.ones(self.dim), down

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
        hi = 0.0 if (self.sense == "at_most" and self.n == 0) else 1.0
        return lo, hi


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

    def _extremes(self, obj):
        v = obj.v
        # The whole budget on the single most valuable coordinate is
        # optimal: objective gain is linear in each coordinate's share.
        up = self.center.copy()
        up[int(np.argmax(v))] += self.radius
        # The minimum removes mass from the coordinates of positive v in
        # decreasing order of v until the budget runs out.  budget[m] is
        # what remains before coordinate m, subtracted in that same order,
        # so it is the sequential loop's budget to the last bit; coordinate
        # m keeps what exceeds it, and nothing once it is spent.
        live = obj.descending()[: np.count_nonzero(v > 0.0)]
        mass = self.center[live]
        budget = np.subtract.accumulate(np.concatenate(([self.radius], mass)))
        down = self.center.copy()
        down[live] = np.where(budget[:-1] > 0.0,
                              np.maximum(mass - budget[:-1], 0.0), mass)
        return up, down

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,) or np.any(x < -tol):
            return False
        return bool(np.sum(np.abs(x - self.center)) <= self.radius + tol)

    def entry_range(self):
        lo = float(np.min(np.maximum(self.center - self.radius, 0.0)))
        hi = float(np.max(self.center + self.radius))
        return lo, hi


@dataclass(frozen=True, eq=False)
class HalfspacePoly(RowSet):
    """{x : 0 <= x <= 1, (normal_j, x) <= 1 for every j} with normals >= 0."""

    normals: np.ndarray
    _basis: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        nm = np.asarray(self.normals, dtype=float)
        if nm.ndim != 2 or nm.shape[1] < 1:
            raise ValueError(f"normals must be a 2-D array, got shape {nm.shape}")
        if not np.all(np.isfinite(nm)):
            raise ValueError("normals must be finite")
        if np.any(nm < 0):
            raise ValueError("normals must be non-negative")
        object.__setattr__(self, "normals", nm)

    @property
    def d(self) -> int:
        return self.normals.shape[1]

    def _extremes(self, obj):
        lp = LinearProgram(
            objective=obj.v,
            normals=self.normals,
            rhs=np.ones(self.normals.shape[0]),
            lo=np.zeros(self.d),
            hi=np.ones(self.d),
        )
        # Only v changes between calls, so the last optimal basis stays
        # feasible and warm-starts the next solve.  The basis is an immutable
        # tuple replaced whole, so concurrent callers share no mutable state.
        sol = lp_optimize(lp, basis=self._basis)
        object.__setattr__(self, "_basis", sol.basis)
        # v >= 0 and the origin is feasible, so it attains the minimum.
        return np.maximum(sol.x, 0.0), np.zeros(self.d)

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


@dataclass(frozen=True, eq=False)
class ProductFamily:
    """Square-matrix family with one independent row uncertainty set per row."""

    sets: tuple[RowSet, ...]

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
        once.
        """
        obj = _Objective(v, self.d)
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
        return all(rs.contains(A[i], tol) for i, rs in enumerate(self.sets))
