"""Leading eigenpairs of non-negative matrices and a-posteriori spectral radius bounds.

The eigenvector computed here is the *selected* one: the limit of the shifted
power iterates (A + I)^k 1, normalized.  Adding the identity does not change
eigenvectors, moves the spectral radius to rho(A) + 1, and gives the iteration
matrix a positive diagonal, so no complex eigenvalue ties the leading one in
modulus, even when A itself is imprimitive.  For reducible matrices the
leading eigenvector is not unique; the optimizers rely on this selection to
escape spurious fixed points that other leading eigenvectors would create.
The radius is always read off A itself, at the returned vector.

:func:`selected_eigenpair` takes the limit by one of three paths.

* *Squaring.*  A matrix of at most 64 rows squares B = 2^-e A + I, with e
  the exponent that puts the largest row sum of 2^-e A in [1/2, 1), and
  rescales each square by a power of two: j squarings give the 2^j-th power
  iterate (Higham, *Functions of Matrices*, ch. 10).  Both scalings are
  exact, so 2^k A gives the same vector bit for bit.  It stops once
  consecutive iterates agree to 1e-12 and the change did not grow.  Two
  products with the last square follow; a component that loses a quarter
  of its value between them vanishes in the limit and is set to exactly 0.
  A small A whose squaring does not settle within 64 squarings (a slow
  drift between tied classes, such as a Jordan chain coupled at 1e-10 of
  its diagonal) takes one of the two other paths, like a larger one; so
  does one whose scaling zeroes a positive entry (entries spanning more
  than the double range), and one whose square leaves the normal double
  range (a nilpotent A of high index, whose squares underflow), at once.
* *Power.*  A larger irreducible A (every vertex of its support graph
  reaches vertex 0 and is reached from it) runs power iteration on A + I
  from the all-ones direction.
* *Structural.*  A larger reducible A takes the limit from its strongly
  connected classes, which fix it exactly (Rothblum, Linear Algebra Appl.
  12, 1975; Berman & Plemmons, *Nonnegative Matrices in the Mathematical
  Sciences*, ch. 2).  The singleton classes take their radii from the
  diagonal in one gather.  A class of at most 32 rows takes its radius and
  Perron vector from a dense eigensolve, one of 33 to 64 rows by squaring
  its block, without the zero rule (its limit is positive), and a larger
  one, or one whose scaling zeroes an entry, from power iteration on its
  block.  rho is the largest class radius, and a class is *basic* when its
  radius lies within 1e-9 relative of rho (the tie rule).  A class's
  *height* is 1 if it is basic, else 0, plus the largest height among the
  classes it has an edge to (one pass over the edges between classes).
  With rho = 0 (nilpotent A) the limit is A^h 1 for the largest h with
  A^h 1 != 0.  Otherwise, when exactly one basic class has the top height,
  the limit is its Perron vector there, and on every other class of top
  height the solution of (rho I - A_UU) v_U = A_U,rest v_rest, taken sinks
  first; every other component is exactly 0.  Several basic classes of top
  height run the power stage on A + I instead.

A power stage, on A + I or on a class block, that runs through its budget
(``PowerConfig.max_iters``) continues by squaring from its last iterate,
without the zero rule where the limit is positive (a class block, an
irreducible A).  Only such a squaring that does not settle within 64
squarings or whose square leaves the normal double range, or a stage whose
scaling would zero an entry, raises :class:`PowerIterationError`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerConfig",
    "Eigenpair",
    "PowerIterationError",
    "check_count",
    "check_matrix",
    "check_vector",
    "selected_eigenpair",
    "bounds",
]

# An eigenvector component at or below this counts as zero, in one rule for
# the radius estimate, both bounds, the optimizer's pivot scores and its
# reducibility test (see :func:`_row_ratios`).
ZERO_TOL = 1e-12
# Class radii within this relative distance of the largest are tied: those
# classes are all basic.
_TIE = 1e-9
# Irreducible classes up to this many rows take their radius and Perron
# vector from a dense eigensolve; larger ones run the power stage.
_DENSE_ROWS = 32
# Matrices up to this many rows take the selected vector by squaring alone.
_SQUARING_ROWS = 64
# The squaring stops once consecutive iterates agree to this in max norm
# (the largest component is 1) and the change did not grow; it gives up
# after _MAX_SQUARINGS squarings, the 2^64-th power.
_SQUARING_TOL = 1e-12
_MAX_SQUARINGS = 64
# A square whose largest row sum falls below the smallest normal double
# has vanished: its scale factor would overflow.
_TINY = np.finfo(float).tiny
# Default power-step budget per row of the matrix or block.
_POWER_STEPS_PER_ROW = 3


class PowerIterationError(RuntimeError):
    """The selected vector did not settle: the squaring that continues a
    power stage past its budget reached its cap of 64 squarings, or could
    not start because scaling the matrix zeroes an entry.  Carries the last
    (normalized) iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate


class _SquareVanished(PowerIterationError):
    """A square's largest row sum left the normal range (underflow to 0 or
    below the smallest normal, or overflow) at squaring ``squarings``."""

    def __init__(self, squarings: int, last: np.ndarray):
        super().__init__(f"square {squarings} of the lifted matrix left the double range "
                         f"(d={last.shape[0]})", last_iterate=last / np.linalg.norm(last))
        self.squarings = squarings


@dataclass(frozen=True)
class PowerConfig:
    """Convergence parameters for the power stage.

    Parameters
    ----------
    eps : float
        Stop once the sup-norm difference of successive normalized iterates
        drops to ``eps`` or below.  Must be finite and positive.  The
        squaring stage has its own tolerance (1e-12).
    max_iters : int or None
        Power-step budget; a stage that runs through it continues by
        squaring.  ``None`` resolves to ``3 * d`` for a d x d matrix or
        block.
    """

    eps: float = 1e-8
    max_iters: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and positive")
        if self.max_iters is not None:
            check_count(self.max_iters, "max_iters")

    def resolve_max_iters(self, d: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return _POWER_STEPS_PER_ROW * d


@dataclass(frozen=True)
class Eigenpair:
    """Spectral radius together with the selected leading eigenvector.

    Attributes
    ----------
    rho : float
        Spectral radius estimate (non-negative).
    v : numpy.ndarray
        Selected right leading eigenvector, entrywise non-negative with unit
        Euclidean norm.
    power_iters : int
        Number of power steps spent, on A + I, on class blocks and
        (nilpotent A) on the powers A^h 1.
    path : {'squaring', 'power', 'structural'}
        Whether v came from squaring A + I (a small A, or a power stage on
        A + I past its budget), from power iteration on A + I or from the
        classes of a reducible A.
    squarings : int
        Number of matrix squarings spent, on A + I or on class blocks.
    """

    rho: float
    v: np.ndarray
    power_iters: int
    path: str
    squarings: int


def _check_entries(a: np.ndarray, what: str) -> None:
    """Refuse an array with a NaN, infinite or negative entry (-0.0 passes).
    One pass each for the minimum and the maximum, which a NaN turns into
    NaN, and no temporary array."""
    if a.size == 0:
        return
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} must be finite")
    if lo < 0.0:
        raise ValueError(f"{what} must be non-negative")


def check_matrix(A) -> np.ndarray:
    """Validate and return a square non-negative float matrix."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    _check_entries(M, "matrix entries")
    return M


def check_count(value, name: str) -> int:
    """Validate and return a count of at least 1.  Python and numpy integers
    pass; a float is refused, even an integral one."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")
    return n


def check_vector(v, d: int | None = None) -> np.ndarray:
    """Validate and return a non-negative float vector."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"expected a vector, got shape {w.shape}")
    if d is not None and w.shape[0] != d:
        raise ValueError(f"expected length {d}, got {w.shape[0]}")
    _check_entries(w, "vector entries")
    return w


# Iterates whose largest entry lies in this range have a norm whose squares
# neither overflow nor underflow (for fewer than 2^23 rows).
_NORM_SAFE = (2.0 ** -500, 2.0 ** 500)


def _power_vector(apply, x: np.ndarray, eps: float, max_iters: int):
    """Normalized power iteration x <- apply(x) from the unit vector x.

    Returns (v, iterations, converged): the last iterate, and whether it
    settled to ``eps`` within ``max_iters`` steps.  ``apply`` must be a
    non-negative operator with a positive diagonal (A + I), so the iterate
    never collapses to zero and no complex eigenvalue shares the leading
    modulus.  Each iterate is divided by its Euclidean norm.  One whose
    largest entry lies outside [2^-500, 2^500] is first scaled by the power
    of two of that entry, which is exact, so that the squares in its norm
    neither overflow (entries near 1e300 would) nor underflow.
    """
    for k in range(1, max_iters + 1):
        y = apply(x)
        top = float(np.maximum.reduce(y))
        if not _NORM_SAFE[0] <= top <= _NORM_SAFE[1]:
            y *= math.ldexp(1.0, -math.frexp(top)[1])
        # The norm's own arithmetic (np.linalg.norm takes sqrt(y @ y) too),
        # without its Python wrapper.
        y /= math.sqrt(float(y @ y))
        if float(np.max(np.abs(y - x))) <= eps:
            return y, k, True
        x = y
    return x, max_iters, False


def _lifted(A: np.ndarray) -> np.ndarray | None:
    """2^-e A + I, with e the exponent that puts the largest row sum of
    2^-e A in [1/2, 1).  Scaling by a power of two is exact, so 2^k A lifts
    to the same matrix, unless it scales down an entry below the double
    range: None when it zeroes a positive entry (only possible for e > 0)."""
    top = float(A.sum(axis=1).max())
    e = math.frexp(top)[1] if top > 0.0 else 0
    B = np.ldexp(A, -e)
    if e > 0 and np.count_nonzero(B) < np.count_nonzero(A):
        return None
    B.flat[::B.shape[0] + 1] += 1.0
    return B


def _squared_vector(B: np.ndarray, x: np.ndarray | None = None, zeros: bool = True):
    """(v, squarings): the limit of B^n x for a lifted B (:func:`_lifted`)
    and a non-negative start x (None: all ones), by repeated squaring.

    Each square is rescaled by the power of two of its largest row sum, so
    the iterates z_j = B^(2^j) x, each divided by its largest component,
    are those of the unscaled powers.  It stops at the first squaring whose
    change max|z_j - z_(j-1)| is at most _SQUARING_TOL and no larger than
    the change before it (for j = 1, from x to z_0 = B x): a slow drift
    between near-tied classes grows at each squaring.  Two products with
    the settled power then give w = B^(2^(j+1)) x and u = B^(3 * 2^j) x.
    z_j's transients shrink by about its change at each product, so a
    live component, however small (the members of the blended retry have
    some near 1e-24), holds its value from w to u; one that vanishes in
    the limit keeps decaying, like a ratio to the power 2^j, or by 2/3 or
    more on a Jordan chain.  The rule: a component of u at most 3/4 of its
    value in w is 0.  v is u, its largest component 1.  ``zeros=False`` skips the rule, for B
    irreducible, whose limit is positive: there a live component can
    still be falling from a start x near the limit.  A square whose largest
    row sum leaves the normal double range raises :class:`_SquareVanished`.
    """
    # The ufuncs' own reductions: the array methods add a Python wrapper
    # to each of the loop's few-microsecond calls.
    top, add = np.maximum.reduce, np.add.reduce
    prev = add(B, 1) if x is None else B @ x
    prev /= top(prev)
    last = float(top(abs(prev - (1.0 if x is None else x / top(x)))))
    for j in range(1, _MAX_SQUARINGS + 1):
        B = B @ B
        rows = add(B, 1)
        largest = top(rows)
        if not _TINY <= largest < math.inf:
            # A nilpotent part that dominates every power squares toward
            # 0 (a shift chain of 16 rows underflows at its 45th square):
            # no later square holds a vector.
            raise _SquareVanished(j, prev)
        B *= math.ldexp(1.0, -math.frexp(largest)[1])
        if x is None:
            z = rows / largest
        else:
            z = B @ x
            z /= top(z)
        change = float(top(abs(z - prev)))
        if change <= _SQUARING_TOL and change <= last:
            w = B @ z
            w /= top(w)
            u = B @ w
            u /= top(u)
            if zeros:
                u[u <= 0.75 * w] = 0.0
            return u, j
        prev, last = z, change
    raise PowerIterationError(
        f"squaring did not settle in {_MAX_SQUARINGS} squarings "
        f"(d={B.shape[0]}, last change {last:.3g})", last_iterate=prev / np.linalg.norm(prev))


def _rho_from_vector(A: np.ndarray, v: np.ndarray) -> float:
    """Largest ratio (A v)_i / v_i over the components above ZERO_TOL, all
    equal to rho at an exact eigenvector.  A unit-norm v has a component of
    at least 1 / sqrt(d), so one always qualifies."""
    Av = A @ v
    live = v > ZERO_TOL
    return float(np.max(Av[live] / v[live]))


def _reach(M: np.ndarray, first: int, within: np.ndarray) -> np.ndarray:
    """Mask of the vertices of ``within`` with a path inside it to vertex
    ``first`` along edges i -> j where M[i, j] > 0 (with M = A.T: the
    vertices ``first`` has a path to).  The first step reads a column; each
    later one is one product, as a non-negative row dotted with a 0/1 vector
    is positive exactly when the row sees a marked vertex."""
    seen = (M[:, first] > 0.0) & within
    seen[first] = True
    count, total = int(np.count_nonzero(seen)), int(np.count_nonzero(within))
    while count < total:
        seen |= (M @ seen.astype(float) > 0.0) & within
        grown = int(np.count_nonzero(seen))
        if grown == count:
            break
        count = grown
    return seen


def _tarjan(S: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components of the graph i -> j where S[i, j],
    sinks first (Tarjan's order), with an explicit stack."""
    n = S.shape[0]
    succ = [np.flatnonzero(row).tolist() for row in S]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            u, pos = work.pop()
            if pos == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            for nxt in range(pos, len(succ[u])):
                w = succ[u][nxt]
                if index[w] < 0:
                    work += [(u, nxt + 1), (w, 0)]
                    break
                if on_stack[w]:
                    low[u] = min(low[u], index[w])
            else:
                if low[u] == index[u]:
                    comp = []
                    while not comp or comp[-1] != u:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    out.append(np.array(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
    return out


def _classes(A: np.ndarray, S: np.ndarray, up: np.ndarray,
             down: np.ndarray) -> list[np.ndarray]:
    """Strongly connected classes of A's support graph, sinks first: each
    class has edges only to itself and to classes before it.  S is the
    support (A > 0) without its diagonal; ``up`` and ``down`` mark the
    vertices with a path to vertex 0 and from it.

    Vertex 0's class is ``up & down``, and every other class lies in the
    rest.  There, vertices without an out-edge or an in-edge among the rest
    are peeled off, vectorized, as singletons, and Tarjan runs only on a
    remaining core that is not one class.  The order is: the classes vertex
    0 reaches, vertex 0's class, the classes unrelated to it, the classes
    that reach it, each group in the order the rest's classes were found.
    """
    own = up & down
    rest = np.flatnonzero(~own)
    R = S[rest][:, rest]
    out_deg = R.sum(axis=1, dtype=int)
    in_deg = R.sum(axis=0, dtype=int)
    alive = np.ones(rest.size, dtype=bool)
    sinks: list[np.ndarray] = []
    sources: list[np.ndarray] = []
    while True:
        sink = np.flatnonzero(alive & (out_deg == 0))
        alive[sink] = False
        source = np.flatnonzero(alive & (in_deg == 0))
        alive[source] = False
        if sink.size == 0 and source.size == 0:
            break
        out_deg -= R[:, sink].sum(axis=1, dtype=int)
        in_deg -= R[source].sum(axis=0, dtype=int)
        sinks += [sink[i:i + 1] for i in range(sink.size)]
        sources += [source[i:i + 1] for i in range(source.size)]
    core = np.flatnonzero(alive)
    inner = []
    if core.size:
        within = np.zeros(A.shape[0], dtype=bool)
        within[rest[core]] = True
        first = int(rest[core[0]])
        one = _reach(A, first, within) & _reach(A.T, first, within)
        inner = ([core] if np.count_nonzero(one) == core.size
                 else [core[c] for c in _tarjan(R[np.ix_(core, core)])])
    found = [rest[c] for c in sinks + inner + sources[::-1]]
    return ([c for c in found if down[c[0]]] + [np.flatnonzero(own)]
            + [c for c in found if not (down[c[0]] or up[c[0]])]
            + [c for c in found if up[c[0]]])


def _squared_lift(A: np.ndarray, x: np.ndarray, zeros: bool):
    """:func:`_squared_vector` of A's lift from x, for a power stage past its
    budget.  A lift that loses entries to underflow cannot continue it."""
    B = _lifted(A)
    if B is None:
        raise PowerIterationError(
            f"power stage did not settle and its entries span more than the "
            f"double range (d={A.shape[0]})", last_iterate=x / np.linalg.norm(x))
    return _squared_vector(B, x, zeros=zeros)


def _class_eigen(A: np.ndarray, idx: np.ndarray, cfg: PowerConfig):
    """(radius, Perron vector, power steps, squarings) of the irreducible
    class ``idx`` of at least two rows."""
    if idx.size <= _DENSE_ROWS:
        # The Perron root has the largest real part of all eigenvalues.
        w, V = np.linalg.eig(A[np.ix_(idx, idx)])
        j = int(np.argmax(w.real))
        return float(w.real[j]), np.abs(V[:, j].real), 0, 0
    if idx.size <= _SQUARING_ROWS:
        block = A[np.ix_(idx, idx)]
        B = _lifted(block)
        if B is not None:
            # Irreducible, so the limit is positive: no zero rule.
            u, squarings = _squared_vector(B, zeros=False)
            u /= float(np.linalg.norm(u))
            return _rho_from_vector(block, u), u, 0, squarings
    # Power iteration on the block plus I, run on all of A with the vector
    # held at 0 off the block: no copy of the block unless it squares.
    off = np.ones(A.shape[0], dtype=bool)
    off[idx] = False

    def apply(x):
        y = A @ x
        y += x
        y[off] = 0.0
        return y

    x0 = np.where(off, 0.0, 1.0 / np.sqrt(idx.size))
    v, iters, done = _power_vector(apply, x0, cfg.eps, cfg.resolve_max_iters(idx.size))
    squarings = 0
    if not done:
        v[idx], squarings = _squared_lift(A[np.ix_(idx, idx)], v[idx], zeros=False)
    return _rho_from_vector(A, v), v[idx], iters, squarings


def _structural_vector(A: np.ndarray, up: np.ndarray, down: np.ndarray,
                       cfg: PowerConfig):
    """(v, power steps, squarings) of the selected vector of a reducible A
    from its classes (``up`` and ``down`` as in :func:`_classes`).  v is
    None when several basic classes share the top height."""
    d = A.shape[0]
    S = A > 0.0
    np.fill_diagonal(S, False)
    classes = _classes(A, S, up, down)
    n = len(classes)
    sizes = [idx.size for idx in classes]
    members = np.concatenate(classes)
    # A singleton's radius is its diagonal entry: one gather for all.
    starts = np.cumsum([0] + sizes[:-1])
    first = members[starts]
    radii = A[first, first]
    vectors = {}
    iters = squarings = 0
    for c, size in enumerate(sizes):
        if size > 1:
            radii[c], vectors[c], more_iters, more = _class_eigen(A, classes[c], cfg)
            iters += more_iters
            squarings += more
    rho = float(np.max(radii))
    if rho == 0.0 and n == d:
        # Acyclic support, so A is nilpotent and A^d = 0: (A + I)^k 1 is
        # dominated by the highest nonzero power.
        x = np.ones(d)
        while True:
            y = A @ x
            iters += 1
            top = float(np.max(y))
            if top == 0.0:
                return x, iters, squarings
            x = y / top
    basic = (radii >= rho - _TIE * rho).astype(int).tolist()
    # Class adjacency: S's rows, then its columns, or-reduced over each
    # class.  Sinks come first, so every edge between classes leads to an
    # earlier class, whose height is final before it is read.
    rows = np.logical_or.reduceat(S[members], starts, axis=0)
    adjacent = np.logical_or.reduceat(rows[:, members].T, starts, axis=0).T
    np.fill_diagonal(adjacent, False)
    src, dst = np.nonzero(adjacent)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    dst = dst.tolist()
    height = basic[:]
    begin = 0
    for c, end in enumerate(ends):
        if end > begin:
            height[c] += max(map(height.__getitem__, dst[begin:end]))
        begin = end
    top_height = max(height)
    top = [c for c in range(n) if basic[c] and height[c] == top_height]
    if len(top) > 1:
        return None, iters, squarings
    b = top[0]
    r_b = float(radii[b])
    v = np.zeros(d)
    v[classes[b]] = vectors.get(b, 1.0)
    for c in range(n):
        if c == b or height[c] != top_height:
            continue
        idx = classes[c]
        rhs = A[idx] @ v
        if idx.size == 1:
            v[idx] = rhs / (r_b - A[idx[0], idx[0]])
        else:
            v[idx] = np.linalg.solve(r_b * np.eye(idx.size) - A[np.ix_(idx, idx)], rhs)
    return v, iters, squarings


def selected_eigenpair(A, config: PowerConfig | None = None) -> Eigenpair:
    """Selected leading eigenpair of a non-negative square matrix.

    The returned eigenvector is the limit of (A + I)^k 1, entrywise
    non-negative and normalized to unit Euclidean norm; rho is estimated from
    it on A itself, the product the Collatz-Wielandt bounds divide.  The left
    eigenvector is the right one of the transpose: ``selected_eigenpair(A.T).v``.

    ``Eigenpair.path`` names the path taken (the module docstring gives
    each in full):

    * ``squaring`` for A of at most 64 rows.  A nilpotent A gets rho
      exactly 0.0, and ``selected_eigenpair(2.0**k * A).v`` is bit-equal to
      ``selected_eigenpair(A).v``.  One whose squaring does not settle
      within 64 squarings takes the next two paths, like a larger A, and
      counts the 64 in ``squarings``; so does one whose square leaves the
      normal double range, at once, counting the squarings taken (a
      nilpotent A of high index), and one whose scaling would zero a
      positive entry, without squaring;
    * ``power`` for a larger irreducible A, tested by forward and backward
      reachability from vertex 0, and for a larger reducible A with several
      basic classes of top height;
    * ``structural`` for every other larger reducible A, from its strongly
      connected classes: components on the classes below the top are
      exactly 0, and a nilpotent A gets rho exactly 0.0.

    A power stage that runs through ``config.max_iters`` steps continues by
    squaring from its last iterate: on A + I the path is then ``squaring``,
    on a class block it stays ``structural``.  ``Eigenpair.squarings``
    counts the squarings, ``Eigenpair.power_iters`` the power steps.

    Parameters
    ----------
    A : array_like
        Square non-negative matrix.
    config : PowerConfig, optional
        Power-stage parameters; defaults to ``PowerConfig()``.

    Raises
    ------
    PowerIterationError
        If the squaring that continues a power stage past its budget does
        not settle within 64 squarings (the 2^64-th power), or cannot
        start because the matrix's entries span more than the double
        range; the message names d.
    """
    A = check_matrix(A)
    cfg = config or PowerConfig()
    d = A.shape[0]
    v, iters, squarings = None, 0, 0
    B = _lifted(A) if d <= _SQUARING_ROWS else None
    if B is not None:
        try:
            v, squarings = _squared_vector(B)
        except _SquareVanished as err:
            # A nilpotent A of high index: the classes give rho exactly 0.
            squarings = err.squarings
        except PowerIterationError:
            # A slow drift between tied classes, such as a Jordan chain
            # coupled at 1e-10 of its diagonal: the classes settle it.
            squarings = _MAX_SQUARINGS
        else:
            v /= float(np.linalg.norm(v))
            return Eigenpair(_rho_from_vector(A, v), v, 0, "squaring", squarings)
    everyone = np.ones(d, dtype=bool)
    up, down = _reach(A, 0, everyone), _reach(A.T, 0, everyone)
    irreducible = bool(up.all() and down.all())
    if not irreducible:
        v, iters, more = _structural_vector(A, up, down, cfg)
        squarings += more
    path = "structural"
    if v is None:
        B = A.copy()
        B.flat[::d + 1] += 1.0   # A + I, without building I
        v, k, done = _power_vector(lambda x: B @ x, np.full(d, 1.0 / np.sqrt(d)), cfg.eps,
                                   cfg.resolve_max_iters(d))
        iters += k
        path = "power"
        if not done:
            v, more = _squared_lift(A, v, zeros=not irreducible)
            squarings += more
            path = "squaring"
    # The iterate of a non-negative matrix from a positive start stays
    # non-negative; clip fp dust so downstream sign checks are exact.
    v = np.maximum(v, 0.0)
    v /= float(np.linalg.norm(v))
    return Eigenpair(_rho_from_vector(A, v), v, iters, path, squarings)


def _row_ratios(v: np.ndarray, dots: np.ndarray, direction: str) -> np.ndarray:
    """Per-row ratios dots_i / v_i: s_i for ``max``, t_i for ``min``.

    A component at or below ZERO_TOL vanishes.  For ``max`` its ratio is
    +inf when the row still sees mass (dots_i > 0) or v_i is exactly 0 (a
    block v does not see may have a larger radius), and -inf on 0/0 at a
    tiny positive v_i, so it is skipped; for ``min`` it is +inf.
    """
    fill = (np.where((dots > 0.0) | (v == 0.0), np.inf, -np.inf)
            if direction == "max" else np.full(v.shape, np.inf))
    return np.divide(dots, v, out=fill, where=v > ZERO_TOL)


def _bounds(v: np.ndarray, up_dots: np.ndarray, down_dots: np.ndarray,
            own_dots: np.ndarray | None = None) -> tuple[float, float]:
    """Bounds (t, s) at v from the extreme members' dots, (inf, inf) with no
    live component.  The current matrix's rows are family members, so its
    own dots may enter both sides; where the oracle rebuilds one of them
    with other last bits (an LP vertex), they keep t <= rho <= s exact."""
    if own_dots is not None:
        up_dots = np.maximum(up_dots, own_dots)
        down_dots = np.minimum(down_dots, own_dots)
    t = float(np.min(_row_ratios(v, down_dots, "min")))
    s = float(np.max(_row_ratios(v, up_dots, "max")))
    return t, (np.inf if s == -np.inf else s)


def bounds(v, family) -> tuple[float, float]:
    """A-posteriori bounds (t, s) at v, ordered like ``OptimizationResult.bounds``.

    s = max_i s_i, with s_i the largest achievable (row, v) over v_i, bounds
    the maximal radius from above; t = min_i t_i, with the smallest, bounds
    the minimal radius from below.  Vanishing components follow
    :func:`_row_ratios`.  One ``family.extremes(v)`` call gives both sides;
    the ratios divide the extreme matrices' own products with v, so rounding
    never puts s below a ratio of the maximizing matrix, however small v_i.
    """
    v = check_vector(v, family.d)
    up, down = family.extremes(v)
    return _bounds(v, up @ v, down @ v)
