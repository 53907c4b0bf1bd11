"""Leading eigenpairs of non-negative matrices and a-posteriori spectral radius bounds.

The eigenvector computed here is the *selected* one: the limit of the shifted
power iterates (A + I)^k 1, normalized.  Adding the identity does not change
eigenvectors, moves the spectral radius to rho(A) + 1, and gives the iteration
matrix a positive diagonal, so no complex eigenvalue ties the leading one in
modulus, even when A itself is imprimitive.  For reducible matrices the
leading eigenvector is not unique; the optimizers rely on this selection to
escape spurious fixed points that other leading eigenvectors would create.
The radius is always read off A itself, at the returned vector.

:func:`selected_eigenpair` takes the limit by one of two paths.

* *Power.*  An irreducible A (every vertex of its support graph reaches
  vertex 0 and is reached from it) runs power iteration on A + I from the
  all-ones direction.
* *Structural.*  A reducible A takes the limit from its strongly connected
  classes, which fix it exactly (Rothblum, Linear Algebra Appl. 12, 1975;
  Berman & Plemmons, *Nonnegative Matrices in the Mathematical Sciences*,
  ch. 2).  A singleton class's radius is its diagonal entry; a class of at
  most 32 rows takes its radius and Perron vector from a dense eigensolve,
  a larger one from power iteration on its block.  rho is the largest class
  radius, and a class is *basic* when its radius lies within 1e-9 relative
  of rho (the tie rule).  A class's *height* is 1 if it is basic, else 0,
  plus the largest height among the classes it has an edge to.  With rho = 0
  (nilpotent A) the limit is A^h 1 for the largest h with A^h 1 != 0.
  Otherwise, when exactly one basic class has the top height, the limit is
  its Perron vector there, and on every other class of top height the
  solution of (rho I - A_UU) v_U = A_U,rest v_rest, taken sinks first; every
  other component is exactly 0.  Several basic classes of top height, or a
  large class whose power stage exhausts its budget, run the power stage on
  A + I instead.
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


class PowerIterationError(RuntimeError):
    """Power method did not converge within the iteration budget.

    Carries the last iterate so callers can inspect or reuse it.
    """

    def __init__(self, message: str, last_iterate: np.ndarray | None = None,
                 iterations: int = 0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


@dataclass(frozen=True)
class PowerConfig:
    """Convergence parameters for the power method.

    Parameters
    ----------
    eps : float
        Stop once the sup-norm difference of successive normalized iterates
        drops to ``eps`` or below.  Must be finite and positive.
    max_iters : int or None
        Iteration budget.  ``None`` resolves to ``100 * d + 10000`` for a
        d x d matrix.
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
        return 100 * d + 10000


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
        Number of power iterations spent, on A + I, on class blocks and
        (nilpotent A) on the powers A^h 1.
    path : {'power', 'structural'}
        Whether v came from power iteration on A + I or from the classes of
        a reducible A.
    """

    rho: float
    v: np.ndarray
    power_iters: int
    path: str


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


def _power_vector(apply, x: np.ndarray, eps: float, max_iters: int):
    """Normalized power iteration x <- apply(x) from the unit vector x.

    Returns (v, iterations).  ``apply`` must be a non-negative operator with
    a positive diagonal (A + I) so the iteration cannot collapse to zero and
    no complex eigenvalue shares the leading modulus.
    """
    for k in range(1, max_iters + 1):
        y = apply(x)
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            # Unreachable for A + I, kept as a hard failure for safety.
            raise PowerIterationError("power iteration collapsed to zero",
                                      last_iterate=x, iterations=k)
        y /= nrm
        if float(np.max(np.abs(y - x))) <= eps:
            return y, k
        x = y
    raise PowerIterationError(
        f"power method did not converge in {max_iters} iterations",
        last_iterate=x, iterations=max_iters)


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


def _class_eigen(A: np.ndarray, idx: np.ndarray, cfg: PowerConfig):
    """(radius, Perron vector, power iterations) of the irreducible class
    ``idx``."""
    if idx.size == 1:
        return float(A[idx[0], idx[0]]), np.ones(1), 0
    if idx.size <= _DENSE_ROWS:
        # The Perron root has the largest real part of all eigenvalues.
        w, V = np.linalg.eig(A[np.ix_(idx, idx)])
        j = int(np.argmax(w.real))
        return float(w.real[j]), np.abs(V[:, j].real), 0
    # Power iteration on the block plus I, run on all of A with the vector
    # held at 0 off the block: no copy of the block.
    off = np.ones(A.shape[0], dtype=bool)
    off[idx] = False

    def apply(x):
        y = A @ x
        y += x
        y[off] = 0.0
        return y

    x0 = np.where(off, 0.0, 1.0 / np.sqrt(idx.size))
    x, iters = _power_vector(apply, x0, cfg.eps, cfg.resolve_max_iters(idx.size))
    return _rho_from_vector(A, x), x[idx], iters


def _structural_vector(A: np.ndarray, up: np.ndarray, down: np.ndarray,
                       cfg: PowerConfig):
    """(v, iterations) of the selected vector of a reducible A from its
    classes (``up`` and ``down`` as in :func:`_classes`).  v is None when
    several basic classes share the top height, or when the power stage of
    a large class exhausts its budget."""
    d = A.shape[0]
    S = A > 0.0
    np.fill_diagonal(S, False)
    classes = _classes(A, S, up, down)
    eigen, iters = [], 0
    for idx in classes:
        try:
            eigen.append(_class_eigen(A, idx, cfg))
        except PowerIterationError as exc:
            return None, iters + exc.iterations
        iters += eigen[-1][2]
    radii = np.array([e[0] for e in eigen])
    rho = float(np.max(radii))
    if rho == 0.0 and len(classes) == d:
        # Acyclic support, so A is nilpotent and A^d = 0: (A + I)^k 1 is
        # dominated by the highest nonzero power.
        x = np.ones(d)
        while True:
            y = A @ x
            iters += 1
            top = float(np.max(y))
            if top == 0.0:
                return x, iters
            x = y / top
    basic = radii >= rho - _TIE * rho
    owner = np.empty(d, dtype=int)
    for c, idx in enumerate(classes):
        owner[idx] = c
    # Sinks first, so every class a class points to already has its height.
    height = np.zeros(len(classes), dtype=int)
    for c, idx in enumerate(classes):
        height[c] = basic[c] + height[owner[S[idx].any(axis=0)]].max(initial=0)
    top = np.flatnonzero(basic & (height == height.max()))
    if top.size > 1:
        return None, iters
    b = int(top[0])
    r_b = eigen[b][0]
    v = np.zeros(d)
    v[classes[b]] = eigen[b][1]
    for c in np.flatnonzero(height == height[b]):
        idx = classes[c]
        if c == b:
            continue
        rhs = A[idx] @ v
        if idx.size == 1:
            v[idx] = rhs / (r_b - A[idx[0], idx[0]])
        else:
            v[idx] = np.linalg.solve(r_b * np.eye(idx.size) - A[np.ix_(idx, idx)], rhs)
    return v, iters


def selected_eigenpair(A, config: PowerConfig | None = None) -> Eigenpair:
    """Selected leading eigenpair of a non-negative square matrix.

    The returned eigenvector is the limit of (A + I)^k 1, entrywise
    non-negative and normalized to unit Euclidean norm; rho is estimated from
    it on A itself, the product the Collatz-Wielandt bounds divide.  The left
    eigenvector is the right one of the transpose: ``selected_eigenpair(A.T).v``.

    ``Eigenpair.path`` names the path taken:

    * ``power`` for an irreducible A, tested by forward and backward
      reachability from vertex 0, one matrix-vector product per step;
    * ``structural`` for a reducible A.  Its classes (strongly connected
      components, sinks first) give each a radius: the diagonal entry of a
      singleton, a dense eigensolve of a block of at most 32 rows, power
      iteration on a larger block.  Classes within 1e-9 relative of the
      largest radius rho are basic.  Height is 1 for a basic class, else 0,
      plus the largest height among the classes it points to.  rho = 0 gives
      v proportional to A^h 1 for the largest h with A^h 1 != 0, and rho
      exactly 0.0.  Otherwise the single basic class of top height takes its
      Perron vector, each other class U of top height solves
      (rho I - A_UU) v_U = A_U,rest v_rest sinks first, and every other
      component is exactly 0;
    * ``power`` again, on all of A + I, when several basic classes share the
      top height or the power stage of a large class exhausts its budget.

    Parameters
    ----------
    A : array_like
        Square non-negative matrix.
    config : PowerConfig, optional
        Convergence parameters; defaults to ``PowerConfig()``.

    Raises
    ------
    PowerIterationError
        If the power stage on A + I exhausts its iteration budget before
        convergence; ``last_iterate`` is its last iterate.
    """
    A = check_matrix(A)
    cfg = config or PowerConfig()
    d = A.shape[0]
    v, iters = None, 0
    everyone = np.ones(d, dtype=bool)
    up, down = _reach(A, 0, everyone), _reach(A.T, 0, everyone)
    if not (up.all() and down.all()):
        v, iters = _structural_vector(A, up, down, cfg)
    path = "power" if v is None else "structural"
    if v is None:
        B = A.copy()
        B.flat[::d + 1] += 1.0   # A + I, without building I
        v, k = _power_vector(lambda x: B @ x, np.full(d, 1.0 / np.sqrt(d)), cfg.eps,
                             cfg.resolve_max_iters(d))
        iters += k
    # The iterate of a non-negative matrix from a positive start stays
    # non-negative; clip fp dust so downstream sign checks are exact.
    v = np.maximum(v, 0.0)
    v /= float(np.linalg.norm(v))
    return Eigenpair(rho=_rho_from_vector(A, v), v=v, power_iters=iters, path=path)


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
