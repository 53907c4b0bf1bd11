"""Iterative optimization of the spectral radius over product families.

All methods share one relaxation scheme: compute a leading eigenvector v of
the current member matrix, then replace rows by set members with a better
inner product against v.  Replacing rows this way never moves the spectral
radius the wrong direction, and each iterate comes with certified two-sided
bounds (the best achievable per-row ratios against v).

Methods differ only in which improvable rows they swap per iteration:

* ``simplex-smallest-index`` one row, the first improvable index;
* ``simplex-pivot`` one row, the one with the extremal achievable ratio;
* ``greedy`` every improvable row at once;
* ``selective-greedy`` greedy driven by *selected* eigenvectors (the power
  method's limit from the all-ones start), which is what rules out cycling
  on families with reducible members.

:func:`optimize` runs every method; its default is the paper's selective
greedy.  With ``method="greedy"`` it accepts an ``eigenvector_fn`` hook that
substitutes an arbitrary leading eigenvector; it exists so tests and the demo
can reproduce the cycling phenomenon that selected eigenvectors avoid.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ZERO_TOL,
    PowerConfig,
    check_count,
    check_matrix,
    check_vector,
    selected_eigenpair,
    _bounds,
    _rho_from_vector,
    _row_ratios,
)
from .rows import ProductFamily

__all__ = [
    "OptimizerConfig",
    "TraceRow",
    "OptimizationResult",
    "optimize",
    "linear_rate_bound",
]

_METHODS = {
    "selective-greedy": "greedy",
    "greedy": "greedy",
    "simplex-smallest-index": "smallest-index",
    "simplex-pivot": "pivot",
}

STATUS_OPTIMAL = "optimal"
STATUS_BOUND_CERTIFIED = "bound-certified"
STATUS_MAX_ITERS = "max-iters"
STATUS_REDUCIBLE = "reducible-detected"
STATUS_CYCLE = "cycle-detected"


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all optimization methods.

    Parameters
    ----------
    direction : {'max', 'min'}
    method : str
        One of ``selective-greedy``, ``greedy``, ``simplex-smallest-index``,
        ``simplex-pivot``.
    power : PowerConfig
        Eigenpair computation parameters.
    delta : float
        A row is only replaced when its inner-product improvement against the
        current eigenvector is at least ``delta``; this blocks churn from
        floating-point ties.  It is also the cycle check's threshold: a
        revisited matrix (entries equal at 1e-12) ends the run as
        ``cycle-detected`` unless rho beats its earlier visit by more than
        ``delta``, and a pass that beats the best earlier rho by more than
        ``delta`` is not looked up at all.
    max_outer_iters : int
        Cap on row-update passes.
    reducibility_alpha : float
        Blend weight for the perturbed retry when a maximization stalls with
        a degenerate (partially zero) eigenvector; 0 disables the retry.
    record_iterates : bool
        Keep a copy of every visited matrix on the result.

    An eigenvector component at or below :data:`~spectral_optim.linalg.ZERO_TOL`
    counts as zero in rho, the bounds, the pivot scores and the reducibility
    test.
    """

    direction: str = "max"
    method: str = "selective-greedy"
    power: PowerConfig = field(default_factory=PowerConfig)
    delta: float = 1e-10
    max_outer_iters: int = 1000
    reducibility_alpha: float = 1e-8
    record_iterates: bool = False

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be finite and non-negative")
        check_count(self.max_outer_iters, "max_outer_iters")
        if not (0.0 <= self.reducibility_alpha < 1.0):
            raise ValueError("reducibility_alpha must be in [0, 1)")


@dataclass(frozen=True)
class TraceRow:
    """One outer iteration: spectral radius, bounds, and what changed.

    ``eigen_path`` says where the pass's eigenvector came from:
    ``squaring``, ``power`` or ``structural`` (``Eigenpair.path``) or
    ``hook`` (``eigenvector_fn``).  ``time_s`` is the whole pass;
    ``eigen_s`` and ``oracle_s`` are its parts spent on the eigenvector and
    in the row oracle (both extremes).  ``power_iters`` and ``squarings``
    are the pass's power steps and matrix squarings
    (``Eigenpair.power_iters`` and ``Eigenpair.squarings``; 0 for a hook).
    """

    iteration: int
    rho: float
    s_bound: float
    t_bound: float
    rows_changed: tuple[int, ...]
    time_s: float
    eigen_path: str
    eigen_s: float
    oracle_s: float
    power_iters: int
    squarings: int


@dataclass
class OptimizationResult:
    """Outcome of an optimization run.

    ``bounds`` is the pair (t, s): certified lower and upper bounds on the
    family's minimal and maximal spectral radius computed at the reported
    eigenvector.  ``trace`` holds one :class:`TraceRow` per outer pass in
    order, and ``iterations`` counts them, the final confirming pass
    included.  When the reducibility remedy ran, ``perturbed_result``
    carries the outcome of the run on the blended family.
    """

    matrix: np.ndarray
    rho: float
    bounds: tuple[float, float]
    trace: list[TraceRow]
    status: str
    direction: str
    method: str
    eigenvector: np.ndarray
    iterations: int
    perturbed_result: "OptimizationResult | None" = None
    iterates: list[np.ndarray] | None = None


_MOD = 1 << 128


def _row_hashes(index, rows) -> list[int]:
    """h(i, row_i) per row, as an integer below 2^128: blake2b-128 of the
    row index and the row's entries quantized at 1e-12, both as floats (no
    integer cast to overflow); adding 0.0 merges -0.0 into +0.0."""
    rows = np.asarray(rows, dtype=float)
    q = np.empty((rows.shape[0], rows.shape[1] + 1))
    q[:, 0] = index
    np.rint(rows / 1e-12, out=q[:, 1:])
    q += 0.0
    return [int.from_bytes(hashlib.blake2b(r.tobytes(), digest_size=16).digest(), "little")
            for r in q]


def matrix_signature(A) -> int:
    """Additive content hash of a matrix with entries quantized at 1e-12:
    a hash of its shape plus h(i, row_i) over its rows, mod 2^128.

    The cycle check keys a run's k-th matrix A_k by
    ``(matrix_signature(A_k) - matrix_signature(A_0)) % 2**128``, which it
    sums over the changed rows alone.  The name is kept for the benchmark's
    tracing (``perfbench/tracing.py``) until ROADMAP item 1 step B.
    """
    A = np.asarray(A, dtype=float)
    shape = hashlib.blake2b(np.array(A.shape, dtype=np.int64).tobytes(), digest_size=16)
    return (int.from_bytes(shape.digest(), "little")
            + sum(_row_hashes(np.arange(A.shape[0]), A))) % _MOD


class _Revisits:
    """The radius of every matrix a run has visited, by key, kept lazily.

    The key of the k-th matrix is the sum of h(i, row_i) - h(i, start_i)
    mod 2^128 over the rows changed since the start (:func:`_row_hashes`).
    Each pass that changes rows logs them, old and new, with its radius;
    the log is folded into the table only for a lookup, or before it would
    hold more than d rows.  So no start matrix is hashed, a row change is
    hashed at most twice, and a run that never needs a lookup may hash
    nothing.
    """

    def __init__(self, d: int):
        self.d = d
        self.seen: dict[int, float] = {}   # key -> radius at its latest visit
        self.key = 0                       # key of the first matrix not folded
        self.log: list[tuple] = []         # (radius, rows, old, new) per pass
        self.size = 0                      # rows in the log

    def record(self, rho: float, rows, old, new) -> None:
        """Log a pass at radius ``rho`` that replaced ``rows`` (``old``)
        by ``new``."""
        if self.size + len(rows) > self.d:
            self.fold()
        self.log.append((rho, rows, old, new))
        self.size += len(rows)

    def fold(self) -> None:
        """Enter every logged pass in the table, in order; ``key`` becomes
        the current matrix's."""
        if not self.log:
            return
        index = np.concatenate([rows for _, rows, _, _ in self.log])
        olds = _row_hashes(index, np.concatenate([old for _, _, old, _ in self.log]))
        news = _row_hashes(index, np.concatenate([new for *_, new in self.log]))
        pos = 0
        for rho, rows, _, _ in self.log:
            self.seen[self.key] = rho
            end = pos + len(rows)
            self.key = (self.key + sum(news[pos:end]) - sum(olds[pos:end])) % _MOD
            pos = end
        self.log.clear()
        self.size = 0

    def lookup(self) -> float | None:
        """Radius at the latest earlier visit of the current matrix."""
        self.fold()
        return self.seen.get(self.key)


def _apply_step(A, v, cand, new_dots, old_dots, direction, delta, kind):
    """Swap improvable rows of A for candidates per the method's rule;
    ``new_dots`` and ``old_dots`` are ``cand @ v`` and ``A @ v``."""
    gain = new_dots - old_dots if direction == "max" else old_dots - new_dots
    improvable = np.flatnonzero(gain >= delta)
    if improvable.size == 0:
        return A, ()
    if kind == "greedy":
        chosen = improvable
    elif kind == "smallest-index":
        chosen = improvable[:1]
    else:  # pivot: extremal achievable ratio among improvable rows
        scores = _row_ratios(v, new_dots, direction)[improvable]
        pos = int(np.argmax(scores)) if direction == "max" else int(np.argmin(scores))
        chosen = improvable[pos:pos + 1]
    A_next = A.copy()
    A_next[chosen] = cand[chosen]
    return A_next, tuple(int(i) for i in chosen)


def _eigen(A, cfg: OptimizerConfig, eigenvector_fn):
    """(v, rho, eigen path, power steps, squarings) of the current matrix."""
    v = eigenvector_fn(A) if eigenvector_fn is not None else None
    if v is None:
        pair = selected_eigenpair(A, cfg.power)
        return pair.v, pair.rho, pair.path, pair.power_iters, pair.squarings
    v = check_vector(v, A.shape[0])
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("eigenvector_fn returned a zero vector")
    v = v / nrm
    return v, _rho_from_vector(A, v), "hook", 0, 0


def _run(extremes, A, cfg: OptimizerConfig, eigenvector_fn=None) -> OptimizationResult:
    """Relax from the start matrix A against the row oracle ``extremes``,
    which maps v to the family's maximizing and minimizing members."""
    step_kind = _METHODS[cfg.method]
    sign = 1.0 if cfg.direction == "max" else -1.0
    revisits = _Revisits(A.shape[0])
    trace: list[TraceRow] = []
    iterates: list[np.ndarray] | None = [] if cfg.record_iterates else None
    best = None   # (A, v, rho, s, t) with the best rho so far
    last = None
    status = None
    for k in range(1, cfg.max_outer_iters + 1):
        t0 = time.perf_counter()
        v, rho, path, iters, squarings = _eigen(A, cfg, eigenvector_fn)
        t1 = time.perf_counter()
        up, down = extremes(v)
        t2 = time.perf_counter()
        up_dots, down_dots, own_dots = up @ v, down @ v, A @ v
        t, s = _bounds(v, up_dots, down_dots, own_dots)
        if iterates is not None:
            iterates.append(A.copy())
        last = (A, v, rho, s, t)
        # A revisit is a cycle when rho does not beat the earlier visit's by
        # more than delta.  Rounding a subtraction is monotone, so no earlier
        # visit can qualify unless the best earlier rho does.
        cycled = False
        if best is not None and sign * (rho - best[2]) <= cfg.delta:
            prev_rho = revisits.lookup()
            cycled = prev_rho is not None and sign * (rho - prev_rho) <= cfg.delta
        if best is None or sign * (rho - best[2]) > 0:
            best = last
        changed = ()
        if not cycled:
            cand, new_dots = ((up, up_dots) if cfg.direction == "max"
                              else (down, down_dots))
            A_next, changed = _apply_step(A, v, cand, new_dots, own_dots, cfg.direction,
                                          cfg.delta, step_kind)
        trace.append(TraceRow(k, rho, s, t, changed, time.perf_counter() - t0, path,
                              t1 - t0, t2 - t1, iters, squarings))
        if cycled:
            status = STATUS_CYCLE
            break
        if not changed:
            if cfg.direction == "max" and bool(np.any(v <= ZERO_TOL)):
                status = STATUS_REDUCIBLE
            else:
                status = STATUS_OPTIMAL
            break
        rows = np.array(changed)
        revisits.record(rho, rows, A[rows], A_next[rows])
        A = A_next
    if status is None:
        _, _, rho_l, s_l, t_l = last
        gap = (s_l - rho_l) if cfg.direction == "max" else (rho_l - t_l)
        if gap <= 1e-6 * max(1.0, abs(rho_l)):
            status = STATUS_BOUND_CERTIFIED
        else:
            status = STATUS_MAX_ITERS
    src = best if status == STATUS_CYCLE else last
    A_r, v_r, rho_r, s_r, t_r = src
    return OptimizationResult(
        matrix=A_r.copy(), rho=float(rho_r), bounds=(float(t_r), float(s_r)),
        trace=trace, status=status, direction=cfg.direction, method=cfg.method,
        eigenvector=v_r.copy(), iterations=len(trace), iterates=iterates)


def _drive(family: ProductFamily, cfg: OptimizerConfig, eigenvector_fn=None,
           initial_matrix=None) -> OptimizationResult:
    d = family.d
    if initial_matrix is not None:
        A = check_matrix(initial_matrix)
        if A.shape[0] != d:
            raise ValueError("initial matrix size does not match the family")
        # The current matrix's rows enter the bounds, so a start outside the
        # family would be certified as if it were a member.
        if not family.contains_matrix(A):
            raise ValueError("initial matrix is not a member of the family")
        A = A.copy()
    else:
        A = family.best_matrix(np.ones(d), cfg.direction)
    res = _run(family.extremes, A, cfg, eigenvector_fn)
    alpha = cfg.reducibility_alpha
    if res.status != STATUS_REDUCIBLE or alpha == 0.0:
        return res
    # Retry on the family blended with the cyclic anchor rows P[i, (i+1) % d]:
    # every blended member contains a full cycle, so it is irreducible.  The
    # anchor term is constant over each set, so the blended oracle is the
    # blend of the family's own.
    P = np.roll(np.eye(d), 1, axis=1)

    def blend(M):
        return (1.0 - alpha) * M + alpha * P

    def blended_extremes(v):
        up, down = family.extremes(v)
        return blend(up), blend(down)

    retry = _run(blended_extremes,
                 blend(family.best_matrix(np.ones(d), cfg.direction)), cfg)
    res.perturbed_result = retry
    # Pull back: the family's best member against the retry's eigenvector.
    # Only a maximization stalls as reducible, so the larger radius wins.
    X = family.extremes(retry.eigenvector)[0]
    v, rho, *_ = _eigen(X, cfg, None)
    if rho > res.rho:
        up, down = family.extremes(v)
        res.matrix = X
        res.rho = rho
        res.eigenvector = v
        res.bounds = _bounds(v, up @ v, down @ v, X @ v)
    return res


def optimize(family: ProductFamily, config: OptimizerConfig | None = None,
             *, eigenvector_fn=None, initial_matrix=None) -> OptimizationResult:
    """Run ``config.method`` from ``initial_matrix`` (default: the family's
    best member against the all-ones vector).  ``initial_matrix`` must be a
    member of the family (``family.contains_matrix``); ValueError otherwise.

    ``eigenvector_fn`` is honored by the greedy method only.  It receives the
    current matrix and returns a non-negative leading eigenvector, or None to
    fall back to the selected one.  With adversarial eigenvector choices the
    plain greedy method can cycle on families with reducible members; that
    is exactly what the hook exists to demonstrate.
    """
    cfg = config or OptimizerConfig()
    if eigenvector_fn is not None and cfg.method != "greedy":
        raise ValueError("eigenvector_fn is only honored by the greedy method")
    return _drive(family, cfg, eigenvector_fn, initial_matrix)


def linear_rate_bound(family: ProductFamily) -> float:
    """Upper bound q on the linear convergence rate of the greedy method.

    q = 1 - m^2 / (m^2 + (d - 1) M^2) with m, M the smallest and largest
    entry over all admissible rows.  Only meaningful for strictly positive
    families (m > 0); raises ValueError otherwise.
    """
    d = family.d
    lo = np.inf
    hi = -np.inf
    for rs in family.sets:
        m_i, M_i = rs.entry_range()
        lo = min(lo, m_i)
        hi = max(hi, M_i)
    if not (np.isfinite(lo) and lo > 0):
        raise ValueError("linear rate bound requires strictly positive rows")
    if d == 1:
        return 0.0
    return 1.0 - lo ** 2 / (lo ** 2 + (d - 1) * hi ** 2)
