"""Applications: extremal graph spectral radii and closest (un)stable matrices.

Two problems reduce directly to product-family optimization:

* Among directed graphs on d vertices whose out-degrees are prescribed,
  which adjacency matrix has the largest (or smallest) spectral radius?
  Row i ranges over 0/1 vectors with a row-sum budget, so each row is an
  independent :class:`~spectral_optim.rows.GraphDegreeSet`.

* Given a non-negative matrix A, how far (row-wise L1, i.e. operator
  infinity norm) must one move to make the spectral radius cross a target?
  For a fixed radius r the reachable matrices form a product family of
  L1 balls centered at the rows of A; the minimal (or maximal) spectral
  radius over that family is monotone in r, so the critical radius is the
  root of a monotone function, found by a guarded Illinois regula falsi
  (:func:`_root_search`) with one inner optimization per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_count, check_matrix, selected_eigenpair
from .optimize import OptimizationResult, OptimizerConfig, optimize
from .rows import GraphDegreeSet, ProductFamily, _l1_family

__all__ = [
    "DegreeSpec",
    "degree_family",
    "optimize_graph",
    "StabilizationProblem",
    "stabilization_family",
    "closest_stable",
    "closest_unstable",
]


@dataclass(frozen=True)
class DegreeSpec:
    """Prescribed out-degrees for a graph radius problem.

    ``direction='max'`` maximizes the radius over graphs with at most the
    given out-degrees; ``'min'`` minimizes it over graphs with at least the
    given out-degrees.  (The slack directions are the only ones that bind:
    extra edges never hurt a maximizer and never help a minimizer.)
    """

    degrees: tuple[int, ...]
    direction: str = "max"

    def __post_init__(self):
        degrees = tuple(check_count(n, "degree") for n in self.degrees)
        d = len(degrees)
        if d == 0:
            raise ValueError("need at least one vertex")
        for n in degrees:
            if n > d:
                raise ValueError(f"degree {n} out of range for {d} vertices")
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        object.__setattr__(self, "degrees", degrees)


def degree_family(spec: DegreeSpec) -> ProductFamily:
    """Product family of 0/1 rows matching the degree specification."""
    d = len(spec.degrees)
    sense = "at_most" if spec.direction == "max" else "at_least"
    return ProductFamily(tuple(GraphDegreeSet(d, n, sense) for n in spec.degrees))


def _check_method(cfg: OptimizerConfig) -> None:
    """A config naming another method than selective greedy is refused, not
    rewritten."""
    if cfg.method != "selective-greedy":
        raise ValueError(f"selective_greedy cannot run method {cfg.method!r}")


def selective_greedy(family: ProductFamily, cfg: OptimizerConfig,
                     initial_matrix=None) -> OptimizationResult:
    """The inner run of every application: :func:`~.optimize.optimize` with
    selective greedy."""
    _check_method(cfg)
    return optimize(family, cfg, initial_matrix=initial_matrix)


def optimize_graph(spec: DegreeSpec,
                   config: OptimizerConfig | None = None) -> tuple[np.ndarray, float]:
    """Extremal-spectral-radius adjacency matrix for prescribed out-degrees.

    Returns the 0/1 adjacency matrix (row sums exactly equal to the degrees)
    and its spectral radius.
    """
    cfg = replace(config or OptimizerConfig(), direction=spec.direction)
    res = selective_greedy(degree_family(spec), cfg)
    adjacency = np.rint(res.matrix)
    return adjacency, res.rho


@dataclass(frozen=True)
class StabilizationProblem:
    """Move a non-negative matrix's spectral radius across ``target``.

    ``r_tol`` is the root search's tolerance on the critical radius: the
    final bracket is at most this wide, or is two adjacent doubles where
    ``r_tol`` is below their spacing.  The search takes at most n_max =
    ceil(log2(h / r_tol)) + 2 inner optimizations, h the far end of the
    first bracket (A's largest row sum for :func:`closest_stable`,
    ``target`` for :func:`closest_unstable`).
    """

    A: np.ndarray
    target: float = 1.0
    r_tol: float = 1e-6

    def __post_init__(self):
        A = check_matrix(self.A)
        if not (np.isfinite(self.target) and self.target >= 0):
            raise ValueError("target must be finite and non-negative")
        if not (np.isfinite(self.r_tol) and self.r_tol > 0):
            raise ValueError("r_tol must be finite and positive")
        object.__setattr__(self, "A", A)


def stabilization_family(A, radius: float) -> ProductFamily:
    """Family of matrices within row-wise L1 distance ``radius`` of A."""
    # One copy, so that no set's center aliases the caller's A; the centers
    # are its rows, and the family's batch runs on it.
    return _l1_family(np.array(check_matrix(A)), radius)


def _clip_to_radius(X: np.ndarray, A: np.ndarray, radius: float) -> np.ndarray:
    """Project each row of X into the L1 ball of the matching row of A."""
    dev = X - A
    total = np.abs(dev).sum(axis=1)
    out = total > radius
    Y = np.array(X, dtype=float, copy=True)
    Y[out] = A[out] + dev[out] * (radius / total[out])[:, None]
    return np.maximum(Y, 0.0)


def _root_search(A: np.ndarray, hi: float, X_hi: np.ndarray, y_lo: float, y_hi: float,
                 signed, cfg: OptimizerConfig, r_tol: float):
    """Shrink [0, hi] to at most r_tol around the root of y(r) = signed(rho
    of the best member at r); y <= 0 accepts r.  Returns (X, hi) with hi
    accepted and X the member found there.

    y_lo > 0 >= y_hi are the values at the ends.  Each step warm-starts one
    inner run from the previous optimum clipped into its ball.  The first
    two steps bisect, and so does every step after two that did not halve
    the bracket.  Every other step takes the regula falsi point, with the
    Illinois rule (the value of an end kept twice in a row is halved),
    moves it r_tol/2 toward the end that did not move last, so that the
    next step lands past the root, and clamps it r_tol/4 inside the
    bracket.  y(r) is exactly 0 past the radius where the ball holds a
    nilpotent member: the opening bisections and the nudge keep that flat
    tail from stalling the interpolation on one side.  Last, the ITP guard
    (Oliveira & Takahashi, ACM TOMS 47, 2021) holds x within
    (aim/2) 2^(n_max - j) - (hi - lo)/2 of the midpoint at step j, with
    n_max = ceil(log2(hi / r_tol)) + 2, two steps more than bisection, and
    aim = r_tol less four units in the last place of hi.  In exact
    arithmetic that leaves a bracket at most aim wide after n_max steps,
    whatever the shape of y; the rounding of the midpoints adds less than
    two units, so the bracket is then at most r_tol wide.  The loop takes
    at most n_max steps, and stops before once the bracket is r_tol wide
    or no double lies strictly inside it.  (An r_tol within four units of
    hi gives aim <= 0: every step bisects.)
    """
    lo = 0.0
    n_max = math.ceil(math.log2(hi / r_tol)) + 2 if hi > r_tol else 0
    aim = r_tol - 4.0 * math.ulp(hi)
    X_prev = X_hi
    moved = None                    # the end the last step moved
    before = (math.inf, math.inf)   # bracket widths before the last two steps
    for j in range(n_max):
        if hi - lo <= r_tol or math.nextafter(lo, hi) == hi:
            break
        width = hi - lo
        mid = 0.5 * (lo + hi)
        # Interpolate only across a strict fall of y: y_lo > 0 >= y_hi,
        # short of an underflow of y_lo or rounding at the far end.
        if j < 2 or width > 0.5 * before[0] or not y_lo > y_hi:
            x = mid
        else:
            x = (lo * y_hi - hi * y_lo) / (y_hi - y_lo)
            x += -0.5 * r_tol if moved == "hi" else 0.5 * r_tol
            x = min(max(x, lo + 0.25 * r_tol), hi - 0.25 * r_tol)
            reach = max(math.ldexp(0.5 * aim, n_max - j) - 0.5 * width, 0.0)
            x = min(max(x, mid - reach), mid + reach)
        res = selective_greedy(stabilization_family(A, x), cfg,
                               initial_matrix=_clip_to_radius(X_prev, A, x))
        X_prev = res.matrix
        y = signed(res.rho)
        if y <= 0.0:
            if moved == "hi":
                y_lo *= 0.5
            hi, y_hi, X_hi, moved = x, y, res.matrix, "hi"
        else:
            if moved == "lo":
                y_hi *= 0.5
            lo, y_lo, moved = x, y, "lo"
        before = (before[1], width)
    return X_hi, hi


def _closest(problem: StabilizationProblem, cfg: OptimizerConfig, hi: float,
             X_hi: np.ndarray, rho_hi: float, signed):
    """(A, 0) when signed(rho(A)) <= 0, else the root search on [0, hi]
    from X_hi, a member of the ball of radius hi with radius rho_hi and
    signed(rho_hi) <= 0."""
    _check_method(cfg)
    A = problem.A
    y_lo = signed(selected_eigenpair(A, cfg.power).rho)
    if y_lo <= 0.0:
        return A.copy(), 0.0
    return _root_search(A, hi, X_hi, y_lo, signed(rho_hi), signed, cfg, problem.r_tol)


def closest_stable(problem: StabilizationProblem,
                   config: OptimizerConfig | None = None) -> tuple[np.ndarray, float]:
    """Nearest matrix (row-wise L1 / operator infinity norm) with spectral
    radius at most ``target``.

    Returns (X, r_star) with X non-negative, ||X - A||_inf <= r_star, and
    rho(X) <= target.  If A is already within target the answer is (A, 0).
    The zero matrix, of radius exactly 0, brackets the radius at A's
    largest row sum.
    """
    A = problem.A
    cfg = replace(config or OptimizerConfig(), direction="min")
    return _closest(problem, cfg, float(np.max(A.sum(axis=1))), np.zeros_like(A), 0.0,
                    lambda rho: rho - problem.target)


def closest_unstable(problem: StabilizationProblem,
                     config: OptimizerConfig | None = None) -> tuple[np.ndarray, float]:
    """Nearest matrix with spectral radius reaching ``target`` (default 1).

    Mirror of :func:`closest_stable`: maximizes the radius over growing L1
    balls.  Acceptance allows a 1e-6 slack under the target so the critical
    radius is well-defined under floating point.  A with ``target`` added
    to entry (0, 0), of radius at least ``target``, brackets it at ``target``.
    """
    cfg = replace(config or OptimizerConfig(), direction="max")
    X_hi = problem.A.copy()
    X_hi[0, 0] += problem.target
    return _closest(problem, cfg, problem.target, X_hi,
                    selected_eigenpair(X_hi, cfg.power).rho,
                    lambda rho: (problem.target - 1e-6) - rho)
