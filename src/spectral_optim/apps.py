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
  radius over that family is monotone in r, so the critical radius is found
  by bisection with one inner optimization per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_count, check_matrix
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


def selective_greedy(family: ProductFamily, cfg: OptimizerConfig,
                     initial_matrix=None) -> OptimizationResult:
    """The inner run of every application: :func:`~.optimize.optimize` with
    selective greedy.  A config naming another method is refused, not
    rewritten."""
    if cfg.method != "selective-greedy":
        raise ValueError(f"selective_greedy cannot run method {cfg.method!r}")
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

    ``r_tol`` is the bisection tolerance on the critical radius.
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


def _radius(A: np.ndarray, cfg: OptimizerConfig) -> float:
    """rho(A), read by the optimizer on the one-member family {A}.  A
    minimization never enters the reducibility retry."""
    return selective_greedy(stabilization_family(A, 0.0),
                            replace(cfg, direction="min"), initial_matrix=A).rho


def _bisect(A: np.ndarray, lo: float, hi: float, X_hi: np.ndarray,
            accept, cfg: OptimizerConfig, r_tol: float):
    """Shrink [lo, hi] keeping accept(rho(best at hi)) true; returns (X, hi).
    Each inner run starts from the previous optimum clipped into its ball."""
    X_prev = X_hi
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        res = selective_greedy(stabilization_family(A, mid), cfg,
                               initial_matrix=_clip_to_radius(X_prev, A, mid))
        X_prev = res.matrix
        if accept(res.rho):
            hi, X_hi = mid, res.matrix
        else:
            lo = mid
    return X_hi, hi


def _closest(problem: StabilizationProblem, config: OptimizerConfig | None,
             direction: str, hi: float, X_hi: np.ndarray, accept):
    """(A, 0) when rho(A) passes ``accept``, else the bisection on [0, hi]
    from X_hi, a member of the ball of radius hi that passes it."""
    A = problem.A
    cfg = replace(config or OptimizerConfig(), direction=direction)
    if accept(_radius(A, cfg)):
        return A.copy(), 0.0
    return _bisect(A, 0.0, hi, X_hi, accept, cfg, problem.r_tol)


def closest_stable(problem: StabilizationProblem,
                   config: OptimizerConfig | None = None) -> tuple[np.ndarray, float]:
    """Nearest matrix (row-wise L1 / operator infinity norm) with spectral
    radius at most ``target``.

    Returns (X, r_star) with X non-negative, ||X - A||_inf <= r_star, and
    rho(X) <= target.  If A is already within target the answer is (A, 0).
    The zero matrix brackets the radius at A's largest row sum.
    """
    A = problem.A
    return _closest(problem, config, "min", float(np.max(A.sum(axis=1))),
                    np.zeros_like(A), lambda rho: rho <= problem.target)


def closest_unstable(problem: StabilizationProblem,
                     config: OptimizerConfig | None = None) -> tuple[np.ndarray, float]:
    """Nearest matrix with spectral radius reaching ``target`` (default 1).

    Mirror of :func:`closest_stable`: maximizes the radius over growing L1
    balls.  Acceptance allows a 1e-6 slack under the target so the critical
    radius is well-defined under floating point.  A with ``target`` added
    to entry (0, 0), of radius at least ``target``, brackets it at ``target``.
    """
    X_hi = problem.A.copy()
    X_hi[0, 0] += problem.target
    return _closest(problem, config, "max", problem.target, X_hi,
                    lambda rho: rho >= problem.target - 1e-6)
