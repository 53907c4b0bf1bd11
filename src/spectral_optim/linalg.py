"""Leading eigenpairs of non-negative matrices and a-posteriori spectral radius bounds.

The power method runs on the shifted matrix A + I.  Adding the identity does
not change eigenvectors, moves the spectral radius to rho(A) + 1, and gives the
iteration matrix a strictly positive diagonal, so the power method converges
even when A itself is imprimitive (cyclic support) and no complex eigenvalue
can tie the leading one in modulus.  The radius is then read off A itself.

For reducible matrices the leading eigenvector is not unique.  The vector
computed here is the *selected* one: the limit of Perron eigenvectors of
A + eps * E as eps -> 0, which is exactly what power iteration started from the
all-ones vector converges to.  The optimizers rely on this selection to escape
spurious fixed points that other leading eigenvectors would create.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerConfig",
    "Eigenpair",
    "PowerIterationError",
    "check_matrix",
    "check_vector",
    "selected_eigenpair",
    "upper_bound_s",
    "lower_bound_t",
]

# An eigenvector component at or below this counts as zero: the bounds skip
# or penalize its row, and the optimizer's pivot scores and reducibility test
# read it the same way.
ZERO_TOL = 1e-12


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
        drops to ``eps`` or below.
    max_iters : int or None
        Iteration budget.  ``None`` resolves to ``100 * d + 10000`` for a
        d x d matrix.
    """

    eps: float = 1e-8
    max_iters: int | None = None

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError("eps must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

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
        Number of power iterations spent.
    """

    rho: float
    v: np.ndarray
    power_iters: int


def check_matrix(A) -> np.ndarray:
    """Validate and return a square non-negative float matrix."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    if np.any(M < 0):
        raise ValueError("matrix entries must be non-negative")
    return M


def check_vector(v, d: int | None = None) -> np.ndarray:
    """Validate and return a non-negative float vector."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"expected a vector, got shape {w.shape}")
    if d is not None and w.shape[0] != d:
        raise ValueError(f"expected length {d}, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector entries must be finite")
    if np.any(w < 0):
        raise ValueError("vector entries must be non-negative")
    return w


def _power_vector(B: np.ndarray, eps: float, max_iters: int):
    """Normalized power iteration on B from the all-ones direction.

    Returns (v, iterations).  B must have a positive diagonal so the iteration
    cannot collapse to zero and no complex eigenvalue shares the leading
    modulus.
    """
    d = B.shape[0]
    x = np.full(d, 1.0 / np.sqrt(d))
    for k in range(1, max_iters + 1):
        y = B @ x
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            # Unreachable for B = A + I, kept as a hard failure for safety.
            raise PowerIterationError("power iteration collapsed to zero",
                                      last_iterate=x, iterations=k)
        y /= nrm
        if float(np.max(np.abs(y - x))) <= eps:
            return y, k
        x = y
    raise PowerIterationError(
        f"power method did not converge in {max_iters} iterations",
        last_iterate=x, iterations=max_iters)


def _rho_from_vector(A: np.ndarray, v: np.ndarray, threshold: float) -> float:
    """Spectral radius estimate from an approximate eigenvector.

    Uses the largest component ratio (A v)_i / v_i over components larger than
    ``threshold``; at an exact eigenvector every such ratio equals rho and the
    large components carry the smallest relative error.  Falls back to the
    Rayleigh product (v, A v) when no component qualifies.
    """
    Av = A @ v
    mask = v > threshold
    if np.any(mask):
        return float(np.max(Av[mask] / v[mask]))
    return float(v @ Av)


def selected_eigenpair(A, config: PowerConfig | None = None) -> Eigenpair:
    """Selected leading eigenpair of a non-negative square matrix.

    Runs power iteration on A + I starting from the all-ones direction.  The
    returned eigenvector is entrywise non-negative and normalized to unit
    Euclidean norm; rho is estimated from it on A itself, the product the
    Collatz-Wielandt bounds divide.  The left eigenvector is the right one of
    the transpose: ``selected_eigenpair(A.T).v``.

    Parameters
    ----------
    A : array_like
        Square non-negative matrix.
    config : PowerConfig, optional
        Convergence parameters; defaults to ``PowerConfig()``.

    Raises
    ------
    PowerIterationError
        If the iteration budget is exhausted before convergence.
    """
    A = check_matrix(A)
    cfg = config or PowerConfig()
    d = A.shape[0]
    v, iters = _power_vector(A + np.eye(d), cfg.eps, cfg.resolve_max_iters(d))
    # The iterate of a non-negative matrix from a positive start stays
    # non-negative; clip fp dust so downstream sign checks are exact.
    v = np.maximum(v, 0.0)
    v /= float(np.linalg.norm(v))
    return Eigenpair(rho=_rho_from_vector(A, v, cfg.eps), v=v, power_iters=iters)


def _upper_from_dots(v: np.ndarray, dots: np.ndarray, zero_tol: float) -> float:
    """Aggregate max_i dots_i / v_i with the vanishing-component conventions."""
    live = v > zero_tol
    if np.any(dots[~live] > 0.0) or not np.any(live):
        # A vanishing component that still sees mass makes the ratio
        # unbounded.  When every row hits the 0/0 case nothing constrains
        # the radius from above, which cannot happen for a unit-norm
        # eigenvector.
        return float("inf")
    return float(np.max(dots[live] / v[live]))


def _lower_from_dots(v: np.ndarray, dots: np.ndarray, zero_tol: float) -> float:
    """Aggregate min_i dots_i / v_i, vanishing components contributing +inf."""
    live = v > zero_tol
    if not np.any(live):
        return float("inf")
    return float(np.min(dots[live] / v[live]))


def upper_bound_s(v, family, zero_tol: float = ZERO_TOL) -> float:
    """A-posteriori upper bound s on the maximal spectral radius.

    For each row index, s_i is the largest achievable (row, v) divided by v_i.
    Rows whose eigenvector component vanishes (v_i <= zero_tol) contribute
    +inf when some candidate row still sees mass ((row, v) > 0) and are
    skipped entirely on the 0/0 case.  Returns max_i s_i.

    The bound sandwiches every iterate: rho_k <= s, and rho_max <= s.  The
    achievable values are the product of the maximizing matrix with v, the
    same product the optimizer certifies with, so s is never below a ratio
    of that matrix by rounding, however small v_i is.
    """
    v = check_vector(v, family.d)
    return _upper_from_dots(v, family.best_matrix(v, "max") @ v, zero_tol)


def lower_bound_t(v, family, zero_tol: float = ZERO_TOL) -> float:
    """A-posteriori lower bound t on the minimal spectral radius.

    Mirror image of :func:`upper_bound_s` with minimizing rows: t_i is the
    smallest achievable (row, v) divided by v_i, rows with vanishing v_i
    contribute +inf (they never bind the minimum), and t = min_i t_i satisfies
    t <= rho_k and t <= rho_min.
    """
    v = check_vector(v, family.d)
    return _lower_from_dots(v, family.best_matrix(v, "min") @ v, zero_tol)
