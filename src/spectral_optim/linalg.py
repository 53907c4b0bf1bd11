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
    "bounds",
]

# An eigenvector component at or below this counts as zero, in one rule for
# the radius estimate, both bounds, the optimizer's pivot scores and its
# reducibility test (see :func:`_row_ratios`).
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


def _rho_from_vector(A: np.ndarray, v: np.ndarray) -> float:
    """Largest ratio (A v)_i / v_i over the components above ZERO_TOL, all
    equal to rho at an exact eigenvector.  A unit-norm v has a component of
    at least 1 / sqrt(d), so one always qualifies."""
    Av = A @ v
    live = v > ZERO_TOL
    return float(np.max(Av[live] / v[live]))


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
    return Eigenpair(rho=_rho_from_vector(A, v), v=v, power_iters=iters)


def _row_ratios(v: np.ndarray, dots: np.ndarray, direction: str) -> np.ndarray:
    """Per-row ratios dots_i / v_i: s_i for ``max``, t_i for ``min``.

    A component at or below ZERO_TOL vanishes.  For ``max`` its ratio is
    +inf when the row still sees mass (dots_i > 0) and -inf on 0/0, so it is
    skipped; for ``min`` it is +inf, never binding the minimum.
    """
    fill = (np.where(dots > 0.0, np.inf, -np.inf) if direction == "max"
            else np.full(v.shape, np.inf))
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
