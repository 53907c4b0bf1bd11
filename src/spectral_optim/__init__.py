"""Spectral radius optimization for non-negative matrices over product
families of row uncertainty sets.

The central objects are :class:`~spectral_optim.rows.ProductFamily` (one row
uncertainty set per matrix row) and the optimizers in
:mod:`~spectral_optim.optimize`, which minimize or maximize the spectral
radius by iteratively swapping rows against leading eigenvectors.  See the
README for a tour.
"""

from .linalg import (
    Eigenpair,
    PowerConfig,
    PowerIterationError,
    bounds,
    selected_eigenpair,
)
from .lp import LinearProgram, LPInfeasibleError, LPUnboundedError, lp_optimize
from .rows import (
    Ellipsoid,
    FiniteSet,
    GraphDegreeSet,
    HalfspacePoly,
    L1Ball,
    ProductFamily,
    RowSet,
)
from .optimize import (
    OptimizationResult,
    OptimizerConfig,
    TraceRow,
    linear_rate_bound,
    optimize,
)
from .apps import (
    DegreeSpec,
    StabilizationProblem,
    closest_stable,
    closest_unstable,
    degree_family,
    optimize_graph,
    stabilization_family,
)
from .gen import CounterStream, generate_random_family, generate_random_poly_family
from .bench import BenchCell, BenchSpec, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "Eigenpair",
    "PowerConfig",
    "PowerIterationError",
    "bounds",
    "selected_eigenpair",
    "LinearProgram",
    "LPInfeasibleError",
    "LPUnboundedError",
    "lp_optimize",
    "Ellipsoid",
    "FiniteSet",
    "GraphDegreeSet",
    "HalfspacePoly",
    "L1Ball",
    "ProductFamily",
    "RowSet",
    "OptimizationResult",
    "OptimizerConfig",
    "TraceRow",
    "linear_rate_bound",
    "optimize",
    "DegreeSpec",
    "StabilizationProblem",
    "closest_stable",
    "closest_unstable",
    "degree_family",
    "optimize_graph",
    "stabilization_family",
    "CounterStream",
    "generate_random_family",
    "generate_random_poly_family",
    "BenchCell",
    "BenchSpec",
    "run_benchmark",
]
