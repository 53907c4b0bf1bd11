"""Worked example fixtures: the cycling family, a degree sequence, and an
unstable 10 x 10 matrix.

The 3 x 3 finite family built by :func:`cycling_family` is the canonical
demonstration of why eigenvector selection matters.  Its maximal spectral
radius is 12, but the intermediate iterate

    [[0, 5, 10],     and its row-swapped twin      [[0, 10, 5],
     [0, 10, 0],                                    [0, 10, 0],
     [0, 0, 10]]                                    [0, 0, 10]]

both have spectral radius 10 with a two-dimensional leading eigenspace.
Plain greedy steered by adversarially chosen (yet perfectly valid) leading
eigenvectors flips between the two forever; greedy driven by *selected*
eigenvectors walks straight to the optimum.  :func:`adversarial_eigenvectors`
returns exactly that adversarial choice as an ``eigenvector_fn`` hook.
"""

from __future__ import annotations

import numpy as np

from .linalg import PowerConfig
from .optimize import OptimizationResult, OptimizerConfig, optimize
from .rows import FiniteSet, ProductFamily

__all__ = [
    "cycling_family",
    "cycling_initial_matrix",
    "adversarial_eigenvectors",
    "run_cycling_demo",
    "DEMO_DEGREES",
    "unstable_demo_matrix",
]

# Degree sequence for the 7-vertex graph example (documented optimum: the
# maximal spectral radius over at-most-these-degrees graphs is about 3.21432).
DEMO_DEGREES = (3, 2, 3, 2, 4, 1, 1)

_CYCLE_A = np.array([[0.0, 5.0, 10.0],
                     [0.0, 10.0, 0.0],
                     [0.0, 0.0, 10.0]])
_CYCLE_B = np.array([[0.0, 10.0, 5.0],
                     [0.0, 10.0, 0.0],
                     [0.0, 0.0, 10.0]])


def cycling_family() -> ProductFamily:
    """3 x 3 finite family (4 x 2 x 2 = 16 members, maximal radius 12)."""
    return ProductFamily((
        FiniteSet(np.array([[1.0, 1.0, 1.0],
                            [0.0, 5.0, 10.0],
                            [0.0, 10.0, 5.0],
                            [12.0, 0.0, 0.0]])),
        FiniteSet(np.array([[1.0, 1.0, 1.0],
                            [0.0, 10.0, 0.0]])),
        FiniteSet(np.array([[1.0, 1.0, 3.0],
                            [0.0, 0.0, 10.0]])),
    ))


def cycling_initial_matrix() -> np.ndarray:
    """First row of each set; a deliberately bland starting member."""
    return np.array([[1.0, 1.0, 1.0],
                     [1.0, 1.0, 1.0],
                     [1.0, 1.0, 3.0]])


def adversarial_eigenvectors():
    """Hook returning legitimate but worst-case leading eigenvectors.

    (2, 2, 1) and (2, 1, 2) really are leading eigenvectors of the two
    radius-10 iterates above; steering greedy with them makes it swap the
    first row back and forth.  For any other matrix the hook defers to the
    selected eigenvector.
    """
    def hook(A: np.ndarray):
        if np.allclose(A, _CYCLE_A):
            return np.array([2.0, 2.0, 1.0])
        if np.allclose(A, _CYCLE_B):
            return np.array([2.0, 1.0, 2.0])
        return None

    return hook


def run_cycling_demo(eps: float = 1e-12) -> tuple[OptimizationResult, OptimizationResult]:
    """Run greedy (adversarial hook) and selective greedy side by side.

    Returns (greedy_result, selective_result): the first ends cycle-detected
    at radius 10, the second reaches the optimum 12.
    """
    fam = cycling_family()
    start = cycling_initial_matrix()
    power = PowerConfig(eps=eps)
    g = optimize(fam, OptimizerConfig(method="greedy", power=power),
                 eigenvector_fn=adversarial_eigenvectors(), initial_matrix=start)
    s = optimize(fam, OptimizerConfig(power=power), initial_matrix=start)
    return g, s


def unstable_demo_matrix() -> np.ndarray:
    """10 x 10 non-negative matrix with spectral radius about 9.139, used by
    the stabilization example (its nearest stable matrix in the operator
    infinity norm lies at distance about 8)."""
    return np.array([
        [0.0, 0.0, 0.0, 3.0, 5.0, 0.0, 8.0, 0.0, 0.0, 0.0],
        [8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0, 0.0],
        [0.0, 2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 5.0, 0.0, 7.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 6.0, 2.0, 2.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 7.0, 0.0],
        [0.0, 0.0, 0.0, 9.0, 5.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 8.0, 9.0],
    ])
