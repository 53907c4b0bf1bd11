"""The benchmark's output checker passes honest outputs and flags doctored
ones: a row that is not a member of its set, the starting matrix in place
of the optimum, an inflated radius and bounds that miss the radius.

    python3 -m pytest perfbench/test_check.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

_HERE = Path(__file__).resolve().parent
for _p in (_HERE, _HERE.parent / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import check  # noqa: E402
import spectral_optim as so  # noqa: E402
from spectral_optim import demo  # noqa: E402

ALPHA = 1e-8


def _solve(fam, direction):
    return so.optimize(fam, so.OptimizerConfig(direction=direction,
                                               reducibility_alpha=ALPHA))


def _rows(fam):
    return [rs.rows for rs in fam.sets]


def _starting(fam, direction):
    """The driver's starting matrix, with its own radius and eigenvector, so
    that only the optimality certificate can tell it from the optimum."""
    A = fam.best_matrix(np.ones(fam.d), direction)
    pair = so.selected_eigenpair(A)
    return A, pair.rho, pair.v


@pytest.fixture(scope="module")
def worked():
    fam = demo.cycling_family()
    return fam, {d: _solve(fam, d) for d in ("max", "min")}


@pytest.fixture(scope="module")
def sparse():
    fam = so.generate_random_family(40, 6, (0.09, 0.15), seed=3)
    return fam, {d: _solve(fam, d) for d in ("max", "min")}


def test_reference_radius_is_blockwise():
    # Two blocks, one a Jordan-like coupling: exact radius 2.
    A = np.array([[2.0, 1e6, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    assert check.reference_radius(A) == 2.0
    assert check.reference_radius(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("direction", ["max", "min"])
def test_honest_finite_outputs_pass(worked, sparse, direction):
    for fam, res in (worked, sparse):
        assert check.check_finite(_rows(fam), direction, res[direction], ALPHA) == []


def test_reducible_min_with_slow_transients_passes():
    # Acceptance-criterion-9 family 9277: two classes with radii 0.5440 and
    # 0.5433 leave transients in the returned eigenvector.
    fam = so.generate_random_family(18, 2, (0.05, 0.2), seed=9277)
    assert check.check_finite(_rows(fam), "min", _solve(fam, "min"), ALPHA) == []


@pytest.mark.parametrize("direction", ["max", "min"])
def test_non_member_row_is_flagged(sparse, direction):
    fam, res = sparse
    bad = copy.copy(res[direction])
    bad.matrix = res[direction].matrix.copy()
    bad.matrix[5] *= 1.5
    fails = check.check_finite(_rows(fam), direction, bad, ALPHA)
    assert any("not a candidate row" in f for f in fails)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_starting_matrix_is_flagged(sparse, direction):
    # (On the worked family the minimizing start is already optimal.)
    fam, res = sparse
    bad = copy.copy(res[direction])
    bad.matrix, bad.rho, bad.eigenvector = _starting(fam, direction)
    bad.perturbed_result = None
    fails = check.check_finite(_rows(fam), direction, bad, ALPHA)
    assert any("certificate" in f for f in fails), fails
    assert not any(f.startswith("radius") for f in fails)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_inflated_rho_is_flagged(sparse, direction):
    fam, res = sparse
    bad = copy.copy(res[direction])
    bad.rho = res[direction].rho * (1.0 + 1e-4)
    fails = check.check_finite(_rows(fam), direction, bad, ALPHA)
    assert len(fails) == 1 and fails[0].startswith("radius")


def test_bounds_that_miss_the_radius_are_flagged(sparse):
    fam, res = sparse
    bad = copy.copy(res["max"])
    t, s = res["max"].bounds
    ref = check.reference_radius(res["max"].matrix)
    bad.bounds = (t, ref * (1.0 - 1e-9))
    fails = check.check_finite(_rows(fam), "max", bad, ALPHA)
    assert any(f.startswith("upper bound") for f in fails)
    bad.bounds = (ref * (1.0 + 1e-9), s)
    fails = check.check_finite(_rows(fam), "max", bad, ALPHA)
    assert any(f.startswith("lower bound") for f in fails)


@pytest.fixture(scope="module")
def poly():
    fam = so.generate_random_poly_family(6, 8, seed=1)
    return fam, [rs.normals for rs in fam.sets], _solve(fam, "max")


def test_poly_checks(poly):
    fam, normals, res = poly
    assert check.check_poly(normals, "max", res, ALPHA) == []
    bad = copy.copy(res)
    bad.matrix = res.matrix.copy()
    bad.matrix[0] = 1.0
    assert any("outside" in f for f in check.check_poly(normals, "max", bad, ALPHA))
    bad = copy.copy(res)
    bad.matrix, bad.rho, bad.eigenvector = _starting(fam, "max")
    assert any("certificate" in f for f in check.check_poly(normals, "max", bad, ALPHA))
    bad = copy.copy(res)
    bad.rho = res.rho * 1.01
    assert check.check_poly(normals, "max", bad, ALPHA)[0].startswith("radius")


@pytest.mark.parametrize("direction", ["max", "min"])
def test_graph_checks(direction):
    degrees = np.array([3, 2, 3, 2, 4, 1, 1, 5, 2, 6])
    spec = so.DegreeSpec(tuple(int(n) for n in degrees), direction)
    adj, rho = so.optimize_graph(spec)
    assert check.check_graph(degrees, direction, adj, rho) == []
    bad = adj.copy()
    bad[0, np.flatnonzero(bad[0])[0]] = 0.0
    assert any("row sums" in f for f in check.check_graph(degrees, direction, bad, rho))
    start = so.degree_family(spec).best_matrix(np.ones(len(degrees)), direction)
    start_rho = check.reference_radius(start)
    fails = check.check_graph(degrees, direction, start, start_rho)
    assert any("certificate" in f for f in fails), fails
    assert check.check_graph(degrees, direction, adj, rho * 1.01)[0].startswith("radius")


def test_stabilization_checks():
    A = demo.unstable_demo_matrix()
    X, r = so.closest_stable(so.StabilizationProblem(A))
    assert check.check_stabilized(A, 1.0, X, r, expected_r=8.0) == []
    # A row moved further than r from A.
    bad = X.copy()
    bad[0] += 0.1
    assert any("exceeds r" in f for f in check.check_stabilized(A, 1.0, bad, r))
    # The zero matrix is stable but far: r is then not minimal.
    Z = np.zeros_like(A)
    r_z = float(np.max(A.sum(axis=1)))
    assert any("no certificate" in f for f in check.check_stabilized(A, 1.0, Z, r_z))
    # X at a claimed radius below the true one.
    assert check.check_stabilized(A, 1.0, X, r * 0.99)
    # A matrix that is not stable.
    assert any("above target" in f for f in check.check_stabilized(A, 1.0, A, 0.0))
    assert any("not within" in f
               for f in check.check_stabilized(A, 1.0, X, r, expected_r=7.9))
