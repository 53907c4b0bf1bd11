"""Property-based checks (hypothesis) for the row-set and bound contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectral_optim.linalg import bounds
from spectral_optim.rows import Ellipsoid, FiniteSet, L1Ball, ProductFamily

finite_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def finite_set_and_v(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    rows = np.array([[draw(finite_floats) for _ in range(d)] for _ in range(n)])
    v = np.array([draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
                  for _ in range(d)])
    if not np.any(v > 0):
        v[draw(st.integers(min_value=0, max_value=d - 1))] = 1.0
    return FiniteSet(rows), v


@given(finite_set_and_v(), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_best_row_is_scale_invariant_and_ordered(case, scale):
    rs, v = case
    hi = rs.best_row(v, "max")
    lo = rs.best_row(v, "min")
    scaled = scale * v
    if np.any(scaled > 0):
        np.testing.assert_array_equal(rs.best_row(scaled, "max"), hi)
        np.testing.assert_array_equal(rs.best_row(scaled, "min"), lo)
    else:
        # The product underflowed a subnormal v to zero, which is a
        # degenerate objective (test_degenerate_objective_rejected).
        with pytest.raises(ValueError, match="degenerate"):
            rs.best_row(scaled, "max")
    assert float(hi @ v) >= float(lo @ v) - 1e-12
    assert rs.contains(hi) and rs.contains(lo)


@st.composite
def ball_case(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    center = np.array([draw(st.floats(min_value=0.5, max_value=5.0,
                                      allow_nan=False)) for _ in range(d)])
    radius = draw(st.floats(min_value=0.0, max_value=0.4, allow_nan=False))
    v = np.array([draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
                  for _ in range(d)])
    if not np.any(v > 0):
        v[0] = 1.0
    return L1Ball(center, radius), v


@given(ball_case())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_l1_ball_optima_are_feasible_and_bracket_the_center(case):
    rs, v = case
    hi = rs.best_row(v, "max")
    lo = rs.best_row(v, "min")
    assert rs.contains(hi, tol=1e-9) and rs.contains(lo, tol=1e-9)
    mid = float(rs.center @ v)
    assert float(hi @ v) >= mid - 1e-12
    assert float(lo @ v) <= mid + 1e-12


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.05, max_value=0.3),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ellipsoid_optimum_touches_the_boundary(d, radius, seed):
    rng = np.random.default_rng(seed)
    axes = 0.5 + rng.random(d)
    center = radius * axes + 0.5 + rng.random(d)
    rs = Ellipsoid(center, radius, axes)
    v = rng.random(d) + 0.01
    x = rs.best_row(v, "max")
    assert rs.contains(x, tol=1e-9)
    residual = float(np.linalg.norm((x - center) / (radius * axes)))
    assert abs(residual - 1.0) <= 1e-9


@given(finite_set_and_v())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bounds_sandwich_the_row_ratios(case):
    rs, v = case
    d = rs.d
    fam = ProductFamily(tuple(rs for _ in range(d)))
    nv = float(np.linalg.norm(v))
    v = v / nv if nv else np.ones(d) / np.sqrt(d)
    t, s = bounds(v, fam)
    assert t <= s + 1e-12
    A = fam.best_matrix(v, "max")
    dots = A @ v
    keep = v > 1e-12
    if np.any(keep):
        assert np.max(dots[keep] / v[keep]) <= s + 1e-9
