import numpy as np
import pytest

from spectral_optim import (
    FiniteSet,
    HalfspacePoly,
    PowerConfig,
    PowerIterationError,
    ProductFamily,
    bounds,
    selected_eigenpair,
)
from spectral_optim.linalg import (
    ZERO_TOL,
    _bounds,
    _row_ratios,
    check_matrix,
    check_vector,
)

from oracles import (
    eig_rho,
    fixture_rows,
    lower_from_dots_loop,
    perturbed_leading_vector,
    row_ratios_loop,
    upper_from_dots_loop,
)

TIGHT = PowerConfig(eps=1e-12)

A2 = np.array([[0.0, 5.0, 10.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
A4 = np.array([[12.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
A1 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]])


def fixture_family() -> ProductFamily:
    return ProductFamily(tuple(FiniteSet(r) for r in fixture_rows()))


def unit(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x)


def test_identity_eigenpair():
    pair = selected_eigenpair(np.eye(3), TIGHT)
    assert pair.rho == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pair.v, np.full(3, 1.0 / np.sqrt(3)), atol=1e-12)
    assert pair.power_iters == 1


@pytest.mark.parametrize(
    "A,rho,v",
    [
        (A2, 10.0, (3.0, 2.0, 2.0)),
        (A4, 12.0, (49.0, 5.0, 6.0)),
        (A1, 4.0, (1.0, 1.0, 2.0)),
    ],
)
def test_fixture_eigenpairs(A, rho, v):
    pair = selected_eigenpair(A, TIGHT)
    assert pair.rho == pytest.approx(rho, abs=1e-9)
    assert np.allclose(pair.v, unit(v), atol=1e-9)
    assert np.linalg.norm(pair.v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(pair.v >= 0.0)


def _left(A):
    """Left eigenvector: the selected right one of the transpose."""
    return selected_eigenpair(np.asarray(A).T, TIGHT).v


def test_left_eigenvector_examples():
    assert np.allclose(_left(np.array([[0.0, 1.0], [1.0, 0.0]])),
                       unit((1.0, 1.0)), atol=1e-10)
    assert np.allclose(_left(np.eye(4)), np.full(4, 0.5), atol=1e-12)
    # A4's first row decouples index 0 from the rest on the transpose side.
    u = _left(A4)
    assert np.allclose(u, (1.0, 0.0, 0.0), atol=1e-8)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    rho = selected_eigenpair(A4, TIGHT).rho
    assert np.max(np.abs(u @ A4 - rho * u)) < 1e-7


def test_residual_and_norm_on_random_matrices():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 5, 8):
        for _ in range(5):
            A = rng.random((d, d)) + 0.05
            pair = selected_eigenpair(A, TIGHT)
            scale = 10.0 * TIGHT.eps * max(1.0, pair.rho)
            assert np.max(np.abs(A @ pair.v - pair.rho * pair.v)) <= scale
            assert np.linalg.norm(pair.v) == pytest.approx(1.0, abs=1e-12)
            assert pair.rho == pytest.approx(eig_rho(A), abs=1e-9)


def test_shift_identity():
    rng = np.random.default_rng(7)
    mats = [A2, A4, A1] + [rng.random((4, 4)) for _ in range(3)]
    for A in mats:
        base = selected_eigenpair(A, TIGHT)
        shifted = selected_eigenpair(A + np.eye(A.shape[0]), TIGHT)
        assert shifted.rho - base.rho == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(shifted.v - base.v)) < 1e-10


def test_selected_vector_matches_perturbed_limit():
    rng = np.random.default_rng(13)
    cfg = PowerConfig(eps=1e-11, max_iters=300000)
    for trial in range(20):
        d = 2 + trial % 7
        A = rng.random((d, d)) * (rng.random((d, d)) < 0.45)
        reference = perturbed_leading_vector(A, eps_perturb=1e-9)
        v = selected_eigenpair(A, cfg).v
        assert np.linalg.norm(v - reference) < 1e-4


def test_upper_bound_examples():
    family = fixture_family()
    assert bounds(np.array([2.0, 2.0, 1.0]) / 3.0, family)[1] == pytest.approx(12.5, abs=1e-9)
    v4 = unit((49.0, 5.0, 6.0))
    assert bounds(v4, family)[1] == pytest.approx(12.0, abs=1e-9)


def test_upper_bound_infinite_on_vanishing_component():
    family = ProductFamily((FiniteSet(np.array([[0.0, 1.0]])),
                            FiniteSet(np.array([[0.0, 1.0]]))))
    assert bounds(np.array([0.0, 1.0]), family)[1] == np.inf


def test_bounds_skip_zero_over_zero_rows():
    # Row 1's component vanishes and its best row sees no mass: it is
    # skipped by both bounds instead of making s infinite.
    family = ProductFamily((FiniteSet(np.array([[2.0, 0.0]])),
                            FiniteSet(np.array([[0.0, 3.0]]))))
    v = np.array([1.0, 0.0])
    assert bounds(v, family) == (2.0, 2.0)


def test_bounds_are_infinite_when_no_component_qualifies():
    family = ProductFamily((FiniteSet(np.array([[0.0, 0.0]])),
                            FiniteSet(np.array([[0.0, 1.0]]))))
    v = np.array([ZERO_TOL, 0.5 * ZERO_TOL])
    assert bounds(v, family) == (np.inf, np.inf)


def test_bound_aggregation_matches_the_row_loop():
    rng = np.random.default_rng(113)
    for case in range(2000):
        d = 1 + case % 9
        v = rng.random(d) * (rng.random(d) < 0.7)
        v[rng.random(d) < 0.2] = 1e-13
        dots = rng.random(d) * (rng.random(d) < 0.6)
        t, s = _bounds(v, dots, dots)
        assert s.hex() == upper_from_dots_loop(v, dots, ZERO_TOL).hex()
        assert t.hex() == lower_from_dots_loop(v, dots, ZERO_TOL).hex()


def test_row_ratios_match_the_pivot_score_loop():
    rng = np.random.default_rng(114)
    for case in range(2000):
        d = 1 + case % 9
        v = rng.random(d) * (rng.random(d) < 0.7)
        v[rng.random(d) < 0.2] = 1e-13
        dots = rng.random(d) * (rng.random(d) < 0.6)
        for direction in ("max", "min"):
            assert (_row_ratios(v, dots, direction).tobytes()
                    == row_ratios_loop(v, dots, direction, ZERO_TOL).tobytes())


def test_bounds_solve_one_lp_per_polytope_row(monkeypatch):
    import importlib

    rows_module = importlib.import_module("spectral_optim.rows")
    solved = []
    real = rows_module.lp_optimize

    def spy(lp, *args, **kwargs):
        solved.append(lp.objective.tobytes())
        return real(lp, *args, **kwargs)

    monkeypatch.setattr(rows_module, "lp_optimize", spy)
    rng = np.random.default_rng(115)
    d = 5
    family = ProductFamily(tuple(HalfspacePoly(rng.random((6, d)) / 2.0)
                                 for _ in range(d)))
    v = unit(rng.random(d) + 0.1)
    t, s = bounds(v, family)
    assert solved == [v.tobytes()] * d
    assert t <= s


def test_bounds_agree_with_the_extreme_matrix_at_tiny_components():
    # A tiny but live v_i turns one rounding step in (row, v) into a large
    # step in the ratio: the bounds must divide the same product A @ v that
    # the extreme matrices give, not a differently rounded per-row dot.
    cases = (([[0.0, 1.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0]], (1.0, 2.0, 3.0, 1e-10)),
             ([[1.5, 1.0]], (3.0, 5.96046448e-08)),
             ([[3.0, 1.0, 0.0]], (1.12109375, 3.0, 1e-08)))
    for rows, raw in cases:
        v = unit(raw)
        family = ProductFamily((FiniteSet(np.array(rows)),) * len(raw))
        up = family.best_matrix(v, "max") @ v
        down = family.best_matrix(v, "min") @ v
        assert bounds(v, family)[1] == np.max(up / v)
        assert bounds(v, family)[0] == np.min(down / v)


def test_lower_bound_examples():
    singleton = ProductFamily(tuple(FiniteSet(np.eye(3)[i:i + 1]) for i in range(3)))
    assert bounds(unit((1.0, 1.0, 1.0)), singleton)[0] == pytest.approx(1.0, abs=1e-12)

    family = fixture_family()
    assert bounds(unit((3.0, 2.0, 2.0)), family)[0] == pytest.approx(7.0 / 3.0, abs=1e-12)

    with_zero_row = ProductFamily((FiniteSet(np.array([[0.0, 0.0], [3.0, 1.0]])),
                                   FiniteSet(np.array([[1.0, 2.0]]))))
    assert bounds(unit((1.0, 1.0)), with_zero_row)[0] <= 0.0


def test_bounds_sandwich_on_fixture_iterates():
    family = fixture_family()
    for A in (A1, A2, A4):
        pair = selected_eigenpair(A, TIGHT)
        t, s = bounds(pair.v, family)
        assert t <= pair.rho + 1e-9
        assert pair.rho <= s + 1e-9
        assert 12.0 <= s + 1e-9  # the family maximum stays below every s


def test_nonconvergence_carries_last_iterate():
    with pytest.raises(PowerIterationError, match="did not converge") as err:
        selected_eigenpair(A2, PowerConfig(eps=1e-15, max_iters=3))
    assert err.value.iterations == 3
    assert err.value.last_iterate.shape == (3,)
    assert np.all(np.isfinite(err.value.last_iterate))


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        check_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        check_matrix(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        check_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="length"):
        check_vector(np.ones(3), 2)
    with pytest.raises(ValueError, match="non-negative"):
        check_vector(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        PowerConfig(eps=0.0)
    with pytest.raises(ValueError):
        PowerConfig(max_iters=0)
