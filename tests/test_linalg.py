import numpy as np
import pytest

from spectral_optim import (
    FiniteSet,
    HalfspacePoly,
    PowerConfig,
    PowerIterationError,
    ProductFamily,
    bounds,
    generate_random_family,
    selected_eigenpair,
)
from spectral_optim.linalg import (
    ZERO_TOL,
    _SQUARING_ROWS,
    _bounds,
    _row_ratios,
    check_matrix,
    check_vector,
)

from oracles import (
    blockwise_rho,
    closure_classes,
    eig_rho,
    fixture_rows,
    inflated,
    lower_from_dots_loop,
    padded,
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
    assert (pair.path, pair.power_iters, pair.squarings) == ("squaring", 0, 1)


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
    # Row 1's best row sees no mass at v.  At a tiny positive component the
    # 0/0 row is skipped by both bounds.  At an exact zero it makes s
    # infinite: v cannot see the block {1}, whose radius 3 is the member's.
    skipped = ProductFamily((FiniteSet(np.array([[2.0, 0.0]])),
                             FiniteSet(np.array([[0.0, 0.0]]))))
    assert bounds(np.array([1.0, 0.5 * ZERO_TOL]), skipped) == (2.0, 2.0)
    family = ProductFamily((FiniteSet(np.array([[2.0, 0.0]])),
                            FiniteSet(np.array([[0.0, 3.0]]))))
    assert bounds(np.array([1.0, 0.0]), family) == (2.0, np.inf)


def test_bounds_see_a_block_behind_an_exact_zero():
    # v = (1, 0) is an eigenvector of [[1, 0], [0, 0]], yet the member
    # [[1, 0], [0, 5]] has radius 5: s must not stop at 1.
    family = ProductFamily((FiniteSet(np.array([[1.0, 0.0]])),
                            FiniteSet(np.array([[0.0, 0.0], [0.0, 5.0]]))))
    t, s = bounds(np.array([1.0, 0.0]), family)
    assert t == 1.0
    assert s == np.inf
    assert s >= eig_rho(np.array([[1.0, 0.0], [0.0, 5.0]]))


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
    real_stack = rows_module._solve_stack

    def spy_stack(problems):
        def seen():
            for lp, earlier in problems:
                solved.append(lp.objective.tobytes())
                yield lp, earlier
        return real_stack(seen())

    # Every polytope solve, alone or in a family, goes through one stack:
    # count its programs.
    monkeypatch.setattr(rows_module, "_solve_stack", spy_stack)
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


@pytest.mark.parametrize("coupling", [1e-7, 1e-10, 1e-13])
def test_a_squaring_that_does_not_settle_hands_over_to_the_classes(coupling):
    # A Jordan chain coupled at 1e-10 of its diagonal: the upper component
    # decays like 1 / (1 + 3e-11 n), which needs n far beyond 2^64 to reach
    # 1e-12, and each squaring's change grows, from below 1e-12 at 1e-13.
    # The classes give the limit exactly, as they do above the squaring
    # limit.
    pair = selected_eigenpair(np.array([[1.0, coupling], [0.0, 1.0]]))
    assert (pair.path, pair.squarings, pair.power_iters) == ("structural", 64, 0)
    assert pair.rho == 1.0
    assert pair.v.tolist() == [1.0, 0.0]


def test_nonconvergence_carries_last_iterate(monkeypatch):
    # No input reaches the cap of the squaring that continues a power
    # stage: one squaring of B^(2^j) resolves any gap that the earlier
    # ones left.  A cap of one squaring shows the error it raises.
    import spectral_optim.linalg as linalg_module

    monkeypatch.setattr(linalg_module, "_MAX_SQUARINGS", 1)
    slow = inflated([[1.0, 2.0], [1e-3, 1.0]])
    with pytest.raises(PowerIterationError,
                       match=r"did not settle in 1 squarings \(d=66, last change") as err:
        selected_eigenpair(slow, PowerConfig(max_iters=3))
    assert err.value.last_iterate.shape == (66,)
    assert np.all(np.isfinite(err.value.last_iterate))


def test_power_stage_past_its_budget_squares_on():
    # Eigenvalues 1 +- 0.045: hundreds of power steps at eps 1e-15, not 3.
    slow = inflated([[1.0, 2.0], [1e-3, 1.0]])
    pair = selected_eigenpair(slow, PowerConfig(eps=1e-15, max_iters=3))
    assert (pair.path, pair.power_iters) == ("squaring", 3)
    assert pair.squarings > 0
    ref = selected_eigenpair(slow, PowerConfig(eps=1e-14, max_iters=10_000))
    assert ref.path == "power" and ref.power_iters > 100
    # The default budget, 3 steps per row, squares too.
    assert selected_eigenpair(slow).path == "squaring"
    assert np.max(np.abs(pair.v - ref.v)) <= 1e-12
    assert pair.rho == pytest.approx(eig_rho(slow), rel=1e-12)


_ENTRY_CHECKS = (
    (lambda a: check_vector(a[1]), "vector entries"),
    (check_matrix, "matrix entries"),
    (FiniteSet, "rows"),
    (HalfspacePoly, "normals"),
)


@pytest.mark.parametrize("bad, rule", [(np.nan, "finite"), (np.inf, "finite"),
                                       (-np.inf, "finite"), (-1.0, "non-negative"),
                                       (-5e-324, "non-negative")])
def test_every_entry_check_refuses_nan_infinities_and_negatives(bad, rule):
    for build, what in _ENTRY_CHECKS:
        a = np.ones((3, 3))
        a[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{what} must be {rule}$"):
            build(a)
        # A non-finite entry is named first, whatever else the array holds.
        a[1, 0] = -1.0
        with pytest.raises(ValueError, match=f"^{what} must be {rule}$"):
            build(a)


def test_entry_checks_accept_negative_zero_and_empty_arrays():
    for build, _ in _ENTRY_CHECKS:
        a = np.ones((3, 3))
        a[1, :] = -0.0
        build(a)
    assert check_vector(np.array([])).shape == (0,)
    assert check_vector([], 0).shape == (0,)
    assert HalfspacePoly(np.empty((0, 3))).d == 3


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


def test_power_config_refuses_a_non_integral_budget():
    with pytest.raises(ValueError, match="max_iters must be an integer, got 2.5"):
        PowerConfig(max_iters=2.5)
    assert PowerConfig(max_iters=np.int64(3)).resolve_max_iters(5) == 3


def test_power_config_rejects_a_non_finite_eps():
    # eps = inf would stop every power stage after its first iterate.
    with pytest.raises(ValueError, match="eps must be finite"):
        PowerConfig(eps=np.inf)


# ----------------------------------------------- squaring and structural paths

def test_irreducible_matrices_take_the_power_path():
    rng = np.random.default_rng(21)
    for A in (A1, np.array([[0.0, 1.0], [1.0, 0.0]]), rng.random((6, 6)) + 0.01):
        small = selected_eigenpair(A)
        assert small.path == "squaring" and small.power_iters == 0
        big = selected_eigenpair(inflated(A), TIGHT)
        assert big.path == "power" and big.squarings == 0
        n = big.v.size // A.shape[0]
        assert np.max(np.abs(big.v - np.repeat(small.v, n) / np.sqrt(n))) <= 1e-11
        assert big.rho == pytest.approx(small.rho, rel=1e-11)


def test_jordan_chain_selects_the_upper_class():
    # rho has index 2: power iteration reaches v = (1, 0) only at rate 1/k.
    # Squaring reaches k = 2^43, and the lower component, halving at each
    # squaring, is exactly 0.
    pair = selected_eigenpair(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert pair.path == "squaring"
    assert pair.rho == 1.0
    assert pair.v.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_nilpotent_matrix_has_radius_exactly_zero(scale):
    pair = selected_eigenpair(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert pair.path == "squaring"
    assert pair.rho == 0.0
    assert pair.v.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("d", [8, 15, 16, 17, 24, 32, 48, 64])
def test_shift_chain_squares_to_radius_zero_without_a_nan(d):
    # The squares of a long chain underflow toward 0 (from 16 rows on,
    # they reach it); the squaring stops there, at no 0/0 (the suite runs
    # RuntimeWarnings as errors), and the classes give rho exactly 0.
    pair = selected_eigenpair(np.diag(np.ones(d - 1), 1))
    assert pair.rho == 0.0
    assert pair.squarings < 64
    assert pair.v.tolist() == [1.0] + [0.0] * (d - 1)


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_structural_path_on_jordan_and_nilpotent_blocks(scale):
    # The same two matrices above the squaring limit: the classes give the
    # limit exactly.
    for A, rho in (([[1.0, 1.0], [0.0, 1.0]], scale), ([[0.0, 1.0], [0.0, 0.0]], 0.0)):
        pair = selected_eigenpair(padded(scale * np.array(A)))
        assert pair.path == "structural"
        assert pair.rho == rho
        assert pair.v.tolist() == [1.0] + [0.0] * _SQUARING_ROWS


def test_zero_matrix_keeps_the_all_ones_direction():
    pair = selected_eigenpair(np.zeros((3, 3)))
    assert pair.rho == 0.0
    assert np.allclose(pair.v, unit((1.0, 1.0, 1.0)), atol=1e-15)


def test_all_ones_matrix_has_radius_exactly_four():
    # Power-of-two scaling keeps the all-ones vector exact; scaling by the
    # largest entry gave 4.000000000000001.
    pair = selected_eigenpair(np.ones((4, 4)))
    assert pair.rho == 4.0
    assert pair.v.tolist() == [0.5] * 4


def test_chain_of_basic_classes_solves_upstream_components():
    # Classes {2} (basic, height 1), {1} (basic, height 2) and {0} (radius
    # 0.5, height 2): v_1 = 1, v_2 = 0 and (1 - 0.5) v_0 = v_1.
    A = np.array([[0.5, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    pair = selected_eigenpair(padded(A))
    assert pair.path == "structural"
    assert np.allclose(pair.v[:3], unit((2.0, 1.0, 0.0)), atol=1e-15)
    assert not np.any(pair.v[2:])
    # Squaring meets the same limit along the Jordan chain {1} -> {2}, at
    # the 1/k rate on the components it keeps.
    small = selected_eigenpair(A)
    assert small.path == "squaring"
    assert np.allclose(small.v, unit((2.0, 1.0, 0.0)), atol=1e-12)
    assert small.v[2] == 0.0


def _two_blocks(first, second):
    """4 x 4 matrix with the block ``first`` on rows {0, 2} and ``second``
    on rows {1, 3}, interleaved so that neither class is contiguous."""
    A = np.zeros((4, 4))
    A[np.ix_([0, 2], [0, 2])] = first
    A[np.ix_([1, 3], [1, 3])] = second
    return A


def test_tied_blocks_follow_the_tie_rule():
    B = np.array([[1.0, 2.0], [3.0, 1.0]])
    # Radii within 1e-9 relative are tied: both classes are basic at the top
    # height, and the power stage on A + I decides.
    for factor in (1.0, 1.0 + 1e-12):
        for A in (_two_blocks(B, factor * B), _two_blocks(factor * B, B)):
            pair = selected_eigenpair(padded(A))
            assert pair.path == "power"
            assert np.allclose(pair.v[[0, 2]], pair.v[[1, 3]], atol=1e-9)
    # Outside the tie the larger block alone is basic; the other is exactly 0.
    pair = selected_eigenpair(padded(_two_blocks(B, (1.0 + 1e-6) * B)))
    assert pair.path == "structural"
    assert pair.v[0] == pair.v[2] == 0.0
    swapped = selected_eigenpair(padded(_two_blocks((1.0 + 1e-6) * B, B)))
    assert np.array_equal(swapped.v[[0, 2, 1, 3]], pair.v[[1, 3, 0, 2]])


def test_squaring_separates_near_tied_blocks():
    # Squaring takes the limit itself: an exact tie keeps both blocks
    # equal, and any gap it can resolve within 64 squarings (1e-12 takes
    # 48) leaves the larger block alone, the other exactly 0.  The drift
    # between the blocks grows at each squaring, so it never stops early.
    B = np.array([[1.0, 2.0], [3.0, 1.0]])
    tie = selected_eigenpair(_two_blocks(B, B))
    assert np.array_equal(tie.v[[0, 2]], tie.v[[1, 3]])
    for factor in (1.0 + 1e-12, 1.0 + 1e-6):
        pair = selected_eigenpair(_two_blocks(B, factor * B))
        assert pair.path == "squaring"
        assert pair.v[0] == pair.v[2] == 0.0
        assert np.allclose(pair.v[[1, 3]], tie.v[[1, 3]] * np.sqrt(2.0), atol=1e-12)
        swapped = selected_eigenpair(_two_blocks(factor * B, B))
        assert np.array_equal(swapped.v[[0, 2, 1, 3]], pair.v[[1, 3, 0, 2]])


def _one_basic_class(rng):
    """Random reducible matrix with exactly one basic class, its vertices
    shuffled; returns (A, the class index arrays, the basic class)."""
    sizes = rng.integers(1, 4, size=int(rng.integers(2, 6)))
    d = int(sizes.sum())
    classes = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
    A = np.zeros((d, d))
    radii = []
    for c, idx in enumerate(classes):
        n = idx.size
        if n == 1:
            block = rng.random((1, 1)) * (rng.random() < 0.7)
        else:
            block = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            block[np.arange(n), (np.arange(n) + 1) % n] += 0.1 + rng.random(n)
        A[np.ix_(idx, idx)] = block
        radii.append(float(np.max(np.abs(np.linalg.eigvals(block)))))
        # Class c has edges only to classes before it.
        for below in classes[:c]:
            mask = rng.random((n, below.size)) < 0.4
            A[np.ix_(idx, below)] = rng.random((n, below.size)) * mask
    b = int(rng.integers(len(classes)))
    top = classes[b]
    if radii[b] == 0.0:
        A[top[0], top[0]] = radii[b] = 1.0
    A[np.ix_(top, top)] *= (1.5 * max(radii) + 0.5) / radii[b]
    return A, classes, b


def test_structural_vector_property():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        A, classes, b = _one_basic_class(rng)
        d = A.shape[0]
        pair = selected_eigenpair(padded(A))
        v, rho = pair.v[:d], pair.rho
        assert pair.path == "structural"
        assert not np.any(pair.v[d:])
        assert np.all(v >= 0.0)
        assert np.max(np.abs(A @ v - rho * v)) <= 1e-12 * rho
        # Height 1 on the classes with access to the basic one, else 0.
        reach = {b}
        for c in range(b + 1, len(classes)):
            targets = {j for j in range(c) if np.any(A[np.ix_(classes[c], classes[j])] > 0)}
            if targets & reach:
                reach.add(c)
        for c, idx in enumerate(classes):
            assert np.all(v[idx] == 0.0) if c not in reach else np.all(v[idx] > 0.0)
        assert np.linalg.norm(v - perturbed_leading_vector(A)) <= 1e-6
        # Squaring the small matrix meets the same vector, zeros included.
        small = selected_eigenpair(A)
        assert small.path == "squaring"
        assert np.array_equal(small.v == 0.0, v == 0.0)
        assert np.max(np.abs(small.v - v)) <= 1e-12


def test_large_class_runs_the_power_stage_on_its_block():
    # A 70-row class (above the dense limit) between an upstream and a
    # downstream singleton.
    rng = np.random.default_rng(7)
    A = np.zeros((72, 72))
    A[1:71, 1:71] = rng.random((70, 70))
    A[0, 0], A[0, 5] = 3.0, 1.0
    A[71, 71], A[7, 71] = 2.0, 1.0
    pair = selected_eigenpair(A)
    assert pair.path == "structural"
    assert pair.power_iters > 0 and pair.squarings == 0
    assert pair.v[71] == 0.0 and np.all(pair.v[:71] > 0.0)
    assert np.max(np.abs(A @ pair.v - pair.rho * pair.v)) <= 1e-8 * pair.rho
    assert np.linalg.norm(pair.v - perturbed_leading_vector(A)) <= 1e-6
    # A block past its budget squares on from its last iterate.
    short = selected_eigenpair(A, PowerConfig(max_iters=2))
    assert (short.path, short.power_iters) == ("structural", 2)
    assert short.squarings > 0
    # The block's limit is positive, so no component of it is set to 0.
    assert short.v[71] == 0.0 and np.all(short.v[:71] > 0.0)
    assert np.max(np.abs(short.v - pair.v)) <= 1e-8


def _top_class_over_a_sink(scale=1.0, tiny=None):
    """70 rows: a 40-row top class (above the dense limit, within the
    squaring limit) with an edge into a 30-row sink class of smaller
    radius.  ``tiny`` replaces one entry of the top class."""
    rng = np.random.default_rng(40)
    A = np.zeros((70, 70))
    A[:40, :40] = scale * rng.random((40, 40))
    A[40:, 40:] = 0.1 * scale * rng.random((30, 30))
    A[3, 50] = scale
    if tiny is not None:
        A[0, 1] = tiny
    return A


def test_a_forty_row_top_class_squares_on_its_block():
    A = _top_class_over_a_sink()
    pair = selected_eigenpair(A)
    assert (pair.path, pair.power_iters) == ("structural", 0)
    assert pair.squarings > 0
    assert np.all(pair.v[40:] == 0.0)
    w, V = np.linalg.eig(A[:40, :40])
    perron = unit(np.abs(V[:, int(np.argmax(w.real))].real))
    assert np.max(np.abs(pair.v[:40] - perron)) <= 1e-12
    assert pair.rho == pytest.approx(float(np.max(w.real)), rel=1e-12)


def test_a_lift_that_underflows_is_not_squared(monkeypatch):
    # Scaled into [1/2, 1), the 1e-300 entry underflows to 0, and the
    # squaring would see (1, 1) where the limit is (1, 0).
    pair = selected_eigenpair(np.array([[1e300, 1e-300], [0.0, 1e300]]))
    assert pair.path == "structural"
    assert pair.v.tolist() == [1.0, 0.0]
    # A class block whose lift underflows runs its power stage instead
    # (at a scale whose power iterates keep a finite norm); only the
    # 30-row sink class squares.
    import spectral_optim.linalg as linalg_module

    squared, real = [], linalg_module._squared_vector

    def spy(B, *args, **kwargs):
        squared.append(B.shape[0])
        return real(B, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "_squared_vector", spy)
    A = _top_class_over_a_sink(scale=1e150, tiny=1e-200)
    pair = selected_eigenpair(A)
    assert pair.path == "structural"
    assert pair.power_iters > 0 and squared == [30]
    assert np.all(pair.v[40:] == 0.0) and np.all(pair.v[:40] > 0.0)
    # Past its budget, that power stage cannot square on.
    with pytest.raises(PowerIterationError, match="double range"):
        selected_eigenpair(A, PowerConfig(max_iters=2))


def test_power_stage_normalizes_iterates_near_the_double_limit():
    # Squaring entries near 1e300 overflows a plain norm: each iterate is
    # scaled by the power of two of its largest entry before its norm is
    # taken.  The 80 rows put the matrix on the power path.
    import warnings

    from spectral_optim.linalg import _power_vector

    A = np.random.default_rng(40).random((80, 80))
    tight = PowerConfig(eps=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = selected_eigenpair(1e300 * A, tight)
        default = selected_eigenpair(1e300 * A)
    small = selected_eigenpair(A, tight)
    assert big.path == small.path == default.path == "power"
    assert big.rho == pytest.approx(1e300 * small.rho, rel=1e-12)
    assert np.max(np.abs(big.v - small.v)) <= 1e-12
    # At the default eps the stages on 1e300 A + I and on A + I stop at
    # different iterates, each within eps of the limit.
    assert default.rho == pytest.approx(1e300 * small.rho, rel=1e-8)
    # In range the scaling is exact: the plain normalization to the bit.
    B = A + np.eye(80)
    x = np.full(80, 1.0 / np.sqrt(80.0))
    for k in range(1, 100):
        y = B @ x
        y /= float(np.linalg.norm(y))
        if float(np.max(np.abs(y - x))) <= 1e-13:
            break
        x = y
    v, iters, done = _power_vector(lambda z: B @ z, np.full(80, 1.0 / np.sqrt(80.0)),
                                   1e-13, 100)
    assert done and iters == k
    assert v.tobytes() == y.tobytes()


def test_classes_match_the_closure_oracle_sinks_first():
    from spectral_optim.linalg import _classes, _reach

    rng = np.random.default_rng(2025)
    # Vertex 0 feeds two 3-cycles joined by the edge 1 -> 4: nothing peels
    # off the rest of vertex 0's class, and Tarjan splits it.
    joined = np.zeros((7, 7))
    joined[[0, 1, 2, 3, 4, 5, 6, 1], [1, 2, 3, 1, 5, 6, 4, 4]] = 1.0
    cases = [joined]
    for case in range(300):
        d = 1 + case % 40
        density = (0.02, 0.05, 0.1, 0.3)[case % 4]
        cases.append(rng.random((d, d)) * (rng.random((d, d)) < density))
    for A in cases:
        S = A > 0.0
        np.fill_diagonal(S, False)
        everyone = np.ones(A.shape[0], dtype=bool)
        classes = _classes(A, S, _reach(A, 0, everyone), _reach(A.T, 0, everyone))
        assert sorted(map(tuple, closure_classes(A))) == sorted(map(tuple, classes))
        position = np.empty(A.shape[0], dtype=int)
        for c, idx in enumerate(classes):
            position[idx] = c
        rows, cols = np.nonzero(A)
        assert np.all(position[cols] <= position[rows])


# ------------------------------------------------------------ squaring path

def _perron(A) -> np.ndarray:
    """Unit Perron vector of an irreducible A from the dense eigensolver."""
    w, V = np.linalg.eig(A)
    return unit(np.abs(V[:, np.argmax(w.real)].real))


def _squaring_cases(rng):
    """(kind, A, the selected vector or None to take the structural path's
    on the padded A) for small matrices of every structure."""
    for _ in range(40):
        d = int(rng.integers(2, 12))
        A = rng.random((d, d)) * (rng.random((d, d)) < 0.3)
        A[np.arange(d), (np.arange(d) + 1) % d] += 0.5
        yield "irreducible", A, _perron(A)
    for _ in range(40):
        d = int(rng.integers(2, 30))
        A = rng.random((d, d)) * (rng.random((d, d)) < 0.15)
        if blockwise_rho(A) > 0.0:
            yield "reducible", A, None
    for _ in range(20):
        # Equal diagonal blocks coupled along a chain, shuffled: one basic
        # class per block, a Jordan chain of length m.
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        A = np.kron(np.eye(m), rng.random((n, n)) + 0.1)
        for i in range(m - 1):
            A[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = rng.random((n, n))
        perm = rng.permutation(n * m)
        yield "jordan", A[np.ix_(perm, perm)], None
    for _ in range(10):
        block = rng.random((int(rng.integers(1, 4)),) * 2) + 0.1
        yield "tie", np.kron(np.eye(2), block), np.tile(_perron(block), 2) / np.sqrt(2.0)
        near = np.kron(np.diag([1.0, 1.0 + 1e-9]), block)
        yield "near tie", near, np.concatenate([0.0 * block[0], _perron(block)])
    for _ in range(10):
        d = int(rng.integers(2, 10))
        A = np.triu(rng.random((d, d)) * (rng.random((d, d)) < 0.5), 1)
        x = np.ones(d)
        while np.any(A @ x):
            x = A @ x / np.max(A @ x)
        yield "nilpotent", A, unit(x)
    yield "identity", np.eye(5), np.full(5, 1.0 / np.sqrt(5.0))


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_squaring_matches_the_block_radius_and_the_dense_eigenvectors(scale):
    rng = np.random.default_rng(2026)
    for kind, A, want in _squaring_cases(rng):
        A = scale * A
        pair = selected_eigenpair(A)
        assert pair.path == "squaring", kind
        ref = blockwise_rho(A)
        assert abs(pair.rho - ref) <= 1e-12 * max(scale, ref), kind
        if ref == 0.0:
            assert pair.rho == 0.0
        assert np.max(np.abs(A @ pair.v - pair.rho * pair.v)) <= 1e-12 * max(scale, ref), kind
        if want is None:
            want = selected_eigenpair(padded(A)).v[:A.shape[0]]
        assert np.array_equal(pair.v == 0.0, want == 0.0), kind
        assert np.max(np.abs(pair.v - want)) <= 1e-11, kind


def test_squaring_is_exactly_scale_invariant():
    # 2^k A lifts to the same matrix as A, so the vector is the same to the
    # last bit and rho, read off 2^k A, scales exactly.
    for t in range(0, 500, 20):
        family = generate_random_family(2 + t % 29, 1 + t % 3, (0.05, 0.2), seed=9000 + t)
        for A in family.extremes(np.ones(family.d)):
            pair = selected_eigenpair(A)
            for k in range(-40, 41):
                scaled = selected_eigenpair(2.0 ** k * A)
                assert scaled.v.tobytes() == pair.v.tobytes()
                assert scaled.rho == 2.0 ** k * pair.rho
