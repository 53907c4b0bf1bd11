"""Application tests: extremal graphs and closest stable/unstable matrices.

Closed-form cases carry the expected values in the test (single entries,
circulants, diagonal matrices); the 7-vertex degree sequence and the 10 x 10
stabilization example are checked against the radii recomputed by the dense
eigenvalue oracle in oracles.py.
"""

import math

import numpy as np
import pytest

from oracles import STAB_DEMO_RHO, STAB_REFERENCE_DISTANCE, bisection_radius, eig_rho

from spectral_optim import apps
from spectral_optim.apps import (
    DegreeSpec,
    StabilizationProblem,
    closest_stable,
    closest_unstable,
    degree_family,
    optimize_graph,
    stabilization_family,
)
from spectral_optim.linalg import selected_eigenpair
from spectral_optim.optimize import OptimizerConfig, optimize
from spectral_optim.rows import GraphDegreeSet, L1Ball
from spectral_optim import demo, gen


# -------------------------------------------------------------------- graphs

def test_degree_family_builds_matching_row_sets():
    fam = degree_family(DegreeSpec((2, 1, 3)))
    assert all(isinstance(rs, GraphDegreeSet) for rs in fam.sets)
    assert [rs.n for rs in fam.sets] == [2, 1, 3]
    assert all(rs.sense == "at_most" for rs in fam.sets)
    fam = degree_family(DegreeSpec((2, 1, 3), direction="min"))
    assert all(rs.sense == "at_least" for rs in fam.sets)


def test_degree_spec_validation():
    with pytest.raises(ValueError):
        DegreeSpec(())
    with pytest.raises(ValueError):
        DegreeSpec((1, 4, 1))
    with pytest.raises(ValueError):
        DegreeSpec((1, 0, 1))
    with pytest.raises(ValueError):
        DegreeSpec((1, 1), direction="up")


def test_degree_spec_refuses_a_non_integral_degree():
    # It used to be truncated silently: (2.5, 1, 2) ran as (2, 1, 2).
    with pytest.raises(ValueError, match="degree must be an integer, got 2.5"):
        DegreeSpec((2.5, 1, 2))
    assert DegreeSpec(tuple(np.array([2, 1, 2]))).degrees == (2, 1, 2)


def test_seven_vertex_degree_sequence():
    adjacency, rho = optimize_graph(DegreeSpec(demo.DEMO_DEGREES))
    assert rho == pytest.approx(3.21432, abs=1e-4)
    assert rho == pytest.approx(eig_rho(adjacency), abs=1e-8)
    assert np.array_equal(adjacency, adjacency.astype(bool).astype(float))
    np.testing.assert_array_equal(adjacency.sum(axis=1), demo.DEMO_DEGREES)


def test_uniform_degree_extremes():
    adjacency, rho = optimize_graph(DegreeSpec((1, 1, 1, 1, 1)))
    assert rho == 1.0
    np.testing.assert_array_equal(adjacency.sum(axis=1), np.ones(5))

    d = 4
    adjacency, rho = optimize_graph(DegreeSpec((d,) * d))
    assert rho == float(d)
    np.testing.assert_array_equal(adjacency, np.ones((d, d)))


def test_min_direction_uses_exact_degrees():
    adjacency, rho = optimize_graph(DegreeSpec((2, 1, 2, 1), direction="min"))
    np.testing.assert_array_equal(adjacency.sum(axis=1), [2, 1, 2, 1])
    # every function graph contains a cycle, so the radius cannot drop below 1
    assert rho >= 1.0 - 1e-9
    assert rho <= 2.0 + 1e-9


def test_random_degree_specs_respect_row_sum_bound():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        degrees = tuple(int(rng.integers(1, d + 1)) for _ in range(d))
        adjacency, rho = optimize_graph(DegreeSpec(degrees))
        np.testing.assert_array_equal(adjacency.sum(axis=1), degrees)
        assert rho <= max(degrees) + 1e-9
        assert rho == pytest.approx(eig_rho(adjacency), abs=1e-7)


# ------------------------------------------------------------- stabilization

def test_stabilization_family_is_l1_balls_around_rows():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    fam = stabilization_family(A, 0.25)
    assert all(isinstance(rs, L1Ball) for rs in fam.sets)
    np.testing.assert_array_equal(fam.sets[0].center, A[0])
    np.testing.assert_array_equal(fam.sets[1].center, A[1])
    assert fam.sets[0].radius == 0.25


def test_stabilization_problem_validation():
    with pytest.raises(ValueError):
        StabilizationProblem(np.ones((2, 3)))
    with pytest.raises(ValueError):
        StabilizationProblem(np.eye(2), target=-1.0)
    with pytest.raises(ValueError):
        StabilizationProblem(np.eye(2), r_tol=0.0)


def test_stabilization_problem_refuses_an_infinite_r_tol():
    # An infinite tolerance would skip the root search and return the bracket
    # top (r = 3 for this matrix, whose critical radius is 2).
    with pytest.raises(ValueError, match="r_tol must be finite"):
        StabilizationProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), r_tol=np.inf)


def test_closest_stable_scalar():
    X, r = closest_stable(StabilizationProblem(np.array([[2.0]])))
    assert r == pytest.approx(1.0, abs=3e-6)
    assert X[0, 0] == pytest.approx(1.0, abs=3e-6)
    assert X[0, 0] <= 1.0 + 1e-6


def test_closest_stable_returns_input_when_already_stable():
    A = 0.5 * np.eye(2)
    X, r = closest_stable(StabilizationProblem(A))
    assert r == 0.0
    np.testing.assert_array_equal(X, A)


def test_closest_stable_circulant():
    A = np.array([[0.0, 2.0, 0.0],
                  [0.0, 0.0, 2.0],
                  [2.0, 0.0, 0.0]])
    problem = StabilizationProblem(A)
    X, r = closest_stable(problem)
    # each row sheds weight at rate 1, so the critical radius is exactly 1
    assert r == pytest.approx(1.0, abs=3e-6)
    assert eig_rho(X) <= 1.0 + 1e-6
    assert np.all(X >= 0.0)
    assert np.max(np.abs(X - A).sum(axis=1)) <= r + 1e-9
    # a visibly smaller ball cannot reach the target
    from spectral_optim.optimize import OptimizerConfig, optimize
    short = optimize(stabilization_family(A, 0.99), OptimizerConfig(direction="min"))
    assert short.rho > 1.0 + 1e-6


def test_closest_stable_generalized_target():
    X, r = closest_stable(StabilizationProblem(np.array([[3.0]]), target=2.0))
    assert r == pytest.approx(1.0, abs=3e-6)
    assert X[0, 0] <= 2.0 + 1e-6


def test_closest_stable_ten_by_ten_demo():
    A = demo.unstable_demo_matrix()
    assert eig_rho(A) == pytest.approx(STAB_DEMO_RHO, abs=1e-9)
    X, r = closest_stable(StabilizationProblem(A))
    assert eig_rho(X) <= 1.0 + 1e-6
    assert np.all(X >= 0.0)
    assert np.max(np.abs(X - A).sum(axis=1)) <= r + 1e-9
    assert r <= STAB_REFERENCE_DISTANCE + 1e-3


def test_closest_unstable_scalar_zero():
    X, r = closest_unstable(StabilizationProblem(np.array([[0.0]])))
    assert r == pytest.approx(1.0, abs=3e-6)
    assert eig_rho(X) >= 1.0 - 1e-5


def test_closest_unstable_diagonal_and_monotonicity():
    _, r_half = closest_unstable(StabilizationProblem(0.5 * np.eye(2)))
    assert r_half == pytest.approx(0.5, abs=3e-6)
    _, r_nine = closest_unstable(StabilizationProblem(0.9 * np.eye(2)))
    assert r_nine == pytest.approx(0.1, abs=3e-6)
    assert r_nine < r_half


# A config naming another method is refused, as optimize_graph refuses it,
# instead of being run as selective greedy.

def test_closest_stable_refuses_another_method():
    with pytest.raises(ValueError, match="cannot run method 'simplex-pivot'"):
        closest_stable(StabilizationProblem(np.array([[2.0]])),
                       OptimizerConfig(method="simplex-pivot"))


def test_closest_unstable_refuses_another_method():
    with pytest.raises(ValueError, match="cannot run method 'simplex-pivot'"):
        closest_unstable(StabilizationProblem(np.array([[0.5]])),
                         OptimizerConfig(method="simplex-pivot"))


def test_another_method_is_refused_where_no_optimization_runs():
    # A itself passes, so neither search runs an inner optimization.
    with pytest.raises(ValueError, match="cannot run method 'simplex-pivot'"):
        closest_stable(StabilizationProblem(np.array([[0.5]])),
                       OptimizerConfig(method="simplex-pivot"))
    with pytest.raises(ValueError, match="cannot run method 'simplex-pivot'"):
        closest_unstable(StabilizationProblem(np.array([[2.0]])),
                         OptimizerConfig(method="simplex-pivot"))


def test_closest_unstable_returns_input_when_already_unstable():
    A = np.array([[2.0]])
    X, r = closest_unstable(StabilizationProblem(A))
    assert r == 0.0
    np.testing.assert_array_equal(X, A)


# The root search's closed-form brackets: the zero matrix at the largest row
# sum for closest_stable, and A + target e0 e0^T at target for
# closest_unstable.

def test_closed_form_bracket_members_are_in_their_balls():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        A = rng.random((d, d)) * (rng.random((d, d)) < 0.6) * rng.uniform(0.1, 20.0)
        target = float(rng.uniform(0.0, 20.0))
        hi = float(np.max(A.sum(axis=1)))
        assert stabilization_family(A, hi).contains_matrix(np.zeros_like(A))
        X = A.copy()
        X[0, 0] += target
        assert stabilization_family(A, target).contains_matrix(X)
        assert eig_rho(X) >= target


# A Jordan block exhausts the power stage's budget; the optimizer carries on
# with the last iterate where a direct eigen call would raise.
JORDAN = np.array([[2.0, 2.0], [0.0, 2.0]])


def test_closest_stable_jordan_block():
    X, r = closest_stable(StabilizationProblem(JORDAN, r_tol=1e-3))
    assert 1.0 - 1e-3 <= r <= 1.0 + 2e-3
    assert eig_rho(X) <= 1.0 + 1e-6
    assert np.all(X >= 0.0)
    assert np.max(np.abs(X - JORDAN).sum(axis=1)) <= r + 1e-9


def test_closest_unstable_jordan_block():
    # [[2 + r, 2], [r, 2]] reaches radius 5 at r = 1.8.
    X, r = closest_unstable(StabilizationProblem(JORDAN, target=5.0))
    assert r == pytest.approx(1.8, abs=3e-6)
    assert eig_rho(X) >= 5.0 - 1e-5
    assert np.all(X >= 0.0)
    assert np.max(np.abs(X - JORDAN).sum(axis=1)) <= r + 1e-9


# ------------------------------------------- batched families, end to end

class _PerSetDegrees(GraphDegreeSet):
    """A degree set of another type, so its family runs one kernel per set."""


class _PerSetBall(L1Ball):
    """An L1 ball of another type, so its family runs one kernel per set."""


def _assert_same_result(got, want):
    for a, b in ((got.matrix, want.matrix), (got.eigenvector, want.eigenvector)):
        assert a.tobytes() == b.tobytes()
    assert (got.rho, got.bounds, got.status, got.iterations) == (
        want.rho, want.bounds, want.status, want.iterations)


def test_stabilization_family_does_not_alias_the_callers_matrix():
    A = demo.unstable_demo_matrix()
    family = stabilization_family(A, 0.5)
    # One copy of A: the centers are views of the batch's array, none of A.
    assert not any(np.shares_memory(rs.center, A) for rs in family.sets)
    assert all(np.shares_memory(rs.center, family._batch.center) for rs in family.sets)
    member = A + 0.05
    v = np.arange(1.0, 11.0)
    before = family.extremes(v)
    A[:] = 100.0
    for got, want in zip(family.extremes(v), before):
        assert got.tobytes() == want.tobytes()
    for i, rs in enumerate(family.sets):
        assert rs.best_row(v, "min").tobytes() == before[1][i].tobytes()
    assert family.contains_matrix(member)
    assert all(rs.contains(member[i]) for i, rs in enumerate(family.sets))


def test_batched_families_optimize_as_their_per_set_copies():
    import pickle

    from spectral_optim import gen, optimize

    sparse = gen.generate_random_family(100, 1, (0.09, 0.15), seed=0)
    matrices = (demo.unstable_demo_matrix(),
                np.vstack([rs.rows[0] for rs in sparse.sets]))
    for A in matrices:
        for radius in (0.0, 0.5, 2.0, 8.0):
            family = stabilization_family(A, radius)
            per_set = type(family)(tuple(_PerSetBall(rs.center, rs.radius)
                                         for rs in family.sets))
            pickled = pickle.loads(pickle.dumps(family))
            assert per_set._batch is None
            assert family._batch is not None and pickled._batch is not None
            for direction in ("max", "min"):
                cfg = OptimizerConfig(direction=direction)
                want = optimize(family, cfg)
                _assert_same_result(optimize(per_set, cfg), want)
                _assert_same_result(optimize(pickled, cfg), want)
    for seed, d in ((1, 40), (2, 150)):
        u = gen.CounterStream(seed).uniform_half_open(d)
        degrees = [int(n) for n in 1 + np.floor(u * d)]
        for direction in ("max", "min"):
            family = degree_family(DegreeSpec(tuple(degrees), direction))
            sense = family.sets[0].sense
            per_set = type(family)(tuple(_PerSetDegrees(d, n, sense) for n in degrees))
            assert family._batch is not None and per_set._batch is None
            cfg = OptimizerConfig(direction=direction)
            _assert_same_result(optimize(family, cfg), optimize(per_set, cfg))


# ------------------------------------------------------------ the root search

CIRCULANT = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])


def _sparse_100():
    fam = gen.generate_random_family(100, 1, (0.09, 0.15), seed=0)
    return np.vstack([rs.rows[0] for rs in fam.sets])


@pytest.fixture
def inner_runs(monkeypatch):
    """The radii of the inner optimizations, spied on the module-level
    name every stabilization step calls."""
    radii = []
    inner = apps.selective_greedy

    def spy(family, *args, **kwargs):
        radii.append(family.sets[0].radius)
        return inner(family, *args, **kwargs)

    monkeypatch.setattr(apps, "selective_greedy", spy)
    return radii


def _search_bound(hi, r_tol=1e-6):
    """Bisection's step count on [0, hi], plus the two the guard allows."""
    return math.ceil(math.log2(hi / r_tol)) + 2


def _limited_inner_runs(monkeypatch, limit):
    """The radii of the inner optimizations, as ``inner_runs``; a call past
    ``limit`` fails the test instead of running on."""
    radii = []
    inner = apps.selective_greedy

    def spy(family, *args, **kwargs):
        radii.append(family.sets[0].radius)
        assert len(radii) <= limit, "the root search ran past its bound"
        return inner(family, *args, **kwargs)

    monkeypatch.setattr(apps, "selective_greedy", spy)
    return radii


def _final_bracket(radii, r):
    """The last bracket (lo, r): hi only falls, so every radius below the
    accepted r was rejected, and the largest of them is lo."""
    return max(x for x in radii if x < r), r


def _small_problems():
    """30 random small matrices, each with a target that its radius
    crosses for both directions: (A, stable target, unstable target)."""
    rng = np.random.default_rng(2025)
    out = []
    for _ in range(30):
        d = int(rng.integers(2, 9))
        A = rng.random((d, d)) * (rng.random((d, d)) < 0.6)
        A[0, -1] += 0.5   # never nilpotent
        rho = eig_rho(A)
        out.append((A, float(rng.uniform(0.2, 0.8)) * rho, float(rng.uniform(1.2, 3.0)) * rho))
    return out


def test_radius_of_A_is_the_one_member_optimum_bit_for_bit():
    # rho(A) reads selected_eigenpair directly: the one-member family's
    # optimization returns its first pass's eigen call.
    for A in (demo.unstable_demo_matrix(), _sparse_100(), JORDAN):
        want = optimize(stabilization_family(A, 0.0), OptimizerConfig(direction="min"),
                        initial_matrix=A).rho
        assert selected_eigenpair(A).rho == want


def test_demo_and_sparse_stabilizations_take_few_inner_runs(inner_runs):
    for A in (demo.unstable_demo_matrix(), _sparse_100()):
        inner_runs.clear()
        _, r = closest_stable(StabilizationProblem(A))
        # Plain bisection took 25 and 24.
        assert 0 < len(inner_runs) <= 12
        assert r in inner_runs


def test_root_search_stays_within_the_guard_on_random_inputs(inner_runs):
    for A, low, high in _small_problems():
        inner_runs.clear()
        _, r = closest_stable(StabilizationProblem(A, target=low))
        assert len(inner_runs) <= _search_bound(float(A.sum(axis=1).max()))
        assert abs(r - bisection_radius(A, low, "min")) <= 1e-6
        inner_runs.clear()
        _, r = closest_unstable(StabilizationProblem(A, target=high))
        assert len(inner_runs) <= _search_bound(high)
        assert abs(r - bisection_radius(A, high, "max")) <= 1e-6


@pytest.mark.parametrize("A, target, fn, direction", [
    (demo.unstable_demo_matrix(), 1.0, closest_stable, "min"),
    (JORDAN, 1.0, closest_stable, "min"),
    (JORDAN, 5.0, closest_unstable, "max"),
    (CIRCULANT, 1.0, closest_stable, "min"),
], ids=["criterion-4", "jordan-stable", "jordan-unstable", "circulant"])
def test_root_search_matches_plain_bisection(A, target, fn, direction):
    _, r = fn(StabilizationProblem(A, target=target))
    assert abs(r - bisection_radius(A, target, direction)) <= 1e-6


def test_root_search_ends_at_adjacent_doubles_below_their_spacing(monkeypatch):
    # r_tol=1e-20 is below the spacing of doubles near the critical radius
    # (about 2e-16): a loop on hi - lo > r_tol alone ran over 2,000 steps.
    rng = np.random.default_rng(5)
    for _ in range(11):
        A = rng.random((4, 4)) * (rng.random((4, 4)) < 0.7) + 1.5 * np.eye(4)
    bound = _search_bound(float(A.sum(axis=1).max()), r_tol=1e-20)
    radii = _limited_inner_runs(monkeypatch, bound)
    _, r = closest_stable(StabilizationProblem(A, r_tol=1e-20))
    assert r in radii
    lo, hi = _final_bracket(radii, r)
    assert math.nextafter(lo, hi) == hi


def test_root_search_stays_within_its_bound_at_d500(monkeypatch):
    # Three regula falsi steps on the flat tail (rho exactly 0) use up the
    # guard's slack; the bisections after them round the bracket just above
    # r_tol after n_max = 28 steps, where a 29th step once followed.
    fam = gen.generate_random_family(500, 1, (0.09, 0.15), seed=0)
    A = np.vstack([rs.rows[0] for rs in fam.sets])
    bound = _search_bound(float(A.sum(axis=1).max()))
    assert bound == 28
    radii = _limited_inner_runs(monkeypatch, bound)
    _, r = closest_stable(StabilizationProblem(A))
    assert r in radii
    lo, hi = _final_bracket(radii, r)
    assert hi - lo <= 1e-6
    assert abs(r - 20.2258240734094) <= 1e-6


def test_root_search_past_the_double_range(monkeypatch):
    # hi / r_tol = 1e320 is past the double range, and so is the guard's
    # reach 2^(n_max - j) aim / 2 for 1,000 steps: both once raised
    # OverflowError before any optimization ran.
    A = np.diag([1e300, 1e300])
    bound = math.ceil(math.log2(1e300) - math.log2(1e-20)) + 2
    radii = _limited_inner_runs(monkeypatch, bound)
    X, r = closest_stable(StabilizationProblem(A, r_tol=1e-20))
    # diag(1, 1) is 1e300 - 1 away, which rounds to 1e300: the search
    # ends at the double below it, and keeps the zero matrix it started at.
    assert r == 1e300 and math.nextafter(max(radii), math.inf) == r
    assert np.max(np.abs(X - A).sum(axis=1)) <= r
    assert selected_eigenpair(X).rho <= 1.0
