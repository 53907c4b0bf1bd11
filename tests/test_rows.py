import numpy as np
import pytest

from spectral_optim import (
    Ellipsoid,
    FiniteSet,
    GraphDegreeSet,
    HalfspacePoly,
    L1Ball,
    ProductFamily,
    lp_optimize,
    LinearProgram,
)

from spectral_optim.gen import generate_random_family
from spectral_optim.rows import _finite_family

from oracles import (
    degree_best_value,
    ellipsoid_residual,
    ellipsoid_sample_best,
    ellipsoid_support_value,
    fixture_rows,
    l1ball_best_row,
    l1ball_lp_data,
    lp_vertex_oracle,
    reference_best_row,
)


def test_finite_examples():
    f1 = FiniteSet(fixture_rows()[0])
    assert np.array_equal(f1.best_row(np.array([1.0, 1.0, 2.0])), (0.0, 5.0, 10.0))
    assert np.array_equal(f1.best_row(np.array([3.0, 2.0, 2.0])), (12.0, 0.0, 0.0))
    assert np.array_equal(f1.best_row(np.array([1.0, 1.0, 2.0]), "min"), (1.0, 1.0, 1.0))


def test_finite_tie_lowest_index():
    rs = FiniteSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(rs.best_row(np.array([1.0, 1.0])), (1.0, 0.0))


def test_graph_degree_examples():
    rs = GraphDegreeSet(3, 2, "at_most")
    assert np.array_equal(rs.best_row(np.array([0.5, 0.2, 0.9])), (1.0, 0.0, 1.0))
    # ties go to the lowest index
    assert np.array_equal(GraphDegreeSet(3, 1, "at_most").best_row(np.ones(3)),
                          (1.0, 0.0, 0.0))
    # at-most/min empties the row, at-least/min keeps the n smallest
    assert np.array_equal(rs.best_row(np.array([0.5, 0.2, 0.9]), "min"), (0.0, 0.0, 0.0))
    at_least = GraphDegreeSet(3, 2, "at_least")
    assert np.array_equal(at_least.best_row(np.array([0.5, 0.2, 0.9]), "min"),
                          (1.0, 1.0, 0.0))
    assert np.array_equal(at_least.best_row(np.array([0.5, 0.2, 0.9]), "max"),
                          (1.0, 1.0, 1.0))


def test_graph_degree_set_refuses_non_integral_sizes():
    with pytest.raises(ValueError, match="dim must be an integer, got 2.5"):
        GraphDegreeSet(2.5, 1)
    with pytest.raises(ValueError, match="n must be an integer, got 1.5"):
        GraphDegreeSet(3, 1.5)
    rs = GraphDegreeSet(np.int64(3), np.int32(2))
    assert np.array_equal(rs.best_row(np.array([0.5, 0.2, 0.9])), (1.0, 0.0, 1.0))


def test_l1ball_examples():
    rs = L1Ball(np.array([2.0, 3.0]), 4.0)
    assert np.allclose(rs.best_row(np.array([1.0, 2.0]), "min"), (1.0, 0.0), atol=1e-12)
    # max adds the whole budget to the best coordinate
    assert np.allclose(rs.best_row(np.array([1.0, 2.0]), "max"), (2.0, 7.0), atol=1e-12)
    # min never spends budget on coordinates the objective ignores
    rs2 = L1Ball(np.array([5.0, 1.0]), 3.0)
    assert np.allclose(rs2.best_row(np.array([0.0, 1.0]), "min"), (5.0, 0.0), atol=1e-12)


def test_ellipsoid_example():
    rs = Ellipsoid(np.array([2.0, 2.0]), 1.0, np.array([1.0, 1.0]))
    assert np.allclose(rs.best_row(np.array([3.0, 4.0])), (2.6, 2.8), atol=1e-12)
    assert np.allclose(rs.best_row(np.array([3.0, 4.0]), "min"), (1.4, 1.2), atol=1e-12)


def test_halfspace_poly_vertex():
    rs = HalfspacePoly(np.array([[1.0, 1.0]]))
    row = rs.best_row(np.array([2.0, 1.0]))
    assert np.allclose(row, (1.0, 0.0), atol=1e-10)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_finite_oracle_agreement(direction):
    rng = np.random.default_rng(101)
    for _ in range(250):
        d = 1 + int(rng.integers(1, 6))
        rows = rng.random((int(rng.integers(1, 6)), d)) * (rng.random((1, d)) < 0.8)
        v = rng.random(d) + 0.01
        rs = FiniteSet(rows)
        got = float(rs.best_row(v, direction) @ v)
        dots = rows @ v
        want = float(np.max(dots) if direction == "max" else np.min(dots))
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("direction", ["max", "min"])
def test_graph_degree_oracle_agreement(direction):
    rng = np.random.default_rng(102)
    for _ in range(250):
        d = 2 + int(rng.integers(0, 5))
        n = 1 + int(rng.integers(0, d))
        sense = "at_most" if rng.random() < 0.5 else "at_least"
        v = rng.random(d)
        rs = GraphDegreeSet(d, n, sense)
        got = float(rs.best_row(v, direction) @ v)
        want = degree_best_value(d, n, sense, v, direction)
        assert abs(got - want) <= 1e-10
        assert rs.contains(rs.best_row(v, direction), tol=1e-12)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_l1ball_oracle_agreement(direction):
    rng = np.random.default_rng(103)
    for case in range(250):
        d = 1 + case % 6
        center = rng.random(d) * 2.0
        radius = float(rng.random() * 2.0)
        v = rng.random(d) + 1e-3
        rs = L1Ball(center, radius)
        row = rs.best_row(v, direction)
        got = float(row @ v)
        lifted = l1ball_lp_data(center, radius, v, direction)
        lp = LinearProgram(objective=lifted[0], normals=lifted[1], rhs=lifted[2],
                           lo=lifted[3], hi=lifted[4], sense=lifted[5])
        _, want = lp_optimize(lp)
        assert abs(got - want) <= 1e-10
        assert rs.contains(row, tol=1e-12)
        assert np.all(row >= -1e-15)


def test_l1ball_small_cases_against_vertex_enumeration():
    rng = np.random.default_rng(104)
    for case in range(40):
        center = rng.random(2) * 2.0
        radius = float(rng.random() * 2.0)
        v = rng.random(2) + 1e-3
        direction = "max" if case % 2 == 0 else "min"
        got = float(L1Ball(center, radius).best_row(v, direction) @ v)
        want = lp_vertex_oracle(*l1ball_lp_data(center, radius, v, direction))[1]
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("direction", ["max", "min"])
def test_halfspace_poly_oracle_agreement(direction):
    rng = np.random.default_rng(105)
    for _ in range(100):
        d = 1 + int(rng.integers(1, 5))
        m = 1 + int(rng.integers(0, 4))
        normals = rng.random((m, d)) + 0.05
        v = rng.random(d) + 1e-3
        rs = HalfspacePoly(normals)
        row = rs.best_row(v, direction)
        got = float(row @ v)
        want = lp_vertex_oracle(v, normals, np.ones(m), np.zeros(d), np.ones(d),
                                sense=direction)[1]
        assert abs(got - want) <= 1e-10
        assert np.all(normals @ row <= 1.0 + 1e-12)
        assert np.all(row >= -1e-12) and np.all(row <= 1.0 + 1e-12)


@pytest.mark.parametrize("direction", ["max", "min"])
def test_ellipsoid_oracle_agreement(direction):
    rng = np.random.default_rng(106)
    for case in range(150):
        d = 1 + case % 6
        axes = rng.random(d) + 0.5
        center = axes * (1.0 + rng.random(d))  # keeps center - r*axes > 0 for r < 1
        radius = float(0.2 + 0.7 * rng.random())
        v = rng.random(d) + 1e-3
        rs = Ellipsoid(center, radius, axes)
        row = rs.best_row(v, direction)
        got = float(row @ v)
        want = ellipsoid_support_value(center, radius, axes, v, direction)
        assert abs(got - want) <= 1e-10
        assert ellipsoid_residual(center, radius, axes, row) <= 1e-12
        sampled = ellipsoid_sample_best(center, radius, axes, v, direction,
                                        samples=2000, seed=case)
        if direction == "max":
            assert sampled <= got + 1e-9
        else:
            assert sampled >= got - 1e-9


def test_scaling_invariance_and_direction_order():
    rng = np.random.default_rng(107)
    sets = [
        FiniteSet(rng.random((4, 3))),
        GraphDegreeSet(3, 2, "at_most"),
        L1Ball(rng.random(3) * 2, 1.5),
        HalfspacePoly(rng.random((2, 3)) + 0.1),
        Ellipsoid(np.array([2.0, 3.0, 2.5]), 0.5, np.array([1.0, 2.0, 1.5])),
    ]
    for rs in sets:
        for _ in range(20):
            v = rng.random(3) + 1e-3
            hi = rs.best_row(v, "max")
            lo = rs.best_row(v, "min")
            assert float(hi @ v) >= float(lo @ v) - 1e-12
            for c in (0.5, 3.0, 1e4):
                assert np.allclose(rs.best_row(c * v, "max"), hi, atol=1e-9)
                assert np.allclose(rs.best_row(c * v, "min"), lo, atol=1e-9)


def test_degenerate_objective_rejected():
    rs = FiniteSet(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        rs.best_row(np.zeros(2))
    with pytest.raises(ValueError):
        rs.best_row(np.array([1.0, -1.0]))


def test_finite_scan_of_a_tiny_objective_has_no_false_ties():
    # 0.5 * 5e-324 underflows to 0: scanned as given, row 1 would tie with
    # row 0 and lose to it on index.
    rs = FiniteSet(np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0]]))
    for v in ([5e-324, 0.0], [1e-323, 0.0], [2.0 ** -1060, 0.0], [3.0, 0.0]):
        np.testing.assert_array_equal(rs.best_row(np.array(v), "max"), [0.5, 0.0])
        np.testing.assert_array_equal(rs.best_row(np.array(v), "min"), [0.0, 0.0])


def test_set_validation():
    with pytest.raises(ValueError):
        FiniteSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        FiniteSet(np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        GraphDegreeSet(3, 0, "at_most")
    with pytest.raises(ValueError):
        GraphDegreeSet(3, 4, "at_most")
    with pytest.raises(ValueError):
        GraphDegreeSet(3, 2, "sometimes")
    with pytest.raises(ValueError):
        L1Ball(np.array([1.0, 1.0]), -0.5)
    with pytest.raises(ValueError):
        Ellipsoid(np.array([1.0, 1.0]), 2.0, np.array([1.0, 1.0]))  # leaves the orthant


@pytest.mark.parametrize("x", [1.0, np.array([1.0]), np.ones(2), np.ones(4),
                               np.ones((1, 3))])
def test_wrong_shape_rows_are_not_members(x):
    sets = (FiniteSet(np.ones((1, 3))),
            GraphDegreeSet(3, 3, "at_most"),
            L1Ball(np.ones(3), 1.0),
            HalfspacePoly(np.full((1, 3), 0.25)),
            Ellipsoid(np.ones(3), 0.5, np.ones(3)))
    for rs in sets:
        assert rs.contains(np.ones(3))
        assert not rs.contains(x), type(rs).__name__


def test_product_family():
    family = ProductFamily(tuple(FiniteSet(r) for r in fixture_rows()))
    assert family.d == 3
    assert len(family) == 3
    A = family.best_matrix(np.array([1.0, 1.0, 2.0]), "max")
    assert np.array_equal(A, [[0.0, 5.0, 10.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    assert family.contains_matrix(A)
    assert not family.contains_matrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ProductFamily((FiniteSet(np.array([[1.0, 0.0]])),))  # 1 set for d=2
    assert np.array_equal(family.sets[0].best_row(np.array([3.0, 2.0, 2.0])),
                          (12.0, 0.0, 0.0))


def _poly_cold_value(normals, v, direction="max"):
    d = normals.shape[1]
    lp = LinearProgram(objective=v, normals=normals, rhs=np.ones(normals.shape[0]),
                       lo=np.zeros(d), hi=np.ones(d), sense=direction)
    return lp_optimize(lp).value


def test_halfspace_poly_minimum_is_the_origin():
    rng = np.random.default_rng(107)
    for case in range(60):
        d = 1 + case % 7
        normals = rng.random((1 + case % 5, d))
        v = rng.random(d)
        v[rng.random(d) < 0.4] = 0.0
        if not np.any(v > 0.0):
            v[0] = 1.0
        row = HalfspacePoly(normals).best_row(v, "min")
        assert np.array_equal(row, np.zeros(d))
        assert float(row @ v) == _poly_cold_value(normals, v, "min")


def test_halfspace_poly_warm_start_sequence_matches_cold_solves():
    rng = np.random.default_rng(108)
    d = 12
    normals = rng.random((20, d)) / 3.0
    rs = HalfspacePoly(normals)
    fresh = [rng.random(d) + 1e-3 for _ in range(6)]
    sparse = []
    for _ in range(4):
        v = rng.random(d)
        v[rng.random(d) < 0.5] = 0.0
        v[0] = max(v[0], 0.1)
        sparse.append(v)
    starts = []
    for v in fresh[:3] + sparse + [fresh[0]] + fresh[3:] + [sparse[1], fresh[2]]:
        row = rs.best_row(v)
        starts.append(rs._last.start)
        want = _poly_cold_value(normals, v)
        assert float(row @ v) == pytest.approx(want, rel=1e-12)
        assert rs.contains(row, tol=1e-12)
    # The set keeps its last solution, whose tableau the next solve reprices.
    assert starts[0] == "cold" and "tableau" in starts[1:]


def test_halfspace_poly_shared_by_threads():
    import sys
    import threading

    rng = np.random.default_rng(109)
    d = 10
    normals = rng.random((15, d)) / 2.0
    rs = HalfspacePoly(normals)
    vs = [rng.random(d) + 1e-3 for _ in range(40)]
    want = [_poly_cold_value(normals, v) for v in vs]
    want_rows = [HalfspacePoly(normals).best_row(v) for v in vs]
    results = [None] * 4

    def work(slot):
        order = np.random.default_rng(slot).permutation(len(vs))
        results[slot] = {i: rs.best_row(vs[i]) for i in order}

    # More threads than cores, each through the directions in its own order.
    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    # Each thread reprices the shared set's last tableau on its own copy,
    # so it sees what a single thread solving cold sees.
    for got in results:
        assert got is not None and len(got) == len(vs)
        for i, row in got.items():
            assert float(row @ vs[i]) == pytest.approx(want[i], rel=1e-12)
            assert np.allclose(row, want_rows[i], rtol=0.0, atol=1e-12)


# ------------------------------------------- family kernels against references

def _kernel_case(rng, case):
    """A family drawing on every non-LP set type, and a direction v on a
    coarse grid, so that ties and zero components are common.  Among the
    L1 balls are radius 0 and a radius equal to a prefix sum of the center
    taken in decreasing order of v."""
    d = 2 + case % 6
    v = rng.integers(0, 4, d) / 4.0
    if not np.any(v > 0.0):
        v[case % d] = 0.5
    center = rng.integers(0, 5, d) / 4.0
    order = np.argsort(-v, kind="stable")
    prefix = float(np.sum(center[order[: 1 + case % d]]))
    axes = rng.random(d) + 0.5
    n = 1 + case % d
    pool = [
        FiniteSet(rng.integers(0, 3, (3, d)) / 2.0),
        GraphDegreeSet(d, n, "at_most"),
        GraphDegreeSet(d, n, "at_least"),
        L1Ball(center, 0.0),
        L1Ball(center, prefix),
        L1Ball(center, float(rng.integers(0, 12)) / 4.0),
        Ellipsoid(axes * (1.0 + rng.random(d)), 0.5, axes),
    ]
    return ProductFamily(tuple(pool[(case + i) % len(pool)] for i in range(d))), v


def test_extremes_match_the_per_row_references_bit_for_bit():
    rng = np.random.default_rng(110)
    for case in range(400):
        family, v = _kernel_case(rng, case)
        up, down = family.extremes(v)
        for direction, got in (("max", up), ("min", down)):
            assert family.best_matrix(v, direction).tobytes() == got.tobytes()
            for i, rs in enumerate(family.sets):
                want = reference_best_row(rs, v, direction)
                assert got[i].tobytes() == want.tobytes(), (case, i, direction)
                assert rs.best_row(v, direction).tobytes() == want.tobytes()


def test_l1ball_minimum_matches_the_sequential_loop():
    rng = np.random.default_rng(111)
    for case in range(4000):
        d = 1 + case % 8
        if case % 2:
            v = rng.integers(0, 3, d) / 2.0
            center = rng.integers(0, 4, d) / 4.0
        else:
            v = rng.random(d) * (rng.random(d) < 0.7)
            center = rng.random(d) * (rng.random(d) < 0.8)
        if not np.any(v > 0.0):
            v[0] = 1.0
        order = np.argsort(-v, kind="stable")
        radius = [0.0, float(np.sum(center[order[: case % (d + 1)]])),
                  float(rng.random() * 2.0 * np.sum(center) + 1e-3)][case % 3]
        got = L1Ball(center, radius).best_row(v, "min")
        want = l1ball_best_row(center, radius, v, "min")
        assert got.tobytes() == want.tobytes(), (case, center, radius, v)


def test_extremes_run_the_same_lp_sequence_as_best_row(monkeypatch):
    import importlib

    rows_module = importlib.import_module("spectral_optim.rows")
    solved = []
    real, real_stack = rows_module.lp_optimize, rows_module._solve_stack

    def spy(lp, *args, **kwargs):
        solved.append(lp.objective.tobytes())
        return real(lp, *args, **kwargs)

    def spy_stack(problems):
        def seen():
            for lp, earlier in problems:
                solved.append(lp.objective.tobytes())
                yield lp, earlier
        return real_stack(seen())

    # The family solves its sets as one stack, a set alone through
    # lp_optimize: count the programs of both.
    monkeypatch.setattr(rows_module, "lp_optimize", spy)
    monkeypatch.setattr(rows_module, "_solve_stack", spy_stack)
    rng = np.random.default_rng(112)
    d = 6
    normals = [rng.random((8, d)) / 2.0 for _ in range(d)]

    def family():
        return ProductFamily(tuple(HalfspacePoly(nm) for nm in normals))

    kernel, per_row = family(), family()
    for k in range(12):
        v = rng.random(d) * (rng.random(d) < 0.7)
        v[k % d] += 0.1
        # Every selection, the minimum alone included, runs the max LP, so
        # both families see the same solves and keep the same bases.
        del solved[:]
        up, down = kernel.extremes(v)
        assert solved == [v.tobytes()] * d
        for i, rs in enumerate(per_row.sets):
            assert up[i].tobytes() == rs.best_row(v, "max").tobytes()
            assert down[i].tobytes() == rs.best_row(v, "min").tobytes()
        assert solved == [v.tobytes()] * (3 * d)


def test_best_row_hands_out_a_copy():
    rows = np.array([[1.0, 2.0], [3.0, 0.0]])
    rs = FiniteSet(rows)
    rs.best_row(np.array([1.0, 1.0]))[:] = -1.0
    assert np.array_equal(rs.rows, rows)


@pytest.mark.parametrize("bad", [np.array([1.0, -1.0, 0.0]), np.zeros(3), np.ones(2)])
def test_extremes_reject_what_best_row_rejects(bad):
    rs = FiniteSet(np.eye(3))
    family = ProductFamily((rs, rs, rs))
    with pytest.raises(ValueError) as from_row:
        rs.best_row(bad)
    with pytest.raises(ValueError) as from_family:
        family.extremes(bad)
    assert str(from_family.value) == str(from_row.value)


# ----------------------------------------- one product over a block of sets

def _assert_same_extremes(family, other, v):
    for got, want in zip(family.extremes(v), other.extremes(v)):
        assert got.tobytes() == want.tobytes()


def _copied(family):
    return ProductFamily(tuple(FiniteSet(rs.rows.copy()) for rs in family.sets))


def test_stacked_scan_matches_the_per_set_scan_bit_for_bit():
    rng = np.random.default_rng(113)
    for case in range(60):
        d, n = 2 + case % 29, 1 + case % 4
        family = generate_random_family(d, n, (0.05, 0.6), seed=700 + case)
        assert family._batch is not None
        copy = _copied(family)
        assert copy._batch is None
        v = rng.random(d) * (rng.random(d) < 0.7)
        v[case % d] += 0.25
        _assert_same_extremes(family, copy, v)
        # Below 2^-40 the scan takes the lifted copy of v.
        _assert_same_extremes(family, copy, v * 2.0 ** -60)


def test_stacked_scan_takes_the_first_of_tied_rows():
    block = np.zeros((3, 4, 3))
    block[:, 0] = [1.0, 0.0, 0.0]
    block[:, 1] = [0.0, 1.0, 0.0]
    block[:, 2] = [1.0, 0.0, 0.0]
    block[:, 3] = [0.0, 1.0, 0.0]
    block[2, 1] = [0.0, 0.0, 1.0]
    family = _finite_family(block)
    v = np.array([1.0, 1.0, 0.5])
    up, down = family.extremes(v)
    assert np.array_equal(up, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(down, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    _assert_same_extremes(family, _copied(family), v)
    # The family owns a frozen copy of a writeable block, so a change to the
    # given array does not reach it; and it hands out new matrices.
    assert not family._batch.block.flags.writeable
    assert all(np.shares_memory(rs.rows, family._batch.block) for rs in family.sets)
    block[0, 1] = [0.0, 3.0, 0.0]
    up[:] = -1.0
    assert np.array_equal(family.extremes(v)[0][0], [1.0, 0.0, 0.0])


def test_families_off_the_block_keep_the_per_set_scan():
    rng = np.random.default_rng(114)
    d = 6
    block = generate_random_family(d, 3, (0.2, 0.6), seed=8).sets[0].rows.base
    reversed_views = ProductFamily(tuple(FiniteSet(rows) for rows in block[::-1]))
    mixed = ProductFamily(tuple(FiniteSet(rows) for rows in block[:-1])
                          + (L1Ball(block[-1, 0], 0.5),))
    unequal = ProductFamily(tuple(FiniteSet(rows[: 1 + i % 3])
                                  for i, rows in enumerate(block)))
    centers = rng.integers(0, 5, (d, d)) / 4.0
    balls = tuple(L1Ball(c, 0.25 * i) for i, c in enumerate(centers))
    degrees = tuple(GraphDegreeSet(d, 1 + i % d, ("at_most", "at_least")[i % 2])
                    for i in range(d))
    # L1 and degree families batch whatever the layout of their arrays.
    batched = (
        ProductFamily(balls),
        ProductFamily(degrees),
        ProductFamily(tuple(L1Ball(c, 0.5) for c in centers[::-1])),
        ProductFamily(tuple(L1Ball(c.copy(), 0.5) for c in centers)),
        ProductFamily(tuple(L1Ball(c, 0.5) for c in np.asfortranarray(centers))),
        ProductFamily(tuple(L1Ball(c, 0.5) for c in centers[:, ::-1])),
    )
    # Mixed kinds, and finite sets not handed over as a block, run set by set.
    per_set = (
        reversed_views, mixed, unequal,
        ProductFamily(tuple(FiniteSet(rows) for rows in block)),
        ProductFamily(balls[:-1] + (degrees[-1],)),
        ProductFamily(degrees[:-1] + (balls[-1],)),
        ProductFamily(degrees[:-1] + (FiniteSet(block[-1]),)),
    )
    for family in batched + per_set:
        assert (family._batch is not None) == (family in batched)
        for _ in range(20):
            v = rng.random(d) * (rng.random(d) < 0.7)
            v[0] += 0.1
            up, down = family.extremes(v)
            for i, rs in enumerate(family.sets):
                assert up[i].tobytes() == reference_best_row(rs, v, "max").tobytes()
                assert down[i].tobytes() == reference_best_row(rs, v, "min").tobytes()


def test_a_copied_family_keeps_its_block_scan():
    import copy
    import pickle

    from spectral_optim import degree_family, DegreeSpec, stabilization_family
    from spectral_optim.rows import _FiniteBatch

    # A generated family's copy is rebuilt from its one block, so it keeps
    # the block scan, and its sets are views of the copy's block.
    family = generate_random_family(5, 2, (0.3, 0.6), seed=3)
    v = np.arange(1.0, 6.0)
    for other in (copy.copy(family), copy.deepcopy(family),
                  pickle.loads(pickle.dumps(family))):
        assert isinstance(other._batch, _FiniteBatch)
        assert all(np.shares_memory(rs.rows, other._batch.block) for rs in other.sets)
        _assert_same_extremes(family, other, v)
    # The pickle holds the block once: 16 MB at d=200, N=50.
    big = generate_random_family(200, 50, (0.05, 0.2), seed=4)
    data = pickle.dumps(big)
    assert len(data) < 16.1e6
    w = np.random.default_rng(5).random(200)
    _assert_same_extremes(big, pickle.loads(data), w)
    # L1 and degree families copy their state, so a copy builds a batch of
    # its own.
    balls = stabilization_family(np.arange(25.0).reshape(5, 5) % 3, 1.5)
    for other in (copy.copy(balls), copy.deepcopy(balls),
                  pickle.loads(pickle.dumps(balls))):
        assert other._batch is not None and other._batch is not balls._batch
        _assert_same_extremes(balls, other, v)
        A = np.vstack([rs.center for rs in balls.sets])
        assert other.contains_matrix(A + 0.25) and balls.contains_matrix(A + 0.25)
        assert not other.contains_matrix(A + 0.5) and not balls.contains_matrix(A + 0.5)
    graphs = degree_family(DegreeSpec((1, 3, 5, 2, 2), "min"))
    for other in (copy.copy(graphs), copy.deepcopy(graphs),
                  pickle.loads(pickle.dumps(graphs))):
        assert other._batch is not None and other._batch is not graphs._batch
        _assert_same_extremes(graphs, other, v)


def test_a_batch_handed_over_must_answer_every_set():
    from spectral_optim.rows import _FiniteBatch

    block = generate_random_family(4, 2, (0.3, 0.6), seed=8)._batch.block
    sets = tuple(FiniteSet(rows) for rows in block)
    with pytest.raises(ValueError, match="the batch answers 3 rows, expected 4"):
        ProductFamily(sets, _batch=_FiniteBatch(block[:3]))


# --------------------------------------- L1 and degree batches, bit for bit

def _assert_rows_match_the_references(family, v):
    up, down = family.extremes(v)
    for direction, got in (("max", up), ("min", down)):
        for i, rs in enumerate(family.sets):
            want = reference_best_row(rs, v, direction)
            assert got[i].tobytes() == want.tobytes(), (i, direction)
    return up, down


def _grid_direction(rng, d, case):
    """v on a coarse grid, so ties and exact zeros are common."""
    v = rng.integers(0, 4, d) / 4.0
    if not np.any(v > 0.0):
        v[case % d] = 0.5
    return v


def test_l1_batch_matches_the_per_row_references_bit_for_bit():
    rng = np.random.default_rng(115)
    for case in range(300):
        d = 1 + case % 13
        v = _grid_direction(rng, d, case) if case % 3 else rng.random(d) * (rng.random(d) < 0.6)
        if not np.any(v > 0.0):
            v[0] = 0.3
        center = (rng.integers(0, 5, (d, d)) / 4.0 if case % 2
                  else rng.random((d, d)) * (rng.random((d, d)) < 0.7))
        order = np.argsort(-v, kind="stable")
        # Radius 0, a radius that spends a whole prefix of the row exactly
        # (taken in decreasing order of v), and a random one.
        radii = [[0.0, float(np.sum(center[i, order[: 1 + (case + i) % d]])),
                  float(rng.integers(0, 12)) / 4.0 + rng.random() * (case % 2)][(case + i) % 3]
                 for i in range(d)]
        family = ProductFamily(tuple(L1Ball(center[i], radii[i]) for i in range(d)))
        assert family._batch.center.tobytes() == center.tobytes()
        _assert_rows_match_the_references(family, v)
        _assert_rows_match_the_references(family, v * 2.0 ** -60)


def test_degree_batch_mixes_both_senses_bit_for_bit():
    rng = np.random.default_rng(116)
    for case in range(300):
        d = 1 + case % 17
        v = _grid_direction(rng, d, case) if case % 2 else rng.random(d)
        senses = [("at_most", "at_least")[int(b)] for b in rng.integers(0, 2, d)]
        if case % 5 == 0:
            senses = ["at_most"] * d
        elif case % 5 == 1:
            senses = ["at_least"] * d
        family = ProductFamily(tuple(GraphDegreeSet(d, int(rng.integers(1, d + 1)), s)
                                     for s in senses))
        assert family._batch is not None
        _assert_rows_match_the_references(family, v)
        _assert_rows_match_the_references(family, v * 2.0 ** -60)


def test_batches_hand_out_new_matrices():
    rng = np.random.default_rng(117)
    d = 7
    center = rng.random((d, d))
    v = _grid_direction(rng, d, 0)
    for family in (ProductFamily(tuple(L1Ball(c, 0.75) for c in center)),
                   ProductFamily(tuple(GraphDegreeSet(d, 1 + i % d, ("at_most", "at_least")[i % 2])
                                       for i in range(d))),
                   ProductFamily(tuple(GraphDegreeSet(d, 2) for _ in range(d)))):
        assert family._batch is not None
        first = [m.copy() for m in family.extremes(v)]
        for m in family.extremes(v):
            m[:] = -1.0
        for got, want in zip(family.extremes(v), first):
            assert got.tobytes() == want.tobytes()
    assert np.all(center >= 0.0)


def test_l1_batch_membership_agrees_with_each_ball_at_the_boundary():
    def both(family, X, tol):
        per_set = all(rs.contains(X[i], tol) for i, rs in enumerate(family.sets))
        assert family._batch is not None
        assert family.contains_matrix(X, tol) == per_set
        return per_set

    center = np.array([[0.5, 0.25, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    family = ProductFamily(tuple(L1Ball(c, 0.5) for c in center))
    for tol in (0.25, 1e-9):
        edge = 0.5 + tol
        X = center.copy()
        X[0, 2] = edge                       # the row's L1 distance is r + tol exactly
        assert both(family, X, tol)
        X[0, 2] = np.nextafter(edge, 1.0)
        assert not both(family, X, tol)
        X = center.copy()
        X[1, 2] = -tol                       # an entry at -tol
        assert both(family, X, tol)
        X[1, 2] = np.nextafter(-tol, -1.0)
        assert not both(family, X, tol)
    assert not family.contains_matrix(np.zeros((3, 4)))

    # The row sums of the one-pass test are the sets' own sums to the last
    # bit: each row passes at its own sum and fails one ulp below it.
    rng = np.random.default_rng(118)
    for d in (1, 2, 7, 8, 9, 16, 127, 128, 129, 300, 1000):
        center = rng.random((d, d))
        X = np.maximum(center + rng.normal(size=(d, d)) * 0.1, 0.0)
        sums = [float(np.sum(np.abs(X[i] - center[i]))) for i in range(d)]
        assert both(ProductFamily(tuple(L1Ball(c, r) for c, r in zip(center, sums))), X, 0.0)
        for k in {0, d // 2, d - 1}:
            radii = list(sums)
            radii[k] = np.nextafter(sums[k], 0.0)
            assert not both(ProductFamily(tuple(L1Ball(c, r) for c, r in zip(center, radii))),
                            X, 0.0)


# ------------------------------------------- the pruned scan of a large block

# d=200, N=40: 1.6 x 10^6 entries, a block large enough to keep bounds.
PRUNED_D, PRUNED_N = 200, 40


def _assert_scan_picks(block, v, up, down):
    """up and down hold the whole scan's picks, except where a row of the
    same set ties the extreme to within the rounding of a product."""
    from oracles import scanned_extremes

    want_up, want_down, dots = scanned_extremes(block, v)
    slack = 8 * block.shape[2] * 2.0 ** -53 * block.sum(axis=2) * float(np.max(v))
    for got, want, extreme in ((up, want_up, dots.max(axis=1)),
                               (down, want_down, dots.min(axis=1))):
        for i in np.flatnonzero((got != want).any(axis=1)):
            j = np.flatnonzero((block[i] == got[i]).all(axis=1))
            assert j.size, f"set {i} answered with a row it does not hold"
            assert abs(dots[i, j[0]] - extreme[i]) <= slack[i, j[0]] + slack[i].max(), i


def _recorded_extremes(monkeypatch):
    """Every (v, up, down) that ProductFamily.extremes answers from now on."""
    calls = []
    inner = ProductFamily.extremes

    def spy(self, v):
        up, down = inner(self, v)
        calls.append((np.array(v, dtype=float), up.copy(), down.copy()))
        return up, down

    monkeypatch.setattr(ProductFamily, "extremes", spy)
    return calls


def _pruned_family(seed, density=(0.09, 0.15)):
    from spectral_optim.rows import _PRUNE_ENTRIES

    family = generate_random_family(PRUNED_D, PRUNED_N, density, seed=seed)
    assert family._batch.block.size >= _PRUNE_ENTRIES
    return family


@pytest.mark.parametrize("density", [(0.09, 0.15), (1.0, 1.0)])
def test_pruned_scan_matches_the_whole_scan_over_optimize_runs(monkeypatch, density):
    from spectral_optim import OptimizerConfig, optimize

    calls = _recorded_extremes(monkeypatch)
    for seed in (1, 2):
        family = _pruned_family(seed, density)
        calls.clear()
        pruned = False
        for direction in ("max", "min"):
            optimize(family, OptimizerConfig(direction=direction))
            # A run's last call rescanned only some rows, unless it was the
            # first pass (a whole scan).
            _, lo, hi = family._batch._kept
            pruned |= bool(np.any(lo != hi))
        assert pruned
        for v, up, down in calls:
            _assert_scan_picks(family._batch.block, v, up, down)


def test_pruned_scan_edge_cases(monkeypatch):
    from spectral_optim import OptimizerConfig, optimize

    rng = np.random.default_rng(120)
    d = PRUNED_D
    family = _pruned_family(3)
    block = family._batch.block

    def check(v):
        up, down = family.extremes(v)
        _assert_scan_picks(block, v, up, down)
        return up, down

    # The all-ones vector, answered from the row norms alone, then scaled
    # copies of it and a vector near it.
    ones = np.ones(d)
    for v in (ones, ones * 2.0 ** -3, 3.0 * ones, ones + 1e-3 * rng.random(d)):
        check(v)
    # v changed in place after a call: the batch kept a copy of it.
    x = 0.5 + 0.4 * rng.random(d)
    first = check(x)
    v = x.copy()
    check(v)
    v += 0.02 * rng.random(d)
    second = check(v)
    assert not np.array_equal(first[0], second[0])
    # A tiny v takes the lifted path; its lifted copy is x itself here.
    check(x * 2.0 ** -60)
    # A far jump has too many candidates, and the block is scanned whole.
    far = rng.random(d) * (rng.random(d) < 0.3)
    far[0] += 0.1
    check(far)
    _, lo, hi = family._batch._kept
    assert lo is hi
    # Duplicated rows: every row of a set twice, next to itself.
    half = generate_random_family(d, PRUNED_N // 2, (0.09, 0.15), seed=4)._batch.block
    twice = _finite_family(np.repeat(half, 2, axis=1))
    calls = _recorded_extremes(monkeypatch)
    for direction in ("max", "min"):
        optimize(twice, OptimizerConfig(direction=direction))
    for v, up, down in calls:
        _assert_scan_picks(twice._batch.block, v, up, down)


def test_pruned_scan_shared_by_threads():
    import copy
    from concurrent.futures import ThreadPoolExecutor

    from spectral_optim import OptimizerConfig, optimize

    rng = np.random.default_rng(121)
    family = _pruned_family(5)
    # Two streams of nearby vectors, interleaved, so each thread's call
    # meets the other's kept bounds.
    base = [0.2 + rng.random(PRUNED_D) for _ in range(2)]
    vs = [b * (1.0 + 0.01 * rng.random(PRUNED_D)) for _ in range(12) for b in base]
    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = list(pool.map(family.extremes, vs))
    for v, (up, down) in zip(vs, answers):
        _assert_scan_picks(family._batch.block, v, up, down)
    # Both directions at once on one family give the serial results.
    configs = [OptimizerConfig(direction=d) for d in ("max", "min")]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(lambda cfg: optimize(family, cfg), configs))
    alone = [optimize(copy.copy(family), cfg) for cfg in configs]
    for a, b in zip(together, alone):
        assert a.matrix.tobytes() == b.matrix.tobytes() and a.rho == b.rho
