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
    for v in fresh[:3] + sparse + [fresh[0]] + fresh[3:] + [sparse[1], fresh[2]]:
        row = rs.best_row(v)
        want = _poly_cold_value(normals, v)
        assert float(row @ v) == pytest.approx(want, rel=1e-12)
        assert rs.contains(row, tol=1e-12)


def test_halfspace_poly_shared_by_threads():
    import sys
    import threading

    rng = np.random.default_rng(109)
    d = 10
    normals = rng.random((15, d)) / 2.0
    rs = HalfspacePoly(normals)
    vs = [rng.random(d) + 1e-3 for _ in range(40)]
    want = [_poly_cold_value(normals, v) for v in vs]
    results = [None] * 4

    def work(slot):
        order = np.random.default_rng(slot).permutation(len(vs))
        results[slot] = {i: float(rs.best_row(vs[i]) @ vs[i]) for i in order}

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
    for got in results:
        assert got is not None
        for i, value in got.items():
            assert value == pytest.approx(want[i], rel=1e-12)


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
    real = rows_module.lp_optimize

    def spy(lp, *args, **kwargs):
        solved.append(lp.objective.tobytes())
        return real(lp, *args, **kwargs)

    monkeypatch.setattr(rows_module, "lp_optimize", spy)
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
