"""Optimizer tests: greedy steps, cycle handling, statuses, traces, brute force.

Every method runs through ``optimize``; single
steps and the cycle rule are observed on the driver's trace and iterates.

Expected values were computed by hand (dot products against pinned
eigenvectors, closed-form radii of the small fixtures) or by the
eigendecomposition/enumeration oracles in oracles.py, then frozen.
"""

import numpy as np
import pytest

from oracles import (
    blockwise_rho,
    brute_family_optimum,
    eig_rho,
    fixture_rows,
    inflated,
    padded,
)

from spectral_optim.linalg import _SQUARING_ROWS, PowerConfig
from spectral_optim.optimize import (
    OptimizerConfig,
    linear_rate_bound,
    matrix_signature,
    optimize,
)
from spectral_optim.rows import FiniteSet, L1Ball, ProductFamily
from spectral_optim import demo, generate_random_family

TIGHT = PowerConfig(eps=1e-12)

BLAND = np.array([[1.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0],
                  [1.0, 1.0, 3.0]])
SWAP_A = np.array([[0.0, 5.0, 10.0],
                   [0.0, 10.0, 0.0],
                   [0.0, 0.0, 10.0]])
OPTIMUM = np.array([[12.0, 0.0, 0.0],
                    [1.0, 1.0, 1.0],
                    [1.0, 1.0, 3.0]])


def _finite_family(sets):
    return ProductFamily(tuple(FiniteSet(np.asarray(rows, dtype=float)) for rows in sets))


def _member(M):
    """The one-member family {M}."""
    return _finite_family([[row] for row in np.asarray(M, dtype=float)])


def _random_finite_family(rng, d, n, density=0.6):
    sets = []
    for _ in range(d):
        rows = rng.random((n, d)) * (rng.random((n, d)) < density)
        rows[np.all(rows == 0, axis=1), 0] = rng.random()
        sets.append(FiniteSet(rows))
    return ProductFamily(tuple(sets))


# ---------------------------------------------------------------- greedy step

def _greedy_step(X, v, direction="max"):
    """The driver's first greedy step from X against the pinned vector v:
    returns the matrix after it and the rows it changed."""
    cfg = OptimizerConfig(method="greedy", direction=direction, max_outer_iters=2,
                          record_iterates=True)
    res = optimize(demo.cycling_family(), cfg, eigenvector_fn=lambda A: v,
                   initial_matrix=X)
    return res.iterates[-1], res.trace[0].rows_changed


def test_greedy_step_swaps_every_improvable_row():
    v = np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0)
    A_next, changed = _greedy_step(BLAND, v)
    assert changed == (0, 1, 2)
    np.testing.assert_array_equal(A_next, SWAP_A)


def test_greedy_step_single_improvable_row():
    v = np.array([3.0, 2.0, 2.0]) / np.linalg.norm([3.0, 2.0, 2.0])
    A_next, changed = _greedy_step(SWAP_A, v)
    assert changed == (0,)
    np.testing.assert_array_equal(A_next[0], [12.0, 0.0, 0.0])
    np.testing.assert_array_equal(A_next[1:], SWAP_A[1:])


def test_greedy_step_fixed_point_returns_empty_tuple():
    v = np.array([49.0, 5.0, 6.0]) / np.linalg.norm([49.0, 5.0, 6.0])
    A_next, changed = _greedy_step(OPTIMUM, v)
    assert changed == ()
    np.testing.assert_array_equal(A_next, OPTIMUM)


def test_greedy_step_min_direction():
    v = np.array([49.0, 5.0, 6.0]) / np.linalg.norm([49.0, 5.0, 6.0])
    A_next, changed = _greedy_step(OPTIMUM, v, direction="min")
    assert changed == (0, 1, 2)
    np.testing.assert_array_equal(A_next, [[1.0, 1.0, 1.0],
                                           [0.0, 10.0, 0.0],
                                           [0.0, 0.0, 10.0]])


def test_greedy_step_rejects_mismatched_matrix():
    cfg = OptimizerConfig(method="greedy")
    with pytest.raises(ValueError, match="size"):
        optimize(demo.cycling_family(), cfg, initial_matrix=np.eye(2))


# ------------------------------------------------- signatures and cycle check

def test_matrix_signature_quantizes_at_picoscale():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert matrix_signature(A) == matrix_signature(A + 1e-14)
    assert matrix_signature(A) != matrix_signature(A + 2e-12)


def test_matrix_signature_separates_shapes():
    assert matrix_signature(np.zeros((2, 2))) != matrix_signature(np.zeros((3, 3)))


def test_matrix_signature_separates_entries_beyond_the_int64_range():
    # 1e7 / 1e-12 and 2e7 / 1e-12 are both past 2**63 quanta.
    assert matrix_signature(np.array([[1e7]])) != matrix_signature(np.array([[2e7]]))
    assert matrix_signature(np.array([[-0.0]])) == matrix_signature(np.array([[0.0]]))


def test_cycle_check_runs_warning_free_on_large_entries():
    base = demo.cycling_family()
    scaled = ProductFamily(tuple(FiniteSet(1e8 * rs.rows) for rs in base.sets))
    for direction in ("max", "min"):
        cfg = OptimizerConfig(direction=direction)
        ref, res = optimize(base, cfg), optimize(scaled, cfg)
        assert res.status == ref.status
        assert res.rho / 1e8 == pytest.approx(ref.rho, rel=1e-8)


def _optimizer_keys(monkeypatch, run):
    """Run ``run()`` and collect the cycle-check keys the optimizer computed."""
    import importlib

    module = importlib.import_module("spectral_optim.optimize")
    keys = []
    real = module._digest_of_rows

    def spy(row_digests):
        keys.append(real(row_digests))
        return keys[-1]

    with monkeypatch.context() as m:
        m.setattr(module, "_digest_of_rows", spy)
        res = run()
    return res, keys


def test_optimizer_cycle_key_is_the_matrix_signature(monkeypatch):
    from spectral_optim.gen import generate_random_family

    fam = generate_random_family(40, 20, (0.09, 0.15), seed=1)
    cfg = OptimizerConfig(direction="min", record_iterates=True)
    res, keys = _optimizer_keys(monkeypatch, lambda: optimize(fam, cfg))
    assert res.iterations == 6
    assert sum(len(r.rows_changed) for r in res.trace) > res.iterations
    assert keys == [matrix_signature(A) for A in res.iterates]

    cfg = OptimizerConfig(method="greedy", power=TIGHT, record_iterates=True)
    res, keys = _optimizer_keys(monkeypatch, lambda: optimize(
        demo.cycling_family(), cfg, eigenvector_fn=demo.adversarial_eigenvectors(),
        initial_matrix=demo.cycling_initial_matrix()))
    assert res.status == "cycle-detected"
    assert keys == [matrix_signature(A) for A in res.iterates]


SWAP_B = np.array([[0.0, 10.0, 5.0],
                   [0.0, 10.0, 0.0],
                   [0.0, 0.0, 10.0]])


def _scripted_hook(script):
    """eigenvector_fn returning ``script[name][n]`` on the n-th visit of the
    matrix ``name`` ('A' is SWAP_A, 'B' is SWAP_B), the last entry once the
    script runs out, and the selected eigenvector elsewhere."""
    visits = {"A": 0, "B": 0}

    def hook(X):
        for name, M in (("A", SWAP_A), ("B", SWAP_B)):
            if np.array_equal(X, M):
                vs = script[name]
                v = vs[min(visits[name], len(vs) - 1)]
                visits[name] += 1
                return np.asarray(v, dtype=float)
        return None

    return hook


# Vectors that steer the minimizing step from SWAP_A to SWAP_B and back.
# They are not eigenvectors; the cycle rule only sees the matrices and
# their radius estimates (10 at both).
MIN_TO_B = (20.0, 0.9, 1.0)
MIN_TO_A = (20.0, 1.0, 0.9)


def _greedy_run(direction, hook, start, max_outer_iters=1000):
    cfg = OptimizerConfig(method="greedy", direction=direction, power=TIGHT,
                          max_outer_iters=max_outer_iters)
    return optimize(demo.cycling_family(), cfg, eigenvector_fn=hook,
                    initial_matrix=start)


def test_detect_cycle_on_revisit_without_progress():
    res = _greedy_run("max", demo.adversarial_eigenvectors(), SWAP_A)
    assert res.status == "cycle-detected"
    assert [r.rows_changed for r in res.trace] == [(0,), (0,), ()]
    assert [r.rho for r in res.trace] == pytest.approx([10.0, 10.0, 10.0], abs=1e-12)

    res = _greedy_run("min", _scripted_hook({"A": [MIN_TO_B], "B": [MIN_TO_A]}), SWAP_A)
    assert res.status == "cycle-detected"
    assert [r.rows_changed for r in res.trace] == [(0,), (0,), ()]
    assert [r.rho for r in res.trace] == pytest.approx([10.0, 10.0, 10.0], abs=1e-12)


def test_detect_cycle_ignores_revisits_after_progress():
    # On its second visit SWAP_A is given a vector whose radius estimate
    # (max ratio 20 / 1.9) exceeds the first visit's 10: no cycle there.
    # The step still flips row 0, and SWAP_B's unchanged revisit closes the
    # cycle one pass later.
    hook = _scripted_hook({"A": [(2.0, 2.0, 1.0), (1.9, 2.0, 1.0)],
                           "B": [(2.0, 1.0, 2.0)]})
    res = _greedy_run("max", hook, SWAP_A)
    assert res.status == "cycle-detected"
    assert [r.rows_changed for r in res.trace] == [(0,), (0,), (0,), ()]
    assert res.trace[2].rho == pytest.approx(20.0 / 1.9, abs=1e-12)

    # Minimizing, the second visit's vector (1, 0, 0) estimates 0 and is a
    # fixed point: the revisit ends the run as optimal, not as a cycle.
    hook = _scripted_hook({"A": [MIN_TO_B, (1.0, 0.0, 0.0)], "B": [MIN_TO_A]})
    res = _greedy_run("min", hook, SWAP_A)
    assert res.status == "optimal"
    assert [r.rows_changed for r in res.trace] == [(0,), (0,), ()]
    assert res.trace[2].rho == 0.0


def test_detect_cycle_needs_a_repeat():
    # SWAP_A and SWAP_B share the radius 10, yet reaching SWAP_B after
    # SWAP_A is no cycle: only the first repeated matrix (pass 4) is.
    hook = demo.adversarial_eigenvectors()
    res = _greedy_run("max", hook, BLAND, max_outer_iters=3)
    assert res.status == "max-iters"
    assert [r.rho for r in res.trace[1:]] == pytest.approx([10.0, 10.0], abs=1e-12)
    res = _greedy_run("max", hook, BLAND)
    assert res.status == "cycle-detected"
    assert res.iterations == 4


# ------------------------------------------------------------- fixture runs

def test_selective_greedy_max_on_fixture():
    res = optimize(demo.cycling_family(), OptimizerConfig(power=TIGHT))
    assert res.status == "optimal"
    assert res.rho == pytest.approx(12.0, abs=1e-9)
    assert res.iterations == 3
    assert res.iterations == len(res.trace)
    np.testing.assert_array_equal(res.matrix, OPTIMUM)
    unit = np.array([49.0, 5.0, 6.0]) / np.linalg.norm([49.0, 5.0, 6.0])
    np.testing.assert_allclose(res.eigenvector, unit, atol=1e-9)
    t, s = res.bounds
    assert s == pytest.approx(12.0, abs=1e-9)
    assert t == pytest.approx(60.0 / 49.0, abs=1e-9)
    assert [r.rows_changed for r in res.trace] == [(0,), (1, 2), ()]


def test_selective_greedy_min_on_fixture():
    cfg = OptimizerConfig(direction="min", power=TIGHT)
    res = optimize(demo.cycling_family(), cfg)
    assert res.status == "optimal"
    assert res.rho == pytest.approx(4.0, abs=1e-9)
    assert res.iterations == 1
    np.testing.assert_array_equal(res.matrix, BLAND)
    t, s = res.bounds
    assert t == pytest.approx(4.0, abs=1e-9)
    assert s == pytest.approx(25.0, abs=1e-9)


def test_simplex_smallest_index_walks_rows_in_order():
    cfg = OptimizerConfig(method="simplex-smallest-index", power=TIGHT)
    res = optimize(demo.cycling_family(), cfg)
    assert res.status == "optimal"
    assert res.rho == pytest.approx(12.0, abs=1e-9)
    assert [r.rows_changed for r in res.trace] == [(0,), (1,), (2,), ()]


def test_simplex_pivot_picks_extremal_ratio_row():
    cfg = OptimizerConfig(method="simplex-pivot", power=TIGHT)
    res = optimize(demo.cycling_family(), cfg)
    assert res.status == "optimal"
    assert res.rho == pytest.approx(12.0, abs=1e-9)
    # At diag(12, 10, 10) the selected vector is exactly (1, 0, 0), so rows
    # 1 and 2 both score +inf and the first wins.
    assert [r.rows_changed for r in res.trace] == [(0,), (1,), (2,), ()]


def test_cycling_demo_pins_both_outcomes():
    g, s = demo.run_cycling_demo()
    assert g.status == "cycle-detected"
    assert g.rho == pytest.approx(10.0, abs=1e-9)
    assert g.iterations == 4
    assert [r.rows_changed for r in g.trace] == [(0, 1, 2), (0,), (0,), ()]
    # The reported iterate is the best of the cycle; its adversarial
    # eigenvector (2, 2, 1)/3 certifies rho_max <= 12.5 for the whole family.
    np.testing.assert_allclose(g.eigenvector, np.array([2.0, 2.0, 1.0]) / 3.0, atol=1e-12)
    assert g.bounds[0] == pytest.approx(2.5, abs=1e-9)
    assert g.bounds[1] == pytest.approx(12.5, abs=1e-9)

    assert s.status == "optimal"
    assert s.rho == pytest.approx(12.0, abs=1e-9)
    assert s.iterations == 4
    np.testing.assert_array_equal(s.matrix, OPTIMUM)


def test_greedy_without_hook_escapes_the_trap():
    cfg = OptimizerConfig(method="greedy", power=TIGHT)
    res = optimize(demo.cycling_family(), cfg, initial_matrix=demo.cycling_initial_matrix())
    assert res.status == "optimal"
    assert res.rho == pytest.approx(12.0, abs=1e-9)
    assert res.iterations == 4


def test_tiny_scale_eigen_stage_reads_the_true_radius():
    # Every row times 1e-12: A + I is I to within 1e-11, so a power stage
    # on it used to stop after one step and report rho 1.5e-11 for max,
    # above the family's maximum.  Squaring lifts A by a power of two first.
    # The absolute delta (1e-10) still exceeds every row gain, so the run
    # stops after one pass.
    family = ProductFamily(tuple(FiniteSet(rs.rows * 1e-12)
                                 for rs in demo.cycling_family().sets))
    rows = [rs.rows for rs in family.sets]
    for direction in ("max", "min"):
        res = optimize(family, OptimizerConfig(direction=direction))
        assert [(r.eigen_path, r.power_iters) for r in res.trace] == [("squaring", 0)]
        assert res.trace[0].squarings > 1
        assert res.rho == pytest.approx(eig_rho(res.matrix), rel=1e-12)
        best = brute_family_optimum(rows, direction)[1]
        t, s = res.bounds
        assert (s >= best * (1 - 1e-12)) if direction == "max" else (t <= best * (1 + 1e-12))


# ------------------------------------------------------------------ statuses

def test_max_iters_status_reports_last_iterate():
    cfg = OptimizerConfig(max_outer_iters=1, power=TIGHT)
    res = optimize(demo.cycling_family(), cfg)
    assert res.status == "max-iters"
    assert res.iterations == 1
    assert res.rho == pytest.approx(10.0, abs=1e-9)
    assert res.bounds[1] == pytest.approx(12.0, abs=1e-9)


def test_bound_certified_when_gap_is_tiny_at_exhaustion():
    fam = _finite_family([
        [[1.0, 0.0], [1.0 + 1e-8, 0.0]],
        [[0.0, 1.0]],
    ])
    cfg = OptimizerConfig(max_outer_iters=1, power=TIGHT)
    res = optimize(fam, cfg, initial_matrix=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert res.status == "bound-certified"
    assert res.iterations == 1
    assert res.rho == pytest.approx(1.0, abs=1e-9)
    assert res.bounds[1] - res.rho <= 1e-6


def test_reducible_detected_on_degenerate_eigenvector():
    fam = _finite_family([[[20.0, 0.0]], [[0.0, 0.0]]])
    res = optimize(fam, OptimizerConfig(power=PowerConfig(eps=1e-13)))
    assert res.status == "reducible-detected"
    assert res.rho == pytest.approx(20.0, abs=1e-9)
    assert res.perturbed_result is not None
    assert res.perturbed_result.status == "optimal"
    assert res.perturbed_result.rho == pytest.approx(20.0, abs=1e-5)


def test_reducible_pullback_rescues_a_stalled_run():
    # Started at the decoupled member diag(2, 0), the eigenvector collapses
    # onto the first coordinate and the better second row (0, 2.5) is
    # invisible to it (its dot is below delta).  The perturbed retry sees it;
    # the family's best member against the retry's eigenvector is the exact
    # family member diag(2, 2.5).
    fam = _finite_family([
        [[2.0, 0.0]],
        [[0.0, 0.0], [0.0, 2.5]],
    ])
    res = optimize(fam, OptimizerConfig(power=PowerConfig(eps=1e-13)),
                   initial_matrix=np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert res.status == "reducible-detected"
    assert res.rho == pytest.approx(2.5, abs=1e-9)
    np.testing.assert_allclose(res.matrix, [[2.0, 0.0], [0.0, 2.5]], atol=1e-12)
    assert res.perturbed_result.rho == pytest.approx(2.5, abs=1e-6)


def test_reducible_retry_through_an_l1_ball_returns_a_family_member():
    # Started at diag(2, 0), the first row grows to (2.5, 0) inside its ball
    # and the second row's (0, 3) stays invisible to the collapsed
    # eigenvector; the retry's pull-back is an exact member of the ball.
    fam = ProductFamily((
        L1Ball(np.array([2.0, 0.0]), 0.5),
        FiniteSet(np.array([[0.0, 0.0], [0.0, 3.0]])),
    ))
    res = optimize(fam, OptimizerConfig(power=PowerConfig(eps=1e-13)),
                   initial_matrix=np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert res.status == "reducible-detected"
    # The squared vector of [[2, 0.5], [0, 3]] is (1, 2) / sqrt(5) to the
    # last bit or two, so rho is 3 to within one ulp.
    assert abs(res.rho - 3.0) <= np.spacing(3.0)
    np.testing.assert_allclose(res.eigenvector, np.array([1.0, 2.0]) / np.sqrt(5.0),
                               rtol=0, atol=1e-15)
    assert fam.contains_matrix(res.matrix, 0.0)
    # Above the squaring limit the structural path solves the classes of
    # [[2, 0.5], [0, 3]] exactly, and rho is exactly 3.
    d = _SQUARING_ROWS + 1
    big = ProductFamily((
        L1Ball(padded([[2.0]])[0], 0.5),
        FiniteSet(padded([[0.0, 0.0], [0.0, 3.0]])[:2]),
    ) + (FiniteSet(np.zeros((1, d))),) * (d - 2))
    res = optimize(big, OptimizerConfig(power=PowerConfig(eps=1e-13)),
                   initial_matrix=padded([[2.0]]))
    assert res.status == "reducible-detected"
    assert {r.eigen_path for r in res.trace} == {"structural"}
    assert res.rho == 3.0
    assert res.eigenvector[:2].tolist() == (np.array([1.0, 2.0]) / np.sqrt(5.0)).tolist()
    assert big.contains_matrix(res.matrix, 0.0)


def test_reducible_retry_survives_a_small_power_budget():
    # The blended retry's members are irreducible and need far more than 60
    # power iterations at this eps; the 2 x 2 members square instead, so the
    # budget does not enter and no pass ends on an unconverged iterate.
    fam = _finite_family([
        [[2.0, 0.0]],
        [[0.0, 0.0], [0.0, 2.5]],
    ])
    cfg = OptimizerConfig(power=PowerConfig(eps=1e-13, max_iters=60))
    res = optimize(fam, cfg, initial_matrix=np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert res.status == "reducible-detected"
    assert {r.eigen_path for r in res.perturbed_result.trace} == {"squaring"}
    np.testing.assert_allclose(res.matrix, [[2.0, 0.0], [0.0, 2.5]], atol=1e-12)
    assert res.rho == pytest.approx(2.5, abs=1e-6)
    t, s = res.bounds
    assert t - 1e-9 <= res.rho <= s + 1e-9


# The finite-small benchmark recipe (acceptance criterion 9): family t has
# d = 2 + t % 29, N = 1 + t % 3, density (0.05, 0.2) and generator seed
# 9000 + t.  These eight solves end on reducible matrices where power
# iteration reads rho off the unconverged transients of a slower class.
@pytest.mark.parametrize("seed,direction", [
    (9034, "max"), (9050, "min"), (9166, "min"), (9190, "min"),
    (9193, "min"), (9334, "min"), (9401, "min"), (9460, "min"),
])
def test_reducible_optima_report_their_block_radius(seed, direction):
    t = seed - 9000
    fam = generate_random_family(2 + t % 29, 1 + t % 3, (0.05, 0.2), seed=seed)
    res = optimize(fam, OptimizerConfig(direction=direction))
    ref = blockwise_rho(res.matrix)
    assert abs(res.rho - ref) <= 1e-6 * max(1.0, ref)


# ---------------------------------------------------------- traces, recording

# Eigenvalues 1 +- 0.045: hundreds of power steps, not three, and more
# than the default budget of the inflated 66 x 66 version.
SLOW = np.array([[1.0, 2.0], [1e-3, 1.0]])
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
LONG = OptimizerConfig(power=PowerConfig(max_iters=10_000))


def test_trace_names_the_eigen_path():
    assert [r.eigen_path for r in optimize(_member(JORDAN)).trace] == ["squaring"]
    assert [r.eigen_path for r in optimize(_member(SLOW)).trace] == ["squaring"]
    assert [r.eigen_path for r in optimize(_member(padded(JORDAN))).trace] == ["structural"]
    slow = _member(inflated(SLOW))
    res = optimize(slow, OptimizerConfig(power=PowerConfig(max_iters=3)))
    assert [r.eigen_path for r in res.trace] == ["squaring"]
    res = optimize(slow, LONG)
    assert [r.eigen_path for r in res.trace] == ["power"]
    hooked = optimize(demo.cycling_family(), OptimizerConfig(method="greedy"),
                      eigenvector_fn=lambda A: np.ones(3))
    assert {r.eigen_path for r in hooked.trace} == {"hook"}


def test_trace_counts_the_power_iterations_of_each_pass():
    from spectral_optim.linalg import selected_eigenpair

    slow = _member(inflated(SLOW))
    res = optimize(slow, LONG)
    want = selected_eigenpair(res.matrix, LONG.power).power_iters
    assert want > 100 and [(r.power_iters, r.squarings) for r in res.trace] == [(want, 0)]
    res = optimize(slow, OptimizerConfig(power=PowerConfig(max_iters=3)))
    want = selected_eigenpair(res.matrix, PowerConfig(max_iters=3)).squarings
    assert want > 0
    assert [(r.power_iters, r.squarings) for r in res.trace] == [(3, want)]
    small = optimize(_member(SLOW))
    want = selected_eigenpair(SLOW).squarings
    assert want > 0 and [(r.power_iters, r.squarings) for r in small.trace] == [(0, want)]
    structural = optimize(_member(padded(JORDAN)))
    assert [(r.power_iters, r.squarings) for r in structural.trace] == [(0, 0)]
    hooked = optimize(demo.cycling_family(), OptimizerConfig(method="greedy"),
                      eigenvector_fn=lambda A: np.ones(3))
    assert {(r.power_iters, r.squarings) for r in hooked.trace} == {(0, 0)}


def test_trace_is_sandwiched_and_monotone_on_fixture():
    res = optimize(demo.cycling_family(), OptimizerConfig(power=TIGHT))
    assert isinstance(res.trace, list)
    assert np.all(np.diff([r.rho for r in res.trace]) >= -1e-12)
    for k, row in enumerate(res.trace, start=1):
        assert row.iteration == k
        assert row.t_bound - 1e-9 <= row.rho <= row.s_bound + 1e-9
        assert 0.0 <= row.eigen_s and 0.0 <= row.oracle_s
        assert row.eigen_s + row.oracle_s <= row.time_s
    assert res.trace[-1].rows_changed == ()


@pytest.mark.parametrize("direction", ["max", "min"])
def test_traces_are_monotone_across_methods(direction):
    rng = np.random.default_rng(404)
    for trial in range(20):
        fam = _random_finite_family(rng, 2 + trial % 5, 1 + trial % 3)
        for method in ("selective-greedy", "simplex-smallest-index",
                       "simplex-pivot", "greedy"):
            cfg = OptimizerConfig(method=method, direction=direction, power=TIGHT)
            res = optimize(fam, cfg)
            diffs = np.diff([r.rho for r in res.trace])
            if direction == "max":
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)


def test_rho_stays_inside_its_own_bound_on_sparse_families():
    # The 500 sparse families of acceptance criterion 9.  The radius and the
    # bound of its direction divide the same product A v at a fixed point,
    # so they are ordered exactly, with no slack.
    from spectral_optim.gen import generate_random_family

    for t in range(500):
        fam = generate_random_family(2 + t % 29, 1 + t % 3, (0.05, 0.2), seed=9000 + t)
        res = optimize(fam, OptimizerConfig(direction="max"))
        assert res.rho <= res.bounds[1], (t, "max", res.rho, res.bounds)
        res = optimize(fam, OptimizerConfig(direction="min"))
        assert res.bounds[0] <= res.rho, (t, "min", res.rho, res.bounds)


def test_rho_stays_inside_its_own_bound_on_polytopes():
    # The first ten rounds of the benchmark's poly-lp families.  The LP may
    # rebuild the current row's vertex with other last bits; s still takes
    # the current row's own product, so it stays at or above rho exactly.
    from spectral_optim.gen import generate_random_poly_family

    for k in range(10):
        seed = np.random.SeedSequence([200 + k, 0, 0]).generate_state(1, np.uint64)[0]
        fam = generate_random_poly_family(25, 50, seed=int(seed))
        res = optimize(fam)
        assert res.rho <= res.bounds[1], (k, res.rho, res.bounds)


def test_record_iterates_keeps_every_visited_matrix():
    cfg = OptimizerConfig(power=TIGHT, record_iterates=True)
    res = optimize(demo.cycling_family(), cfg)
    assert len(res.iterates) == res.iterations
    np.testing.assert_array_equal(res.iterates[0], SWAP_A)
    np.testing.assert_array_equal(res.iterates[-1], res.matrix)
    plain = optimize(demo.cycling_family(), OptimizerConfig(power=TIGHT))
    assert plain.iterates is None


# ------------------------------------------------------- dispatch, validation

def test_optimize_rejects_hook_outside_greedy():
    fam = demo.cycling_family()
    hook = demo.adversarial_eigenvectors()
    with pytest.raises(ValueError, match="greedy"):
        optimize(fam, eigenvector_fn=hook)
    with pytest.raises(ValueError, match="greedy"):
        optimize(fam, OptimizerConfig(method="simplex-pivot"), eigenvector_fn=hook)


def test_each_method_has_one_spelling():
    # The short alias is refused, as on the command line, not rewritten;
    # optimize runs the method the config names.
    with pytest.raises(ValueError, match="unknown method 'simplex'"):
        OptimizerConfig(method="simplex")
    res = optimize(demo.cycling_family(), OptimizerConfig(method="greedy", power=TIGHT))
    assert res.method == "greedy"


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(direction="down")
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(delta=-1e-3)
    with pytest.raises(ValueError):
        OptimizerConfig(max_outer_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(reducibility_alpha=1.0)


def test_config_refuses_a_non_integral_pass_cap():
    with pytest.raises(ValueError, match="max_outer_iters must be an integer, got 2.5"):
        OptimizerConfig(max_outer_iters=2.5)
    res = optimize(demo.cycling_family(), OptimizerConfig(max_outer_iters=np.int32(1)))
    assert res.iterations == 1


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_config_rejects_a_non_finite_delta(delta):
    # A NaN or infinite threshold makes no row improvable, so the first pass would end
    # "optimal" at radius 10 on a family whose maximum is 12.
    with pytest.raises(ValueError, match="delta"):
        OptimizerConfig(delta=delta)


def test_initial_matrix_validation():
    fam = demo.cycling_family()
    with pytest.raises(ValueError):
        optimize(fam, initial_matrix=np.eye(2))
    with pytest.raises(ValueError):
        optimize(fam, initial_matrix=-np.eye(3))


def test_initial_matrix_must_be_a_member():
    # Row 1 may only be (0, 0.5), so the family's radius is 1; a start with
    # row (0, 1.5) would otherwise be returned as optimal with rho 1.5 and
    # bounds that certify it.
    fam = ProductFamily((FiniteSet(np.array([[1.0, 0.0]])),
                         FiniteSet(np.array([[0.0, 0.5]]))))
    with pytest.raises(ValueError, match="not a member"):
        optimize(fam, initial_matrix=np.array([[1.0, 0.0], [0.0, 1.5]]))
    res = optimize(fam, initial_matrix=np.array([[1.0, 0.0], [0.0, 0.5]]))
    assert res.rho == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- brute force

def test_brute_force_on_fixture_both_directions():
    A_max, rho_max = brute_family_optimum(fixture_rows(), "max")
    assert rho_max == pytest.approx(12.0, abs=1e-9)
    np.testing.assert_array_equal(A_max, OPTIMUM)
    A_min, rho_min = brute_family_optimum(fixture_rows(), "min")
    assert rho_min == pytest.approx(4.0, abs=1e-9)
    np.testing.assert_array_equal(A_min, BLAND)


def test_brute_force_ties_keep_first_member():
    rows = [[[1.0, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0]]]
    for direction in ("max", "min"):
        A, rho = brute_family_optimum(rows, direction)
        assert rho == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(A, np.eye(2))


def test_methods_agree_with_brute_force_on_random_families():
    rng = np.random.default_rng(77)
    for trial in range(10):
        fam = _random_finite_family(rng, 2 + trial % 4, 2, density=0.7)
        rows = [rs.rows for rs in fam.sets]
        for direction in ("max", "min"):
            _, want = brute_family_optimum(rows, direction)
            for method in ("selective-greedy", "simplex-smallest-index", "simplex-pivot"):
                cfg = OptimizerConfig(method=method, direction=direction,
                                      power=PowerConfig(eps=1e-11))
                res = optimize(fam, cfg)
                assert res.rho == pytest.approx(want, abs=1e-8), (trial, method, direction)


def test_methods_agree_pairwise_on_positive_families():
    rng = np.random.default_rng(99)
    for _ in range(5):
        sets = tuple(FiniteSet(0.1 + 0.9 * rng.random((5, 10))) for _ in range(10))
        fam = ProductFamily(sets)
        rhos = []
        for method in ("selective-greedy", "greedy", "simplex-smallest-index",
                       "simplex-pivot"):
            cfg = OptimizerConfig(method=method, power=PowerConfig(eps=1e-11))
            rhos.append(optimize(fam, cfg).rho)
        assert max(rhos) - min(rhos) <= 1e-8


# ---------------------------------------------------------------- rate bound

def test_linear_rate_bound_closed_form():
    ones2 = _finite_family([[[1.0, 1.0]], [[1.0, 1.0]]])
    assert linear_rate_bound(ones2) == pytest.approx(0.5, abs=1e-15)
    spread = _finite_family([
        [[1.0, 2.0, 1.0]],
        [[2.0, 1.0, 2.0]],
        [[1.0, 1.0, 1.0]],
    ])
    assert linear_rate_bound(spread) == pytest.approx(8.0 / 9.0, abs=1e-15)
    single = ProductFamily((FiniteSet(np.array([[2.0]])),))
    assert linear_rate_bound(single) == 0.0
    with pytest.raises(ValueError, match="positive"):
        linear_rate_bound(demo.cycling_family())
