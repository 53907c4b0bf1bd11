"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each criterion is one test named ``test_criterion_NN``; conftest.py prints a
PASS/FAIL line per criterion in the terminal summary.  Expected values come
from the independent oracles in oracles.py (dense eigensolver, exhaustive
enumeration, vertex-enumeration LP) or from closed forms; none are copied
from the implementation under test.  Wall-clock limits are asserted inside
each test with time.perf_counter around the measured workload.
"""

import functools
import time

import numpy as np

from spectral_optim import (Ellipsoid, OptimizerConfig, PowerConfig,
                            ProductFamily, FiniteSet,
                            linear_rate_bound, optimize)
from spectral_optim.apps import (DegreeSpec, StabilizationProblem,
                                 closest_stable, optimize_graph)
from spectral_optim.bench import BenchSpec, run_benchmark
from spectral_optim.demo import (cycling_family, run_cycling_demo,
                                 unstable_demo_matrix)
from spectral_optim.gen import generate_random_family

from oracles import (STAB_DEMO_RHO, STAB_REFERENCE_DISTANCE,
                     brute_family_optimum, eig_rho, run_random_lp_comparison)

FINITE_METHODS = ("selective-greedy", "simplex-smallest-index", "simplex-pivot")


# ---------------------------------------------------------------------------
# criterion 1: worked 3x3 family


def test_criterion_01_worked_family():
    """Selective greedy finds the maximum 12 of the 3x3 demo family in at
    most 4 passes with first row (12, 0, 0); plain greedy with the
    adversarial eigenvector hook cycles at 10 but still certifies the upper
    bound 12.5.  Under 0.1 s."""
    t0 = time.perf_counter()
    res = optimize(cycling_family(), OptimizerConfig(power=PowerConfig(eps=1e-12)))
    g, s = run_cycling_demo()
    elapsed = time.perf_counter() - t0

    assert abs(res.rho - 12.0) <= 1e-9
    assert res.status == "optimal"
    assert res.iterations <= 4
    assert np.array_equal(res.matrix[0], np.array([12.0, 0.0, 0.0]))

    assert g.status == "cycle-detected"
    assert abs(g.rho - 10.0) <= 1e-9
    assert abs(g.bounds[1] - 12.5) <= 1e-9
    assert s.status == "optimal"
    assert abs(s.rho - 12.0) <= 1e-9

    assert elapsed < 0.1, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criteria 2 and 6 share one sweep over 200 random finite families


@functools.lru_cache(maxsize=1)
def _finite_sweep():
    """200 random finite families (d <= 6, N <= 3, alternating sparse and
    strictly positive), solved by all three finite-set methods in both
    directions.  Returns (records, elapsed); each record carries the
    exhaustive-enumeration optimum for its direction."""
    t0 = time.perf_counter()
    records = []
    for t in range(200):
        d = 2 + t % 5
        n_rows = 1 + t % 3
        interval = (1.0, 1.0) if t % 2 == 0 else (0.3, 0.7)
        fam = generate_random_family(d, n_rows, interval, seed=100 + t)
        rows = [rs.rows for rs in fam.sets]
        oracle = {direction: brute_family_optimum(rows, direction)[1]
                  for direction in ("max", "min")}
        for direction in ("max", "min"):
            for method in FINITE_METHODS:
                cfg = OptimizerConfig(direction=direction, method=method,
                                      power=PowerConfig(eps=1e-11))
                res = optimize(fam, cfg)
                records.append((t, direction, method, res, oracle[direction]))
    return records, time.perf_counter() - t0


def test_criterion_02_random_finite_families_match_enumeration():
    """On 200 random finite families every method matches the exhaustive
    optimum to 1e-8 in both directions.  Under 60 s."""
    records, elapsed = _finite_sweep()
    assert len(records) == 200 * 2 * len(FINITE_METHODS)
    worst = 0.0
    for t, direction, method, res, oracle_rho in records:
        err = abs(res.rho - oracle_rho)
        assert err <= 1e-8, (
            f"family {t} {method} {direction}: rho={res.rho!r} "
            f"oracle={oracle_rho!r} status={res.status}")
        worst = max(worst, err)
    assert elapsed < 60.0, f"took {elapsed:.1f}s (worst dev {worst:.2e})"


def test_criterion_06_bounds_sandwich_every_iterate():
    """On every iteration of criterion 2's runs the certified bounds bracket
    the current radius (t_k <= rho_k <= s_k, 1e-12 float dust), and in max
    mode the enumeration optimum never exceeds any upper bound s_k + 1e-9."""
    records, _ = _finite_sweep()
    for t, direction, method, res, oracle_rho in records:
        for row in res.trace:
            assert row.t_bound - 1e-12 <= row.rho <= row.s_bound + 1e-12, (
                f"family {t} {method} {direction} iter {row.iteration}: "
                f"t={row.t_bound!r} rho={row.rho!r} s={row.s_bound!r}")
            if direction == "max":
                assert oracle_rho <= row.s_bound + 1e-9, (
                    f"family {t} {method} iter {row.iteration}: "
                    f"oracle {oracle_rho!r} above s {row.s_bound!r}")


# ---------------------------------------------------------------------------
# criterion 3: extremal graphs for prescribed out-degrees


def test_criterion_03_graph_degree_extremes():
    """Maximal spectral radius over digraphs with out-degrees
    (3,2,3,2,4,1,1) is 3.21432 to 1e-4; uniform degree 1 gives exactly 1 and
    uniform degree d gives exactly d.  Under 0.1 s."""
    t0 = time.perf_counter()
    adj, rho = optimize_graph(DegreeSpec((3, 2, 3, 2, 4, 1, 1)))
    adj1, rho1 = optimize_graph(DegreeSpec((1,) * 7))
    adj7, rho7 = optimize_graph(DegreeSpec((7,) * 7))
    elapsed = time.perf_counter() - t0

    assert abs(rho - 3.21432) <= 1e-4
    assert np.array_equal(adj, adj.astype(bool).astype(float))
    assert np.array_equal(adj.sum(axis=1), np.array([3, 2, 3, 2, 4, 1, 1], dtype=float))
    assert abs(eig_rho(adj) - rho) <= 1e-8

    assert rho1 == 1.0
    assert np.array_equal(adj1.sum(axis=1), np.ones(7))
    assert rho7 == 7.0
    assert np.array_equal(adj7, np.ones((7, 7)))

    assert elapsed < 0.1, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criterion 4: closest stable matrix


def test_criterion_04_closest_stable_10x10():
    """The 10x10 demo matrix has radius 9.139125 (1e-4); its nearest stable
    matrix in the operator infinity norm is non-negative, has radius at most
    1 + 1e-6, and lies within the reference distance 8 (+1e-3).  Under 5 s."""
    A = unstable_demo_matrix()
    assert abs(eig_rho(A) - STAB_DEMO_RHO) <= 1e-9
    assert abs(eig_rho(A) - 9.139125) <= 1e-4

    t0 = time.perf_counter()
    X, r_star = closest_stable(StabilizationProblem(A))
    elapsed = time.perf_counter() - t0

    assert np.all(X >= 0)
    assert eig_rho(X) <= 1.0 + 1e-6
    distance = float(np.max(np.abs(X - A).sum(axis=1)))
    assert distance <= r_star + 1e-9
    assert distance <= STAB_REFERENCE_DISTANCE + 1e-3
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 5: iteration counts stay flat in dimension


def test_criterion_05_benchmark_iteration_counts():
    """Ten-trial sweeps over d in (25, 100, 500) x N in (50, 100): strictly
    positive families need at most 6 mean passes per cell with the largest
    cell mean within 2x the smallest; sparse families (density 0.09..0.15)
    need at most 10.  Under 10 min."""
    t0 = time.perf_counter()
    positive = run_benchmark(BenchSpec(dims=(25, 100, 500), set_sizes=(50, 100),
                                       density_interval=(1.0, 1.0), trials=10,
                                       seed=0))
    sparse = run_benchmark(BenchSpec(dims=(25, 100, 500), set_sizes=(50, 100),
                                     density_interval=(0.09, 0.15), trials=10,
                                     seed=0))
    elapsed = time.perf_counter() - t0

    assert len(positive) == 6 and len(sparse) == 6
    for cell in positive + sparse:
        assert cell.failures == 0, f"d={cell.d} N={cell.set_size} failed trials"

    pos_means = [cell.mean_iters for cell in positive]
    assert max(pos_means) <= 6.0, positive
    assert max(pos_means) <= 2.0 * min(pos_means), positive

    for cell in sparse:
        assert cell.mean_iters <= 10.0, sparse

    assert elapsed < 600.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 7: greedy contraction never beats the closed-form rate bound


def test_criterion_07_contraction_within_linear_rate():
    """On 50 strictly positive finite families (entries in [0.2, 1], d <= 8,
    N <= 4) every observed greedy contraction (rho* - rho_{k+1}) /
    (rho* - rho_k) stays at or below q = 1 - m^2/(m^2 + (d-1) M^2) + 1e-9.

    The max run starts from the family's minimizing matrix, otherwise the
    default start reaches the optimum in one or two passes on most draws and
    leaves almost no gaps to measure.  Gaps below 1e-9 * max(1, rho*) count
    as converged and are skipped; every family must still contribute at
    least one measurable contraction.  Under 60 s."""
    t0 = time.perf_counter()
    checked = 0
    for t in range(50):
        rng = np.random.default_rng(7000 + t)
        d = 2 + t % 7
        n_rows = 2 + t % 3
        fam = ProductFamily(tuple(
            FiniteSet(0.2 + 0.8 * rng.random((n_rows, d))) for _ in range(d)))
        q = linear_rate_bound(fam)
        power = PowerConfig(eps=1e-12)
        low = optimize(fam, OptimizerConfig(direction="min", method="greedy", power=power))
        res = optimize(fam, OptimizerConfig(method="greedy", power=power),
                       initial_matrix=low.matrix)
        assert res.status == "optimal", (t, res.status)
        rho_star = res.rho
        rhos = [row.rho for row in res.trace]
        observed = 0
        for k in range(len(rhos) - 1):
            gap = rho_star - rhos[k]
            if gap <= 1e-9 * max(1.0, rho_star):
                continue
            ratio = (rho_star - rhos[k + 1]) / gap
            assert ratio <= q + 1e-9, (
                f"family {t} pass {k}: contraction {ratio!r} above bound {q!r}")
            observed += 1
        assert observed >= 1, f"family {t}: nothing measurable"
        checked += observed
    elapsed = time.perf_counter() - t0
    assert checked >= 50, f"only {checked} contractions observed"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 8: convergence order on smooth (ellipsoid) families


def _ellipsoid_family(t):
    rng = np.random.default_rng(8000 + t)
    d = 2 + t % 9
    sets = []
    for _ in range(d):
        axes = 0.5 + rng.random(d)
        center = 1.0 + rng.random(d)
        radius = 0.4 * float(np.min(center / axes))
        sets.append(Ellipsoid(center, radius, axes))
    return ProductFamily(tuple(sets))


def _iterate_errors(fam, method, ref_matrix):
    cfg = OptimizerConfig(method=method, power=PowerConfig(eps=1e-13),
                          delta=1e-13, record_iterates=True)
    res = optimize(fam, cfg)
    return [float(np.max(np.abs(M - ref_matrix))) for M in res.iterates]

def test_criterion_08_convergence_order():
    """On 20 random all-ellipsoid families (d <= 10) the selective greedy
    error e_k = ||A_k - A*||_max contracts with order >= 1.8 on its last two
    measurable steps, while single-row simplex contracts with order < 1.3.

    Measurement note: errors at or below 1e-12 are clamped to 1e-13 before
    taking log(e_{k+1}) / log(e_k), which makes each selective ratio a lower
    bound on the true order, valid evidence for the >= 1.8 side.  The
    simplex error is a staircase (one row fixed per pass, the last step
    lands on the optimum exactly), so a clamped final ratio would fake a
    superlinear step; the simplex side therefore uses only pairs where both
    errors are genuinely resolvable (> 1e-12) and takes the median ratio as
    the order estimate.  Under 60 s."""
    t0 = time.perf_counter()
    for t in range(20):
        fam = _ellipsoid_family(t)
        ref = optimize(fam, OptimizerConfig(power=PowerConfig(eps=1e-14),
                                            delta=1e-14))
        assert ref.status == "optimal", (t, ref.status)

        sel_errors = _iterate_errors(fam, "selective-greedy", ref.matrix)
        sel_ratios = [np.log(max(b, 1e-13)) / np.log(a)
                      for a, b in zip(sel_errors, sel_errors[1:])
                      if 1e-12 < a <= 0.5]
        assert sel_ratios, (t, sel_errors)
        for ratio in sel_ratios[-2:]:
            assert ratio >= 1.8, (
                f"family {t}: selective order {ratio!r}, errors {sel_errors}")

        sx_errors = _iterate_errors(fam, "simplex-smallest-index", ref.matrix)
        sx_ratios = [np.log(b) / np.log(a)
                     for a, b in zip(sx_errors, sx_errors[1:])
                     if 1e-12 < a <= 0.5 and b > 1e-12]
        assert len(sx_ratios) >= 2, (t, sx_errors)
        order = float(np.median(sx_ratios))
        assert order < 1.3, (
            f"family {t}: simplex order {order!r}, errors {sx_errors}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 9: selective greedy never cycles on sparse families


def test_criterion_09_no_cycles_on_sparse_families():
    """500 random sparse families (d <= 30, density 0.05..0.2), both
    directions at the default improvement threshold: selective greedy never
    reports cycle-detected.  Under 5 min."""
    t0 = time.perf_counter()
    statuses = {}
    for t in range(500):
        d = 2 + t % 29
        n_rows = 1 + t % 3
        fam = generate_random_family(d, n_rows, (0.05, 0.2), seed=9000 + t)
        for direction in ("max", "min"):
            res = optimize(fam, OptimizerConfig(direction=direction))
            statuses[res.status] = statuses.get(res.status, 0) + 1
            assert res.status != "cycle-detected", (t, direction)
    elapsed = time.perf_counter() - t0
    assert sum(statuses.values()) == 1000, statuses
    assert elapsed < 300.0, f"took {elapsed:.1f}s (statuses {statuses})"


# ---------------------------------------------------------------------------
# criterion 10: LP layer against the vertex oracle; polytope sweep


def test_criterion_10_lp_oracle_and_polytope_bench():
    """500 random boxed LPs agree with the vertex-enumeration oracle to 1e-9
    (including which instances are infeasible), and the polytope benchmark
    (d in (10, 25) x N in (5, 10), ten trials) terminates within 8 mean
    passes per cell.  Under 5 min."""
    t0 = time.perf_counter()
    worst, infeasible = run_random_lp_comparison(500, seed=17)
    assert worst <= 1e-9, worst
    assert infeasible >= 1

    cells = run_benchmark(BenchSpec(dims=(10, 25), set_sizes=(5, 10),
                                    kind="poly", trials=10, seed=0))
    elapsed = time.perf_counter() - t0

    assert len(cells) == 4
    for cell in cells:
        assert cell.failures == 0, f"d={cell.d} N={cell.set_size} failed trials"
        assert cell.mean_iters <= 8.0, cells
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
