"""Generator and benchmark tests.

The seed-0 known-answer values are the published first outputs of the
splitmix64 mixer; the seed-42 pair is a regression freeze of this
implementation.  Distribution-level numbers (nonzero fraction) were measured
once on the frozen seed and asserted with the contract tolerance.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spectral_optim.bench import (
    BenchCell,
    BenchSpec,
    format_table,
    resolve_threads,
    run_benchmark,
    write_csv,
)
from spectral_optim import gen
from spectral_optim.gen import (
    CounterStream,
    generate_random_family,
    generate_random_poly_family,
)
from spectral_optim.rows import FiniteSet, HalfspacePoly

from oracles import generate_random_family_rows


# ----------------------------------------------------------------- the PRNG

def test_splitmix64_known_answers_seed_zero():
    got = CounterStream(0).raw(3)
    assert [int(v) for v in got] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_regression_seed_42():
    got = CounterStream(42).raw(2)
    assert [int(v) for v in got] == [0xBDD732262FEB6E95, 0x28EFE333B266F103]


def test_counter_stream_is_a_pure_function_of_position():
    a, b = CounterStream(7), CounterStream(7)
    np.testing.assert_array_equal(a.raw(5),
                                  np.concatenate([b.raw(2), b.raw(3)]))
    with pytest.raises(ValueError):
        a.raw(-1)


def test_uniform_ranges():
    u = CounterStream(3).uniform_open_closed(20000)
    assert u.min() > 0.0 and u.max() <= 1.0
    h = CounterStream(3).uniform_half_open(20000)
    assert h.min() >= 0.0 and h.max() < 1.0


# ----------------------------------------------------------- family generator

def test_generator_is_deterministic_per_seed():
    a = generate_random_family(5, 3, (0.3, 0.7), seed=11)
    b = generate_random_family(5, 3, (0.3, 0.7), seed=11)
    c = generate_random_family(5, 3, (0.3, 0.7), seed=12)
    for rs_a, rs_b in zip(a.sets, b.sets):
        np.testing.assert_array_equal(rs_a.rows, rs_b.rows)
    assert any(not np.array_equal(rs_a.rows, rs_c.rows)
               for rs_a, rs_c in zip(a.sets, c.sets))


def test_generator_shapes_and_validation():
    fam = generate_random_family(4, 2, seed=0)
    assert len(fam.sets) == 4
    assert all(isinstance(rs, FiniteSet) and rs.rows.shape == (2, 4)
               for rs in fam.sets)
    with pytest.raises(ValueError):
        generate_random_family(0, 2)
    with pytest.raises(ValueError):
        generate_random_family(2, 2, (0.5, 0.2))
    with pytest.raises(ValueError):
        generate_random_family(2, 2, (0.1, 1.5))


@pytest.mark.parametrize("call, message", [
    (lambda: generate_random_family(2.5, 1), "d must be an integer, got 2.5"),
    (lambda: generate_random_family(3, 2.0), "set_size must be an integer, got 2.0"),
    (lambda: generate_random_family(3, 0), "set_size must be at least 1, got 0"),
    (lambda: generate_random_poly_family(2.5, 2), "d must be an integer, got 2.5"),
    (lambda: generate_random_poly_family(3, 2.0), "n_normals must be an integer, got 2.0"),
    (lambda: generate_random_poly_family(0, 2), "d must be at least 1, got 0"),
])
def test_generator_counts_are_checked_like_bench_specs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_generators_take_numpy_integer_counts():
    fam = generate_random_family(np.int64(3), np.int32(2), seed=1)
    want = generate_random_family(3, 2, seed=1)
    assert [rs.rows.tobytes() for rs in fam.sets] == [rs.rows.tobytes() for rs in want.sets]
    assert len(generate_random_poly_family(np.int64(3), np.int32(2)).sets) == 3


def test_degenerate_density_interval_gives_positive_families():
    fam = generate_random_family(6, 4, (1.0, 1.0), seed=9)
    for rs in fam.sets:
        assert np.all(rs.rows > 0.0)
        assert np.all(rs.rows <= 1.0)


def test_fixed_draw_layout_aligns_sparse_and_positive_runs():
    # Same seed, same layout: wherever the sparse family kept an entry, its
    # magnitude must equal the positive family's entry at that position.
    # The only exception is a fallback entry (all-zero row forced at index 0).
    pos = generate_random_family(6, 4, (1.0, 1.0), seed=9)
    sparse = generate_random_family(6, 4, (0.3, 0.7), seed=9)
    fallback_rows = 0
    for rs_p, rs_s in zip(pos.sets, sparse.sets):
        for row_p, row_s in zip(rs_p.rows, rs_s.rows):
            nz = row_s > 0
            assert nz.any()
            if nz.sum() == 1 and nz[0] and not math.isclose(row_s[0], row_p[0]):
                fallback_rows += 1
                continue
            np.testing.assert_array_equal(row_s[nz], row_p[nz])
    assert fallback_rows <= 2


@pytest.mark.parametrize("d, n, density, seed", [
    (1, 1, (0.09, 0.15), 0),
    (5, 3, (0.3, 0.7), 11),
    (6, 4, (1.0, 1.0), 9),
    (4, 3, (0.01, 0.02), 1),
    (17, 2, (0.05, 0.2), 9013),
    (40, 7, (0.0, 1.0), 2 ** 64 - 1),
    (50, 10, (0.0, 0.0), 3),        # every row dead: all fallbacks
    (7, 2, (1.0, 1.0), 4),          # gamma = 1, the threshold edge
    (100, 30, (0.09, 0.15), 5),     # three groups of sets, the last partial
])
def test_generator_matches_the_three_call_layout_bit_for_bit(d, n, density, seed):
    fam = generate_random_family(d, n, density, seed=seed)
    want = generate_random_family_rows(d, n, density, seed)
    assert [rs.rows.tobytes() for rs in fam.sets] == [w.tobytes() for w in want]


@pytest.mark.parametrize("group", [1, 7, 64])
def test_generator_output_does_not_depend_on_the_group_size(monkeypatch, group):
    # Groups smaller than one set, groups ending inside the family, and
    # sets at every density edge.
    monkeypatch.setattr(gen, "_GROUP_DRAWS", group)
    for d, n, density, seed in [(13, 3, (0.0, 1.0), 1), (9, 5, (1.0, 1.0), 2),
                                (20, 2, (0.0, 0.0), 3), (11, 4, (0.3, 0.5), 2 ** 64 - 1)]:
        fam = generate_random_family(d, n, density, seed=seed)
        want = generate_random_family_rows(d, n, density, seed)
        assert [rs.rows.tobytes() for rs in fam.sets] == [w.tobytes() for w in want]


def test_generator_matches_the_layout_on_the_small_benchmark_families(monkeypatch):
    # The 500 families of acceptance criterion 9, the shapes of finite-small.
    # Each is one group of sets, hashed in the calling thread: no pool, and
    # no look at the CPUs.
    def refuse(*args, **kwargs):
        raise AssertionError("a one-group family made a pool or read the CPUs")

    monkeypatch.setattr(gen, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", refuse)
    monkeypatch.setattr(os, "cpu_count", refuse)
    for t in range(500):
        d, n = 2 + t % 29, 1 + t % 3
        fam = generate_random_family(d, n, (0.05, 0.2), seed=9000 + t)
        want = generate_random_family_rows(d, n, (0.05, 0.2), 9000 + t)
        assert [rs.rows.tobytes() for rs in fam.sets] == [w.tobytes() for w in want], t


# Families of many groups: (d, N, density, seed), one set per group under
# _GROUP_DRAWS = 64.
_MANY_GROUPS = [(40, 3, (0.0, 1.0), 1), (9, 5, (1.0, 1.0), 2),
                (20, 2, (0.0, 0.0), 3), (33, 4, (0.09, 0.15), 2 ** 64 - 1)]


def _assert_layout(fam, d, n, density, seed):
    want = generate_random_family_rows(d, n, density, seed)
    assert [rs.rows.tobytes() for rs in fam.sets] == [w.tobytes() for w in want]


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_groups_hashed_on_any_number_of_cpus_give_the_same_family(monkeypatch, cpus):
    workers = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gen, "_GROUP_DRAWS", 64)
    monkeypatch.setattr(gen, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    threads = threading.active_count()
    for d, n, density, seed in _MANY_GROUPS:
        _assert_layout(generate_random_family(d, n, density, seed=seed), d, n, density, seed)
    # One CPU hashes every group in the calling thread; more take one thread
    # per CPU, at most one per group: the caller and a pool of the others,
    # none of which outlives the call.
    assert workers == ([] if cpus == 1 else [min(cpus, d) - 1 for d, *_ in _MANY_GROUPS])
    assert threading.active_count() == threads


def test_families_built_on_bench_trial_threads_match_the_layout(monkeypatch):
    monkeypatch.setattr(gen, "_GROUP_DRAWS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    with ThreadPoolExecutor(2) as pool:
        fams = list(pool.map(lambda shape: generate_random_family(*shape), _MANY_GROUPS))
    for fam, shape in zip(fams, _MANY_GROUPS):
        _assert_layout(fam, *shape)
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", ["pool", "caller"])
def test_a_failing_group_raises_in_the_caller(monkeypatch, failing):
    inner = gen._open_closed
    caller_calls = []

    def broken(raw):
        caller = threading.current_thread() is threading.main_thread()
        if caller:
            caller_calls.append(raw.size)
        # The caller's first call draws the densities, before any group.
        if (caller and len(caller_calls) > 1) if failing == "caller" else not caller:
            raise RuntimeError("group failed")
        return inner(raw)

    monkeypatch.setattr(gen, "_GROUP_DRAWS", 64)
    monkeypatch.setattr(gen, "_open_closed", broken)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="group failed"):
        generate_random_family(40, 3, (0.0, 1.0), seed=1)
    assert threading.active_count() == threads


def test_cpu_budget_is_the_affinity_set_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert gen._cpu_budget() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert gen._cpu_budget() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert gen._cpu_budget() == 1


def test_generator_writes_one_block_of_set_views():
    fam = generate_random_family(6, 4, (0.3, 0.7), seed=2)
    block = fam.sets[0].rows.base
    assert block.shape == (6, 4, 6) and block.flags.c_contiguous
    assert all(np.shares_memory(rs.rows, block) for rs in fam.sets)
    assert [rs.rows.tobytes() for rs in fam.sets] == [b.tobytes() for b in block]


def test_no_candidate_row_is_all_zero_even_at_tiny_density():
    fam = generate_random_family(4, 3, (0.01, 0.02), seed=1)
    for rs in fam.sets:
        assert np.all(np.any(rs.rows > 0.0, axis=1))


def test_nonzero_fraction_tracks_the_density_midpoint():
    fam = generate_random_family(100, 20, (0.3, 0.7), seed=12345)
    entries = np.concatenate([rs.rows.ravel() for rs in fam.sets])
    assert entries.size == 200000
    assert abs(float(np.mean(entries > 0.0)) - 0.5) <= 0.02


def test_poly_generator_normals_are_unit_and_positive():
    fam = generate_random_poly_family(4, 3, seed=2)
    assert all(isinstance(rs, HalfspacePoly) for rs in fam.sets)
    for rs in fam.sets:
        np.testing.assert_allclose(np.linalg.norm(rs.normals, axis=1), 1.0,
                                   atol=1e-12)
        assert np.all(rs.normals > 0.0)
    again = generate_random_poly_family(4, 3, seed=2)
    for rs_a, rs_b in zip(fam.sets, again.sets):
        np.testing.assert_array_equal(rs_a.normals, rs_b.normals)


# ------------------------------------------------------------------ benchmark

def test_resolve_threads_priority():
    assert resolve_threads(3) == 3
    for bad in (0, -4, 2.7):
        with pytest.raises(ValueError):
            resolve_threads(bad)
    assert resolve_threads() == gen._cpu_budget()


def test_bench_spec_validation():
    with pytest.raises(ValueError):
        BenchSpec(dims=(), set_sizes=(2,))
    with pytest.raises(ValueError):
        BenchSpec(dims=(2,), set_sizes=(2,), trials=0)
    with pytest.raises(ValueError):
        BenchSpec(dims=(2,), set_sizes=(2,), kind="dense")


@pytest.mark.parametrize("kwargs", [
    dict(dims=(0,)),
    dict(dims=(3, 0)),
    dict(set_sizes=(0,)),
    dict(density_interval=(0.5, 0.2)),
    dict(density_interval=(-0.1, 0.2)),
    dict(density_interval=(0.2, 1.5)),
])
def test_bench_spec_rejects_empty_cells_and_a_bad_density(kwargs):
    # Caught at construction, not reported as a failure of every trial.
    spec = dict(dims=(2,), set_sizes=(2,))
    spec.update(kwargs)
    with pytest.raises(ValueError):
        BenchSpec(**spec)


@pytest.mark.parametrize("kwargs", [
    dict(dims=(2.5,)),
    dict(set_sizes=(2, 2.5)),
    dict(trials=2.5),
])
def test_bench_spec_refuses_non_integral_counts(kwargs):
    # Caught at construction: dims=(2.5,) used to fail every trial.
    spec = dict(dims=(2,), set_sizes=(2,))
    spec.update(kwargs)
    with pytest.raises(ValueError, match="must be an integer, got 2.5"):
        BenchSpec(**spec)


def test_bench_spec_takes_numpy_integers():
    spec = BenchSpec(dims=tuple(np.array([3])), set_sizes=(np.int64(2),),
                     trials=np.int32(2))
    (cell,) = run_benchmark(spec, threads=1)
    assert cell.failures == 0


def test_bench_spec_rejects_a_bad_direction_or_method():
    # Caught at construction, not reported as a failure of every trial.
    with pytest.raises(ValueError, match="direction"):
        BenchSpec(dims=(2,), set_sizes=(2,), direction="up")
    with pytest.raises(ValueError, match="unknown method"):
        BenchSpec(dims=(2,), set_sizes=(2,), method="newton")


def test_singleton_sets_take_exactly_one_pass():
    spec = BenchSpec(dims=(4, 6), set_sizes=(1,), trials=3, seed=5)
    cells = run_benchmark(spec, threads=1)
    assert len(cells) == 2
    for cell in cells:
        assert cell.failures == 0
        assert cell.mean_iters == 1.0


def test_benchmark_smoke_finite_and_poly():
    cells = run_benchmark(BenchSpec(dims=(3, 5), set_sizes=(2, 3), trials=4,
                                    seed=7), threads=2)
    assert [(c.d, c.set_size) for c in cells] == [(3, 2), (3, 3), (5, 2), (5, 3)]
    for cell in cells:
        assert cell.failures == 0
        assert cell.mean_iters >= 1.0
        assert np.isfinite(cell.mean_time_s)
    poly = run_benchmark(BenchSpec(dims=(3,), set_sizes=(3,), trials=3,
                                   seed=1, kind="poly"), threads=1)
    assert poly[0].failures == 0
    assert poly[0].mean_iters >= 1.0


def test_failed_trials_are_counted_not_raised(monkeypatch, tmp_path):
    calls = {"n": 0}

    def flaky(fam, cfg):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("synthetic trial failure")

        class R:
            iterations = 3
        return R()

    monkeypatch.setattr("spectral_optim.bench.optimize", flaky)
    spec = BenchSpec(dims=(3,), set_sizes=(2,), trials=4, seed=0)
    cells = run_benchmark(spec, threads=1)
    assert cells[0].failures == 2
    assert cells[0].mean_iters == 3.0
    assert cells[0].errors == ((1, "RuntimeError", "synthetic trial failure"),
                               (3, "RuntimeError", "synthetic trial failure"))
    table = format_table(cells, spec)
    assert "failed: d=3 N=2 trial 3 (seed 3): RuntimeError: synthetic trial failure" in table
    write_csv(cells, tmp_path / "sweep.csv", spec)
    rows = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0].split(",")[-1] == "fail"
    assert rows[1].split(",")[-1] == "2"

    monkeypatch.setattr("spectral_optim.bench.optimize",
                        lambda fam, cfg: (_ for _ in ()).throw(RuntimeError("x")))
    cells = run_benchmark(spec, threads=1)
    assert cells[0].failures == 4
    assert math.isnan(cells[0].mean_iters)


def test_csv_output_is_deterministic_modulo_time(tmp_path):
    spec = BenchSpec(dims=(3,), set_sizes=(2, 3), trials=3, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_benchmark(spec, threads=2), p1, spec)
    write_csv(run_benchmark(spec, threads=1), p2, spec)

    def strip_time(text):
        out = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("d,"):
                out.append(line)
            else:
                cells = line.split(",")
                del cells[3]
                out.append(",".join(cells))
        return out

    t1, t2 = p1.read_text(), p2.read_text()
    assert strip_time(t1) == strip_time(t2)
    header = [l for l in t1.splitlines() if l.startswith("d,")][0]
    assert header == "d,N,mean_iters,mean_time_s,trials,seed,fail"
    assert any("seed: 9" in l for l in t1.splitlines() if l.startswith("#"))


def test_format_table_lists_every_cell_with_metadata():
    spec = BenchSpec(dims=(2,), set_sizes=(2,), trials=2, seed=4)
    cells = [BenchCell(d=2, set_size=2, mean_iters=1.5, mean_time_s=0.01,
                       trials=2, seed=4)]
    table = format_table(cells, spec)
    assert "# generator: splitmix64 counter stream" in table
    assert "# seed: 4" in table
    assert any(line.split()[:2] == ["2", "2"] for line in table.splitlines())
