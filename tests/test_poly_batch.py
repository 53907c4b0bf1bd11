"""The lockstep simplex of a polytope family against per-set solves.

A family of halfspace polytopes solves all of its sets in one stack per
call; every set must end exactly where a lone ``lp_optimize`` chain,
warm-started from its own previous solution, ends: the same x to the last
bit, basis, bound flags, pivots, flips and start.
"""

import sys
import threading

import numpy as np
import pytest

from spectral_optim import (
    HalfspacePoly,
    LinearProgram,
    ProductFamily,
    generate_random_poly_family,
    lp_optimize,
)
from spectral_optim import lp as lp_module
from spectral_optim import rows as rows_module


def _program(normals, v):
    m, d = normals.shape
    return LinearProgram(objective=v, normals=normals, rhs=np.ones(m), lo=np.zeros(d),
                         hi=np.ones(d))


def _directions(d, calls, seed):
    """All ones, the start matrix's direction, then each v a perturbation
    of the one before by up to a tenth, with about one component in twenty
    zeroed, as an optimizer's eigenvectors move."""
    rng = np.random.default_rng(seed)
    vs = [np.ones(d)]
    for k in range(1, calls):
        v = vs[-1] * rng.uniform(0.9, 1.1, d)
        v[rng.random(d) < 0.05] = 0.0
        v[k % d] += 0.1
        vs.append(v)
    return vs


def _summary(sol):
    return (sol.x.tobytes(), sol.basis, sol.at_upper, sol.pivots, sol.flips, sol.start)


def _assert_matches_per_set_chains(family, vs):
    """Run family.extremes over vs; after each call every set's solution
    equals that of its own per-set chain, which starts from the set's
    current solution."""
    last = [rs._last for rs in family.sets]
    starts = []
    for v in vs:
        up, down = family.extremes(v)
        assert not down.any()
        for i, rs in enumerate(family.sets):
            want = lp_optimize(_program(rs.normals, v), basis=last[i])
            assert _summary(rs._last) == _summary(want), i
            assert up[i].tobytes() == np.maximum(want.x, 0.0).tobytes()
            last[i] = want
        starts.append([rs._last.start for rs in family.sets])
    return starts


@pytest.mark.parametrize("d, m", [(25, 50), (40, 30), (60, 50)])
def test_batched_extremes_match_per_set_solves(d, m):
    for seed in range(5):
        family = generate_random_poly_family(d, m, seed=seed)
        assert isinstance(family._batch, rows_module._PolyBatch)
        starts = _assert_matches_per_set_chains(family, _directions(d, 4, seed))
        assert set(starts[0]) == {"cold"}
        assert all("cold" not in s for s in starts[1:])


def test_a_bland_set_pivots_beside_steepest_edge_sets(monkeypatch):
    # Dantzig's example (Chvatal, ch. 3) opens with degenerate pivots; with
    # a degenerate run of 1 it switches to Bland's rule after the first,
    # while the other programs of its stack keep steepest edge.
    rng = np.random.default_rng(41)
    dantzig = LinearProgram(objective=np.array([10.0, -57.0, -9.0, -24.0]),
                            normals=np.array([[0.5, -5.5, -2.5, 9.0],
                                              [0.5, -1.5, -0.5, 1.0],
                                              [1.0, 0.0, 0.0, 0.0]]),
                            rhs=np.array([0.0, 0.0, 1.0]), lo=np.zeros(4),
                            hi=np.full(4, np.inf))
    programs = [LinearProgram(objective=rng.random(4) + 0.1, normals=rng.random((3, 4)),
                              rhs=np.ones(3), lo=np.zeros(4), hi=np.ones(4))
                for _ in range(6)]
    programs.insert(2, dantzig)
    steepest = [_summary(lp_optimize(lp)) for lp in programs]
    monkeypatch.setattr(lp_module, "_DEGENERATE_RUN", 1)
    alone = [_summary(lp_optimize(lp)) for lp in programs]
    stacked = [_summary(sol) for sol in
               lp_module._solve_stack((lp, None) for lp in programs)]
    assert stacked == alone
    assert alone[2] != steepest[2]
    assert alone[:2] + alone[3:] == steepest[:2] + steepest[3:]


def test_a_set_past_its_refactorization_count_restarts_from_its_basis():
    # With three normals a kept tableau is dropped once carried through
    # three pivots; that set's next solve refactorizes from its basis while
    # the others of the stack reprice their tableaux.
    rng = np.random.default_rng(42)
    d = 8
    family = ProductFamily(tuple(HalfspacePoly(rng.random((3, d)) / 2.0)
                                 for _ in range(d)))
    starts = _assert_matches_per_set_chains(family, _directions(d, 12, 42))
    mixed = [s for s in starts if "basis" in s and "tableau" in s]
    assert mixed


def test_sets_of_different_m_solve_in_one_stack_per_shape(monkeypatch):
    shapes = []
    real = lp_module._solve_chunk

    def spy(problems):
        shapes.append([lp.normals.shape for lp, _ in problems])
        return real(problems)

    monkeypatch.setattr(lp_module, "_solve_chunk", spy)
    rng = np.random.default_rng(43)
    d = 9
    ms = [3, 3, 5, 5, 5, 2, 3, 3, 7]
    family = ProductFamily(tuple(HalfspacePoly(rng.random((m, d)) / 2.0) for m in ms))
    assert isinstance(family._batch, rows_module._PolyBatch)
    del shapes[:]
    family.extremes(np.ones(d))
    assert shapes == [[(3, d)] * 2, [(5, d)] * 3, [(2, d)], [(3, d)] * 2, [(7, d)]]
    _assert_matches_per_set_chains(family, _directions(d, 5, 43))


def test_chunks_bound_the_stack(monkeypatch):
    sizes = []
    real = lp_module._solve_chunk

    def spy(problems):
        sizes.append(len(problems))
        return real(problems)

    d, m = 12, 6
    entries = (m + 1) * (d + m + 1)
    monkeypatch.setattr(lp_module, "_CHUNK_ENTRIES", 5 * entries)
    monkeypatch.setattr(lp_module, "_solve_chunk", spy)
    family = generate_random_poly_family(d, m, seed=44)
    family.extremes(np.ones(d))
    assert sizes == [5, 5, 2]
    _assert_matches_per_set_chains(family, _directions(d, 4, 44))


def test_read_only_normals_are_checked_by_identity_and_not_copied():
    rng = np.random.default_rng(45)
    d, m = 6, 20
    family = generate_random_poly_family(d, m, seed=45)
    assert all(not rs.normals.flags.writeable for rs in family.sets)
    family.extremes(np.ones(d))
    rs = family.sets[0]
    kept = rs._last._tableau
    assert kept is not None
    # The kept constraints are the set's own arrays, not copies of them.
    assert np.shares_memory(kept.constraints[0], rs.normals)
    assert kept.fits(rs._program(np.ones(d)))
    family.extremes(rng.random(d) + 0.1)
    assert rs._last.start == "tableau"
    # Writable normals can change under the set: the tableau keeps a copy,
    # and a change is seen.
    normals = rng.random((m, d)) / 2.0
    writable = ProductFamily(tuple(HalfspacePoly(normals.copy()) for _ in range(d)))
    writable.extremes(np.ones(d))
    rs = writable.sets[0]
    kept = rs._last._tableau
    assert kept is not None and not np.shares_memory(kept.constraints[0], rs.normals)
    rs.normals[0, 0] += 1.0
    writable.extremes(np.ones(d))
    assert rs._last.start != "tableau"
    assert writable.sets[1]._last.start == "tableau"


def test_polytope_family_shared_by_threads():
    rng = np.random.default_rng(46)
    d = 10
    normals = [rng.random((15, d)) / 2.0 for _ in range(d)]
    shared = ProductFamily(tuple(HalfspacePoly(nm) for nm in normals))
    vs = [rng.random(d) + 1e-3 for _ in range(30)]
    # One thread alone, on a family of its own.
    alone = ProductFamily(tuple(HalfspacePoly(nm) for nm in normals))
    want = [alone.extremes(v)[0] for v in vs]
    results = [None] * 2

    def work(slot):
        order = np.random.default_rng(slot).permutation(len(vs))
        results[slot] = {i: shared.extremes(vs[i])[0] for i in order}

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
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
    # Each call stacks copies of the sets' last tableaux and replaces each
    # solution whole, so a thread sees the optimum a single thread sees.
    for got in results:
        assert got is not None and len(got) == len(vs)
        for i, up in got.items():
            assert np.allclose(up @ vs[i], want[i] @ vs[i], rtol=1e-12, atol=0.0)
            assert np.allclose(up, want[i], rtol=0.0, atol=1e-9)
            assert all(rs.contains(row, tol=1e-12) for rs, row in zip(shared.sets, up))
