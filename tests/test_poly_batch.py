"""The lockstep simplex of a polytope family against per-set solves.

A family of halfspace polytopes solves all of its sets in one stack per
call; every set must end exactly where a chain of stacks of one on the
set's own program, warm-started from its own previous solution, ends: the
same x to the last bit, basis, bound flags, pivots, flips and start.
"""

import copy
import pickle
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


def _alone(rs, v, earlier):
    """Set rs's program with objective v, solved from ``earlier`` as a stack
    of one."""
    (solution,) = lp_module._solve_stack([(rs._program(v), earlier)])
    return solution


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
            want = _alone(rs, v, last[i])
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


def test_generated_normals_are_kept_without_a_copy():
    rng = np.random.default_rng(45)
    d, m = 6, 20
    family = generate_random_poly_family(d, m, seed=45)
    for rs in family.sets:
        assert not rs.normals.flags.writeable and rs.normals.flags.owndata
    # A fresh read-only array is the set's normals as it is.
    fresh = rng.random((m, d))
    fresh.flags.writeable = False
    assert HalfspacePoly(fresh).normals is fresh
    family.extremes(np.ones(d))
    rs = family.sets[0]
    assert rs._last._tableau is not None
    # The program solves on the set's own array.
    assert np.shares_memory(rs._program(np.ones(d)).normals, rs.normals)
    family.extremes(rng.random(d) + 0.1)
    assert rs._last.start == "tableau"
    # Writable normals are copied once, into the set's read-only array, and
    # a change to them reaches no set: every set reprices its kept tableau.
    normals = rng.random((m, d)) / 2.0
    writable = ProductFamily(tuple(HalfspacePoly(normals) for _ in range(d)))
    assert not any(np.shares_memory(rs.normals, normals) for rs in writable.sets)
    writable.extremes(np.ones(d))
    normals[0, 0] += 1.0
    writable.extremes(np.ones(d))
    assert all(rs._last.start == "tableau" for rs in writable.sets)


def _draw(rng, m, d):
    return rng.random((m, d)) / 2.0


def test_a_set_owns_its_normals():
    rng = np.random.default_rng(47)
    d, m = 7, 12
    normals = _draw(rng, m, d)
    rs, control = HalfspacePoly(normals), HalfspacePoly(normals.copy())
    assert not rs.normals.flags.writeable
    assert not np.shares_memory(rs.normals, normals)
    x = np.full(d, 0.05)
    assert rs.contains(x)
    for k, v in enumerate(_directions(d, 6, 47)):
        if k == 3:
            # The caller's array changes under neither membership nor the
            # warm start the set keeps.
            normals[:] = 10.0
        assert rs.contains(x)
        assert rs.best_row(v).tobytes() == control.best_row(v).tobytes()
        assert _summary(rs._last) == _summary(control._last)
    # A read-only view of someone else's array is borrowed: copied too.
    borrowed = normals[:]
    borrowed.flags.writeable = False
    assert not np.shares_memory(HalfspacePoly(borrowed).normals, normals)


def test_copies_and_pickles_start_cold():
    rng = np.random.default_rng(48)
    d = 8
    v = rng.random(d) + 0.1
    for rs in (HalfspacePoly(_draw(rng, 10, d)),
               generate_random_poly_family(d, 10, seed=48).sets[0]):
        for w in _directions(d, 3, 48):
            rs.best_row(w)
        fresh = HalfspacePoly(rs.normals.copy())
        want = fresh.best_row(v)
        for clone in (copy.copy(rs), copy.deepcopy(rs), pickle.loads(pickle.dumps(rs))):
            assert clone._last is None and not clone.normals.flags.writeable
            assert np.array_equal(clone.normals, rs.normals)
            assert clone.best_row(v).tobytes() == want.tobytes()
            assert _summary(clone._last) == _summary(fresh._last)
            assert clone._last.start == "cold"


def test_a_lone_set_matches_the_same_set_in_a_family():
    d = 12
    family = generate_random_poly_family(d, 15, seed=49)
    lone = copy.deepcopy(family)
    for v in _directions(d, 6, 49):
        family.extremes(v)
        for rs, mine in zip(lone.sets, family.sets):
            rs.best_row(v)
            assert _summary(rs._last) == _summary(mine._last)
    # A family of one, at d = 1, is the same stack of one.
    normals = _draw(np.random.default_rng(49), 4, 1)
    rs, of_one = HalfspacePoly(normals), ProductFamily((HalfspacePoly(normals),))
    for v in (np.ones(1), np.array([0.5])):
        assert rs.best_row(v).tobytes() == of_one.extremes(v)[0][0].tobytes()
        assert _summary(rs._last) == _summary(of_one.sets[0]._last)


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
