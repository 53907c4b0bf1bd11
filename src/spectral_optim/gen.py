"""Seeded random family generation on a counter-based PRNG.

The generator is splitmix64 (an xorshift-multiply mixer over a Weyl sequence,
public constants below).  Output k of a stream is mix(seed + (k+1) * GAMMA),
so a stream is a pure function of (seed, counter): draws can be produced in
vectorized blocks, and the draw *layout* is fixed once and for all.  Every
position in the layout is always reserved whether or not its value ends up
used, which keeps families bit-reproducible across code paths and lets
benchmark trials run in any order.

Layout per finite row set (d columns, N candidate rows):

    1 draw            density gamma in (lo, hi]
    N * d draws       per-entry density checks in [0, 1)
    N * d draws       per-entry magnitudes in (0, 1]
    N draws           fallback magnitudes (used only for all-zero rows)

An entry is nonzero (taking its magnitude) when its density check falls
below gamma.  A row that comes out all zero gets its lowest-index entry set
from the fallback draw.  With the degenerate density interval (1, 1) every
check passes, so the family is entrywise positive with uniform (0, 1]
magnitudes.

Because each draw is addressed by its position, the finite generator hashes
only the draws it uses: every gamma and every density check, a magnitude
only where its check passes, and a fallback only for an all-zero row.  It
works on groups of whole sets, about 2^17 checks at a time, and writes the
family into one C-contiguous (d, N, d) block; set i holds the view block[i].
A group writes only its own sets' slice of the block, so a family of more
than one group is hashed by one thread per CPU the process may use (at
most one per group): the calling thread and a pool of the others, each
holding about 2 MB of temporaries.  The family is the same to the bit
whatever the thread count; a family of one group, and any family where
the process may use one CPU, is hashed in the calling thread alone.
The block, read-only, goes to the family with its sets, and the family's
oracle answers every set with one batch over it: a whole scan, or for a
large block a rescan of the rows its kept bounds cannot rule out (see
:mod:`~.rows`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .linalg import check_count
from .rows import HalfspacePoly, ProductFamily, _finite_family

__all__ = [
    "CounterStream",
    "generate_random_family",
    "generate_random_poly_family",
    "POLY_NORMALS_NOTE",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = 2.0 ** 53
_TWO53_INV = 2.0 ** -53
# Density checks hashed per group of sets by the finite generator.  On d=500,
# N=100, 2^17 was the fastest or tied in every run (medians of 12 builds):
# with two threads 2^17-2^19 took 0.16-0.20 s, 2^14-2^16 0.20-0.21 s and
# 2^20 0.20-0.26 s; with one thread, groups of 2^17 or fewer checks took
# 10-16% less time than 2^18 and about 38% less than 2^20.  One set per
# group is much slower on small families.
_GROUP_DRAWS = 1 << 17

POLY_NORMALS_NOTE = "normals uniform on (0,1]^d scaled to unit Euclidean norm"


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, applied to x in place."""
    shifted = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _draws(seed: np.uint64, k: np.ndarray) -> np.ndarray:
    """Raw outputs at the 1-based stream positions k (uint64), computed in
    place of k."""
    k *= _GAMMA
    k += seed
    return _mix(k)


def _open_closed(raw: np.ndarray) -> np.ndarray:
    """Raw outputs as uniforms on (0, 1] (53-bit resolution)."""
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO53_INV


def _cpu_budget() -> int:
    """CPUs this process may run on: its affinity set, or the CPU count where
    the platform reports no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _seed64(seed: int) -> np.uint64:
    return np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)


class CounterStream:
    """Deterministic stream of uniforms addressed by (seed, counter)."""

    def __init__(self, seed: int):
        self._seed = _seed64(seed)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        k = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _draws(self._seed, k)

    def uniform_open_closed(self, n: int) -> np.ndarray:
        """n uniforms on (0, 1] (53-bit resolution)."""
        return _open_closed(self.raw(n))

    def uniform_half_open(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1) (53-bit resolution)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _TWO53_INV


def generate_random_family(d: int, set_size: int,
                           density_interval: tuple[float, float] = (0.09, 0.15),
                           seed: int = 0) -> ProductFamily:
    """Random product family of finite row sets.

    Each of the d sets draws its own density gamma from
    ``density_interval``, then fills ``set_size`` candidate rows with
    entries that are nonzero with probability gamma and uniform (0, 1] in
    magnitude.  All-zero rows get one forced entry at the lowest index so
    no candidate row is ever entirely zero.  The rows of set i are the view
    ``block[i]`` of one read-only (d, set_size, d) array.  Groups of sets
    are hashed on one thread per CPU the process may use; the family does
    not depend on how many.
    """
    d = check_count(d, "d")
    n = check_count(set_size, "set_size")
    lo, hi = float(density_interval[0]), float(density_interval[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("density interval must satisfy 0 <= lo <= hi <= 1")
    seed = _seed64(seed)
    nd = n * d
    span = 1 + 2 * nd + n                      # draws per set
    first = np.arange(d, dtype=np.uint64) * np.uint64(span)
    gamma = lo + (hi - lo) * _open_closed(_draws(seed, first + np.uint64(1)))
    # A check c * 2^-53 < gamma, for c = raw >> 11, holds exactly when
    # raw < ceil(gamma * 2^53) << 11.  A gamma of 1 passes every check, and
    # its threshold 2^64 does not fit, so it is set aside as ``full``.
    ceil = np.ceil(gamma * _TWO53)
    full = ceil >= _TWO53
    threshold = np.where(full, 0.0, ceil).astype(np.uint64) << np.uint64(11)
    steps = np.arange(nd, dtype=np.uint64) * _GAMMA
    block = np.zeros((d, n, d))
    group = max(1, _GROUP_DRAWS // nd)

    def fill(i0):
        # Writes block[i0:i1] only; reads the arrays above without changing
        # them, so groups may run on any threads in any order.
        i1 = min(d, i0 + group)
        # Weyl values of the checks of sets i0..i1-1, one row per set.
        x = (first[i0:i1] + np.uint64(2)) * _GAMMA + seed
        passed = _mix(x[:, None] + steps) < threshold[i0:i1, None]
        passed[full[i0:i1]] = True
        base = int(first[i0])
        # Magnitude of check p (set s = p // nd) at position p + s * (span -
        # nd) past the group's first magnitude; likewise the fallback of
        # row q (set q // n) past the group's first fallback.
        p = np.flatnonzero(passed)
        k = p + (p // nd) * (span - nd) + (base + 2 + nd)
        block[i0:i1].reshape(-1)[p] = _open_closed(_draws(seed, k.astype(np.uint64)))
        q = np.flatnonzero(~passed.reshape(-1, d).any(axis=1))
        k = q + (q // n) * (span - n) + (base + 2 + 2 * nd)
        block[i0:i1].reshape(-1, d)[q, 0] = _open_closed(_draws(seed, k.astype(np.uint64)))

    starts = range(0, d, group)
    workers = min(len(starts), _cpu_budget()) if len(starts) > 1 else 1

    def share(j):
        for i0 in starts[j::workers]:
            fill(i0)

    if workers == 1:
        share(0)
    else:
        # The calling thread hashes one share of the groups and a pool the
        # others.  numpy releases the GIL in the mixer's ufuncs, flatnonzero
        # and the stores, so the shares run in parallel.
        with ThreadPoolExecutor(workers - 1) as pool:
            others = [pool.submit(share, j) for j in range(1, workers)]
            share(0)
            for f in others:
                f.result()
    # Fresh and read-only, so the family keeps it as it is, with no copy.
    block.flags.writeable = False
    return _finite_family(block)


def generate_random_poly_family(d: int, n_normals: int,
                                seed: int = 0) -> ProductFamily:
    """Random product family of halfspace-polytope row sets.

    Each set gets ``n_normals`` halfspaces; see :data:`POLY_NORMALS_NOTE`
    for the normal distribution (recorded in benchmark metadata).
    """
    d = check_count(d, "d")
    n_normals = check_count(n_normals, "n_normals")
    stream = CounterStream(seed)
    sets = []
    for _ in range(d):
        raw = stream.uniform_open_closed(n_normals * d).reshape(n_normals, d)
        normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        # Fresh and read-only, so the set keeps it as it is, with no copy.
        normals.flags.writeable = False
        sets.append(HalfspacePoly(normals))
    return ProductFamily(tuple(sets))
