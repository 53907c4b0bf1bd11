"""Seeded random family generation on a counter-based PRNG.

The generator is splitmix64 (an xorshift-multiply mixer over a Weyl sequence,
public constants below).  Output k of a stream is mix(seed + (k+1) * GAMMA),
so a stream is a pure function of (seed, counter): draws can be produced in
vectorized blocks, and the draw *layout* is fixed once and for all.  Every
position in the layout is always consumed whether or not its value ends up
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
"""

from __future__ import annotations

import numpy as np

from .rows import FiniteSet, HalfspacePoly, ProductFamily

__all__ = [
    "CounterStream",
    "generate_random_family",
    "generate_random_poly_family",
    "POLY_NORMALS_NOTE",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53_INV = 2.0 ** -53

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


class CounterStream:
    """Deterministic stream of uniforms addressed by (seed, counter)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        x = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        x *= _GAMMA
        x += self._seed
        return _mix(x)

    def uniform_open_closed(self, n: int) -> np.ndarray:
        """n uniforms on (0, 1] (53-bit resolution)."""
        return ((self.raw(n) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO53_INV

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
    no candidate row is ever entirely zero.
    """
    if d < 1 or set_size < 1:
        raise ValueError("d and set_size must be positive")
    lo, hi = float(density_interval[0]), float(density_interval[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("density interval must satisfy 0 <= lo <= hi <= 1")
    stream = CounterStream(seed)
    nd = set_size * d
    sets = []
    for _ in range(d):
        # One block of draws per set in the layout above, converted to
        # uniforms in place: [0, 1) for the checks, (0, 1] for the rest.
        u = stream.raw(1 + 2 * nd + set_size)
        u >>= np.uint64(11)
        u[0] += np.uint64(1)
        u[1 + nd:] += np.uint64(1)
        f = u.astype(np.float64)
        f *= _TWO53_INV
        gamma = lo + (hi - lo) * float(f[0])
        checks = f[1:1 + nd].reshape(set_size, d)
        mags = f[1 + nd:1 + 2 * nd].reshape(set_size, d)
        fallback = f[1 + 2 * nd:]
        rows = np.where(checks < gamma, mags, 0.0)
        dead = ~np.any(rows > 0.0, axis=1)
        rows[dead, 0] = fallback[dead]
        sets.append(FiniteSet(rows))
    return ProductFamily(tuple(sets))


def generate_random_poly_family(d: int, n_normals: int,
                                seed: int = 0) -> ProductFamily:
    """Random product family of halfspace-polytope row sets.

    Each set gets ``n_normals`` halfspaces; see :data:`POLY_NORMALS_NOTE`
    for the normal distribution (recorded in benchmark metadata).
    """
    if d < 1 or n_normals < 1:
        raise ValueError("d and n_normals must be positive")
    stream = CounterStream(seed)
    sets = []
    for _ in range(d):
        raw = stream.uniform_open_closed(n_normals * d).reshape(n_normals, d)
        normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        sets.append(HalfspacePoly(normals))
    return ProductFamily(tuple(sets))
