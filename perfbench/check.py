"""Independent output checker for the benchmark.

Nothing here calls into ``spectral_optim``: every check recomputes what it
needs from the raw inputs (candidate rows, degrees, halfspace normals, the
matrix being stabilized) with numpy and scipy.  Each ``check_*`` function
returns a list of failure messages; an empty list means the output passed.

Four kinds of check, with the tolerances documented in README.md:

* reference radius: the largest |eigenvalue| over the strongly connected
  diagonal blocks of the returned matrix.  Dense ``eigvals`` on a whole
  reducible matrix can be off by far more than the power-stage tolerance;
  block by block it is not.
* membership: every returned row belongs to its row set.
* optimality: a Collatz-Wielandt certificate.  For any v >= 0,
  t_v = min over rows i with v_i > 0 of (min over the set of a.v) / v_i is a
  lower bound on the family's minimal radius; for v > 0,
  s_v = max_i (max over the set of a.v) / v_i is an upper bound on its
  maximal radius.  A returned matrix is optimal (to tolerance) when its
  reference radius meets the bound.
* bounds: the returned (t, s) bracket the reference radius.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

# |rho - ref| <= RADIUS_TOL * max(1, ref).  The power stage stops at a
# sup-norm step of 1e-8 on A + I, whose radius is 1 + rho; 1e-6 leaves two
# orders of magnitude for the ratio read-out.
RADIUS_TOL = 1e-6
# A certificate bound may sit this far (relative) beyond the reference
# radius: the bound is evaluated at an approximate eigenvector.
CERT_TOL = 1e-6
# Returned bounds must bracket the reference radius to 2**-40 relative
# (about 4,500 ulps): both sides are rounded results of O(d) sums and of a
# dense eigensolver.
BOUND_SLACK = 2.0 ** -40
# Box and halfspace feasibility of an LP vertex.
POLY_TOL = 1e-9
# ||X - A||_inf <= r up to this relative slack (row L1 sums of d terms).
STAB_SLACK = 1e-12
# A stabilized matrix may exceed the target radius by this much, the
# tolerance of acceptance criterion 4.
STAB_TARGET_TOL = 1e-6
# Minimality of r is certified at r (1 - STAB_MARGIN); the bisection
# tolerance (1e-6 absolute) is far below it.
STAB_MARGIN = 1e-3
# Zeroing levels (relative to the largest component) tried by the min
# certificate; any v >= 0 gives a valid bound, so zeroing small components
# keeps it valid.  Components below _FLOOR are always treated as zero.
_FLOOR = 1e-250
_DECADES = (_FLOOR, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3)
_MAX_GAPS = 8
# Power steps for outputs that come without an eigenvector.
_POWER_STEPS = 20_000
# Largest finite family enumerated when no positive eigenvector exists.
ENUM_LIMIT = 20_000


def reference_radius(A) -> float:
    """Spectral radius as the maximum over strongly connected blocks."""
    A = np.asarray(A, dtype=float)
    n_comp, labels = connected_components(A != 0.0, directed=True,
                                          connection="strong")
    best = 0.0
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1:
            r = abs(A[idx[0], idx[0]])
        else:
            r = float(np.max(np.abs(np.linalg.eigvals(A[np.ix_(idx, idx)]))))
        best = max(best, r)
    return float(best)


def refined_vectors(A, ref, v=None):
    """Candidate vectors for the certificates; each is valid on its own.

    * v itself, when the output carries one;
    * power iteration on A + I from the all-ones vector, when it does not:
      its limit is the selected eigenvector.  A non-negative matrix times a
      non-negative vector has no cancellation, so even components many
      orders of magnitude below the largest keep full relative precision;
    * three inverse-iteration steps with the shift sigma = ref (1 + 1e-8)
      from the previous candidate.  (sigma I - A)^-1 is non-negative for
      sigma > rho(A); each step shrinks the transients of a class of radius
      lambda by (sigma - rho) / (sigma - lambda), which removes those of
      classes whose radius is close to rho.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    out = []
    if v is not None:
        x = np.maximum(np.asarray(v, dtype=float), 0.0)
    else:
        x = np.full(d, 1.0 / np.sqrt(d))
        for _ in range(_POWER_STEPS):
            y = A @ x + x
            y /= np.linalg.norm(y)
            done = np.max(np.abs(y - x)) <= 1e-13
            x = y
            if done:
                break
    out.append(x / np.linalg.norm(x))
    if ref > 0.0:
        lu = lu_factor(ref * (1.0 + 1e-8) * np.eye(d) - A)
        y = out[0]
        for _ in range(3):
            y = np.maximum(lu_solve(lu, y), 0.0)
            y /= np.linalg.norm(y)
        out.append(y)
    return out


def _cut_levels(v):
    """Relative levels below which the min certificate zeroes components:
    fixed decades, and one level inside each of the widest gaps (a ratio of
    at least 1e3) between sorted components, where unconverged transients
    separate from the support of the limit vector."""
    pos = np.sort(v[v > _FLOOR * np.max(v)]) / np.max(v)
    ratio = pos[1:] / pos[:-1]
    gaps = np.flatnonzero(ratio >= 1e3)
    gaps = gaps[np.argsort(-ratio[gaps])][:_MAX_GAPS]
    return _DECADES + tuple(float(np.sqrt(pos[g] * pos[g + 1])) for g in gaps)


# --- per-set extrema -------------------------------------------------------
# Each returns the vector of per-row extremal dots (a.v) for one direction.


def finite_extrema(row_sets, v, direction):
    pick = np.max if direction == "max" else np.min
    return np.array([pick(rows @ v) for rows in row_sets])


def graph_extrema(degrees, v, direction):
    """0/1 rows with exactly n ones: sorted partial sums of v."""
    srt = np.sort(v)
    csum_low = np.concatenate(([0.0], np.cumsum(srt)))
    csum_high = np.concatenate(([0.0], np.cumsum(srt[::-1])))
    n = np.asarray(degrees)
    return csum_high[n] if direction == "max" else csum_low[n]


def poly_extrema(normals_list, v, direction):
    """LP over {0 <= x <= 1, normals @ x <= 1}, solved by scipy (HiGHS)."""
    sign = -1.0 if direction == "max" else 1.0
    out = np.empty(len(normals_list))
    for i, nm in enumerate(normals_list):
        res = linprog(sign * v, A_ub=nm, b_ub=np.ones(nm.shape[0]),
                      bounds=(0.0, 1.0), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference LP failed on row {i}: {res.message}")
        out[i] = sign * res.fun
    return out


def l1_extrema(A, r, v, direction):
    """Rows within L1 distance r of A's rows, non-negative: closed form.

    The maximum adds r to the coordinate with the largest v; the minimum
    removes mass from the coordinates with the largest v first.
    """
    base = A @ v
    if direction == "max":
        return base + r * float(np.max(v))
    order = np.argsort(-v, kind="stable")
    C = A[:, order]
    before = np.cumsum(C, axis=1) - C
    cut = np.clip(r - before, 0.0, C)
    return base - cut @ v[order]


# --- certificates -----------------------------------------------------------


def lower_certificate(vectors, extrema_fn) -> float:
    """Largest t_v over the candidate vectors, each also with its smallest
    components zeroed at the levels of :func:`_cut_levels`.  Any v >= 0
    gives a lower bound on the minimal radius, so the largest is one too."""
    best = -np.inf
    for v in vectors:
        for cut in _cut_levels(v):
            w = np.where(v > cut * np.max(v), v, 0.0)
            live = w > 0.0
            dots = extrema_fn(w, "min")
            best = max(best, float(np.min(dots[live] / w[live])))
    return best


def upper_certificate(vectors, extrema_fn, alpha: float = 0.0) -> float:
    """Smallest s_v over the strictly positive candidate vectors, an upper
    bound on the maximal radius (+inf when no candidate is positive).

    With ``alpha`` > 0 the vectors belong to the family blended with the
    cyclic anchor rows p_i = e_{i+1}; the blended family's bound divided by
    (1 - alpha) bounds the original family (A <= A_blend / (1 - alpha)).
    """
    best = np.inf
    for v in vectors:
        if not np.all(v > 0.0):
            continue
        dots = extrema_fn(v, "max")
        if alpha:
            dots = (1.0 - alpha) * dots + alpha * np.roll(v, -1)
        best = min(best, float(np.max(dots / v)) / (1.0 - alpha))
    return best


def _radius_failures(rho, ref):
    if abs(rho - ref) > RADIUS_TOL * max(1.0, ref):
        return [f"radius {rho!r} vs reference {ref!r} "
                f"(rel {abs(rho - ref) / max(1.0, ref):.2e})"]
    return []


def _optimality_failures(direction, ref, vectors, extrema_fn, perturbed=None,
                         enumerate_fn=None):
    """``perturbed`` is (vector, alpha) of the reducibility retry;
    ``enumerate_fn`` returns the exact maximum of a small family, or None."""
    if direction == "min":
        t = lower_certificate(vectors, extrema_fn)
        if ref > t + CERT_TOL * max(1.0, ref):
            return [f"min certificate t_v = {t!r} below reference {ref!r}"]
        return []
    s = upper_certificate(vectors, extrema_fn)
    if ref < s - CERT_TOL * max(1.0, ref) and perturbed is not None:
        v_p, alpha = perturbed
        s = min(s, upper_certificate([v_p], extrema_fn, alpha))
    if ref < s - CERT_TOL * max(1.0, ref) and enumerate_fn is not None:
        exact = enumerate_fn()
        if exact is not None:
            s = min(s, exact)
    if not np.isfinite(s):
        return ["max output has no positive eigenvector to certify it"]
    if ref < s - CERT_TOL * max(1.0, ref):
        return [f"max certificate s_v = {s!r} above reference {ref!r}"]
    return []


def _bounds_failures(bounds, ref):
    t, s = bounds
    slack = BOUND_SLACK * max(1.0, ref)
    out = []
    if t > ref + slack:
        out.append(f"lower bound {t!r} above reference {ref!r}")
    if s < ref - slack:
        out.append(f"upper bound {s!r} below reference {ref!r}")
    return out


def _enumerate_finite_max(row_sets):
    """Largest reference radius over every member, or None when the family
    has more than ENUM_LIMIT members."""
    sizes = [r.shape[0] for r in row_sets]
    if np.prod([float(n) for n in sizes]) > ENUM_LIMIT:
        return None
    d = len(row_sets)
    grids = np.meshgrid(*[np.arange(n) for n in sizes], indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    best = 0.0
    for combo in idx:
        M = np.stack([row_sets[i][combo[i]] for i in range(d)])
        best = max(best, reference_radius(M))
    return best


# --- public checks, one per output kind -------------------------------------


def check_finite(row_sets, direction, res, alpha) -> list[str]:
    """Check an ``optimize`` result on a family of finite row sets.

    ``res`` needs ``matrix``, ``rho``, ``bounds``, ``eigenvector`` and
    ``perturbed_result`` (with its own ``eigenvector``) as the library
    returns them; ``alpha`` is the blend weight of the reducibility retry.
    """
    X = np.asarray(res.matrix, dtype=float)
    fails = []
    for i, rows in enumerate(row_sets):
        if not np.any(np.all(rows == X[i], axis=1)):
            fails.append(f"row {i} is not a candidate row")
            break
    ref = reference_radius(X)
    fails += _radius_failures(res.rho, ref)

    def ext(v, dirn):
        return finite_extrema(row_sets, v, dirn)

    perturbed = None
    if res.perturbed_result is not None:
        perturbed = (res.perturbed_result.eigenvector, alpha)
    fails += _optimality_failures(
        direction, ref, refined_vectors(X, ref, res.eigenvector), ext, perturbed,
        lambda: _enumerate_finite_max(row_sets))
    fails += _bounds_failures(res.bounds, ref)
    return fails


def check_poly(normals_list, direction, res, alpha) -> list[str]:
    """Check an ``optimize`` result on a family of halfspace polytopes."""
    X = np.asarray(res.matrix, dtype=float)
    fails = []
    for i, nm in enumerate(normals_list):
        x = X[i]
        if (np.any(x < -POLY_TOL) or np.any(x > 1.0 + POLY_TOL)
                or np.any(nm @ x > 1.0 + POLY_TOL)):
            fails.append(f"row {i} is outside its polytope")
            break
    ref = reference_radius(X)
    fails += _radius_failures(res.rho, ref)

    def ext(v, dirn):
        return poly_extrema(normals_list, v, dirn)

    perturbed = None
    if res.perturbed_result is not None:
        perturbed = (res.perturbed_result.eigenvector, alpha)
    fails += _optimality_failures(direction, ref, refined_vectors(X, ref, res.eigenvector),
                                  ext, perturbed)
    fails += _bounds_failures(res.bounds, ref)
    return fails


def check_graph(degrees, direction, adjacency, rho) -> list[str]:
    """Check an ``optimize_graph`` output (adjacency matrix and radius)."""
    X = np.asarray(adjacency, dtype=float)
    degrees = np.asarray(degrees)
    fails = []
    if not np.all((X == 0.0) | (X == 1.0)):
        fails.append("adjacency has entries other than 0 and 1")
    elif not np.array_equal(X.sum(axis=1), degrees):
        fails.append("row sums differ from the degrees")
    ref = reference_radius(X)
    fails += _radius_failures(rho, ref)

    def ext(v, dirn):
        return graph_extrema(degrees, v, dirn)

    fails += _optimality_failures(direction, ref, refined_vectors(X, ref), ext)
    return fails


def check_stabilized(A, target, X, r, expected_r=None) -> list[str]:
    """Check a ``closest_stable`` output (X, r) for the matrix A.

    X must be non-negative, within infinity-norm distance r of A and have
    reference radius at most target + STAB_TARGET_TOL.  Minimality of r: at
    radius r (1 - STAB_MARGIN) a lower certificate must exceed the target,
    so no member of the smaller ball is stable.  With ``expected_r``, r must
    lie within STAB_MARGIN of it.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    fails = []
    if np.any(X < 0.0):
        fails.append("stabilized matrix has negative entries")
    dist = float(np.max(np.sum(np.abs(X - A), axis=1)))
    if dist > r * (1.0 + STAB_SLACK) + STAB_SLACK:
        fails.append(f"||X - A||_inf = {dist!r} exceeds r = {r!r}")
    ref = reference_radius(X)
    if ref > target + STAB_TARGET_TOL:
        fails.append(f"reference radius {ref!r} above target {target!r}")
    r_in = r * (1.0 - STAB_MARGIN)

    def ext(v, dirn):
        return l1_extrema(A, r_in, v, dirn)

    t = lower_certificate(refined_vectors(X, ref), ext)
    if not t > target:
        fails.append(f"no certificate that r is minimal: t = {t!r} at radius {r_in!r}")
    if expected_r is not None and abs(r - expected_r) > STAB_MARGIN:
        fails.append(f"r = {r!r} is not within {STAB_MARGIN:g} of {expected_r!r}")
    return fails
