"""Independent oracles the tests check the library against.

Everything here is deliberately written from scratch with the dumbest
correct algorithm available (exhaustive enumeration, dense eigensolvers,
plain unshifted power iteration) so that agreement with the library is a
meaningful two-route check, not the same code called twice.
"""

from __future__ import annotations

import itertools

import numpy as np

# ---------------------------------------------------------------------------
# matrices above the squaring limit, to reach the power and structural paths


def padded(A) -> np.ndarray:
    """A in the leading block of a zero matrix one row above the squaring
    limit: the same classes plus zero singletons, so the structural path."""
    from spectral_optim.linalg import _SQUARING_ROWS

    A = np.asarray(A, dtype=float)
    out = np.zeros((_SQUARING_ROWS + 1, _SQUARING_ROWS + 1))
    out[:A.shape[0], :A.shape[0]] = A
    return out


def inflated(A) -> np.ndarray:
    """A (x) J / n, J the n x n all-ones matrix, with n the least that puts
    it above the squaring limit: irreducible when A is, with the same
    nonzero eigenvalues and the selected vector v (x) 1."""
    from spectral_optim.linalg import _SQUARING_ROWS

    A = np.asarray(A, dtype=float)
    n = _SQUARING_ROWS // A.shape[0] + 1
    return np.kron(A, np.full((n, n), 1.0 / n))


# ---------------------------------------------------------------------------
# generic spectral radius via the dense eigensolver


def eig_rho(A) -> float:
    """max |eigenvalue| straight from numpy's dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))))


def brute_family_optimum(rows_per_set, direction="max"):
    """Enumerate every member of a finite product family.

    ``rows_per_set`` is a sequence of 2-D arrays (one per row index).
    Returns (best_matrix, best_rho) with ties going to the first matrix in
    lexicographic choice order, matching the library's documented rule.
    """
    best_rho = None
    best_mat = None
    for choice in itertools.product(*[range(len(r)) for r in rows_per_set]):
        A = np.vstack([np.asarray(rows_per_set[i][j], dtype=float)
                       for i, j in enumerate(choice)])
        rho = eig_rho(A)
        if best_rho is None or (rho > best_rho if direction == "max" else rho < best_rho):
            best_rho = rho
            best_mat = A
    return best_mat, best_rho


def closure_classes(A) -> list[np.ndarray]:
    """Strongly connected classes of the support graph of A (edge i -> j
    when A[i, j] > 0), from the boolean transitive closure by repeated
    squaring: i and j share a class when each reaches the other."""
    S = np.asarray(A, dtype=float) > 0.0
    R = S | np.eye(S.shape[0], dtype=bool)
    while True:
        grown = R | ((R.astype(int) @ R.astype(int)) > 0)
        if np.array_equal(grown, R):
            break
        R = grown
    same = R & R.T
    classes, done = [], np.zeros(S.shape[0], dtype=bool)
    for i in range(S.shape[0]):
        if not done[i]:
            classes.append(np.flatnonzero(same[i]))
            done |= same[i]
    return classes


def blockwise_rho(A) -> float:
    """Spectral radius as the largest |eigenvalue| over the diagonal blocks
    of the classes.  Dense ``eigvals`` on a whole reducible matrix can be
    off by far more than a power-stage tolerance; block by block it is not."""
    A = np.asarray(A, dtype=float)
    return max(float(np.max(np.abs(np.linalg.eigvals(A[np.ix_(c, c)]))))
               for c in closure_classes(A))


# ---------------------------------------------------------------------------
# Perron vector of the positively perturbed matrix


def perturbed_leading_vector(A, eps_perturb=1e-9):
    """Leading eigenvector of A + eps*ones, from the dense eigensolver.

    The perturbed matrix is entrywise positive, so its leading eigenvalue is
    simple with a unique positive eigenvector: no iteration, no shift, no
    selected-vector logic.  (Power iteration is useless as an oracle here:
    the perturbed spectral gap can be O(eps).)
    """
    A = np.asarray(A, dtype=float)
    B = A + eps_perturb * np.ones_like(A)
    vals, vecs = np.linalg.eig(B)
    lead = int(np.argmax(vals.real))
    v = vecs[:, lead].real
    v = np.abs(v)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# LP by exhaustive vertex enumeration


def lp_vertex_oracle(objective, normals, rhs, lo, hi, sense="max"):
    """Solve max/min (objective, x) s.t. normals@x <= rhs, lo <= x <= hi
    by enumerating every intersection of n constraint hyperplanes.

    Returns (x, value) or None when no feasible vertex exists.  Only for
    tiny instances; cost is C(m + 2n, n) linear solves.
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    rows = [np.asarray(r, dtype=float) for r in normals]
    rhss = [float(b) for b in rhs]
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for j in range(n):
        rows.append(-np.eye(n)[j])
        rhss.append(-lo[j])
        if np.isfinite(hi[j]):
            rows.append(np.eye(n)[j])
            rhss.append(hi[j])
    G = np.vstack(rows)
    h = np.asarray(rhss)
    best = None
    for idx in itertools.combinations(range(len(rows)), n):
        M = G[list(idx)]
        b = h[list(idx)]
        try:
            x = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(G @ x > h + 1e-9):
            continue
        val = float(c @ x)
        if best is None or (val > best[1] + 0 if sense == "max" else val < best[1]):
            if best is None or (val > best[1] if sense == "max" else val < best[1]):
                best = (x, val)
    return best


def l1ball_lp_data(center, radius, v, direction):
    """The lifted LP equivalent to optimizing (v, x) over the set
    {x >= 0, sum_j |x_j - center_j| <= radius}.

    Variables are (x, y) with y_j >= |x_j - center_j|.  Returns
    (objective, normals, rhs, lo, hi, sense) ready for an LP solver; the
    x-part of the solution is the optimal row.
    """
    c = np.asarray(center, dtype=float)
    v = np.asarray(v, dtype=float)
    d = c.size
    obj = np.concatenate([v, np.zeros(d)])
    normals = []
    rhs = []
    eye = np.eye(d)
    for j in range(d):
        normals.append(np.concatenate([eye[j], -eye[j]]))   # x_j - y_j <= c_j
        rhs.append(c[j])
        normals.append(np.concatenate([-eye[j], -eye[j]]))  # -x_j - y_j <= -c_j
        rhs.append(-c[j])
    normals.append(np.concatenate([np.zeros(d), np.ones(d)]))  # sum y <= r
    rhs.append(float(radius))
    lo = np.zeros(2 * d)
    hi = np.concatenate([c + radius, np.full(d, float(radius))])
    sense = "max" if direction == "max" else "min"
    return obj, normals, rhs, lo, hi, sense


def run_random_lp_comparison(n_cases, seed=0):
    """Compare the library LP solver against the vertex-enumeration oracle
    on random small instances (d <= 4, m <= 4, signed normals, box [0, 1]).

    Returns (max_value_deviation, infeasible_agreements); raises on any
    disagreement about feasibility.
    """
    from spectral_optim import LinearProgram, LPInfeasibleError, lp_optimize

    rng = np.random.default_rng(seed)
    worst = 0.0
    infeasible = 0
    for case in range(n_cases):
        d = 1 + case % 4
        m = 1 + (case // 4) % 4
        objective = rng.normal(size=d)
        normals = rng.normal(size=(m, d))
        rhs = rng.uniform(-0.2, 1.0, size=m)
        lo = np.zeros(d)
        hi = np.ones(d)
        sense = "max" if case % 2 == 0 else "min"
        expected = lp_vertex_oracle(objective, normals, rhs, lo, hi, sense)
        lp = LinearProgram(objective=objective, normals=normals, rhs=rhs,
                           lo=lo, hi=hi, sense=sense)
        if expected is None:
            try:
                lp_optimize(lp)
            except LPInfeasibleError:
                infeasible += 1
                continue
            raise AssertionError(f"case {case}: oracle says infeasible, solver solved it")
        x, value = lp_optimize(lp)
        worst = max(worst, abs(value - expected[1]))
        if np.any(normals @ x > rhs + 1e-10) or np.any(x < -1e-10) or np.any(x > 1 + 1e-10):
            raise AssertionError(f"case {case}: solver point violates constraints")
    return worst, infeasible


# ---------------------------------------------------------------------------
# degree-constrained 0/1 rows by enumeration


def degree_rows(d, n, sense):
    """Every 0/1 vector of length d with at most / at least n ones."""
    sizes = range(0, n + 1) if sense == "at_most" else range(n, d + 1)
    out = []
    for k in sizes:
        for pos in itertools.combinations(range(d), k):
            row = np.zeros(d)
            row[list(pos)] = 1.0
            out.append(row)
    return out


def degree_best_value(d, n, sense, v, direction):
    dots = [float(row @ np.asarray(v, dtype=float)) for row in degree_rows(d, n, sense)]
    return max(dots) if direction == "max" else min(dots)


# ---------------------------------------------------------------------------
# axis-aligned ellipsoid support function + sampling refinement


def ellipsoid_support_value(center, radius, axes, v, direction):
    """Exact optimum of (v, x) over {center + radius*diag(axes)u : ||u|| <= 1},
    via the support function: (c, v) +/- radius*||axes*v||_2."""
    c = np.asarray(center, dtype=float)
    a = np.asarray(axes, dtype=float)
    v = np.asarray(v, dtype=float)
    reach = float(radius) * float(np.linalg.norm(a * v))
    base = float(c @ v)
    return base + reach if direction == "max" else base - reach


def ellipsoid_sample_best(center, radius, axes, v, direction, samples=20000, seed=0):
    """Best objective over random surface points; lower (upper) bound for
    the max (min) support value, used to confirm attainability."""
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=float)
    a = np.asarray(axes, dtype=float)
    v = np.asarray(v, dtype=float)
    u = rng.normal(size=(samples, c.size))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = c + float(radius) * u * a
    vals = pts @ v
    return float(np.max(vals)) if direction == "max" else float(np.min(vals))


def ellipsoid_residual(center, radius, axes, x):
    """||(x - c) / (r*a)||_2 - 1; <= 0 means x is inside the ellipsoid."""
    c = np.asarray(center, dtype=float)
    a = np.asarray(axes, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm((x - c) / (float(radius) * a))) - 1.0


# ---------------------------------------------------------------------------
# per-row oracles one set and one direction at a time, as the library ran
# them before its family kernels shared one pass over the sets


def finite_best_row(rows, v, direction):
    """Scan the candidate rows; the first extremal one wins."""
    dots = rows @ v
    idx = int(np.argmax(dots)) if direction == "max" else int(np.argmin(dots))
    return rows[idx].copy()


def scanned_extremes(block, v):
    """The whole-block scan, set by set: every row's product with v, and
    each set's first maximal and first minimal row.  Returns (up, down,
    dots) with dots[i, j] the product of row j of set i."""
    block = np.asarray(block, dtype=float)
    v = np.asarray(v, dtype=float)
    dots = np.array([[float(np.dot(row, v)) for row in rows] for rows in block])
    first = np.arange(block.shape[0])
    return (block[first, np.argmax(dots, axis=1)].copy(),
            block[first, np.argmin(dots, axis=1)].copy(), dots)


def graph_best_row(dim, n, sense, v, direction):
    """0/1 row with its own argsort of v; ties go to the lowest index."""
    row = np.zeros(dim)
    if direction == "max":
        if sense == "at_least":
            return np.ones(dim)
        row[np.argsort(-v, kind="stable")[:n]] = 1.0
        return row
    if sense == "at_most":
        return row
    row[np.argsort(v, kind="stable")[:n]] = 1.0
    return row


def l1ball_best_row(center, radius, v, direction):
    """The maximum on the first best coordinate; the minimum by the
    sequential loop that cuts the most valuable coordinates first."""
    x = np.array(center, dtype=float)
    if direction == "max":
        x[int(np.argmax(v))] += radius
        return x
    budget = radius
    for j in np.argsort(-v, kind="stable"):
        if v[j] <= 0.0 or budget <= 0.0:
            break
        cut = min(x[j], budget)
        x[j] -= cut
        budget -= cut
    return x


def ellipsoid_best_row(center, radius, axes, v, direction):
    w = axes * v
    step = radius * axes * w / float(np.linalg.norm(w))
    return center + step if direction == "max" else center - step


def reference_best_row(rs, v, direction):
    """The per-row oracle for any non-LP set of the library, by its type."""
    from spectral_optim import Ellipsoid, FiniteSet, GraphDegreeSet, L1Ball

    v = np.asarray(v, dtype=float)
    if isinstance(rs, FiniteSet):
        return finite_best_row(rs.rows, v, direction)
    if isinstance(rs, GraphDegreeSet):
        return graph_best_row(rs.dim, rs.n, rs.sense, v, direction)
    if isinstance(rs, L1Ball):
        return l1ball_best_row(rs.center, rs.radius, v, direction)
    if isinstance(rs, Ellipsoid):
        return ellipsoid_best_row(rs.center, rs.radius, rs.axes, v, direction)
    raise TypeError(f"no reference for {type(rs).__name__}")


# ---------------------------------------------------------------------------
# bound aggregation, one row at a time


def upper_from_dots_loop(v, dots, zero_tol):
    """max_i dots_i / v_i; +inf when a vanishing v_i still sees mass or is
    exactly 0, 0/0 rows at a tiny positive v_i skipped, +inf when no
    component qualifies."""
    best = -np.inf
    for i in range(v.shape[0]):
        if v[i] > zero_tol:
            best = max(best, dots[i] / v[i])
        elif dots[i] > 0.0 or v[i] == 0.0:
            return float("inf")
    return float("inf") if best == -np.inf else float(best)


def lower_from_dots_loop(v, dots, zero_tol):
    """min_i dots_i / v_i over the components above zero_tol, else +inf."""
    best = np.inf
    for i in range(v.shape[0]):
        if v[i] > zero_tol:
            best = min(best, dots[i] / v[i])
    return float(best)


def row_ratios_loop(v, dots, direction, zero_tol):
    """dots_i / v_i per row; a component at or below zero_tol gives +inf for
    'min', and for 'max' +inf when its row sees mass or it is exactly 0, and
    -inf on 0/0 at a tiny positive component."""
    scores = np.empty(v.shape[0])
    for i in range(v.shape[0]):
        if v[i] > zero_tol:
            scores[i] = dots[i] / v[i]
        elif direction == "max":
            scores[i] = np.inf if dots[i] > 0 or v[i] == 0.0 else -np.inf
        else:
            scores[i] = np.inf
    return scores


# ---------------------------------------------------------------------------
# the random family generator with one stream call per draw kind


def generate_random_family_rows(d, set_size, density_interval, seed):
    """Candidate rows of ``gen.generate_random_family``, drawn with three
    stream calls per set (plus the density draw) in the documented layout."""
    from spectral_optim.gen import CounterStream

    lo, hi = float(density_interval[0]), float(density_interval[1])
    stream = CounterStream(seed)
    out = []
    for _ in range(d):
        gamma = lo + (hi - lo) * float(stream.uniform_open_closed(1)[0])
        checks = stream.uniform_half_open(set_size * d).reshape(set_size, d)
        mags = stream.uniform_open_closed(set_size * d).reshape(set_size, d)
        fallback = stream.uniform_open_closed(set_size)
        rows = np.where(checks < gamma, mags, 0.0)
        dead = ~np.any(rows > 0.0, axis=1)
        rows[dead, 0] = fallback[dead]
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# the worked 3x3 fixture, spelled out once for every test file


def fixture_rows():
    """Row sets of the 3x3 worked family used across the tests."""
    f1 = np.array([[1.0, 1.0, 1.0], [0.0, 5.0, 10.0],
                   [0.0, 10.0, 5.0], [12.0, 0.0, 0.0]])
    f2 = np.array([[1.0, 1.0, 1.0], [0.0, 10.0, 0.0]])
    f3 = np.array([[1.0, 1.0, 3.0], [0.0, 0.0, 10.0]])
    return [f1, f2, f3]


# The 10x10 stabilization demo instance: its spectral radius and the
# distance of a known reference solution, both evaluated with the dense
# eigensolver / direct arithmetic before the library existed.
STAB_DEMO_RHO = 9.139124933985238
STAB_REFERENCE_DISTANCE = 8.0


# ---------------------------------------------------------------------------
# critical radius by plain bisection


def bisection_radius(A, target, direction, r_tol=1e-6):
    """Critical stabilization radius by plain bisection, the reference for
    the library's root search.  ``direction='min'`` is closest_stable
    (accept rho <= target, bracket at the largest row sum with the zero
    matrix), ``'max'`` closest_unstable (accept rho >= target - 1e-6,
    bracket at target with target added to entry (0, 0)).  Each midpoint
    runs one optimization warm-started from the previous optimum scaled
    back into its ball, row by row.  Returns the accepted end of the final
    bracket, or 0.0 when A itself is accepted."""
    from spectral_optim import OptimizerConfig, optimize
    from spectral_optim.apps import stabilization_family

    A = np.asarray(A, dtype=float)
    if direction == "min":
        def accept(rho):
            return rho <= target
        hi, X = float(A.sum(axis=1).max()), np.zeros_like(A)
    else:
        def accept(rho):
            return rho >= target - 1e-6
        hi, X = float(target), A.copy()
        X[0, 0] += target
    if accept(eig_rho(A)):
        return 0.0
    cfg = OptimizerConfig(direction=direction)
    lo = 0.0
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        start = X.copy()
        total = np.abs(X - A).sum(axis=1)
        out = total > mid
        start[out] = A[out] + (X - A)[out] * (mid / total[out])[:, None]
        start = np.maximum(start, 0.0)
        res = optimize(stabilization_family(A, mid), cfg, initial_matrix=start)
        X = res.matrix
        if accept(res.rho):
            hi = mid
        else:
            lo = mid
    return hi
