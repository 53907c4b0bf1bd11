"""Per-layer spans recorded from the benchmark's own files.

:func:`installed` replaces the library's functions at the names the code
looks them up under, for the duration of a ``with`` block, and restores
them on exit.  Each replacement times the call as a span: a span's self
time is its duration minus the time of the spans it encloses.  Spans live
in memory in a :class:`Tracer` and are aggregated into the per-layer
metrics by :meth:`Tracer.metrics`.

The module ``spectral_optim.optimize`` is reached through ``importlib``:
the package re-exports the function ``optimize`` under the same name, so
attribute access on the package yields the function, not the module.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict

# Span names.  "top.*" spans are opened by the workloads around each
# top-level call; "drive" is a selective_greedy run started by the apps.
TOP_OPTIMIZE = "top.optimize"
TOP_STABLE = "top.closest_stable"
TOP_GRAPH = "top.optimize_graph"
DRIVE = "optimize.drive"
EIGEN = "linalg.eigen"
SIGNATURE = "optimize.signature"
ORACLE = "rows.oracle"
BEST_ROW = "rows.best_row."
LP = "lp.solve"
GEN = "gen.family"


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self._stack: list[list] = []   # [name, time covered by child spans]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.lp_times: list[float] = []
        self.power_iters_max = 0

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called ``name``; driver results are
        counted by :meth:`add_result`."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if name in (TOP_OPTIMIZE, DRIVE):
                self.add_result(out)
            return out
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            self.calls[name] += 1
            if name == LP:
                self.lp_times.append(dt)
            if self._stack:
                self._stack[-1][1] += dt

    def add_result(self, res) -> None:
        """Count passes, changed rows and retries of one driver result."""
        for r in (res, res.perturbed_result):
            if r is None:
                continue
            self.counts["passes"] += r.iterations
            self.counts["rows_changed"] += sum(len(t.rows_changed) for t in r.trace)
        self.counts["retries"] += res.perturbed_result is not None

    def metrics(self, rounds: int, overhead_pct: float) -> dict:
        """Per-layer metrics, summed over the traced rounds and divided by
        their number (so per round), except the maximum, the median and the
        overhead."""
        n = max(rounds, 1)
        st, tot, calls, cnt = self.self_time, self.total, self.calls, self.counts

        def per(x):
            return x / n

        m = {
            "optimize.passes": (per(cnt["passes"]), "count"),
            "optimize.rows_changed": (per(cnt["rows_changed"]), "count"),
            "optimize.retries": (per(cnt["retries"]), "count"),
            "optimize.signature_s": (per(tot[SIGNATURE]), "s"),
            "optimize.self_s": (per(st[TOP_OPTIMIZE] + st[DRIVE]), "s"),
            "linalg.eigen_s": (per(tot[EIGEN]), "s"),
            "linalg.eigen_calls": (per(calls[EIGEN]), "count"),
            "linalg.power_iters": (per(cnt["power_iters"]), "count"),
            "linalg.power_iters_max": (self.power_iters_max, "count"),
            "linalg.power_fallbacks": (per(cnt["power_fallbacks"]), "count"),
            "rows.oracle_s": (per(tot[ORACLE]), "s"),
            "rows.oracle_calls": (per(calls[ORACLE]), "count"),
            "rows.best_row_calls": (
                per(sum(c for k, c in calls.items() if k.startswith(BEST_ROW))), "count"),
            "rows.finite_s": (per(st[BEST_ROW + "FiniteSet"]), "s"),
            "rows.graph_s": (per(st[BEST_ROW + "GraphDegreeSet"]), "s"),
            "rows.l1ball_s": (per(st[BEST_ROW + "L1Ball"]), "s"),
            "rows.blended_s": (per(st[BEST_ROW + "BlendedSet"]), "s"),
            "rows.finite_bytes": (per(cnt["finite_bytes"]), "B"),
            "lp.solve_s": (per(tot[LP]), "s"),
            "lp.solves": (per(calls[LP]), "count"),
            "lp.solve_ms_p50": (
                1e3 * statistics.median(self.lp_times) if self.lp_times else 0.0, "ms"),
            "apps.bisect_steps": (per(cnt["bisect_steps"]), "count"),
            "apps.inner_s": (per(tot[DRIVE]), "s"),
            "apps.self_s": (per(st[TOP_STABLE] + st[TOP_GRAPH]), "s"),
            "gen.family_s": (per(tot[GEN]), "s"),
            "gen.family_bytes": (per(cnt["family_bytes"]), "B"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _family_bytes(fam) -> int:
    total = 0
    for rs in fam.sets:
        arr = getattr(rs, "rows", None)
        if arr is None:
            arr = getattr(rs, "normals", None)
        if arr is not None:
            total += arr.nbytes
    return total


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Route the library's layer entry points through ``tracer``; with
    None, leave them alone."""
    if tracer is None:
        yield None
        return
    opt = importlib.import_module("spectral_optim.optimize")
    rows = importlib.import_module("spectral_optim.rows")
    apps = importlib.import_module("spectral_optim.apps")
    gen = importlib.import_module("spectral_optim.gen")
    linalg = importlib.import_module("spectral_optim.linalg")

    orig_eigen = opt.selected_eigenpair
    orig_sig = opt.matrix_signature
    orig_best_matrix = rows.ProductFamily.best_matrix
    orig_best_row = rows.RowSet.best_row
    orig_lp = rows.lp_optimize
    orig_sg = apps.selective_greedy
    orig_gen = {name: getattr(gen, name)
                for name in ("generate_random_family", "generate_random_poly_family")}

    def selected_eigenpair(*args, **kwargs):
        try:
            pair = tracer.run(EIGEN, orig_eigen, *args, **kwargs)
        except linalg.PowerIterationError:
            tracer.counts["power_fallbacks"] += 1
            raise
        tracer.counts["power_iters"] += pair.power_iters
        tracer.power_iters_max = max(tracer.power_iters_max, pair.power_iters)
        return pair

    def matrix_signature(*args, **kwargs):
        return tracer.run(SIGNATURE, orig_sig, *args, **kwargs)

    def best_matrix(self, *args, **kwargs):
        return tracer.run(ORACLE, orig_best_matrix, self, *args, **kwargs)

    def best_row(self, *args, **kwargs):
        if isinstance(self, rows.FiniteSet):
            tracer.counts["finite_bytes"] += self.rows.nbytes
        return tracer.run(BEST_ROW + type(self).__name__, orig_best_row,
                          self, *args, **kwargs)

    def lp_optimize(*args, **kwargs):
        return tracer.run(LP, orig_lp, *args, **kwargs)

    def selective_greedy(*args, **kwargs):
        if tracer.parent() == TOP_STABLE:
            tracer.counts["bisect_steps"] += 1
        return tracer.run(DRIVE, orig_sg, *args, **kwargs)

    def gen_wrapper(fn):
        def wrapped(*args, **kwargs):
            fam = tracer.run(GEN, fn, *args, **kwargs)
            tracer.counts["family_bytes"] += _family_bytes(fam)
            return fam
        return wrapped

    patches = [
        (opt, "selected_eigenpair", selected_eigenpair),
        (opt, "matrix_signature", matrix_signature),
        (rows.ProductFamily, "best_matrix", best_matrix),
        (rows.RowSet, "best_row", best_row),
        (rows, "lp_optimize", lp_optimize),
        (apps, "selective_greedy", selective_greedy),
    ] + [(gen, name, gen_wrapper(fn)) for name, fn in orig_gen.items()]
    saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, fn in patches:
            setattr(obj, name, fn)
        yield tracer
    finally:
        for obj, name, fn in saved:
            setattr(obj, name, fn)
