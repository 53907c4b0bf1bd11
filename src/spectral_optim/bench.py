"""Benchmark sweeps over random families.

A sweep runs ``trials`` seeded optimizations for every (dimension, set size)
cell, reporting mean outer-iteration counts and wall times.  Trial t of any
cell uses seed ``seed XOR t``, so cells are independent and the sweep is
reproducible regardless of scheduling.  Per-trial errors are caught without
aborting the sweep: each failed trial's index, error type and message are
kept on its cell and listed under the table, and failed trials are excluded
from the means.

Trials run on a thread pool of ``threads`` workers (default: the CPUs this
process may use), and a finite trial whose family has more than one group
of sets hashes it on those CPUs too (see :mod:`~.gen`).  On a 2-vCPU machine
neither setting wins everywhere (three runs each): the acceptance sweeps of
criteria 5 and 10 took 8.5-10.5 s with 2 workers and 8.9-9.7 s with 1
(17.7-19.7 s with 1 while the generator ran on one CPU), and a small sweep
(finite d 25-200, N 10-50, ten trials; polytopes d 10-40, five trials) took
1.27-1.56 s with 2 workers and 1.09-1.32 s with 1.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gen import (POLY_NORMALS_NOTE, _cpu_budget, generate_random_family,
                  generate_random_poly_family)
from .linalg import check_count
from .optimize import OptimizerConfig, optimize

__all__ = ["BenchSpec", "BenchCell", "run_benchmark", "format_table", "write_csv"]


@dataclass(frozen=True)
class BenchSpec:
    """Sweep definition: grid of dimensions x set sizes, common settings."""

    dims: tuple[int, ...]
    set_sizes: tuple[int, ...]
    density_interval: tuple[float, float] = (0.09, 0.15)
    trials: int = 10
    seed: int = 0
    direction: str = "max"
    method: str = "selective-greedy"
    kind: str = "finite"
    # Built once here, so a bad direction or method fails at construction
    # rather than in every trial.
    _config: OptimizerConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dims or not self.set_sizes:
            raise ValueError("dims and set_sizes must be non-empty")
        for name in ("dims", "set_sizes"):
            for n in getattr(self, name):
                check_count(n, name)
        lo, hi = self.density_interval
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("density interval must satisfy 0 <= lo <= hi <= 1")
        check_count(self.trials, "trials")
        if self.kind not in ("finite", "poly"):
            raise ValueError(f"kind must be 'finite' or 'poly', got {self.kind!r}")
        object.__setattr__(self, "_config", OptimizerConfig(direction=self.direction,
                                                            method=self.method))


@dataclass
class BenchCell:
    """Aggregated results for one (d, set_size) grid cell."""

    d: int
    set_size: int
    mean_iters: float
    mean_time_s: float
    trials: int
    seed: int
    # (trial index, exception type name, message) of every failed trial
    errors: tuple[tuple[int, str, str], ...] = ()

    @property
    def failures(self) -> int:
        return len(self.errors)


def resolve_threads(requested: int | None = None) -> int:
    """Thread budget: the explicit count (at least 1), else the CPUs this
    process may run on."""
    if requested is None:
        return _cpu_budget()
    return check_count(requested, "threads")


def _one_trial(spec: BenchSpec, d: int, set_size: int, trial: int):
    trial_seed = spec.seed ^ trial
    if spec.kind == "finite":
        fam = generate_random_family(d, set_size, spec.density_interval, trial_seed)
    else:
        fam = generate_random_poly_family(d, set_size, trial_seed)
    t0 = time.perf_counter()
    res = optimize(fam, spec._config)
    return res.iterations, time.perf_counter() - t0


def run_benchmark(spec: BenchSpec, threads: int | None = None) -> list[BenchCell]:
    workers = resolve_threads(threads)
    cells: list[BenchCell] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for d in spec.dims:
            for set_size in spec.set_sizes:
                futures = [pool.submit(_one_trial, spec, d, set_size, t)
                           for t in range(spec.trials)]
                iters, times, errors = [], [], []
                for trial, fut in enumerate(futures):
                    try:
                        it, dt = fut.result()
                    except Exception as exc:
                        errors.append((trial, type(exc).__name__, str(exc)))
                        continue
                    iters.append(it)
                    times.append(dt)
                cells.append(BenchCell(
                    d=d, set_size=set_size,
                    mean_iters=float(np.mean(iters)) if iters else float("nan"),
                    mean_time_s=float(np.mean(times)) if times else float("nan"),
                    trials=spec.trials, seed=spec.seed, errors=tuple(errors)))
    return cells


def _metadata_lines(spec: BenchSpec) -> list[str]:
    lines = [
        "generator: splitmix64 counter stream",
        f"kind: {spec.kind}",
        f"direction: {spec.direction}",
        f"method: {spec.method}",
        f"trials: {spec.trials}",
        f"seed: {spec.seed}",
        "trial seed: seed XOR trial-index",
    ]
    if spec.kind == "finite":
        lo, hi = spec.density_interval
        lines.append(f"density interval: ({lo:g}, {hi:g})")
    else:
        lines.append(f"poly normals: {POLY_NORMALS_NOTE}")
    return lines


def format_table(cells: list[BenchCell], spec: BenchSpec) -> str:
    """Human-readable aligned table with a metadata preamble."""
    out = [f"# {line}" for line in _metadata_lines(spec)]
    header = f"{'d':>6} {'N':>6} {'mean_iters':>12} {'mean_time_s':>12} {'trials':>7} {'fail':>5}"
    out.append(header)
    out.append("-" * len(header))
    for c in cells:
        out.append(f"{c.d:>6} {c.set_size:>6} {c.mean_iters:>12.2f} "
                   f"{c.mean_time_s:>12.4f} {c.trials:>7} {c.failures:>5}")
    for c in cells:
        for trial, kind, message in c.errors:
            out.append(f"failed: d={c.d} N={c.set_size} trial {trial} "
                       f"(seed {c.seed ^ trial}): {kind}: {message}")
    return "\n".join(out)


def write_csv(cells: list[BenchCell], path, spec: BenchSpec) -> None:
    """CSV with '#' metadata comment lines, then one row per grid cell;
    ``fail`` counts the cell's failed trials, which the means exclude."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _metadata_lines(spec):
            fh.write(f"# {line}\n")
        fh.write("d,N,mean_iters,mean_time_s,trials,seed,fail\n")
        for c in cells:
            fh.write(f"{c.d},{c.set_size},{c.mean_iters!r},"
                     f"{c.mean_time_s!r},{c.trials},{c.seed},{c.failures}\n")
