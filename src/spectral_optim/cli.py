"""Command line interface.

Subcommands:

* ``optimize``    run a method on a family file, print rho/status/bounds
* ``graph``       extremal graph spectral radius for prescribed degrees
* ``stabilize``   closest stable matrix by a root search on the radius
* ``bench``       benchmark sweep over random families
* ``demo-cycling``  the greedy-cycles-vs-selective-succeeds demonstration

All errors exit nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from . import io as io_mod
from .apps import DegreeSpec, StabilizationProblem, closest_stable, optimize_graph
from .linalg import PowerConfig, selected_eigenpair
from .demo import run_cycling_demo
from .optimize import _METHODS, OptimizerConfig, optimize

__all__ = ["main"]

# The methods a command line can run.  ``greedy`` is left out: it differs
# from selective greedy only through an eigenvector hook, which no flag
# passes.
_METHOD_CHOICES = tuple(m for m in _METHODS if m != "greedy")


def _num(x: float) -> str:
    return format(float(x), "g")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-optim",
        description="Spectral radius optimization over product families of "
                    "row uncertainty sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize a family file")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--direction", choices=["max", "min"], default="max")
    p.add_argument("--method", default="selective-greedy", choices=_METHOD_CHOICES)
    p.add_argument("--eps", type=float, default=1e-8,
                   help="power method tolerance (default 1e-8)")
    p.add_argument("--delta", type=float, default=1e-10,
                   help="row improvement threshold (default 1e-10)")
    p.add_argument("--max-iter", type=int, default=1000,
                   help="outer iteration cap (default 1000)")
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.add_argument("--out", help="write the optimal matrix (JSON) here")

    p = sub.add_parser("graph", help="extremal graph spectral radius")
    p.add_argument("--degrees", required=True, type=_parse_int_list,
                   help="comma-separated out-degrees, e.g. 3,2,3,2,4,1,1")
    p.add_argument("--direction", choices=["max", "min"], default="max")
    p.add_argument("--out", help="write the adjacency matrix (JSON) here")

    p = sub.add_parser("stabilize", help="closest stable matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--target", type=float, default=1.0,
                   help="spectral radius target (default 1.0)")
    p.add_argument("--rtol", type=float, default=1e-6,
                   help="root-search tolerance on the radius (default 1e-6)")
    p.add_argument("--out", help="write the stabilized matrix (JSON) here")

    p = sub.add_parser("bench", help="benchmark sweep over random families")
    p.add_argument("--dims", required=True, type=_parse_int_list)
    p.add_argument("--sizes", required=True, type=_parse_int_list)
    p.add_argument("--density", type=_parse_interval, default=(0.09, 0.15),
                   help="density interval lo:hi (default 0.09:0.15)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direction", choices=["max", "min"], default="max")
    p.add_argument("--method", default="selective-greedy", choices=_METHOD_CHOICES)
    p.add_argument("--kind", choices=["finite", "poly"], default="finite")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for the trials, at least 1 "
                        "(default: the CPUs this process may use)")
    p.add_argument("--csv", help="write the sweep results here")

    sub.add_parser("demo-cycling",
                   help="greedy cycling vs selective greedy demonstration")
    return parser


def _cmd_optimize(args) -> int:
    family = io_mod.load_family(args.family)
    cfg = OptimizerConfig(direction=args.direction, method=args.method,
                          power=PowerConfig(eps=args.eps),
                          delta=args.delta, max_outer_iters=args.max_iter)
    res = optimize(family, cfg)
    print(f"rho = {_num(res.rho)}, status = {res.status}, iters = {res.iterations}")
    t, s = res.bounds
    print(f"bounds: t = {_num(t)}, s = {_num(s)}")
    if res.perturbed_result is not None:
        print(f"rho (perturbed retry) = {_num(res.perturbed_result.rho)}")
    if args.trace:
        io_mod.write_trace_csv(res.trace, args.trace)
    if args.out:
        io_mod.save_matrix(res.matrix, args.out)
    return 0


def _cmd_graph(args) -> int:
    adjacency, rho = optimize_graph(DegreeSpec(args.degrees, args.direction))
    print(f"rho = {_num(rho)}")
    for row in adjacency:
        print(" ".join(str(int(x)) for x in row))
    if args.out:
        io_mod.save_matrix(adjacency, args.out)
    return 0


def _cmd_stabilize(args) -> int:
    A = io_mod.load_matrix(args.matrix)
    X, r_star = closest_stable(StabilizationProblem(A, args.target, args.rtol))
    rho_x = selected_eigenpair(X).rho
    print(f"r = {_num(r_star)}")
    print(f"rho = {_num(rho_x)}")
    if args.out:
        io_mod.save_matrix(X, args.out)
    return 0


def _cmd_bench(args) -> int:
    spec = bench_mod.BenchSpec(
        dims=args.dims, set_sizes=args.sizes, density_interval=args.density,
        trials=args.trials, seed=args.seed, direction=args.direction,
        method=args.method, kind=args.kind)
    cells = bench_mod.run_benchmark(spec, threads=args.threads)
    print(bench_mod.format_table(cells, spec))
    if args.csv:
        bench_mod.write_csv(cells, args.csv, spec)
    return 0


def _cmd_demo_cycling() -> int:
    g, s = run_cycling_demo()
    print(f"greedy + adversarial eigenvectors: status = {g.status}, "
          f"best rho = {_num(g.rho)}, upper bound s = {_num(g.bounds[1])}, "
          f"iters = {g.iterations}")
    print(f"selective greedy:                  status = {s.status}, "
          f"rho = {_num(s.rho)}, iters = {s.iterations}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "stabilize":
            return _cmd_stabilize(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "demo-cycling":
            return _cmd_demo_cycling()
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
