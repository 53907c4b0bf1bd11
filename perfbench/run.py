"""Benchmark entry point: times one workload of spectral_optim and checks every
output with the independent checker in check.py.

    python3 perfbench/run.py --workload finite-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run builds and solves whole rounds of the workload until
``--seconds`` have passed, then prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1`` each
round is solved twice, untraced and traced, and the metrics are the
per-layer ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Numeric libraries read their thread counts at import, so this is set
# before numpy is imported.  One BLAS thread: the library's matrices are at
# most 500 x 500, where a second thread costs more in synchronisation than
# it saves, and on a shared machine a run that needs one free CPU is
# steadier than one that needs two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Attempted and failed operations, and whether every failure is the
    known radius miss."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def record(self, op, fails: list[str]) -> None:
        self.attempted += 1
        if not fails:
            return
        self.failed += 1
        known = op.known_fault and all(f.startswith("radius ") for f in fails)
        if not known:
            self.correct = False
        if self.reported < 20:
            self.reported += 1
            tag = "known fault" if known else "FAIL"
            print(f"{tag}: {op.span}: {'; '.join(fails)}", file=sys.stderr)


def _timed_calls(ops, tracer=None):
    """Run every op's call, in a span when ``tracer`` is given; returns
    (outputs or exceptions, call seconds)."""
    outs, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = tracer.run(op.span, op.call) if tracer else op.call()
        except Exception as exc:   # recorded as a failed operation
            out = exc
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def _check(ops, outs, tally: Tally) -> None:
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            fails = [f"raised {type(out).__name__}: {out}"]
        else:
            fails = op.check(out)
        tally.record(op, fails)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (_SRC / "spectral_optim" / "__init__.py").is_file():
        print(f"error: no library source under {_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import resource
    import statistics

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    repeats = 1 if args.trace else workloads.SETUP_REPEATS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    tally = Tally()
    setup_times, round_solve, call_times = [], [], []
    plain_total = traced_total = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for _ in range(repeats):
            ops = None                     # one input set alive at a time
            t0 = time.perf_counter()
            with tracing.installed(tracer):
                ops = build(args.seed, rounds)
            setup_times.append(time.perf_counter() - t0)
        # A traced run solves each round twice, alternating which goes
        # first so that warm-up does not bias the overhead.
        if tracer is None:
            modes = [None]
        elif rounds % 2 == 0:
            modes = [None, tracer]
        else:
            modes = [tracer, None]
        for mode in modes:
            with tracing.installed(mode):
                outs, times = _timed_calls(ops, mode)
            _check(ops, outs, tally)
            outs = None
            if mode is None:
                round_solve.append(sum(times))
                call_times += times
                plain_total += sum(times)
            else:
                traced_total += sum(times)
        rounds += 1

    if tracer is not None:
        overhead = 100.0 * (traced_total - plain_total) / plain_total
        metrics = tracer.metrics(rounds, overhead)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": statistics.median(round_solve), "unit": "s"},
            "solve_ms_p50": {"value": 1e3 * statistics.median(call_times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} rounds, {tally.attempted} operations, {tally.failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
