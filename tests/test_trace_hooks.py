"""The benchmark's per-layer tracing patches library functions by name
(``perfbench/tracing.py``).  Run it over a small optimization and a small
stabilization so that a deleted or renamed hook fails here, not only in a
traced benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np

import spectral_optim as so
from spectral_optim import demo, linalg

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(_PERFBENCH) not in sys.path:
    sys.path.insert(0, str(_PERFBENCH))

import tracing  # noqa: E402


def test_trace_hooks_see_the_library_calls():
    problem = so.StabilizationProblem(np.array([[1.0, 1.0, 0.0],
                                                [0.0, 1.0, 1.0],
                                                [1.0, 0.0, 1.0]]))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        # The workloads open these top-level spans around their calls.
        tracer.run(tracing.TOP_OPTIMIZE, so.optimize, demo.cycling_family())
        tracer.run(tracing.TOP_STABLE, so.closest_stable, problem)
    assert tracer.calls[tracing.EIGEN] > 0
    assert tracer.calls[tracing.DRIVE] > 0
    assert tracer.counts["bisect_steps"] == tracer.calls[tracing.DRIVE]
    assert tracer.counts["passes"] > 0
    opt = importlib.import_module("spectral_optim.optimize")
    assert opt.selected_eigenpair is linalg.selected_eigenpair
