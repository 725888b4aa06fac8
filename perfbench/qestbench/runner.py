"""Untraced and traced runs of one workload.

The untraced run gives the end-to-end metrics: fresh-process set-up time,
throughput over timed operations, and peak resident memory.  The traced
run does a fixed number of operations, each once untraced and once traced,
and reports the per-layer metrics plus the tracing overhead.  Wrappers
exist only inside the traced passes.

Throughput is total units over total time of the timed operations, so it
predicts the wall time of a long run such as criterion 7 (a sum over
trials).  The reference kernel is timed between operations, and each
operation's time is rescaled by the median kernel time around it against
the kernel's nominal time, so that drift in the machine's speed between
and within runs cancels (see reference.py).
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import layers, reference
from .tracing import Tracer
from .workloads import OPS_PER_SEED, Adaptive

PROBE = Path(__file__).resolve().with_name("setup_probe.py")
SETUP_PROBES = 5
BASELINE_NOMINAL_S = 0.15  # bare `python3 -c "import numpy"` on the nominal machine
MIN_OPS = 3
REF_WINDOW_S = 2.0


def setup_times(workload: str, probes: int = SETUP_PROBES) -> list:
    """Set-up seconds of fresh interpreters that import qest, build the
    workload's configuration and exit, each divided by the time of a bare
    interpreter importing numpy started right after it and scaled to
    BASELINE_NOMINAL_S.  Process start-up drifts with the machine by 30% and
    more between runs, and does not follow the reference kernel; the bare
    interpreter drifts with it."""
    times = []
    for _ in range(probes):
        probe = _wall([sys.executable, str(PROBE), workload])
        bare = _wall([sys.executable, "-c", "import numpy"])
        times.append(probe / bare * BASELINE_NOMINAL_S)
    return times


def _wall(argv: list) -> float:
    start = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _slowdown(kernel_s: float) -> float:
    """How much slower than nominal the machine ran, from a kernel time."""
    return kernel_s / reference.NOMINAL_S


def _slowdowns(results: list, starts: list, refs: list) -> list:
    """Per operation, the median slowdown of the reference kernel runs made
    within REF_WINDOW_S of its midpoint, or of the two bracketing it when
    the operation is longer than the window."""
    out = []
    for r, start in zip(results, starts):
        mid = start + r.wall_s / 2
        reach = max(REF_WINDOW_S, r.wall_s / 2 + 0.5)
        near = [kernel_s for at, kernel_s in refs if abs(at - mid) <= reach]
        out.append(_slowdown(statistics.median(near)))
    return out


def measure(wl, seed: int, seconds: float, probes: int = SETUP_PROBES) -> dict:
    setup = setup_times(wl.name, probes)
    wl.warmup(seed)
    results, starts = [], []
    refs = [(time.perf_counter(), reference.time_kernel())]  # (time, kernel s)
    start = time.perf_counter()
    while True:
        starts.append(time.perf_counter())
        results.append(wl.op(seed, len(results)))
        refs.append((time.perf_counter(), reference.time_kernel()))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in results)
        if len(results) >= MIN_OPS and elapsed + typical > seconds:
            break
        if len(results) >= OPS_PER_SEED - 1:
            break
    units = sum(r.units for r in results)
    norm_s = sum(r.wall_s / f for r, f in zip(results, _slowdowns(results, starts, refs)))
    gates = wl.gates(results)
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0 and all(g.passed for g in gates),
        "attempted": units,
        "failed": failed,
        "metrics": {
            "norm_ops_per_s": units / norm_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "gates": gates,
        "detail": {
            "unit": wl.unit,
            wl.rate_name: units / sum(r.wall_s for r in results),
            "ops": len(results),
            "op_wall_s": [r.wall_s for r in results],
            "reference_kernel_s": [kernel_s for _, kernel_s in refs],
            "setup_probe_s": setup,
            "measured_s": time.perf_counter() - start,
        },
    }


def _traced_op(wl, seed: int, k: int, tracer: Tracer, probe=None) -> tuple:
    """One operation with every layer wrapped; returns (result, MLE probe)."""
    try:
        probe = layers.install(tracer, wl.mods, probe)
        with tracer.span("op"):
            return wl.op(seed, k), probe
    finally:
        tracer.restore()


def trace(wl, seed: int, companions=()) -> dict:
    """Traced run over wl.trace_ops operations (see the module docstring),
    then one traced operation of each companion workload to measure the
    layers wl does not call."""
    wl.warmup(seed)
    tracer = Tracer()
    plain_norm = traced_norm = 0.0
    units = steps = attempted = failed = mismatched = 0
    probe = None
    plain_results = []
    ref = reference.time_kernel()
    for k in range(wl.trace_ops):
        plain = wl.op(seed, k)
        mid = reference.time_kernel()
        traced, probe = _traced_op(wl, seed, k, tracer, probe)
        after = reference.time_kernel()
        plain_norm += plain.wall_s / _slowdown((ref + mid) / 2)
        traced_norm += traced.wall_s / _slowdown((mid + after) / 2)
        ref = after
        plain_results.append(plain)
        units += traced.units
        steps += traced.units if isinstance(wl, Adaptive) else 0
        attempted += plain.units + traced.units
        failed += plain.failed + traced.failed
        if not wl.compare(plain, traced):
            # tracing must not change what the program computes
            mismatched += 1
            failed += traced.units
    sources = [(wl.name, tracer, layers.layer_metrics(tracer, probe, units, steps))]
    extra, extra_attempted, extra_failed = wl.extra_trace(seed)
    for comp in companions:
        comp_tracer = Tracer()
        res, comp_probe = _traced_op(comp, seed, 0, comp_tracer)
        attempted += res.units
        failed += res.failed
        comp_steps = res.units if isinstance(comp, Adaptive) else 0
        sources.append((comp.name, comp_tracer,
                        layers.layer_metrics(comp_tracer, comp_probe, res.units, comp_steps)))
        if not extra:
            extra, extra_attempted, extra_failed = comp.extra_trace(seed)
    metrics, borrowed = layers.merge(sources)
    metrics.update(extra)
    metrics["trace.overhead_share"] = traced_norm / plain_norm - 1.0
    gates = wl.gates(plain_results)
    return {
        "correct": failed + extra_failed == 0 and all(g.passed for g in gates),
        "attempted": attempted + extra_attempted,
        "failed": failed + extra_failed,
        "metrics": metrics,
        "gates": gates,
        "detail": {"unit": wl.unit, "ops": wl.trace_ops,
                   "traced_output_mismatches": mismatched,
                   "measured_on_companion": borrowed,
                   "layers": {name: vars(t) for name, t in tracer.totals().items()},
                   "counters": {f"{n} in {p}": c for (n, p), c in tracer.counts.items()}},
        "tracer": tracer,
    }
