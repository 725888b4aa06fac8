"""Where the traced run hooks into each layer, and the per-layer metrics it
derives from the spans.

Each target is wrapped in every namespace a caller looks it up in: for
example `simulate` calls `bures_distance` through its own module globals,
so `qest.simulate.bures_distance` is wrapped as well as
`qest.states.bures_distance`.
"""

from __future__ import annotations

import numpy as np

from .tracing import LayerTotals

VERIFY_CHECKS = (
    "povm_json_roundtrip", "rank_one_hat_fisher", "info_trace_bound",
    "fisher_convexity", "unit_trace_minimum", "tomography_weight_optimality",
    "unit_info_identity", "optimal_measurement_fisher", "bound_ordering",
    "feasible_fisher_injectivity", "closed_vs_numeric_grid", "limit_values",
    "excess_nonnegative", "mub_bound_sweep",
)
MLE_BUCKETS = (("m300", 0, 300), ("m1000", 300, 1000), ("m3000", 1000, 3000))

# per-layer metric name -> (unit, which way is better); every traced run
# reports all of them, measuring a layer the workload does not call on a
# companion operation of a workload that does
PER_LAYER = {
    "simulate.step.us": ("us", "lower"),
    "simulate.mle.us_per_call": ("us", "lower"),
    "simulate.mle.share": ("ratio", "lower"),
    "simulate.mle.on_sphere_share": ("ratio", "lower"),
    "simulate.mle.linesearch_evals_per_call": ("count", "lower"),
    "simulate.mle.fallbacks": ("count", "lower"),
    "simulate.mle.failed": ("count", "lower"),
    **{f"simulate.mle.us_per_call.{b}": ("us", "lower") for b, _, _ in MLE_BUCKETS},
    "simulate.design.us_per_step": ("us", "lower"),
    "simulate.design.resolve_weight_us": ("us", "lower"),
    "simulate.sample.us_per_step": ("us", "lower"),
    "states.qubit_qfi.us_per_call": ("us", "lower"),
    "states.bures.us_per_call": ("us", "lower"),
    "states.bures.calls_per_trial": ("count", "lower"),
    "states.bures.share": ("ratio", "lower"),
    "states.qubit_state.us_per_call": ("us", "lower"),
    "linalg.psd_sqrt.us_per_call": ("us", "lower"),
    "linalg.psd_sqrt.calls": ("count/unit", "lower"),
    "simulate.merits.us_per_trial": ("us", "lower"),
    "simulate.tomo_trial.ms": ("ms", "lower"),
    "cli.overhead_ms": ("ms", "lower"),
    "bounds.qcr_min_trace.us_per_call": ("us", "lower"),
    "bounds.classical_fisher.us_per_call": ("us", "lower"),
    "bounds.optimal_measurement.us_per_call": ("us", "lower"),
    "bounds.tomography_weight.us_per_call": ("us", "lower"),
    "bounds.min_trace_unit_trace.ms_per_call": ("ms", "lower"),
    "measurements.random_povm.us_per_call": ("us", "lower"),
    "measurements.pvm_from_observable.us_per_call": ("us", "lower"),
    "measurements.mub_bases.ms_per_call": ("ms", "lower"),
    "linalg.hermitian_eig.calls": ("count/unit", "lower"),
    **{f"verify.{c.replace('_', '-')}.ms": ("ms", "lower") for c in VERIFY_CHECKS},
    "simulate.pool.start_ms": ("ms", "lower"),
    "simulate.pool.efficiency_2w": ("ratio", "higher"),
    "simulate.pool.csv_identical": ("count", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}

# span name -> [(module key, attribute)]
SPANS = {
    "cli.main": [("cli", "main")],
    "simulate.monte_carlo": [("simulate", "monte_carlo")],
    "simulate.adaptive_run": [("simulate", "adaptive_run")],
    "simulate.tomo_trial": [("simulate", "_tomography_trial")],
    "simulate.merits": [("simulate", "_merits")],
    "simulate.resolve_weight": [("simulate", "resolve_weight")],
    "simulate.branches": [("simulate", "_optimal_branches")],
    "simulate.mle": [("simulate", "mle_maximize")],
    "states.qubit_qfi": [("simulate", "qubit_qfi"), ("states", "qubit_qfi")],
    "states.bures": [("simulate", "bures_distance"), ("states", "bures_distance")],
    "states.qubit_state": [("simulate", "qubit_state"), ("states", "qubit_state")],
    "linalg.psd_sqrt": [("states", "psd_sqrt"), ("bounds", "psd_sqrt"),
                        ("verify", "psd_sqrt"), ("linalg", "psd_sqrt")],
    "bounds.qcr_min_trace": [("bounds", "qcr_min_trace"), ("simulate", "qcr_min_trace")],
    "bounds.classical_fisher": [("bounds", "classical_fisher")],
    "bounds.optimal_measurement": [("bounds", "optimal_measurement")],
    "bounds.tomography_weight": [("bounds", "tomography_weight"),
                                 ("simulate", "tomography_weight")],
    "bounds.min_trace_unit_trace": [("bounds", "min_trace_unit_trace")],
    "measurements.random_povm": [("measurements", "random_povm")],
    "measurements.pvm_from_observable": [("measurements", "pvm_from_observable"),
                                         ("bounds", "pvm_from_observable")],
    "measurements.mub_bases": [("measurements", "mub_bases")],
    **{f"verify.{c.replace('_', '-')}": [("verify", f"check_{c}")] for c in VERIFY_CHECKS},
}
# counted calls, keyed by the enclosing span
COUNTERS = {
    "simulate.clamp_to_ball": [("simulate", "clamp_to_ball")],
    "linalg.hermitian_eig": [("linalg", "hermitian_eig"), ("bounds", "hermitian_eig"),
                             ("measurements", "hermitian_eig")],
}


class MleProbe:
    """Records, per MLE call, its span, the history length, and whether the
    result sits on the clamp sphere or was reported not-ok."""

    def __init__(self):
        self.rows = []  # (span index, history length, on sphere, ok)

    def __call__(self, idx, args, kwargs, result):
        x, ok = result
        eps = kwargs.get("eps_ball", 1e-6)
        on_sphere = float(np.linalg.norm(x)) >= (1.0 - eps) * (1.0 - 1e-9)
        self.rows.append((idx, len(args[0]), on_sphere, bool(ok)))


def install(tracer, mods: dict, probe: MleProbe | None = None) -> MleProbe:
    """Wrap every span and counter target that exists; returns the MLE
    probe, a new one unless a previous pass's probe is given."""
    if probe is None:
        probe = MleProbe()
    for name, targets in SPANS.items():
        hook = probe if name == "simulate.mle" else None
        tracer.wrap(name, [(mods[m], a) for m, a in targets], on_return=hook)
    for name, targets in COUNTERS.items():
        tracer.wrap(name, [(mods[m], a) for m, a in targets], count_only=True)
    try:
        import scipy.optimize
    except ImportError:
        pass
    else:
        # mle_maximize imports minimize at call time for its fallback
        tracer.wrap("scipy.minimize", [(scipy.optimize, "minimize")], count_only=True)
    return probe


# metric-name prefixes whose spans carry another name
_LAYER_ALIASES = {"simulate.step": "simulate.adaptive_run",
                  "simulate.design": "simulate.adaptive_run",
                  "simulate.sample": "simulate.adaptive_run",
                  "cli.overhead_ms": "cli.main"}


def layer_of(metric: str) -> str:
    """The span or counter a per-layer metric is computed from."""
    key = ".".join(metric.split(".")[:2])
    return _LAYER_ALIASES.get(key, key)


def merge(sources: list) -> tuple:
    """Per-layer metrics from (label, tracer, metrics) sources, the first
    being the workload's own traced pass: each metric is taken from the
    first source that called its layer, else it is 0.  Returns the merged
    metrics and {metric: label} for those not taken from the first."""
    called = [{rec[0] for rec in tracer.spans} | {name for name, _ in tracer.counts}
              for _, tracer, _ in sources]
    out, borrowed = {}, {}
    for name in PER_LAYER:
        out[name] = 0.0
        for i, (label, _, metrics) in enumerate(sources):
            if name in metrics and layer_of(name) in called[i]:
                out[name] = metrics[name]
                if i:
                    borrowed[name] = label
                break
    return out, borrowed


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, probe: MleProbe, units: int, steps: int) -> dict:
    """Per-layer metrics of a traced pass that did `units` units of work,
    `steps` of them adaptive steps."""
    tot = tracer.totals()

    def get(name) -> LayerTotals:
        return tot.get(name, LayerTotals(0, 0.0, 0.0))

    runs = get("simulate.adaptive_run")
    mle = get("simulate.mle")
    resolve = get("simulate.resolve_weight")
    branches = get("simulate.branches")
    bures = get("states.bures")
    tomo = get("simulate.tomo_trial")
    psd = get("linalg.psd_sqrt")
    trials = runs.calls + tomo.calls
    cli = get("cli.main")
    out = {
        "simulate.step.us": _ratio(1e6 * runs.total_s, steps),
        "simulate.mle.us_per_call": mle.mean_us(),
        "simulate.mle.share": _ratio(mle.total_s, runs.total_s),
        "simulate.mle.on_sphere_share":
            _ratio(sum(r[2] for r in probe.rows), len(probe.rows)),
        "simulate.mle.linesearch_evals_per_call":
            _ratio(tracer.count("simulate.clamp_to_ball", within="simulate.mle"), mle.calls),
        "simulate.mle.fallbacks": float(tracer.count("scipy.minimize", within="simulate.mle")),
        "simulate.mle.failed": float(sum(not r[3] for r in probe.rows)),
        "simulate.design.us_per_step":
            _ratio(1e6 * (resolve.total_s + branches.total_s), steps),
        "simulate.design.resolve_weight_us": resolve.mean_us(),
        "simulate.sample.us_per_step": _ratio(1e6 * runs.self_s, steps),
        "states.qubit_qfi.us_per_call": get("states.qubit_qfi").mean_us(),
        "states.bures.us_per_call": bures.mean_us(),
        "states.bures.calls_per_trial": _ratio(bures.calls, trials),
        "states.bures.share": _ratio(bures.total_s, get("op").total_s),
        "states.qubit_state.us_per_call": get("states.qubit_state").mean_us(),
        "linalg.psd_sqrt.us_per_call": psd.mean_us(),
        "linalg.psd_sqrt.calls": _ratio(psd.calls, units),
        "simulate.merits.us_per_trial": _ratio(1e6 * get("simulate.merits").total_s, trials),
        "simulate.tomo_trial.ms": tomo.mean_us() / 1e3,
        "cli.overhead_ms": _ratio(1e3 * cli.self_s, cli.calls),
        "bounds.min_trace_unit_trace.ms_per_call":
            get("bounds.min_trace_unit_trace").mean_us() / 1e3,
        "measurements.mub_bases.ms_per_call": get("measurements.mub_bases").mean_us() / 1e3,
        "linalg.hermitian_eig.calls": _ratio(tracer.count("linalg.hermitian_eig"), units),
    }
    for name in ("bounds.qcr_min_trace", "bounds.classical_fisher",
                 "bounds.optimal_measurement", "bounds.tomography_weight",
                 "measurements.random_povm", "measurements.pvm_from_observable"):
        out[f"{name}.us_per_call"] = get(name).mean_us()
    spans = tracer.spans
    for label, lo, hi in MLE_BUCKETS:
        times = [spans[i][2] - spans[i][1] for i, m, _, _ in probe.rows if lo < m <= hi]
        out[f"simulate.mle.us_per_call.{label}"] = 1e6 * float(np.mean(times)) if times else 0.0
    for c in VERIFY_CHECKS:
        name = f"verify.{c.replace('_', '-')}"
        out[f"{name}.ms"] = get(name).mean_us() / 1e3
    return out
