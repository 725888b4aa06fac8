#!/usr/bin/env python3
"""qest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures the end-to-end
metrics, with --trace 1 the per-layer ones.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it name each metric with its unit, the gates, and
the machine.  A full record, and for traced runs the spans, go to
perfbench/out/.  Exits 2 without a result if the checkout has no src/qest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from qestbench import source  # noqa: E402

END_TO_END_UNITS = {"norm_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# where a traced run measures the layers its workload does not call, in
# order of preference; one per family (adaptive, tomography, bounds)
COMPANIONS = ("tomography", "adaptive-qfi", "bounds")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 10 ** 12:
        parser.error("--seed must be in [0, 1e12)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        qest = source.import_qest()
    except source.MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from qestbench import layers, runner, workloads

    catalogue = workloads.all_workloads()
    if args.workload not in catalogue:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalogue)}", file=sys.stderr)
        return 2
    wl = catalogue[args.workload]
    wl.bind(qest)
    if args.trace:
        companions = [catalogue[name] for name in COMPANIONS
                      if name.split("-")[0] != wl.name.split("-")[0]]
        for comp in companions:
            comp.bind(qest)
        result = runner.trace(wl, args.seed, companions)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        result = runner.measure(wl, args.seed, args.seconds)
        units = END_TO_END_UNITS

    env = source.environment()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "gates": [vars(g) for g in result["gates"]],
              "detail": result["detail"],
              **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        result["tracer"].write_csv(out_dir / f"{stem}-spans.csv")

    print(f"# workload {wl.name} (seed {args.seed}): {wl.why}")
    print("# env " + json.dumps(env, sort_keys=True))
    for gate in result["gates"]:
        print("# " + gate.line())
    if not args.trace:
        detail = result["detail"]
        print(f"{wl.rate_name}: {detail[wl.rate_name]:.6g} 1/s by the wall clock over "
              f"{detail['ops']} timed operations (one unit = one {wl.unit})")
    for name, value in result["metrics"].items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
