"""Command-line front end.

Subcommands emit the data behind the four figures of interest (indicatrix,
bound curves, Monte Carlo comparison, higher-dimensional sweep) as CSV or
JSON, optionally with a minimal polyline SVG, plus a `verify` subcommand
running the property suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The
environment variable QEST_THREADS caps trial parallelism.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import measurements as ms
from . import simulate as sim
from . import verify as vf


def emit_table(args, header: list, rows: list, plot: tuple) -> None:
    """Write a table to --out or stdout as CSV (str of a float round-trips)
    or JSON; with --svg and --out, also write_svg(*plot) next to --out."""
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(map(str, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    if args.svg and args.out:
        write_svg(str(Path(args.out).with_suffix(".svg")), *plot)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def write_svg(path: str, series: list, xlabel: str, ylabel: str) -> None:
    """Minimal 640 x 420 polyline plot; data files remain the source of truth."""
    width, height, margin = 640, 420, 50
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 10}" font-size="12" '
             f'text-anchor="middle">{xlabel}</text>',
             f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 14 {height // 2})">{ylabel}</text>']
    for k, (name, sx, sy) in enumerate(series):
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(sx, sy))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# The parsers and commands below report bad input by raising a ValueError,
# which main prints as one "error: ..." line and turns into exit code 2.

def _parse_vec(text: str) -> np.ndarray:
    """Three comma-separated finite numbers."""
    try:
        vec = np.array([float(p) for p in text.split(",")])
    except ValueError:
        vec = np.empty(0)
    if vec.size != 3 or not np.all(np.isfinite(vec)):
        raise ValueError(f"expected 3 comma-separated finite numbers, got {text!r}")
    return vec


def _parse_pair(flag: str, text: str, names: str) -> tuple[int, int]:
    """Two comma-separated 1-based integers, returned 0-based."""
    try:
        a, b = (int(p) - 1 for p in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects two comma-separated integers {names}, "
                         f"got {text!r}") from None
    return a, b


def _positive(kind):
    """argparse type for a sweep step or length: a finite `kind` above 0."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _sweep(first: float, rmax: float, rstep: float) -> np.ndarray:
    """Radii first, first + rstep, ... up to rmax; a usage error when rmax
    lies below the first point."""
    radii = np.arange(first, rmax + 1e-12, rstep)
    if radii.size == 0:
        raise ValueError(f"--rmax {rmax:g} is below the first sweep point {first:g}")
    return radii


def cmd_bounds(args) -> int:
    direction = bd.unit_direction(_parse_vec(args.dir))
    if args.weight == "custom" and (args.f is None or args.g is None):
        raise ValueError("--weight custom requires --f and --g")
    if args.weight != "custom" and (args.f is not None or args.g is not None):
        raise ValueError(f"--f and --g apply only to --weight custom, not --weight {args.weight}")
    weight_at = bd.ROT_WEIGHTS.get(args.weight, lambda r: bd.RotWeight(args.f, args.g))
    radii = _sweep(0.0, args.rmax, args.rstep)
    c, ct, gap = (a[:, 0, 0] for a in bd.rot_merit_sweep([weight_at], radii, direction[None]))
    emit_table(args, ["r", "c", "cT", "discrepancy"],
               [[float(v) for v in row] for row in zip(radii, c, ct, gap)],
               ([("c", radii, c), ("cT", radii, ct)], "r", "merit"))
    # absolute for merits of order 1, relative for larger ones
    worst = float(np.max(gap / np.maximum(1.0, np.maximum(np.abs(c), np.abs(ct)))))
    if worst >= 1e-6:
        print(f"error: closed-form/numeric discrepancy {worst:.3e} >= 1e-6, "
              "relative to max(1, |c|, |cT|)", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    x0 = _parse_vec(args.x0)
    weight = args.weight
    if weight == "custom":
        if not args.weight_matrix:
            raise ValueError("--weight custom requires --weight-matrix")
        try:
            weight = np.array(json.loads(args.weight_matrix), dtype=float)
        except (ValueError, TypeError):
            raise ValueError("--weight-matrix expects a JSON 3x3 matrix of numbers, "
                             f"got {args.weight_matrix!r}") from None
    elif args.weight_matrix is not None:
        raise ValueError(f"--weight-matrix applies only to --weight custom, not --weight {weight}")
    cfg = sim.RunConfig(x0=x0, weight=weight, m_max=args.m, reps=args.reps,
                        seed=args.seed, eps_ball=args.eps_ball)
    kinds = {"both": ("tomography", "adaptive"), "tomo": ("tomography",),
             "adaptive": ("adaptive",)}[args.estimator]
    results = sim.monte_carlo(cfg, estimators=kinds)
    base = Path(args.out) if args.out else Path("simulate")
    for kind, summary in results.items():
        if args.format == "json":
            path = base.parent / f"{base.name}_{kind}.json"
            path.write_text(json.dumps(summary.to_json_dict(), indent=1) + "\n")
        else:
            path = base.parent / f"{base.name}_{kind}.csv"
            path.write_text(summary.to_csv())
        print(f"wrote {path}")
        if kind == "adaptive" and summary.n_opt_failed > 0:
            print(f"warning: {summary.n_opt_failed} likelihood maximization solves "
                  f"were not certified", file=sys.stderr)
        if args.svg:
            ms_ax = [int(m) for m in summary.checkpoints]
            write_svg(str(base.parent / f"{base.name}_{kind}.svg"),
                      [("2mB", ms_ax, list(summary.mean_bures)),
                       ("cOpt", ms_ax, [summary.c_opt] * len(ms_ax)),
                       ("cTomo", ms_ax, [summary.c_tomo] * len(ms_ax))],
                      "m", "2m x Bures")
    return 0


def cmd_indicatrix(args) -> int:
    x = _parse_vec(args.x)
    # a huge x overflows to an inf norm, which lies outside
    with np.errstate(over="ignore"):
        outside = float(x @ x) >= 1.0
    if outside:
        raise ValueError("point must lie strictly inside the unit ball")
    h = bd.resolve_weight(args.weight, x)
    i, k = _parse_pair("--plane", args.plane, "axis,axis")
    if i == k or not (0 <= i < 3 and 0 <= k < 3):
        raise ValueError(f"--plane {args.plane} is not two different axes among 1,2,3")
    pts = bd.indicatrix_points(h, plane=(i, k), n=args.n)
    rows = [[float(a), float(b)] for a, b in pts]
    closed = rows + rows[:1]
    emit_table(args, ["v1", "v2"], rows, ([("indicatrix", *zip(*closed))], "v1", "v2"))
    return 0


def cmd_mub(args) -> int:
    family = ms.mub_bases(args.q)
    if args.dump:
        povm = ms.mub_tomography_povm(family)
        doc = {
            "q": family.q,
            "name": family.name,
            "maxOverlapDefect": family.max_overlap_defect(),
            "bases": [[[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
                      for basis in family.bases],
            "tomographyPovm": povm.to_json_dict(),
        }
        _write(json.dumps(doc, indent=1) + "\n", args.out)
        return 0
    # bound sweep along one affine coordinate direction
    q = family.q
    a_idx, i_idx = _parse_pair("--dir", args.dir, "basis,vector")
    if not (0 <= a_idx <= q) or not (0 <= i_idx <= q - 2):
        raise ValueError(f"--dir {args.dir} out of range for q={q}")
    rows = bd.mub_tomography_sweep(family, _sweep(args.rstep, args.rmax, args.rstep),
                                   (a_idx, i_idx))
    if not rows:
        raise ValueError(f"the first sweep point {args.rstep:g} lies outside the state space")
    r, cgm, ct = zip(*rows)
    emit_table(args, ["r", "cGM", "cT"], rows, ([("cGM", r, cgm), ("cT", r, ct)], "r", "merit"))
    return 0


def cmd_verify(args) -> int:
    results = vf.run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    n_fail = sum(0 if r.passed else 1 for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        doc = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if n_fail else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qest` parser, built at the first call and shared by every later
    one in the process.  Sharing is safe: parse_args only reads the parser,
    and main applies --config by rewriting argv, never through set_defaults,
    so no call leaves state behind for the next."""
    parser = argparse.ArgumentParser(
        prog="qest",
        description="Estimation bounds and Monte Carlo comparison for qubit tomography")
    parser.add_argument("--config", help="JSON file whose keys replace flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--svg", action="store_true",
                       help="also write a minimal polyline SVG next to --out")

    p = sub.add_parser("bounds", help="merit curves c(r) and cT(r) for a rotational weight")
    p.add_argument("--weight", choices=(*bd.ROT_WEIGHTS, "custom"), default="identity")
    p.add_argument("--f", type=float, help="transverse value for --weight custom")
    p.add_argument("--g", type=float, help="radial value for --weight custom")
    p.add_argument("--dir", default="1,1,1", help="direction, comma separated")
    p.add_argument("--rmax", type=float, default=0.95)
    p.add_argument("--rstep", type=_positive(float), default=0.05)
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo comparison of tomography vs adaptive")
    p.add_argument("--x0", default="0.55,0.55,0.55")
    p.add_argument("--weight", choices=(*bd.WEIGHT_SELECTORS, "custom"), default="qfi")
    p.add_argument("--weight-matrix", help="JSON 3x3 matrix for --weight custom")
    p.add_argument("--m", type=int, default=3000)
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=("both", "tomo", "adaptive"), default="both")
    p.add_argument("--eps-ball", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("indicatrix", help="unit-merit locus of a weight in a plane")
    p.add_argument("--x", default="0.5,0.5,0")
    p.add_argument("--weight", choices=bd.WEIGHT_SELECTORS, default="tomography")
    p.add_argument("--plane", default="1,2", help="pair of axis indices, 1-based")
    p.add_argument("--n", type=_positive(int), default=360)
    common(p)
    p.set_defaults(func=cmd_indicatrix)

    p = sub.add_parser("mub", help="mutually unbiased bases: dump or bound sweep")
    p.add_argument("--q", type=int, required=True)
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--dump", action="store_true", help="serialize bases and POVM")
    action.add_argument("--bounds", action="store_true", help="sweep cGM and cT along --dir")
    p.add_argument("--dir", default="1,1", help="affine coordinate (basis,vector), 1-based")
    p.add_argument("--rmax", type=float, default=0.9)
    p.add_argument("--rstep", type=_positive(float), default=0.05)
    common(p)
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("verify", help="run a property-check suite")
    p.add_argument("--suite", choices=vf.SUITES, default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="also write a JSON report here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config values become defaults, explicit flags still win
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            config = json.loads(Path(argv[idx + 1]).read_text())
            if not isinstance(config, dict):
                raise ValueError("expected a JSON object of flag values")
        except (IndexError, OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        del argv[idx:idx + 2]
        extra = []
        for key, value in config.items():
            if isinstance(value, bool):
                if value:
                    extra.append(f"--{key}")
            else:
                extra.extend([f"--{key}", str(value)])
        if argv:
            argv = [argv[0]] + extra + argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
