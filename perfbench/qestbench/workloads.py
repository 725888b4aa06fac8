"""The four workloads: what one operation is and how its outputs are gated.

Every workload runs at the paper's point x0 = (0.55, 0.55, 0.55)
(r ~ 0.953) in one process with one worker.  Operation k of a run with
benchmark seed s uses program seed 1000 * s + k, so the same seed gives
the same inputs and different seeds give disjoint ones.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

X0 = (0.55, 0.55, 0.55)
R2 = 3 * 0.55 ** 2
EPS_BALL = 0.01          # criterion 7's clamp radius 1 - 0.01
M_MAX = 3000             # criterion 7's steps per trial
GATE_SE = 5.0            # statistical gates allow this many standard errors
# Gates read a fixed number of trials, the first of the run, so that their
# power does not grow with the speed of the machine or of the program: the
# finite-m bias of the merits is small against 5 SE of this many trials only.
GATE_ADAPTIVE_TRIALS = 10
GATE_TOMO_TRIALS = 300
OPS_PER_SEED = 1000
LAYERS = ("linalg", "states", "measurements", "bounds", "simulate", "verify", "cli")


def op_seed(seed: int, k: int) -> int:
    if not 0 <= k < OPS_PER_SEED:
        raise ValueError(f"operation index {k} out of range")
    return OPS_PER_SEED * seed + k


@dataclass
class OpResult:
    """One timed operation: units of work done, time taken, units failed."""

    units: int
    wall_s: float
    failed: int
    data: dict = field(default_factory=dict)


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"gate {self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _mean_gate(name: str, values, target: float, sd: float) -> Gate:
    """|mean - target| <= GATE_SE standard errors, SE = sd / sqrt(n)."""
    values = np.asarray(values, dtype=float)
    se = sd / math.sqrt(len(values))
    dev = float(values.mean()) - target
    return Gate(name, bool(abs(dev) <= GATE_SE * se),
                f"mean {values.mean():.3f} vs {target:.3f} over n={len(values)}: "
                f"{dev / se:+.2f} se (limit {GATE_SE:g})")


class Workload:
    """Base class; subclasses define one operation and its gates."""

    name = ""
    why = ""
    unit = ""            # what one unit of work is
    rate_name = ""       # the workload's throughput under its own name
    trace_ops = 2        # operations in each pass of the traced run

    def bind(self, qest) -> None:
        """Look the layers up as modules of the imported qest package."""
        self.mods = {name: importlib.import_module(f"{qest.__name__}.{name}")
                     for name in LAYERS}

    def warmup(self, seed: int) -> None:
        """Run small work first so lazy set-up is not timed."""

    def op(self, seed: int, k: int) -> OpResult:
        raise NotImplementedError

    def gates(self, results: list) -> list:
        raise NotImplementedError

    def compare(self, a: OpResult, b: OpResult) -> bool:
        """Traced and untraced runs of one operation give the same output."""
        return a.data == b.data

    def extra_trace(self, seed: int) -> tuple:
        """(metrics, attempted, failed) measured untraced after the traced run."""
        return {}, 0, 0


# ---------------------------------------------------------------------------
# adaptive Monte Carlo (criterion 7's adaptive half)
# ---------------------------------------------------------------------------

class Adaptive(Workload):
    unit = "adaptive step"
    rate_name = "adaptive_steps_per_s"

    def __init__(self, weight: str, m_max: int = M_MAX, trace_ops: int = 3):
        self.weight = weight
        self.m_max = m_max
        self.trace_ops = trace_ops
        self.name = f"adaptive-{weight}"
        s = math.sqrt(1.0 - R2)
        if weight == "qfi":
            # 2m * Bures; limit of m dx^T J dx under the optimal design,
            # a sum of three chi^2_1 with weights (3, 3, 3)
            self.merit, self.target, lam = "bures", 9.0, (3.0, 3.0, 3.0)
            self.why = ("criterion 7 Fisher-weight half: MLE mostly interior, "
                        "design (qubit_qfi + eigh) is the largest non-MLE cost")
        elif weight == "identity":
            # m |dx|^2; weights (2+s)(1, 1, s) with s = sqrt(1 - r^2)
            self.merit, self.target, lam = "sq", (2.0 + s) ** 2, (2 + s, 2 + s, (2 + s) * s)
            self.why = ("criterion 7 identity-weight half: MLE often on the clamp "
                        "sphere with long line searches, MLE dominates the step")
        else:
            raise ValueError(f"unknown weight {weight!r}")
        # standard deviation of the limiting weighted chi^2 distribution
        self.sd = math.sqrt(2.0 * sum(v * v for v in lam))

    def config(self, seed: int, m_max: int | None = None):
        sim = self.mods["simulate"]
        return sim.RunConfig(x0=np.array(X0), weight=self.weight,
                             m_max=m_max or self.m_max, reps=1, seed=seed,
                             eps_ball=EPS_BALL)

    def warmup(self, seed: int) -> None:
        sim = self.mods["simulate"]
        sim.monte_carlo(self.config(seed, m_max=min(self.m_max, 100)),
                        estimators=("adaptive",), threads=1)

    def op(self, seed: int, k: int) -> OpResult:
        sim = self.mods["simulate"]
        cfg = self.config(op_seed(seed, k))
        out, wall = _timed(lambda: sim.monte_carlo(cfg, estimators=("adaptive",),
                                                   threads=1))
        summary = out["adaptive"]
        merits = np.concatenate([summary.mean_bures, summary.mean_sq])
        # a trial with a non-finite merit fails every step it took
        failed = int(summary.n_opt_failed) if np.all(np.isfinite(merits)) else cfg.m_max
        return OpResult(units=cfg.m_max, wall_s=wall, failed=failed,
                        data={"bures": float(summary.mean_bures[-1]),
                              "sq": float(summary.mean_sq[-1])})

    def gates(self, results: list) -> list:
        values = [r.data[self.merit] for r in results[:GATE_ADAPTIVE_TRIALS]]
        label = "2mB" if self.merit == "bures" else "m|dx|^2"
        return [_mean_gate(f"{self.name} {label} at m={self.m_max} near c_opt",
                           values, self.target, self.sd)]


# ---------------------------------------------------------------------------
# tomography through the command line
# ---------------------------------------------------------------------------

class Tomography(Workload):
    name = "tomography"
    why = ("criterion 7 tomography half via `qest simulate`: Bures and qubit_state "
           "dominate, MLE and design idle, so solver changes should not move it")
    unit = "tomography trial"
    rate_name = "tomo_trials_per_s"

    def __init__(self, m_max: int = M_MAX, reps: int = 25, trace_ops: int = 4,
                 pool_reps: int = 400, out_dir: Path | None = None):
        self.m_max = m_max
        self.reps = reps
        self.trace_ops = trace_ops
        self.pool_reps = pool_reps
        self.out_dir = Path(out_dir) if out_dir else Path(__file__).resolve().parents[1] / "out"
        self.c_tomo = 9.0 + 2.0 * R2 ** 2 / (1.0 - R2)
        self.c_sq = 3.0 * (3.0 - R2)

    def _cli(self, seed: int, reps: int, threads: int, tag: str) -> tuple:
        """Run `qest simulate` in-process; returns (exit code, CSV text, wall)."""
        cli = self.mods["cli"]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        base = self.out_dir / f"tomo-{tag}"
        argv = ["simulate", "--estimator", "tomo", "--weight", "qfi",
                "--m", str(self.m_max), "--reps", str(reps), "--seed", str(seed),
                "--eps-ball", str(EPS_BALL), "--x0", ",".join(map(str, X0)),
                "--out", str(base)]
        saved = os.environ.get("QEST_THREADS")
        os.environ["QEST_THREADS"] = str(threads)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, wall = _timed(lambda: cli.main(argv))
        finally:
            if saved is None:
                del os.environ["QEST_THREADS"]
            else:
                os.environ["QEST_THREADS"] = saved
        path = base.parent / f"{base.stem}_tomography.csv"
        text = path.read_text() if code == 0 and path.is_file() else ""
        return code, text, wall

    def warmup(self, seed: int) -> None:
        self._cli(seed, 2, 1, "warmup")

    def op(self, seed: int, k: int) -> OpResult:
        code, text, wall = self._cli(op_seed(seed, k), self.reps, 1, "op")
        lines = text.strip().splitlines()
        if code != 0 or len(lines) < 2:
            return OpResult(units=self.reps, wall_s=wall, failed=self.reps,
                            data={"code": code})
        head = lines[0].split(",")
        last = dict(zip(head, lines[-1].split(",")))
        vals = {key: float(last[key]) for key in ("meanBures", "seBures", "meanSq", "seSq")}
        finite = all(math.isfinite(v) for row in lines[1:]
                     for v in map(float, row.split(",")[2:]))
        # the CLI reports means only, so one non-finite trial fails the batch
        return OpResult(units=self.reps, wall_s=wall,
                        failed=0 if finite else self.reps,
                        data={"csv": text, **vals})

    def gates(self, results: list) -> list:
        """Criterion 7's tomography check on the run's first 300 trials:
        batches have equal reps, so the pooled mean is the mean of batch
        means and its SE is sqrt(sum se_i^2) / n."""
        results = results[:max(1, GATE_TOMO_TRIALS // self.reps)]
        batches = [r.data for r in results if "seBures" in r.data]
        if len(batches) < len(results):
            return [Gate("tomography CLI runs succeed", False,
                         f"{len(results) - len(batches)} of {len(results)} runs failed")]
        out = []
        for key, target, label in (("Bures", self.c_tomo, "2mB near c_tomo"),
                                   ("Sq", self.c_sq, "m|dx|^2 near 3(3-r^2)")):
            means = np.array([b["mean" + key] for b in batches])
            se = math.sqrt(sum(b["se" + key] ** 2 for b in batches)) / len(batches)
            dev = float(means.mean()) - target
            out.append(Gate(f"tomography {label} at m={self.m_max}", abs(dev) <= GATE_SE * se,
                            f"mean {means.mean():.3f} vs {target:.3f} over "
                            f"{len(batches) * self.reps} trials: {dev / se:+.2f} se "
                            f"(limit {GATE_SE:g})"))
        return out

    def extra_trace(self, seed: int) -> tuple:
        """QEST_THREADS determinism, 2-worker efficiency and pool start-up."""
        s = op_seed(seed, OPS_PER_SEED - 1)
        code1, csv1, wall1 = self._cli(s, self.pool_reps, 1, "pool1")
        code2, csv2, wall2 = self._cli(s, self.pool_reps, 2, "pool2")
        same = code1 == 0 and code2 == 0 and bool(csv1) and csv1 == csv2
        starts = sorted(self._pool_start() for _ in range(3))
        metrics = {"simulate.pool.efficiency_2w": wall1 / (2.0 * wall2),
                   "simulate.pool.start_ms": 1e3 * starts[1],
                   "simulate.pool.csv_identical": 1.0 if same else 0.0}
        return metrics, 1, 0 if same else 1

    def _pool_start(self) -> float:
        """Start the pool class simulate uses with 2 workers, round-trip
        one no-op per worker, and shut it down."""
        pool_cls = self.mods["simulate"].ProcessPoolExecutor
        start = time.perf_counter()
        with pool_cls(max_workers=2) as pool:
            for fut in [pool.submit(os.getpid) for _ in range(2)]:
                fut.result()
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# verify suites: closed forms, bounds, measurements
# ---------------------------------------------------------------------------

class Bounds(Workload):
    name = "bounds"
    why = ("verify lemma and bound suites: the only path through bounds, "
           "measurements and hermitian_eig, which the Monte Carlo never calls")
    unit = "verify check"
    rate_name = "checks_per_s"
    suites = ("lemmas", "bounds")

    def __init__(self, trace_ops: int = 2):
        self.trace_ops = trace_ops

    def warmup(self, seed: int) -> None:
        self.mods["verify"].run_suite("bounds", op_seed(seed, OPS_PER_SEED - 1))

    def op(self, seed: int, k: int) -> OpResult:
        vf = self.mods["verify"]
        s = op_seed(seed, k)
        start = time.perf_counter()
        results = []
        for suite in self.suites:
            results.extend(vf.run_suite(suite, s))
        wall = time.perf_counter() - start
        failed = [r.name for r in results if not r.passed]
        return OpResult(units=len(results), wall_s=wall, failed=len(failed),
                        data={"checks": [r.name for r in results], "failed": failed})

    def gates(self, results: list) -> list:
        names = [set(r.data["checks"]) for r in results]
        failed = sorted({n for r in results for n in r.data["failed"]})
        same = all(n == names[0] for n in names)
        return [Gate("every lemma and bound check passes", not failed and same,
                     f"{sum(r.units for r in results)} checks in {len(results)} rounds, "
                     f"{len(names[0])} distinct; failed: {', '.join(failed) or 'none'}")]


def all_workloads() -> dict:
    return {w.name: w for w in (Adaptive("qfi"), Adaptive("identity"),
                                Tomography(), Bounds())}
