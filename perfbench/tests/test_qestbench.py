"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from qestbench import layers, runner, source, workloads  # noqa: E402
from qestbench.tracing import WRAPPED_MARK, Tracer  # noqa: E402

qest = source.import_qest()


def smoke_workloads(tmp_path):
    # m = 3000 keeps the tomography gate at its asymptotic target; its
    # trials are cheap.  Adaptive trials are cut to 40 steps.
    return [workloads.Adaptive("qfi", m_max=40, trace_ops=1),
            workloads.Adaptive("identity", m_max=40, trace_ops=1),
            workloads.Tomography(reps=10, trace_ops=1, pool_reps=8, out_dir=tmp_path),
            workloads.Bounds(trace_ops=1)]


def wrap_targets():
    """(owner, attribute) of every target the traced run may wrap."""
    mods = workloads.Workload()
    mods.bind(qest)
    out = []
    for table in (layers.SPANS, layers.COUNTERS):
        for targets in table.values():
            out.extend((mods.mods[m], a) for m, a in targets if hasattr(mods.mods[m], a))
    return out


def snapshot():
    return {(owner.__name__, attr): getattr(owner, attr) for owner, attr in wrap_targets()}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.all_workloads())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    from run import END_TO_END_UNITS

    assert e2e == END_TO_END_UNITS


@pytest.mark.parametrize("index", range(4))
def test_smoke_run_of_each_workload(tmp_path, index, monkeypatch):
    wl = smoke_workloads(tmp_path)[index]
    wl.bind(qest)
    before = snapshot()

    def no_tracing(*args, **kwargs):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(Tracer, "wrap", no_tracing)
    result = runner.measure(wl, seed=3, seconds=0.01, probes=1)
    assert snapshot() == before
    assert result["attempted"] >= runner.MIN_OPS
    assert result["failed"] == 0
    assert set(result["metrics"]) == {"norm_ops_per_s", "setup_s", "peak_rss_mb"}
    assert all(v > 0 for v in result["metrics"].values())
    if isinstance(wl, (workloads.Tomography, workloads.Bounds)):
        assert result["correct"], [g.line() for g in result["gates"]]


@pytest.mark.parametrize("index", range(4))
def test_traced_run_restores_every_wrapped_attribute(tmp_path, index, monkeypatch):
    wl = smoke_workloads(tmp_path)[index]
    wl.bind(qest)
    before = snapshot()
    seen = []
    original_restore = Tracer.restore

    def checking_restore(self):
        seen.extend(self.installed)
        assert all(getattr(getattr(o, a), WRAPPED_MARK, False) for o, a in self.installed)
        original_restore(self)

    monkeypatch.setattr(Tracer, "restore", checking_restore)
    others = smoke_workloads(tmp_path)
    companions = [others[i] for i in (2, 0, 3) if others[i].name.split("-")[0]
                  != wl.name.split("-")[0]]
    for comp in companions:
        comp.bind(qest)
    result = runner.trace(wl, seed=5, companions=companions)
    assert seen, "the traced run wrapped nothing"
    assert snapshot() == before
    assert result["correct"], [g.line() for g in result["gates"]]
    assert result["detail"]["traced_output_mismatches"] == 0
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    # with companions every layer is measured; smoke trials are too short to
    # reach the longer MLE history buckets
    zero = {name for name, value in result["metrics"].items()
            if value == 0 and layers.PER_LAYER[name][0] in ("us", "ms")}
    assert zero <= {"simulate.mle.us_per_call.m1000", "simulate.mle.us_per_call.m3000"}
    if isinstance(wl, workloads.Adaptive):
        m = result["metrics"]
        parts = (m["simulate.mle.share"] * m["simulate.step.us"]
                 + m["simulate.design.us_per_step"] + m["simulate.sample.us_per_step"])
        assert parts == pytest.approx(m["simulate.step.us"], rel=1e-9)
    if isinstance(wl, workloads.Tomography):
        assert result["metrics"]["simulate.pool.csv_identical"] == 1.0


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0],
                ["d", 2.0, 3.0, 1]]
    assert list(tr.self_times()) == [6.0, 2.0, 1.0, 1.0]


def test_mean_gate_uses_the_fixed_number_of_standard_errors():
    gate = workloads._mean_gate("g", [9.0] * 4, 9.0 + 2 * workloads.GATE_SE, 4.0)
    assert gate.passed
    gate = workloads._mean_gate("g", [9.0] * 4, 9.0 + 2 * workloads.GATE_SE + 1e-9, 4.0)
    assert not gate.passed


def test_missing_program_exits_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.rglob("*.py"):
        if "tests" in path.relative_to(BENCH).parts:
            continue
        dest = bare / "perfbench" / path.relative_to(BENCH)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
