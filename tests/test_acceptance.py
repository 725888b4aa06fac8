"""Acceptance suite: one test per criterion, each printing a PASS line.

The Monte Carlo criterion runs the full comparison (300 repetitions of
3000-step trials for two weights) and is the slow part; run with
`pytest tests/test_acceptance.py -s` to watch progress.
"""

import os
import time

import numpy as np
import pytest

from qest.bounds import (
    mub_tomography_sweep,
    qcr_min_trace,
    tomo_excess,
    tomography_fisher,
    tomography_weight,
)
from qest.measurements import mub_bases
from qest.simulate import RunConfig, monte_carlo
from qest.states import (
    bures_distance,
    qubit_qfi,
    qubit_state,
)
from qest.verify import (
    check_closed_vs_numeric_grid,
    check_fisher_convexity,
    check_info_trace_bound,
    check_limit_values,
    check_optimal_measurement_fisher,
    check_rank_one_hat_fisher,
    check_unit_info_identity,
    check_unit_trace_minimum,
)

X0 = np.array([0.55, 0.55, 0.55])


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


def random_point(rng, rmax=0.9):
    x = rng.standard_normal(3)
    return x * (rng.random() * rmax / np.linalg.norm(x))


def test_criterion_1_closed_forms_match_numerics():
    start = time.time()
    res = check_closed_vs_numeric_grid(np.random.default_rng(101))
    elapsed = time.time() - start
    assert res.passed, res.line()
    assert elapsed < 10.0
    report(1, f"{res.detail} in {elapsed:.1f} s")


def test_criterion_2_boundary_limits():
    res = check_limit_values()
    assert res.passed, res.line()
    report(2, res.detail)


def test_criterion_3_tomography_weight_is_the_optimum():
    rng = np.random.default_rng(103)
    worst_eq = 0.0
    for _ in range(20):
        x = random_point(rng)
        h = tomography_weight(x)
        attained = float(np.trace(h @ np.linalg.inv(tomography_fisher(x))))
        bound = qcr_min_trace(qubit_qfi(x), h).bound
        worst_eq = max(worst_eq, abs(attained - bound))
    assert worst_eq <= 1e-8

    min_rel_gap = np.inf
    count = 0
    while count < 20:
        x = random_point(rng, rmax=0.85)
        if np.min(np.abs(x)) <= 0.05 or len(set(np.round(np.abs(x), 6))) < 3:
            continue
        count += 1
        bound = qcr_min_trace(qubit_qfi(x), np.eye(3)).bound
        min_rel_gap = min(min_rel_gap, tomo_excess(x, np.eye(3)) / bound)
    assert min_rel_gap > 1e-6
    report(3, f"equality defect {worst_eq:.2e} for the special weight; "
              f"identity-weight rel. excess >= {min_rel_gap:.2e} off the axes")


def test_criterion_4_constructed_measurement_attains_target():
    res = check_optimal_measurement_fisher(np.random.default_rng(104), cases=100)
    assert res.passed, res.line()
    report(4, res.detail)


def test_criterion_5_information_lemmas():
    rng = np.random.default_rng(105)
    results = [
        check_rank_one_hat_fisher(rng, cases=50),
        check_info_trace_bound(rng, povms_per_dim=100),
        check_fisher_convexity(rng, cases=30),
        check_unit_trace_minimum(rng, cases=20),
    ]
    for res in results:
        assert res.passed, res.line()
    report(5, "; ".join(f"{res.name}: {res.detail}" for res in results))


def test_criterion_6_unit_trace_and_weight_identities():
    res = check_unit_info_identity(np.random.default_rng(106), cases=100)
    assert res.passed, res.line()
    report(6, f"{res.detail} over 100 points")


@pytest.fixture(scope="module")
def mc_results():
    """Full-scale Monte Carlo: both weights, 300 reps of 3000 steps.

    eps_ball = 0.01 keeps the clamp sphere away from the design singularity
    at purity, where the identity-weight scheme's radial branch probability
    would collapse and stall convergence within the m budget.
    """
    start = time.time()
    out = {}
    for name in ("qfi", "identity"):
        cfg = RunConfig(x0=X0, weight=name, m_max=3000, reps=300, seed=42,
                        eps_ball=0.01)
        out[name] = monte_carlo(cfg)
    out["elapsed"] = time.time() - start
    return out


@pytest.mark.slow
def test_criterion_7_monte_carlo_comparison(mc_results):
    elapsed = mc_results["elapsed"]
    assert elapsed < 1800.0, "runtime budget is 30 minutes"

    r2 = float(X0 @ X0)
    # weight J: Bures figure of merit
    tomo = mc_results["qfi"]["tomography"]
    adap = mc_results["qfi"]["adaptive"]
    ct_expected = 9.0 + 2.0 * r2 ** 2 / (1.0 - r2)
    assert tomo.c_tomo == pytest.approx(ct_expected, abs=1e-9)
    dev_tomo = abs(tomo.mean_bures[-1] - ct_expected)
    assert dev_tomo <= 5.0 * tomo.se_bures[-1]
    rel_adap = abs(adap.mean_bures[-1] - 9.0) / 9.0
    assert rel_adap <= 0.15
    gap = tomo.mean_bures[-1] - adap.mean_bures[-1]
    gap_se = float(np.hypot(tomo.se_bures[-1], adap.se_bures[-1]))
    assert gap > 5.0 * gap_se

    # weight I: squared-error figure of merit
    tomo_i = mc_results["identity"]["tomography"]
    adap_i = mc_results["identity"]["adaptive"]
    ct_i = 3.0 * (3.0 - r2)
    c_i = (2.0 + np.sqrt(1.0 - r2)) ** 2
    dev_tomo_i = abs(tomo_i.mean_sq[-1] - ct_i)
    assert dev_tomo_i <= 5.0 * tomo_i.se_sq[-1]
    rel_adap_i = abs(adap_i.mean_sq[-1] - c_i) / c_i
    assert rel_adap_i <= 0.15
    report(7, f"H=J: tomography 2mB off by {dev_tomo / tomo.se_bures[-1]:.1f} se, "
              f"adaptive within {100 * rel_adap:.1f}% of 9, gap {gap / gap_se:.1f} se; "
              f"H=I: tomography off by {dev_tomo_i / tomo_i.se_sq[-1]:.1f} se, "
              f"adaptive within {100 * rel_adap_i:.1f}% of {c_i:.3f}; "
              f"{elapsed:.0f} s")


def test_criterion_8_bures_expansion():
    rng = np.random.default_rng(108)
    worst_res = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        x = random_point(rng, rmax=0.8)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        dx = 1e-3 * direction
        j = qubit_qfi(x)
        quad = 0.5 * float(dx @ j @ dx)
        scale = 1.0 + quad
        res_full = abs(bures_distance(qubit_state(x), qubit_state(x + dx)) - quad)
        res_half = abs(bures_distance(qubit_state(x), qubit_state(x + dx / 2))
                       - quad / 4.0)
        assert res_full <= 1e-7 * scale
        worst_res = max(worst_res, res_full / scale)
        # cubic order: halving the displacement cuts the residual by >= 6x
        assert res_half <= res_full / 6.0 + 1e-14
        if res_full > 0:
            worst_ratio = max(worst_ratio, res_half / res_full)
    report(8, f"max residual {worst_res:.2e} (tol 1e-7); "
              f"worst halving ratio {worst_ratio:.3f} (<= 1/6 + eps)")


def test_criterion_9_mub_suite():
    for q in (2, 3, 4, 5):
        assert mub_bases(q).max_overlap_defect() <= 1e-9
    notes = []
    radii = np.arange(0.05, 0.91, 0.05)
    for q in (3, 4):
        rows = mub_tomography_sweep(mub_bases(q), radii)
        # every radius lies inside the state space, so the sweep must not stop
        assert len(rows) == len(radii)
        for _, cgm, ct in rows:
            assert ct >= cgm - 1e-9
        cts = [ct for _, _, ct in rows]
        # unbounded growth toward the model boundary
        assert cts[-1] > 3.0 * cts[0]
        assert all(b > a for a, b in zip(cts[-5:], cts[-4:]))
        notes.append(f"q={q}: cT {cts[0]:.1f} -> {cts[-1]:.1f}")
    report(9, f"overlaps within 1e-9 for q in 2..5; {'; '.join(notes)}")


def test_criterion_10_byte_identical_csv(tmp_path, monkeypatch):
    import qest.simulate as simulate
    from qest.cli import main

    # the job is small enough to run serially; force the pool at 8 threads,
    # so that pooled output is compared with serial output
    started = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(simulate, "POOL_MIN_WORK_S", 0.0)
    args = ["simulate", "--x0", "0.55,0.55,0.55", "--weight", "qfi",
            "--m", "400", "--reps", "12", "--seed", "2024",
            "--estimator", "both"]
    outputs = {}
    keep = os.environ.get("QEST_THREADS")
    try:
        for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            os.environ["QEST_THREADS"] = threads
            assert main(args + ["--out", str(tmp_path / tag)]) == 0
            # one pool per estimator, and only in the 8-thread run
            assert started == ([8, 8] if tag != "a" else [])
            outputs[tag] = {
                kind: (tmp_path / f"{tag}_{kind}.csv").read_bytes()
                for kind in ("tomography", "adaptive")
            }
    finally:
        if keep is None:
            os.environ.pop("QEST_THREADS", None)
        else:
            os.environ["QEST_THREADS"] = keep
    for kind in ("tomography", "adaptive"):
        assert outputs["a"][kind] == outputs["b"][kind] == outputs["c"][kind]
    report(10, "CSV byte-identical across repeated runs and thread counts 1 and 8")
