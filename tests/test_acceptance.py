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
    RotWeight,
    c_opt_closed,
    c_tomo_closed,
    classical_fisher,
    gm_lower_bound,
    hat_fisher,
    min_trace_unit_trace,
    optimal_measurement,
    qcr_min_trace,
    qfi_rot_weight,
    rot_weight_along,
    tomography_fisher,
    tomography_weight,
)
from qest.linalg import psd_sqrt
from qest.measurements import (
    mub_bases,
    mub_tomography_povm,
    qubit_tomography_povm,
    random_povm,
    randomize,
)
from qest.simulate import RunConfig, monte_carlo
from qest.states import (
    bures_distance,
    model_qfi,
    mub_derivatives,
    qubit_qfi,
    qubit_slds,
    qubit_state,
)

X0 = np.array([0.55, 0.55, 0.55])
TOMO = qubit_tomography_povm()


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


def random_point(rng, rmax=0.9):
    x = rng.standard_normal(3)
    return x * (rng.random() * rmax / np.linalg.norm(x))


def test_criterion_1_closed_forms_match_numerics():
    start = time.time()
    rng = np.random.default_rng(101)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    worst = 0.0
    for r in np.arange(0.0, 0.951, 0.05):
        for v in dirs:
            x = r * v
            j = qubit_qfi(x)
            g_num = classical_fisher(qubit_slds(x), TOMO)
            for w in (RotWeight(1.0, 1.0), qfi_rot_weight(float(r)), RotWeight(2.0, 0.5)):
                h = rot_weight_along(w, v)
                dev_c = abs(c_opt_closed(w, float(r)) - qcr_min_trace(j, h).bound)
                dev_t = abs(c_tomo_closed(w, x)
                            - float(np.trace(h @ np.linalg.inv(g_num))))
                worst = max(worst, dev_c, dev_t)
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(1, f"max deviation {worst:.2e} over 1200 grid points in {elapsed:.1f} s")


def test_criterion_2_boundary_limits():
    v = np.ones(3) / np.sqrt(3)
    ident = RotWeight(1.0, 1.0)
    # c converges to 4 slowly (sqrt of 1-r^2): evaluate in the r -> 1 limit
    c_limit = c_opt_closed(ident, 1.0 - 1e-8)
    assert 4.0 <= c_limit <= 4.01
    ct_limit = c_tomo_closed(ident, (1.0 - 1e-8) * v)
    ct_9999 = c_tomo_closed(ident, 0.9999 * v)
    assert 5.99 <= ct_limit <= 6.01
    assert 5.99 <= ct_9999 <= 6.01
    worst_nine = max(abs(c_opt_closed(qfi_rot_weight(float(r)), float(r)) - 9.0)
                     for r in np.arange(0.0, 0.996, 0.05))
    assert worst_nine <= 1e-8
    ct_fisher = c_tomo_closed(qfi_rot_weight(0.995), 0.995 * v)
    assert ct_fisher > 100.0
    report(2, f"c -> {c_limit:.4f}, cT -> {ct_9999:.4f}; Fisher weight: "
              f"|c - 9| <= {worst_nine:.1e}, cT(0.995) = {ct_fisher:.1f}")


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
        attained = float(np.trace(np.linalg.inv(tomography_fisher(x))))
        bound = qcr_min_trace(qubit_qfi(x), np.eye(3)).bound
        min_rel_gap = min(min_rel_gap, (attained - bound) / bound)
    assert min_rel_gap > 1e-6
    report(3, f"equality defect {worst_eq:.2e} for the special weight; "
              f"identity-weight rel. excess >= {min_rel_gap:.2e} off the axes")


def test_criterion_4_constructed_measurement_attains_target():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        x = random_point(rng)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + np.diag(rng.uniform(0.1, 1.0, size=3))
        derivs = qubit_slds(x)
        sol = optimal_measurement(derivs, qubit_qfi(x), h)
        g = classical_fisher(derivs, sol.measurement)
        worst = max(worst, float(np.max(np.abs(g - sol.fisher_target))))
    assert worst <= 1e-8
    report(4, f"max |g(M_opt) - target| = {worst:.2e} over 100 random (x, H)")


def test_criterion_5_information_lemmas():
    rng = np.random.default_rng(105)

    # rank-one normalized Fisher for the PVM of a normalized SLD combination
    worst_vv = 0.0
    for _ in range(50):
        x = random_point(rng)
        derivs = qubit_slds(x)
        j = qubit_qfi(x)
        values, vectors = np.linalg.eigh(j)
        inv_sq = (vectors / np.sqrt(values)) @ vectors.T
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        k_mat = u.T @ inv_sq
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        l_v = sum(float(v[i]) * sum(k_mat[i, k] * derivs.slds[k] for k in range(3))
                  for i in range(3))
        from qest.measurements import pvm_from_observable
        ghat = hat_fisher(classical_fisher(derivs, pvm_from_observable(l_v)), j, u)
        worst_vv = max(worst_vv, float(np.max(np.abs(ghat - np.outer(v, v)))))
    assert worst_vv <= 1e-8

    # normalized information trace never exceeds dim - 1
    worst_excess = -np.inf
    for q in (2, 3, 4):
        family = mub_bases(q) if q > 2 else None
        derivs_pool = []
        for _ in range(10):
            if q == 2:
                derivs_pool.append(qubit_slds(random_point(rng)))
            else:
                while True:
                    coords = rng.uniform(-0.04, 0.04, size=(q + 1, q - 1))
                    try:
                        derivs_pool.append(mub_derivatives(coords, family))
                        break
                    except Exception:
                        continue
        for i in range(100):
            derivs = derivs_pool[i % 10]
            j = model_qfi(derivs)
            povm = random_povm(q, int(rng.integers(2, 2 * q + 2)), rng)
            ghat = hat_fisher(classical_fisher(derivs, povm), j)
            worst_excess = max(worst_excess, float(np.trace(ghat)) - (q - 1))
    assert worst_excess <= 1e-9

    # Fisher information is affine under randomized combination
    worst_affine = 0.0
    for _ in range(30):
        x = random_point(rng)
        derivs = qubit_slds(x)
        m1 = random_povm(2, 3, rng)
        m2 = random_povm(2, 4, rng)
        p = float(rng.random())
        lhs = classical_fisher(derivs, randomize([(p, m1), (1 - p, m2)]))
        rhs = (p * classical_fisher(derivs, m1)
               + (1 - p) * classical_fisher(derivs, m2))
        worst_affine = max(worst_affine, float(np.max(np.abs(lhs - rhs))))
    assert worst_affine <= 1e-10

    # independent projected-gradient oracle for the constrained minimum
    worst_lagrange = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        q_mat = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s = q_mat @ np.diag(rng.uniform(0.2, 3.0, size=d)) @ q_mat.T
        s = (s + s.T) / 2
        numeric, _ = min_trace_unit_trace(s)
        worst_lagrange = max(worst_lagrange,
                             abs(numeric - float(np.trace(psd_sqrt(s))) ** 2))
    assert worst_lagrange <= 1e-5
    report(5, f"rank-one defect {worst_vv:.2e}; trace-bound excess {worst_excess:.2e}; "
              f"affinity defect {worst_affine:.2e}; oracle gap {worst_lagrange:.2e}")


def test_criterion_6_unit_trace_and_weight_identities():
    rng = np.random.default_rng(106)
    worst_tr = 0.0
    worst_h = 0.0
    for _ in range(100):
        x = random_point(rng)
        j = qubit_qfi(x)
        g = tomography_fisher(x)
        worst_tr = max(worst_tr, abs(float(np.trace(np.linalg.inv(j) @ g)) - 1.0))
        worst_h = max(worst_h, float(np.max(np.abs(
            9.0 * g @ np.linalg.inv(j) @ g - tomography_weight(x)))))
    assert worst_tr <= 1e-10
    assert worst_h <= 1e-9
    report(6, f"max |Tr J^-1 g - 1| = {worst_tr:.2e}; "
              f"max |9 g J^-1 g - H_T| = {worst_h:.2e} over 100 points")


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
    for q in (3, 4):
        family = mub_bases(q)
        tomo = mub_tomography_povm(family)
        cts = []
        for r in np.arange(0.05, 0.91, 0.05):
            coords = np.zeros((q + 1, q - 1))
            coords[0, 0] = r
            derivs = mub_derivatives(coords, family)
            j = model_qfi(derivs)
            ct = float(np.trace(j @ np.linalg.inv(classical_fisher(derivs, tomo))))
            cgm = gm_lower_bound(j, j, q)
            assert ct >= cgm - 1e-9
            cts.append(ct)
        # unbounded growth toward the model boundary
        assert cts[-1] > 3.0 * cts[0]
        assert all(b > a for a, b in zip(cts[-5:], cts[-4:]))
        notes.append(f"q={q}: cT {cts[0]:.1f} -> {cts[-1]:.1f}")
    report(9, f"overlaps within 1e-9 for q in 2..5; {'; '.join(notes)}")


def test_criterion_10_byte_identical_csv(tmp_path):
    from qest.cli import main

    args = ["simulate", "--x0", "0.55,0.55,0.55", "--weight", "qfi",
            "--m", "400", "--reps", "12", "--seed", "2024",
            "--estimator", "both"]
    outputs = {}
    keep = os.environ.get("QEST_THREADS")
    try:
        for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            os.environ["QEST_THREADS"] = threads
            assert main(args + ["--out", str(tmp_path / tag)]) == 0
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
