"""The lemma and bound suites double as library-level property tests."""

import numpy as np
import pytest

from qest import bounds as bd
from qest import measurements as ms
from qest import states as st
from qest import verify as vf
from qest.linalg import psd_sqrt
from qest.verify import bound_suite, lemma_suite


def test_lemma_suite_all_pass():
    results = lemma_suite(seed=1)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


def test_bound_suite_all_pass():
    results = bound_suite(seed=1)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


# The checks as they were before their random POVMs were scored in stacks:
# one random_povm and one classical_fisher call per POVM, kept as oracles.

def _per_povm_info_trace_bound(rng, povms_per_dim=100):
    worst_excess = -np.inf
    for q in (2, 3, 4):
        family = ms.mub_bases(q) if q > 2 else None
        points = []
        for _ in range(10):
            if q == 2:
                points.append(st.qubit_slds(vf._random_interior_point(rng)))
            else:
                coords = vf._random_mub_point(q, family, rng)
                points.append(st.mub_derivatives(coords, family))
        qfis = np.stack([st.model_qfi(derivs) for derivs in points])
        gs = [bd.classical_fisher(points[i % len(points)],
                                  ms.random_povm(q, int(rng.integers(2, 2 * q + 2)), rng))
              for i in range(povms_per_dim)]
        ghat = bd.hat_fisher(np.reshape(gs, (-1,) + qfis.shape), qfis)
        worst_excess = max(worst_excess,
                           float(np.max(np.trace(ghat, axis1=-2, axis2=-1))) - (q - 1))
    return vf.CheckResult("info-trace-bound", worst_excess <= 1e-9,
                          f"max (Tr ghat - (q-1)) = {worst_excess:.3e} (tol 1e-09)")


def _per_case_bound_ordering(rng, cases=40):
    min_gap1 = np.inf
    min_gap2 = np.inf
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        derivs = st.qubit_slds(x)
        j = st.qubit_qfi(x)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 0.2 * np.eye(3)
        povm = ms.random_povm(2, int(rng.integers(4, 8)), rng)
        g = bd.classical_fisher(derivs, povm)
        if float(np.linalg.eigvalsh(g)[0]) < 1e-10:
            continue
        bound = bd.qcr_min_trace(j, h).bound
        min_gap1 = min(min_gap1, float(np.trace(h @ np.linalg.inv(g))) - bound)
        min_gap2 = min(min_gap2, bound - float(np.trace(h @ np.linalg.inv(j))))
    passed = min_gap1 >= -1e-8 and min_gap2 >= -1e-8
    return vf.CheckResult("bound-ordering", passed,
                          f"min gaps = {min_gap1:.3e}, {min_gap2:.3e}")


@pytest.mark.parametrize("stacked, per_povm", [
    (vf.check_info_trace_bound, _per_povm_info_trace_bound),
    (vf.check_bound_ordering, _per_case_bound_ordering),
], ids=["info-trace-bound", "bound-ordering"])
def test_stacked_check_reports_the_per_povm_line(stacked, per_povm):
    for seed in range(1, 21):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert stacked(new).line() == per_povm(old).line()
        # the draws are the same, in the same order
        assert new.random() == old.random()


def test_stacked_fishers_have_the_per_povm_bits():
    rng = np.random.default_rng(5)
    xs = np.array([vf._random_interior_point(rng) for _ in range(30)])
    parts = [ms.random_povm_parts(2, int(n), rng) for n in rng.integers(2, 6, size=30)]
    gs = bd.classical_fisher(st.qubit_slds(xs), vf._random_povm_ops(parts))

    class Replay:
        """A generator stand-in that hands random_povm a recorded draw."""

        def __init__(self, draw):
            self.draw = draw

        def standard_normal(self, shape):
            assert shape == self.draw.shape
            return self.draw

    for x, part, g in zip(xs, parts, gs):
        povm = ms.random_povm(2, len(part), Replay(part))
        assert np.array_equal(g, bd.classical_fisher(st.qubit_slds(x), povm))


# The checks as they were before their cases were scored in stacks: one
# case at a time through the one-case calls, kept as oracles.

def _per_case_rank_one_hat_fisher(rng, cases=50):
    worst = 0.0
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        derivs = st.qubit_slds(x)
        j = st.qubit_qfi(x)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        k_mat = u.T @ bd._sqrt_and_inv_sqrt(j)[1]
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        l_v = sum(float(v[i]) * sum(k_mat[i, k] * derivs.slds[k] for k in range(3))
                  for i in range(3))
        pvm = ms.pvm_from_observable(l_v)
        ghat = bd.hat_fisher(bd.classical_fisher(derivs, pvm), j, u)
        worst = max(worst, float(np.max(np.abs(ghat - np.outer(v, v)))))
    return vf.CheckResult("rank-one-hat-fisher", worst <= 1e-8,
                          f"max |ghat - vv^T| = {worst:.3e} (tol 1e-08, {cases} cases)")


def _per_case_optimal_measurement_fisher(rng, cases=40):
    worst = 0.0
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + np.diag(rng.uniform(0.1, 1.0, size=3))
        derivs = st.qubit_slds(x)
        j = st.qubit_qfi(x)
        sol = bd.optimal_measurement(derivs, j, h)
        g = bd.classical_fisher(derivs, sol.measurement)
        worst = max(worst, float(np.max(np.abs(g - sol.fisher_target))))
    return vf.CheckResult("optimal-measurement-fisher", worst <= 1e-8,
                          f"max |g - target| = {worst:.3e} (tol 1e-08, {cases} cases)")


def _per_case_excess_nonnegative(rng, cases=200):
    xs, hs, closed = [], [], []
    for _ in range(cases):
        x = vf._random_interior_point(rng, rmax=0.95)
        w = bd.RotWeight(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        closed.append(bd.c_tomo_closed(w, x) - bd.c_opt_closed(w, float(np.linalg.norm(x))))
        xs.append(x)
        hs.append(bd.rot_weight_along(w, x))
    closed = np.array(closed)
    min_excess = float(closed.min())
    worst = float(np.max(np.abs(closed - bd.tomo_excess(np.array(xs), np.array(hs)))))
    passed = min_excess >= -1e-10 and worst <= 1e-8
    return vf.CheckResult("excess-nonnegative", passed,
                          f"min excess = {min_excess:.3e}, max |closed - sum of squares| = {worst:.3e}")


def _per_radius_mub_sweep(family, radii, coord=(0, 0)):
    q = family.q
    tomo = ms.mub_tomography_povm(family)
    rows = []
    for r in radii:
        coords = np.zeros((q + 1, q - 1))
        coords[coord] = r
        try:
            derivs = st.mub_derivatives(coords, family)
        except st.NotPositiveError:
            break
        j = st.model_qfi(derivs)
        ct = float(np.trace(j @ np.linalg.inv(bd.classical_fisher(derivs, tomo))))
        rows.append((float(r), bd.gm_lower_bound(j, j, q), ct))
    return rows


def _per_case_fisher_convexity(rng, cases=30):
    worst = 0.0
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        derivs = st.qubit_slds(x)
        m1 = ms.random_povm(2, int(rng.integers(2, 5)), rng)
        m2 = ms.random_povm(2, int(rng.integers(2, 5)), rng)
        p = float(rng.random())
        mixed = ms.randomize([(p, m1), (1.0 - p, m2)])
        lhs = bd.classical_fisher(derivs, mixed)
        rhs = (p * bd.classical_fisher(derivs, m1)
               + (1.0 - p) * bd.classical_fisher(derivs, m2))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return vf.CheckResult("fisher-convexity", worst <= 1e-10,
                          f"max |g(mix) - mix(g)| = {worst:.3e} (tol 1e-10)")


def _per_case_tomography_weight_optimality(rng, cases=20):
    worst_eq = 0.0
    min_gap = np.inf
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        h = bd.tomography_weight(x)
        attained = float(np.trace(h @ np.linalg.inv(bd.tomography_fisher(x))))
        worst_eq = max(worst_eq, abs(attained - bd.qcr_min_trace(st.qubit_qfi(x), h).bound))
        x_off = rng.uniform(0.08, 0.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        x_off = x_off * min(0.9 / np.linalg.norm(x_off), 1.0)
        min_gap = min(min_gap, bd.tomo_excess(x_off, np.eye(3)))
    passed = worst_eq <= 1e-8 and min_gap >= 10 * 1e-8
    return vf.CheckResult("tomography-weight-optimality", passed,
                          f"max equality defect = {worst_eq:.3e}, min off-axis gap = {min_gap:.3e}")


def _per_case_unit_info_identity(rng, cases=100):
    worst_tr = 0.0
    worst_h = 0.0
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        j = st.qubit_qfi(x)
        g = bd.tomography_fisher(x)
        worst_tr = max(worst_tr, abs(float(np.trace(np.linalg.inv(j) @ g)) - 1.0))
        rebuilt = 9.0 * g @ np.linalg.inv(j) @ g
        worst_h = max(worst_h, float(np.max(np.abs(rebuilt - bd.tomography_weight(x)))))
    passed = worst_tr <= 1e-10 and worst_h <= 1e-9
    return vf.CheckResult("unit-info-identity", passed,
                          f"max |Tr J^-1 g - 1| = {worst_tr:.3e}, max weight defect = {worst_h:.3e}")


def _per_case_feasible_fisher_injectivity(rng, cases=20):
    min_sep = np.inf
    worst_round = 0.0
    for _ in range(cases):
        x = vf._random_interior_point(rng)
        j = st.qubit_qfi(x)
        sq_j = psd_sqrt(j)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((3, 3))
            g0 = a @ a.T + 0.1 * np.eye(3)
            g0 /= np.trace(g0)
            mats.append(sq_j @ g0 @ sq_j)
        targets = []
        for f in mats:
            w, feasible = bd.weight_from_fisher(f, j)
            if not feasible:
                raise AssertionError("constructed Fisher matrix should be feasible")
            target = bd.qcr_min_trace(j, w).fisher_target
            worst_round = max(worst_round, float(np.max(np.abs(target - f))))
            targets.append(target)
        min_sep = min(min_sep, float(np.max(np.abs(targets[0] - targets[1]))))
    passed = worst_round <= 1e-8 and min_sep > 1e-8
    return vf.CheckResult("feasible-fisher-injectivity", passed,
                          f"max roundtrip defect = {worst_round:.3e}, min separation = {min_sep:.3e}")


def _per_case_unit_trace_minimum(rng, cases=20):
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 4))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s = q @ np.diag(rng.uniform(0.2, 3.0, size=d)) @ q.T
        s = (s + s.T) / 2
        numeric, _ = bd.min_trace_unit_trace(s)
        closed = float(np.trace(psd_sqrt(s))) ** 2
        worst = max(worst, abs(numeric - closed))
    return vf.CheckResult("unit-trace-minimum", worst <= 1e-5,
                          f"max |numeric - closed| = {worst:.3e} (tol 1e-05, {cases} cases)")


@pytest.mark.parametrize("stacked, per_case", [
    (vf.check_rank_one_hat_fisher, _per_case_rank_one_hat_fisher),
    (vf.check_optimal_measurement_fisher, _per_case_optimal_measurement_fisher),
    (vf.check_excess_nonnegative, _per_case_excess_nonnegative),
    (vf.check_fisher_convexity, _per_case_fisher_convexity),
    (vf.check_tomography_weight_optimality, _per_case_tomography_weight_optimality),
    (vf.check_unit_info_identity, _per_case_unit_info_identity),
    (vf.check_feasible_fisher_injectivity, _per_case_feasible_fisher_injectivity),
    (vf.check_unit_trace_minimum, _per_case_unit_trace_minimum),
], ids=["rank-one-hat-fisher", "optimal-measurement-fisher", "excess-nonnegative",
        "fisher-convexity", "tomography-weight-optimality", "unit-info-identity",
        "feasible-fisher-injectivity", "unit-trace-minimum"])
def test_stacked_check_reports_the_per_case_line(stacked, per_case):
    for seed in range(1, 21):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert stacked(new).line() == per_case(old).line()
        assert new.random() == old.random()


@pytest.mark.parametrize("q", [3, 4])
def test_mub_sweep_rows_are_the_per_radius_rows(q):
    family = ms.mub_bases(q)
    # negative radii leave the state space at -1 / (q - 1), positive ones at 1
    radii = np.concatenate([np.arange(0.05, 1.2, 0.05), -np.arange(0.0, 0.7, 0.03)])
    for coord in [(0, 0), (1, 1), (q, q - 2), (2, 0)]:
        for sweep in (radii[:23], radii[:24], radii, radii[23:], radii[23:][::-1]):
            rows = bd.mub_tomography_sweep(family, sweep, coord)
            assert rows == _per_radius_mub_sweep(family, sweep, coord)
            assert all(type(v) is float for row in rows for v in row)
    # the sweep of the bounds suite, and one that stops at once
    radii = np.arange(0.05, 0.91, 0.05)
    assert bd.mub_tomography_sweep(family, radii) == _per_radius_mub_sweep(family, radii)
    assert bd.mub_tomography_sweep(family, [1.5, 0.5]) == []
    assert bd.mub_tomography_sweep(family, []) == []


SIZED_CHECKS = [
    (vf.check_rank_one_hat_fisher, "cases"),
    (vf.check_info_trace_bound, "povms_per_dim"),
    (vf.check_fisher_convexity, "cases"),
    (vf.check_unit_trace_minimum, "cases"),
    (vf.check_tomography_weight_optimality, "cases"),
    (vf.check_unit_info_identity, "cases"),
    (vf.check_optimal_measurement_fisher, "cases"),
    (vf.check_bound_ordering, "cases"),
    (vf.check_feasible_fisher_injectivity, "cases"),
    (vf.check_excess_nonnegative, "cases"),
]


@pytest.mark.parametrize("check, name", SIZED_CHECKS, ids=[c.__name__ for c, _ in SIZED_CHECKS])
def test_bad_sizes_are_named_before_any_draw(check, name):
    kind = "multiple of 10" if name == "povms_per_dim" else "integer"
    bad = [0, -1, 2.5, True] + ([15] if name == "povms_per_dim" else [])
    for value in bad:
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=f"^{name} must be a positive {kind}, got {value!r}$"):
            check(rng, **{name: value})
        assert rng.random() == np.random.default_rng(3).random()
    # the smallest valid size runs
    assert check(np.random.default_rng(3), **{name: 10 if name == "povms_per_dim" else 1}).passed
