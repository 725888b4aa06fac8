"""Self-contained verification suites driven by the CLI.

Each check re-derives a property of the library from an independent route
(closed form vs numerics, bound vs brute force over random measurements,
statistics vs theory) and reports pass/fail with a scalar witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import measurements as ms
from . import simulate as sim
from . import states as st
from .linalg import psd_sqrt

SUITES = ("lemmas", "bounds", "mc-smoke", "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


def _random_interior_point(rng, rmax: float = 0.9) -> np.ndarray:
    x = rng.standard_normal(3)
    return x * (rng.random() * rmax / np.linalg.norm(x))


def _random_mub_point(q: int, family, rng, scale: float = 0.04) -> np.ndarray:
    # small coordinates keep the affine state comfortably positive
    for _ in range(200):
        coords = rng.uniform(-scale, scale, size=(q + 1, q - 1))
        try:
            st.mub_state(coords, family)
            return coords
        except st.NotPositiveError:
            continue
    raise RuntimeError("could not sample a positive affine state")


def _random_povm_fishers(points, at, parts) -> np.ndarray:
    """Fisher matrix of each random POVM drawn as Gaussian parts, POVM i at
    state at[i] of the stack `points` (ModelDerivatives of states sharing
    their partials).

    Each outcome count gets one Wishart map, one POVM check and one
    classical_fisher call; matrix i has the bits of classical_fisher at that
    one state of random_povm on the same draw.
    """
    k = len(points.partials)
    gs = np.empty((len(parts), k, k))
    counts = np.array([len(p) for p in parts])
    # sorted(set()) rather than np.unique, which imports numpy.ma (1.4 MB)
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        ops = ms.wishart_ops(np.stack([parts[i] for i in idx]))
        ms.check_povm_ops(ops)
        states = at[idx]
        derivs = st.ModelDerivatives(rho=points.rho[states], partials=points.partials,
                                     slds=tuple(s[states] for s in points.slds))
        gs[idx] = bd.classical_fisher(derivs, ops)
    return gs


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------

def check_rank_one_hat_fisher(rng, cases: int = 50) -> CheckResult:
    """PVM of a normalized SLD combination has normalized Fisher |v><v|."""
    worst = 0.0
    for _ in range(cases):
        x = _random_interior_point(rng)
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
    return CheckResult("rank-one-hat-fisher", worst <= 1e-8,
                       f"max |ghat - vv^T| = {worst:.3e} (tol 1e-08, {cases} cases)")


def check_info_trace_bound(rng, povms_per_dim: int = 100) -> CheckResult:
    """Tr of the normalized Fisher matrix never exceeds dim - 1.

    POVM i is scored at point i % 10, so povms_per_dim is a multiple of 10.
    """
    worst_excess = -np.inf
    for q in (2, 3, 4):
        family = ms.mub_bases(q) if q > 2 else None
        points = []
        for _ in range(10):
            if q == 2:
                points.append(st.qubit_slds(_random_interior_point(rng)))
            else:
                coords = _random_mub_point(q, family, rng)
                points.append(st.mub_derivatives(coords, family))
        qfis = np.stack([st.model_qfi(derivs) for derivs in points])
        parts = [ms.random_povm_parts(q, int(rng.integers(2, 2 * q + 2)), rng)
                 for _ in range(povms_per_dim)]
        stacked = st.ModelDerivatives(
            rho=np.stack([p.rho for p in points]), partials=points[0].partials,
            slds=tuple(np.stack(s) for s in zip(*(p.slds for p in points))))
        gs = _random_povm_fishers(stacked, np.arange(povms_per_dim) % len(points), parts)
        # row i // 10, column i % 10: each J is decomposed once for its POVMs
        ghat = bd.hat_fisher(gs.reshape((-1,) + qfis.shape), qfis)
        worst_excess = max(worst_excess,
                           float(np.max(np.trace(ghat, axis1=-2, axis2=-1))) - (q - 1))
    return CheckResult("info-trace-bound", worst_excess <= 1e-9,
                       f"max (Tr ghat - (q-1)) = {worst_excess:.3e} (tol 1e-09)")


def check_fisher_convexity(rng, cases: int = 30) -> CheckResult:
    """g of a randomized combination is the probability mix of the g's."""
    worst = 0.0
    for _ in range(cases):
        x = _random_interior_point(rng)
        derivs = st.qubit_slds(x)
        m1 = ms.random_povm(2, int(rng.integers(2, 5)), rng)
        m2 = ms.random_povm(2, int(rng.integers(2, 5)), rng)
        p = float(rng.random())
        mixed = ms.randomize([(p, m1), (1.0 - p, m2)])
        lhs = bd.classical_fisher(derivs, mixed)
        rhs = (p * bd.classical_fisher(derivs, m1)
               + (1.0 - p) * bd.classical_fisher(derivs, m2))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckResult("fisher-convexity", worst <= 1e-10,
                       f"max |g(mix) - mix(g)| = {worst:.3e} (tol 1e-10)")


def check_unit_trace_minimum(rng, cases: int = 20) -> CheckResult:
    """The Newton minimum of Tr S G^-1 over unit-trace G, which takes no
    square root of S, matches (Tr sqrt(S))^2."""
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 4))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s = q @ np.diag(rng.uniform(0.2, 3.0, size=d)) @ q.T
        s = (s + s.T) / 2
        numeric, _ = bd.min_trace_unit_trace(s)
        closed = float(np.trace(psd_sqrt(s))) ** 2
        worst = max(worst, abs(numeric - closed))
    return CheckResult("unit-trace-minimum", worst <= 1e-5,
                       f"max |numeric - closed| = {worst:.3e} (tol 1e-05, {cases} cases)")


def check_tomography_weight_optimality(rng, cases: int = 20) -> CheckResult:
    """Tomography attains the bound for its special weight and misses it
    for the identity weight off the axes."""
    worst_eq = 0.0
    min_gap = np.inf
    for _ in range(cases):
        x = _random_interior_point(rng)
        h = bd.tomography_weight(x)
        attained = float(np.trace(h @ np.linalg.inv(bd.tomography_fisher(x))))
        worst_eq = max(worst_eq, abs(attained - bd.qcr_min_trace(st.qubit_qfi(x), h).bound))
        x_off = rng.uniform(0.08, 0.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        x_off = x_off * min(0.9 / np.linalg.norm(x_off), 1.0)
        min_gap = min(min_gap, bd.tomo_excess(x_off, np.eye(3)))
    passed = worst_eq <= 1e-8 and min_gap >= 10 * 1e-8
    return CheckResult("tomography-weight-optimality", passed,
                       f"max equality defect = {worst_eq:.3e}, min off-axis gap = {min_gap:.3e}")


def check_unit_info_identity(rng, cases: int = 100) -> CheckResult:
    """Tr J^-1 g_tomo = 1 and the special weight equals 9 g J^-1 g."""
    worst_tr = 0.0
    worst_h = 0.0
    for _ in range(cases):
        x = _random_interior_point(rng)
        j = st.qubit_qfi(x)
        g = bd.tomography_fisher(x)
        worst_tr = max(worst_tr, abs(float(np.trace(np.linalg.inv(j) @ g)) - 1.0))
        rebuilt = 9.0 * g @ np.linalg.inv(j) @ g
        worst_h = max(worst_h, float(np.max(np.abs(rebuilt - bd.tomography_weight(x)))))
    passed = worst_tr <= 1e-10 and worst_h <= 1e-9
    return CheckResult("unit-info-identity", passed,
                       f"max |Tr J^-1 g - 1| = {worst_tr:.3e}, max weight defect = {worst_h:.3e}")


def check_optimal_measurement_fisher(rng, cases: int = 40) -> CheckResult:
    """Constructed random measurement has exactly the target Fisher matrix."""
    worst = 0.0
    for _ in range(cases):
        x = _random_interior_point(rng)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + np.diag(rng.uniform(0.1, 1.0, size=3))
        derivs = st.qubit_slds(x)
        j = st.qubit_qfi(x)
        sol = bd.optimal_measurement(derivs, j, h)
        g = bd.classical_fisher(derivs, sol.measurement)
        worst = max(worst, float(np.max(np.abs(g - sol.fisher_target))))
    return CheckResult("optimal-measurement-fisher", worst <= 1e-8,
                       f"max |g - target| = {worst:.3e} (tol 1e-08, {cases} cases)")


def check_bound_ordering(rng, cases: int = 40) -> CheckResult:
    """Tr H g(M)^-1 >= (Tr R)^2 >= Tr H J^-1 for random POVMs."""
    xs, hs, parts = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        a = rng.standard_normal((3, 3))
        hs.append(a @ a.T + 0.2 * np.eye(3))
        parts.append(ms.random_povm_parts(2, int(rng.integers(4, 8)), rng))
    gs = _random_povm_fishers(st.qubit_slds(np.array(xs)), np.arange(cases), parts)
    # a POVM whose Fisher matrix is numerically singular is skipped
    keep = ~(np.linalg.eigvalsh(gs)[:, 0] < 1e-10)
    h, j = np.array(hs)[keep], st.qubit_qfi(np.array(xs)[keep])
    bound = bd.qcr_min_trace(j, h).bound
    gaps1 = np.trace(h @ np.linalg.inv(gs[keep]), axis1=-2, axis2=-1) - bound
    gaps2 = bound - np.trace(h @ np.linalg.inv(j), axis1=-2, axis2=-1)
    min_gap1 = float(np.min(gaps1, initial=np.inf))
    min_gap2 = float(np.min(gaps2, initial=np.inf))
    passed = min_gap1 >= -1e-8 and min_gap2 >= -1e-8
    return CheckResult("bound-ordering", passed,
                       f"min gaps = {min_gap1:.3e}, {min_gap2:.3e}")


def check_feasible_fisher_injectivity(rng, cases: int = 20) -> CheckResult:
    """Distinct feasible Fisher matrices come from weights with distinct
    optimal-Fisher targets, and each target reproduces its source."""
    min_sep = np.inf
    worst_round = 0.0
    for _ in range(cases):
        x = _random_interior_point(rng)
        j = st.qubit_qfi(x)
        sq_j = psd_sqrt(j)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((3, 3))
            g0 = a @ a.T + 0.1 * np.eye(3)
            g0 /= np.trace(g0)
            mats.append(sq_j @ g0 @ sq_j)
        f1, f2 = mats
        targets = []
        for f in (f1, f2):
            w, feasible = bd.weight_from_fisher(f, j)
            if not feasible:
                raise AssertionError("constructed Fisher matrix should be feasible")
            target = bd.qcr_min_trace(j, w).fisher_target
            worst_round = max(worst_round, float(np.max(np.abs(target - f))))
            targets.append(target)
        min_sep = min(min_sep, float(np.max(np.abs(targets[0] - targets[1]))))
    passed = worst_round <= 1e-8 and min_sep > 1e-8
    return CheckResult("feasible-fisher-injectivity", passed,
                       f"max roundtrip defect = {worst_round:.3e}, min separation = {min_sep:.3e}")


def check_povm_json_roundtrip(rng) -> CheckResult:
    """POVM serialization survives a JSON round trip bit for bit."""
    import json

    worst = 0.0
    for povm in (ms.qubit_tomography_povm(),
                 ms.mub_tomography_povm(ms.mub_bases(3)),
                 ms.random_povm(2, 4, rng)):
        doc = json.loads(json.dumps(povm.to_json_dict()))
        back = ms.Povm.from_json_dict(doc)
        if back.labels != povm.labels or back.provenance != povm.provenance:
            return CheckResult("povm-json-roundtrip", False, "metadata changed")
        worst = max(worst, float(np.max(np.abs(back.ops - povm.ops))))
    return CheckResult("povm-json-roundtrip", worst == 0.0,
                       f"max entry change {worst:.1e}")


def lemma_suite(seed: int = 1) -> list:
    rng = np.random.default_rng(seed)
    return [
        check_povm_json_roundtrip(rng),
        check_rank_one_hat_fisher(rng),
        check_info_trace_bound(rng),
        check_fisher_convexity(rng),
        check_unit_trace_minimum(rng),
        check_tomography_weight_optimality(rng),
        check_unit_info_identity(rng),
        check_optimal_measurement_fisher(rng),
        check_bound_ordering(rng),
        check_feasible_fisher_injectivity(rng),
    ]


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------

def check_closed_vs_numeric_grid(rng) -> CheckResult:
    """Closed-form c and c_T match the generic bound and Fisher routes on a
    radius grid times random directions times three weights."""
    radii = np.arange(0.0, 0.96, 0.05)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    weights = (*bd.ROT_WEIGHTS.values(), lambda r: bd.RotWeight(2.0, 0.5))
    worst = float(bd.rot_merit_sweep(weights, radii, dirs)[2].max())
    return CheckResult("closed-vs-numeric-grid", worst <= 1e-8,
                       f"max |closed - numeric| = {worst:.3e} over {len(radii) * 20 * 3} points")


def check_limit_values() -> CheckResult:
    """Known limits: identity weight gives 4 and 6 at the boundary; the
    Fisher weight keeps the optimum at 9 while the tomography value blows up."""
    v = np.ones(3) / np.sqrt(3)
    ident = bd.RotWeight(1.0, 1.0)
    c_near_one = bd.c_opt_closed(ident, 1.0 - 1e-8)
    ct_near_one = bd.c_tomo_closed(ident, (1.0 - 1e-8) * v)
    ok = 4.0 <= c_near_one <= 4.01 and 5.99 <= ct_near_one <= 6.01
    ct_at_9999 = bd.c_tomo_closed(ident, 0.9999 * v)
    ok = ok and 5.99 <= ct_at_9999 <= 6.01
    worst_nine = 0.0
    for r in np.arange(0.0, 0.996, 0.05):
        worst_nine = max(worst_nine, abs(bd.c_opt_closed(bd.qfi_rot_weight(r), r) - 9.0))
    ct_fisher = bd.c_tomo_closed(bd.qfi_rot_weight(0.995), 0.995 * v)
    ok = ok and worst_nine <= 1e-8 and ct_fisher > 100.0
    return CheckResult("limit-values", ok,
                       f"c(1-1e-8) = {c_near_one:.6f}, cT(1-1e-8) = {ct_near_one:.6f}, "
                       f"max |c_J - 9| = {worst_nine:.2e}, cT_J(0.995) = {ct_fisher:.1f}")


def check_excess_nonnegative(rng, cases: int = 200) -> CheckResult:
    """c_T - c >= 0 for random rotational weights, the closed forms'
    difference agreeing with the sum of squares of tomo_excess."""
    xs, hs, closed = [], [], []
    for _ in range(cases):
        x = _random_interior_point(rng, rmax=0.95)
        w = bd.RotWeight(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        closed.append(bd.c_tomo_closed(w, x) - bd.c_opt_closed(w, float(np.linalg.norm(x))))
        xs.append(x)
        hs.append(bd.rot_weight_along(w, x))
    closed = np.array(closed)
    min_excess = float(closed.min())
    worst = float(np.max(np.abs(closed - bd.tomo_excess(np.array(xs), np.array(hs)))))
    passed = min_excess >= -1e-10 and worst <= 1e-8
    return CheckResult("excess-nonnegative", passed,
                       f"min excess = {min_excess:.3e}, max |closed - sum of squares| = {worst:.3e}")


def check_mub_bound_sweep() -> CheckResult:
    """For dims 3 and 4 the tomography value dominates the generic lower
    bound along the first affine direction and grows near the boundary."""
    ok = True
    notes = []
    radii = np.arange(0.05, 0.91, 0.05)
    for q in (3, 4):
        rows = bd.mub_tomography_sweep(ms.mub_bases(q), radii)
        cts = [ct for _, _, ct in rows]
        # every radius lies inside the state space, so the sweep must not stop
        ok = ok and len(rows) == len(radii)
        ok = ok and all(ct >= cgm - 1e-9 for _, cgm, ct in rows)
        ok = ok and all(ct > prev for (r, _, ct), prev in zip(rows[1:], cts) if r >= 0.5)
        ok = ok and cts[-1] > 2.0 * cts[0]
        notes.append(f"q={q}: cT range [{cts[0]:.1f}, {cts[-1]:.1f}]")
    return CheckResult("mub-bound-sweep", ok, "; ".join(notes))


def bound_suite(seed: int = 1) -> list:
    rng = np.random.default_rng(seed)
    return [
        check_closed_vs_numeric_grid(rng),
        check_limit_values(),
        check_excess_nonnegative(rng),
        check_mub_bound_sweep(),
    ]


# ---------------------------------------------------------------------------
# Monte Carlo smoke suite
# ---------------------------------------------------------------------------

def mc_smoke_suite(seed: int = 1) -> list:
    x0 = np.array([0.55, 0.55, 0.55])
    cfg = sim.RunConfig(x0=x0, weight="qfi", m_max=1000, reps=50, seed=seed)
    results = sim.monte_carlo(cfg)
    tomo = results["tomography"]
    adap = results["adaptive"]
    checks = []

    rerun = sim.monte_carlo(cfg, estimators=("tomography",))["tomography"]
    checks.append(CheckResult(
        "mc-determinism", rerun.to_csv() == tomo.to_csv(),
        "re-run with identical config reproduces the summary byte for byte"))

    dev = abs(tomo.mean_sq[-1] - 3.0 * (3.0 - float(x0 @ x0)))
    lim = 6.0 * tomo.se_sq[-1]
    checks.append(CheckResult(
        "mc-tomography-sq", dev <= lim,
        f"|mean m|dx|^2 - theory| = {dev:.3f} vs 6 se = {lim:.3f}"))

    rel = abs(adap.mean_bures[-1] - adap.c_opt) / adap.c_opt
    checks.append(CheckResult(
        "mc-adaptive-near-bound", rel <= 0.35,
        f"adaptive 2mB at m=1000 within {100 * rel:.1f}% of {adap.c_opt:.2f}"))

    gap = tomo.mean_bures[-1] - adap.mean_bures[-1]
    se = float(np.hypot(tomo.se_bures[-1], adap.se_bures[-1]))
    checks.append(CheckResult(
        "mc-adaptive-dominates", gap > 3.0 * se,
        f"tomography - adaptive = {gap:.2f} vs 3 se = {3 * se:.2f}"))
    return checks


def run_suite(name: str, seed: int = 1) -> list:
    if name == "lemmas":
        return lemma_suite(seed)
    if name == "bounds":
        return bound_suite(seed)
    if name == "mc-smoke":
        return mc_smoke_suite(seed)
    if name == "all":
        return lemma_suite(seed) + bound_suite(seed) + mc_smoke_suite(seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
