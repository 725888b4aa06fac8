"""Self-contained verification suites driven by the CLI.

Each check re-derives a property of the library from an independent route
(closed form vs numerics, bound vs brute force over random measurements,
statistics vs theory) and reports pass/fail with a scalar witness.
"""

from __future__ import annotations

import math
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


def _require_size(name: str, value, multiple: int = 1) -> None:
    """Reject a check's size argument that is not a positive integer
    multiple of `multiple`, before the check draws anything."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1 or value % multiple):
        kind = "integer" if multiple == 1 else f"multiple of {multiple}"
        raise ValueError(f"{name} must be a positive {kind}, got {value!r}")


def _random_interior_point(rng, rmax: float = 0.9) -> np.ndarray:
    x = rng.standard_normal(3)
    # numpy's norm of a real vector is sqrt(x.dot(x))
    return x * (rng.random() * rmax / math.sqrt(x.dot(x)))


def _random_mub_point(q: int, family, rng, scale: float = 0.04) -> np.ndarray:
    # small coordinates keep the affine state comfortably positive
    for _ in range(200):
        coords = rng.uniform(-scale, scale, size=(q + 1, q - 1))
        if st._mub_states(coords, family)[1] > 0.0:
            return coords
    raise RuntimeError("could not sample a positive affine state")


def _random_povm_ops(parts) -> np.ndarray:
    """Checked elements (len(parts), n, q, q) of the random POVMs drawn as
    Gaussian parts (n_i, 2, q, q), from one Wishart map.

    Each POVM is padded with zero parts up to the largest outcome count n.
    A zero part gives a zero element, which adds exactly 0.0 to the
    sequential sum over outcomes and nothing to a Fisher matrix, since
    classical_fisher skips a probability-0 outcome with zero derivative.  A
    POVM's own elements have the bits of random_povm on the same draw.
    """
    n = max(len(p) for p in parts)
    padded = np.zeros((len(parts), n) + parts[0].shape[1:])
    for row, p in zip(padded, parts):
        row[:len(p)] = p
    ops = ms.wishart_ops(padded)
    ms.check_povm_ops(ops)
    return ops


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------

def check_rank_one_hat_fisher(rng, cases: int = 50) -> CheckResult:
    """PVM of a normalized SLD combination has normalized Fisher |v><v|."""
    _require_size("cases", cases)
    xs, gaussians, vs = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        gaussians.append(rng.standard_normal((3, 3)))
        vs.append(rng.standard_normal(3))
    x, v = np.array(xs), np.array(vs)
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    derivs, j = st.qubit_slds(x), st.qubit_qfi(x)
    u = np.linalg.qr(np.array(gaussians))[0]
    k_mat = u.mT @ bd._sqrt_and_inv_sqrt(j)[1]
    # summed term by term from 0, as a single case's Python sum
    l_v = sum(v[:, i, None, None] * sum(k_mat[:, i, k, None, None] * derivs.slds[k]
                                        for k in range(3))
              for i in range(3))
    pvm = ms.pvm_from_observable(l_v)
    ghat = bd.hat_fisher(bd.classical_fisher(derivs, pvm), j, u)
    worst = float(np.max(np.abs(ghat - v[:, :, None] * v[:, None, :])))
    return CheckResult("rank-one-hat-fisher", worst <= 1e-8,
                       f"max |ghat - vv^T| = {worst:.3e} (tol 1e-08, {cases} cases)")


def check_info_trace_bound(rng, povms_per_dim: int = 100) -> CheckResult:
    """Tr of the normalized Fisher matrix never exceeds dim - 1.

    POVM i is scored at point i % 10, so povms_per_dim is a multiple of 10:
    as row i // 10, column i % 10 of a (povms_per_dim // 10, 10) stack, POVM
    i meets its point by broadcasting, and each J is decomposed once.
    """
    _require_size("povms_per_dim", povms_per_dim, multiple=10)
    worst_excess = -np.inf
    for q in (2, 3, 4):
        if q == 2:
            points = st.qubit_slds([_random_interior_point(rng) for _ in range(10)])
        else:
            family = ms.mub_bases(q)
            points = st.mub_derivatives([_random_mub_point(q, family, rng) for _ in range(10)],
                                        family)
        qfis = st.model_qfi(points)
        parts = [ms.random_povm_parts(q, int(rng.integers(2, 2 * q + 2)), rng)
                 for _ in range(povms_per_dim)]
        ops = _random_povm_ops(parts)
        gs = bd.classical_fisher(points, ops.reshape((povms_per_dim // 10, 10) + ops.shape[1:]))
        ghat = bd.hat_fisher(gs, qfis)
        worst_excess = max(worst_excess,
                           float(np.max(np.trace(ghat, axis1=-2, axis2=-1))) - (q - 1))
    return CheckResult("info-trace-bound", worst_excess <= 1e-9,
                       f"max (Tr ghat - (q-1)) = {worst_excess:.3e} (tol 1e-09)")


def check_fisher_convexity(rng, cases: int = 30) -> CheckResult:
    """g of a randomized combination is the probability mix of the g's."""
    _require_size("cases", cases)
    xs, parts, ps = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        parts.append(ms.random_povm_parts(2, int(rng.integers(2, 5)), rng))
        parts.append(ms.random_povm_parts(2, int(rng.integers(2, 5)), rng))
        ps.append(rng.random())
    # case i mixes POVM 2i with probability p[i] and POVM 2i + 1 with
    # 1 - p[i]: pairs[k, i] is POVM 2i + k, which meets point i
    points, p = st.qubit_slds(np.array(xs)), np.array(ps)
    ops = _random_povm_ops(parts)
    pairs = ops.reshape((cases, 2) + ops.shape[1:]).swapaxes(0, 1)
    gs = bd.classical_fisher(points, pairs)
    rhs = p[:, None, None] * gs[0] + (1.0 - p[:, None, None]) * gs[1]
    # the padding's zero elements stay zero in the mixture
    w = p[:, None, None, None]
    mixed = np.concatenate([w * pairs[0], (1.0 - w) * pairs[1]], axis=-3)
    ms.check_povm_ops(mixed)
    worst = float(np.max(np.abs(bd.classical_fisher(points, mixed) - rhs)))
    return CheckResult("fisher-convexity", worst <= 1e-10,
                       f"max |g(mix) - mix(g)| = {worst:.3e} (tol 1e-10)")


def check_unit_trace_minimum(rng, cases: int = 20) -> CheckResult:
    """The minimum of Tr S G^-1 over unit-trace G matches (Tr sqrt(S))^2;
    the convexity gap certifies the numeric value apart from the closed
    form."""
    _require_size("cases", cases)
    draws = {2: ([], []), 3: ([], [])}
    for _ in range(cases):
        d = int(rng.integers(2, 4))
        gaussians, values = draws[d]
        gaussians.append(rng.standard_normal((d, d)))
        values.append(rng.uniform(0.2, 3.0, size=d))
    worst = 0.0
    for d, (gaussians, values) in draws.items():
        if not gaussians:
            continue
        q = np.linalg.qr(np.array(gaussians))[0]
        # np.array(values)[..., None] * I is np.diag of each row
        s = q @ (np.array(values)[..., None] * np.eye(d)) @ q.mT
        s = (s + s.mT) / 2
        numeric, _ = bd.min_trace_unit_trace(s)
        closed = np.float_power(np.trace(psd_sqrt(s), axis1=-2, axis2=-1), 2)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    return CheckResult("unit-trace-minimum", worst <= 1e-5,
                       f"max |numeric - closed| = {worst:.3e} (tol 1e-05, {cases} cases)")


def check_tomography_weight_optimality(rng, cases: int = 20) -> CheckResult:
    """Tomography attains the bound for its special weight and misses it
    for the identity weight off the axes."""
    _require_size("cases", cases)
    xs, offs = [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        x_off = rng.uniform(0.08, 0.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        offs.append(x_off * min(0.9 / np.linalg.norm(x_off), 1.0))
    x = np.array(xs)
    h = bd.tomography_weight(x)
    attained = np.trace(h @ np.linalg.inv(bd.tomography_fisher(x)), axis1=-2, axis2=-1)
    worst_eq = float(np.max(np.abs(attained - bd.qcr_min_trace(st.qubit_qfi(x), h).bound)))
    min_gap = float(np.min(bd.tomo_excess(np.array(offs), np.eye(3))))
    passed = worst_eq <= 1e-8 and min_gap >= 10 * 1e-8
    return CheckResult("tomography-weight-optimality", passed,
                       f"max equality defect = {worst_eq:.3e}, min off-axis gap = {min_gap:.3e}")


def check_unit_info_identity(rng, cases: int = 100) -> CheckResult:
    """Tr J^-1 g_tomo = 1 and the special weight equals 9 g J^-1 g."""
    _require_size("cases", cases)
    x = np.array([_random_interior_point(rng) for _ in range(cases)])
    jinv = np.linalg.inv(st.qubit_qfi(x))
    g = bd.tomography_fisher(x)
    worst_tr = float(np.max(np.abs(np.trace(jinv @ g, axis1=-2, axis2=-1) - 1.0)))
    rebuilt = 9.0 * g @ jinv @ g
    worst_h = float(np.max(np.abs(rebuilt - bd.tomography_weight(x))))
    passed = worst_tr <= 1e-10 and worst_h <= 1e-9
    return CheckResult("unit-info-identity", passed,
                       f"max |Tr J^-1 g - 1| = {worst_tr:.3e}, max weight defect = {worst_h:.3e}")


def check_optimal_measurement_fisher(rng, cases: int = 40) -> CheckResult:
    """Constructed random measurement has exactly the target Fisher matrix."""
    _require_size("cases", cases)
    xs, gaussians, diags = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        gaussians.append(rng.standard_normal((3, 3)))
        diags.append(rng.uniform(0.1, 1.0, size=3))
    x, a = np.array(xs), np.array(gaussians)
    h = a @ a.mT + np.array(diags)[:, :, None] * np.eye(3)
    derivs = st.qubit_slds(x)
    sol = bd.optimal_measurement(derivs, st.qubit_qfi(x), h)
    g = bd.classical_fisher(derivs, sol.measurement)
    worst = float(np.max(np.abs(g - sol.fisher_target)))
    return CheckResult("optimal-measurement-fisher", worst <= 1e-8,
                       f"max |g - target| = {worst:.3e} (tol 1e-08, {cases} cases)")


def check_bound_ordering(rng, cases: int = 40) -> CheckResult:
    """Tr H g(M)^-1 >= (Tr R)^2 >= Tr H J^-1 for random POVMs."""
    _require_size("cases", cases)
    xs, hs, parts = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        a = rng.standard_normal((3, 3))
        hs.append(a @ a.T + 0.2 * np.eye(3))
        parts.append(ms.random_povm_parts(2, int(rng.integers(4, 8)), rng))
    # POVM i at point i
    gs = bd.classical_fisher(st.qubit_slds(np.array(xs)), _random_povm_ops(parts))
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
    _require_size("cases", cases)
    xs, gaussians = [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng))
        gaussians.append([rng.standard_normal((3, 3)) for _ in range(2)])
    # two Fisher matrices per case, row i of the (cases, 2) stacks at point i
    j = st.qubit_qfi(np.array(xs))[:, None]
    sq_j = psd_sqrt(j)
    a = np.array(gaussians)
    g0 = a @ a.mT + 0.1 * np.eye(3)
    g0 /= np.trace(g0, axis1=-2, axis2=-1)[..., None, None]
    f = sq_j @ g0 @ sq_j
    w, feasible = bd.weight_from_fisher(f, j)
    if not feasible.all():
        raise AssertionError("constructed Fisher matrix should be feasible")
    targets = bd.qcr_min_trace(j, w).fisher_target
    worst_round = float(np.max(np.abs(targets - f)))
    min_sep = float(np.min(np.max(np.abs(targets[:, 0] - targets[:, 1]), axis=(-2, -1))))
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
    radii = np.arange(0.0, 0.996, 0.05)
    worst_nine = float(np.max(np.abs(bd.c_opt_closed(bd.qfi_rot_weight(radii), radii) - 9.0)))
    ct_fisher = bd.c_tomo_closed(bd.qfi_rot_weight(0.995), 0.995 * v)
    ok = ok and worst_nine <= 1e-8 and ct_fisher > 100.0
    return CheckResult("limit-values", ok,
                       f"c(1-1e-8) = {c_near_one:.6f}, cT(1-1e-8) = {ct_near_one:.6f}, "
                       f"max |c_J - 9| = {worst_nine:.2e}, cT_J(0.995) = {ct_fisher:.1f}")


def check_excess_nonnegative(rng, cases: int = 200) -> CheckResult:
    """c_T - c >= 0 for random rotational weights, the closed forms'
    difference agreeing with the sum of squares of tomo_excess."""
    _require_size("cases", cases)
    xs, transverse, radial = [], [], []
    for _ in range(cases):
        xs.append(_random_interior_point(rng, rmax=0.95))
        transverse.append(rng.uniform(0.1, 3.0))
        radial.append(rng.uniform(0.1, 3.0))
    x = np.array(xs)
    w = bd.RotWeight(np.array(transverse), np.array(radial))
    closed = bd.c_tomo_closed(w, x) - bd.c_opt_closed(w, np.sqrt(np.vecdot(x, x)))
    min_excess = float(closed.min())
    worst = float(np.max(np.abs(closed - bd.tomo_excess(x, bd.rot_weight_along(w, x)))))
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
