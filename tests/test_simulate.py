import dataclasses
import re
import warnings

import numpy as np
import pytest

from qest.measurements import bloch_pvm_mixture
from qest.simulate import (
    BLOCK_TRIALS,
    RunConfig,
    adaptive_run,
    checkpoint_schedule,
    clamp_to_ball,
    mle_maximize,
    monte_carlo,
    theoretical_merits,
    tomography_estimate,
    _merits,
    _optimal_branches,
    _tomography_estimates,
    _trial_block,
)
from qest.states import qubit_qfi, qubit_state
from qest.bounds import (ROT_WEIGHTS, classical_fisher, qcr_min_trace, resolve_weight,
                         tomography_weight)
from qest.states import qubit_slds

X0 = np.array([0.55, 0.55, 0.55])


class TestClampToBall:
    def test_interior_unchanged(self):
        assert np.allclose(clamp_to_ball(np.zeros(3)), np.zeros(3))

    def test_radial_projection(self):
        out = clamp_to_ball(np.array([2.0, 0.0, 0.0]), eps=1e-6)
        assert np.allclose(out, [1 - 1e-6, 0.0, 0.0])

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], [np.inf, 0.0, 0.5]])
    def test_non_finite_point_named(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^point \[.*\] has non-finite entries$"):
                clamp_to_ball(x, 0.01)

    def test_huge_finite_point_lands_on_the_sphere(self):
        # x0*x0 overflows here; the clamp keeps the point's direction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = clamp_to_ball([1e200, 0.0, 0.0], 0.01)
            assert abs(out[0] - 0.99) <= np.spacing(0.99)
            assert out[1] == out[2] == 0.0
            assert _design_norm(out) <= 0.99
            diag = clamp_to_ball([1e200, -1e200, 0.0], 0.01)
            assert diag[0] == -diag[1] > 0.0 and diag[2] == 0.0
            assert diag[0] == pytest.approx(0.99 / np.sqrt(2.0), rel=1e-15)
            assert _design_norm(diag) <= 0.99

    def test_boundary_estimate_becomes_valid_state(self):
        est = tomography_estimate(np.array([[0, 10], [3, 7], [5, 5]]))
        assert est[0] == 1.0
        qubit_state(clamp_to_ball(est))  # must not raise

    @pytest.mark.parametrize("eps", [1.0, -0.5, float("nan")])
    def test_margin_outside_the_unit_interval_named(self, eps):
        # eps = 1 collapsed every point to the origin, eps < 0 kept a point
        # outside the state space, and a NaN was reported as a bad point;
        # RunConfig names the same margin with the same message
        message = rf"^eps_ball must lie strictly between 0 and 1, got {eps!r}$"
        for call in (lambda: clamp_to_ball([0.5, 0.0, 0.0], eps),
                     lambda: clamp_to_ball([1.2, 0.0, 0.0], eps),
                     lambda: mle_maximize(np.ones(2), [[0.0, 0.0, 0.5], [0.5, 0.0, 0.0]],
                                          np.zeros(3), eps_ball=eps),
                     lambda: RunConfig(x0=X0, eps_ball=eps)):
            with pytest.raises(ValueError, match=message):
                call()


class TestCheckpointSchedule:
    def test_geometric_and_final(self):
        points = checkpoint_schedule(3000)
        assert points[-1] == 3000
        assert points[0] == 1
        assert np.all(np.diff(points) > 0)
        # roughly ten per decade
        per_decade = np.sum((points >= 100) & (points < 1000))
        assert 8 <= per_decade <= 11


class TestRunTomography:
    def test_estimator_arithmetic(self):
        est = tomography_estimate(np.array([[3, 7], [2, 2], [0, 0]]))
        assert est[0] == pytest.approx(0.4)
        assert est[1] == pytest.approx(0.0)
        assert est[2] == 0.0  # never measured: estimate 0

    def test_concentration_at_origin(self):
        rng = np.random.default_rng(2)
        est = _tomography_estimates(np.zeros(3), [100000], [rng])[0, 0]
        # per-axis variance about 3/m
        assert np.linalg.norm(est) <= 0.05

    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        x0 = np.array([0.3, -0.2, 0.5])
        reps, m = 10000, 300
        acc = np.zeros(3)
        for _ in range(reps):
            acc += _tomography_estimates(x0, [m], [rng])[0, 0]
        mean = acc / reps
        stderr = np.sqrt(3 * (3 - x0 @ x0) / m / reps)  # per-component scale
        assert np.max(np.abs(mean - x0)) <= 4 * stderr


class TestMleMaximize:
    def test_tomography_history_matches_closed_form(self):
        # balanced counts put the maximizer strictly inside the ball, where
        # the per-axis frequency estimator is the exact maximum
        counts = {"1": (6, 14), "2": (9, 11), "3": (4, 16)}
        traces, bloch = [], []
        for mu, (minus, plus) in enumerate(counts.values()):
            axis = np.zeros(3)
            axis[mu] = 1.0
            for _ in range(minus):
                traces.append(1 / 3)
                bloch.append(-axis / 3)
            for _ in range(plus):
                traces.append(1 / 3)
                bloch.append(axis / 3)
        x, ok = mle_maximize(np.array(traces), np.array(bloch), np.zeros(3))
        assert ok
        expected = np.array([(14 - 6) / 20, (11 - 9) / 20, (16 - 4) / 20])
        assert np.max(np.abs(x - expected)) <= 1e-6

    def test_single_outcome_boundary(self):
        # one outcome (I + sigma_3)/2: likelihood increases with x3
        x, ok = mle_maximize(np.array([1.0]), np.array([[0.0, 0.0, 1.0]]),
                             np.zeros(3), eps_ball=1e-6)
        assert ok
        assert x[2] > 0
        assert np.linalg.norm(x) == pytest.approx(1 - 1e-6, abs=1e-9)

    def test_multistart_consistency(self):
        rng = np.random.default_rng(4)
        traces = np.full(60, 1 / 3)
        bloch = np.zeros((60, 3))
        for i in range(60):
            axis = np.zeros(3)
            axis[i % 3] = 1.0
            bloch[i] = axis / 3 * (1 if rng.random() < 0.7 else -1)
        baseline, _ = mle_maximize(traces, bloch, np.zeros(3))
        from qest.simulate import _log_likelihood
        l_base = _log_likelihood(traces, bloch, baseline)
        for _ in range(5):
            start = rng.standard_normal(3)
            start *= 0.8 * rng.random() / np.linalg.norm(start)
            x, _ = mle_maximize(traces, bloch, start)
            assert abs(_log_likelihood(traces, bloch, x) - l_base) <= 1e-5

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            mle_maximize(np.empty(0), np.empty((0, 3)), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["traces", "bloch"])
    def test_non_finite_history_named(self, where, bad):
        # an infinite trace used to return the start point, certified
        traces, bloch = np.ones(4), np.zeros((4, 3))
        bloch[:, 2] = 0.5
        if where == "traces":
            traces[0] = bad
        else:
            bloch[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^history has non-finite traces or Bloch rows$"):
                mle_maximize(traces, bloch, np.zeros(3))

    @pytest.mark.parametrize("traces, bloch", [
        (np.ones(4), np.zeros((3, 3))),
        (np.ones(4), np.zeros((3, 4))),
        (np.ones((4, 1)), np.zeros((4, 3))),
        (np.ones(3), np.zeros(3)),
    ])
    def test_unpaired_history_named(self, traces, bloch):
        message = (r"^history needs traces \(m,\) and Bloch rows \(m, 3\), "
                   rf"got {re.escape(str(traces.shape))} and {re.escape(str(bloch.shape))}$")
        with pytest.raises(ValueError, match=message):
            mle_maximize(traces, bloch, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 7, 3000])
    def test_bloch_products_of_a_history_view(self, n):
        # adaptive_run passes the first n columns of its (3, m_max) history
        from qest.simulate import _bloch_products
        bloch = np.random.default_rng(n).standard_normal((3, 3000))
        b0, b1, b2 = view = bloch[:, :n]
        want = np.array([b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2])
        assert np.array_equal(_bloch_products(view), want)


class TestOptimalBranches:
    def test_origin_rotational_weight_gives_pauli_mix(self):
        probs, axes = _probs_axes(_optimal_branches(np.zeros(3), np.eye(3)))
        assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(np.abs(axes), np.eye(3), atol=1e-12)

    def test_matches_generic_construction(self):
        from qest.bounds import optimal_measurement
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(3)
            x *= rng.random() * 0.85 / np.linalg.norm(x)
            a = rng.standard_normal((3, 3))
            h = a @ a.T + 0.3 * np.eye(3)
            derivs = qubit_slds(x)
            j = qubit_qfi(x)
            sol = optimal_measurement(derivs, j, h)
            probs, axes = _probs_axes(_optimal_branches(x, h))
            # same Fisher matrix either way
            g_fast = classical_fisher(derivs, bloch_pvm_mixture(probs, axes))
            assert np.max(np.abs(g_fast - sol.fisher_target)) <= 1e-8


    @pytest.mark.parametrize("weight", ["custom"])
    def test_generic_weights_match_the_closed_form_sqrt_j_route(self, weight):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 0.3 * np.eye(3)
        points = [np.zeros(3)]
        for _ in range(50):
            x = rng.standard_normal(3)
            points.append(x * rng.random() * 0.95 / np.linalg.norm(x))
        for x in points:
            probs, axes = map(np.asarray, _probs_axes(_optimal_branches(x, h)))
            old_probs, old_axes = _sqrt_j_route(x, h)
            assert probs.shape == old_probs.shape
            assert np.max(np.abs(probs - old_probs)) <= 1e-12
            signs = np.sign(np.sum(axes * old_axes, axis=1))
            assert np.max(np.abs(axes - signs[:, None] * old_axes)) <= 1e-10

    def test_pauli_mixture_attains_the_optimum_of_the_tomography_weight(self):
        from qest.bounds import qubit_design, tomography_fisher
        rng = np.random.default_rng(45)
        for _ in range(250):
            x = rng.standard_normal(3)
            x *= rng.random() * 0.999 / np.linalg.norm(x)
            j = qubit_qfi(x)
            target = qubit_design(j, j, tomography_weight(x)).fisher_target
            assert (np.max(np.abs(tomography_fisher(x) - target))
                    <= 1e-10 * np.max(np.abs(target)))


def _sqrt_j_route(x, h):
    """Design branches through the closed-form sqrt(J) of the Stokes model
    and one eigendecomposition of the core J^-1/2 H J^-1/2."""
    r2 = float(x @ x)
    s = np.sqrt(1.0 - r2)
    if r2 > 0.0:
        en = x / np.sqrt(r2)
        proj = np.outer(en, en)
        sqrt_j = np.eye(3) + (1.0 / s - 1.0) * proj
        inv_sqrt_j = np.eye(3) + (s - 1.0) * proj
    else:
        sqrt_j = inv_sqrt_j = np.eye(3)
    core = inv_sqrt_j @ h @ inv_sqrt_j
    scales, basis = np.linalg.eigh((core + core.T) / 2)
    scales = np.sqrt(np.clip(scales, 0.0, None))  # eigenvalues of R
    axes = basis.T @ sqrt_j
    probs = scales / scales.sum()
    keep = probs > 1e-15
    axes = axes[keep]
    return probs[keep] / probs[keep].sum(), axes / np.linalg.norm(axes, axis=1)[:, None]


class TestAdaptiveRun:
    def test_smallest_case(self):
        cfg = RunConfig(x0=X0, weight="qfi", m_max=1, reps=1, seed=0)
        rec = adaptive_run(cfg, np.random.default_rng(0))
        assert len(rec.labels) == 1
        assert rec.element_traces.shape == (1,)
        assert rec.estimates.shape == (1, 3)

    def test_estimates_stay_in_ball(self):
        cfg = RunConfig(x0=X0, weight="identity", m_max=200, reps=1, seed=1)
        rec = adaptive_run(cfg, np.random.default_rng((1, 1, 0)))
        for est in rec.estimates:
            assert np.linalg.norm(est) <= 1.0 - cfg.eps_ball + 1e-12


class TestMonteCarlo:
    def test_determinism_and_thread_independence(self):
        cfg = RunConfig(x0=X0, weight="qfi", m_max=120, reps=6, seed=9)
        first = monte_carlo(cfg, threads=1)
        second = monte_carlo(cfg, threads=2)
        for kind in ("tomography", "adaptive"):
            assert first[kind].to_csv() == second[kind].to_csv()

    def test_csv_columns_and_roundtrip(self):
        cfg = RunConfig(x0=X0, weight="qfi", m_max=50, reps=3, seed=2)
        summary = monte_carlo(cfg, estimators=("tomography",), threads=1)["tomography"]
        text = summary.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "m,estimator,meanBures,seBures,meanSq,seSq,cOpt,cTomo"
        for line, row in zip(lines[1:], summary.to_rows()):
            parts = line.split(",")
            assert int(parts[0]) == row[0]
            for text_value, value in zip(parts[2:], row[2:]):
                assert float(text_value) == value

    def test_theoretical_lines(self):
        cfg = RunConfig(x0=X0, weight="qfi", m_max=10, reps=1, seed=0)
        c, ct = theoretical_merits(cfg)
        r2 = float(X0 @ X0)
        assert c == pytest.approx(9.0)
        assert ct == pytest.approx(9 + 2 * r2 ** 2 / (1 - r2), abs=1e-9)
        cfg_i = RunConfig(x0=X0, weight="identity", m_max=10, reps=1, seed=0)
        c_i, ct_i = theoretical_merits(cfg_i)
        assert c_i == pytest.approx((2 + np.sqrt(1 - r2)) ** 2)
        assert ct_i == pytest.approx(3 * (3 - r2))

    def test_custom_weight_lines_match_generic_route(self):
        h = tomography_weight(X0)
        cfg = RunConfig(x0=X0, weight=h, m_max=10, reps=1, seed=0)
        c, ct = theoretical_merits(cfg)
        assert c == pytest.approx(qcr_min_trace(qubit_qfi(X0), h).bound)
        # tomography attains the bound for exactly this weight
        assert ct == pytest.approx(c, abs=1e-9)

    def test_tomography_selector_lines_are_nine(self):
        from qest.bounds import tomography_fisher
        assert theoretical_merits(RunConfig(x0=X0, weight="tomography")) == (9.0, 9.0)
        rng = np.random.default_rng(46)
        for _ in range(250):
            x0 = rng.standard_normal(3)
            x0 *= rng.random() * 0.99 / np.linalg.norm(x0)
            h = tomography_weight(x0)
            assert theoretical_merits(RunConfig(x0=x0, weight="tomography")) == (9.0, 9.0)
            assert abs(qcr_min_trace(qubit_qfi(x0), h).bound - 9.0) <= 1e-12
            assert abs(np.trace(h @ np.linalg.inv(tomography_fisher(x0))) - 9.0) <= 1e-12


class TestMeritEquivalence:
    def test_bures_vs_quadratic_ratio(self):
        # at a moderate radius the cubic remainder is small relative to the
        # squared error by m = 4000
        x0 = np.array([0.3, 0.2, 0.25])
        j0 = qubit_qfi(x0)
        rho0 = qubit_state(x0)
        from qest.states import bures_distance
        ratios = []
        for trial in range(200):
            rng = np.random.default_rng((77, 0, trial))
            est = _tomography_estimates(x0, [4000], [rng])[0, 0]
            dx = x0 - est
            bures = bures_distance(rho0, qubit_state(clamp_to_ball(est)))
            num = abs(2 * 4000 * bures - 4000 * dx @ j0 @ dx)
            den = 4000 * float(dx @ dx)
            ratios.append(num / den)
        assert np.mean(ratios) <= 0.05


class TestTomographyMeritConvergence:
    def test_weighted_covariance_reaches_fisher_limit(self):
        # mean of m (xhat - x0)^T H (xhat - x0) approaches Tr H g_tomo^-1
        from qest.bounds import tomography_fisher
        m, reps = 4000, 800
        x0 = X0
        ginv = np.linalg.inv(tomography_fisher(x0))
        for h in (np.eye(3), qubit_qfi(x0)):
            target = float(np.trace(h @ ginv))
            merits = np.empty(reps)
            for trial in range(reps):
                rng = np.random.default_rng((555, 0, trial))
                dx = _tomography_estimates(x0, [m], [rng])[0, 0] - x0
                merits[trial] = m * float(dx @ h @ dx)
            se = merits.std(ddof=1) / np.sqrt(reps)
            assert abs(merits.mean() - target) <= 5 * se


def _exact_tomography_mean_sq(x0, m):
    """m E|xhat - x0|^2 of the frequency estimator after m draws of the
    uniform Pauli mixture: axis mu's count n is Binomial(m, 1/3), given
    n > 0 its estimate is unbiased with variance (1 - x_mu^2) / n, and an
    axis with n = 0 reports 0, so the mean is
    m sum_mu [(2/3)^m x_mu^2 + (1 - x_mu^2) E[1/n; n > 0]]."""
    import math
    log_pmf = [math.lgamma(m + 1) - math.lgamma(n + 1) - math.lgamma(m - n + 1)
               + n * math.log(1 / 3) + (m - n) * math.log(2 / 3) for n in range(1, m + 1)]
    inv_n = math.fsum(math.exp(lp) / n for n, lp in zip(range(1, m + 1), log_pmf))
    x2 = np.asarray(x0) ** 2
    return m * float(np.sum((2 / 3) ** m * x2 + (1.0 - x2) * inv_n))


class TestTomographyExactFiniteMean:
    def test_every_checkpoint_of_mean_sq_matches_the_exact_mean(self):
        # at m = 1 the estimate is one signed axis: E = 1 + r^2 / 3
        assert _exact_tomography_mean_sq(X0, 1) == pytest.approx(1.0 + X0 @ X0 / 3.0)
        # statistic and bound fixed before any seed was run: the largest
        # |z| over all 33 checkpoints is at most 4, a family-wise false
        # alarm of at most 33 P(|Z| > 4) = 0.2% under the normal limit
        cfg = RunConfig(x0=X0, weight="qfi", m_max=3000, reps=4000, seed=5, eps_ball=0.01)
        summary = monte_carlo(cfg, estimators=("tomography",), threads=1)["tomography"]
        assert len(summary.checkpoints) == 33
        exact = np.array([_exact_tomography_mean_sq(X0, m) for m in summary.checkpoints.tolist()])
        z = (summary.mean_sq - exact) / summary.se_sq
        assert np.max(np.abs(z)) <= 4.0


@pytest.mark.slow
class TestAdaptiveDominatesTomography:
    def test_bures_merit_separation_fisher_weight(self):
        # the headline comparison at m = 4000: adaptive beats tomography by
        # far more than the statistical error of either mean.  The Bures
        # merit of tomography is heavy tailed, so its mean gets many cheap
        # repetitions; the adaptive mean is tight already with few.
        tomo = monte_carlo(
            RunConfig(x0=X0, weight="qfi", m_max=4000, reps=400, seed=77, eps_ball=0.01),
            estimators=("tomography",))["tomography"]
        adap = monte_carlo(
            RunConfig(x0=X0, weight="qfi", m_max=4000, reps=60, seed=77, eps_ball=0.01),
            estimators=("adaptive",))["adaptive"]
        gap = tomo.mean_bures[-1] - adap.mean_bures[-1]
        se = float(np.hypot(tomo.se_bures[-1], adap.se_bures[-1]))
        assert gap > 5 * se


@pytest.mark.slow
class TestTomographyWeightMonteCarlo:
    def test_both_schemes_reach_nine_under_the_tomography_weight(self):
        # the paper's claim: under H_T = tomography_weight(x0) plain
        # tomography is optimal, so the adaptive scheme (which then measures
        # the Pauli mixture, with the certified MLE) and the frequency
        # estimator both reach m E[dx^T H_T dx] -> 9
        m, reps, seed = 3000, 200, 11
        h = tomography_weight(X0)
        cfg = RunConfig(x0=X0, weight="tomography", m_max=m, reps=1, seed=seed, eps_ball=0.01)
        adaptive = np.array([adaptive_run(cfg, np.random.default_rng((seed, 1, i))).estimates[-1]
                             for i in range(reps)])
        tomo = _tomography_estimates(X0, [m], [np.random.default_rng((seed, 0, i))
                                               for i in range(reps)])[:, -1]
        for estimates in (adaptive, tomo):
            dx = estimates - X0
            merits = m * np.einsum("ri,ij,rj->r", dx, h, dx)
            se = merits.std(ddof=1) / np.sqrt(reps)
            assert abs(merits.mean() - 9.0) <= 4 * se


class TestResolveWeight:
    def test_selectors(self):
        assert np.allclose(resolve_weight("identity", X0), np.eye(3))
        assert np.allclose(resolve_weight("qfi", X0), qubit_qfi(X0))
        assert np.allclose(resolve_weight("tomography", X0), tomography_weight(X0))
        h = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(resolve_weight(h, X0), h)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(x0=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            RunConfig(x0=np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            RunConfig(x0=X0, weight="nonsense")
        with pytest.raises(ValueError):
            RunConfig(x0=X0, seed=-1)


class TestInputValidation:
    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_eps_ball_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError):
            RunConfig(x0=X0, eps_ball=eps)

    @pytest.mark.parametrize("eps", [7.3e-251, 1e-16, 1e-13])
    def test_eps_ball_below_rounding_floor_rejected(self, eps):
        # 1 - eps rounds to (nearly) 1, so a clamped estimate is not a state
        with pytest.raises(ValueError, match="at least 1e-12"):
            RunConfig(x0=X0, eps_ball=eps)

    @pytest.mark.parametrize("weight", [
        np.full((3, 3), np.nan),
        np.diag([1.0, 1.0, -1.0]),    # indefinite
        np.diag([1.0, 1.0, 0.0]),     # singular
        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # not symmetric
        np.eye(2),
    ])
    def test_bad_custom_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            RunConfig(x0=X0, weight=weight)

    @pytest.mark.parametrize("weight", [
        1.5e308 * np.eye(3),          # weight + weight.T overflows
        np.diag([1.0, np.inf, 1.0]),
        np.diag([1.0, 1.0, np.nan]),
    ])
    def test_custom_weight_outside_the_float_range_is_named(self, weight):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="custom weight entries must be finite"):
                RunConfig(x0=X0, weight=weight)

    @pytest.mark.parametrize("weight", [8e307 * np.eye(3), np.diag([8e307, 1.0, 1.0])])
    def test_custom_weight_whose_merit_overflows_is_named(self, weight):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="merit overflows"):
                RunConfig(x0=(0.1, 0.2, 0.3), weight=weight)

    @pytest.mark.parametrize("field, value", [("m_max", 2.5), ("m_max", True), ("reps", 2.5),
                                              ("reps", False), ("seed", 1.5),
                                              ("seed", np.float64(2.0)), ("seed", "3")])
    def test_non_integer_count_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            RunConfig(x0=X0, **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = RunConfig(x0=X0, m_max=np.int64(5), reps=np.int32(2), seed=np.uint8(3))
        out = monte_carlo(cfg, threads=1)
        assert [len(s.checkpoints) for s in out.values()] == [5, 5]

    @pytest.mark.parametrize("field, value", [
        ("x0", [0.1 + 0.9j, 0.2, 0.3]),
        ("weight", [[1.0, 0.1j, 0.0], [-0.1j, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("eps_ball", "0.01"),
        ("eps_ball", None),
    ])
    def test_complex_or_non_number_input_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            RunConfig(**{"x0": X0, field: value})

    def test_numpy_float_eps_ball_accepted(self):
        for eps in (np.float64(0.01), np.float32(0.01)):
            assert RunConfig(x0=X0, eps_ball=eps).eps_ball == eps

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig(x0=X0, weight=np.eye(3), m_max=5, reps=1)
        for name, value in (("weight", "bogus"), ("x0", np.zeros(3))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)

    def test_arrays_are_read_only_copies(self):
        x0, h = X0.copy(), np.diag([2.0, 1.0, 0.5])
        cfg = RunConfig(x0=x0, weight=h)
        with pytest.raises(ValueError, match="read-only"):
            cfg.x0[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            cfg.weight[0, 0] = -1.0
        x0[0] = 1.5
        h[0, 0] = -1.0
        assert np.array_equal(cfg.x0, X0)
        assert np.array_equal(cfg.weight, np.diag([2.0, 1.0, 0.5]))

    def test_replace_checks_again(self):
        cfg = RunConfig(x0=X0, m_max=5, reps=1)
        with pytest.raises(ValueError, match="^unknown weight selector 'bogus'$"):
            dataclasses.replace(cfg, weight="bogus")
        with pytest.raises(ValueError, match="^x0 must be a Stokes vector"):
            dataclasses.replace(cfg, x0=[1.5, 0.0, 0.0])
        custom = RunConfig(x0=X0, weight=np.diag([2.0, 1.0, 0.5]))
        assert np.array_equal(dataclasses.replace(custom, seed=3).weight, custom.weight)

    @pytest.mark.parametrize("x0", [[1e200, 0.0, 0.0], [0.0, -1e160, 1e155]])
    def test_huge_x0_is_named_without_a_numpy_warning(self, x0):
        # x0 @ x0 overflows to inf, which lies outside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x0 must be a Stokes vector"):
                RunConfig(x0=x0)

    def test_equal_records_compare_and_hash_equal(self):
        for weight in ("qfi", np.diag([2.0, 1.0, 0.5])):
            cfg = RunConfig(x0=X0, weight=weight, m_max=5, reps=1)
            same = RunConfig(x0=list(X0), weight=weight, m_max=5, reps=1)
            assert cfg == same and hash(cfg) == hash(same)
        origin = RunConfig(x0=[0.0, 0.0, 0.0])
        assert origin == RunConfig(x0=[-0.0, 0.0, 0.0])
        assert hash(origin) == hash(RunConfig(x0=[-0.0, 0.0, 0.0]))

    def test_replace_with_a_changed_array_compares_unequal(self):
        cfg = RunConfig(x0=X0, weight=np.diag([2.0, 1.0, 0.5]), m_max=5, reps=1)
        assert dataclasses.replace(cfg, x0=[0.55, 0.55, 0.5]) != cfg
        assert dataclasses.replace(cfg, weight=np.diag([2.0, 1.0, 0.25])) != cfg
        assert dataclasses.replace(cfg, weight="qfi") != cfg
        assert cfg != dataclasses.replace(cfg, weight="qfi")
        assert dataclasses.replace(cfg, seed=1) != cfg

    def test_tiny_custom_weight_accepted_with_scaled_merits(self):
        base = theoretical_merits(RunConfig(x0=X0, weight=np.eye(3)))
        tiny = theoretical_merits(RunConfig(x0=X0, weight=1e-13 * np.eye(3)))
        assert tiny == pytest.approx((1e-13 * base[0], 1e-13 * base[1]), rel=1e-14)

    def test_symmetric_custom_weight_kept_bit_for_bit(self):
        a = np.random.default_rng(7).standard_normal((3, 3))
        h = (a + a.T) / 2 + 4.0 * np.eye(3)
        assert np.array_equal(RunConfig(x0=X0, weight=h).weight, h)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
    def test_invalid_thread_count_raises(self, raw, monkeypatch):
        monkeypatch.setenv("QEST_THREADS", raw)
        cfg = RunConfig(x0=X0, m_max=5, reps=2, seed=0)
        with pytest.raises(ValueError, match="QEST_THREADS"):
            monte_carlo(cfg, estimators=("tomography",))


class TestClampIdempotent:
    def test_second_clamp_is_a_no_op(self):
        rng = np.random.default_rng(12)
        for eps in (1e-6, 0.01, 0.3):
            for _ in range(5000):
                x = rng.standard_normal(3) * rng.uniform(0.5, 50.0)
                once = clamp_to_ball(x, eps)
                assert np.linalg.norm(once) <= 1.0 - eps + 1e-15
                assert np.array_equal(clamp_to_ball(once, eps), once)


def _history(weight, eps_ball, m_max, seed):
    cfg = RunConfig(x0=X0, weight=weight, m_max=m_max, reps=1, seed=seed, eps_ball=eps_ball)
    return cfg, adaptive_run(cfg, np.random.default_rng((seed, 1, 0)))


class TestCertifiedMle:
    @pytest.mark.parametrize("weight", ["identity", "qfi"])
    @pytest.mark.parametrize("eps_ball", [0.01, 1e-6])
    def test_certificate_holds_on_adaptive_histories(self, weight, eps_ball):
        cfg, rec = _history(weight, eps_ball, 300, seed=3)
        assert rec.n_opt_failed == 0
        traces, bloch = rec.element_traces, rec.element_bloch
        for m in (1, 2, 7, 60, 300):
            x, ok = mle_maximize(traces[:m], bloch[:m], np.zeros(3), eps_ball=eps_ball)
            assert ok
            assert np.linalg.norm(x) <= 1.0 - eps_ball + 1e-15
        # one outcome: the likelihood grows along its Bloch vector up to the sphere
        x1, _ = mle_maximize(traces[:1], bloch[:1], np.zeros(3), eps_ball=eps_ball)
        b = bloch[0] / np.linalg.norm(bloch[0])
        assert np.allclose(x1, (1.0 - eps_ball) * b, atol=1e-12)

    @pytest.mark.parametrize("weight, eps_ball", [("identity", 1e-6), ("identity", 0.01),
                                                  ("qfi", 1e-6)])
    def test_no_random_start_does_better(self, weight, eps_ball):
        from qest.simulate import _log_likelihood
        rng = np.random.default_rng(21)
        _, rec = _history(weight, eps_ball, 400, seed=5)
        for m in (3, 40, 400):
            traces, bloch = rec.element_traces[:m], rec.element_bloch[:m]
            x, ok = mle_maximize(traces, bloch, np.zeros(3), eps_ball=eps_ball)
            assert ok
            best = -np.inf
            for _ in range(20):
                start = rng.standard_normal(3)
                start *= (1.0 - eps_ball) * rng.random() ** (1 / 3) / np.linalg.norm(start)
                y, _ = mle_maximize(traces, bloch, start, eps_ball=eps_ball)
                best = max(best, _log_likelihood(traces, bloch, y))
            assert _log_likelihood(traces, bloch, x) >= best - 1e-9

    def test_ok_is_a_certificate(self, monkeypatch):
        import qest.simulate as sim
        _, rec = _history("identity", 0.01, 200, seed=4)
        traces, bloch = rec.element_traces, rec.element_bloch
        best, ok = mle_maximize(traces, bloch, np.zeros(3), eps_ball=0.01)
        assert ok
        monkeypatch.setattr(sim, "MAX_NEWTON", 1)
        # one Newton step from the origin is not certified; at the maximizer
        # the first check is
        assert not mle_maximize(traces, bloch, np.zeros(3), eps_ball=0.01)[1]
        x, ok = mle_maximize(traces, bloch, best, eps_ball=0.01)
        assert ok and np.array_equal(x, best)

    def test_optimizer_draws_nothing_from_the_trial_stream(self):
        cfg = RunConfig(x0=X0, weight="identity", m_max=120, reps=1, seed=0)
        rng = np.random.default_rng(8)
        adaptive_run(cfg, rng)
        reference = np.random.default_rng(8)
        reference.random(cfg.m_max)
        assert rng.random() == reference.random()

    def test_labels_follow_stored_outcomes(self):
        _, rec = _history("qfi", 0.01, 50, seed=2)
        assert len(rec.labels) == 50
        for label in rec.labels:
            assert label[0] in "123" and label[1] in "+-"


class TestBallNewtonStep:
    def test_kkt_conditions_of_the_subproblem(self):
        from qest.simulate import _ball_newton_point
        rng = np.random.default_rng(31)
        for trial in range(300):
            rank = 1 + trial % 3
            a = rng.standard_normal((rank, 3)) * rng.uniform(0.1, 100.0)
            h = a.T @ a
            c = rng.standard_normal(3) * rng.uniform(0.01, 100.0)
            if trial % 7 == 0:
                c = h @ rng.standard_normal(3) * 0.1  # may leave the optimum inside
            rho = rng.uniform(0.5, 1.0)
            h6 = [h[0, 0], h[1, 1], h[2, 2], h[0, 1], h[0, 2], h[1, 2]]
            y = np.array(_ball_newton_point(np.array(h6).tolist(), *c.tolist(), rho))
            # the bits of the numpy route it replaced
            assert _same_bits(y, _oracle_ball_newton_point(np.array(h6), c, rho))
            assert np.linalg.norm(y) <= rho * (1 + 1e-12)
            # the model value at y beats every feasible sample point
            model = lambda z: c @ z - 0.5 * z @ h @ z
            pts = rng.standard_normal((200, 3))
            pts *= rho * rng.random(200)[:, None] ** (1 / 3) / np.linalg.norm(pts, axis=1)[:, None]
            scale = 1.0 + abs(model(y))
            assert all(model(p) <= model(y) + 1e-9 * scale for p in pts)
            # stationarity: c - h y is a nonnegative multiple of y
            resid = c - h @ y
            lam = float(resid @ y) / max(float(y @ y), 1e-300)
            assert lam >= -1e-8 * (1 + np.abs(c).max())
            assert np.linalg.norm(resid - lam * y) <= 1e-7 * (np.linalg.norm(c) + np.abs(h).max())


class TestRotationalDesign:
    @pytest.mark.parametrize("selector", list(ROT_WEIGHTS))
    def test_closed_form_matches_eigh_route_and_bounds(self, selector):
        from qest.bounds import optimal_measurement
        rng = np.random.default_rng(41)
        points = [np.zeros(3), np.array([0.0, 0.0, 0.7]), np.array([0.99, 0.0, 0.0])]
        for _ in range(20):
            x = rng.standard_normal(3)
            points.append(x * rng.random() * 0.999 / np.linalg.norm(x))

        def fisher(x, probs, axes):
            return classical_fisher(qubit_slds(x), bloch_pvm_mixture(probs, axes))

        for x in points:
            h = resolve_weight(selector, x)
            probs, axes = _numpy_rotational_branches(x, selector)
            assert probs.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-12)
            g_closed = fisher(x, probs, axes)
            g_eigh = fisher(x, *_probs_axes(_optimal_branches(x, h)))
            target = optimal_measurement(qubit_slds(x), qubit_qfi(x), h).fisher_target
            assert np.max(np.abs(g_closed - g_eigh)) <= 1e-8 * max(1.0, np.abs(g_eigh).max())
            assert np.max(np.abs(g_closed - target)) <= 1e-8 * max(1.0, np.abs(target).max())


def _loop_merits(x0, checkpoints, estimates, eps_ball):
    """Per-checkpoint merits through the generic Bures route, one at a time."""
    from qest.states import bures_distance
    rho0 = qubit_state(x0)
    out = np.empty((len(checkpoints), 2))
    for i, m in enumerate(checkpoints):
        est = estimates[i]
        bures = bures_distance(rho0, qubit_state(clamp_to_ball(est, eps_ball)))
        out[i, 0] = 2.0 * m * bures
        out[i, 1] = m * float(np.sum((x0 - est) ** 2))
    return out


def _loop_tomography_estimates(x0, checkpoints, rng):
    """Tomography estimates drawn one checkpoint increment at a time."""
    probs = np.empty(6)
    for mu in range(3):
        probs[2 * mu] = (1.0 - x0[mu]) / 6.0
        probs[2 * mu + 1] = (1.0 + x0[mu]) / 6.0
    counts = np.zeros(6, dtype=np.int64)
    estimates = np.empty((len(checkpoints), 3))
    prev = 0
    for i, m in enumerate(checkpoints):
        counts += rng.multinomial(int(m) - prev, probs)
        prev = int(m)
        estimates[i] = tomography_estimate(counts.reshape(3, 2))
    return estimates


class TestVectorizedMerits:
    @pytest.mark.parametrize("eps_ball", [1e-6, 0.01, 0.3])
    def test_merits_match_the_per_checkpoint_loop(self, eps_ball):
        rng = np.random.default_rng(61)
        checkpoints = checkpoint_schedule(3000)
        rho = 1.0 - eps_ball
        for _ in range(20):
            estimates = X0 + rng.standard_normal((len(checkpoints), 3)) \
                / np.sqrt(checkpoints)[:, None]
            # rows on, just outside and far outside the clamp sphere
            for i, scale in ((0, 1.0), (1, 1.0 + 1e-13), (2, 1.5)):
                estimates[i] *= rho * scale / np.linalg.norm(estimates[i])
            got = _merits(X0, checkpoints, estimates, eps_ball)
            want = _loop_merits(X0, checkpoints, estimates, eps_ball)
            # the loop's eigendecomposition route is off by up to 3.4e-12 in B
            # (7e-11 relative) against a 50-digit reference near the sphere,
            # where the closed form stays within 3e-13 relative; the squared
            # error is the same arithmetic
            bures_gap = np.abs(got[:, 0] - want[:, 0]) / (2.0 * checkpoints)
            assert np.max(bures_gap) <= 1e-11
            assert np.array_equal(got[:, 1], want[:, 1])

    def test_tomography_trial_matches_the_per_checkpoint_draws(self):
        for checkpoints in (checkpoint_schedule(3000), np.array([1, 2, 3, 3000]),
                            np.array([3000])):
            seeds = [(9, 0, trial) for trial in range(5)]
            rngs_new = [np.random.default_rng(seed) for seed in seeds]
            got = _tomography_estimates(X0, checkpoints, rngs_new)
            assert got.shape == (5, len(checkpoints), 3)
            for rng_new, seed, est in zip(rngs_new, seeds, got):
                rng_old = np.random.default_rng(seed)
                want = _loop_tomography_estimates(X0, checkpoints, rng_old)
                assert np.array_equal(est, want)
                # both consumed the stream up to the same point
                assert rng_new.random() == rng_old.random()

    def test_batched_estimate_matches_single(self):
        rng = np.random.default_rng(62)
        counts = rng.integers(0, 5, size=(4, 5, 3, 2))
        counts[0, 0, 1] = 0  # an axis never measured
        batched = tomography_estimate(counts)
        assert batched.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(batched[idx], tomography_estimate(counts[idx]))
        assert batched[0, 0, 1] == 0.0


class TestRowClamp:
    @pytest.mark.parametrize("eps_ball", [1e-6, 0.01, 0.3])
    def test_equals_clamp_to_ball_row_for_row(self, eps_ball):
        from qest.simulate import _clamp_rows
        rng = np.random.default_rng(90)
        rho = 1.0 - eps_ball
        rows = rng.standard_normal((400, 3))
        radii = rng.uniform(0.0, 2.0, size=400)
        # a quarter of the rows within a few ulps of the clamp sphere
        radii[:100] = rho + rng.integers(-4, 5, size=100) * np.spacing(rho)
        rows *= (radii / np.linalg.norm(rows, axis=1))[:, None]
        rows[100] = 0.0
        got = _clamp_rows(rows, eps_ball)
        want = np.array([clamp_to_ball(row, eps_ball) for row in rows])
        assert np.array_equal(got, want)
        assert np.array_equal(_clamp_rows(rows[:0], eps_ball), rows[:0])

    @pytest.mark.parametrize("eps_ball", [1e-6, 0.01, 0.3])
    def test_any_leading_shape(self, eps_ball):
        from qest.simulate import _clamp_rows
        rng = np.random.default_rng(91)
        rho = 1.0 - eps_ball
        points = rng.standard_normal((6, 50, 3))
        radii = rng.uniform(0.0, 2.0, size=(6, 50))
        radii[0] = rho + rng.integers(-4, 5, size=50) * np.spacing(rho)
        points *= (radii / np.linalg.norm(points, axis=-1))[..., None]
        points[2, 0] = 0.0
        # rows whose norm sqrt(x0*x0 + x1*x1 + x2*x2) lies on the clamp
        # sphere, or a few ulps inside or outside it
        near = _near_sphere(rng, rho, 50)
        ulps = (_design_norm(near) - rho) / np.spacing(rho)
        assert (ulps < 0).any() and (ulps == 0).any() and (ulps > 0).any()
        points[3] = near
        got = _clamp_rows(points, eps_ball)
        want = np.array([[clamp_to_ball(p, eps_ball) for p in block] for block in points])
        assert got.shape == points.shape
        assert np.array_equal(got, want)
        assert np.array_equal(_clamp_rows(points[0, 0], eps_ball),
                              clamp_to_ball(points[0, 0], eps_ball))

    @pytest.mark.parametrize("eps_ball", [1e-6, 0.01, 0.3])
    def test_clamped_points_lie_in_the_ball_by_the_design_norm(self, eps_ball):
        from qest.simulate import _clamp_point, _clamp_rows
        rng = np.random.default_rng(92)
        rho = 1.0 - eps_ball
        points = np.concatenate([_near_sphere(rng, rho, 2000),
                                 rng.standard_normal((2000, 3)) * 3.0])
        rows = _clamp_rows(points, eps_ball)
        singles = np.array([_clamp_point(p, rho) for p in points.tolist()])
        for clamped in (rows, singles):
            assert np.all(_design_norm(clamped) <= rho)


def _near_sphere(rng, rho, n):
    """n points whose norm sqrt(x0*x0 + x1*x1 + x2*x2) lies within 4 ulps
    of rho."""
    cand = rng.standard_normal((4 * n, 3))
    cand *= ((rho + rng.integers(-3, 4, size=4 * n) * np.spacing(rho))
             / np.linalg.norm(cand, axis=1))[:, None]
    return cand[np.abs(_design_norm(cand) - rho) <= 4 * np.spacing(rho)][:n]


def _design_norm(x):
    """|x| as the rotational design and the clamp compute it."""
    return np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2])


class TestBlockScoring:
    @pytest.mark.parametrize("kind, weight, m_max", [("tomography", "qfi", 3000),
                                                     ("adaptive", "qfi", 60),
                                                     ("adaptive", "identity", 60)])
    def test_a_block_equals_its_trials_one_by_one(self, kind, weight, m_max):
        cfg = RunConfig(x0=X0, weight=weight, m_max=m_max, reps=1, seed=8, eps_ball=0.01)
        checkpoints = checkpoint_schedule(m_max)
        n = 12
        merits, failed = _trial_block(cfg, kind, checkpoints, range(n))
        singles = [_trial_block(cfg, kind, checkpoints, [i]) for i in range(n)]
        assert merits.shape == (n, len(checkpoints), 2)
        assert np.array_equal(merits, np.concatenate([block for block, _ in singles]))
        assert failed == sum(f for _, f in singles)
        # any split into chunks scores each trial the same
        assert np.array_equal(_trial_block(cfg, kind, checkpoints, range(1, n, 3))[0],
                              merits[1::3])

    @pytest.mark.parametrize("eps_ball", [1e-6, 0.01, 0.3])
    def test_merits_of_a_block_equal_per_trial_calls(self, eps_ball):
        rng = np.random.default_rng(63)
        checkpoints = checkpoint_schedule(3000)
        rho = 1.0 - eps_ball
        estimates = X0 + rng.standard_normal((10, len(checkpoints), 3)) \
            / np.sqrt(checkpoints)[:, None]
        # rows on, just outside and far outside the clamp sphere
        for i, scale in ((0, 1.0), (1, 1.0 + 1e-13), (2, 1.5)):
            estimates[:, i] *= rho * scale / np.linalg.norm(estimates[:, i], axis=-1)[:, None]
        got = _merits(X0, checkpoints, estimates, eps_ball)
        want = np.stack([_merits(X0, checkpoints, est, eps_ball) for est in estimates])
        assert got.shape == (10, len(checkpoints), 2)
        assert np.array_equal(got, want)

    def test_a_serial_job_scores_at_most_one_block_at_a_time(self, monkeypatch):
        import qest.simulate as simulate
        cfg = RunConfig(x0=X0, m_max=100, reps=2 * BLOCK_TRIALS + 5, seed=4)
        checkpoints = checkpoint_schedule(cfg.m_max)
        whole, _ = _trial_block(cfg, "tomography", checkpoints, range(cfg.reps))
        sizes = []
        real = simulate._tomography_estimates

        def recording(x0, ckpts, rngs):
            sizes.append(len(rngs))
            return real(x0, ckpts, rngs)

        monkeypatch.setattr(simulate, "_tomography_estimates", recording)
        summary = monte_carlo(cfg, estimators=("tomography",), threads=1)["tomography"]
        assert max(sizes) <= BLOCK_TRIALS and sum(sizes) == cfg.reps
        assert np.array_equal(summary.mean_bures, whole[:, :, 0].mean(axis=0))
        assert np.array_equal(summary.se_sq,
                              whole[:, :, 1].std(axis=0, ddof=1) / np.sqrt(cfg.reps))


class TestSmallJobsRunSerially:
    def test_tiny_job_starts_no_pool(self, monkeypatch):
        import qest.simulate as simulate

        def no_pool(*args, **kwargs):
            raise AssertionError("a tiny job started a process pool")

        cfg = RunConfig(x0=X0, weight="qfi", m_max=60, reps=4, seed=5)
        serial = monte_carlo(cfg, threads=1)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        pooled = monte_carlo(cfg, threads=2)
        for kind in ("tomography", "adaptive"):
            assert pooled[kind].to_csv() == serial[kind].to_csv()

    def test_large_job_uses_the_pool_with_identical_output(self, monkeypatch):
        import qest.simulate as simulate
        started = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        cfg = RunConfig(x0=X0, weight="qfi", m_max=60, reps=4, seed=5)
        serial = monte_carlo(cfg, threads=1)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(simulate, "POOL_MIN_WORK_S", 0.0)
        pooled = monte_carlo(cfg, threads=2)
        assert started == [2, 2]
        for kind in ("tomography", "adaptive"):
            assert pooled[kind].to_csv() == serial[kind].to_csv()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submission inline, starting no process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future
        future = Future()
        future.set_result(fn(*args))
        return future


class TestPoolSizing:
    def _record_pools(self, monkeypatch):
        import qest.simulate as simulate
        started = []
        monkeypatch.setattr(simulate, "ProcessPoolExecutor",
                            lambda max_workers: _InlinePool(started, max_workers))
        return started

    def test_no_more_workers_than_chunks(self, monkeypatch):
        import qest.simulate as simulate
        cfg = RunConfig(x0=X0, weight="qfi", m_max=60, reps=3, seed=5)
        serial = monte_carlo(cfg, threads=1)
        started = self._record_pools(monkeypatch)
        monkeypatch.setattr(simulate, "POOL_MIN_WORK_S", 0.0)
        pooled = monte_carlo(cfg, threads=64)
        assert started == [3, 3]
        for kind in ("tomography", "adaptive"):
            assert pooled[kind].to_csv() == serial[kind].to_csv()

    def test_custom_weight_steps_are_priced_by_their_design(self, monkeypatch):
        started = self._record_pools(monkeypatch)
        # 10 trials of 250 steps: 0.0125 s estimated for a selector, 0.25 s
        # (POOL_MIN_WORK_S) for a fixed matrix
        for weight in ("qfi", "tomography", np.diag([2.0, 1.0, 0.5])):
            cfg = RunConfig(x0=X0, weight=weight, m_max=250, reps=10, seed=5)
            monte_carlo(cfg, estimators=("adaptive",), threads=2)
        assert started == [2]


class TestRunningDesignEstimate:
    @pytest.mark.parametrize("weight, eps_ball", [("identity", 0.01), ("identity", 1e-6),
                                                  ("qfi", 0.01)])
    def test_every_reported_estimate_is_a_certified_maximizer(self, weight, eps_ball):
        cfg = RunConfig(x0=X0, weight=weight, m_max=3000, reps=1, seed=12, eps_ball=eps_ball)
        rec = adaptive_run(cfg, np.random.default_rng((12, 1, 0)))
        assert rec.n_opt_failed == 0
        for m, est in zip(rec.checkpoints, rec.estimates):
            x, ok = mle_maximize(rec.element_traces[:m], rec.element_bloch[:m], est,
                                 eps_ball=eps_ball)
            assert ok and np.array_equal(x, est)

    def test_off_grid_steps_take_one_scoring_step(self, monkeypatch):
        cfg = RunConfig(x0=X0, weight=np.eye(3), m_max=600, reps=1, seed=13, eps_ball=0.01)
        calls = _running_steps(cfg, np.random.default_rng((13, 1, 0)),
                               lambda x: _flat_design(x, "identity"), monkeypatch)
        # every step off the checkpoint grid, and no checkpoint, updates the running estimate
        assert len(calls) == cfg.m_max - len(checkpoint_schedule(cfg.m_max))
        clamped = 0
        for h6, x, p, b, eps_ball, out in calls:
            h, step = _reference_running_step(h6, x, p, b)
            if out is None:
                assert np.min(np.linalg.eigvalsh(h)) <= 1e-10 * np.trace(h)
                continue
            want = clamp_to_ball(step, eps_ball)
            clamped += not np.array_equal(want, step)
            assert np.max(np.abs(out - want)) <= 1e-12
        assert 0 < clamped < len(calls)

    def test_running_step_floors_the_outcome_probability(self, monkeypatch):
        # with eps_ball = 1e-12 the estimate sits on the clamp sphere, and at
        # step 11 this qfi trial draws an outcome whose p + b.x lies below the
        # floor 2e-12 of the likelihood terms; b b^T / u^2 then swamps I, and
        # the step falls back to a solve
        cfg = RunConfig(x0=X0, weight="qfi", m_max=40, reps=1, seed=0, eps_ball=1e-12)
        _assert_same_trial(adaptive_run(cfg, np.random.default_rng((0, 1, 0))),
                           _per_step_adaptive_run(cfg, np.random.default_rng((0, 1, 0))))
        calls = _running_steps(dataclasses.replace(cfg, weight=np.eye(3)),
                               np.random.default_rng((0, 1, 0)),
                               lambda x: _flat_design(x, "qfi"), monkeypatch)
        floored = [call for call in calls if call[2] + float(call[3] @ call[1]) < 2e-12]
        assert floored and all(out is None for *_, out in floored)
        # a branch of probability 1e-13, served at step 7 with uniform 0, has
        # p + b.x <= 2e-13; the Pauli steps before it keep I positive definite
        monkeypatch.undo()
        pauli = _flat_design(np.zeros(3), "qfi")
        faint = (1e-13, 0.5, 0.5, *pauli[3:])
        seen = []
        cfg = dataclasses.replace(cfg, weight=np.eye(3), m_max=9, eps_ball=0.01)
        uniforms = _Uniforms([*np.random.default_rng(7).random(6).tolist(), 0.0, 0.5, 0.5])
        calls = _running_steps(cfg, uniforms, lambda x: faint if len(seen) == 7 else pauli,
                               monkeypatch, seen)
        h6, x, p, b, eps_ball, out = calls[0]
        assert p == 1e-13 and p + float(b @ x) < 2e-12
        _, step = _reference_running_step(h6, x, p, b)
        assert np.max(np.abs(out - clamp_to_ball(step, eps_ball))) <= 1e-12


def _reference_running_step(h6, x, p, b):
    """(H, x + H^-1 b / u) after H += b b^T / u^2, u = max(p + b.x, 2e-12),
    by np.linalg.solve."""
    u = max(p + float(b @ x), 2e-12)
    h = np.array([[h6[0], h6[3], h6[4]], [h6[3], h6[1], h6[5]],
                  [h6[4], h6[5], h6[2]]]) + np.outer(b, b) / u ** 2
    return h, x + np.linalg.solve(h, b / u)


class _Uniforms:
    """A stand-in generator: random(n) returns the next n of the given
    uniforms as an array, random() the next one."""

    def __init__(self, values):
        self.values, self.pos = list(values), 0

    def random(self, n=None):
        take = self.values[self.pos:self.pos + (1 if n is None else n)]
        self.pos += len(take)
        return take[0] if n is None else np.array(take)


@dataclasses.dataclass(frozen=True)
class _Config:
    """The fields adaptive_run reads, without RunConfig's checks, so that
    x0 can be a pure state."""
    x0: np.ndarray
    weight: object
    m_max: int
    eps_ball: float = 0.01


def _serve_designs(monkeypatch, design_at, seen=None):
    """Make adaptive_run's fixed-matrix route take the design design_at(x)
    at the running estimate x; returns the list seen (a new one by
    default), to which each step appends its estimate before the design."""
    import qest.simulate as simulate
    seen = [] if seen is None else seen

    def design(x, weight):
        seen.append(np.array(x))
        return design_at(x)

    monkeypatch.setattr(simulate, "_optimal_branches", design)
    return seen


def _running_steps(cfg, rng, design_at, monkeypatch, seen=None):
    """Run cfg under the design design_at(x) at the running estimate x,
    served by _serve_designs to the fixed-matrix route, and return one
    (I before, x, p, b, eps_ball, estimate after) per step off the
    checkpoint grid, the estimate None where I was not positive definite.
    I is rebuilt at each solve and updated as adaptive_run does, bit for
    bit."""
    import qest.simulate as simulate
    seen = _serve_designs(monkeypatch, design_at, seen)
    solved = set()
    solve = simulate._mle_solve

    def recording(traces, bt, init, rho):
        solved.add(len(traces))
        return solve(traces, bt, init, rho)

    monkeypatch.setattr(simulate, "_mle_solve", recording)
    rec = adaptive_run(cfg, rng)
    grid = set(checkpoint_schedule(cfg.m_max).tolist())
    bt = rec.element_bloch.T
    calls = []
    for n in range(1, cfg.m_max):
        p, b = float(rec.element_traces[n - 1]), rec.element_bloch[n - 1]
        if n not in grid:
            (b0, b1, b2), (x0, x1, x2) = b.tolist(), seen[n - 1].tolist()
            u = max(p + b0 * x0 + b1 * x1 + b2 * x2, 2e-12)
            before = np.array(info)
            for i, v in enumerate((b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2)):
                info[i] += v * (1.0 / (u * u))
            calls.append((before, seen[n - 1], p, b, cfg.eps_ball,
                          None if n in solved else seen[n]))
        if n in solved:
            u = np.maximum(rec.element_traces[:n] + seen[n] @ bt[:, :n], 2e-12)
            info = (simulate._bloch_products(bt[:, :n]) @ (1.0 / (u * u))).tolist()
    return calls


def _probs_axes(design):
    """(probs, axes) as lists from the flat floats of _optimal_branches,
    every branch kept, a dropped one as probability 0 and axis 0."""
    return list(design[:3]), [list(design[3 + 3 * i:6 + 3 * i]) for i in range(3)]


def _flat_design(x, weight):
    """The 12 floats of _optimal_branches for a fixed matrix, and of
    _numpy_rotational_branches for a rotational selector."""
    if not isinstance(weight, str):
        return _optimal_branches(x, weight)
    probs, axes = _numpy_rotational_branches(np.asarray(x, dtype=float), weight)
    return (*probs.tolist(), *axes.ravel().tolist())


def _sampler_cases(weight, rng):
    """(design, true state, uniforms) triples for the sampler tests.

    Designs at the origin and at 100 random points are measured on X0, on
    three axis states, two of them pure, and on each design axis with
    either sign.  On a design axis one outcome term can round below zero,
    so a running sum q_k of the outcome probabilities can fall below
    q_{k-1}; the uniforms are 0, 1 - 2^-53, 20 random ones, and every u < 1
    within 4 ulps of q_k / q_5 with u q_5 in [q_k, q_{k-1}).
    """
    import math
    from itertools import accumulate
    designs = [_flat_design(np.zeros(3), weight)]
    for _ in range(100):
        x = rng.standard_normal(3)
        designs.append(_flat_design(x * rng.random() * 0.99 / np.linalg.norm(x), weight))
    fixed = [X0.tolist(), [0.0, 0.0, 0.999], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    for design in designs:
        probs, axes = _probs_axes(design)
        for t in fixed + [[s * a for a in axis] for axis in axes for s in (1.0, -1.0)]:
            uniforms = [0.0, 1.0 - 2.0 ** -53, *rng.random(20).tolist()]
            q = list(accumulate(p * (1.0 + s * (a0 * t[0] + a1 * t[1] + a2 * t[2])) / 2.0
                                for p, (a0, a1, a2) in zip(probs, axes) for s in (-1.0, 1.0)))
            for k in range(1, len(q)):
                if q[k] < q[k - 1]:
                    u = q[k] / q[-1]
                    for _ in range(4):
                        u = math.nextafter(u, 0.0)
                    for _ in range(9):
                        if u < 1.0 and q[k] <= u * q[-1] < q[k - 1]:
                            uniforms.append(u)
                        u = math.nextafter(u, 1.0)
            yield design, t, uniforms


def _numpy_rotational_branches(x, selector):
    """The rotational design as numpy arrays, the route adaptive_run took
    before its step ran on Python floats."""
    import math
    r2 = float(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    if r2 == 0.0:
        return np.full(3, 1.0 / 3.0), np.eye(3)
    w = math.sqrt(1.0 - r2) if selector == "identity" else 1.0
    n = (x / math.sqrt(r2)).tolist()
    k = min(range(3), key=lambda i: abs(n[i]))
    a = [float(i == k) - n[k] * n[i] for i in range(3)]
    na = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    a = [ai / na for ai in a]
    cross = [n[1] * a[2] - n[2] * a[1], n[2] * a[0] - n[0] * a[2], n[0] * a[1] - n[1] * a[0]]
    return np.array([w, 1.0, 1.0]) / (w + 2.0), np.array([n, a, cross])


def _accumulate_draw(probs, axes, x_true, u):
    """Outcome index by itertools.accumulate over the six outcome
    probabilities, the sampler adaptive_run used before the scalar loop."""
    from bisect import bisect_right
    from itertools import accumulate
    cum = list(accumulate(
        p * (1.0 + sign * (a0 * x_true[0] + a1 * x_true[1] + a2 * x_true[2])) / 2.0
        for p, (a0, a1, a2) in zip(probs, axes) for sign in (-1.0, 1.0)))
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


# the uniform Pauli mixture as (probs, axes)
_ORACLE_PAULI = ([1.0 / 3.0] * 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _per_step_adaptive_run(cfg, rng):
    """adaptive_run as it was before its step ran on Python floats: numpy
    design and running estimate, one uniform drawn per step, and every
    step's element written into the history arrays as it is drawn.  The
    fixed-matrix design and the solve are looked up in the module, as
    adaptive_run looks them up."""
    import qest.simulate as simulate
    from qest.simulate import PROB_FLOOR, _chol_solve
    checkpoints = checkpoint_schedule(cfg.m_max).tolist()
    x_true = cfg.x0.tolist()
    x_hat = np.zeros(3)
    m_max = cfg.m_max
    traces = np.empty(m_max)
    bloch = np.empty((3, m_max))
    products = np.empty((6, m_max))
    outcomes = np.empty(m_max, dtype=np.int8)
    estimates = np.empty((len(checkpoints), 3))
    ckpt_pos, n_failed = 0, 0
    for m in range(m_max):
        if isinstance(cfg.weight, str) and cfg.weight in ("identity", "qfi"):
            probs, axes = _numpy_rotational_branches(x_hat, cfg.weight)
            probs, axes = probs.tolist(), axes.tolist()
        elif isinstance(cfg.weight, str):
            probs, axes = _ORACLE_PAULI
        else:
            probs, axes = _probs_axes(simulate._optimal_branches(x_hat, cfg.weight))
        idx = _accumulate_draw(probs, axes, x_true, rng.random())
        p = probs[idx // 2]
        signed = p if idx % 2 else -p
        b0, b1, b2 = b = tuple(a * signed for a in axes[idx // 2])
        traces[m] = p
        bloch[:, m] = b
        products[:, m] = (b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2)
        outcomes[m] = idx
        n = m + 1
        at_checkpoint = n == checkpoints[ckpt_pos]
        anchored = at_checkpoint
        if not anchored:
            x0, x1, x2 = x_hat.tolist()
            u = max(p + b0 * x0 + b1 * x1 + b2 * x2, 2.0 * PROB_FLOOR)
            w = 1.0 / (u * u)
            for i, v in enumerate((b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2)):
                info[i] += v * w
            step = _chol_solve(info, b0 / u, b1 / u, b2 / u)
            anchored = step is None
        if anchored:
            x_hat, ok = simulate.mle_maximize(traces[:n], bloch[:, :n].T, x_hat,
                                              eps_ball=cfg.eps_ball)
            n_failed += not ok
            u = np.maximum(traces[:n] + x_hat @ bloch[:, :n], 2.0 * PROB_FLOOR)
            info = (products[:, :n] @ (1.0 / (u * u))).tolist()
        else:
            x_hat = clamp_to_ball(np.array([x0 + step[0], x1 + step[1], x2 + step[2]]),
                                  cfg.eps_ball)
        if at_checkpoint:
            estimates[ckpt_pos] = x_hat
            ckpt_pos += 1
    return traces, bloch.T, outcomes, estimates, n_failed


def _assert_same_trial(rec, oracle):
    """The trial and the oracle's tuple hold the same bits, signed zeros too."""
    got = (rec.element_traces, rec.element_bloch, rec.outcomes, rec.estimates)
    for a, b in zip(got, oracle):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rec.n_opt_failed == oracle[4]


class _ServedSolves:
    """A stand-in for the solve core _mle_solve, which mle_maximize and
    adaptive_run call, that returns the given points in turn, each as a
    certified estimate with the products and terms u at it, wrapping around
    at the end."""

    def __init__(self, points, start):
        self.points, self.pos = points, start

    def __call__(self, traces, bt, init, rho):
        from qest.simulate import PROB_FLOOR, _bloch_products
        x = [float(v) for v in self.points[self.pos % len(self.points)]]
        self.pos += 1
        u = np.maximum(traces + np.array(x) @ bt, 2.0 * PROB_FLOOR)
        return x, True, _bloch_products(bt), u


def _served_trials(points, weight, monkeypatch):
    """10-step trials whose every solve returns the next of the given
    points, so that the design of the step after it is taken at that point;
    yields (adaptive_run's record, the oracle's tuple) until every point is
    served.  The solve at step 10 has no step after it, so the next trial
    serves its point again at its first solve."""
    import qest.simulate as simulate
    cfg = RunConfig(x0=X0, weight=weight, m_max=10, reps=1, seed=0, eps_ball=0.01)
    start, trial = 0, 0
    while start < len(points):
        runs = []
        for run in (adaptive_run, _per_step_adaptive_run):
            solves = _ServedSolves(points, start)
            monkeypatch.setattr(simulate, "_mle_solve", solves)
            runs.append(run(cfg, np.random.default_rng((0, 1, trial))))
        yield runs
        start, trial = solves.pos - 1, trial + 1


class TestFloatAdaptiveStep:
    @pytest.mark.parametrize("selector", ["identity", "qfi"])
    def test_rotational_branches_equal_the_numpy_route(self, selector, monkeypatch):
        rng = np.random.default_rng(95)
        dirs = rng.standard_normal((2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.random(2000)
        # points near the sphere, and on coordinate axes and planes and
        # diagonals, where the Gram-Schmidt axis is chosen among ties
        radii[:400] = 1.0 - 10.0 ** rng.uniform(-12, -2, size=400)
        dirs[400:440] = np.eye(3)[rng.integers(0, 3, size=40)]
        dirs[440:480, rng.integers(0, 3)] = 0.0
        dirs[480:520] = rng.choice([-1.0, 1.0], size=(40, 3))
        dirs[500:520, 2] = 0.0
        dirs[440:520] /= np.linalg.norm(dirs[440:520], axis=1)[:, None]
        points = dirs * radii[:, None]
        points[0] = 0.0
        # each served point is the design point of the step after its solve
        for rec, oracle in _served_trials(points.tolist(), selector, monkeypatch):
            _assert_same_trial(rec, oracle)

    def test_tomography_selector_is_the_pauli_mixture_everywhere(self, monkeypatch):
        third = 1.0 / 3.0
        pauli = np.array([[a * s for a in axis] for axis in np.eye(3).tolist()
                          for s in (-third, third)])
        rng = np.random.default_rng(44)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        points = [np.zeros(3), *(s * r * e for e in np.eye(3) for s in (1.0, -1.0)
                                 for r in (0.5, 1.0 - 1e-6)),
                  *(d * (1.0 - 1e-6 * rng.random()) for d in dirs[:20]),
                  *(d * rng.random() for d in dirs)]
        trials = list(_served_trials([x.tolist() for x in points], "tomography", monkeypatch))
        for rec, oracle in trials:
            assert np.all(rec.element_traces == third)
            assert np.array_equal(rec.element_bloch, pauli[rec.outcomes])
            _assert_same_trial(rec, oracle)
        # a rotational selector's first step is at the origin
        monkeypatch.undo()
        cfg = RunConfig(x0=X0, weight="qfi", m_max=1, reps=1, seed=0)
        rec = adaptive_run(cfg, np.random.default_rng(0))
        assert rec.element_traces[0] == third
        assert np.array_equal(rec.element_bloch[0], pauli[rec.outcomes[0]])

    @pytest.mark.parametrize("weight", ["identity", "qfi", "custom"])
    def test_scalar_sampler_equals_the_accumulate_sampler(self, weight, monkeypatch):
        import qest.simulate as simulate
        if weight == "custom":
            # the Pauli design of "tomography" never makes the sums non-monotone;
            # a fixed matrix's design axes turn with x, and often do
            weight = np.diag([1.0, 2.0, 3.0])
        windows = 0
        for design, x_true, uniforms in list(_sampler_cases(weight,
                                                            np.random.default_rng(96))):
            # uniforms past the first 22 put u q_5 where the sums are not monotone
            windows += len(uniforms) > 22
            # every step of a trial at the pure or mixed state x_true draws
            # from this design, whatever the running estimate, so the solves
            # can return the origin
            _serve_designs(monkeypatch, lambda x: design)
            monkeypatch.setattr(simulate, "_mle_solve", _ServedSolves([[0.0] * 3], 0))
            cfg = _Config(x0=np.array(x_true), weight=np.eye(3), m_max=len(uniforms))
            rec = adaptive_run(cfg, _Uniforms(uniforms))
            want = [_accumulate_draw(*_probs_axes(design), x_true, u) for u in uniforms]
            assert rec.outcomes.tolist() == want
        assert windows >= 20

    @pytest.mark.parametrize("weight", [np.diag([1e-9, 1e300, 1e300]),
                                        np.diag([1e300, 1e-9, 1e-9])])
    def test_designs_with_dropped_branches_draw_as_before(self, weight, monkeypatch):
        assert 0.0 in _optimal_branches(X0, weight)[:3]
        uniforms = [0.0, 1.0 - 2.0 ** -53, *np.random.default_rng(99).random(50).tolist()]
        dropped = 0
        for x_true in (X0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])):
            cfg = _Config(x0=x_true, weight=weight, m_max=len(uniforms))
            seen = _serve_designs(monkeypatch, lambda x: _optimal_branches(x, weight))
            rec = adaptive_run(cfg, _Uniforms(uniforms))
            dropped += sum(0.0 in _optimal_branches(x, weight)[:3] for x in seen)
            _assert_same_trial(rec, _per_step_adaptive_run(cfg, _Uniforms(uniforms)))
        # the zero-width outcome intervals of a dropped branch tie its running sums
        assert dropped > 0
        monkeypatch.undo()
        cfg = RunConfig(x0=X0, weight=weight, m_max=100, reps=1, seed=99, eps_ball=0.01)
        _assert_same_trial(adaptive_run(cfg, np.random.default_rng((99, 1, 0))),
                           _per_step_adaptive_run(cfg, np.random.default_rng((99, 1, 0))))

    def test_near_singular_information_falls_back_as_chol_solve_does(self, monkeypatch):
        # a design whose axes lie within about eps of the plane z = 0 leaves
        # I a last Cholesky pivot of about eps^2 / 6 of its trace; across
        # these eps it crosses the 1e-12 Tr I below which a step falls back
        # to a solve
        cfg = RunConfig(x0=X0, weight=np.eye(3), m_max=100, reps=1, seed=0, eps_ball=0.01)
        for eps in np.geomspace(1e-7, 1e-5, 9):
            tilted = (np.array([1.0, 1.0, eps]) / np.linalg.norm([1.0, 1.0, eps])).tolist()
            design = (*[1.0 / 3.0] * 3, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, *tilted)
            _serve_designs(monkeypatch, lambda x: design)
            _assert_same_trial(adaptive_run(cfg, np.random.default_rng(1)),
                               _per_step_adaptive_run(cfg, np.random.default_rng(1)))

    def test_one_batch_of_uniforms_equals_single_draws(self):
        for trial in range(20):
            for m in (1, 2, 7, 3000):
                batch = np.random.default_rng((trial, 1, m))
                single = np.random.default_rng((trial, 1, m))
                assert batch.random(m).tolist() == [single.random() for _ in range(m)]
                # the generator is left in the same state
                assert batch.random() == single.random()

    @pytest.mark.parametrize("weight", ["identity", "qfi", "tomography", "custom"])
    @pytest.mark.parametrize("eps_ball", [0.01, 1e-6])
    @pytest.mark.parametrize("x0", [X0, np.array([0.6, -0.48, 0.64]) * (1.0 - 1e-12),
                                    np.array([0.0, 0.93, 2e-9])],
                             ids=["X0", "near-pure", "near-axis"])
    def test_trials_equal_the_per_step_array_route(self, weight, eps_ball, x0):
        rotational = weight in ("identity", "qfi")
        m_max = 800 if rotational else 150
        if weight == "custom":
            a = np.random.default_rng(97).standard_normal((3, 3))
            weight = a @ a.T + 0.3 * np.eye(3)
        cfg = RunConfig(x0=x0, weight=weight, m_max=m_max, reps=1, seed=98, eps_ball=eps_ball)
        for seed in (98, 7, 31):
            rec = adaptive_run(cfg, np.random.default_rng((seed, 1, m_max)))
            _assert_same_trial(rec, _per_step_adaptive_run(
                cfg, np.random.default_rng((seed, 1, m_max))))


def _left_sum(terms):
    """builtin sum() of floats as Python 3.11 and older evaluate it: left to
    right from the integer 0, uncompensated."""
    total = 0
    for term in terms:
        total = total + term
    return total


def _oracle_ball_newton_point(h6, c, rho, routes=None):
    """_ball_newton_point as it was on numpy arrays, its secular sums taken
    by _left_sum; appends "chol", "eig" or "eig-flat" (a kept term without
    curvature) to routes, when given."""
    import math
    from qest.simulate import _chol_solve
    h = h6.tolist()
    c0, c1, c2 = c.tolist()
    y = _chol_solve(h, c0, c1, c2)
    if y is not None and math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) <= rho:
        if routes is not None:
            routes.append("chol")
        return np.array(y)
    a00, a11, a22, a01, a02, a12 = h
    mu, vecs = np.linalg.eigh(np.array([[a00, a01, a02], [a01, a11, a12],
                                        [a02, a12, a22]]))
    mu_max = max(float(mu[2]), 0.0)
    flat = 1e-12 * mu_max
    noise = 1e-10 * (math.hypot(c0, c1, c2) + mu_max)
    terms = [(m if m > flat else 0.0, ck, k)
             for k, (m, ck) in enumerate(zip(mu.tolist(), (c @ vecs).tolist()))
             if (m > flat and ck != 0.0) or abs(ck) > noise]
    if routes is not None:
        routes.append("eig-flat" if any(m == 0.0 for m, _, _ in terms) else "eig")
    lam = 0.0
    if any(m == 0.0 for m, _, _ in terms) or \
            _left_sum((ck / m) ** 2 for m, ck, _ in terms) > rho * rho:
        lam = max(0.0, max(abs(ck) / rho - m for m, ck, _ in terms))
        for _ in range(100):
            s2 = _left_sum((ck / (m + lam)) ** 2 for m, ck, _ in terms)
            s3 = _left_sum(ck * ck / (m + lam) ** 3 for m, ck, _ in terms)
            step = (math.sqrt(s2) - rho) / rho * s2 / s3
            lam += step
            if step <= 1e-15 * lam:
                break
    coef = [0.0, 0.0, 0.0]
    for m, ck, k in terms:
        coef[k] = ck / (m + lam)
    return vecs @ np.array(coef)


def _oracle_mle_maximize(traces, bloch, init, *, eps_ball=1e-6, routes=None):
    """mle_maximize as it was before its solve moved onto Python floats:
    numpy Newton right-hand side, step and chord, clamp_to_ball on each
    candidate, and _oracle_ball_newton_point."""
    from qest.simulate import CERT_TOL, MAX_NEWTON, PROB_FLOOR, _bloch_products
    traces = np.asarray(traces, dtype=float)
    bloch = np.asarray(bloch, dtype=float)
    if traces.size == 0:
        raise ValueError("history must be nonempty")
    if traces.ndim != 1 or bloch.shape != traces.shape + (3,):
        raise ValueError(f"history needs traces (m,) and Bloch rows (m, 3), "
                         f"got {traces.shape} and {bloch.shape}")
    bt = bloch.T
    if not (np.isfinite(traces).all() and np.isfinite(bt).all()):
        raise ValueError("history has non-finite traces or Bloch rows")
    products = _bloch_products(bt)
    rho = 1.0 - eps_ball
    floor = 2.0 * PROB_FLOOR
    x = clamp_to_ball(np.asarray(init, dtype=float), eps_ball)
    u = np.maximum(traces + x @ bt, floor)
    lval = float(np.log(u).sum())
    for _ in range(MAX_NEWTON):
        q = 1.0 / u
        grad = bt @ q
        h6 = products @ (q * q)
        a00, a11, a22, a01, a02, a12 = h6.tolist()
        x0, x1, x2 = x.tolist()
        hx = np.array([a00 * x0 + a01 * x1 + a02 * x2,
                       a01 * x0 + a11 * x1 + a12 * x2,
                       a02 * x0 + a12 * x1 + a22 * x2])
        delta = _oracle_ball_newton_point(h6, grad + hx, rho, routes) - x
        slope = float(grad @ delta)
        if slope <= CERT_TOL * max(1.0, 1e-3 * abs(lval)):
            return x, True
        t = 1.0
        while True:
            cand = clamp_to_ball(x + t * delta, eps_ball)
            uc = np.maximum(traces + cand @ bt, floor)
            lc = float(np.log(uc).sum())
            if lc >= lval + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                return x, False
        x, u, lval = cand, uc, lc
    return x, False


def _recorded_solves(cfgs, monkeypatch):
    """(traces, bt, init, eps_ball, result) of every solve of one trial of
    each config, result being _mle_solve's (x, ok, products, u); the history
    is the trial's own view, whose first n entries never change again."""
    import qest.simulate as simulate
    solve, solves = simulate._mle_solve, []
    for cfg in cfgs:
        def recording(traces, bt, init, rho, eps_ball=cfg.eps_ball):
            out = solve(traces, bt, init, rho)
            solves.append((traces, bt, list(init), eps_ball, out))
            return out

        monkeypatch.setattr(simulate, "_mle_solve", recording)
        adaptive_run(cfg, np.random.default_rng((cfg.seed, 1, 0)))
    monkeypatch.undo()
    return solves


def _one_axis_histories():
    """Histories of 1-5 outcomes on the x axis, whose information has two
    exactly flat directions, and the same with the last outcome tilted by
    1e-8 off the axis, whose eigen route keeps a term without curvature."""
    import math
    for tilt in (0.0, 1e-8):
        for k in range(1, 6):
            bloch = np.zeros((k, 3))
            bloch[:, 0] = [(-1.0) ** i / 3.0 for i in range(k)]
            if tilt:
                bloch[-1] = [math.cos(tilt) / 3.0, math.sin(tilt) / 3.0, 0.0]
            yield np.full(k, 1.0 / 3.0), bloch


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSolveEqualsTheArrayOracle:
    """The float solve core returns the bits of the numpy route it replaced,
    and so does the rebuilt observed information."""

    def _check(self, traces, bt, init, eps_ball, out, routes=None):
        from qest.simulate import PROB_FLOOR, _bloch_products
        x, ok, products, u = out
        want_x, want_ok = _oracle_mle_maximize(traces, bt.T, init, eps_ball=eps_ball,
                                               routes=routes)
        assert _same_bits(x, want_x) and ok == want_ok
        want_u = np.maximum(traces + want_x @ bt, 2.0 * PROB_FLOOR)
        assert _same_bits(products @ (1.0 / (u * u)),
                          _bloch_products(bt) @ (1.0 / (want_u * want_u)))
        public_x, public_ok = mle_maximize(traces, bt.T, init, eps_ball=eps_ball)
        assert _same_bits(public_x, want_x) and public_ok == want_ok

    def test_trial_solves(self, monkeypatch):
        a = np.random.default_rng(97).standard_normal((3, 3))
        cfgs = [RunConfig(x0=X0, weight=weight, m_max=400 if isinstance(weight, str) else 150,
                          reps=1, seed=seed, eps_ball=eps_ball)
                for weight in ("qfi", "identity", "tomography", a @ a.T + 0.3 * np.eye(3))
                for eps_ball in (0.01, 1e-6) for seed in (3, 2024)]
        solves = _recorded_solves(cfgs, monkeypatch)
        routes = []
        for traces, bt, init, eps_ball, out in solves:
            self._check(traces, bt, init, eps_ball, out, routes)
        assert {1, 2, 3, 4, 5} <= {len(s[0]) for s in solves}
        assert routes.count("eig") > 100 and routes.count("chol") > 100

    def test_one_axis_histories(self):
        from qest.simulate import _mle_solve
        routes = []
        for traces, bloch in _one_axis_histories():
            bt = bloch.T
            for init in ([0.0, 0.0, 0.0], [0.2, 0.3, -0.1], [-0.9, 0.1, 0.4]):
                for eps_ball in (0.01, 1e-6):
                    out = _mle_solve(traces, bt, init, 1.0 - eps_ball)
                    self._check(traces, bt, init, eps_ball, out, routes)
        assert routes.count("eig-flat") >= 20

    @pytest.mark.parametrize("kind", [np.float64, np.float32])
    def test_numpy_scalar_margins(self, kind):
        # a clamp under a float32 radius returns float32 points, which the
        # array route turned into an array and back into Python floats
        # (these histories stay clear of the float32 shrink loop, which can
        # spin forever on other points)
        rng = np.random.default_rng(1)
        for _ in range(12):
            m = int(rng.integers(1, 40))
            bloch = rng.standard_normal((m, 3))
            bloch /= 3.0 * np.linalg.norm(bloch, axis=1)[:, None]
            traces, init = np.full(m, 1.0 / 3.0), rng.standard_normal(3) * 0.3
            eps_ball = kind(rng.choice([0.01, 1e-6, 0.3]))
            x, ok = mle_maximize(traces, bloch, init, eps_ball=eps_ball)
            want_x, want_ok = _oracle_mle_maximize(traces, bloch, init, eps_ball=eps_ball)
            assert x.dtype == want_x.dtype and _same_bits(x, want_x) and ok == want_ok

    @pytest.mark.parametrize("init, eps_ball", [
        ([0.1, 0.2, 0.3], 0.0), ([0.1, 0.2, 0.3], 1.0), ([0.1, 0.2, 0.3], float("nan")),
        ([0.1, 0.2, 0.3], "0.5"), ([0.1, 0.2, 0.3], None), ([0.1, 0.2, 0.3], True),
        ([0.1, 0.2], 0.01), ([[0.1, 0.2, 0.3]], 0.01), (0.5, 0.01), ([np.nan, 0.0, 0.0], 0.01),
        ([np.inf, 0.0, 0.0], 0.01), ([1e300, 1e300, 0.0], 0.01), (["a", 0.0, 0.0], 0.01),
    ])
    def test_bad_starts_and_margins_raise_as_before(self, init, eps_ball):
        traces, bloch = np.full(3, 1.0 / 3.0), np.eye(3) / 3.0

        def outcome(solve):
            try:
                x, ok = solve(traces, bloch, init, eps_ball=eps_ball)
            except Exception as exc:
                return type(exc), str(exc)
            return np.asarray(x).tobytes(), ok

        assert outcome(mle_maximize) == outcome(_oracle_mle_maximize)


def _compensated_sum(terms, start=0):
    """builtin sum() of floats as Python 3.12 evaluates it (gh-100425):
    Neumaier's compensated summation."""
    import math
    total, comp = float(start), 0.0
    for term in terms:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


class TestAdaptiveBitsIgnoreThePythonSum:
    def test_compensated_builtin_sum_leaves_the_csvs_unchanged(self, monkeypatch):
        import qest.simulate as simulate
        assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0

        def csvs():
            return [monte_carlo(RunConfig(x0=X0, weight=weight, m_max=400, reps=12, seed=2024),
                                estimators=("adaptive",), threads=1)["adaptive"].to_csv()
                    for weight in ("qfi", "identity", "tomography")]

        want = csvs()
        monkeypatch.setattr(simulate, "sum", _compensated_sum, raising=False)
        assert csvs() == want
