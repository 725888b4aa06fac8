import re
import warnings

import numpy as np
import pytest

from qest import bounds
from qest.bounds import (
    ROT_WEIGHTS,
    RotWeight,
    SingularInputError,
    SingularOutcomeError,
    UnsupportedDimError,
    _check_sym_pd,
    _min_trace,
    _sqrt_and_inv_sqrt,
    _symmetrized,
    anisotropy,
    c_opt_closed,
    c_tomo_closed,
    classical_fisher,
    gm_lower_bound,
    hat_fisher,
    indicatrix_points,
    min_trace_unit_trace,
    mub_tomography_sweep,
    optimal_measurement,
    qcr_min_trace,
    qfi_rot_weight,
    qubit_design,
    rot_merit_sweep,
    rot_weight_along,
    tomo_excess,
    tomography_fisher,
    tomography_weight,
    unit_direction,
    weight_from_fisher,
)
from qest.linalg import NoConvergenceError, psd_sqrt
from qest.measurements import (
    Povm,
    outcome_distribution,
    pvm_from_observable,
    qubit_tomography_povm,
    random_povm,
)
from qest.states import (ModelDerivatives, OutOfBallError, SIGMA_3, qubit_bures, qubit_qfi,
                         qubit_slds, qubit_state)

X0 = np.array([0.55, 0.55, 0.55])
TOMO = qubit_tomography_povm()


def random_point(rng, rmax=0.9):
    x = rng.standard_normal(3)
    return x * (rng.random() * rmax / np.linalg.norm(x))


def random_weight(rng):
    a = rng.standard_normal((3, 3))
    return a @ a.T + np.diag(rng.uniform(0.1, 1.0, size=3))


class TestClassicalFisher:
    def test_tomography_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_point(rng)
            g = classical_fisher(qubit_slds(x), TOMO)
            assert np.max(np.abs(g - tomography_fisher(x))) <= 1e-12

    def test_single_pvm_at_origin(self):
        g = classical_fisher(qubit_slds([0, 0, 0]), pvm_from_observable(SIGMA_3))
        assert np.allclose(g, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_unit_trace_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_point(rng)
            g = classical_fisher(qubit_slds(x), TOMO)
            val = np.trace(np.linalg.inv(qubit_qfi(x)) @ g)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_singular_outcome_raises(self):
        # measuring sigma_3 on its eigenstate rho = diag(1-eps, eps) is fine,
        # but a zero-probability outcome with nonzero derivative is not
        derivs = qubit_slds([0.0, 0.0, 0.0])
        zero_op = np.zeros((2, 2), dtype=complex)
        povm = Povm(dim=2, labels=("a", "b"), ops=np.array([np.eye(2), zero_op]))
        bad = ModelDerivatives(rho=derivs.rho, partials=derivs.partials,
                               slds=derivs.slds)
        # replace the zero element by one with nonzero derivative but zero prob:
        # rho = |0><0|, element |1><1| has p = 0 but d(p)/dx1 != 0
        rho = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        povm = Povm(dim=2, labels=("0", "1"),
                    ops=np.array([np.eye(2) - proj1, proj1]))
        pure = ModelDerivatives(rho=rho, partials=bad.partials, slds=bad.slds)
        with pytest.raises(SingularOutcomeError):
            classical_fisher(pure, povm)


class TestHatFisher:
    def test_identity_case(self):
        j = qubit_qfi([0.3, 0.1, 0.2])
        assert np.allclose(hat_fisher(j, j, np.eye(3)), np.eye(3), atol=1e-10)

    def test_tomography_at_origin(self):
        g = classical_fisher(qubit_slds([0, 0, 0]), TOMO)
        ghat = hat_fisher(g, np.eye(3), np.eye(3))
        assert np.allclose(ghat, np.eye(3) / 3, atol=1e-12)
        assert np.trace(ghat) <= 2 - 1 + 1e-12

    @pytest.mark.parametrize("u", [2.0 * np.eye(3), np.full((3, 3), np.nan)])
    def test_non_orthogonal_u_rejected(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^u must be orthogonal$"):
                hat_fisher(np.eye(3), np.eye(3), u)


class TestQcrMinTrace:
    def test_origin_identity_weight(self):
        sol = qcr_min_trace(np.eye(3), np.eye(3))
        assert sol.bound == pytest.approx(9.0)
        assert np.allclose(sol.fisher_target, np.eye(3) / 3)

    def test_fisher_weight_gives_nine(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            j = qubit_qfi(random_point(rng))
            assert qcr_min_trace(j, j).bound == pytest.approx(9.0, abs=1e-10)

    def test_axis_point_identity_weight(self):
        j = qubit_qfi([0, 0, 0.5])
        expected = (2 + np.sqrt(0.75)) ** 2
        assert qcr_min_trace(j, np.eye(3)).bound == pytest.approx(expected, abs=1e-12)


class TestOptimalMeasurement:
    def test_origin_identity_recovers_tomography(self):
        derivs = qubit_slds([0, 0, 0])
        sol = optimal_measurement(derivs, np.eye(3), np.eye(3))
        assert np.allclose(sol.probs, [1 / 3, 1 / 3, 1 / 3])
        rho = np.eye(2) / 2
        assert np.allclose(sorted(outcome_distribution(rho, sol.measurement)),
                           np.full(6, 1 / 6))

    def test_reference_point_special_weight(self):
        derivs = qubit_slds(X0)
        j = qubit_qfi(X0)
        h = tomography_weight(X0)
        sol = optimal_measurement(derivs, j, h)
        tomo_value = np.trace(h @ np.linalg.inv(tomography_fisher(X0)))
        assert sol.bound == pytest.approx(tomo_value, abs=1e-8)
        g = classical_fisher(derivs, sol.measurement)
        assert np.max(np.abs(g - sol.fisher_target)) <= 1e-8

    def test_fisher_target_attained_randomly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_point(rng)
            h = random_weight(rng)
            derivs = qubit_slds(x)
            sol = optimal_measurement(derivs, qubit_qfi(x), h)
            g = classical_fisher(derivs, sol.measurement)
            assert np.max(np.abs(g - sol.fisher_target)) <= 1e-8

    def test_submodels(self):
        # restricting to fewer parameters still attains the target
        rng = np.random.default_rng(4)
        x = random_point(rng)
        full = qubit_slds(x)
        for d in (1, 2):
            derivs = ModelDerivatives(rho=full.rho, partials=full.partials[:d],
                                      slds=full.slds[:d])
            j = qubit_qfi(x)[:d, :d]
            a = rng.standard_normal((d, d))
            h = a @ a.T + np.eye(d)
            sol = optimal_measurement(derivs, j, h)
            g = classical_fisher(derivs, sol.measurement)
            assert np.max(np.abs(g - sol.fisher_target)) <= 1e-8

    def test_rejects_higher_dimension(self):
        from qest.measurements import mub_bases
        from qest.states import mub_derivatives
        fam = mub_bases(3)
        coords = np.zeros((4, 2))
        coords[0, 0] = 0.1
        derivs = mub_derivatives(coords, fam)
        from qest.states import model_qfi
        j = model_qfi(derivs)
        with pytest.raises(UnsupportedDimError):
            optimal_measurement(derivs, j, np.eye(8))


def _spectral_route(derivs, j, h):
    """Optimal measurement built branch by branch from the eigenprojectors
    of each rotated SLD combination Lhat^i = sum_k (U^-1 sqrt(J^-1))^{ik} L_k."""
    roots = _sqrt_and_inv_sqrt(j)
    sol = _min_trace(roots, h)
    k_mat = sol.basis.T @ roots[1]
    probs = sol.scales / float(np.sum(sol.scales))
    kept = np.flatnonzero(probs > 1e-15)
    keep_probs = probs[kept] / probs[kept].sum()
    ops = []
    for i, p in zip(kept, keep_probs):
        lhat = sum(k_mat[i, k] * derivs.slds[k] for k in range(derivs.n_params))
        ops.extend(float(p) * pvm_from_observable(lhat).ops)
    return keep_probs, np.array(ops)


class TestOptimalMeasurementMatchesSpectralRoute:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_probabilities_and_elements_in_order(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(60):
            x = random_point(rng, rmax=0.95)
            full = qubit_slds(x)
            derivs = ModelDerivatives(rho=full.rho, partials=full.partials[:d],
                                      slds=full.slds[:d])
            a = rng.standard_normal((d, d))
            h = a @ a.T + np.diag(rng.uniform(0.1, 1.0, size=d))
            j = qubit_qfi(x)[:d, :d]
            sol = optimal_measurement(derivs, j, h)
            probs, ops = _spectral_route(derivs, j, h)
            assert np.array_equal(sol.probs, probs)
            assert sol.measurement.ops.shape == ops.shape
            assert np.max(np.abs(sol.measurement.ops - ops)) <= 1e-14
            n = len(probs)
            assert sol.measurement.labels == tuple(
                f"{i + 1}{sign}" for i in range(n) for sign in "-+")
            assert sol.measurement.provenance == tuple(
                (i, float(p)) for i, p in enumerate(probs) for _ in "-+")


class TestTomographyWeight:
    def test_identity_at_origin(self):
        assert np.allclose(tomography_weight([0, 0, 0]), np.eye(3))

    def test_axis_point(self):
        assert np.allclose(tomography_weight([0.5, 0, 0]),
                           np.diag([1 / 0.75, 1.0, 1.0]))

    def test_reference_entry(self):
        h = tomography_weight(X0)
        assert h[0, 1] == pytest.approx(-0.3025 / 0.6975 ** 2)

    def test_a_stack_is_scored_point_by_point(self):
        rng = np.random.default_rng(7)
        x = np.array([random_point(rng) for _ in range(20)]).reshape(4, 5, 3)
        x[0, :2] = [[0.1, 0.2, 0.3], [0.3, 0.0, 0.0]]
        x[1, 0] = 0.0
        h = tomography_weight(x)
        assert h.shape == (4, 5, 3, 3)
        for k in np.ndindex(4, 5):
            one = tomography_weight(x[k])
            assert np.array_equal(h[k], one)
            # one point keeps the bits of the outer-product route
            denom = 1.0 - x[k] * x[k]
            outer = -np.outer(x[k], x[k]) / np.outer(denom, denom)
            np.fill_diagonal(outer, 1.0 / denom)
            assert np.array_equal(one, outer)

    def test_proof_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = random_point(rng)
            g = tomography_fisher(x)
            jinv = np.linalg.inv(qubit_qfi(x))
            assert np.max(np.abs(tomography_weight(x) - 9 * g @ jinv @ g)) <= 1e-9


class TestWeightFromFisher:
    def test_tomography_fisher_is_feasible(self):
        x = np.array([0.2, -0.1, 0.4])
        w, feasible = weight_from_fisher(tomography_fisher(x), qubit_qfi(x), k=9.0)
        assert feasible
        assert np.max(np.abs(w - tomography_weight(x))) <= 1e-9

    def test_third_of_fisher_matrix(self):
        x = np.array([0.3, 0.2, -0.1])
        j = qubit_qfi(x)
        w, feasible = weight_from_fisher(j / 3, j, k=9.0)
        assert feasible
        assert np.max(np.abs(w - j)) <= 1e-10

    def test_fisher_matrix_itself_infeasible(self):
        j = qubit_qfi([0.1, 0.1, 0.1])
        _, feasible = weight_from_fisher(j, j)
        assert not feasible

    def test_one_case_flag_is_a_python_bool(self):
        j = qubit_qfi([0.1, 0.1, 0.1])
        assert type(weight_from_fisher(j / 3, j)[1]) is bool
        assert type(weight_from_fisher(j, j)[1]) is bool

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_scale_must_be_positive_and_finite(self, k):
        j = qubit_qfi([0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="^scale k must be positive and finite, got "):
            weight_from_fisher(j / 3, j, k=k)


class TestRotationalWeights:
    def test_identity_values(self):
        w = RotWeight(1.0, 1.0)
        assert np.allclose(rot_weight_along(w, [0.3, 0.2, 0.1]), np.eye(3))

    def test_qfi_values_reproduce_fisher(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = random_point(rng)
            r = np.linalg.norm(x)
            h = rot_weight_along(qfi_rot_weight(r), x)
            assert np.max(np.abs(h - qubit_qfi(x))) <= 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        w = RotWeight(0.7, 2.3)
        x = random_point(rng)
        for _ in range(20):
            u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            assert np.max(np.abs(u.T @ rot_weight_along(w, u @ x) @ u
                                 - rot_weight_along(w, x))) <= 1e-10

    def test_eigenvalues(self):
        w = RotWeight(0.5, 2.0)
        h = rot_weight_along(w, [0.0, 0.6, 0.0])
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), [0.5, 0.5, 2.0])

    @pytest.mark.parametrize("values", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf),
                                        (1.0, np.nan)])
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="positive and finite"):
            RotWeight(*values)

    @pytest.mark.parametrize("r", [1.0, 1.5, -0.1, np.nan])
    def test_qfi_values_need_a_radius_inside_the_ball(self, r):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            qfi_rot_weight(r)

    def test_qfi_values_over_an_array_of_radii(self):
        radii = np.arange(0.0, 0.996, 0.05)
        w = qfi_rot_weight(radii)
        for k, r in enumerate(radii.tolist()):
            one = qfi_rot_weight(r)
            assert w.transverse == one.transverse and w.radial[k] == one.radial
            assert c_opt_closed(w, radii)[k] == c_opt_closed(one, r)

    @pytest.mark.parametrize("r, shown", [(1.5, "1.5"), (2, "2"), (np.nan, "nan"),
                                          (np.array([0.5, -0.25, 2.0]), "-0.25")])
    def test_one_radius_check_names_the_radius(self, r, shown):
        message = rf"^radius {shown} outside \[0, 1\)$"
        with pytest.raises(ValueError, match=message):
            qfi_rot_weight(r)
        with pytest.raises(ValueError, match=message):
            c_opt_closed(RotWeight(1.0, 1.0), r)


class TestUnitDirection:
    def test_ordinary_rows_keep_their_bits(self):
        rng = np.random.default_rng(88)
        v = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-100, 100, size=(50, 1))
        units = unit_direction(v)
        for k, vk in enumerate(v):
            assert np.array_equal(units[k], vk / np.sqrt(vk @ vk))
            assert np.array_equal(unit_direction(vk), units[k])

    @pytest.mark.parametrize("scale", [4e-200, 1e-160, 1e200, 5e-324])
    def test_squared_norm_under_or_overflow(self, scale, recwarn):
        v = np.array([1.0, -3.0, 2.0])
        assert np.array_equal(unit_direction(scale * v), unit_direction(v))
        stack = unit_direction(np.array([v, scale * v, 0.5 * v]))
        assert np.array_equal(stack, [unit_direction(v)] * 2 + [unit_direction(0.5 * v)])
        w = RotWeight(1.0, 2.0)
        assert np.array_equal(rot_weight_along(w, [scale] * 3), rot_weight_along(w, [1.0] * 3))
        assert [str(w.message) for w in recwarn] == []

    def test_zero_row_is_rejected(self):
        for v in ([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match="direction must be nonzero"):
                unit_direction(v)
            with pytest.raises(ValueError, match="direction must be nonzero"):
                rot_weight_along(RotWeight(1.0, 2.0), v)


class TestRotMeritSweep:
    def test_selector_map(self):
        assert ROT_WEIGHTS["identity"](0.7) == RotWeight(1.0, 1.0)
        assert ROT_WEIGHTS["qfi"](0.6) == qfi_rot_weight(0.6)

    def test_each_point_matches_its_one_point_calls(self):
        rng = np.random.default_rng(89)
        radii = np.array([0.0, 0.3, 0.77, 0.999])
        dirs = unit_direction(rng.standard_normal((5, 3)))
        weights = (*ROT_WEIGHTS.values(), lambda r: RotWeight(2.0, 0.5))
        c, ct, gap = rot_merit_sweep(weights, radii, dirs)
        assert c.shape == ct.shape == gap.shape == (4, 3, 5)
        for (a, b, k) in np.ndindex(c.shape):
            r, v = float(radii[a]), dirs[k]
            x = radii[a] * v
            w = weights[b](r)
            h = rot_weight_along(w, v)
            g_tomo = classical_fisher(qubit_slds(x), TOMO)
            assert c[a, b, k] == c_opt_closed(w, r)
            assert ct[a, b, k] == c_tomo_closed(w, x)
            assert gap[a, b, k] == max(abs(c[a, b, k] - qcr_min_trace(qubit_qfi(x), h).bound),
                                       abs(ct[a, b, k] - np.trace(h @ np.linalg.inv(g_tomo))))
        assert gap.max() <= 1e-6 * max(1.0, ct.max())

    def test_each_weight_function_is_called_once_on_every_radius(self):
        radii = np.array([0.0, 0.3, 0.77])
        calls = []

        def counted(weight_at):
            return lambda r: calls.append((weight_at, np.array(r))) or weight_at(r)

        weights = [ROT_WEIGHTS["identity"], ROT_WEIGHTS["qfi"], lambda r: RotWeight(2.0, 0.5)]
        c, _, _ = rot_merit_sweep([counted(w) for w in weights], radii, [[0.0, 0.0, 1.0]])
        assert [w for w, _ in calls] == weights
        for _, r in calls:
            assert np.array_equal(r, radii[:, None])
        assert c.shape == (3, 3, 1)
        assert np.array_equal(c[:, 0, 0], c_opt_closed(RotWeight(1.0, 1.0), radii))

    def test_radius_one_is_rejected(self):
        with pytest.raises(ValueError, match=r"radius 1.0 outside \[0, 1\)"):
            rot_merit_sweep([ROT_WEIGHTS["qfi"]], [0.5, 1.0], [[1.0, 0.0, 0.0]])


class TestClosedForms:
    def test_c_opt_trivial(self):
        assert c_opt_closed(RotWeight(1, 1), 0.0) == pytest.approx(9.0)

    def test_c_opt_fisher_weight_constant(self):
        for r in np.arange(0.0, 0.996, 0.05):
            assert c_opt_closed(qfi_rot_weight(r), r) == pytest.approx(9.0, abs=1e-10)

    def test_limits_near_boundary(self):
        r = 1.0 - 1e-8
        v = np.ones(3) / np.sqrt(3)
        assert 4.0 <= c_opt_closed(RotWeight(1, 1), r) <= 4.01
        assert 5.99 <= c_tomo_closed(RotWeight(1, 1), r * v) <= 6.01

    def test_anisotropy_axis_and_diagonal(self):
        assert anisotropy([0.0, 0.7, 0.0]) == pytest.approx(0.0)
        assert anisotropy([0.4, 0.4, 0.4]) == pytest.approx(2 / 3)
        assert anisotropy([0.4, -0.4, 0.4]) == pytest.approx(2 / 3)

    def test_anisotropy_scale_invariant_down_to_tiny_radii(self):
        # r^4 underflows below about 1e-77; the merits must stay finite there
        assert anisotropy([0.0, 0.0, 2.8e-127]) == 0.0
        assert anisotropy([4e-200, -4e-200, 4e-200]) == pytest.approx(2 / 3)
        assert np.isfinite(c_tomo_closed(RotWeight(1, 1), [0.0, 0.0, 2.8e-127]))

    def test_anisotropy_scale_invariant_up_to_huge_radii(self):
        # r^4 overflows above about 1e77 and r^2 above about 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert anisotropy([1e80] * 3) == anisotropy([1.0, 1.0, 1.0])
            assert anisotropy([1e200, 0.0, -1e200]) == anisotropy([1.0, 0.0, -1.0])
            assert anisotropy([0.0, 3e300, 0.0]) == 0.0
            ordinary = np.random.default_rng(35).standard_normal((20, 3))
            got = anisotropy(np.concatenate([ordinary, [[1e80] * 3, [0.0, -1e160, 1e-10]]]))
        assert np.array_equal(got[20:], [anisotropy([1.0, 1.0, 1.0]), 0.0])
        # the rows between the two rescaled ranges keep their bits
        r2 = np.vecdot(ordinary, ordinary)
        assert np.array_equal(got[:20], 1.0 - np.sum(ordinary ** 4, axis=-1)
                              / np.float_power(r2, 2))

    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                   [[0.1, 0.2, 0.3], [0.0, -np.inf, 1.0]]])
    def test_anisotropy_names_non_finite_points(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^point has non-finite entries$"):
                anisotropy(x)

    def test_overflowing_merits_rejected(self, recwarn):
        x = np.array([0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="merit overflows"):
            c_opt_closed(RotWeight(1e308, 1.0), 0.1)
        for w in (RotWeight(1e308, 1.0), RotWeight(1.0, 1e308)):
            with pytest.raises(ValueError, match="merit overflows"):
                c_tomo_closed(w, x)
        # near the overflow threshold a finite merit is still returned
        assert np.isfinite(c_opt_closed(RotWeight(4e307, 1.0), 0.1))
        assert np.isfinite(c_opt_closed(RotWeight(1.0, 1e308), 0.1))
        assert [str(w.message) for w in recwarn] == []

    def test_excess_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = random_point(rng, rmax=0.95)
            w = RotWeight(float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)))
            closed = c_tomo_closed(w, x) - c_opt_closed(w, float(np.linalg.norm(x)))
            assert closed >= -1e-10
            assert closed == pytest.approx(tomo_excess(x, rot_weight_along(w, x)), abs=1e-8)

    def test_excess_fisher_weight_diagonal_direction(self):
        r = 0.8
        x = r * np.ones(3) / np.sqrt(3)
        h = rot_weight_along(qfi_rot_weight(r), x)
        assert tomo_excess(x, h) == pytest.approx(2 * r ** 4 / (1 - r ** 2), abs=1e-8)

    def test_matches_bound_any_direction(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = random_point(rng, rmax=0.95)
            r = np.linalg.norm(x)
            w = RotWeight(float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)))
            h = rot_weight_along(w, x)
            assert c_opt_closed(w, r) == pytest.approx(
                qcr_min_trace(qubit_qfi(x), h).bound, abs=1e-8)
            assert c_tomo_closed(w, x) == pytest.approx(
                float(np.trace(h @ np.linalg.inv(tomography_fisher(x)))), abs=1e-8)


class TestTomoExcessSumOfSquares:
    """tomo_excess(x, h) = || R Ghat^-1/2 - (Tr R) Ghat^1/2 ||_F^2, with
    Ghat = J^-1/2 g_T J^-1/2, equals Tr H g_T^-1 - (Tr R)^2 for any weight."""

    def test_equals_the_subtraction_for_random_weights(self):
        rng = np.random.default_rng(120)
        x = np.array([random_point(rng, rmax=0.99) for _ in range(2000)])
        h = np.array([random_weight(rng) for _ in x])
        ct = np.trace(h @ np.linalg.inv(tomography_fisher(x)), axis1=-2, axis2=-1)
        subtraction = ct - qcr_min_trace(qubit_qfi(x), h).bound
        excess = tomo_excess(x, h)
        assert np.max(np.abs(excess - subtraction) / excess) <= 1e-12

    @pytest.mark.parametrize("k", [1e-6, 1.0, 7.0, 1e6])
    def test_zero_at_multiples_of_the_tomography_weight(self, k):
        rng = np.random.default_rng(121)
        for x in [np.array([0.3, -0.5, 0.6])] + [random_point(rng, rmax=0.99) for _ in range(20)]:
            # both merits are 9 k there; the differences are rounding-sized
            # entries of sqrt(k)-sized matrices, whose squares lie far below
            # (1e-13 sqrt(k))^2, while a subtraction of the merits leaves
            # about 1e-15 k
            assert 0.0 <= tomo_excess(x, k * tomography_weight(x)) <= 1e-26 * k

    def test_grows_as_the_square_of_a_perturbation(self):
        x = np.array([0.3, -0.5, 0.6])
        h_t = tomography_weight(x)
        eps = 10.0 ** -np.arange(2, 9)
        rng = np.random.default_rng(122)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            d = (a + a.T) / np.linalg.norm(a + a.T)
            excess = np.array([tomo_excess(x, h_t + e * d) for e in eps])
            assert np.all(excess >= 0.0)
            ratio = excess / eps ** 2
            assert ratio.max() <= 1.01 * ratio.min()


class TestGmLowerBound:
    def test_qubit_equals_min_trace(self):
        j = qubit_qfi([0.2, 0.3, -0.1])
        h = np.diag([1.0, 2.0, 3.0])
        assert gm_lower_bound(j, h, 2) == pytest.approx(qcr_min_trace(j, h).bound)

    def test_dim3_fisher_weight(self):
        j = np.eye(8) * 2.0
        assert gm_lower_bound(j, j, 3) == pytest.approx(32.0)

    def test_random_povms_respect_bound(self):
        rng = np.random.default_rng(11)
        x = np.array([0.2, 0.1, 0.3])
        derivs = qubit_slds(x)
        j = qubit_qfi(x)
        h = random_weight(rng)
        bound = gm_lower_bound(j, h, 2)
        for _ in range(30):
            povm = random_povm(2, int(rng.integers(4, 8)), rng)
            g = classical_fisher(derivs, povm)
            if np.linalg.eigvalsh(g)[0] < 1e-9:
                continue
            assert np.trace(h @ np.linalg.inv(g)) >= bound - 1e-8

    def test_random_povms_respect_bound_higher_dims(self):
        from qest.measurements import mub_bases
        from qest.states import model_qfi, mub_derivatives
        rng = np.random.default_rng(12)
        for q in (3, 4):
            fam = mub_bases(q)
            coords = rng.uniform(-0.03, 0.03, size=(q + 1, q - 1))
            derivs = mub_derivatives(coords, fam)
            j = model_qfi(derivs)
            d = j.shape[0]
            a = rng.standard_normal((d, d))
            h = a @ a.T + 0.5 * np.eye(d)
            bound = gm_lower_bound(j, h, q)
            checked = 0
            while checked < 12:
                povm = random_povm(q, int(rng.integers(d + 2, 2 * d + 2)), rng)
                g = classical_fisher(derivs, povm)
                if np.linalg.eigvalsh(g)[0] < 1e-8:
                    continue
                checked += 1
                assert np.trace(h @ np.linalg.inv(g)) >= bound - 1e-6


    @pytest.mark.parametrize("q", [2.5, 1, True, 2.0, "3"])
    def test_dimension_must_be_an_integer_of_at_least_2(self, q):
        j = np.eye(3)
        message = rf"^hilbert_dim must be an integer of at least 2, got {re.escape(repr(q))}$"
        with pytest.raises(ValueError, match=message):
            gm_lower_bound(j, j, q)
        assert gm_lower_bound(j, j, np.int64(3)) == gm_lower_bound(j, j, 3)


class TestMubTomographySweep:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_radius_is_named(self, bad):
        from qest.measurements import mub_bases
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^radius {bad} is not finite$"):
                mub_tomography_sweep(mub_bases(3), [0.1, bad])

    def test_stops_at_the_first_non_positive_state(self):
        from qest.measurements import mub_bases
        rows = mub_tomography_sweep(mub_bases(3), [0.1, 0.2, 2.0, 0.3])
        assert [r for r, _, _ in rows] == [0.1, 0.2]
        assert all(ct >= cgm for _, cgm, ct in rows)

    @pytest.mark.parametrize("coord", [(-1, 0), (7, 0), (4, 0), (0, 2), (0, -1), (1.0, 0)])
    def test_coordinate_outside_the_model_is_named(self, coord):
        from qest.measurements import mub_bases
        message = (r"^coord must be two integers with 0 <= basis <= 3 and 0 <= vector <= 1, "
                   rf"got \({coord[0]}, {coord[1]}\)$")
        with pytest.raises(ValueError, match=message):
            mub_tomography_sweep(mub_bases(3), [0.1], coord)

    def test_last_coordinate_of_each_range_is_swept(self):
        from qest.measurements import mub_bases
        family = mub_bases(3)
        rows = mub_tomography_sweep(family, [0.1], (np.int64(3), 1))
        assert rows == mub_tomography_sweep(family, [0.1], (3, 1)) and len(rows) == 1

    def test_verify_check_fails_when_the_sweep_stops_early(self, monkeypatch):
        import qest.bounds as bd
        from qest.verify import check_mub_bound_sweep
        assert check_mub_bound_sweep().passed
        sweep = bd.mub_tomography_sweep
        monkeypatch.setattr(bd, "mub_tomography_sweep",
                            lambda family, radii: sweep(family, radii)[:-1])
        assert not check_mub_bound_sweep().passed


class TestIndicatrix:
    def test_identity_unit_circle(self):
        pts = indicatrix_points(np.eye(3), plane=(0, 1), n=64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_diagonal_semi_axes(self):
        pts = indicatrix_points(np.diag([4.0, 1.0, 1.0]), plane=(0, 1), n=4)
        # phi = 0 is the first axis: radius 1/2; phi = pi/2: radius 1
        assert pts[0] == pytest.approx([0.5, 0.0], abs=1e-12)
        assert pts[1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_points_satisfy_quadratic_form(self):
        h = tomography_weight([0.5, 0.5, 0.0])
        pts = indicatrix_points(h, plane=(0, 1), n=100)
        for v in pts:
            full = np.array([v[0], v[1], 0.0])
            assert full @ h @ full == pytest.approx(1.0, abs=1e-10)

    def test_points_match_the_per_angle_loop(self):
        rng = np.random.default_rng(90)
        a = rng.standard_normal((4, 4))
        for h in (tomography_weight([0.3, -0.2, 0.5]), qubit_qfi([0.1, 0.6, -0.2]),
                  a @ a.T + 0.1 * np.eye(4)):
            for plane, n in (((0, 1), 360), ((2, 0), 37), ((1, 2), 1)):
                pts = indicatrix_points(h, plane=plane, n=n)
                for idx in range(n):
                    phi = 2.0 * np.pi * np.arange(n)[idx] / n
                    u = np.zeros(h.shape[0])
                    u[plane[0]], u[plane[1]] = np.cos(phi), np.sin(phi)
                    assert np.array_equal(pts[idx], (u / np.sqrt(u @ h @ u))[list(plane)])

    def test_tomography_weight_tilted(self):
        # off the axes the locus is an ellipse whose axes are rotated
        h = tomography_weight([0.5, 0.5, 0.0])
        block = h[:2, :2]
        _, vecs = np.linalg.eigh(block)
        principal = vecs[:, 0]
        angle = np.arctan2(principal[1], principal[0]) % (np.pi / 2)
        assert min(angle, np.pi / 2 - angle) > 0.1


class TestUnitTraceMinimum:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = int(rng.integers(2, 4))
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            s = q @ np.diag(rng.uniform(0.3, 2.5, size=d)) @ q.T
            s = (s + s.T) / 2
            numeric, g = min_trace_unit_trace(s)
            closed = float(np.trace(psd_sqrt(s))) ** 2
            assert numeric == pytest.approx(closed, abs=1e-5)
            expected_g = psd_sqrt(s) / np.trace(psd_sqrt(s))
            assert np.max(np.abs(g - expected_g)) <= 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_dimension_from_one_to_four(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            s = _spread_target(rng, d, 0.0)
            val, g = min_trace_unit_trace(s)
            root = psd_sqrt(s)
            assert val == pytest.approx(float(np.trace(root)) ** 2, rel=1e-12)
            assert np.max(np.abs(g - root / np.trace(root))) <= 1e-9
            assert float(np.trace(g)) == pytest.approx(1.0, abs=1e-15)
        assert min_trace_unit_trace([[2.5]]) == (2.5, np.eye(1))

    def test_condition_numbers_up_to_1e8(self, monkeypatch):
        # success with a cap of N steps means at most N Newton steps
        monkeypatch.setattr(bounds, "UNIT_TRACE_MAX_STEPS", 39)
        rng = np.random.default_rng(31)
        for k in range(60):
            s = _spread_target(rng, 2 + k % 3, 4.0)
            val, _ = min_trace_unit_trace(s)
            closed = float(np.sum(np.sqrt(np.linalg.eigvalsh(s)))) ** 2
            assert val == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("s, message", [
        ([[1.0, 0.5], [0.0, 1.0]], "target matrix is not symmetric"),
        ([[1.0, 0.0], [0.0, np.nan]], "target matrix has non-finite entries"),
        ([[1.0, 1.0], [1.0, 1.0]], "target matrix is not positive definite"),
    ])
    def test_bad_target_is_named(self, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            min_trace_unit_trace(np.array(s))

    def test_ill_conditioned_rotations_reach_the_minimum(self):
        # condition number 2.5e11: the damped Newton this solver replaced
        # returned 44 of these 400 rotations and raised on the others
        rng = np.random.default_rng(0)
        for _ in range(400):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            s = q @ np.diag([1.9e-6, 7.2e4, 4.8e5]) @ q.T
            s = (s + s.T) / 2
            val, _ = min_trace_unit_trace(s)
            closed = float(np.sum(np.sqrt(np.linalg.eigvalsh(s)))) ** 2
            assert val == pytest.approx(closed, rel=1e-8)

    def test_off_optimum_g_is_not_certified(self, monkeypatch):
        # G = I/3 on diag(1, 10, 100): value 333, convexity gap 567
        uncertified = (r"unit-trace minimum stopped at 3\.330000e\+02, which may exceed the "
                       r"minimum by up to 5\.670e\+02$")
        s = np.diag([1.0, 10.0, 100.0])
        good_inv = np.linalg.inv(min_trace_unit_trace(s)[1])
        stack = np.array([s] * 4)
        ginv = np.array([good_inv, good_inv, 3.0 * np.eye(3), 3.0 * np.eye(3)])
        vals = np.trace(stack @ ginv, axis1=-2, axis2=-1)
        with pytest.raises(NoConvergenceError, match=f"^{uncertified}"):
            bounds._certify_unit_trace(stack[2:3], vals[2:3], ginv[2:3], ())
        with pytest.raises(NoConvergenceError, match=f"^case 1, 0: {uncertified}"):
            bounds._certify_unit_trace(stack, vals, ginv, (2, 2))
        bounds._certify_unit_trace(stack[:2], vals[:2], ginv[:2], (2,))
        # min_trace_unit_trace certifies what it returns
        monkeypatch.setattr(bounds, "UNIT_TRACE_GAP", -1.0)
        with pytest.raises(NoConvergenceError, match="^case 0: unit-trace minimum stopped at "):
            min_trace_unit_trace(np.array([s, s]))

    def test_certificate_passes_condition_numbers_up_to_1e12(self):
        # a tolerance of 1e-7 on B's residual refuses some
        # of these from 1e7 on, although every value is within 1e-9 of
        # (Tr sqrt S)^2
        rng = np.random.default_rng(3)
        for k in range(2, 13):
            for _ in range(10):
                q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                s = q @ np.diag([1.0, 10.0 ** (k / 2), 10.0 ** k]) @ q.T
                val, _ = min_trace_unit_trace((s + s.T) / 2)
                closed = float(np.sum(np.sqrt(np.linalg.eigvalsh((s + s.T) / 2)))) ** 2
                assert val == pytest.approx(closed, rel=1e-9)

    def test_step_cap_raises_with_the_last_change(self, monkeypatch):
        monkeypatch.setattr(bounds, "UNIT_TRACE_MAX_STEPS", 1)
        with pytest.raises(NoConvergenceError, match=r"^unit-trace minimum not reached in 1 "
                           r"square-root steps; last relative change \S+$"):
            min_trace_unit_trace(np.diag([1.0, 2.0, 5.0]))

    def test_scaled_target_scales_the_value(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            s = _spread_target(rng, 3, 0.5)
            val, g = min_trace_unit_trace(s)
            for k in range(-60, 61, 2):
                scaled_val, scaled_g = min_trace_unit_trace(2.0 ** k * s)
                assert scaled_val == pytest.approx(2.0 ** k * val, rel=1e-14)
                assert np.max(np.abs(scaled_g - g)) <= 1e-14


def _spread_target(rng, d, decades):
    """A random symmetric positive definite d x d matrix with eigenvalues
    spread over 10^-decades to 10^decades (0.2 to 3 for decades = 0)."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    values = 10.0 ** rng.uniform(-decades, decades, size=d) if decades else \
        rng.uniform(0.2, 3.0, size=d)
    s = (q * values) @ q.T
    return (s + s.T) / 2


class TestStackedUnitTraceMinimum:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_gives_each_case_its_own_bits(self, d, monkeypatch):
        rng = np.random.default_rng(50 + d)
        targets = [_spread_target(rng, d, decades) for decades in (0.0, 0.5, 2.0, 4.0) * 2]
        targets.append(np.diag(np.arange(1.0, d + 1.0) ** 2 * 100.0 ** (np.arange(d) > 0)))
        # the stack of cases still running at each step
        running = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda m: running.append(len(m)) or slogdet(m))
        stack = np.array(targets)
        vals, gs = min_trace_unit_trace(stack)
        monkeypatch.undo()
        assert vals.shape == (len(targets),) and gs.shape == stack.shape
        # from d = 3 on the cases stop at their own steps; below, every case
        # takes the same steps (1 at d = 1, 3 at d = 2)
        assert running[0] == len(targets) and (running[-1] < len(targets)) == (d > 2)
        grid_vals, grid_gs = min_trace_unit_trace(stack.reshape(3, 3, d, d))
        assert np.array_equal(grid_vals.ravel(), vals)
        assert np.array_equal(grid_gs.reshape(gs.shape), gs)
        for s, val, g in zip(targets, vals, gs):
            one_val, one_g = min_trace_unit_trace(s)
            assert type(one_val) is float
            assert one_val == val and np.array_equal(one_g, g)
            # stopping at a change of 1e-4 instead of 1e-8 misses this by 1e-8
            root = psd_sqrt(s)
            assert np.max(np.abs(g - root / np.trace(root))) <= 1e-10

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, 0.5], [0.0, 1.0]], "target matrix is not symmetric"),
        ([[1.0, 0.0], [0.0, np.nan]], "target matrix has non-finite entries"),
        ([[1.0, 1.0], [1.0, 1.0]], "target matrix is not positive definite"),
    ])
    def test_stack_names_its_first_bad_target(self, bad, message):
        good, worse = np.diag([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^case 1: {message}$"):
                min_trace_unit_trace(np.array([good, bad, worse]))
            with pytest.raises(ValueError, match=f"^case 1, 0: {message}$"):
                min_trace_unit_trace(np.array([[good, good], [bad, worse]]))
        square = r"^target matrix must be square, got shape \(2, 2, 3\)$"
        with pytest.raises(ValueError, match=square):
            min_trace_unit_trace(np.zeros((2, 2, 3)))

    def test_stack_names_its_first_case_without_convergence(self, monkeypatch):
        monkeypatch.setattr(bounds, "UNIT_TRACE_MAX_STEPS", 2)
        # the identity stops after two steps, the others need five
        stuck = [np.diag([1.0, 2.0, 5.0]), np.diag([1.0, 3.0, 4.0])]
        with pytest.raises(NoConvergenceError) as alone:
            min_trace_unit_trace(stuck[0])
        with pytest.raises(NoConvergenceError) as stacked:
            min_trace_unit_trace(np.array([np.eye(3), *stuck]))
        assert str(stacked.value) == f"case 1: {alone.value}"
        monkeypatch.undo()
        vals, _ = min_trace_unit_trace(np.array([np.eye(3), *stuck]))
        assert vals[0] == min_trace_unit_trace(np.eye(3))[0]


class TestScaleFreePositiveDefiniteCheck:
    def test_design_of_a_power_of_two_multiple(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            j = qubit_qfi(random_point(rng, rmax=0.97))
            h = random_weight(rng)
            sol = qubit_design(j, j, h)
            for k in range(-60, 61, 2):
                scaled = qubit_design(j, j, 2.0 ** k * h)
                assert scaled.bound == pytest.approx(2.0 ** k * sol.bound, rel=1e-14)
                assert np.max(np.abs(scaled.probs - sol.probs)) <= 1e-14
                assert np.max(np.abs(scaled.axes - sol.axes)) <= 1e-14

    def test_tiny_matrices_pass_and_near_singular_ones_fail(self):
        for m in (1e-13 * np.eye(3), 2.0 ** -1000 * np.diag([1.0, 2.0, 3.0]),
                  np.diag([1.0, 1.0, 1e300])):
            assert np.array_equal(_check_sym_pd(m, "m"), m)
        for m in (np.diag([1.0, 1.0, 1e-13]), 1e-20 * np.diag([1.0, 1.0, 1e-13]),
                  np.diag([1e-13, 1e-13, 1.0])):
            with pytest.raises(SingularInputError, match="^m is not positive definite$"):
                _check_sym_pd(m, "m")
        # each element of a stack passes or fails as it does alone
        good = np.array([np.diag([1.0, 1.0, 1e13]), 1e-13 * np.eye(3)])
        assert np.array_equal(_check_sym_pd(good, "m"), good)
        for got, want in zip(_sqrt_and_inv_sqrt(good), _sqrt_and_inv_sqrt(good[1])):
            assert np.array_equal(got[1], want)
        with pytest.raises(SingularInputError, match="^m is not positive definite$"):
            _check_sym_pd(np.array([good[0], good[1], np.diag([1e-13, 1.0, 1.0])]), "m")


class TestInfiniteEntryNamed:
    @pytest.mark.parametrize("call, name", [
        (lambda: min_trace_unit_trace([[1.0, 0.0], [0.0, np.inf]]), "target matrix"),
        (lambda: qcr_min_trace(np.eye(3), np.diag([1.0, np.inf, 1.0])), "weight"),
        (lambda: hat_fisher(np.eye(3), np.diag([1.0, np.inf, 1.0])), "quantum Fisher matrix"),
    ], ids=["min_trace_unit_trace", "qcr_min_trace", "hat_fisher"])
    def test_named_without_a_numpy_warning(self, call, name):
        # inf - inf in the symmetry defect must not warn before the check names it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
                call()

    @pytest.mark.parametrize("call", [
        tomography_fisher, tomography_weight, lambda x: c_tomo_closed(RotWeight(1.0, 1.0), x),
        lambda x: tomo_excess(x, np.eye(3)),
    ], ids=["tomography_fisher", "tomography_weight", "c_tomo_closed", "tomo_excess"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stokes_vector_named(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Stokes vector .* has non-finite entries$"):
                call([bad, 0.0, 0.0])

    @pytest.mark.parametrize("call", [
        tomography_fisher, tomography_weight, lambda x: c_tomo_closed(RotWeight(1.0, 1.0), x),
        lambda x: tomo_excess(x, np.eye(3)),
    ], ids=["tomography_fisher", "tomography_weight", "c_tomo_closed", "tomo_excess"])
    def test_huge_finite_stokes_vector_named(self, call):
        # its squared norm overflows to inf, which lies outside the ball
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfBallError, match=r"^\|x\| = inf >= 1$"):
                call([1e200, 0.0, 0.0])

    @pytest.mark.parametrize("direction", [[np.nan, 0.0, 0.0], [1.0, np.inf, 0.0],
                                           [[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]]])
    def test_direction_named(self, direction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^direction has non-finite entries$"):
                unit_direction(direction)

    def test_overflowing_symmetry_defect_named_without_a_numpy_warning(self):
        # 1e308 - (-1e308) overflows to inf in the defect, which is named
        weight = [[1.0, 1e308, 0.0], [-1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInputError, match="^weight is not symmetric$"):
                qcr_min_trace(np.eye(3), weight)


# Reference routes: the per-outcome, per-decomposition forms these kernels
# had before they were vectorized, kept to pin the rewritten ones.

def _loop_classical_fisher(derivs, povm):
    probs = np.einsum("ij,nji->n", derivs.rho, povm.ops).real
    dprobs = np.einsum("kij,nji->nk", np.stack(derivs.partials), povm.ops).real
    g = np.zeros((derivs.n_params, derivs.n_params))
    for n in range(len(povm)):
        p, dp = probs[n], dprobs[n]
        if p < 1e-14:
            if float(np.max(np.abs(np.outer(dp, dp)))) < 1e-20:
                continue
            raise SingularOutcomeError(
                f"outcome {povm.labels[n]} has probability {p:.3e} but nonzero derivative")
        g += np.outer(dp, dp) / p
    return (g + g.T) / 2


def _five_decomposition_min_trace(j, h):
    """(Tr R)^2, R and the Fisher target through eigvalsh(J), eigvalsh(H),
    hermitian_eig(J), psd_sqrt(core) and hermitian_eig(R)."""
    from qest.linalg import hermitian_eig, hermitize
    for m in (j, h):
        assert np.linalg.eigvalsh((m + m.T) / 2)[0] > 1e-12
    values, vectors = hermitian_eig(j)
    sq_j = np.real((vectors * np.sqrt(values)) @ vectors.conj().T)
    inv_sq_j = np.real((vectors / np.sqrt(values)) @ vectors.conj().T)
    r = psd_sqrt(hermitize(inv_sq_j @ h @ inv_sq_j).real)
    scales, _ = hermitian_eig(r)
    tr_r = float(np.trace(r))
    target = sq_j @ r @ sq_j / tr_r
    return tr_r ** 2, r, (target + target.T) / 2, np.real(scales)


def _null_outcome_model():
    """A qutrit state with an empty third level; the POVM's last two
    outcomes have probability zero."""
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    partials = (np.diag([0.5, -0.5, 0.0]).astype(complex),
                np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]], dtype=complex))
    ops = np.array([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]),
                    np.diag([0, 0, 0.5]), np.diag([0, 0, 0.5])], dtype=complex)
    povm = Povm(dim=3, labels=("a", "b", "c", "d"), ops=ops)
    return ModelDerivatives(rho=rho, partials=partials, slds=partials), povm


class TestKernelsMatchTheirLoopRoutes:
    def test_classical_fisher_matches_the_per_outcome_loop(self):
        from qest.measurements import mub_bases, mub_tomography_povm
        from qest.states import mub_derivatives
        rng = np.random.default_rng(71)
        cases = []
        for _ in range(30):
            derivs = qubit_slds(random_point(rng, rmax=0.99))
            cases.append((derivs, random_povm(2, int(rng.integers(1, 9)), rng)))
            cases.append((derivs, TOMO))
        for q in (3, 4):
            family = mub_bases(q)
            derivs = mub_derivatives(rng.uniform(-0.04, 0.04, size=(q + 1, q - 1)), family)
            cases.append((derivs, mub_tomography_povm(family)))
            cases.append((derivs, random_povm(q, 2 * q + 1, rng)))
        for derivs, povm in cases:
            got = classical_fisher(derivs, povm)
            want = _loop_classical_fisher(derivs, povm)
            # a matmul sums the outcomes in another order than the loop
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert np.array_equal(got, got.T)

    def test_classical_fisher_skips_and_rejects_null_outcomes_like_the_loop(self):
        derivs, povm = _null_outcome_model()
        # zero probability with zero derivative: skipped by both
        assert np.array_equal(classical_fisher(derivs, povm),
                              _loop_classical_fisher(derivs, povm))
        # give both null outcomes a nonzero derivative: the first is named
        moved = ModelDerivatives(
            rho=derivs.rho,
            partials=(np.diag([0.5, 0.0, -0.5]).astype(complex),) + derivs.partials[1:],
            slds=derivs.slds)
        with pytest.raises(SingularOutcomeError) as got:
            classical_fisher(moved, povm)
        with pytest.raises(SingularOutcomeError) as want:
            _loop_classical_fisher(moved, povm)
        assert str(got.value) == str(want.value)
        assert "outcome c " in str(got.value)

    def test_qcr_min_trace_matches_the_five_decomposition_route(self):
        rng = np.random.default_rng(72)
        for k in range(60):
            x = random_point(rng, rmax=0.97)
            if k % 3 == 2:
                a = rng.standard_normal((3, 3))
                j = a @ a.T + 0.05 * np.eye(3)
            else:
                j = qubit_qfi(x)
            h = random_weight(rng) if k % 2 else tomography_weight(x)
            sol = qcr_min_trace(j, h)
            bound, r, target, scales = _five_decomposition_min_trace(j, h)
            assert sol.bound == pytest.approx(bound, rel=1e-12)
            scale_r = np.max(np.abs(r))
            assert np.max(np.abs(sol.r_matrix - r)) <= 1e-12 * scale_r
            assert np.max(np.abs(sol.fisher_target - target)) \
                <= 1e-12 * np.max(np.abs(target))
            assert np.allclose(np.sort(sol.scales), scales, rtol=0, atol=1e-12 * scale_r)
            # the basis diagonalizes R with the scales as its eigenvalues
            assert np.allclose(sol.basis.T @ sol.basis, np.eye(3), rtol=0, atol=1e-12)
            assert np.max(np.abs(sol.r_matrix @ sol.basis - sol.basis * sol.scales)) \
                <= 1e-12 * scale_r


def _einsum_classical_fisher(derivs, povm):
    """classical_fisher for one state as it was before it took stacks: the
    outcome probabilities through np.einsum."""
    probs = np.einsum("ij,nji->n", derivs.rho, povm.ops).real
    dprobs = np.einsum("kij,nji->nk", np.stack(derivs.partials), povm.ops).real
    null = probs < 1e-14
    live = np.flatnonzero(null & (np.abs(dprobs).max(axis=1) ** 2 >= 1e-20))
    if live.size:
        n = live[0]
        raise SingularOutcomeError(
            f"outcome {povm.labels[n]} has probability {probs[n]:.3e} but nonzero derivative")
    g = (dprobs.T / np.where(null, np.inf, probs)) @ dprobs
    return (g + g.T) / 2


def _stack_points(rng, n=60):
    """Stokes vectors for stack tests: random interior points, the origin,
    points within 1e-6 of the sphere, axis points and the two rows whose
    anisotropy is taken after rescaling."""
    x = np.array([random_point(rng, rmax=0.99) for _ in range(n)])
    near = rng.standard_normal((8, 3))
    near *= ((1.0 - rng.uniform(1e-9, 1e-6, size=8)) / np.linalg.norm(near, axis=1))[:, None]
    special = np.array([[0.0, 0.0, 0.0], [0.0, -0.7, 0.0], [0.0, 0.0, 2.8e-127],
                        [4e-200, -4e-200, 4e-200], [0.3, 0.3, -0.3]])
    pts = np.concatenate([x, near, special])
    return pts[rng.permutation(len(pts))]


def _same_solution(got, want):
    assert np.array_equal(got.bound, want.bound)
    for field in ("r_matrix", "basis", "scales", "fisher_target"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def _raises_like_one_call(stacked_call, single_call):
    """The stacked call raises the error class and message of the call on
    the bad element alone."""
    with pytest.raises(ValueError) as want:
        single_call()
    with pytest.raises(type(want.value)) as got:
        stacked_call()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


class TestStackedKernels:
    """Each kernel gives every element of a stack the bits of its own call."""

    def test_qubit_state_slds_and_qfi(self):
        x = _stack_points(np.random.default_rng(81))
        qfi, derivs, states = qubit_qfi(x), qubit_slds(x), qubit_state(x)
        assert qfi.shape == (len(x), 3, 3) and derivs.rho.shape == (len(x), 2, 2)
        for k, xk in enumerate(x):
            one = qubit_slds(xk)
            assert np.array_equal(qfi[k], qubit_qfi(xk))
            assert np.array_equal(states[k], qubit_state(xk))
            assert np.array_equal(derivs.rho[k], one.rho)
            for got, want in zip(derivs.slds, one.slds):
                assert np.array_equal(got[k], want)
            for got, want in zip(derivs.partials, one.partials):
                assert np.array_equal(got, want)

    def test_classical_fisher(self):
        rng = np.random.default_rng(82)
        x = _stack_points(rng)[:, None] * np.array([1.0, 0.5])[:, None]
        derivs = qubit_slds(x)
        for povm in (TOMO, random_povm(2, 5, rng), random_povm(2, 1, rng)):
            g = classical_fisher(derivs, povm)
            assert g.shape == x.shape[:2] + (3, 3)
            for k in np.ndindex(x.shape[:2]):
                one = qubit_slds(x[k])
                assert np.array_equal(g[k], classical_fisher(one, povm))
                assert np.array_equal(g[k], _einsum_classical_fisher(one, povm))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_classical_fisher_over_stacked_povms(self, q):
        """Ragged groups: POVMs of one outcome count stacked against their
        own states have, each, the bits of their one call.  (For one outcome
        and q > 2, einsum orders the derivative sums by the stack's shape.)"""
        from qest.measurements import mub_bases
        from qest.states import mub_derivatives
        rng = np.random.default_rng((85, q))
        family = mub_bases(q) if q > 2 else None
        for n in range(1 if q == 2 else 2, 2 * q + 2):
            size = int(rng.integers(1, 7))
            if q == 2:
                points = [qubit_slds(random_point(rng, rmax=0.99)) for _ in range(size)]
            else:
                points = [mub_derivatives(rng.uniform(-0.04, 0.04, size=(q + 1, q - 1)), family)
                          for _ in range(size)]
            povms = [random_povm(q, n, rng) for _ in range(size)]
            stacked = ModelDerivatives(rho=np.stack([p.rho for p in points]),
                                       partials=points[0].partials, slds=())
            g = classical_fisher(stacked, np.stack([p.ops for p in povms]))
            k = len(points[0].partials)
            assert g.shape == (size, k, k)
            for k, (one, povm) in enumerate(zip(points, povms)):
                want = classical_fisher(one, povm)
                assert np.array_equal(g[k], want)
                assert np.array_equal(g[k], _einsum_classical_fisher(one, povm))
                loop = _loop_classical_fisher(one, povm)
                assert np.max(np.abs(g[k] - loop)) <= 1e-12 * max(1.0, np.max(np.abs(loop)))
            # POVMs (2, 3) broadcast against one state and against states (2, 1)
            ops = np.stack([random_povm(q, n, rng).ops for _ in range(6)]).reshape(2, 3, n, q, q)
            rho = np.stack([points[0].rho, points[-1].rho])[:, None]
            both = classical_fisher(ModelDerivatives(rho, points[0].partials, ()), ops)
            alone = classical_fisher(points[0], ops)
            for a, b in np.ndindex(2, 3):
                povm = Povm(dim=q, labels=[str(i) for i in range(n)], ops=ops[a, b])
                assert np.array_equal(alone[a, b], classical_fisher(points[0], povm))
                assert np.array_equal(both[a, b], classical_fisher((points[0], points[-1])[a], povm))

    def test_classical_fisher_stack_names_the_first_singular_outcome(self):
        derivs, povm = _null_outcome_model()
        moved = ModelDerivatives(
            rho=derivs.rho,
            partials=(np.diag([0.0, 0.0, -0.5]).astype(complex),) + derivs.partials[1:],
            slds=derivs.slds)
        fine = np.array([povm.ops[[2, 3, 0, 1]], povm.ops])
        with pytest.raises(SingularOutcomeError) as got:
            classical_fisher(moved, fine)
        with pytest.raises(SingularOutcomeError) as want:
            classical_fisher(moved, Povm(dim=3, labels="0123", ops=fine[0]))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("outcome 0 has probability 0.000e+00")

    def test_one_state_keeps_the_einsum_sums(self):
        """The outcome probabilities are summed in np.einsum's order, so one
        state's Fisher matrix has the bits of the einsum route."""
        from qest.measurements import mub_bases, mub_tomography_povm
        from qest.states import mub_derivatives
        rng = np.random.default_rng(83)
        cases = [(qubit_slds(random_point(rng, rmax=0.99)), random_povm(2, int(n), rng))
                 for n in rng.integers(1, 9, size=40)]
        for q in (3, 4):
            family = mub_bases(q)
            derivs = mub_derivatives(rng.uniform(-0.04, 0.04, size=(q + 1, q - 1)), family)
            cases += [(derivs, mub_tomography_povm(family)), (derivs, random_povm(q, 2 * q, rng))]
        for derivs, povm in cases:
            assert np.array_equal(classical_fisher(derivs, povm),
                                  _einsum_classical_fisher(derivs, povm))

    def test_symmetrized_and_checked_matrices(self):
        rng = np.random.default_rng(84)
        stack = np.array([random_weight(rng) for _ in range(30)]).reshape(5, 6, 3, 3)
        stack += 1e-12 * rng.standard_normal(stack.shape)
        sym, pd = _symmetrized(stack, "m"), _check_sym_pd(stack, "m")
        roots = _sqrt_and_inv_sqrt(stack)
        for k in np.ndindex(stack.shape[:2]):
            assert np.array_equal(sym[k], _symmetrized(stack[k], "m"))
            assert np.array_equal(pd[k], _check_sym_pd(stack[k], "m"))
            for got, want in zip(roots, _sqrt_and_inv_sqrt(stack[k])):
                assert np.array_equal(got[k], want)

    def test_qcr_min_trace_equals_one_call_per_matrix(self):
        rng = np.random.default_rng(74)
        x = _stack_points(rng)
        j = qubit_qfi(x)
        hs = np.array([[np.eye(3)] * len(x), [random_weight(rng) for _ in x],
                       [tomography_weight(xk) for xk in x]])
        sol = qcr_min_trace(j, hs)
        assert sol.bound.shape == (3, len(x))
        for w, k in np.ndindex(3, len(x)):
            one = qcr_min_trace(j[k], hs[w, k])
            assert isinstance(one.bound, float)
            _same_solution(type(sol)(sol.bound[w, k], sol.r_matrix[w, k], sol.basis[w, k],
                                     sol.scales[w, k], sol.fisher_target[w, k]), one)
        # _min_trace takes the decomposition of a stack of J just the same
        _same_solution(_min_trace(_sqrt_and_inv_sqrt(j), hs[1]), qcr_min_trace(j, hs[1]))
        with pytest.raises(SingularInputError):
            qcr_min_trace(np.eye(3), [np.eye(3), -np.eye(3)])

    def test_hat_fisher_decomposes_each_j_for_its_g_stack(self):
        rng = np.random.default_rng(85)
        x = np.array([random_point(rng) for _ in range(4)])
        j = qubit_qfi(x)
        g = np.array([[classical_fisher(qubit_slds(xk), random_povm(2, 4, rng)) for xk in x]
                      for _ in range(3)])
        ghat = hat_fisher(g, j)
        for r, k in np.ndindex(3, 4):
            assert np.array_equal(ghat[r, k], hat_fisher(g[r, k], j[k]))

    def test_rotational_closed_forms(self):
        x = _stack_points(np.random.default_rng(86))
        nonzero = x[np.any(x, axis=1) & (np.abs(x).max(axis=1) > 1e-100)]
        t = anisotropy(x)
        for k, xk in enumerate(x):
            assert isinstance(anisotropy(xk), float) and np.array_equal(t[k], anisotropy(xk))
        for w in (RotWeight(1.0, 1.0), RotWeight(2.0, 0.5), RotWeight(0.3, 1e5)):
            ct, hs = c_tomo_closed(w, x), rot_weight_along(w, nonzero)
            for k, xk in enumerate(x):
                assert isinstance(c_tomo_closed(w, xk), float)
                assert np.array_equal(ct[k], c_tomo_closed(w, xk))
            for k, vk in enumerate(nonzero):
                assert np.array_equal(hs[k], rot_weight_along(w, vk))

    def test_tomography_fisher_and_excess(self):
        rng = np.random.default_rng(88)
        x = _stack_points(rng)
        g = tomography_fisher(x)
        h = np.array([random_weight(rng) for _ in x])
        excess = tomo_excess(x, h)
        for k, xk in enumerate(x):
            assert np.array_equal(g[k], tomography_fisher(xk))
            assert np.array_equal(g[k], np.diag(1.0 / (1.0 - xk * xk)) / 3.0)
            assert isinstance(tomo_excess(xk, h[k]), float)
            assert np.array_equal(excess[k], tomo_excess(xk, h[k]))

    def test_qubit_bures_broadcasts_both_points(self):
        rng = np.random.default_rng(87)
        x = np.array([random_point(rng, rmax=0.99) for _ in range(6)])
        y = np.array([random_point(rng, rmax=0.99) for _ in range(4)])
        b = qubit_bures(x[:, None], y)
        for k, xk in enumerate(x):
            assert np.array_equal(b[k], qubit_bures(xk, y))


def _bad_in_the_middle(stack, bad):
    stack = np.array(stack)
    stack[len(stack) // 2] = bad
    return stack


class TestStackedChecks:
    """One bad element in the middle of a stack raises what its own call
    raises."""

    GOOD_J = np.array([qubit_qfi(x) for x in ([0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-0.5, 0.4, 0.1])])

    @pytest.mark.parametrize("bad", [
        np.array([[2.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # not symmetric
        np.diag([1.0, np.nan, 1.0]),                                        # NaN
        np.diag([1.0, 1.0, -1.0]),                                          # indefinite
        np.diag([1.0, 1.0, 1e-13]),                                         # singular
    ])
    def test_bad_fisher_matrix_or_weight(self, bad):
        j = _bad_in_the_middle(self.GOOD_J, bad)
        _raises_like_one_call(lambda: qcr_min_trace(j, np.eye(3)),
                              lambda: qcr_min_trace(bad, np.eye(3)))
        _raises_like_one_call(lambda: qcr_min_trace(self.GOOD_J, j),
                              lambda: qcr_min_trace(np.eye(3), bad))
        _raises_like_one_call(lambda: hat_fisher(self.GOOD_J, j),
                              lambda: hat_fisher(np.eye(3), bad))

    @pytest.mark.parametrize("bad", [[0.6, 0.6, 0.6], [1.0, 0.0, 0.0], [0.0, -1.5, 0.0]])
    def test_point_outside_the_ball(self, bad):
        x = _bad_in_the_middle([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.5, -0.5, 0.1]], bad)
        w = RotWeight(1.0, 2.0)
        for kernel in (qubit_qfi, qubit_slds, qubit_state, lambda v: c_tomo_closed(w, v)):
            _raises_like_one_call(lambda: kernel(x), lambda: kernel(np.array(bad)))
            with pytest.raises(OutOfBallError):
                kernel(x)

    def test_null_outcome_with_nonzero_derivative(self):
        derivs, povm = _null_outcome_model()
        partials = (np.diag([0.5, 0.0, -0.5]).astype(complex),) + derivs.partials[1:]
        bad = ModelDerivatives(rho=derivs.rho, partials=partials, slds=partials)
        good = [np.diag([0.4, 0.3, 0.3]).astype(complex), np.diag([0.2, 0.2, 0.6]).astype(complex)]
        stack = ModelDerivatives(rho=np.array([good[0], derivs.rho, good[1]]),
                                 partials=partials, slds=partials)
        _raises_like_one_call(lambda: classical_fisher(stack, povm),
                              lambda: classical_fisher(bad, povm))
        # the good states alone score, as one call each does
        ok = ModelDerivatives(rho=np.array(good), partials=partials, slds=partials)
        g = classical_fisher(ok, povm)
        for k, rho in enumerate(good):
            one = ModelDerivatives(rho=rho, partials=partials, slds=partials)
            assert np.array_equal(g[k], classical_fisher(one, povm))


class TestStackedDesignsAndWeights:
    """The kernels the stacked verify checks call: each element of a stack
    gets the bits of its own call."""

    def test_hat_fisher_over_a_stack_of_u(self):
        rng = np.random.default_rng(140)
        x = np.array([random_point(rng) for _ in range(12)]).reshape(3, 4, 3)
        u = np.linalg.qr(rng.standard_normal((3, 4, 3, 3)))[0]
        g = classical_fisher(qubit_slds(x), TOMO)
        j = qubit_qfi(x)
        ghat = hat_fisher(g, j, u)
        assert ghat.shape == (3, 4, 3, 3)
        shared = hat_fisher(g, j, u[0, 0])
        for k in np.ndindex(3, 4):
            assert np.array_equal(ghat[k], hat_fisher(g[k], j[k], u[k]))
            assert np.array_equal(shared[k], hat_fisher(g[k], j[k], u[0, 0]))

    def test_hat_fisher_rejects_a_non_orthogonal_u_in_a_stack(self):
        u = np.stack([np.eye(3), 2.0 * np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match="^u must be orthogonal$"):
            hat_fisher(np.eye(3), np.eye(3), u)

    @staticmethod
    def _design_inputs(rng, n):
        x = np.array([random_point(rng) for _ in range(n)])
        h = np.array([random_weight(rng) for _ in range(n)])
        # a spread this large drops the first branch of its design
        h[3] = np.diag([1e300, 1.0, 1.0])
        return x, h

    def test_qubit_design_keeps_dropped_branches_as_zeros(self):
        x, h = self._design_inputs(np.random.default_rng(141), 9)
        j = qubit_qfi(x)
        sol = qubit_design(j, j, h)
        assert sol.probs.shape == (9, 3) and sol.axes.shape == (9, 3, 3)
        for k in range(9):
            one = qubit_design(j[k], j[k], h[k])
            _same_solution(bounds.OptimalSolution(
                bound=sol.bound[k], r_matrix=sol.r_matrix[k], basis=sol.basis[k],
                scales=sol.scales[k], fisher_target=sol.fisher_target[k]), one)
            assert np.array_equal(sol.probs[k], one.probs)
            assert np.array_equal(sol.axes[k], one.axes)
            kept = one.probs > 0.0
            assert not one.axes[~kept].any()
            assert kept.sum() == (2 if k == 3 else 3)

    def test_optimal_measurement_over_a_stack(self):
        x, h = self._design_inputs(np.random.default_rng(142), 9)
        x = x.reshape(3, 3, 3)
        h = h.reshape(3, 3, 3, 3)
        derivs = qubit_slds(x)
        sol = optimal_measurement(derivs, qubit_qfi(x), h)
        assert sol.measurement.shape == (3, 3, 6, 2, 2)
        g = classical_fisher(derivs, sol.measurement)
        for k in np.ndindex(3, 3):
            one = optimal_measurement(qubit_slds(x[k]), qubit_qfi(x[k]), h[k])
            assert np.array_equal(sol.fisher_target[k], one.fisher_target)
            assert np.array_equal(sol.bound[k], one.bound)
            assert np.array_equal(sol.measurement[k], one.measurement.ops)
            assert np.array_equal(g[k], classical_fisher(qubit_slds(x[k]), one.measurement))

    def test_weight_from_fisher_over_a_stack(self):
        rng = np.random.default_rng(144)
        x = np.array([random_point(rng) for _ in range(4)])
        j = qubit_qfi(x)
        a = rng.standard_normal((4, 2, 3, 3))
        g0 = a @ a.mT + 0.1 * np.eye(3)
        g0 /= np.trace(g0, axis1=-2, axis2=-1)[..., None, None]
        sq_j = psd_sqrt(j)[:, None]
        f = sq_j @ g0 @ sq_j
        # the Fisher matrix itself is not the optimal Fisher matrix of any weight
        f[2, 1] = j[2]
        w, feasible = weight_from_fisher(f, j[:, None], k=2.5)
        assert w.shape == (4, 2, 3, 3) and feasible.shape == (4, 2)
        assert feasible.sum() == 7 and not feasible[2, 1]
        for k in np.ndindex(4, 2):
            one_w, one_feasible = weight_from_fisher(f[k], j[k[0]], k=2.5)
            assert np.array_equal(w[k], one_w)
            assert feasible[k] == one_feasible

    @pytest.mark.parametrize("bad", [
        np.array([[2.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # not symmetric
        np.diag([1.0, np.nan, 1.0]),                                        # NaN
        np.diag([1.0, 1.0, -1.0]),                                          # indefinite
    ])
    def test_weight_from_fisher_names_a_bad_matrix_in_a_stack(self, bad):
        good = TestStackedChecks.GOOD_J
        stack = _bad_in_the_middle(good, bad)
        _raises_like_one_call(lambda: weight_from_fisher(stack, good),
                              lambda: weight_from_fisher(bad, np.eye(3)))
        _raises_like_one_call(lambda: weight_from_fisher(good, stack),
                              lambda: weight_from_fisher(np.eye(3), bad))

    def test_rot_weight_holds_read_only_value_arrays(self):
        t = np.array([1.0, 2.0])
        w = RotWeight(t, np.array([3.0, 0.5]))
        t[0] = 5.0
        assert w.transverse[0] == 1.0 and not w.transverse.flags.writeable
        assert w == RotWeight(np.array([1.0, 2.0]), np.array([3.0, 0.5]))
        assert hash(w) == hash(RotWeight(np.array([1.0, 2.0]), np.array([3.0, 0.5])))
        assert w != RotWeight(np.array([1.0, 2.0]), np.array([3.0, 0.6]))
        assert RotWeight(1.0, 2.0) == RotWeight(1.0, 2.0)
        assert hash(RotWeight(1.0, 2.0)) == hash(RotWeight(1.0, 2.0))

    @pytest.mark.parametrize("values", [([1.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [np.nan, 1.0]),
                                        ([1.0, np.inf], [1.0, 1.0]), (1.0, [2.0, -1.0])])
    def test_rot_weight_rejects_any_bad_value(self, values):
        with pytest.raises(ValueError, match="positive and finite"):
            RotWeight(*(np.array(v) if isinstance(v, list) else v for v in values))

    def test_closed_forms_over_stacked_weight_values(self):
        rng = np.random.default_rng(143)
        x = np.array([random_point(rng, rmax=0.95) for _ in range(40)])
        x[0] = 0.0
        f, g = rng.uniform(0.1, 3.0, size=40), rng.uniform(0.1, 3.0, size=40)
        w = RotWeight(f, g)
        r = np.sqrt(np.vecdot(x, x))
        c, ct = c_opt_closed(w, r), c_tomo_closed(w, x)
        # the origin has no direction to take a weight along
        h = rot_weight_along(RotWeight(f[1:], g[1:]), x[1:])
        for k in range(40):
            one = RotWeight(float(f[k]), float(g[k]))
            rk = float(np.linalg.norm(x[k]))
            assert c[k] == c_opt_closed(one, rk) == c_opt_closed(one, r[k])
            assert ct[k] == c_tomo_closed(one, x[k])
            if k:
                assert np.array_equal(h[k - 1], rot_weight_along(one, x[k]))
        # one weight over many radii, and many weights at one point
        assert np.array_equal(c_opt_closed(RotWeight(2.0, 0.5), r),
                              [c_opt_closed(RotWeight(2.0, 0.5), float(rk)) for rk in r])
        assert np.array_equal(c_tomo_closed(w, x[5]),
                              [c_tomo_closed(RotWeight(float(a), float(b)), x[5])
                               for a, b in zip(f, g)])

    def test_closed_forms_name_a_bad_element(self, recwarn):
        w = RotWeight(np.array([1.0, 1e308, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=r"^radius 1.5 outside \[0, 1\)$"):
            c_opt_closed(RotWeight(1.0, 1.0), np.array([0.2, 1.5, np.nan]))
        with pytest.raises(ValueError, match=r"^radius nan outside \[0, 1\)$"):
            c_opt_closed(RotWeight(1.0, 1.0), np.array([0.2, np.nan, 1.5]))
        with pytest.raises(ValueError, match="merit overflows"):
            c_opt_closed(w, np.array([0.1, 0.1, 0.1]))
        with pytest.raises(ValueError, match="merit overflows"):
            c_tomo_closed(w, np.full((3, 3), 0.1))
        assert [str(m.message) for m in recwarn] == []
