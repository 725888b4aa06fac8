import warnings

import numpy as np
import pytest

from qest.linalg import sld_residual, solve_sld
from qest.measurements import mub_bases
from qest.states import (
    NotPositiveError,
    OutOfBallError,
    ID2,
    PAULIS,
    bloch_operator,
    bures_distance,
    model_qfi,
    mub_derivatives,
    mub_partials,
    mub_state,
    qubit_bures,
    qubit_qfi,
    qubit_slds,
    qubit_state,
)

X0 = np.array([0.55, 0.55, 0.55])


def random_point(rng, rmax=0.9):
    x = rng.standard_normal(3)
    return x * (rng.random() * rmax / np.linalg.norm(x))


class TestQubitState:
    def test_origin(self):
        assert np.allclose(qubit_state([0, 0, 0]), np.eye(2) / 2)

    def test_diagonal(self):
        assert np.allclose(qubit_state([0, 0, 0.5]), np.diag([0.75, 0.25]))

    def test_reference_point_eigenvalues(self):
        r = np.sqrt(3 * 0.55 ** 2)
        eigs = np.linalg.eigvalsh(qubit_state(X0))
        assert np.allclose(eigs, [(1 - r) / 2, (1 + r) / 2], atol=1e-12)

    def test_affine_reflection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_point(rng)
            assert np.allclose(qubit_state(-x), np.eye(2) - qubit_state(x), atol=1e-13)

    def test_rejects_boundary(self):
        with pytest.raises(OutOfBallError):
            qubit_state([1.0, 0.0, 0.0])


class TestQubitSlds:
    def test_origin_gives_paulis(self):
        d = qubit_slds([0, 0, 0])
        for mu in range(3):
            assert np.allclose(d.slds[mu], PAULIS[mu], atol=1e-13)

    def test_axis_point_formula(self):
        d = qubit_slds([0, 0, 0.5])
        tau = qubit_state([0, 0, 0.5])
        expected = PAULIS[2] - (0.5 / (2 * 0.1875)) * (np.eye(2) - tau)
        assert np.allclose(d.slds[2], expected, atol=1e-12)

    def test_satisfies_sld_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = qubit_slds(random_point(rng))
            for mu in range(3):
                assert sld_residual(d.rho, PAULIS[mu] / 2, d.slds[mu]) <= 1e-12

    def test_agrees_with_solver(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = qubit_slds(random_point(rng))
            for mu in range(3):
                assert np.allclose(d.slds[mu], solve_sld(d.rho, d.partials[mu]), atol=1e-9)


class TestQubitQfi:
    def test_origin(self):
        assert np.allclose(qubit_qfi([0, 0, 0]), np.eye(3))

    def test_axis_point(self):
        r = 0.6
        assert np.allclose(qubit_qfi([0, 0, r]), np.diag([1, 1, 1 / (1 - r * r)]))

    def test_inverse_identity_grid(self):
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((20, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for r in np.arange(0.0, 0.91, 0.1):
            for v in dirs:
                x = r * v
                j = qubit_qfi(x)
                jinv = np.eye(3) - np.outer(x, x)
                assert np.max(np.abs(j @ jinv - np.eye(3))) <= 1e-10

    def test_matches_trace_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_point(rng)
            d = qubit_slds(x)
            j = qubit_qfi(x)
            for mu in range(3):
                for nu in range(3):
                    entry = np.trace(d.partials[mu] @ d.slds[nu]).real
                    assert entry == pytest.approx(j[mu, nu], abs=1e-9)


class TestMubModel:
    def test_origin_is_maximally_mixed(self):
        fam = mub_bases(3)
        assert np.allclose(mub_state(np.zeros((4, 2)), fam), np.eye(3) / 3)

    def test_single_coordinate_qubit(self):
        fam = mub_bases(2)
        coords = np.zeros((3, 1))
        coords[0, 0] = 0.3
        # basis 0 is the sigma_3 eigenbasis, vector 0 is |0>
        assert np.allclose(mub_state(coords, fam), np.diag([0.65, 0.35]))

    def test_partials_traceless(self):
        fam = mub_bases(3)
        for dp in mub_partials(fam):
            assert abs(np.trace(dp)) <= 1e-14
            assert np.max(np.abs(dp - dp.conj().T)) <= 1e-14

    def test_rejects_non_positive(self):
        fam = mub_bases(3)
        coords = np.zeros((4, 2))
        coords[0, 0] = 1.5
        with pytest.raises(NotPositiveError):
            mub_state(coords, fam)


class TestModelQfi:
    def test_qubit_origin(self):
        assert np.allclose(model_qfi(qubit_slds([0, 0, 0])), np.eye(3), atol=1e-12)

    def test_qubit_reference_point_closed_form(self):
        j = model_qfi(qubit_slds(X0))
        expected = np.eye(3) + np.outer(X0, X0) / 0.0925
        assert np.max(np.abs(j - expected)) <= 1e-9

    def test_matches_qubit_qfi(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = random_point(rng)
            assert np.max(np.abs(model_qfi(qubit_slds(x)) - qubit_qfi(x))) <= 1e-9

    def test_mub_origin_symmetric_pd(self):
        fam = mub_bases(3)
        coords = np.zeros((4, 2))
        coords[1, 1] = 0.05
        j = model_qfi(mub_derivatives(coords, fam))
        assert np.allclose(j, j.T, atol=1e-12)
        assert np.linalg.eigvalsh(j)[0] > 0


class TestBuresDistance:
    def test_zero_on_equal_states(self):
        rho = qubit_state([0.3, 0.1, -0.2])
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        assert bures_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(4.0)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = qubit_state(random_point(rng))
            b = qubit_state(random_point(rng))
            assert bures_distance(a, b) == pytest.approx(bures_distance(b, a), abs=1e-9)

    def test_quadratic_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = random_point(rng, rmax=0.8)
            dx = rng.standard_normal(3)
            dx *= 1e-3 / np.linalg.norm(dx)
            j = qubit_qfi(x)
            quad = 0.5 * dx @ j @ dx
            b_full = bures_distance(qubit_state(x), qubit_state(x + dx))
            res_full = abs(b_full - quad)
            b_half = bures_distance(qubit_state(x), qubit_state(x + dx / 2))
            res_half = abs(b_half - 0.25 * quad)
            assert res_full <= 1e-7
            # cubic order: halving dx shrinks the residual at least 6x
            assert res_half <= res_full / 6 + 1e-14


class TestQubitBures:
    def test_agrees_with_bures_distance(self):
        rng = np.random.default_rng(11)
        for k in range(200):
            # radii up to 1 - 1e-6, a fifth of the pairs near the sphere
            rmax = 1.0 - 1e-6 if k % 5 == 0 else 0.99
            x = random_point(rng, rmax)
            y = random_point(rng, rmax)
            if k % 5 == 0:
                x *= (1.0 - 1e-6) / np.linalg.norm(x)
            expected = bures_distance(qubit_state(x), qubit_state(y))
            assert abs(qubit_bures(x, y) - expected) <= 1e-12

    def test_antipodal_pure_limit(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = rng.standard_normal(3)
            x = (1.0 - 1e-15) * n / np.linalg.norm(n)
            assert qubit_bures(x, -x) == pytest.approx(4.0, abs=1e-6)

    def test_quadratic_expansion_at_tiny_distance(self):
        # (1/2) dx^T J dx + O(|dx|^3); at |dx| = 1e-6 the eigendecomposition
        # route of bures_distance is off by up to 0.7% and fails this test
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = random_point(rng, rmax=0.8)
            dx = rng.standard_normal(3)
            dx *= 1e-6 / np.linalg.norm(dx)
            quad = 0.5 * dx @ qubit_qfi(x) @ dx
            assert qubit_bures(x, x + dx) == pytest.approx(quad, rel=1e-5)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(14)
        x = random_point(rng)
        ys = np.array([random_point(rng) for _ in range(6)])
        batched = qubit_bures(x, ys)
        assert batched.shape == (6,)
        for y, b in zip(ys, batched):
            assert b == qubit_bures(x, y)
        assert qubit_bures(x, ys.reshape(2, 3, 3)).shape == (2, 3)

    def test_rejects_states_outside_the_ball(self):
        with pytest.raises(OutOfBallError):
            qubit_bures([0.1, 0.0, 0.0], [[0.0, 0.0, 0.5], [1.0, 0.0, 0.0]])
        with pytest.raises(OutOfBallError):
            qubit_bures([0.0, 0.6, 0.8], [0.0, 0.0, 0.5])
        with pytest.raises(OutOfBallError):
            qubit_bures([0.1, 0.0, 0.0], [np.nan, 0.0, 0.0])


class TestModelQfiEinsum:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_matches_the_trace_loop(self, q):
        rng = np.random.default_rng(80 + q)
        for _ in range(5):
            if q == 2:
                derivs = qubit_slds(random_point(rng, rmax=0.99))
            else:
                coords = rng.uniform(-0.04, 0.04, size=(q + 1, q - 1))
                derivs = mub_derivatives(coords, mub_bases(q))
            d = derivs.n_params
            loop = np.empty((d, d))
            for a in range(d):
                for b in range(d):
                    loop[a, b] = float(np.trace(derivs.partials[a] @ derivs.slds[b]).real)
            loop = (loop + loop.T) / 2
            got = model_qfi(derivs)
            assert np.max(np.abs(got - loop)) <= 1e-12 * np.max(np.abs(loop))
            assert np.array_equal(got, got.T)

    def test_stacked_sld_solve_equals_one_at_a_time(self):
        rng = np.random.default_rng(84)
        family = mub_bases(4)
        derivs = mub_derivatives(rng.uniform(-0.04, 0.04, size=(5, 3)), family)
        for dp, sld in zip(mub_partials(family), derivs.slds):
            assert np.array_equal(sld, solve_sld(derivs.rho, dp))


class TestBlochOperator:
    def test_equals_the_term_by_term_sum(self):
        rng = np.random.default_rng(90)
        for _ in range(2000):
            x = random_point(rng, rmax=0.999)
            loop = ID2.copy()
            for mu in range(3):
                loop += x[mu] * PAULIS[mu]
            assert np.array_equal(bloch_operator(1, x), loop / 2)
            assert np.array_equal(qubit_state(x), loop / 2)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(91)
        t = rng.random((4, 1))
        b = rng.standard_normal((5, 3))
        ops = bloch_operator(t, b)
        assert ops.shape == (4, 5, 2, 2)
        for i in range(4):
            for k in range(5):
                assert np.array_equal(ops[i, k], bloch_operator(t[i, 0], b[k]))


class TestNonFiniteStokesVectorNamed:
    @pytest.mark.parametrize("call", [qubit_qfi, qubit_state, qubit_slds,
                                      lambda x: qubit_bures(x, np.zeros(3))])
    @pytest.mark.parametrize("x", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                   [[0.1, 0.2, 0.3], [0.0, 0.0, np.nan]]])
    def test_named_without_a_numpy_warning(self, call, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^Stokes vector \[.*\] has non-finite entries$"):
                call(x)

    def test_points_on_or_outside_the_sphere_keep_their_message(self):
        with pytest.raises(OutOfBallError, match=r"^\|x\| = 1.000000 >= 1$"):
            qubit_qfi([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
