import warnings

import numpy as np
import pytest

from qest.linalg import (
    NotHermitianError,
    NotPSDError,
    SingularStateError,
    hermitian_eig,
    hermitize,
    psd_sqrt,
    sld_residual,
    solve_sld,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_3 = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(a)


def random_state(rng, dim, min_eig=0.05):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T + min_eig * dim * np.eye(dim)
    return rho / np.trace(rho).real


class TestHermitianEig:
    def test_identity(self):
        values, vectors = hermitian_eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(vectors @ vectors.conj().T, np.eye(2))

    def test_sigma3_diagonal(self):
        values, _ = hermitian_eig(SIGMA_3)
        assert np.allclose(values, [-1.0, 1.0])

    def test_sigma1_hand_diagonalization(self):
        values, vectors = hermitian_eig(SIGMA_1)
        assert np.allclose(values, [-1.0, 1.0])
        # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        for col, expected in zip(vectors.T, [np.array([1, -1]), np.array([1, 1])]):
            expected = expected / np.sqrt(2)
            overlap = abs(np.vdot(expected, col))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4, 8):
            a = random_hermitian(rng, dim)
            values, vectors = hermitian_eig(a)
            rebuilt = (vectors * values) @ vectors.conj().T
            norm = np.linalg.norm(a)
            assert np.max(np.abs(rebuilt - a)) <= 1e-9 * (1 + norm)
            assert np.all(np.diff(values) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_stack_gives_each_matrix_its_own_bits(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 3, 4):
            stack = np.array([random_hermitian(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
            values, vectors = hermitian_eig(stack)
            assert values.shape == (2, 3, dim) and vectors.shape == stack.shape
            for k in np.ndindex(2, 3):
                one = hermitian_eig(stack[k])
                assert np.array_equal(values[k], one.values)
                assert np.array_equal(vectors[k], one.vectors)

    def test_stack_keeps_its_tests(self):
        stack = np.array([np.eye(2), SIGMA_1, SIGMA_3], dtype=complex)
        skew = stack.copy()
        skew[1, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError, match="anti-Hermitian part 1.000e-06"):
            hermitian_eig(skew)
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            hermitian_eig(stack)
        with pytest.raises(ValueError, match="expected a square matrix"):
            hermitian_eig(np.zeros((3, 2, 3)))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_property(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4):
            a = rng.standard_normal((dim, dim))
            psd = a @ a.T
            root = psd_sqrt(psd)
            assert np.max(np.abs(root @ root - psd)) <= 1e-9 * (1 + np.linalg.norm(psd))

    def test_commutes_with_input(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            psd = a @ a.T
            root = psd_sqrt(psd)
            assert np.max(np.abs(root @ psd - psd @ root)) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        out = psd_sqrt(np.diag([1.0, -1e-12]))
        assert out[1, 1] == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stack_gives_each_matrix_its_own_bits(self, dim):
        rng = np.random.default_rng(60 + dim)
        complex_stack = np.array([random_state(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        a = rng.standard_normal((6, dim, dim))
        real_stack = (a @ a.mT).reshape(2, 3, dim, dim)
        # a rank-deficient matrix whose rounding may clamp an eigenvalue
        real_stack[1, 2] = np.outer(a[0, 0], a[0, 0])
        for stack in (complex_stack, real_stack):
            roots = psd_sqrt(stack)
            assert roots.shape == stack.shape and roots.dtype == stack.dtype
            for k in np.ndindex(2, 3):
                assert np.array_equal(roots[k], psd_sqrt(stack[k]))

    def test_stack_names_its_first_bad_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.diag([-0.25, 1.0]),
                          np.diag([1.0, -1e-12])])
        with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -5.000e-01 below -1.0e-10$"):
            psd_sqrt(stack)
        with pytest.raises(NotPSDError, match=r"^minimum eigenvalue -2.500e-01 below -1.0e-10$"):
            psd_sqrt(stack[None, [0, 3, 2, 1]])
        # a tiny negative eigenvalue is clamped in a stack as alone
        assert np.array_equal(psd_sqrt(stack[[0, 3]])[1], psd_sqrt(stack[3]))


class TestSolveSld:
    def test_maximally_mixed(self):
        # rho = I/2 makes the equation L/2 = drho, so L = sigma_1
        sld = solve_sld(np.eye(2) / 2, SIGMA_1 / 2)
        assert np.allclose(sld, SIGMA_1, atol=1e-12)

    def test_diagonal_case(self):
        sld = solve_sld(np.diag([0.7, 0.3]), np.diag([0.5, -0.5]))
        assert np.allclose(np.diag(sld), [5 / 7, -5 / 3], atol=1e-12)

    def test_matches_qubit_closed_form(self):
        # L_mu = sigma_mu - x^mu (I - tau)/(2 det tau) solves the equation
        x = np.array([0.2, -0.4, 0.3])
        tau = (np.eye(2, dtype=complex) + x[0] * SIGMA_1
               + x[1] * np.array([[0, -1j], [1j, 0]]) + x[2] * SIGMA_3) / 2
        det = (1 - x @ x) / 4
        for mu, sigma in enumerate([SIGMA_1, np.array([[0, -1j], [1j, 0]]), SIGMA_3]):
            expected = sigma - x[mu] * (np.eye(2) - tau) / (2 * det)
            assert np.allclose(solve_sld(tau, sigma / 2), expected, atol=1e-10)

    def test_residual_on_random_states(self):
        rng = np.random.default_rng(3)
        count = 0
        for dim in (2, 3, 4):
            for _ in range(34):
                rho = random_state(rng, dim)
                drho = random_hermitian(rng, dim)
                drho -= np.trace(drho) / dim * np.eye(dim)
                sld = solve_sld(rho, drho)
                assert np.max(np.abs(sld - sld.conj().T)) <= 1e-12
                assert sld_residual(rho, drho, sld) <= 1e-9
                count += 1
        assert count >= 100

    def test_rejects_singular_state(self):
        with pytest.raises(SingularStateError):
            solve_sld(np.diag([1.0, 0.0]), SIGMA_3 / 2)

    def test_rejects_traceful_drho(self):
        with pytest.raises(ValueError):
            solve_sld(np.eye(2) / 2, np.eye(2))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_of_states_gives_each_its_own_bits(self, dim):
        rng = np.random.default_rng(40 + dim)
        rhos = np.array([random_state(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        drhos = np.array([random_hermitian(rng, dim) for _ in range(4)])
        drhos -= np.trace(drhos, axis1=-2, axis2=-1)[:, None, None] / dim * np.eye(dim)
        slds = solve_sld(rhos[..., None, :, :], drhos)
        assert slds.shape == (2, 3, 4, dim, dim)
        pairs = solve_sld(rhos, drhos[:3])
        for i, k in np.ndindex(2, 3):
            assert np.array_equal(slds[i, k], solve_sld(rhos[i, k], drhos))
            assert np.array_equal(pairs[i, k], solve_sld(rhos[i, k], drhos[k]))

    def test_stack_names_its_first_singular_state(self):
        rhos = np.array([np.diag([0.6, 0.4]), np.diag([1.0, 1e-13]), np.diag([1.0, 0.0])])
        with pytest.raises(SingularStateError, match=r"^state eigenvalue 1.000e-13 <= 1.0e-12$"):
            solve_sld(rhos[:, None], np.stack([SIGMA_3 / 2, SIGMA_1 / 2]))


class TestNonFiniteInputNamed:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_hermitian_eig(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in ([[bad, 0], [0, 1]], [[1, bad], [0, 1]], [[[1, 0], [0, 1]], [[1, 0], [0, bad]]]):
                with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                    hermitian_eig(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_sld_derivative(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^drho has non-finite entries$"):
                solve_sld(np.eye(2) / 2, [[bad, 0], [0, 0]])
