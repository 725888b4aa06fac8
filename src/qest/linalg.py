"""Small dense Hermitian matrix algebra: eigendecompositions, PSD square
roots, and the symmetric-logarithmic-derivative (Lyapunov-type) solver.

Everything here operates on matrices of dimension <= 16, so correctness and
determinism matter far more than asymptotics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_EIG_TOL = 1e-10
SINGULAR_STATE_TOL = 1e-12


class NotHermitianError(ValueError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NotPSDError(ValueError):
    """Input expected positive semidefinite has an eigenvalue below -1e-10."""


class SingularStateError(ValueError):
    """Density matrix is too close to singular for the SLD to be defined."""


class NoConvergenceError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


class HermitianEig(NamedTuple):
    """Spectral decomposition a = vectors @ diag(values) @ vectors^dagger."""

    values: np.ndarray   # real, ascending
    vectors: np.ndarray  # unitary, columns are eigenvectors


def read_only(a, dtype) -> np.ndarray:
    """A copy of a as a dtype array that cannot be written to."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dagger) / 2."""
    a = np.asarray(a)
    return (a + a.conj().T) / 2


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before decomposition to strip accumulation
    noise from repeated products; inputs whose anti-Hermitian part exceeds
    HERMITIAN_TOL are rejected.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    adjoint = a.conj().T
    # a non-finite entry makes its own or its mirror's difference non-finite
    defect = float(np.abs(a - adjoint).max()) if a.size else 0.0
    if not math.isfinite(defect):
        raise ValueError("matrix has non-finite entries")
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(f"anti-Hermitian part {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
    try:
        values, vectors = np.linalg.eigh((a + adjoint) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return HermitianEig(values, vectors)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in [-PSD_EIG_TOL, 0) are clamped to zero; anything lower
    raises NotPSDError.  The result is Hermitian and commutes with the input.
    """
    values, vectors = hermitian_eig(a)
    if values[0] < -PSD_EIG_TOL:
        raise NotPSDError(f"minimum eigenvalue {values[0]:.3e} below -{PSD_EIG_TOL:.1e}")
    root = np.sqrt(np.clip(values, 0.0, None))
    out = (vectors * root) @ vectors.conj().T
    if np.isrealobj(np.asarray(a)):
        return hermitize(out).real
    return hermitize(out)


def solve_sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Solve (L rho + rho L) / 2 = drho for Hermitian L.

    Works in the eigenbasis of rho, where L_jk = 2 drho_jk / (lam_j + lam_k).
    Requires rho strictly positive (min eigenvalue > SINGULAR_STATE_TOL) and
    drho Hermitian traceless.  drho may also be a stack of shape (k, q, q):
    the k equations share one eigendecomposition of rho, and L has the
    stack's shape.
    """
    values, vectors = hermitian_eig(rho)
    if values[0] <= SINGULAR_STATE_TOL:
        raise SingularStateError(f"state eigenvalue {values[0]:.3e} <= {SINGULAR_STATE_TOL:.1e}")
    drho = np.asarray(drho, dtype=complex)
    if drho.size and float(np.abs(drho - drho.conj().swapaxes(-1, -2)).max()) > HERMITIAN_TOL:
        raise NotHermitianError("drho is not Hermitian")
    trace = float(np.abs(np.trace(drho, axis1=-2, axis2=-1)).max())
    if trace > HERMITIAN_TOL:
        raise ValueError(f"drho has trace of modulus {trace:.3e}, expected traceless")
    d_in_basis = vectors.conj().T @ drho @ vectors
    denom = values[:, None] + values[None, :]
    sld = vectors @ (2 * d_in_basis / denom) @ vectors.conj().T
    return (sld + sld.conj().swapaxes(-1, -2)) / 2


def sld_residual(rho: np.ndarray, drho: np.ndarray, sld: np.ndarray) -> float:
    """Max entrywise defect of the SLD equation for a candidate L."""
    lhs = (sld @ rho + rho @ sld) / 2
    return float(np.max(np.abs(lhs - drho)))
