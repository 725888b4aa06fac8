"""Small dense Hermitian matrix algebra: eigendecompositions, PSD square
roots, and the symmetric-logarithmic-derivative (Lyapunov-type) solver.

Everything here operates on matrices of dimension <= 16, so correctness and
determinism matter far more than asymptotics.
"""

from __future__ import annotations

import dataclasses
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


def _hashable(value):
    if isinstance(value, np.ndarray):
        # adding 0.0 turns -0.0 into +0.0, which np.array_equal calls equal
        return value.shape, (value + 0.0).tobytes()
    return value


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class ValueRecord:
    """Equality and hash by value for a frozen dataclass whose fields may be
    read-only arrays; declare the dataclass with eq=False to use them."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(a, b) for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple(_hashable(v) for v in self._values()))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a^dagger) / 2 of a matrix or of each
    matrix of a stack (..., d, d)."""
    a = np.asarray(a)
    return (a + a.conj().swapaxes(-1, -2)) / 2


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before decomposition to strip accumulation
    noise from repeated products; inputs whose anti-Hermitian part exceeds
    HERMITIAN_TOL are rejected.  A stack (..., d, d) gives values (..., d)
    and vectors (..., d, d), each matrix decomposed as it is alone; the
    tests then apply to the stack as a whole.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    adjoint = a.conj().swapaxes(-1, -2)
    # a non-finite entry makes its own or its mirror's difference non-finite,
    # which the test below names without numpy's warning about inf - inf
    with np.errstate(invalid="ignore"):
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
    if not np.isfinite(drho).all():
        raise ValueError("drho has non-finite entries")
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
