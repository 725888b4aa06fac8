"""Parametric state models: the qubit Stokes-vector model with closed-form
SLDs and Fisher information, the affine model attached to a full set of
mutually unbiased bases in dimension >= 3, and the Bures distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize, psd_sqrt, solve_sld

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)
ID2 = np.eye(2, dtype=complex)
_PAULI_ROWS = np.stack(PAULIS).reshape(3, 4)


class OutOfBallError(ValueError):
    """Stokes vector lies on or outside the unit sphere."""


class NotPositiveError(ValueError):
    """Affine coordinates produce a non-positive matrix."""


class NotStateError(ValueError):
    """Matrix is not a density matrix (PSD, unit trace)."""


@dataclass(frozen=True)
class ModelDerivatives:
    """A state together with its parameter derivatives and SLDs.

    `partials[i]` is the Hermitian traceless matrix d rho / d theta^i and
    `slds[i]` the corresponding symmetric logarithmic derivative.  `rho`
    and `slds[i]` may be stacks (..., q, q) of states that share the
    partials, as qubit_slds returns for a stack of Stokes vectors.
    """

    rho: np.ndarray
    partials: tuple
    slds: tuple

    @property
    def n_params(self) -> int:
        return len(self.partials)


def _check_ball(x: np.ndarray) -> np.ndarray:
    """x as floats, a 3-vector or a stack (..., 3) of them, each inside the
    unit ball; the first one outside, or with a non-finite entry, is named."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector of Stokes parameters, got shape {x.shape}")
    # vecdot rounds as a single vector's x @ x does, row by row; a NaN fails
    # every comparison, so the test is that the point lies inside, and a
    # huge finite point's overflow to inf lies outside
    with np.errstate(over="ignore"):
        r2 = np.vecdot(x, x)
    outside = r2[~(r2 < 1.0)]
    if outside.size:
        first = x[~(r2 < 1.0)][0]
        if not np.isfinite(first).all():
            raise ValueError(f"Stokes vector {first} has non-finite entries")
        raise OutOfBallError(f"|x| = {np.sqrt(outside[0]):.6f} >= 1")
    return x


def bloch_operator(t, b) -> np.ndarray:
    """The 2x2 operator (t I + b . sigma) / 2, broadcast over t of shape
    (...) and b of shape (..., 3)."""
    # each real or imaginary part of b @ _PAULI_ROWS has one nonzero product,
    # so it is exact and adding t rounds once, as a term-by-term sum does
    op = np.multiply.outer(t, ID2.ravel()) + np.asarray(b, dtype=float) @ _PAULI_ROWS
    return op.reshape(op.shape[:-1] + (2, 2)) / 2


def qubit_state(x) -> np.ndarray:
    """Density matrix (I + x . sigma) / 2 for a Stokes vector inside the
    ball, or a stack (..., 2, 2) of them for x of shape (..., 3)."""
    return bloch_operator(1.0, _check_ball(x))


def qubit_slds(x) -> ModelDerivatives:
    """Closed-form SLDs of the qubit model.

    L_mu = sigma_mu - x^mu (I - tau) / (2 det tau), with partials sigma_mu / 2.
    For x of shape (..., 3), tau and each L_mu are stacks (..., 2, 2).
    """
    x = _check_ball(x)
    tau = qubit_state(x)
    det = (1.0 - np.vecdot(x, x)) / 4.0
    correction = (ID2 - tau) / (2.0 * det)[..., None, None]
    slds = tuple(PAULIS[mu] - x[..., mu, None, None] * correction for mu in range(3))
    partials = tuple(s / 2 for s in PAULIS)
    return ModelDerivatives(rho=tau, partials=partials, slds=slds)


def qubit_qfi(x) -> np.ndarray:
    """SLD Fisher information of the qubit model: I + |x><x| / (1 - r^2),
    or a stack (..., 3, 3) of them for x of shape (..., 3).

    Its inverse is I - |x><x| exactly.
    """
    x = _check_ball(x)
    r2 = np.vecdot(x, x)[..., None, None]
    return np.eye(3) + x[..., :, None] * x[..., None, :] / (1.0 - r2)


def mub_state(coords, bases) -> np.ndarray:
    """Affine state I/q + sum_{a,i} x_{a,i} (|e_i^(a)><e_i^(a)| - I/q).

    `coords` has shape (q+1, q-1): one coordinate per basis `a` and per
    basis vector i = 0..q-2 (the last vector of each basis carries no
    coordinate).  Positivity of the result is checked numerically.  Coords
    of shape (..., q+1, q-1) give a stack (..., q, q) of states, each with
    the bits of its own call; the first one, in row-major order, that is
    not positive is named.
    """
    rho, low = _mub_states(coords, bases)
    low = np.ravel(low)
    bad = np.flatnonzero(low <= 0.0)
    if bad.size:
        raise NotPositiveError(f"minimum eigenvalue {low[bad[0]]:.3e} <= 0")
    return rho


def _mub_states(coords, bases) -> tuple[np.ndarray, np.ndarray]:
    """mub_state's states, not checked for positivity, and the smallest
    eigenvalue of each."""
    q = bases.q
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-2:] != (q + 1, q - 1):
        raise ValueError(f"expected coords of shape {(q + 1, q - 1)}, got {coords.shape}")
    flat = coords.reshape(coords.shape[:-2] + ((q + 1) * (q - 1),))
    start = np.broadcast_to(np.eye(q, dtype=complex) / q, flat.shape[:-1] + (1, q, q))
    terms = np.concatenate([start, flat[..., None, None] * _mub_partial_stack(bases)], axis=-3)
    # I/q plus each term in coordinate order, one rounding per term as a
    # sequential sum; no entry of rho is ever -0.0, so a zero coordinate's
    # term, all signed zeros, leaves its bits unchanged
    rho = hermitize(np.add.accumulate(terms, axis=-3)[..., -1, :, :])
    return rho, np.linalg.eigvalsh(rho)[..., 0]


def _mub_partial_stack(bases) -> np.ndarray:
    """mub_partials as one array ((q+1)(q-1), q, q)."""
    q = bases.q
    vecs = bases.bases[:, :-1].reshape(-1, q)
    return vecs[:, :, None] * vecs[:, None, :].conj() - np.eye(q, dtype=complex) / q


def mub_partials(bases) -> tuple:
    """Parameter derivatives of the affine model: |e_i^(a)><e_i^(a)| - I/q.

    Ordered row-major over (basis a, vector i), matching the coords layout.
    """
    return tuple(_mub_partial_stack(bases))


def mub_derivatives(coords, bases) -> ModelDerivatives:
    """State, partials and numerically solved SLDs of the affine model, at
    one point or at a stack (..., q+1, q-1) of them."""
    return _mub_model(mub_state(coords, bases), bases)


def _mub_model(rho: np.ndarray, bases) -> ModelDerivatives:
    """mub_derivatives at the positive affine state, or stack of states, rho."""
    partials = _mub_partial_stack(bases)
    slds = solve_sld(rho[..., None, :, :], partials)
    return ModelDerivatives(rho=rho, partials=tuple(partials),
                            slds=tuple(np.moveaxis(slds, -3, 0)))


def model_qfi(derivs: ModelDerivatives) -> np.ndarray:
    """Fisher information J_ij = Tr(d_i rho L_j), symmetrized; a stack
    (..., d, d) for a stack of states."""
    j = np.einsum("aij,...bji->...ab", np.stack(derivs.partials),
                  np.stack(derivs.slds, axis=-3)).real
    return (j + j.mT) / 2


def _check_state(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if abs(complex(np.trace(rho)) - 1.0) > tol:
        raise NotStateError(f"trace {complex(np.trace(rho)):.6f} != 1")
    min_eig = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if min_eig < -tol:
        raise NotStateError(f"minimum eigenvalue {min_eig:.3e} < 0")
    return hermitize(rho)


def bures_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Bures distance 4 (1 - Tr sqrt(sqrt(rho) sigma sqrt(rho))).

    Note the convention: this is 4(1 - root fidelity), not a squared
    distance.  For nearby states it expands as (1/2) dx^T J dx.
    """
    rho = _check_state(rho)
    sigma = _check_state(sigma)
    root = psd_sqrt(rho)
    inner = hermitize(root @ sigma @ root)
    eigs = np.linalg.eigvalsh(inner)
    # rounding can push tiny eigenvalues slightly negative
    eigs = np.clip(eigs, 0.0, None)
    fidelity_root = float(np.sum(np.sqrt(eigs)))
    return 4.0 * (1.0 - fidelity_root)


def qubit_bures(x, y):
    """Bures distance between qubit states with Stokes vectors x and y[..., :].

    The same 4(1 - root fidelity) convention as bures_distance, in closed
    form (Hubner 1992, Jozsa 1994): with d = y - x and
    s = sqrt((1 - |x|^2)(1 - |y|^2)),

        1 - F = (|d|^2 - |x cross d|^2) / (2 (1 - x.y + s))
              = ((1 - |x|^2) |d|^2 + (x.d)^2) / (2 (1 - x.y + s)),
        B = 4 (1 - F) / (1 + sqrt F),

    F the fidelity.  The second form (Lagrange's identity) adds nonnegative
    terms, so B keeps full relative precision as y approaches x, where the
    eigendecomposition route of bures_distance loses most of its digits.
    x and y have shape (..., 3) and broadcast; the result has their
    broadcast shape without the last axis.
    """
    x = _check_ball(x)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (3,):
        raise ValueError(f"expected Stokes vectors along the last axis, got shape {y.shape}")
    # a huge finite row overflows to inf, which the test below names
    with np.errstate(over="ignore"):
        ry2 = np.sum(y * y, axis=-1)
    if not np.all(ry2 < 1.0):
        rows = y.reshape(-1, 3)
        odd = ~np.isfinite(rows).all(axis=1)
        if odd.any():
            raise OutOfBallError(f"Stokes vector {rows[odd][0]} has non-finite entries")
        raise OutOfBallError(f"|y| = {float(np.sqrt(np.max(ry2))):.6f} >= 1")
    d = y - x
    purity_gap = 1.0 - np.vecdot(x, x)
    num = purity_gap * np.sum(d * d, axis=-1) + np.sum(d * x, axis=-1) ** 2
    den = 2.0 * (1.0 - np.sum(y * x, axis=-1) + np.sqrt(purity_gap * (1.0 - ry2)))
    # 0 <= 1 - F <= 1 exactly; the clip only absorbs rounding
    one_minus_f = np.clip(num / den, 0.0, 1.0)
    return 4.0 * one_minus_f / (1.0 + np.sqrt(1.0 - one_minus_f))
