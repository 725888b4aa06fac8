"""Estimation-theoretic quantities for finite POVMs.

Classical Fisher information of a measurement, the minimum of the weighted
inverse-Fisher trace over all qubit POVMs together with the random
measurement attaining it, the weight for which plain tomography is optimal,
rotationally symmetric weights and their closed-form figures of merit, and
the dimension-general lower bound of Gill-Massar type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurements import Povm, bloch_pvm_mixture
from .states import PAULIS, ModelDerivatives, OutOfBallError

PD_TOL = 1e-12
SYM_TOL = 1e-10


class SingularInputError(ValueError):
    """A matrix required to be positive definite is (numerically) singular."""


class SingularOutcomeError(ValueError):
    """An outcome has zero probability but nonzero derivative, so the
    Fisher information is undefined."""


class SingularFisherError(ValueError):
    """Fisher matrix is singular; the locally unbiased estimator needs its
    inverse."""


class UnsupportedDimError(ValueError):
    """Optimal-measurement construction only exists for a two-level system."""


@dataclass(frozen=True)
class RotWeight:
    """Values of a rotationally symmetric weight at one radius.

    `transverse` weights directions orthogonal to the state vector,
    `radial` the direction along it: H = transverse*I +
    (radial - transverse) |x><x| / r^2.  Both must be positive.
    """

    transverse: float
    radial: float

    def __post_init__(self):
        if self.transverse <= 0 or self.radial <= 0:
            raise ValueError("weight values must be positive")


IDENTITY_WEIGHT = RotWeight(1.0, 1.0)


def qfi_rot_weight(r: float) -> RotWeight:
    """Rotational values reproducing the qubit Fisher matrix at radius r."""
    return RotWeight(1.0, 1.0 / (1.0 - r * r))


@dataclass
class OptimalSolution:
    """Minimum of Tr H g(M)^-1 and the data of the attaining measurement.

    bound = (Tr R)^2 with R = sqrt(sqrt(J^-1) H sqrt(J^-1)); `basis` and
    `scales` diagonalize R; `fisher_target` is the unique Fisher matrix of
    any minimizing measurement.  `probs` and `axes` (unit Bloch vectors)
    are filled by qubit_design, `measurement` by optimal_measurement.
    """

    bound: float
    r_matrix: np.ndarray
    basis: np.ndarray
    scales: np.ndarray
    fisher_target: np.ndarray
    probs: np.ndarray | None = None
    axes: np.ndarray | None = None
    measurement: Povm | None = None
    attainable: bool | None = None


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    defect = float(np.abs(m - m.T).max())
    # a NaN or infinite entry makes its own or its mirror's difference NaN
    if math.isnan(defect):
        raise ValueError(f"{name} has non-finite entries")
    if defect > SYM_TOL:
        raise SingularInputError(f"{name} is not symmetric")
    return (m + m.T) / 2


def _check_sym_pd(m: np.ndarray, name: str) -> np.ndarray:
    m = _symmetrized(m, name)
    if float(np.linalg.eigvalsh(m)[0]) <= PD_TOL:
        raise SingularInputError(f"{name} is not positive definite")
    return m


def _sqrt_and_inv_sqrt(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(J) and J^-1/2 from one eigendecomposition, which also checks
    that J is symmetric positive definite."""
    values, vectors = np.linalg.eigh(_symmetrized(j, "quantum Fisher matrix"))
    if values[0] <= PD_TOL:
        raise SingularInputError("quantum Fisher matrix is not positive definite")
    root = np.sqrt(values)
    return (vectors * root) @ vectors.T, (vectors / root) @ vectors.T


def classical_fisher(derivs: ModelDerivatives, povm: Povm) -> np.ndarray:
    """Fisher information of the outcome distribution of a POVM.

    g_ij = sum_n (Tr d_i rho M_n)(Tr d_j rho M_n) / Tr(rho M_n).  Outcomes
    with probability below 1e-14 contribute nothing when their derivatives
    also vanish; otherwise the information is undefined and
    SingularOutcomeError is raised for the first of them.
    """
    rho = derivs.rho
    if rho.shape != (povm.dim, povm.dim):
        raise ValueError(f"state dim {rho.shape[0]} vs measurement dim {povm.dim}")
    partials = np.stack(derivs.partials)
    probs = np.einsum("ij,nji->n", rho, povm.ops).real
    dprobs = np.einsum("kij,nji->nk", partials, povm.ops).real
    null = probs < 1e-14
    # max_ij |dp_i dp_j| is (max_i |dp_i|)^2
    live = np.flatnonzero(null & (np.abs(dprobs).max(axis=1) ** 2 >= 1e-20))
    if live.size:
        n = live[0]
        raise SingularOutcomeError(
            f"outcome {povm.labels[n]} has probability {probs[n]:.3e} but nonzero derivative")
    g = (dprobs.T / np.where(null, np.inf, probs)) @ dprobs
    return (g + g.T) / 2


def hat_fisher(g: np.ndarray, j: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Normalized Fisher matrix U^-1 sqrt(J^-1) g sqrt(J^-1) U.

    With u omitted the identity is used.  For any POVM the trace of this
    matrix is at most dim(H) - 1.
    """
    _, inv_sq = _sqrt_and_inv_sqrt(j)
    core = inv_sq @ np.asarray(g, dtype=float) @ inv_sq
    if u is not None:
        u = np.asarray(u, dtype=float)
        if float(np.max(np.abs(u.T @ u - np.eye(u.shape[0])))) > 1e-8:
            raise ValueError("u must be orthogonal")
        core = u.T @ core @ u
    return (core + core.T) / 2


def qcr_min_trace(j: np.ndarray, h: np.ndarray,
                  hilbert_dim: int | None = None) -> OptimalSolution:
    """Minimum of Tr H g(M)^-1 over all POVMs of a two-level system.

    The value (Tr R)^2, R = sqrt(sqrt(J^-1) H sqrt(J^-1)), is computed for
    any parameter count; it is known to be attained by a measurement exactly
    when the underlying Hilbert space is two-dimensional, so `attainable`
    is only set when `hilbert_dim` is given.
    """
    return _min_trace(_sqrt_and_inv_sqrt(j), h, hilbert_dim)


def qcr_min_traces(j: np.ndarray, weights) -> list:
    """qcr_min_trace(j, h) for each h in weights, with J checked and
    decomposed once."""
    roots = _sqrt_and_inv_sqrt(j)
    return [_min_trace(roots, h) for h in weights]


def _min_trace(roots: tuple[np.ndarray, np.ndarray], h: np.ndarray,
               hilbert_dim: int | None = None) -> OptimalSolution:
    """qcr_min_trace's solution, given (sqrt(J), J^-1/2) from
    _sqrt_and_inv_sqrt; one eigendecomposition of the core
    sqrt(J^-1) H sqrt(J^-1) gives R, its basis and its eigenvalues."""
    sq_j, inv_sq_j = roots
    h = _check_sym_pd(h, "weight")
    core = inv_sq_j @ h @ inv_sq_j
    eigs, basis = np.linalg.eigh((core + core.T) / 2)
    # H is positive definite, so only rounding can push an eigenvalue below 0
    scales = np.sqrt(np.maximum(eigs, 0.0))
    r = (basis * scales) @ basis.T
    r = (r + r.T) / 2
    tr_r = float(scales.sum())
    target = sq_j @ r @ sq_j / tr_r
    return OptimalSolution(
        bound=tr_r ** 2, r_matrix=r, basis=basis, scales=scales,
        fisher_target=(target + target.T) / 2,
        attainable=(hilbert_dim == 2) if hilbert_dim is not None else None)


def qubit_design(sld_bloch: np.ndarray, j: np.ndarray, h: np.ndarray) -> OptimalSolution:
    """The weighted Cramer-Rao minimum and, in Bloch form, the random qubit
    measurement attaining it.

    With R = U diag(S) U^-1, branch i is drawn with probability S_i / Tr R
    and measures the PVM of Lhat^i = sum_k (U^-1 sqrt(J^-1))^{ik} L_k, with
    projectors (I -/+ axes[i] . sigma) / 2; sld_bloch[k] is the Bloch vector
    (Tr sigma L_k) / 2.  Zero-probability branches are dropped; within
    degenerate eigenvalue clusters of R any orthogonal diagonalizer works.
    """
    roots = _sqrt_and_inv_sqrt(j)
    sol = _min_trace(roots, h, hilbert_dim=2)
    probs = sol.scales / float(np.sum(sol.scales))
    kept = probs > 1e-15
    axes = (sol.basis.T @ roots[1] @ sld_bloch)[kept]
    sol.probs = probs[kept] / probs[kept].sum()
    sol.axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    return sol


def optimal_measurement(derivs: ModelDerivatives, j: np.ndarray,
                        h: np.ndarray) -> OptimalSolution:
    """Random measurement attaining the weighted Cramer-Rao minimum: the
    branches of qubit_design as a POVM, labeled "<branch><sign>".  Its
    classical Fisher matrix equals sqrt(J) R sqrt(J) / Tr R.

    Only defined on a two-level system (1 to 3 parameters).
    """
    if derivs.rho.shape != (2, 2):
        raise UnsupportedDimError("construction requires a two-level system")
    d = derivs.n_params
    if d not in (1, 2, 3):
        raise ValueError(f"parameter count {d} out of range 1..3")
    sld_bloch = np.einsum("kij,mji->km", np.stack(derivs.slds), np.stack(PAULIS)).real / 2
    sol = qubit_design(sld_bloch, j, h)
    sol.measurement = bloch_pvm_mixture(sol.probs, sol.axes)
    return sol


def lu_estimator(theta, derivs: ModelDerivatives, povm: Povm,
                 g: np.ndarray | None = None) -> np.ndarray:
    """Locally unbiased estimator saturating the classical Cramer-Rao bound.

    Row n is theta + g^-1 (grad log p_n); its exact single-shot covariance
    under the outcome distribution is g^-1.  All outcome probabilities must
    be positive.
    """
    theta = np.asarray(theta, dtype=float)
    if g is None:
        g = classical_fisher(derivs, povm)
    probs = np.einsum("ij,nji->n", derivs.rho, povm.ops).real
    if np.any(probs <= 0.0):
        raise SingularOutcomeError("all outcome probabilities must be positive")
    partials = np.stack(derivs.partials)
    dprobs = np.einsum("kij,nji->nk", partials, povm.ops).real
    try:
        ginv = np.linalg.inv(_check_sym_pd(g, "Fisher matrix"))
    except SingularInputError as exc:
        raise SingularFisherError(str(exc)) from exc
    return theta[None, :] + (dprobs / probs[:, None]) @ ginv.T


def tomography_fisher(x) -> np.ndarray:
    """Classical Fisher matrix of the 6-outcome tomography measurement:
    diag(1 / (1 - (x^mu)^2)) / 3.

    Its trace against the inverse quantum Fisher matrix is identically 1.
    """
    x = np.asarray(x, dtype=float)
    if float(x @ x) >= 1.0:
        raise OutOfBallError(f"|x| = {np.linalg.norm(x):.6f} >= 1")
    return np.diag(1.0 / (1.0 - x * x)) / 3.0


def tomography_weight(x) -> np.ndarray:
    """The weight (unique up to scale) for which tomography is optimal.

    Diagonal entries 1/(1-(x^mu)^2); off-diagonal (mu, nu) entries
    -x^mu x^nu / ((1-(x^mu)^2)(1-(x^nu)^2)).  Not rotationally symmetric.
    """
    x = np.asarray(x, dtype=float)
    if float(x @ x) >= 1.0:
        raise OutOfBallError(f"|x| = {np.linalg.norm(x):.6f} >= 1")
    denom = 1.0 - x * x
    h = -np.outer(x, x) / np.outer(denom, denom)
    np.fill_diagonal(h, 1.0 / denom)
    return h


def weight_from_fisher(f: np.ndarray, j: np.ndarray,
                       k: float = 1.0) -> tuple[np.ndarray, bool]:
    """Weight k F J^-1 F for which F is the optimal Fisher matrix.

    Returns the symmetrized weight and a feasibility flag: F arises as the
    optimal Fisher matrix of some weight iff Tr J^-1 F = 1.
    """
    f = _check_sym_pd(f, "Fisher matrix")
    j = _check_sym_pd(j, "quantum Fisher matrix")
    if k <= 0:
        raise ValueError("scale k must be positive")
    jinv = np.linalg.inv(j)
    w = k * f @ jinv @ f
    feasible = abs(float(np.trace(jinv @ f)) - 1.0) <= 1e-9
    return (w + w.T) / 2, feasible


def rot_weight(w: RotWeight, x) -> np.ndarray:
    """Matrix of a rotationally symmetric weight at the point x.

    transverse*I + (radial - transverse)|x><x| / r^2; at the origin the
    radial direction is undefined and transverse*I is returned.
    """
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if r2 == 0.0:
        return w.transverse * np.eye(3)
    return w.transverse * np.eye(3) + (w.radial - w.transverse) * np.outer(x, x) / r2


def rot_weight_along(w: RotWeight, direction) -> np.ndarray:
    """Rotational weight matrix for a point approached along `direction`.

    Identical to rot_weight away from the origin, but keeps the radial term
    at r = 0, where the closed-form merits are directional limits.
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    return w.transverse * np.eye(3) + (w.radial - w.transverse) * np.outer(v, v)


def c_opt_closed(w: RotWeight, r: float) -> float:
    """Closed form of the measurement-optimized merit for a rotational weight:
    (2 sqrt(f) + sqrt((1-r^2) g))^2.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius {r} outside [0, 1)")
    return (2.0 * np.sqrt(w.transverse)
            + np.sqrt((1.0 - r * r) * w.radial)) ** 2


def anisotropy(x) -> float:
    """Directional anisotropy t = 1 - sum (x^mu)^4 / r^4, zero at the origin.

    Ranges over [0, 2/3]; zero exactly on the coordinate axes, 2/3 exactly
    along the (+-1, +-1, +-1) diagonals.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        return 0.0
    if float(x @ x) < 1e-100:
        # t is scale invariant, and r^4 would underflow
        x = x / np.max(np.abs(x))
    r2 = float(x @ x)
    return 1.0 - float(np.sum(x ** 4)) / r2 ** 2


def c_tomo_closed(w: RotWeight, x) -> float:
    """Closed form of the tomography merit Tr H g^-1 for a rotational weight:
    3 (2f + (1-r^2) g) + 3 t r^2 (g - f).
    """
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if r2 >= 1.0:
        raise OutOfBallError(f"|x| = {np.sqrt(r2):.6f} >= 1")
    f, g = w.transverse, w.radial
    return 3.0 * (2.0 * f + (1.0 - r2) * g) + 3.0 * anisotropy(x) * r2 * (g - f)


def tomo_excess(w: RotWeight, x) -> float:
    """Excess of the tomography merit over the optimal one; never negative."""
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return c_tomo_closed(w, x) - c_opt_closed(w, r)


def tomo_excess_forms(w: RotWeight, x) -> tuple[float, float]:
    """Two equivalent closed forms of the excess, useful as cross-checks.

    Both are manifestly nonnegative in their respective regimes
    (g >= f for the first, f >= g for the second).
    """
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    f, g = w.transverse, w.radial
    t = anisotropy(x)
    form1 = 2.0 * (np.sqrt((1.0 - r2) * g) - np.sqrt(f)) ** 2 + 3.0 * r2 * (g - f) * t
    form2 = (2.0 * (np.sqrt((1.0 - r2) * f) - np.sqrt(g)) ** 2
             + 3.0 * r2 * (f - g) * (2.0 / 3.0 - t))
    return float(form1), float(form2)


def gm_lower_bound(j: np.ndarray, h: np.ndarray, hilbert_dim: int) -> float:
    """Lower bound (Tr R)^2 / (q - 1) on Tr H g(M)^-1 valid for every POVM
    on a q-dimensional system.

    For q = 2 this is the attained minimum; for q >= 3 it is reported only
    as a bound (attainability is not established).
    """
    if hilbert_dim < 2:
        raise ValueError("hilbert_dim must be at least 2")
    sol = qcr_min_trace(j, h)
    return sol.bound / (hilbert_dim - 1)


def indicatrix_points(h: np.ndarray, plane: tuple[int, int] = (0, 1),
                      n: int = 180) -> np.ndarray:
    """Unit-merit locus of a weight restricted to a coordinate plane.

    Returns n points v = u / sqrt(u^T H u) for u sweeping the unit circle of
    the plane; every point satisfies v^T H v = 1.
    """
    h = _check_sym_pd(h, "weight")
    i, k = plane
    if i == k or not (0 <= i < h.shape[0]) or not (0 <= k < h.shape[0]):
        raise ValueError(f"invalid plane {plane} for a {h.shape[0]}x{h.shape[0]} weight")
    phis = 2.0 * np.pi * np.arange(n) / n
    pts = np.empty((n, 2))
    for idx, phi in enumerate(phis):
        u = np.zeros(h.shape[0])
        u[i], u[k] = np.cos(phi), np.sin(phi)
        pts[idx] = (u / np.sqrt(u @ h @ u))[[i, k]]
    return pts


def min_trace_unit_trace(s: np.ndarray, max_iter: int = 50000,
                         grad_tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Numerically minimize Tr S G^-1 over positive definite G with Tr G = 1.

    Projected-gradient descent: steps follow the gradient component tangent
    to the unit-trace slice, with eigenvalue flooring to stay positive
    definite and an adaptive step size.  Serves as an oracle independent of
    the closed-form answer (Tr sqrt(S))^2.
    """
    s = _check_sym_pd(s, "target matrix")
    d = s.shape[0]
    eye = np.eye(d)
    g = eye / d

    def objective(mat: np.ndarray) -> tuple[float, np.ndarray]:
        inv = np.linalg.inv(mat)
        return float(np.trace(s @ inv)), inv

    def project(mat: np.ndarray) -> np.ndarray:
        mat = (mat + mat.T) / 2
        values, vectors = np.linalg.eigh(mat)
        values = np.maximum(values, 1e-12)
        mat = (vectors * values) @ vectors.T
        return mat / mat.trace()

    val, ginv = objective(g)
    step = 0.1
    for _ in range(max_iter):
        grad = -(ginv @ s @ ginv)
        grad = (grad + grad.T) / 2
        grad_t = grad - (np.trace(grad) / d) * eye
        gnorm = float(np.linalg.norm(grad_t))
        if gnorm < grad_tol:
            break
        improved = False
        while step > 1e-18:
            cand = project(g - step * grad_t)
            cand_val, cand_inv = objective(cand)
            if cand_val < val:
                g, val, ginv = cand, cand_val, cand_inv
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return val, g
