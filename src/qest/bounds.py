"""Estimation-theoretic quantities for finite POVMs.

Classical Fisher information of a measurement, the minimum of the weighted
inverse-Fisher trace over all qubit POVMs together with the random
measurement attaining it, the weight for which plain tomography is optimal,
rotationally symmetric weights and their closed-form figures of merit, and
the dimension-general lower bound of Gill-Massar type.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import NoConvergenceError
from .measurements import (MubFamily, Povm, bloch_pvm_mixture, mub_tomography_povm,
                           qubit_tomography_povm)
from .states import (PAULIS, ModelDerivatives, NotPositiveError, _check_ball, model_qfi,
                     mub_derivatives, qubit_qfi, qubit_slds)

# a symmetric matrix counts as positive definite when its smallest eigenvalue
# exceeds PD_TOL times the smaller of 1 and its largest (_require_pd)
PD_TOL = 1e-12
SYM_TOL = 1e-10
# min_trace_unit_trace: the Newton steps it may take, and the share of the
# value below which its Newton decrement (twice the predicted gain) is
# rounding of the value
UNIT_TRACE_MAX_STEPS = 50000
UNIT_TRACE_RTOL = 1e-14
# a float below this squares without overflow
_SQRT_MAX = math.sqrt(sys.float_info.max)


class SingularInputError(ValueError):
    """A matrix required to be positive definite is (numerically) singular."""


class SingularOutcomeError(ValueError):
    """An outcome has zero probability but nonzero derivative, so the
    Fisher information is undefined."""


class UnsupportedDimError(ValueError):
    """Optimal-measurement construction only exists for a two-level system."""


@dataclass(frozen=True)
class RotWeight:
    """Values of a rotationally symmetric weight at one radius.

    `transverse` weights directions orthogonal to the state vector,
    `radial` the direction along it: H = transverse*I +
    (radial - transverse) |x><x| / r^2.  Both must be positive and finite.
    """

    transverse: float
    radial: float

    def __post_init__(self):
        if not (0.0 < self.transverse < math.inf and 0.0 < self.radial < math.inf):
            raise ValueError("weight values must be positive and finite")


def qfi_rot_weight(r: float) -> RotWeight:
    """Rotational values reproducing the qubit Fisher matrix at radius r."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius {r} outside [0, 1)")
    return RotWeight(1.0, 1.0 / (1.0 - r * r))


# the rotational weight selectors, each a function of the radius r
ROT_WEIGHTS = {"identity": lambda r: RotWeight(1.0, 1.0), "qfi": qfi_rot_weight}


@dataclass
class OptimalSolution:
    """Minimum of Tr H g(M)^-1 and the data of the attaining measurement.

    bound = (Tr R)^2 with R = sqrt(sqrt(J^-1) H sqrt(J^-1)); `basis` and
    `scales` diagonalize R; `fisher_target` is the unique Fisher matrix of
    any minimizing measurement.  `probs` and `axes` (unit Bloch vectors)
    are filled by qubit_design, `measurement` by optimal_measurement.
    For stacks of J and H, `bound` is an array over the stack and each
    matrix field a stack.
    """

    bound: float
    r_matrix: np.ndarray
    basis: np.ndarray
    scales: np.ndarray
    fisher_target: np.ndarray
    probs: np.ndarray | None = None
    axes: np.ndarray | None = None
    measurement: Povm | None = None


# The kernels below take one matrix or Stokes vector, or a stack (..., d, d)
# or (..., 3) of them, and return one value or a stack.  A stacked eigh, inv
# or @ gives each matrix the bits of its own call, and np.vecdot gives each
# vector the bits of x @ x, so each element of a stack gets the bits of its
# own call.  A check that fails for any element raises what the call on that
# element alone raises.

def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    # a NaN or infinite entry makes its own or its mirror's difference NaN,
    # which the test below names without numpy's warning about inf - inf;
    # a finite difference may overflow to inf, which the test after it names
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.abs(m - m.mT).max())
    if math.isnan(defect):
        raise ValueError(f"{name} has non-finite entries")
    if defect > SYM_TOL:
        raise SingularInputError(f"{name} is not symmetric")
    return (m + m.mT) / 2


def _require_pd(values: np.ndarray, name: str) -> None:
    """Reject the ascending eigenvalues (..., d) of a matrix, or of any
    matrix of a stack, whose smallest is at most PD_TOL times the smaller of
    1 and its largest.  The test is scale-free for a condition number below
    1 / PD_TOL; above it only a smallest eigenvalue above PD_TOL passes, as
    for the weights of huge spread (f = 1, g = 1e300) accepted all along."""
    low = values[..., 0]
    # the absolute floor alone, the cheap test, passes nearly every matrix
    if low.min() <= PD_TOL and ((low <= PD_TOL) & (low <= PD_TOL * values[..., -1])).any():
        raise SingularInputError(f"{name} is not positive definite")


def _check_sym_pd(m: np.ndarray, name: str) -> np.ndarray:
    m = _symmetrized(m, name)
    _require_pd(np.linalg.eigvalsh(m), name)
    return m


def _sqrt_and_inv_sqrt(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(J) and J^-1/2 from one eigendecomposition, which also checks
    that J is symmetric positive definite."""
    values, vectors = np.linalg.eigh(_symmetrized(j, "quantum Fisher matrix"))
    _require_pd(values, "quantum Fisher matrix")
    root = np.sqrt(values)[..., None, :]
    return (vectors * root) @ vectors.mT, (vectors / root) @ vectors.mT


def _scalar(a):
    """A 0-d result as a Python float; a stack's as it is."""
    return float(a) if np.ndim(a) == 0 else a


def classical_fisher(derivs: ModelDerivatives, povm: Povm | np.ndarray) -> np.ndarray:
    """Fisher information of the outcome distribution of a POVM.

    g_ij = sum_n (Tr d_i rho M_n)(Tr d_j rho M_n) / Tr(rho M_n).  Outcomes
    with probability below 1e-14 contribute nothing when their derivatives
    also vanish; otherwise the information is undefined and
    SingularOutcomeError is raised for the first of them.  A stack of
    states (..., q, q) sharing the partials gives a stack (..., d, d).  So
    does a stack of checked POVM elements (..., n, q, q) in place of the
    Povm, whose outcomes are named by index; POVMs and states broadcast, and
    each (POVM, state) pair gets the bits it gets alone, except that einsum
    sums the derivatives of one-outcome POVMs with q > 2 in another order.
    """
    rho = derivs.rho
    ops, labels = (povm.ops, povm.labels) if isinstance(povm, Povm) else (povm, None)
    q = ops.shape[-1]
    if rho.shape[-2:] != (q, q):
        raise ValueError(f"state dim {rho.shape[-1]} vs measurement dim {q}")
    # Re Tr(rho M_n) = sum_i (sum_j Re(rho_ij M_nji)), each sum in index
    # order, as np.einsum("ij,nji->n") sums it for one state; adding 0.0 turns
    # a -0.0 into its +0.0.  Accumulating is sequential for a stack too.
    terms = (rho.real[..., None, :, :] * ops.real.mT
             - rho.imag[..., None, :, :] * ops.imag.mT)
    inner = np.add.accumulate(terms, axis=-1)[..., -1]
    probs = 0.0 + np.add.accumulate(inner, axis=-1)[..., -1]
    dprobs = np.einsum("kij,...nji->...nk", np.stack(derivs.partials), ops).real
    null = probs < 1e-14
    # max_ij |dp_i dp_j| is (max_i |dp_i|)^2
    live = null & (np.abs(dprobs).max(axis=-1) ** 2 >= 1e-20)
    hits = np.flatnonzero(live)
    if hits.size:
        first = np.unravel_index(hits[0], live.shape)
        label = first[-1] if labels is None else labels[first[-1]]
        raise SingularOutcomeError(f"outcome {label} has probability "
                                   f"{probs[first]:.3e} but nonzero derivative")
    g = (dprobs.mT / np.where(null, np.inf, probs)[..., None, :]) @ dprobs
    return (g + g.mT) / 2


def hat_fisher(g: np.ndarray, j: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Normalized Fisher matrix U^-1 sqrt(J^-1) g sqrt(J^-1) U.

    With u omitted the identity is used.  For any POVM the trace of this
    matrix is at most dim(H) - 1.  Stacks of g and J broadcast, so J's
    shared by many g's are decomposed once each.
    """
    _, inv_sq = _sqrt_and_inv_sqrt(j)
    core = inv_sq @ np.asarray(g, dtype=float) @ inv_sq
    if u is not None:
        u = np.asarray(u, dtype=float)
        if not float(np.max(np.abs(u.T @ u - np.eye(u.shape[0])))) <= 1e-8:
            raise ValueError("u must be orthogonal")
        core = u.T @ core @ u
    return (core + core.mT) / 2


def qcr_min_trace(j: np.ndarray, h: np.ndarray) -> OptimalSolution:
    """Minimum of Tr H g(M)^-1 over all POVMs of a two-level system.

    The value (Tr R)^2, R = sqrt(sqrt(J^-1) H sqrt(J^-1)), is computed for
    any parameter count; a measurement attains it when the underlying
    Hilbert space is two-dimensional.  Stacks of J and H broadcast: J of
    shape (n, d, d) against H of shape (w, n, d, d) decomposes each J once
    for its w weights.
    """
    return _min_trace(_sqrt_and_inv_sqrt(j), h)


def _min_trace(roots: tuple[np.ndarray, np.ndarray], h: np.ndarray) -> OptimalSolution:
    """qcr_min_trace's solution, given (sqrt(J), J^-1/2) from
    _sqrt_and_inv_sqrt; one eigendecomposition of the core
    sqrt(J^-1) H sqrt(J^-1) gives R, its basis and its eigenvalues."""
    sq_j, inv_sq_j = roots
    h = _check_sym_pd(h, "weight")
    core = inv_sq_j @ h @ inv_sq_j
    eigs, basis = np.linalg.eigh((core + core.mT) / 2)
    # H is positive definite, so only rounding can push an eigenvalue below 0
    scales = np.sqrt(np.maximum(eigs, 0.0))
    r = (basis * scales[..., None, :]) @ basis.mT
    r = (r + r.mT) / 2
    tr_r = scales.sum(axis=-1)
    target = sq_j @ r @ sq_j / tr_r[..., None, None]
    # both square by libm's pow (an array's ** 2 is tr_r * tr_r, which rounds
    # differently), and a float's ** 2 raises OverflowError instead of warning
    bound = float(tr_r) ** 2 if tr_r.ndim == 0 else np.float_power(tr_r, 2)
    return OptimalSolution(
        bound=bound, r_matrix=r, basis=basis, scales=scales,
        fisher_target=(target + target.mT) / 2)


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
    sol = _min_trace(roots, h)
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


def tomography_fisher(x) -> np.ndarray:
    """Classical Fisher matrix of the 6-outcome tomography measurement:
    diag(1 / (1 - (x^mu)^2)) / 3, or a stack (..., 3, 3) of them.

    Its trace against the inverse quantum Fisher matrix is identically 1.
    """
    x = _check_ball(x)
    return (1.0 / (1.0 - x * x))[..., None] * np.eye(3) / 3.0


def tomography_weight(x) -> np.ndarray:
    """The weight (unique up to scale) for which tomography is optimal.

    Diagonal entries 1/(1-(x^mu)^2); off-diagonal (mu, nu) entries
    -x^mu x^nu / ((1-(x^mu)^2)(1-(x^nu)^2)).  Not rotationally symmetric.
    """
    x = _check_ball(x)
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


def unit_direction(direction) -> np.ndarray:
    """v / sqrt(v @ v) for v = direction, row by row for a stack (..., 3).
    A row whose squared norm is not a normal float is first divided by its
    largest |entry|; a zero or non-finite row is a ValueError."""
    v = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore"):
        r2 = np.vecdot(v, v)
    odd = ~((r2 >= sys.float_info.min) & (r2 <= sys.float_info.max))
    if odd.any():
        peak = np.max(np.abs(v), axis=-1)
        if not np.isfinite(peak[odd]).all():
            raise ValueError("direction has non-finite entries")
        if np.any(peak[odd] == 0.0):
            raise ValueError("direction must be nonzero")
        v = v / np.where(odd, peak, 1.0)[..., None]
        r2 = np.vecdot(v, v)
    return v / np.sqrt(r2)[..., None]


def rot_weight_along(w: RotWeight, direction) -> np.ndarray:
    """Matrix transverse*I + (radial - transverse) v v^T of a rotational
    weight at any point r v, v the unit vector along `direction`; also at
    r = 0, where the closed-form merits are directional limits.  A stack of
    directions (..., 3) gives a stack (..., 3, 3).
    """
    v = unit_direction(direction)
    outer = v[..., :, None] * v[..., None, :]
    return w.transverse * np.eye(3) + (w.radial - w.transverse) * outer


def c_opt_closed(w: RotWeight, r: float) -> float:
    """Closed form of the measurement-optimized merit for a rotational weight:
    (2 sqrt(f) + sqrt((1-r^2) g))^2.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius {r} outside [0, 1)")
    root = 2.0 * np.sqrt(w.transverse) + np.sqrt((1.0 - r * r) * w.radial)
    if not root < _SQRT_MAX:
        raise ValueError("merit overflows for these weight values")
    return root ** 2


def anisotropy(x):
    """Directional anisotropy t = 1 - sum (x^mu)^4 / r^4, zero at the origin.

    Ranges over [0, 2/3]; zero exactly on the coordinate axes, 2/3 exactly
    along the (+-1, +-1, +-1) diagonals.  A float, or an array over a stack
    (..., 3).
    """
    x = np.asarray(x, dtype=float)
    r2 = np.vecdot(x, x)
    tiny = r2 < 1e-100
    if tiny.any():
        # t is scale invariant, and r^4 would underflow; the origin is
        # scored as an axis point, whose t is 0
        peak = np.max(np.abs(x), axis=-1)
        x = x / np.where(tiny & (peak > 0.0), peak, 1.0)[..., None]
        x[..., 0] = np.where(peak == 0.0, 1.0, x[..., 0])
        r2 = np.vecdot(x, x)
    # libm's pow, as a float's r2 ** 2 (an array's ** 2 is r2 * r2, which
    # rounds differently)
    return _scalar(1.0 - np.sum(x ** 4, axis=-1) / np.float_power(r2, 2))


def c_tomo_closed(w: RotWeight, x):
    """Closed form of the tomography merit Tr H g^-1 for a rotational weight:
    3 (2f + (1-r^2) g) + 3 t r^2 (g - f).  A float, or an array over a
    stack (..., 3).
    """
    x = _check_ball(x)
    r2 = np.vecdot(x, x)
    f, g = w.transverse, w.radial
    t = anisotropy(x)
    # an overflow is named below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        c = 3.0 * (2.0 * f + (1.0 - r2) * g) + 3.0 * t * r2 * (g - f)
    if not np.isfinite(c).all():
        raise ValueError("merit overflows for these weight values")
    return _scalar(c)


def tomo_excess(x, h):
    """Excess Tr H g_T^-1 - (Tr R)^2 of the 6-outcome tomography merit over
    the optimum, for any weight H at x, as the sum of squares
    || R Ghat^-1/2 - (Tr R) Ghat^1/2 ||_F^2 with Ghat = J^-1/2 g_T J^-1/2
    (Tr Ghat = 1): never negative, zero exactly at the multiples of
    tomography_weight(x), and free of cancellation.  Stacks give an array."""
    roots = _sqrt_and_inv_sqrt(qubit_qfi(x))
    sol = _min_trace(roots, h)
    g_half, g_inv_half = _sqrt_and_inv_sqrt(roots[1] @ tomography_fisher(x) @ roots[1])
    d = sol.r_matrix @ g_inv_half - sol.scales.sum(axis=-1)[..., None, None] * g_half
    return _scalar(np.sum(d * d, axis=(-2, -1)))


def gm_lower_bound(j: np.ndarray, h: np.ndarray, hilbert_dim: int) -> float:
    """Lower bound (Tr R)^2 / (q - 1) on Tr H g(M)^-1 valid for every POVM
    on a q-dimensional system.

    For q = 2 this is the attained minimum; for q >= 3 it is reported only
    as a bound (attainability is not established).
    """
    if hilbert_dim < 2:
        raise ValueError("hilbert_dim must be at least 2")
    return qcr_min_trace(j, h).bound / (hilbert_dim - 1)


def mub_tomography_sweep(family: MubFamily, radii, coord: tuple[int, int] = (0, 0)) -> list:
    """Rows (r, cGM, cT) along one affine coordinate of the MUB model.

    At coordinates zero except coord = (basis, vector), which is set to r,
    cT = Tr J g(M_T)^-1 is the merit of uniform MUB tomography and cGM =
    gm_lower_bound(J, J, q) the bound valid for every POVM, both with the
    Fisher-matrix weight.  The sweep stops at the first radius whose state
    is not positive.
    """
    q = family.q
    tomo = mub_tomography_povm(family)
    rows = []
    for r in radii:
        coords = np.zeros((q + 1, q - 1))
        coords[coord] = r
        try:
            derivs = mub_derivatives(coords, family)
        except NotPositiveError:
            break
        j = model_qfi(derivs)
        ct = float(np.trace(j @ np.linalg.inv(classical_fisher(derivs, tomo))))
        rows.append((float(r), gm_lower_bound(j, j, q), ct))
    return rows


def rot_merit_sweep(weights, radii, dirs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form merits of rotational weights at the points r v, checked
    against the generic routes.

    `weights` are functions r -> RotWeight (such as ROT_WEIGHTS' values),
    `radii` lie in [0, 1) and `dirs` (n, 3) are unit vectors.  Returns
    c = c_opt_closed, cT = c_tomo_closed and the gap max(|c - (Tr R)^2|,
    |cT - Tr H g_T^-1|), g_T the 6-outcome tomography Fisher matrix, each
    of shape (radii, weights, dirs) and with the bits of one-point calls.
    """
    radii = np.asarray(radii, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    x = radii[:, None, None] * dirs
    c, ct, hs = [], [], []
    for r, xr in zip(radii.tolist(), x):
        ws = [weight_at(r) for weight_at in weights]
        c.append([c_opt_closed(w, r) for w in ws])
        ct.append([c_tomo_closed(w, xr) for w in ws])
        hs.append([rot_weight_along(w, dirs) for w in ws])
    c, ct, hs = np.array(c)[..., None], np.array(ct), np.array(hs)
    bound = qcr_min_trace(qubit_qfi(x)[:, None], hs).bound
    g_tomo = classical_fisher(qubit_slds(x), qubit_tomography_povm())
    ct_num = np.trace(hs @ np.linalg.inv(g_tomo)[:, None], axis1=-2, axis2=-1)
    return (np.broadcast_to(c, ct.shape), ct,
            np.maximum(np.abs(c - bound), np.abs(ct - ct_num)))


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
    u = np.zeros((n, h.shape[0]))
    u[:, i], u[:, k] = np.cos(phis), np.sin(phis)
    # each row of the (n, 1, d) stack's product rounds as one vector's u @ h
    uhu = np.vecdot((u[:, None] @ h)[:, 0], u)
    return (u / np.sqrt(uhu)[:, None])[:, [i, k]]


def _traceless_basis(d: int) -> np.ndarray:
    """A Frobenius-orthonormal basis of the traceless symmetric d x d
    matrices, as a stack of d(d+1)/2 - 1: the off-diagonal pairs
    (E_ik + E_ki) / sqrt(2), then diag(1, ..., 1, -k, 0, ...) / sqrt(k(k+1))."""
    basis = []
    for i in range(d):
        for k in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, k] = e[k, i] = math.sqrt(0.5)
            basis.append(e)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k], diag[k] = 1.0, -k
        basis.append(np.diag(diag / math.sqrt(k * (k + 1))))
    return np.array(basis)


def min_trace_unit_trace(s: np.ndarray) -> tuple[float, np.ndarray]:
    """Numerically minimize Tr S G^-1 over positive definite G with Tr G = 1.

    Damped Newton on the unit-trace slice G = I/d + sum_k t_k E_k, the E_k
    a Frobenius-orthonormal basis of the traceless symmetric matrices,
    starting at I/d.  With B = G^-1 S G^-1 the gradient is -Tr(B E_k) and
    the Hessian Tr(B E_k G^-1 E_l) plus its transpose.  A step halves until
    Cholesky accepts the candidate and the value does not increase.  The
    run stops when a step gains nothing, or once the Newton decrement is
    within UNIT_TRACE_RTOL of the value; then rounding decides the value
    test, so one last full step is taken without it.  Tr S G^-1 is convex
    on the positive definite cone, so Newton converges from I/d.  It takes
    no square root of S, so it serves as an oracle independent of the
    closed-form answer (Tr sqrt(S))^2.  Raises NoConvergenceError when
    UNIT_TRACE_MAX_STEPS steps do not reach a stop.
    """
    s = _check_sym_pd(s, "target matrix")
    d = s.shape[0]
    g = np.eye(d) / d
    if d == 1:
        return float(s[0, 0]), g
    basis = _traceless_basis(d)
    n = len(basis)
    flat = basis.reshape(n, d * d)
    ginv = np.linalg.inv(g)
    val = float(np.trace(s @ ginv))
    for _ in range(UNIT_TRACE_MAX_STEPS):
        b = ginv @ s @ ginv
        grad = -(flat @ b.ravel())
        # the flattened rows B E_k and E_l G^-1 contract to Tr(B E_k G^-1 E_l)
        half = (b @ basis).reshape(n, -1) @ (basis @ ginv).reshape(n, -1).T
        step = np.linalg.solve(half + half.T, -grad)
        decrement = float(-grad @ step)
        last = decrement <= UNIT_TRACE_RTOL * val
        move = (step @ flat).reshape(d, d)
        t = 1.0
        # at most 60 halvings; past them the move vanishes against G
        for _ in range(60):
            cand = g + t * move
            try:
                np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            cand_inv = np.linalg.inv(cand)
            cand_val = float(np.trace(s @ cand_inv))
            if last or cand_val <= val:
                break
            t *= 0.5
        else:
            return val, g
        gained = cand_val < val
        g, ginv, val = cand, cand_inv, cand_val
        if last or not gained:
            return val, g
    raise NoConvergenceError(f"unit-trace minimum not reached in {UNIT_TRACE_MAX_STEPS} "
                             f"Newton steps; last decrement {decrement:.3e}")
