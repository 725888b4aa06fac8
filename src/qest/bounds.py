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

from .linalg import NoConvergenceError, ValueRecord, read_only
from .measurements import (MubFamily, Povm, bloch_pvm_mixture, bloch_pvm_ops, check_povm_ops,
                           mub_tomography_povm, qubit_tomography_povm)
from .states import (PAULIS, ModelDerivatives, _check_ball, _mub_model, _mub_states, model_qfi,
                     qubit_qfi, qubit_slds)

# a symmetric matrix counts as positive definite when its smallest eigenvalue
# exceeds PD_TOL times the smaller of 1 and its largest (_require_pd)
PD_TOL = 1e-12
SYM_TOL = 1e-10
# min_trace_unit_trace: the Newton steps it may take, and the share of the
# value below which its Newton decrement (twice the predicted gain) is
# rounding of the value
UNIT_TRACE_MAX_STEPS = 50000
UNIT_TRACE_RTOL = 1e-14
# the share of its value by which a min_trace_unit_trace result may exceed
# the minimum, as bounded by _certify_unit_trace: rounding in G^-1 S G^-1
# gives accurate results bounds up to about 1e-3 at condition number 2.5e11,
# and a run that stalls there reads 1e6 and more
UNIT_TRACE_GAP = 1e-2
# a float below this squares without overflow
_SQRT_MAX = math.sqrt(sys.float_info.max)


class SingularInputError(ValueError):
    """A matrix required to be positive definite is (numerically) singular."""


class SingularOutcomeError(ValueError):
    """An outcome has zero probability but nonzero derivative, so the
    Fisher information is undefined."""


class UnsupportedDimError(ValueError):
    """Optimal-measurement construction only exists for a two-level system."""


@dataclass(frozen=True, eq=False)
class RotWeight(ValueRecord):
    """Values of a rotationally symmetric weight at one radius.

    `transverse` weights directions orthogonal to the state vector,
    `radial` the direction along it: H = transverse*I +
    (radial - transverse) |x><x| / r^2.  Both must be positive and finite.
    Either may be an array, held as a read-only copy: a stack of weights,
    which the closed forms and rot_weight_along broadcast against their
    stack of points.  Records compare and hash by value.
    """

    transverse: float
    radial: float

    def __post_init__(self):
        for name in ("transverse", "radial"):
            if isinstance(getattr(self, name), np.ndarray):
                object.__setattr__(self, name, read_only(getattr(self, name), float))
        t, g = self.transverse, self.radial
        if not np.asarray((0.0 < t) & (t < math.inf) & (0.0 < g) & (g < math.inf)).all():
            raise ValueError("weight values must be positive and finite")


def _check_radius(r) -> None:
    """Reject a radius, or any radius of an array, outside [0, 1), naming
    the first; a NaN fails both comparisons."""
    inside = np.asarray((0.0 <= r) & (r < 1.0))
    if not inside.all():
        raise ValueError(f"radius {np.ravel(r)[~inside.ravel()][0]} outside [0, 1)")


def qfi_rot_weight(r) -> RotWeight:
    """Rotational values reproducing the qubit Fisher matrix at radius r;
    an array of radii gives a stack of weights."""
    _check_radius(r)
    return RotWeight(1.0, 1.0 / (1.0 - r * r))


# the rotational weight selectors, each a function of the radius r
ROT_WEIGHTS = {"identity": lambda r: RotWeight(1.0, 1.0), "qfi": qfi_rot_weight}
# every weight selector: the rotational ones and tomography_weight's
WEIGHT_SELECTORS = (*ROT_WEIGHTS, "tomography")


@dataclass
class OptimalSolution:
    """Minimum of Tr H g(M)^-1 and the data of the attaining measurement.

    bound = (Tr R)^2 with R = sqrt(sqrt(J^-1) H sqrt(J^-1)); `basis` and
    `scales` diagonalize R; `fisher_target` is the unique Fisher matrix of
    any minimizing measurement.  `probs` and `axes` (unit Bloch vectors, 0
    for a dropped branch) are filled by qubit_design, `measurement` by
    optimal_measurement.
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
    matrix is at most dim(H) - 1.  Stacks of g, J and u broadcast, so J's
    shared by many g's are decomposed once each.
    """
    _, inv_sq = _sqrt_and_inv_sqrt(j)
    core = inv_sq @ np.asarray(g, dtype=float) @ inv_sq
    if u is not None:
        u = np.asarray(u, dtype=float)
        if not float(np.max(np.abs(u.mT @ u - np.eye(u.shape[-1])))) <= 1e-8:
            raise ValueError("u must be orthogonal")
        core = u.mT @ core @ u
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
    (Tr sigma L_k) / 2.  A branch of probability at most 1e-15 is dropped:
    it is kept in place as probability 0 and axis 0, so probs is (..., d)
    and axes (..., d, 3).  Within degenerate eigenvalue clusters of R any
    orthogonal diagonalizer works.

    Stacks sld_bloch (..., d, 3), J and H (..., d, d) broadcast; each
    element has the bits of its own call.
    """
    roots = _sqrt_and_inv_sqrt(j)
    sol = _min_trace(roots, h)
    probs = sol.scales / sol.scales.sum(axis=-1, keepdims=True)
    kept = probs > 1e-15
    axes = sol.basis.mT @ roots[1] @ sld_bloch
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    probs = np.where(kept, probs, 0.0)
    axes = np.where(kept[..., None], axes, 0.0)
    norms = np.where(kept[..., None], norms, 1.0)
    # adding a dropped branch's 0.0 to the sum leaves its bits unchanged
    sol.probs = probs / probs.sum(axis=-1, keepdims=True)
    sol.axes = axes / norms
    return sol


def optimal_measurement(derivs: ModelDerivatives, j: np.ndarray,
                        h: np.ndarray) -> OptimalSolution:
    """Random measurement attaining the weighted Cramer-Rao minimum: the
    branches of qubit_design as a POVM, labeled "<branch><sign>", a dropped
    branch as two zero elements.  Its classical Fisher matrix equals
    sqrt(J) R sqrt(J) / Tr R.

    Only defined on a two-level system (1 to 3 parameters).  A stack of
    states (..., 2, 2) with stacks of J and H gives qubit_design's stacked
    solution, whose `measurement` is the checked elements (..., 2d, 2, 2)
    of bloch_pvm_ops, each with the bits of its own call's Povm.
    """
    if derivs.rho.shape[-2:] != (2, 2):
        raise UnsupportedDimError("construction requires a two-level system")
    d = derivs.n_params
    if d not in (1, 2, 3):
        raise ValueError(f"parameter count {d} out of range 1..3")
    sld_bloch = np.einsum("...kij,mji->...km", np.stack(derivs.slds, axis=-3),
                          np.stack(PAULIS)).real / 2
    sol = qubit_design(sld_bloch, j, h)
    if sol.probs.ndim == 1:
        sol.measurement = bloch_pvm_mixture(sol.probs, sol.axes)
    else:
        sol.measurement = bloch_pvm_ops(sol.probs, sol.axes)
        check_povm_ops(sol.measurement)
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
    A stack (..., 3) of points gives a stack (..., 3, 3).
    """
    x = _check_ball(x)
    denom = 1.0 - x * x
    h = -(x[..., :, None] * x[..., None, :]) / (denom[..., :, None] * denom[..., None, :])
    diag = np.arange(3)
    h[..., diag, diag] = 1.0 / denom
    return h


def resolve_weight(selector, x) -> np.ndarray:
    """Weight matrix at the point x for a selector or a fixed matrix."""
    if isinstance(selector, str):
        if selector == "identity":
            return np.eye(3)
        if selector == "qfi":
            return qubit_qfi(x)
        if selector == "tomography":
            return tomography_weight(x)
        raise ValueError(f"unknown weight selector {selector!r}")
    return np.asarray(selector, dtype=float)


def weight_from_fisher(f: np.ndarray, j: np.ndarray,
                       k: float = 1.0) -> tuple[np.ndarray, bool]:
    """Weight k F J^-1 F for which F is the optimal Fisher matrix.

    Returns the symmetrized weight and a feasibility flag: F arises as the
    optimal Fisher matrix of some weight iff Tr J^-1 F = 1.  Stacks of F and
    J broadcast and give a stack of weights and a boolean array of flags;
    one F and J give one weight and a bool.
    """
    f = _check_sym_pd(f, "Fisher matrix")
    j = _check_sym_pd(j, "quantum Fisher matrix")
    # a NaN fails both comparisons
    if not 0.0 < k < math.inf:
        raise ValueError(f"scale k must be positive and finite, got {k}")
    jinv = np.linalg.inv(j)
    w = k * f @ jinv @ f
    feasible = np.abs(np.trace(jinv @ f, axis1=-2, axis2=-1) - 1.0) <= 1e-9
    return (w + w.mT) / 2, bool(feasible) if feasible.ndim == 0 else feasible


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
    directions (..., 3) or of weight values gives a stack (..., 3, 3).
    """
    v = unit_direction(direction)
    outer = v[..., :, None] * v[..., None, :]
    f = np.asarray(w.transverse)[..., None, None]
    g = np.asarray(w.radial)[..., None, None]
    return f * np.eye(3) + (g - f) * outer


def c_opt_closed(w: RotWeight, r):
    """Closed form of the measurement-optimized merit for a rotational weight:
    (2 sqrt(f) + sqrt((1-r^2) g))^2.  A float, or an array over arrays of
    radii and of weight values, which broadcast.
    """
    _check_radius(r)
    root = 2.0 * np.sqrt(w.transverse) + np.sqrt((1.0 - r * r) * w.radial)
    if not np.asarray(root < _SQRT_MAX).all():
        raise ValueError("merit overflows for these weight values")
    # libm's pow, as a float's root ** 2
    return np.float_power(root, 2)


def anisotropy(x):
    """Directional anisotropy t = 1 - sum (x^mu)^4 / r^4, zero at the origin.

    Ranges over [0, 2/3]; zero exactly on the coordinate axes, 2/3 exactly
    along the (+-1, +-1, +-1) diagonals.  A float, or an array over a stack
    (..., 3).  A point with a non-finite entry is a ValueError.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        r2 = np.vecdot(x, x)
    # a NaN fails both tests
    odd = ~((r2 >= 1e-100) & (r2 <= _SQRT_MAX))
    if odd.any():
        # t is scale invariant, and r^4 would underflow or overflow; the
        # origin is scored as an axis point, whose t is 0
        peak = np.max(np.abs(x), axis=-1)
        if not np.isfinite(peak[odd]).all():
            raise ValueError("point has non-finite entries")
        x = x / np.where(odd & (peak > 0.0), peak, 1.0)[..., None]
        x[..., 0] = np.where(peak == 0.0, 1.0, x[..., 0])
        r2 = np.vecdot(x, x)
    # libm's pow, as a float's r2 ** 2 (an array's ** 2 is r2 * r2, which
    # rounds differently)
    return _scalar(1.0 - np.sum(x ** 4, axis=-1) / np.float_power(r2, 2))


def c_tomo_closed(w: RotWeight, x):
    """Closed form of the tomography merit Tr H g^-1 for a rotational weight:
    3 (2f + (1-r^2) g) + 3 t r^2 (g - f).  A float, or an array over a
    stack (..., 3) of points and of weight values, which broadcast.
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
    as a bound (attainability is not established).  q = hilbert_dim must be
    an integer of at least 2.
    """
    if isinstance(hilbert_dim, bool) or not isinstance(hilbert_dim, (int, np.integer)) \
            or hilbert_dim < 2:
        raise ValueError(f"hilbert_dim must be an integer of at least 2, got {hilbert_dim!r}")
    return qcr_min_trace(j, h).bound / (hilbert_dim - 1)


def mub_tomography_sweep(family: MubFamily, radii, coord: tuple[int, int] = (0, 0)) -> list:
    """Rows (r, cGM, cT) along one affine coordinate of the MUB model.

    At coordinates zero except coord = (basis, vector), which is set to r,
    cT = Tr J g(M_T)^-1 is the merit of uniform MUB tomography and cGM =
    gm_lower_bound(J, J, q) the bound valid for every POVM, both with the
    Fisher-matrix weight.  The sweep stops at the first radius whose state
    is not positive.  All radii are scored as one stack, each row with the
    bits of its own point's calls.  coord must be two integers with
    0 <= basis <= q and 0 <= vector <= q - 2, and every radius finite.
    """
    q = family.q
    basis, vector = coord
    if not all(isinstance(i, (int, np.integer)) for i in coord) or \
            not (0 <= basis <= q and 0 <= vector <= q - 2):
        raise ValueError(f"coord must be two integers with 0 <= basis <= {q} and "
                         f"0 <= vector <= {q - 2}, got {tuple(coord)}")
    radii = np.asarray(radii, dtype=float).reshape(-1)
    bad = radii[~np.isfinite(radii)]
    if bad.size:
        raise ValueError(f"radius {bad[0]} is not finite")
    coords = np.zeros((len(radii), q + 1, q - 1))
    coords[(slice(None), *coord)] = radii
    rho, low = _mub_states(coords, family)
    stop = np.flatnonzero(low <= 0.0)
    n = int(stop[0]) if stop.size else len(radii)
    if n == 0:
        return []
    derivs = _mub_model(rho[:n], family)
    j = model_qfi(derivs)
    g = classical_fisher(derivs, mub_tomography_povm(family))
    ct = np.trace(j @ np.linalg.inv(g), axis1=-2, axis2=-1)
    return list(zip(radii[:n].tolist(), gm_lower_bound(j, j, q).tolist(), ct.tolist()))


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
    for weight_at in weights:
        ws = [weight_at(r) for r in radii.tolist()]
        # the weight's values at every radius, one row per radius
        w = RotWeight(np.array([[v.transverse] for v in ws]), np.array([[v.radial] for v in ws]))
        c.append(c_opt_closed(w, radii[:, None]))
        ct.append(c_tomo_closed(w, x))
        hs.append(rot_weight_along(w, dirs))
    c, ct, hs = (np.stack(a, axis=1) for a in (c, ct, hs))
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


def min_trace_unit_trace(s: np.ndarray) -> tuple:
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
    UNIT_TRACE_MAX_STEPS steps do not reach a stop, when a Newton Hessian
    is singular to working precision, as it can be for a target of
    condition number near 1e12, or when the stop is not certified: the
    value may exceed the minimum by more than UNIT_TRACE_GAP of itself
    (_certify_unit_trace).

    A stack (..., d, d) of targets gives values (...) and minimizers
    (..., d, d).  Each case takes its own steps and halvings, with the bits
    of its own call; a bad target or a case that does not converge is named
    by its index, the first in row-major order.
    """
    s = np.asarray(s, dtype=float)
    try:
        s = _check_sym_pd(s, "target matrix")
    except ValueError:
        if s.ndim < 3 or s.shape[-2] != s.shape[-1]:
            raise
        for index in np.ndindex(s.shape[:-2]):
            try:
                _check_sym_pd(s[index], "target matrix")
            except ValueError as exc:
                raise type(exc)(f"case {_case_name(index)}: {exc}") from None
        raise
    d = s.shape[-1]
    cases = s.reshape(-1, d, d)
    if d == 1:
        vals, g = cases[:, 0, 0].copy(), np.ones_like(cases)
    else:
        vals, g = _unit_trace_newton(cases, s.shape[:-2])
    return _scalar(vals.reshape(s.shape[:-2])), g.reshape(s.shape)


def _case_name(index: tuple) -> str:
    return ", ".join(str(i) for i in index)


def _cholesky_passes(m: np.ndarray) -> np.ndarray:
    """Whether np.linalg.cholesky accepts each matrix of the stack m."""
    try:
        np.linalg.cholesky(m)
        return np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        passes = np.ones(len(m), dtype=bool)
        for i, one in enumerate(m):
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                passes[i] = False
        return passes


def _case_prefix(shape: tuple, flat: int) -> str:
    """The prefix "case i, j: " naming the case at flat index `flat` of a
    stack of the given shape; empty for one case."""
    return f"case {_case_name(np.unravel_index(flat, shape))}: " if shape else ""


def _unit_trace_newton(s: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """min_trace_unit_trace's values and minimizers for the checked targets
    s (k, d, d), d > 1, which are the cases of a stack of the given shape.
    Each step works on the cases still running, and every stacked call
    gives each case the bits of its one-case call."""
    d = s.shape[-1]
    basis = _traceless_basis(d)
    n = len(basis)
    flat = basis.reshape(n, d * d)
    g = np.broadcast_to(np.eye(d) / d, s.shape).copy()
    ginv = np.linalg.inv(g)
    val = np.trace(s @ ginv, axis1=-2, axis2=-1)
    running = np.arange(len(s))
    for _ in range(UNIT_TRACE_MAX_STEPS):
        rs, rg, rginv, rval = s[running], g[running], ginv[running], val[running]
        b = rginv @ rs @ rginv
        # one matrix-vector product per case, as flat @ b.ravel()
        grad = -(flat @ b.reshape(-1, d * d, 1))[..., 0]
        # the flattened rows B E_k and E_l G^-1 contract to Tr(B E_k G^-1 E_l)
        half = ((b[:, None] @ basis).reshape(-1, n, d * d)
                @ (basis @ rginv[:, None]).reshape(-1, n, d * d).mT)
        hess = half + half.mT
        try:
            step = np.linalg.solve(hess, -grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # G came so near the boundary that the Hessian's condition
            # number is beyond a float's; the first such case is named
            for k, one in enumerate(hess):
                try:
                    np.linalg.solve(one, grad[k])
                except np.linalg.LinAlgError:
                    raise NoConvergenceError(
                        f"{_case_prefix(shape, running[k])}unit-trace Newton Hessian is "
                        "singular to working precision") from None
            raise
        decrement = np.vecdot(-grad, step)
        last = decrement <= UNIT_TRACE_RTOL * rval
        move = (step[:, None] @ flat).reshape(-1, d, d)
        t = np.ones(len(running))
        searching = np.ones(len(running), dtype=bool)
        cand, cand_inv, cand_val = np.empty_like(rg), np.empty_like(rg), rval.copy()
        # at most 60 halvings; past them the move vanishes against G
        for _ in range(60):
            tried = np.flatnonzero(searching)
            if not tried.size:
                break
            trial = rg[tried] + t[tried, None, None] * move[tried]
            passes = _cholesky_passes(trial)
            tried, trial = tried[passes], trial[passes]
            trial_inv = np.linalg.inv(trial)
            trial_val = np.trace(rs[tried] @ trial_inv, axis1=-2, axis2=-1)
            took = last[tried] | (trial_val <= rval[tried])
            won = tried[took]
            cand[won], cand_inv[won], cand_val[won] = trial[took], trial_inv[took], trial_val[took]
            searching[won] = False
            t[searching] *= 0.5
        # a case whose halvings all failed stops where it is
        moved = ~searching
        at = running[moved]
        g[at], ginv[at] = cand[moved], cand_inv[moved]
        going = moved & ~last & (cand_val < rval)
        val[at] = cand_val[moved]
        running, decrement = running[going], decrement[going]
        if not running.size:
            _certify_unit_trace(s, val, ginv, shape)
            return val, g
    raise NoConvergenceError(f"{_case_prefix(shape, running[0])}unit-trace minimum not reached "
                             f"in {UNIT_TRACE_MAX_STEPS} Newton steps; last decrement "
                             f"{decrement[0]:.3e}")


def _certify_unit_trace(s: np.ndarray, val: np.ndarray, ginv: np.ndarray, shape: tuple) -> None:
    """Reject the first case whose value may exceed the minimum by more than
    UNIT_TRACE_GAP of itself.  Tr S G^-1 is convex with gradient -B, B =
    G^-1 S G^-1, and Tr B G' is at most lambda_max(B) over the unit-trace
    G' >= 0, so the minimum is at least val - (lambda_max(B) - val): the
    gap lambda_max(B) - val bounds the excess, and is 0 at the minimum,
    where B = val I."""
    b = ginv @ s @ ginv
    gap = np.linalg.eigvalsh((b + b.mT) / 2)[:, -1] - val
    bad = np.flatnonzero(~(gap <= UNIT_TRACE_GAP * val))
    if bad.size:
        k = bad[0]
        raise NoConvergenceError(f"{_case_prefix(shape, k)}unit-trace Newton stopped at "
                                 f"{val[k]:.6e}, which may exceed the minimum by up to "
                                 f"{gap[k]:.3e}")
