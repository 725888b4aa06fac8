"""Stochastic comparison of plain tomography against adaptive estimation.

One adaptive trial alternates: derive the merit-optimal random measurement
at the running design estimate, sample one outcome from the true state, and
move the design estimate by one O(1) scoring step on the observed
information, all in one kernel on Python floats.  At each checkpoint of
a fixed geometric grid the design estimate is reset to the certified
constrained maximum-likelihood estimate over the recorded history, and that
certified estimate is what the checkpoint reports.  Monte Carlo aggregation
reports the scaled Bures and squared-error figures of merit at the
checkpoints, next to the theoretical limits of both schemes.

Everything is deterministic given the seed: trial i draws from an
independent substream derived from (seed, estimator, i), and aggregation
runs in trial order regardless of worker count.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import (
    ROT_WEIGHTS,
    WEIGHT_SELECTORS,
    _check_sym_pd,
    c_opt_closed,
    c_tomo_closed,
    qcr_min_trace,
    qubit_design,
    tomography_fisher,
)
from .linalg import ValueRecord, read_only
from .states import qubit_bures, qubit_qfi

PROB_FLOOR = 1e-12
_PIVOT_RTOL = 1e-12
# the certificate accepts a point whose ball-constrained Newton step predicts
# a log-likelihood ascent of at most CERT_TOL * max(1, |L| / 1000), L the
# summed log terms: 1e-10 absolute, and a few hundred rounding units of L
# for long histories
CERT_TOL = 1e-10
MAX_NEWTON = 60


@dataclass(frozen=True, eq=False)
class RunConfig(ValueRecord):
    """Configuration of one Monte Carlo comparison.

    weight is "identity", "qfi", "tomography", or a fixed 3x3 matrix; a
    selector's design follows the running estimate in closed form.  x0 and
    a matrix weight are read-only copies, checked once: dataclasses.replace
    builds a changed record and checks it again.  Records compare and hash
    by value.
    """

    x0: np.ndarray
    weight: object = "qfi"
    m_max: int = 3000
    reps: int = 300
    seed: int = 0
    eps_ball: float = 1e-6

    def __post_init__(self):
        for name in ("x0", "weight"):
            # a float cast would drop the imaginary part with only a warning
            if np.iscomplexobj(getattr(self, name)):
                raise ValueError(f"{name} must be real, not complex")
        object.__setattr__(self, "x0", read_only(self.x0, float))
        # a huge finite x0 overflows to an inf norm, which lies outside
        with np.errstate(over="ignore"):
            inside = self.x0.shape == (3,) and float(self.x0 @ self.x0) < 1.0
        if not inside:
            raise ValueError("x0 must be a Stokes vector strictly inside the ball")
        for name, low in (("m_max", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        _check_eps(self.eps_ball)
        if self.eps_ball < 1e-12:
            # below this, estimates on the clamp sphere round onto |x| = 1
            raise ValueError("eps_ball must be at least 1e-12")
        if isinstance(self.weight, str):
            if self.weight not in WEIGHT_SELECTORS:
                raise ValueError(f"unknown weight selector {self.weight!r}")
        else:
            weight = np.asarray(self.weight, dtype=float)
            if weight.shape != (3, 3):
                raise ValueError("custom weight must be a 3x3 matrix")
            # the symmetry check forms weight + weight.T, which must not overflow
            if not np.all(np.abs(weight) <= np.finfo(float).max / 2):
                raise ValueError("custom weight entries must be finite and at most 8.99e307")
            object.__setattr__(self, "weight", read_only(_check_sym_pd(weight, "weight"), float))
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    finite = all(map(math.isfinite, theoretical_merits(self)))
                except OverflowError:
                    finite = False
            if not finite:
                raise ValueError("merit overflows for these weight values")


@dataclass
class TrialRecord:
    """Per-step history of one adaptive run.

    Applied POVM elements are stored in Bloch form: element i is
    (traces[i] * I + bloch[i] . sigma) / 2.  outcomes[i] = 2 * branch + 1
    for the + projector of the branch measured at step i, 2 * branch for -.
    """

    element_traces: np.ndarray
    element_bloch: np.ndarray
    outcomes: np.ndarray
    checkpoints: np.ndarray
    estimates: np.ndarray
    n_opt_failed: int = 0

    @property
    def labels(self) -> list:
        """Outcome labels "<branch><sign>", branches counted from 1."""
        return [f"{k // 2 + 1}{'+' if k % 2 else '-'}" for k in self.outcomes.tolist()]


@dataclass
class McSummary:
    """Aggregated figures of merit over repeated runs of one estimator."""

    estimator: str
    checkpoints: np.ndarray
    mean_bures: np.ndarray   # sample mean of 2m * B(tau_x0, tau_xhat)
    se_bures: np.ndarray
    mean_sq: np.ndarray      # sample mean of m * |x0 - xhat|^2
    se_sq: np.ndarray
    c_opt: float
    c_tomo: float
    n_opt_failed: int = 0

    CSV_HEADER = "m,estimator,meanBures,seBures,meanSq,seSq,cOpt,cTomo"

    def to_rows(self) -> list:
        rows = []
        for i, m in enumerate(self.checkpoints):
            rows.append([int(m), self.estimator,
                         float(self.mean_bures[i]), float(self.se_bures[i]),
                         float(self.mean_sq[i]), float(self.se_sq[i]),
                         float(self.c_opt), float(self.c_tomo)])
        return rows

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.to_rows():
            lines.append(",".join(map(str, row)))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "checkpoints": [int(m) for m in self.checkpoints],
            "meanBures": [float(v) for v in self.mean_bures],
            "seBures": [float(v) for v in self.se_bures],
            "meanSq": [float(v) for v in self.mean_sq],
            "seSq": [float(v) for v in self.se_sq],
            "cOpt": float(self.c_opt),
            "cTomo": float(self.c_tomo),
            "nOptFailed": int(self.n_opt_failed),
        }


def _check_eps(eps) -> None:
    """Reject a ball margin outside (0, 1), where the ball of radius 1 - eps
    is empty, a point or all of the state space; a NaN fails both tests.
    A float skips the ABC test, which costs 0.4 us in every line search."""
    if not (type(eps) is float or isinstance(eps, numbers.Real)) or not 0.0 < eps < 1.0:
        raise ValueError(f"eps_ball must lie strictly between 0 and 1, got {eps!r}")


def clamp_to_ball(x, eps: float = 1e-6) -> np.ndarray:
    """Radially project onto the closed ball of radius 1 - eps, 0 < eps < 1.

    Idempotent: the result lies in the ball by the same norm that decides
    whether to project, so clamping it again returns it unchanged.
    """
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    lst = x.tolist()
    y = _clamp_point(lst, 1.0 - eps)
    return x if y is lst else np.array(y)


def _clamp_point(x: list, rho: float) -> list:
    """The projection of clamp_to_ball for a point given as floats: the
    scaled point, or x itself when |x| <= rho already.  |x| is
    sqrt(x0*x0 + x1*x1 + x2*x2), the one norm of every clamp and design here."""
    x0, x1, x2 = x
    r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if r <= rho:
        return x
    if r == math.inf:
        # x0*x0 overflowed: divide by the largest |entry| first, as
        # bounds.unit_direction does; an infinite entry turns into NaN here
        peak = max(abs(x0), abs(x1), abs(x2))
        x0, x1, x2 = x0 / peak, x1 / peak, x2 / peak
        r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    s = rho / r
    y0, y1, y2 = x0 * s, x1 * s, x2 * s
    # |y| <= rho < 1 for finite x; a NaN or infinite entry makes y NaN
    if not math.isfinite(y0 + y1 + y2):
        raise ValueError(f"point {list(x)} has non-finite entries")
    while math.sqrt(y0 * y0 + y1 * y1 + y2 * y2) > rho:
        # rounding left y an ulp outside; shrink each coordinate by >= 1 ulp
        y0, y1, y2 = (v * (1.0 - 2.0 ** -52) for v in (y0, y1, y2))
    return [y0, y1, y2]


def _clamp_rows(x: np.ndarray, eps: float) -> np.ndarray:
    """clamp_to_ball applied to every point x[..., :] of x, bit for bit for
    every row whose squared norm is finite (estimates of the Monte Carlo are)."""
    rho = 1.0 - eps
    x0, x1, x2 = np.moveaxis(x, -1, 0)
    out = x * (rho / np.maximum(np.sqrt(x0 * x0 + x1 * x1 + x2 * x2), rho))[..., None]
    while True:
        y0, y1, y2 = np.moveaxis(out, -1, 0)
        outside = np.sqrt(y0 * y0 + y1 * y1 + y2 * y2) > rho
        if not outside.any():
            return out
        out[outside] *= 1.0 - 2.0 ** -52


def checkpoint_schedule(m_max: int) -> np.ndarray:
    """Geometric checkpoint grid, about ten points per decade, always
    starting at 1 and ending at m_max."""
    points = {m_max}
    j = 0
    while True:
        m = int(round(10 ** (j / 10)))
        if m >= m_max:
            break
        points.add(max(m, 1))
        j += 1
    return np.array(sorted(points), dtype=int)


def tomography_estimate(counts: np.ndarray) -> np.ndarray:
    """Per-axis frequency estimator (plus - minus) / total, zero for an
    axis with no draws.  counts[..., mu, :] = (minus, plus); the estimate
    has the shape of counts without its last axis."""
    counts = np.asarray(counts)
    per_axis = counts.sum(axis=-1)
    return np.divide(counts[..., 1] - counts[..., 0], per_axis,
                     out=np.zeros(per_axis.shape), where=per_axis > 0)


def _optimal_branches(x, weight):
    """The merit-optimal random measurement at x for a fixed 3x3 weight, as
    the 12 floats (p0, p1, p2, axis0, axis1, axis2) of its branch
    probabilities and PVM axes, from bounds.qubit_design; a dropped branch
    stays in place as probability 0 and axis 0.  Branch i measures the PVM
    with projectors (I +- axis_i.sigma)/2 and is chosen with probability p_i.
    The selectors' designs are closed forms inside adaptive_run.
    """
    # the SLD Bloch vectors of the Stokes model are the rows of J
    j = qubit_qfi(x)
    sol = qubit_design(j, j, weight)
    return (*sol.probs.tolist(), *sol.axes.ravel().tolist())


# the uniform Pauli mixture in the floats of _optimal_branches: the design of
# "tomography" at every x, and of the rotational selectors at the origin
_PAULI = (1.0 / 3.0,) * 3 + (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _log_likelihood(traces: np.ndarray, bloch: np.ndarray, x: np.ndarray) -> float:
    u = traces + bloch @ x
    return float(np.sum(np.log(np.maximum(u, 2.0 * PROB_FLOOR)))) - len(traces) * np.log(2.0)


def _bloch_products(bt: np.ndarray) -> np.ndarray:
    """Rows b0 b0, b1 b1, b2 b2, b0 b1, b0 b2, b1 b2 of Bloch columns bt
    (3 x m), written straight into one array by three multiplications."""
    out = np.empty((6, bt.shape[1]))
    np.multiply(bt, bt, out=out[:3])
    np.multiply(bt[0], bt[1:], out=out[3:5])
    np.multiply(bt[1], bt[2], out=out[5])
    return out


def _chol_solve(h6, c0: float, c1: float, c2: float):
    """Solution (y0, y1, y2) of H y = c by Cholesky, H given as
    (h00, h11, h22, h01, h02, h12); None when a pivot is at most _PIVOT_RTOL Tr H,
    that is when H is not numerically positive definite."""
    a00, a11, a22, a01, a02, a12 = h6
    pivot = _PIVOT_RTOL * (a00 + a11 + a22)
    if not a00 > pivot:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a01 / l00, a02 / l00
    d1 = a11 - l10 * l10
    if not d1 > pivot:
        return None
    l11 = math.sqrt(d1)
    l21 = (a12 - l20 * l10) / l11
    d2 = a22 - l20 * l20 - l21 * l21
    if not d2 > pivot:
        return None
    l22 = math.sqrt(d2)
    z0 = c0 / l00
    z1 = (c1 - l10 * z0) / l11
    z2 = (c2 - l20 * z0 - l21 * z1) / l22
    y2 = z2 / l22
    y1 = (z1 - l21 * y2) / l11
    return (z0 - l10 * y1 - l20 * y2) / l00, y1, y2


def _ball_newton_point(h6: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """Maximizer of c.y - y^T H y / 2 over |y| <= rho for positive
    semidefinite H given as (h00, h11, h22, h01, h02, h12).

    Inside the ball it is the Cholesky solution of H y = c.  Otherwise it
    is y = (H + lam I)^-1 c with lam > 0 and |y| = rho, found by Newton's
    method on the secular equation 1/|y(lam)| - 1/rho = 0 in the
    eigenbasis of H (More & Sorensen 1983), which converges monotonically
    from a lam where |y(lam)| >= rho.  For a likelihood Hessian, c has no
    component along a direction v with H v = 0 (that forces every
    b_i . v = 0, so the log-likelihood is flat along v); such directions get
    no component, which picks the minimum-norm maximizer.
    """
    h = h6.tolist()
    c0, c1, c2 = c.tolist()
    y = _chol_solve(h, c0, c1, c2)
    if y is not None and math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) <= rho:
        return np.array(y)
    a00, a11, a22, a01, a02, a12 = h
    mu, vecs = np.linalg.eigh(np.array([[a00, a01, a02], [a01, a11, a12],
                                        [a02, a12, a22]]))
    mu_max = max(float(mu[2]), 0.0)
    flat = 1e-12 * mu_max
    noise = 1e-10 * (math.hypot(c0, c1, c2) + mu_max)
    # (curvature, c component, index); no-curvature directions keep only a
    # c component above rounding noise, and then only linear growth
    terms = [(m if m > flat else 0.0, ck, k)
             for k, (m, ck) in enumerate(zip(mu.tolist(), (c @ vecs).tolist()))
             if (m > flat and ck != 0.0) or abs(ck) > noise]
    lam = 0.0
    if any(m == 0.0 for m, _, _ in terms) or \
            sum((ck / m) ** 2 for m, ck, _ in terms) > rho * rho:
        # |y(lam)| >= |c_k| / (mu_k + lam) >= rho for every lam up to this start
        lam = max(0.0, max(abs(ck) / rho - m for m, ck, _ in terms))
        for _ in range(100):
            s2 = sum((ck / (m + lam)) ** 2 for m, ck, _ in terms)
            s3 = sum(ck * ck / (m + lam) ** 3 for m, ck, _ in terms)
            step = (math.sqrt(s2) - rho) / rho * s2 / s3
            lam += step
            if step <= 1e-15 * lam:
                break
    coef = [0.0, 0.0, 0.0]
    for m, ck, k in terms:
        coef[k] = ck / (m + lam)
    return vecs @ np.array(coef)


def mle_maximize(traces, bloch, init, *, eps_ball: float = 1e-6):
    """Maximize the history log-likelihood over the clamped ball.

    traces/bloch hold the applied elements in Bloch form; the likelihood of
    x is prod (traces_i + bloch_i . x) / 2, with probabilities floored at
    1e-12 inside the log.

    Newton ascent from init: each step maximizes the local quadratic model
    over the ball |x| <= 1 - eps_ball (_ball_newton_point), and
    backtracking runs along the chord from x to that point, which stays in
    the ball.  Returns (maximizer, ok).  ok is a certificate, not a flag: it
    is True only if the ball-constrained Newton step at the returned point
    predicts an ascent grad . delta of at most CERT_TOL (relative to
    |log-likelihood| / 1000 beyond 1000).  The log-likelihood is concave
    and the ball convex, so a certified point is the maximizer up to that
    tolerance.  A history that is empty, whose traces (m,) and Bloch rows
    (m, 3) do not pair, or that holds a non-finite entry is a ValueError,
    as is an eps_ball outside (0, 1).
    """
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
        delta = _ball_newton_point(h6, grad + hx, rho) - x
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


def adaptive_run(cfg: RunConfig, rng: np.random.Generator) -> TrialRecord:
    """One adaptive trial of cfg.m_max steps.

    At step m the measurement optimal for the weight at the running design
    estimate is applied and one outcome is sampled from the true state with
    one uniform draw; the m_max uniforms are drawn up front in one call,
    which yields the same stream as one draw per step.  The design estimate
    starts at the origin and takes one scoring step per outcome,
    x += I^-1 b / u with I the observed information of the history.  At the
    checkpoints checkpoint_schedule(m_max), and at any step where I is not
    yet positive definite, it is replaced by the certified full-history
    maximum-likelihood estimate, warm-started at it, and I is rebuilt there.
    The estimate reported at a checkpoint is that certified estimate.

    A step is one inline kernel on Python floats.  Design: the probabilities
    p0, p1, p2 and PVM axes a0, a1, a2 of _optimal_branches.  A rotational
    selector's weight is f (I - n n^T) + g n n^T, n = x/|x|, f = 1 and g = 1
    or 1/(1 - r^2); J^-1/2 H J^-1/2 has eigenvalues f, f across n and
    (1 - r^2) g along n, and sqrt(J) keeps those eigenvectors, so the axes
    are n and an orthonormal pair across it, with weights sqrt((1 - r^2) g),
    sqrt(f), sqrt(f).  "tomography", and a selector at the origin, get the
    uniform Pauli mixture; only a fixed matrix calls _optimal_branches.
    Draw: outcome 2 * branch for the - projector, 2 * branch + 1 for the +,
    is min(bisect_right([q0, ..., q5], u q5), 5) for the running sums q of
    the outcome probabilities on the true state, probed in bisect_right's
    order, because a term can round below zero and then the q are not
    monotone.  Update: for the applied element (p I + b.sigma)/2 and
    u = max(p + b.x, 2 PROB_FLOOR), I += b b^T / u^2 on six floats, then
    I y = b / u is solved as _chol_solve does and x + y clamped to the ball.
    The step's trace, Bloch vector and outcome go to one flat list, which
    the next solve writes into the history arrays (traces, Bloch columns and
    outcomes); m_max is a checkpoint, so the arrays are complete when the
    trial ends.  The pairwise Bloch products that the solve and the rebuilt
    I need are formed from the columns at each solve.
    """
    checkpoints = checkpoint_schedule(cfg.m_max)
    weight = cfg.weight
    selector = weight if isinstance(weight, str) else ""
    identity = selector == "identity"
    rotational = identity or selector == "qfi"
    rho = 1.0 - cfg.eps_ball
    floor, rtol, sqrt = 2.0 * PROB_FLOOR, _PIVOT_RTOL, math.sqrt
    t0, t1, t2 = cfg.x0.tolist()
    x0 = x1 = x2 = 0.0
    m_max = cfg.m_max
    traces = np.empty(m_max)
    bloch = np.empty((3, m_max))
    outcomes = np.empty(m_max, dtype=np.int8)
    estimates = []
    # (trace, Bloch vector, outcome) of each step since the last solve, flat
    steps = []
    ckpt_iter = iter(checkpoints.tolist())
    next_ckpt = next(ckpt_iter)
    n_failed = 0
    for n, draw in enumerate(rng.random(m_max).tolist(), 1):
        r2 = x0 * x0 + x1 * x1 + x2 * x2
        if rotational and r2 != 0.0:
            w = sqrt(1.0 - r2) if identity else 1.0
            s = sqrt(r2)
            a00, a01, a02 = x0 / s, x1 / s, x2 / s
            # Gram-Schmidt on the first coordinate axis least aligned with n; the
            # off-axis entries are 0.0 - t, not -t, which would turn +0.0 into -0.0
            m0, m1, m2 = abs(a00), abs(a01), abs(a02)
            if m0 <= m1 and m0 <= m2:
                a10, a11, a12 = 1.0 - a00 * a00, 0.0 - a00 * a01, 0.0 - a00 * a02
            elif m1 <= m2:
                a10, a11, a12 = 0.0 - a01 * a00, 1.0 - a01 * a01, 0.0 - a01 * a02
            else:
                a10, a11, a12 = 0.0 - a02 * a00, 0.0 - a02 * a01, 1.0 - a02 * a02
            s = sqrt(a10 * a10 + a11 * a11 + a12 * a12)
            a10, a11, a12 = a10 / s, a11 / s, a12 / s
            a20, a21, a22 = a01 * a12 - a02 * a11, a02 * a10 - a00 * a12, a00 * a11 - a01 * a10
            s = w + 2.0
            p0, p1, p2 = w / s, 1.0 / s, 1.0 / s
        else:
            p0, p1, p2, a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
                _PAULI if selector else _optimal_branches((x0, x1, x2), weight))
        d = a00 * t0 + a01 * t1 + a02 * t2
        q0 = p0 * (1.0 - d) / 2.0
        q1 = q0 + p0 * (1.0 + d) / 2.0
        d = a10 * t0 + a11 * t1 + a12 * t2
        q2 = q1 + p1 * (1.0 - d) / 2.0
        q3 = q2 + p1 * (1.0 + d) / 2.0
        d = a20 * t0 + a21 * t1 + a22 * t2
        q4 = q3 + p2 * (1.0 - d) / 2.0
        q5 = q4 + p2 * (1.0 + d) / 2.0
        v = draw * q5
        if v < q3:
            if v < q1:
                idx, p, b0, b1, b2 = (0 if v < q0 else 1), p0, a00, a01, a02
            else:
                idx, p, b0, b1, b2 = (2 if v < q2 else 3), p1, a10, a11, a12
        else:
            idx, p, b0, b1, b2 = (4 if v < q5 and v < q4 else 5), p2, a20, a21, a22
        s = p if idx & 1 else -p
        b0, b1, b2 = b0 * s, b1 * s, b2 * s
        steps += p, b0, b1, b2, idx
        # step 1 is a checkpoint, so I exists before the first running update
        if n != next_ckpt:
            u = p + b0 * x0 + b1 * x1 + b2 * x2
            if u < floor:
                u = floor
            w = 1.0 / (u * u)
            h00, h11, h22 = h00 + b0 * b0 * w, h11 + b1 * b1 * w, h22 + b2 * b2 * w
            h01, h02, h12 = h01 + b0 * b1 * w, h02 + b0 * b2 * w, h12 + b1 * b2 * w
            # I y = b / u by _chol_solve's Cholesky; a pivot <= _PIVOT_RTOL Tr I falls through
            s = rtol * (h00 + h11 + h22)
            if h00 > s:
                l00 = sqrt(h00)
                l10, l20 = h01 / l00, h02 / l00
                d = h11 - l10 * l10
                if d > s:
                    l11 = sqrt(d)
                    l21 = (h12 - l20 * l10) / l11
                    d = h22 - l20 * l20 - l21 * l21
                    if d > s:
                        l22 = sqrt(d)
                        z0 = b0 / u / l00
                        z1 = (b1 / u - l10 * z0) / l11
                        z2 = (b2 / u - l20 * z0 - l21 * z1) / l22
                        y2 = z2 / l22
                        y1 = (z1 - l21 * y2) / l11
                        y0 = x0 + (z0 - l10 * y1 - l20 * y2) / l00
                        y1, y2 = x1 + y1, x2 + y2
                        x0, x1, x2 = ((y0, y1, y2) if sqrt(y0 * y0 + y1 * y1 + y2 * y2) <= rho
                                      else _clamp_point((y0, y1, y2), rho))
                        continue
        block = np.reshape(steps, (-1, 5)).T
        written = n - block.shape[1]
        traces[written:n] = block[0]
        bloch[:, written:n] = block[1:4]
        outcomes[written:n] = block[4]
        steps.clear()
        x_mle, ok = mle_maximize(traces[:n], bloch[:, :n].T, (x0, x1, x2),
                                 eps_ball=cfg.eps_ball)
        n_failed += not ok
        u = np.maximum(traces[:n] + x_mle @ bloch[:, :n], floor)
        h00, h11, h22, h01, h02, h12 = (_bloch_products(bloch[:, :n])
                                         @ (1.0 / (u * u))).tolist()
        x0, x1, x2 = x_mle.tolist()
        if n == next_ckpt:
            estimates.append(x_mle)
            next_ckpt = next(ckpt_iter, 0)
    return TrialRecord(element_traces=traces, element_bloch=bloch.T, outcomes=outcomes,
                       checkpoints=checkpoints, estimates=np.array(estimates),
                       n_opt_failed=n_failed)


def _merits(x0: np.ndarray, checkpoints: np.ndarray, estimates: np.ndarray,
            eps_ball: float) -> np.ndarray:
    """Per-checkpoint (2m * Bures, m * squared error) of checkpoint estimates.

    estimates has shape (..., len(checkpoints), 3), one trial's or a
    block's, and the result (..., len(checkpoints), 2).  The Bures distance
    is taken to the estimate clamped to the ball of radius 1 - eps_ball, the
    squared error to the estimate as given.
    """
    out = np.empty(estimates.shape[:-1] + (2,))
    out[..., 0] = 2.0 * checkpoints * qubit_bures(x0, _clamp_rows(estimates, eps_ball))
    out[..., 1] = checkpoints * np.sum((x0 - estimates) ** 2, axis=-1)
    return out


def _tomography_estimates(x0: np.ndarray, checkpoints, rngs) -> np.ndarray:
    """Frequency estimates of plain-tomography trials at each checkpoint,
    one trial per generator in rngs, as an array (len(rngs), len(checkpoints), 3).

    Every draw measures the uniform mixture of the three Pauli PVMs, with
    outcomes ordered (axis 0 -, axis 0 +, axis 1 -, ...); a trial's draws
    between consecutive checkpoints come from one multinomial call on its
    own generator, in checkpoint order (_tomography_trial).
    """
    probs = np.stack([1.0 - x0, 1.0 + x0], axis=-1).ravel() / 6.0
    steps = np.diff(checkpoints, prepend=0)
    draws = np.empty((len(rngs), len(steps), 6), dtype=np.int64)
    for pos, rng in enumerate(rngs):
        draws[pos] = _tomography_trial(steps, probs, rng)
    counts = np.cumsum(draws, axis=1).reshape(len(rngs), len(steps), 3, 2)
    return tomography_estimate(counts)


def _tomography_trial(steps: np.ndarray, probs: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """One tomography trial's outcome counts per checkpoint increment."""
    return rng.multinomial(steps, probs)


def _trial_block(cfg: RunConfig, kind: str, checkpoints: np.ndarray,
                 indices) -> tuple:
    """(merits, uncertified solves) of the trials with the given indices.

    Each trial draws from its own generator default_rng((seed, kind, i)),
    in index order; the merits of the whole block are then scored at once,
    an array (len(indices), len(checkpoints), 2).
    """
    rngs = [np.random.default_rng((cfg.seed, _KIND_IDS[kind], int(trial)))
            for trial in indices]
    failed = 0
    if kind == "tomography":
        estimates = _tomography_estimates(cfg.x0, checkpoints, rngs)
    else:
        estimates = np.empty((len(indices), len(checkpoints), 3))
        for pos, rng in enumerate(rngs):
            record = adaptive_run(cfg, rng)
            failed += record.n_opt_failed
            estimates[pos] = record.estimates
    return _merits(cfg.x0, checkpoints, estimates, cfg.eps_ball), failed


_KIND_IDS = {"tomography": 0, "adaptive": 1}


def theoretical_merits(cfg: RunConfig) -> tuple[float, float]:
    """(optimal, tomography) asymptotic merit values at the true state.

    Selectors use their closed forms; a fixed matrix falls back to the
    generic bound and Tr H g_tomo^-1.
    """
    x0 = cfg.x0
    r = float(np.linalg.norm(x0))
    if isinstance(cfg.weight, str):
        if cfg.weight == "tomography":
            # H_T = 9 g_T J^-1 g_T and Tr J^-1 g_T = 1, so both merits are 9
            return 9.0, 9.0
        w = ROT_WEIGHTS[cfg.weight](r)
        return c_opt_closed(w, r), c_tomo_closed(w, x0)
    h = cfg.weight
    bound = qcr_min_trace(qubit_qfi(x0), h).bound
    g_tomo = tomography_fisher(x0)
    return bound, float(np.trace(h @ np.linalg.inv(g_tomo)))


def _env_threads() -> int:
    """Worker count from QEST_THREADS, or min(cpu count, 8) when unset."""
    raw = os.environ.get("QEST_THREADS", "")
    if not raw:
        return min(os.cpu_count() or 1, 8)
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"QEST_THREADS must be a positive integer, got {raw!r}")
    return threads


# Rough one-core trial cost per adaptive step and per tomography checkpoint
# (2-vCPU Xeon; a selector's step took 2.8-4.7 us at m_max = 3000,
# BENCH_27.json, and is priced at the top of that range; a tomography trial
# scored in a block took 60-125 us over its 33 checkpoints, as the machine's
# load varied).  A step under a fixed matrix weight runs qubit_design, 20-50
# times a selector's step (130-165 vs 3-8 us at m_max = 3000 on the same
# machine, under varying load).  A process pool costs about
# 0.1 s to start and feed, so a job with less estimated serial work than
# POOL_MIN_WORK_S runs serially.
_TRIAL_COST_S = {"adaptive": 5e-6, "custom": 1e-4, "tomography": 3e-6}
POOL_MIN_WORK_S = 0.25
# trials per block; a block holds its trials' draws and estimates at once
BLOCK_TRIALS = 256


def monte_carlo(cfg: RunConfig, estimators=("tomography", "adaptive"),
                threads: int | None = None) -> dict:
    """Repeat both estimation schemes cfg.reps times and aggregate.

    Returns {estimator: McSummary}.  Trials run in blocks of at most
    BLOCK_TRIALS (_trial_block): each trial draws from its own (seed,
    estimator, index) substream, and the block's merits are scored at once.
    Blocks run in parallel worker processes when threads > 1 and the
    estimated serial work repays the pool's start-up; results are identical
    for any thread count and block split, because no trial shares a
    generator and reduction follows trial order.
    """
    if threads is None:
        threads = _env_threads()
    checkpoints = checkpoint_schedule(cfg.m_max)
    c_opt, c_tomo = theoretical_merits(cfg)
    out = {}
    for kind in estimators:
        if kind not in _KIND_IDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
        per_trial = cfg.m_max if kind == "adaptive" else len(checkpoints)
        priced = "custom" if kind == "adaptive" and not isinstance(cfg.weight, str) else kind
        work_s = cfg.reps * per_trial * _TRIAL_COST_S[priced]
        pooled = threads > 1 and cfg.reps > 1 and work_s >= POOL_MIN_WORK_S
        n_chunks = max(min(4 * threads, cfg.reps) if pooled else 1,
                       -(-cfg.reps // BLOCK_TRIALS))
        indices = list(range(cfg.reps))
        chunks = [indices[i::n_chunks] for i in range(n_chunks)]
        if pooled:
            # under fork every worker starts at the first submit
            with ProcessPoolExecutor(max_workers=min(threads, n_chunks)) as pool:
                futures = [pool.submit(_trial_block, cfg, kind, checkpoints, chunk)
                           for chunk in chunks]
                results = [f.result() for f in futures]
        else:
            results = (_trial_block(cfg, kind, checkpoints, chunk) for chunk in chunks)
        merits = np.empty((cfg.reps, len(checkpoints), 2))
        failed = 0
        for chunk, (block, block_failed) in zip(chunks, results):
            merits[chunk] = block
            failed += block_failed
        mean = merits.mean(axis=0)
        if cfg.reps > 1:
            se = merits.std(axis=0, ddof=1) / np.sqrt(cfg.reps)
        else:
            se = np.zeros_like(mean)
        out[kind] = McSummary(
            estimator=kind, checkpoints=checkpoints,
            mean_bures=mean[:, 0], se_bures=se[:, 0],
            mean_sq=mean[:, 1], se_sq=se[:, 1],
            c_opt=c_opt, c_tomo=c_tomo, n_opt_failed=failed)
    return out
