"""Stochastic comparison of plain tomography against adaptive estimation.

One adaptive trial alternates: derive the merit-optimal random measurement
at the running design estimate, sample one outcome from the true state, and
move the design estimate by one O(1) scoring step on the observed
information, on Python floats for rotational weights.  At each checkpoint of
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
    _check_sym_pd,
    c_opt_closed,
    c_tomo_closed,
    qcr_min_trace,
    qubit_design,
    tomography_fisher,
    tomography_weight,
)
from .linalg import ValueRecord, read_only
from .states import qubit_bures, qubit_qfi

WEIGHT_SELECTORS = (*ROT_WEIGHTS, "tomography")
PROB_FLOOR = 1e-12
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
        if self.x0.shape != (3,) or not float(self.x0 @ self.x0) < 1.0:
            raise ValueError("x0 must be a Stokes vector strictly inside the ball")
        for name, low in (("m_max", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        if not isinstance(self.eps_ball, numbers.Real) or not 0.0 < self.eps_ball < 1.0:
            raise ValueError(f"eps_ball must lie strictly between 0 and 1, got {self.eps_ball!r}")
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


def clamp_to_ball(x, eps: float = 1e-6) -> np.ndarray:
    """Radially project onto the closed ball of radius 1 - eps.

    Idempotent: the result lies in the ball by the same norm that decides
    whether to project, so clamping it again returns it unchanged.
    """
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
    """clamp_to_ball applied to every point x[..., :] of x, bit for bit."""
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


def tomography_estimate(counts: np.ndarray) -> np.ndarray:
    """Per-axis frequency estimator (plus - minus) / total, zero for an
    axis with no draws.  counts[..., mu, :] = (minus, plus); the estimate
    has the shape of counts without its last axis."""
    counts = np.asarray(counts)
    per_axis = counts.sum(axis=-1)
    return np.divide(counts[..., 1] - counts[..., 0], per_axis,
                     out=np.zeros(per_axis.shape), where=per_axis > 0)


def _optimal_branches(x, weight):
    """The merit-optimal random measurement at x in Bloch form, as the 12
    floats (p0, p1, p2, axis0, axis1, axis2) of its branch probabilities and
    PVM axes.

    Branch i measures the PVM with projectors (I +- axis_i.sigma)/2 and is
    chosen with probability p_i.  weight is a selector or a fixed matrix.
    The rotational selectors "identity" and "qfi" have a weight
    f (I - n n^T) + g n n^T, n = x/|x|, with f = 1 and g = 1 or 1/(1 - r^2):
    J^-1/2 H J^-1/2 has eigenvalues f, f on the plane orthogonal to n and
    (1 - r^2) g along n, and sqrt(J) leaves those eigenvectors' directions
    unchanged, so the axes are n and an orthonormal pair orthogonal to it,
    chosen with weights sqrt((1 - r^2) g), sqrt(f), sqrt(f).  "tomography"
    gets the uniform Pauli mixture, optimal for its weight at every x.  A
    fixed matrix is handed to bounds.qubit_design; a branch it drops has
    probability 0 and axis 0.
    """
    if not isinstance(weight, str):
        # the SLD Bloch vectors of the Stokes model are the rows of J
        j = qubit_qfi(x)
        sol = qubit_design(j, j, weight)
        pad = [0.0] * (3 - len(sol.probs))
        return (*sol.probs.tolist(), *pad, *sol.axes.ravel().tolist(), *pad, *pad, *pad)
    x0, x1, x2 = x
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    if r2 == 0.0 or weight == "tomography":
        third = 1.0 / 3.0
        return third, third, third, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    w = math.sqrt(1.0 - r2) if weight == "identity" else 1.0
    s = math.sqrt(r2)
    n0, n1, n2 = x0 / s, x1 / s, x2 / s
    # Gram-Schmidt on the first coordinate axis least aligned with n; the
    # off-axis entries are 0.0 - t, not -t, which would turn +0.0 into -0.0
    m0, m1, m2 = abs(n0), abs(n1), abs(n2)
    if m0 <= m1 and m0 <= m2:
        a0, a1, a2 = 1.0 - n0 * n0, 0.0 - n0 * n1, 0.0 - n0 * n2
    elif m1 <= m2:
        a0, a1, a2 = 0.0 - n1 * n0, 1.0 - n1 * n1, 0.0 - n1 * n2
    else:
        a0, a1, a2 = 0.0 - n2 * n0, 0.0 - n2 * n1, 1.0 - n2 * n2
    na = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    a0, a1, a2 = a0 / na, a1 / na, a2 / na
    total = w + 2.0
    return (w / total, 1.0 / total, 1.0 / total, n0, n1, n2, a0, a1, a2,
            n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0)


def _log_likelihood(traces: np.ndarray, bloch: np.ndarray, x: np.ndarray) -> float:
    u = traces + bloch @ x
    return float(np.sum(np.log(np.maximum(u, 2.0 * PROB_FLOOR)))) - len(traces) * np.log(2.0)


def _bloch_products(bt: np.ndarray) -> np.ndarray:
    """Rows b0 b0, b1 b1, b2 b2, b0 b1, b0 b2, b1 b2 of Bloch columns bt (3 x m)."""
    b0, b1, b2 = bt
    return np.stack([b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2])


def _chol_solve(h6, c0: float, c1: float, c2: float):
    """Solution (y0, y1, y2) of H y = c by Cholesky, H given as
    (h00, h11, h22, h01, h02, h12); None when a pivot is at most 1e-12 Tr H,
    that is when H is not numerically positive definite."""
    a00, a11, a22, a01, a02, a12 = h6
    pivot = 1e-12 * (a00 + a11 + a22)
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


def mle_maximize(traces, bloch, init, *, eps_ball: float = 1e-6,
                 products: np.ndarray | None = None):
    """Maximize the history log-likelihood over the clamped ball.

    traces/bloch hold the applied elements in Bloch form; the likelihood of
    x is prod (traces_i + bloch_i . x) / 2, with probabilities floored at
    1e-12 inside the log.  products optionally supplies _bloch_products of
    bloch.T, which a caller growing the history builds once per element.

    Newton ascent from init: each step maximizes the local quadratic model
    over the ball |x| <= 1 - eps_ball (_ball_newton_point), and
    backtracking runs along the chord from x to that point, which stays in
    the ball.  Returns (maximizer, ok).  ok is a certificate, not a flag: it
    is True only if the ball-constrained Newton step at the returned point
    predicts an ascent grad . delta of at most CERT_TOL (relative to
    |log-likelihood| / 1000 beyond 1000).  The log-likelihood is concave
    and the ball convex, so a certified point is the maximizer up to that
    tolerance.
    """
    traces = np.asarray(traces, dtype=float)
    bloch = np.asarray(bloch, dtype=float)
    if traces.size == 0:
        raise ValueError("history must be nonempty")
    bt = bloch.T
    if products is None:
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


def _running_update(info: list, x0: float, x1: float, x2: float, p: float,
                    b0: float, b1: float, b2: float, rho: float):
    """One O(1) step of the running design estimate x after the element
    (p I + b.sigma)/2 was observed: with u = max(p + b.x, 2 PROB_FLOOR), add
    b b^T / u^2 to the observed information info (six entries, updated in
    place) and return the three floats of x + info^-1 b / u clamped to the
    ball of radius rho, or None when info is not positive definite."""
    u = max(p + b0 * x0 + b1 * x1 + b2 * x2, 2.0 * PROB_FLOOR)
    w = 1.0 / (u * u)
    info[0] += b0 * b0 * w
    info[1] += b1 * b1 * w
    info[2] += b2 * b2 * w
    info[3] += b0 * b1 * w
    info[4] += b0 * b2 * w
    info[5] += b1 * b2 * w
    step = _chol_solve(info, b0 / u, b1 / u, b2 / u)
    if step is None:
        return None
    y0, y1, y2 = x0 + step[0], x1 + step[1], x2 + step[2]
    if math.sqrt(y0 * y0 + y1 * y1 + y2 * y2) <= rho:
        return y0, y1, y2
    return _clamp_point((y0, y1, y2), rho)


def _draw_outcome(design: tuple, x_true, u: float) -> int:
    """Outcome index, 2 * branch for the - projector and 2 * branch + 1 for
    the +, of the design (the floats of _optimal_branches) measured on the
    state x_true: min(bisect_right([q0, ..., q5], u * q5), 5) for the
    running sums q of the outcome probabilities, probed in bisect_right's
    own order, because a term can round below zero and then the q are not
    monotone."""
    p0, p1, p2, a00, a01, a02, a10, a11, a12, a20, a21, a22 = design
    t0, t1, t2 = x_true
    d = a00 * t0 + a01 * t1 + a02 * t2
    q0 = p0 * (1.0 - d) / 2.0
    q1 = q0 + p0 * (1.0 + d) / 2.0
    d = a10 * t0 + a11 * t1 + a12 * t2
    q2 = q1 + p1 * (1.0 - d) / 2.0
    q3 = q2 + p1 * (1.0 + d) / 2.0
    d = a20 * t0 + a21 * t1 + a22 * t2
    q4 = q3 + p2 * (1.0 - d) / 2.0
    q5 = q4 + p2 * (1.0 + d) / 2.0
    v = u * q5
    if v < q3:
        if v < q1:
            return 0 if v < q0 else 1
        return 2 if v < q2 else 3
    return 4 if v < q5 and v < q4 else 5


def adaptive_run(cfg: RunConfig, rng: np.random.Generator) -> TrialRecord:
    """One adaptive trial of cfg.m_max steps.

    At step m the measurement optimal for the weight at the running design
    estimate is applied and one outcome is sampled from the true state with
    one uniform draw; the m_max uniforms are drawn up front in one call,
    which yields the same stream as one draw per step.  The design estimate
    starts at the origin and takes one scoring step per outcome,
    x += I^-1 b / u with I the observed information of the history
    (_running_update).  At the checkpoints checkpoint_schedule(m_max), and
    at any step where I is not yet positive definite, it is replaced by the
    certified full-history maximum-likelihood estimate, warm-started at it,
    and I is rebuilt there.  The estimate reported at a checkpoint is that
    certified estimate.

    A step works on Python floats and creates no list: the design is the 12
    floats of _optimal_branches and the design estimate three floats.  Each
    step appends its trace, Bloch vector and outcome to one flat list, which
    the next solve writes into the history arrays (Bloch columns, their
    pairwise products, traces and outcomes); m_max is a checkpoint, so the
    arrays are complete when the trial ends.
    """
    checkpoints = checkpoint_schedule(cfg.m_max)
    weight = cfg.weight
    rho = 1.0 - cfg.eps_ball
    x_true = cfg.x0.tolist()
    x0 = x1 = x2 = 0.0
    m_max = cfg.m_max
    traces = np.empty(m_max)
    bloch = np.empty((3, m_max))
    products = np.empty((6, m_max))
    outcomes = np.empty(m_max, dtype=np.int8)
    estimates = []
    # (trace, Bloch vector, outcome) of each step since the last solve, end
    # to end; the solve copies them into the arrays
    steps = []
    ckpt_iter = iter(checkpoints.tolist())
    next_ckpt = next(ckpt_iter)
    n_failed = 0
    for n, draw in enumerate(rng.random(m_max).tolist(), 1):
        design = _optimal_branches((x0, x1, x2), weight)
        idx = _draw_outcome(design, x_true, draw)
        p = design[idx // 2]
        signed = p if idx % 2 else -p
        k = 3 + 3 * (idx // 2)
        b0, b1, b2 = design[k] * signed, design[k + 1] * signed, design[k + 2] * signed
        steps += p, b0, b1, b2, idx
        # step 1 is a checkpoint, so info exists before the first running update
        if n != next_ckpt:
            x_run = _running_update(info, x0, x1, x2, p, b0, b1, b2, rho)
            if x_run is not None:
                x0, x1, x2 = x_run
                continue
        block = np.reshape(steps, (-1, 5)).T
        written = n - block.shape[1]
        traces[written:n] = block[0]
        bloch[:, written:n] = block[1:4]
        products[:, written:n] = _bloch_products(block[1:4])
        outcomes[written:n] = block[4]
        steps.clear()
        x_mle, ok = mle_maximize(traces[:n], bloch[:, :n].T, (x0, x1, x2),
                                 eps_ball=cfg.eps_ball, products=products[:, :n])
        n_failed += not ok
        u = np.maximum(traces[:n] + x_mle @ bloch[:, :n], 2.0 * PROB_FLOOR)
        info = (products[:, :n] @ (1.0 / (u * u))).tolist()
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
# (2-vCPU Xeon; an adaptive step took 5-5.5 us at m_max = 3000 for both
# rotational weights, BENCH_12.json; a tomography trial scored in a block took
# 60-125 us over its 33 checkpoints, as the machine's load varied).  An
# adaptive step under a fixed matrix weight runs qubit_design, 12-20 times a
# selector's step (110-220 vs 9-10 us at m_max = 3000 on the same machine).  A
# process pool costs about 0.1 s to start and feed, so a job with less
# estimated serial work than POOL_MIN_WORK_S runs serially.
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
