"""Stokes-channel bookkeeping and parameter estimation.

Spectral convention: a real channel with complex amplitude X at frequency
omega is x(t) = Re[X exp(-2*pi*i*omega*t)]. Writing x(t) = A*cos(2*pi*omega*t
+ phi) gives X = A*exp(-i*phi). :func:`heterodyne_extract` returns this X
as z = a + i*b for a fitted a*cos + b*sin, so the lock-in phase is
phi = atan2(-b, a).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext

import numpy as np
from numpy.linalg import _umath_linalg

from .model import TWO_PI, FitConvergenceError, ValidityError

CONFIDENCE = 0.95

#: minimum beat periods a demodulation window must span
MIN_DEMOD_PERIODS = 3.0


#: the normal quantile at (1 + CONFIDENCE)/2 = 0.975, as a double and the
#: double nearest its rounding error
_Z = (1.9599639845400543, -3.595246643491566e-17)

#: from this dof up, the Cornish-Fisher series truncates below 0.2 ulp
_CORNISH_FISHER_DOF = 500

_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def _atan(u: Decimal) -> Decimal:
    """arctan(u) for u >= 0 at the context precision: halve the angle down
    to u <= 1/8, then sum the Taylor series."""
    doublings = 0
    while u > Decimal("0.125"):
        u = u / (1 + (1 + u * u).sqrt())
        doublings += 1
    total, term, u2, k = u, u, -u * u, 1
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    while abs(term) > tiny:
        term *= u2
        k += 2
        total += term / k
    return total * 2**doublings


def _t_central(t: Decimal, dof: int) -> Decimal:
    """P(|T| < t) of Student's t with integer dof, from the finite sums of
    Abramowitz & Stegun 26.7.3-4 in theta = arctan(t / sqrt(dof))."""
    c2 = dof / (dof + t * t)                    # cos^2 theta
    sin = t / (dof + t * t).sqrt()
    odd = dof % 2
    term, total = Decimal(1), Decimal(0)
    for k in range(dof // 2):
        total += term
        term = term * c2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if not odd:
        return sin * total
    return 2 * (_atan(t / Decimal(dof).sqrt()) + sin * c2.sqrt() * total) / _PI


def _t_quantile_newton(dof: int) -> float:
    """Newton's method on _t_central(t) = CONFIDENCE in 40 digits, started
    at the normal quantile, which lies below every t quantile. The central
    probability is concave in t > 0, so every iterate stays below the root
    and rises to it. The density only has to be near the derivative for
    that, so it comes from float64 lgamma."""
    log_norm = (math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)
                - 0.5 * math.log(dof * math.pi))
    with localcontext() as ctx:
        ctx.prec = 40
        level = Decimal(repr(CONFIDENCE))       # 0.95, not its double
        t = Decimal(_Z[0]) + Decimal(_Z[1])
        while True:
            tf = float(t)
            density = math.exp(log_norm - 0.5 * (dof + 1)
                               * math.log1p(tf * tf / dof))
            step = (_t_central(t, dof) - level) / Decimal(2 * density)
            t -= step
            if abs(step) < Decimal("1e-25") * t:
                return float(t)


def _t_cornish_fisher(dof: int) -> float:
    """t = x + sum g_k(x) / dof^k about the normal quantile x (Abramowitz &
    Stegun 26.7.5 gives g1..g4; g5 is the next term of the same series,
    checked against 50-digit quantiles). x's rounding error goes in with
    the small terms, so the sum rounds once."""
    x, x_lo = _Z
    y = x * x
    tail = 0.0
    for g in (x * (((((27 * y + 339) * y + 930) * y - 1782) * y - 765) * y
                   + 17955) / 368640,
              x * ((((79 * y + 776) * y + 1482) * y - 1920) * y - 945) / 92160,
              x * (((3 * y + 19) * y + 17) * y - 15) / 384,
              x * ((5 * y + 16) * y + 3) / 96,
              x * (y + 1) / 4):
        tail = (tail + g) / dof
    return x + (x_lo + tail)


@functools.lru_cache(maxsize=None)
def _t_quantile(dof: int) -> float:
    """The (1 + CONFIDENCE)/2 = 0.975 quantile of Student's t with dof
    degrees of freedom; inf below one. Cached: a run sees few dofs. Within
    0.65 ulp of 45-digit values wherever checked, up to dof 10^6."""
    if dof < 1:
        return math.inf
    if dof >= _CORNISH_FISHER_DOF:
        return _t_cornish_fisher(dof)
    return _t_quantile_newton(dof)


def _ci(value: float, se: float, dof: int) -> tuple[float, float]:
    h = _t_quantile(dof) * se
    return value - h, value + h


def _delta_se(grad: np.ndarray, cov: np.ndarray) -> float:
    """Delta-method standard error sqrt(grad . cov . grad); inf when cov is
    not finite (singular J^T J), where the product meets 0 * inf or
    inf - inf and would give NaN."""
    if not np.all(np.isfinite(cov)):
        return math.inf
    return math.sqrt(max(float(grad @ cov @ grad), 0.0))


def _normal_inverse(jac: np.ndarray, r: np.ndarray):
    """dof, residual variance sigma2 and (J^T J)^-1 of a least-squares fit;
    sigma2 and the inverse are all-inf when J^T J is singular."""
    n, k = jac.shape
    dof = n - k
    try:
        unscaled = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:   # sigma2 inf too: 0 * inf is NaN
        return dof, math.inf, np.full((k, k), np.inf)
    sigma2 = float(r @ r) / dof if dof > 0 else 0.0
    return dof, sigma2, unscaled


#: xtol = ftol = gtol of the trust-region fits, and their evaluation budget
_TRF_TOL = 1e-14
_TRF_MAX_NFEV = 5000


def _norm(v: np.ndarray):
    """np.linalg.norm of a real vector, the same sqrt(v.v), without its
    argument handling (~30,000 calls in a calibrate run)."""
    return np.sqrt(v.dot(v))


def _more_step(uf, s, V, full_rank, Delta, alpha):
    """Moré's trust-region step from one SVD J = U diag(s) V^T, uf = U^T f:
    the Gauss-Newton step when J has full rank and that step fits inside
    Delta, else the step of norm Delta with its Levenberg-Marquardt
    parameter alpha, found to 1 % in at most 10 safeguarded Newton
    iterations (LNM 630, 1977). Returns (step, alpha); the expressions
    follow scipy's `solve_lsq_trust_region`."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / _norm(p)
    return p, alpha


def _factor(block: np.ndarray):
    """(R, Q^T f) of J = Q R from one in-place Householder QR (LAPACK's
    geqrf through numpy's gufunc) of the Fortran-ordered block [J | f] of
    k + 1 columns: the k x k triangle and k entries of Q^T f, zero-padded
    below when J has fewer than k rows. J^T f = R^T Q^T f."""
    _umath_linalg.qr_r_raw(block, signature="d->d")
    top = np.zeros((block.shape[1] - 1, block.shape[1]))
    top[:block.shape[0]] = np.triu(block[:len(top)])
    return top[:, :-1], top[:, -1]


def _trf(resid, x0, jac, label: str) -> tuple[np.ndarray, int, int]:
    """Trust-region least squares to the float64 floor: (x, nfev, njev).

    This is the unbounded Trust Region Reflective loop of Branch, Coleman &
    Li (SIAM J. Sci. Comput. 1999) with Moré's exact step, as scipy's
    nonlinear least-squares solver runs it with method="trf", xtol = ftol =
    gtol = 1e-14 and max_nfev = 5000: unit x_scale, no loss, the radius
    cut to a quarter of the step when a trial residual is not finite.
    Each Jacobian is factored once (_factor), and Moré's step comes from
    the SVD of the k x k triangle, as in LNM 630, not of the m x k J: the
    same iteration, rounded otherwise, so x matches scipy's to the
    optimizer's floor, not bit for bit. jac(p, out) fills the first k
    columns of the one (m, k + 1) block the loop owns; njev counts the
    Jacobians evaluated, without scipy's one after the terminating step.
    Raises FitConvergenceError when the residual at x0 is not finite, a
    Jacobian is not finite, or the evaluation budget runs out.
    """
    x = np.array(x0, dtype=float)
    f = resid(x)
    if not np.isfinite(f).all():
        raise FitConvergenceError(f"{label} fit failed: Residuals are not "
                                  "finite in the initial point.", last_params=x)
    m, n = f.size, x.size
    block = np.empty((m, n + 1), order="F")

    def factored(x, f):
        jac(x, block[:, :n])
        block[:, n] = f
        R, qtf = _factor(block)
        return R, qtf, R.T.dot(qtf)

    R, qtf, g = factored(x, f)
    nfev = njev = 1
    cost = 0.5 * np.dot(f, f)
    Delta = _norm(x) or 1.0
    alpha = 0.0
    while not np.abs(g).max() < _TRF_TOL:
        if nfev == _TRF_MAX_NFEV:
            raise FitConvergenceError(
                f"{label} fit failed: The maximum number of function "
                "evaluations is exceeded.", last_params=x)
        if not np.isfinite(R).all():
            raise FitConvergenceError(f"{label} fit failed: Jacobian is not "
                                      "finite.", last_params=x)
        U, s, Vt = np.linalg.svd(R)
        uf = U.T.dot(qtf)
        full_rank = m >= n and s[-1] > np.finfo(float).eps * m * s[0]
        reduction, done = -1, False
        while reduction <= 0 and nfev < _TRF_MAX_NFEV:
            step, alpha = _more_step(uf, s, Vt.T, full_rank, Delta, alpha)
            Rs = R.dot(step)
            predicted = -(0.5 * np.dot(Rs, Rs) + np.dot(step, g))
            x_new = x + step
            f_new = resid(x_new)
            nfev += 1
            step_norm = _norm(step)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            elif predicted == reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * Delta:
                Delta_new = Delta * 2.0
            done = (reduction < _TRF_TOL * cost and ratio > 0.25
                    or step_norm < _TRF_TOL * (_TRF_TOL + _norm(x)))
            if done:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if not done:
                R, qtf, g = factored(x, f)
                njev += 1
        if done:
            break
    return x, nfev, njev


def _check_squarable(values: np.ndarray, what: str, fit: str,
                     low: bool = True) -> float:
    """Refuse an array a fitter squares when float64 cannot hold the
    squares: a peak above sqrt(max / n) lets a sum of n squares overflow,
    and (with `low`) a nonzero |value| below sqrt(tiny) squares into the
    subnormals or to zero. inf and nan count as too large. Returns the
    peak |value|."""
    a = np.abs(values)
    peak = float(a.max())
    if not peak <= math.sqrt(np.finfo(float).max / a.size):
        raise ValidityError(f"{what} value {peak:g} is too large to square "
                            f"in a {fit} fit")
    if not low:
        return peak
    least = float(np.min(a, where=a > 0.0, initial=math.inf))
    if least < math.sqrt(np.finfo(float).tiny):
        raise ValidityError(f"{what} value {least:g} is too small to square "
                            f"in a {fit} fit")
    return peak


class _Reported:
    """A fit result's `*_fit.json` entry, from the class constants MODEL,
    PARAMETERS (in order; a parameter carries ci_low/ci_high when the class
    has a `<name>_ci` field) and FLAGS."""

    def report(self) -> dict:
        rows = []
        for name in self.PARAMETERS:
            row = {"parameter": name, "value": float(getattr(self, name))}
            ci = getattr(self, f"{name}_ci", None)
            if ci is not None:
                row.update(ci_low=float(ci[0]), ci_high=float(ci[1]))
            rows.append(row)
        return {"model": self.MODEL, "n_points": int(self.n_points),
                "residual_rms": float(self.residual_rms), "parameters": rows,
                "flags": {k: bool(getattr(self, k)) for k in self.FLAGS}}


def heterodyne_extract(times: np.ndarray, series: np.ndarray,
                       omega: float) -> complex:
    """Lock-in amplitude z = a + i*b of a known-frequency tone in a record.

    Linear least squares on [cos, sin, 1] gives a*cos + b*sin + c; z equals
    A*exp(-i*phi) for the tone A*cos(2*pi*omega*t + phi), so A = |z| and the
    lock-in phase is phi = atan2(-b, a). The window must span at least
    MIN_DEMOD_PERIODS beat periods so the three regressors decorrelate. The
    extraction is a point estimate: it carries no intervals.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if times.size != series.size or times.size < 8:
        raise ValidityError("need matching time/series arrays with >= 8 samples")
    span = (times[-1] - times[0]) * abs(omega)
    if span < MIN_DEMOD_PERIODS:
        raise ValidityError(
            f"demodulation window spans {span:.3g} periods; "
            f"need >= {MIN_DEMOD_PERIODS:g}")
    arg = TWO_PI * omega * times
    design = np.column_stack([np.cos(arg), np.sin(arg), np.ones_like(times)])
    coef, _, _, _ = np.linalg.lstsq(design, series, rcond=None)
    return complex(coef[0], coef[1])


@dataclass(frozen=True)
class LineFit(_Reported):
    """Inverted-Lorentzian dip fit y = baseline*(1 - C*g^2/((x-x0)^2 + g^2))."""

    MODEL = "inverted_lorentzian"
    PARAMETERS = ("center", "half_width", "contrast", "baseline")
    FLAGS = ("degenerate",)

    center: float
    half_width: float
    contrast: float
    baseline: float
    center_ci: tuple[float, float]
    half_width_ci: tuple[float, float]
    contrast_ci: tuple[float, float]
    baseline_ci: tuple[float, float]
    residual_rms: float
    n_points: int
    degenerate: bool
    nfev: int       # residual evaluations of the trust-region loop
    njev: int       # Jacobian evaluations


def fit_inverted_lorentzian(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Fit a Lorentzian power dip on a flat baseline.

    Initial guesses come from the dip minimum and a half-depth crossing
    scan; refinement uses trust-region least squares with an analytic
    Jacobian. `degenerate` marks fits whose width is unresolved (wider than
    the scanned span, or with a confidence interval swallowing the value).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValidityError("need >= 5 points to fit a 4-parameter line shape")
    _check_squarable(y, "y", "line-shape")

    base0 = float(np.median(np.concatenate([y[:2], y[-2:]])))
    if base0 <= 0:
        base0 = float(np.max(np.abs(y))) or 1.0
    imin = int(np.argmin(y))
    x0_0 = float(x[imin])
    c0 = min(max(1.0 - float(y[imin]) / base0, 1e-3), 0.999)
    half = base0 * (1.0 - 0.5 * c0)
    below = np.flatnonzero(y < half)
    if below.size >= 2:
        g0 = 0.5 * abs(float(x[below[-1]] - x[below[0]]))
    else:
        g0 = 0.1 * (float(x.max() - x.min()) or 1.0)
    g0 = max(g0, 1e-6 * (float(x.max() - x.min()) or 1.0))

    def unpack(p):
        return p[0], abs(p[1]), p[2], p[3]

    def resid(p):
        x0, g, c, b = unpack(p)
        return b * (1.0 - c * g**2 / ((x - x0)**2 + g**2)) - y

    def jac(p, out):
        x0, g, c, b = unpack(p)
        u = x - x0
        den = u**2 + g**2
        lor = g**2 / den
        sgn = 1.0 if p[1] >= 0 else -1.0
        out[:, 0] = -b * c * lor * 2.0 * u / den
        out[:, 1] = -sgn * 2.0 * b * c * g * u**2 / den**2
        out[:, 2] = -b * lor
        out[:, 3] = 1.0 - c * lor
        return out

    p, nfev, njev = _trf(resid, [x0_0, g0, c0, base0], jac, "line")
    x0, g, c, b = unpack(p)
    r = resid(p)
    dof, sigma2, unscaled = _normal_inverse(jac(p, np.empty((x.size, 4))), r)
    # a zero residual would make the interval tests below vacuous (flat
    # input fits a 1e-17 dip exactly), so they assume at least roundoff noise
    floor2 = max(sigma2, (np.finfo(float).eps * float(np.max(np.abs(y))))**2)
    ses = np.sqrt(np.clip(np.diag(sigma2 * unscaled), 0.0, None))
    ses_test = np.sqrt(np.clip(np.diag(floor2 * unscaled), 0.0, None))
    span = float(x.max() - x.min())
    tq = _t_quantile(dof)
    degenerate = bool(g > span or not np.isfinite(ses_test[1])
                      or tq * ses_test[1] > abs(g)    # width CI swallows width
                      or tq * ses_test[2] >= abs(c))  # contrast CI touches zero
    return LineFit(
        center=x0, half_width=g, contrast=c, baseline=b,
        center_ci=_ci(x0, float(ses[0]), dof),
        half_width_ci=_ci(g, float(ses[1]), dof),
        contrast_ci=_ci(c, float(ses[2]), dof),
        baseline_ci=_ci(b, float(ses[3]), dof),
        residual_rms=float(np.sqrt(np.mean(r**2))), n_points=x.size,
        degenerate=degenerate, nfev=nfev, njev=njev)


@dataclass(frozen=True)
class SinusoidFit(_Reported):
    """Decaying-sinusoid fit A*exp(-2*pi*g*t)*cos(2*pi*f*t + phase) + offset.

    decay_rate follows the package rate convention: the envelope e-folds in
    1/(2*pi*decay_rate) seconds.
    """

    MODEL = "decaying_sinusoid"
    PARAMETERS = ("amplitude", "decay_rate", "frequency", "phase", "offset")
    FLAGS = ("ambiguous_decay",)

    amplitude: float
    decay_rate: float
    frequency: float
    phase: float
    offset: float
    amplitude_ci: tuple[float, float]
    decay_rate_ci: tuple[float, float]
    frequency_ci: tuple[float, float]
    phase_ci: tuple[float, float]
    residual_rms: float
    n_points: int
    ambiguous_decay: bool
    nfev: int       # residual evaluations of the trust-region loop
    njev: int       # Jacobian evaluations


def _sinusoid_start(y: np.ndarray, dt: float, span: float):
    """(frequency, amplitude, decay rate) to start a decaying-sinusoid fit
    of the record y, sampled every dt over span: the FFT peak, the largest
    excursion from the mean and the ratio of the first and last quarter's
    envelopes. Its record-sized temporaries are freed on return, before the
    fit's QRs."""
    yc = y - float(np.mean(y))
    spec = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(y.size, dt)
    k = int(np.argmax(spec[1:])) + 1
    f0 = float(freqs[k])
    amp0 = float(np.max(np.abs(yc))) or 1.0
    # envelope ratio between first and last quarter fixes the decay scale
    q = max(y.size // 4, 4)
    e1 = float(np.sqrt(np.mean(yc[:q]**2)))
    e2 = float(np.sqrt(np.mean(yc[-q:]**2)))
    if e1 > 0 and e2 > 0 and e2 < e1:
        return f0, amp0, math.log(e1 / e2) / (TWO_PI * 0.75 * span)
    return f0, amp0, 0.05 / span


def fit_decaying_sinusoid(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """Fit frequency and decay of a free-precession record.

    Initialization: FFT peak for the frequency, quartile envelope ratio for
    the decay. The oscillation is parameterized internally as
    exp(-2*pi*g*t) * (a*cos + b*sin) + c to keep the phase unwrapped during
    refinement. Each parameter vector costs one pass of exp, cos and sin,
    shared by the residual and the Jacobian, which is written column by
    column into one Fortran-ordered array. When the window is short
    against the decay time (2*pi*g*T < 0.5) the decay is flagged ambiguous;
    the point estimate is still returned.
    The intervals are white-noise regression intervals: on a noiseless
    transient record the fast alkali mode, left out of the one-mode model,
    biases the decay rate by up to 3.5 half-widths (8 mG, 32 per cycle).
    """
    # contiguous, as the ts = t below must meet the ufunc loops that t - t0
    # would have met
    t = np.ascontiguousarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size or t.size < 16:
        raise ValidityError("need >= 16 samples to fit a decaying sinusoid")
    peak = _check_squarable(y, "record", "decaying-sinusoid")
    # the fit's stop tolerances are absolute, so a record far from unit
    # scale is fit as y * 2**-k, exactly, and its amplitude, offset and
    # residual are scaled back by 2**k
    k = 0 if 2.0**-8 <= peak <= 2.0**8 else math.frexp(peak)[1]
    if k:
        y = np.ldexp(y, -k)
    t0 = t[0]
    # t - (+0.0) is t bit for bit, so a grid that starts at +0.0 is not
    # copied; -0.0 is subtracted, as it turns -0.0 samples into +0.0
    ts = t if t0 == 0.0 and not np.signbit(t0) else t - t0
    span = float(ts[-1])
    dt = float(np.mean(np.diff(ts)))
    f0, amp0, g00 = _sinusoid_start(y, dt, span)

    # TRF evaluates the Jacobian where it last evaluated the residual, so one
    # transcendental pass per parameter vector serves both
    memo = [None, None]

    def terms(p):
        p = np.asarray(p, dtype=float)
        key = p.tobytes()       # bits, not values: sin(-0.0) is -0.0
        if memo[0] != key:
            memo[:] = None, None    # drop the old arrays before making new
            a, b, g, f, c = p
            env = np.exp(-TWO_PI * g * ts)
            arg = TWO_PI * f * ts
            cosv = np.cos(arg)
            sinv = np.sin(arg, out=arg)
            osc = a * cosv
            osc += b * sinv
            memo[:] = key, (env, cosv, sinv, osc)
        return memo[1]

    def resid(p):
        env, _, _, osc = terms(p)
        r = env * osc
        r += p[4]
        r -= y
        return r

    def jac(p, out):
        # filled in place, with no temporary: dg holds 2*pi*ts*env, which
        # df needs, before it becomes d/dg = -(2*pi*ts*env)*osc, an exact
        # negation; dc serves as scratch before it is set to 1
        env, cosv, sinv, osc = terms(p)
        a, b = p[0], p[1]
        da, db, dg, df, dc = out.T
        np.multiply(env, cosv, out=da)
        np.multiply(env, sinv, out=db)
        np.multiply(TWO_PI, ts, out=dg)
        dg *= env
        np.multiply(-a, sinv, out=df)
        np.multiply(b, cosv, out=dc)
        df += dc
        df *= dg
        dg *= osc
        np.negative(dg, out=dg)
        dc[:] = 1.0
        return out

    (a, b, g, f, c), nfev, njev = _trf(
        resid, [amp0, 0.0, g00, f0, float(np.mean(y))], jac, "sinusoid")
    if f < 0:       # reflect to the positive-frequency representative
        f, b = -f, -b
    g = abs(g)
    r = resid([a, b, g, f, c])
    dof, sigma2, unscaled = _normal_inverse(
        jac([a, b, g, f, c], np.empty((ts.size, 5), order="F")), r)
    cov = sigma2 * unscaled
    # refer both envelope amplitude and phase back to t = 0
    scale = math.exp(TWO_PI * g * t0)
    amp = math.hypot(a, b) * scale
    phase = math.atan2(-b, a) - TWO_PI * f * t0
    phase = math.atan2(math.sin(phase), math.cos(phase))
    if amp > 0:
        g_amp = scale * np.array([a / math.hypot(a, b), b / math.hypot(a, b),
                                  TWO_PI * t0 * math.hypot(a, b), 0.0, 0.0])
        se_amp = _delta_se(g_amp, cov)
        ab2 = a * a + b * b
        g_phi = np.array([b / ab2, -a / ab2, 0.0, -TWO_PI * t0, 0.0])
        se_phi = _delta_se(g_phi, cov)
    else:
        se_amp, se_phi = math.inf, math.pi
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    amp, se_amp = math.ldexp(amp, k), math.ldexp(se_amp, k)

    return SinusoidFit(
        amplitude=amp, decay_rate=g, frequency=f, phase=phase,
        offset=math.ldexp(c, k),
        amplitude_ci=_ci(amp, se_amp, dof),
        decay_rate_ci=_ci(g, float(se[2]), dof),
        frequency_ci=_ci(f, float(se[3]), dof),
        phase_ci=_ci(phase, se_phi, dof),
        residual_rms=math.ldexp(float(np.sqrt(np.mean(r**2))), k),
        n_points=t.size,
        ambiguous_decay=bool(TWO_PI * g * span < 0.5), nfev=nfev, njev=njev)


@dataclass(frozen=True)
class LinearFit(_Reported):
    """Ordinary least-squares line with the x-axis crossing and its CI."""

    MODEL = "linear"
    PARAMETERS = ("slope", "intercept", "x_intercept")
    FLAGS = ("x_intercept_defined",)

    slope: float
    intercept: float
    x_intercept: float
    slope_ci: tuple[float, float]
    intercept_ci: tuple[float, float]
    x_intercept_ci: tuple[float, float]
    residual_rms: float
    n_points: int
    x_intercept_defined: bool


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """OLS line y = slope*x + intercept with a delta-method x-intercept CI.

    The crossing is flagged undefined when the slope's confidence interval
    contains zero or the slope squares to zero. Nonzero x values whose
    squares underflow (|x| < 1.5e-154) are refused: the normal matrix X^T X
    would lose them. So are x or y whose sum of squares would overflow;
    tiny y stay, as a slope too small to square is flagged above.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValidityError("need >= 3 points for a linear fit")
    _check_squarable(x, "x", "linear")
    _check_squarable(y, "y", "linear", low=False)
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    s, i = (float(v) for v in coef)
    r = y - design @ coef
    dof, sigma2, unscaled = _normal_inverse(design, r)
    cov = sigma2 * unscaled
    se_s, se_i = math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))
    slope_ci = _ci(s, se_s, dof)
    # a slope below ~1.5e-162 squares to zero: no crossing to bound
    defined = not (slope_ci[0] <= 0.0 <= slope_ci[1]) and s**2 != 0.0
    if s**2 != 0.0:
        x_int = -i / s
        se_x = _delta_se(np.array([i / s**2, -1.0 / s]), cov)
    else:
        x_int, se_x = math.nan, math.inf
    return LinearFit(
        slope=s, intercept=i, x_intercept=x_int,
        slope_ci=slope_ci, intercept_ci=_ci(i, se_i, dof),
        x_intercept_ci=_ci(x_int, se_x, dof),
        residual_rms=float(np.sqrt(np.mean(r**2))), n_points=x.size,
        x_intercept_defined=defined)

