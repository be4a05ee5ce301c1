"""Stokes-channel bookkeeping, waveform synthesis, and parameter estimation.

Spectral convention: a real channel with complex amplitude X at frequency
omega is x(t) = Re[X exp(-2*pi*i*omega*t)]. Writing x(t) = A*cos(2*pi*omega*t
+ phi) gives X = A*exp(-i*phi); the lock-in phase reported by
:func:`heterodyne_extract` follows the same sign, phi = atan2(-b, a) for a
fitted a*cos + b*sin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .model import TWO_PI, FitConvergenceError, ValidityError, ValidityWarning

CONFIDENCE = 0.95

#: minimum sample_rate / omega for synthesis (Nyquist with margin)
MIN_SAMPLES_PER_CYCLE = 4.0

#: minimum beat periods a demodulation window must span
MIN_DEMOD_PERIODS = 3.0


def time_grid(duration: float, sample_rate: float) -> np.ndarray:
    """Uniform sample times [0, duration) at sample_rate."""
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValidityError("duration * sample_rate must give at least 2 samples")
    return np.arange(n) / sample_rate


def synthesize_channel(times: np.ndarray, amplitude: complex, omega: float,
                       noise_sigma: float = 0.0,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Real channel Re[amplitude * exp(-2*pi*i*omega*t)] plus white noise."""
    x = np.real(amplitude * np.exp(-1j * TWO_PI * omega * times))
    if noise_sigma:
        if rng is None:
            raise ValidityError("noise requested without an rng")
        x = x + rng.normal(0.0, noise_sigma, size=times.shape)
    return x


def stokes_time_series(s2: complex, omega: float, duration: float,
                       sample_rate: float, noise_sigma: float = 0.0,
                       rng: np.random.Generator | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Photodetector record (t, S2(t)) for a given spectral amplitude.

    Requires sample_rate > 4*omega.
    """
    if omega != 0.0 and sample_rate <= MIN_SAMPLES_PER_CYCLE * abs(omega):
        raise ValidityError(
            f"sample_rate {sample_rate:.6g} must exceed {MIN_SAMPLES_PER_CYCLE:g}"
            f" * omega = {MIN_SAMPLES_PER_CYCLE * abs(omega):.6g}")
    t = time_grid(duration, sample_rate)
    return t, synthesize_channel(t, s2, omega, noise_sigma, rng)


def _t_quantile(dof: int) -> float:
    if dof < 1:
        return math.inf
    return float(stdtrit(dof, 0.5 * (1.0 + CONFIDENCE)))


def _ci(value: float, se: float, dof: int) -> tuple[float, float]:
    h = _t_quantile(dof) * se
    return value - h, value + h


@dataclass(frozen=True)
class HarmonicFit:
    """Least-squares single-tone extraction a*cos + b*sin + c at known omega."""

    frequency: float
    in_phase: float      # a
    quadrature: float    # b
    offset: float        # c
    amplitude: float
    phase: float         # radians, x(t) = A*cos(2*pi*f*t + phase)
    amplitude_ci: tuple[float, float]
    phase_ci: tuple[float, float]
    residual_rms: float
    n_points: int

    @property
    def z(self) -> complex:
        """Spectral amplitude a + i*b (equals A*exp(-i*phase))."""
        return complex(self.in_phase, self.quadrature)

    def report(self) -> dict:
        return _report("harmonic", self, [
            ("amplitude", self.amplitude, self.amplitude_ci),
            ("phase", self.phase, self.phase_ci),
            ("offset", self.offset, None),
            ("frequency", self.frequency, None),
        ])


def heterodyne_extract(times: np.ndarray, series: np.ndarray,
                       omega: float) -> HarmonicFit:
    """Amplitude and lock-in phase of a known-frequency tone in a record.

    Linear least squares on [cos, sin, 1]; the window must span at least
    MIN_DEMOD_PERIODS beat periods so the three regressors decorrelate.
    Confidence intervals come from the regression covariance with the
    delta method for (A, phase).
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
    a, b, c = (float(v) for v in coef)
    resid = series - design @ coef
    n = times.size
    dof = n - 3
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)

    amp = math.hypot(a, b)
    phase = math.atan2(-b, a)
    if amp > 0:
        # delta method: A = hypot(a, b), phi = atan2(-b, a)
        g_amp = np.array([a / amp, b / amp])
        g_phi = np.array([b / amp**2, -a / amp**2])
        se_amp = math.sqrt(max(float(g_amp @ cov[:2, :2] @ g_amp), 0.0))
        se_phi = math.sqrt(max(float(g_phi @ cov[:2, :2] @ g_phi), 0.0))
    else:
        se_amp = math.sqrt(max(cov[0, 0], cov[1, 1], 0.0))
        se_phi = math.pi
    return HarmonicFit(
        frequency=omega, in_phase=a, quadrature=b, offset=c,
        amplitude=amp, phase=phase,
        amplitude_ci=_ci(amp, se_amp, dof), phase_ci=_ci(phase, se_phi, dof),
        residual_rms=float(np.sqrt(np.mean(resid**2))), n_points=n)


@dataclass(frozen=True)
class LineFit:
    """Inverted-Lorentzian dip fit y = baseline*(1 - C*g^2/((x-x0)^2 + g^2))."""

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

    def report(self) -> dict:
        return _report("inverted_lorentzian", self, [
            ("center", self.center, self.center_ci),
            ("half_width", self.half_width, self.half_width_ci),
            ("contrast", self.contrast, self.contrast_ci),
            ("baseline", self.baseline, self.baseline_ci),
        ], flags={"degenerate": self.degenerate})


def fit_inverted_lorentzian(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Fit a Lorentzian power dip on a flat baseline.

    Initial guesses come from the dip minimum and a half-depth crossing
    scan; refinement uses trust-region least squares with an analytic
    Jacobian. `degenerate` marks fits whose width is unresolved (wider than
    the scanned span, or with a confidence interval swallowing the value).
    """
    from scipy.optimize import least_squares

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValidityError("need >= 5 points to fit a 4-parameter line shape")

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

    def jac(p):
        x0, g, c, b = unpack(p)
        u = x - x0
        den = u**2 + g**2
        lor = g**2 / den
        sgn = 1.0 if p[1] >= 0 else -1.0
        return np.column_stack([
            -b * c * lor * 2.0 * u / den,
            -sgn * 2.0 * b * c * g * u**2 / den**2,
            -b * lor,
            1.0 - c * lor,
        ])

    sol = least_squares(resid, x0=[x0_0, g0, c0, base0], jac=jac,
                        method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14,
                        max_nfev=5000)
    if not sol.success:
        raise FitConvergenceError(f"line fit failed: {sol.message}",
                                  last_params=sol.x)
    x0, g, c, b = unpack(sol.x)
    n = x.size
    dof = n - 4
    r = resid(sol.x)
    sigma2 = float(r @ r) / dof if dof > 0 else 0.0
    # a zero residual would make the interval tests below vacuous (flat
    # input fits a 1e-17 dip exactly), so they assume at least roundoff noise
    floor2 = max(sigma2, (np.finfo(float).eps * float(np.max(np.abs(y))))**2)
    jtj = jac(sol.x)
    try:
        unscaled = np.linalg.inv(jtj.T @ jtj)
        ses = np.sqrt(np.clip(np.diag(sigma2 * unscaled), 0.0, None))
        ses_test = np.sqrt(np.clip(np.diag(floor2 * unscaled), 0.0, None))
    except np.linalg.LinAlgError:
        ses = ses_test = np.full(4, np.inf)
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
        residual_rms=float(np.sqrt(np.mean(r**2))), n_points=n,
        degenerate=degenerate)


@dataclass(frozen=True)
class SinusoidFit:
    """Decaying-sinusoid fit A*exp(-2*pi*g*t)*cos(2*pi*f*t + phase) + offset.

    decay_rate follows the package rate convention: the envelope e-folds in
    1/(2*pi*decay_rate) seconds.
    """

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

    def report(self) -> dict:
        return _report("decaying_sinusoid", self, [
            ("amplitude", self.amplitude, self.amplitude_ci),
            ("decay_rate", self.decay_rate, self.decay_rate_ci),
            ("frequency", self.frequency, self.frequency_ci),
            ("phase", self.phase, self.phase_ci),
            ("offset", self.offset, None),
        ], flags={"ambiguous_decay": self.ambiguous_decay})


def fit_decaying_sinusoid(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """Fit frequency and decay of a free-precession record.

    Initialization: FFT peak for the frequency, quartile envelope ratio for
    the decay. The oscillation is parameterized internally as
    exp(-2*pi*g*t) * (a*cos + b*sin) + c to keep the phase unwrapped during
    refinement. When the window is short against the decay time
    (2*pi*g*T < 0.5) the decay is flagged ambiguous and a ValidityWarning
    is emitted; the point estimate is still returned.
    """
    from scipy.optimize import least_squares

    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size or t.size < 16:
        raise ValidityError("need >= 16 samples to fit a decaying sinusoid")
    t0 = t[0]
    ts = t - t0
    span = float(ts[-1])
    dt = float(np.mean(np.diff(ts)))

    yc = y - float(np.mean(y))
    spec = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(t.size, dt)
    k = int(np.argmax(spec[1:])) + 1
    f0 = float(freqs[k])
    if (t.size * dt) * f0 < 2.0:
        warnings.warn("record spans fewer than 2 oscillation cycles; "
                      "frequency weakly constrained", ValidityWarning,
                      stacklevel=2)
    amp0 = float(np.max(np.abs(yc))) or 1.0
    # envelope ratio between first and last quarter fixes the decay scale
    q = max(t.size // 4, 4)
    e1 = float(np.sqrt(np.mean(yc[:q]**2)))
    e2 = float(np.sqrt(np.mean(yc[-q:]**2)))
    if e1 > 0 and e2 > 0 and e2 < e1:
        g00 = math.log(e1 / e2) / (TWO_PI * 0.75 * span)
    else:
        g00 = 0.05 / span

    def resid(p):
        a, b, g, f, c = p
        env = np.exp(-TWO_PI * g * ts)
        arg = TWO_PI * f * ts
        return env * (a * np.cos(arg) + b * np.sin(arg)) + c - y

    def jac(p):
        a, b, g, f, c = p
        env = np.exp(-TWO_PI * g * ts)
        arg = TWO_PI * f * ts
        cosv, sinv = np.cos(arg), np.sin(arg)
        osc = a * cosv + b * sinv
        return np.column_stack([
            env * cosv,
            env * sinv,
            -TWO_PI * ts * env * osc,
            TWO_PI * ts * env * (-a * sinv + b * cosv),
            np.ones_like(ts),
        ])

    sol = least_squares(resid, x0=[amp0, 0.0, g00, f0, float(np.mean(y))],
                        jac=jac, method="trf",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=5000)
    if not sol.success:
        raise FitConvergenceError(f"sinusoid fit failed: {sol.message}",
                                  last_params=sol.x)
    a, b, g, f, c = sol.x
    if f < 0:       # reflect to the positive-frequency representative
        f, b = -f, -b
    g = abs(g)
    n = t.size
    dof = n - 5
    r = resid([a, b, g, f, c])
    sigma2 = float(r @ r) / dof if dof > 0 else 0.0
    jm = jac([a, b, g, f, c])
    try:
        cov = sigma2 * np.linalg.inv(jm.T @ jm)
    except np.linalg.LinAlgError:
        cov = np.full((5, 5), np.inf)
    # refer both envelope amplitude and phase back to t = 0
    scale = math.exp(TWO_PI * g * t0)
    amp = math.hypot(a, b) * scale
    phase = math.atan2(-b, a) - TWO_PI * f * t0
    phase = math.atan2(math.sin(phase), math.cos(phase))
    if amp > 0:
        g_amp = scale * np.array([a / math.hypot(a, b), b / math.hypot(a, b),
                                  TWO_PI * t0 * math.hypot(a, b), 0.0, 0.0])
        se_amp = math.sqrt(max(float(g_amp @ cov @ g_amp), 0.0))
        ab2 = a * a + b * b
        g_phi = np.array([b / ab2, -a / ab2, 0.0, -TWO_PI * t0, 0.0])
        se_phi = math.sqrt(max(float(g_phi @ cov @ g_phi), 0.0))
    else:
        se_amp, se_phi = math.inf, math.pi
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    ambiguous = bool(TWO_PI * g * span < 0.5)
    if ambiguous:
        warnings.warn(
            f"window covers {TWO_PI * g * span:.3g} decay e-folds (< 0.5); "
            "decay rate is weakly constrained", ValidityWarning, stacklevel=2)
    return SinusoidFit(
        amplitude=amp, decay_rate=g, frequency=f, phase=phase, offset=float(c),
        amplitude_ci=_ci(amp, se_amp, dof),
        decay_rate_ci=_ci(g, float(se[2]), dof),
        frequency_ci=_ci(f, float(se[3]), dof),
        phase_ci=_ci(phase, se_phi, dof),
        residual_rms=float(np.sqrt(np.mean(r**2))), n_points=n,
        ambiguous_decay=ambiguous)


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line with the x-axis crossing and its CI."""

    slope: float
    intercept: float
    x_intercept: float
    slope_ci: tuple[float, float]
    intercept_ci: tuple[float, float]
    x_intercept_ci: tuple[float, float]
    residual_rms: float
    n_points: int
    x_intercept_defined: bool

    def report(self) -> dict:
        return _report("linear", self, [
            ("slope", self.slope, self.slope_ci),
            ("intercept", self.intercept, self.intercept_ci),
            ("x_intercept", self.x_intercept, self.x_intercept_ci),
        ], flags={"x_intercept_defined": self.x_intercept_defined})


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """OLS line y = slope*x + intercept with a delta-method x-intercept CI.

    The crossing is flagged undefined when the slope's confidence interval
    contains zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValidityError("need >= 3 points for a linear fit")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    s, i = (float(v) for v in coef)
    r = y - design @ coef
    n = x.size
    dof = n - 2
    sigma2 = float(r @ r) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se_s, se_i = math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))
    slope_ci = _ci(s, se_s, dof)
    defined = not (slope_ci[0] <= 0.0 <= slope_ci[1]) and s != 0.0
    if s != 0.0:
        x_int = -i / s
        grad = np.array([i / s**2, -1.0 / s])
        se_x = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    else:
        x_int, se_x = math.nan, math.inf
    return LinearFit(
        slope=s, intercept=i, x_intercept=x_int,
        slope_ci=slope_ci, intercept_ci=_ci(i, se_i, dof),
        x_intercept_ci=_ci(x_int, se_x, dof),
        residual_rms=float(np.sqrt(np.mean(r**2))), n_points=n,
        x_intercept_defined=defined)


def _report(model: str, fit, params, flags: dict | None = None) -> dict:
    rows = []
    for name, value, ci in params:
        row = {"parameter": name, "value": float(value)}
        if ci is not None:
            row["ci_low"] = float(ci[0])
            row["ci_high"] = float(ci[1])
        rows.append(row)
    out = {"model": model, "n_points": int(fit.n_points),
           "residual_rms": float(fit.residual_rms), "parameters": rows}
    if flags:
        out["flags"] = {k: bool(v) for k, v in flags.items()}
    return out
