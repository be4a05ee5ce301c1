"""Time-domain evolution of the coupled transverse spin components.

State vector (F_x, F_y, R_x, R_y): alkali and noble-gas transverse spin
projections in the rotating frame of the bias field. With all rates in the
angular-Hz convention the equations of motion are

    dF_x/dt = 2*pi*( omega_a F_y - J_a R_y - gamma_a F_x)
    dF_y/dt = 2*pi*(-omega_a F_x + J_a R_x - gamma_a F_y + abar p_a S3(t))
    dR_x/dt = 2*pi*( omega_b R_y - J_b F_y - gamma_b R_x)
    dR_y/dt = 2*pi*(-omega_b R_x + J_b F_x - gamma_b R_y)

Equivalently, with f = F_x + i F_y and r = R_x + i R_y,

    df/dt = 2*pi*(-(gamma_a + i omega_a) f + i J_a r + i abar p_a S3(t))
    dr/dt = 2*pi*(-(gamma_b + i omega_b) r + i J_b f)

which contains no conjugate coupling; the two drive sidebands therefore
evolve independently, and piecewise-harmonic drives admit an exact
eigenmode solution (evolve_exact), the only engine the protocol runners
use. The adaptive integrator (integrate_bloch) is kept as an independent
reference for checking it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import (TWO_PI, NoblelineError, SystemParams, ValidityError,
                    ValidityWarning)
from .signals import fit_decaying_sinusoid
from .spectrum import hybrid_linewidth, line_center

TRAJECTORY_COLUMNS = ("t", "f_x", "f_y", "r_x", "r_y")


class IntegrationError(NoblelineError):
    """Numerical integration failed; `last_time` holds the last good time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


@dataclass(frozen=True)
class SpinState:
    """Instantaneous transverse spin components."""

    f_x: float = 0.0
    f_y: float = 0.0
    r_x: float = 0.0
    r_y: float = 0.0

    @property
    def f(self) -> complex:
        return complex(self.f_x, self.f_y)

    @property
    def r(self) -> complex:
        return complex(self.r_x, self.r_y)

    @classmethod
    def from_complex(cls, f: complex, r: complex) -> "SpinState":
        return cls(f.real, f.imag, r.real, r.imag)

    def as_array(self) -> np.ndarray:
        return np.array([self.f_x, self.f_y, self.r_x, self.r_y], dtype=float)


def tilt_state(amplitude: float, phase: float = 0.0) -> SpinState:
    """State left by a short magnetic tilt pulse on the noble-gas spin.

    The pulse is far shorter than every precession and decay time in the
    problem, so it acts as an instantaneous rotation leaving a transverse
    noble-gas component of the given amplitude (and no alkali excitation;
    the alkali re-slaves within ~1/gamma_a).
    """
    return SpinState(r_x=amplitude * math.cos(phase),
                     r_y=amplitude * math.sin(phase))


@dataclass(frozen=True)
class Drive:
    """Optical-pumping drive S3(t), possibly gated with raised-cosine edges.

    kind "off": S3 = 0. kind "harmonic": S3(t) = Re[amp * exp(-2*pi*i*omega*t)]
    for all t. kind "pulse": the harmonic gated on over [t_on, t_off] with
    raised-cosine edges of duration `ramp` inside the gate (ramp = 0 gives
    rectangular edges).
    """

    kind: str = "off"
    amplitude: complex = 0.0j
    omega: float = 0.0
    t_on: float = 0.0
    t_off: float = math.inf
    ramp: float = 0.0

    def __post_init__(self):
        if self.kind not in ("off", "harmonic", "pulse"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.ramp < 0 or (self.kind == "pulse"
                             and self.t_off - self.t_on < 2 * self.ramp):
            raise ValueError("pulse too short for the requested ramp")

    def envelope(self, t: float) -> float:
        if self.kind == "off":
            return 0.0
        if self.kind == "harmonic":
            return 1.0
        if not self.t_on <= t <= self.t_off:
            return 0.0
        if self.ramp > 0.0:
            for edge, inside in ((self.t_on, t - self.t_on),
                                 (self.t_off, self.t_off - t)):
                if inside < self.ramp:
                    return 0.5 * (1.0 - math.cos(math.pi * inside / self.ramp))
        return 1.0

    def value(self, t: float) -> float:
        env = self.envelope(t)
        if env == 0.0:
            return 0.0
        phase = TWO_PI * self.omega * t
        return env * (self.amplitude.real * math.cos(phase)
                      + self.amplitude.imag * math.sin(phase))


@dataclass
class SpinTrajectory:
    """Sampled spin evolution plus integrator metadata."""

    times: np.ndarray
    f_x: np.ndarray
    f_y: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray
    meta: dict = field(default_factory=dict)

    def state_at(self, index: int) -> SpinState:
        return SpinState(float(self.f_x[index]), float(self.f_y[index]),
                         float(self.r_x[index]), float(self.r_y[index]))

    @property
    def final_state(self) -> SpinState:
        return self.state_at(-1)


def bloch_rhs(t: float, y, system: SystemParams, drive: Drive):
    """Right-hand side of the coupled Bloch equations (scalar math)."""
    f_x, f_y, r_x, r_y = y
    s3 = drive.value(t)
    return (
        TWO_PI * (system.omega_a * f_y - system.exchange_ab * r_y
                  - system.gamma_a * f_x),
        TWO_PI * (-system.omega_a * f_x + system.exchange_ab * r_x
                  - system.gamma_a * f_y + system.drive_coeff * s3),
        TWO_PI * (system.omega_b * r_y - system.exchange_ba * f_y
                  - system.gamma_b * r_x),
        TWO_PI * (-system.omega_b * r_x + system.exchange_ba * f_x
                  - system.gamma_b * r_y),
    )


def integrate_bloch(system: SystemParams, drive: Drive,
                    t_span: tuple[float, float],
                    initial: SpinState | None = None,
                    method: str = "dop853", rtol: float = 1e-9,
                    atol: float = 1e-12, max_step: float | None = None,
                    t_eval=None, sample_rate: float | None = None
                    ) -> SpinTrajectory:
    """Numerically integrate the Bloch equations over t_span.

    Independent of the eigenmode solution, and far slower for mHz lines; it
    serves as the reference the exact engine is checked against.

    method: "rk45" or "dop853" (adaptive, dense output; scipy). Sampling:
    explicit t_eval wins, else a uniform grid at sample_rate, else the
    integrator's own steps.
    """
    y0 = (initial or SpinState()).as_array()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValidityError("t_span must be increasing")
    if t_eval is None and sample_rate is not None:
        n = int(math.floor((t1 - t0) * sample_rate)) + 1
        t_eval = t0 + np.arange(n) / sample_rate

    if method not in ("rk45", "dop853"):
        raise ValidityError(f"unknown integrator {method!r}")

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        bloch_rhs, (t0, t1), y0, args=(system, drive),
        method={"rk45": "RK45", "dop853": "DOP853"}[method],
        rtol=rtol, atol=atol, dense_output=True,
        max_step=max_step if max_step else np.inf, t_eval=t_eval)
    if not sol.success:
        last = float(sol.t[-1]) if sol.t.size else t0
        raise IntegrationError(f"integrator stopped at t = {last:.6g} s: "
                               f"{sol.message}", last_time=last)
    meta = {"integrator": method, "rtol": rtol, "atol": atol,
            "n_rhs_evals": int(sol.nfev), "params_hash": system.params_hash()}
    t = sol.t
    return SpinTrajectory(times=t, f_x=sol.y[0], f_y=sol.y[1],
                          r_x=sol.y[2], r_y=sol.y[3], meta=meta)


# ---------------------------------------------------------------------------
# exact piecewise-LTI evolution


def _system_matrix(system: SystemParams) -> np.ndarray:
    """Complex 2x2 generator for d/dt [f, r] (includes the 2*pi factor)."""
    return TWO_PI * np.array([
        [-(system.gamma_a + 1j * system.omega_a), 1j * system.exchange_ab],
        [1j * system.exchange_ba, -(system.gamma_b + 1j * system.omega_b)],
    ])


class _Modes:
    """Cached eigendecomposition of the complex generator."""

    def __init__(self, system: SystemParams):
        self.matrix = _system_matrix(system)
        self.eigvals, self.vectors = np.linalg.eig(self.matrix)
        self.inverse = np.linalg.inv(self.vectors)
        self.drive_coeff = system.drive_coeff

    def particular(self, amplitude: complex, omega: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Harmonic particular solution u+ e^{-i W t} + u- e^{+i W t}."""
        if amplitude == 0:
            z = np.zeros(2, dtype=complex)
            return z, z
        w = TWO_PI * omega
        d_plus = np.array([1j * TWO_PI * self.drive_coeff * amplitude / 2.0, 0.0])
        d_minus = np.array([1j * TWO_PI * self.drive_coeff
                            * np.conj(amplitude) / 2.0, 0.0])
        # the shifted generators have eigenvalues lambda +- iW; roundoff keeps
        # an on-resonance shift from being exactly singular, so test how
        # close the nearest one comes to zero against the largest
        gaps = np.abs(self.eigvals[:, np.newaxis] + 1j * w * np.array([1, -1]))
        if not np.all(gaps.min(axis=0) > 1e-12 * gaps.max(axis=0)):
            raise ValidityError(
                "drive frequency sits (numerically) on an undamped eigenmode;"
                " the steady response is unbounded")
        eye = np.eye(2)
        u_plus = np.linalg.solve(self.matrix + 1j * w * eye, -d_plus)
        u_minus = np.linalg.solve(self.matrix - 1j * w * eye, -d_minus)
        return u_plus, u_minus


def slow_mode(system: SystemParams) -> tuple[float, float]:
    """(decay rate, precession frequency) of the slow hybrid eigenmode, Hz.

    The eigenvalue of the complex generator with the smaller |Re| part is
    -2*pi*(gamma + i*omega_slow); near-degenerate damped resonances make the
    "slow"/"fast" split meaningless, in which case the smaller-|Re| mode is
    still returned.
    """
    eigvals = np.linalg.eigvals(_system_matrix(system))
    lam = eigvals[np.argmin(np.abs(eigvals.real))]
    return -lam.real / TWO_PI, -lam.imag / TWO_PI


@dataclass(frozen=True)
class Segment:
    """One piecewise-LTI interval: harmonic drive at fixed amplitude.

    ramp > 0 approximates raised-cosine gating by subdividing the edge into
    short constant-amplitude steps (the generator is only LTI piecewise).
    """

    duration: float
    amplitude: complex = 0.0j
    omega: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        if self.ramp < 0 or 2 * self.ramp > self.duration:
            raise ValueError("segment too short for the requested ramp")


RAMP_SUBSTEPS = 64


def _expand_ramps(segment: Segment):
    """Split raised-cosine edges into constant-amplitude substeps."""
    if segment.ramp == 0.0:
        yield segment.duration, segment.amplitude, segment.omega, 0.0
        return
    h = segment.ramp / RAMP_SUBSTEPS
    for k in range(RAMP_SUBSTEPS):  # rising edge, midpoint-sampled envelope
        env = 0.5 * (1.0 - math.cos(math.pi * (k + 0.5) / RAMP_SUBSTEPS))
        yield h, segment.amplitude * env, segment.omega, (k * h)
    flat = segment.duration - 2.0 * segment.ramp
    if flat > 0:
        yield flat, segment.amplitude, segment.omega, segment.ramp
    for k in range(RAMP_SUBSTEPS):
        env = 0.5 * (1.0 + math.cos(math.pi * (k + 0.5) / RAMP_SUBSTEPS))
        yield h, segment.amplitude * env, segment.omega, \
            segment.duration - segment.ramp + k * h


def evolve_exact(system: SystemParams, segments, initial: SpinState,
                 sample_rate: float | None = None) -> SpinTrajectory:
    """Evolve through harmonic segments using the exact eigenmode solution.

    Within each constant-amplitude stretch the state is the homogeneous
    eigenmode decay plus the exact harmonic particular solution, so the
    result carries no step-size error and mHz-wide lines cost the same as
    kHz-wide ones. Sampling at sample_rate is for output only; the state
    handoff between segments is exact. Phase continuity of the drive across
    segment boundaries is the caller's concern: each segment's amplitude is
    defined against the global time origin of that segment's start.
    """
    modes = _Modes(system)
    state = np.array([initial.f, initial.r], dtype=complex)
    ts_out = [np.array([0.0])]
    ys_out = [state[np.newaxis, :].copy()]
    t_base = 0.0
    for seg in segments:
        for dur, amp, omega, offset in _expand_ramps(seg):
            if offset:  # keep the drive phase continuous across substeps
                amp = amp * np.exp(-1j * TWO_PI * omega * offset)
            u_plus, u_minus = modes.particular(amp, omega)
            w = TWO_PI * omega
            h0 = state - (u_plus + u_minus)
            coeffs = modes.inverse @ h0
            if sample_rate and dur * sample_rate >= 2.0:
                n = int(math.floor(dur * sample_rate))
                t_loc = np.arange(1, n + 1) / sample_rate
                if t_loc[-1] < dur:
                    t_loc = np.append(t_loc, dur)
                else:
                    t_loc[-1] = dur
            else:
                t_loc = np.array([dur])
            decay = np.exp(np.outer(t_loc, modes.eigvals))  # (n, 2)
            homo = decay * coeffs[np.newaxis, :] @ modes.vectors.T
            part = (np.exp(-1j * w * t_loc)[:, None] * u_plus[None, :]
                    + np.exp(1j * w * t_loc)[:, None] * u_minus[None, :])
            ys = homo + part
            state = ys[-1].copy()
            ts_out.append(t_base + t_loc)
            ys_out.append(ys)
            t_base += dur
    t = np.concatenate(ts_out)
    y = np.concatenate(ys_out, axis=0)
    meta = {"integrator": "exact-lti", "params_hash": system.params_hash()}
    return SpinTrajectory(times=t, f_x=y[:, 0].real, f_y=y[:, 0].imag,
                          r_x=y[:, 1].real, r_y=y[:, 1].imag, meta=meta)


# ---------------------------------------------------------------------------
# linear response


@dataclass(frozen=True)
class SidebandResponse:
    """Steady-state sideband amplitudes under a harmonic S3 drive.

    Amplitudes are normalized so that demodulating the real component pair
    and forming Z_x + i*Z_y returns f_plus exactly (the counter-rotating
    leakage cancels in that combination); i.e. f_plus is twice the
    co-rotating coefficient of f(t) = F_x + i*F_y, and likewise r_plus,
    f_minus, r_minus.
    """

    omega: float
    f_plus: complex
    r_plus: complex
    f_minus: complex
    r_minus: complex

    def state_at(self, t: float) -> SpinState:
        e_minus = np.exp(-1j * TWO_PI * self.omega * t)
        f = 0.5 * (self.f_plus * e_minus + self.f_minus / e_minus)
        r = 0.5 * (self.r_plus * e_minus + self.r_minus / e_minus)
        return SpinState.from_complex(f, r)


def exact_linear_response(system: SystemParams, s3_amplitude: complex,
                          omega: float) -> SidebandResponse:
    """Steady-state response to S3(t) = Re[s3_amplitude e^{-2 pi i omega t}].

    Both rotating directions, no rotating-wave approximation: this is the
    harmonic particular solution the exact engine superposes in every
    driven segment, rescaled to the SidebandResponse normalization. Raises
    ValidityError when the drive sits on an undamped eigenmode.
    """
    u_plus, u_minus = _Modes(system).particular(s3_amplitude, omega)
    f_plus, r_plus = 2.0 * u_plus
    f_minus, r_minus = 2.0 * u_minus
    return SidebandResponse(omega=omega, f_plus=complex(f_plus),
                            r_plus=complex(r_plus), f_minus=complex(f_minus),
                            r_minus=complex(r_minus))


# ---------------------------------------------------------------------------
# protocols


@dataclass(frozen=True)
class ExciteResult:
    """Outcome of one excite-wait cycle at a single drive frequency."""

    omega: float
    amplitude: float          # |R| at readout start
    r_end: complex            # complex noble coherence at readout start
    pulse_duration: float
    dead_time: float


def excite_and_readout(system: SystemParams, omega: float | None = None,
                       s3_amplitude: complex = 1.0 + 0.0j,
                       pulse_efolds: float = 3.0, ramp: float = 0.0,
                       dead_efolds: float = 6.0) -> ExciteResult:
    """Drive the hybrid line, wait out the alkali transient, read |R|.

    The pulse lasts pulse_efolds slow-line e-folding times 1/(2*pi*gamma)
    (so the default 3 leaves the noble spin near saturation but still
    Fourier-broadens a scanned line; push to >= 8 for width fidelity). The
    dead time, dead_efolds/(2*pi*gamma_a), lets the fast alkali mode ring
    down; the remaining slow decay over it is common to every frequency in
    a scan and divides out on normalization. The noble coherence R at the
    end of the dead time, where a readout would start, is the result.
    """
    if omega is None:
        omega = line_center(system)
    gamma = hybrid_linewidth(system, omega - system.omega_a)
    if gamma <= 0:
        raise ValidityError("undamped line: excitation never saturates")
    pulse = pulse_efolds / (TWO_PI * gamma)
    dead = dead_efolds / (TWO_PI * system.gamma_a) if system.gamma_a > 0 else 0.0

    segments = [Segment(duration=pulse, amplitude=s3_amplitude, omega=omega,
                        ramp=ramp)]
    if dead > 0:
        segments.append(Segment(duration=dead))
    start = evolve_exact(system, segments, SpinState()).final_state
    return ExciteResult(omega=omega, amplitude=abs(start.r), r_end=start.r,
                        pulse_duration=pulse, dead_time=dead)


@dataclass(frozen=True)
class TransientResult:
    """Free-precession transient after a magnetic tilt pulse, with its fit."""

    trajectory: SpinTrajectory
    fit: object               # SinusoidFit on R_x(t)
    predicted_decay: float    # slow-eigenmode decay rate, Hz
    predicted_frequency: float
    formula_decay: float      # closed-form hybrid width at the slow line


def magnetic_pulse_transient(system: SystemParams, tilt_amplitude: float = 1.0,
                             observe_efolds: float = 2.0,
                             samples_per_cycle: float = 32.0,
                             noise_sigma: float = 0.0,
                             rng: np.random.Generator | None = None
                             ) -> TransientResult:
    """Tilt the noble-gas spin, record free precession, fit rate and frequency.

    The tilt is modeled as instantaneous (see tilt_state). The record spans
    observe_efolds of the predicted slow decay, sampled at samples_per_cycle
    per slow-mode cycle (or e-fold, if that is shorter); white noise of
    noise_sigma, drawn from rng, is added to the stored R_x. The
    decaying-sinusoid fit on R_x then measures the hybridized linewidth
    without any optical drive.
    """
    gamma_slow, freq_slow = slow_mode(system)
    if gamma_slow <= 0:
        raise ValidityError("undamped slow mode: transient never decays")
    if noise_sigma and rng is None:
        raise ValidityError("noise requested without an rng")
    duration = observe_efolds / (TWO_PI * gamma_slow)
    sample_rate = samples_per_cycle * max(abs(freq_slow), gamma_slow)
    traj = evolve_exact(system, [Segment(duration=duration)],
                        tilt_state(tilt_amplitude), sample_rate=sample_rate)
    if noise_sigma:
        traj.r_x = traj.r_x + rng.normal(0.0, noise_sigma,
                                         size=traj.r_x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        fit = fit_decaying_sinusoid(traj.times, traj.r_x)
    formula = hybrid_linewidth(system, line_center(system) - system.omega_a)
    return TransientResult(trajectory=traj, fit=fit,
                           predicted_decay=gamma_slow,
                           predicted_frequency=abs(freq_slow),
                           formula_decay=formula)
