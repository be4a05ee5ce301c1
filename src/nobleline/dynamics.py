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
eigenmode solution (evolve_exact), the only dynamics engine. Values stay
complex: a state is the pair (f, r), a SpinTrajectory holds f and r as two
complex arrays, and excite_and_readout returns r per drive frequency;
only the points table splits them into real and imaginary columns. The
adaptive integrator that checks the engine, driven by the same Segment
list, lives with the tests (tests/bloch_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MIN_SAMPLES_PER_CYCLE, TWO_PI, SystemParams, ValidityError
from .signals import fit_decaying_sinusoid
from .spectrum import hybrid_linewidth, line_center


def tilt_state(amplitude: float,
               phase: float = 0.0) -> tuple[complex, complex]:
    """State left by a short magnetic tilt pulse on the noble-gas spin.

    The pulse is far shorter than every precession and decay time in the
    problem, so it acts as an instantaneous rotation leaving a transverse
    noble-gas component of the given amplitude (and no alkali excitation;
    the alkali re-slaves within ~1/gamma_a).
    """
    return 0j, complex(amplitude * math.cos(phase),
                       amplitude * math.sin(phase))


@dataclass
class SpinTrajectory:
    """Sampled spin evolution: the coherences f = F_x + i F_y and
    r = R_x + i R_y, one complex sample per entry of times."""

    times: np.ndarray
    f: np.ndarray
    r: np.ndarray

    @property
    def final_state(self) -> tuple[complex, complex]:
        """(f, r) at the last sample."""
        return complex(self.f[-1]), complex(self.r[-1])


# ---------------------------------------------------------------------------
# exact piecewise-LTI evolution


def _system_matrix(system: SystemParams) -> np.ndarray:
    """Complex 2x2 generator for d/dt [f, r] (includes the 2*pi factor)."""
    return TWO_PI * np.array([
        [-(system.gamma_a + 1j * system.omega_a), 1j * system.exchange_ab],
        [1j * system.exchange_ba, -(system.gamma_b + 1j * system.omega_b)],
    ])


class _Modes:
    """Cached eigendecomposition of the complex generator, and its shifted
    generators at the drive frequencies it last solved for."""

    def __init__(self, system: SystemParams):
        self.matrix = _system_matrix(system)
        self.eigvals, self.vectors = np.linalg.eig(self.matrix)
        self.inverse = np.linalg.inv(self.vectors)
        self.drive_coeff = system.drive_coeff
        self._shifted = (None, None, None)

    def _shift(self, omegas: np.ndarray):
        """(regular, shifted) at each of omegas: the generators shifted by
        +-iW as (2, P, 2, 2), and whether both of a row's are far from
        singular. Kept for the next call at the same frequencies, as every
        stretch of a scan is driven at the scan's."""
        key = omegas.tobytes()
        if self._shifted[0] != key:
            w = TWO_PI * omegas[:, np.newaxis, np.newaxis]
            # the shifted generators have eigenvalues lambda +- iW; roundoff
            # keeps an on-resonance shift from being exactly singular, so
            # test how close the nearest one comes to zero against the largest
            gaps = np.abs(self.eigvals[:, np.newaxis]
                          + 1j * w * np.array([1, -1]))
            regular = np.all(gaps.min(axis=1) > 1e-12 * gaps.max(axis=1),
                             axis=1)
            eye = np.eye(2)
            self._shifted = key, regular, np.stack(
                [self.matrix + 1j * w * eye, self.matrix - 1j * w * eye])
        return self._shifted[1:]

    def particular(self, amplitudes, omegas) -> np.ndarray:
        """Particular solutions u+ e^{-i W t} + u- e^{+i W t} as u[0], u[1],
        each (K, P, 2): entry (k, p) driven at amplitudes[k, p] and omegas[p]
        (or one shared frequency), exactly +0.0 where undriven. One LAPACK
        solve per frequency against its K right-hand sides, each column bit
        for bit its own one-column solve."""
        amps = np.asarray(amplitudes, dtype=complex)
        u = np.zeros((2, *amps.shape, 2), dtype=complex)
        driven = amps != 0
        rows = driven.any(axis=0)
        if not rows.any():
            return u
        regular, shifted = self._shift(np.broadcast_to(
            np.asarray(omegas, dtype=float), rows.shape))
        if not regular[rows].all():
            raise ValidityError(
                "drive frequency sits (numerically) on an undamped eigenmode;"
                " the steady response is unbounded")
        a = amps[:, rows]
        d = np.zeros((2, a.shape[1], 2, a.shape[0]), dtype=complex)
        d[0, :, 0] = (1j * TWO_PI * self.drive_coeff * a / 2.0).T
        d[1, :, 0] = (1j * TWO_PI * self.drive_coeff * np.conj(a) / 2.0).T
        u[:, :, rows] = np.linalg.solve(shifted[:, rows],
                                        -d).transpose(0, 3, 1, 2)
        u[:, ~driven] = 0.0
        return u


def slow_mode(system: SystemParams) -> tuple[float, float]:
    """(decay rate, precession frequency) of the slow hybrid eigenmode, Hz.

    The eigenvalue of the complex generator with the smaller |Re| part is
    -2*pi*(gamma + i*omega_slow); near-degenerate damped resonances make the
    "slow"/"fast" split meaningless, in which case the smaller-|Re| mode is
    still returned.
    """
    eigvals = np.linalg.eigvals(_system_matrix(system))
    lam = eigvals[np.argmin(np.abs(eigvals.real))]
    return float(-lam.real / TWO_PI), float(-lam.imag / TWO_PI)


#: largest relative gap between the closed-form half-width and the exact
#: slow-mode decay that a run accepts: 1 % keeps half of acceptance 6's 2 %
MAX_WIDTH_GAP = 0.01


def width_gap(system: SystemParams) -> float:
    """|gamma - gamma_slow| / gamma_slow of the closed-form half-width at
    line_center and the exact slow-mode decay, which must be positive (a
    ValidityError otherwise): at most about (J/|omega_a - omega_b|)^2, of
    order one where gamma_b > gamma_a."""
    gamma_slow, _ = slow_mode(system)
    if not gamma_slow > 0:
        raise ValidityError(f"undamped slow mode: its exact decay is "
                            f"{gamma_slow:.4g} Hz, which no width matches")
    gamma = hybrid_linewidth(system, line_center(system) - system.omega_a)
    return abs(gamma - gamma_slow) / gamma_slow


def check_width_gap(system: SystemParams) -> None:
    """ValidityError where width_gap exceeds MAX_WIDTH_GAP."""
    gap = width_gap(system)
    if gap > MAX_WIDTH_GAP:
        raise ValidityError(
            "hybridization not perturbative: the closed-form half-width is "
            f"{100 * gap:.3g}% off the exact slow-mode decay (bound "
            f"{MAX_WIDTH_GAP:.0%}) at |omega_a - omega_b| = "
            f"{abs(system.omega_a - system.omega_b):.4g} Hz, J = "
            f"{system.exchange:.4g} Hz, gamma_a = {system.gamma_a:.4g} Hz "
            f"and gamma_b = {system.gamma_b:.4g} Hz")


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
#: the raised cosine at the substeps' midpoints on the rising and the
#: falling edge
_RISE, _FALL = (np.array([0.5 * (1.0 + sign * math.cos(
    math.pi * (k + 0.5) / RAMP_SUBSTEPS)) for k in range(RAMP_SUBSTEPS)])
    for sign in (-1.0, 1.0))
#: the most (substep, row) entries of one run: an edge over many rows is
#: cut into runs of fewer substeps, so a run's arrays stay a few MB
_RUN_ENTRIES = 2 ** 16


def _expand_ramps(durations, amplitude, omegas, ramp: float):
    """Split segments that share an amplitude and a ramp, one per entry of
    durations and omegas, into runs of equal-length constant-amplitude
    stretches: yields (durations (P,), amplitudes (K, P)) per run, K
    consecutive midpoint-sampled substeps of a raised-cosine edge (all
    RAMP_SUBSTEPS, or fewer so that K * P <= _RUN_ENTRIES) or one flat top
    (K = 1). Each amplitude is phased to its stretch's start, so the drive
    stays continuous across substeps, all K of a run in one expression; a
    stretch at the segment's start stays unphased. A row whose flat top is
    empty gets duration 0 there, and a flat top empty in every row is not
    yielded."""
    def phased(amps, offsets):
        out = np.empty((amps.size, *durations.shape), dtype=complex)
        out[:] = amps[:, np.newaxis]
        moved = offsets.any(axis=1)     # else at the segment's start
        if moved.any():
            # the unfused product of each complex amplitude: numpy's complex
            # array product fuses it and rounds differently
            phase = np.exp(-1j * TWO_PI * omegas * offsets[moved])
            a = amps[moved, np.newaxis]
            out.real[moved] = a.real * phase.real - a.imag * phase.imag
            out.imag[moved] = a.real * phase.imag + a.imag * phase.real
        return out

    if ramp == 0.0:
        yield durations, phased(np.array([amplitude]), np.zeros((1, 1)))
        return
    step = ramp / RAMP_SUBSTEPS
    offsets = (np.arange(RAMP_SUBSTEPS) * step)[:, np.newaxis]
    h = np.full(durations.shape, step)
    k = max(1, _RUN_ENTRIES // durations.size)
    runs = [slice(i, i + k) for i in range(0, RAMP_SUBSTEPS, k)]
    rise, fall = amplitude * _RISE, amplitude * _FALL
    yield from ((h, phased(rise[run], offsets[run])) for run in runs)
    flat = durations - 2.0 * ramp
    if (flat > 0).any():
        yield flat, phased(np.array([amplitude]), np.array([[ramp]]))
    yield from ((h, phased(fall[run], durations - ramp + offsets[run]))
                for run in runs)


def _advance(modes: _Modes, states, times, amplitudes, omegas):
    """Carry a leading axis of states through a run of K equal-length
    constant-amplitude stretches by the exact eigenmode solution: row p of
    states (P, 2) is driven at amplitudes[k, p] and omegas[p] in stretch k
    and sampled at times[p], the (n,) times since each stretch's start, the
    last of them its end. Yields each stretch's (P, n, 2) samples in turn,
    so a caller that reads only the end holds one stretch's. The decay
    and drive phases, equal in every stretch, are taken once; every row
    runs the arithmetic of a lone state, in the same order: the stacked
    matmuls take one 2x2 product per row."""
    u_plus, u_minus = modes.particular(amplitudes, omegas)
    decay = np.exp(times[..., np.newaxis] * modes.eigvals)
    driven = amplitudes != 0    # an undriven row has no particular solution
    if driven.any():
        w = TWO_PI * omegas[:, np.newaxis]
        waves = (np.exp(-1j * w * times)[..., np.newaxis],
                 np.exp(1j * w * times)[..., np.newaxis])
    for k in range(len(amplitudes)):
        coeffs = (modes.inverse
                  @ (states - (u_plus[k] + u_minus[k]))[..., np.newaxis])
        ys = decay * coeffs[:, np.newaxis, :, 0] @ modes.vectors.T
        if driven[k].any():
            np.add(ys, waves[0] * u_plus[k][:, np.newaxis]
                   + waves[1] * u_minus[k][:, np.newaxis],
                   out=ys, where=driven[k][:, np.newaxis, np.newaxis])
        yield ys
        states = ys[:, -1]


def evolve_exact(system: SystemParams, segments,
                 initial: tuple[complex, complex],
                 sample_rate: float | None = None) -> SpinTrajectory:
    """Evolve through harmonic segments using the exact eigenmode solution.

    Within each constant-amplitude stretch the state is the homogeneous
    eigenmode decay plus the exact harmonic particular solution, so the
    result carries no step-size error and mHz-wide lines cost the same as
    kHz-wide ones. Sampling at sample_rate is for output only; the state
    handoff between segments is exact. Phase continuity of the drive across
    segment boundaries is the caller's concern: each segment's amplitude is
    defined against the global time origin of that segment's start. The
    initial state is the pair (f, r).
    """
    modes = _Modes(system)
    state = np.array([initial], dtype=complex)
    ts_out, ys_out = [np.array([0.0])], [state]
    t_base = 0.0
    for seg in segments:
        omegas = np.array([seg.omega])
        for durations, amps in _expand_ramps(np.array([seg.duration]),
                                             seg.amplitude, omegas, seg.ramp):
            dur = float(durations[0])
            if sample_rate and dur * sample_rate >= 2.0:
                n = int(math.floor(dur * sample_rate))
                t_loc = np.arange(1, n + 1) / sample_rate
                if t_loc[-1] < dur:
                    t_loc = np.append(t_loc, dur)
                else:
                    t_loc[-1] = dur
            else:
                t_loc = np.array([dur])
            for ys in _advance(modes, state, t_loc[np.newaxis], amps, omegas):
                ts_out.append(t_base + t_loc)
                ys_out.append(ys[0])
                t_base += dur
            state = ys[:, -1]
    t = np.concatenate(ts_out)
    y = np.concatenate(ys_out, axis=0)
    return SpinTrajectory(times=t, f=y[:, 0], r=y[:, 1])


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

    def state_at(self, t: float) -> tuple[complex, complex]:
        """The steady state (f, r) at time t."""
        e_minus = np.exp(-1j * TWO_PI * self.omega * t)
        f = 0.5 * (self.f_plus * e_minus + self.f_minus / e_minus)
        r = 0.5 * (self.r_plus * e_minus + self.r_minus / e_minus)
        return f, r


def exact_linear_response(system: SystemParams, s3_amplitude: complex,
                          omega: float) -> SidebandResponse:
    """Steady-state response to S3(t) = Re[s3_amplitude e^{-2 pi i omega t}].

    Both rotating directions, no rotating-wave approximation: this is the
    harmonic particular solution the exact engine superposes in every
    driven segment, rescaled to the SidebandResponse normalization. Raises
    ValidityError when the drive sits on an undamped eigenmode.
    """
    u_plus, u_minus = _Modes(system).particular([[s3_amplitude]], omega)
    f_plus, r_plus = 2.0 * u_plus[0, 0]
    f_minus, r_minus = 2.0 * u_minus[0, 0]
    return SidebandResponse(omega=omega, f_plus=complex(f_plus),
                            r_plus=complex(r_plus), f_minus=complex(f_minus),
                            r_minus=complex(r_minus))


# ---------------------------------------------------------------------------
# protocols


def excite_and_readout(system: SystemParams, omegas=None,
                       s3_amplitude: complex = 1.0 + 0.0j,
                       pulse_efolds: float = 3.0, ramp: float = 0.0,
                       dead_efolds: float = 6.0) -> np.ndarray:
    """Excite the hybrid line at each drive frequency of omegas, wait out
    the alkali transient, and return r per frequency.

    Each pulse lasts pulse_efolds slow-line e-folding times 1/(2*pi*gamma),
    gamma the closed-form width at its own frequency (so the default 3
    leaves the noble spin near saturation but still Fourier-broadens a
    scanned line; push to >= 8 for width fidelity). The dead time,
    dead_efolds/(2*pi*gamma_a), lets the fast alkali mode ring down; the
    remaining slow decay over it is common to every frequency in a scan and
    divides out on normalization. The result holds the complex noble
    coherence r = R_x + i R_y at the end of each dead time, where a readout
    would start; its modulus is the readout amplitude |R|. omegas defaults
    to the hybrid line center alone. One evolution carries every frequency
    through each stretch together, each row bit for bit as evolve_exact
    would carry it alone.
    """
    if omegas is None:
        omegas = [line_center(system)]
    omegas = np.asarray(omegas, dtype=float)
    gammas = np.array([hybrid_linewidth(system, omega - system.omega_a)
                       for omega in omegas.tolist()])
    if not np.all(gammas > 0):
        raise ValidityError("undamped line: excitation never saturates")
    pulses = pulse_efolds / (TWO_PI * gammas)
    if not (pulse_efolds > 0 and 0 <= 2 * ramp <= pulses.min()):
        raise ValueError("pulses must be positive and hold both ramps")
    dead = dead_efolds / (TWO_PI * system.gamma_a) if system.gamma_a > 0 else 0.0

    segments = [(pulses, s3_amplitude, ramp)]
    if dead > 0:
        segments.append((np.full(omegas.shape, dead), 0j, 0.0))
    modes = _Modes(system)
    states = np.zeros((omegas.size, 2), dtype=complex)
    for durations, amplitude, edge in segments:
        for durs, amps in _expand_ramps(durations, amplitude, omegas, edge):
            for ys in _advance(modes, states, durs[:, np.newaxis], amps,
                               omegas):
                pass    # only the run's end is read
            # a row with an empty flat top skips that stretch
            states = np.where((durs > 0)[:, np.newaxis], ys[:, -1], states)
    return states[:, 1]


@dataclass(frozen=True)
class TransientResult:
    """Free-precession transient after a magnetic tilt pulse, with its fit."""

    trajectory: SpinTrajectory
    fit: object               # SinusoidFit on R_x(t) = Re r(t)
    predicted_decay: float    # slow-eigenmode decay rate, Hz
    predicted_frequency: float
    formula_decay: float      # closed-form hybrid width at the slow line


def _transient_grid(system: SystemParams, observe_efolds: float,
                    samples_per_cycle: float):
    """Slow mode and the (duration, sample_rate) of its tilt-pulse record."""
    if not samples_per_cycle > MIN_SAMPLES_PER_CYCLE:
        raise ValidityError(f"samples_per_cycle {samples_per_cycle:g} must "
                            f"exceed {MIN_SAMPLES_PER_CYCLE:g}; a sparser "
                            "record aliases the precession")
    gamma_slow, freq_slow = slow_mode(system)
    check_width_gap(system)
    duration = observe_efolds / (TWO_PI * gamma_slow)
    sample_rate = samples_per_cycle * max(abs(freq_slow), gamma_slow)
    return gamma_slow, freq_slow, duration, sample_rate


def transient_samples(system: SystemParams, observe_efolds: float,
                      samples_per_cycle: float) -> float:
    """Upper bound on the samples magnetic_pulse_transient would evolve,
    computed without evolving: the start, floor(duration * rate) grid
    points and the end point. A float, inf where the product overflows."""
    _, _, duration, sample_rate = _transient_grid(system, observe_efolds,
                                                  samples_per_cycle)
    return float(np.floor(duration * sample_rate)) + 2.0


def magnetic_pulse_transient(system: SystemParams, tilt_amplitude: float = 1.0,
                             observe_efolds: float = 2.0,
                             samples_per_cycle: float = 32.0,
                             noise_sigma: float = 0.0,
                             rng: np.random.Generator | None = None
                             ) -> TransientResult:
    """Tilt the noble-gas spin, record free precession, fit rate and frequency.

    The tilt is modeled as instantaneous (see tilt_state). The record spans
    observe_efolds of the predicted slow decay, sampled at samples_per_cycle
    (which must exceed MIN_SAMPLES_PER_CYCLE) per slow-mode cycle (or
    e-fold, if that is shorter); white noise of noise_sigma, drawn from rng,
    is added to R_x, the real part of the stored r. The decaying-sinusoid
    fit on R_x then measures the hybridized linewidth without any optical
    drive.
    """
    gamma_slow, freq_slow, duration, sample_rate = _transient_grid(
        system, observe_efolds, samples_per_cycle)
    if noise_sigma and rng is None:
        raise ValidityError("noise requested without an rng")
    traj = evolve_exact(system, [Segment(duration=duration)],
                        tilt_state(tilt_amplitude), sample_rate=sample_rate)
    if noise_sigma:
        traj.r.real += rng.normal(0.0, noise_sigma, size=traj.r.shape)
    fit = fit_decaying_sinusoid(traj.times, traj.r.real)
    formula = hybrid_linewidth(system, line_center(system) - system.omega_a)
    return TransientResult(trajectory=traj, fit=fit,
                           predicted_decay=gamma_slow,
                           predicted_frequency=abs(freq_slow),
                           formula_decay=formula)
