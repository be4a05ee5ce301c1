"""Closed-form steady-state response of the hybridized spin system.

Driven at frequency omega near the noble-gas resonance, the coupled
transverse coherences respond linearly. With the complex amplitudes defined
through x(t) = Re[X exp(-2*pi*i*omega*t)] for every real channel, the alkali
coherence amplitude is

    F = i*abar*p_a*S3 / (gamma_a - i*delta_a + J^2/(gamma_b - i*delta_b))

and the hybridized line seen by the noble gas acquires half-width

    gamma = gamma_b + J^2*gamma_a/(delta_a^2 + gamma_a^2)

with its center pulled by Delta_pull = J^2*delta_a/(delta_a^2 + gamma_a^2).
All quantities follow the angular-Hz convention of :mod:`nobleline.model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (Detunings, OpticalParams, SystemParams, ValidityError,
                    compute_detunings, exchange_denominator)

#: |delta_a| >= FAR_DETUNED_RATIO * gamma_a selects the factored closed form
#: of the transmitted amplitude; below it the general coherence form is used
FAR_DETUNED_RATIO = 10.0

#: line_center's relative convergence tolerance and iteration budget
LINE_CENTER_TOL = 1e-14
LINE_CENTER_MAX_ITER = 200


def hybrid_linewidth(system: SystemParams, delta_a: float) -> float:
    """Half-width gamma of the hybridized line at alkali detuning delta_a."""
    j2, den = exchange_denominator(system, delta_a)
    if den == 0.0:
        return system.gamma_b
    return system.gamma_b + j2 * system.gamma_a / den


def alkali_coherence(s3_in: complex, omega: float,
                     system: SystemParams) -> complex:
    """Transverse alkali coherence amplitude F = F_x + i*F_y driven by S3.

    The drive tilts the alkali spin at rate abar*p_a*S3(t); the noble-gas
    coupling feeds back through the exchange product J^2. Amplitudes follow
    the spectral convention x(t) = Re[X exp(-2*pi*i*omega*t)].
    """
    d = compute_detunings(omega, system)
    den_b = complex(system.gamma_b, -d.delta_b)
    j2 = system.exchange_ab * system.exchange_ba
    if j2 == 0.0:
        feedback = 0.0j
    elif den_b == 0.0:
        return 0.0j  # undamped noble gas on bare resonance shorts the alkali
    else:
        feedback = j2 / den_b
    return 1j * system.drive_coeff * s3_in / (
        complex(system.gamma_a, -d.delta_a) + feedback)


def noble_coherence(s3_in: complex, omega: float,
                    system: SystemParams) -> complex:
    """Transverse noble-gas coherence amplitude R = R_x + i*R_y driven by S3.

    Equal to i*J_b*F/(gamma_b - i*delta_b); evaluated here in the factored
    form -J_b*abar*p_a*S3 / [(gamma_a - i*delta_a)(gamma_b - i*delta_b) + J^2]
    which stays finite wherever the response itself does.
    """
    d = compute_detunings(omega, system)
    den = complex(system.gamma_a, -d.delta_a) * complex(system.gamma_b, -d.delta_b) \
        + system.exchange_ab * system.exchange_ba
    if den == 0.0:
        raise ValidityError("undamped exact resonance: steady state diverges")
    return -system.exchange_ba * system.drive_coeff * s3_in / den


def line_center(system: SystemParams) -> float:
    """Frequency of the drive at which the pulled detuning Delta vanishes.

    Solves omega = omega_b + J^2*(omega - omega_a)/((omega - omega_a)^2 +
    gamma_a^2) by fixed-point iteration from omega_b; the pull is a tiny
    fraction of |omega_a - omega_b| whenever the hybridization is
    perturbative, so the map is strongly contracting.
    """
    j2 = system.exchange_ab * system.exchange_ba
    if j2 == 0.0:
        return system.omega_b
    scale = max(abs(system.omega_b), system.gamma_b, 1e-30)
    omega = system.omega_b
    for _ in range(LINE_CENTER_MAX_ITER):
        da = omega - system.omega_a
        try:
            _, den = exchange_denominator(system, da)
        except OverflowError:   # the iterate has run off past any rate
            break
        new = system.omega_b + j2 * da / den
        # a pull larger than |omega_b| sets the last bit of the center
        if abs(new - omega) <= LINE_CENTER_TOL * max(scale, abs(new)):
            return new
        omega = new
    raise ValidityError("line-center iteration did not converge; "
                        "resonances may be too close to hybridize weakly")


@dataclass(frozen=True)
class LineShape:
    """Lorentzian parameters of the hybridized absorption line.

    center : drive frequency where the pulled detuning crosses zero (Hz)
    half_width : gamma, half-width at half-maximum of the power dip (Hz)
    depth : C0, amplitude dip parameter (transmitted amplitude 1 - C0 on line)
    contrast : C = C0*(2 - C0), fractional power dip on line center
    """

    center: float
    half_width: float
    depth: float
    contrast: float


def _depth(system: SystemParams, optics: OpticalParams, gamma: float) -> float:
    """Line depth at half-width gamma: the photon budget times the
    hybridization fraction,
    C0 = (p_a * OD / 2) * (gamma'_a / gamma_a) * ((gamma - gamma_b) / gamma).
    """
    if system.gamma_a == 0.0:
        raise ValidityError("no absorption line: gamma_a is zero, so the "
                            "depth gamma'_a/gamma_a is undefined")
    return (system.alkali_polarization * optics.optical_depth / 2.0) \
        * (optics.scattering_rate / system.gamma_a) \
        * ((gamma - system.gamma_b) / gamma)


def line_shape(system: SystemParams, optics: OpticalParams) -> LineShape:
    """Lorentzian line parameters for a far-detuned probe of the hybrid line
    (depth as in _depth)."""
    optics.require_derived()
    center = line_center(system)
    gamma = hybrid_linewidth(system, center - system.omega_a)
    if gamma <= 0.0:
        raise ValidityError("no absorption line: hybrid width is zero")
    depth = _depth(system, optics, gamma)
    return LineShape(center=center, half_width=gamma, depth=depth,
                     contrast=depth * (2.0 - depth))


def transmitted_ratio(gamma: float, depth: float, delta: float) -> complex:
    """Closed-form transmitted amplitude ratio 1 - C0*gamma/(gamma - i*Delta).

    The squared magnitude is identically the inverted Lorentzian
    1 - C*gamma^2/(Delta^2 + gamma^2) with C = C0*(2 - C0), and the lock-in
    phase -arg(.) is identically :func:`phase_shift`.
    """
    return 1.0 - depth * gamma / complex(gamma, -delta)


def phase_shift(line: LineShape, delta: float) -> float:
    """Lock-in phase (radians) of the transmitted signal beat, vs detuning.

    Equals atan(C0*gamma*Delta / (Delta^2 + gamma^2*(1 - C0))) on the
    undercoupled branch; the atan2 form below also tracks the continuous
    wrap past +-pi/2 when C0 > 1.
    """
    g = line.half_width
    return math.atan2(line.depth * g * delta,
                      delta**2 + g**2 * (1.0 - line.depth))


@dataclass(frozen=True)
class S2Response:
    """Transmitted S2 amplitude and the pieces it was computed from.

    branch is "far" (factored Lorentzian form, valid for
    |delta_a| >= 10*gamma_a) or "general" (Faraday pickup alpha/2 times the
    alkali coherence, no far-detuning assumption).
    """

    s2_out: complex
    s2_in: complex
    branch: str
    detunings: Detunings
    f_tilde: complex
    r_tilde: complex

    @property
    def ratio(self) -> complex:
        return self.s2_out / self.s2_in

    @property
    def transmission(self) -> float:
        """Power transmission |s2_out/s2_in|^2."""
        return abs(self.ratio) ** 2

    @property
    def phase(self) -> float:
        """Lock-in phase -arg(s2_out/s2_in), radians."""
        return -math.atan2(self.ratio.imag, self.ratio.real)


def s2_response(omega: float, system: SystemParams, optics: OpticalParams,
                s2_in: complex = 1.0 + 0.0j) -> S2Response:
    """Transmitted S2 spectral amplitude for a beam entering with S3 = i*S2.

    A single circular signal sideband co-propagating with the control beam
    fixes S3_in = i*S2_in at the entrance; the vapor then mixes the alkali
    coherence back into S2 with Faraday weight alpha/2. Far off the optical
    resonance the same response factors into the Lorentzian form
    s2_out = s2_in * (1 - C0*gamma/(gamma - i*Delta)).
    """
    optics.require_derived()
    d = compute_detunings(omega, system)
    s3_in = 1j * s2_in
    f_t = alkali_coherence(s3_in, omega, system)
    r_t = noble_coherence(s3_in, omega, system)
    if abs(d.delta_a) >= FAR_DETUNED_RATIO * system.gamma_a:
        branch = "far"
        gamma = hybrid_linewidth(system, d.delta_a)
        if gamma > 0.0:
            s2_out = s2_in * transmitted_ratio(
                gamma, _depth(system, optics, gamma), d.delta_hybrid)
        else:
            s2_out = s2_in
    else:
        branch = "general"
        s2_out = s2_in + 0.5 * optics.faraday_coeff * f_t
    return S2Response(s2_out=s2_out, s2_in=s2_in, branch=branch, detunings=d,
                      f_tilde=f_t, r_tilde=r_t)


def evaluate_spectrum(omegas, system: SystemParams, optics: OpticalParams,
                      s2_in: complex = 1.0 + 0.0j) -> list[S2Response]:
    """Closed-form responses (see s2_response) over a frequency grid."""
    return [s2_response(float(omega), system, optics, s2_in)
            for omega in omegas]
