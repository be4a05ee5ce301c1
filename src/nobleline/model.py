"""Core parameter model for an alkali-vapor / noble-gas spin system probed by light.

Units convention
----------------
Every frequency, rate, and linewidth in this package is an angular frequency
quoted in units of 2*pi rad/s (written "Hz" throughout); numerically such a
value equals the ordinary cycles-per-second frequency of the oscillation it
describes. Closed-form expressions combine only ratios and products of like
quantities, so no 2*pi factors appear in them. The single conversion constant
lives at the time-domain boundary (ODE right-hand sides, waveform synthesis
and demodulation): see :data:`TWO_PI`.

Other base units: magnetic fields in mG, gyromagnetic ratios in Hz/mG,
densities in cm^-3, lengths in cm, areas in cm^2, powers in W, energies in J,
temperatures in K, pressures in Torr, times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

TWO_PI = 2.0 * math.pi

#: minimum sample_rate / omega of every sampled record (Nyquist with margin)
MIN_SAMPLES_PER_CYCLE = 4.0

#: largest |rate| a resolved system may hold, Hz: the square, product or sum
#: of squares of any two such rates, or of their differences, stays below
#: 1e201, far inside float64's 1.8e308
_MAX_RATE = 1e100

# SI constants. The first four are exact by definition of the SI units since
# 2019; the electron radius is the CODATA 2022 value.
#: Planck constant, J s
PLANCK = 6.62607015e-34
#: speed of light in vacuum, m/s
SPEED_OF_LIGHT = 299792458.0
#: Boltzmann constant, J/K
BOLTZMANN = 1.380649e-23
#: one Torr, Pa
TORR = 101325.0 / 760.0

#: classical electron radius, cm
ELECTRON_RADIUS = 2.8179403205e-15 * 1e2

#: helium-3 nuclear gyromagnetic ratio, Hz/mG (literature default; a
#: calibration point in the magnetics config overrides it)
HE3_GYROMAGNETIC = 3.243

class NoblelineError(Exception):
    """Base class for package errors."""


class ConfigError(NoblelineError):
    """Malformed, inconsistent, or unknown configuration input."""


class ValidityError(NoblelineError):
    """Requested operation lies outside the model's validity regime."""


class FitConvergenceError(NoblelineError):
    """A fit failed to converge; carries the last iterate in ``last_params``."""

    def __init__(self, message, last_params=None):
        super().__init__(message)
        self.last_params = last_params


def _require_positive(name, value):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _require_fraction(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class GasCell:
    """Vapor-cell composition and state.

    Parameters
    ----------
    alkali_density : float
        Alkali number density n_a, cm^-3.
    noble_pressure : float
        Noble-gas fill pressure, Torr, quoted at `temperature`.
    temperature : float
        Cell temperature, K.
    alkali_polarization, noble_polarization : float
        Spin polarizations p_a, p_b in [0, 1].
    slowing_factor : float
        Alkali slowing factor q_a; bounded to [4, 6] for nuclear spin 3/2.
    exchange_coefficient : float
        Spin-exchange rate coefficient zeta, cm^3/s, quoted so that
        zeta * density is already in the angular-Hz convention.
    cell_diameter : float
        Optical path length through the cell, cm.
    noble_density : float, optional
        Noble-gas number density n_b, cm^-3. Derived from the ideal-gas law
        at (noble_pressure, temperature) when omitted.
    """

    alkali_density: float
    noble_pressure: float
    temperature: float
    alkali_polarization: float
    noble_polarization: float
    slowing_factor: float
    exchange_coefficient: float
    cell_diameter: float
    noble_density: float | None = None

    def __post_init__(self):
        _require_positive("alkali_density", self.alkali_density)
        _require_positive("noble_pressure", self.noble_pressure)
        _require_positive("temperature", self.temperature)
        _require_positive("exchange_coefficient", self.exchange_coefficient)
        _require_positive("cell_diameter", self.cell_diameter)
        _require_fraction("alkali_polarization", self.alkali_polarization)
        _require_fraction("noble_polarization", self.noble_polarization)
        if not 4.0 <= self.slowing_factor <= 6.0:
            raise ValueError(
                "slowing_factor outside [4, 6], the bound for nuclear spin 3/2: "
                f"{self.slowing_factor!r}"
            )
        if self.noble_density is None:
            object.__setattr__(self, "noble_density", ideal_gas_density(
                self.noble_pressure, self.temperature))
        else:
            _require_positive("noble_density", self.noble_density)


def ideal_gas_density(pressure_torr: float, temperature_k: float) -> float:
    """Ideal-gas number density in cm^-3 from pressure (Torr) and temperature (K)."""
    return pressure_torr * TORR / (BOLTZMANN * temperature_k) * 1e-6


@dataclass(frozen=True)
class OpticalParams:
    """Control/signal beam parameters and the optical coupling they produce.

    The derived trio (`tilt_coeff`, `faraday_coeff`, `scattering_rate`) is
    filled in by :func:`derive_optics`; constructing with them already set is
    allowed for fitted-value runs.
    """

    beam_area: float          # cm^2, effective area inside the cell
    optical_halfwidth: float  # gamma_e, Hz
    optical_detuning: float   # delta_e, Hz, control detuning from line center
    control_power: float      # W at the cell
    photon_energy: float      # J
    optical_depth: float      # on-resonance OD of the vapor
    electron_radius: float = ELECTRON_RADIUS  # cm
    tilt_coeff: float | None = None       # abar, Hz per unit S3 (photon flux)
    faraday_coeff: float | None = None    # alpha, same units as the Stokes flux
    scattering_rate: float | None = None  # gamma'_a = alpha*abar/OD, Hz

    def __post_init__(self):
        _require_positive("beam_area", self.beam_area)
        _require_positive("optical_halfwidth", self.optical_halfwidth)
        _require_positive("control_power", self.control_power)
        _require_positive("photon_energy", self.photon_energy)
        _require_positive("optical_depth", self.optical_depth)
        if self.optical_detuning == 0:
            raise ValueError("optical_detuning must be nonzero")

    @property
    def photon_flux(self) -> float:
        """Control-beam photon flux, photons/s."""
        return self.control_power / self.photon_energy

    def require_derived(self):
        if self.tilt_coeff is None or self.faraday_coeff is None:
            raise ValidityError("optical couplings not derived yet; run derive_optics")


@dataclass(frozen=True)
class MagneticConfig:
    """Bias field and the effective fields the two species exert on each other.

    `alkali_emf` is the field the polarized alkali exerts on the noble gas;
    `noble_emf` is the field the polarized noble gas exerts on the alkali.
    """

    field: float                 # mG
    alkali_gyromagnetic: float   # g_a, Hz/mG
    noble_gyromagnetic: float = HE3_GYROMAGNETIC  # g_b, Hz/mG
    alkali_emf: float = 0.0      # B0_a, mG
    noble_emf: float = 0.0       # B0_b, mG

    def __post_init__(self):
        if self.alkali_gyromagnetic == 0 or self.noble_gyromagnetic == 0:
            raise ValueError("gyromagnetic ratios must be nonzero")


@dataclass(frozen=True)
class SystemParams:
    """Resolved spin-system parameters entering the coupled Bloch equations.

    All rates in angular-Hz. `J` is never stored: it is always the geometric
    mean of the two exchange rates, so the identity J^2 = J_a*J_b holds to
    machine precision by construction.
    """

    omega_a: float   # alkali Larmor frequency
    omega_b: float   # noble-gas Larmor frequency
    gamma_a: float   # alkali transverse relaxation rate
    gamma_b: float   # noble-gas transverse relaxation rate
    exchange_ab: float  # J_a, rate the noble gas imprints on the alkali
    exchange_ba: float  # J_b, rate the alkali imprints on the noble gas
    tilt_coeff: float = 0.0          # abar, Hz per unit S3
    alkali_polarization: float = 1.0  # p_a

    def __post_init__(self):
        if self.gamma_a < 0 or self.gamma_b < 0:
            raise ValueError("relaxation rates must be non-negative")
        if self.exchange_ab * self.exchange_ba < 0:
            raise ValueError("exchange rates must share a sign")
        _require_fraction("alkali_polarization", self.alkali_polarization)

    @property
    def exchange(self) -> float:
        """Hybridization rate J = sqrt(J_a * J_b)."""
        return math.sqrt(self.exchange_ab * self.exchange_ba)

    @property
    def drive_coeff(self) -> float:
        """Prefactor abar * p_a of the drive S3(t) in the alkali equation."""
        return self.tilt_coeff * self.alkali_polarization

    def params_hash(self) -> str:
        import hashlib      # here, as only a run's provenance needs it

        items = tuple((f.name, getattr(self, f.name)) for f in fields(self))
        return hashlib.md5(repr(items).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Detunings:
    """Detunings of the drive from the bare resonances and the hybridized line.

    delta_a = omega - omega_a, delta_b = omega - omega_b, and delta_hybrid is
    delta_b corrected by the frequency pulling the alkali coupling induces.
    """

    delta_a: float
    delta_b: float
    delta_hybrid: float


def derive_larmor(magnetics: MagneticConfig,
                  field: float | None = None) -> tuple[float, float]:
    """Larmor frequencies (omega_a, omega_b) at a bias field.

    omega_a = g_a * (B - B0_b) and omega_b = g_b * (B - B0_a); each species
    precesses in the bias field plus the effective field of the other,
    polarized species. Signs are preserved.
    """
    b = magnetics.field if field is None else field
    omega_a = magnetics.alkali_gyromagnetic * (b - magnetics.noble_emf)
    omega_b = magnetics.noble_gyromagnetic * (b - magnetics.alkali_emf)
    return omega_a, omega_b


def derive_exchange_rates(cell: GasCell) -> tuple[float, float]:
    """Exchange rates (J_a, J_b) from cell composition.

    J_a = q_a * zeta * n_b * p_a / 2 is the rate the noble-gas magnetization
    imprints on the alkali; J_b = zeta * n_a * p_b / 2 the converse (their
    geometric mean is SystemParams.exchange). Already in angular-Hz by the
    convention on zeta.
    """
    j_a = cell.slowing_factor * cell.exchange_coefficient * cell.noble_density \
        * cell.alkali_polarization / 2.0
    j_b = cell.exchange_coefficient * cell.alkali_density \
        * cell.noble_polarization / 2.0
    return j_a, j_b


def derive_optics(optics: OpticalParams, cell: GasCell) -> OpticalParams:
    """Fill in the optical coupling coefficients for a far-detuned control beam.

    tilt_coeff (abar)   = 2 r_e c / (3 q_a A delta_e), Hz per unit S3;
    faraday_coeff (alpha) = d n_a abar A P_c / (4 E_photon);
    scattering_rate (gamma'_a) = alpha * abar / OD.

    Raises ValidityError unless |delta_e| >= 10 * gamma_e (the coefficients
    assume a control beam far outside the pressure-broadened optical line).
    """
    if abs(optics.optical_detuning) < 10.0 * optics.optical_halfwidth:
        raise ValidityError(
            f"optical detuning {optics.optical_detuning:.3g} Hz is inside "
            f"10*optical_halfwidth = {10 * optics.optical_halfwidth:.3g} Hz")
    c_cm = SPEED_OF_LIGHT * 1e2
    abar = 2.0 * optics.electron_radius * c_cm / (
        3.0 * cell.slowing_factor * optics.beam_area * optics.optical_detuning)
    alpha = cell.cell_diameter * cell.alkali_density * abar * optics.beam_area \
        * optics.photon_flux / 4.0
    return replace(optics, tilt_coeff=abar, faraday_coeff=alpha,
                   scattering_rate=alpha * abar / optics.optical_depth)


def exchange_denominator(system: SystemParams,
                         delta_a: float) -> tuple[float, float]:
    """(J^2, delta_a^2 + gamma_a^2) of the line's exchange pull and width;
    ValidityError where the second is zero (gamma_a = 0 on the alkali
    resonance) and the first is not, since both then diverge."""
    j2 = system.exchange_ab * system.exchange_ba
    den = delta_a**2 + system.gamma_a**2
    if den == 0.0 and j2 != 0.0:
        raise ValidityError("undamped alkali (gamma_a = 0) driven on its "
                            "resonance: exchange pull and width diverge")
    return j2, den


def compute_detunings(omega: float, system: SystemParams) -> Detunings:
    """Detunings of a drive at omega, including the pulled-line detuning.

    delta_hybrid = delta_b - J^2 * delta_a / (delta_a^2 + gamma_a^2): the
    alkali coupling pulls the hybridized line center away from the bare
    noble-gas frequency.
    """
    delta_a = omega - system.omega_a
    delta_b = omega - system.omega_b
    j2, den = exchange_denominator(system, delta_a)
    pull = j2 * delta_a / den if den else 0.0
    return Detunings(delta_a=delta_a, delta_b=delta_b, delta_hybrid=delta_b - pull)


def build_system(magnetics: MagneticConfig | None = None,
                 cell: GasCell | None = None,
                 optics: OpticalParams | None = None,
                 overrides: dict | None = None) -> SystemParams:
    """Assemble SystemParams from component configs plus explicit overrides.

    Derivation order: Larmor frequencies from magnetics, exchange rates from
    the cell, tilt coefficient from optics. Any key present in `overrides`
    (omega_a, omega_b, gamma_a, gamma_b, exchange_ab, exchange_ba, exchange,
    tilt_coeff, alkali_polarization) wins over the derived value, so scans can
    run directly on fitted numbers. A bare `exchange` override with no
    derivable J_a/J_b sets a symmetric pair J_a = J_b = J; giving it with
    only one of the two rates, or with both inconsistently, is a
    ConfigError; a rate beyond +-1e100 Hz (_MAX_RATE) is a ValueError.
    """
    overrides = dict(overrides or {})
    values: dict = {}

    gamma_a = overrides.pop("gamma_a", None)
    gamma_b = overrides.pop("gamma_b", None)
    if gamma_a is None or gamma_b is None:
        raise ConfigError("gamma_a and gamma_b are required (no derivation exists)")
    values["gamma_a"] = gamma_a
    values["gamma_b"] = gamma_b

    if magnetics is not None:
        values["omega_a"], values["omega_b"] = derive_larmor(magnetics)
    if cell is not None:
        values["exchange_ab"], values["exchange_ba"] = derive_exchange_rates(cell)
        values["alkali_polarization"] = cell.alkali_polarization
    if optics is not None and optics.tilt_coeff is not None:
        values["tilt_coeff"] = optics.tilt_coeff

    exchange = overrides.pop("exchange", None)
    for f in fields(SystemParams):  # gamma_a and gamma_b are popped above
        if f.name in overrides:
            values[f.name] = overrides.pop(f.name)
    if overrides:
        raise ConfigError(f"unknown system overrides: {sorted(overrides)}")

    if exchange is not None:
        known = [k for k in ("exchange_ab", "exchange_ba") if k in values]
        if len(known) == 1:
            raise ConfigError(
                f"exchange = {exchange} with only {known[0]} known leaves "
                "the other rate open; give both exchange_ab and exchange_ba "
                "or neither")
        if known:
            j_sq = values["exchange_ab"] * values["exchange_ba"]
            if not math.isclose(j_sq, exchange**2, rel_tol=1e-9):
                raise ConfigError(
                    f"exchange = {exchange} conflicts with exchange_ab*exchange_ba "
                    f"= {j_sq} (sqrt {math.sqrt(abs(j_sq)):.6g})")
        else:
            values["exchange_ab"] = values["exchange_ba"] = exchange

    for key in ("omega_a", "omega_b"):
        if key not in values:
            raise ConfigError(f"{key} is neither derivable (no magnetics) nor given")
    values.setdefault("exchange_ab", 0.0)
    values.setdefault("exchange_ba", 0.0)
    for key in ("omega_a", "omega_b", "gamma_a", "gamma_b", "exchange_ab",
                "exchange_ba"):
        if not abs(values[key]) <= _MAX_RATE:
            raise ValueError(f"{key} = {values[key]:g} lies beyond the "
                             f"+-{_MAX_RATE:g} Hz a rate may hold")
    return SystemParams(**values)
