"""Parameter-model derivations against independently computed values."""

import math

import numpy as np
import pytest

from nobleline import model
from nobleline.model import (ConfigError, Detunings, GasCell, MagneticConfig,
                             OpticalParams, SystemParams, ValidityError,
                             build_system, compute_detunings,
                             derive_exchange_rates, derive_larmor,
                             derive_optics, ideal_gas_density)

REFERENCE_CELL = dict(
    alkali_density=8.5e13, noble_pressure=1500.0, temperature=460.0,
    alkali_polarization=0.70, noble_polarization=0.005564524918093501,
    slowing_factor=4.7, exchange_coefficient=4e-15, cell_diameter=1.4)

REFERENCE_OPTICS = dict(
    beam_area=0.16659902241783633, optical_halfwidth=12.5e9,
    optical_detuning=5.0e11, control_power=0.025,
    photon_energy=2.579799814479128e-19, optical_depth=27.0,
    electron_radius=2.8e-13)

REFERENCE_MAGNETICS = dict(
    field=6.1, alkali_gyromagnetic=592.0,
    noble_gyromagnetic=3.259016393442623, alkali_emf=0.0,
    noble_emf=2.3837837837837834)


def reference_system() -> SystemParams:
    cell = GasCell(**REFERENCE_CELL)
    mag = MagneticConfig(**REFERENCE_MAGNETICS)
    return build_system(magnetics=mag, cell=cell,
                        overrides={"gamma_a": 51.0, "gamma_b": 2.4e-3})


def test_si_constants_match_scipy():
    from scipy import constants

    assert model.PLANCK == constants.h
    assert model.SPEED_OF_LIGHT == constants.c
    assert model.BOLTZMANN == constants.k
    assert model.TORR == constants.torr
    assert model.ELECTRON_RADIUS == constants.value(
        "classical electron radius") * 1e2


def test_ideal_gas_density_reference_fill():
    # 1500 Torr at 460 K
    assert ideal_gas_density(1500.0, 460.0) == pytest.approx(
        3.1488586421813993e19, rel=1e-12)


def test_gas_cell_derives_noble_density():
    cell = GasCell(**REFERENCE_CELL)
    assert cell.noble_density == pytest.approx(3.1488586421813993e19,
                                               rel=1e-12)
    explicit = GasCell(**{**REFERENCE_CELL, "noble_density": 1e19})
    assert explicit.noble_density == 1e19


@pytest.mark.parametrize("key,value", [
    ("alkali_density", -1.0),
    ("noble_pressure", 0.0),
    ("temperature", -300.0),
    ("alkali_polarization", 1.5),
    ("noble_polarization", -0.1),
    ("slowing_factor", 3.9),
    ("slowing_factor", 6.1),
    ("exchange_coefficient", 0.0),
    ("cell_diameter", -2.0),
])
def test_gas_cell_rejects_bad_values(key, value):
    with pytest.raises(ValueError):
        GasCell(**{**REFERENCE_CELL, key: value})


def test_exchange_rates_reference_values():
    j_a, j_b = derive_exchange_rates(GasCell(**REFERENCE_CELL))
    assert j_a == pytest.approx(207194.8986555361, rel=1e-12)
    assert j_b == pytest.approx(0.0009459692360758952, rel=1e-12)
    assert reference_system().exchange == pytest.approx(14.0, rel=1e-12)


def test_exchange_identity_holds_to_machine_precision():
    rng = np.random.default_rng(7)
    for _ in range(50):
        j_a = float(10 ** rng.uniform(-4, 6))
        j_b = float(10 ** rng.uniform(-6, 2))
        sys = SystemParams(omega_a=1e3, omega_b=10.0, gamma_a=1.0,
                           gamma_b=0.1, exchange_ab=j_a, exchange_ba=j_b)
        assert sys.exchange ** 2 == pytest.approx(j_a * j_b, rel=4e-16)


def test_larmor_reference_values():
    mag = MagneticConfig(**REFERENCE_MAGNETICS)
    omega_a, omega_b = derive_larmor(mag)
    assert omega_a == pytest.approx(2200.0, rel=1e-12)
    assert omega_b == pytest.approx(19.88, rel=1e-12)
    # at the 10.7 mG sweep anchor
    omega_a7, omega_b7 = derive_larmor(mag, field=10.7)
    assert omega_a7 == pytest.approx(4923.2, rel=1e-12)
    assert omega_b7 == pytest.approx(34.87147540983606, rel=1e-12)


def test_optics_reference_values():
    optics = derive_optics(OpticalParams(**REFERENCE_OPTICS),
                           GasCell(**REFERENCE_CELL))
    assert optics.tilt_coeff == pytest.approx(1.429378233003323e-14, rel=1e-9)
    assert optics.faraday_coeff == pytest.approx(6865316830668601.0, rel=1e-9)
    assert optics.scattering_rate == pytest.approx(3.634494237195948,
                                                   rel=1e-9)
    # photon flux of 25 mW at the stored photon energy
    assert optics.photon_flux == pytest.approx(9.690674392519717e16, rel=1e-9)


def test_optics_requires_far_detuned_control():
    close = {**REFERENCE_OPTICS, "optical_detuning": 5.0e10}  # 4 half-widths
    with pytest.raises(ValidityError):
        derive_optics(OpticalParams(**close), GasCell(**REFERENCE_CELL))


def test_detunings_at_bare_noble_frequency():
    sys = reference_system()
    d = compute_detunings(sys.omega_b, sys)
    assert isinstance(d, Detunings)
    assert d.delta_b == 0.0
    assert d.delta_a == pytest.approx(-2180.12, rel=1e-12)
    # the pulled detuning is nonzero on the bare resonance
    assert d.delta_hybrid == pytest.approx(0.08985413610261943, rel=1e-9)


def test_build_system_reference_resolution():
    sys = reference_system()
    assert sys.omega_a == pytest.approx(2200.0, rel=1e-12)
    assert sys.omega_b == pytest.approx(19.88, rel=1e-12)
    assert sys.exchange == pytest.approx(14.0, rel=1e-12)
    assert sys.alkali_polarization == 0.70
    assert sys.gamma_a == 51.0 and sys.gamma_b == 2.4e-3


def test_build_system_requires_gammas_and_frequencies():
    with pytest.raises(ConfigError):
        build_system(overrides={"omega_a": 100.0, "omega_b": 10.0})
    with pytest.raises(ConfigError):
        build_system(overrides={"gamma_a": 1.0, "gamma_b": 0.1})


def test_build_system_overrides_win():
    cell = GasCell(**REFERENCE_CELL)
    mag = MagneticConfig(**REFERENCE_MAGNETICS)
    sys = build_system(magnetics=mag, cell=cell, overrides={
        "gamma_a": 51.0, "gamma_b": 2.4e-3, "omega_b": 21.0,
        "exchange_ab": 100.0, "exchange_ba": 1.0})
    assert sys.omega_b == 21.0
    assert sys.exchange == pytest.approx(10.0, rel=1e-15)


def test_build_system_symmetric_exchange_fallback():
    sys = build_system(overrides={"gamma_a": 1.0, "gamma_b": 0.1,
                                  "omega_a": 1e3, "omega_b": 10.0,
                                  "exchange": 5.0})
    assert sys.exchange_ab == 5.0 and sys.exchange_ba == 5.0


def test_build_system_rejects_conflicting_exchange():
    cell = GasCell(**REFERENCE_CELL)
    with pytest.raises(ConfigError):
        build_system(cell=cell, overrides={
            "gamma_a": 1.0, "gamma_b": 0.1, "omega_a": 1e3, "omega_b": 10.0,
            "exchange": 99.0})


def test_build_system_rejects_exchange_with_one_rate():
    # exchange with one known rate fixes the other as exchange**2 / rate;
    # rather than guess, refuse and name both rates
    for rate in ("exchange_ab", "exchange_ba"):
        with pytest.raises(ConfigError) as err:
            build_system(overrides={"gamma_a": 1.0, "gamma_b": 0.1,
                                    "omega_a": 1e3, "omega_b": 10.0,
                                    "exchange": 14.0, rate: 20.0})
        assert "exchange_ab" in str(err.value)
        assert "exchange_ba" in str(err.value)


def test_build_system_rejects_unknown_override():
    with pytest.raises(ConfigError):
        build_system(overrides={"gamma_a": 1.0, "gamma_b": 0.1,
                                "omega_a": 1.0, "omega_b": 1.0,
                                "coupling": 3.0})


def test_params_hash_tracks_values():
    a = reference_system()
    b = reference_system()
    assert a.params_hash() == b.params_hash()
    c = SystemParams(omega_a=a.omega_a, omega_b=a.omega_b, gamma_a=52.0,
                     gamma_b=a.gamma_b, exchange_ab=a.exchange_ab,
                     exchange_ba=a.exchange_ba)
    assert c.params_hash() != a.params_hash()


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega_a=1.0, omega_b=1.0, gamma_a=-1.0, gamma_b=0.0,
                     exchange_ab=0.0, exchange_ba=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega_a=1.0, omega_b=1.0, gamma_a=1.0, gamma_b=0.0,
                     exchange_ab=1.0, exchange_ba=-1.0)
