"""Time-domain evolution: integrators, exact solution, protocols."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nobleline.dynamics import (Drive, Segment, SidebandResponse, SpinState,
                                evolve_exact, exact_linear_response,
                                excite_and_readout, integrate_bloch,
                                magnetic_pulse_transient, slow_mode,
                                tilt_state)
from nobleline.model import TWO_PI, SystemParams, ValidityError
from nobleline.signals import heterodyne_extract
from nobleline.spectrum import alkali_coherence, line_center, noble_coherence


@pytest.fixture(scope="module")
def preset_system():
    from nobleline.config import load_config, preset_path

    return load_config(preset_path()).system


def fast_system(**overrides) -> SystemParams:
    """Small, stiff-free parameters keeping the rk integrators cheap."""
    values = dict(omega_a=300.0, omega_b=30.0, gamma_a=20.0, gamma_b=0.5,
                  exchange_ab=8.0, exchange_ba=2.0, tilt_coeff=1.0,
                  alkali_polarization=1.0)
    values.update(overrides)
    return SystemParams(**values)


def test_spin_state_round_trip():
    s = SpinState(1.0, -2.0, 3.0, -4.0)
    assert s.f == 1.0 - 2.0j and s.r == 3.0 - 4.0j
    assert SpinState.from_complex(s.f, s.r) == s
    assert np.array_equal(s.as_array(), [1.0, -2.0, 3.0, -4.0])


def test_tilt_state_geometry():
    s = tilt_state(2.0, phase=math.pi / 2)
    assert s.r_x == pytest.approx(0.0, abs=1e-15)
    assert s.r_y == pytest.approx(2.0, rel=1e-15)
    assert s.f_x == s.f_y == 0.0


def test_decoupled_free_precession_analytic():
    # J = 0: F(t) = e^{-2 pi gamma t} (cos, -sin) of 2 pi omega t
    sys = fast_system(exchange_ab=0.0, exchange_ba=0.0)
    traj = integrate_bloch(sys, Drive(), (0.0, 0.2),
                           initial=SpinState(f_x=1.0), rtol=1e-11, atol=1e-13,
                           sample_rate=64.0 * sys.omega_a)
    env = np.exp(-TWO_PI * sys.gamma_a * traj.times)
    arg = TWO_PI * sys.omega_a * traj.times
    assert np.allclose(traj.f_x, env * np.cos(arg), atol=1e-8)
    assert np.allclose(traj.f_y, -env * np.sin(arg), atol=1e-8)
    assert np.allclose(traj.r_x, 0.0, atol=1e-12)


def test_exact_matches_adaptive_integration():
    sys = fast_system()
    drive_omega = 31.0
    seg = Segment(duration=0.5, amplitude=0.7 - 0.2j, omega=drive_omega)
    initial = SpinState(0.1, -0.2, 0.3, 0.05)
    exact = evolve_exact(sys, [seg], initial, sample_rate=2048.0)
    drive = Drive(kind="harmonic", amplitude=0.7 - 0.2j, omega=drive_omega)
    rk = integrate_bloch(sys, drive, (0.0, 0.5), initial=initial,
                         rtol=1e-11, atol=1e-13, t_eval=exact.times)
    for name in ("f_x", "f_y", "r_x", "r_y"):
        assert np.allclose(getattr(exact, name), getattr(rk, name),
                           atol=2e-8), name


def test_exact_ramp_matches_adaptive_integration():
    # raised-cosine edges: the substep expansion must keep the drive phase
    # continuous, otherwise the excitation misses badly
    sys = fast_system()
    pulse, ramp = 0.4, 0.1
    amp, omega = 1.0 + 0.0j, 30.0
    seg = Segment(duration=pulse, amplitude=amp, omega=omega, ramp=ramp)
    exact = evolve_exact(sys, [seg], SpinState())
    drive = Drive(kind="pulse", amplitude=amp, omega=omega, t_on=0.0,
                  t_off=pulse, ramp=ramp)
    rk = integrate_bloch(sys, drive, (0.0, pulse), rtol=1e-11, atol=1e-13,
                         t_eval=np.array([pulse]))
    r_exact = exact.final_state.r
    r_rk = rk.final_state.r
    assert abs(r_exact - r_rk) <= 2e-4 * abs(r_rk)


def test_unknown_integrator_rejected():
    for method in ("euler", "rk4"):
        with pytest.raises(ValidityError):
            integrate_bloch(fast_system(), Drive(), (0.0, 0.1), method=method)


def test_drive_envelope_and_value():
    d = Drive(kind="pulse", amplitude=2.0 - 1.0j, omega=3.0, t_on=1.0,
              t_off=3.0, ramp=0.5)
    assert d.envelope(0.5) == 0.0
    assert d.envelope(2.0) == 1.0
    assert d.envelope(1.25) == pytest.approx(0.5)   # mid-ramp
    assert d.envelope(2.75) == pytest.approx(0.5)
    # full-envelope value equals the spectral convention Re[X e^{-2pi i w t}]
    t = 2.0
    expect = (2.0 * math.cos(TWO_PI * 3.0 * t)
              - 1.0 * math.sin(TWO_PI * 3.0 * t))
    assert d.value(t) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        Drive(kind="chirp")
    with pytest.raises(ValueError):
        Drive(kind="pulse", t_on=0.0, t_off=1.0, ramp=0.6)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(duration=0.0)
    with pytest.raises(ValueError):
        Segment(duration=1.0, ramp=0.6)


def test_exact_linear_response_decoupled_closed_form():
    sys = fast_system(exchange_ab=0.0, exchange_ba=0.0)
    omega, s3 = 31.0, 0.8 + 0.3j
    resp = exact_linear_response(sys, s3, omega)
    f_expect = 1j * sys.drive_coeff * s3 / complex(sys.gamma_a,
                                                   -(omega - sys.omega_a))
    assert resp.f_plus == pytest.approx(f_expect, rel=1e-14)
    assert resp.r_plus == 0.0
    f_minus_expect = 1j * sys.drive_coeff * np.conj(s3) / complex(
        sys.gamma_a, omega + sys.omega_a)
    assert resp.f_minus == pytest.approx(f_minus_expect, rel=1e-14)


def test_exact_linear_response_matches_coherence_formulas(preset_system):
    # co-rotating amplitudes vs the closed-form response, which neglects the
    # counter-rotating feedback of relative size ~ (gamma_a + J)/|w + w_a|
    sys = preset_system
    omega = line_center(sys)
    resp = exact_linear_response(sys, 1.0 + 0.0j, omega)
    f_formula = alkali_coherence(1.0, omega, sys)
    r_formula = noble_coherence(1.0, omega, sys)
    tol = (sys.gamma_a + sys.exchange) / abs(omega + sys.omega_a)
    assert abs(resp.f_plus - f_formula) <= tol * abs(f_formula)
    assert abs(resp.r_plus - r_formula) <= tol * abs(r_formula)


def test_exact_linear_response_singular_raises():
    sys = SystemParams(omega_a=100.0, omega_b=100.0, gamma_a=0.0,
                       gamma_b=0.0, exchange_ab=5.0, exchange_ba=5.0,
                       tilt_coeff=1.0)
    with pytest.raises(ValidityError):
        exact_linear_response(sys, 1.0, 105.0)


def test_evolve_exact_particular_singular_raises():
    sys = SystemParams(omega_a=100.0, omega_b=100.0, gamma_a=0.0,
                       gamma_b=0.0, exchange_ab=5.0, exchange_ba=5.0,
                       tilt_coeff=1.0)
    with pytest.raises(ValidityError):
        evolve_exact(sys, [Segment(duration=1.0, amplitude=1.0 + 0.0j,
                                   omega=105.0)], SpinState())


def test_sideband_state_matches_settled_trajectory():
    sys = fast_system()
    omega, s3 = 30.5, 1.0 + 0.0j
    resp = exact_linear_response(sys, s3, omega)
    # settle by exact evolution, then compare pointwise
    t_settle = 20.0 / (TWO_PI * 0.5)  # 20 e-folds of the slowest mode
    traj = evolve_exact(sys, [Segment(duration=t_settle + 0.2,
                                      amplitude=s3, omega=omega)],
                        SpinState(), sample_rate=4096.0)
    mask = traj.times > t_settle
    for i in np.flatnonzero(mask)[::50]:
        expect = resp.state_at(traj.times[i])
        assert traj.f_x[i] == pytest.approx(expect.f_x, abs=1e-9)
        assert traj.r_y[i] == pytest.approx(expect.r_y, abs=1e-9)


def test_demodulated_pair_recovers_co_rotating_amplitude(preset_system):
    # Z_x + i Z_y from the (F_x, F_y) records equals f_plus exactly; the
    # counter-rotating leakage cancels in the pair. Unit tilt coefficient
    # keeps the response O(1) against the integrator's absolute tolerance.
    sys = replace(preset_system, tilt_coeff=1.0)
    omega = line_center(sys)
    resp = exact_linear_response(sys, 1.0 + 0.0j, omega)
    window = 8.0 / omega
    rate = 64.0 * sys.omega_a
    drive = Drive(kind="harmonic", amplitude=1.0 + 0.0j, omega=omega)
    traj = integrate_bloch(sys, drive, (0.0, window),
                           initial=SpinState.from_complex(
                               resp.state_at(0.0).f, resp.state_at(0.0).r),
                           rtol=1e-11, atol=1e-14, sample_rate=rate)
    z_x = heterodyne_extract(traj.times, traj.f_x, omega).z
    z_y = heterodyne_extract(traj.times, traj.f_y, omega).z
    demod = z_x + 1j * z_y
    assert abs(demod - resp.f_plus) <= 1e-6 * abs(resp.f_plus)


def test_slow_mode_reference(preset_system):
    decay, freq = slow_mode(preset_system)
    assert decay == pytest.approx(0.004501617998440191, rel=1e-12)
    assert freq == pytest.approx(19.7901495542263, rel=1e-12)


def test_excite_and_readout_engines_agree():
    # the adaptive integrator driven by the same gated pulse is the reference
    sys = fast_system()
    omega = line_center(sys)
    exact = excite_and_readout(sys, omega, s3_amplitude=1.0 + 0.0j,
                               pulse_efolds=2.0, dead_efolds=4.0)
    start = exact.pulse_duration + exact.dead_time
    drive = Drive(kind="pulse", amplitude=1.0 + 0.0j, omega=omega, t_on=0.0,
                  t_off=exact.pulse_duration)
    rk = integrate_bloch(sys, drive, (0.0, start), rtol=1e-11,
                         t_eval=np.array([start]))
    r_end = rk.final_state.r
    assert exact.amplitude == pytest.approx(abs(r_end), rel=1e-6)
    assert exact.r_end == pytest.approx(r_end, rel=1e-5)


def test_excite_defaults_to_line_center(preset_system):
    res = excite_and_readout(preset_system, pulse_efolds=1.0,
                             dead_efolds=2.0)
    assert res.omega == pytest.approx(line_center(preset_system), rel=1e-12)
    assert res.amplitude > 0


def test_magnetic_pulse_transient_recovers_slow_mode(preset_system):
    res = magnetic_pulse_transient(preset_system, observe_efolds=2.0)
    assert res.fit.decay_rate == pytest.approx(res.predicted_decay, rel=1e-6)
    assert res.fit.frequency == pytest.approx(res.predicted_frequency,
                                              rel=1e-10)
    # closed-form width agrees with the eigenmode decay to first order
    assert res.formula_decay == pytest.approx(res.predicted_decay, rel=1e-3)
    # amplitude linearity in the tilt
    res2 = magnetic_pulse_transient(preset_system, tilt_amplitude=2.0,
                                    observe_efolds=2.0)
    assert res2.fit.amplitude == pytest.approx(2 * res.fit.amplitude,
                                               rel=1e-9)


def test_magnetic_pulse_transient_fits_the_noisy_record(preset_system):
    with pytest.raises(ValidityError):
        magnetic_pulse_transient(preset_system, noise_sigma=0.01)
    clean = magnetic_pulse_transient(preset_system, observe_efolds=1.0)
    noisy = magnetic_pulse_transient(preset_system, observe_efolds=1.0,
                                     noise_sigma=0.01,
                                     rng=np.random.default_rng(7))
    # the noise lands on the stored R_x only, and the one fit runs on it
    assert np.array_equal(noisy.trajectory.r_y, clean.trajectory.r_y)
    assert noisy.fit.residual_rms == pytest.approx(0.01, rel=0.05)
    assert noisy.fit.decay_rate == pytest.approx(clean.fit.decay_rate,
                                                 rel=0.05)


@settings(max_examples=50, deadline=None)
@given(omega_a=st.floats(1000.0, 5000.0), omega_b=st.floats(20.0, 100.0),
       gamma_a=st.floats(5.0, 30.0), gamma_b=st.floats(0.5, 5.0),
       j=st.floats(1.0, 15.0), ratio=st.floats(0.5, 2.0),
       detuning=st.floats(-5.0, 5.0), phase=st.floats(-math.pi, math.pi))
def test_exact_linear_response_within_rotating_wave_bound(
        omega_a, omega_b, gamma_a, gamma_b, j, ratio, detuning, phase):
    # perturbative systems: the exact co-rotating amplitudes differ from the
    # rotating-frame formulas by at most (gamma_a + J)/|omega + omega_a|
    sys = fast_system(omega_a=omega_a, omega_b=omega_b, gamma_a=gamma_a,
                      gamma_b=gamma_b, exchange_ab=j * ratio,
                      exchange_ba=j / ratio)
    omega = omega_b + detuning
    s3 = complex(math.cos(phase), math.sin(phase))
    resp = exact_linear_response(sys, s3, omega)
    bound = (gamma_a + sys.exchange) / abs(omega + sys.omega_a)
    for exact, formula in ((resp.f_plus, alkali_coherence(s3, omega, sys)),
                           (resp.r_plus, noble_coherence(s3, omega, sys))):
        assert abs(exact - formula) <= bound * abs(formula)
