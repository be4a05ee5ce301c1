"""Time-domain evolution: integrators, exact solution, protocols."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bloch_oracle import integrate_bloch, segment_drive
from nobleline.dynamics import (MAX_WIDTH_GAP, RAMP_SUBSTEPS, Segment,
                                SidebandResponse, _Modes, check_width_gap,
                                evolve_exact, exact_linear_response,
                                excite_and_readout, magnetic_pulse_transient,
                                slow_mode, tilt_state, width_gap)
from nobleline.model import TWO_PI, SystemParams, ValidityError, derive_larmor
from nobleline.signals import heterodyne_extract
from nobleline.spectrum import (alkali_coherence, hybrid_linewidth,
                                line_center, noble_coherence)


@pytest.fixture(scope="module")
def preset_bundle():
    from nobleline.config import load_config, preset_path

    return load_config(preset_path())


@pytest.fixture(scope="module")
def preset_system(preset_bundle):
    return preset_bundle.system


@pytest.fixture(scope="module")
def preset_magnetics(preset_bundle):
    return preset_bundle.magnetics


def fast_system(**overrides) -> SystemParams:
    """Small, stiff-free parameters keeping the adaptive integrator cheap."""
    values = dict(omega_a=300.0, omega_b=30.0, gamma_a=20.0, gamma_b=0.5,
                  exchange_ab=8.0, exchange_ba=2.0, tilt_coeff=1.0,
                  alkali_polarization=1.0)
    values.update(overrides)
    return SystemParams(**values)


def test_tilt_state_geometry():
    f, r = tilt_state(2.0, phase=math.pi / 2)
    assert r.real == pytest.approx(0.0, abs=1e-15)
    assert r.imag == pytest.approx(2.0, rel=1e-15)
    assert f.real == f.imag == 0.0


def test_decoupled_free_precession_analytic():
    # J = 0: F(t) = e^{-2 pi gamma t} (cos, -sin) of 2 pi omega t
    sys = fast_system(exchange_ab=0.0, exchange_ba=0.0)
    traj = integrate_bloch(sys, [Segment(duration=0.2)],
                           initial=(1.0 + 0j, 0j), rtol=1e-11, atol=1e-13,
                           sample_rate=64.0 * sys.omega_a)
    env = np.exp(-TWO_PI * sys.gamma_a * traj.times)
    arg = TWO_PI * sys.omega_a * traj.times
    assert np.allclose(traj.f.real, env * np.cos(arg), atol=1e-8)
    assert np.allclose(traj.f.imag, -env * np.sin(arg), atol=1e-8)
    assert np.allclose(traj.r.real, 0.0, atol=1e-12)


def test_exact_matches_adaptive_integration():
    # one driven segment, then two at different amplitudes and frequencies,
    # which checks that both engines refer each segment's phase to its start
    sys = fast_system()
    initial = (0.1 - 0.2j, 0.3 + 0.05j)
    first = Segment(duration=0.5, amplitude=0.7 - 0.2j, omega=31.0)
    second = Segment(duration=0.3, amplitude=-0.4 + 0.9j, omega=28.5)
    for segments in ([first], [first, second]):
        exact = evolve_exact(sys, segments, initial, sample_rate=2048.0)
        rk = integrate_bloch(sys, segments, initial=initial,
                             rtol=1e-11, atol=1e-13, t_eval=exact.times)
        for name in ("f", "r"):
            ours, ref = getattr(exact, name), getattr(rk, name)
            for part in (np.real, np.imag):
                assert np.allclose(part(ours), part(ref), atol=2e-8), \
                    (len(segments), name)


def test_exact_ramp_matches_adaptive_integration():
    # raised-cosine edges: the substep expansion must keep the drive phase
    # continuous, otherwise the excitation misses badly
    sys = fast_system()
    pulse, ramp = 0.4, 0.1
    amp, omega = 1.0 + 0.0j, 30.0
    segments = [Segment(duration=pulse, amplitude=amp, omega=omega,
                        ramp=ramp)]
    exact = evolve_exact(sys, segments, (0j, 0j))
    rk = integrate_bloch(sys, segments, rtol=1e-11, atol=1e-13,
                         t_eval=np.array([pulse]))
    _, r_exact = exact.final_state
    _, r_rk = rk.final_state
    assert abs(r_exact - r_rk) <= 2e-4 * abs(r_rk)


def test_drive_envelope_and_value():
    # 0.1 s dead, then a 2 s pulse with 0.5 s raised-cosine edges whose phase
    # is referred to its own start t0: S3 = env * Re[X e^{-2pi i w (t - t0)}]
    s3 = segment_drive([Segment(duration=0.1),
                        Segment(duration=2.0, amplitude=2.0 - 1.0j,
                                omega=3.0, ramp=0.5)])
    assert s3(0.05) == 0.0
    assert s3(0.1) == 0.0                          # edges start from zero
    assert s3(0.35) == pytest.approx(0.5)          # mid-ramp: 0.5 * 1
    assert s3(1.85) == pytest.approx(-0.5)         # mid-ramp: 0.5 * -1
    for tau in (0.6, 1.0, 1.3):                    # full envelope
        expect = (2.0 * math.cos(TWO_PI * 3.0 * tau)
                  - 1.0 * math.sin(TWO_PI * 3.0 * tau))
        assert s3(0.1 + tau) == pytest.approx(expect, rel=1e-12)


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
                                   omega=105.0)], (0j, 0j))
    with pytest.raises(ValidityError):
        evolve_exact(sys, [Segment(duration=1.0, amplitude=1.0 + 0.0j,
                                   omega=105.0, ramp=0.2)], (0j, 0j))
    # one driven entry is enough to raise; an undriven block has no response
    modes = _Modes(sys)
    with pytest.raises(ValidityError):
        modes.particular([[0.0], [0.0j], [1e-3]], 105.0)
    for u in modes.particular([[0.0], [0.0j]], 105.0):
        assert u.shape == (2, 1, 2) and not u.any()


def _solve_one(modes, amplitude, omega):
    """The particular solution of one amplitude by two plain solves."""
    if amplitude == 0:
        return np.zeros(2, dtype=complex), np.zeros(2, dtype=complex)
    w = TWO_PI * omega
    d_plus = np.array([1j * TWO_PI * modes.drive_coeff * amplitude / 2.0,
                       0.0])
    d_minus = np.array([1j * TWO_PI * modes.drive_coeff
                        * np.conj(amplitude) / 2.0, 0.0])
    return (np.linalg.solve(modes.matrix + 1j * w * np.eye(2), -d_plus),
            np.linalg.solve(modes.matrix - 1j * w * np.eye(2), -d_minus))


def test_particular_batch_matches_one_solve_per_amplitude():
    # a (K, P) block of substeps over distinct frequencies: one solve per
    # frequency against K right-hand sides must keep each entry's bits. A
    # drive coefficient other than 1 makes the rounding order matter; the
    # third frequency is undriven in every substep
    modes = _Modes(fast_system(tilt_coeff=0.37, alkali_polarization=0.7))
    omegas = np.array([31.0, 27.25, 40.0, -12.5])
    amps = np.array([[0.0, 0.7, 0.0, -0.3 + 0.4j],
                     [2.5e-4j, 0.0j, 0.0, 1.0 + 0.0j],
                     [-0.9 - 1e-3j, 1e-300 - 3.0j, 0.0j, 0.0],
                     [0.5 - 0.0j, -2.0 + 1e5j, 0.0, 7e-9 + 7e-9j],
                     [0.0, 0.0, 0.0j, 0.0j]])
    u_plus, u_minus = modes.particular(amps, omegas)
    assert u_plus.shape == u_minus.shape == (*amps.shape, 2)
    for (k, p), amp in np.ndenumerate(amps):
        plus, minus = _solve_one(modes, amp, omegas[p])
        assert u_plus[k, p].tobytes() == plus.tobytes(), (k, p)
        assert u_minus[k, p].tobytes() == minus.tobytes(), (k, p)
    undriven = amps == 0
    for u in (u_plus, u_minus):
        assert not u[undriven].any() and not np.signbit(u[undriven].real).any()
        assert not np.signbit(u[undriven].imag).any()


def _substeps(seg):
    """(duration, amplitude, offset) of each constant-amplitude stretch of
    seg: a midpoint-sampled raised-cosine edge of RAMP_SUBSTEPS steps, the
    flat top unless it is empty, and the falling edge."""
    if seg.ramp == 0.0:
        yield seg.duration, seg.amplitude, 0.0
        return
    h = seg.ramp / RAMP_SUBSTEPS
    for k in range(RAMP_SUBSTEPS):
        env = 0.5 * (1.0 - math.cos(math.pi * (k + 0.5) / RAMP_SUBSTEPS))
        yield h, seg.amplitude * env, k * h
    flat = seg.duration - 2.0 * seg.ramp
    if flat > 0:
        yield flat, seg.amplitude, seg.ramp
    for k in range(RAMP_SUBSTEPS):
        env = 0.5 * (1.0 + math.cos(math.pi * (k + 0.5) / RAMP_SUBSTEPS))
        yield h, seg.amplitude * env, seg.duration - seg.ramp + k * h


def _evolve_per_substep(system, segments, initial, sample_rate):
    """evolve_exact written out one constant-amplitude stretch at a time,
    each with its own solve, sample grid and exponentials."""
    modes = _Modes(system)
    state = np.array(initial, dtype=complex)
    ts_out, ys_out, t_base = [np.array([0.0])], [state[None, :].copy()], 0.0
    for seg in segments:
        omega = seg.omega
        for dur, amp, offset in _substeps(seg):
            if offset:
                amp = amp * np.exp(-1j * TWO_PI * omega * offset)
            u_plus, u_minus = _solve_one(modes, amp, omega)
            w = TWO_PI * omega
            coeffs = modes.inverse @ (state - (u_plus + u_minus))
            if sample_rate and dur * sample_rate >= 2.0:
                n = int(math.floor(dur * sample_rate))
                t_loc = np.arange(1, n + 1) / sample_rate
                if t_loc[-1] < dur:
                    t_loc = np.append(t_loc, dur)
                else:
                    t_loc[-1] = dur
            else:
                t_loc = np.array([dur])
            decay = np.exp(np.outer(t_loc, modes.eigvals))
            ys = decay * coeffs[np.newaxis, :] @ modes.vectors.T
            if amp != 0:
                ys += (np.exp(-1j * w * t_loc)[:, None] * u_plus[None, :]
                       + np.exp(1j * w * t_loc)[:, None] * u_minus[None, :])
            state = ys[-1].copy()
            ts_out.append(t_base + t_loc)
            ys_out.append(ys)
            t_base += dur
    return np.concatenate(ts_out), np.concatenate(ys_out, axis=0)


@pytest.mark.parametrize("sample_rate", [None, 2048.0])
def test_ramped_evolution_matches_per_substep_loop(sample_rate):
    # the batched solve and the grids shared by equal-length substeps must
    # reproduce the stretch-by-stretch evolution bit for bit; the second
    # pulse is all edge, with no flat stretch between its ramps
    sys = fast_system(tilt_coeff=0.37, alkali_polarization=0.7)
    segments = [Segment(duration=0.4, amplitude=0.7 - 0.2j, omega=31.0,
                        ramp=0.1),
                Segment(duration=0.05),
                Segment(duration=0.3, amplitude=-0.4 + 0.9j, omega=28.5,
                        ramp=0.15)]
    initial = (0.1 - 0.2j, 0.3 + 0.05j)
    traj = evolve_exact(sys, segments, initial, sample_rate=sample_rate)
    times, ys = _evolve_per_substep(sys, segments, initial, sample_rate)
    assert traj.times.tobytes() == times.tobytes()
    for name, column in (("f", ys[:, 0]), ("r", ys[:, 1])):
        assert getattr(traj, name).tobytes() == column.tobytes(), name


def test_sideband_state_matches_settled_trajectory():
    sys = fast_system()
    omega, s3 = 30.5, 1.0 + 0.0j
    resp = exact_linear_response(sys, s3, omega)
    # settle by exact evolution, then compare pointwise
    t_settle = 20.0 / (TWO_PI * 0.5)  # 20 e-folds of the slowest mode
    traj = evolve_exact(sys, [Segment(duration=t_settle + 0.2,
                                      amplitude=s3, omega=omega)],
                        (0j, 0j), sample_rate=4096.0)
    mask = traj.times > t_settle
    for i in np.flatnonzero(mask)[::50]:
        f, r = resp.state_at(traj.times[i])
        assert traj.f[i].real == pytest.approx(f.real, abs=1e-9)
        assert traj.r[i].imag == pytest.approx(r.imag, abs=1e-9)


def test_demodulated_pair_recovers_co_rotating_amplitude(preset_system):
    # Z_x + i Z_y from the (F_x, F_y) records equals f_plus exactly; the
    # counter-rotating leakage cancels in the pair. Unit tilt coefficient
    # keeps the response O(1) against the integrator's absolute tolerance.
    sys = replace(preset_system, tilt_coeff=1.0)
    omega = line_center(sys)
    resp = exact_linear_response(sys, 1.0 + 0.0j, omega)
    window = 8.0 / omega
    rate = 64.0 * sys.omega_a
    traj = integrate_bloch(sys, [Segment(duration=window,
                                         amplitude=1.0 + 0.0j, omega=omega)],
                           initial=resp.state_at(0.0),
                           rtol=1e-11, atol=1e-14, sample_rate=rate)
    z_x = heterodyne_extract(traj.times, traj.f.real, omega)
    z_y = heterodyne_extract(traj.times, traj.f.imag, omega)
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
    (exact,) = excite_and_readout(sys, [omega], s3_amplitude=1.0 + 0.0j,
                                  pulse_efolds=2.0, dead_efolds=4.0)
    pulse = 2.0 / (TWO_PI * hybrid_linewidth(sys, omega - sys.omega_a))
    segments = [Segment(duration=pulse, amplitude=1.0 + 0.0j, omega=omega),
                Segment(duration=4.0 / (TWO_PI * sys.gamma_a))]
    rk = integrate_bloch(sys, segments, rtol=1e-11)
    _, r_end = rk.final_state
    assert abs(exact) == pytest.approx(abs(r_end), rel=1e-6)
    assert exact == pytest.approx(r_end, rel=1e-5)


@pytest.mark.parametrize("ramp_share", [0.0, 0.3, 0.5],
                         ids=["no-ramp", "ramped", "empty-flat-top"])
def test_excite_scan_matches_one_evolution_per_point(ramp_share):
    # one evolution carries every grid point through each stretch; each
    # readout must keep the bits of that point's own evolve_exact run. The
    # drive coefficient is not 1, every point has its own pulse length, and
    # at ramp_share 0.5 the shortest pulse is all edge (no flat top)
    sys = fast_system(tilt_coeff=0.37, alkali_polarization=0.7)
    center = line_center(sys)
    omegas = center + np.array([-41.0, -9.5, -2.0, 0.0, 1.5, 7.0, 3.0])
    s3, pulse_efolds, dead_efolds = 0.6 - 0.3j, 0.5, 3.0
    pulses = [pulse_efolds / (TWO_PI * hybrid_linewidth(sys, o - sys.omega_a))
              for o in omegas.tolist()]
    assert len(set(pulses)) == len(pulses)
    ramp = ramp_share * min(pulses)
    dead = dead_efolds / (TWO_PI * sys.gamma_a)
    readouts = excite_and_readout(sys, omegas, s3_amplitude=s3,
                                  pulse_efolds=pulse_efolds, ramp=ramp,
                                  dead_efolds=dead_efolds)
    expected = [evolve_exact(sys, [Segment(pulse, s3, omega, ramp),
                                   Segment(dead)], (0j, 0j)).final_state[1]
                for pulse, omega in zip(pulses, omegas.tolist())]
    assert readouts.tobytes() == np.array(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(omega_a=st.floats(60.0, 600.0), omega_b=st.floats(-40.0, 40.0),
       gamma_a=st.floats(3.0, 40.0), gamma_b=st.floats(0.2, 3.0),
       j=st.floats(0.5, 8.0), ratio=st.floats(0.3, 3.0),
       coeff=st.floats(0.1, 2.0),
       detunings=st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=5),
       s3=st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                             allow_nan=False, allow_infinity=False),
       ramp_share=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
       sample_rate=st.sampled_from([None, 300.0, 4000.0]))
def test_batched_engine_matches_per_substep_evolution(
        omega_a, omega_b, gamma_a, gamma_b, j, ratio, coeff, detunings, s3,
        ramp_share, sample_rate):
    # each run of equal-length stretches (an edge's substeps, a flat top)
    # takes one solve and one set of exponentials; the readouts of a scan
    # and a sampled evolution must still keep the bits of the evolution
    # written out one stretch at a time. At ramp_share 0.5 the shortest
    # pulse is all edge
    sys = fast_system(omega_a=omega_a, omega_b=omega_b, gamma_a=gamma_a,
                      gamma_b=gamma_b, exchange_ab=j * ratio,
                      exchange_ba=j / ratio, tilt_coeff=coeff)
    omegas = line_center(sys) + np.array(detunings)
    widths = [hybrid_linewidth(sys, o - sys.omega_a) for o in omegas.tolist()]
    assume(min(widths) > 0)
    pulse_efolds, dead_efolds = 0.5, 2.0
    pulses = [pulse_efolds / (TWO_PI * width) for width in widths]
    ramp = ramp_share * min(pulses)
    dead = dead_efolds / (TWO_PI * sys.gamma_a)
    readouts = excite_and_readout(sys, omegas, s3_amplitude=s3,
                                  pulse_efolds=pulse_efolds, ramp=ramp,
                                  dead_efolds=dead_efolds)
    expected = [_evolve_per_substep(sys, [Segment(pulse, s3, omega, ramp),
                                          Segment(dead)], (0j, 0j),
                                    None)[1][-1, 1]
                for pulse, omega in zip(pulses, omegas.tolist())]
    assert readouts.tobytes() == np.array(expected).tobytes()
    segments = [Segment(pulses[0], s3, float(omegas[0]), ramp),
                Segment(dead)]
    initial = (0.1 - 0.2j, -0.3 + 0.05j)
    traj = evolve_exact(sys, segments, initial, sample_rate=sample_rate)
    times, ys = _evolve_per_substep(sys, segments, initial, sample_rate)
    assert traj.times.tobytes() == times.tobytes()
    for name, column in (("f", ys[:, 0]), ("r", ys[:, 1])):
        assert getattr(traj, name).tobytes() == column.tobytes(), name


@pytest.mark.parametrize("substeps", [1, 5, 63])
def test_wide_scan_cuts_its_edges_into_bounded_runs(substeps, monkeypatch):
    # a grid too wide for a whole edge in one run takes its substeps a few
    # at a time, so no solve holds more than _RUN_ENTRIES entries; each
    # readout keeps the bits of that point's own evolve_exact run
    import nobleline.dynamics as dynamics

    sys = fast_system(tilt_coeff=0.37, alkali_polarization=0.7)
    omegas = line_center(sys) + np.array([-41.0, -9.5, -2.0, 0.0, 1.5, 7.0])
    s3, pulse_efolds, dead_efolds = 0.6 - 0.3j, 0.5, 3.0
    pulses = [pulse_efolds / (TWO_PI * hybrid_linewidth(sys, o - sys.omega_a))
              for o in omegas.tolist()]
    ramp = 0.3 * min(pulses)
    dead = dead_efolds / (TWO_PI * sys.gamma_a)
    expected = [evolve_exact(sys, [Segment(pulse, s3, omega, ramp),
                                   Segment(dead)], (0j, 0j)).final_state[1]
                for pulse, omega in zip(pulses, omegas.tolist())]
    solve, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(dynamics, "_RUN_ENTRIES", substeps * omegas.size)
    readouts = excite_and_readout(sys, omegas, s3_amplitude=s3,
                                  pulse_efolds=pulse_efolds, ramp=ramp,
                                  dead_efolds=dead_efolds)
    assert readouts.tobytes() == np.array(expected).tobytes()
    assert all(shape[1] * shape[-1] <= dynamics._RUN_ENTRIES
               for shape in solves)
    assert len(solves) == 2 * math.ceil(RAMP_SUBSTEPS / substeps) + 1


def test_ramped_scan_solves_once_per_run_of_stretches(preset_bundle,
                                                      monkeypatch):
    # a ramped scan solves for its particular solutions once per edge and
    # once for the flat top while the grid is narrow enough: three solves,
    # where one per substep made 129
    from nobleline.config import scenario_with
    from nobleline.experiments import run_scenario

    solve, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    scenario = scenario_with(preset_bundle.scenario, name="excite",
                             ramp_efolds=0.5, points=9)
    run_scenario(replace(preset_bundle, scenario=scenario))
    assert sorted(shape[-1] for shape in solves) == [1, RAMP_SUBSTEPS,
                                                     RAMP_SUBSTEPS]


def test_excite_scan_builds_its_modes_once(preset_bundle, monkeypatch):
    # the scan's eigendecomposition serves every grid point and stretch
    import nobleline.dynamics as dynamics
    from nobleline.config import scenario_with
    from nobleline.experiments import run_scenario

    built = []

    class CountedModes(dynamics._Modes):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    monkeypatch.setattr(dynamics, "_Modes", CountedModes)
    scenario = scenario_with(preset_bundle.scenario, name="excite",
                             ramp_efolds=0.5, points=9)
    run_scenario(replace(preset_bundle, scenario=scenario))
    assert len(built) == 1


def test_excite_defaults_to_line_center(preset_system):
    (res,) = excite_and_readout(preset_system, pulse_efolds=1.0,
                                dead_efolds=2.0)
    (at_center,) = excite_and_readout(preset_system,
                                      [line_center(preset_system)],
                                      pulse_efolds=1.0, dead_efolds=2.0)
    assert res == at_center
    assert abs(res) > 0


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
    assert np.array_equal(noisy.trajectory.r.imag, clean.trajectory.r.imag)
    assert noisy.fit.residual_rms == pytest.approx(0.01, rel=0.05)
    assert noisy.fit.decay_rate == pytest.approx(clean.fit.decay_rate,
                                                 rel=0.05)


@pytest.mark.parametrize("samples_per_cycle", [1.5, 4.0])
def test_magnetic_pulse_transient_rejects_undersampling(
        preset_system, monkeypatch, samples_per_cycle):
    # at 1.5 samples per cycle the fit reports half the true frequency
    import nobleline.dynamics as dynamics

    def unreachable(*args, **kwargs):
        raise AssertionError("an undersampled record was evolved")

    monkeypatch.setattr(dynamics, "evolve_exact", unreachable)
    with pytest.raises(ValidityError, match="samples_per_cycle"):
        magnetic_pulse_transient(preset_system,
                                 samples_per_cycle=samples_per_cycle)


@settings(max_examples=25, deadline=None)
@given(field=st.floats(4.0, 10.0), observe_efolds=st.floats(0.5, 2.0),
       samples_per_cycle=st.floats(6.0, 16.0))
def test_noiseless_transient_fit_recovers_slow_mode(
        preset_magnetics, preset_system, field, observe_efolds,
        samples_per_cycle):
    # records of 600 to 50k samples; the residual is the fast alkali mode
    # the single-mode model leaves out, not white noise, so the error may
    # exceed the 95 % interval, but stays within a few of its half-widths
    omega_a, omega_b = derive_larmor(preset_magnetics, field=field)
    system = replace(preset_system, omega_a=omega_a, omega_b=omega_b)
    fit = magnetic_pulse_transient(system, observe_efolds=observe_efolds,
                                   samples_per_cycle=samples_per_cycle).fit
    decay, freq = slow_mode(system)
    for value, ci, truth in ((fit.decay_rate, fit.decay_rate_ci, decay),
                             (fit.frequency, fit.frequency_ci, abs(freq))):
        assert abs(value - truth) <= 4.0 * 0.5 * (ci[1] - ci[0])


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10**e)


@settings(max_examples=300, deadline=None)
@given(j=_log_uniform(1.0, 100.0), gamma_a=_log_uniform(3.0, 320.0),
       gamma_b=_log_uniform(1e-4, 1.0), split=_log_uniform(32.0, 5000.0),
       omega_b=st.floats(-100.0, 100.0), sign=st.sampled_from([-1.0, 1.0]),
       ratio=_log_uniform(0.1, 10.0))
# a pull larger than |omega_b|: line_center used to miss its tolerance
@example(j=9.766599998272504, gamma_a=9.766599998272504, gamma_b=0.01,
         split=10**1.9, omega_b=0.0, sign=-1.0, ratio=1.0)
def test_width_gap_follows_the_hybridization_law(j, gamma_a, gamma_b, split,
                                                 omega_b, sign, ratio):
    # the closed-form width departs from the exact slow decay by at most
    # (J/|omega_a - omega_b|)^2, whatever gamma_a; where the gap passes the
    # bound, the closed-form center sits on the exact slow frequency as well
    assume(split >= 5.0 * j)
    sys = SystemParams(omega_a=omega_b + sign * split, omega_b=omega_b,
                       gamma_a=gamma_a, gamma_b=gamma_b,
                       exchange_ab=j * ratio, exchange_ba=j / ratio)
    gap = width_gap(sys)
    assert gap <= 1.001 * (sys.exchange / split) ** 2
    if gap <= MAX_WIDTH_GAP:
        center = line_center(sys)
        half_width = hybrid_linewidth(sys, center - sys.omega_a)
        assert abs(center - slow_mode(sys)[1]) <= 0.05 * half_width


def test_width_gap_measures_the_breakdown(preset_magnetics, preset_system):
    # at field = noble_emf the alkali precession stops 7.8 Hz from the noble
    # one; a noble line wider than the alkali one makes the alkali mode slow
    omega_a, omega_b = derive_larmor(preset_magnetics,
                                     field=preset_magnetics.noble_emf)
    degenerate = replace(preset_system, omega_a=omega_a, omega_b=omega_b)
    assert width_gap(degenerate) == pytest.approx(0.0741, abs=1e-3)
    assert width_gap(replace(preset_system, gamma_b=100.0)) > 0.9
    assert width_gap(preset_system) < 1e-4


def test_width_gap_refusal_prints_a_short_percentage(preset_magnetics,
                                                     preset_system):
    # the refusal of the 2.38 mG breakdown reads as it always has; an
    # extreme accepted gamma_b once printed a percentage 100 digits long
    omega_a, omega_b = derive_larmor(preset_magnetics,
                                     field=preset_magnetics.noble_emf)
    degenerate = replace(preset_system, omega_a=omega_a, omega_b=omega_b)
    with pytest.raises(ValidityError, match=" is 7.41% off "):
        check_width_gap(degenerate)
    with pytest.raises(ValidityError, match=" is 1.96e\\+100% off ") as err:
        check_width_gap(replace(preset_system, gamma_b=1e100))
    assert len(str(err.value)) < 200


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
    # the exact engine started on the sideband state stays on it, so its
    # records demodulate back to the same amplitudes to rounding
    rate = 16.0 * max(abs(omega), abs(sys.omega_a))
    traj = evolve_exact(sys, [Segment(duration=8.0 / omega, amplitude=s3,
                                      omega=omega)],
                        resp.state_at(0.0), sample_rate=rate)
    for z, exact in ((traj.f, resp.f_plus), (traj.r, resp.r_plus)):
        demod = (heterodyne_extract(traj.times, z.real, omega)
                 + 1j * heterodyne_extract(traj.times, z.imag, omega))
        assert abs(demod - exact) <= 1e-9 * abs(exact)
