"""Closed-form steady-state response: widths, line shape, transmission."""

from dataclasses import replace

import numpy as np
import pytest

from nobleline.model import ValidityError, compute_detunings
from nobleline.spectrum import (FAR_DETUNED_RATIO, S2Response,
                                alkali_coherence, evaluate_spectrum,
                                hybrid_linewidth, line_center, line_shape,
                                noble_coherence, phase_shift, s2_response)


@pytest.fixture(scope="module")
def bundle():
    from nobleline.config import load_config, preset_path

    return load_config(preset_path())


def test_hybrid_linewidth_reference(bundle):
    sys = bundle.system
    d = compute_detunings(sys.omega_b, sys)
    assert hybrid_linewidth(sys, d.delta_a) == pytest.approx(
        0.004501976469751019, rel=1e-12)
    # round-number detuning example: 2*gamma = 9.0044 mHz
    assert hybrid_linewidth(sys, -2180.0) == pytest.approx(
        0.0045022077597880635, rel=1e-12)
    bare = replace(sys, exchange_ab=0.0, exchange_ba=0.0)
    assert hybrid_linewidth(bare, -2180.0) == sys.gamma_b


def test_alkali_coherence_decoupled_limit(bundle):
    sys = replace(bundle.system, exchange_ab=0.0, exchange_ba=0.0)
    omega = 25.0
    f = alkali_coherence(1j, omega, sys)
    expect = 1j * sys.drive_coeff * 1j / complex(sys.gamma_a,
                                                 -(omega - sys.omega_a))
    assert f == expect


def test_noble_coherence_consistent_with_alkali(bundle):
    sys = bundle.system
    for omega in (19.87, 19.88, 19.7901, 21.0):
        d = compute_detunings(omega, sys)
        f = alkali_coherence(1j, omega, sys)
        r = noble_coherence(1j, omega, sys)
        chained = 1j * sys.exchange_ba * f / complex(sys.gamma_b, -d.delta_b)
        assert abs(r - chained) <= 1e-12 * abs(r)


def test_noble_coherence_undamped_resonance_raises():
    from nobleline.model import SystemParams

    sys = SystemParams(omega_a=100.0, omega_b=100.0, gamma_a=0.0,
                       gamma_b=0.0, exchange_ab=0.0, exchange_ba=0.0,
                       tilt_coeff=1.0)
    with pytest.raises(ValidityError):
        noble_coherence(1j, 100.0, sys)


def test_line_center_matches_slow_mode(bundle):
    from nobleline.dynamics import slow_mode

    center = line_center(bundle.system)
    assert center == pytest.approx(19.790149562900268, rel=1e-12)
    _, freq = slow_mode(bundle.system)
    # fixed point of the pulling map vs the exact eigenmode frequency:
    # they differ only at second order in the hybridization
    assert center == pytest.approx(freq, rel=1e-9)


def test_line_center_decoupled(bundle):
    sys = replace(bundle.system, exchange_ab=0.0, exchange_ba=0.0)
    assert line_center(sys) == sys.omega_b


def test_line_shape_reference(bundle):
    line = line_shape(bundle.system, bundle.optics)
    assert line.center == pytest.approx(19.790149562900268, rel=1e-12)
    assert line.half_width == pytest.approx(0.004501803315477883, rel=1e-12)
    assert line.depth == pytest.approx(0.3144207310201411, rel=1e-12)
    assert line.contrast == pytest.approx(0.5299810659450424, rel=1e-12)
    assert line.contrast == pytest.approx(line.depth * (2 - line.depth),
                                          rel=1e-15)


def test_phase_shift_signs(bundle):
    line = line_shape(bundle.system, bundle.optics)
    assert phase_shift(line, 0.0) == 0.0
    assert phase_shift(line, line.half_width) > 0
    assert phase_shift(line, -line.half_width) < 0
    # odd in detuning
    assert phase_shift(line, 2.3 * line.half_width) == pytest.approx(
        -phase_shift(line, -2.3 * line.half_width), rel=1e-15)


def test_s2_response_branch_selection(bundle):
    sys, opt = bundle.system, bundle.optics
    far = s2_response(sys.omega_b, sys, opt)
    assert far.branch == "far"
    assert abs(far.detunings.delta_a) >= FAR_DETUNED_RATIO * sys.gamma_a
    near = s2_response(sys.omega_a + 3.0 * sys.gamma_a, sys, opt)
    assert near.branch == "general"


def test_s2_response_branches_agree_at_crossover(bundle):
    # just inside vs just outside the far-detuning threshold the two
    # evaluations must agree to O(gamma_a/delta_a)
    sys, opt = bundle.system, bundle.optics
    omega_edge = sys.omega_a - FAR_DETUNED_RATIO * sys.gamma_a
    lo = s2_response(omega_edge * (1 + 1e-6), sys, opt)   # general
    hi = s2_response(omega_edge * (1 - 1e-6), sys, opt)   # far
    assert lo.branch == "general" and hi.branch == "far"
    assert lo.transmission == pytest.approx(hi.transmission, rel=0.2)


def test_s2_response_on_line_center(bundle):
    sys, opt = bundle.system, bundle.optics
    line = line_shape(sys, opt)
    resp = s2_response(line.center, sys, opt)
    assert resp.transmission == pytest.approx(1.0 - line.contrast, rel=1e-9)
    assert resp.phase == pytest.approx(0.0, abs=1e-9)
    # scaling the input rescales the output linearly
    resp2 = s2_response(line.center, sys, opt, s2_in=0.25 + 0.0j)
    assert resp2.ratio == pytest.approx(resp.ratio, rel=1e-15)


def test_s2_response_far_matches_general_to_expansion_order(bundle):
    # the factored Lorentzian is a far-detuned approximation of the direct
    # Faraday form; at |delta_a| ~ 2180 and gamma_a = 51 they agree to ~1%
    sys, opt = bundle.system, bundle.optics
    line = line_shape(sys, opt)
    for mult in (-3.0, -1.0, 0.0, 1.0, 3.0):
        omega = line.center + mult * line.half_width
        far = s2_response(omega, sys, opt)
        d = far.detunings
        general = far.s2_in + 0.5 * opt.faraday_coeff * far.f_tilde
        tol = 2.0 * sys.gamma_a / abs(d.delta_a)
        assert abs(far.s2_out - general) <= tol * abs(far.s2_in)


def test_evaluate_spectrum_rows_and_csv(bundle):
    sys, opt = bundle.system, bundle.optics
    line = line_shape(sys, opt)
    omegas = line.center + np.array([-2.0, 0.0, 2.0]) * line.half_width
    responses = evaluate_spectrum(omegas, sys, opt)
    assert all(isinstance(r, S2Response) for r in responses)
    assert responses[1].transmission == pytest.approx(1 - line.contrast,
                                                      rel=1e-9)
    assert responses[0].transmission > responses[1].transmission
