"""Waveform synthesis, heterodyne extraction, and the model fitters."""

import math

import numpy as np
import pytest

from nobleline.model import TWO_PI, ValidityError, ValidityWarning
from nobleline.signals import (_normal_inverse, fit_decaying_sinusoid,
                               fit_inverted_lorentzian, fit_linear,
                               heterodyne_extract,
                               stokes_time_series, synthesize_channel,
                               time_grid)


def test_synthesize_channel_convention():
    # x(t) = Re[X e^{-2 pi i w t}]; X = A e^{-i phi} gives A cos(2 pi w t + phi)
    t = time_grid(2.0, 64.0)
    amp, phi, w = 1.7, 0.4, 3.0
    x = synthesize_channel(t, amp * np.exp(-1j * phi), w)
    assert np.allclose(x, amp * np.cos(TWO_PI * w * t + phi), atol=1e-12)


def test_synthesize_noise_needs_rng():
    t = time_grid(1.0, 32.0)
    with pytest.raises(ValidityError):
        synthesize_channel(t, 1.0 + 0.0j, 2.0, noise_sigma=0.1)


def test_time_grid_guards():
    with pytest.raises(ValidityError):
        time_grid(0.001, 100.0)  # fewer than 2 samples


def test_stokes_series_nyquist_guard():
    with pytest.raises(ValidityError):
        stokes_time_series(1.0, omega=10.0, duration=1.0, sample_rate=30.0)


def test_heterodyne_recovers_amplitude_and_phase():
    w = 19.88
    t = time_grid(8.0 / w, 64.0 * w)
    amp, phi = 0.37, -1.1
    x = synthesize_channel(t, amp * np.exp(-1j * phi), w)
    fit = heterodyne_extract(t, x, w)
    assert fit.amplitude == pytest.approx(amp, rel=1e-12)
    assert fit.phase == pytest.approx(phi, abs=1e-12)
    # z recovers the spectral amplitude in the package convention
    assert fit.z == pytest.approx(amp * np.exp(-1j * phi), rel=1e-12)
    assert fit.residual_rms < 1e-13


def test_heterodyne_window_guard():
    w = 2.0
    t = time_grid(1.0, 64.0)  # two periods only
    x = synthesize_channel(t, 1.0 + 0.0j, w)
    with pytest.raises(ValidityError):
        heterodyne_extract(t, x, w)


def test_lorentzian_fit_exact_recovery():
    x0, g, c, b = 19.79, 0.0045, 0.53, 1.0
    x = x0 + np.concatenate([np.linspace(-5, 5, 41),
                             [-20, -10, 10, 20]]) * g
    x = np.sort(x)
    y = b * (1 - c * g**2 / ((x - x0)**2 + g**2))
    fit = fit_inverted_lorentzian(x, y)
    assert fit.center == pytest.approx(x0, abs=1e-6 * g)
    assert fit.half_width == pytest.approx(g, rel=1e-7)
    assert fit.contrast == pytest.approx(c, rel=1e-7)
    assert fit.baseline == pytest.approx(b, rel=1e-9)
    assert not fit.degenerate


def test_lorentzian_fit_noisy_recovery():
    rng = np.random.default_rng(3)
    x0, g, c, b = 0.0, 1.0, 0.4, 2.0
    x = np.linspace(-8, 8, 161)
    y = b * (1 - c * g**2 / ((x - x0)**2 + g**2)) + rng.normal(0, 0.01, x.size)
    fit = fit_inverted_lorentzian(x, y)
    assert fit.center == pytest.approx(x0, abs=0.05)
    assert fit.half_width == pytest.approx(g, rel=0.05)
    assert fit.contrast == pytest.approx(c, rel=0.05)
    assert not fit.degenerate
    lo, hi = fit.half_width_ci
    assert lo < g < hi


def test_lorentzian_fit_flags_flat_data():
    rng = np.random.default_rng(5)
    x = np.linspace(-1, 1, 41)
    for y in (1.0 + rng.normal(0, 0.05, x.size),  # no dip at all
              np.ones(x.size)):                    # and an exact, zero-residual fit
        assert fit_inverted_lorentzian(x, y).degenerate


def test_lorentzian_fit_needs_points():
    with pytest.raises(ValidityError):
        fit_inverted_lorentzian(np.arange(4.0), np.ones(4))


def test_sinusoid_fit_exact_recovery():
    g, f, amp, phi, off = 0.0045, 19.79, 0.8, 0.7, 0.1
    t = np.arange(0.0, 2.0 / (TWO_PI * g), 1.0 / (32 * f))
    y = amp * np.exp(-TWO_PI * g * t) * np.cos(TWO_PI * f * t + phi) + off
    fit = fit_decaying_sinusoid(t, y)
    assert fit.decay_rate == pytest.approx(g, rel=1e-7)
    assert fit.frequency == pytest.approx(f, rel=1e-9)
    assert fit.amplitude == pytest.approx(amp, rel=1e-7)
    assert fit.phase == pytest.approx(phi, abs=1e-7)
    assert fit.offset == pytest.approx(off, abs=1e-7)
    assert not fit.ambiguous_decay


def test_sinusoid_fit_nonzero_time_origin():
    # phase is referred to t = 0 even when the record starts later
    g, f, amp, phi = 0.01, 5.0, 1.0, -0.9
    t = 3.0 + np.arange(0.0, 40.0, 1.0 / (64 * f))
    y = amp * np.exp(-TWO_PI * g * t) * np.cos(TWO_PI * f * t + phi)
    fit = fit_decaying_sinusoid(t, y)
    assert fit.frequency == pytest.approx(f, rel=1e-10)
    assert fit.decay_rate == pytest.approx(g, rel=1e-7)
    # envelope amplitude is also referred to t = 0
    assert fit.amplitude == pytest.approx(amp, rel=1e-6)
    assert fit.phase == pytest.approx(phi, abs=1e-6)


def test_sinusoid_fit_short_window_warns():
    g, f = 0.001, 10.0
    t = np.arange(0.0, 30.0, 1.0 / (32 * f))  # 2*pi*g*T = 0.19 << 0.5
    y = np.exp(-TWO_PI * g * t) * np.cos(TWO_PI * f * t)
    with pytest.warns(ValidityWarning):
        fit = fit_decaying_sinusoid(t, y)
    assert fit.ambiguous_decay
    assert fit.decay_rate == pytest.approx(g, rel=1e-3)


def test_sinusoid_fit_few_cycles_warns():
    g, f = 0.05, 0.02
    t = np.arange(0.0, 60.0, 0.25)  # 1.2 cycles
    y = np.exp(-TWO_PI * g * t) * np.cos(TWO_PI * f * t)
    with pytest.warns(ValidityWarning):
        fit_decaying_sinusoid(t, y)


def test_sinusoid_fit_needs_samples():
    with pytest.raises(ValidityError):
        fit_decaying_sinusoid(np.arange(10.0), np.ones(10))


def _same_bits(x, y):
    return (x.shape == y.shape and np.ascontiguousarray(x).tobytes()
            == np.ascontiguousarray(y).tobytes())


def test_sinusoid_residual_and_jacobian_match_the_direct_forms(monkeypatch):
    # the fitter's residual and Jacobian share one exp/cos/sin pass per
    # parameter vector; at any point, in any call order, each must equal
    # the direct expression bit for bit, or TRF would take another path
    import scipy.optimize

    real, seen = scipy.optimize.least_squares, {}

    def spy(fun, x0, jac, **kwargs):
        seen.update(fun=fun, jac=jac)
        return real(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    t = 0.5 + np.arange(0.0, 30.0, 1.0 / 96.0)
    y = np.exp(-TWO_PI * 0.02 * t) * np.cos(TWO_PI * 3.0 * t) + 0.01 * t
    fit_decaying_sinusoid(t, y)
    ts = t - t[0]

    def direct(p):
        a, b, g, f, c = p
        env = np.exp(-TWO_PI * g * ts)
        arg = TWO_PI * f * ts
        cosv, sinv = np.cos(arg), np.sin(arg)
        osc = a * cosv + b * sinv
        return env * (a * np.cos(arg) + b * np.sin(arg)) + c - y, \
            np.column_stack([env * cosv, env * sinv,
                             -TWO_PI * ts * env * osc,
                             TWO_PI * ts * env * (-a * sinv + b * cosv),
                             np.ones_like(ts)])

    # the signed zeros differ only in bits: a key comparing values would
    # hand one the other's sin column
    points = [[0.9, -0.2, 0.021, 3.001, 0.05], [0.9, -0.2, 0.0, 0.0, 0.05],
              [0.9, -0.2, -0.0, -0.0, 0.05], [-0.3, 0.4, -0.001, -2.9, 1.0]]
    for p in points + points[::-1]:
        r, jm = direct(p)
        assert _same_bits(seen["jac"](p), jm)
        assert _same_bits(seen["fun"](np.array(p)), r)
        assert _same_bits(seen["jac"](np.array(p)), jm)


def _line_fit():
    x = np.linspace(-8.0, 8.0, 41)
    return fit_inverted_lorentzian(x, 1.0 - 0.5 / (x**2 + 1.0))


def _sinusoid_fit():
    g, f = 0.02, 3.0
    t = np.arange(0.0, 30.0, 1.0 / (32 * f))
    return fit_decaying_sinusoid(t, np.exp(-TWO_PI * g * t)
                                 * np.cos(TWO_PI * f * t))


def _linear_fit():
    x = np.array([4.0, 8.0, 16.0, 27.0, 40.0])
    return fit_linear(x, 3.26 * x - 0.05 + 1e-3 * np.cos(x))


# model -> (fit, reported parameters in order, those without an interval,
# flags)
REPORTS = {
    "inverted_lorentzian": (
        _line_fit, ["center", "half_width", "contrast", "baseline"], [],
        {"degenerate": False}),
    "decaying_sinusoid": (
        _sinusoid_fit, ["amplitude", "decay_rate", "frequency", "phase",
                        "offset"], ["offset"], {"ambiguous_decay": False}),
    "linear": (
        _linear_fit, ["slope", "intercept", "x_intercept"], [],
        {"x_intercept_defined": True}),
}


@pytest.mark.parametrize("model", list(REPORTS))
def test_fit_report_schema(model):
    make, names, without_ci, flags = REPORTS[model]
    fit = make()
    rep = fit.report()
    assert list(rep) == ["model", "n_points", "residual_rms", "parameters",
                         "flags"]
    assert rep["model"] == model
    assert rep["n_points"] == fit.n_points
    assert rep["residual_rms"] == fit.residual_rms
    assert [p["parameter"] for p in rep["parameters"]] == names
    for p in rep["parameters"]:
        assert p["value"] == getattr(fit, p["parameter"])
        if p["parameter"] in without_ci:
            assert list(p) == ["parameter", "value"]
        else:
            assert list(p) == ["parameter", "value", "ci_low", "ci_high"]
            ci = getattr(fit, p["parameter"] + "_ci")
            assert (p["ci_low"], p["ci_high"]) == ci
            assert p["ci_low"] <= p["value"] <= p["ci_high"]
    assert rep["flags"] == flags


def test_singular_normal_matrix_gives_infinite_intervals():
    # a zero residual must not turn the singular fallback into NaN (0 * inf)
    jac = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    dof, sigma2, unscaled = _normal_inverse(jac, np.zeros(3))
    assert dof == 1
    assert np.all(np.isposinf(sigma2 * unscaled))
    # one repeated x leaves the slope unresolved: infinite, not an error
    with np.errstate(invalid="ignore"):
        fit = fit_linear(np.full(4, 2.0), np.arange(4.0))
    assert fit.slope_ci == (-math.inf, math.inf)
    assert not fit.x_intercept_defined


def test_linear_fit_recovery_and_intercept():
    x = np.array([4.0, 8.0, 16.0, 27.0, 40.0])
    slope, intercept = 3.26, -0.05
    y = slope * x + intercept
    fit = fit_linear(x, y)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, abs=1e-10)
    assert fit.x_intercept == pytest.approx(-intercept / slope, rel=1e-9)
    assert fit.x_intercept_defined


def test_linear_fit_noisy_ci_covers():
    rng = np.random.default_rng(17)
    x = np.linspace(0, 10, 30)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.1, x.size)
    fit = fit_linear(x, y)
    assert fit.slope_ci[0] < 2.0 < fit.slope_ci[1]
    assert fit.x_intercept_defined


def test_linear_fit_flat_slope_undefined():
    rng = np.random.default_rng(23)
    x = np.linspace(0, 1, 20)
    y = rng.normal(0, 1.0, x.size)  # no trend
    fit = fit_linear(x, y)
    assert not fit.x_intercept_defined


def test_linear_fit_needs_points():
    with pytest.raises(ValidityError):
        fit_linear(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
