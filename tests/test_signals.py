"""Heterodyne extraction and the model fitters."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nobleline import signals
from nobleline.model import TWO_PI, FitConvergenceError, ValidityError
from nobleline.signals import (_normal_inverse, fit_decaying_sinusoid,
                               fit_inverted_lorentzian, fit_linear,
                               heterodyne_extract)


def test_heterodyne_recovers_amplitude_and_phase():
    # x(t) = Re[X e^{-2 pi i w t}]; X = A e^{-i phi} gives A cos(2 pi w t + phi)
    w = 19.88
    t = np.arange(512) / (64.0 * w)
    amp, phi = 0.37, -1.1
    x = amp * np.cos(TWO_PI * w * t + phi)
    z = heterodyne_extract(t, x, w)
    assert abs(z) == pytest.approx(amp, rel=1e-12)
    assert math.atan2(-z.imag, z.real) == pytest.approx(phi, abs=1e-12)
    # z recovers the spectral amplitude in the package convention
    assert z == pytest.approx(amp * np.exp(-1j * phi), rel=1e-12)
    # and the tone re-synthesized from z is the record
    assert np.max(np.abs(np.real(z * np.exp(-1j * TWO_PI * w * t)) - x)) \
        < 1e-13


def test_heterodyne_window_guard():
    w = 2.0
    t = np.arange(64) / 64.0  # two periods only
    x = np.cos(TWO_PI * w * t)
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
    fit = fit_decaying_sinusoid(t, y)
    assert fit.ambiguous_decay
    assert fit.decay_rate == pytest.approx(g, rel=1e-3)


def test_sinusoid_fit_needs_samples():
    with pytest.raises(ValidityError):
        fit_decaying_sinusoid(np.arange(10.0), np.ones(10))


def test_sinusoid_fit_keeps_few_record_sized_arrays_alive():
    # at a long record's QRs only the [J | f] block, the residual and the
    # record itself need to be alive: the FFT start's arrays and a second
    # copy of a grid that starts at +0.0 are freed by then (152.6 B/sample
    # traced when they were not, 120.7 with an n x 5 SVD's U alive too)
    import tracemalloc

    n = 200_003
    t = np.arange(n) / 640.0
    y = 0.7 * np.exp(-TWO_PI * 0.004 * t) * np.cos(TWO_PI * 19.79 * t + 0.3)
    y += 0.01
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit = fit_decaying_sinusoid(t, y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fit.frequency == pytest.approx(19.79, rel=1e-12)
    assert peak / n <= 104.0


def test_sinusoid_fit_reads_a_strided_grid_as_its_copy():
    # a grid starting at +0.0 is used as it is, so a strided one must give
    # the bits of its contiguous copy
    t = np.arange(0.0, 40.0, 1.0 / 320.0)
    y = np.exp(-TWO_PI * 0.01 * t) * np.cos(TWO_PI * 5.0 * t - 0.9)
    wide = np.repeat(t, 2)[::2]
    assert not wide.flags.c_contiguous
    assert fit_decaying_sinusoid(wide, y) == fit_decaying_sinusoid(t, y)


def _same_bits(x, y):
    return (x.shape == y.shape and np.ascontiguousarray(x).tobytes()
            == np.ascontiguousarray(y).tobytes())


def test_sinusoid_residual_and_jacobian_match_the_direct_forms(monkeypatch):
    # the fitter's residual and Jacobian share one exp/cos/sin pass per
    # parameter vector; at any point, in any call order, each must equal
    # the direct expression bit for bit, or TRF would take another path
    real, seen = signals._trf, {}

    def spy(fun, x0, jac, label):
        seen.update(fun=fun, jac=jac)
        return real(fun, x0, jac, label)

    monkeypatch.setattr(signals, "_trf", spy)
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
        assert _same_bits(_jacobian(seen["jac"], p, ts.size), jm)
        assert _same_bits(seen["fun"](np.array(p)), r)
        assert _same_bits(_jacobian(seen["jac"], np.array(p), ts.size), jm)


def _fit_problem(fit, *args):
    """The (resid, x0, jac) that a fitter hands to its trust-region loop."""
    with mock.patch.object(signals, "_trf", wraps=signals._trf) as spy:
        try:
            fit(*args)
        except FitConvergenceError:
            pass
    return spy.call_args.args[:3]


def _jacobian(jac, p, m):
    """A fitter's Jacobian at p, filled into a fresh (m, k) array."""
    return jac(p, np.empty((m, len(p)), order="F"))


_port = signals._trf


def _scipy_solution(resid, x0, jac):
    from scipy.optimize import least_squares

    m = resid(np.asarray(x0, dtype=float)).size
    return least_squares(resid, x0=x0, jac=lambda p: _jacobian(jac, p, m),
                         method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14,
                         max_nfev=5000)


def _scipy_trf(resid, x0, jac, label):
    # scipy's least_squares in _trf's place: the oracle
    sol = _scipy_solution(resid, x0, jac)
    if not sol.success:
        raise FitConvergenceError(f"{label} fit failed: {sol.message}",
                                  last_params=sol.x)
    return sol.x, sol.nfev, sol.njev


def _counted_trf(resid, x0, jac, label):
    # the port, checking that nfev and njev count the calls it made
    calls = {"resid": 0, "jac": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    x, nfev, njev = _port(counted("resid", resid), x0, counted("jac", jac),
                          label)
    assert (nfev, njev) == (calls["resid"], calls["jac"])
    return x, nfev, njev


def _assert_fit_matches_scipy(fit, *args):
    # scipy's least_squares is the oracle: with the port the fitter must
    # end as with scipy's TRF, with the same message on failure, and report
    # each value within 1e-4 of the reference's 95 % half-width or 1e-9
    # relative, whichever is wider; the offset, which has no interval,
    # takes the residual RMS over sqrt(n). On a noiseless record a value
    # whose truth is zero lands on rounding noise (~1e-16 here, where a
    # half-width is rounding noise too), so 1e-14 is the floor of the
    # unit-scale draws below. The sinusoid's phase is referred back to
    # t = 0 by subtracting x = 2 pi f t[0], which turns a frequency gap df
    # into a phase gap of 2 pi |t[0]| df, and whose rounding on each side
    # adds up to 2 ulps of x more
    def report(trf):
        with mock.patch.object(signals, "_trf", trf):
            try:
                return fit(*args).report()
            except FitConvergenceError as exc:
                return str(exc)

    want, got = report(_scipy_trf), report(_counted_trf)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    spread = want["residual_rms"] / math.sqrt(want["n_points"])
    gaps = {ref["parameter"]: abs(row["value"] - ref["value"])
            for ref, row in zip(want["parameters"], got["parameters"])}
    turn = TWO_PI * abs(args[0][0])
    values = {ref["parameter"]: ref["value"] for ref in want["parameters"]}
    for ref, row in zip(want["parameters"], got["parameters"]):
        half = (ref["ci_high"] - ref["ci_low"]) / 2 if "ci_low" in ref \
            else spread
        allowed = max(1e-4 * half, 1e-9 * abs(ref["value"]), 1e-14)
        if ref["parameter"] == "phase":
            allowed += (turn * gaps["frequency"]
                        + 4 * math.ulp(turn * values["frequency"]))
        assert gaps[ref["parameter"]] <= allowed, (ref, row)


noise_levels = st.sampled_from([0.0, 0.01, 0.3])


@settings(max_examples=40, deadline=None)
@given(f=st.floats(0.5, 5.0), g=st.floats(0.0, 0.2),
       per_cycle=st.floats(6.0, 40.0), cycles=st.floats(3.0, 60.0),
       t0=st.floats(0.0, 5.0), phase=st.floats(-math.pi, math.pi),
       offset=st.floats(-1.0, 1.0), noise=noise_levels,
       seed=st.integers(0, 2**32 - 1))
# frequencies 9.4e-16 apart, which t0 = 3 turns into phases 2.13e-14
# apart; and phases 2 ulps of 2 pi f t0 = 65.6 apart
@example(f=0.5, g=0.1875, per_cycle=6.0, cycles=3.0, t0=3.0, phase=0.0,
         offset=0.75, noise=0.0, seed=0)
@example(f=2.3835270433976543, g=0.1796875, per_cycle=6.0, cycles=8.75,
         t0=4.3828125, phase=0.0, offset=0.25, noise=0.0, seed=0)
def test_trf_matches_scipy_on_sinusoid_records(f, g, per_cycle, cycles, t0,
                                               phase, offset, noise, seed):
    t = t0 + np.arange(0.0, cycles / f, 1.0 / (per_cycle * f))
    y = np.exp(-TWO_PI * g * t) * np.cos(TWO_PI * f * t + phase) + offset
    y = y + np.random.default_rng(seed).normal(0.0, noise, t.size)
    _assert_fit_matches_scipy(fit_decaying_sinusoid, t, y)


@settings(max_examples=40, deadline=None)
@given(center=st.floats(-3.0, 3.0), width=st.floats(0.2, 4.0),
       contrast=st.floats(0.05, 0.95), baseline=st.floats(0.5, 2.0),
       shift=st.floats(-1.0, 1.0), n=st.integers(5, 60), noise=noise_levels,
       seed=st.integers(0, 2**32 - 1))
def test_trf_matches_scipy_on_lorentzian_records(center, width, contrast,
                                                 baseline, shift, n, noise,
                                                 seed):
    # a scan of +-4 half-widths, off center by up to one
    x = center + width * (shift + np.linspace(-4.0, 4.0, n))
    y = baseline * (1.0 - contrast * width**2 / ((x - center)**2 + width**2))
    depth = baseline * contrast
    y = y + np.random.default_rng(seed).normal(0.0, 0.1 * noise * depth, n)
    _assert_fit_matches_scipy(fit_inverted_lorentzian, x, y)


@pytest.mark.parametrize("x0", [[0.0, 0.0], [0.3, -1.0], [2.0, 1.0]])
def test_trf_matches_scipy_on_a_rank_deficient_jacobian(x0):
    # p0 and p1 enter only as their sum: J has two equal columns, so every
    # step comes from the alpha iteration with full_rank false, and only
    # p0 + p1 and the cost are determined
    t = np.linspace(0.0, 1.0, 20)
    y = 3.0 * t + 0.01 * np.sin(7.0 * t)

    def resid(p):
        return np.exp(p[0] + p[1]) * t - y

    def jac(p, out):
        out[:] = (np.exp(p[0] + p[1]) * t)[:, None]
        return out

    s = np.linalg.svd(_jacobian(jac, np.array(x0), t.size), compute_uv=False)
    assert s[-1] <= np.finfo(float).eps * t.size * s[0]
    sol = _scipy_solution(resid, x0, jac)
    x, _, _ = _counted_trf(resid, x0, jac, "oracle")
    assert sol.success
    assert x[0] + x[1] == pytest.approx(sol.x[0] + sol.x[1], rel=1e-12)
    assert 0.5 * np.dot(resid(x), resid(x)) == pytest.approx(sol.cost,
                                                             rel=1e-12)


def _constant_jacobian(a):
    def jac(p, out):
        out[:] = a
        return out
    return jac


def test_trf_residual_finite_only_at_x0_exhausts_the_budget():
    # every trial point gives NaN: the radius shrinks by a quarter per
    # evaluation until the step overflows to NaN, and the 5,000-evaluation
    # budget runs out into FitConvergenceError with scipy's message
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x0 = np.zeros(2)
    jac = _constant_jacobian(a)

    def resid(p):
        return a @ p - 1.0 if np.array_equal(p, x0) else np.full(3, np.nan)

    with np.errstate(over="ignore", invalid="ignore"):
        sol = _scipy_solution(resid, x0, jac)
        with pytest.raises(FitConvergenceError) as err:
            _counted_trf(resid, x0, jac, "oracle")
    assert not sol.success
    assert str(err.value) == f"oracle fit failed: {sol.message}"
    assert _same_bits(err.value.last_params, sol.x)
    # started where the residual is not finite, _trf raises
    # FitConvergenceError too, where scipy raises a bare ValueError
    with pytest.raises(FitConvergenceError, match="not finite in the initial"):
        signals._trf(resid, np.ones(2), jac, "oracle")


def test_trf_non_finite_jacobian_raises_fit_error():
    # an inf in the Jacobian ends the fit with FitConvergenceError, which
    # the CLI reports as a fit error, not with a traceback from the SVD
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x0 = np.array([0.5, -0.5])

    with pytest.raises(FitConvergenceError,
                       match="^oracle fit failed: Jacobian is not finite") \
            as err:
        signals._trf(lambda p: a @ p - 1.0, x0,
                     _constant_jacobian(np.where(a == 0.0, np.inf, a)),
                     "oracle")
    assert _same_bits(err.value.last_params, x0)


def _rank_deficient_problem():
    t = np.linspace(0.0, 1.0, 20)
    return np.column_stack([t, t]), np.sin(7.0 * t)


def _sinusoid_problem(samples):
    t = np.arange(samples) / 64.0
    y = np.exp(-TWO_PI * 0.01 * t) * np.cos(TWO_PI * 3.1 * t + 0.4)
    resid, x0, jac = _fit_problem(fit_decaying_sinusoid, t, y)
    return _jacobian(jac, x0, samples), resid(x0)


def _lorentzian_problem():
    x = np.linspace(-6.0, 6.0, 49)
    y = 1.0 - 0.5 / (x**2 + 1.0) + 1e-3 * np.cos(5.0 * x)
    resid, x0, jac = _fit_problem(fit_inverted_lorentzian, x, y)
    x0 = np.asarray(x0, dtype=float)
    return _jacobian(jac, x0, x.size), resid(x0)


@pytest.mark.parametrize("problem", [
    _lorentzian_problem, lambda: _sinusoid_problem(191),
    lambda: _sinusoid_problem(44_781), _rank_deficient_problem],
    ids=["49x4", "191x5", "44781x5", "rank-deficient"])
def test_factor_matches_numpy_svd(problem):
    # the triangle R of one QR of [J | f] has J's singular values, and the
    # SVD of R gives U^T f of J's SVD up to a rotation among equal singular
    # values (44781x5 has a pair 7e-11 apart) and the arbitrary part along
    # a null one; so U^T f is checked through what Moré's step makes of it,
    # V diag(s / (s^2 + alpha)) U^T f, at two Levenberg-Marquardt alphas
    J, f = problem()
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    R, qtf = signals._factor(np.asfortranarray(np.column_stack([J, f])))
    U_R, s_R, Vt_R = np.linalg.svd(R)
    assert np.allclose(s_R, s, rtol=1e-13, atol=1e-15 * s[0])
    for alpha in (1e-6 * s[0]**2, s[0]**2):
        want = Vt.T.dot(s * U.T.dot(f) / (s**2 + alpha))
        got = Vt_R.T.dot(s_R * U_R.T.dot(qtf) / (s_R**2 + alpha))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# 0.975 quantiles to 30 digits, from mpmath 1.3's regularized incomplete beta
# at 45 digits, where the t CDF equals 0.975 exactly
T_QUANTILES_975 = {1: "12.7062047361747046460216799788",
                   3: "3.18244630528370959272322542578",
                   6: "2.44691185114496997107129684555",
                   11: "2.2009851600916398678772003617"}

# every dof that the acceptance tests and the benchmark workloads give
# their fits: linear fits over 5 and 13 fields, 49-point line scans, and
# free-precession records of up to 548,570 samples
RUN_DOFS = (1, 3, 11, 13, 19, 45, 186, 576, 1238, 2397, 4442, 9618, 22386,
            24759, 44776, 44978, 67135, 93962, 125887, 160779, 201758,
            248834, 305016, 371783, 452018, 548565)


@pytest.mark.parametrize("dof", T_QUANTILES_975)
def test_t_quantile_is_correctly_rounded(dof):
    assert signals._t_quantile(dof) == float(T_QUANTILES_975[dof])


def test_t_quantile_within_8_ulp_of_scipy():
    # scipy's stdtrit is 19 ulp above the 45-digit value at dof 6 (tested
    # above); at every other dof up to 10^6 the two are within 6 ulp
    from scipy.special import stdtrit

    dofs = np.unique(np.concatenate([
        np.arange(1, 2001), np.geomspace(1, 1e6, 2000).astype(int),
        RUN_DOFS]))
    dofs = dofs[dofs != 6]
    ours = np.array([signals._t_quantile(int(d)) for d in dofs])
    theirs = stdtrit(dofs.astype(float), 0.975)
    ulps = np.abs(ours - theirs) / np.spacing(theirs)
    assert ulps.max() <= 8, dofs[ulps > 8]


def test_t_quantile_is_cached_and_infinite_without_dof():
    assert signals._t_quantile(0) == math.inf
    hits = signals._t_quantile.cache_info().hits
    assert signals._t_quantile(45) == signals._t_quantile(45)
    assert signals._t_quantile.cache_info().hits > hits


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_normal_matrix_gives_infinite_intervals():
    # a zero residual must not turn the singular fallback into NaN (0 * inf)
    jac = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    dof, sigma2, unscaled = _normal_inverse(jac, np.zeros(3))
    assert dof == 1
    assert np.all(np.isposinf(sigma2 * unscaled))
    # one repeated x leaves the slope unresolved: every interval infinite,
    # with no error and no NaN from the delta method (0 * inf)
    fit = fit_linear(np.full(4, 2.0), np.arange(4.0))
    for ci in (fit.slope_ci, fit.intercept_ci, fit.x_intercept_ci):
        assert ci == (-math.inf, math.inf)
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
    # a slope whose square underflows used to divide by zero
    fit = fit_linear(np.array([1.0, 2.0, 3.0]), np.array([1e-170, 2e-170,
                                                          3e-170]))
    assert not fit.x_intercept_defined and math.isnan(fit.x_intercept)


def test_linear_fit_refuses_overflowing_squares():
    # X^T X overflowed: a zero-width slope interval, crossing "defined"
    x = np.array([1e160, 2e160, 3e160, 4e160])
    with pytest.raises(ValidityError, match="too large to square"):
        fit_linear(x, np.array([1.0, 2.1, 2.9, 4.0]))
    with pytest.raises(ValidityError, match="too large to square"):
        fit_linear(np.arange(4.0), x)


def test_linear_fit_needs_points():
    with pytest.raises(ValidityError):
        fit_linear(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
