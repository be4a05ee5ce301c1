"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL — <measured detail>

so a full run doubles as a conformance report (pytest -rA surfaces the
lines for passing tests too).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nobleline.config import load_config, preset_path, scenario_with
from bloch_oracle import integrate_bloch
from nobleline.dynamics import Segment, evolve_exact, exact_linear_response
from nobleline.experiments import (run_calibration, run_excitation_scan,
                                   run_field_sweep, run_scenario,
                                   run_spectrum_scan)
from nobleline.model import TWO_PI, SystemParams
from nobleline.signals import fit_decaying_sinusoid, heterodyne_extract
from nobleline.spectrum import (alkali_coherence, hybrid_linewidth,
                                line_center, line_shape, noble_coherence,
                                phase_shift, transmitted_ratio)

SEED = 20260819


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def bundle():
    return load_config(preset_path())


@pytest.fixture(scope="module")
def sweep(bundle):
    """Field sweep over the full default grid, timed once, reused by 2 & 6."""
    t0 = time.monotonic()
    result = run_field_sweep(bundle)
    return result, time.monotonic() - t0


def test_criterion_1_reference_line(bundle):
    t0 = time.monotonic()
    res = run_spectrum_scan(bundle)
    elapsed = time.monotonic() - t0
    fit = {p["parameter"]: p["value"]
           for p in res.fits["transmission_dip"]["parameters"]}
    full_width = 2.0 * fit["half_width"]
    contrast = fit["contrast"]
    ok = (abs(full_width - 10.5e-3) <= 0.20 * 10.5e-3
          and 0.47 <= contrast <= 0.59
          and elapsed < 10.0)
    _report(1, ok,
            f"full width 2*gamma = {full_width * 1e3:.4f} mHz "
            f"(target 10.5 mHz +/- 20%), contrast C = {contrast:.4f} "
            f"(target [0.47, 0.59]), runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_2_field_sweep_anchor(sweep):
    res, elapsed = sweep
    by_field = {r["field"]: r for r in res.rows}
    width_107 = by_field[10.7]["full_width"]
    widths = [r["full_width"] for r in res.rows]
    contrasts = [r["contrast"] for r in res.rows]
    widths_mono = all(b > a for b, a in zip(widths, widths[1:]))
    contrast_mono = all(b > a for b, a in zip(contrasts, contrasts[1:]))
    ok = (4.3e-3 <= width_107 <= 6.5e-3 and widths_mono and contrast_mono
          and elapsed < 60.0)
    _report(2, ok,
            f"2*gamma(10.7 mG) = {width_107 * 1e3:.4f} mHz "
            f"(target [4.3, 6.5]), 2*gamma(B) decreasing: {widths_mono}, "
            f"C(B) decreasing: {contrast_mono} over "
            f"{res.rows[0]['field']:g}-{res.rows[-1]['field']:g} mG, "
            f"runtime {elapsed:.2f} s (< 60 s)")


def test_criterion_3_rotating_wave_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_demod = 0.0
    worst_formula = 0.0
    for _ in range(50):
        gamma_a = rng.uniform(8.0, 25.0)
        gamma_b = rng.uniform(1.0, 3.0)
        j = rng.uniform(3.0, 12.0)
        k = rng.uniform(0.5, 2.0)
        system = SystemParams(
            omega_a=rng.uniform(2600.0, 3600.0),
            omega_b=rng.uniform(30.0, 80.0),
            gamma_a=gamma_a, gamma_b=gamma_b,
            exchange_ab=j * k, exchange_ba=j / k, tilt_coeff=1.0)
        omega = system.omega_b + rng.uniform(-5.0, 5.0)
        assert abs(omega + system.omega_a) >= 100.0 * max(gamma_a, j)

        resp = exact_linear_response(system, 1.0 + 0.0j, omega)

        # (a) time-domain integration, demodulated at omega
        start = resp.state_at(0.0)
        window = 6.0 / omega
        traj = integrate_bloch(
            system, [Segment(duration=window, amplitude=1.0 + 0.0j,
                             omega=omega)],
            initial=start, rtol=1e-11, atol=1e-13, sample_rate=64.0 * omega)
        z_f = (heterodyne_extract(traj.times, traj.f.real, omega)
               + 1j * heterodyne_extract(traj.times, traj.f.imag, omega))
        z_r = (heterodyne_extract(traj.times, traj.r.real, omega)
               + 1j * heterodyne_extract(traj.times, traj.r.imag, omega))
        worst_demod = max(worst_demod,
                          abs(z_f - resp.f_plus) / abs(resp.f_plus),
                          abs(z_r - resp.r_plus) / abs(resp.r_plus))

        # (b) exact sideband solve vs the rotating-frame formulas
        bound = (gamma_a + j) / abs(omega + system.omega_a)
        f_formula = alkali_coherence(1.0, omega, system)
        r_formula = noble_coherence(1.0, omega, system)
        rel_f = abs(resp.f_plus - f_formula) / abs(f_formula)
        rel_r = abs(resp.r_plus - r_formula) / abs(r_formula)
        worst_formula = max(worst_formula, rel_f / bound, rel_r / bound)
    elapsed = time.monotonic() - t0
    ok = worst_demod <= 1e-3 and worst_formula <= 1.0 and elapsed < 120.0
    _report(3, ok,
            f"50-point sweep: worst demod mismatch {worst_demod:.2e} "
            f"(<= 1e-3), worst formula error {worst_formula:.3f}x its "
            f"(gamma_a+J)/|omega+omega_a| bound (<= 1), "
            f"runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_4_lineshape_exactness(bundle):
    line = line_shape(bundle.system, bundle.optics)
    g, c0, c = line.half_width, line.depth, line.contrast
    deltas = np.linspace(-40.0 * g, 40.0 * g, 1001)
    worst_power = 0.0
    worst_phase = 0.0
    for delta in deltas:
        ratio = transmitted_ratio(g, c0, float(delta))
        lorentz = 1.0 - c * g**2 / (delta**2 + g**2)
        worst_power = max(worst_power, abs(abs(ratio) ** 2 - lorentz))
        # fitted-phase formula vs arg of the amplitude ratio
        worst_phase = max(worst_phase, abs(
            phase_shift(line, float(delta))
            - (-math.atan2(ratio.imag, ratio.real))))
    ok = worst_power <= 1e-12 and worst_phase <= 1e-12
    _report(4, ok,
            f"1001-point grid: max |power - Lorentzian| = {worst_power:.2e} "
            f"(<= 1e-12), max |phase - arg| = {worst_phase:.2e} rad "
            f"(<= 1e-12)")


def test_criterion_5_excitation_scan(bundle):
    # 8 e-fold pulses saturate the line; the default 3 e-folds would
    # Fourier-broaden the fitted width past the 5% budget
    scan = replace(bundle, scenario=scenario_with(bundle.scenario,
                                                  pulse_efolds=8.0))
    res = run_excitation_scan(scan)
    gamma = res.extras["line_half_width"]
    fitted = res.extras["fitted_half_width"]
    width_err = abs(fitted / gamma - 1.0)
    wings = [r["normalized_power"] for r in res.rows
             if np.isclose(abs(r["delta"]), 20.0 * gamma, rtol=1e-6)]
    wing_max = max(wings)
    ok = width_err <= 0.05 and len(wings) == 2 and wing_max <= 0.01
    _report(5, ok,
            f"fitted width off closed form by {width_err * 100:.3f}% "
            f"(<= 5%), |Delta| = 20*gamma normalized power "
            f"{wing_max:.5f} (<= 0.01, {len(wings)} wing points)")


def test_criterion_6_transient_agreement(bundle, sweep):
    res, _ = sweep
    # (a) fitted transient decay vs the closed-form width at every field
    worst = max(abs(r["fit_decay"] / (0.5 * r["full_width"]) - 1.0)
                for r in res.rows)

    # (b) decay invariance under a 10x preceding signal-pulse amplitude
    system = replace(bundle.system, tilt_coeff=1.0)
    center = line_center(system)
    gamma = hybrid_linewidth(system, center - system.omega_a)

    def decay_after_pulse(amplitude: float) -> float:
        segments = [
            Segment(duration=3.0 / (TWO_PI * gamma),
                    amplitude=amplitude + 0.0j, omega=center),
            Segment(duration=6.0 / (TWO_PI * system.gamma_a)),
        ]
        state = evolve_exact(system, segments, (0j, 0j)).final_state
        record = evolve_exact(
            system, [Segment(duration=2.0 / (TWO_PI * gamma))], state,
            sample_rate=32.0 * abs(system.omega_b))
        return fit_decaying_sinusoid(record.times, record.r.real).decay_rate

    d1 = decay_after_pulse(1.0)
    d10 = decay_after_pulse(10.0)
    shift = abs(d10 / d1 - 1.0)
    ok = worst <= 0.02 and shift <= 0.01
    _report(6, ok,
            f"max |transient decay / closed-form width - 1| = "
            f"{worst * 100:.4f}% over {len(res.rows)} fields (<= 2%), "
            f"decay shift under 10x pulse amplitude = {shift * 100:.5f}% "
            f"(<= 1%)")


def test_criterion_7_calibration_recovery(bundle):
    res = run_calibration(bundle)  # 200 Monte-Carlo trials by default
    ex = res.extras
    slope_err = abs(ex["noiseless_slope"] / ex["true_slope"] - 1.0)
    decay_err = abs(ex["noiseless_decay"] / ex["true_decay"] - 1.0)
    ok = (slope_err <= 0.01 and decay_err <= 0.01
          and ex["slope_coverage"] >= 0.93 and ex["decay_coverage"] >= 0.93
          and len(res.rows) == 200)
    _report(7, ok,
            f"noiseless recovery: slope off {slope_err * 100:.4f}%, decay "
            f"off {decay_err * 100:.4f}% (<= 1%); CI coverage over "
            f"{len(res.rows)} seeds: slope {ex['slope_coverage']:.3f}, "
            f"decay {ex['decay_coverage']:.3f} (>= 0.93)")


def test_criterion_8_determinism(bundle, tmp_path):
    variants = {
        "spectrum": dict(method="demodulated", points=15, noise_sigma=0.01,
                         seed=101),
        "excite": dict(points=9, seed=102),
        "sweep_field": dict(fields=(4.0, 10.7, 40.0), noise_sigma=0.01,
                            seed=103),
        "transient": dict(observe_efolds=1.0, noise_sigma=0.01, seed=104),
        "calibrate": dict(trials=4, seed=105),
    }
    mismatches = []
    for name, tweaks in variants.items():
        b = replace(bundle, scenario=scenario_with(bundle.scenario,
                                                   name=name, **tweaks))
        outs = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{name}_{run}"
            run_scenario(b).write(outdir, prefix="run")
            outs.append(outdir)
        for suffix in ("points.csv", "fit.json", "provenance.json"):
            pa = (outs[0] / f"run_{suffix}").read_bytes()
            pb = (outs[1] / f"run_{suffix}").read_bytes()
            if pa != pb:
                mismatches.append(f"{name}/{suffix}")
    ok = not mismatches
    _report(8, ok,
            "all 5 scenarios x 3 files byte-identical on rerun"
            if ok else f"differing outputs: {mismatches}")
