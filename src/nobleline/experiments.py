"""Scenario runners: full measurement protocols from config to output files.

Every runner consumes a resolved :class:`~nobleline.config.Bundle`, draws all
randomness from child streams of the scenario seed (stable across runs
and platforms), and returns a :class:`ScanResult` whose
``write`` method emits three files per scenario::

    <prefix>_points.csv        per-point data, fixed column order
    <prefix>_fit.json          fit reports and derived summary numbers
    <prefix>_provenance.json   resolved config + seed, reloadable as a run
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import Bundle, provenance_mapping
from .dynamics import (TRAJECTORY_COLUMNS, excite_and_readout,
                       magnetic_pulse_transient, transient_samples)
from .model import ConfigError, TWO_PI, ValidityWarning, derive_larmor
from .signals import (MIN_SAMPLES_PER_CYCLE, fit_decaying_sinusoid,
                      fit_inverted_lorentzian, fit_linear, heterodyne_extract,
                      stokes_time_series)
from .spectrum import (SPECTRUM_COLUMNS, evaluate_spectrum, hybrid_linewidth,
                       line_center, line_shape, phase_shift, s2_response,
                       spectrum_row)

EXCITE_COLUMNS = ("omega", "delta", "amplitude", "normalized_power")
SWEEP_COLUMNS = ("field", "omega_b_bare", "line_center", "full_width",
                 "contrast", "fit_frequency", "fit_decay")
CALIBRATION_COLUMNS = ("trial", "slope", "slope_lo", "slope_hi",
                       "slope_covered", "decay", "decay_lo", "decay_hi",
                       "decay_covered")

#: largest sampled record a run may build: evolving and fitting one costs
#: about 0.5 kB per sample, so this cap holds a run near 2 GB
MAX_RECORD_SAMPLES = 4_000_000


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("nobleline")
    except Exception:
        return "unknown"


@dataclass
class ScanResult:
    """Uniform runner output: a points table, fit reports, and provenance."""

    name: str
    columns: tuple
    rows: list
    fits: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def write(self, outdir, prefix: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)

        points = os.path.join(outdir, f"{prefix}_points.csv")
        with _replacing(points) as fh:
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(",".join([_cell(row[c]) for c in self.columns])
                          + "\n" for row in self.rows)

        fitp = os.path.join(outdir, f"{prefix}_fit.json")
        with _replacing(fitp) as fh:
            json.dump({"scenario": self.name, "fits": self.fits,
                       "extras": self.extras}, fh, indent=2, sort_keys=True)
            fh.write("\n")

        provp = os.path.join(outdir, f"{prefix}_provenance.json")
        with _replacing(provp) as fh:
            json.dump(self.provenance, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [points, fitp, provp]


@contextlib.contextmanager
def _replacing(path: str):
    """Open a temporary sibling of path for writing and rename it over path
    on success, so a failure never leaves a partial file under that name."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cell(value) -> str:
    if type(value) is float:    # most cells; np.float64 takes the last line
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _provenance(bundle: Bundle) -> dict:
    return {
        "package": "nobleline",
        "version": _package_version(),
        "params_hash": bundle.system.params_hash(),
        "seed": bundle.scenario.seed,
        "scenario": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in asdict(bundle.scenario).items()},
        "config": provenance_mapping(bundle),
    }


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(count)]


def _least_samples_per_cycle(highest: float, center: float) -> float:
    """Smallest samples_per_cycle, to 6 significant digits, whose rate
    samples_per_cycle * |center| passes the synthesis test at `highest`."""
    bound = MIN_SAMPLES_PER_CYCLE * highest
    step = 10.0 ** (math.floor(math.log10(bound / abs(center))) - 5)
    knob = math.ceil(bound / abs(center) / step) * step
    while not knob * abs(center) > bound:
        knob += step
    return knob


def _check_record_sizes(scenario, sizes, knobs=("observe_efolds",
                                                "samples_per_cycle")) -> None:
    """Refuse, before building any, records above MAX_RECORD_SAMPLES; the
    knobs are the scenario keys that set their sizes."""
    n = max(sizes)
    if n > MAX_RECORD_SAMPLES:
        lower = " or ".join(f"{k} ({getattr(scenario, k):g})" for k in knobs)
        raise ConfigError(f"a record of {n} samples exceeds the cap of "
                          f"{MAX_RECORD_SAMPLES}; lower {lower}")


def _detuning_grid(scenario, gamma: float) -> np.ndarray:
    """Scan detunings: a dense core of `points` across +-span, plus
    symmetric far-baseline points that pin the fit's flat level."""
    core = np.linspace(-scenario.span_halfwidths, scenario.span_halfwidths,
                       scenario.points)
    wings = np.array(sorted(set(abs(h) for h in scenario.baseline_halfwidths)))
    grid = np.concatenate([-wings[::-1], core, wings]) * gamma
    return np.unique(grid)


# ---------------------------------------------------------------------------
# spectrum scan


def run_spectrum_scan(bundle: Bundle) -> ScanResult:
    """Sweep the probe across the hybrid line; fit the transmission dip.

    method "closed_form" evaluates the response expressions directly;
    "demodulated" synthesizes the beating Stokes records per point and
    recovers transmission and phase by heterodyne extraction, which is what
    an actual lock-in chain does. Gaussian noise of scenario.noise_sigma
    (per sample for "demodulated", per transmission point for
    "closed_form") is added when nonzero.
    """
    if bundle.optics is None:
        raise ConfigError("spectrum scenario needs an [optics] section")
    sc = bundle.scenario
    system = bundle.system
    line = line_shape(system, bundle.optics)
    deltas = _detuning_grid(sc, line.half_width)
    omegas = line.center + deltas
    rngs = _streams(sc.seed, len(omegas))

    if sc.method == "demodulated":
        duration = sc.demod_periods / abs(line.center)
        fs = sc.samples_per_cycle * abs(line.center)
        highest = float(np.max(np.abs(omegas)))
        if fs <= MIN_SAMPLES_PER_CYCLE * highest:
            raise ConfigError(
                f"samples_per_cycle = {sc.samples_per_cycle:g} undersamples "
                f"the scan's highest frequency {highest:.6g}; use at least "
                f"{_least_samples_per_cycle(highest, line.center):.6g}")
        _check_record_sizes(sc, [int(round(duration * fs))],
                            ("demod_periods", "samples_per_cycle"))
        rows = []
        for omega, rng in zip(omegas.tolist(), rngs):
            resp = s2_response(omega, system, bundle.optics,
                               s2_in=sc.signal_amplitude)
            t, s2_t = stokes_time_series(
                resp.s2_out, omega, duration, fs, noise_sigma=sc.noise_sigma,
                rng=rng if sc.noise_sigma else None)
            fit = heterodyne_extract(t, s2_t, omega)
            row = spectrum_row(omega, resp)
            row["transmission"] = (fit.amplitude / abs(sc.signal_amplitude))**2
            row["phase"] = fit.phase
            rows.append(row)
    else:
        rows = evaluate_spectrum(omegas, system, bundle.optics,
                                 s2_in=sc.signal_amplitude)
        if sc.noise_sigma > 0:
            for row, rng in zip(rows, rngs):
                row["transmission"] += rng.normal(0.0, sc.noise_sigma)

    omega_arr = np.array([r["omega"] for r in rows])
    trans_arr = np.array([r["transmission"] for r in rows])
    dip = fit_inverted_lorentzian(omega_arr, trans_arr)

    model_phase = np.array([phase_shift(line, r["delta"]) for r in rows])
    meas_phase = np.array([r["phase"] for r in rows])
    phase_rms = float(np.sqrt(np.mean((meas_phase - model_phase) ** 2)))

    extras = {
        "line_center": line.center,
        "line_half_width": line.half_width,
        "line_depth": line.depth,
        "line_contrast": line.contrast,
        "pulling_shift": line.center - system.omega_b,
        "phase_residual_rms": phase_rms,
        "method": sc.method,
    }
    return ScanResult(name="spectrum", columns=SPECTRUM_COLUMNS,
                      rows=rows, fits={"transmission_dip": dip.report()},
                      extras=extras, provenance=_provenance(bundle))


# ---------------------------------------------------------------------------
# excitation scan


def run_excitation_scan(bundle: Bundle) -> ScanResult:
    """Pulse-excite the noble spin across the line; fit the response width.

    Each grid point runs one excite-wait cycle; the stored amplitude is |R|
    at its end, where a readout would start. The squared, max-normalized
    amplitudes form a Lorentzian peak, so the width fit runs on their
    complement (a unit-depth dip). Short pulses Fourier-broaden the fitted width: at the default 3
    e-folds expect ~14% excess; beyond 8 e-folds the bias is < 0.1%.
    """
    sc = bundle.scenario
    system = bundle.system
    center = line_center(system)
    gamma = hybrid_linewidth(system, center - system.omega_a)
    deltas = _detuning_grid(sc, gamma)
    omegas = center + deltas
    rngs = _streams(sc.seed, len(omegas))
    ramp = sc.ramp_efolds / (TWO_PI * gamma)
    # each pulse is sized by the width at its own grid point, so both edges
    # must fit inside the pulse of the widest point
    widest = max(hybrid_linewidth(system, omega - system.omega_a)
                 for omega in omegas.tolist())
    if widest > 0 and 2.0 * ramp > sc.pulse_efolds / (TWO_PI * widest):
        raise ConfigError(
            f"ramp_efolds = {sc.ramp_efolds:g} does not fit twice into the "
            f"shortest pulse of the scan; keep it at or below "
            f"{0.5 * sc.pulse_efolds * gamma / widest:.6g}")

    rows = []
    for omega, rng in zip(omegas, rngs):
        res = excite_and_readout(
            system, float(omega), s3_amplitude=sc.signal_amplitude,
            pulse_efolds=sc.pulse_efolds, ramp=ramp,
            dead_efolds=sc.dead_efolds)
        amp = res.amplitude
        if sc.noise_sigma > 0:
            amp = abs(amp + rng.normal(0.0, sc.noise_sigma))
        rows.append({"omega": float(omega), "delta": float(omega - center),
                     "amplitude": amp})
    peak = max(row["amplitude"] for row in rows) or 1.0
    for row in rows:
        row["normalized_power"] = (row["amplitude"] / peak) ** 2

    dip = fit_inverted_lorentzian(
        np.array([r["omega"] for r in rows]),
        np.array([1.0 - r["normalized_power"] for r in rows]))
    extras = {
        "line_center": center,
        "line_half_width": gamma,
        "pulse_efolds": sc.pulse_efolds,
        "fitted_half_width": dip.half_width,
        "fitted_center": dip.center,
    }
    return ScanResult(name="excite", columns=EXCITE_COLUMNS, rows=rows,
                      fits={"response_dip": dip.report()}, extras=extras,
                      provenance=_provenance(bundle))


# ---------------------------------------------------------------------------
# field sweep


def run_field_sweep(bundle: Bundle) -> ScanResult:
    """Track the hybrid line across bias fields via free-precession fits.

    At each field the Larmor pair is rederived, a tilt-pulse transient is
    evolved and fit, and the closed-form center/width are recorded next to
    the fitted ones. A linear fit of fitted frequency vs field measures the
    noble-gas gyromagnetic ratio and the zero-crossing field.
    """
    if bundle.magnetics is None:
        raise ConfigError("sweep_field scenario needs a [magnetics] section")
    sc = bundle.scenario
    rngs = _streams(sc.seed, len(sc.fields))
    systems = []
    for b_field in sc.fields:
        omega_a, omega_b = derive_larmor(bundle.magnetics, field=b_field)
        systems.append(replace(bundle.system, omega_a=omega_a,
                               omega_b=omega_b))
    _check_record_sizes(sc, [transient_samples(
        s, sc.observe_efolds, sc.samples_per_cycle) for s in systems])

    rows = []
    for b_field, system, rng in zip(sc.fields, systems, rngs):
        center = line_center(system)
        gamma = hybrid_linewidth(system, center - system.omega_a)
        contrast = (line_shape(system, bundle.optics).contrast
                    if bundle.optics is not None else math.nan)
        fit = magnetic_pulse_transient(
            system, tilt_amplitude=sc.tilt_amplitude,
            observe_efolds=sc.observe_efolds,
            samples_per_cycle=sc.samples_per_cycle,
            noise_sigma=sc.noise_sigma, rng=rng).fit
        rows.append({
            "field": float(b_field), "omega_b_bare": system.omega_b,
            "line_center": center, "full_width": 2.0 * gamma,
            "contrast": contrast,
            "fit_frequency": fit.frequency, "fit_decay": fit.decay_rate,
        })

    freqs = [r["fit_frequency"] for r in rows]
    monotonic = all(b < a for b, a in zip(freqs, freqs[1:])) \
        or all(b > a for b, a in zip(freqs, freqs[1:]))
    widths = [r["full_width"] for r in rows]
    contrasts = [r["contrast"] for r in rows]
    line = fit_linear(np.array([r["field"] for r in rows]), np.array(freqs))
    extras = {
        "monotonic": monotonic,
        "width_decreasing": all(b > a for b, a in zip(widths, widths[1:])),
        "contrast_decreasing": (
            all(b > a for b, a in zip(contrasts, contrasts[1:]))
            if bundle.optics is not None else False),
        "slope": line.slope,
        "x_intercept": line.x_intercept,
        "min_full_width": min(widths),
        "max_full_width": max(widths),
    }
    return ScanResult(name="sweep_field", columns=SWEEP_COLUMNS, rows=rows,
                      fits={"frequency_vs_field": line.report()},
                      extras=extras, provenance=_provenance(bundle))


# ---------------------------------------------------------------------------
# single transient


def run_transient(bundle: Bundle) -> ScanResult:
    """One tilt-pulse free-precession record with its decaying-sinusoid fit."""
    sc = bundle.scenario
    _check_record_sizes(sc, [transient_samples(
        bundle.system, sc.observe_efolds, sc.samples_per_cycle)])
    res = magnetic_pulse_transient(
        bundle.system, tilt_amplitude=sc.tilt_amplitude,
        observe_efolds=sc.observe_efolds,
        samples_per_cycle=sc.samples_per_cycle, noise_sigma=sc.noise_sigma,
        rng=_streams(sc.seed, 1)[0])
    traj = res.trajectory
    fit = res.fit

    rows = [{"t": t, "f_x": fx, "f_y": fy, "r_x": rx, "r_y": ry}
            for t, fx, fy, rx, ry in zip(
                traj.times.tolist(), traj.f_x.tolist(), traj.f_y.tolist(),
                traj.r_x.tolist(), traj.r_y.tolist())]
    extras = {
        "predicted_decay": res.predicted_decay,
        "predicted_frequency": res.predicted_frequency,
        "formula_decay": res.formula_decay,
        "fitted_decay": fit.decay_rate,
        "fitted_frequency": fit.frequency,
    }
    return ScanResult(name="transient", columns=TRAJECTORY_COLUMNS, rows=rows,
                      fits={"free_precession": fit.report()}, extras=extras,
                      provenance=_provenance(bundle))


# ---------------------------------------------------------------------------
# calibration


def run_calibration(bundle: Bundle) -> ScanResult:
    """Calibration of the bare-alkali gyromagnetic ratio and decay rate.

    With the exchange decoupled (J = 0) the alkali free-precession record at
    each field is an exact decaying sinusoid. Two passes run: a noiseless
    one, whose recovered slope (frequency vs field) and pooled decay rate
    check the estimator's bias, and scenario.trials noisy Monte-Carlo
    repetitions, which check that the true values fall inside the reported
    95% intervals at roughly the nominal rate. Coverage fractions and the
    noiseless recovery land in the extras block.
    """
    if bundle.magnetics is None:
        raise ConfigError("calibrate scenario needs a [magnetics] section")
    sc = bundle.scenario
    system = bundle.system
    noise = sc.noise_sigma if sc.noise_sigma > 0 else 0.05
    n_fields = 5
    idx = np.linspace(0, len(sc.fields) - 1, n_fields).round().astype(int)
    cal_fields = [sc.fields[i] for i in sorted(set(int(i) for i in idx))]

    true_g = bundle.magnetics.alkali_gyromagnetic
    true_gamma = system.gamma_a
    if true_gamma == 0.0:
        raise ConfigError("calibrate needs gamma_a > 0: its records span two "
                          "alkali decay e-folds")
    duration = 2.0 / (TWO_PI * true_gamma)
    omegas = [true_g * (b - bundle.magnetics.noble_emf) for b in cal_fields]
    rates = [sc.samples_per_cycle * abs(omega_a) for omega_a in omegas]
    _check_record_sizes(sc, [int(duration * fs) for fs in rates],
                        ("samples_per_cycle",))
    rngs = _streams(sc.seed, sc.trials)
    # each field's grid and noiseless record serve every trial
    clean_records = []
    for omega_a, fs in zip(omegas, rates):
        t = np.arange(int(duration * fs)) / fs
        clean_records.append((t, np.exp(-TWO_PI * true_gamma * t)
                              * np.cos(TWO_PI * omega_a * t)))

    def one_trial(trial: int, rng) -> dict:
        freq_hat = []
        gam_hat, gam_var = [], []
        for t, record in clean_records:
            if rng is not None:
                record = record + rng.normal(0.0, noise, size=t.shape)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                fit = fit_decaying_sinusoid(t, record)
            freq_hat.append(fit.frequency)
            gam_hat.append(fit.decay_rate)
            half = 0.5 * (fit.decay_rate_ci[1] - fit.decay_rate_ci[0])
            gam_var.append(max(half, 1e-30) ** 2)
        lin = fit_linear(np.array(cal_fields), np.array(freq_hat))
        w = 1.0 / np.asarray(gam_var)
        pooled = float(np.sum(w * np.asarray(gam_hat)) / np.sum(w))
        pooled_half = float(1.0 / math.sqrt(np.sum(w)))
        dlo, dhi = pooled - pooled_half, pooled + pooled_half
        return {
            "trial": trial,
            "slope": lin.slope, "slope_lo": lin.slope_ci[0],
            "slope_hi": lin.slope_ci[1],
            "slope_covered": lin.slope_ci[0] <= true_g <= lin.slope_ci[1],
            "decay": pooled, "decay_lo": dlo, "decay_hi": dhi,
            "decay_covered": dlo <= true_gamma <= dhi,
        }

    clean = one_trial(-1, None)
    rows = [one_trial(i, rng) for i, rng in enumerate(rngs)]

    slope_cov = float(np.mean([r["slope_covered"] for r in rows]))
    decay_cov = float(np.mean([r["decay_covered"] for r in rows]))
    extras = {
        "true_slope": true_g,
        "true_decay": true_gamma,
        "noise_sigma": noise,
        "fields": list(cal_fields),
        "noiseless_slope": clean["slope"],
        "noiseless_decay": clean["decay"],
        "slope_coverage": slope_cov,
        "decay_coverage": decay_cov,
        "mean_slope": float(np.mean([r["slope"] for r in rows])),
        "mean_decay": float(np.mean([r["decay"] for r in rows])),
    }
    return ScanResult(name="calibrate", columns=CALIBRATION_COLUMNS,
                      rows=rows, fits={}, extras=extras,
                      provenance=_provenance(bundle))


_RUNNERS = {
    "spectrum": run_spectrum_scan,
    "excite": run_excitation_scan,
    "sweep_field": run_field_sweep,
    "transient": run_transient,
    "calibrate": run_calibration,
}


def run_scenario(bundle: Bundle) -> ScanResult:
    """Dispatch to the runner that the bundle's scenario names."""
    return _RUNNERS[bundle.scenario.name](bundle)
