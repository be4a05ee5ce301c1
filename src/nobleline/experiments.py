"""Scenario runners: full measurement protocols from config to output files.

Every runner consumes a resolved :class:`~nobleline.config.Bundle`, draws all
randomness from child streams of the scenario seed, each made at its draw
(stable across runs and platforms), and returns a :class:`ScanResult`. Its
``table`` maps each points column, in CSV order, to one equal-length
sequence; this module owns every column name (the ``*_COLUMNS`` tuples) and
alone splits the complex coherences and lock-in amplitudes of the lower
layers into real columns. ``write`` emits three files per scenario::

    <prefix>_points.csv        the table, one repr() per cell
    <prefix>_fit.json          fit reports and derived summary numbers
    <prefix>_provenance.json   package, version, params_hash, and the
                               config the run resolved, which replays it
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .config import Bundle
from .dynamics import (check_width_gap, excite_and_readout,
                       magnetic_pulse_transient, transient_samples)
from .model import (_MAX_RATE, MIN_SAMPLES_PER_CYCLE, ConfigError, TWO_PI,
                    ValidityError, derive_larmor)
from .signals import (MIN_DEMOD_PERIODS, fit_decaying_sinusoid,
                      fit_inverted_lorentzian, fit_linear,
                      heterodyne_extract)
from .spectrum import (evaluate_spectrum, hybrid_linewidth, line_center,
                       line_shape, phase_shift)

SPECTRUM_COLUMNS = ("omega", "delta", "transmission", "phase",
                    "re_f", "im_f", "re_r", "im_r")
EXCITE_COLUMNS = ("omega", "delta", "amplitude", "normalized_power")
SWEEP_COLUMNS = ("field", "omega_b_bare", "line_center", "full_width",
                 "contrast", "fit_frequency", "fit_decay")
CALIBRATION_COLUMNS = ("trial", "slope", "slope_lo", "slope_hi",
                       "slope_covered", "decay", "decay_lo", "decay_hi",
                       "decay_covered")
TRAJECTORY_COLUMNS = ("t", "f_x", "f_y", "r_x", "r_y")

#: largest sampled record a run may build: evolving, fitting and writing
#: one costs about 0.25 kB per sample, so this cap holds a transient near
#: 1.0 GB
MAX_RECORD_SAMPLES = 4_000_000

#: widest core spacing of a scan, in half-widths: one point per full width
#: of the line (the default scan's is 0.25)
MAX_CORE_SPACING = 2.0


@dataclass
class ScanResult:
    """Uniform runner output: a points table, fit reports, and provenance.

    table maps each column name, in CSV order, to an equal-length sequence
    of ints (flags are 0/1) or floats.
    """

    name: str
    table: dict
    fits: dict
    extras: dict
    provenance: dict

    def _records(self):
        """The table's rows as tuples of Python scalars, converted 4,096
        rows at a time, so no whole column is held as Python objects.
        Columns of unequal length raise ValueError."""
        columns = [np.asarray(c) for c in self.table.values()]
        block = 4096
        for start in range(0, max(map(len, columns), default=0), block):
            yield from zip(*(c[start:start + block].tolist()
                             for c in columns), strict=True)

    @property
    def rows(self) -> list[dict]:
        """The table as one dict per row; a copy, so edits do not stick."""
        return [dict(zip(self.table, r)) for r in self._records()]

    def write(self, outdir, prefix: str) -> list[str]:
        """Write the three files together: each goes to a temporary sibling
        first, and only when all three are written and each target is
        absent or a regular file are they renamed into place. A failure
        before the renames removes the temporaries and leaves every file
        already there as it was; one between two renames can still leave
        the three from different runs."""
        os.makedirs(outdir, exist_ok=True)
        summary = {"scenario": self.name, "fits": self.fits,
                   "extras": self.extras}
        outputs = {"points.csv": self._write_points,
                   "fit.json": lambda fh: write_json(summary, fh),
                   "provenance.json": lambda fh: write_json(self.provenance,
                                                            fh)}
        paths = [os.path.join(outdir, f"{prefix}_{s}") for s in outputs]
        tmps = []
        try:
            for path, fill in zip(paths, outputs.values()):
                tmps.append(f"{path}.{os.getpid()}.tmp")
                with open(tmps[-1], "w", newline="") as fh:
                    fill(fh)
            for path in paths:
                if (os.path.lexists(path)
                        and not stat.S_ISREG(os.lstat(path).st_mode)):
                    raise OSError(errno.EEXIST,
                                  "exists and is not a regular file", path)
            for tmp, path in zip(tmps, paths):
                os.replace(tmp, path)
        finally:
            for tmp in tmps:
                if os.path.exists(tmp):
                    os.remove(tmp)
        return paths

    def _write_points(self, fh) -> None:
        fh.write(",".join(self.table) + "\n")
        fh.writelines(",".join(map(repr, r)) + "\n" for r in self._records())


def write_json(doc, fh) -> None:
    """The one JSON format of every output: indent 2, sorted keys, and a
    trailing newline."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _table(names, *columns) -> dict:
    """A ScanResult table: each name of `names` mapped to its column."""
    return dict(zip(names, columns, strict=True))


def _result(bundle: Bundle, name: str, table: dict, fits: dict,
            extras: dict) -> ScanResult:
    """Runner `name`'s ScanResult. Its provenance config is the bundle's
    typed sections with [scenario] as this run resolved it, under `name`,
    so config_from_mapping(provenance["config"]) replays the run."""
    scenario = replace(bundle.scenario, name=name)
    provenance = {
        "package": "nobleline",
        "version": __version__,
        "params_hash": bundle.system.params_hash(),
        "config": {**bundle.mapping, "scenario": asdict(scenario)},
    }
    return ScanResult(name=name, table=table, fits=fits, extras=extras,
                      provenance=provenance)


def _stream(seed: int, index: int) -> np.random.Generator:
    """Child `index` of the seed: SeedSequence(seed).spawn(n)[index]."""
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(index,)))


def _least_knob(estimate: float, passes) -> float:
    """Smallest knob value, to 6 significant digits, from `estimate` (at
    most the answer) up, for which passes(knob) holds."""
    step = 10.0 ** (math.floor(math.log10(estimate)) - 5)
    knob = math.ceil(estimate / step) * step
    while not passes(knob):
        knob += step
    return knob


def _least_demod_periods(lowest: float, center: float, fs: float) -> float:
    """Smallest demod_periods, to 6 significant digits, whose record of
    round(demod_periods / center * fs) samples at rate fs spans
    MIN_DEMOD_PERIODS periods of the frequency `lowest` > 0."""
    def spans(periods):
        n = int(round(periods / center * fs))
        return (n - 1) / fs * lowest >= MIN_DEMOD_PERIODS

    least_n = math.ceil(MIN_DEMOD_PERIODS * fs / lowest) + 1
    return _least_knob((least_n - 0.5) / fs * center, spans)


@contextmanager
def _record_budget(scenario, sizes, knobs):
    """Hold a run's records to MAX_RECORD_SAMPLES: refuse, before building
    any, one whose size in `sizes` (floats to compare before any int(), inf
    where a knob makes one overflow) is above the cap, and turn running out
    of memory inside the block into one ConfigError. Both messages name the
    scenario keys `knobs` that set the sizes, with their values."""
    n = max(sizes)
    lower = " or ".join(f"{k} ({getattr(scenario, k):g})" for k in knobs)
    if n > MAX_RECORD_SAMPLES:
        raise ConfigError(f"a record of {n:.4g} samples exceeds the cap of "
                          f"{MAX_RECORD_SAMPLES}; lower {lower}")
    try:
        yield
    except MemoryError:
        raise ConfigError(f"out of memory; the run's largest record holds up "
                          f"to {n:.4g} samples; lower {lower}") from None


def _detuning_grid(scenario, gamma: float) -> np.ndarray:
    """Scan detunings: a dense core of `points` across +-span, plus
    symmetric far-baseline points that pin the fit's flat level. A core
    that cannot resolve its line is refused before anything is computed."""
    span, points = scenario.span_halfwidths, scenario.points
    spacing = 2.0 * span / (points - 1)
    if not (span > 0 and spacing <= MAX_CORE_SPACING):
        raise ConfigError(
            f"span_halfwidths = {span:g} and points = {points} cannot resolve "
            "the line: a scan needs span_halfwidths > 0 and a core spacing "
            f"2*span_halfwidths/(points - 1) of at most {MAX_CORE_SPACING:g} "
            f"half-widths (here {spacing:g})")
    core = np.linspace(-span, span, points)
    wings = np.array(sorted(set(abs(h) for h in scenario.baseline_halfwidths)))
    grid = np.concatenate([-wings[::-1], core, wings]) * gamma
    return np.unique(grid)


# ---------------------------------------------------------------------------
# spectrum scan


def run_spectrum_scan(bundle: Bundle) -> ScanResult:
    """Sweep the probe across the hybrid line; fit the transmission dip.

    Both methods tabulate the closed-form response at each point; method
    "demodulated" then replaces its transmission and phase by those that
    heterodyne extraction recovers from the synthesized beating Stokes
    record, which is what an actual lock-in chain does. Gaussian noise of
    scenario.noise_sigma (per sample for "demodulated", per transmission
    point for "closed_form") is added when nonzero.
    """
    if bundle.optics is None:
        raise ConfigError("spectrum scenario needs an [optics] section")
    sc = bundle.scenario
    system = bundle.system
    line = line_shape(system, bundle.optics)
    check_width_gap(system)
    omegas = line.center + _detuning_grid(sc, line.half_width)
    sizes, knobs = [len(omegas)], ("points",)
    if sc.method == "demodulated":
        center = abs(line.center)
        fs = sc.samples_per_cycle * center
        highest = float(np.max(np.abs(omegas)))
        bound = MIN_SAMPLES_PER_CYCLE * highest
        if fs <= bound:
            least = _least_knob(bound / center, lambda k: k * center > bound)
            raise ConfigError(
                f"samples_per_cycle = {sc.samples_per_cycle:g} undersamples "
                f"the scan's highest frequency {highest:.6g}; use at least "
                f"{least:.6g}")
        n = float(np.round(sc.demod_periods / center * fs))
        lowest = float(np.min(np.abs(omegas)))
        # heterodyne_extract's span, in periods of the lowest frequency; nan
        # where the record size overflows, which the budget refuses
        window = (n - 1) / fs * lowest
        if window < MIN_DEMOD_PERIODS:
            hint = "no value does: the scan reaches zero frequency"
            if lowest > 0:
                least = _least_demod_periods(lowest, center, fs)
                hint = f"use at least {least:.6g}"
            raise ConfigError(
                f"demod_periods = {sc.demod_periods:g} gives a demodulation "
                f"window of {window:.3g} periods at the scan's lowest "
                f"frequency {lowest:.6g}, below {MIN_DEMOD_PERIODS:g}; "
                f"{hint}")
        sizes, knobs = [n], ("demod_periods", "samples_per_cycle")

    with _record_budget(sc, sizes, knobs):
        if sc.method == "demodulated":
            t = np.arange(int(n)) / fs
        responses = evaluate_spectrum(omegas, system, bundle.optics,
                                      s2_in=sc.signal_amplitude)
        table = _table(SPECTRUM_COLUMNS, omegas,
                       [r.detunings.delta_hybrid for r in responses],
                       [r.transmission for r in responses],
                       [r.phase for r in responses],
                       [r.f_tilde.real for r in responses],
                       [r.f_tilde.imag for r in responses],
                       [r.r_tilde.real for r in responses],
                       [r.r_tilde.imag for r in responses])
        if sc.method == "demodulated":
            lockins = []
            for i, (omega, r) in enumerate(zip(omegas.tolist(), responses)):
                s2_t = np.real(r.s2_out * np.exp(-1j * TWO_PI * omega * t))
                if sc.noise_sigma:
                    s2_t = s2_t + _stream(sc.seed, i).normal(
                        0.0, sc.noise_sigma, size=t.shape)
                lockins.append(heterodyne_extract(t, s2_t, omega))
            # math.hypot, not abs(z): they round differently in the last bit
            ratios = [math.hypot(z.real, z.imag) / abs(sc.signal_amplitude)
                      for z in lockins]
            # a float's ** raises where its square overflows; refuse it
            # first (nan and inf count as too large)
            squarable = math.sqrt(np.finfo(float).max)
            unsquarable = [q for q in ratios if not q <= squarable]
            if unsquarable:
                raise ValidityError(
                    f"lock-in amplitude ratio {unsquarable[0]:g} is too large "
                    f"to square into a transmission (noise_sigma = "
                    f"{sc.noise_sigma:g})")
            table["transmission"] = [q ** 2 for q in ratios]
            table["phase"] = [math.atan2(-z.imag, z.real) for z in lockins]
        elif sc.noise_sigma > 0:
            table["transmission"] = [
                tr + _stream(sc.seed, i).normal(0.0, sc.noise_sigma)
                for i, tr in enumerate(table["transmission"])]

        dip = fit_inverted_lorentzian(omegas, table["transmission"])
        model_phase = np.array([phase_shift(line, d) for d in table["delta"]])
        phase_rms = float(np.sqrt(np.mean((np.array(table["phase"])
                                           - model_phase) ** 2)))

    extras = {
        "line_center": line.center,
        "line_half_width": line.half_width,
        "line_depth": line.depth,
        "line_contrast": line.contrast,
        "pulling_shift": line.center - system.omega_b,
        "phase_residual_rms": phase_rms,
        "method": sc.method,
    }
    return _result(bundle, "spectrum", table,
                   {"transmission_dip": dip.report()}, extras)


# ---------------------------------------------------------------------------
# excitation scan


def run_excitation_scan(bundle: Bundle) -> ScanResult:
    """Pulse-excite the noble spin across the line; fit the response width.

    Each grid point runs one excite-wait cycle; the stored amplitude is |R|
    at its end, where a readout would start. The squared, max-normalized
    amplitudes form a Lorentzian peak, so the width fit runs on their
    complement (a unit-depth dip). Short pulses Fourier-broaden the fitted
    width: at the default 3 e-folds expect ~14% excess; beyond 8 e-folds
    the bias is < 0.1%.
    """
    sc = bundle.scenario
    system = bundle.system
    center = line_center(system)
    gamma = hybrid_linewidth(system, center - system.omega_a)
    if gamma <= 0:
        raise ValidityError("undamped line: zero width with gamma_b = 0 and "
                            "gamma_a = 0 or no exchange; excitation never "
                            "saturates")
    check_width_gap(system)
    omegas = center + _detuning_grid(sc, gamma)
    ramp = sc.ramp_efolds / (TWO_PI * gamma)
    # each pulse is sized by the width at its own grid point, so both
    # edges must fit inside the pulse of the widest point
    widths = np.fromiter((hybrid_linewidth(system, omega - system.omega_a)
                          for omega in omegas.tolist()), float, omegas.size)
    widest, narrowest = float(widths.max()), float(widths.min())
    if widest > 0 and 2.0 * ramp > sc.pulse_efolds / (TWO_PI * widest):
        raise ConfigError(
            f"ramp_efolds = {sc.ramp_efolds:g} does not fit twice into "
            f"the shortest pulse of the scan; keep it at or below "
            f"{0.5 * sc.pulse_efolds * gamma / widest:.6g}")
    # the engine multiplies each pulse by the drive frequency and by the
    # eigenvalues, each at most |gamma + i omega| of both spins plus J
    fastest = max(abs(system.gamma_a + 1j * system.omega_a) + system.exchange
                  + abs(system.gamma_b + 1j * system.omega_b),
                  float(np.max(np.abs(omegas))))
    longest = sc.pulse_efolds / (TWO_PI * narrowest) if narrowest > 0 else 0.0
    if math.isinf(longest * TWO_PI * fastest):
        raise ConfigError(f"pulse_efolds = {sc.pulse_efolds:g} makes pulses "
                          f"of up to {longest:.3g} s, whose phase at the "
                          f"fastest rate {fastest:.4g} Hz overflows")
    # the wait decays every readout by about exp(-waited)
    waited = (sc.dead_efolds * gamma / system.gamma_a
              if system.gamma_a else 0.0)
    if math.exp(-waited) == 0.0:
        raise ConfigError(f"dead_efolds = {sc.dead_efolds:g} waits "
                          f"{waited:.3g} e-folds of the line, which "
                          "decays every readout to zero")

    with _record_budget(sc, [len(omegas)], ("points",)):
        readouts = excite_and_readout(
            system, omegas, s3_amplitude=sc.signal_amplitude,
            pulse_efolds=sc.pulse_efolds, ramp=ramp,
            dead_efolds=sc.dead_efolds)
        amps = [abs(r) for r in readouts]
        if sc.noise_sigma > 0:
            # noise at or above every readout leaves the fit rectified noise
            if max(amps) <= sc.noise_sigma:
                raise ValidityError(
                    f"noise_sigma = {sc.noise_sigma:g} is not below the "
                    f"largest noiseless readout {max(amps):.4g}; the fit "
                    "would see only rectified noise")
            amps = [abs(amp + _stream(sc.seed, i).normal(0.0, sc.noise_sigma))
                    for i, amp in enumerate(amps)]
        peak = max(amps) or 1.0
        power = [(amp / peak) ** 2 for amp in amps]

        dip = fit_inverted_lorentzian(omegas, [1.0 - p for p in power])
        table = _table(EXCITE_COLUMNS, omegas, omegas - center, amps, power)
    extras = {
        "line_center": center,
        "line_half_width": gamma,
        "pulse_efolds": sc.pulse_efolds,
        "fitted_half_width": dip.half_width,
        "fitted_center": dip.center,
    }
    return _result(bundle, "excite", table,
                   {"response_dip": dip.report()}, extras)


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
    larmor = [derive_larmor(bundle.magnetics, field=b) for b in sc.fields]
    for b, pair in zip(sc.fields, larmor):
        for name, rate in zip(("omega_a", "omega_b"), pair):
            if not abs(rate) <= _MAX_RATE:
                raise ConfigError(f"fields: field {b:g} mG gives {name} = "
                                  f"{rate:g} Hz, beyond the +-{_MAX_RATE:g} "
                                  "Hz a rate may hold")
    systems = [replace(bundle.system, omega_a=a, omega_b=b) for a, b in larmor]
    sizes = [transient_samples(s, sc.observe_efolds, sc.samples_per_cycle)
             for s in systems]

    centers, widths, contrasts, freqs, decays = [], [], [], [], []
    with _record_budget(sc, sizes, ("observe_efolds", "samples_per_cycle")):
        for i, system in enumerate(systems):
            centers.append(line_center(system))
            contrasts.append(line_shape(system, bundle.optics).contrast
                             if bundle.optics is not None else math.nan)
            res = magnetic_pulse_transient(
                system, tilt_amplitude=sc.tilt_amplitude,
                observe_efolds=sc.observe_efolds, noise_sigma=sc.noise_sigma,
                samples_per_cycle=sc.samples_per_cycle,
                rng=_stream(sc.seed, i) if sc.noise_sigma else None)
            widths.append(2.0 * res.formula_decay)
            freqs.append(res.fit.frequency)
            decays.append(res.fit.decay_rate)
            del res   # free this field's record before the next one evolves
    table = _table(SWEEP_COLUMNS, [float(b) for b in sc.fields],
                   [s.omega_b for s in systems], centers, widths, contrasts,
                   freqs, decays)

    monotonic = all(b < a for b, a in zip(freqs, freqs[1:])) \
        or all(b > a for b, a in zip(freqs, freqs[1:]))
    line = fit_linear(np.array(table["field"]), np.array(freqs))
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
    return _result(bundle, "sweep_field", table,
                   {"frequency_vs_field": line.report()}, extras)


# ---------------------------------------------------------------------------
# single transient


def run_transient(bundle: Bundle) -> ScanResult:
    """One tilt-pulse free-precession record with its decaying-sinusoid fit."""
    sc = bundle.scenario
    size = transient_samples(bundle.system, sc.observe_efolds,
                             sc.samples_per_cycle)
    with _record_budget(sc, [size], ("observe_efolds", "samples_per_cycle")):
        res = magnetic_pulse_transient(
            bundle.system, tilt_amplitude=sc.tilt_amplitude,
            observe_efolds=sc.observe_efolds,
            samples_per_cycle=sc.samples_per_cycle, noise_sigma=sc.noise_sigma,
            rng=_stream(sc.seed, 0) if sc.noise_sigma else None)
    traj = res.trajectory
    fit = res.fit

    extras = {
        "predicted_decay": res.predicted_decay,
        "predicted_frequency": res.predicted_frequency,
        "formula_decay": res.formula_decay,
        "fitted_decay": fit.decay_rate,
        "fitted_frequency": fit.frequency,
    }
    table = _table(TRAJECTORY_COLUMNS, traj.times, traj.f.real, traj.f.imag,
                   traj.r.real, traj.r.imag)
    return _result(bundle, "transient", table,
                   {"free_precession": fit.report()}, extras)


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
    true_g = bundle.magnetics.alkali_gyromagnetic
    true_gamma = system.gamma_a
    if true_gamma == 0.0:
        raise ConfigError("calibrate needs gamma_a > 0: its records span two "
                          "alkali decay e-folds")
    # up to five of the scenario's fields, spread across it, each sampled
    # over two alkali decay e-folds
    idx = np.linspace(0, len(sc.fields) - 1, 5).round().astype(int)
    cal_fields = [sc.fields[i] for i in sorted(set(int(i) for i in idx))]
    omegas = [derive_larmor(bundle.magnetics, field=b)[0] for b in cal_fields]
    rates = [sc.samples_per_cycle * abs(omega_a) for omega_a in omegas]
    duration = 2.0 / (TWO_PI * true_gamma)
    sizes = [float(np.floor(duration * fs)) for fs in rates]

    with _record_budget(sc, sizes, ("samples_per_cycle",)):
        # each field's grid and noiseless record serve every trial
        clean_records = []
        for omega_a, fs in zip(omegas, rates):
            t = np.arange(int(duration * fs)) / fs
            clean_records.append((t, np.exp(-TWO_PI * true_gamma * t)
                                  * np.cos(TWO_PI * omega_a * t)))

        def one_trial(rng) -> tuple:
            """One trial's cells: CALIBRATION_COLUMNS after "trial"."""
            freq_hat = []
            gam_hat, gam_var = [], []
            for t, record in clean_records:
                if rng is not None:
                    record = record + rng.normal(0.0, noise, size=t.shape)
                fit = fit_decaying_sinusoid(t, record)
                freq_hat.append(fit.frequency)
                gam_hat.append(fit.decay_rate)
                half = 0.5 * (fit.decay_rate_ci[1] - fit.decay_rate_ci[0])
                gam_var.append(max(half, 1e-30) ** 2)
            lin = fit_linear(np.array(cal_fields), np.array(freq_hat))
            w = 1.0 / np.asarray(gam_var)
            pooled = float(np.sum(w * np.asarray(gam_hat)) / np.sum(w))
            pooled_half = float(1.0 / math.sqrt(np.sum(w)))
            slo, shi = lin.slope_ci
            dlo, dhi = pooled - pooled_half, pooled + pooled_half
            return (lin.slope, slo, shi, int(slo <= true_g <= shi),
                    pooled, dlo, dhi, int(dlo <= true_gamma <= dhi))

        clean = dict(zip(CALIBRATION_COLUMNS[1:], one_trial(None)))
        table = _table(CALIBRATION_COLUMNS, range(sc.trials),
                       *zip(*(one_trial(_stream(sc.seed, i))
                              for i in range(sc.trials))))

    extras = {
        "true_slope": true_g,
        "true_decay": true_gamma,
        "noise_sigma": noise,
        "fields": list(cal_fields),
        "noiseless_slope": clean["slope"],
        "noiseless_decay": clean["decay"],
        "slope_coverage": float(np.mean(table["slope_covered"])),
        "decay_coverage": float(np.mean(table["decay_covered"])),
        "mean_slope": float(np.mean(table["slope"])),
        "mean_decay": float(np.mean(table["decay"])),
    }
    return _result(bundle, "calibrate", table, {}, extras)


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
