"""Scenario runners: protocol outputs, fits, determinism, error paths."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nobleline.config import load_config, preset_path, scenario_with
from nobleline.experiments import (CALIBRATION_COLUMNS, EXCITE_COLUMNS,
                                   SPECTRUM_COLUMNS, SWEEP_COLUMNS,
                                   ScanResult, _stream, run_calibration,
                                   run_excitation_scan, run_field_sweep,
                                   run_scenario, run_spectrum_scan,
                                   run_transient)
from nobleline.model import ConfigError
from nobleline.spectrum import line_shape


@pytest.fixture(scope="module")
def preset_bundle():
    return load_config(preset_path())


def with_scenario(bundle, **kw):
    return replace(bundle, scenario=scenario_with(bundle.scenario, **kw))


def test_spectrum_scan_closed_form(preset_bundle):
    res = run_spectrum_scan(preset_bundle)
    assert res.name == "spectrum"
    assert tuple(res.table) == SPECTRUM_COLUMNS
    line = line_shape(preset_bundle.system, preset_bundle.optics)
    assert res.extras["line_center"] == line.center
    assert res.extras["line_half_width"] == line.half_width
    # the scan evaluates gamma/depth locally at each point while the phase
    # model freezes them at line center, leaving a ~1e-6 systematic
    assert res.extras["phase_residual_rms"] < 1e-5
    # fitted width recovers the slow-eigenmode decay
    fit = res.fits["transmission_dip"]
    width = {p["parameter"]: p["value"] for p in fit["parameters"]}
    assert width["half_width"] == pytest.approx(0.004501617998440191,
                                                rel=1e-6)
    assert width["center"] == pytest.approx(line.center, abs=1e-6)
    assert width["contrast"] == pytest.approx(line.contrast, rel=1e-4)
    assert not fit["flags"]["degenerate"]
    # grid: core points plus the four baseline wing pairs
    sc = preset_bundle.scenario
    assert len(res.rows) == sc.points + 2 * len(sc.baseline_halfwidths)


def test_spectrum_scan_demodulated_matches_closed_form(preset_bundle):
    closed = run_spectrum_scan(preset_bundle)
    demod = run_spectrum_scan(with_scenario(preset_bundle,
                                            method="demodulated"))
    for a, b in zip(closed.rows, demod.rows):
        assert b["transmission"] == pytest.approx(a["transmission"],
                                                  rel=1e-9)
        assert b["phase"] == pytest.approx(a["phase"], abs=1e-9)
    assert demod.extras["method"] == "demodulated"


def test_spectrum_scan_noise_is_seeded(preset_bundle):
    noisy = with_scenario(preset_bundle, noise_sigma=0.01, seed=7)
    a = run_spectrum_scan(noisy)
    b = run_spectrum_scan(noisy)
    assert [r["transmission"] for r in a.rows] == \
        [r["transmission"] for r in b.rows]
    c = run_spectrum_scan(with_scenario(preset_bundle, noise_sigma=0.01,
                                        seed=8))
    assert [r["transmission"] for r in a.rows] != \
        [r["transmission"] for r in c.rows]


def test_spectrum_scan_requires_optics(preset_bundle):
    stripped = replace(preset_bundle, optics=None)
    with pytest.raises(ConfigError):
        run_spectrum_scan(stripped)


def test_excitation_scan_width_bias(preset_bundle):
    # short pulses Fourier-broaden the fitted width; at 3 e-folds the
    # documented excess is ~12% with the far wings pinning the baseline
    res = run_excitation_scan(with_scenario(preset_bundle, points=21))
    assert tuple(res.table) == EXCITE_COLUMNS
    peak = max(r["normalized_power"] for r in res.rows)
    assert peak == 1.0
    gamma = res.extras["line_half_width"]
    ratio = res.extras["fitted_half_width"] / gamma
    assert 1.05 < ratio < 1.25
    # long pulses converge on the true width
    res8 = run_excitation_scan(with_scenario(preset_bundle, points=21,
                                             pulse_efolds=8.0))
    ratio8 = res8.extras["fitted_half_width"] / gamma
    assert abs(ratio8 - 1.0) < 0.005


def test_field_sweep_tracks_line(preset_bundle):
    bundle = with_scenario(preset_bundle, fields=(4.0, 6.1, 10.7, 40.0))
    res = run_field_sweep(bundle)
    assert tuple(res.table) == SWEEP_COLUMNS
    assert res.extras["monotonic"]
    assert res.extras["width_decreasing"]
    assert res.extras["contrast_decreasing"]
    by_field = {r["field"]: r for r in res.rows}
    # the fitted precession frequency tracks the pulled line center
    for row in res.rows:
        assert row["fit_frequency"] == pytest.approx(row["line_center"],
                                                     rel=1e-6)
    line = line_shape(preset_bundle.system, preset_bundle.optics)
    assert by_field[6.1]["line_center"] == pytest.approx(line.center,
                                                         rel=1e-12)
    assert by_field[6.1]["full_width"] == pytest.approx(2 * line.half_width,
                                                        rel=1e-12)
    assert 4.3e-3 <= by_field[10.7]["full_width"] <= 6.5e-3
    # slope recovers the noble gyromagnetic ratio (small pulling residual)
    g_b = preset_bundle.magnetics.noble_gyromagnetic
    assert res.extras["slope"] == pytest.approx(g_b, rel=5e-3)
    assert abs(res.extras["x_intercept"]) < 0.1


def test_field_sweep_requires_magnetics(preset_bundle):
    with pytest.raises(ConfigError):
        run_field_sweep(replace(preset_bundle, magnetics=None))


def test_transient_runner(preset_bundle):
    res = run_transient(with_scenario(preset_bundle, observe_efolds=1.5))
    assert res.extras["fitted_decay"] == pytest.approx(
        res.extras["predicted_decay"], rel=1e-6)
    assert res.extras["fitted_frequency"] == pytest.approx(
        res.extras["predicted_frequency"], rel=1e-9)
    assert res.extras["formula_decay"] == pytest.approx(
        res.extras["predicted_decay"], rel=1e-3)
    assert res.rows[0]["r_x"] == pytest.approx(
        preset_bundle.scenario.tilt_amplitude)


@pytest.mark.parametrize("tilt", [1e-16, 1e-20])
def test_transient_fit_does_not_depend_on_the_record_scale(preset_bundle,
                                                           tilt):
    # the fit stops on absolute tolerances, so a tiny record used to stop
    # early: +22 % off in decay at 1e-16, the initial guess at 1e-20
    unit = run_transient(preset_bundle)
    tiny = run_transient(with_scenario(preset_bundle, tilt_amplitude=tilt))
    for key in ("fitted_decay", "fitted_frequency"):
        assert tiny.extras[key] == pytest.approx(unit.extras[key], rel=1e-12)
    amplitude = [r.fits["free_precession"]["parameters"][0]
                 for r in (unit, tiny)]
    assert amplitude[0]["parameter"] == "amplitude"
    assert amplitude[1]["value"] == pytest.approx(
        tilt * amplitude[0]["value"], rel=1e-12)


def test_calibration_noiseless_recovery_and_coverage(preset_bundle):
    bundle = with_scenario(preset_bundle, trials=12, seed=3,
                           samples_per_cycle=16.0)
    res = run_calibration(bundle)
    assert tuple(res.table) == CALIBRATION_COLUMNS
    assert len(res.rows) == 12
    g = preset_bundle.magnetics.alkali_gyromagnetic
    gamma = preset_bundle.system.gamma_a
    assert res.extras["noiseless_slope"] == pytest.approx(g, rel=1e-6)
    assert res.extras["noiseless_decay"] == pytest.approx(gamma, rel=1e-6)
    assert 0.0 <= res.extras["slope_coverage"] <= 1.0
    assert res.extras["mean_slope"] == pytest.approx(g, rel=1e-2)
    assert res.extras["mean_decay"] == pytest.approx(gamma, rel=1e-2)


def test_run_scenario_dispatch(preset_bundle):
    res = run_scenario(with_scenario(preset_bundle, name="transient",
                                     observe_efolds=1.0))
    assert res.name == "transient"


def test_out_of_memory_reaches_python_callers_as_config_error(preset_bundle,
                                                              monkeypatch):
    import nobleline.experiments as experiments

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(experiments, "magnetic_pulse_transient", exhausted)
    with pytest.raises(ConfigError, match=r"^out of memory; the run's largest "
                       r"record holds up to 4\.478e\+04 samples; lower "
                       r"observe_efolds \(2\) or samples_per_cycle \(32\)$"):
        run_scenario(with_scenario(preset_bundle, name="transient"))


@pytest.mark.parametrize("seed", [0, 1, 2**63])
def test_stream_is_the_spawned_child_bit_for_bit(seed):
    # each stream is made at its draw; it must be the generator that
    # spawning every child up front gives, whatever the number spawned
    for n in (1, 2, 7, 200):
        children = np.random.SeedSequence(seed).spawn(n)
        for i in sorted({0, 1, n // 2, n - 1} & set(range(n))):
            want = np.random.default_rng(children[i])
            got = _stream(seed, i)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.normal(size=64).tobytes() \
                == want.normal(size=64).tobytes()


SHORT_SWEEP = {"fields": (4.0, 5.0, 6.1), "observe_efolds": 0.3,
               "samples_per_cycle": 8.0}


@pytest.mark.parametrize("runner, scenario, made", [
    (run_spectrum_scan, {}, 0),
    (run_spectrum_scan, {"method": "demodulated"}, 0),
    (run_excitation_scan, {"points": 11}, 0),
    (run_field_sweep, SHORT_SWEEP, 0),
    (run_transient, {"observe_efolds": 0.3}, 0),
    (run_spectrum_scan, {"points": 11, "noise_sigma": 0.01}, 19),
    (run_calibration, {"trials": 3, "samples_per_cycle": 8.0}, 3),
], ids=["spectrum", "spectrum-demodulated", "excite", "sweep-field",
        "transient", "spectrum-noisy", "calibrate"])
def test_a_run_makes_a_generator_only_where_it_draws_noise(
        preset_bundle, monkeypatch, runner, scenario, made):
    # calibrate's trials are always noisy; a noisy scan draws one stream a
    # point (11 core and 8 baseline points here)
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    runner(with_scenario(preset_bundle, **scenario))
    assert len(calls) == made


def test_runner_records_the_scenario_it_ran(preset_bundle):
    # the preset's scenario is named spectrum; the provenance must name the
    # protocol that produced the result, so that it replays that run
    res = run_transient(with_scenario(preset_bundle, observe_efolds=1.5))
    scenario = res.provenance["config"]["scenario"]
    assert res.name == scenario["name"] == "transient"
    assert scenario["observe_efolds"] == 1.5


def test_version_is_declared_once(preset_bundle):
    # pyproject.toml reads the version from the package, which provenance
    # records; none is written in the file itself
    tomllib = pytest.importorskip("tomllib")
    import nobleline

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" in pyproject["project"]["dynamic"]
    assert "version" not in pyproject["project"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "nobleline.__version__"}
    assert run_transient(with_scenario(
        preset_bundle, observe_efolds=0.3, samples_per_cycle=8.0)
    ).provenance["version"] == nobleline.__version__


def test_scan_result_write_and_provenance_round_trip(preset_bundle, tmp_path):
    from nobleline.config import config_from_mapping

    res = run_spectrum_scan(preset_bundle)
    paths = res.write(tmp_path, prefix="demo")
    names = [p.split("/")[-1] for p in paths]
    assert names == ["demo_points.csv", "demo_fit.json",
                     "demo_provenance.json"]
    lines = (tmp_path / "demo_points.csv").read_text().splitlines()
    assert lines[0] == ",".join(SPECTRUM_COLUMNS)
    assert len(lines) == len(res.rows) + 1
    with open(tmp_path / "demo_fit.json") as fh:
        fits = json.load(fh)
    assert fits["scenario"] == "spectrum"
    assert "transmission_dip" in fits["fits"]
    with open(tmp_path / "demo_provenance.json") as fh:
        prov = json.load(fh)
    assert prov["package"] == "nobleline"
    assert prov["config"]["scenario"]["seed"] == preset_bundle.scenario.seed
    assert prov["params_hash"] == preset_bundle.system.params_hash()
    rebuilt = config_from_mapping(prov["config"])
    assert rebuilt.system == preset_bundle.system


def test_scan_result_write_cells_are_python_reprs(tmp_path):
    # the runners' cell types: ints, 0/1 flags, nan, numpy scalars and
    # arrays, plain floats
    table = {
        "trial": range(3),
        "covered": [1, 0, int(np.bool_(True))],
        "contrast": [math.nan, 0.1 + 0.2, -0.0],
        "amplitude": [abs(np.float64(-2.5e-17)), np.float64(1) / 3,
                      np.float64(7.0)],
        "t": np.array([0.0, 1e-300, 19.790149562900268]),
    }
    res = ScanResult(name="demo", table=table, fits={}, extras={},
                     provenance={})
    res.write(tmp_path, prefix="demo")
    lines = (tmp_path / "demo_points.csv").read_text().splitlines()
    assert lines[0] == "trial,covered,contrast,amplitude,t"
    columns = dict(zip(table, zip(*(line.split(",") for line in lines[1:]))))
    assert columns["trial"] == ("0", "1", "2")
    assert columns["covered"] == ("1", "0", "1")
    for name in ("contrast", "amplitude", "t"):
        for cell, value in zip(columns[name], table[name]):
            assert cell == repr(float(value))
            assert float(cell) == value or math.isnan(value)
    assert "np." not in "".join(lines)
    assert res.rows[1] == {"trial": 1, "covered": 0, "contrast": 0.1 + 0.2,
                           "amplitude": 1 / 3, "t": 1e-300}


@pytest.mark.parametrize("lengths", [(4097, 4097), (4096, 4097), (4097, 4096),
                                     (0, 1)])
def test_scan_result_rows_cross_blocks_and_refuse_unequal_columns(lengths):
    # rows are converted 4,096 at a time: a table one row past a block
    # still comes out whole, and a column one row short still raises
    # wherever the short one stands
    table = {"a": np.arange(lengths[0]) / 3, "b": list(range(lengths[1]))}
    res = ScanResult(name="demo", table=table, fits={}, extras={},
                     provenance={})
    if lengths[0] != lengths[1]:
        with pytest.raises(ValueError):
            res.rows
        return
    assert res.rows == [{"a": i / 3, "b": i} for i in range(lengths[0])]


def test_reruns_are_byte_identical(preset_bundle, tmp_path):
    bundle = with_scenario(preset_bundle, noise_sigma=0.005, seed=42)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for sub in ("a", "b"):
        run_spectrum_scan(bundle).write(tmp_path / sub, prefix="x")
    for name in ("x_points.csv", "x_fit.json", "x_provenance.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_scan_result_write_leaves_no_partial_file(preset_bundle, tmp_path,
                                                  monkeypatch):
    res = run_spectrum_scan(preset_bundle)

    def dump_then_fail(obj, fh, **kw):
        fh.write("{")
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError):
        res.write(tmp_path, prefix="demo")
    # the three land together: the points file written before the failure
    # is not renamed into place either, and no temporary is left
    assert not any(tmp_path.iterdir())
