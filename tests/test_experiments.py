"""Scenario runners: protocol outputs, fits, determinism, error paths."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nobleline.config import load_config, preset_path, scenario_with
from nobleline.experiments import (CALIBRATION_COLUMNS, EXCITE_COLUMNS,
                                   SWEEP_COLUMNS, run_calibration,
                                   run_excitation_scan, run_field_sweep,
                                   run_scenario, run_spectrum_scan,
                                   run_transient)
from nobleline.model import ConfigError
from nobleline.spectrum import SPECTRUM_COLUMNS, line_shape


@pytest.fixture(scope="module")
def preset_bundle():
    return load_config(preset_path())


def with_scenario(bundle, **kw):
    return replace(bundle, scenario=scenario_with(bundle.scenario, **kw))


def test_spectrum_scan_closed_form(preset_bundle):
    res = run_spectrum_scan(preset_bundle)
    assert res.name == "spectrum"
    assert res.columns == SPECTRUM_COLUMNS
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
    assert res.columns == EXCITE_COLUMNS
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
    assert res.columns == SWEEP_COLUMNS
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


def test_calibration_noiseless_recovery_and_coverage(preset_bundle):
    bundle = with_scenario(preset_bundle, trials=12, seed=3,
                           samples_per_cycle=16.0)
    res = run_calibration(bundle)
    assert res.columns == CALIBRATION_COLUMNS
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
    assert prov["seed"] == preset_bundle.scenario.seed
    assert prov["params_hash"] == preset_bundle.system.params_hash()
    rebuilt = config_from_mapping(prov["config"])
    assert rebuilt.system == preset_bundle.system


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo_points.csv"]
