"""Command-line interface: exit codes, outputs, locking, overrides."""

import configparser
import json
import os
import subprocess
import sys

import pytest

import nobleline
from nobleline.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_VALIDITY,
                           main)
from nobleline.config import preset_path
from nobleline.model import FitConvergenceError

FAST_SYSTEM = {
    "system": {"gamma_a": "1.0", "gamma_b": "0.05", "omega_a": "500",
               "omega_b": "25", "exchange": "2"},
    "magnetics": {"field": "6.1", "alkali_gyromagnetic": "82.1",
                  "noble_gyromagnetic": "4.098"},
}


def write_ini(path, sections):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


def preset_sections():
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read(preset_path())
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _fresh_interpreter_stdout(script):
    """Run `script` in a new interpreter on this package; its stdout."""
    src = os.path.dirname(os.path.dirname(nobleline.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command", [None, "check-config", "derive-params"])
def test_import_and_config_commands_load_no_scipy(command):
    # scipy serves only the fits; importing it costs about half a cold start
    script = "import sys, nobleline\n"
    if command:
        script += ("import contextlib, io, nobleline.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert nobleline.cli.main([{command!r}]) == 0\n")
    script += "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    assert _fresh_interpreter_stdout(script) == "[]\n"


@pytest.mark.parametrize("command, scenario", [
    ("transient", {}), ("spectrum", {"method": "demodulated"})],
    ids=["transient", "spectrum-demodulated"])
def test_fit_commands_load_no_scipy_optimize(tmp_path, command, scenario):
    # the fits run their own trust-region loop; scipy.linalg (its SVD) and
    # scipy.special (the t quantile) may load, scipy.optimize may not
    sections = preset_sections()
    sections["scenario"].update(scenario)
    argv = [command, "--config", write_ini(tmp_path / "f.ini", sections),
            "--out", str(tmp_path / "out"), "--quiet"]
    script = ("import sys, nobleline.cli\n"
              f"assert nobleline.cli.main({argv!r}) == 0\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith('scipy.optimize')))\n")
    assert _fresh_interpreter_stdout(script) == "[]\n"
    assert (tmp_path / "out" / f"{command}_fit.json").exists()


def test_check_config_on_preset(capsys):
    assert main(["check-config"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok: sections" in out
    assert "exchange = 14.0" in out


def test_derive_params_json(capsys):
    assert main(["derive-params"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega_a"] == 2200.0
    assert payload["exchange"] == pytest.approx(14.0, rel=1e-12)
    assert payload["slow_mode"]["decay"] == pytest.approx(
        0.004501617998440191, rel=1e-9)
    assert payload["line"]["contrast"] == pytest.approx(0.5299810659450424,
                                                        rel=1e-9)


def test_spectrum_command_writes_outputs(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario: spectrum" in out
    assert out.count("wrote:") == 3
    for name in ("spectrum_points.csv", "spectrum_fit.json",
                 "spectrum_provenance.json"):
        assert (tmp_path / name).exists(), name
    assert not (tmp_path / "spectrum.lock").exists()


def test_quiet_suppresses_summary(tmp_path, capsys):
    assert main(["transient", "--config",
                 write_ini(tmp_path / "f.ini", FAST_SYSTEM),
                 "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert (tmp_path / "transient_points.csv").exists()


def test_seed_override_lands_in_provenance(tmp_path, capsys):
    cfg = write_ini(tmp_path / "f.ini", FAST_SYSTEM)
    assert main(["transient", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "123", "--quiet"]) == EXIT_OK
    with open(tmp_path / "transient_provenance.json") as fh:
        prov = json.load(fh)
    assert prov["seed"] == 123
    assert prov["scenario"]["seed"] == 123


def test_missing_config_exits_config(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1


def test_unknown_key_exits_config(tmp_path, capsys):
    # readout_cycles was a scenario knob that no output read
    for section, key in (("system", "gamma_c"), ("scenario", "readout_cycles")):
        sections = {k: dict(v) for k, v in FAST_SYSTEM.items()}
        sections.setdefault(section, {})[key] = "1.0"
        code = main(["check-config", "--config",
                     write_ini(tmp_path / "f.ini", sections)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("nobleline: error: config:")
        assert err.count("\n") == 1
        assert key in err


MALFORMED_INI = {
    "no_section_header": b"gamma_a = 1.0\n",
    "duplicate_key": b"[system]\ngamma_a = 1.0\ngamma_a = 2.0\n",
    "line_without_equals": b"[system]\ngamma_a\n",
    "binary": bytes(range(256)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INI))
def test_malformed_config_file_exits_config(tmp_path, capsys, name):
    path = tmp_path / f"{name}.ini"
    path.write_bytes(MALFORMED_INI[name])
    assert main(["check-config", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
def test_unusable_out_exits_config(tmp_path, capsys, out):
    # --out naming an existing file, or a path under one
    (tmp_path / "a_file").write_text("")
    code = main(["spectrum", "--out", str(tmp_path / out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert str(tmp_path / out) in err


def test_out_prefix_in_missing_directory_exits_config(tmp_path, capsys):
    sections = {**FAST_SYSTEM, "scenario": {"out_prefix": "missing/x"}}
    cfg = write_ini(tmp_path / "f.ini", sections)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]
                ) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "missing/x.lock" in err


def test_validity_error_exits_validity(tmp_path, capsys):
    sections = {
        "system": {"gamma_a": "51.0", "gamma_b": "2.4e-3"},
        "gas_cell": {"alkali_density": "8.5e13", "noble_pressure": "1500",
                     "temperature": "460", "alkali_polarization": "0.7",
                     "noble_polarization": "5.6e-3", "slowing_factor": "4.7",
                     "exchange_coefficient": "4e-15", "cell_diameter": "1.4"},
        "magnetics": {"field": "6.1", "alkali_gyromagnetic": "592"},
        # control beam parked inside the optical line: outside validity
        "optics": {"beam_area": "0.166", "optical_halfwidth": "12.5e9",
                   "optical_detuning": "1.0e10", "control_power": "0.025",
                   "wavelength": "770", "optical_depth": "27"},
    }
    code = main(["check-config", "--config",
                 write_ini(tmp_path / "f.ini", sections)])
    assert code == EXIT_VALIDITY
    assert capsys.readouterr().err.startswith("nobleline: error: validity:")


def test_fit_error_exits_fit(tmp_path, capsys, monkeypatch):
    import nobleline.cli as cli

    def boom(bundle):
        raise FitConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(cli, "run_scenario", boom)
    cfg = write_ini(tmp_path / "f.ini", FAST_SYSTEM)
    code = main(["transient", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_FIT
    assert capsys.readouterr().err.startswith("nobleline: error: fit:")
    # the lock must not survive the failure
    assert not (tmp_path / "transient.lock").exists()


def test_lockfile_blocks_concurrent_run(tmp_path, capsys):
    cfg = write_ini(tmp_path / "f.ini", FAST_SYSTEM)
    (tmp_path / "transient.lock").write_text("999")
    code = main(["transient", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "locked" in capsys.readouterr().err
    # stale lock is left for the operator to inspect/remove
    assert (tmp_path / "transient.lock").exists()


@pytest.mark.parametrize("command, key, value", [
    ("spectrum", "method", "dynamics"),
    ("excite", "ramp_efolds", "-0.1"),
    ("excite", "ramp_efolds", "2.0"),
    ("excite", "pulse_efolds", "0"),
    ("transient", "observe_efolds", "-1"),
    ("transient", "observe_efolds", "inf"),
    ("excite", "pulse_efolds", "inf"),
    ("transient", "noise_sigma", "nan"),
    ("transient", "noise_sigma", "inf"),
    ("excite", "dead_efolds", "-1"),
    ("excite", "signal_amplitude", "0"),
    ("sweep-field", "tilt_amplitude", "0"),
    ("sweep-field", "fields", "5 5 5"),
    ("sweep-field", "fields", "5 6"),
    ("calibrate", "fields", "5 6"),
    ("transient", "samples_per_cycle", "0"),
    ("spectrum", "demod_periods", "0"),
])
def test_bad_scenario_knob_exits_config(tmp_path, capsys, command, key,
                                        value):
    sections = {**FAST_SYSTEM, "scenario": {key: value}}
    code = main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


def test_ramp_too_long_for_the_widest_grid_point_exits_config(tmp_path,
                                                              capsys):
    # passes the load-time check against line center, but the pulses above
    # center are shorter than two such ramps
    sections = preset_sections()
    sections["scenario"]["ramp_efolds"] = "1.49999"
    code = main(["excite", "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "ramp_efolds" in err


@pytest.mark.parametrize("command, scenario", [
    ("transient", {"samples_per_cycle": "1.5"}),
    ("transient", {"samples_per_cycle": "4"}),
    ("sweep-field", {"samples_per_cycle": "1.5", "fields": "4 10.7 40"}),
    # above 4 per cycle of line center, but not of the scan's top frequency
    ("spectrum", {"samples_per_cycle": "4.001", "method": "demodulated"}),
], ids=["transient-1.5", "transient-4", "sweep-field-1.5",
        "spectrum-demodulated-4.001"])
def test_undersampled_records_exit_config(tmp_path, capsys, command,
                                          scenario):
    # at 1.5 samples per cycle the precession aliases to half its frequency,
    # which the fits would report as a clean measurement
    sections = preset_sections()
    sections["scenario"].update(scenario)
    out = tmp_path / "out"
    code = main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "samples_per_cycle" in err
    # the spectrum grid is checked after --out is made; nothing lands in it
    assert not out.exists() or command == "spectrum" and not any(out.iterdir())


@pytest.mark.parametrize("command, code, kind", [
    ("calibrate", EXIT_CONFIG, "config"),
    ("spectrum", EXIT_VALIDITY, "validity"),
    ("derive-params", EXIT_VALIDITY, "validity"),
], ids=["calibrate", "spectrum", "derive-params"])
def test_undamped_alkali_exits_with_one_error_line(tmp_path, capsys, command,
                                                   code, kind):
    # gamma_a = 0 leaves calibrate's record length and the line depth
    # gamma'_a/gamma_a undefined; each must be refused, not divided by
    sections = preset_sections()
    sections["system"]["gamma_a"] = "0"
    argv = [command, "--config", write_ini(tmp_path / "f.ini", sections)]
    if command != "derive-params":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"nobleline: error: {kind}:")
    assert err.count("\n") == 1
    assert "gamma_a" in err


def test_undersampled_spectrum_names_a_sampling_that_works(tmp_path, capsys):
    sections = preset_sections()
    sections["scenario"].update(samples_per_cycle="4.001",
                                method="demodulated")
    main(["spectrum", "--config", write_ini(tmp_path / "f.ini", sections),
          "--out", str(tmp_path)])
    least = capsys.readouterr().err.rsplit("use at least ", 1)[1].strip()
    sections["scenario"]["samples_per_cycle"] = least
    assert main(["spectrum", "--config",
                 write_ini(tmp_path / "f.ini", sections), "--out",
                 str(tmp_path), "--quiet"]) == EXIT_OK


@pytest.mark.parametrize("command, overrides, knobs", [
    # 4.5 M samples at the preset's 6.1 mG, 55 M at the sweep's 40 mG
    pytest.param("transient", {"observe_efolds": "200"},
                 ("observe_efolds", "samples_per_cycle"), id="transient"),
    pytest.param("sweep-field", {"observe_efolds": "200"},
                 ("observe_efolds", "samples_per_cycle"), id="sweep-field"),
    # 14 M samples at the highest calibration field
    pytest.param("calibrate", {"samples_per_cycle": "1e5"},
                 ("samples_per_cycle",), id="calibrate"),
    # 6.4 M samples at every grid point
    pytest.param("spectrum", {"method": "demodulated",
                              "demod_periods": "2e5"},
                 ("demod_periods", "samples_per_cycle"), id="spectrum"),
])
def test_oversized_record_exits_config_before_evolving(
        tmp_path, capsys, monkeypatch, command, overrides, knobs):
    import nobleline.dynamics as dynamics
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("a record was built before the size check")

    monkeypatch.setattr(dynamics, "evolve_exact", unreachable)
    for name in ("fit_decaying_sinusoid", "stokes_time_series",
                 "heterodyne_extract"):
        monkeypatch.setattr(experiments, name, unreachable)
    sections = preset_sections()
    sections["scenario"].update(overrides)
    code = main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert all(knob in err for knob in knobs), err
