"""Command-line interface: exit codes, outputs, locking, overrides."""

import configparser
import json

import pytest

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
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read(preset_path())
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    sections["scenario"]["ramp_efolds"] = "1.49999"
    code = main(["excite", "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "ramp_efolds" in err
