"""Command-line interface: exit codes, outputs, locking, overrides."""

import configparser
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nobleline
from nobleline.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_VALIDITY,
                           main)
from nobleline.config import config_from_mapping, preset_path
from nobleline.experiments import run_scenario
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


# (command, [scenario] overrides of a small run); None runs the command
# without a config, or only imports the package
NO_SCIPY_RUNS = [
    (None, None), ("check-config", None), ("derive-params", None),
    ("spectrum", {}), ("spectrum", {"method": "demodulated"}),
    ("excite", {}), ("transient", {}),
    ("sweep-field", {"fields": "4.0 5.0 6.1"}), ("calibrate", {"trials": "2"}),
]


@pytest.mark.parametrize("command, scenario", NO_SCIPY_RUNS, ids=[
    "None", "check-config", "derive-params", "spectrum",
    "spectrum-demodulated", "excite", "transient", "sweep-field",
    "calibrate"])
def test_import_and_config_commands_load_no_scipy(tmp_path, command,
                                                  scenario):
    # the runtime is numpy only: the fits take their SVD from numpy's LAPACK
    # and their t quantile from signals, and scipy alone would about double
    # a cold start
    script = "import sys, nobleline\n"
    if scenario is None and command:
        script += ("import contextlib, io, nobleline.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert nobleline.cli.main([{command!r}]) == 0\n")
    elif command:
        sections = preset_sections()
        sections["scenario"].update(scenario)
        argv = [command, "--config", write_ini(tmp_path / "f.ini", sections),
                "--out", str(tmp_path / "out"), "--quiet"]
        script += ("import nobleline.cli\n"
                   f"assert nobleline.cli.main({argv!r}) == 0\n")
    script += "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    assert _fresh_interpreter_stdout(script) == "[]\n"
    if scenario is not None:
        name = command.replace("-", "_")
        assert (tmp_path / "out" / f"{name}_fit.json").exists()


def test_import_and_light_commands_load_no_numpy():
    # config, model and spectrum are numpy-free; signals, dynamics and
    # experiments are registered in sys.modules but load on first use
    script = (
        "import contextlib, io, sys, nobleline\n"
        "nobleline.load_config(nobleline.preset_path())\n"
        "import nobleline.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert nobleline.cli.main(['check-config']) == 0\n"
        "print('numpy' in sys.modules)\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m.startswith('nobleline.')))\n")
    loaded, modules = _fresh_interpreter_stdout(script).splitlines()
    assert loaded == "False"
    # bench/tracer.py wraps the functions of these modules in place
    assert modules.split() == [f"nobleline.{name}" for name in (
        "cli", "config", "dynamics", "experiments", "model", "signals",
        "spectrum")]


# home module -> the names the package exports from it
EXPORTS = {
    "config": ("Bundle", "ScenarioConfig", "config_from_mapping",
               "load_config", "preset_path", "scenario_with"),
    "dynamics": ("Segment", "SidebandResponse", "SpinTrajectory",
                 "TransientResult", "evolve_exact", "exact_linear_response",
                 "excite_and_readout", "magnetic_pulse_transient",
                 "slow_mode", "tilt_state"),
    "experiments": ("ScanResult", "run_scenario"),
    "model": ("ConfigError", "Detunings", "FitConvergenceError", "GasCell",
              "MagneticConfig", "NoblelineError", "OpticalParams",
              "SystemParams", "TWO_PI", "ValidityError", "build_system",
              "compute_detunings", "derive_exchange_rates", "derive_larmor",
              "derive_optics", "ideal_gas_density"),
    "signals": ("LineFit", "LinearFit", "SinusoidFit",
                "fit_decaying_sinusoid", "fit_inverted_lorentzian",
                "fit_linear", "heterodyne_extract"),
    "spectrum": ("LineShape", "S2Response", "alkali_coherence",
                 "evaluate_spectrum", "hybrid_linewidth", "line_center",
                 "line_shape", "noble_coherence", "phase_shift",
                 "s2_response", "transmitted_ratio"),
}


def test_package_exports_each_name_from_its_home_module():
    assert nobleline.__all__ == sorted(
        [*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
    for home, names in EXPORTS.items():
        module = sys.modules[f"nobleline.{home}"]
        assert getattr(nobleline, home) is module
        for name in names:
            assert getattr(nobleline, name) is getattr(module, name), name
    namespace = {}
    exec("from nobleline import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
        name: getattr(nobleline, name) for name in nobleline.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        nobleline.no_such_name


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
    assert prov["config"]["scenario"]["seed"] == 123


# [scenario] knobs of a small run of each command, with noise so the seed
# shows; the preset's excite readouts peak near 4.6e-19, so excite's noise
# is its own
SMALL_RUN = {"points": "11", "span_halfwidths": "5", "noise_sigma": "0.01",
             "fields": "4.0 5.0 6.1", "observe_efolds": "0.3",
             "samples_per_cycle": "8", "trials": "2"}
SMALL_RUN_NOISE = {"excite": "1e-20"}


@pytest.mark.parametrize("command", [
    "spectrum", "excite", "sweep-field", "transient", "calibrate"])
def test_provenance_replays_the_run_byte_for_byte(tmp_path, capsys, command):
    # the INI names another scenario and seed than the run: the provenance
    # must hold the scenario the command and --seed resolved, once
    name = command.replace("-", "_")
    sections = preset_sections()
    sections["scenario"].update(
        SMALL_RUN, name="calibrate" if name == "spectrum" else "spectrum")
    if name in SMALL_RUN_NOISE:
        sections["scenario"]["noise_sigma"] = SMALL_RUN_NOISE[name]
    out = tmp_path / "out"
    assert main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out), "--seed", "7", "--quiet"]) == EXIT_OK
    prov = json.loads((out / f"{name}_provenance.json").read_text())
    assert sorted(prov) == ["config", "package", "params_hash", "version"]
    assert prov["version"] == nobleline.__version__
    assert (prov["config"]["scenario"]["name"],
            prov["config"]["scenario"]["seed"]) == (name, 7)

    replay = tmp_path / "replay"
    run_scenario(config_from_mapping(prov["config"])).write(replay, name)
    for suffix in ("points.csv", "fit.json", "provenance.json"):
        assert (replay / f"{name}_{suffix}").read_bytes() \
            == (out / f"{name}_{suffix}").read_bytes(), suffix


def test_negative_seed_override_exits_config(tmp_path, capsys):
    # numpy's SeedSequence refuses a negative seed; the CLI must, first
    out = tmp_path / "out"
    code = main(["transient", "--config",
                 write_ini(tmp_path / "f.ini", FAST_SYSTEM),
                 "--out", str(out), "--seed", "-1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("section, keys, named", [
    ("optics", {"tilt_coeff": "1.0"}, ("faraday_coeff", "scattering_rate")),
    ("system", {"exchange": "14", "exchange_ab": "20"},
     ("exchange_ab", "exchange_ba")),
], ids=["optics-tilt-only", "exchange-one-rate"])
def test_half_given_coupling_exits_config(tmp_path, capsys, section, keys,
                                          named):
    # a partial set would be completed behind the user's back: the optics
    # derivation overwrites the given coefficients, and a lone exchange rate
    # used to pair with exchange itself as the other rate
    sections = preset_sections()
    if section == "system":  # no cell, so no derived rates
        del sections["gas_cell"], sections["optics"]
    sections[section].update(keys)
    code = main(["derive-params", "--config",
                 write_ini(tmp_path / "f.ini", sections)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    for key in named:
        assert key in err


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
    import nobleline.experiments as experiments

    def boom(bundle):
        raise FitConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(experiments, "run_scenario", boom)
    cfg = write_ini(tmp_path / "f.ini", FAST_SYSTEM)
    code = main(["transient", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_FIT
    assert capsys.readouterr().err.startswith("nobleline: error: fit:")
    # the lock must not survive the failure
    assert not (tmp_path / "transient.lock").exists()


RECORD_KNOBS = ("observe_efolds (2)", "samples_per_cycle (32)")


@pytest.mark.parametrize("command, scenario, layer, knobs", [
    ("spectrum", {}, "evaluate_spectrum", ("points (41)",)),
    ("spectrum", {"method": "demodulated"}, "evaluate_spectrum",
     ("demod_periods (8)", "samples_per_cycle (32)")),
    ("excite", {}, "excite_and_readout", ("points (41)",)),
    ("sweep-field", {}, "magnetic_pulse_transient", RECORD_KNOBS),
    ("transient", {}, "magnetic_pulse_transient", RECORD_KNOBS),
    ("calibrate", {}, "fit_decaying_sinusoid", ("samples_per_cycle (32)",)),
    ("calibrate", {}, "_streams", ("samples_per_cycle (32)",)),
], ids=["spectrum-evaluate_spectrum", "spectrum-demodulated-evaluate_spectrum",
        "excite-excite_and_readout", "sweep-field-magnetic_pulse_transient",
        "transient-magnetic_pulse_transient",
        "calibrate-fit_decaying_sinusoid", "calibrate-_streams"])
def test_out_of_memory_exits_config_in_one_line(tmp_path, capsys, monkeypatch,
                                                command, scenario, layer,
                                                knobs):
    # raised where numpy would raise it: in a layer the runner calls inside
    # its record budget
    import nobleline.experiments as experiments

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(experiments, layer, exhausted)
    sections = preset_sections()
    sections["scenario"].update(scenario)
    code = main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config: out of memory;")
    assert err.count("\n") == 1
    assert all(knob in err for knob in knobs), err
    assert not (tmp_path / f"{command}.lock").exists()


def test_lockfile_blocks_concurrent_run(tmp_path, capsys):
    cfg = write_ini(tmp_path / "f.ini", FAST_SYSTEM)
    (tmp_path / "transient.lock").write_text("999")
    code = main(["transient", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "locked" in capsys.readouterr().err
    # stale lock is left for the operator to inspect/remove
    assert (tmp_path / "transient.lock").exists()


@pytest.mark.parametrize("command, blocked", [
    ("transient", "fit.json"), ("spectrum", "provenance.json"),
], ids=["transient", "spectrum"])
def test_write_failure_keeps_earlier_outputs(tmp_path, capsys, command,
                                             blocked):
    # a directory at one output's path used to end in an IsADirectoryError
    # traceback, after the files written before it had replaced the earlier
    # run's
    out = tmp_path / "out"
    out.mkdir()
    suffixes = ("points.csv", "fit.json", "provenance.json")
    for suffix in suffixes:
        target = out / f"{command}_{suffix}"
        if suffix == blocked:
            target.mkdir()
        else:
            target.write_bytes(f"earlier {suffix}\n".encode())
    assert main([command, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert str(out / f"{command}_{blocked}") in err
    # the earlier files keep their bytes; no temporary or lock is left
    for suffix in suffixes:
        target = out / f"{command}_{suffix}"
        assert target.is_dir() if suffix == blocked else (
            target.read_bytes() == f"earlier {suffix}\n".encode())
    assert len(list(out.iterdir())) == 3


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
    ("transient", "seed", "-1"),
    # used to reach the user as numpy's _ArrayMemoryError
    ("excite", "points", "1000000000000000"),
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


ON_RESONANCE = {"omega_a": "20", "omega_b": "20"}


@pytest.mark.parametrize("command, code, kind, system", [
    ("calibrate", EXIT_CONFIG, "config", {}),
    ("spectrum", EXIT_VALIDITY, "validity", {}),
    ("derive-params", EXIT_VALIDITY, "validity", {}),
    ("spectrum", EXIT_VALIDITY, "validity", ON_RESONANCE),
    ("excite", EXIT_VALIDITY, "validity", ON_RESONANCE),
    ("transient", EXIT_VALIDITY, "validity", ON_RESONANCE),
    ("derive-params", EXIT_VALIDITY, "validity", ON_RESONANCE),
    ("excite", EXIT_VALIDITY, "validity", {"gamma_b": "0"}),
], ids=["calibrate", "spectrum", "derive-params", "spectrum-on-resonance",
        "excite-on-resonance", "transient-on-resonance",
        "derive-params-on-resonance", "excite-undamped-line"])
def test_undamped_alkali_exits_with_one_error_line(tmp_path, capsys, command,
                                                   code, kind, system):
    # gamma_a = 0 leaves calibrate's record length and the line depth
    # gamma'_a/gamma_a undefined; each must be refused, not divided by. On
    # the alkali resonance the exchange pull and width diverge as well. With
    # gamma_b = 0 too the line has no width to size excite's grid and ramps.
    sections = preset_sections()
    sections["system"].update(gamma_a="0", **system)
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


@pytest.mark.parametrize("scenario", [
    {"demod_periods": "2.5"}, {"baseline_halfwidths": "ZERO"},
], ids=["short", "zero-frequency"])
def test_short_demodulation_window_exits_config_before_any_work(
        tmp_path, capsys, monkeypatch, scenario):
    # used to exit 3 from heterodyne_extract, after the whole scan was
    # evaluated and its first record synthesized; a baseline point at zero
    # frequency has no window that works
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("the scan ran before its window was checked")

    if scenario.get("baseline_halfwidths") == "ZERO":
        bundle = nobleline.load_config(preset_path())
        line = nobleline.line_shape(bundle.system, bundle.optics)
        scenario = {"baseline_halfwidths": repr(line.center / line.half_width)}
    sections = preset_sections()
    sections["scenario"].update(method="demodulated", **scenario)
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "evaluate_spectrum", unreachable)
        code = main(["spectrum", "--config",
                     write_ini(tmp_path / "f.ini", sections), "--out",
                     str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "demod_periods" in err
    assert not any(out.iterdir())
    if "baseline_halfwidths" in scenario:
        assert "zero frequency" in err
        return
    sections["scenario"]["demod_periods"] = \
        err.rsplit("use at least ", 1)[1].strip()
    assert main(["spectrum", "--config",
                 write_ini(tmp_path / "f.ini", sections), "--out", str(out),
                 "--quiet"]) == EXIT_OK


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
    # sizes that overflow to inf used to end in int()'s OverflowError
    pytest.param("transient", {"samples_per_cycle": "1e308"},
                 ("observe_efolds", "samples_per_cycle"),
                 id="transient-samples_per_cycle-1e308"),
    pytest.param("transient", {"observe_efolds": "1e308"},
                 ("observe_efolds", "samples_per_cycle"),
                 id="transient-observe_efolds-1e308"),
    pytest.param("sweep-field", {"samples_per_cycle": "1e308"},
                 ("observe_efolds", "samples_per_cycle"),
                 id="sweep-field-samples_per_cycle-1e308"),
    pytest.param("calibrate", {"samples_per_cycle": "1e308"},
                 ("samples_per_cycle",),
                 id="calibrate-samples_per_cycle-1e308"),
    pytest.param("spectrum", {"method": "demodulated",
                              "samples_per_cycle": "1e308"},
                 ("demod_periods", "samples_per_cycle"),
                 id="spectrum-samples_per_cycle-1e308"),
    pytest.param("spectrum", {"method": "demodulated",
                              "demod_periods": "1e308"},
                 ("demod_periods", "samples_per_cycle"),
                 id="spectrum-demod_periods-1e308"),
])
def test_oversized_record_exits_config_before_evolving(
        tmp_path, capsys, monkeypatch, command, overrides, knobs):
    import nobleline.dynamics as dynamics
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("a record was built before the size check")

    monkeypatch.setattr(dynamics, "evolve_exact", unreachable)
    for name in ("fit_decaying_sinusoid", "heterodyne_extract"):
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


@pytest.mark.parametrize("fields", ["1e305 2e305 3e305", "4 5 1e99"])
def test_sweep_fields_beyond_the_rate_bound_exit_config_before_any_work(
        tmp_path, capsys, monkeypatch, fields):
    # 1e305 mG derives omega_a = 5.9e307 Hz, which ended in a LinAlgError
    # traceback; a field whose Larmor rate passes 1e100 Hz is refused as a
    # [system] rate would be, before any system is evolved or checked
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("a field was run before the rate check")

    for name in ("magnetic_pulse_transient", "transient_samples",
                 "line_center"):
        monkeypatch.setattr(experiments, name, unreachable)
    sections = preset_sections()
    sections["scenario"]["fields"] = fields
    out = tmp_path / "out"
    assert main(["sweep-field", "--config",
                 write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config: fields: ")
    assert err.count("\n") == 1
    assert "omega_a" in err and "1e+100 Hz" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, sections", [
    ("transient", {"magnetics": {"field": "2.3837837837837834"}}),
    ("transient", {"system": {"gamma_b": "100"}}),
    ("sweep-field", {"scenario": {"fields": "4 2.3837837837837834 5"}}),
], ids=["transient-noble_emf", "transient-gamma_b-100",
        "sweep-field-noble_emf"])
def test_hybridization_breakdown_exits_validity_before_evolving(
        tmp_path, capsys, monkeypatch, command, sections):
    # at field = noble_emf the closed-form width is 7.4 % below the exact
    # slow decay; with gamma_b > gamma_a the slow mode is the alkali one.
    # Each used to exit 0; the sweep is refused before any field evolves
    import nobleline.dynamics as dynamics

    def unreachable(*args, **kwargs):
        raise AssertionError("a record was evolved before the width check")

    monkeypatch.setattr(dynamics, "evolve_exact", unreachable)
    config = preset_sections()
    for name, entries in sections.items():
        config[name].update(entries)
    out = tmp_path / "out"
    code = main([command, "--config", write_ini(tmp_path / "f.ini", config),
                 "--out", str(out)])
    assert code == EXIT_VALIDITY
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: validity: hybridization not "
                          "perturbative")
    assert err.count("\n") == 1
    assert not any(out.iterdir())


CLI_COMMANDS = ["spectrum", "excite", "sweep-field", "transient",
                "calibrate", "check-config", "derive-params"]


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_near_degenerate_field_runs_without_any_warning(tmp_path, capsys,
                                                        command):
    # at 2.0 mG |omega_a - omega_b| is under 10 gamma_a, where a Python
    # warning used to print at every load, but the width gap is 0.31 %
    sections = preset_sections()
    sections["magnetics"]["field"] = "2.0"
    sections["scenario"].update(points="11", trials="2", fields="2.0 4 5")
    argv = [command, "--config", write_ini(tmp_path / "f.ini", sections)]
    if command not in ("check-config", "derive-params"):
        argv += ["--out", str(tmp_path / "out"), "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, scenario, code, named", [
    ("excite", {"dead_efolds": "1e308"}, EXIT_CONFIG, "dead_efolds"),
    ("spectrum", {"baseline_halfwidths": "1e308"}, EXIT_CONFIG,
     "baseline_halfwidths"),
    ("sweep-field", {"fields": "1e-300 2e-300 3e-300"}, EXIT_VALIDITY,
     "too small to square"),
    ("excite", {"dead_efolds": "1e7"}, EXIT_CONFIG, "dead_efolds"),
    ("spectrum", {"baseline_halfwidths": "1e12"}, EXIT_CONFIG,
     "baseline_halfwidths"),
    ("transient", {"tilt_amplitude": "1e-300"}, EXIT_VALIDITY,
     "too small to square"),
    ("transient", {"tilt_amplitude": "1e300"}, EXIT_VALIDITY,
     "too large to square"),
    ("spectrum", {"noise_sigma": "1e300"}, EXIT_VALIDITY,
     "too large to square"),
    ("spectrum", {"noise_sigma": "1e300", "method": "demodulated"},
     EXIT_VALIDITY, "too large to square"),
], ids=["excite-dead_efolds-1e308", "spectrum-baseline_halfwidths-1e308",
        "sweep-field-fields-1e-300", "excite-dead_efolds-1e7",
        "spectrum-baseline_halfwidths-1e12", "transient-tilt_amplitude-1e-300",
        "transient-tilt_amplitude-1e300", "spectrum-noise_sigma-1e300",
        "spectrum-demodulated-noise_sigma-1e300"])
def test_extreme_finite_knobs_end_in_one_error_line(tmp_path, capsys, command,
                                                    scenario, code, named):
    # the first three used to end in a traceback: a phase that overflowed to
    # NaN, an overflowing delta_a**2, and a slope whose square underflowed to
    # zero. The next two exited 0: every readout was zero, and the dip fit
    # put the 4.5 mHz line at 19.79 Hz 2.2 kHz wide at 5.7 kHz. The last
    # three printed raw numpy warnings: a 1e-300 tilt's fit never moved and
    # exited 0 with infinite intervals; the other two overflowed in the fit
    # and exited 2. The demodulated spectrum's lock-in amplitude overflowed
    # its square in an OverflowError traceback
    sections = preset_sections()
    sections["scenario"].update(scenario)
    out = tmp_path / "out"
    assert main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    kind = "config" if code == EXIT_CONFIG else "validity"
    assert err.startswith(f"nobleline: error: {kind}:")
    assert err.count("\n") == 1
    assert named in err
    assert not out.exists() or not any(out.iterdir())


PAIR_1E200 = {"exchange_ab": "1e200", "exchange_ba": "1e200"}
PAIR_1E90 = {"exchange_ab": "1e90", "exchange_ba": "1e90"}


@pytest.mark.parametrize("command, system, code, named", [
    ("check-config", {"gamma_a": "1e200"}, EXIT_CONFIG, "gamma_a"),
    ("derive-params", {"omega_a": "1e200"}, EXIT_CONFIG, "omega_a"),
    ("spectrum", {"omega_b": "1e200"}, EXIT_CONFIG, "omega_b"),
    ("excite", PAIR_1E200, EXIT_CONFIG, "exchange_ab"),
    ("transient", {"gamma_a": "1e200"}, EXIT_CONFIG, "gamma_a"),
    ("derive-params", PAIR_1E200, EXIT_CONFIG, "exchange_ab"),
    ("spectrum", {"omega_b": "1e20"}, EXIT_VALIDITY, "undamped slow mode"),
    ("excite", PAIR_1E90, EXIT_VALIDITY, "did not converge"),
    ("derive-params", PAIR_1E90, EXIT_VALIDITY, "did not converge"),
], ids=["check-config-gamma_a-1e200", "derive-params-omega_a-1e200",
        "spectrum-omega_b-1e200", "excite-exchange-1e200",
        "transient-gamma_a-1e200", "derive-params-exchange-1e200",
        "spectrum-omega_b-1e20", "excite-exchange-1e90",
        "derive-params-exchange-1e90"])
def test_extreme_rates_end_in_one_error_line(tmp_path, capsys, command,
                                             system, code, named):
    # a rate whose square overflowed ended in an OverflowError traceback,
    # and a 1e200 exchange pair in a ZeroDivisionError one (derive-params
    # printed Infinity and NaN with exit 0); rates past 1e100 Hz are now
    # refused at load. Below that, a slow mode that loses its decay to
    # rounding divided by zero, and a line center that ran off overflowed
    sections = preset_sections()
    sections["system"].update(system)
    argv = [command, "--config", write_ini(tmp_path / "f.ini", sections)]
    out = tmp_path / "out"
    if command not in ("check-config", "derive-params"):
        argv += ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    kind = "config" if code == EXIT_CONFIG else "validity"
    assert captured.err.startswith(f"nobleline: error: {kind}:")
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("scenario", [
    {"noise_sigma": "0.01"},
    {"noise_sigma": "0.01", "ramp_efolds": "0.5", "pulse_efolds": "8"},
    {"noise_sigma": "0.01", "points": "7", "seed": "3"},
], ids=["plain", "ramped", "7-points-seed-3"])
def test_excite_refuses_noise_above_every_readout(tmp_path, capsys,
                                                 monkeypatch, scenario):
    # the preset's readouts peak at 4.58e-19 (3.77e-19 ramped), so absolute
    # noise of 0.01 left the dip fit only rectified noise: it exited 0 with
    # a width of noise, or, on 7 points at seed 3, spent its whole budget
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("the fit ran on rectified noise")

    monkeypatch.setattr(experiments, "fit_inverted_lorentzian", unreachable)
    sections = preset_sections()
    sections["scenario"].update(scenario)
    out = tmp_path / "out"
    assert main(["excite", "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)]) == EXIT_VALIDITY
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: validity:")
    assert err.count("\n") == 1
    assert "noise_sigma = 0.01" in err and "rectified noise" in err
    assert not out.exists() or not any(out.iterdir())


def test_excite_fits_noise_below_its_readouts(tmp_path, capsys):
    # noise of a few percent of the readouts still finds the line, within
    # its ~14 % broadening by 3-e-fold pulses
    sections = preset_sections()
    sections["scenario"].update(noise_sigma="1e-20")
    out = tmp_path / "out"
    assert main(["excite", "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    fit = json.loads((out / "excite_fit.json").read_text())
    assert fit["extras"]["fitted_half_width"] == pytest.approx(
        fit["extras"]["line_half_width"], rel=0.2)


def test_excite_too_short_to_resolve_the_line_exits_fit(tmp_path, capsys):
    # 1e-6-e-fold pulses Fourier-broaden the response to some 1e6 line
    # widths, far past the scan, so every point reads the same: the dip fit
    # spends its whole budget (5,000 evaluations) and the run writes nothing
    sections = preset_sections()
    sections["scenario"].update(pulse_efolds="1e-6")
    out = tmp_path / "out"
    assert main(["excite", "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)]) == EXIT_FIT
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: fit:")
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, scenario", [
    ("spectrum", {"span_halfwidths": "1e9"}),
    ("excite", {"points": "5", "span_halfwidths": "1e6"}),
    ("spectrum", {"span_halfwidths": "0"}),
    ("excite", {"span_halfwidths": "-5"}),
], ids=["spectrum-1e9", "excite-5-points-1e6", "spectrum-zero-span",
        "excite-negative-span"])
def test_unresolved_scan_exits_config_before_any_work(
        tmp_path, capsys, monkeypatch, command, scenario):
    # a core far coarser than the line used to burn the dip fit's whole
    # budget before exit 2; a zero span collapsed the core to one point, and
    # a negative one silently ran the positive grid
    import nobleline.experiments as experiments

    def unreachable(*args, **kwargs):
        raise AssertionError("the scan ran before its grid was checked")

    for name in ("evaluate_spectrum", "excite_and_readout",
                 "fit_inverted_lorentzian"):
        monkeypatch.setattr(experiments, name, unreachable)
    sections = preset_sections()
    sections["scenario"].update(scenario)
    out = tmp_path / "out"
    code = main([command, "--config", write_ini(tmp_path / "f.ini", sections),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "span_halfwidths" in err and "points" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("prefix", ["../x", "ABSOLUTE"],
                         ids=["parent", "absolute"])
def test_out_prefix_outside_out_exits_config(tmp_path, capsys, prefix):
    # either prefix used to write all three files outside --out
    if prefix == "ABSOLUTE":
        prefix = str(tmp_path / "abs_x")
    sections = {**FAST_SYSTEM, "scenario": {"out_prefix": prefix}}
    out = tmp_path / "out"
    code = main(["transient", "--config",
                 write_ini(tmp_path / "f.ini", sections), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("nobleline: error: config:")
    assert err.count("\n") == 1
    assert "out_prefix" in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.ini"]


def _small_scenario(draw):
    """[scenario] knobs of a small run, as INI strings."""
    scenario = {
        "seed": draw(st.integers(0, 2**32)),
        "noise_sigma": draw(st.sampled_from([0.0, 1e-20, 0.01])),
        "points": draw(st.integers(5, 11)),
        "span_halfwidths": draw(st.floats(0.5, 6.0)),
        "observe_efolds": draw(st.floats(0.05, 0.5)),
        "samples_per_cycle": draw(st.floats(4.5, 16.0)),
        "pulse_efolds": draw(st.floats(1.0, 4.0)),
        "dead_efolds": draw(st.floats(0.0, 2.0)),
        "demod_periods": draw(st.floats(2.0, 8.0)),
        "method": draw(st.sampled_from(["closed_form", "demodulated"])),
        "trials": draw(st.integers(1, 3)),
        "fields": " ".join(map(str, draw(st.lists(
            st.sampled_from([4.0, 5.0, 6.1, 7.3, 8.8]), min_size=3,
            max_size=4, unique=True)))),
    }
    scenario["ramp_efolds"] = draw(st.sampled_from([0.0, 0.25])) \
        * scenario["pulse_efolds"]
    return {key: str(value) for key, value in scenario.items()}


@pytest.mark.parametrize("command", CLI_COMMANDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_small_configs_never_raise_and_fail_on_one_line(command, data):
    # any small config the loader takes either runs or fails with one
    # machine-parsable line and an exit code that names its kind
    sections = preset_sections()
    sections["scenario"].update(_small_scenario(data.draw))
    if data.draw(st.booleans()):
        del sections["optics"]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--config", write_ini(Path(tmp) / "f.ini", sections)]
        if command not in ("check-config", "derive-params"):
            argv += ["--out", str(Path(tmp) / "out"), "--quiet"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FIT, EXIT_VALIDITY)
    assert err.getvalue().count("nobleline: error:") <= 1
    assert (code == EXIT_OK) == (err.getvalue() == "")
