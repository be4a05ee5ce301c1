"""Check that two source trees write byte-identical scenario outputs.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding a `nobleline` package
(the `src` directory of two checkouts). Each side runs a fixed matrix of
CLI scenarios, in a fresh interpreter with PYTHONPATH set to that side,
from its own packaged preset with a few [scenario] overrides:

- spectrum, closed-form and demodulated, noise_sigma = 0.01, and
  demodulated without noise;
- excite, plain, with ramp_efolds = 0.5 and with noise_sigma = 0.01
  (rectified noisy amplitudes);
- sweep-field and transient, each with and without noise_sigma = 0.05;
- sweep-field on three fields with [optics] removed (a nan column);
- transient at [magnetics] field = 2.0 mG, where |omega_a - omega_b| is
  under 10 gamma_a but the closed-form width is within 0.31 % of the
  exact slow-mode decay, so the run must still pass;
- calibrate;

each at seeds 1 and 20260819, three files per run: 13 cases, 78 files
per side.
It also compares each side's stdout of `check-config` and `derive-params`
on the packaged preset, and of `derive-params` on the preset with [optics]
removed (no line and no optics block). The tool prints one
`DIFF <case>/<file>` or `DIFF stdout/<case>` line for each output that
differs or is missing on one side, and one `FAIL <side> <case>` line for
each run that exits non-zero. It exits 1 if there was any, else 0. Both
sides together take about two minutes on a 2-vCPU x86-64 VM, most of it in
the sweep-field and calibrate runs.
"""

from __future__ import annotations

import argparse
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 20260819)
SUFFIXES = ("points.csv", "fit.json", "provenance.json")

# case name -> (CLI command, [scenario] overrides)
CASES = {
    "spectrum_closed_form": ("spectrum", {"noise_sigma": "0.01"}),
    "spectrum_demodulated": ("spectrum", {"noise_sigma": "0.01",
                                          "method": "demodulated"}),
    "spectrum_demodulated_clean": ("spectrum", {"method": "demodulated"}),
    "excite": ("excite", {}),
    "excite_ramped": ("excite", {"ramp_efolds": "0.5"}),
    "excite_noisy": ("excite", {"noise_sigma": "0.01"}),
    "sweep_field": ("sweep-field", {}),
    "sweep_field_noisy": ("sweep-field", {"noise_sigma": "0.05"}),
    "sweep_field_no_optics": ("sweep-field", {"fields": "4.0 5.0 6.1"}),
    "transient": ("transient", {}),
    "transient_noisy": ("transient", {"noise_sigma": "0.05"}),
    "transient_field_2mG": ("transient", {}),
    "calibrate": ("calibrate", {}),
}

# stdout case name -> CLI command; a case that drops no section (below)
# runs on the packaged preset itself
STDOUT_CASES = {"check-config": "check-config",
                "derive-params": "derive-params",
                "derive-params_no_optics": "derive-params"}

# case name -> preset sections it runs without
DROPPED_SECTIONS = {"sweep_field_no_optics": ("optics",),
                    "derive-params_no_optics": ("optics",)}

# case name -> overrides of preset sections other than [scenario]
SECTION_OVERRIDES = {"transient_field_2mG": {"magnetics": {"field": "2.0"}}}


def write_config(src: Path, overrides: dict, path: Path,
                 dropped: tuple = (), sections: dict | None = None) -> None:
    """The side's packaged preset with [scenario] overrides, the `sections`
    overrides and without the `dropped` sections, as an INI."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    preset = src / "nobleline" / "presets" / "k3he_reference.ini"
    if not parser.read(preset):
        raise SystemExit(f"no preset at {preset}")
    for section in dropped:
        parser.remove_section(section)
    if not parser.has_section("scenario"):
        parser.add_section("scenario")
    for key, value in overrides.items():
        parser.set("scenario", key, value)
    for section, entries in (sections or {}).items():
        for key, value in entries.items():
            parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)


def run_side(src: Path, work: Path, case: str, seed: int) -> tuple[Path, str]:
    """Run one case on one side; return its output directory and, if the
    run failed, its stderr."""
    command, overrides = CASES[case]
    out = work / f"{case}_seed{seed}"
    out.mkdir(parents=True)
    config = out.with_suffix(".ini")
    write_config(src, overrides, config, DROPPED_SECTIONS.get(case, ()),
                 SECTION_OVERRIDES.get(case))
    done = run_cli(src, command, "--config", str(config), "--out", str(out),
                   "--seed", str(seed), "--quiet")
    return out, failure(done)


def run_stdout_case(src: Path, work: Path, case: str
                    ) -> subprocess.CompletedProcess:
    """Run one stdout case on one side."""
    command = STDOUT_CASES[case]
    if case not in DROPPED_SECTIONS:
        return run_cli(src, command)
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{case}.ini"
    write_config(src, {}, config, DROPPED_SECTIONS[case])
    return run_cli(src, command, "--config", str(config))


def run_cli(src: Path, *argv: str) -> subprocess.CompletedProcess:
    """One CLI run in a fresh interpreter with PYTHONPATH set to src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "nobleline.cli", *argv],
                          env=env, capture_output=True, text=True)


def failure(done: subprocess.CompletedProcess) -> str:
    """A failed run's stderr (or exit code); empty for a run that passed."""
    return ("" if done.returncode == 0
            else done.stderr.strip() or f"exit {done.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_src.resolve(),
             "change": args.change_src.resolve()}
    for name, src in sides.items():
        if not (src / "nobleline" / "__init__.py").is_file():
            parser.error(f"{name} source {src} holds no nobleline package")

    problems = compared = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for case, (command, _) in CASES.items():
            prefix = command.replace("-", "_")
            for seed in SEEDS:
                outs = {}
                for name, src in sides.items():
                    outs[name], err = run_side(src, Path(tmp) / name, case,
                                               seed)
                    if err:
                        problems += 1
                        print(f"FAIL {name} {case} seed {seed}: "
                              f"{err.splitlines()[-1]}")
                for suffix in SUFFIXES:
                    rel = f"{case}_seed{seed}/{prefix}_{suffix}"
                    a, b = (outs[name] / f"{prefix}_{suffix}"
                            for name in sides)
                    compared += 1
                    if not (a.is_file() and b.is_file()
                            and a.read_bytes() == b.read_bytes()):
                        problems += 1
                        print(f"DIFF {rel}")
        for case in STDOUT_CASES:
            stdouts = set()
            for name, src in sides.items():
                done = run_stdout_case(src, Path(tmp) / name, case)
                stdouts.add(done.stdout)
                if err := failure(done):
                    problems += 1
                    print(f"FAIL {name} {case}: {err.splitlines()[-1]}")
            if len(stdouts) > 1:
                problems += 1
                print(f"DIFF stdout/{case}")
    print(f"compared {compared} files and {len(STDOUT_CASES)} stdouts: "
          f"{'no differences' if not problems else f'{problems} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
