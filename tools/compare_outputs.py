"""Check that two source trees write byte-identical scenario outputs.

    python3 tools/compare_outputs.py [--drift] PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding a `nobleline` package
(the `src` directory of two checkouts). Each side runs a fixed matrix of
CLI scenarios, in a fresh interpreter with PYTHONPATH set to that side,
from its own packaged preset with a few [scenario] overrides:

- spectrum, closed-form and demodulated, noise_sigma = 0.01, and
  demodulated without noise;
- excite, plain, with ramp_efolds = 0.5, with noise_sigma = 1e-20 (noise
  a few percent of the preset's 4.6e-19 peak readout; 0.01 is refused),
  and ramped with pulse_efolds = 8 and noise_sigma = 1e-20 (a pulse length
  of its own at every point, under noise);
- sweep-field and transient, each with and without noise_sigma = 0.05;
- sweep-field on three fields with [optics] removed (a nan column);
- transient at [magnetics] field = 2.0 mG, where |omega_a - omega_b| is
  under 10 gamma_a but the closed-form width is within 0.31 % of the
  exact slow-mode decay, so the run must still pass;
- calibrate;

each at seeds 1 and 20260819, three files per run: 14 cases, 84 files
per side.
It also compares each side's stdout of `check-config` and `derive-params`
on the packaged preset, and of `derive-params` on the preset with [optics]
removed (no line and no optics block). Last come eight refusals, each run
once, whose exit code and stderr line must match byte for byte:

- transient with observe_efolds = 1e12 (a record over the cap);
- sweep-field and calibrate with samples_per_cycle = 1e308 (a record size
  that overflows);
- demodulated spectrum with demod_periods = 2.5 (too short a window) and
  with samples_per_cycle = 4.01 (undersampled);
- excite with points = 5 and span_halfwidths = 1e6 (an unresolved line)
  and with dead_efolds = 1e308 (every readout decays to zero);
- transient at [magnetics] field = 2.3837837837837834 mG, where
  omega_a = 0 (a 7.41 % width gap, exit 3).

The tool prints one `DIFF <case>/<file>`, `DIFF stdout/<case>` or
`DIFF refusal/<case>` line for each output that differs or is missing on
one side, and one `FAIL <side> <case>` line for each run that exits
non-zero, or for a refusal that exits 0. It exits 1 if there was any, else
0. Each CLI child is reaped with wait4, and one `rss <case> <parent MB>
<change MB>` line per case and per stdout case gives each side's peak
resident set (over both seeds of a case), so a memory change is measured
per command. Both sides together take about two minutes on a 2-vCPU x86-64
VM, most of it in the sweep-field and calibrate runs.

With --drift, each DIFF line of a `*_fit.json` is followed by one `drift`
line per fitted parameter and numeric extra that moved: its change
relative to the parent's value and, for a parameter, in the parent's 95 %
half-widths (the sinusoid offset, which has no interval, takes the
residual RMS over sqrt(n)). Each DIFF line of a `*_points.csv` is followed
by one `drift` line per column that moved: its largest relative change
and how many rows moved. A speedup that moves outputs states its drift
from these lines.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
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
    "excite_noisy": ("excite", {"noise_sigma": "1e-20"}),
    "excite_ramped_noisy": ("excite", {"ramp_efolds": "0.5",
                                       "pulse_efolds": "8",
                                       "noise_sigma": "1e-20"}),
    "sweep_field": ("sweep-field", {}),
    "sweep_field_noisy": ("sweep-field", {"noise_sigma": "0.05"}),
    "sweep_field_no_optics": ("sweep-field", {"fields": "4.0 5.0 6.1"}),
    "transient": ("transient", {}),
    "transient_noisy": ("transient", {"noise_sigma": "0.05"}),
    "transient_field_2mG": ("transient", {}),
    "calibrate": ("calibrate", {}),
}

# refusal case name -> (CLI command, [scenario] overrides)
REFUSALS = {
    "transient_observe_efolds": ("transient", {"observe_efolds": "1e12"}),
    "sweep_field_samples_per_cycle": ("sweep-field",
                                      {"samples_per_cycle": "1e308"}),
    "calibrate_samples_per_cycle": ("calibrate",
                                    {"samples_per_cycle": "1e308"}),
    "spectrum_demod_periods": ("spectrum", {"method": "demodulated",
                                            "demod_periods": "2.5"}),
    "spectrum_samples_per_cycle": ("spectrum", {"method": "demodulated",
                                                "samples_per_cycle": "4.01"}),
    "excite_unresolved": ("excite", {"points": "5",
                                     "span_halfwidths": "1e6"}),
    "excite_dead_efolds": ("excite", {"dead_efolds": "1e308"}),
    "transient_width_gap": ("transient", {}),
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
SECTION_OVERRIDES = {
    "transient_field_2mG": {"magnetics": {"field": "2.0"}},
    "transient_width_gap": {"magnetics": {"field": "2.3837837837837834"}},
}


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


def run_side(src: Path, work: Path, case: str, seed: int, command: str,
             overrides: dict
             ) -> tuple[Path, subprocess.CompletedProcess, int]:
    """Run one case of `command` with [scenario] `overrides` on one side;
    return its output directory, the finished run and its peak RSS in
    KiB."""
    out = work / f"{case}_seed{seed}"
    out.mkdir(parents=True)
    config = out.with_suffix(".ini")
    write_config(src, overrides, config, DROPPED_SECTIONS.get(case, ()),
                 SECTION_OVERRIDES.get(case))
    done, rss = run_cli(src, command, "--config", str(config), "--out",
                        str(out), "--seed", str(seed), "--quiet")
    return out, done, rss


def run_stdout_case(src: Path, work: Path, case: str
                    ) -> tuple[subprocess.CompletedProcess, int]:
    """Run one stdout case on one side, with its peak RSS in KiB."""
    command = STDOUT_CASES[case]
    if case not in DROPPED_SECTIONS:
        return run_cli(src, command)
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{case}.ini"
    write_config(src, {}, config, DROPPED_SECTIONS[case])
    return run_cli(src, command, "--config", str(config))


def run_cli(src: Path, *argv: str
            ) -> tuple[subprocess.CompletedProcess, int]:
    """One CLI run in a fresh interpreter with PYTHONPATH set to src, and
    its own peak RSS in KiB: the child is reaped with wait4, its output
    having gone to temporary files."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "nobleline.cli", *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        streams = []
        for fh in (out, err):
            fh.seek(0)
            streams.append(fh.read().decode())
    return (subprocess.CompletedProcess(argv, proc.returncode, *streams),
            usage.ru_maxrss)


def print_rss(case: str, peaks: dict) -> None:
    """One `rss <case> <parent MB> <change MB>` line from KiB peaks."""
    print(f"rss {case} " + " ".join(f"{kib / 1024:.1f}"
                                    for kib in peaks.values()))


def relative(old: float, new: float) -> float:
    """|new - old| / |old|; inf for a move away from zero, 0 for equal
    values (NaN included)."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def fit_drift(parent: Path, change: Path) -> list[str]:
    """One line per fitted parameter and numeric extra that moved between
    two `*_fit.json` files."""
    a, b = (json.loads(p.read_text()) for p in (parent, change))
    lines = []
    for name, fit in a["fits"].items():
        spread = fit["residual_rms"] / math.sqrt(fit["n_points"])
        moved = b["fits"].get(name, {}).get("parameters", [])
        for ref, row in zip(fit["parameters"], moved):
            moved_by = relative(ref["value"], row["value"])
            if not moved_by:
                continue
            half = ((ref["ci_high"] - ref["ci_low"]) / 2 if "ci_low" in ref
                    else spread)
            delta = abs(row["value"] - ref["value"])
            lines.append(f"{name}.{ref['parameter']}: {moved_by:.3g} "
                         f"relative, {delta / half if half else math.inf:.3g}"
                         " half-widths")
    for key, value in a["extras"].items():
        new = b["extras"].get(key)
        if isinstance(value, float) and isinstance(new, float) \
                and new != value:
            lines.append(f"extras.{key}: {relative(value, new):.3g} relative")
    return lines


def points_drift(parent: Path, change: Path) -> list[str]:
    """One line per column that moved between two `*_points.csv` files:
    its largest relative change and the number of rows that moved."""
    with open(parent, newline="") as fa, open(change, newline="") as fb:
        a, b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
    if len(a) != len(b):
        return [f"{len(a)} rows against {len(b)}"]
    lines = []
    for column in a[0] if a else ():
        pairs = [(x[column], y.get(column)) for x, y in zip(a, b)
                 if x[column] != y.get(column)]
        if not pairs:
            continue
        try:
            worst = max(relative(float(x), float(y)) for x, y in pairs)
        except (TypeError, ValueError):    # a flag or a missing column
            worst = math.inf
        lines.append(f"{column}: {worst:.3g} relative at most, "
                     f"{len(pairs)} of {len(a)} rows")
    return lines


def print_drift(parent: Path, change: Path) -> None:
    """The `drift` lines of one differing output, when both sides wrote
    it."""
    if not (parent.is_file() and change.is_file()):
        return
    if parent.name.endswith("_fit.json"):
        lines = fit_drift(parent, change)
    elif parent.name.endswith("_points.csv"):
        lines = points_drift(parent, change)
    else:
        return
    for line in lines:
        print(f"  drift {line}")


def failure(done: subprocess.CompletedProcess) -> str:
    """A failed run's stderr (or exit code); empty for a run that passed."""
    return ("" if done.returncode == 0
            else done.stderr.strip() or f"exit {done.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--drift", action="store_true",
                        help="state how far each differing fit value and "
                             "points column moved")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_src.resolve(),
             "change": args.change_src.resolve()}
    for name, src in sides.items():
        if not (src / "nobleline" / "__init__.py").is_file():
            parser.error(f"{name} source {src} holds no nobleline package")

    problems = compared = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for case, (command, overrides) in CASES.items():
            prefix = command.replace("-", "_")
            peaks = dict.fromkeys(sides, 0)
            for seed in SEEDS:
                outs = {}
                for name, src in sides.items():
                    outs[name], done, rss = run_side(
                        src, Path(tmp) / name, case, seed, command, overrides)
                    peaks[name] = max(peaks[name], rss)
                    if err := failure(done):
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
                        if args.drift:
                            print_drift(a, b)
            print_rss(case, peaks)
        for case in STDOUT_CASES:
            stdouts, peaks = set(), {}
            for name, src in sides.items():
                done, peaks[name] = run_stdout_case(src, Path(tmp) / name,
                                                    case)
                stdouts.add(done.stdout)
                if err := failure(done):
                    problems += 1
                    print(f"FAIL {name} {case}: {err.splitlines()[-1]}")
            if len(stdouts) > 1:
                problems += 1
                print(f"DIFF stdout/{case}")
            print_rss(case, peaks)
        for case, spec in REFUSALS.items():
            ends = set()
            for name, src in sides.items():
                _, done, _ = run_side(src, Path(tmp) / name, case, SEEDS[0],
                                      *spec)
                ends.add((done.returncode, done.stderr))
                if done.returncode == 0:
                    problems += 1
                    print(f"FAIL {name} {case}: exit 0")
            if len(ends) > 1:
                problems += 1
                print(f"DIFF refusal/{case}")
    print(f"compared {compared} files, {len(STDOUT_CASES)} stdouts and "
          f"{len(REFUSALS)} refusals: "
          f"{'no differences' if not problems else f'{problems} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
