"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 fit non-convergence,
3 validity-regime error. Failures print exactly one machine-parsable line to
stderr of the form ``nobleline: error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

# modules, not names: each call looks its function up, so a command that
# calls neither (check-config) never loads them or numpy
from . import dynamics, experiments
from .config import (OPTICS_COUPLINGS, SCENARIO_NAMES, load_config,
                     preset_path, scenario_with)
from .model import (ConfigError, FitConvergenceError, NoblelineError,
                    ValidityError)
from .spectrum import line_shape

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FIT = 2
EXIT_VALIDITY = 3

# CLI command -> scenario name: sweep_field runs as sweep-field
_SCENARIO_COMMANDS = {name.replace("_", "-"): name for name in SCENARIO_NAMES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nobleline",
        description="Spectroscopy protocols for alkali-hybridized noble-gas "
                    "spin resonances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="INI config path (default: packaged reference "
                            "preset)")
        p.add_argument("--out", default=".",
                       help="output directory (default: current directory)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    for cmd, blurb in (
            ("spectrum", "sweep the probe across the hybrid line"),
            ("excite", "pulsed-excitation response scan"),
            ("sweep-field", "track the line across bias fields"),
            ("transient", "single tilt-pulse free-precession record"),
            ("calibrate", "Monte-Carlo calibration of the bare alkali")):
        common(sub.add_parser(cmd, help=blurb))

    check = sub.add_parser("check-config",
                           help="validate a config and print the resolution")
    check.add_argument("--config", default=None)
    check.add_argument("--quiet", action="store_true")

    derive = sub.add_parser("derive-params",
                            help="print derived system parameters as JSON")
    derive.add_argument("--config", default=None)
    return parser


def _load(args):
    path = args.config if args.config is not None else preset_path()
    return load_config(path)


def _run_scenario_command(args, scenario_name: str) -> int:
    bundle = _load(args)
    seed = bundle.scenario.seed if args.seed is None else args.seed
    scenario = scenario_with(bundle.scenario, name=scenario_name, seed=seed)
    bundle = replace(bundle, scenario=scenario)
    prefix = scenario.out_prefix or scenario.name

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"unusable --out {args.out}: {exc.strerror}") from None
    lock_path = os.path.join(args.out, f"{prefix}.lock")
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output prefix {prefix!r} in {args.out} is locked by another "
            f"run (stale? remove {lock_path})") from None
    except OSError as exc:
        raise ConfigError(
            f"cannot create {lock_path}: {exc.strerror}") from None
    try:
        os.write(lock_fd, str(os.getpid()).encode())
        os.close(lock_fd)
        result = experiments.run_scenario(bundle)
        try:
            paths = result.write(args.out, prefix)
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename or args.out}: "
                              f"{exc.strerror or exc}") from None
    finally:
        try:
            os.remove(lock_path)
        except OSError:
            pass

    if not args.quiet:
        print(f"scenario: {result.name}")
        for key in sorted(result.extras):
            print(f"  {key} = {result.extras[key]}")
        for path in paths:
            print(f"wrote: {path}")
    return EXIT_OK


def _check_config(args) -> int:
    bundle = _load(args)
    if not getattr(args, "quiet", False):
        sections = ", ".join(sorted(bundle.mapping))
        print(f"ok: sections [{sections}]")
        print(f"  scenario = {bundle.scenario.name}, "
              f"seed = {bundle.scenario.seed}")
        print(f"  omega_a = {bundle.system.omega_a!r}, "
              f"omega_b = {bundle.system.omega_b!r}")
        print(f"  gamma_a = {bundle.system.gamma_a!r}, "
              f"gamma_b = {bundle.system.gamma_b!r}")
        print(f"  exchange = {bundle.system.exchange!r}")
    return EXIT_OK


def _derive_params(args) -> int:
    bundle = _load(args)
    system, optics = bundle.system, bundle.optics
    out = {**asdict(system), "exchange": system.exchange}
    decay, freq = dynamics.slow_mode(system)
    out["slow_mode"] = {"decay": decay, "frequency": freq}
    if optics is not None:
        out["line"] = asdict(line_shape(system, optics))
        out["optics"] = {k: getattr(optics, k) for k in OPTICS_COUPLINGS}
    experiments.write_json(out, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _SCENARIO_COMMANDS:
            return _run_scenario_command(args, _SCENARIO_COMMANDS[args.command])
        if args.command == "check-config":
            return _check_config(args)
        if args.command == "derive-params":
            return _derive_params(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except FitConvergenceError as exc:
        return _fail("fit", exc, EXIT_FIT)
    except ValidityError as exc:
        return _fail("validity", exc, EXIT_VALIDITY)
    except NoblelineError as exc:  # any other package error counts as config
        return _fail("config", exc, EXIT_CONFIG)


def _fail(kind: str, exc: Exception, code: int) -> int:
    message = str(exc).replace("\n", " ")
    print(f"nobleline: error: {kind}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
