"""Benchmark harness for nobleline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--quick]

Run from the root of a source checkout (the harness imports `src/nobleline`;
nothing needs installing). One process, one closed-loop client: the next pass
starts only after the previous one has returned and its output was checked.
Set-up is timed first, in fresh interpreters; then an untimed warm-up on
the quick inputs runs, then passes repeat for about S seconds (at least
MIN_PASSES).

Every timed pass is checked: the fitted parameters and extras in each
`*_fit.json` must match `reference.json` within a relative 1e-9, and every
output file must hash identically to the first timed pass's. A pass that
raises, exits non-zero or fails a check counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` traced and untraced passes alternate and it carries the
per-layer metrics. Every metric, including those not in the result line, is
printed before it as `metric <name> = <value> <unit>`. `--quick` shrinks
the inputs for the self-test. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

REL_TOL = 1e-9
SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_TIMED_S = 100.0
CHILD_TIMEOUT_S = 150.0

# One BLAS thread unless the caller chose otherwise. On a shared 2-vCPU
# machine the default two-thread OpenBLAS pool made sweep_field slower
# (7.6-8.1 s against 5.6-5.7 s per pass) and its timings far noisier.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SUFFIXES = ("points.csv", "fit.json", "provenance.json")

# name -> (scenario, overrides, quick overrides); cli_cold is CliWorkload
IN_PROCESS = {
    "sweep_field": ("sweep_field", {}, {"fields": (4.0, 5.0, 6.1)}),
    "calibrate": ("calibrate", {}, {"trials": 8}),
    "excite_ramped": ("excite", {"ramp_efolds": 0.5},
                      {"ramp_efolds": 0.5, "points": 9}),
}
WORKLOADS = (*IN_PROCESS, "cli_cold")

# calibrate extras that depend on the seed; checked against the rows instead
SEED_DEPENDENT = {"calibrate": ("slope_coverage", "decay_coverage",
                                "mean_slope", "mean_decay")}

# The metrics in the result line, with their units, are those BENCHMARK.json
# lists; README.md explains why some per-layer metrics are only printed.
SPEC = ROOT / "BENCHMARK.json"

# Self times printed for every workload, zero where a layer is not called.
LAYER_TIMES = (
    "signals.fit_decaying_sinusoid", "signals.fit_inverted_lorentzian",
    "signals.fit_linear", "signals.t_ppf", "signals.heterodyne_extract",
    "dynamics.evolve_exact", "dynamics.magnetic_pulse_transient",
    "dynamics.excite_and_readout", "spectrum.line_shape",
    "spectrum.evaluate_spectrum", "spectrum.s2_response",
    "experiments.run_scenario", "experiments.write", "cli.import",
    "cli.check_config", "cli.derive_params", "cli.spectrum", "cli.transient",
)


class Refused(Exception):
    """The harness cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, stdout_path: Path, env: dict) -> tuple[int, int]:
    """Run a child to completion; return (exit code, its peak RSS in KiB).

    stdout goes to stdout_path and stderr beside it (`.err`). The child is
    reaped with wait4 so its own resource usage is known; a timer kills it
    if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(work: Path, repeats: int) -> dict:
    """Fresh interpreters importing nobleline and loading the preset."""
    env = child_env()
    argv = [sys.executable, str(HERE / "child.py"), "setup"]
    out = work / "setup.out"
    walls, imports, loads = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = spawn(argv, out, env)
        wall = time.perf_counter() - start
        if code != 0:
            raise Refused("set-up child failed: "
                          + out.with_suffix(".err").read_text()[-2000:])
        report = json.loads(out.read_text())
        walls.append(wall)
        imports.append(report["import_s"])
        loads.append(report["load_config_s"])
    return {"wall": walls, "import": imports, "load_config": loads}


# ---------------------------------------------------------------------------
# output checks


def close(expected: float, actual: float) -> bool:
    if expected == actual:
        return True
    return abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a reference JSON document and an output."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ from the reference"]
        return [p for key in sorted(expected)
                for p in compare(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs from the reference"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{where}[{i}]")]
    number = (int, float)
    if isinstance(expected, bool) or not isinstance(expected, number) \
            or isinstance(actual, bool) or not isinstance(actual, number):
        if expected != actual or type(expected) is not type(actual):
            return [f"{where}: {actual!r} != reference {expected!r}"]
        return []
    if not close(expected, actual):
        return [f"{where}: {actual!r} differs from reference {expected!r} "
                f"by more than {REL_TOL:g} relative"]
    return []


def fit_document(path: Path, workload: str) -> tuple[dict, dict]:
    """A `*_fit.json` split into its seed-independent part and the rest."""
    doc = json.loads(path.read_text())
    varying = {key: doc["extras"].pop(key)
               for key in SEED_DEPENDENT.get(workload, ())}
    return doc, varying


def check_calibration_rows(path: Path, extras: dict, varying: dict,
                           trials: int) -> list[str]:
    """Seed-dependent calibrate summaries must follow from their rows."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == trials else [
        f"{path.name}: {len(rows)} rows, expected {trials}"]
    for quantity, truth in (("slope", extras["true_slope"]),
                            ("decay", extras["true_decay"])):
        covered = []
        for row in rows:
            inside = float(row[f"{quantity}_lo"]) <= truth \
                <= float(row[f"{quantity}_hi"])
            covered.append(row[f"{quantity}_covered"] == "1")
            if covered[-1] != inside:
                problems.append(f"{path.name}: trial {row['trial']} "
                                f"{quantity}_covered contradicts its interval")
        if not rows:
            continue
        if not close(sum(covered) / len(rows),
                     varying[f"{quantity}_coverage"]):
            problems.append(f"{quantity}_coverage does not match the rows")
        mean = statistics.fmean(float(row[quantity]) for row in rows)
        if not close(mean, varying[f"mean_{quantity}"]):
            problems.append(f"mean_{quantity} does not match the rows")
    return problems


def file_hashes(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


# ---------------------------------------------------------------------------
# workloads


class InProcessWorkload:
    """`run_scenario` plus `ScanResult.write` on the packaged preset."""

    in_process = True

    def __init__(self, name: str, seed: int, quick: bool):
        import nobleline
        from dataclasses import replace

        scenario, overrides, quick_overrides = IN_PROCESS[name]
        bundle = nobleline.load_config(nobleline.preset_path())

        def with_changes(changes):
            return replace(bundle, scenario=nobleline.scenario_with(
                bundle.scenario, name=scenario, seed=seed, **changes))

        self.bundle = with_changes(quick_overrides if quick else overrides)
        self.small_bundle = with_changes(quick_overrides)
        self.scenario = self.bundle.scenario
        self.nobleline = nobleline
        self.name = name

    def run_pass(self, outdir: Path, traced: bool) -> dict:
        return self._run(self.bundle, outdir)

    def warm_up(self, outdir: Path, traced: bool) -> dict:
        """The same code on the quick inputs: lazy set-up, caches."""
        return self._run(self.small_bundle, outdir)

    def _run(self, bundle, outdir: Path) -> dict:
        # looked up through the package so that the tracer's wrapper applies
        result = self.nobleline.run_scenario(bundle)
        result.write(outdir, bundle.scenario.name)
        return {"peak_rss_kb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    def outputs(self, outdir: Path) -> list[Path]:
        return [outdir / f"{self.scenario.name}_{s}" for s in SUFFIXES]

    def documents(self, outdir: Path) -> dict:
        fit = outdir / f"{self.scenario.name}_fit.json"
        return {fit.name: fit_document(fit, self.name)[0]}

    def check(self, outdir: Path, reference: dict) -> list[str]:
        fit = outdir / f"{self.scenario.name}_fit.json"
        doc, varying = fit_document(fit, self.name)
        problems = compare(reference[fit.name], doc, fit.name)
        if varying:
            problems += check_calibration_rows(
                outdir / f"{self.scenario.name}_points.csv", doc["extras"],
                varying, self.scenario.trials)
        return problems


class CliWorkload:
    """Four CLI commands, each in a fresh interpreter."""

    in_process = False
    name = "cli_cold"

    def __init__(self, seed: int, work: Path):
        import nobleline

        config = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#", ";"))
        config.optionxform = str
        config.read(nobleline.preset_path())
        config["scenario"]["method"] = "demodulated"
        demodulated = work / "demodulated.ini"
        with open(demodulated, "w") as fh:
            config.write(fh)
        self.commands = (
            ("check-config",),
            ("derive-params",),
            ("spectrum", "--config", str(demodulated), "--seed", str(seed),
             "--quiet", "--out"),
            ("transient", "--seed", str(seed), "--quiet", "--out"),
        )
        self.env = child_env()

    def warm_up(self, outdir: Path, traced: bool) -> dict:
        """Nothing: the set-up children already imported the package cold."""
        return {}

    def run_pass(self, outdir: Path, traced: bool) -> dict:
        peak, traces = 0, []
        for command in self.commands:
            argv = list(command) + ([str(outdir)] if command[-1] == "--out"
                                    else [])
            trace_path = outdir / f"{command[0]}.trace.json"
            prefix = ([str(HERE / "child.py"), "cli", str(trace_path)]
                      if traced else ["-m", "nobleline.cli"])
            code, rss = spawn([sys.executable, *prefix, *argv],
                              outdir / f"{command[0]}.out", self.env)
            if code != 0:
                err = (outdir / f"{command[0]}.err").read_text()[-2000:]
                raise RuntimeError(f"{command[0]} exited {code}: {err}")
            peak = max(peak, rss)
            if traced:
                traces.append(json.loads(trace_path.read_text()))
        return {"peak_rss_kb": peak, "traces": traces}

    def outputs(self, outdir: Path) -> list[Path]:
        return [outdir / "check-config.out", outdir / "derive-params.out"] \
            + [outdir / f"{name}_{s}" for name in ("spectrum", "transient")
               for s in SUFFIXES]

    def documents(self, outdir: Path) -> dict:
        return {p.name: json.loads(p.read_text())
                for p in (outdir / "spectrum_fit.json",
                          outdir / "transient_fit.json",
                          outdir / "derive-params.out")}

    def check(self, outdir: Path, reference: dict) -> list[str]:
        docs = self.documents(outdir)
        return [p for name in sorted(reference)
                for p in compare(reference[name], docs[name], name)]


def make_workload(name: str, seed: int, quick: bool, work: Path):
    if name == "cli_cold":
        return CliWorkload(seed, work)
    return InProcessWorkload(name, seed, quick)


# ---------------------------------------------------------------------------
# measurement


class Harness:
    """Runs, times and checks passes of one workload."""

    def __init__(self, workload, reference: dict, work: Path):
        self.workload = workload
        self.reference = reference
        self.outdir = work / "pass"
        self.tracer = Tracer()
        self.baseline = None
        self.passes = []
        self.traces = []

    def one_pass(self, traced: bool, timed: bool = True) -> dict:
        """Run, time and (if timed) check one pass; record it."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        in_process = traced and self.workload.in_process
        if in_process:
            self.tracer.reset()
            self.tracer.install()
        problems, info = [], {}
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            runner = self.workload.run_pass if timed \
                else self.workload.warm_up
            info = runner(self.outdir, traced)
        except Exception:
            problems.append(traceback.format_exc())
        finally:
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
            if in_process:
                self.tracer.uninstall()
        if timed and not problems:
            problems = self.check()
        for problem in problems[:5]:
            print(f"bench: {self.workload.name}: failed pass: {problem}",
                  file=sys.stderr)
        record = {"traced": traced, "timed": timed, "wall_s": wall,
                  "cpu_s": cpu, "peak_rss_kb": info.get("peak_rss_kb"),
                  "failed": bool(problems)}
        if traced:
            traces = [self.tracer.export()] if in_process \
                else info.get("traces", [])
            self_s, counts, root_s = summarize(traces)
            record["layers"] = layer_values(self_s, counts)
            record["layers"]["trace.coverage"] = root_s / wall
            self.traces.append(traces)
        self.passes.append(record)
        return record

    def check(self) -> list[str]:
        try:
            problems = self.workload.check(self.outdir, self.reference)
            hashes = file_hashes(self.workload.outputs(self.outdir))
        except Exception:
            return [traceback.format_exc()]
        if self.baseline is None:
            self.baseline = hashes
        problems += [f"{name} differs from the first timed pass's output"
                     for name in sorted(hashes)
                     if hashes[name] != self.baseline.get(name)]
        return problems

    def run(self, seconds: float, trace: bool) -> None:
        self.one_pass(traced=False, timed=False)
        start = time.perf_counter()
        last = 0.0
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            if n >= MIN_PASSES and elapsed + last > seconds:
                break
            if n >= 2 and elapsed > MAX_TIMED_S:
                break       # a slow program still ends within its limit
            began = time.perf_counter()
            self.one_pass(traced=trace and n % 2 == 0)
            last = time.perf_counter() - began
            n += 1


def layer_values(self_s: dict, counts: dict) -> dict:
    values = {f"{name}.s": t for name, t in self_s.items()}
    values["signals.s"] = sum(t for name, t in self_s.items()
                              if name.startswith("signals."))
    for name, quantities in counts.items():
        for quantity, value in quantities.items():
            values[f"{name}.{quantity}"] = value
    return values


def tail(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return round(100.0 * (n - 10) / n), sorted(values)[n - 11]


def summarize_run(harness: Harness, setup: dict, trace: bool,
                  per_layer: list[str]):
    timed = [p for p in harness.passes if p["timed"]]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    samples = {
        "setup_s": setup["wall"],
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
    }
    e2e = {name: statistics.median(v) for name, v in samples.items()}
    e2e["peak_rss_mb"] = max(p["peak_rss_kb"] or 0 for p in plain) / 1024.0
    attempted = len(harness.passes)
    failed = sum(p["failed"] for p in harness.passes)
    e2e["error_rate"] = failed / attempted

    layers = {}
    if trace:
        names = set(per_layer) | {f"{n}.s" for n in LAYER_TIMES}
        for p in traced:
            names |= set(p["layers"])
        for name in names:
            value = float(statistics.median(p["layers"].get(name, 0)
                                            for p in traced))
            integral = unit_of(name) == "count" and value.is_integer()
            layers[name] = int(value) if integral else value
        layers["init.import.s"] = statistics.median(setup["import"])
        layers["config.load_config.s"] = statistics.median(
            setup["load_config"])
        layers["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced) - e2e["wall_s"]
    return samples, e2e, layers, attempted, failed


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name in ("trace.coverage", "error_rate"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = commit.stdout.strip() if commit.returncode == 0 \
            else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one set-up sample")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def preflight() -> None:
    if "NOBLELINE_MAX_WORKERS" in os.environ:
        raise Refused("NOBLELINE_MAX_WORKERS is set; unset it so calibrate "
                      "measures the default serial path")
    if not (SRC / "nobleline" / "__init__.py").is_file():
        raise Refused(f"no nobleline sources under {SRC}; run from the root "
                      "of a source checkout")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        preflight()
        for path in (REFERENCE, SPEC):
            if not path.is_file():
                raise Refused(f"missing {path}")
    except Refused as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        return 2
    for key, value in BLAS_THREADS.items():     # before numpy is imported
        os.environ.setdefault(key, value)
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    mode = "quick" if args.quick else "full"
    reference = json.loads(REFERENCE.read_text())[mode][args.workload]

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        setup = measure_setup(work, 1 if args.quick else SETUP_REPEATS)
    except Refused as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed, args.quick, work)
    harness = Harness(workload, reference, work)
    harness.run(args.seconds, bool(args.trace))

    spec = json.loads(SPEC.read_text())
    samples, e2e, layers, attempted, failed = summarize_run(
        harness, setup, bool(args.trace),
        [m["name"] for m in spec["per_layer"]])
    for name in ("setup_s", "wall_s", "cpu_s"):
        values = samples[name]
        extra = tail(values)
        extra = f", p{extra[0]} {extra[1]!r}" if extra else \
            ", no percentile with 10 samples beyond it"
        print(f"metric {name} = {e2e[name]!r} s (median of n={len(values)}"
              f"{extra})")
    print(f"metric peak_rss_mb = {e2e['peak_rss_mb']!r} MB")
    print(f"metric error_rate = {e2e['error_rate']!r} ratio "
          f"({failed} of {attempted} passes failed)")
    for name in sorted(layers):
        print(f"metric {name} = {layers[name]!r} {unit_of(name)}")

    chosen = layers if args.trace else e2e
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(work / "result.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload, "mode": mode,
                   "end_to_end": e2e, "samples": samples, "layers": layers,
                   "passes": [{k: v for k, v in p.items() if k != "layers"}
                              for p in harness.passes]}, fh, indent=1)
    if harness.traces:
        with open(work / "trace.json", "w") as fh:
            json.dump(harness.traces, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
