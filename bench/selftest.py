"""Self-test of the benchmark harness, on quick (small) inputs.

    python3 bench/selftest.py

Run from the root of a source checkout; takes a few minutes. It checks that

1. every metric BENCHMARK.json names is in the result line with its unit,
   and printed with that unit along with every per-function self time and
   the error rate, for all four workloads with and without tracing;
2. a corrupted output file counts as a failed pass, both through the
   reference comparison and through the hash comparison;
3. `--seed` changes the calibrate rows and leaves the outputs of the
   noiseless workloads unchanged (provenance, which records the seed, aside);
4. the harness refuses to run, without a result line, while
   NOBLELINE_MAX_WORKERS is set or without the nobleline sources.

Exits 1 at the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import run

SCRATCH = run.WORK / "selftest"


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def harness(argv, cwd=run.ROOT, env=None):
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=900)


def check_metrics() -> None:
    spec = json.loads(run.SPEC.read_text())
    printed_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed_e2e["error_rate"] = "ratio"
    printed_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_layers.update({f"{name}.s": "s" for name in run.LAYER_TIMES})
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = harness([str(run.HERE / "run.py"), "--workload", workload,
                            "--seed", "1", "--seconds", "1", "--trace",
                            str(trace), "--quick"])
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label}: exit {done.returncode}\n"
                   + done.stderr[-3000:])
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: {result}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            expect(set(result["metrics"]) == {m["name"] for m in wanted},
                   f"{label}: result metrics differ from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{label}: {m['name']} = {got}")
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    name, _, value, unit = line.split()[1:5]
                    printed[name] = unit
            for name, unit in (printed_layers if trace
                               else printed_e2e).items():
                expect(printed.get(name) == unit,
                       f"{label}: {name} not printed with unit {unit}")
            print(f"ok: {label} emits every metric")


def check_corruption() -> None:
    work = SCRATCH / "corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = json.loads(run.REFERENCE.read_text())["quick"]["excite_ramped"]
    workload = run.make_workload("excite_ramped", 1, True, work)
    original = workload.run_pass
    calls = []

    def corrupting(outdir, traced):
        info = original(outdir, traced)
        calls.append(outdir)
        if len(calls) == 2:     # a fitted value moves: reference check
            path = outdir / "excite_fit.json"
            doc = json.loads(path.read_text())
            doc["extras"]["fitted_half_width"] *= 1.0 + 1e-6
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if len(calls) == 3:     # one digit of the table changes: hash check
            path = outdir / "excite_points.csv"
            data = bytearray(path.read_bytes())
            digit = max(i for i, b in enumerate(data) if chr(b) in "1234567")
            data[digit] += 1
            path.write_bytes(bytes(data))
        return info

    workload.run_pass = corrupting
    bench = run.Harness(workload, reference, work)
    bench.run(seconds=0.01, trace=False)
    failed = [i for i, p in enumerate(bench.passes) if p["failed"]]
    expect(len(bench.passes) == 1 + run.MIN_PASSES and failed == [2, 3],
           f"corrupted passes 2 and 3, harness failed {failed} of "
           f"{len(bench.passes)}")
    print("ok: corrupted fit.json and points.csv each count as a failed pass")


def check_seed() -> None:
    for name in run.WORKLOADS:
        outputs = []
        for seed in (11, 12):
            work = SCRATCH / "seed" / f"{name}_{seed}"
            shutil.rmtree(work, ignore_errors=True)
            outdir = work / "pass"
            outdir.mkdir(parents=True)
            workload = run.make_workload(name, seed, True, work)
            workload.run_pass(outdir, False)
            outputs.append({p.name: p.read_bytes()
                            for p in workload.outputs(outdir)
                            if not p.name.endswith("provenance.json")})
        changed = sorted(n for n in outputs[0]
                         if outputs[0][n] != outputs[1][n])
        if name == "calibrate":
            expect("calibrate_points.csv" in changed,
                   "calibrate rows do not depend on --seed")
        else:
            expect(not changed, f"{name}: {changed} depend on --seed")
        print(f"ok: {name} outputs {'change' if changed else 'do not change'}"
              " with --seed")


def check_refusals() -> None:
    argv = ["--workload", "excite_ramped", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--quick"]
    done = harness([str(run.HERE / "run.py"), *argv],
                   env={**os.environ, "NOBLELINE_MAX_WORKERS": "2"})
    expect(done.returncode != 0 and not done.stdout.strip(),
           "ran with NOBLELINE_MAX_WORKERS set")
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = harness([str(bare / run.HERE.name / "run.py"), *argv], cwd=bare)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "ran without the nobleline sources")
    print("ok: refuses with NOBLELINE_MAX_WORKERS set or without sources")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    try:
        check_refusals()
        check_corruption()
        check_seed()
        check_metrics()
    except CheckFailed as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
