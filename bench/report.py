"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/report.py [--seed N] [--seconds S]

Run from the root of a source checkout. Prints
`<workload> trace=<0|1> <metric> = <value> <unit>` for every end-to-end and
per-layer metric, then one line per run with its failed and attempted
passes; exits 1 if any pass failed.
"""

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    summary, ok = [], True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload}: harness exited {done.returncode}")
                ok = False
                continue
            for line in lines[:-1]:
                if line.startswith("metric ") or (line.startswith("env ")
                                                  and not trace):
                    print(f"{workload} trace={trace} "
                          + line.removeprefix("metric "))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary.append(f"{workload} trace={trace}: error_rate = "
                           f"{result['failed']}/{result['attempted']}")
    print("\n".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
