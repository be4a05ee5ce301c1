"""Regenerate reference.json, the expected fit documents of every workload.

    python3 bench/make_reference.py

Run from the root of a source checkout. Each workload runs one pass, full
and quick, and its `*_fit.json` documents (and `derive-params` output) are
stored without the seed-dependent calibrate summaries, which the harness
checks against the calibrate rows instead. Regenerate only for a change that
is meant to move outputs, and record the drift it caused.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.preflight()
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for mode in ("full", "quick"):
        reference[mode] = {}
        for name in run.WORKLOADS:
            work = run.WORK / "reference" / mode / name
            shutil.rmtree(work, ignore_errors=True)
            outdir = work / "pass"
            outdir.mkdir(parents=True)
            workload = run.make_workload(name, 0, mode == "quick", work)
            workload.run_pass(outdir, traced=False)
            reference[mode][name] = workload.documents(outdir)
            print(f"{mode} {name}: {sorted(reference[mode][name])}")
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
