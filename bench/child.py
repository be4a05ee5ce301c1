"""Fresh-interpreter children of the benchmark harness.

    python child.py setup
        import nobleline, load the packaged preset, print the two
        durations as JSON (the harness times the whole process as set-up).
    python child.py cli TRACE_OUT COMMAND [ARGS...]
        run `nobleline COMMAND ARGS...` with the tracer installed and write
        its spans and counters to TRACE_OUT; exits with the CLI's code.

The nobleline sources must be importable (the harness sets PYTHONPATH).
"""

import json
import sys
import time

from tracer import Tracer


def setup() -> int:
    start = time.perf_counter()
    import nobleline
    imported = time.perf_counter()
    nobleline.load_config(nobleline.preset_path())
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "load_config_s": loaded - imported}))
    return 0


def cli(trace_out: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import nobleline.cli
    tracer.install()
    try:
        with tracer.span("cli." + argv[0].replace("-", "_")):
            code = nobleline.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(setup())
    if sys.argv[1:2] == ["cli"] and len(sys.argv) > 3:
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    sys.exit(__doc__)
