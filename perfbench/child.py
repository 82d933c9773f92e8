"""One timed edgewatch process, started by run.py.

    python3 perfbench/child.py cli <edgewatch arguments...>
    python3 perfbench/child.py imports

`cli` imports `edgewatch.cli` and runs `main(argv)` as the console script
does, with the CLI's stdout passed through. `imports` times the imports of
numpy, scipy.linalg and edgewatch one after another. Either mode writes one
line `PERFBENCH {json}` with its timings to stderr. The parent sets
PERFBENCH_SRC to the `src` directory the package must be imported from.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _report(record: dict):
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH " + json.dumps(record) + "\n")
    sys.stderr.flush()


def check_origin(module):
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        sys.stderr.write(f"edgewatch imported from {module.__file__}, "
                         f"not from {src}\n")
        sys.exit(97)


def run_cli(argv: list[str]) -> int:
    import edgewatch.cli
    t1 = time.perf_counter()
    check_origin(edgewatch.cli)
    rc = edgewatch.cli.main(argv)
    t2 = time.perf_counter()
    _report({"setup_s": t1 - _T0, "solve_s": t2 - t1})
    return rc


def run_imports() -> int:
    t = [time.perf_counter()]
    import numpy  # noqa: F401
    t.append(time.perf_counter())
    import scipy.linalg  # noqa: F401
    t.append(time.perf_counter())
    import edgewatch.cli
    t.append(time.perf_counter())
    check_origin(edgewatch.cli)
    _report({"numpy_s": t[1] - t[0], "scipy_linalg_s": t[2] - t[1],
             "edgewatch_s": t[3] - t[2]})
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(run_cli(rest) if mode == "cli" else run_imports())
