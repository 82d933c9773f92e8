"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every section-length variant of every workload once through the CLI
(inverse-iteration seed 0) from the checkout's `src`, checks the output with
the reference-free part of the gate, and rewrites reference.json. Run it
only on a commit whose answers are trusted; a change that claims to keep
the answers must pass the gate against the existing file.
"""

import json
import sys

import run
import workloads


def variants(name: str):
    spec = workloads.WORKLOADS[name]
    if spec["command"] == "l-scaling":
        for shift in spec["shifts"]:
            yield f"shift{shift}", ["--L-list", ",".join(
                str(L + shift) for L in spec["base_lengths"])]
    else:
        for L in spec["lengths"]:
            yield f"L{L}", ["--L", str(L)]


def main() -> int:
    reference = {}
    for name, spec in workloads.WORKLOADS.items():
        for variant, size in variants(name):
            argv = [spec["command"], *spec["options"], *size, "--seed", "0"]
            res = run.spawn("child.py", ["cli", *argv])
            problems = workloads.check_output(
                name, variant, res["returncode"], res["stdout"], res["stderr"],
                None)
            if problems:
                print(f"{name}/{variant}: {problems[:5]}", file=sys.stderr)
                return 1
            _, rows = workloads.parse_rows(res["stdout"])
            reference.setdefault(name, {})[variant] = {
                "argv": argv,
                "rows": [workloads.reference_row(spec["command"], r)
                         for r in rows]}
            print(f"{name}/{variant}: {len(rows)} rows, {res['wall_s']:.2f} s")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
