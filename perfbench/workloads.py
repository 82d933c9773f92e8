"""Workload definitions, seeded argument generation and the correctness gate.

A workload is one `edgewatch` CLI command. The seed only picks CLI
arguments: a section length from a narrow band that keeps `L mod p` (so the
edge class) and the box count fixed, and the inverse-iteration `--seed`.
The gate checks one invocation's exit status and output against the
reference values in `reference.json`, recorded with `record_reference.py`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Each resonances workload lists the section lengths its seed may pick. The
# box count is floor(eps * L / c1) + 1, so edge-L4000 (81 boxes at eps 0.2,
# c1 10) admits only L = 4000: any smaller L loses a box and any larger one
# triggers the L > 4000 precision warning. deep-sweep (period 3, eps 0.3,
# c1 1) keeps 301 boxes and L mod 3 = 1 at L = 1000 and 1003.
# l-track shifts its whole L list by the same even amount, which keeps
# L mod 2 = 0 and the proportional-track index int(0.02 * L) per section.
WORKLOADS = {
    "edge-L4000": {
        "command": "resonances",
        "options": ["--potential", "0,3", "--edge", "-1", "--eps", "0.2"],
        "lengths": [4000],
        "rows": 81,
    },
    "deep-sweep": {
        "command": "resonances",
        "options": ["--potential", "1,-2,0.5", "--edge", "0.5", "--eps", "0.3",
                    "--c1", "1"],
        "lengths": [1000, 1003],
        "rows": 301,
    },
    "l-track": {
        "command": "l-scaling",
        "options": ["--potential", "0,3", "--edge", "-1", "--n", "3",
                    "--proportional", "0.02"],
        "base_lengths": [250, 500, 1000, 2000],
        "shifts": [0, 2, 4, 6, 8],
        "rows": 2,
    },
}

RESONANCE_FIELDS = ["n", "lambda_n", "a_n", "alpha_re", "alpha_im", "seed_re",
                    "seed_im", "z_re", "z_im", "residual", "winding_verified"]
L_SCALING_FIELDS = ["track", "slope", "intercept", "r_squared", "n_points",
                    "expected_slope", "passed"]

# (rel_tol, abs_tol) for math.isclose against the reference. Eigenvalues and
# Re z are machine-exact, so a different eigenvalue driver moves them by a
# few ulp of 1 (a QR driver plus the existing polish: 1.1e-16 absolute).
# Weights and Im z carry the inverse-iteration error (seed to seed 1e-12
# relative); 1e-8 leaves room for a more accurate weight method while a
# wrong root or a wrong weight is off by far more.
TOLERANCES = {
    "lambda_n": (1e-12, 1e-15),
    "z_re": (1e-12, 1e-15),
    "a_n": (1e-8, 0.0),
    "z_im": (1e-8, 0.0),
    "slope": (1e-9, 1e-12),
    "intercept": (1e-9, 1e-12),
    "r_squared": (1e-9, 1e-12),
}
RESONANCE_KEYS = ["lambda_n", "a_n", "z_re", "z_im"]
L_SCALING_KEYS = ["slope", "intercept", "r_squared"]

RESIDUAL_TOL = 1e-10
_EPS = 2.0 ** -52


def generate(name: str, seed: int) -> dict:
    """CLI arguments for one workload; the same (name, seed) gives the same."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if spec["command"] == "l-scaling":
        shift = rng.choice(spec["shifts"])
        lengths = [L + shift for L in spec["base_lengths"]]
        size = ["--L-list", ",".join(str(L) for L in lengths)]
        variant = f"shift{shift}"
    else:
        lengths = [rng.choice(spec["lengths"])]
        size = ["--L", str(lengths[0])]
        variant = f"L{lengths[0]}"
    iter_seed = rng.randrange(1000)
    argv = [spec["command"], *spec["options"], *size, "--seed", str(iter_seed)]
    return {"workload": name, "seed": seed, "variant": variant,
            "lengths": lengths, "iter_seed": iter_seed, "argv": argv}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def parse_rows(stdout: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(stdout))
    return list(reader.fieldnames or []), list(reader)


def residual_allowance(row: dict) -> float:
    """Largest residual the gate accepts for one resonance row.

    Newton stops at RESIDUAL_TOL or, when no representable iterate improves
    |f|, at the floor 16 * eps * max(1, |z|) * |f'| (see
    `resonance.newton_refine`). |f'| at the root is dominated by the pole
    term a_n / (lambda_n - z)^2, which the row carries.
    """
    z = complex(float(row["z_re"]), float(row["z_im"]))
    fprime = float(row["a_n"]) / abs(float(row["lambda_n"]) - z) ** 2
    return max(RESIDUAL_TOL, 16.0 * _EPS * max(1.0, abs(z)) * fprime)


def _compare(kind: str, got: dict, ref: list, keys: list[str],
             problems: list[str]):
    for key, expected in zip(keys, ref):
        value = float(got[key])
        rel, abs_ = TOLERANCES[key]
        if not math.isclose(value, expected, rel_tol=rel, abs_tol=abs_):
            problems.append(f"{kind}: {key} = {value!r}, reference {expected!r}")


def check_output(name: str, variant: str, returncode: int, stdout: str,
                 stderr: str, reference: dict | None) -> list[str]:
    """Problems found in one invocation's result; empty means it passed.

    With reference=None only the self-contained checks run (used when the
    reference values are being recorded).
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    spec = WORKLOADS[name]
    try:
        fields, rows = parse_rows(stdout)
    except csv.Error as exc:
        return problems + [f"unparsable output: {exc}"]
    expected_fields = (L_SCALING_FIELDS if spec["command"] == "l-scaling"
                       else RESONANCE_FIELDS)
    if fields != expected_fields:
        return problems + [f"header {fields} != {expected_fields}"]
    if len(rows) != spec["rows"]:
        problems.append(f"{len(rows)} rows, expected {spec['rows']}")
    ref_rows = None
    if reference is not None:
        ref_rows = reference.get(name, {}).get(variant, {}).get("rows")
        if ref_rows is None:
            return problems + [f"no reference for {name}/{variant}"]
    try:
        for i, row in enumerate(rows):
            if spec["command"] == "l-scaling":
                label = f"track {row['track']}"
                if row["passed"] != "true":
                    problems.append(f"{label}: passed = {row['passed']}")
                keys = L_SCALING_KEYS
            else:
                label = f"n={row['n']}"
                if row["winding_verified"] != "true":
                    problems.append(f"{label}: winding_verified = "
                                    f"{row['winding_verified']}")
                if float(row["residual"]) > residual_allowance(row):
                    problems.append(f"{label}: residual {row['residual']} above "
                                    f"{residual_allowance(row):.3e}")
                keys = RESONANCE_KEYS
            if ref_rows is not None and i < len(ref_rows):
                _compare(label, row, ref_rows[i], keys, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed row: {exc!r}")
    return problems


def reference_row(command: str, row: dict) -> list[float]:
    keys = L_SCALING_KEYS if command == "l-scaling" else RESONANCE_KEYS
    return [float(row[k]) for k in keys]
