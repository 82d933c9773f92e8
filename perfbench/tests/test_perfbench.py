"""Self-tests of the benchmark: the gate, the result line and the seeding.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

REPO = BENCH.parent
REFERENCE = workloads.load_reference()
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _csv(fields, rows):
    lines = [",".join(fields)]
    lines += [",".join(str(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def _resonance_output(name, variant, edit=None):
    rows = []
    for n, (lam, a, z_re, z_im) in enumerate(REFERENCE[name][variant]["rows"]):
        row = dict.fromkeys(workloads.RESONANCE_FIELDS, 0.0)
        row.update(n=n, lambda_n=repr(lam), a_n=repr(a), z_re=repr(z_re),
                   z_im=repr(z_im), residual="1e-12", winding_verified="true")
        rows.append(row)
    if edit:
        edit(rows)
    return _csv(workloads.RESONANCE_FIELDS, rows)


def _l_track_output(variant, edit=None):
    rows = []
    for track, (slope, intercept, r2) in zip(
            ["fixed-n=3", "proportional-n=0.02"],
            REFERENCE["l-track"][variant]["rows"]):
        rows.append({"track": track, "slope": repr(slope),
                     "intercept": repr(intercept), "r_squared": repr(r2),
                     "n_points": 4, "expected_slope": -3, "passed": "true"})
    if edit:
        edit(rows)
    return _csv(workloads.L_SCALING_FIELDS, rows)


def _gate(name, variant, stdout, returncode=0, stderr=""):
    return workloads.check_output(name, variant, returncode, stdout, stderr,
                                  REFERENCE)


@pytest.mark.parametrize("name,variant", [("edge-L4000", "L4000"),
                                          ("deep-sweep", "L1003")])
def test_gate_accepts_reference_output(name, variant):
    assert _gate(name, variant, _resonance_output(name, variant)) == []


def test_gate_accepts_last_ulp_changes():
    # what an eigenvalue driver with a different rounding would produce
    def nudge(rows):
        for row in rows:
            row["lambda_n"] = repr(float(row["lambda_n"]) + 2.3e-16)
            row["z_re"] = repr(float(row["z_re"]) - 2.3e-16)
            row["a_n"] = repr(float(row["a_n"]) * (1 + 1e-11))
            row["z_im"] = repr(float(row["z_im"]) * (1 - 1e-11))
    assert _gate("edge-L4000", "L4000",
                 _resonance_output("edge-L4000", "L4000", nudge)) == []


def _set(index, key, value):
    def edit(rows):
        rows[index][key] = value(rows[index][key])
    return edit


@pytest.mark.parametrize("edit,expect", [
    (_set(5, "winding_verified", lambda _: "false"), "winding_verified"),
    (_set(40, "z_re", lambda v: repr(float(v) + 1e-9)), "z_re"),
    (_set(0, "z_im", lambda v: repr(float(v) * 1.001)), "z_im"),
    (_set(7, "a_n", lambda v: repr(float(v) * 1.01)), "a_n"),
    (_set(3, "residual", lambda _: "1"), "residual"),
    (lambda rows: rows.pop(), "rows"),
])
def test_gate_rejects_doctored_resonances(edit, expect):
    out = _resonance_output("deep-sweep", "L1000", edit)
    problems = _gate("deep-sweep", "L1000", out)
    assert problems and any(expect in p for p in problems)


def test_gate_rejects_failed_process():
    out = _resonance_output("edge-L4000", "L4000")
    assert any("exit code" in p
               for p in _gate("edge-L4000", "L4000", out, returncode=1))
    assert any("traceback" in p for p in _gate(
        "edge-L4000", "L4000", out,
        stderr="Traceback (most recent call last):\n"))
    assert _gate("edge-L4000", "L4000", "")


def test_gate_l_track():
    assert _gate("l-track", "shift4", _l_track_output("shift4")) == []
    flipped = _l_track_output("shift4", _set(1, "passed", lambda _: "false"))
    assert any("passed" in p for p in _gate("l-track", "shift4", flipped))
    moved = _l_track_output("shift4",
                            _set(0, "slope", lambda v: repr(float(v) + 1e-6)))
    assert any("slope" in p for p in _gate("l-track", "shift4", moved))


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END_UNITS == e2e
    assert run.PER_LAYER_UNITS == layers
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _fake_pass(L):
    return {"layers_s": {"floquet.band_structure": 1e-3,
                         "spectrum.eigensystem": 0.5,
                         "resonance.sweep_band_edge": 0.2},
            "eigensystem_by_L_s": {str(L): 0.5}, "eigenvalues": L + 1,
            "steps_s": {"resonance.alpha_and_seed": 0.01,
                        "resonance.newton_refine": 0.02,
                        "resonance.count_in_box": 0.15},
            "newton_iters": 30, "boxes": 10, "certified": 10,
            "box_ms": [float(i) for i in range(10)],
            "untraced_s": 0.75, "traced_s": 0.76, "cli_self_s": 0.01}


def test_result_lines_carry_the_benchmark_json_metrics():
    probe = {"numpy_s": 0.1, "scipy_linalg_s": 0.2, "edgewatch_s": 0.05}
    traced = {"passes": [_fake_pass(400), _fake_pass(400)],
              "compensated_sum_us": 5.0}
    metrics, _ = run.layer_metrics([probe] * 3, traced)
    line = run.result_line({"metrics": metrics, "units": run.PER_LAYER_UNITS,
                            "attempted": 5, "failed": 0})
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    e2e = {name: 1.0 for name in run.END_TO_END_UNITS}
    line = run.result_line({"metrics": e2e, "units": run.END_TO_END_UNITS,
                            "attempted": 3, "failed": 1})
    assert line["correct"] is False
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_generated_arguments(name):
    runs = [workloads.generate(name, seed) for seed in range(40)]
    assert runs == [workloads.generate(name, seed) for seed in range(40)]
    assert len({tuple(r["argv"]) for r in runs}) > 1
    spec = workloads.WORKLOADS[name]
    period = len(spec["options"][spec["options"].index("--potential") + 1]
                 .split(","))
    for r in runs:
        assert r["variant"] in REFERENCE[name]
        assert {L % period for L in r["lengths"]} == \
            {L % period for L in spec.get("base_lengths", spec.get("lengths"))}
        assert max(r["lengths"]) <= 4000


@pytest.mark.parametrize("name", ["edge-L4000", "deep-sweep"])
def test_seeded_lengths_keep_the_box_count(name):
    spec = workloads.WORKLOADS[name]
    opts = dict(zip(spec["options"][::2], spec["options"][1::2]))
    eps, c1 = float(opts["--eps"]), float(opts.get("--c1", 10))
    for L in spec["lengths"]:
        assert math.floor(eps * L / c1) + 1 == spec["rows"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
