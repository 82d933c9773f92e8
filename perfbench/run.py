"""edgewatch benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload deep-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory. With --trace 0 the workload's CLI command runs in fresh
processes, one after another, for --seconds seconds, and the end-to-end
metrics are medians over those invocations. With --trace 1 a fresh process
drives the same computation with a span around each public call (see
traced.py) and reports per-layer metrics. Every output is checked against
reference values; the last stdout line is the JSON result, and the full
record (machine, arguments, samples, spans) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "setup.numpy_s": "s",
    "setup.scipy_linalg_s": "s",
    "setup.edgewatch_s": "s",
    "floquet.band_structure_s": "s",
    "floquet.classify_edge_s": "s",
    "spectrum.assemble_s": "s",
    "spectrum.eigensystem_s": "s",
    "spectrum.band_enumerate_s": "s",
    "spectrum.eigenvalues": "count",
    "resonance.alpha_and_seed_s": "s",
    "resonance.newton_refine_s": "s",
    "resonance.newton_iters": "count",
    "resonance.count_in_box_s": "s",
    "resonance.boxes": "count",
    "resonance.certified_ratio": "1",
    "resonance.box_p50_ms": "ms",
    "summation.compensated_sum_us": "us",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "EDGEWATCH_THREADS"]
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EDGEWATCH_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def _drain(proc, deadline: float) -> tuple[bytes, bytes, bool]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                return b"", b"", True
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), False


def spawn(script: str, args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one Python child to completion; wall time and peak RSS from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err, timed_out = _drain(proc, t0 + timeout)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_lines, report = [], None
    for line in err.decode(errors="replace").splitlines(keepends=True):
        if line.startswith("PERFBENCH "):
            report = json.loads(line[len("PERFBENCH "):])
        else:
            stderr_lines.append(line)
    return {"wall_s": wall, "returncode": proc.returncode,
            "timed_out": timed_out, "stdout": out.decode(errors="replace"),
            "stderr": "".join(stderr_lines), "report": report,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


# ---------------------------------------------------------------------------
# Runs


def run_end_to_end(gen: dict, seconds: float, reference: dict) -> dict:
    spawn("child.py", ["imports"])  # fill the page cache; not timed
    samples = []
    start = time.perf_counter()
    while True:
        res = spawn("child.py", ["cli", *gen["argv"]])
        problems = workloads.check_output(
            gen["workload"], gen["variant"], res["returncode"], res["stdout"],
            res["stderr"], reference)
        if res["timed_out"]:
            problems.append(f"killed after {CHILD_TIMEOUT_S} s")
        if res["report"] is None:
            problems.append("no timing report from the child")
        samples.append({"wall_s": res["wall_s"],
                        "peak_rss_mb": res["peak_rss_mb"],
                        **(res["report"] or {}),
                        "returncode": res["returncode"], "problems": problems})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median([s["wall_s"] for s in samples]) > seconds:
            break
    timed = [s for s in samples if "solve_s" in s]
    if not timed:
        raise BenchError("no invocation finished with a timing report: "
                         + "; ".join(samples[0]["problems"]))
    metrics = {name: statistics.median([s[name] for s in timed])
               for name in END_TO_END_UNITS}
    failed = sum(bool(s["problems"]) for s in samples)
    return {"metrics": metrics, "units": END_TO_END_UNITS,
            "samples": samples, "attempted": len(samples), "failed": failed,
            "counts": {name: len(timed) for name in END_TO_END_UNITS}}


def layer_metrics(probes: list[dict], traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics (medians over passes) and the workload-only extras."""
    passes = traced["passes"]

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def layer(name):
        return med(lambda p: p["layers_s"].get(name, 0.0))

    metrics = {
        "setup.numpy_s": statistics.median([r["numpy_s"] for r in probes]),
        "setup.scipy_linalg_s": statistics.median([r["scipy_linalg_s"] for r in probes]),
        "setup.edgewatch_s": statistics.median([r["edgewatch_s"] for r in probes]),
        "floquet.band_structure_s": layer("floquet.band_structure"),
        "floquet.classify_edge_s": layer("floquet.classify_edge"),
        "spectrum.assemble_s": layer("spectrum.assemble"),
        "spectrum.eigensystem_s": layer("spectrum.eigensystem"),
        "spectrum.band_enumerate_s": layer("spectrum.band_enumerate"),
        "spectrum.eigenvalues": med(lambda p: p["eigenvalues"]),
        "resonance.alpha_and_seed_s":
            med(lambda p: p["steps_s"]["resonance.alpha_and_seed"]),
        "resonance.newton_refine_s":
            med(lambda p: p["steps_s"]["resonance.newton_refine"]),
        "resonance.newton_iters": med(lambda p: p["newton_iters"]),
        "resonance.count_in_box_s":
            med(lambda p: p["steps_s"]["resonance.count_in_box"]),
        "resonance.boxes": med(lambda p: p["boxes"]),
        "resonance.certified_ratio": med(lambda p: p["certified"] / p["boxes"]),
        "resonance.box_p50_ms": med(lambda p: statistics.median(p["box_ms"])),
        "summation.compensated_sum_us": traced["compensated_sum_us"],
        "cli.self_s": med(lambda p: p["cli_self_s"]),
        "trace.overhead_ratio": med(lambda p: p["traced_s"] / p["untraced_s"]),
    }
    extras = {"trace.untraced_solve_s": med(lambda p: p["untraced_s"]),
              "trace.traced_solve_s": med(lambda p: p["traced_s"]),
              "trace.layer_share":
                  med(lambda p: sum(p["layers_s"].values()) / p["traced_s"])}
    for name in ("resonance.sweep_band_edge", "resonance.locate_resonance",
                 "analysis.l_scaling"):
        if name in passes[0]["layers_s"]:
            extras[name + "_s"] = layer(name)
    sections = passes[0]["eigensystem_by_L_s"]
    if len(sections) > 1:
        for L in sections:
            extras[f"spectrum.eigensystem_s.L{L}"] = \
                med(lambda p: p["eigensystem_by_L_s"][L])
    # a percentile is reported only with at least ten boxes beyond it
    if passes[0]["boxes"] >= 100:
        extras["resonance.box_p90_ms"] = med(
            lambda p: statistics.quantiles(p["box_ms"], n=10)[-1])
    return metrics, extras


def run_traced(gen: dict, seconds: float, reference: dict) -> dict:
    start = time.perf_counter()
    spawn("child.py", ["imports"])  # fill the page cache; not timed
    probes, failed = [], 0
    for _ in range(IMPORT_PROBES):
        res = spawn("child.py", ["imports"])
        if res["returncode"] == 0 and res["report"]:
            probes.append(res["report"])
        else:
            failed += 1
    budget = max(1.0, seconds - (time.perf_counter() - start))
    res = spawn("traced.py", [f"{budget:.3f}", *gen["argv"]])
    if res["returncode"] != 0 or not probes:
        raise BenchError(f"traced run failed (exit {res['returncode']}): "
                         f"{res['stderr'][-2000:]}")
    traced = json.loads(res["stdout"].splitlines()[-1])
    pass_problems = [p["problems"] + workloads.check_output(
        gen["workload"], gen["variant"], p["returncode"], p["stdout"], "",
        reference) for p in traced["passes"]]
    failed += sum(bool(p) for p in pass_problems)
    try:
        metrics, extras = layer_metrics(probes, traced)
    except (KeyError, TypeError, ZeroDivisionError,
            statistics.StatisticsError) as exc:
        raise BenchError(f"traced run incomplete ({exc!r}): "
                         f"{pass_problems[:3]}") from None
    for p in traced["passes"]:
        del p["stdout"]
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "extras": extras,
            "probes": probes, "passes": traced["passes"],
            "problems": pass_problems, "spans": traced["spans"],
            "attempted": IMPORT_PROBES + len(traced["passes"]), "failed": failed,
            "counts": {"setup": len(probes), "passes": len(traced["passes"])}}


# ---------------------------------------------------------------------------
# Machine record and output


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_record() -> dict:
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "child_env": {k: env.get(k) for k in THREAD_VARS},
    }


def _table(result: dict) -> list[str]:
    lines = [f"{'metric':34} {'value':>14}  unit"]
    for name, value in result["metrics"].items():
        lines.append(f"{name:34} {value:14.6g}  {result['units'][name]}")
    lines.append(f"{'fail_ratio':34} "
                 f"{result['failed'] / result['attempted']:14.6g}  1")
    for name, value in result.get("extras", {}).items():
        lines.append(f"{name:34} {value:14.6g}  (record only)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "edgewatch" / "__init__.py").is_file():
            raise BenchError(f"no edgewatch package under {SRC}")
        reference = workloads.load_reference()
        gen = workloads.generate(args.workload, args.seed)
        print(f"perfbench: {args.workload} seed={args.seed} "
              f"argv={' '.join(gen['argv'])}")
        run = run_traced if args.trace else run_end_to_end
        result = run(gen, args.seconds, reference)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "generated": gen,
              "machine": machine_record(), **result}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"seed": args.seed, "machine": record["machine"]}))
    for line in _table(result):
        print(line)
    print(f"record: {path.relative_to(ROOT)}; counts {result['counts']}")
    problems = [p for s in result.get("samples", []) for p in s["problems"]]
    problems += [p for ps in result.get("problems", []) for p in ps]
    for p in problems[:20]:
        print(f"FAILED CHECK: {p}")
    print(json.dumps(result_line(result)))
    return 0


def result_line(result: dict) -> dict:
    """The last stdout line: the only part a comparison of runs reads."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
