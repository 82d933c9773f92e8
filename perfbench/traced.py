"""Traced run of one workload, started by run.py in a fresh process.

    python3 perfbench/traced.py <budget_s> <edgewatch arguments...>

Each pass runs `edgewatch.cli.main(argv)` twice, once plain and once with
the CLI's references to the floquet, spectrum, resonance and analysis
modules replaced by stand-ins that put a span around every function call.
The traced call therefore makes exactly the CLI's calls in the CLI's order,
and the CLI's own time is its span minus its children. Every returned
Resonance is then replayed box by box through the public steps
(alpha_and_seed, newton_refine, count_in_box on `r.box`). Passes repeat
while the budget allows, at least once. Spans are kept in memory and
printed with the per-pass figures as one JSON line. The parent sets
PERFBENCH_SRC as for child.py.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from child import check_origin  # noqa: E402

import numpy as np  # noqa: E402
from edgewatch import cli, resonance  # noqa: E402
from edgewatch.summation import compensated_sum  # noqa: E402

LAYERS = ("floquet", "spectrum", "resonance", "analysis")


class Tracer:
    """Spans (name, start, end, parent, request) and layer calls, in memory."""

    def __init__(self):
        self.spans = []
        self.calls = []  # (span name, args, result) of every traced call
        self.request = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "request": self.request, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name) as rec:
            result = fn(*args, **kwargs)
        if isinstance(getattr(result, "L", None), int):
            rec["L"] = result.L  # section length of operators and spectra
        self.calls.append((name, args, result))
        return result


class TracedModule:
    """Stands in for one edgewatch module as seen from edgewatch.cli."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._prefix = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not inspect.isfunction(obj):
            return obj
        span_name = f"{self._prefix}.{name}"
        return lambda *a, **kw: self._tracer.call(span_name, obj, *a, **kw)


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    saved = {name: getattr(cli, name) for name in LAYERS}
    for name, module in saved.items():
        setattr(cli, name, TracedModule(module, tracer))
    try:
        yield
    finally:
        for name, module in saved.items():
            setattr(cli, name, module)


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def located(calls) -> list:
    """(SpectralData, Resonance) for every resonance the CLI located."""
    pairs = []
    for name, args, result in calls:
        if name == "resonance.sweep_band_edge":
            pairs += [(args[0], r) for r in result]
        elif name == "resonance.locate_resonance":
            pairs.append((args[0], result))
    return pairs


def replay(tr: Tracer, pairs, args) -> dict:
    """Re-run each box's public steps; check they reproduce the Resonance."""
    newton_tol = getattr(args, "newton_tol", 1e-11)
    max_iter = getattr(args, "max_iter", 50)
    iters, certified, problems = 0, 0, []
    for sd, r in pairs:
        g = int(np.flatnonzero(sd.lambdas == r.lambda_n)[0])
        with tr.span("resonance.box", n=r.n, L=sd.L):
            alpha, seed = tr.call("resonance.alpha_and_seed",
                                  resonance.alpha_and_seed, sd, r.band,
                                  int(sd.local_index[g]))
            z, _, it = tr.call("resonance.newton_refine",
                               resonance.newton_refine, sd, seed,
                               max_iter=max_iter, tol=newton_tol)
            count = tr.call("resonance.count_in_box", resonance.count_in_box,
                            sd, r.box)
        iters += it
        certified += r.winding_verified
        if (alpha, seed, z, it) != (r.alpha_n, r.seed, r.z, r.newton_iters) \
                or (r.winding_verified and count != 1):
            problems.append(f"replay of n={r.n} at L={sd.L} differs: "
                            f"z={z} count={count}")
    return {"newton_iters": iters, "boxes": len(pairs),
            "certified": certified, "problems": problems}


def compensated_sum_us(sd, z: complex) -> float:
    """Median per-call time of compensated_sum on weights_end/(lambdas - z)."""
    vec = sd.weights_end / (sd.lambdas - z)
    per_call = []
    for _ in range(5):
        n, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            compensated_sum(vec)
            n += 1
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def _durations_by_name(spans, parents: set) -> dict:
    out = {}
    for s in spans:
        if s["parent"] in parents:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def one_pass(tr: Tracer, argv: list[str]) -> dict:
    # alternate which of the two calls goes first, so that neither always
    # pays for the other's garbage
    if tr.request % 2 == 0:
        rc, stdout, untraced_s = run_cli(argv)
    tr.calls = []
    with traced_cli(tr), tr.span("cli.main") as root:
        traced_rc, traced_stdout, _ = run_cli(argv)
    if tr.request % 2 == 1:
        rc, stdout, untraced_s = run_cli(argv)
    pairs = located(tr.calls)
    with tr.span("replay") as rep:
        checked = replay(tr, pairs, cli.build_parser().parse_args(argv))

    layers = _durations_by_name(tr.spans, {root["id"]})
    traced_s = root["end"] - root["start"]
    sections = [s for s in tr.spans if s["parent"] == root["id"]
                and s["name"] == "spectrum.eigensystem"]
    boxes = [s for s in tr.spans if s["parent"] == rep["id"]]
    if (traced_rc, traced_stdout) != (rc, stdout):
        checked["problems"].append("traced CLI output differs from untraced")
    if not sections or not pairs:
        checked["problems"].append("no eigensystem or resonance call traced")
    return {
        "returncode": rc,
        "stdout": stdout,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "cli_self_s": traced_s - sum(layers.values()),
        "layers_s": layers,
        "eigensystem_by_L_s": {s["L"]: s["end"] - s["start"] for s in sections},
        "eigenvalues": sum(s["L"] + 1 for s in sections),
        "steps_s": _durations_by_name(tr.spans, {b["id"] for b in boxes}),
        "box_ms": [(b["end"] - b["start"]) * 1e3 for b in boxes],
        **checked,
        "first": pairs[0] if pairs else None,
    }


def main(budget_s: float, argv: list[str]) -> dict:
    check_origin(cli)
    tr = Tracer()
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(one_pass(tr, argv))
        tr.request += 1
        now = time.perf_counter()
        if now - _T0 + (now - start) > budget_s:
            break
    firsts = [p.pop("first") for p in passes]
    out = {"passes": passes, "spans": tr.spans, "compensated_sum_us": None}
    if firsts[0] is not None:
        sd, r = firsts[0]
        out["compensated_sum_us"] = compensated_sum_us(sd, r.z)
    return out


if __name__ == "__main__":
    print(json.dumps(main(float(sys.argv[1]), sys.argv[2:])))
