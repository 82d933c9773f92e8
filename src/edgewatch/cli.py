"""Command-line front end.

Subcommands: bands, edges, spectrum, resonances, free-region, verify,
scaling, l-scaling.  Output is CSV (default) or JSON with identical bytes
for identical configuration and seed.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, resonance, spectrum, verify
from . import floquet
from .errors import SpectralError
from .potential import PeriodicPotential

EDGE_MATCH_TOL = 1e-6


# ---------------------------------------------------------------------------
# Formatting


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        value = float(value)  # numpy scalars repr as np.float64(...)
        if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    return str(value)


def _render(rows: list[dict], fields: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Shared option handling


def _load_potential(args) -> PeriodicPotential:
    if args.potential_file:
        with open(args.potential_file) as fh:
            data = json.load(fh)
        return PeriodicPotential(period=int(data["period"]),
                                 values=tuple(float(v) for v in data["values"]))
    if args.potential is None:
        raise UsageError("one of --potential or --potential-file is required")
    try:
        values = [float(tok) for tok in args.potential.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"bad --potential value: {exc}") from None
    if not values:
        raise UsageError("--potential needs at least one value")
    return PeriodicPotential.from_values(values)


def _match_edge(bs, value: float):
    best = min(bs.edge_points, key=lambda ep: abs(ep.energy - value))
    if abs(best.energy - value) > EDGE_MATCH_TOL:
        raise UsageError(
            f"--edge {value} does not match any computed edge within "
            f"{EDGE_MATCH_TOL:g}; edges are "
            f"{[round(e.energy, 12) for e in bs.edge_points]}")
    return best


class UsageError(Exception):
    pass


def _check_positive(args, *names):
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise UsageError(f"--{name.replace('_', '-')} must be positive, "
                             f"got {value}")


def _check_resonance_config(args):
    _check_positive(args, "eps", "c0", "c1", "newton_tol")
    if getattr(args, "max_iter", 1) < 1:
        raise UsageError("--max-iter must be at least 1")
    if getattr(args, "L", 10) < 10:
        raise UsageError(f"resonance commands need L >= 10, got {args.L}")


def _spectral_pipeline(args):
    V = _load_potential(args)
    if args.L < 1:
        raise UsageError(f"--L must be positive, got {args.L}")
    bs = floquet.band_structure(V)
    sd = spectrum.eigensystem(spectrum.assemble(V, args.L), seed=args.seed)
    sd = spectrum.band_enumerate(sd, bs)
    return V, bs, sd


# ---------------------------------------------------------------------------
# Commands


def _cmd_bands(args) -> int:
    V = _load_potential(args)
    bs = floquet.band_structure(V)
    rows = [{"lo": lo, "hi": hi, "closed_gaps": c}
            for (lo, hi), c in zip(bs.bands, bs.closed_gap_counts)]
    _emit(_render(rows, ["lo", "hi", "closed_gaps"], args.format), args.output)
    return 0


def _cmd_edges(args) -> int:
    V = _load_potential(args)
    bs = floquet.band_structure(V)
    rows = []
    for ep in bs.edge_points:
        ed = floquet.classify_edge(V, bs, ep.energy, args.j)
        rows.append({
            "energy": ed.e0, "band": ed.band_index, "side": ed.side,
            "j": ed.j, "a0_p_minus_1": ed.a0_p_minus_1, "a0_p": ed.a0_p,
            "rho": ed.rho, "a_j1": ed.a_j1, "b_j1": ed.b_j1,
            "d_j1": ed.d_j1, "classification": ed.classification.value,
        })
    fields = ["energy", "band", "side", "j", "a0_p_minus_1", "a0_p", "rho",
              "a_j1", "b_j1", "d_j1", "classification"]
    _emit(_render(rows, fields, args.format), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    V, bs, sd = _spectral_pipeline(args)
    rows = [{
        "k": k,
        "lambda": float(sd.lambdas[k]),
        "weight_end": float(sd.weights_end[k]),
        "weight_start": float(sd.weights_start[k]),
        "band": int(sd.band_of[k]),
        "local_index": int(sd.local_index[k]),
    } for k in range(len(sd.lambdas))]
    fields = ["k", "lambda", "weight_end", "weight_start", "band", "local_index"]
    _emit(_render(rows, fields, args.format), args.output)
    return 0


def _resonance_rows(results):
    rows = []
    for r in results:
        rows.append({
            "n": r.n, "lambda_n": r.lambda_n, "a_n": r.a_n,
            "alpha_re": r.alpha_n.real, "alpha_im": r.alpha_n.imag,
            "seed_re": r.seed.real, "seed_im": r.seed.imag,
            "z_re": r.z.real, "z_im": r.z.imag,
            "residual": r.residual, "winding_verified": r.winding_verified,
        })
    return rows


_RES_FIELDS = ["n", "lambda_n", "a_n", "alpha_re", "alpha_im", "seed_re",
               "seed_im", "z_re", "z_im", "residual", "winding_verified"]


def _cmd_resonances(args) -> int:
    _check_resonance_config(args)
    V, bs, sd = _spectral_pipeline(args)
    ep = _match_edge(bs, args.edge)
    edge = floquet.classify_edge(V, bs, ep.energy, sd.j)
    results = resonance.sweep_band_edge(
        sd, edge, eps=args.eps, C0=args.c0, C1=args.c1,
        newton_tol=args.newton_tol, max_iter=args.max_iter,
        strict=False)
    _emit(_render(_resonance_rows(results), _RES_FIELDS, args.format),
          args.output)
    return 0 if all(r.winding_verified for r in results) else 1


def _cmd_free_region(args) -> int:
    _check_resonance_config(args)
    V, bs, sd = _spectral_pipeline(args)
    ep = _match_edge(bs, args.edge)
    edge = floquet.classify_edge(V, bs, ep.energy, sd.j)
    free = resonance.free_region_check(sd, edge, args.eps, bs)
    rows = [{"free": free, "x_lo": edge.e0 - args.eps, "x_hi": edge.e0,
             "depth": args.eps ** 5}]
    _emit(_render(rows, ["free", "x_lo", "x_hi", "depth"], args.format),
          args.output)
    return 0 if free else 1


def _cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed)
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    _emit(_render(rows, ["name", "passed", "detail"], args.format), args.output)
    return 0 if all(r.passed for r in results) else 1


def _cmd_scaling(args) -> int:
    _check_resonance_config(args)
    V, bs, sd = _spectral_pipeline(args)
    ep = _match_edge(bs, args.edge)
    edge = floquet.classify_edge(V, bs, ep.energy, sd.j)
    results = None
    if edge.classification in (floquet.EdgeClassification.GENERIC_A,
                               floquet.EdgeClassification.GENERIC_B):
        results = resonance.sweep_band_edge(
            sd, edge, eps=args.eps, C0=args.c0, C1=args.c1,
            newton_tol=args.newton_tol, max_iter=args.max_iter,
            strict=False)
    report = analysis.scaling_report(sd, results, edge, bs, eps=args.eps)
    rows = [c.to_dict() for c in report.checks]
    fields = ["name", "slope", "intercept", "r_squared", "n_points",
              "expected_slope", "tolerance", "passed", "note"]
    _emit(_render(rows, fields, args.format), args.output)
    return 0 if report.all_passed else 1


def _cmd_l_scaling(args) -> int:
    _check_positive(args, "eps", "c0")
    V = _load_potential(args)
    bs = floquet.band_structure(V)
    try:
        lengths = [int(tok) for tok in args.L_list.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad --L-list: {exc}") from None
    if len(lengths) < 3:
        raise UsageError("--L-list needs at least 3 lengths")
    fixed, prop = [], []
    for L in lengths:
        sd = spectrum.eigensystem(spectrum.assemble(V, L), seed=args.seed)
        sd = spectrum.band_enumerate(sd, bs)
        ep = _match_edge(bs, args.edge)
        edge = floquet.classify_edge(V, bs, ep.energy, sd.j)
        fixed.append((L, sd.j, resonance.locate_resonance(
            sd, edge, args.n, eps=args.eps, C0=args.c0)))
        if args.proportional is not None:
            n_prop = int(args.proportional * L)
            prop.append((L, sd.j, resonance.locate_resonance(
                sd, edge, n_prop, eps=args.eps, C0=args.c0)))
    rows = []
    fit = analysis.l_scaling(fixed)
    rows.append({"track": f"fixed-n={args.n}", "slope": fit.slope,
                 "intercept": fit.intercept, "r_squared": fit.r_squared,
                 "n_points": fit.n_points, "expected_slope": -3.0,
                 "passed": abs(fit.slope + 3.0) <= analysis.SLOPE_TOLERANCE})
    if prop:
        fit2 = analysis.l_scaling(prop, require_same_n=False)
        rows.append({"track": f"proportional-n={args.proportional}",
                     "slope": fit2.slope, "intercept": fit2.intercept,
                     "r_squared": fit2.r_squared, "n_points": fit2.n_points,
                     "expected_slope": -1.0,
                     "passed": (abs(fit2.slope + 1.0)
                                <= analysis.PROPORTIONAL_SLOPE_TOLERANCE)})
    fields = ["track", "slope", "intercept", "r_squared", "n_points",
              "expected_slope", "passed"]
    _emit(_render(rows, fields, args.format), args.output)
    return 0 if all(r["passed"] for r in rows) else 1


# ---------------------------------------------------------------------------
# Parser


def _add_common(p, potential=True):
    if potential:
        p.add_argument("--potential", help="comma-separated cell values; the "
                                           "period is the count")
        p.add_argument("--potential-file",
                       help='JSON file {"period": p, "values": [...]}')
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write to this path instead of stdout")


def _add_seed(p, purpose):
    p.add_argument("--seed", type=int, default=0,
                   help=f"seed for {purpose} (default 0)")


def _add_spectral(p):
    p.add_argument("--L", type=int, required=True, help="section length")
    _add_seed(p, "inverse-iteration starts")


def _add_resonance(p):
    p.add_argument("--edge", type=float, required=True,
                   help="band-edge energy (matched within 1e-6)")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--c0", type=float, default=50.0)
    p.add_argument("--c1", type=float, default=10.0)
    p.add_argument("--newton-tol", type=float, default=1e-11)
    p.add_argument("--max-iter", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgewatch",
        description="Band-edge resonances of truncated periodic lattice operators")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band table of the periodic operator")
    _add_common(p)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("edges", help="classify every band edge for one residue j")
    _add_common(p)
    p.add_argument("--j", type=int, required=True, help="residue L mod p")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("spectrum", help="eigenvalues and boundary weights")
    _add_common(p)
    _add_spectral(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("resonances", help="sweep the resonances below one edge")
    _add_common(p)
    _add_spectral(p)
    _add_resonance(p)
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("free-region", help="certify a resonance-free rectangle")
    _add_common(p)
    _add_spectral(p)
    p.add_argument("--edge", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.set_defaults(func=_cmd_free_region)

    p = sub.add_parser("verify", help="run the property suites")
    _add_common(p, potential=False)
    _add_seed(p, "the randomized checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scaling", help="near-edge scaling-law report")
    _add_common(p)
    _add_spectral(p)
    _add_resonance(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("l-scaling", help="resonance width scaling in L")
    _add_common(p)
    p.add_argument("--L-list", required=True,
                   help="comma-separated section lengths (>= 3)")
    _add_seed(p, "inverse-iteration starts")
    p.add_argument("--edge", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--c0", type=float, default=50.0)
    p.add_argument("--n", type=int, default=3, help="fixed local index")
    p.add_argument("--proportional", type=float,
                   help="also fit the track n = floor(FRAC * L)")
    p.set_defaults(func=_cmd_l_scaling)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
