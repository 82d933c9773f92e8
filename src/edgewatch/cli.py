"""Command-line front end.

Subcommands: bands, edges, spectrum, resonances, free-region, verify,
scaling, l-scaling.  Each command returns its table rows and a verdict;
`main` prints the rows as CSV (default, the header is the keys of the first
row) or JSON, with identical bytes for identical configuration.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, resonance, spectrum, verify
from . import floquet
from .errors import NonGenericEdge, SpectralError
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


def _print_table(rows: list[dict], fmt: str, path: str | None):
    """Write rows as JSON, or as CSV headed by the keys of the first row."""
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [rows[0], *(map(_fmt, row.values()) for row in rows)]
        text = "".join(",".join(cells) + "\n" for cells in lines)
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
        shape = '{"period": p, "values": [v, ...]}'
        if not (isinstance(data, dict) and "period" in data
                and isinstance(data.get("values"), list)):
            raise UsageError(f"--potential-file must hold {shape}")
        try:
            return PeriodicPotential(period=data["period"],
                                     values=data["values"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"--potential-file must hold {shape}: {exc}") \
                from None
    if args.potential is None:
        raise UsageError("one of --potential or --potential-file is required")
    try:
        return PeriodicPotential.from_values(
            tok for tok in args.potential.split(",") if tok != "")
    except ValueError as exc:
        raise UsageError(f"bad --potential value: {exc}") from None


def _match_edge(bs, value: float) -> float:
    best = bs.nearest_edge(value)
    if not abs(best.energy - value) <= EDGE_MATCH_TOL:
        raise UsageError(
            f"--edge {value} does not match any computed edge within "
            f"{EDGE_MATCH_TOL:g}; edges are "
            f"{[round(e.energy, 12) for e in bs.edge_points]}")
    return best.energy


class UsageError(Exception):
    pass


def _sections(V, bs, lengths, edge=None, boxes=None, eps=None) -> list:
    """Band-enumerated spectral data of the length-L Dirichlet sections,
    one for each L of lengths, solved in one spectrum.eigensystem call as
    the longest section and its leading blocks (spectrum.assemble samples
    V from site 0).

    Each whole, or for its boxes ns (boxes, one list per length) at the
    edge windowed around them: the window of resonance.sweep_window
    (spectrum.eigensystem solves whole a window whose spans hold
    spectrum.WINDOW_SHARE of the spectrum or more).  A section whose window
    does not serve its boxes (Window.serves) is solved again alone, its
    window doubled until it does.
    """
    boxes = boxes or [()] * len(lengths)
    top = lengths.index(max(lengths))
    H = spectrum.assemble(V, lengths[top])
    windows = [resonance.sweep_window(bs, edge, L, ns, eps) if ns else None
               for L, ns in zip(lengths, boxes)]
    order = [top] + [k for k in range(len(lengths)) if k != top]
    sd = spectrum.eigensystem(H, windows[top], blocks=[
        (lengths[k], windows[k]) for k in order[1:]])
    solved = dict(zip(order, [sd, *sd.blocks]))
    out = []
    for k, (L, ns, window) in enumerate(zip(lengths, boxes, windows)):
        sd = spectrum.band_enumerate(solved[k], bs)
        while sd.window is not None and not sd.window.serves(sd, edge, ns,
                                                             eps):
            c, r = 0.5 * (window[0] + window[1]), window[1] - window[0]
            window = (c - r, c + r)
            sd = spectrum.band_enumerate(
                spectrum.eigensystem(spectrum.assemble(V, L), window), bs)
        out.append(sd)
    return out


def _check_section_length(L: int):
    if L < 10:
        raise UsageError(f"resonance commands need L >= 10, got {L}")


def _edge_setup(args):
    """Potential, bands and edge of a single-L edge command.

    The edge is classified for the residue j = L mod p before any section
    is built, so input checks on it cost no eigensolve.
    """
    _check_section_length(args.L)
    V = _load_potential(args)
    bs = floquet.band_structure(V)
    return V, bs, floquet.classify_edge(V, bs, _match_edge(bs, args.edge),
                                        args.L % V.period)


# ---------------------------------------------------------------------------
# Commands


def _cmd_bands(args):
    bs = floquet.band_structure(_load_potential(args))
    rows = [{"lo": lo, "hi": hi, "closed_gaps": c}
            for (lo, hi), c in zip(bs.bands, bs.closed_gap_counts)]
    return rows, True


def _cmd_edges(args):
    V = _load_potential(args)
    bs = floquet.band_structure(V)
    rows = []
    for ep in bs.edge_points:
        ed = floquet.classify_edge(V, bs, ep, args.j)
        rows.append({
            "energy": ed.e0, "band": ed.band_index, "side": ed.side,
            "j": ed.j, "a0_p_minus_1": ed.a0_p_minus_1, "a0_p": ed.a0_p,
            "rho": ed.rho, "a_j1": ed.a_j1, "b_j1": ed.b_j1,
            "d_j1": ed.d_j1, "classification": ed.classification.value,
        })
    return rows, True


def _cmd_spectrum(args):
    V = _load_potential(args)
    [sd] = _sections(V, floquet.band_structure(V), [args.L])
    rows = [{
        "k": k,
        "lambda": float(sd.lambdas[k]),
        "weight_end": float(sd.weights_end[k]),
        "weight_start": float(sd.weights_start[k]),
        "band": int(sd.band_of[k]),
        "local_index": int(sd.local_index[k]),
    } for k in range(len(sd.lambdas))]
    return rows, True


def _cmd_resonances(args):
    V, bs, edge = _edge_setup(args)
    resonance.check_step_inputs(edge, args.eps, L=args.L, C1=args.c1)
    [sd] = _sections(V, bs, [args.L], edge,
                     [resonance.sweep_indices(args.L, args.eps, args.c1)],
                     args.eps)
    results = resonance.sweep_band_edge(sd, edge, eps=args.eps, C1=args.c1)
    rows = [{
        "n": r.n, "lambda_n": r.lambda_n, "a_n": r.a_n,
        "alpha_re": r.alpha_n.real, "alpha_im": r.alpha_n.imag,
        "seed_re": r.seed.real, "seed_im": r.seed.imag,
        "z_re": r.z.real, "z_im": r.z.imag,
        "residual": r.residual, "winding_verified": r.winding_verified,
    } for r in results]
    return rows, all(r.winding_verified for r in results)


def _cmd_free_region(args):
    V, bs, edge = _edge_setup(args)
    box = resonance.check_region_inputs(edge, args.eps, bs)
    [sd] = _sections(V, bs, [args.L])
    free = resonance.free_region_check(sd, edge, args.eps, bs)
    rows = [{"free": free, "x_lo": box.x_lo, "x_hi": box.x_hi,
             "depth": box.depth}]
    return rows, free


def _cmd_verify(args):
    results = verify.run_all(seed=args.seed)
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    return rows, all(r.passed for r in results)


def _scaling_row(check) -> dict:
    return {"name": check.name, "slope": check.fit.slope,
            "intercept": check.fit.intercept,
            "r_squared": check.fit.r_squared, "n_points": check.fit.n_points,
            "expected_slope": check.expected_slope,
            "tolerance": check.tolerance, "passed": check.passed,
            "note": check.note}


def _cmd_scaling(args):
    V, bs, edge = _edge_setup(args)
    # resonances are swept wherever the step check admits the edge; a
    # non-generic edge inside (-2, 2) still gets the eigenvalue fits, whose
    # eps rule spectrum.check_profile_inputs owns
    try:
        resonance.check_step_inputs(edge, args.eps, L=args.L, C1=args.c1)
        sweep = True
    except NonGenericEdge:
        spectrum.check_profile_inputs(args.eps)
        sweep = False
    [sd] = _sections(V, bs, [args.L])
    results = (resonance.sweep_band_edge(sd, edge, eps=args.eps, C1=args.c1)
               if sweep else None)
    checks = analysis.scaling_report(sd, results, edge, bs, eps=args.eps)
    return [_scaling_row(c) for c in checks], all(c.passed for c in checks)


def _l_scaling_row(track: str, check) -> dict:
    return {"track": track, "slope": check.fit.slope,
            "intercept": check.fit.intercept,
            "r_squared": check.fit.r_squared, "n_points": check.fit.n_points,
            "expected_slope": check.expected_slope, "passed": check.passed}


def _cmd_l_scaling(args):
    try:
        lengths = [int(tok) for tok in args.L_list.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad --L-list: {exc}") from None
    V = _load_potential(args)
    j = analysis.check_l_lengths([(L, L % V.period) for L in lengths])
    _check_section_length(min(lengths))
    if args.proportional is not None and not 0.0 <= args.proportional < 1.0:
        raise UsageError(f"--proportional must be in [0, 1), got "
                         f"{args.proportional}")
    bs = floquet.band_structure(V)
    edge = floquet.classify_edge(V, bs, _match_edge(bs, args.edge), j)
    resonance.check_step_inputs(edge, args.eps, n=args.n)
    tracks = [[args.n] + ([] if args.proportional is None
                          else [int(args.proportional * L)])
              for L in lengths]
    fixed, prop = [], []
    # every length is solved before any resonance is located
    for L, ns, sd in zip(lengths, tracks,
                         _sections(V, bs, lengths, edge, tracks, args.eps)):
        for track, n in zip((fixed, prop), ns):
            track.append((L, sd.j, resonance.locate_resonance(
                sd, edge, n, eps=args.eps)))
    rows = [_l_scaling_row(f"fixed-n={args.n}",
                           analysis.l_scaling(fixed, "fixed"))]
    if prop:
        rows.append(_l_scaling_row(f"proportional-n={args.proportional}",
                                   analysis.l_scaling(prop, "proportional")))
    return rows, all(r["passed"] for r in rows)


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


def _add_seed(p, text):
    p.add_argument("--seed", type=int, default=0, help=text)


# the spectral commands are deterministic; --seed stays accepted so that
# existing command lines keep working
_IGNORED_SEED = "accepted and ignored"


def _add_spectral(p):
    p.add_argument("--L", type=int, required=True, help="section length")
    _add_seed(p, _IGNORED_SEED)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_edge(p):
    p.add_argument("--edge", type=_finite_float, required=True,
                   help="band-edge energy (matched within 1e-6)")
    p.add_argument("--eps", type=_finite_float, default=0.2)


def _add_sweep(p):
    _add_edge(p)
    p.add_argument("--c1", type=_finite_float, default=10.0)


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
    _add_sweep(p)
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("free-region", help="certify a resonance-free rectangle")
    _add_common(p)
    _add_spectral(p)
    _add_edge(p)
    p.set_defaults(func=_cmd_free_region)

    p = sub.add_parser("verify", help="run the property suites")
    _add_common(p, potential=False)
    _add_seed(p, "seed for the randomized checks (default 0)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scaling", help="near-edge scaling-law report")
    _add_common(p)
    _add_spectral(p)
    _add_sweep(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("l-scaling", help="resonance width scaling in L")
    _add_common(p)
    p.add_argument("--L-list", required=True,
                   help="comma-separated, 3+ distinct lengths >= 10, one "
                        "residue L mod p")
    _add_seed(p, _IGNORED_SEED)
    _add_edge(p)
    p.add_argument("--n", type=int, default=3, help="fixed local index")
    p.add_argument("--proportional", type=_finite_float,
                   help="also fit the track n = floor(FRAC * L), "
                        "FRAC in [0, 1)")
    p.set_defaults(func=_cmd_l_scaling)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, ok = args.func(args)
        _print_table(rows, args.format, args.output)
    except (UsageError, ValueError, OSError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
