"""Fuzz tests of the commands' input surface and of random potentials."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edgewatch.cli import _sections, main  # noqa: E402
from edgewatch.errors import SpectralError  # noqa: E402
from edgewatch.floquet import band_structure, classify_edge  # noqa: E402
from edgewatch.potential import PeriodicPotential  # noqa: E402
from edgewatch.resonance import ResonanceBox, _box_for  # noqa: E402
from edgewatch.spectrum import (  # noqa: E402
    EIGENVALUE_TOL,
    assemble,
    band_enumerate,
    eigensystem,
)

from oracles import (  # noqa: E402
    assert_counts_match_dense,
    assert_near_dense,
    dense_inside,
    dense_resonances,
)


_FUZZ_EDGES = {p: [ep.energy for ep in band_structure(
                   PeriodicPotential.from_values(p.split(","))
               ).edge_points] for p in ("0,3", "1,-2,0.5")}


@st.composite
def _edge_argv(draw):
    command = draw(st.sampled_from(
        ["resonances", "free-region", "scaling", "l-scaling"]))
    potential = draw(st.sampled_from(sorted(_FUZZ_EDGES)))
    edge = draw(st.one_of(st.sampled_from(_FUZZ_EDGES[potential]),
                          st.floats(-3.0, 5.0)))
    # half the draws of eps, L and --L-list are valid, so that runs reach
    # the numerics; --opt=value keeps argparse from reading "-1e-05" as an
    # option
    eps = draw(st.one_of(st.floats(0.05, 0.3), st.floats(-0.5, 3.0)))
    argv = [command, f"--potential={potential}", f"--edge={edge!r}",
            f"--eps={eps!r}"]
    length = st.one_of(st.integers(100, 300), st.integers(1, 300))
    if command != "l-scaling":
        return argv + [f"--L={draw(length)}"]
    lengths = draw(st.one_of(
        st.lists(length, min_size=3, max_size=3),
        st.lists(st.integers(2, 50).map(lambda k: 6 * k), min_size=3,
                 max_size=3, unique=True)))
    argv += [f"--L-list={','.join(map(str, lengths))}",
             f"--n={draw(st.integers(-2, 10))}"]
    proportional = draw(st.one_of(st.none(), st.floats(-0.1, 0.5)))
    if proportional is not None:
        argv.append(f"--proportional={proportional!r}")
    return argv


def _assert_clean_exit(argv):
    # any input ends in an exit code, never a traceback, and a refused run
    # prints nothing to stdout; returns the exit code and stdout
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_edge_argv())
def test_edge_commands_fuzz(argv):
    _assert_clean_exit(argv)


# integer cells make the section's gap states exact floating-point
# eigenvalues, with a zero pivot every period
_CELLS = st.one_of(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
                   st.lists(st.integers(-3, 3).map(float), min_size=1,
                            max_size=5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=_CELLS, spectrum_L=st.integers(1, 60),
       edge_L=st.integers(100, 150), c1=st.sampled_from([2.0, 5.0, 10.0]),
       edge_pick=st.integers(0, 9))
def test_random_potential_fuzz(values, spectrum_L, edge_L, c1, edge_pick):
    potential = "--potential=" + ",".join(map(repr, values))
    argvs = [["bands", potential],
             ["spectrum", potential, f"--L={spectrum_L}"]]
    argvs += [["edges", potential, f"--j={j}"] for j in range(len(values))]
    try:
        edges = band_structure(
            PeriodicPotential.from_values(values)).edge_points
    except SpectralError:
        edges = ()
    # edges inside (-2, 2), where resonances are located, when there are any
    edges = [e for e in edges if abs(e.energy) < 2.0] or edges
    if edges:
        e0 = edges[edge_pick % len(edges)].energy
        edge = f"--edge={e0!r}"
        sweep = ["resonances", potential, edge, f"--L={edge_L}",
                 f"--c1={c1!r}"]
        argvs += [sweep, sweep + ["--format=json"],
                  ["free-region", potential, edge, f"--L={edge_L}"]]
    outcomes = [_assert_clean_exit(argv) for argv in argvs]
    # a finished sweep's JSON table parses, whatever its verdicts
    for argv, (code, out) in zip(argvs, outcomes):
        if "--format=json" in argv and code in (0, 1):
            json.loads(out)
    if edges:
        _assert_agrees_with_dense(values, e0, edge_L, *outcomes[-2:])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=_CELLS, L=st.integers(1, 200))
def test_spectrum_agrees_with_dense_eigh(values, L):
    # every eigenvalue within EIGENVALUE_TOL * scale of np.linalg.eigh's and
    # both end weights within the weight oracle's 1e-11, absolute here:
    # eigh's eigenvector components carry an absolute error of about
    # eps ||H|| / gap, so a relative bound on a gap state's 1e-100 weight
    # would measure eigh, not the solve
    H = assemble(PeriodicPotential.from_values(values), L)
    try:
        sd = eigensystem(H)
    except SpectralError:
        return   # the spectrum command's exit 3, which the fuzz above runs
    lam, vec = np.linalg.eigh(np.diag(H.diag) + np.eye(L + 1, k=1)
                              + np.eye(L + 1, k=-1))
    assert np.max(np.abs(sd.lambdas - lam)) <= EIGENVALUE_TOL * sd.scale
    assert np.max(np.abs(sd.weights_end - vec[-1] ** 2)) <= 1e-11
    assert np.max(np.abs(sd.weights_start - vec[0] ** 2)) <= 1e-11


def _assert_agrees_with_dense(values, e0, L, sweep, region):
    """The dense oracle's properties on the fuzz's edge commands at the
    default eps 0.2: a finished sweep's certified z and box counts, the
    counts on the section the CLI's sweep builds (windowed where it can)
    and on the whole eigensystem, and a free-region rectangle that passes
    holds no dense resonance."""
    (sweep_code, rows), (region_code, table) = sweep, region
    if sweep_code not in (0, 1) and region_code != 0:
        return
    V = PeriodicPotential.from_values(values)
    H = assemble(V, L)
    dense = dense_resonances(H.diag)
    if sweep_code in (0, 1):
        rows = json.loads(rows)
        assert_near_dense([complex(r["z_re"], r["z_im"]) for r in rows
                           if r["winding_verified"]], dense)
        bs = band_structure(V)
        edge = classify_edge(V, bs, e0, L % V.period)
        ns = [r["n"] for r in rows]
        [swept] = _sections(V, bs, [L], edge, [ns], 0.2)
        sections = [swept]
        try:
            sections.append(band_enumerate(eigensystem(H), bs))
        except SpectralError:
            # the whole solve may refuse what a window does not read (a
            # near-degenerate pair or an ambiguous band outside it)
            assert swept.window is not None
        for sd in sections:
            assert_counts_match_dense(sd, [_box_for(sd, edge, n, 0.2)[1]
                                           for n in ns], dense)
    if region_code == 0:
        row = next(csv.DictReader(io.StringIO(table)))
        box = ResonanceBox(float(row["x_lo"]), float(row["x_hi"]),
                           float(row["depth"]))
        assert dense_inside(box, dense) == 0
