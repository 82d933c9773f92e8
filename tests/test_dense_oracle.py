"""The edge commands against every resonance of a section from one dense
eigensolve (oracles.dense_resonances)."""

import functools
import math

import numpy as np
import pytest

import edgewatch as ew
from edgewatch import cli, resonance as rz
from edgewatch.errors import NoConvergence, UniquenessFailed

from oracles import (
    assert_counts_match_dense,
    assert_near_dense,
    dense_inside,
    dense_resonances,
)


@functools.lru_cache
def _section(values, L, e0):
    """(bands, spectral data, edge, dense resonances) of one section."""
    V = ew.PeriodicPotential.from_values(values)
    bs = ew.band_structure(V)
    H = ew.assemble(V, L)
    sd = ew.band_enumerate(ew.eigensystem(H), bs)
    return bs, sd, ew.classify_edge(V, bs, e0, sd.j), dense_resonances(H.diag)


def _sweep_boxes(sd, edge, eps, c1):
    return [rz._box_for(sd, edge, n, eps)[1]
            for n in range(int(math.floor(eps * sd.L / c1)) + 1)]


@pytest.mark.parametrize("values, L, e0, eps, c1, certified", [
    # the README sweep: 9 boxes, all certified
    ((0.0, 3.0), 400, -1.0, 0.2, 10.0, 9),
    # the CI sweep at L=48: 15 boxes, 12 of which hold no resonance
    ((-0.68, 1.15, -0.79), 48, -0.7722858372732013, 0.3, 1.0, 1),
    # the two sweeps whose Newton stalls (exit 3): counts only
    ((1.2, 1.42, -1.12), 174, -1.9904570840629134, 0.3, 1.0, None),
    ((1.47, 1.2, 0.26), 350, 0.3343692346777312, 0.3, 1.0, None)])
def test_sweeps_agree_with_dense_resonances(values, L, e0, eps, c1,
                                            certified):
    _, sd, edge, dense = _section(values, L, e0)
    assert_counts_match_dense(sd, _sweep_boxes(sd, edge, eps, c1), dense)
    if certified is None:
        with pytest.raises(NoConvergence):
            ew.sweep_band_edge(sd, edge, eps, c1)
        return
    zs = [r.z for r in ew.sweep_band_edge(sd, edge, eps, c1)
          if r.winding_verified]
    assert len(zs) == certified
    assert_near_dense(zs, dense)


def test_free_region_holds_no_dense_resonance():
    # the README free-region rectangle passes, and no dense resonance of
    # the 599 of (0,3) at L=400 lies inside it
    bs, sd, edge, dense = _section((0.0, 3.0), 400, -1.0)
    assert len(dense) == 599
    assert rz.free_region_check(sd, edge, 0.2, bs) is True
    assert dense_inside(rz.check_region_inputs(edge, 0.2, bs), dense) == 0


@pytest.mark.parametrize("values, e0, seed", [
    ((0.0, 3.0), -1.0, 0), ((0.0, 3.0), -1.0, 1),
    ((1.0, -2.0, 0.5), 0.5, 2), ((1.0, -2.0, 0.5), 0.5, 3)])
def test_l_scaling_agrees_with_dense_resonances(values, e0, seed):
    # a random L-list of one residue, every L <= 300, solved as l-scaling
    # solves it: one eigensystem call for the longest section and its
    # leading blocks (cli._sections).  Each track's box counts what the
    # dense oracle counts in it; where that is one resonance, the z located
    # on the block lies within DENSE_Z_TOL of a dense resonance of its own
    # section, and where it is none (a short section's resonance can lie
    # below the box floor eps^5) locate_resonance refuses the box
    rng = np.random.default_rng(seed)
    V = ew.PeriodicPotential.from_values(values)
    bs = ew.band_structure(V)
    j = int(rng.integers(V.period))
    lengths = rng.choice(np.arange(40 + j, 301, V.period),
                         int(rng.integers(3, 5)), replace=False).tolist()
    edge = ew.classify_edge(V, bs, bs.nearest_edge(e0).energy, j)
    n, frac = int(rng.integers(4)), rng.uniform(0.0, 0.05)
    tracks = [[n, int(frac * L)] for L in lengths]
    located = 0
    for L, ns, sd in zip(lengths, tracks,
                         cli._sections(V, bs, lengths, edge, tracks, 0.2)):
        assert sd.L == L
        dense = dense_resonances(ew.assemble(V, L).diag)
        for k in ns:
            box = rz._box_for(sd, edge, k, 0.2)[1]
            assert_counts_match_dense(sd, [box], dense)
            if dense_inside(box, dense) == 1:
                z = rz.locate_resonance(sd, edge, k, eps=0.2).z
                assert_near_dense([z], dense)
                located += 1
            else:
                with pytest.raises(UniquenessFailed):
                    rz.locate_resonance(sd, edge, k, eps=0.2)
    assert located >= len(lengths)
