import numpy as np
import pytest

import edgewatch as ew
from edgewatch import floquet
from edgewatch.errors import TooFewPoints
from conftest import free_chain_closed_forms


def test_assemble_shapes():
    V0 = ew.PeriodicPotential.from_values([0.0])
    H = ew.assemble(V0, 2)
    np.testing.assert_array_equal(H.diag, [0.0, 0.0, 0.0])

    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    H = ew.assemble(V, 4)
    np.testing.assert_array_equal(H.diag, [0.0, 3.0, 0.0, 3.0, 0.0])
    with pytest.raises(ValueError):
        ew.assemble(V, 0)


def test_eigensystem_free_chain_small():
    V0 = ew.PeriodicPotential.from_values([0.0])
    sd = ew.eigensystem(ew.assemble(V0, 2))
    np.testing.assert_allclose(sd.lambdas, [-np.sqrt(2), 0.0, np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(sd.weights_end, [0.25, 0.5, 0.25], atol=1e-12)
    np.testing.assert_allclose(sd.weights_start, [0.25, 0.5, 0.25], atol=1e-12)


@pytest.mark.parametrize("L", [2, 9, 50])
def test_eigensystem_free_chain_closed_forms(L):
    V0 = ew.PeriodicPotential.from_values([0.0])
    sd = ew.eigensystem(ew.assemble(V0, L))
    lam, w = free_chain_closed_forms(L)
    np.testing.assert_allclose(sd.lambdas, lam, atol=1e-10)
    np.testing.assert_allclose(sd.weights_end, w, atol=1e-10)
    np.testing.assert_allclose(sd.weights_start, w, atol=1e-10)
    assert sd.weights_end.sum() == pytest.approx(1.0, abs=1e-10)


def test_eigensystem_properties_random():
    rng = np.random.default_rng(7)
    V = ew.PeriodicPotential.from_values(rng.uniform(-2, 2, 3))
    sd = ew.eigensystem(ew.assemble(V, 80))
    assert np.all(np.diff(sd.lambdas) > 0)
    assert sd.weights_end.sum() == pytest.approx(1.0, abs=1e-10)
    assert sd.weights_start.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all((sd.weights_end >= 0) & (sd.weights_end <= 1))


def test_eigensystem_deterministic_given_seed():
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    a = ew.eigensystem(ew.assemble(V, 60), seed=0)
    b = ew.eigensystem(ew.assemble(V, 60), seed=0)
    np.testing.assert_array_equal(a.weights_end, b.weights_end)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)


def test_interlacing_random():
    rng = np.random.default_rng(8)
    V = ew.PeriodicPotential.from_values(rng.uniform(-2, 2, 2))
    small = ew.eigensystem(ew.assemble(V, 59)).lambdas
    big = ew.eigensystem(ew.assemble(V, 60)).lambdas
    assert np.all(big[:-1] <= small + 1e-10)
    assert np.all(small <= big[1:] + 1e-10)


def test_band_enumerate_free_chain(free_chain):
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 30)), bs0)
    assert np.all(sd.band_of == 0)
    np.testing.assert_array_equal(sd.local_index, np.arange(31))
    assert sd.n_outside == 0


def test_band_enumerate_partition(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 40)), bs03)
    counts = [int(np.sum(sd.band_of == b)) for b in range(len(bs03.bands))]
    assert sum(counts) == 41 - sd.n_outside


def test_band_enumerate_outside_eigenvalues_stable():
    # this potential develops genuine gap states; at fixed residue they are
    # L-independent limits, so two lengths must agree pairwise
    V = ew.PeriodicPotential.from_values([0.0, 1.0, 3.0])
    bs = ew.band_structure(V)
    outs = []
    for L in (101, 107):  # both L mod 3 == 2
        sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, L)), bs)
        outs.append(sd.lambdas[sd.band_of < 0])
    assert len(outs[0]) == len(outs[1]) > 0
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-6)


def test_quantization_free_chain(free_chain):
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 50)), bs0)
    r = ew.quantization_residuals(sd, bs0, V0)
    assert np.max(np.abs(r)) <= 1e-6


def test_quantization_0_3(V03, bs03, sd400):
    r = ew.quantization_residuals(sd400, bs03, V03, band=0)
    assert len(r) >= 150
    assert np.max(np.abs(r)) <= 1e-5
    # the second band obeys the same rule
    r1 = ew.quantization_residuals(sd400, bs03, V03, band=1)
    assert np.max(np.abs(r1)) <= 1e-5


def test_quantization_odd_residue(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 201)), bs03)
    r = ew.quantization_residuals(sd, bs03, V03)
    assert np.max(np.abs(r)) <= 1e-5


def test_quantization_invariant_under_phase_offset(V03, bs03, sd400):
    # the spacing residual only sees differences of the boundary phase
    members = sd400.band_members(0)
    lam = sd400.lambdas[members]
    lam = lam[(lam > -1 + 1e-9) & (lam < -1e-9)]
    th = floquet._theta_band(bs03, 0, lam)
    h = ew.h_values(V03, bs03, 0, lam)
    L, j = sd400.L, sd400.j
    base = (L - j) * np.diff(th - h / (L - j)) - np.pi
    shifted = (L - j) * np.diff(th - (h + 0.37 * np.pi) / (L - j)) - np.pi
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_weight_profile_row_count(sd400, edge_m1_j0, bs03):
    prof = ew.weight_profile(sd400, edge_m1_j0, 0.2, bs=bs03)
    eps, L = 0.2, 400
    assert 0.5 * eps * L / 10 <= len(prof) <= 2 * eps * L
    assert np.all(np.diff(np.abs(prof.offsets)) > 0)
    np.testing.assert_array_equal(prof.k, np.arange(len(prof)))


def test_weight_profile_too_few_points(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 30)), bs03)
    edge = ew.classify_edge(V03, bs03, -1.0, 0)
    with pytest.raises(TooFewPoints):
        ew.weight_profile(sd, edge, 0.05, bs=bs03)
    with pytest.raises(ValueError):
        ew.weight_profile(sd, edge, 0.7, bs=bs03)


def test_weight_profile_right_edge(V03, bs03, sd400):
    # j = 0 makes E0 = 0 an edge eigenvalue: the closest row sits exactly on
    # the edge, the rest strictly below it
    edge = ew.classify_edge(V03, bs03, 0.0, 0)
    prof = ew.weight_profile(sd400, edge, 0.2, bs=bs03)
    assert prof.offsets[0] == 0.0
    assert np.all(prof.offsets[1:] < 0)
    assert np.all(np.diff(np.abs(prof.offsets)) > 0)


def test_lipschitz_weight_bound_stable(sd400, sd800, edge_m1_j0, bs03):
    def lip(sd, L):
        prof = ew.weight_profile(sd, edge_m1_j0, 0.2, bs=bs03)
        lam = edge_m1_j0.e0 + prof.offsets
        a = prof.weights_end
        ii, jj = np.triu_indices(len(prof), k=1)
        return float(np.max(np.abs(a[ii] - a[jj]) * L / np.abs(lam[ii] - lam[jj])))

    l400 = lip(sd400, 400)
    l800 = lip(sd800, 800)
    assert np.isfinite(l400) and np.isfinite(l800)
    assert l800 <= 2.0 * l400


def test_near_edge_spacing_within_decade(sd400, edge_m1_j0, bs03):
    prof = ew.weight_profile(sd400, edge_m1_j0, 0.2, bs=bs03)
    lam = edge_m1_j0.e0 + prof.offsets
    k1 = prof.k + 1.0
    ii, jj = np.triu_indices(len(prof), k=1)
    ratio = np.abs(lam[ii] - lam[jj]) * 400 ** 2 / np.abs(k1[ii] ** 2 - k1[jj] ** 2)
    assert ratio.max() / ratio.min() <= 10.0
