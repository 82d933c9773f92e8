import dataclasses
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import edgewatch as ew
from edgewatch import floquet, spectrum
from edgewatch.errors import AmbiguousAssignment, ConvergenceFailure, TooFewPoints


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


def _sturm_counts(diag, x):
    """Number of eigenvalues below each shift in x (LDL^T pivot signs)."""
    q = diag[0] - x
    count = (q < 0).astype(int)
    for d in diag[1:]:
        q = np.where(q == 0.0, 1e-300, q)
        q = d - x - 1.0 / q
        count += q < 0
    return count


def _bisection_sections():
    yield [0.0, 3.0], 400
    yield [0.0, 3.0], 2000
    yield [1.0, -2.0, 0.5], 400
    yield [1.0, -2.0, 0.5], 2000
    rng = np.random.default_rng(20)
    for _ in range(3):
        yield rng.uniform(-2, 2, int(rng.integers(1, 6))), 400


def test_eigenvalues_match_bisection():
    # Sturm bisection (LAPACK stebz) with the same polish is the reference
    for values, L in _bisection_sections():
        H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
        abs_tol = spectrum.EIGENVALUE_TOL * max(1.0, H.spectral_radius_bound())
        ref = eigh_tridiagonal(H.diag, np.ones(L), eigvals_only=True,
                               lapack_driver="stebz", tol=abs_tol)
        ref = np.sort(spectrum._newton_polish(H.diag, ref, abs_tol))
        lam = ew.eigensystem(H).lambdas
        assert len(lam) == L + 1
        eps = np.finfo(float).eps
        assert np.max(np.abs(lam - ref)) <= 4 * eps * max(1.0, np.max(np.abs(lam)))
        # exactly k+1 eigenvalues lie below the midpoint after lambda_k
        counts = _sturm_counts(H.diag, 0.5 * (lam[:-1] + lam[1:]))
        np.testing.assert_array_equal(counts, np.arange(1, L + 1))


def test_eigensystem_deterministic_given_seed():
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    a = ew.eigensystem(ew.assemble(V, 60))
    b = ew.eigensystem(ew.assemble(V, 60))
    np.testing.assert_array_equal(a.weights_end, b.weights_end)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)


def _oracle_weights(diag, lam, dps):
    """(weight_end, weight_start) at dps digits: Newton on the characteristic
    polynomial from lam, then the eigenvector by the forward recurrence."""
    with mpmath.workdps(dps):
        v = [mpmath.mpf(float(t)) for t in diag]
        x = mpmath.mpf(float(lam))
        for _ in range(50):
            p0, p1, d0, d1 = mpmath.mpf(1), v[0] - x, mpmath.mpf(0), mpmath.mpf(-1)
            for vi in v[1:]:
                p0, p1, d0, d1 = p1, (vi - x) * p1 - p0, d1, (vi - x) * d1 - p1 - d0
            step = p1 / d1
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (10 - dps):
                break
        phi = [mpmath.mpf(1), x - v[0]]
        for i in range(1, len(v) - 1):
            phi.append((x - v[i]) * phi[i] - phi[i - 1])
        norm = mpmath.fsum(f * f for f in phi)
        return phi[-1] ** 2 / norm, phi[0] ** 2 / norm


def _assert_weights_match(sd, diag, indices, dps):
    for k in indices:
        for ref, got in zip(_oracle_weights(diag, sd.lambdas[k], dps),
                            (sd.weights_end[k], sd.weights_start[k])):
            if ref >= mpmath.mpf("1e-250"):
                assert abs(got - float(ref)) <= 1e-11 * float(ref), (k, ref, got)
            else:
                assert abs(got) <= 1e-300, (k, ref, got)


def test_weights_match_mpmath_oracle():
    # the gap states, localised at one end, have weights down to 1e-105 at
    # the other; the near-edge weights feed every resonance seed
    for values, L, dps in (([0.0, 3.0], 400, 200), ([1.0, -2.0, 0.5], 301, 200)):
        V = ew.PeriodicPotential.from_values(values)
        bs = ew.band_structure(V)
        H = ew.assemble(V, L)
        sd = ew.band_enumerate(ew.eigensystem(H), bs)
        picked = set(np.flatnonzero(sd.band_of < 0).tolist())
        for ep in bs.edge_points:
            picked.update(np.argsort(np.abs(sd.lambdas - ep.energy))[:4].tolist())
        _assert_weights_match(sd, H.diag, sorted(picked), dps)


def test_weights_at_exact_floating_point_eigenvalues():
    # at these gap states the pivot recurrences meet their eigenvalue exactly
    # (a zero pivot every period), so |gamma| vanishes at most sites and the
    # smallest |gamma| alone would twist where the norms overflow
    for values, L, k in (([0.0, 1.0, 3.0], 300, 100), ([1.0, 3.0, 0.0], 301, 100)):
        H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
        sd = ew.eigensystem(H)
        _assert_weights_match(sd, H.diag, [k], 200)


def test_weight_certificate_refuses_a_shifted_spectrum():
    # a twisted vector's residual is at least the distance to the spectrum
    H = ew.assemble(ew.PeriodicPotential.from_values([0.0, 3.0]), 200)
    lam = ew.eigensystem(H).lambdas
    with pytest.raises(ConvergenceFailure):
        spectrum._boundary_weights(H.diag, lam + 1e-6)


def test_eigensystem_memory_stays_small():
    # the weights kernel keeps a few roots of L checkpointed pivots per
    # eigenvalue; one slice of sqrt(L) checkpoints at L = 4000 needs ~4.6 MB
    H = ew.assemble(ew.PeriodicPotential.from_values([0.0, 3.0]), 4000)
    tracemalloc.start()
    try:
        ew.eigensystem(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_eigensystem_warns_beyond_length_cap(V03):
    # the warning is raised on entry, before the solve starts
    H = ew.assemble(V03, spectrum.L_SOFT_CAP + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="working-precision cap"):
            ew.eigensystem(H)


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


def test_band_enumerate_ambiguous(bs03, sd400):
    # a second band starting half of BAND_TOL above the edge eigenvalue at 0
    close = dataclasses.replace(
        bs03, bands=((-1.0, 0.0), (0.5 * spectrum.BAND_TOL, 4.0)))
    assert sd400.lambdas[sd400.band_members(0)[-1]] == 0.0
    with pytest.raises(AmbiguousAssignment,
                       match=r"^eigenvalue 0\.0 matches bands \[0, 1\] "
                             r"within 1e-09$"):
        ew.band_enumerate(sd400, close)


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


def test_weight_profile_right_edge(V03, bs03, sd400, sd800):
    # j = 0 makes E0 = 0 an edge eigenvalue: the closest row sits exactly on
    # the edge, the rest strictly below it
    edge = ew.classify_edge(V03, bs03, 0.0, 0)
    for sd in (sd400, sd800):
        prof = ew.weight_profile(sd, edge, 0.2, bs=bs03)
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
