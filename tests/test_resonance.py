import cmath

import mpmath
import numpy as np
import pytest

import edgewatch as ew
from edgewatch import resonance as rz
from edgewatch.errors import (
    AdaptiveDepthExceeded,
    EdgeTooCloseToEigenvalue,
    EigenvalueInInterval,
    EmptyRegion,
    NoConvergence,
    NonGenericEdge,
    OnBranchCut,
    PoleHit,
)
from edgewatch.spectrum import SpectralData
from edgewatch.verify import random_rational_cases


def single_pole_data():
    return SpectralData(L=0, j=0,
                        lambdas=np.array([0.0]),
                        weights_end=np.array([1.0]),
                        weights_start=np.array([1.0]))


# ---------------------------------------------------------------------------
# theta


def test_theta_values():
    assert rz.theta(0.0) == pytest.approx(-np.pi / 2, abs=1e-14)
    E = 2 * np.cos(-0.3)
    assert rz.theta(E) == pytest.approx(-0.3, abs=1e-13)
    th = rz.theta(1 - 0.1j)
    assert abs(2 * cmath.cos(th) - (1 - 0.1j)) <= 1e-13
    assert -np.pi < th.real < 0


def test_theta_branch_random():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        E = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        if E.imag == 0.0 and abs(E.real) >= 2.0:
            continue
        th = rz.theta(E)
        assert abs(2 * cmath.cos(th) - E) <= 1e-13 * (1 + abs(E))
        assert -np.pi < th.real < 0
        if E.imag > 0:
            assert th.imag > 0
        if E.imag < 0:
            assert th.imag < 0


def test_theta_branch_cut_rejection():
    for E in (2.0, -2.0, 2.5, -3.0):
        with pytest.raises(OnBranchCut):
            rz.theta(E)
    rz.theta(2.0 + 1e-12j)  # just off the cut is fine


def test_theta_prime_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        E = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.0, -0.01))
        fd = (rz.theta(E + h) - rz.theta(E - h)) / (2 * h)
        assert abs(rz.theta_prime(E) - fd) <= 1e-5 * abs(fd)


# ---------------------------------------------------------------------------
# S_L and f


def test_s_l_single_pole():
    sd = single_pole_data()
    assert rz.s_l(sd, -1j) == pytest.approx(-1j, abs=1e-15)
    with pytest.raises(PoleHit):
        rz.s_l(sd, 0.0 + 0.0j)


def test_s_l_warns_beyond_length_cap():
    n = 4002
    sd = SpectralData(L=n - 1, j=0,
                      lambdas=np.linspace(-1.9, 1.9, n),
                      weights_end=np.full(n, 1.0 / n),
                      weights_start=np.full(n, 1.0 / n))
    with pytest.warns(UserWarning, match="working-precision cap"):
        rz.s_l(sd, 0.05 - 0.5j)


def test_s_l_sign_identity(sd400):
    rng = np.random.default_rng(12)
    for _ in range(200):
        E = complex(rng.uniform(-2, 5), rng.uniform(0.001, 1.0) * rng.choice([-1, 1]))
        s = rz.s_l(sd400, E)
        direct = E.imag * float(np.sum(sd400.weights_end
                                       / np.abs(sd400.lambdas - E) ** 2))
        assert abs(s.imag - direct) <= 1e-12 * max(abs(s.imag), abs(direct))
        assert s.imag * E.imag > 0


def test_s_l_matches_dd_oracle(V03, bs03, sd400, sweep400):
    sd = ew.eigensystem(ew.assemble(V03, 200))
    for E in (-0.5 - 0.01j, -0.9 - 1e-5j, 3.5 - 0.2j, 0.2 + 0.3j):
        a = rz.s_l(sd, E)
        b = rz.s_l_dd(sd, E)
        assert abs(a - b) <= 1e-12 * abs(b)
    # the swept resonances sit next to a pole, where the sweep spends its
    # time: the sum must stay within roundoff of sum |terms| there
    for r in sweep400:
        magnitude = float(np.sum(np.abs(sd400.weights_end
                                        / (sd400.lambdas - r.z))))
        a = rz.s_l(sd400, r.z)
        b = rz.s_l_dd(sd400, r.z)
        assert abs(a - b) <= 1e-15 * magnitude


def test_s_l_matches_mpmath(V03):
    # fully independent high-precision reference
    sd = ew.eigensystem(ew.assemble(V03, 200))
    E = mpmath.mpc("-0.5", "-0.01")
    with mpmath.workdps(40):
        ref = mpmath.fsum((mpmath.mpf(a) / (mpmath.mpf(l) - E)
                           for a, l in zip(sd.weights_end, sd.lambdas)),
                          absolute=False)
        ref = complex(ref)
    got = rz.s_l(sd, -0.5 - 0.01j)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_f_prime_finite_differences(sd400):
    rng = np.random.default_rng(13)
    h = 1e-6
    checked = 0
    while checked < 20:
        E = complex(rng.uniform(-1.9, 1.9), rng.uniform(-0.8, -0.05))
        f, fp = rz.f_and_fprime(sd400, E)
        fp_fd = (rz.f_and_fprime(sd400, E + h)[0]
                 - rz.f_and_fprime(sd400, E - h)[0]) / (2 * h)
        assert abs(fp - fp_fd) <= 1e-5 * max(abs(fp), 1e-30)
        checked += 1


def test_f_on_real_axis(sd400):
    # S_L is real on the real axis, so Im f equals the phase term exactly
    for E in (-1.5, -0.47, 1.2):
        f, _ = rz.f_and_fprime(sd400, E)
        assert f.imag == pytest.approx(-np.sin(rz.theta(E).real), abs=1e-14)
        assert abs(f.imag) > 0.1


def test_f_branch_asymmetry(sd400):
    # no Schwarz reflection across the cut plane for this branch
    E = -0.5 - 0.01j
    f1, _ = rz.f_and_fprime(sd400, E.conjugate())
    f2, _ = rz.f_and_fprime(sd400, E)
    assert abs(f1 - f2.conjugate()) > 1e-3


# ---------------------------------------------------------------------------
# seeds and refinement


def test_alpha_and_seed_signs(sd400):
    for n in range(9):
        alpha, seed = rz.alpha_and_seed(sd400, 0, n)
        assert seed.imag < 0
        members = sd400.band_members(0)
        lam_n = sd400.lambdas[members[n]]
        a_n = sd400.weights_end[members[n]]
        bound = a_n / abs(np.sin(rz.theta(lam_n).real))
        assert abs(seed - lam_n) <= bound * (1 + 1e-12)
        assert 0.1 <= abs(alpha) <= 4.0 / 0.2 ** 2


def test_newton_refine_from_exact_zero(sd400):
    _, seed = rz.alpha_and_seed(sd400, 0, 0)
    z, res, _ = rz.newton_refine(sd400, seed)
    assert res <= 1e-11
    z2, res2, iters2 = rz.newton_refine(sd400, z)
    assert z2 == z
    assert iters2 == 0
    assert res2 == pytest.approx(res, rel=1e-6)


def test_newton_refine_contract(sd400):
    _, seed = rz.alpha_and_seed(sd400, 0, 2)
    z, res, _ = rz.newton_refine(sd400, seed, tol=1e-10)
    f, _ = rz.f_and_fprime(sd400, z)
    assert abs(f) == res <= 1e-10
    with pytest.raises(ValueError):
        rz.newton_refine(sd400, complex(-0.5, 0.1))
    with pytest.raises(NoConvergence):
        rz.newton_refine(sd400, seed, max_iter=0)


# ---------------------------------------------------------------------------
# winding machinery


def test_winding_simple_oracles():
    assert rz.winding_number(lambda z: z, (-1, 1, -1, 1)) == 1
    assert rz.winding_number(lambda z: 1.0 / (0.5 - z), (-1, 1, -1, 1)) == -1
    f = lambda z: (z - (0.2 - 0.3j)) ** 2 / (z + 0.4j)
    assert rz.winding_number(f, (-1, 1, -1, 0)) == 1


def test_winding_zero_on_boundary_fails():
    with pytest.raises(AdaptiveDepthExceeded):
        rz.winding_number(lambda z: z, (0.0, 1.0, -0.5, 0.5))


def test_winding_random_rational_exact():
    for func, rect, expected in random_rational_cases(seed=9, count=50):
        assert rz.winding_number(func, rect) == expected


def test_winding_count_guards(sd400):
    lam0 = float(sd400.lambdas[0])
    with pytest.raises(EdgeTooCloseToEigenvalue):
        rz.winding_count(sd400, (lam0, lam0 + 0.1, -0.1, 0.1))
    with pytest.raises(OnBranchCut):
        rz.winding_count(sd400, (1.5, 2.5, -0.1, 0.1))
    # strictly above the axis there are no zeros and no poles
    assert rz.winding_count(sd400, (-1.001, -0.9, 0.01, 0.02)) == 0


def test_count_in_box_eigenvalue_free_interval(sd400):
    # a shallow box below an eigenvalue-free stretch of the axis holds nothing
    box = rz.ResonanceBox(x_lo=1.0, x_hi=2.0 - 1e-3, depth=1e-6, n=0)
    assert rz.count_in_box(sd400, box) == 0


def test_count_in_box_single_resonance(sd400, edge_m1_j0):
    from edgewatch.resonance import _box_for
    for n in (0, 1, 2):
        box = _box_for(sd400, edge_m1_j0, n, depth=0.2 ** 5)
        assert rz.count_in_box(sd400, box) == 1


# ---------------------------------------------------------------------------
# sweeping and certificates


def test_sweep_band_edge(sweep400):
    assert len(sweep400) == 9
    assert all(r.winding_verified for r in sweep400)
    for r in sweep400:
        assert r.z.imag < 0
        assert r.box.x_lo <= r.z.real <= r.box.x_hi
        assert r.box.contains(r.z)
        assert r.residual <= 1e-10
        # |Im z| grows with n near the edge
    ims = [abs(r.z.imag) for r in sweep400]
    assert np.all(np.diff(ims) > 0)
    # the continuation has at most L poles, so any disjoint family is bounded
    assert len(sweep400) <= 400


def test_sweep_im_formula_bound(sweep400):
    # |Im z - a sin(theta)/|alpha|^2| <= C (n+1)^4 / (L^5 |alpha|^3).
    # C frozen from a one-time calibration (observed 437 at L=400).
    C = 2000.0
    L = 400
    for r in sweep400:
        pred = r.a_n * np.sin(rz.theta(r.lambda_n).real) / abs(r.alpha_n) ** 2
        bound = C * (r.n + 1) ** 4 / (L ** 5 * abs(r.alpha_n) ** 3)
        assert abs(r.z.imag - pred) <= bound


def test_sweep_seed_distance_bound(sweep400):
    # Newton refinement moves the seed by at most C (n+1)^4/(L^5 |alpha|^3)
    C = 2000.0
    L = 400
    for r in sweep400:
        bound = C * (r.n + 1) ** 4 / (L ** 5 * abs(r.alpha_n) ** 3)
        assert abs(r.z - r.seed) <= bound
        # membership in the shallow cell of depth C0 (n+1)/L^2
        assert abs(r.z.imag) <= 50.0 * (r.n + 1) / L ** 2


def test_sweep_rejects_non_generic(V03, bs03, sd400):
    edge0 = ew.classify_edge(V03, bs03, 0.0, 0)
    with pytest.raises(NonGenericEdge):
        ew.sweep_band_edge(sd400, edge0)
    with pytest.raises(NonGenericEdge):
        rz.locate_resonance(sd400, edge0, 1)


def test_sweep_parameter_validation(sd400, edge_m1_j0):
    with pytest.raises(ValueError):
        ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.5)
    with pytest.raises(ValueError):
        ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.05, C1=10.0)


def test_resonance_index_out_of_range(sd400, edge_m1_j0):
    # a negative index used to wrap around to the far end of the band
    for n in (-1, -5):
        with pytest.raises(ValueError, match="n must be >= 0"):
            rz.locate_resonance(sd400, edge_m1_j0, n, strict=False)
    top = len(sd400.band_members(edge_m1_j0.band_index))
    with pytest.raises(ValueError, match="inside the band"):
        rz.locate_resonance(sd400, edge_m1_j0, top)
    with pytest.raises(ValueError, match="n must be >= 0"):
        rz.no_root_certificate(sd400, edge_m1_j0, -1, 0.2, C0=10.0)


def test_sweep_right_edge_generic_b(V03, bs03):
    # odd L makes the right edge at 0 a GenericB edge; sweeping mirrors the
    # enumeration through the edge
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 401)), bs03)
    edge = ew.classify_edge(V03, bs03, 0.0, sd.j)
    assert edge.classification.value == "GenericB"
    assert edge.side == "right"
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C0=50.0, C1=10.0)
    assert len(res) == 9
    assert all(r.winding_verified for r in res)
    assert all(r.z.imag < 0 for r in res)
    # eigenvalues approach the edge from below, widths still grow with n
    ims = [abs(r.z.imag) for r in res]
    assert np.all(np.diff(ims) > 0)


def test_sweep_period_three_potential():
    V = ew.PeriodicPotential.from_values([0.0, 1.0, 3.0])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 300)), bs)
    edge = ew.classify_edge(V, bs, bs.bands[1][0], sd.j)
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C0=50.0, C1=10.0)
    assert len(res) == 7
    assert all(r.winding_verified for r in res)
    r = ew.quantization_residuals(sd, bs, V)
    assert np.max(np.abs(r)) <= 1e-5


def test_sweep_period_one_potential():
    # shifted constant potential: one band [-1.5, 2.5] whose lower edge lies
    # inside (-2, 2), so the whole pipeline runs at period 1
    V = ew.PeriodicPotential.from_values([0.5])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 300)), bs)
    edge = ew.classify_edge(V, bs, -1.5, 0)
    assert edge.classification.value == "GenericA"
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C0=50.0, C1=10.0)
    assert len(res) == 7
    assert all(r.winding_verified for r in res)
    assert rz.free_region_check(sd, edge, 0.2, bs) is True
    assert np.max(np.abs(ew.quantization_residuals(sd, bs, V))) <= 1e-6


def test_free_region(sd400, edge_m1_j0, bs03):
    assert rz.free_region_check(sd400, edge_m1_j0, 0.2, bs03) is True


def test_free_region_rejects_right_edge(V03, bs03, sd400):
    edge0 = ew.classify_edge(V03, bs03, 0.0, 0)
    with pytest.raises(ValueError):
        rz.free_region_check(sd400, edge0, 0.1, bs03)


def test_free_region_eigenvalue_in_interval():
    # gap states of this potential sit below the second band's left edge
    V = ew.PeriodicPotential.from_values([0.0, 1.0, 3.0])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 101)), bs)
    edge = ew.classify_edge(V, bs, bs.bands[1][0], sd.j)
    lam_out = float(sd.lambdas[sd.band_of < 0][0])
    eps_bad = edge.e0 - lam_out + 0.005
    with pytest.raises(EigenvalueInInterval):
        rz.free_region_check(sd, edge, eps_bad, bs)
    assert rz.free_region_check(sd, edge, 0.2, bs) is True


def test_im_s_grid_certificate(sd400, edge_m1_j0):
    eps = 0.2
    for n in (1, 2, 4):
        im_s, im_phase = rz.no_root_certificate(sd400, edge_m1_j0, n, eps,
                                                C0=10.0)
        assert im_s <= 10.0 * eps
        assert im_s < im_phase
        # the lattice runs from the box floor up to the shallow cell
        box = rz._box_for(sd400, edge_m1_j0, n, depth=eps ** 5)
        top = 10.0 * (n + 1) / sd400.L ** 2
        pts = [complex(x, y) for x in np.linspace(box.x_lo, box.x_hi, 30)
               for y in np.linspace(-eps ** 5, -top, 30)]
        assert im_s == pytest.approx(max(abs(rz.s_l(sd400, z).imag)
                                         for z in pts), rel=1e-12)


def test_im_s_grid_empty_region(sd400, edge_m1_j0):
    # C0 = 50 at L = 400 pushes the cell floor below the box floor
    with pytest.raises(EmptyRegion):
        rz.no_root_certificate(sd400, edge_m1_j0, 1, 0.2, C0=50.0)
