import warnings

import mpmath
import numpy as np
import pytest

import edgewatch as ew
from edgewatch import floquet
from edgewatch.errors import NotAnEdge, OutsideSpectrum
from edgewatch.floquet import EdgeClassification
from scipy.integrate import quad

from oracles import DegenerateS, EdgeSingularity, density_of_states, h_j, h_values


def test_product_matrix_identity_and_symbolic():
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    I = ew.product_matrix(V, 1.7, 0)
    np.testing.assert_array_equal(I, np.eye(2))
    # single factor: a_1(E) = E, b_1(E) = -1
    for E in (-1.3, 0.4, 2.5):
        M = ew.product_matrix(V, E, 1)
        assert M[0, 0] == pytest.approx(E, abs=1e-14)
        assert M[0, 1] == -1.0
    # two factors at E = -1: a_2 = (-1)^2 - 3(-1) - 1 = 3, b_2 = 3 - (-1) = 4
    M = ew.product_matrix(V, -1.0, 2)
    assert M[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert M[0, 1] == pytest.approx(4.0, abs=1e-12)


def test_product_matrix_rejects_bad_k():
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    with pytest.raises(ValueError):
        ew.product_matrix(V, 0.0, -1)
    with pytest.raises(ValueError):
        ew.product_matrix(V, 0.0, 3)
    with pytest.raises(ValueError):
        ew.monodromy(V, 0.0, 2)


def test_potential_owns_its_input_rules():
    # an integral float period is the integer, so the periodic extension
    # can index its cell; any other period that is no integer >= 1 (a bool
    # included) is refused
    V = ew.PeriodicPotential(period=2.0, values=(0, 3))
    assert type(V.period) is int and V.period == 2
    assert V.sampled(3) == [0.0, 3.0, 0.0]
    for period in (2.7, float("inf"), None, "2", 0, True):
        with pytest.raises(ValueError, match="period must be an integer"):
            ew.PeriodicPotential(period=period, values=(0, 3))
    with pytest.raises(ValueError, match="at least one value"):
        ew.PeriodicPotential.from_values([])


def test_monodromy_symbolic():
    # T_1 T_0 for V = (0, 3): ((E^2-3E-1, 3-E), (E, -1))
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    for E in (-1.0, 0.5, 2.0):
        expected = [[E * E - 3 * E - 1, 3 - E], [E, -1.0]]
        np.testing.assert_allclose(ew.monodromy(V, E, 0), expected, atol=1e-12)


def _step_product(values, E, start, count):
    """T_{start+count-1}(E)...T_start(E), one numpy step matrix at a time."""
    M = np.eye(2, dtype=complex)
    for l in range(start, start + count):
        v = values[l % len(values)]
        M = np.array([[E - v, -1.0], [1.0, 0.0]]) @ M
    return M


def test_discriminant_values():
    V0 = ew.PeriodicPotential.from_values([0.0])
    bs0 = ew.band_structure(V0)
    for E in (-2.0, 0.0, 1.5):
        assert bs0.discriminant_at(E) == pytest.approx(E, abs=1e-14)
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    bs = ew.band_structure(V)
    assert bs.discriminant_at(-1.0) == pytest.approx(2.0, abs=1e-12)
    assert bs.discriminant_at(0.0) == pytest.approx(-2.0, abs=1e-12)
    # vectorised over E, D = E^2 - 3E - 2, the trace of the step product
    E = np.array([-2.5, -1.0, 0.3, 1.7, 4.0])
    np.testing.assert_allclose(bs.discriminant_at(E), E * E - 3.0 * E - 2.0)
    np.testing.assert_allclose(
        bs.discriminant_at(E),
        [np.trace(_step_product(V.values, e, 0, 2)).real for e in E])


def test_discriminant_matches_coefficients():
    # direct transfer products are the only engine; an explicit product of
    # step matrices is the independent reference, and D' is the sum over
    # sites l of the trace with T_l replaced by its derivative diag(1, 0)
    rng = np.random.default_rng(4)
    for _ in range(40):
        p = int(rng.integers(1, 9))
        values = rng.uniform(-3, 3, p)
        V = ew.PeriodicPotential.from_values(values)
        E = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        for k in range(p + 1):
            ref = _step_product(values, E, 0, k)
            scale = 1.0 + np.max(np.abs(ref))
            got = ew.product_matrix(V, E, k)
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        bs = ew.band_structure(V)
        disc = bs.discriminant_at(E)
        terms = [_step_product(values, E, l + 1, p - l - 1) @ np.diag([1.0, 0.0])
                 @ _step_product(values, E, 0, l) for l in range(p)]
        ref = sum(np.trace(t) for t in terms)
        scale = 1.0 + sum(np.max(np.abs(t)) for t in terms)
        assert abs(bs.discriminant_derivative_at(E) - ref) <= 1e-12 * scale
        for k in range(p):
            ref = _step_product(values, E, k, p)
            scale = 1.0 + np.max(np.abs(ref))
            got = ew.monodromy(V, E, k)
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale
            assert abs(disc - np.trace(ref)) <= 1e-12 * scale


def test_band_structure_free_and_0_3():
    V0 = ew.PeriodicPotential.from_values([0.0])
    bs0 = ew.band_structure(V0)
    assert bs0.closed_gap_counts == (0,)
    np.testing.assert_allclose(bs0.bands, [(-2.0, 2.0)], atol=1e-10)

    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    bs = ew.band_structure(V)
    # edges are the roots of E^2-3E-4 = (E+1)(E-4) and E^2-3E = E(E-3)
    np.testing.assert_allclose(bs.bands, [(-1.0, 0.0), (3.0, 4.0)], atol=1e-10)
    assert bs.closed_gap_counts == (0, 0)


def test_band_structure_closed_gap():
    # constant potential written with period 2: one band with one closed gap,
    # matching the period-1 representation of the same operator
    V11 = ew.PeriodicPotential.from_values([1.0, 1.0])
    bs = ew.band_structure(V11)
    assert len(bs.bands) == 1
    np.testing.assert_allclose(bs.bands[0], (-1.0, 3.0), atol=1e-8)
    assert bs.closed_gap_counts == (1,)
    assert bs.closed_gap_points[0][0] == pytest.approx(1.0, abs=1e-7)

    V1 = ew.PeriodicPotential.from_values([1.0])
    bs1 = ew.band_structure(V1)
    np.testing.assert_allclose(bs1.bands[0], bs.bands[0], atol=1e-8)


def test_band_structure_fuzz_wider():
    rng = np.random.default_rng(99)
    for _ in range(30):
        p = int(rng.integers(1, 9))
        V = ew.PeriodicPotential.from_values(rng.uniform(-4, 4, p))
        bs = ew.band_structure(V)
        assert sum(1 + c for c in bs.closed_gap_counts) == p
        assert len(bs.bands) <= p


def test_band_structure_all_gaps_closed():
    # a constant potential in period-3 form closes every gap
    V = ew.PeriodicPotential.from_values([2.0, 2.0, 2.0])
    bs = ew.band_structure(V)
    assert len(bs.bands) == 1
    np.testing.assert_allclose(bs.bands[0], (0.0, 4.0), atol=1e-7)
    assert bs.closed_gap_counts == (2,)
    # quasi-momentum passes through the closed gaps without pi/p-size jumps
    # (steps still scale like sqrt of the grid spacing near the touch points)
    grid = np.linspace(0.0, 4.0, 2001)
    th = floquet._theta_band(bs, 0, grid)
    assert np.all(np.diff(th) >= -1e-12)
    assert np.max(np.abs(np.diff(th))) < 0.1 * np.pi / 3


def _cell_eigenvalues(values):
    # periodic and antiperiodic eigenvalues of one cell: diag(v), unit
    # couplings and the corner couplings +1 or -1
    p = len(values)
    eigs = []
    for corner in (1.0, -1.0):
        M = np.diag(np.asarray(values, dtype=float))
        for i in range(p):
            c = 1.0 if i + 1 < p else corner
            M[i, (i + 1) % p] += c
            M[(i + 1) % p, i] += c
        eigs.append(np.linalg.eigvalsh(M))
    return np.sort(np.concatenate(eigs))


def test_band_structure_weak_and_strong_potentials():
    # a gap far narrower than 1e-6 stays open: band k joins the k-th roots
    # of D - 2 and D + 2, whatever the distance between neighbouring roots
    a = 1e-7
    bs = ew.band_structure(ew.PeriodicPotential.from_values([0.0, a]))
    assert bs.closed_gap_counts == (0, 0)
    r = np.sqrt(a * a + 16.0)
    np.testing.assert_allclose(bs.bands, [((a - r) / 2, 0.0), (a, (a + r) / 2)],
                               rtol=1e-15)
    # two gaps of ~8.7e-9, far narrower than 1e-6 and far wider than GAP_TOL
    values = [4.8e-8, 4.6e-8, 6e-8]
    bs = ew.band_structure(ew.PeriodicPotential.from_values(values))
    assert bs.closed_gap_counts == (0, 0, 0)
    assert len(bs.bands) == 3

    # a strong potential: every band edge is a cell eigenvalue
    values = [-140.59595299005775, 452.97697920712926, -714.07010010958,
              -549.1557363767246, -863.3316650248713, -818.9084792403639]
    bs = ew.band_structure(ew.PeriodicPotential.from_values(values))
    assert len(bs.bands) == 6
    eigs = _cell_eigenvalues(values)
    tol = 1e-7 * (1.0 + np.max(np.abs(eigs)))
    for edge in np.ravel(bs.bands):
        assert np.min(np.abs(eigs - edge)) <= tol


def test_band_structure_constant_potentials_never_mispair():
    # a constant potential written with period p is one band with p - 1
    # closed gaps, each a double cell eigenvalue; none is refused
    for p in (3, 4, 5, 6):
        for v in (-1.44, -0.61, 0.13, 1.39, 2.0):
            bs = ew.band_structure(ew.PeriodicPotential.from_values([v] * p))
            np.testing.assert_allclose(bs.bands, [(v - 2.0, v + 2.0)],
                                       atol=1e-9)
            assert bs.closed_gap_counts == (p - 1,)


def _mp_cell_eigenvalues(values, dps):
    # the cell eigenvalues of _cell_eigenvalues, periodic and antiperiodic
    # lists apart, by a symmetric eigensolve in dps-digit arithmetic
    p = len(values)
    out = []
    with mpmath.workdps(dps):
        for corner in (1, -1):
            H = mpmath.matrix(p, p)
            for i, v in enumerate(values):
                H[i, i] = mpmath.mpf(float(v))
            for i in range(p):
                c = 1 if i + 1 < p else corner
                H[i, (i + 1) % p] += c
                H[(i + 1) % p, i] += c
            out.append(sorted(mpmath.eigsy(H, eigvals_only=True)))
    return out


def test_band_structure_long_periods():
    # the discriminant's monomial coefficients reach ~1e9 at p = 37, where
    # roots of D -+ 2 lost every edge; the cell eigenvalues keep them to
    # roundoff at any period.  The oracle solves the same cell matrices in
    # 40-digit arithmetic; a gap is closed when it is narrower than 1e-30.
    for p, seeds in ((24, (0, 1)), (37, (0, 1)), (60, (0, 2))):
        for s in seeds:
            values = np.round(np.random.default_rng(1000 + s).uniform(-2, 2, p), 2)
            bs = ew.band_structure(ew.PeriodicPotential.from_values(values))
            per, anti = _mp_cell_eigenvalues(values, 40)
            lows = [float(min(a, b)) for a, b in zip(per, anti)]
            highs = [float(max(a, b)) for a, b in zip(per, anti)]
            closed = [k for k in range(1, p)
                      if abs(min(per[k], anti[k]) - max(per[k - 1], anti[k - 1]))
                      < 1e-30]
            assert sum(bs.closed_gap_counts) == len(closed)
            want = list(zip(lows, highs))
            for k in reversed(closed):
                want[k - 1:k + 1] = [(want[k - 1][0], want[k][1])]
            tol = 1e-13 * (1.0 + max(abs(lows[0]), abs(highs[-1])))
            assert len(bs.bands) == len(want)
            assert np.max(np.abs(np.array(bs.bands) - np.array(want))) <= tol


def test_band_structure_edge_signs_from_the_band_index():
    # every band here is narrower than ~1e-12 of its energy, so D at a float
    # edge is noise (80 digits give D = -6362.85 at the lowest one); the sign
    # of D at each edge follows from its index.  The oracle is which 50-digit
    # cell eigenproblem owns the edge: periodic (D = +2) or antiperiodic.
    values = [-15, -1452, -14, 2807, -201, 2648]
    V = ew.PeriodicPotential.from_values(values)
    bs = ew.band_structure(V)
    per, anti = _mp_cell_eigenvalues(values, 50)
    assert bs.closed_gap_counts == (0,) * 6
    lower_periodic = [a < b for a, b in zip(per, anti)]
    assert bs.segment_down == tuple((d,) for d in lower_periodic)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-zero classifier values
        for k, (lo, hi) in enumerate(bs.bands):
            assert ew.classify_edge(V, bs, lo, 0).rho == \
                (1.0 if lower_periodic[k] else -1.0)
            if bs.nearest_edge(hi).side == "right":
                assert ew.classify_edge(V, bs, hi, 0).rho == \
                    (-1.0 if lower_periodic[k] else 1.0)


def test_quasi_momentum_free_chain():
    V0 = ew.PeriodicPotential.from_values([0.0])
    bs = ew.band_structure(V0)
    for E in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert ew.quasi_momentum(bs, E) == pytest.approx(np.arccos(-E / 2), abs=1e-7)
    assert ew.quasi_momentum(bs, -2.0) == pytest.approx(0.0, abs=1e-12)
    assert ew.quasi_momentum(bs, 0.0) == pytest.approx(np.pi / 2, abs=1e-12)
    assert ew.quasi_momentum(bs, 2.0) == pytest.approx(np.pi, abs=1e-12)


def test_quasi_momentum_0_3_grid(bs03):
    assert ew.quasi_momentum(bs03, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert ew.quasi_momentum(bs03, 0.0) == pytest.approx(np.pi / 2, abs=1e-12)
    assert ew.quasi_momentum(bs03, 3.0) == pytest.approx(np.pi / 2, abs=1e-12)
    assert ew.quasi_momentum(bs03, 4.0) == pytest.approx(np.pi, abs=1e-12)
    with pytest.raises(OutsideSpectrum):
        ew.quasi_momentum(bs03, 1.5)


def test_density_of_states_free_value_and_ids():
    V0 = ew.PeriodicPotential.from_values([0.0])
    bs = ew.band_structure(V0)
    assert density_of_states(bs, 0.0) == pytest.approx(1 / (2 * np.pi), rel=1e-12)
    total, err = quad(lambda E: density_of_states(bs, E), -2.0, 2.0,
                      points=[-2.0, 2.0], limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(EdgeSingularity):
        density_of_states(bs, 2.0 - 1e-16)


def test_density_of_states_ids_two_bands(bs03):
    total = 0.0
    for lo, hi in bs03.bands:
        val, _ = quad(lambda E: density_of_states(bs03, E), lo, hi,
                      points=[lo, hi], limit=200)
        total += val
    assert total == pytest.approx(1.0, abs=1e-6)


def test_h_j_value_0_3(V03, bs03):
    # at E = -0.5 the phase numerator reduces to -E/2 * rho - 1/8 with
    # rho = exp(2i theta_2(-0.5)); the branch is fixed only modulo pi
    E = -0.5
    th = ew.quasi_momentum(bs03, E)
    rho = np.exp(2j * th)
    expected = np.angle(-0.5 * rho - 0.125)
    got = h_j(V03, bs03, 0, E)
    assert abs(((got - expected) + np.pi / 2) % np.pi - np.pi / 2) <= 1e-10


def test_h_values_continuous_on_band(V03, bs03):
    grid = np.linspace(-1.0 + 1e-6, 0.0 - 1e-6, 200)
    h = h_values(V03, bs03, 0, grid)
    assert np.all(np.abs(np.diff(h)) < 0.5)
    h1 = h_values(V03, bs03, 1, grid)
    assert np.all(np.abs(np.diff(h1)) < 0.5)


def test_h_free_chain_closed_form():
    # for the free chain the phase is pi - 2*theta up to the branch offset:
    # exactly what makes the quantization rule reproduce 2cos(m pi/(L+2));
    # in particular h(-2 + t^2) is analytic in t with a finite edge limit
    V0 = ew.PeriodicPotential.from_values([0.0])
    bs = ew.band_structure(V0)
    t = np.linspace(1e-4, 0.5, 60)
    grid = np.sort(-2.0 + t * t)
    h = h_values(V0, bs, 0, grid)
    th = np.array([ew.quasi_momentum(bs, e) for e in grid])
    delta = (h - (np.pi - 2 * th) + np.pi / 2) % np.pi - np.pi / 2
    np.testing.assert_allclose(delta, 0.0, atol=1e-9)
    assert np.all(np.isfinite(h))


def test_h_j_degenerate_at_interior_zero():
    # constant potential in period-2 form: the phase numerator vanishes at
    # the closed gap in the middle of the band
    V = ew.PeriodicPotential.from_values([1.0, 1.0])
    bs = ew.band_structure(V)
    with pytest.raises(DegenerateS):
        h_j(V, bs, 0, 1.0)


def test_classify_edge_examples(V03, bs03):
    ed = ew.classify_edge(V03, bs03, -1.0, 0)
    assert ed.a0_p_minus_1 == pytest.approx(-1.0, abs=1e-12)
    assert ed.rho == 1.0
    assert ed.a0_p == pytest.approx(3.0, abs=1e-12)
    assert ed.a_j1 == pytest.approx(-1.0, abs=1e-12)
    assert ed.b_j1 == pytest.approx(-1.0, abs=1e-12)
    assert ed.d_j1 == pytest.approx(-1.0, abs=1e-12)
    assert ed.classification is EdgeClassification.GENERIC_A

    ed2 = ew.classify_edge(V03, bs03, -1.0, 1)
    assert ed2.a_j1 == pytest.approx(3.0, abs=1e-12)
    assert ed2.b_j1 == pytest.approx(4.0, abs=1e-12)
    assert ed2.d_j1 == pytest.approx(2.0, abs=1e-12)
    assert ed2.classification is EdgeClassification.GENERIC_A


def test_classify_edge_non_generic_cases(V03, bs03):
    assert ew.classify_edge(V03, bs03, 0.0, 0).classification \
        is EdgeClassification.EDGE_EIGENVALUE
    assert ew.classify_edge(V03, bs03, 0.0, 1).classification \
        is EdgeClassification.GENERIC_B


def test_classify_edge_errors_and_consistency(V03, bs03):
    # a NaN energy fails the tolerance test against its nearest edge
    assert bs03.nearest_edge(-0.6).energy == -1.0
    for e0 in (-0.5, float("nan")):
        with pytest.raises(NotAnEdge):
            ew.classify_edge(V03, bs03, e0, 0)
    with pytest.raises(ValueError):
        ew.classify_edge(V03, bs03, -1.0, 2)
    ed = ew.classify_edge(V03, bs03, -1.0, 0)
    # stored d reproduces bit-for-bit from the stored fields
    assert ed.d_j1 == ed.a_j1 * (ed.a0_p - ed.rho) + ed.b_j1 * ed.a0_p_minus_1


def test_classify_edge_takes_a_recorded_edge_point(V03, bs03):
    # a recorded EdgePoint is classified as itself, with the fields of its
    # energy; both edges of a band narrower than one ulp share one energy,
    # and each keeps its side and rho
    for ep in bs03.edge_points:
        assert ew.classify_edge(V03, bs03, ep, 1) == ew.classify_edge(
            V03, bs03, ep.energy, 1)
    V = ew.PeriodicPotential.from_values([-15, -1452, -14, 2807, -201, 2648])
    bs = ew.band_structure(V)
    left, right = bs.edge_points[:2]
    assert left.energy == right.energy
    assert [(ed.side, ed.rho) for ed in (ew.classify_edge(V, bs, ep, 0)
                                         for ep in (left, right))] == [
        ("left", 1.0), ("right", -1.0)]
    with pytest.raises(NotAnEdge):
        ew.classify_edge(V03, bs03, floquet.EdgePoint(-0.5, 0, "left"), 0)
