import cmath
from dataclasses import fields, replace

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

from oracles import quantization_residuals, s_l_dd


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


def test_s_l_matches_dd_oracle(V03, bs03, sd400, sweep400):
    sd = ew.eigensystem(ew.assemble(V03, 200))
    for E in (-0.5 - 0.01j, -0.9 - 1e-5j, 3.5 - 0.2j, 0.2 + 0.3j):
        a = rz.s_l(sd, E)
        b = s_l_dd(sd, E)
        assert abs(a - b) <= 1e-12 * abs(b)
    # the swept resonances sit next to a pole, where the sweep spends its
    # time: the sum must stay within roundoff of sum |terms| there
    for r in sweep400:
        magnitude = float(np.sum(np.abs(sd400.weights_end
                                        / (sd400.lambdas - r.z))))
        a = rz.s_l(sd400, r.z)
        b = s_l_dd(sd400, r.z)
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


def _point_reference(sd, z):
    """f and f' at one point as evaluated before the row-batched kernel,
    kept as the reference: one 1-D row of terms per point."""
    diffs = sd.lambdas - z
    terms = sd.weights_end / diffs
    ph = cmath.exp(-1j * rz.theta(z))
    return (complex(np.sum(terms)) + ph,
            complex(np.sum(terms / diffs)) - 1j * rz.theta_prime(z) * ph)


def test_f_rows_match_one_point_rows(sd400, sweep400):
    # 60 points over three blocks of 20 rows (401 eigenvalues) give the bits
    # of the one-point formula, and None at a pole, wherever they sit in a
    # block; the real points are on the axis inside the cuts
    assert rz._CHUNK // len(sd400.lambdas) == 20
    rng = np.random.default_rng(29)
    zs = [r.z for r in sweep400] + [r.seed for r in sweep400]
    zs += [complex(rng.uniform(-1.9, 1.9), -10.0 ** rng.uniform(-12, 0))
           for _ in range(40)]
    zs += [-0.47 + 0j, 1.2 + 0j]
    pole = float(sd400.lambdas[137])
    zs[25] = complex(pole)
    values = rz._f_rows(sd400, zs)
    assert len(values) == 60 and values[25] is None
    for z, value in zip(zs, values):
        if z != pole:
            assert value == _point_reference(sd400, z)
            assert rz.f_and_fprime(sd400, z) == value
            assert rz.s_l(sd400, z) == complex(
                np.sum(sd400.weights_end / (sd400.lambdas - z)))


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


def _gather_seed(sd, g):
    """The seed formula before the one-pass rewrite, kept as the reference:
    gather every other eigenvalue and weight, then sum."""
    others = np.delete(np.arange(len(sd.lambdas)), g)
    lam_n = float(sd.lambdas[g])
    diffs = sd.lambdas[others] - lam_n
    alpha = complex(np.sum(sd.weights_end[others] / diffs))
    alpha += cmath.exp(-1j * rz.theta(lam_n))
    return alpha, complex(lam_n + sd.weights_end[g] / alpha)


@pytest.fixture(scope="module")
def right401(V03, bs03):
    """Section and sweep of the GenericB right edge at 0, L = 401."""
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 401)), bs03)
    return sd, ew.sweep_band_edge(sd, ew.classify_edge(V03, bs03, 0.0, sd.j))


def test_seed_matches_the_gather_formula(sd400, sweep400, right401):
    # the one division pass and np.delete sum the same array as the gather
    for sd, results in ((sd400, sweep400), right401):
        for r in results:
            g = int(np.flatnonzero(sd.lambdas == r.lambda_n)[0])
            got = rz.alpha_and_seed(sd, r.band, int(sd.local_index[g]))
            assert got == _gather_seed(sd, g) == (r.alpha_n, r.seed)


@pytest.mark.parametrize("g", [0, 20, 40])
def test_seed_guard_reads_both_neighbours(free_chain, g):
    # only lambda_{g-1} and lambda_{g+1} can coincide with sorted lambda_g;
    # the free chain puts all L + 1 = 41 eigenvalues in one band inside the
    # cuts, so local index g is global index g, from the first to the last
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 40)), bs0)
    for k in (g - 1, g + 1):
        if not 0 <= k <= 40:
            continue
        for gap in (0.0, 1e-9):
            lam = sd.lambdas.copy()
            lam[k] = lam[g] + gap * (k - g)
            moved = replace(sd, lambdas=lam)
            if gap:
                _, seed = rz.alpha_and_seed(moved, 0, g)
                assert seed.imag < 0
            else:
                with pytest.raises(PoleHit, match="coincident"):
                    rz.alpha_and_seed(moved, 0, g)


def test_count_guard_meets_a_coincident_neighbour_first(sd400, edge_m1_j0):
    # a neighbour within 1e-14*scale of lambda_g puts a box edge (a
    # midpoint) within 1e-10*scale of an eigenvalue, so a sweep raises the
    # count's EdgeTooCloseToEigenvalue before the seed guard's PoleHit,
    # which alpha_and_seed raises on the same data alone
    members = sd400.edge_members(edge_m1_j0)
    for n in (0, 3):
        g = int(members[n])
        for k in (g - 1, g + 1):
            if not 0 <= k < len(sd400.lambdas):
                continue
            lam = sd400.lambdas.copy()
            lam[k] = lam[g] + 1e-15 * sd400.scale * (k - g)
            moved = replace(sd400, lambdas=lam)
            with pytest.raises(EdgeTooCloseToEigenvalue):
                ew.sweep_band_edge(moved, edge_m1_j0)
            with pytest.raises(PoleHit, match="coincident"):
                rz.alpha_and_seed(moved, edge_m1_j0.band_index,
                                  int(sd400.local_index[g]))


def test_seed_refuses_lambda_on_the_cut(sd400):
    # the lowest eigenvalue of the band [3, 4] lies on the cut E >= 2
    with pytest.raises(OnBranchCut):
        rz.alpha_and_seed(sd400, 1, 0)


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


@pytest.mark.parametrize("kind", ["zero", "pole"])
def test_winding_subdivides_near_each_side(kind):
    # a zero (pole) 1e-6 or 1e-9 from a side slips between the 64 initial
    # samples; only the level-by-level bisection resolves it
    x_lo, x_hi, y_lo, y_hi = rect = (0.3, 0.302, -0.002, 0.0005)
    feet = [complex(x_lo + 0.37e-3, y_lo), complex(x_hi, y_lo + 0.37e-3),
            complex(x_lo + 0.37e-3, y_hi), complex(x_lo, y_lo + 0.37e-3)]
    inward = [1j, -1, -1j, 1]
    for foot, normal in zip(feet, inward):
        for dist in (1e-6, 1e-9):
            for side in (1, -1):
                z0 = foot + side * dist * normal
                requested = []

                def func(z, z0=z0):
                    requested.append(len(z))
                    return z - z0 if kind == "zero" else 1.0 / (z - z0)

                expected = (1 if side > 0 else 0) * (1 if kind == "zero" else -1)
                assert rz.winding_number(func, rect) == expected, (z0, expected)
                assert requested[0] == 64
                assert sum(requested) > 64, z0
    # a zero on a side, between samples, still cannot be tracked
    on_side = feet[0]
    with pytest.raises(AdaptiveDepthExceeded):
        rz.winding_number(lambda z: z - on_side, rect)


def _right_edge_1000():
    """Section and edge of the right edge 0.5 of (1, -2, 0.5), L = 1000."""
    V = ew.PeriodicPotential.from_values([1.0, -2.0, 0.5])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 1000)), bs)
    edge = ew.classify_edge(V, bs, 0.5, 1)
    assert edge.side == "right"
    return sd, edge


@pytest.fixture(scope="module")
def right1000():
    sd, edge = _right_edge_1000()
    return sd, ew.sweep_band_edge(sd, edge)


def _assert_matches_f(sd, evaluator, z, b):
    # the far-field contour value of f against the point kernel, within
    # 1e-13 of sum |w/(lambda - z)| (+1 for the phase term)
    got = evaluator(z, b)
    for zk, fk in zip(z, got):
        ref = rz.f_and_fprime(sd, zk)[0]
        scale = float(np.sum(np.abs(sd.weights_end / (sd.lambdas - zk))))
        assert abs(fk - ref) <= 1e-13 * (scale + 1.0), (zk, fk, ref)


def test_contour_evaluator_matches_f(monkeypatch, sd400, sweep400, right1000,
                                     V03, bs03, edge_m1_j0):
    sd4000 = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 4000)), bs03)
    evaluate = rz._FarField.__call__
    calls = []
    monkeypatch.setattr(rz._FarField, "__call__",
                        lambda ff, z, b: calls.append((ff, z, b))
                        or evaluate(ff, z, b))
    cases = [(sd, r.box, 1) for sd, results in ((sd400, sweep400), right1000)
             for r in results]
    cases += [(sd4000, rz._box_for(sd4000, edge_m1_j0, n, 0.2)[1], 1)
              for n in (0, 80)]
    # the free-region rectangle, whose near set (136 of the 401
    # eigenvalues) is the largest of these contours
    cases.append((sd400, rz.check_region_inputs(edge_m1_j0, 0.2, bs03), 0))
    for sd, box, count in cases:
        calls.clear()
        assert rz.count_in_box(sd, box) == count
        ff, z, b = calls[0]  # the 64 initial samples, which settle every box
        assert len(calls) == 1 and z.shape == (64,)
        _assert_matches_f(sd, ff, z, b)
    assert (ff.hi - ff.lo).tolist() == [136]


def test_contour_evaluator_at_the_near_radius(sd400):
    # a rectangle whose near set is the whole spectrum has no far moments
    rect = (-0.9, -0.1, -0.2, 0.5)
    ff = rz._FarField(sd400, [rect])
    assert (ff.lo[0], ff.hi[0]) == (0, len(sd400.lambdas))
    assert not ff.moments.any()
    z = np.array([-0.9 - 0.2j, -0.1 - 0.2j, -0.1 + 0.5j, -0.9 + 0.5j,
                  -0.5 - 0.2j, -0.1 + 0.1j, -0.5 + 0.5j, -0.9 - 0.1j])
    _assert_matches_f(sd400, ff, z, np.zeros(len(z), dtype=int))
    # an eigenvalue exactly r/rho from the centre is in the near set and the
    # next float beyond it is far; both keep the bound, also at the corners,
    # where |z - c| = r
    rect = (-0.1, 0.1, -0.01, 0.05)
    reach = float(np.hypot(0.1, 0.05)) / rz._RHO
    z = np.array([-0.1 - 0.01j, 0.1 - 0.01j, 0.1 + 0.05j, -0.1 + 0.05j,
                  0.0 - 0.01j, 0.1 + 0.0j, 0.0 + 0.05j])
    for lam_edge, near in ((reach, True), (np.nextafter(reach, 1.0), False)):
        lambdas = np.array([-1.5, -0.9, -0.3, -0.05, 0.02, 0.3, lam_edge, 1.5])
        sd = SpectralData(L=7, j=0, lambdas=lambdas,
                          weights_end=np.linspace(0.01, 0.08, 8),
                          weights_start=np.ones(8))
        ff = rz._FarField(sd, [rect])
        assert (ff.lo[0] <= 6 < ff.hi[0]) == near
        _assert_matches_f(sd, ff, z, np.zeros(len(z), dtype=int))


def test_batched_counts_equal_single_box_counts(monkeypatch, sd400,
                                                edge_m1_j0):
    # every box counts the same in its sweep's winding loop as through
    # count_in_box alone, also when the boxes run in groups of 4
    count_boxes = rz._count_boxes
    swept = []
    monkeypatch.setattr(rz, "_count_boxes", lambda sd, boxes: swept.append(
        (boxes, count_boxes(sd, boxes))) or swept[-1][1])
    for sd, edge in ((sd400, edge_m1_j0), _right_edge_1000()):
        swept.clear()
        results = ew.sweep_band_edge(sd, edge)
        boxes, counts = swept[0]
        assert len(swept) == 1 and boxes == [r.box for r in results]
        assert counts == [rz.count_in_box(sd, box) for box in boxes]
        assert counts == [1] * len(results)
        with monkeypatch.context() as m:
            m.setattr(rz, "_GROUP", 4)
            assert count_boxes(sd, boxes) == counts


def _nan_at(monkeypatch, points, part=0):
    # the batched kernel returns NaN for f (part 0) or f' (part 1) at these
    # points, which makes the Newton step from there non-finite; returns the
    # list of the points of every kernel call
    evaluate, calls = rz._f_rows, []

    def f_rows(sd, zs):
        calls.append(list(zs))
        out = evaluate(sd, zs)
        for i, z in enumerate(zs):
            if z in points and out[i] is not None:
                value = list(out[i])
                value[part] = complex("nan+nanj")
                out[i] = tuple(value)
        return out
    monkeypatch.setattr(rz, "_f_rows", f_rows)
    return calls


def test_newton_halves_a_step_onto_a_pole(monkeypatch, sd400, edge_m1_j0,
                                          sweep400):
    # a Newton candidate at a pole (the kernel's None) halves the step, in
    # the sweep's lockstep rounds as for the seed alone
    seed = sweep400[3].seed
    f, fp = rz.f_and_fprime(sd400, seed)
    full, half = seed - f / fp, seed - 0.5 * (f / fp)
    evaluate = rz._f_rows
    calls = []

    def pole_at_full_step(sd, zs):
        calls.append(list(zs))
        return [None if z == full else v for z, v in zip(zs, evaluate(sd, zs))]
    monkeypatch.setattr(rz, "_f_rows", pole_at_full_step)
    z, residual, iters = rz.newton_refine(sd400, seed)
    assert [c[0] for c in calls[:3]] == [seed, full, half]
    assert residual <= 1e-10
    calls.clear()
    r = ew.sweep_band_edge(sd400, edge_m1_j0)[3]
    assert (r.z, r.residual, r.newton_iters) == (z, residual, iters)
    i = next(i for i, c in enumerate(calls) if full in c)
    assert half in calls[i + 1]


def test_sweep_raises_the_first_failure_it_meets(monkeypatch, sd400,
                                                 edge_m1_j0, sweep400):
    # a NoConvergence of box 2 or box 7 raises after the counts, with the
    # message of newton_refine on that box's seed alone
    for j in (2, 7):
        with monkeypatch.context() as m:
            _nan_at(m, [sweep400[j].seed])
            with pytest.raises(NoConvergence) as alone:
                rz.newton_refine(sd400, sweep400[j].seed)
            assert str(alone.value) == "non-finite Newton step"
            with pytest.raises(NoConvergence) as exc:
                ew.sweep_band_edge(sd400, edge_m1_j0)
            assert exc.value.last_iterate == sweep400[j].seed
            assert str(exc.value) == str(alone.value)

    # failures in boxes 2 and 7 raise the one met in the earliest Newton
    # round: box 2's where both fail at their seeds (round 1), box 7's where
    # it fails at its seed and box 2 only after its first step (a NaN f'
    # there, round 2)
    with monkeypatch.context() as m:
        steps = _nan_at(m, [])
        rz.newton_refine(sd400, sweep400[2].seed)
        first_step = steps[1][0]
    for box_2, part, raised in ((sweep400[2].seed, 0, (sweep400[2].seed, 0)),
                                (first_step, 1, (sweep400[7].seed, 0))):
        with monkeypatch.context() as m:
            _nan_at(m, [sweep400[7].seed])
            _nan_at(m, [box_2], part)
            with pytest.raises(NoConvergence) as exc:
                ew.sweep_band_edge(sd400, edge_m1_j0)
            assert (exc.value.last_iterate, exc.value.iterations) == raised

    # a seed failure in box 7 (theta refuses its eigenvalue) raises alone,
    # and ahead of a Newton failure in box 2 or box 8: every seed is built
    # before Newton starts
    lam_7 = sweep400[7].lambda_n
    original_theta = rz.theta

    def refuse_lambda_7(E):
        if E == lam_7:
            raise OnBranchCut(f"E = {E} refused")
        return original_theta(E)

    for newton_box in (None, 2, 8):
        with monkeypatch.context() as m:
            m.setattr(rz, "theta", refuse_lambda_7)
            if newton_box is not None:
                _nan_at(m, [sweep400[newton_box].seed])
            with pytest.raises(OnBranchCut) as exc:
                ew.sweep_band_edge(sd400, edge_m1_j0)
            assert str(exc.value) == f"E = {lam_7} refused"

    # box k's values are NaN: its count raises, and so does the sweep, with
    # the message of count_in_box, before any seed is refined
    k = 5
    box_k = sweep400[k].box
    evaluate = rz._FarField.__call__

    def nan_on_box_k(ff, z, b):
        on_k = ff.centre[b] == 0.5 * (box_k.x_lo + box_k.x_hi)
        return np.where(on_k, np.nan, evaluate(ff, z, b))

    monkeypatch.setattr(rz._FarField, "__call__", nan_on_box_k)
    seeds = _nan_at(monkeypatch, [])
    message = ("boundary value vanished or blew up at "
               f"{complex(box_k.x_lo, -box_k.depth)}")
    with pytest.raises(AdaptiveDepthExceeded) as exc:
        rz.count_in_box(sd400, box_k)
    assert str(exc.value) == message
    with pytest.raises(AdaptiveDepthExceeded) as exc:
        ew.sweep_band_edge(sd400, edge_m1_j0)
    assert str(exc.value) == message
    assert seeds == []

    # with box 2's NoConvergence as well, box 5's contour error raises first
    _nan_at(monkeypatch, [sweep400[2].seed])
    with pytest.raises(AdaptiveDepthExceeded) as exc:
        ew.sweep_band_edge(sd400, edge_m1_j0)
    assert str(exc.value) == message


def test_pole_guard_shared_by_point_and_contour(sd400):
    # the point kernel's one-point calls (s_l, f_and_fprime) and the
    # contour take the decisions of _pole_hits at 0.5x and 2x the tolerance
    tol = rz._POLE_TOL * sd400.scale
    k = 137
    lam = float(sd400.lambdas[k])
    rect = (lam - 0.01, lam + 0.01, -0.01, 0.01)
    ff = rz._FarField(sd400, [rect])
    for offset in (0.5 * tol, -0.5 * tol, -0.5j * tol):
        z = lam + offset
        for guarded in (lambda: rz.s_l(sd400, z),
                        lambda: rz.f_and_fprime(sd400, z)):
            with pytest.raises(PoleHit, match=f"k = {k}\\)"):
                guarded()
        with pytest.raises(PoleHit) as exc:
            ff(np.array([lam - 0.01j, z]), np.zeros(2, dtype=int))
        assert f"k = {k})" in str(exc.value)
        assert str(exc.value) == str(rz._pole_error(sd400, complex(z)))
    for offset in (2.0 * tol, -2.0 * tol, -2.0j * tol):
        z = lam + offset
        assert cmath.isfinite(rz.s_l(sd400, z))
        assert all(map(cmath.isfinite, rz.f_and_fprime(sd400, z)))
        w = ff(np.array([z]), np.zeros(1, dtype=int))
        assert np.all(np.isfinite(w))
    # equidistant eigenvalues: PoleHit names the lower index
    lambdas = np.array([-1.0, 0.0, 1e-14, 1.0])
    pair = SpectralData(L=3, j=0, lambdas=lambdas, weights_end=np.ones(4),
                        weights_start=np.ones(4))
    for guarded in (lambda: rz.s_l(pair, 0.5e-14 + 0j),
                    lambda: rz.f_and_fprime(pair, 0.5e-14 + 0j)):
        with pytest.raises(PoleHit, match=r"k = 1\)"):
            guarded()
    with pytest.raises(PoleHit, match=r"k = 1\)"):
        rz._FarField(pair, [(-0.5, 0.5, -0.1, 0.1)])(
            np.array([0.5e-14 + 0j]), np.zeros(1, dtype=int))
    distance, index = rz._nearest(lambdas, [-3.0, 0.75, 3.0, 0.5e-14])
    assert distance.tolist()[:3] == [2.0, 0.25, 2.0]
    assert index.tolist() == [0, 3, 3, 1]


def test_count_in_box_guards(sd400):
    lam0 = float(sd400.lambdas[0])
    with pytest.raises(EdgeTooCloseToEigenvalue):
        rz.count_in_box(sd400, rz.ResonanceBox(x_lo=lam0, x_hi=lam0 + 0.1,
                                               depth=0.1))
    # at this depth no contour sample lands on the cut itself, and without
    # the guard the count would silently come out 0
    with pytest.raises(OnBranchCut):
        rz.count_in_box(sd400, rz.ResonanceBox(x_lo=1.5, x_hi=2.5,
                                               depth=0.05))
    # the guards of many boxes run in one pass and raise the first failing
    # box's error, before any contour
    close = rz.ResonanceBox(lam0, lam0 + 0.1, 1e-4)
    cut = rz.ResonanceBox(1.5, 2.5, 1e-4)
    good = rz.ResonanceBox(-0.999, -0.99, 1e-4)
    with pytest.raises(EdgeTooCloseToEigenvalue,
                       match=r"x = -0\.9999511422988462 is"):
        rz._count_boxes(sd400, [good, close, cut])
    with pytest.raises(OnBranchCut, match=r"box \[1\.5, 2\.5\]"):
        rz._count_boxes(sd400, [good, cut, close])
    # strictly above the axis there are no zeros and no poles
    rect = (-1.001, -0.9, 0.01, 0.02)
    assert rz._windings(rz._FarField(sd400, [rect]), [rect]) == [0]


def test_count_in_box_eigenvalue_free_interval(sd400):
    # a shallow box below an eigenvalue-free stretch of the axis holds nothing
    box = rz.ResonanceBox(x_lo=1.0, x_hi=2.0 - 1e-3, depth=1e-6)
    assert rz.count_in_box(sd400, box) == 0


def test_count_in_box_single_resonance(sd400, edge_m1_j0):
    from edgewatch.resonance import _box_for
    for n in (0, 1, 2):
        _, box = _box_for(sd400, edge_m1_j0, n, 0.2)
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


def test_sweep_boxes_and_verdicts_are_python_scalars():
    # boxes 13 and 14 of this sweep count one resonance each but Newton
    # lands outside them; a box of numpy bounds made those verdicts
    # numpy.bool_, which printed as False and broke --format json
    V = ew.PeriodicPotential.from_values([-0.68, 1.15, -0.79])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 48)), bs)
    e0 = min((ep.energy for ep in bs.edge_points),
             key=lambda e: abs(e + 0.7722858372732013))
    res = ew.sweep_band_edge(sd, ew.classify_edge(V, bs, e0, sd.j),
                             eps=0.3, C1=1.0)
    assert len(res) == 15
    assert all(type(r.winding_verified) is bool for r in res)
    assert [r.winding_verified for r in res[13:]] == [False, False]
    assert [f.name for f in fields(rz.ResonanceBox)] == ["x_lo", "x_hi",
                                                         "depth"]
    for r in res:
        assert all(type(v) is float
                   for v in (r.box.x_lo, r.box.x_hi, r.box.depth))
        assert r.box.depth == 0.3 ** 5


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


def test_sweep_parameter_validation(monkeypatch, sd400, edge_m1_j0):
    with pytest.raises(ValueError):
        ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.5)
    # a single step takes the sweep's eps range
    for eps in (0.0, 0.5, 3.0):
        with pytest.raises(ValueError, match=r"eps must be in \(0, 0.3\]"):
            rz.locate_resonance(sd400, edge_m1_j0, 1, eps=eps)
    with pytest.raises(ValueError):
        ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.05, C1=10.0)
    # a non-positive or NaN C1 is refused before L*eps/C1 is formed
    for C1 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="C1 must be positive"):
            rz.check_step_inputs(edge_m1_j0, 0.2, L=400, C1=C1)
    with pytest.raises(ValueError, match="C1 must be positive"):
        ew.sweep_band_edge(sd400, edge_m1_j0, 0.2, C1=float("nan"))
    # a subnormal C1 makes L*eps/C1 overflow to inf, which no box count
    # can take
    for C1 in (1e-320, 5e-324):
        with pytest.raises(ValueError, match=r"L\*eps/C1 = inf is not finite"):
            ew.sweep_band_edge(sd400, edge_m1_j0, 0.3, C1=C1)
    # every box of a sweep is built, and the band size checked by _box_for,
    # before any seed is built or refined
    def refine(*args, **kwargs):
        raise AssertionError("refined before the band size was checked")
    monkeypatch.setattr(rz, "_alpha_and_seed", refine)
    monkeypatch.setattr(rz, "_f_rows", refine)
    with pytest.raises(ValueError, match="inside the band"):
        ew.sweep_band_edge(sd400, edge_m1_j0, eps=0.2, C1=0.01)


def test_resonance_index_out_of_range(sd400, edge_m1_j0):
    # a negative index used to wrap around to the far end of the band
    for n in (-1, -5):
        with pytest.raises(ValueError, match="n must be >= 0"):
            rz.locate_resonance(sd400, edge_m1_j0, n)
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
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C1=10.0)
    assert len(res) == 9
    assert all(r.winding_verified for r in res)
    assert all(r.z.imag < 0 for r in res)
    # eigenvalues approach the edge from below, widths still grow with n
    ims = [abs(r.z.imag) for r in res]
    assert np.all(np.diff(ims) > 0)


def test_public_steps_reproduce_the_sweep(sd400, sweep400, right401):
    # the benchmark's traced replay re-runs every box through these public
    # steps and requires the sweep's numbers back exactly; the batched seeds
    # and Newton rounds of (1,-2,0.5) at L=301 span several kernel blocks
    V = ew.PeriodicPotential.from_values([1.0, -2.0, 0.5])
    bs = ew.band_structure(V)
    sd301 = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 301)), bs)
    e0 = min((ep.energy for ep in bs.edge_points), key=lambda e: abs(e - 0.5))
    edge = ew.classify_edge(V, bs, e0, sd301.j)
    deep = ew.sweep_band_edge(sd301, edge, eps=0.3, C1=1.0)
    assert len(deep) == 91 and rz._CHUNK // len(sd301.lambdas) == 27
    for sd, results in ((sd400, sweep400), right401, (sd301, deep)):
        for r in results:
            g = int(np.flatnonzero(sd.lambdas == r.lambda_n)[0])
            alpha, seed = rz.alpha_and_seed(sd, r.band,
                                            int(sd.local_index[g]))
            z, residual, iters = rz.newton_refine(sd, seed)
            assert (alpha, seed, z, residual, iters) == (
                r.alpha_n, r.seed, r.z, r.residual, r.newton_iters)
            assert rz.count_in_box(sd, r.box) == 1


def test_sweep_period_three_potential():
    V = ew.PeriodicPotential.from_values([0.0, 1.0, 3.0])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 300)), bs)
    edge = ew.classify_edge(V, bs, bs.bands[1][0], sd.j)
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C1=10.0)
    assert len(res) == 7
    assert all(r.winding_verified for r in res)
    r = quantization_residuals(sd, bs, V)
    assert np.max(np.abs(r)) <= 1e-5


def test_sweep_period_one_potential():
    # shifted constant potential: one band [-1.5, 2.5] whose lower edge lies
    # inside (-2, 2), so the whole pipeline runs at period 1
    V = ew.PeriodicPotential.from_values([0.5])
    bs = ew.band_structure(V)
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, 300)), bs)
    edge = ew.classify_edge(V, bs, -1.5, 0)
    assert edge.classification.value == "GenericA"
    res = ew.sweep_band_edge(sd, edge, eps=0.2, C1=10.0)
    assert len(res) == 7
    assert all(r.winding_verified for r in res)
    assert rz.free_region_check(sd, edge, 0.2, bs) is True
    assert np.max(np.abs(quantization_residuals(sd, bs, V))) <= 1e-6


def test_free_region(sd400, edge_m1_j0, bs03):
    assert rz.free_region_check(sd400, edge_m1_j0, 0.2, bs03) is True
    # check_region_inputs returns the rectangle [e0 - eps, e0] x [-eps^5, 0]
    # that free_region_check counts in and the CLI prints
    box = rz.check_region_inputs(edge_m1_j0, 0.2, bs03)
    assert (box.x_lo, box.x_hi, box.depth) == (edge_m1_j0.e0 - 0.2,
                                               edge_m1_j0.e0, 0.2 ** 5)
    assert all(type(v) is float for v in (box.x_lo, box.x_hi, box.depth))


def test_free_region_rejects_right_edge(V03, bs03, sd400):
    edge0 = ew.classify_edge(V03, bs03, 0.0, 0)
    with pytest.raises(ValueError, match="applies to left band edges"):
        rz.free_region_check(sd400, edge0, 0.1, bs03)


def test_free_region_refuses_bad_inputs(V03, bs03, sd400):
    # check_region_inputs also refuses a non-positive or NaN eps, an eps
    # that leaves e0 - eps == e0 or eps^5 == 0, a gap below the edge
    # narrower than eps and a rectangle reaching |E| >= 2, also where eps^5
    # would overflow
    for e0, eps, msg in ((-1.0, -0.1, "eps must be positive"),
                         (-1.0, float("nan"), "eps must be positive"),
                         (-1.0, 1e-17, "eps = 1e-17 is too small"),
                         (3.0, 5.0, "gap below the edge is narrower"),
                         (3.0, 1e300, "gap below the edge is narrower"),
                         (3.0, 0.2, r"meets the real axis outside \(-2, 2\)"),
                         (-1.0, 1e300, r"rectangle \[-1e\+300, -1.0\] meets"),
                         (-1.0, 1e62, r"rectangle \[-1e\+62, -1.0\] meets")):
        edge = ew.classify_edge(V03, bs03, e0, 0)
        with pytest.raises(ValueError, match=msg):
            rz.free_region_check(sd400, edge, eps, bs03)
    # at the edge 0 of (-3, 0) the rectangle [-eps, 0] is not empty, but its
    # floor eps^5 is
    V = ew.PeriodicPotential.from_values([-3.0, 0.0])
    bs = ew.band_structure(V)
    edge = ew.classify_edge(V, bs, 0.0, 0)
    with pytest.raises(ValueError, match="eps = 1e-70 is too small"):
        rz.check_region_inputs(edge, 1e-70, bs)


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
        # the closed-form bounds hold at every point of a lattice on the
        # strip, which runs from the box floor up to the shallow cell
        _, box = rz._box_for(sd400, edge_m1_j0, n, eps)
        top = 10.0 * (n + 1) / sd400.L ** 2
        pts = [complex(x, y) for x in np.linspace(box.x_lo, box.x_hi, 30)
               for y in np.linspace(-eps ** 5, -top, 30)]
        assert all(abs(rz.s_l(sd400, z).imag) <= im_s for z in pts)
        assert all(abs(np.exp(-1j * rz.theta(z)).imag) >= im_phase
                   for z in pts)


def test_im_s_grid_empty_region(sd400, edge_m1_j0):
    # C0 = 50 at L = 400 pushes the cell floor below the box floor
    with pytest.raises(EmptyRegion):
        rz.no_root_certificate(sd400, edge_m1_j0, 1, 0.2, C0=50.0)
