"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavyweight spectral data are cached per session, so the
whole suite is dominated by the four eigensolves of criterion 8.
"""

import numpy as np
import pytest

import edgewatch as ew
from edgewatch import analysis, resonance as rz, verify

from oracles import quantization_residuals, seed_accuracy

EPS = 0.2
C0 = 50.0
C1 = 10.0


class _Cache:
    def __init__(self):
        self.V = ew.PeriodicPotential.from_values([0.0, 3.0])
        self.bs = ew.band_structure(self.V)
        self.edge = ew.classify_edge(self.V, self.bs, -1.0, 0)
        self._sd = {}
        self._sweep = {}

    def sd(self, L):
        if L not in self._sd:
            self._sd[L] = ew.band_enumerate(
                ew.eigensystem(ew.assemble(self.V, L)), self.bs)
        return self._sd[L]

    def sweep(self, L):
        if L not in self._sweep:
            self._sweep[L] = ew.sweep_band_edge(
                self.sd(L), self.edge, eps=EPS, C1=C1)
        return self._sweep[L]


@pytest.fixture(scope="module")
def cache():
    return _Cache()


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_floquet_oracles(cache):
    np.testing.assert_allclose(cache.bs.bands, [(-1.0, 0.0), (3.0, 4.0)],
                               atol=1e-10)
    assert cache.bs.closed_gap_counts == (0, 0)
    V11 = ew.PeriodicPotential.from_values([1.0, 1.0])
    bs11 = ew.band_structure(V11)
    assert len(bs11.bands) == 1
    np.testing.assert_allclose(bs11.bands[0], (-1.0, 3.0), atol=1e-8)
    assert bs11.closed_gap_counts == (1,)
    assert bs11.closed_gap_points[0][0] == pytest.approx(1.0, abs=1e-7)
    _report(1, "bands of (0,3) exact to 1e-10; constant period-2 potential "
               "gives one band with a closed gap at 1")


def test_criterion_02_free_chain_oracle():
    result = verify.check_free_chain()
    assert result.passed, result.detail
    _report(2, f"free-chain closed forms reproduced, {result.detail}")


def test_criterion_03_genericity_classifier(cache):
    ed0 = ew.classify_edge(cache.V, cache.bs, -1.0, 0)
    ed1 = ew.classify_edge(cache.V, cache.bs, -1.0, 1)
    assert ed0.classification.value == "GenericA"
    assert ed1.classification.value == "GenericA"
    assert ed0.d_j1 == pytest.approx(-1.0, abs=1e-12)
    assert ed1.d_j1 == pytest.approx(2.0, abs=1e-12)
    _report(3, "edge -1 is GenericA for j=0,1 with d_1 = -1, d_2 = 2")


def test_criterion_04_quantization(cache):
    r = quantization_residuals(cache.sd(400), cache.bs, cache.V, band=0)
    worst = float(np.max(np.abs(r)))
    assert worst <= 1e-5
    _report(4, f"max spacing residual {worst:.2e} <= 1e-5 over "
               f"{len(r)} pairs at L=400")


def test_criterion_05_uniqueness(cache):
    res = cache.sweep(400)
    assert len(res) == 9
    for r in res:
        assert rz.count_in_box(cache.sd(400), r.box) == 1
        assert r.winding_verified
        shallow = C0 * (r.n + 1) / 400 ** 2
        assert r.box.x_lo <= r.z.real <= r.box.x_hi
        assert -shallow <= r.z.imag < 0.0
        assert r.residual <= 1e-10
    _report(5, "exactly one resonance per box for n = 0..8, all inside the "
               "shallow cells with residuals <= 1e-10")


def test_criterion_06_free_region(cache):
    assert rz.free_region_check(cache.sd(400), cache.edge, EPS, cache.bs)
    _report(6, "no resonances in [-1.2, -1] - i[0, 0.2^5] at L=400")


def test_criterion_07_width_scaling_in_n(cache):
    res = [r for r in cache.sweep(1000) if 3 <= r.n <= 20]
    assert len(res) == 18
    fit = analysis.fit_power_law([(r.n + 1, abs(r.z.imag)) for r in res])
    assert abs(fit.slope - 2.0) <= 0.3
    assert fit.r_squared >= 0.95
    _report(7, f"width slope in n: {fit.slope:.4f} (expect 2 +- 0.3), "
               f"R^2 = {fit.r_squared:.6f}")


def test_criterion_08_width_scaling_in_l(cache):
    lengths = (250, 500, 1000, 2000)
    fixed, prop = [], []
    for L in lengths:
        sd = cache.sd(L)
        fixed.append((L, sd.j, rz.locate_resonance(sd, cache.edge, 3,
                                                   eps=EPS)))
        n_prop = int(0.02 * L)
        prop.append((L, sd.j, rz.locate_resonance(sd, cache.edge, n_prop,
                                                  eps=EPS)))
    notes = []
    for track, samples in (("fixed", fixed), ("proportional", prop)):
        check = analysis.l_scaling(samples, track)
        assert check.passed, track
        notes.append(f"{track}-n slope {check.fit.slope:.4f} (expect "
                     f"{check.expected_slope:g} +- {check.tolerance:g})")
    _report(8, "; ".join(notes))


def test_criterion_09_eigenvalue_and_weight_laws(cache):
    checks = analysis.scaling_report(cache.sd(1000), None, cache.edge,
                                     eps=EPS, bs=cache.bs)
    by_name = {c.name: c for c in checks}
    offs = by_name["eigenvalue-offsets"].fit
    wts = by_name["boundary-weights"].fit
    spc = by_name["eigenvalue-spacings"].fit
    assert abs(offs.slope - 2.0) <= 0.2
    assert abs(wts.slope - 2.0) <= 0.3
    assert abs(spc.slope - 1.0) <= 0.3
    for fit in (offs, wts, spc):
        assert fit.r_squared >= 0.95
    _report(9, f"slopes: offsets {offs.slope:.4f}, weights {wts.slope:.4f}, "
               f"spacings {spc.slope:.4f}, all R^2 >= 0.95")


def test_criterion_10_seed_formula(cache):
    acc400 = seed_accuracy(cache.sweep(400), 400).max()
    acc800 = seed_accuracy(cache.sweep(800), 800).max()
    assert acc800 <= 4.0 * acc400
    res1000 = cache.sweep(1000)
    assert all(abs(r.z - r.seed) < abs(r.z.imag) for r in res1000)
    _report(10, f"seed-error ratio {acc400:.1f} at L=400 vs "
                f"{acc800:.1f} at L=800 (<= 4x); seed error below "
                "|Im z| for every n at L=1000")


def test_criterion_11_small_im_s_region(cache):
    # C0 = 50 empties the strip at L = 400 (50*(n+1)/L^2 >= eps^5 for n >= 1),
    # so this criterion runs at C0 = 10, the largest round value keeping
    # n = 4 non-empty; the bound under test is unchanged
    sd = cache.sd(400)
    for n in (1, 2, 4):
        im_s, im_phase = rz.no_root_certificate(sd, cache.edge, n, EPS,
                                                C0=10.0)
        assert im_s <= 10.0 * EPS
        assert im_s < im_phase
    _report(11, "closed-form strip bound of |Im S_L| below 10*eps and below "
                "the phase-term floor for n in {1, 2, 4}")


def test_criterion_12_winding_exactness():
    result = verify.check_winding_exactness(seed=9, count=50)
    assert result.passed, result.detail
    _report(12, "50 random rational oracles counted exactly")


def test_criterion_13_summation_identity():
    result = verify.check_im_s_identity(seed=42, L=400)
    assert result.passed, result.detail
    _report(13, f"two routes for Im S_L at 1000 points with matching signs: "
                f"{result.detail}")
