import json
import math

import numpy as np
import pytest

import edgewatch as ew
from edgewatch import analysis
from edgewatch.errors import DegenerateData, MixedResidues, TooFewPoints
from edgewatch.resonance import Resonance, ResonanceBox


def _fake_resonance(n, im, L=1000, j=0, alpha=2.0 + 1.0j):
    lam = -1.0 + (n + 1) ** 2 / L ** 2
    box = ResonanceBox(x_lo=lam - 1e-3, x_hi=lam + 1e-3, depth=1e-3, n=n)
    z = complex(lam, -im)
    return Resonance(band=0, n=n, lambda_n=lam, a_n=1e-6, alpha_n=alpha,
                     seed=z + 1e-12, z=z, residual=1e-12, box=box,
                     winding_verified=True, newton_iters=2)


def test_fit_exact_square():
    x = np.linspace(1, 30, 14)
    fit = analysis.fit_power_law(np.column_stack([x, x ** 2]))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 14


def test_fit_inverse_cube_intercept():
    x = np.linspace(1, 10, 8)
    fit = analysis.fit_power_law(np.column_stack([x, 3.0 / x ** 3]))
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_noisy_single_decade():
    rng = np.random.default_rng(22)
    x = np.linspace(1, 10, 40)
    y = x ** 2 * (1 + 0.01 * rng.uniform(-1, 1, x.size))
    fit = analysis.fit_power_law(np.column_stack([x, y]))
    assert 1.95 <= fit.slope <= 2.05


def test_fit_errors():
    with pytest.raises(TooFewPoints):
        analysis.fit_power_law([(1, 1), (2, 4), (3, 9)])
    with pytest.raises(DegenerateData):
        analysis.fit_power_law([(2, 1), (2, 2), (2, 3), (2, 4)])
    with pytest.raises(ValueError):
        analysis.fit_power_law([(1, 1), (2, -4), (3, 9), (4, 16)])


def test_l_scaling_exact_cube():
    samples = [(L, 0, _fake_resonance(3, 7.0 / L ** 3, L=L))
               for L in (250, 500, 1000, 2000)]
    fit = analysis.l_scaling(samples)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_l_scaling_guards():
    samples = [(L, L % 2, _fake_resonance(3, 1.0 / L ** 3, L=L))
               for L in (250, 501, 1000)]
    with pytest.raises(MixedResidues):
        analysis.l_scaling(samples)
    with pytest.raises(TooFewPoints):
        analysis.l_scaling(samples[:2])
    mixed_n = [(L, 0, _fake_resonance(n, 1.0 / L ** 3, L=L))
               for L, n in ((250, 3), (500, 4), (1000, 5))]
    with pytest.raises(ValueError):
        analysis.l_scaling(mixed_n)
    fit = analysis.l_scaling(mixed_n, require_same_n=False)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)


def test_seed_accuracy_rows():
    res = [_fake_resonance(n, 1e-7 * (n + 1) ** 2) for n in range(3, 8)]
    acc = analysis.seed_accuracy(res, 1000)
    assert np.all(acc.ratio > 0)
    assert np.all(np.isfinite(acc.ratio))
    assert acc.max_ratio == pytest.approx(acc.ratio.max())
    with pytest.raises(TooFewPoints):
        analysis.seed_accuracy([], 1000)


def test_scaling_report_generic(bs03, sd400, sweep400, edge_m1_j0):
    report = analysis.scaling_report(sd400, sweep400, edge_m1_j0, eps=0.2,
                                     bs=bs03)
    names = [c.name for c in report.checks]
    assert names == ["eigenvalue-offsets", "boundary-weights",
                     "eigenvalue-spacings", "resonance-widths"]
    by_name = {c.name: c for c in report.checks}
    assert by_name["eigenvalue-offsets"].expected_slope == 2.0
    assert by_name["resonance-widths"].expected_slope == 2.0
    assert not report.non_generic
    # determinism
    report2 = analysis.scaling_report(sd400, sweep400, edge_m1_j0, eps=0.2,
                                      bs=bs03)
    assert report.to_dict() == report2.to_dict()


def test_scaling_report_without_resonances(sd400, edge_m1_j0, bs03):
    report = analysis.scaling_report(sd400, None, edge_m1_j0, eps=0.2, bs=bs03)
    assert "resonance-widths" not in [c.name for c in report.checks]


def test_scaling_report_non_generic_signature(V03, bs03, sd400):
    edge0 = ew.classify_edge(V03, bs03, 0.0, 0)
    report = analysis.scaling_report(sd400, None, edge0, eps=0.2, bs=bs03)
    assert report.non_generic
    wcheck = {c.name: c for c in report.checks}["boundary-weights"]
    assert wcheck.expected_slope == 0.0
    assert "non-generic signature" in wcheck.note
    assert abs(wcheck.fit.slope) <= 0.3


def test_scaling_report_refuses_outside_domain(free_chain):
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 200)), bs0)
    edge = ew.classify_edge(V0, bs0, -2.0, 0)
    with pytest.raises(ValueError, match="outside"):
        analysis.scaling_report(sd, None, edge, eps=0.2, bs=bs0)


def test_report_serialization_round_trip(sd400, sweep400, edge_m1_j0, bs03):
    report = analysis.scaling_report(sd400, sweep400, edge_m1_j0, eps=0.2,
                                     bs=bs03)
    text = json.dumps(report.to_dict())
    back = json.loads(text)
    for c, cb in zip(report.checks, back["checks"]):
        assert cb["slope"] == c.fit.slope          # exact round trip
        assert cb["intercept"] == c.fit.intercept
        assert cb["r_squared"] == c.fit.r_squared
