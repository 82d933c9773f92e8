import json

import numpy as np
import pytest

import edgewatch as ew
from edgewatch import analysis
from edgewatch.cli import main
from edgewatch.errors import DegenerateData, TooFewPoints
from edgewatch.resonance import Resonance, ResonanceBox

from oracles import seed_accuracy


def _fake_resonance(n, im, L=1000, j=0, alpha=2.0 + 1.0j):
    lam = -1.0 + (n + 1) ** 2 / L ** 2
    box = ResonanceBox(x_lo=lam - 1e-3, x_hi=lam + 1e-3, depth=1e-3)
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
    # a NaN coordinate is not positive either, and never reaches np.log
    for bad in (-4.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            analysis.fit_power_law([(1, 1), (2, bad), (3, 9), (4, 16)])


def test_l_scaling_exact_cube():
    samples = [(L, 0, _fake_resonance(3, 7.0 / L ** 3, L=L))
               for L in (250, 500, 1000, 2000)]
    check = analysis.l_scaling(samples, "fixed")
    assert check.fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert check.fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert (check.expected_slope, check.tolerance) == \
        analysis.L_SCALING_SLOPES["fixed"]
    assert check.passed


def test_l_scaling_guards():
    samples = [(L, L % 2, _fake_resonance(3, 1.0 / L ** 3, L=L))
               for L in (250, 501, 1000)]
    # the length rules are check_l_lengths', the CLI's refusals of --L-list
    with pytest.raises(ValueError, match="mixes residues"):
        analysis.l_scaling(samples, "fixed")
    with pytest.raises(ValueError, match="at least 3 lengths, got 2"):
        analysis.l_scaling(samples[:2], "fixed")
    repeated = [(L, 0, _fake_resonance(3, 1.0 / L ** 3, L=L))
                for L in (250, 250, 500)]
    with pytest.raises(ValueError, match="repeats a length"):
        analysis.l_scaling(repeated, "fixed")
    # the track decides whether n may vary: only the proportional one lets
    # it grow with L, and its band around -1 rejects a slope of -3
    mixed_n = [(L, 0, _fake_resonance(n, 1.0 / L ** 3, L=L))
               for L, n in ((250, 3), (500, 4), (1000, 5))]
    with pytest.raises(ValueError):
        analysis.l_scaling(mixed_n, "fixed")
    check = analysis.l_scaling(mixed_n, "proportional")
    assert check.fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert check.expected_slope == -1.0
    assert not check.passed


def test_seed_accuracy_rows():
    res = [_fake_resonance(n, 1e-7 * (n + 1) ** 2) for n in range(3, 8)]
    ratio = seed_accuracy(res, 1000)
    assert ratio.shape == (len(res),)
    assert np.all(ratio > 0)
    assert np.all(np.isfinite(ratio))
    with pytest.raises(TooFewPoints):
        seed_accuracy([], 1000)


def test_scaling_report_generic(bs03, sd400, sweep400, edge_m1_j0):
    checks = analysis.scaling_report(sd400, sweep400, edge_m1_j0, eps=0.2,
                                     bs=bs03)
    names = [c.name for c in checks]
    assert names == ["eigenvalue-offsets", "boundary-weights",
                     "eigenvalue-spacings", "resonance-widths"]
    by_name = {c.name: c for c in checks}
    assert by_name["eigenvalue-offsets"].expected_slope == 2.0
    assert by_name["resonance-widths"].expected_slope == 2.0
    # a generic edge expects the weight law, not the flat signature
    assert by_name["boundary-weights"].expected_slope == 2.0
    assert by_name["boundary-weights"].note == ""
    # determinism
    assert checks == analysis.scaling_report(sd400, sweep400, edge_m1_j0,
                                             eps=0.2, bs=bs03)


def test_scaling_report_without_resonances(sd400, edge_m1_j0, bs03):
    checks = analysis.scaling_report(sd400, None, edge_m1_j0, eps=0.2, bs=bs03)
    assert "resonance-widths" not in [c.name for c in checks]


def test_scaling_report_too_few_widths(sd400, sweep400, edge_m1_j0, bs03):
    # fit_power_law owns every fit's minimum: two widths beyond index 2, or
    # none at all, are too few for the width fit
    for rs in (sweep400[:5], []):
        with pytest.raises(TooFewPoints, match="need at least 4 points"):
            analysis.scaling_report(sd400, rs, edge_m1_j0, eps=0.2, bs=bs03)


def test_scaling_report_non_generic_signature(V03, bs03, sd400):
    edge0 = ew.classify_edge(V03, bs03, 0.0, 0)
    checks = analysis.scaling_report(sd400, None, edge0, eps=0.2, bs=bs03)
    wcheck = {c.name: c for c in checks}["boundary-weights"]
    assert wcheck.expected_slope == 0.0
    assert "non-generic signature" in wcheck.note
    assert abs(wcheck.fit.slope) <= 0.3


def test_report_serialization_round_trip(capsys, sd400, sweep400, edge_m1_j0,
                                         bs03):
    # `edgewatch scaling --format json` carries every fit value exactly
    checks = analysis.scaling_report(sd400, sweep400, edge_m1_j0, eps=0.2,
                                     bs=bs03)
    assert main(["scaling", "--potential", "0,3", "--L", "400", "--edge",
                 "-1", "--format", "json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert [cb["name"] for cb in back] == [c.name for c in checks]
    for c, cb in zip(checks, back):
        assert cb["slope"] == c.fit.slope          # exact round trip
        assert cb["intercept"] == c.fit.intercept
        assert cb["r_squared"] == c.fit.r_squared
