"""Property suites: randomized and closed-form checks runnable from the CLI.

Each check returns a CheckResult; `run_all` executes the whole battery with
one seed so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import floquet, resonance, spectrum
from .analysis import fit_power_law
from .potential import PeriodicPotential

__all__ = ["CheckResult", "run_all", "random_rational_cases"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_potentials(rng, count, max_period=5):
    out = []
    for _ in range(count):
        p = int(rng.integers(1, max_period + 1))
        out.append(PeriodicPotential.from_values(rng.uniform(-2.0, 2.0, p)))
    return out


def _unimodular_error(M):
    # |det M - 1| relative to the roundoff of the products that form det M
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return abs(det - 1.0) / max(1.0, float(np.max(np.abs(M)))) ** 2


def check_product_unimodular(seed=1, draws=200):
    # the one-step factors have det 1 by construction; every partial product
    # k in [0, p] of a rotation of V (r = 0 is V itself, k = p the monodromy
    # at base site r), formed by direct 2x2 products, must keep it
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        V = _random_potentials(rng, 1)[0]
        E = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        r = int(rng.integers(0, V.period))
        k = int(rng.integers(0, V.period + 1))
        rotated = PeriodicPotential.from_values(V.values[r:] + V.values[:r])
        worst = max(worst, _unimodular_error(
            floquet.product_matrix(rotated, E, k)))
    return _result("product-unimodular", worst <= 1e-10,
                   f"worst cross-determinant error {worst:.2e} over {draws} "
                   "rotated potentials")


def check_trace_independence(seed=2, draws=20):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        p = int(rng.integers(2, 6))
        V = PeriodicPotential.from_values(rng.uniform(-2, 2, p))
        E = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        traces = [np.trace(floquet.monodromy(V, E, k)) for k in range(p)]
        ref = traces[0]
        for t in traces[1:]:
            worst = max(worst, abs(t - ref) / max(1.0, abs(ref)))
    return _result("trace-k-independence", worst <= 1e-12,
                   f"worst relative trace spread {worst:.2e}")


def check_band_partition(seed=3, draws=20):
    rng = np.random.default_rng(seed)
    for V in _random_potentials(rng, draws):
        bs = floquet.band_structure(V)
        if sum(1 + c for c in bs.closed_gap_counts) != V.period:
            return _result("band-partition", False,
                           f"partition failed for {V.values}")
        for (lo, hi), (lo2, _) in zip(bs.bands[:-1], bs.bands[1:]):
            if not hi < lo2:
                return _result("band-partition", False,
                               f"bands overlap for {V.values}")
        for lo, hi in bs.bands:
            for e in (lo, hi):
                if abs(abs(bs.discriminant_at(e)) - 2.0) > 1e-9:
                    return _result("band-partition", False,
                                   f"|disc| != 2 at edge {e} for {V.values}")
    return _result("band-partition", True,
                   f"{draws} random potentials partition correctly")


def check_quasi_momentum(seed=4, draws=8):
    rng = np.random.default_rng(seed)
    for V in _random_potentials(rng, draws):
        bs = floquet.band_structure(V)
        for i, (lo, hi) in enumerate(bs.bands):
            grid = np.linspace(lo, hi, 1000)
            th = floquet._theta_band(bs, i, grid)
            if np.any(np.diff(th) < -1e-12):
                return _result("quasi-momentum", False,
                               f"not monotone on band {i} of {V.values}")
            mid = len(grid) // 2
            if not th[mid + 1] > th[mid - 1]:
                return _result("quasi-momentum", False,
                               f"flat at the midpoint of band {i} of {V.values}")
            span = th[-1] - th[0]
            expect = (1 + bs.closed_gap_counts[i]) * math.pi / V.period
            if abs(span - expect) > 1e-9:
                return _result("quasi-momentum", False,
                               f"band {i} span {span} != {expect}")
    return _result("quasi-momentum", True,
                   f"monotone with exact range on {draws} random potentials")


def check_free_chain(lengths=(2, 9, 50)):
    V = PeriodicPotential.from_values([0.0])
    worst = 0.0
    for L in lengths:
        sd = spectrum.eigensystem(spectrum.assemble(V, L))
        m = np.arange(1, L + 2)
        lam = np.sort(2.0 * np.cos(m * np.pi / (L + 2)))
        w = 2.0 / (L + 2) * np.sin(m * np.pi / (L + 2)) ** 2
        w = w[np.argsort(2.0 * np.cos(m * np.pi / (L + 2)))]
        worst = max(worst, float(np.max(np.abs(sd.lambdas - lam))))
        worst = max(worst, float(np.max(np.abs(sd.weights_end - w))))
        worst = max(worst, float(np.max(np.abs(sd.weights_start - w))))
        worst = max(worst, abs(float(sd.weights_end.sum()) - 1.0))
    return _result("free-chain-oracle", worst <= 1e-10,
                   f"worst closed-form deviation {worst:.2e}")


def check_weight_normalisation(seed=5, L=80):
    rng = np.random.default_rng(seed)
    V = _random_potentials(rng, 1, max_period=4)[0]
    sd = spectrum.eigensystem(spectrum.assemble(V, L))
    err = max(abs(float(sd.weights_end.sum()) - 1.0),
              abs(float(sd.weights_start.sum()) - 1.0))
    in_range = bool(np.all((sd.weights_end >= 0) & (sd.weights_end <= 1)))
    return _result("weight-normalisation", err <= 1e-10 and in_range,
                   f"normalisation error {err:.2e}")


def check_interlacing(seed=6, L=60):
    rng = np.random.default_rng(seed)
    V = _random_potentials(rng, 1, max_period=3)[0]
    small = spectrum.eigensystem(spectrum.assemble(V, L - 1)).lambdas
    big = spectrum.eigensystem(spectrum.assemble(V, L)).lambdas
    ok = bool(np.all(big[:-1] <= small + 1e-10)
              and np.all(small <= big[1:] + 1e-10))
    return _result("cauchy-interlacing", ok,
                   f"sections of size {L} and {L + 1} interlace")


def check_theta_branch(seed=7, draws=1000):
    rng = np.random.default_rng(seed)
    worst = 0.0
    signs_ok = True
    for _ in range(draws):
        E = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        if E.imag == 0.0 and abs(E.real) >= 2.0:
            continue
        th = resonance.theta(E)
        worst = max(worst, abs(2.0 * np.cos(th) - E) / (1.0 + abs(E)))
        if not -math.pi < th.real < 0.0:
            signs_ok = False
        # off the real axis Im theta takes the sign of Im E
        if E.imag != 0.0 and np.sign(th.imag) != np.sign(E.imag):
            signs_ok = False
    return _result("theta-branch", worst <= 1e-13 and signs_ok,
                   f"worst round-trip error {worst:.2e}")


def check_im_s_identity(seed=8, draws=1000, L=200):
    V = PeriodicPotential.from_values([0.0, 3.0])
    sd = spectrum.eigensystem(spectrum.assemble(V, L))
    rng = np.random.default_rng(seed)
    worst = 0.0
    signs_ok = True
    for _ in range(draws):
        E = complex(rng.uniform(-2, 5), rng.uniform(-1, 1))
        if abs(E.imag) < 1e-3:
            E = complex(E.real, math.copysign(1e-3 + abs(E.imag), E.imag or 1.0))
        s = resonance.s_l(sd, E)
        direct = E.imag * float(np.sum(sd.weights_end
                                       / np.abs(sd.lambdas - E) ** 2))
        denom = max(abs(s.imag), abs(direct), 1e-300)
        worst = max(worst, abs(s.imag - direct) / denom)
        if s.imag * E.imag <= 0:
            signs_ok = False
    return _result("im-s-identity", worst <= 1e-12 and signs_ok,
                   f"worst relative route disagreement {worst:.2e}")


def random_rational_cases(seed=9, count=50):
    """Random rational functions with known zero/pole counts in a rectangle."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        x_lo, y_lo = rng.uniform(-2, 0, 2)
        x_hi = x_lo + rng.uniform(0.5, 2.0)
        y_hi = y_lo + rng.uniform(0.5, 2.0)
        rect = (x_lo, x_hi, y_lo, y_hi)

        def draw_points(n_pts):
            pts = []
            while len(pts) < n_pts:
                z = complex(rng.uniform(x_lo - 1.5, x_hi + 1.5),
                            rng.uniform(y_lo - 1.5, y_hi + 1.5))
                # keep clear of the boundary so the phase stays trackable
                dx = min(abs(z.real - x_lo), abs(z.real - x_hi))
                dy = min(abs(z.imag - y_lo), abs(z.imag - y_hi))
                on_x = x_lo - 0.05 <= z.real <= x_hi + 0.05
                on_y = y_lo - 0.05 <= z.imag <= y_hi + 0.05
                if (dx < 0.05 and on_y) or (dy < 0.05 and on_x):
                    continue
                pts.append(z)
            return pts

        zeros = draw_points(int(rng.integers(0, 4)))
        poles = draw_points(int(rng.integers(0, 3)))
        mults_z = [int(rng.integers(1, 3)) for _ in zeros]
        mults_p = [int(rng.integers(1, 3)) for _ in poles]

        def inside(z):
            return x_lo < z.real < x_hi and y_lo < z.imag < y_hi

        expected = (sum(m for z, m in zip(zeros, mults_z) if inside(z))
                    - sum(m for z, m in zip(poles, mults_p) if inside(z)))

        def func(E, zeros=zeros, poles=poles, mz=mults_z, mp=mults_p):
            w = 1.0 + 0.0j
            for z0, m in zip(zeros, mz):
                w *= (E - z0) ** m
            for p0, m in zip(poles, mp):
                w /= (E - p0) ** m
            return w

        cases.append((func, rect, expected))
    return cases


def check_winding_exactness(seed=9, count=50):
    for i, (func, rect, expected) in enumerate(random_rational_cases(seed, count)):
        got = resonance.winding_number(func, rect)
        if got != expected:
            return _result("winding-exactness", False,
                           f"case {i}: got {got}, expected {expected}")
    return _result("winding-exactness", True,
                   f"{count} random rational oracles counted exactly")


def check_fit_exactness():
    x = np.linspace(1.0, 10.0, 12)
    fit = fit_power_law(np.column_stack([x, x ** 2]))
    ok = abs(fit.slope - 2.0) <= 1e-12 and fit.r_squared >= 1.0 - 1e-12
    fit2 = fit_power_law(np.column_stack([x, 3.0 / x ** 3]))
    ok = ok and abs(fit2.slope + 3.0) <= 1e-12
    ok = ok and abs(fit2.intercept - math.log(3.0)) <= 1e-12
    # details stay comma-free so the CSV rows of `edgewatch verify` parse plainly
    return _result("fit-exactness", ok,
                   f"slopes {fit.slope:.15f} and {fit2.slope:.15f}")


def run_all(seed: int = 0) -> list[CheckResult]:
    """The full battery; deterministic for a fixed seed."""
    return [
        check_product_unimodular(seed + 1),
        check_trace_independence(seed + 2),
        check_band_partition(seed + 3),
        check_quasi_momentum(seed + 4),
        check_free_chain(),
        check_weight_normalisation(seed + 5),
        check_interlacing(seed + 6),
        check_theta_branch(seed + 7),
        check_im_s_identity(seed + 8),
        check_winding_exactness(seed + 9),
        check_fit_exactness(),
    ]
