"""Power-law fits and scaling reports for near-edge spectral data.

The asymptotic statements under test are all of the form y comparable to
x^s; we realise them as ordinary least squares on (log x, log y), with the
slope as the observable.  The lowest few indices are excluded from fits
(their log spacing is too coarse) but remain in the raw tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, MixedResidues, TooFewPoints
from .floquet import BandStructure, EdgeClassification, EdgeData
from .resonance import Resonance
from .spectrum import SpectralData, weight_profile

__all__ = [
    "PowerLawFit",
    "ScalingCheck",
    "ScalingReport",
    "SeedAccuracy",
    "fit_power_law",
    "scaling_report",
    "l_scaling",
    "seed_accuracy",
]

SLOPE_TOLERANCE = 0.3
# pass band of the proportional-index track n = floor(FRAC * L) of
# `l-scaling` around its expected slope -1
PROPORTIONAL_SLOPE_TOLERANCE = 0.4
FIT_EXCLUDE_LOWEST = 3  # indices n in {0, 1, 2} stay out of log-log fits


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float  # natural log of the prefactor
    r_squared: float
    n_points: int
    x_name: str
    y_name: str


def fit_power_law(points, x_name: str = "x", y_name: str = "y",
                  min_points: int = 4) -> PowerLawFit:
    """Least squares on (log x, log y) for positive data; needs >= 4 points.

    The L-scaling track lowers min_points to 3, its own documented minimum.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be pairs (x, y)")
    if len(pts) < min_points:
        raise TooFewPoints(f"need at least {min_points} points, got {len(pts)}")
    if np.any(pts <= 0):
        raise ValueError("all coordinates must be positive")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    dx = lx - lx.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise DegenerateData("all abscissae are equal")
    slope = float(np.dot(dx, ly - ly.mean()) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return PowerLawFit(slope=slope, intercept=intercept, r_squared=r2,
                       n_points=len(pts), x_name=x_name, y_name=y_name)


@dataclass(frozen=True)
class ScalingCheck:
    name: str
    fit: PowerLawFit
    expected_slope: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r_squared": self.fit.r_squared,
            "n_points": self.fit.n_points,
            "expected_slope": self.expected_slope,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class ScalingReport:
    edge_energy: float
    edge_classification: str
    L: int
    checks: tuple[ScalingCheck, ...]
    non_generic: bool = False

    def to_dict(self) -> dict:
        return {
            "edge_energy": self.edge_energy,
            "edge_classification": self.edge_classification,
            "L": self.L,
            "non_generic": self.non_generic,
            "checks": [c.to_dict() for c in self.checks],
        }

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, pts, expected, x_name, y_name, tol=SLOPE_TOLERANCE, note=""):
    fit = fit_power_law(pts, x_name=x_name, y_name=y_name)
    passed = abs(fit.slope - expected) <= tol
    return ScalingCheck(name=name, fit=fit, expected_slope=expected,
                        tolerance=tol, passed=passed, note=note)


def scaling_report(sd: SpectralData, resonances: list[Resonance] | None,
                   edge: EdgeData, bs: BandStructure,
                   eps: float = 0.2) -> ScalingReport:
    """Fit the near-edge laws: eigenvalue offsets, weights, spacings, widths.

    Generic edges expect slopes (2, 2, 1, 2) against the index; an
    edge-eigenvalue (non-generic) edge expects a flat weight profile instead,
    which is flagged as a signature rather than a failure.  Resonances are
    optional; without them the width fit is skipped.
    """
    if abs(edge.e0) >= 2.0:
        raise ValueError(
            f"edge {edge.e0} lies outside (-2, 2); the resonance asymptotics "
            "do not apply there")
    profile = weight_profile(sd, edge, eps, bs=bs)
    keep = profile.k >= FIT_EXCLUDE_LOWEST
    k1 = profile.k[keep] + 1.0
    offs = np.abs(profile.offsets[keep])
    wts = profile.weights_end[keep]
    if keep.sum() < 4:
        raise TooFewPoints(
            f"only {int(keep.sum())} profile rows after excluding the lowest "
            f"{FIT_EXCLUDE_LOWEST} indices")

    non_generic = edge.classification == EdgeClassification.EDGE_EIGENVALUE
    checks = [
        _check("eigenvalue-offsets", np.column_stack([k1, offs]), 2.0,
               "k+1", "|lambda_k - e0|"),
    ]
    if non_generic:
        checks.append(_check(
            "boundary-weights", np.column_stack([k1, wts]), 0.0,
            "k+1", "a_k", note="non-generic signature: flat weight profile"))
    else:
        checks.append(_check(
            "boundary-weights", np.column_stack([k1, wts]), 2.0, "k+1", "a_k"))

    lam = edge.e0 + profile.offsets
    spacings = np.abs(np.diff(lam))
    ks = profile.k[:-1]
    keep_s = ks >= FIT_EXCLUDE_LOWEST
    if keep_s.sum() >= 4:
        checks.append(_check(
            "eigenvalue-spacings",
            np.column_stack([ks[keep_s] + 1.0, spacings[keep_s]]), 1.0,
            "k+1", "lambda_{k+1} - lambda_k"))

    if resonances is not None:
        rs = [r for r in resonances if r.n >= FIT_EXCLUDE_LOWEST]
        if len(rs) < 4:
            raise TooFewPoints(f"only {len(rs)} resonances beyond index "
                               f"{FIT_EXCLUDE_LOWEST - 1}")
        pts = np.array([[r.n + 1.0, abs(r.z.imag)] for r in rs])
        checks.append(_check("resonance-widths", pts, 2.0, "n+1", "|Im z_n|"))

    return ScalingReport(
        edge_energy=edge.e0,
        edge_classification=edge.classification.value,
        L=sd.L,
        checks=tuple(checks),
        non_generic=non_generic,
    )


def l_scaling(samples, require_same_n: bool = True) -> PowerLawFit:
    """Fit |Im z| against L over a fixed-residue family of section lengths.

    `samples` holds (L, j, Resonance) triples; all residues j must agree, and
    by default all local indices n as well (pass require_same_n=False for the
    proportional-index track where n grows with L).
    """
    samples = list(samples)
    if len(samples) < 3:
        raise TooFewPoints(f"need at least 3 lengths, got {len(samples)}")
    js = {j for _, j, _ in samples}
    if len(js) > 1:
        raise MixedResidues(f"samples mix residues {sorted(js)}")
    if require_same_n:
        ns = {r.n for _, _, r in samples}
        if len(ns) > 1:
            raise ValueError(f"samples mix local indices {sorted(ns)}")
    pts = np.array([[float(L), abs(r.z.imag)] for L, _, r in samples])
    order = np.argsort(pts[:, 0])
    return fit_power_law(pts[order], x_name="L", y_name="|Im z_n|",
                         min_points=3)


@dataclass(frozen=True)
class SeedAccuracy:
    """Seed-error ratios |z - seed| * L^5 |alpha|^3 / (n+1)^4 per resonance."""

    L: int
    n: np.ndarray
    seed_error: np.ndarray
    ratio: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratio))


def seed_accuracy(resonances: list[Resonance], L: int) -> SeedAccuracy:
    if not resonances:
        raise TooFewPoints("no resonances given")
    ns = np.array([r.n for r in resonances], dtype=int)
    err = np.array([abs(r.z - r.seed) for r in resonances])
    alph = np.array([abs(r.alpha_n) for r in resonances])
    ratio = err * float(L) ** 5 * alph ** 3 / (ns + 1.0) ** 4
    return SeedAccuracy(L=L, n=ns, seed_error=err, ratio=ratio)
