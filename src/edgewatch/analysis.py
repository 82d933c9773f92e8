"""Power-law fits and scaling reports for near-edge spectral data.

The asymptotic statements under test are all of the form y comparable to
x^s; we realise them as ordinary least squares on (log x, log y), with the
slope as the observable.  The lowest few indices are excluded from fits
(their log spacing is too coarse) but remain in the raw tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, TooFewPoints
from .floquet import BandStructure, EdgeClassification, EdgeData
from .resonance import Resonance
from .spectrum import SpectralData, weight_profile

__all__ = [
    "PowerLawFit",
    "ScalingCheck",
    "fit_power_law",
    "scaling_report",
    "check_l_lengths",
    "l_scaling",
    "seed_accuracy",
]

SLOPE_TOLERANCE = 0.3
# (expected slope, pass band) of |Im z_n| against L for the two l-scaling
# tracks: a fixed index n (width ~ L^-3) and n = floor(FRAC * L) (~ L^-1)
L_SCALING_SLOPES = {"fixed": (-3.0, SLOPE_TOLERANCE),
                    "proportional": (-1.0, 0.4)}
L_SCALING_MIN_LENGTHS = 3
FIT_EXCLUDE_LOWEST = 3  # indices n in {0, 1, 2} stay out of log-log fits


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float  # natural log of the prefactor
    r_squared: float
    n_points: int


def fit_power_law(points, min_points: int = 4) -> PowerLawFit:
    """Least squares on (log x, log y) for positive data; needs >= 4 points.

    The one owner of every fit's minimum (a NaN coordinate is not positive);
    the L-scaling tracks lower min_points to L_SCALING_MIN_LENGTHS.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be pairs (x, y)")
    if len(pts) < min_points:
        raise TooFewPoints(f"need at least {min_points} points, got {len(pts)}")
    if not np.all(pts > 0):
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
                       n_points=len(pts))


@dataclass(frozen=True)
class ScalingCheck:
    name: str
    fit: PowerLawFit
    expected_slope: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.fit.slope - self.expected_slope) <= self.tolerance


def _check(name, pts, expected, note=""):
    try:
        fit = fit_power_law(pts)
    except TooFewPoints as exc:
        raise TooFewPoints(f"{name}: {exc}") from None
    return ScalingCheck(name=name, fit=fit, expected_slope=expected,
                        tolerance=SLOPE_TOLERANCE, note=note)


def scaling_report(sd: SpectralData, resonances: list[Resonance] | None,
                   edge: EdgeData, bs: BandStructure,
                   eps: float = 0.2) -> tuple[ScalingCheck, ...]:
    """The checks of the near-edge laws: eigenvalue offsets, weights,
    spacings, widths.

    Generic edges expect slopes (2, 2, 1, 2) against the index; an
    edge-eigenvalue (non-generic) edge expects a flat weight profile instead,
    which is flagged as a signature rather than a failure.  Resonances are
    optional; without them the width fit is skipped.  The asymptotics hold
    only at edges inside (-2, 2), which check_step_inputs owns.
    """
    profile = weight_profile(sd, edge, eps, bs=bs)
    keep = profile.k >= FIT_EXCLUDE_LOWEST
    k1 = profile.k[keep] + 1.0
    offs = np.abs(profile.offsets[keep])
    wts = profile.weights_end[keep]

    checks = [
        _check("eigenvalue-offsets", np.column_stack([k1, offs]), 2.0),
    ]
    if edge.classification == EdgeClassification.EDGE_EIGENVALUE:
        checks.append(_check(
            "boundary-weights", np.column_stack([k1, wts]), 0.0,
            note="non-generic signature: flat weight profile"))
    else:
        checks.append(_check(
            "boundary-weights", np.column_stack([k1, wts]), 2.0))

    lam = edge.e0 + profile.offsets
    spacings = np.abs(np.diff(lam))
    ks = profile.k[:-1]
    keep_s = ks >= FIT_EXCLUDE_LOWEST
    if keep_s.sum() >= 4:
        checks.append(_check(
            "eigenvalue-spacings",
            np.column_stack([ks[keep_s] + 1.0, spacings[keep_s]]), 1.0))

    if resonances is not None:
        pts = np.array([[r.n + 1.0, abs(r.z.imag)] for r in resonances
                        if r.n >= FIT_EXCLUDE_LOWEST]).reshape(-1, 2)
        checks.append(_check("resonance-widths", pts, 2.0))

    return tuple(checks)


def check_l_lengths(pairs: list[tuple[int, int]]) -> int:
    """Refuse (L, j = L mod p) pairs with fewer than L_SCALING_MIN_LENGTHS
    lengths, a repeated length or two residues j; return the residue.  The
    one owner of these rules, run by l_scaling and before any section."""
    lengths = [L for L, _ in pairs]
    if len(lengths) < L_SCALING_MIN_LENGTHS:
        raise ValueError(f"l-scaling needs at least {L_SCALING_MIN_LENGTHS} "
                         f"lengths, got {len(lengths)}")
    if len(set(lengths)) < len(lengths):
        raise ValueError(f"the length list {lengths} repeats a length")
    residues = sorted({j for _, j in pairs})
    if len(residues) > 1:
        raise ValueError(f"the length list {lengths} mixes residues L mod p: "
                         f"{residues}")
    return residues[0]


def l_scaling(samples, track: str) -> ScalingCheck:
    """Fit |Im z| against L over a fixed-residue family of section lengths.

    `samples` holds (L, j, Resonance) triples, whose (L, j) must pass
    check_l_lengths; on the "fixed" track all local indices n must agree
    ("proportional" lets n grow with L).  The expected slope and its pass
    band are L_SCALING_SLOPES[track].
    """
    expected, band = L_SCALING_SLOPES[track]
    samples = list(samples)
    check_l_lengths([(L, j) for L, j, _ in samples])
    if track == "fixed":
        ns = {r.n for _, _, r in samples}
        if len(ns) > 1:
            raise ValueError(f"samples mix local indices {sorted(ns)}")
    pts = np.array([[float(L), abs(r.z.imag)] for L, _, r in samples])
    order = np.argsort(pts[:, 0])
    return ScalingCheck(name=track,
                        fit=fit_power_law(pts[order],
                                          min_points=L_SCALING_MIN_LENGTHS),
                        expected_slope=expected, tolerance=band)


def seed_accuracy(resonances: list[Resonance], L: int) -> np.ndarray:
    """Seed-error ratios |z - seed| * L^5 |alpha|^3 / (n+1)^4 per resonance."""
    if not resonances:
        raise TooFewPoints("no resonances given")
    ns = np.array([r.n for r in resonances], dtype=int)
    err = np.array([abs(r.z - r.seed) for r in resonances])
    alph = np.array([abs(r.alpha_n) for r in resonances])
    return err * float(L) ** 5 * alph ** 3 / (ns + 1.0) ** 4
