"""Transfer-matrix algebra for periodic Jacobi (discrete Schroedinger) operators.

Everything here concerns the whole-line operator with a period-p potential:
the monodromy matrix and its trace (the discriminant), the decomposition of
the spectrum into bands, the quasi-momentum normalised as pi times the
integrated density of states, the boundary phase correction entering the
finite-volume quantization rule, and the classification of band edges by
which polynomial data vanish there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateS,
    EdgeSingularity,
    NotAnEdge,
    OutsideSpectrum,
    RootFindingFailure,
)
from .potential import PeriodicPotential

__all__ = [
    "BandStructure",
    "EdgePoint",
    "EdgeData",
    "EdgeClassification",
    "product_matrix",
    "monodromy",
    "discriminant_coeffs",
    "band_structure",
    "quasi_momentum",
    "density_of_states",
    "h_j",
    "h_values",
    "classify_edge",
]


# ---------------------------------------------------------------------------
# Transfer products as polynomials in E


@lru_cache(maxsize=64)
def _partial_product_polys(V: PeriodicPotential):
    """Ascending-coefficient entries of T_{k-1}...T_0 for k = 0 .. p.

    The one engine behind every transfer product: returned as a tuple over k
    of 2x2 nested tuples of float arrays, index p being the monodromy at
    base site 0.  Multiplying by T_l = ((E - v_l, -1), (1, 0)) maps the rows
    (top, bottom) to ((E - v_l) top - bottom, top), so det T_l = 1 exactly.
    """
    one = np.array([1.0])
    zero = np.array([0.0])
    top, bottom = (one, zero), (zero, one)
    out = [(top, bottom)]
    for v in V.values:
        top, bottom = tuple(npoly.polysub(npoly.polymul([-v, 1.0], t), b)
                            for t, b in zip(top, bottom)), top
        out.append((top, bottom))
    return tuple(out)


def product_matrix(V: PeriodicPotential, E, k: int) -> np.ndarray:
    """Partial product T_{k-1}(E)...T_0(E) as a 2x2 array; k = 0 gives the identity.

    Top row holds the depth-k polynomials, bottom row the depth-(k-1) ones;
    the cross determinant of the rows is 1.  An array E gives shape
    (2, 2) + E.shape.
    """
    if not 0 <= k <= V.period:
        raise ValueError(f"k must be in [0, {V.period}], got {k}")
    return np.array([[npoly.polyval(E, c) for c in row]
                     for row in _partial_product_polys(V)[k]])


def monodromy(V: PeriodicPotential, E, k: int = 0) -> np.ndarray:
    """One-period product T_{k+p-1}(E)...T_k(E); its trace does not depend on k."""
    if not 0 <= k <= V.period - 1:
        raise ValueError(f"k must be in [0, {V.period - 1}], got {k}")
    rotated = PeriodicPotential.from_values(V.values[k:] + V.values[:k])
    return product_matrix(rotated, E, V.period)


def discriminant_coeffs(V: PeriodicPotential) -> np.ndarray:
    """Ascending real coefficients of the discriminant; monic of degree p."""
    Mp = _partial_product_polys(V)[V.period]
    return npoly.polyadd(Mp[0][0], Mp[1][1])


def _abs_polyval(coeffs: np.ndarray, x) -> float:
    # magnitude scale of a polynomial evaluation at |x|; a check against a
    # scale that overflows to inf certifies nothing, so it is refused
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(npoly.polyval(abs(x), np.abs(coeffs))) + 1e-300
    if not np.isfinite(scale):
        raise RootFindingFailure(
            f"polynomial magnitude scale overflows at E = {x:.17g}")
    return scale


# ---------------------------------------------------------------------------
# Band structure


@dataclass(frozen=True)
class EdgePoint:
    energy: float
    band_index: int
    side: str  # "left" | "right"


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Bands of the whole-line spectrum with closed-gap bookkeeping.

    Immutable after construction and shareable between threads.
    """

    bands: tuple[tuple[float, float], ...]
    closed_gap_counts: tuple[int, ...]
    closed_gap_points: tuple[tuple[float, ...], ...]
    discriminant_coeffs: np.ndarray  # ascending, monic degree p
    edge_points: tuple[EdgePoint, ...]
    band_bases: tuple[int, ...]  # cumulative (1 + c_i) below each band
    segment_down: tuple[tuple[bool, ...], ...]  # per band, per monotone segment

    @property
    def period(self) -> int:
        return len(self.discriminant_coeffs) - 1

    def discriminant_at(self, E):
        return npoly.polyval(E, self.discriminant_coeffs)

    def discriminant_derivative_at(self, E):
        return npoly.polyval(E, npoly.polyder(self.discriminant_coeffs))

    def nearest_edge(self, E: float) -> EdgePoint:
        """The recorded edge nearest to E (not the first within a tolerance,
        which can miss a narrow band's right edge); callers test their own."""
        return min(self.edge_points, key=lambda ep: abs(ep.energy - E))

    def locate(self, E: float):
        """Index of the band containing E (within 1e-12), else None."""
        atol = 1e-12 * max(1.0, abs(E))
        for i, (lo, hi) in enumerate(self.bands):
            if lo - atol <= E <= hi + atol:
                return i
        return None


def _polish_real_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # Newton from a double root can overflow or divide by ~0; the best-|f|
    # tracking skips every non-finite iterate, so the warnings carry nothing
    with np.errstate(all="ignore"):
        der = npoly.polyder(coeffs)
        r = roots.copy()
        best = r.copy()
        best_f = np.abs(npoly.polyval(r, coeffs))
        for _ in range(60):
            f = npoly.polyval(r, coeffs)
            fp = npoly.polyval(r, der)
            fp = np.where(np.abs(fp) < 1e-300, 1e-300, fp)
            step = f / fp
            r = r - step
            fr = np.abs(npoly.polyval(r, coeffs))
            imp = fr < best_f
            best[imp] = r[imp]
            best_f[imp] = fr[imp]
            if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(r))):
                break
    return best


def band_structure(V: PeriodicPotential) -> BandStructure:
    """Decompose the spectrum {|discriminant| <= 2} into bands.

    The p roots of discriminant - 2 (periodic eigenvalues) and the p roots
    of discriminant + 2 (antiperiodic ones) are sorted separately; band k
    runs between the k-th root of each list.  The gap between bands k and
    k+1 is closed when its edges lie within 1e-6 of each other and, at
    their mean, the discriminant's derivative and the monodromy's
    off-diagonal entries vanish; a closed gap merges the two bands and its
    mean becomes a closed-gap point.  Overlapping bands, or a gap of no
    width that is not closed, mean a root was lost and are refused.
    """
    coeffs = discriminant_coeffs(V)
    p = V.period
    Mp = _partial_product_polys(V)[p]
    der = npoly.polyder(coeffs)

    def is_closed(r: float) -> bool:
        # each scale first: a finite scale bounds the value it belongs to
        d_scale = _abs_polyval(np.abs(der), r)
        dval = abs(npoly.polyval(r, der))
        off_scale = max(_abs_polyval(Mp[0][1], r), _abs_polyval(Mp[1][0], r))
        off_hi = abs(float(npoly.polyval(r, Mp[0][1])))
        off_lo = abs(float(npoly.polyval(r, Mp[1][0])))
        return bool(dval <= 1e-8 * d_scale
                    and max(off_hi, off_lo) <= 1e-8 * off_scale)

    roots = []
    for shift in (2.0, -2.0):
        c = coeffs.copy()
        c[0] -= shift
        polished = _polish_real_roots(c, np.roots(c[::-1]).real)
        scale = np.array([_abs_polyval(np.abs(c), r) for r in polished])
        resid = np.abs(npoly.polyval(polished, c))
        bad = ~(resid <= 1e-12 * scale)  # a NaN residual fails too
        if bad.any():
            raise RootFindingFailure(
                f"root polish residual {resid[bad].max():.3e} at "
                f"{polished[bad][0]:.17g} exceeds tolerance")
        roots.append(np.sort(polished))

    lows, highs = np.minimum(*roots), np.maximum(*roots)
    bands: list[tuple[float, float]] = []
    cg_points: list[tuple[float, ...]] = []
    bases: list[int] = []  # index k of each band's lowest constituent
    for k in range(p):
        lo, hi = float(lows[k]), float(highs[k])
        if k:
            prev = float(highs[k - 1])
            mid = float(np.mean([prev, lo]))
            if lo - prev <= 1e-6 * (1.0 + abs(lo)) and is_closed(mid):
                bands[-1] = (bands[-1][0], hi)
                cg_points[-1] += (mid,)
                continue
            if lo < prev:
                raise RootFindingFailure(
                    f"bands overlap: {prev:.17g} > {lo:.17g}")
            if lo == prev:
                raise RootFindingFailure(
                    f"gap at {lo:.17g} has no width and is not closed")
        bands.append((lo, hi))
        cg_points.append(())
        bases.append(k)
    counts = tuple(len(c) for c in cg_points)

    seg_down = []
    for (lo, hi), gs in zip(bands, cg_points):
        brk = (lo,) + gs
        seg_down.append(tuple(float(npoly.polyval(b, coeffs)) > 0 for b in brk))

    edge_pts = []
    for i, (lo, hi) in enumerate(bands):
        edge_pts.append(EdgePoint(lo, i, "left"))
        edge_pts.append(EdgePoint(hi, i, "right"))

    return BandStructure(
        bands=tuple(bands),
        closed_gap_counts=counts,
        closed_gap_points=tuple(cg_points),
        discriminant_coeffs=coeffs,
        edge_points=tuple(edge_pts),
        band_bases=tuple(bases),
        segment_down=tuple(seg_down),
    )


# ---------------------------------------------------------------------------
# Quasi-momentum and density of states


def _theta_band(bs: BandStructure, band_index: int, E: np.ndarray) -> np.ndarray:
    """Quasi-momentum for energies inside band `band_index` (vectorised)."""
    lo, hi = bs.bands[band_index]
    p = bs.period
    brk = np.array((lo,) + bs.closed_gap_points[band_index] + (hi,))
    E = np.clip(E, lo, hi)
    seg = np.clip(np.searchsorted(brk, E, side="right") - 1, 0, len(brk) - 2)
    d = np.clip(bs.discriminant_at(E) / 2.0, -1.0, 1.0)
    down = np.array(bs.segment_down[band_index])[seg]
    phi = np.where(down, np.arccos(d), np.arccos(-d))
    th = ((bs.band_bases[band_index] + seg) * np.pi + phi) / p
    # arccos amplifies the discriminant residual like a square root right at
    # the segment ends; points sitting on a breakpoint get the exact grid value
    for i, b in enumerate(brk):
        snap = np.abs(E - b) <= 1e-12 * (1.0 + abs(b))
        if snap.any():
            th[snap] = (bs.band_bases[band_index] + i) * np.pi / p
    return th


def quasi_momentum(bs: BandStructure, E: float) -> float:
    """Non-decreasing quasi-momentum, 0 at the spectrum bottom, pi at the top.

    Equals pi times the integrated density of states; closed gaps are passed
    through without a jump.
    """
    idx = bs.locate(E)
    if idx is None:
        raise OutsideSpectrum(f"E = {E} is not inside any band")
    return float(_theta_band(bs, idx, np.asarray([E], dtype=float))[0])


def density_of_states(bs: BandStructure, E: float) -> float:
    """Density of states at an energy strictly inside a band."""
    idx = bs.locate(E)
    if idx is None:
        raise OutsideSpectrum(f"E = {E} is not inside any band")
    delta = float(bs.discriminant_at(E))
    g = 4.0 - delta * delta
    if g <= 1e-14:
        raise EdgeSingularity(f"density of states diverges at E = {E}")
    dprime = float(bs.discriminant_derivative_at(E))
    return abs(dprime) / (bs.period * np.pi * np.sqrt(g))


# ---------------------------------------------------------------------------
# Boundary phase correction


def _phase_factor(bs: BandStructure, band_index: int, E: np.ndarray) -> np.ndarray:
    """Unimodular monodromy eigenvalue exp(i p (theta_p - pi)).

    Measuring the phase from the top of the band grid keeps the factor an
    actual eigenvalue of the monodromy for every period parity (it satisfies
    rho + 1/rho = discriminant).
    """
    th = _theta_band(bs, band_index, E)
    return np.exp(1j * bs.period * (th - np.pi))


def _s_values(V, bs, j, band_index, E):
    Mp = product_matrix(V, E, V.period)
    a_j1, b_j1 = product_matrix(V, E, j + 1)[0]
    rho = _phase_factor(bs, band_index, E)
    return a_j1 * (rho - Mp[0, 0]) - b_j1 * Mp[1, 0]


def _centered_mod_pi(x: np.ndarray) -> np.ndarray:
    return (x + np.pi / 2.0) % np.pi - np.pi / 2.0


def h_values(V: PeriodicPotential, bs: BandStructure, j: int,
             energies) -> np.ndarray:
    """Boundary phase at several energies inside one band, one common branch.

    The phase is defined modulo pi; values returned by a single call are
    continuously unwrapped along the band from its low edge, so differences
    between them are branch-independent.  A vanishing phase numerator along
    the unwrap path (as happens at closed gaps of degenerate potentials)
    raises DegenerateS.
    """
    if not 0 <= j <= V.period - 1:
        raise ValueError(f"j must be in [0, {V.period - 1}], got {j}")
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if energies.size == 0:
        return np.zeros(0)
    if np.any(np.diff(energies) < 0):
        raise ValueError("energies must be sorted ascending")
    idx = bs.locate(energies[0])
    if idx is None:
        raise OutsideSpectrum(f"E = {energies[0]} is not inside any band")
    lo, hi = bs.bands[idx]
    width = hi - lo
    if energies[0] <= lo or energies[-1] >= hi:
        raise OutsideSpectrum("all energies must lie strictly inside one band")

    anchor = lo + 1e-9 * width
    if energies[0] < anchor:
        anchor = lo + 0.5 * (energies[0] - lo)
    path = np.unique(np.concatenate([
        np.linspace(anchor, energies[-1], 64), energies]))

    p = V.period
    tol_s = lambda e: 1e-13 * (1.0 + abs(e)) ** p

    def angles(pts):
        s = _s_values(V, bs, j, idx, pts)
        mags = np.abs(s)
        small = mags <= np.array([tol_s(e) for e in pts])
        if small.any():
            bad = pts[small][0]
            raise DegenerateS(f"phase numerator vanishes at E = {bad}")
        return np.angle(s)

    ang = angles(path)
    for _ in range(24):
        d = _centered_mod_pi(np.diff(ang))
        bad = np.abs(d) >= np.pi / 4.0
        if not bad.any():
            break
        mids = 0.5 * (path[:-1][bad] + path[1:][bad])
        path = np.unique(np.concatenate([path, mids]))
        ang = angles(path)
    else:
        raise DegenerateS("could not unwrap the boundary phase along the band")

    h_path = np.empty_like(ang)
    h_path[0] = ang[0]
    h_path[1:] = ang[0] + np.cumsum(_centered_mod_pi(np.diff(ang)))
    pos = np.searchsorted(path, energies)
    return h_path[pos]


def h_j(V: PeriodicPotential, bs: BandStructure, j: int, E: float) -> float:
    """Boundary phase at one energy strictly inside a band (branch mod pi)."""
    return float(h_values(V, bs, j, [E])[0])


# ---------------------------------------------------------------------------
# Band-edge classification


class EdgeClassification(str, Enum):
    GENERIC_A = "GenericA"
    GENERIC_B = "GenericB"
    NON_GENERIC = "NonGeneric"
    EDGE_EIGENVALUE = "EdgeEigenvalue"


@dataclass(frozen=True)
class EdgeData:
    """Polynomial data of one band edge for a given boundary residue j."""

    e0: float
    side: str
    band_index: int
    j: int
    a0_p_minus_1: float
    a0_p: float
    rho: float
    a_j1: float
    b_j1: float
    d_j1: float
    classification: EdgeClassification

    @property
    def is_generic(self) -> bool:
        """GenericA or GenericB: each near-edge eigenvalue has one resonance."""
        return self.classification in (EdgeClassification.GENERIC_A,
                                       EdgeClassification.GENERIC_B)


def classify_edge(V: PeriodicPotential, bs: BandStructure, e0: float,
                  j: int) -> EdgeData:
    """Evaluate the edge polynomials at e0 and classify the edge.

    The four classes are decided by which of the two polynomial values
    a0_{p-1}(e0) and d_{j+1} (respectively a_{j+1}(e0)) vanish, with a
    scale-aware zero tolerance; borderline magnitudes trigger a warning.
    """
    if not 0 <= j <= V.period - 1:
        raise ValueError(f"j must be in [0, {V.period - 1}], got {j}")
    match = bs.nearest_edge(e0)
    if not abs(match.energy - e0) <= 1e-9 * max(1.0, abs(e0)):
        raise NotAnEdge(f"{e0} is not within 1e-9 of a recorded band edge")
    E0 = match.energy

    Mp = product_matrix(V, E0, V.period)
    a0_pm1, a0_p = float(Mp[1, 0]), float(Mp[0, 0])
    a_j1, b_j1 = (float(x) for x in product_matrix(V, E0, j + 1)[0])
    rho = 1.0 if float(bs.discriminant_at(E0)) > 0 else -1.0
    d_j1 = a_j1 * (a0_p - rho) + b_j1 * a0_pm1

    tol = 1e-9 * (1.0 + abs(E0)) ** V.period
    for name, val in (("a0_p_minus_1", a0_pm1), ("a_j1", a_j1), ("d_j1", d_j1)):
        if tol < abs(val) < 10.0 * tol:
            warnings.warn(
                f"classify_edge: |{name}| = {abs(val):.3e} at E0 = {E0} is within "
                f"10x of the zero tolerance {tol:.3e}", stacklevel=2)

    if abs(a0_pm1) > tol:
        cls = (EdgeClassification.GENERIC_A if abs(d_j1) > tol
               else EdgeClassification.NON_GENERIC)
    else:
        cls = (EdgeClassification.GENERIC_B if abs(a_j1) > tol
               else EdgeClassification.EDGE_EIGENVALUE)

    return EdgeData(
        e0=E0, side=match.side, band_index=match.band_index, j=j,
        a0_p_minus_1=a0_pm1, a0_p=a0_p, rho=rho, a_j1=a_j1, b_j1=b_j1,
        d_j1=d_j1, classification=cls,
    )
