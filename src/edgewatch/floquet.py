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
    "Matrix2",
    "BandStructure",
    "EdgePoint",
    "EdgeData",
    "EdgeClassification",
    "transfer_matrix",
    "product_matrix",
    "monodromy",
    "discriminant",
    "discriminant_coeffs",
    "band_structure",
    "quasi_momentum",
    "density_of_states",
    "h_j",
    "h_values",
    "classify_edge",
]


# ---------------------------------------------------------------------------
# 2x2 matrices and their polynomial-entry counterparts


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 complex matrix; transfer products keep |det - 1| at roundoff."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> complex:
        return self.m11 + self.m22

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)


def transfer_matrix(V: PeriodicPotential, E, l: int) -> Matrix2:
    """One-step transfer matrix ((E - v_l, -1), (1, 0)); det is exactly 1."""
    if l < 0:
        raise ValueError(f"site index must be >= 0, got {l}")
    v = V.value_at(l)
    return Matrix2(E - v, -1.0, 1.0, 0.0)


def product_matrix(V: PeriodicPotential, E, k: int) -> Matrix2:
    """Partial product T_{k-1}(E)...T_0(E); k = 0 gives the identity.

    Top row holds the depth-k polynomials, bottom row the depth-(k-1) ones;
    the cross determinant of the rows is 1.
    """
    if not 0 <= k <= V.period:
        raise ValueError(f"k must be in [0, {V.period}], got {k}")
    M = Matrix2.identity()
    for l in range(k):
        M = transfer_matrix(V, E, l) @ M
    return M


def monodromy(V: PeriodicPotential, E, k: int = 0) -> Matrix2:
    """One-period product T_{k+p-1}(E)...T_k(E); its trace does not depend on k."""
    if not 0 <= k <= V.period - 1:
        raise ValueError(f"k must be in [0, {V.period - 1}], got {k}")
    M = Matrix2.identity()
    for l in range(k, k + V.period):
        M = transfer_matrix(V, E, l) @ M
    return M


def discriminant(V: PeriodicPotential, E):
    """Trace of the one-period transfer product; real for real energies."""
    tr = monodromy(V, E, 0).trace()
    if isinstance(E, complex) or np.iscomplexobj(E):
        return tr
    return float(tr.real)


@lru_cache(maxsize=64)
def _partial_product_polys(V: PeriodicPotential):
    """Ascending-coefficient entries of T_{k-1}...T_0 for k = 0 .. p.

    Returned as a tuple over k of 2x2 nested tuples of float arrays, exactly
    the convention of :func:`product_matrix`; index p is the monodromy at
    base site 0.  Multiplying by T_l = ((E - v_l, -1), (1, 0)) maps the rows
    (top, bottom) to ((E - v_l) top - bottom, top).
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


def discriminant_coeffs(V: PeriodicPotential) -> np.ndarray:
    """Ascending real coefficients of the discriminant; monic of degree p."""
    Mp = _partial_product_polys(V)[V.period]
    return npoly.polyadd(Mp[0][0], Mp[1][1])


def _abs_polyval(coeffs: np.ndarray, x) -> float:
    # magnitude scale of a polynomial evaluation at |x|
    return float(npoly.polyval(abs(x), np.abs(coeffs))) + 1e-300


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

    def locate(self, E: float, tol: float = 1e-12):
        """Index of the band containing E (within tol), else None."""
        atol = tol * max(1.0, abs(E))
        for i, (lo, hi) in enumerate(self.bands):
            if lo - atol <= E <= hi + atol:
                return i
        return None


def _polish_real_roots(coeffs_desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    der = np.polyder(coeffs_desc)
    r = roots.copy()
    best = r.copy()
    best_f = np.abs(np.polyval(coeffs_desc, r))
    for _ in range(60):
        f = np.polyval(coeffs_desc, r)
        fp = np.polyval(der, r)
        fp = np.where(np.abs(fp) < 1e-300, 1e-300, fp)
        step = f / fp
        r = r - step
        fr = np.abs(np.polyval(coeffs_desc, r))
        imp = fr < best_f
        best[imp] = r[imp]
        best_f[imp] = fr[imp]
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(r))):
            break
    return best


def _cluster(roots: np.ndarray) -> list[float]:
    if roots.size == 0:
        return []
    rs = np.sort(roots)
    groups = [[rs[0]]]
    for x in rs[1:]:
        if x - groups[-1][-1] <= 1e-6 * (1.0 + abs(x)):
            groups[-1].append(x)
        else:
            groups.append([x])
    return [float(np.mean(g)) for g in groups]


def band_structure(V: PeriodicPotential) -> BandStructure:
    """Decompose the spectrum {|discriminant| <= 2} into bands.

    Edges are the real roots of discriminant -+ 2 where the monodromy is not
    diagonal; roots with vanishing derivative and diagonal monodromy are
    closed gaps interior to a band.
    """
    coeffs = discriminant_coeffs(V)
    coeffs_desc = coeffs[::-1]
    p = V.period
    Mp = _partial_product_polys(V)[p]
    der_desc = np.polyder(coeffs_desc)

    candidates: list[float] = []
    for shift in (2.0, -2.0):
        c = coeffs.copy()
        c[0] -= shift
        raw = np.roots(c[::-1])
        real = raw[np.abs(raw.imag) <= 1e-6 * (1.0 + np.abs(raw.real))].real
        if real.size == 0:
            continue
        polished = _polish_real_roots(c[::-1], real)
        resid = np.abs(np.polyval(c[::-1], polished))
        scale = np.array([_abs_polyval(np.abs(c), r) for r in polished])
        bad = resid > 1e-12 * scale
        if bad.any():
            raise RootFindingFailure(
                f"root polish residual {resid[bad].max():.3e} at "
                f"{polished[bad][0]:.17g} exceeds tolerance")
        candidates.extend(_cluster(polished))

    edges: list[float] = []
    gaps: list[float] = []
    for r in sorted(candidates):
        dval = abs(np.polyval(der_desc, r))
        d_scale = _abs_polyval(np.abs(der_desc[::-1]), r)
        off_hi = abs(float(npoly.polyval(r, Mp[0][1])))
        off_lo = abs(float(npoly.polyval(r, Mp[1][0])))
        off_scale = max(_abs_polyval(Mp[0][1], r), _abs_polyval(Mp[1][0], r))
        if dval <= 1e-8 * d_scale and max(off_hi, off_lo) <= 1e-8 * off_scale:
            gaps.append(r)
        else:
            edges.append(r)

    if len(edges) % 2 != 0 or not edges:
        raise RootFindingFailure(
            f"could not pair {len(edges)} band edges for potential {V.values}")

    bands = [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]
    # sanity: |discriminant| <= 2 inside bands, > 2 inside open gaps
    for lo, hi in bands:
        mid = 0.5 * (lo + hi)
        if abs(npoly.polyval(mid, coeffs)) > 2.0 + 1e-9:
            raise RootFindingFailure(f"band midpoint {mid} is outside the spectrum")
    for (_, hi), (lo2, _) in zip(bands[:-1], bands[1:]):
        mid = 0.5 * (hi + lo2)
        if abs(npoly.polyval(mid, coeffs)) <= 2.0 - 1e-9:
            raise RootFindingFailure(f"gap midpoint {mid} is inside the spectrum")

    cg_points = []
    for lo, hi in bands:
        cg_points.append(tuple(g for g in gaps if lo < g < hi))
    stray = [g for g in gaps if not any(lo < g < hi for lo, hi in bands)]
    if stray:
        raise RootFindingFailure(f"closed-gap point {stray[0]} not interior to any band")
    counts = tuple(len(c) for c in cg_points)

    if sum(1 + c for c in counts) != p:
        raise RootFindingFailure(
            f"band bookkeeping mismatch: sum(1+c_i) = {sum(1 + c for c in counts)} != p = {p}")

    bases = []
    acc = 0
    for c in counts:
        bases.append(acc)
        acc += 1 + c
    seg_down = []
    for (lo, hi), gs in zip(bands, cg_points):
        brk = (lo,) + gs
        seg_down.append(tuple(float(npoly.polyval(b, coeffs)) > 0 for b in brk))

    edge_pts = []
    for i, (lo, hi) in enumerate(bands):
        edge_pts.append(EdgePoint(lo, i, "left"))
        edge_pts.append(EdgePoint(hi, i, "right"))

    return BandStructure(
        bands=tuple((float(lo), float(hi)) for lo, hi in bands),
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
    idx = bs.locate(E, tol=1e-12)
    if idx is None:
        raise OutsideSpectrum(f"E = {E} is not inside any band")
    return float(_theta_band(bs, idx, np.asarray([E], dtype=float))[0])


def density_of_states(bs: BandStructure, E: float) -> float:
    """Density of states at an energy strictly inside a band."""
    idx = bs.locate(E, tol=1e-12)
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
    polys = _partial_product_polys(V)
    Mp = polys[V.period]
    a_j1 = polys[j + 1][0][0]
    b_j1 = polys[j + 1][0][1]
    rho = _phase_factor(bs, band_index, E)
    return (npoly.polyval(E, a_j1) * (rho - npoly.polyval(E, Mp[0][0]))
            - npoly.polyval(E, b_j1) * npoly.polyval(E, Mp[1][0]))


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
    idx = bs.locate(energies[0], tol=1e-12)
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


def classify_edge(V: PeriodicPotential, bs: BandStructure, e0: float,
                  j: int) -> EdgeData:
    """Evaluate the edge polynomials at e0 and classify the edge.

    The four classes are decided by which of the two polynomial values
    a0_{p-1}(e0) and d_{j+1} (respectively a_{j+1}(e0)) vanish, with a
    scale-aware zero tolerance; borderline magnitudes trigger a warning.
    """
    if not 0 <= j <= V.period - 1:
        raise ValueError(f"j must be in [0, {V.period - 1}], got {j}")
    match = None
    for ep in bs.edge_points:
        if abs(ep.energy - e0) <= 1e-9 * max(1.0, abs(e0)):
            match = ep
            break
    if match is None:
        raise NotAnEdge(f"{e0} is not within 1e-9 of a recorded band edge")
    E0 = match.energy

    polys = _partial_product_polys(V)
    Mp = polys[V.period]
    a0_pm1 = float(npoly.polyval(E0, Mp[1][0]))
    a0_p = float(npoly.polyval(E0, Mp[0][0]))
    a_j1 = float(npoly.polyval(E0, polys[j + 1][0][0]))
    b_j1 = float(npoly.polyval(E0, polys[j + 1][0][1]))
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
