"""Transfer-matrix algebra for periodic Jacobi (discrete Schroedinger) operators.

Everything here concerns the whole-line operator with a period-p potential:
the monodromy matrix and its trace (the discriminant), the decomposition of
the spectrum into bands, the quasi-momentum normalised as pi times the
integrated density of states, and the classification of band edges by
which polynomial data vanish there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
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
    "band_structure",
    "quasi_momentum",
    "classify_edge",
]


# ---------------------------------------------------------------------------
# Transfer products


def product_matrix(V: PeriodicPotential, E, k: int) -> np.ndarray:
    """Partial product T_{k-1}(E)...T_0(E) as a 2x2 array; k = 0 gives the identity.

    Direct 2x2 products, vectorised over E: multiplying by
    T_l = ((E - v_l, -1), (1, 0)) maps the rows (top, bottom) to
    ((E - v_l) top - bottom, top), so det T_l = 1 exactly.  The top row holds
    the depth-k values, the bottom row the depth-(k-1) ones.  An array E
    gives shape (2, 2) + E.shape.
    """
    if not 0 <= k <= V.period:
        raise ValueError(f"k must be in [0, {V.period}], got {k}")
    E = np.asarray(E) + 0.0
    one, zero = np.ones_like(E), np.zeros_like(E)
    top, bottom = (one, zero), (zero, one)
    for v in V.values[:k]:
        top, bottom = tuple((E - v) * t - b for t, b in zip(top, bottom)), top
    return np.array([top, bottom])


def monodromy(V: PeriodicPotential, E, k: int = 0) -> np.ndarray:
    """One-period product T_{k+p-1}(E)...T_k(E); its trace does not depend on k."""
    if not 0 <= k <= V.period - 1:
        raise ValueError(f"k must be in [0, {V.period - 1}], got {k}")
    rotated = PeriodicPotential.from_values(V.values[k:] + V.values[:k])
    return product_matrix(rotated, E, V.period)


# ---------------------------------------------------------------------------
# Band structure

# A gap closes when its two edges agree within GAP_TOL (1 + max|E|), E over
# all edges.  On 9,000 random potentials of period <= 8 checked against
# 50-digit cell eigenvalues, eigvalsh put the two edges of a closed gap at
# most 1.0e-15 of that scale apart, and the narrowest open gap was 2.1e-11.
GAP_TOL = 1e-13


@dataclass(frozen=True)
class EdgePoint:
    energy: float
    band_index: int
    side: str  # "left" | "right"


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Bands of the whole-line spectrum with closed-gap bookkeeping.

    Carries its potential, so the discriminant and its derivative are direct
    transfer products.  Immutable after construction and shareable between
    threads.
    """

    potential: PeriodicPotential
    bands: tuple[tuple[float, float], ...]
    closed_gap_counts: tuple[int, ...]
    closed_gap_points: tuple[tuple[float, ...], ...]
    edge_points: tuple[EdgePoint, ...]
    band_bases: tuple[int, ...]  # cumulative (1 + c_i) below each band
    segment_down: tuple[tuple[bool, ...], ...]  # per band, per monotone segment

    @property
    def period(self) -> int:
        return self.potential.period

    def discriminant_at(self, E):
        M = product_matrix(self.potential, E, self.period)
        return M[0, 0] + M[1, 1]

    def discriminant_derivative_at(self, E):
        # the product rule along product_matrix's rows, with T_l' = diag(1, 0)
        E = np.asarray(E) + 0.0
        top, bottom = (1.0, 0.0), (0.0, 1.0)
        dtop, dbottom = (0.0, 0.0), (0.0, 0.0)
        for v in self.potential.values:
            top, bottom, dtop, dbottom = (
                tuple((E - v) * t - b for t, b in zip(top, bottom)), top,
                tuple((E - v) * dt + t - db
                      for t, dt, db in zip(top, dtop, dbottom)), dtop)
        return dtop[0] + dbottom[1]

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


def _cell_eigenvalues(V: PeriodicPotential, corner: float) -> np.ndarray:
    # one cell with unit couplings and the corner coupling +1 (periodic,
    # D = 2) or -1 (antiperiodic, D = -2), ascending
    p = V.period
    H = np.diag(V.values) + np.eye(p, k=1) + np.eye(p, k=-1)
    H[0, -1] += corner
    H[-1, 0] += corner
    return np.linalg.eigvalsh(H)


def band_structure(V: PeriodicPotential) -> BandStructure:
    """Decompose the spectrum {|discriminant| <= 2} into bands.

    The band edges are the eigenvalues of one cell with corner coupling +1
    (periodic) and -1 (antiperiodic), each list sorted; band k runs between
    the k-th value of each (Teschl, Jacobi Operators and Completely
    Integrable Nonlinear Lattices, ch. 7).  The gap above band k is closed
    when its two edges agree within GAP_TOL (1 + max|E|): the bands merge
    and the edges' mean becomes a closed-gap point.  Bands that overlap by
    more, or edges where a transfer product could overflow, are refused.
    """
    p = V.period
    per, anti = _cell_eigenvalues(V, 1.0), _cell_eigenvalues(V, -1.0)
    lows, highs = np.minimum(per, anti), np.maximum(per, anti)
    reach = max(abs(float(lows[0])), abs(float(highs[-1])))
    # each step T_l at E has row norm 1 + |E - v_l|, so every product entry
    # at an edge is bounded by (1 + reach + max|v|)^p; NaN fails the test too
    bound = p * math.log1p(reach + max(map(abs, V.values)))
    if not bound < math.log(np.finfo(float).max):
        raise RootFindingFailure(f"transfer products at the band edges "
                                 f"overflow (|E| up to {reach:.3e})")
    tol = GAP_TOL * (1.0 + reach)

    bands: list[tuple[float, float]] = []
    cg_points: list[tuple[float, ...]] = []
    bases: list[int] = []  # index k of each band's lowest constituent
    for k in range(p):
        lo, hi = float(lows[k]), float(highs[k])
        if k:
            prev = float(highs[k - 1])
            if abs(lo - prev) <= tol:
                bands[-1] = (bands[-1][0], hi)
                cg_points[-1] += (0.5 * (prev + lo),)
                continue
            if lo < prev:
                raise RootFindingFailure(
                    f"bands overlap: {prev:.17g} > {lo:.17g}")
        bands.append((lo, hi))
        cg_points.append(())
        bases.append(k)

    edge_pts = []
    for i, (lo, hi) in enumerate(bands):
        edge_pts.append(EdgePoint(lo, i, "left"))
        edge_pts.append(EdgePoint(hi, i, "right"))

    return BandStructure(
        potential=V,
        bands=tuple(bands),
        closed_gap_counts=tuple(len(c) for c in cg_points),
        closed_gap_points=tuple(cg_points),
        edge_points=tuple(edge_pts),
        band_bases=tuple(bases),
        # D is monic of degree p, so the lower edge of constituent k has
        # D = +2 exactly when p - k is even, and its upper edge D = -2
        segment_down=tuple(
            tuple((p - k - s) % 2 == 0 for s in range(1 + len(gs)))
            for k, gs in zip(bases, cg_points)),
    )


# ---------------------------------------------------------------------------
# Quasi-momentum


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


def classify_edge(V: PeriodicPotential, bs: BandStructure,
                  e0: float | EdgePoint, j: int) -> EdgeData:
    """Evaluate the edge polynomials at e0 and classify the edge.

    e0 is an energy, matched to the nearest recorded edge within 1e-9, or
    a recorded EdgePoint itself, which keeps the side of a band narrower
    than one ulp, whose two edges share one energy.  The four classes are
    decided by which of the two polynomial values a0_{p-1}(e0) and d_{j+1}
    (respectively a_{j+1}(e0)) vanish, with a scale-aware zero tolerance;
    borderline magnitudes trigger a warning.
    """
    if not 0 <= j <= V.period - 1:
        raise ValueError(f"j must be in [0, {V.period - 1}], got {j}")
    if isinstance(e0, EdgePoint):
        match = e0
        if match not in bs.edge_points:
            raise NotAnEdge(f"{match} is not a recorded band edge")
    else:
        match = bs.nearest_edge(e0)
        if not abs(match.energy - e0) <= 1e-9 * max(1.0, abs(e0)):
            raise NotAnEdge(f"{e0} is not within 1e-9 of a recorded band edge")
    E0 = match.energy

    Mp = product_matrix(V, E0, V.period)
    a0_pm1, a0_p = float(Mp[1, 0]), float(Mp[0, 0])
    a_j1, b_j1 = (float(x) for x in product_matrix(V, E0, j + 1)[0])
    # D = +2 at a left edge whose segment runs down, and at a right edge
    # whose last segment runs up
    down = bs.segment_down[match.band_index]
    right = match.side == "right"
    rho = 1.0 if (down[-1] if right else down[0]) != right else -1.0
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
