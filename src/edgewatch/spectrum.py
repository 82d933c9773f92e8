"""Finite Dirichlet sections and their spectral data.

The truncated operator is an (L+1) x (L+1) symmetric tridiagonal matrix with
unit off-diagonals.  Only the boundary components of the eigenvectors are
retained: the pair (eigenvalue, squared last component) fully determines the
resonances downstream, and the squared first component feeds the edge
classification cross-checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from . import floquet
from .errors import (
    AmbiguousAssignment,
    ConvergenceFailure,
    TooFewPoints,
)
from .floquet import BandStructure, EdgeData
from .potential import PeriodicPotential

__all__ = [
    "TridiagonalOperator",
    "SpectralData",
    "WeightProfile",
    "assemble",
    "eigensystem",
    "band_enumerate",
    "quantization_residuals",
    "weight_profile",
]

# beyond this size the resonance sums (numpy pairwise summation) are still
# correct but the tiny near-edge weights start losing relative accuracy in
# double precision
L_SOFT_CAP = 4000
EIGENVALUE_TOL = 1e-13  # bisection tolerance, relative to the spectral radius
# band-membership slack of band_enumerate (times max(1, |lambda|)) and the
# band-edge margin of quantization_residuals
BAND_TOL = 1e-9


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal section: diagonal values and unit couplings."""

    diag: np.ndarray
    period: int

    @property
    def L(self) -> int:
        return len(self.diag) - 1

    def spectral_radius_bound(self) -> float:
        return 2.0 + float(np.max(np.abs(self.diag)))


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues and boundary weights of one Dirichlet section."""

    L: int
    j: int
    lambdas: np.ndarray       # strictly increasing, length L+1
    weights_end: np.ndarray   # |phi_k(L)|^2
    weights_start: np.ndarray  # |phi_k(0)|^2
    band_of: np.ndarray | None = None      # band index, -1 outside
    local_index: np.ndarray | None = None  # 0-based within band, -1 outside

    @property
    def n_outside(self) -> int:
        if self.band_of is None:
            raise ValueError("band_enumerate has not been run")
        return int(np.sum(self.band_of < 0))

    @cached_property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.lambdas))))

    def band_members(self, band: int) -> np.ndarray:
        """Global indices of the eigenvalues in `band`, by local index."""
        if self.band_of is None:
            raise ValueError("band_enumerate has not been run")
        idx = np.where(self.band_of == band)[0]
        return idx[np.argsort(self.local_index[idx])]


def assemble(V: PeriodicPotential, L: int) -> TridiagonalOperator:
    """Dirichlet section on sites 0..L: diagonal v_{n mod p}, couplings 1."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    diag = np.array(V.sampled(L + 1), dtype=float)
    return TridiagonalOperator(diag=diag, period=V.period)


def _newton_polish(diag: np.ndarray, lam: np.ndarray, abs_tol: float) -> np.ndarray:
    """Two Newton passes on the characteristic recurrence, all shifts at once.

    The recurrence is rescaled every step so the correction p/p' stays
    representable for sections of any length.
    """
    n = len(diag)
    out = lam.copy()
    for _ in range(2):
        p_prev = np.ones_like(out)
        p_cur = diag[0] - out
        d_prev = np.zeros_like(out)
        d_cur = -np.ones_like(out)
        for i in range(1, n):
            a = diag[i] - out
            p_new = a * p_cur - p_prev
            d_new = a * d_cur - p_cur - d_prev
            m = np.maximum(np.maximum(np.abs(p_new), np.abs(d_new)), 1.0)
            p_prev, p_cur = p_cur / m, p_new / m
            d_prev, d_cur = d_cur / m, d_new / m
        safe = np.abs(d_cur) > 1e-300
        corr = np.zeros_like(out)
        corr[safe] = p_cur[safe] / d_cur[safe]
        corr = np.clip(corr, -10.0 * abs_tol, 10.0 * abs_tol)
        out = out - corr
    return out


def _solve_shifted(diag: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    n = len(diag)
    dl = np.ones(n - 1)
    du = np.ones(n - 1)
    d = diag - shift
    _, _, _, x, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info != 0 or not np.all(np.isfinite(x)):
        raise FloatingPointError("singular shifted solve")
    return x


def eigensystem(H: TridiagonalOperator, seed: int = 0) -> SpectralData:
    """All eigenvalues and eigenvector boundary weights of the section.

    Eigenvalues come from Sturm-sequence bisection followed by a Newton
    polish on the characteristic recurrence; boundary components come from
    two rounds of inverse iteration started from a seeded random vector
    (simple spectrum makes this converge; a failed residual check is retried
    once with a fresh start before raising ConvergenceFailure).
    """
    L = H.L
    if L > L_SOFT_CAP:
        warnings.warn(
            f"L = {L} exceeds the supported working-precision cap {L_SOFT_CAP}; "
            "near-edge weights may lose relative accuracy", stacklevel=2)
    radius = H.spectral_radius_bound()
    abs_tol = EIGENVALUE_TOL * max(1.0, radius)

    lam = eigh_tridiagonal(H.diag, np.ones(L), eigvals_only=True,
                           lapack_driver="stebz", tol=abs_tol)
    lam = np.sort(_newton_polish(H.diag, lam, abs_tol))
    gaps = np.diff(lam)
    if np.any(gaps < 1e-12):
        k = int(np.argmin(gaps))
        raise ConvergenceFailure(k, float(gaps[k]),
                                 f"near-degenerate eigenvalue pair at index {k}")

    n = L + 1
    rng = np.random.default_rng(seed)
    w_end = np.empty(n)
    w_start = np.empty(n)
    for k in range(n):
        ok = False
        rnorm = np.inf
        for attempt in range(2):
            b = rng.standard_normal(n)
            shift = lam[k] + attempt * 4.0 * np.finfo(float).eps * radius
            try:
                x = _solve_shifted(H.diag, shift, b)
                x /= np.linalg.norm(x)
                x = _solve_shifted(H.diag, shift, x)
                x /= np.linalg.norm(x)
            except FloatingPointError:
                continue
            resid = H.diag * x - lam[k] * x
            resid[:-1] += x[1:]
            resid[1:] += x[:-1]
            rnorm = float(np.linalg.norm(resid))
            if rnorm <= 1e-8:
                ok = True
                break
        if not ok:
            raise ConvergenceFailure(k, rnorm)
        w_start[k] = x[0] * x[0]
        w_end[k] = x[-1] * x[-1]

    return SpectralData(L=L, j=L % H.period, lambdas=lam,
                        weights_end=w_end, weights_start=w_start)


def band_enumerate(sd: SpectralData, bs: BandStructure) -> SpectralData:
    """Assign each eigenvalue to its band and give it a local index.

    Eigenvalues farther than BAND_TOL * max(1, |lambda|) from every band are
    flagged with -1; their count is available as `n_outside` and is reported,
    never interpreted.
    """
    lam = sd.lambdas
    band_of = np.full(len(lam), -1, dtype=int)
    for i, lam_k in enumerate(lam):
        atol = BAND_TOL * max(1.0, abs(lam_k))
        hits = [b for b, (lo, hi) in enumerate(bs.bands)
                if lo - atol <= lam_k <= hi + atol]
        if len(hits) > 1:
            raise AmbiguousAssignment(
                f"eigenvalue {lam_k} matches bands {hits} within {BAND_TOL}")
        if hits:
            band_of[i] = hits[0]
    local = np.full(len(lam), -1, dtype=int)
    for b in range(len(bs.bands)):
        members = np.where(band_of == b)[0]  # lambdas sorted, so members are too
        local[members] = np.arange(len(members))
    return replace(sd, band_of=band_of, local_index=local)


def quantization_residuals(sd: SpectralData, bs: BandStructure,
                           V: PeriodicPotential,
                           band: int | None = None) -> np.ndarray:
    """Spacing residuals (L-j) * diff(theta_pL) - pi over in-band eigenvalue pairs.

    theta_pL subtracts the boundary phase divided by (L-j) from the
    quasi-momentum; differencing consecutive eigenvalues cancels the branch
    offset of the phase.  Eigenvalues within BAND_TOL of a band edge are
    left out (the phase numerator may vanish right at an edge).
    """
    if sd.band_of is None:
        raise ValueError("run band_enumerate first")
    res = []
    bands = [band] if band is not None else list(range(len(bs.bands)))
    for b in bands:
        lo, hi = bs.bands[b]
        members = sd.band_members(b)
        lam = sd.lambdas[members]
        interior = (lam - lo > BAND_TOL) & (hi - lam > BAND_TOL)
        lam = lam[interior]
        if len(lam) < 2:
            if band is not None:
                raise TooFewPoints(f"band {b} has {len(lam)} interior eigenvalues")
            continue
        theta = floquet._theta_band(bs, b, lam)
        h = floquet.h_values(V, bs, sd.j, lam)
        theta_pl = theta - h / (sd.L - sd.j)
        res.append((sd.L - sd.j) * np.diff(theta_pl) - np.pi)
    if not res:
        raise TooFewPoints("no band has two interior eigenvalues")
    return np.concatenate(res)


@dataclass(frozen=True)
class WeightProfile:
    """Near-edge spectral table, ordered by distance from the edge."""

    edge: EdgeData
    k: np.ndarray             # edge-local index, 0 = closest eigenvalue
    offsets: np.ndarray       # lambda - e0 (signed)
    weights_end: np.ndarray
    weights_start: np.ndarray
    global_index: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


def weight_profile(sd: SpectralData, edge: EdgeData, eps: float,
                   bs: BandStructure) -> WeightProfile:
    """In-band eigenvalues within eps^2 band-widths of the edge.

    Rows are ordered by distance from the edge, which for a left edge
    coincides with the band-local enumeration.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")
    if sd.band_of is None:
        raise ValueError("run band_enumerate first")
    members = sd.band_members(edge.band_index)
    lam = sd.lambdas[members]
    if edge.side == "right":
        members = members[::-1]
        lam = lam[::-1]
    # window scale: eps^2 in units of the band width
    lo, hi = bs.bands[edge.band_index]
    window = eps * eps * (hi - lo)
    dist = np.abs(lam - edge.e0)
    sel = dist <= window
    members = members[sel]
    lam = lam[sel]
    if len(lam) < 5:
        raise TooFewPoints(
            f"only {len(lam)} eigenvalues within {window:.3e} of the edge; "
            "increase L or eps")
    return WeightProfile(
        edge=edge,
        k=np.arange(len(lam)),
        offsets=lam - edge.e0,
        weights_end=sd.weights_end[members],
        weights_start=sd.weights_start[members],
        global_index=members,
    )
