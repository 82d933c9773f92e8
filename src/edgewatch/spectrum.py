"""Finite Dirichlet sections and their spectral data.

The truncated operator is an (L+1) x (L+1) symmetric tridiagonal matrix with
unit off-diagonals.  Only the boundary components of the eigenvectors are
retained: the pair (eigenvalue, squared last component) fully determines the
resonances downstream, and the squared first component feeds the edge
classification cross-checks.  The eigenvalues start from the roots of the
section's characteristic function, which the one-period transfer matrix
gives in O(p) work per energy (Teschl, Jacobi Operators and Completely
Integrable Nonlinear Lattices, ch. 7), and one Sturm-count pass proves that
none was lost or doubled, bisecting on the count wherever one was.  One
Newton step on the last LDL^T pivot of H - lambda, taken from the end
where the eigenvector is larger, corrects each eigenvalue; then one pass
of the twisted factorisation of H - lambda per eigenvalue (Dhillon &
Parlett, LAA 387, 2004), vectorised over a slice of eigenvalues at a time,
gives the weights, and its Rayleigh quotient checks the correction.  An
eigenvalue that fails the check takes the twisted vector's Rayleigh
quotient at its start value instead, and its weights from a second pass.

The site loops of the end-pivot steps and the twisted factorisation live
in edgewatch.pivots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import floquet
from .errors import (
    AmbiguousAssignment,
    ConvergenceFailure,
    TooFewPoints,
)
from .floquet import BandStructure, EdgeData
from .pivots import (
    WEIGHT_RESIDUAL_TOL,
    _PIVOT_NUDGE,
    _certify,
    _end_pivot_steps,
    _lane_ends,
    _lane_slices,
    _lanes_by_site,
    _residue_rows,
    _twisted_rows,
    _uncertified,
)
from .potential import PeriodicPotential

if TYPE_CHECKING:
    from .window import FarTerm, Window

__all__ = [
    "TridiagonalOperator",
    "SpectralData",
    "WeightProfile",
    "assemble",
    "eigensystem",
    "band_enumerate",
    "check_profile_inputs",
    "weight_profile",
]

# beyond this size the resonance sums (numpy pairwise summation) are still
# correct but the tiny near-edge weights start losing relative accuracy in
# double precision: the twisted eigenvector's error is first order in the
# eigenvalue's, and against a high-precision oracle the worst weight error
# grows from 9e-13 at L=400 to 8e-11 at L=4000
L_SOFT_CAP = 4000
# band_enumerate snaps an eigenvalue within this (times sd.scale) of a band
# edge onto the edge.  For sd.scale <= 5 that radius is at most half the
# 1e-12 gap eigensystem guarantees, so a snap cannot reorder eigenvalues;
# near-edge eigenvalues of a section are ~1/L^2 apart, so only a true edge
# eigenvalue lies that close to an edge.
EIGENVALUE_TOL = 1e-13
# band-membership slack of band_enumerate (times max(1, |lambda|)); the
# tests' quantization-rule oracle takes it as its band-edge margin
BAND_TOL = 1e-9
# widest |rayleigh - lambda| / max(1, |lambda|) at which a stepped
# eigenvalue is kept: where the step is sound it and the twisted quotient
# each land within ~0.5 eps of the root, so a wider gap means it went astray
_QUOTIENT_TOL = 2 * np.finfo(float).eps
# grid points per eigenvalue that a band can hold (N + 2 for N periods):
# Chebyshev points are about evenly spaced in the quasi-momentum, so each
# spacing of the eigenvalues holds about four of them
_GRID_PER_EIGENVALUE = 4
# grid points across each gap, which holds at most one eigenvalue from
# each end of the section
_GAP_GRID = 16
# a root's bracket (false position on psi, bisection on the Sturm count)
# stops at this width times max(1, |x|): a few ulp, where the sign of psi
# or of a pivot is rounding, and well inside the end-pivot step's reach
_BISECT_STOP = 4 * np.finfo(float).eps
# float rows per energy that _characteristic holds at its peak (the two
# transfer products, their temporaries and both Chebyshev branches)
_PSI_ROWS = 40

# a window whose spans hold this share of the root grid's points (about
# their share of the eigenvalues) or more is solved whole: the one rule
# between a windowed and a whole section.  Windowed over whole time of
# `resonances` runs (one process, CPU-time minimum, 2-core Xeon) at span
# shares about 0.1 / 0.27 / 0.42 / 0.5, with the far term's older series:
# 0.73 / 0.88 / 0.98 / 1.06 at (0,3) L=1000, 0.70 / 0.85 / 0.92 / 0.99 at
# (1,-2,0.5) L=1000 (0.48 is its 301-box sweep, 1.01 at L=1003), 0.33 /
# 0.56 / 0.71 / 0.77 at (0,3) L=4000: at L=1000 the gain is gone by 0.42.
# With the far term's poles, at shares 0.08-0.14 (eps 0.2, C1 10): 0.91-0.95
# at (0,3) L=400, 0.94-0.99 at L=250, 0.73-0.78 at L=500, 0.86-1.02 and
# 0.49-0.83 at (1,-2,0.5) L=400 and 500; at share 0.5 (eps 0.3, C1 1)
# 1.08-1.21 at L=400 and 0.99-1.03 at L=501.
WINDOW_SHARE = 0.4
# grid points at each end of the root grid that a window also solves, so
# that the extreme eigenvalues (and sd.scale) keep the whole solve's bits
_END_GRID = 64
# a window of half-width r spans _FAR_SPAN r from its centre, so that the
# far term's circle (edgewatch.window) finds no eigenvalue near it
_FAR_SPAN = 4.5

_NO_MEMBERS = np.zeros(0, dtype=np.intp)
_NO_MEMBERS.flags.writeable = False


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal section: diagonal values and unit couplings."""

    diag: np.ndarray
    period: int

    @property
    def L(self) -> int:
        return len(self.diag) - 1


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues and boundary weights of one Dirichlet section.

    A windowed section (eigensystem with a window) holds the eigenpairs
    inside its window's spans only, the lanes, whose global indices and
    completeness the Sturm counts at the spans' ends prove, and the rest of
    S_L in `window.far`, 64 poles within 3.4e-17/R of it on their disc
    (see eigensystem); `band_members` and `local_index` still count by
    band-local index, with -1 for a member that is not a lane.
    """

    L: int
    j: int
    lambdas: np.ndarray       # strictly increasing: all L+1, or the lanes
    weights_end: np.ndarray   # |phi_k(L)|^2
    weights_start: np.ndarray  # |phi_k(0)|^2
    band_of: np.ndarray | None = None      # band index, -1 outside
    local_index: np.ndarray | None = None  # 0-based within band, -1 outside
    window: Window | None = None
    band_sizes: np.ndarray | None = None   # of a windowed section's bands
    blocks: tuple = ()    # of the leading blocks eigensystem also solved

    @cached_property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.lambdas))))

    @property
    def far(self) -> FarTerm | None:
        return None if self.window is None else self.window.far

    def check_whole(self, what: str):
        """Refuse a windowed section where `what` reads every eigenvalue."""
        if self.window is not None:
            raise ValueError(f"{what} needs the whole spectrum, not a window")

    @cached_property
    def _members_by_band(self) -> dict[int, np.ndarray]:
        out = {}
        # a set, not np.unique, whose first plain call imports numpy.ma
        # (~14 ms of a run's start-up on a 2-core Xeon)
        for band in sorted(set(self.band_of.tolist())):
            # eigenvalues are sorted, so global order is local-index order
            idx = np.flatnonzero(self.band_of == band)
            if self.band_sizes is not None and band >= 0:
                lanes, idx = idx, np.full(self.band_sizes[band], -1, np.intp)
                idx[self.local_index[lanes]] = lanes
            idx.flags.writeable = False
            out[int(band)] = idx
        return out

    def band_members(self, band: int) -> np.ndarray:
        """Global indices of the eigenvalues in `band`, by local index
        (read-only); a windowed section's lane positions, -1 off its lanes."""
        if self.band_of is None:
            raise ValueError("band_enumerate has not been run")
        return self._members_by_band.get(band, _NO_MEMBERS)

    def edge_members(self, edge: EdgeData) -> np.ndarray:
        """`band_members` of the edge's band, nearest the edge first (read-only)."""
        members = self.band_members(edge.band_index)
        return members[::-1] if edge.side == "right" else members


def assemble(V: PeriodicPotential, L: int) -> TridiagonalOperator:
    """Dirichlet section on sites 0..L: diagonal v_{n mod p}, couplings 1."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    diag = np.array(V.sampled(L + 1), dtype=float)
    return TridiagonalOperator(diag=diag, period=V.period)


def _boundary_weights(diag: np.ndarray, lam: np.ndarray, index=None):
    """(weights_end, weights_start, rayleigh) of the twisted vectors at lam.

    Raises ConvergenceFailure at the first eigenvalue whose twisted vector
    misses WEIGHT_RESIDUAL_TOL or whose weights are not finite, named as
    _certify names it.  The certificate also bounds each Rayleigh
    correction: |gamma_r| / N <= |gamma_r| / sqrt(N) <= WEIGHT_RESIDUAL_TOL.
    eigensystem calls it only for the eigenvalues it redoes.
    """
    out = _twisted_rows(diag, lam)
    _certify(out, index)
    return out[0], out[1], out[3]


def _characteristic(V: PeriodicPotential, N: int, r: int, E: np.ndarray):
    """psi(E) = e_0^T P_r M^N e_0 times a positive factor, where the section
    has N p + r sites, M = product_matrix(V, E, p), P_r that of r sites.

    By Cayley-Hamilton M^N = U_{N-1}(c) M - U_{N-2}(c) I with c = tr M / 2
    and U_n the Chebyshev polynomials of the second kind, taken at |c| with
    the sign (-1)^n where c < 0: inside a band U_n = sin((n+1) k) / sin(k)
    with k = arccos|c|, and in a gap U_n e^{-(N-1) tau} =
    e^{-(N-1-n) tau} expm1(-2 (n+1) tau) / expm1(-2 tau) with
    tau = arccosh|c|, which stays finite however long the section.
    """
    M = floquet.product_matrix(V, E, V.period)
    P = floquet.product_matrix(V, E, r)
    A = P[0, 0] * M[0, 0] + P[0, 1] * M[1, 0]
    c = 0.5 * (M[0, 0] + M[1, 1])
    t = np.abs(c)
    k = np.arccos(np.minimum(t, 1.0))
    tau = np.arccosh(np.maximum(t, 1.0))
    inside, s, g = t < 1.0, np.sin(k), np.expm1(-2.0 * tau)
    u1 = np.where(inside, np.sin(N * k) / s, np.expm1(-2.0 * N * tau) / g)
    u2 = np.where(inside, np.sin((N - 1) * k) / s,
                  np.exp(-tau) * np.expm1(-2.0 * (N - 1) * tau) / g)
    edge = t == 1.0
    u1[edge], u2[edge] = N, N - 1
    odd = u1 if N % 2 == 0 else u2   # U_{N-1} or U_{N-2}, of odd degree
    np.negative(odd, out=odd, where=c < 0)
    return u1 * A - u2 * P[0, 0]


def _stop_width(lo: np.ndarray, hi: np.ndarray):
    """(tol, rounds): the bracket width _BISECT_STOP * max(1, |x|) at which
    a lane stops, and the halvings bisection takes to reach it."""
    tol = _BISECT_STOP * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    # a bracket already narrower than tol takes 0 rounds
    return tol, np.ceil(np.log2(np.maximum(np.abs(hi - lo) / tol, 1.0)))


def _false_position(psi, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                    fb: np.ndarray) -> np.ndarray:
    """A root of psi in each bracket between a and b, whose values fa and
    fb differ in sign bit, to within _BISECT_STOP * max(1, |x|).

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): the new
    point c interpolates psi linearly, at least half the stop width inside
    the bracket, so that a point that lands on the root still closes it; c
    replaces the end whose sign bit it shares, and the other end's value is
    halved each time that end is kept again.  Each lane stops on its own width, or after as many rounds
    as bisection would take, so its result depends on its own values alone.
    It returns the last point evaluated, or the bracket's midpoint where
    psi vanishes exactly at that point: a root that the floating-point
    recurrences meet exactly is never returned, since a pivot of H - x
    vanishes there.
    """
    tol, rounds = _stop_width(a, b)
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    for it in range(int(rounds.max(initial=0))):
        idx = np.flatnonzero((np.abs(b - a) > tol) & (rounds > it))
        if not len(idx):
            break
        A, B, FA, FB = a[idx], b[idx], fa[idx], fb[idx]
        with np.errstate(all="ignore"):
            c = B - FB * ((B - A) / (FB - FA))
        half = 0.5 * tol[idx]
        c = np.clip(np.where(np.isfinite(c), c, 0.5 * (A + B)),
                    np.minimum(A, B) + half, np.maximum(A, B) - half)
        fc = psi(c)
        flip = np.signbit(fc) != np.signbit(FB)
        a[idx] = np.where(flip, B, A)
        fa[idx] = np.where(flip, FB, 0.5 * FA)
        b[idx], fb[idx] = c, fc
    return np.where(fb != 0.0, b, 0.5 * (a + b))


def _root_grid(v: np.ndarray, period: int):
    """(psi, grid, lows, highs): the section's characteristic function psi
    (_characteristic, in slices of pivots.WEIGHT_WORKSPACE_BYTES), its sign grid,
    Chebyshev-spaced in each band with _GRID_PER_EIGENVALUE points for each
    eigenvalue the band can hold and _GAP_GRID points across each gap, and
    the cell eigenvalues below and above each band."""
    V = PeriodicPotential.from_values(v[:period])
    N, r = divmod(len(v), period)
    per = floquet._cell_eigenvalues(V, 1.0)
    anti = floquet._cell_eigenvalues(V, -1.0)
    lows, highs = np.minimum(per, anti), np.maximum(per, anti)

    def cheb(a, b, m):
        w = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, m + 1))
        return (a[:, None] + (b - a)[:, None] * w).ravel()

    grid = np.sort(np.concatenate([
        lows, highs, cheb(lows, highs, _GRID_PER_EIGENVALUE * (N + 2)),
        cheb(highs[:-1], lows[1:], _GAP_GRID)]))

    def psi(E):
        out = np.empty(len(E))
        for s in _lane_slices(len(E), 8 * _PSI_ROWS):
            out[s] = _characteristic(V, N, r, E[s])
        return out

    return psi, grid, lows, highs


def _monodromy_roots(v: np.ndarray, period: int, spans) -> np.ndarray:
    """Sorted roots of the characteristic function psi of the section
    inside the energy spans [a, b].

    psi is sampled on _root_grid's points in the spans, and each cell
    where its sign bit changes is refined by _false_position; an exact zero
    of psi counts on the side of its sign bit, and no cell joins two spans.
    Nothing here proves that every root was found: _start_values does.
    """
    psi, grid = _root_grid(v, period)[:2]
    parts = [grid[(a <= grid) & (grid <= b)] for a, b in spans]
    grid = np.concatenate(parts)
    f = psi(grid)
    change = np.signbit(f[:-1]) != np.signbit(f[1:])
    change[np.cumsum([len(g) for g in parts])[:-1] - 1] = False
    cell = np.flatnonzero(change)
    return _false_position(psi, grid[cell], grid[cell + 1], f[cell],
                           f[cell + 1])


def _sturm_counts(v: np.ndarray, x: np.ndarray, ends=None) -> np.ndarray:
    """Number of eigenvalues below each shift x: the negative LDL^T pivots
    of H - x, D_i = ((v_i - x) - 1/D_{i-1}) + _PIVOT_NUDGE as in
    _end_pivot_steps, over residue rows, in slices of
    WEIGHT_WORKSPACE_BYTES (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967); each shift's H is the leading block of v that ends at its last
    site (ends; all of v by default), where its count is read."""
    n, m = len(v), len(x)
    ends = _lane_ends(ends, n, m)
    residues = len(_residue_rows(v, x[:0])[0])
    counts = np.empty(m, dtype=np.intp)
    for s in _lane_slices(m, 8 * (residues + 5)):
        xs, last, out = x[s], _lanes_by_site(ends[s]), counts[s]
        rows, row = _residue_rows(v[:max(last) + 1], xs)
        a = [rows[k] for k in row]
        nudge, zero = np.full(len(xs), _PIVOT_NUDGE), np.zeros(len(xs))
        d, u = a[0] + nudge, np.empty(len(xs))
        neg = np.empty(len(xs), dtype=bool)
        count = (d < zero).astype(np.intp)
        for i in range(len(a)):
            if i:
                np.reciprocal(d, u)
                np.subtract(a[i], u, d)
                np.add(d, nudge, d)
                np.less(d, zero, neg)
                np.add(count, neg, count)
            k = last.get(i)
            if k is not None:
                out[k] = count[k]
    return counts


def _bisect_counts(v: np.ndarray, k: np.ndarray, x: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray):
    """Bisect the brackets of eigenvalues k on the Sturm count until each
    is at most _BISECT_STOP * max(1, |x|) wide, in place: lo[k] and hi[k]
    shrink and x[k] becomes their midpoint.  Eigenvalue k lies above mid
    while fewer than k + 1 eigenvalues lie below it; each lane stops on its
    own width, so its result does not depend on the other lanes."""
    a, b = lo[k], hi[k]
    rounds = _stop_width(a, b)[1]
    for it in range(int(rounds.max(initial=0))):
        idx = np.flatnonzero(rounds > it)
        mid = 0.5 * (a[idx] + b[idx])
        up = _sturm_counts(v, mid) <= k[idx]
        a[idx[up]] = mid[up]
        b[idx[~up]] = mid[~up]
    lo[k], hi[k], x[k] = a, b, 0.5 * (a + b)


def _assign_roots(roots, sep, counts, x, lo, hi) -> np.ndarray:
    """The certificate of the start values between sep[0] and sep[-1].

    The Sturm counts at the separators sep of the sorted roots must rise by
    one at each root.  Where they do, eigenvalue k takes the root between
    the separators whose counts are k and k + 1; x[k], lo[k] and hi[k] get
    its root and its bracket of separators, and the indices the count does
    not certify are returned for _bisect_counts.
    """
    counts = np.maximum.accumulate(counts)
    k = np.arange(counts[0], counts[-1])
    j = np.searchsorted(counts, k, side="right") - 1
    J = np.searchsorted(counts, k + 1)
    lo[k], hi[k] = sep[j], sep[J]
    ok = (counts[j] == k) & (counts[J] == k + 1)   # then J == j + 1
    x[k[ok]] = roots[j[ok]]
    return k[~ok]


def _start_values(v: np.ndarray, period: int, spans=None, marks=()):
    """(x, lo, hi, ranks): a start value x_k for each eigenvalue inside the
    energy spans [a, b] (points of the root grid), with a bracket
    [lo_k, hi_k] that holds that eigenvalue alone, NaN at every other
    index, and the Sturm counts at the energies marks.  The whole section
    is the one span [min v - 3, max v + 3] (Gershgorin: counts 0 and n).

    The certificate of a span (_assign_roots): _sturm_counts at its ends
    and at the points that separate the sorted _monodromy_roots inside it
    must rise by one at each root, and its ends' counts give its global
    indices; every index it does not certify is repaired by _bisect_counts
    from its bracket of separators, vectorised over those indices.  So psi
    can cost time but never an eigenvalue.  Every count is of one pass, a
    request of this lockstep run (_lockstep).
    """
    if spans is None:
        spans = [(v.min() - 3.0, v.max() + 3.0)]
    roots = _monodromy_roots(v, period, spans)
    inside = [roots[(a < roots) & (roots < b)] for a, b in spans]
    seps = [np.concatenate([[a], 0.5 * (r[:-1] + r[1:]), [b]])
            for r, (a, b) in zip(inside, spans)]
    counts = yield _sturm_counts, v, np.concatenate(seps + [marks])
    at = np.cumsum([0] + [len(sep) for sep in seps])
    x, lo, hi = np.full((3, len(v)), np.nan)
    bad = [_assign_roots(r, sep, counts[i:j], x, lo, hi)
           for r, sep, i, j in zip(inside, seps, at, at[1:])]
    _bisect_counts(v, np.concatenate(bad), x, lo, hi)
    return x, lo, hi, counts[at[-1]:]


def _window_spans(v: np.ndarray, period: int, window):
    """(spans, lows, highs) of a windowed eigensystem, or None where it
    solves the whole section.

    With c and r the centre and half-width of the window [a, b], the spans
    are [c - _FAR_SPAN r, c + _FAR_SPAN r] widened to points of the root
    grid and the _END_GRID points at each end of the grid, merged where
    they overlap; None where the spans hold WINDOW_SHARE of the grid's
    points or more, spans over every point among them.
    lows and highs are the cell eigenvalues of _root_grid.
    """
    _, grid, lows, highs = _root_grid(v, period)
    c, r = 0.5 * (window[0] + window[1]), 0.5 * (window[1] - window[0])
    m = len(grid)
    i = max(0, int(np.searchsorted(grid, c - _FAR_SPAN * r, side="right")) - 1)
    j = min(m - 1, int(np.searchsorted(grid, c + _FAR_SPAN * r)))
    spans = []
    for a, b in sorted([(0, min(_END_GRID, m) - 1), (i, j),
                        (max(0, m - _END_GRID), m - 1)]):
        if spans and a <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], b)
        else:
            spans.append([a, b])
    spans = np.array(spans)
    # spans over every point (one span) are the whole solve at any share
    if np.sum(spans[:, 1] - spans[:, 0] + 1) >= WINDOW_SHARE * m:
        return None
    return grid[spans], lows, highs


def _solve_lanes(v: np.ndarray, x, lo, hi, lanes: np.ndarray):
    """(lam, out): the eigenvalues of the lanes (sorted global indices)
    from their start values x[lanes] with brackets lo, hi (all indexed by
    global index), sorted, and their _twisted_rows; the steps of
    eigensystem, raising its failures named by global index.  A lockstep
    run (_lockstep): the end-pivot steps and the weights pass of every
    lane are its requests, the repairs of a few lanes direct calls."""
    lam, taken = yield _end_pivot_steps, v, x[lanes]
    miss = np.flatnonzero(~taken)
    if len(miss):
        _bisect_counts(v, lanes[miss], x, lo, hi)
        lam[miss], taken[miss] = _end_pivot_steps(v, x[lanes[miss]])
    out = yield _twisted_rows, v, lam
    drift = np.abs(out[3] - lam) > _QUOTIENT_TOL * np.maximum(1.0, np.abs(lam))
    redo = np.flatnonzero(~taken | drift | _uncertified(out))
    if len(redo):
        lam[redo] = _boundary_weights(v, x[lanes[redo]], lanes[redo])[2]
        out[:, redo] = _twisted_rows(v, lam[redo])
    # sorted, the lanes keep the order of their global indices: lanes of
    # two spans lie apart
    order = np.argsort(lam)
    lam, out = lam[order], out[:, order]
    gaps = np.diff(lam)
    # name the lowest close pair: which pair of a cluster is the closest
    # is decided by rounding
    close = np.flatnonzero(gaps < 1e-12)
    if len(close):
        k = int(lanes[close[0]])
        raise ConvergenceFailure(k, float(gaps[close[0]]),
                                 f"near-degenerate eigenvalue pair at index {k}")
    _certify(out, lanes)
    return lam, out


def _lockstep(runs) -> list:
    """The results of the solves `runs`, run in lockstep.

    Each run is a generator that yields (loop, v, x), a site loop
    (_sturm_counts, _end_pivot_steps, _twisted_rows or
    window._end_resolvent) with the diagonal and the shifts it would call
    it with, and is sent loop(v, x).  Every v is a leading block of one
    diagonal, so the pending requests of one loop are answered by one call
    on the longest of their diagonals, each lane ending at its own v's last
    site: each lane's values are those of its own call.  The lowest-numbered
    pending run's loop goes first.  The first error met raises.
    """
    out, asks = [None] * len(runs), {}

    def advance(k, value):
        try:
            asks[k] = runs[k].send(value)
        except StopIteration as done:
            out[k] = done.value

    for k in range(len(runs)):
        advance(k, None)
    while asks:
        loop = asks[min(asks)][0]
        ks = [k for k in sorted(asks) if asks[k][0] is loop]
        vs, xs = zip(*(asks.pop(k)[1:] for k in ks))
        sizes = [len(x) for x in xs]
        got = loop(max(vs, key=len), np.concatenate(xs),
                   np.repeat([len(v) - 1 for v in vs], sizes))
        at = np.cumsum([0, *sizes])
        for k, i, j in zip(ks, at, at[1:]):
            advance(k, tuple(g[..., i:j] for g in got)
                    if isinstance(got, tuple) else got[..., i:j])
    return out


def _solve(v: np.ndarray, period: int, window):
    """The SpectralData of the section with diagonal v, whole or for the
    window (a, b), as a lockstep run (_lockstep)."""
    spans = None if window is None else _window_spans(v, period, window)
    if spans is not None:
        from . import window as windowed
        sd = yield from windowed.solve(v, period, window, *spans)
        if sd is not None:
            return sd
    x, lo, hi, _ = yield from _start_values(v, period)
    lam, out = yield from _solve_lanes(v, x, lo, hi, np.arange(len(v)))
    L = len(v) - 1
    return SpectralData(L=L, j=L % period, lambdas=lam,
                        weights_end=out[0], weights_start=out[1])


def eigensystem(H: TridiagonalOperator, window=None,
                blocks=()) -> SpectralData:
    """All eigenvalues and eigenvector boundary weights of the section, or
    with window = (a, b) those near [a, b] and a far term for the rest;
    and those of its leading blocks, blocks = ((L_b, window_b), ...), the
    sections of length L_b <= L of the same potential, in sd.blocks.

    _start_values gives a start value for each eigenvalue from the
    one-period monodromy, certified complete by one Sturm-count pass, and
    _end_pivot_steps moves each start value x by one Newton step on an end
    pivot of H - x (band_enumerate later snaps edge eigenvalues onto the
    band edge); an index with no valid step is first bisected on the Sturm
    count down to _BISECT_STOP and stepped again.  One pass of the twisted
    factorisation at the stepped eigenvalues gives the boundary weights,
    and its Rayleigh quotients check the steps: an eigenvalue with no valid
    step, whose quotient differs from it by more than
    _QUOTIENT_TOL * max(1, |lambda|), or whose twisted vector fails its
    certificate is redone independently of the others, as the twisted
    vector's Rayleigh quotient at x with its weights from a second pass at
    that quotient.  The twisted vector's relative residual is the
    certificate of every pass, and one above WEIGHT_RESIDUAL_TOL raises
    ConvergenceFailure, as does a pair closer than 1e-12.  The result is a
    function of H (and the window) alone.

    The window (edgewatch.window.solve, loaded on its first use) runs the
    same steps (_start_values over its spans, _solve_lanes) on the lanes,
    the eigenvalues of a few spans of the root grid around [a, b] and at
    the spectrum's two ends: two Sturm counts at each span's ends, in the
    start values' one count pass, give the lanes' global indices and prove
    that none inside a span was lost.  Each lane's steps read its own
    values alone, so its eigenvalue and weights are the whole solve's
    wherever both certify its start value alike, and so are sd.scale's
    extreme eigenvalues.  The rest of S_L is the window's FarTerm, the 64
    poles of the trapezoid rule for Cauchy's integral on a circle: on half
    its radius within 3.4e-17/R of that rest, with R the distance to the
    nearest eigenvalue that is not a lane.  A window whose spans hold
    WINDOW_SHARE of the root grid or more (_window_spans, decided before
    the window module loads), or one too narrow for the far term's circle,
    is solved whole: the whole solve is the window that holds every
    eigenvalue, with no far term.

    The section and its blocks are solved in lockstep (_lockstep): one
    pass of each site loop serves the lanes of all of them, each lane
    ending at its own block's last site, while the spans, the monodromy
    roots, the certificates, repairs, sorting and far term stay each
    block's own.  So each block's SpectralData is bit for bit that of
    eigensystem(assemble(V, L_b), window_b), and the first failure of any
    of them raises.
    """
    L = H.L
    if L > L_SOFT_CAP:
        warnings.warn(
            f"L = {L} exceeds the supported working-precision cap {L_SOFT_CAP}; "
            "near-edge weights may lose relative accuracy", stacklevel=2)
    if not all(1 <= L_b <= L for L_b, _ in blocks):
        raise ValueError(f"blocks must have lengths in [1, {L}], got "
                         f"{[L_b for L_b, _ in blocks]}")
    sd, *rest = _lockstep([_solve(H.diag[:L_b + 1], H.period, w)
                           for L_b, w in [(L, window), *blocks]])
    return replace(sd, blocks=tuple(rest))


def band_enumerate(sd: SpectralData, bs: BandStructure) -> SpectralData:
    """Assign each eigenvalue to its band and give it a local index.

    An eigenvalue within EIGENVALUE_TOL * sd.scale of a band edge is set
    exactly to that edge, so edge eigenvalues do not carry the last-ulp
    noise of the eigensolver.  Eigenvalues farther than
    BAND_TOL * max(1, |lambda|) from every band are flagged with -1, never
    interpreted.  A windowed section's local indices come from its
    window's Sturm counts (Window.local_indices).
    """
    lam = sd.lambdas.copy()
    snap = EIGENVALUE_TOL * sd.scale
    for ep in bs.edge_points:
        lam[np.abs(lam - ep.energy) <= snap] = ep.energy
    lo, hi = np.array(bs.bands, dtype=float).reshape(-1, 2).T
    atol = (BAND_TOL * np.maximum(1.0, np.abs(lam)))[:, None]
    hits = (lo - atol <= lam[:, None]) & (lam[:, None] <= hi + atol)
    ambiguous = np.flatnonzero(hits.sum(axis=1) > 1)
    if len(ambiguous):
        i = ambiguous[0]
        raise AmbiguousAssignment(
            f"eigenvalue {lam[i]} matches bands "
            f"{np.flatnonzero(hits[i]).tolist()} within {BAND_TOL}")
    band_of = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    if sd.window is not None:
        local, sizes = sd.window.local_indices(lam, band_of, lo, hi)
        return replace(sd, lambdas=lam, band_of=band_of, local_index=local,
                       band_sizes=sizes)
    local = np.full(len(lam), -1, dtype=int)
    for b in range(len(bs.bands)):
        members = np.flatnonzero(band_of == b)  # lambdas sorted, so members are too
        local[members] = np.arange(len(members))
    return replace(sd, lambdas=lam, band_of=band_of, local_index=local)


@dataclass(frozen=True)
class WeightProfile:
    """Near-edge spectral table, ordered by distance from the edge."""

    k: np.ndarray             # edge-local index, 0 = closest eigenvalue
    offsets: np.ndarray       # lambda - e0 (signed)
    weights_end: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


def check_profile_inputs(eps: float):
    """Refuse an eps outside (0, 0.5); the one input check of
    weight_profile, run before any section is built."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")


def weight_profile(sd: SpectralData, edge: EdgeData, eps: float,
                   bs: BandStructure) -> WeightProfile:
    """In-band eigenvalues within eps^2 band-widths of the edge.

    Rows are ordered by distance from the edge, which for a left edge
    coincides with the band-local enumeration.
    """
    check_profile_inputs(eps)
    sd.check_whole("weight_profile")
    members = sd.edge_members(edge)
    lam = sd.lambdas[members]
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
        k=np.arange(len(lam)),
        offsets=lam - edge.e0,
        weights_end=sd.weights_end[members],
    )
