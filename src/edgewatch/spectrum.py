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

The recurrences run as Python loops over the sites with one numpy call
per operation over the slice's eigenvalues.  At the eigensolve's lengths a
call's fixed cost (about 0.4-1 us on a 2-core Xeon) weighs as much as its
arithmetic, so the site loops keep a call discipline that changes no
rounding: array operands only, `out` passed by position, no temporaries,
and one masked copy to record the twist (see _twisted_slice).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

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
# largest relative residual |gamma_r| / ||z|| of a twisted eigenvector
WEIGHT_RESIDUAL_TOL = 1e-8
# working memory of the boundary-weight kernel: per eigenvalue it keeps a
# few roots of n checkpointed pivots, a residue row per distinct diagonal
# value and _WORKING_ROWS more, and the eigenvalues are processed in slices
# that fit this budget (as are the lanes of every site loop: _lane_slices)
WEIGHT_WORKSPACE_BYTES = 2_500_000
# added to every pivot: it replaces an exact zero (E = 0 on (0,3) gives
# v_0 - lambda = 0) and leaves any pivot larger than ~1e-104 unchanged
_PIVOT_NUDGE = 1e-120
# float rows per shift that _twisted_slice holds besides its checkpoints and
# residue table, at its peak in _twist_record: three of scratch, the stacked
# state and its record at the twist (five each), the two backward pivot
# rows, the first forward pivot and the arrays of _PIVOT_NUDGE and 1.0
_WORKING_ROWS = 18
# weight of the twisted vector's squared norm in _twisted_stored's choice of
# twist: it decides only between sites whose |gamma| agree to ~1e-300 or
# whose norm is past ~1e280
_TWIST_TIE = 1e-300
# longest end-pivot Newton step taken, times max(1, max|x|): a certified
# start value lies within a few eps of its root, so a longer step comes from
# an end that barely sees the eigenvector
_END_STEP_TOL = 1e-10
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
    """Eigenvalues and boundary weights of one Dirichlet section."""

    L: int
    j: int
    lambdas: np.ndarray       # strictly increasing, length L+1
    weights_end: np.ndarray   # |phi_k(L)|^2
    weights_start: np.ndarray  # |phi_k(0)|^2
    band_of: np.ndarray | None = None      # band index, -1 outside
    local_index: np.ndarray | None = None  # 0-based within band, -1 outside

    @cached_property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.lambdas))))

    @cached_property
    def _members_by_band(self) -> dict[int, np.ndarray]:
        out = {}
        # a set, not np.unique, whose first plain call imports numpy.ma
        # (~14 ms of a run's start-up on a 2-core Xeon)
        for band in sorted(set(self.band_of.tolist())):
            # eigenvalues are sorted, so global order is local-index order
            idx = np.flatnonzero(self.band_of == band)
            idx.flags.writeable = False
            out[int(band)] = idx
        return out

    def band_members(self, band: int) -> np.ndarray:
        """Global indices of the eigenvalues in `band`, by local index (read-only)."""
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


def _lane_slices(m: int, lane_bytes: int):
    """The fewest, most even slices of m lanes of lane_bytes each that fit
    WEIGHT_WORKSPACE_BYTES, yielded inside the one np.errstate of the site
    loops, whose pivots overflow or vanish by design."""
    count = max(1, -(-m // max(1, WEIGHT_WORKSPACE_BYTES // lane_bytes)))
    width = max(1, -(-m // count))
    with np.errstate(all="ignore"):
        for lo in range(0, m, width):
            yield slice(lo, lo + width)


def _residue_rows(v: np.ndarray, x: np.ndarray, mirrored: bool = False):
    """(rows, row): the distinct residue rows v_i - x of H - x, at most p
    for period p (values told apart by bit pattern), and the index row[i]
    of site i's; x[:0] counts them.  With mirrored, site i's row is v_i - x
    then v_{n-1-i} - x, keyed by the two sites' value indices."""
    _, first, row = np.unique(v.view(np.int64), return_index=True,
                              return_inverse=True)
    sites = [first]
    if mirrored:
        _, first, row = np.unique(row * len(first) + row[::-1],
                                  return_index=True, return_inverse=True)
        sites = [first, len(v) - 1 - first]
    table = np.concatenate([v[i, None] - x for i in sites], axis=1)
    return list(table), row.tolist()


def _pivots_backward(a, lo, hi, d_lo, widths, bufs, u, d, nudge, visit):
    """Call visit(i, D+_i) for i = hi-1 down to lo, given D+_lo.

    The forward pivots are recomputed from nested checkpoints: the rows
    bufs[0][j] keep the pivot at every widths[0]-th site of [lo, hi), and
    each of those blocks is swept the same way one level down.  At the
    last level (width 1) bufs[0] holds every pivot of the block.  a[i] is
    the residue row v_i - x, u and d are scratch, and nudge holds
    _PIVOT_NUDGE in every lane.
    """
    w, ck = widths[0], bufs[0]
    blocks = -(-(hi - lo) // w)
    prev = d_lo
    for i in range(lo + 1, lo + (blocks - 1) * w + 1):
        dst = d if (i - lo) % w else ck[(i - lo) // w]
        np.reciprocal(prev, u)
        np.subtract(a[i], u, dst)
        np.add(dst, nudge, dst)
        prev = dst
    if w == 1:
        for k in range(hi - lo - 1, 0, -1):
            visit(lo + k, ck[k])
        visit(lo, d_lo)
        return
    for j in range(blocks - 1, -1, -1):
        _pivots_backward(a, lo + j * w, min(hi, lo + (j + 1) * w),
                         ck[j] if j else d_lo, widths[1:], bufs[1:], u, d,
                         nudge, visit)


def _twist_record(a, widths, nudge, one):
    """The backward pass of _twisted_slice over the residue rows a[i]:
    |gamma_r|, gamma_r, Q_r, sigma_r and r (as a float) at each shift's
    twist, stacked."""
    n, m = len(a), len(nudge)
    u, d, y = np.empty((3, m))
    better = np.empty(m, dtype=bool)
    # the state at site i and its record at the twist, by rows: |gamma_i|,
    # gamma_i, Q_i, sigma_i and i itself
    now = np.ones((5, m))
    mag, g, Q, sig, site = now
    kept = np.full((5, m), np.nan)
    kept[0] = np.inf
    kept[4] = 0.0
    best = kept[0]
    un = np.zeros(m)   # 1/D-_{i+1}
    dm = a[n - 1] + nudge

    def visit(i, dp):
        if i < n - 1:
            np.reciprocal(dm, un)
            np.subtract(a[i], un, dm)
            np.add(dm, nudge, dm)
            np.multiply(un, un, y)
            np.multiply(y, Q, y)
            np.add(y, one, Q)
            np.multiply(sig, y, sig)
            np.divide(sig, Q, sig)
        np.subtract(dp, un, g)
        np.absolute(g, mag)
        np.less_equal(mag, best, better)
        site.fill(i)
        np.copyto(kept, now, where=better)

    spans = [n, *widths]
    bufs = [list(np.empty((-(-s // w), m))) for s, w in zip(spans, spans[1:])]
    _pivots_backward(a, 0, n, a[0] + nudge, widths, bufs, u, d, nudge, visit)
    return kept


def _twisted_slice(v: np.ndarray, x: np.ndarray, widths: list):
    """Boundary weights, residuals and Rayleigh quotients of the twisted
    vectors at shifts x.

    For each shift, with a_i = v_i - x, the forward pivots are
    D+_i = a_i - 1/D+_{i-1} and the backward pivots D-_i = a_i - 1/D-_{i+1};
    gamma_i = D+_i - 1/D-_{i+1}, and z with z_i = 1 solves
    (H - x) z = gamma_i e_i.  Norms are carried as ratios that cannot
    overflow through a pivot near zero: R_i = sum_{k<=i} z_k^2 / z_i^2 and
    rho_i = z_0^2 / sum_{k<=i} z_k^2 going forward, Q_i and sigma_i their
    mirror images going backward.  With N = R_r + Q_r - 1 = ||z||^2 at the
    twist r = argmin |gamma_i| (the lowest such site), the weights are
    rho_r R_r / N and sigma_r Q_r / N, the relative residual is
    |gamma_r| / sqrt(N) and the Rayleigh quotient z^T H z / N is
    x + gamma_r / N (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    Each operation is rounded in this order: a pivot is
    (a_i - 1/D) + _PIVOT_NUDGE, the ratio step is y = (u*u)*R,
    R' = y + 1, rho' = (rho*y)/R' with u the pivot's reciprocal (Q and
    sigma alike), and N = (R_r + Q_r) - 1.

    The backward pass meets the forward pivots site by site through
    _pivots_backward, whose checkpoints (block widths `widths`) keep the
    memory per shift at a few roots of n; a last forward pass carries R
    and rho to each shift's twist.

    Every site costs a fixed number of numpy calls whatever the slice's
    width, about 0.4-1 us each on a 2-core Xeon, which at the eigensolve's
    lengths is as much as their arithmetic.  So the site loops make the
    fewest and cheapest calls that keep every rounding above: each v_i - x
    is a row of a residue table, built once for the backward pass and once
    in twist order for the last forward pass; every operand is an
    array (a Python scalar operand costs 0.5-0.9 us more) and `out` is
    passed by position (the keyword costs up to 0.5 us more); 1/D is
    np.reciprocal, which rounds as the division does; the state at each
    site and its record at the twist are stacked, so the twist is kept by
    one masked copy; and the last forward pass takes its suffix views only
    when the suffix changes.
    """
    n, m = len(v), len(x)
    rows, row = _residue_rows(v, x)
    nudge, one = np.full(m, _PIVOT_NUDGE), np.ones(m)
    _, g_r, Q_r, sig_r, r = _twist_record([rows[k] for k in row], widths,
                                          nudge, one)
    del rows
    r = r.astype(np.intp)

    # with the shifts sorted by twist, those still short of their twist at
    # site i are a suffix of the slice
    order = np.argsort(r, kind="stable")
    start = np.searchsorted(r[order], np.arange(n)).tolist()
    rows = _residue_rows(v, x[order])[0]
    fwd = np.ones((5, m))   # D+_i, 1/D+_{i-1}, y, R_i, rho_i
    np.add(rows[row[0]], nudge, fwd[0])
    s = -1
    for i in range(1, n):
        if start[i] != s:
            s = start[i]
            if s == m:
                break
            dd, uu, yy, RR, rr = fwd[:, s:]
            tab, nud, on = [a[s:] for a in rows], nudge[s:], one[s:]
        np.reciprocal(dd, uu)
        np.subtract(tab[row[i]], uu, dd)
        np.add(dd, nud, dd)
        np.multiply(uu, uu, yy)
        np.multiply(yy, RR, yy)
        np.add(yy, on, RR)
        np.multiply(rr, yy, rr)
        np.divide(rr, RR, rr)
    R_rho = np.empty((2, m))
    R_rho[:, order] = fwd[3:]
    return _twisted_outputs(x, g_r, *R_rho, Q_r, sig_r)


def _twisted_outputs(x, g_r, R_r, rho_r, Q_r, sig_r):
    """(weights_end, weights_start, residual, rayleigh) at shifts x from
    the record at each twist, as _twisted_slice states them."""
    norm = R_r + Q_r - 1.0
    return (sig_r * Q_r / norm, rho_r * R_r / norm,
            np.abs(g_r) / np.sqrt(norm), x + g_r / norm)


def _twisted_stored(v: np.ndarray, x: np.ndarray):
    """_twisted_slice for a few shifts, keeping R at every site.

    The twist minimises |gamma_i| + _TWIST_TIE * ||z||^2 instead.  The norm
    term is below rounding unless gamma_i vanishes, which happens at many
    sites at once when a shift is an exact eigenvalue of the floating-point
    recurrences (gap states of integer potentials); there it picks the site
    of smallest norm, where argmin |gamma| may pick one whose norm
    overflows.
    """
    n, m = len(v), len(x)
    nudge = _PIVOT_NUDGE
    d = np.empty((n, m))
    R, rho = np.ones((2, n, m))
    d[0] = v[0] - x + nudge
    for i in range(1, n):
        u = 1.0 / d[i - 1]
        d[i] = v[i] - x - u + nudge
        y = R[i - 1] * u * u
        R[i] = 1.0 + y
        rho[i] = rho[i - 1] * y / R[i]

    dm = v[n - 1] - x + nudge
    un = np.zeros(m)
    Q = np.ones(m)
    sig = np.ones(m)
    best = np.full(m, np.inf)
    g_r, R_r, rho_r, Q_r, sig_r = np.full((5, m), np.nan)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            un = 1.0 / dm
            dm = v[i] - x - un + nudge
            y = Q * un * un
            Q = 1.0 + y
            sig = sig * y / Q
        g = d[i] - un
        key = np.abs(g) + _TWIST_TIE * (R[i] + Q)
        better = key <= best
        best = np.where(better, key, best)
        for mine, now in ((g_r, g), (R_r, R[i]), (rho_r, rho[i]), (Q_r, Q),
                          (sig_r, sig)):
            np.copyto(mine, now, where=better)
    return _twisted_outputs(x, g_r, R_r, rho_r, Q_r, sig_r)


def _checkpoint_widths(v: np.ndarray) -> tuple[list, int]:
    """Block widths for _pivots_backward on the diagonal v, and the bytes
    _twisted_slice holds per shift.

    Two levels (blocks of ~sqrt(n) sites) when every shift fits one slice
    of WEIGHT_WORKSPACE_BYTES, else three (~n^(1/3) and ~n^(2/3)): one more
    recomputation of the forward pivots costs less than a second slice.
    A shift's lane holds the checkpoint rows, one residue row per distinct
    value of v and _WORKING_ROWS more, plus one byte of mask, so a long
    period narrows the slices.
    """
    n = len(v)
    residues = len(_residue_rows(v, v[:0])[0])
    for levels in (2, 3):
        c = 1
        while c ** levels < n:
            c += 1
        widths = [c ** k for k in range(levels - 1, -1, -1)]
        spans = [n, *widths]
        rows = sum(-(-a // b) for a, b in zip(spans, spans[1:]))
        lane_bytes = 8 * (rows + residues + _WORKING_ROWS) + 1
        if n * lane_bytes <= WEIGHT_WORKSPACE_BYTES:
            break
    return widths, lane_bytes


def _twisted_rows(diag: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows (weights_end, weights_start, residual, rayleigh) of the twisted
    vectors at lam, uncertified.

    Shifts whose weights overflow under _twisted_slice are redone by
    _twisted_stored.
    """
    widths, lane_bytes = _checkpoint_widths(diag)
    out = np.empty((4, len(lam)))
    for s in _lane_slices(len(lam), lane_bytes):
        out[:, s] = _twisted_slice(diag, lam[s], widths)
    redo = np.flatnonzero(~np.isfinite(out[:2]).all(axis=0))
    for s in _lane_slices(len(redo), 8 * 3 * len(diag)):
        out[:, redo[s]] = _twisted_stored(diag, lam[redo[s]])
    return out


def _uncertified(out: np.ndarray) -> np.ndarray:
    """Mask of the _twisted_rows columns whose twisted vector misses
    WEIGHT_RESIDUAL_TOL or whose weights are not finite."""
    w_end, w_start, resid, _ = out
    return ~((resid <= WEIGHT_RESIDUAL_TOL) & np.isfinite(w_end)
             & np.isfinite(w_start))


def _certify(out: np.ndarray, index=None):
    """Raise ConvergenceFailure at the first uncertified column of out,
    named by its eigenvalue's index (index[k] of column k, k by default)."""
    bad = _uncertified(out)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConvergenceFailure(k if index is None else int(index[k]),
                                 float(out[2, k]))


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


def _end_pivot_steps(v: np.ndarray, x: np.ndarray):
    """(y, taken): x moved by one Newton step on an end pivot of H - x.

    The last pivot of the LDL^T factorisation from site 0,
    D_i = ((v_i - x) - u) + _PIVOT_NUDGE with u = 1/D_{i-1}, has the
    derivative D'_i = (u*u)*D'_{i-1} - 1 (D_0 = (v_0 - x) + _PIVOT_NUDGE,
    D'_0 = -1), and D' = -1/weight of that end at a root, so its Newton step
    D/D' is well conditioned where the eigenvector is large at that end.
    The mirror image from site n-1 gives the other end's step.  Both run
    as 2m stacked lanes through one site loop of six numpy calls, over
    residue rows keyed by the pair (v_i, v_{n-1-i}), in slices of at most
    WEIGHT_WORKSPACE_BYTES.  An end is valid when D' is finite and
    |D/D'| <= _END_STEP_TOL * max(1, max|x|); each shift takes the step
    of its valid end of smaller |D'|, y = x - D/D', and keeps y = x with
    taken False where neither end is valid.
    """
    n, m = len(v), len(x)
    pairs = len(_residue_rows(v, x[:0], mirrored=True)[0])
    bound = _END_STEP_TOL * max(1.0, float(np.max(np.abs(x))))
    y, taken = x.copy(), np.zeros(m, dtype=bool)
    for s in _lane_slices(m, 16 * (pairs + 6)):
        xs = x[s]
        rows, row = _residue_rows(v, xs, mirrored=True)
        a = [rows[k] for k in row]
        nudge, one = np.full(2 * len(xs), _PIVOT_NUDGE), np.ones(2 * len(xs))
        d, u, dd = a[0] + nudge, np.empty(2 * len(xs)), -one
        for i in range(1, n):
            np.reciprocal(d, u)
            np.subtract(a[i], u, d)
            np.add(d, nudge, d)
            np.multiply(u, u, u)
            np.multiply(u, dd, dd)
            np.subtract(dd, one, dd)
        step, size = (d / dd).reshape(2, -1), np.abs(dd).reshape(2, -1)
        ok = np.isfinite(size) & (np.abs(step) <= bound)
        far = ok[1] & (~ok[0] | (size[1] < size[0]))
        taken[s] = hit = ok[0] | ok[1]
        y[s] = np.where(hit, xs - np.where(far, step[1], step[0]), xs)
    return y, taken


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


def _monodromy_roots(v: np.ndarray, period: int) -> np.ndarray:
    """Sorted roots of the characteristic function psi of the section.

    psi (_characteristic) is sampled on a grid, Chebyshev-spaced in each
    band with _GRID_PER_EIGENVALUE points for each eigenvalue the band can
    hold and _GAP_GRID points across each gap, in slices of
    WEIGHT_WORKSPACE_BYTES, and each cell where its sign bit changes is
    refined by _false_position; an exact zero of psi counts on the side of
    its sign bit.  Nothing here proves that every root was found:
    _start_values does.
    """
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

    f = psi(grid)
    cell = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    return _false_position(psi, grid[cell], grid[cell + 1], f[cell],
                           f[cell + 1])


def _sturm_counts(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift x: the negative LDL^T pivots
    of H - x, D_i = ((v_i - x) - 1/D_{i-1}) + _PIVOT_NUDGE as in
    _end_pivot_steps, over residue rows, in slices of
    WEIGHT_WORKSPACE_BYTES (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967)."""
    n, m = len(v), len(x)
    residues = len(_residue_rows(v, x[:0])[0])
    counts = np.empty(m, dtype=np.intp)
    for s in _lane_slices(m, 8 * (residues + 5)):
        xs = x[s]
        rows, row = _residue_rows(v, xs)
        a = [rows[k] for k in row]
        nudge, zero = np.full(len(xs), _PIVOT_NUDGE), np.zeros(len(xs))
        d, u = a[0] + nudge, np.empty(len(xs))
        neg = np.empty(len(xs), dtype=bool)
        count = (d < zero).astype(np.intp)
        for i in range(1, n):
            np.reciprocal(d, u)
            np.subtract(a[i], u, d)
            np.add(d, nudge, d)
            np.less(d, zero, neg)
            np.add(count, neg, count)
        counts[s] = count
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


def _start_values(v: np.ndarray, period: int):
    """(x, lo, hi): a start value x_k for every eigenvalue of the section
    and a bracket [lo_k, hi_k] around it that holds that eigenvalue alone.

    The certificate: _sturm_counts at the points that separate the sorted
    _monodromy_roots (and the Gershgorin bounds min v - 3, max v + 3,
    where the counts are 0 and n) must rise by one at each root.  Where it
    does, eigenvalue k takes the root between the separators whose counts
    are k and k + 1; every other index is repaired by _bisect_counts from
    its bracket of separators, vectorised over those indices.  So psi can
    cost time but never an eigenvalue.
    """
    n = len(v)
    roots = _monodromy_roots(v, period)
    sep = np.concatenate([[v.min() - 3.0], 0.5 * (roots[:-1] + roots[1:]),
                          [v.max() + 3.0]])
    counts = np.concatenate([[0], _sturm_counts(v, sep[1:-1]), [n]])
    counts = np.maximum.accumulate(counts)
    k = np.arange(n)
    j = np.searchsorted(counts, k, side="right") - 1
    J = np.searchsorted(counts, k + 1)
    lo, hi = sep[j], sep[J]
    ok = (counts[j] == k) & (counts[J] == k + 1)   # then J == j + 1
    x = np.empty(n)
    x[ok] = roots[j[ok]]
    _bisect_counts(v, np.flatnonzero(~ok), x, lo, hi)
    return x, lo, hi


def eigensystem(H: TridiagonalOperator) -> SpectralData:
    """All eigenvalues and eigenvector boundary weights of the section.

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
    ConvergenceFailure.  The result is a function of H alone.
    """
    L = H.L
    if L > L_SOFT_CAP:
        warnings.warn(
            f"L = {L} exceeds the supported working-precision cap {L_SOFT_CAP}; "
            "near-edge weights may lose relative accuracy", stacklevel=2)

    x, lo, hi = _start_values(H.diag, H.period)
    lam, taken = _end_pivot_steps(H.diag, x)
    miss = np.flatnonzero(~taken)
    if len(miss):
        _bisect_counts(H.diag, miss, x, lo, hi)
        lam[miss], taken[miss] = _end_pivot_steps(H.diag, x[miss])
    out = _twisted_rows(H.diag, lam)
    drift = np.abs(out[3] - lam) > _QUOTIENT_TOL * np.maximum(1.0, np.abs(lam))
    redo = np.flatnonzero(~taken | drift | _uncertified(out))
    if len(redo):
        lam[redo] = _boundary_weights(H.diag, x[redo], redo)[2]
        out[:, redo] = _twisted_rows(H.diag, lam[redo])
    order = np.argsort(lam)
    lam, out = lam[order], out[:, order]
    gaps = np.diff(lam)
    # name the lowest close pair: which pair of a cluster is the closest
    # is decided by rounding
    close = np.flatnonzero(gaps < 1e-12)
    if len(close):
        k = int(close[0])
        raise ConvergenceFailure(k, float(gaps[k]),
                                 f"near-degenerate eigenvalue pair at index {k}")
    _certify(out)
    return SpectralData(L=L, j=L % H.period, lambdas=lam,
                        weights_end=out[0], weights_start=out[1])


def band_enumerate(sd: SpectralData, bs: BandStructure) -> SpectralData:
    """Assign each eigenvalue to its band and give it a local index.

    An eigenvalue within EIGENVALUE_TOL * sd.scale of a band edge is set
    exactly to that edge, so edge eigenvalues do not carry the last-ulp
    noise of the eigensolver.  Eigenvalues farther than
    BAND_TOL * max(1, |lambda|) from every band are flagged with -1, never
    interpreted.
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
