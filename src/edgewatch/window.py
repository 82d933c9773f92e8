"""Windowed sections: the eigenpairs near the swept boxes, and the rest of
S_L from the section's resolvent.

An edge command reads eigenpairs one by one only next to its boxes; every
other eigenvalue enters the resonance function only through
S_L(z) = sum_k w_k/(lambda_k - z) = [(H - z)^-1]_LL = 1/d_L(z), the inverse
of the last LDL^T pivot of H - z, which needs no eigenpair.  solve runs
spectrum.eigensystem's steps on the lanes, the eigenvalues of a few spans of
the root grid around the window (and at the spectrum's ends, for sd.scale),
and folds the rest into a FarTerm: sampled as 1/d_L less the lanes' terms
on a circle around the window, it becomes, by the trapezoid rule for
Cauchy's integral, 64 poles at the circle's points, which every evaluator
sums as it sums the lanes' terms.  spectrum.eigensystem loads this module
on its first windowed call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import boxes, pivots, resonance, spectrum
from .errors import AmbiguousAssignment

# circle points of the far term's trapezoid rule, its poles
_FAR_POINTS = 64
# largest ratio of the circle's radius to the distance from its centre to
# the nearest eigenvalue outside the window: the trapezoid rule's aliasing
# is below _FAR_RATIO**_FAR_POINTS (2.5e-17) of the far weights' sum
_FAR_RATIO = 0.55
# with r the half-width of a window, the far term's circle has radius
# _FAR_UNIT r (its poles hold on half that radius, which covers the window
# with a tenth to spare for the crossings' moves); the window's span reaches
# spectrum._FAR_SPAN r from its centre, past _FAR_UNIT/_FAR_RATIO = 4 r
_FAR_UNIT = 2.2


@dataclass(frozen=True)
class FarTerm:
    """g(z) = S_L(z) - sum of w/(lambda - z) over a windowed section's
    eigenvalues, the share of S_L of every eigenvalue outside the window,
    as the poles of a circle.

    g is analytic off those eigenvalues, all at least R from `centre`
    (_far_term's reach).  On the circle of radius `unit` <= _FAR_RATIO R
    about `centre`, the trapezoid rule for Cauchy's integral at the
    _FAR_POINTS points zeta_k gives g(z) ~ sum_k rho_k/(zeta_k - z) and
    g'(z) ~ sum_k rho_k/(zeta_k - z)^2, rho_k = (zeta_k - centre)
    g(zeta_k)/_FAR_POINTS, g(zeta_k) from 1/d_L (Trefethen & Weideman,
    SIAM Rev. 56, 2014, secs. 2-3).  On the disc |z - centre| <= radius =
    unit/2, with t = (z - centre)/unit, q = unit/R and the far weights
    summing to at most 1, so |g| <= 1/((1 - q/2) R), the pole sum is
    g - g t^64/(1 + t^64) plus the circle's aliasing, at most
    (1/2)^64 |g|/(1 - 2^-64) and q^64/((1 - q^64)(1 - q/2) R): together
    below 3.4e-17/R.  The samples' rounding is carried over at most twice.
    """

    centre: float
    radius: float          # of the disc where the poles hold
    unit: float            # the circle's radius
    poles: np.ndarray      # zeta_k: the upper half, then their conjugates
    residues: np.ndarray   # rho_k, in the order of the poles
    diag: np.ndarray       # the section, for _end_resolvent off the disc

    def covers(self, z: np.ndarray) -> np.ndarray:
        """Whether each point lies on the disc where the poles hold."""
        return np.abs(z - self.centre) <= self.radius

    def moments(self, x: np.ndarray, count: int) -> np.ndarray:
        """Rows [j, point] of M_j = 2 Re sum rho/(zeta - x)^(j+1) over the
        upper poles, j < count, at real points x: the pole sum (j = 0) and
        its Taylor moments about x, real as conjugate pairs.  In real
        arithmetic (numpy's complex multiply rounds by the array's length),
        one pairwise sum per point."""
        upper = _FAR_POINTS // 2
        zeta, rho = self.poles[:upper], self.residues[:upper]
        dr = zeta.real - np.asarray(x, dtype=float)[:, None]
        m = dr * dr + zeta.imag * zeta.imag
        ur, ui = dr / m, -zeta.imag / m   # 1/(zeta - x)
        vr, vi = rho.real * ur - rho.imag * ui, rho.real * ui + rho.imag * ur
        out = np.empty((count, len(dr)))
        for j in range(count):
            out[j] = 2.0 * np.add.reduce(vr, 1)
            vr, vi = vr * ur - vi * ui, vr * ui + vi * ur
        return out

    def exact(self, z: np.ndarray, rows: np.ndarray, where):
        """Set rows (S_L, S_L') at points z, or S_L alone, to those of
        _end_resolvent at the points `where`, in place."""
        idx = np.flatnonzero(where)
        if idx.size:
            rows[:, idx] = _end_resolvent(
                self.diag, z[idx], derivative=len(rows) > 1)[:len(rows)]

    def refine(self, roots, f_rows) -> list:
        """Newton roots (z, residual, iterations) after one step of
        iterative refinement: f at each root from the section's resolvent
        (1/d_L and the phase: no eigenpair and no far term), divided by f' of
        f_rows, the section's evaluator, and the residual |f| of f_rows at
        the new point.  A step that is not finite, leaves the lower
        half-plane or meets a pole keeps the root.  Each root's step reads
        its own values alone."""
        zs = [z for z, _, _ in roots]
        exact = _end_resolvent(self.diag, np.array(zs, dtype=complex))
        new = []
        for z, s, (_, fp) in zip(zs, exact[0].tolist(), f_rows(zs)):
            z1 = z - (s + cmath.exp(-1j * resonance.theta(z))) / fp
            new.append(z1 if cmath.isfinite(z1) and z1.imag < 0.0 else z)
        return [root if value is None else (z1, abs(value[0]), root[2])
                for root, z1, value in zip(roots, new, f_rows(new))]


@dataclass(frozen=True)
class Window:
    """The part of the spectrum a windowed eigensystem solved.

    Every eigenvalue inside one of the `spans` (energy intervals) is a lane
    of the section; `index` is each lane's global index, `far` the share of
    S_L of the others, and `below`/`upto` the Sturm counts of the
    eigenvalues below each cell eigenvalue's band-membership bound
    (band_enumerate's local indices).
    """

    index: np.ndarray
    spans: np.ndarray
    far: FarTerm
    below: dict
    upto: dict

    def holds(self, a: float, b: float) -> bool:
        """Whether [a, b] lies inside one span."""
        lo, hi = self.spans.T
        return bool(np.any((lo <= a) & (b <= hi)))

    def serves(self, sd, edge, ns, eps: float) -> bool:
        """Whether sd, the section of this window, serves the boxes ns at
        the edge: each box's eigenvalues n-1, n, n+1 must be lanes (boxes
        boxes._boxes_for refuses do not hold), its r/_RHO disc must lie
        in one span and its contour on the far term's disc."""
        try:
            found = [box for _, box in boxes._boxes_for(sd, edge, ns, eps)]
        except ValueError:
            return False
        for box in found:
            c, r = boxes._disc(box.x_lo, box.x_hi, eps)
            reach = r / boxes._RHO
            if not (self.holds(c - reach, c + reach)
                    and abs(c - self.far.centre) + r <= self.far.radius):
                return False
        return True

    def local_indices(self, lam, band_of, lo, hi):
        """(local_index, band sizes) of the lanes lam in the bands [lo, hi]
        (band_of, -1 outside): each member's global index less the count
        below its band; a member outside its band's count range raises
        AmbiguousAssignment."""
        start = np.array([self.below[float(e)] for e in lo], dtype=int)
        stop = np.array([self.upto[float(e)] for e in hi], dtype=int)
        local = np.full(len(lam), -1, dtype=int)
        inside = np.flatnonzero(band_of >= 0)
        local[inside] = self.index[inside] - start[band_of[inside]]
        wrong = inside[(local[inside] < 0)
                       | (self.index[inside] >= stop[band_of[inside]])]
        if len(wrong):
            i = wrong[0]
            raise AmbiguousAssignment(
                f"eigenvalue {lam[i]} (k = {self.index[i]}) lies in band "
                f"{band_of[i]} but outside its Sturm-count range")
        return local, stop - start


def _end_resolvent(v: np.ndarray, z: np.ndarray, ends=None,
                   derivative: bool = False):
    """(S_L, S_L') at complex points z, S_L' only with derivative:
    S_L = [(H - z)^-1]_LL = 1/d_L and S_L' = -d_L'/d_L^2, with the LDL^T
    pivots d_i = (v_i - z) - 1/d_{i-1} (d_0 = v_0 - z) and
    d_i' = (d_{i-1}'/d_{i-1})/d_{i-1} - 1 (d_0' = -1), over residue rows, in
    slices of WEIGHT_WORKSPACE_BYTES; each point's H is the leading block of
    v that ends at its last site (ends; all of v by default), where d_L is
    read.  No eigenpair is needed.  Only complex divisions, subtractions and
    reciprocals, whose rounding does not depend on the array's length."""
    n, m = len(v), len(z)
    ends = pivots._lane_ends(ends, n, m)
    residues = len(pivots._residue_rows(v, z[:0])[0])
    out = np.full((2, m), np.nan, dtype=complex)
    for s in pivots._lane_slices(m, 16 * (residues + 4)):
        last, res = pivots._lanes_by_site(ends[s]), out[:, s]
        rows, row = pivots._residue_rows(v[:max(last) + 1], z[s])
        a = [rows[k] for k in row]
        d, u = a[0].copy(), np.empty_like(a[0])
        dd, one = -np.ones_like(d), np.ones_like(d)
        for i in range(len(a)):
            if i:
                if derivative:
                    np.divide(dd, d, dd)
                    np.divide(dd, d, dd)
                    np.subtract(dd, one, dd)
                np.reciprocal(d, u)
                np.subtract(a[i], u, d)
            k = last.get(i)
            if k is not None:
                res[0, k] = 1.0 / d[k]
                if derivative:
                    res[1, k] = -(dd[k] / d[k]) / d[k]
    return out


def _far_term(v: np.ndarray, lam: np.ndarray, w: np.ndarray, spans,
              window):
    """The FarTerm of a windowed section's lanes lam (weights w), whose
    poles hold on the window [a, b], or None where the spans leave too
    little room for its circle; a lockstep run (spectrum._lockstep), whose
    one request is _end_resolvent at the circle's points.

    With c and r the window's centre and half-width, the circle's real
    crossings are c -/+ _FAR_UNIT r, each moved midway between the two
    lanes around it where those lie closer than a tenth of the radius; its
    _FAR_POINTS points sit at the angles (k + 1/2) 2 pi/_FAR_POINTS, none
    nearer the axis than 0.049 radii, and only the upper half is sampled:
    g is real on the axis, so the lower half's poles and residues are the
    conjugates.  reach is the distance from the centre to the nearest
    energy outside every span.
    """
    c, r = 0.5 * (window[0] + window[1]), 0.5 * (window[1] - window[0])

    def crossing(t):
        i = int(np.searchsorted(lam, t))
        if 0 < i < len(lam) and lam[i] - lam[i - 1] < 0.1 * _FAR_UNIT * r:
            return 0.5 * (lam[i - 1] + lam[i])
        return t

    lo, hi = crossing(c - _FAR_UNIT * r), crossing(c + _FAR_UNIT * r)
    centre, unit = 0.5 * (lo + hi), 0.5 * (hi - lo)
    reach = min(max(a - centre, centre - b, 0.0)
                for a, b in zip(spans[:-1, 1], spans[1:, 0]))
    if not 0.0 < unit <= _FAR_RATIO * reach:
        return None
    ring = np.exp(1j * (np.arange(_FAR_POINTS // 2) + 0.5)
                  * (2.0 * np.pi / _FAR_POINTS))
    z = centre + unit * ring
    g = ((yield _end_resolvent, v, z)[0]
         - (w / (lam - z[:, None])).sum(axis=1))
    rho = (unit / _FAR_POINTS) * ring * g
    return FarTerm(centre, 0.5 * unit, unit, np.concatenate([z, z.conj()]),
                   np.concatenate([rho, rho.conj()]), v)


def solve(v, period, window, spans, lows, highs):
    """The windowed SpectralData of the section with diagonal v for the
    window (a, b) over its spans (spectrum._window_spans), or None where the
    far term finds no room (_far_term) and the section is solved whole; a
    lockstep run of spectrum._lockstep."""
    tol = spectrum.BAND_TOL
    marks = np.concatenate([lows - tol * np.maximum(1.0, abs(lows)),
                            highs + tol * np.maximum(1.0, abs(highs))])
    x, lo, hi, ranks = yield from spectrum._start_values(v, period, spans,
                                                         marks)
    lanes = np.flatnonzero(~np.isnan(x))
    lam, out = yield from spectrum._solve_lanes(v, x, lo, hi, lanes)
    far = yield from _far_term(v, lam, out[0], spans, window)
    if far is None:
        return None
    L = len(v) - 1
    # no eigenvalue lies below the lowest lane or above the highest
    spans = spans.copy()
    spans[0, 0] = -np.inf if lanes[0] == 0 else spans[0, 0]
    spans[-1, 1] = np.inf if lanes[-1] == L else spans[-1, 1]
    p = len(lows)
    return spectrum.SpectralData(
        L=L, j=L % period, lambdas=lam, weights_end=out[0],
        weights_start=out[1], window=Window(
            index=lanes, spans=spans, far=far,
            below=dict(zip(lows.tolist(), ranks[:p].tolist())),
            upto=dict(zip(highs.tolist(), ranks[p:].tolist()))))
