"""Windowed sections: the eigenpairs near the swept boxes, and the rest of
S_L from the section's resolvent.

An edge command reads eigenpairs one by one only next to its boxes; every
other eigenvalue enters the resonance function only through
S_L(z) = sum_k w_k/(lambda_k - z) = [(H - z)^-1]_LL = 1/d_L(z), the inverse
of the last LDL^T pivot of H - z, which needs no eigenpair.  solve runs
spectrum.eigensystem's steps on the lanes, the eigenvalues of a few spans of
the root grid around the window (and at the spectrum's ends, for sd.scale),
and folds the rest into a FarTerm: a Taylor series about a point of the
window whose coefficients come from 1/d_L on a circle, by the trapezoid
rule.  spectrum.eigensystem loads this module on its first windowed call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import boxes, pivots, resonance, spectrum
from .errors import AmbiguousAssignment

# circle points of the far term's trapezoid rule (K) and the terms of its
# Taylor series (J)
_FAR_POINTS = 64
_FAR_TERMS = 32
# largest ratio of the circle's radius to the distance from its centre to
# the nearest eigenvalue outside the window: the trapezoid rule's aliasing
# is below _FAR_RATIO**_FAR_POINTS (2.5e-17) of the far weights' sum
_FAR_RATIO = 0.55
# with r the half-width of a window, the far term's circle has radius
# _FAR_UNIT r (its series, on half that radius, covers the window with a
# tenth to spare for the crossings' moves); the window's span reaches
# spectrum._FAR_SPAN r from its centre, past _FAR_UNIT/_FAR_RATIO = 4 r
_FAR_UNIT = 2.2


@dataclass(frozen=True)
class FarTerm:
    """g(z) = S_L(z) - sum of w/(lambda - z) over a windowed section's
    eigenvalues: the share of S_L of every eigenvalue outside the window.

    g is analytic off those eigenvalues, all at least R from `centre`
    (_far_term's reach).  Its Taylor coefficients about `centre` come from
    S_L = 1/d_L (_end_resolvent) at _FAR_POINTS points of a circle of
    radius `unit` <= _FAR_RATIO R, by the trapezoid rule (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  The series is used on the disc
    |z - centre| <= radius = unit/2.  There, with q = radius/R <=
    _FAR_RATIO/2 and the far weights summing to at most 1, its _FAR_TERMS
    terms are within q**_FAR_TERMS / ((1 - q) R) of g (below 1.6e-18/R),
    the circle's aliasing adds at most 2 _FAR_RATIO**_FAR_POINTS / R
    (5e-17/R), and the rounding of the circle's samples is carried over at
    most twice.
    """

    centre: float
    radius: float       # of the disc where the series holds
    unit: float         # the circle's radius
    coeffs: np.ndarray  # real Taylor coefficients of g in (z - centre)/unit
    diag: np.ndarray    # the section, for _end_resolvent off the disc

    def covers(self, z: np.ndarray) -> np.ndarray:
        """Whether each point lies on the disc where the series holds."""
        return np.abs(z - self.centre) <= self.radius

    def series(self, z: np.ndarray, derivative: bool = True):
        """(g, g') at points z of the disc, g' only with derivative, by
        Horner in real arithmetic: numpy's complex multiply rounds by the
        array's length, and a point's value must not depend on the other
        points of its call."""
        x, y = (z.real - self.centre) / self.unit, z.imag / self.unit
        gr, gi = np.full(len(z), self.coeffs[-1]), np.zeros(len(z))
        pr, pi = np.zeros(len(z)), np.zeros(len(z))
        for c in self.coeffs[-2::-1]:
            if derivative:
                pr, pi = pr * x - pi * y + gr, pr * y + pi * x + gi
            gr, gi = gr * x - gi * y + c, gr * y + gi * x
        out = np.empty((2 if derivative else 1, len(z)), dtype=complex)
        out[0].real, out[0].imag = gr, gi
        if derivative:
            out[1].real, out[1].imag = pr / self.unit, pi / self.unit
        return out

    def refine(self, roots, f_rows) -> list:
        """Newton roots (z, residual, iterations) after one step of
        iterative refinement: f at each root from the section's resolvent
        (1/d_L and the phase: no eigenpair and no series), divided by f' of
        f_rows, the section's evaluator, and the residual |f| of f_rows at
        the new point.  A step that is not finite, leaves the lower
        half-plane or meets a pole keeps the root.  Each root's step reads
        its own values alone."""
        zs = [z for z, _, _ in roots]
        exact = _end_resolvent(self.diag, np.array(zs, dtype=complex), False)
        new = []
        for z, s, (_, fp) in zip(zs, exact[0].tolist(), f_rows(zs)):
            z1 = z - (s + cmath.exp(-1j * resonance.theta(z))) / fp
            new.append(z1 if cmath.isfinite(z1) and z1.imag < 0.0 else z)
        return [root if value is None else (z1, abs(value[0]), root[2])
                for root, z1, value in zip(roots, new, f_rows(new))]

    def complete(self, z: np.ndarray, s: np.ndarray, sp=None) -> np.ndarray:
        """Rows (S_L, S_L') at points z from the lanes' sums s and sp
        (S_L alone without sp): the series added on the disc, and off it
        S_L and S_L' of _end_resolvent, never a diverging series."""
        out = np.array([s] if sp is None else [s, sp], dtype=complex)
        inside = self.covers(z)
        out[:, inside] += self.series(z[inside], sp is not None)
        off = np.flatnonzero(~inside)
        if off.size:
            out[:, off] = _end_resolvent(self.diag, z[off],
                                         sp is not None)[:len(out)]
        return out


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


def _window_start_values(v: np.ndarray, period: int, spans, marks):
    """(x, lo, hi, ranks): _start_values for the eigenvalues inside the
    energy spans [a, b] (points of the root grid), NaN at every other
    index, and the Sturm counts at the energies marks.

    Each span is certified as the whole section is, between the counts at
    its own ends: every count, the ends' and the marks' included, comes
    from one _sturm_counts pass, and the counts at a span's ends give the
    global indices of the eigenvalues inside it.
    """
    roots = spectrum._monodromy_roots(v, period, spans)
    parts = []
    for a, b in spans:
        inside = roots[(a < roots) & (roots < b)]
        parts.append((inside, np.concatenate(
            [[a], 0.5 * (inside[:-1] + inside[1:]), [b]])))
    counts = spectrum._sturm_counts(
        v, np.concatenate([sep for _, sep in parts] + [marks]))
    x, lo, hi = np.full((3, len(v)), np.nan)
    bad, at = [], 0
    for inside, sep in parts:
        bad.append(spectrum._assign_roots(
            inside, sep, counts[at:at + len(sep)], x, lo, hi))
        at += len(sep)
    spectrum._bisect_counts(v, np.concatenate(bad), x, lo, hi)
    return x, lo, hi, counts[at:]


def _end_resolvent(v: np.ndarray, z: np.ndarray, derivative: bool = True):
    """(S_L, S_L') at complex points z, S_L' only with derivative:
    S_L = [(H - z)^-1]_LL = 1/d_L and S_L' = -d_L'/d_L^2, with the LDL^T
    pivots d_i = (v_i - z) - 1/d_{i-1} (d_0 = v_0 - z) and
    d_i' = (d_{i-1}'/d_{i-1})/d_{i-1} - 1 (d_0' = -1), over residue rows, in
    slices of WEIGHT_WORKSPACE_BYTES.  No eigenpair is needed.  Only
    complex divisions, subtractions and reciprocals, whose rounding does
    not depend on the array's length."""
    n, m = len(v), len(z)
    residues = len(pivots._residue_rows(v, z[:0])[0])
    out = np.full((2, m), np.nan, dtype=complex)
    for s in pivots._lane_slices(m, 16 * (residues + 4)):
        rows, row = pivots._residue_rows(v, z[s])
        a = [rows[k] for k in row]
        d, u = a[0].copy(), np.empty_like(a[0])
        dd, one = -np.ones_like(d), np.ones_like(d)
        for i in range(1, n):
            if derivative:
                np.divide(dd, d, dd)
                np.divide(dd, d, dd)
                np.subtract(dd, one, dd)
            np.reciprocal(d, u)
            np.subtract(a[i], u, d)
        out[0, s] = 1.0 / d
        if derivative:
            out[1, s] = -(dd / d) / d
    return out


def _far_term(v: np.ndarray, lam: np.ndarray, w: np.ndarray, spans,
              window) -> FarTerm | None:
    """The FarTerm of a windowed section's lanes lam (weights w), whose
    series covers the window [a, b], or None where the spans leave too
    little room for its circle.

    With c and r the window's centre and half-width, the circle's real
    crossings are c -/+ _FAR_UNIT r, each moved midway between the two
    lanes around it where those lie closer than a tenth of the radius; its
    _FAR_POINTS points sit at the angles (k + 1/2) 2 pi/_FAR_POINTS, in
    conjugate pairs, so that none is nearer the axis than 0.049 radii, the
    coefficients are real and only the upper half is evaluated.  The
    series holds on half the circle's radius; reach is the distance from
    the centre to the nearest energy outside every span.
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
    g = (_end_resolvent(v, z, derivative=False)[0]
         - (w / (lam - z[:, None])).sum(axis=1))
    powers = ring ** -np.arange(_FAR_TERMS)[:, None]
    coeffs = (2.0 / _FAR_POINTS) * (powers @ g).real
    return FarTerm(centre, 0.5 * unit, unit, coeffs, v)


def solve(H, window, spans, lows, highs):
    """The windowed SpectralData of the section H for the window (a, b)
    over its spans (spectrum._window_spans), or None where the far term
    finds no room (_far_term) and the section is solved whole."""
    tol = spectrum.BAND_TOL
    marks = np.concatenate([lows - tol * np.maximum(1.0, abs(lows)),
                            highs + tol * np.maximum(1.0, abs(highs))])
    x, lo, hi, ranks = _window_start_values(H.diag, H.period, spans, marks)
    lanes = np.flatnonzero(~np.isnan(x))
    lam, out = spectrum._solve_lanes(H.diag, x, lo, hi, lanes)
    far = _far_term(H.diag, lam, out[0], spans, window)
    if far is None:
        return None
    # no eigenvalue lies below the lowest lane or above the highest
    spans = spans.copy()
    spans[0, 0] = -np.inf if lanes[0] == 0 else spans[0, 0]
    spans[-1, 1] = np.inf if lanes[-1] == H.L else spans[-1, 1]
    p = len(lows)
    return spectrum.SpectralData(
        L=H.L, j=H.L % H.period, lambdas=lam, weights_end=out[0],
        weights_start=out[1], window=Window(
            index=lanes, spans=spans, far=far,
            below=dict(zip(lows.tolist(), ranks[:p].tolist())),
            upto=dict(zip(highs.tolist(), ranks[p:].tolist()))))
