"""The resonance equation and its solvers.

Resonances of the truncated half-line operator are the zeros of
f(E) = S_L(E) + exp(-i theta(E)) in the lower half-plane, where S_L sums
weight/(eigenvalue - E) over the spectral data of the Dirichlet section and
theta inverts E = 2 cos(theta) on the branch that is positive-imaginary for
Im E > 0.  The machinery: stable evaluation of S_L and f, the closed-form
seed lambda_n + a_n/alpha_n, damped Newton refinement, argument-principle
counting with pole correction, band-edge sweeps, and resonance-free-region
certification.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdaptiveDepthExceeded,
    EdgeTooCloseToEigenvalue,
    EigenvalueInInterval,
    EmptyRegion,
    NoConvergence,
    NonGenericEdge,
    OnBranchCut,
    PoleHit,
    UniquenessFailed,
)
from .floquet import BandStructure, EdgeClassification, EdgeData
from .spectrum import L_SOFT_CAP, SpectralData
from .summation import dd_sum

__all__ = [
    "ResonanceBox",
    "Resonance",
    "theta",
    "theta_prime",
    "s_l",
    "s_l_dd",
    "f_and_fprime",
    "alpha_and_seed",
    "newton_refine",
    "winding_number",
    "winding_count",
    "count_in_box",
    "locate_resonance",
    "sweep_band_edge",
    "free_region_check",
    "no_root_certificate",
]


# ---------------------------------------------------------------------------
# Branch-correct square-root phase


def theta(E):
    """Inverse of E = 2 cos(theta) with Re theta in (-pi, 0), Im theta > 0 above axis.

    Analytic on the plane cut along (-inf, -2] and [2, +inf); real energies on
    the cuts are rejected.
    """
    z = complex(E)
    if z.imag == 0.0 and abs(z.real) >= 2.0:
        raise OnBranchCut(f"E = {E} lies on a branch cut")
    return -cmath.acos(z / 2.0)


def theta_prime(E):
    """Derivative of theta on the same branch (validated by finite differences)."""
    z = complex(E)
    return 1.0 / (2.0 * cmath.sqrt(1.0 - (z / 2.0) ** 2))


# ---------------------------------------------------------------------------
# The finite sum S_L and the resonance function f


_POLE_TOL = 1e-14  # closest approach to an eigenvalue, relative to scale


def _terms(sd: SpectralData, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """diffs = eigenvalue - z and terms = weight/diffs, refusing z at a pole.

    The one pole-guarded evaluation of the terms of S_L; S_L, f and f' are
    numpy (pairwise) sums over what it returns.
    """
    diffs = sd.lambdas - z
    dist = np.abs(diffs)
    k = int(np.argmin(dist))
    if dist[k] < _POLE_TOL * sd.scale:
        raise PoleHit(f"E = {z} is within {_POLE_TOL:g}*scale of eigenvalue "
                      f"{sd.lambdas[k]} (k = {k})")
    return diffs, sd.weights_end / diffs


def s_l(sd: SpectralData, E) -> complex:
    """Sum of weight/(eigenvalue - E) over all L+1 eigenvalues."""
    if sd.L > L_SOFT_CAP:
        warnings.warn(f"L = {sd.L} exceeds the working-precision cap {L_SOFT_CAP}",
                      stacklevel=2)
    return complex(np.sum(_terms(sd, complex(E))[1]))


def s_l_dd(sd: SpectralData, E) -> complex:
    """Double-double summation oracle for s_l (spot checks only)."""
    return complex(dd_sum(_terms(sd, complex(E))[1]))


def f_and_fprime(sd: SpectralData, E) -> tuple[complex, complex]:
    """The resonance function f = S_L + exp(-i theta) and its derivative."""
    z = complex(E)
    diffs, terms = _terms(sd, z)
    ph = cmath.exp(-1j * theta(z))
    f = complex(np.sum(terms)) + ph
    fp = complex(np.sum(terms / diffs)) - 1j * theta_prime(z) * ph
    return f, fp


# ---------------------------------------------------------------------------
# Closed-form seed and Newton refinement


def alpha_and_seed(sd: SpectralData, band: int, n: int) -> tuple[complex, complex]:
    """Pole-removed sum at lambda_n plus the phase term, and the seed it implies.

    alpha_n sums weight/(eigenvalue - lambda_n) over every *other* eigenvalue
    (outside-band ones included) and adds exp(-i theta(lambda_n)); the seed is
    lambda_n + a_n/alpha_n, always strictly below the real axis.
    """
    if sd.band_of is None:
        raise ValueError("run band_enumerate first")
    members = sd.band_members(band)
    if not 0 <= n < len(members):
        raise ValueError(f"band {band} has no local index {n}")
    g = int(members[n])
    lam_n = float(sd.lambdas[g])
    if abs(lam_n) >= 2.0:
        raise OnBranchCut(f"lambda_n = {lam_n} is outside (-2, 2)")
    others = np.delete(np.arange(len(sd.lambdas)), g)
    diffs = sd.lambdas[others] - lam_n
    if np.min(np.abs(diffs)) <= _POLE_TOL * sd.scale:
        raise PoleHit(f"coincident eigenvalues at lambda = {lam_n}")
    alpha = complex(np.sum(sd.weights_end[others] / diffs))
    alpha += cmath.exp(-1j * theta(lam_n))
    seed = complex(lam_n + sd.weights_end[g] / alpha)
    return alpha, seed


def newton_refine(sd: SpectralData, seed: complex, max_iter: int = 50,
                  tol: float = 1e-11) -> tuple[complex, float, int]:
    """Damped Newton iteration on f from a lower-half-plane seed.

    Full step first, halved up to 8 times until |f| decreases; iterates are
    clamped below the real axis.  Divergence raises NoConvergence carrying
    the last iterate instead of returning a wrong root.
    """
    z = complex(seed)
    if z.imag >= 0:
        raise ValueError(f"seed {seed} must lie in the open lower half-plane")
    eps = float(np.finfo(float).eps)
    fz, fpz = f_and_fprime(sd, z)
    best = abs(fz)
    for it in range(max_iter):
        if best <= tol:
            return z, best, it
        step = fz / fpz
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            raise NoConvergence(z, best, it, "non-finite Newton step")
        accepted = False
        t = 1.0
        for _ in range(9):
            cand = z - t * step
            if cand.imag >= 0.0:
                cand = complex(cand.real, -1e-30)
            try:
                fc, fpc = f_and_fprime(sd, cand)
            except PoleHit:
                t *= 0.5
                continue
            if abs(fc) < best:
                z, fz, fpz, best = cand, fc, fpc, abs(fc)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no representable point nearby improves |f|; accept z as the
            # machine root if the residual sits at the derivative-limited
            # evaluation floor (one ulp of z times |f'|), else give up
            floor = 16.0 * eps * max(1.0, abs(z)) * abs(fpz)
            if best <= max(tol, floor):
                return z, best, it + 1
            raise NoConvergence(z, best, it + 1,
                                f"Newton stalled at |f| = {best:.3e} above the "
                                f"resolution floor {floor:.3e}")
    if best <= tol:
        return z, best, max_iter
    raise NoConvergence(z, best, max_iter)


# ---------------------------------------------------------------------------
# Argument-principle counting


_SAMPLES_PER_EDGE = 16  # initial samples on each side of a contour
_MAX_DEPTH = 24  # bisection levels allowed below one initial sample interval


def winding_number(func, rect) -> int:
    """Winding number of func along a rectangle boundary, positively oriented.

    Phase increments are tracked by adaptive sampling: each boundary segment
    is bisected until its increment is below pi/2, up to _MAX_DEPTH levels.
    Returns zeros minus poles enclosed; failure to track the phase raises
    AdaptiveDepthExceeded rather than quietly returning a miscount.
    """
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in rect)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError(f"degenerate rectangle {rect}")
    corners = [complex(x_lo, y_lo), complex(x_hi, y_lo),
               complex(x_hi, y_hi), complex(x_lo, y_hi), complex(x_lo, y_lo)]

    def val(z):
        w = complex(func(z))
        if w == 0 or not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise AdaptiveDepthExceeded(
                f"boundary value vanished or blew up at {z}")
        return w

    total = 0.0
    for c1, c2 in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE + 1)
        pts = [c1 + (c2 - c1) * t for t in ts]
        vals = [val(z) for z in pts]
        for i in range(_SAMPLES_PER_EDGE):
            stack = [(pts[i], vals[i], pts[i + 1], vals[i + 1], 0)]
            while stack:
                z1, w1, z2, w2, depth = stack.pop()
                dphi = cmath.phase(w2 / w1)
                if abs(dphi) < math.pi / 2.0:
                    total += dphi
                    continue
                if depth >= _MAX_DEPTH:
                    raise AdaptiveDepthExceeded(
                        f"phase step {dphi:.3f} at depth {depth} near {z1}")
                zm = 0.5 * (z1 + z2)
                wm = val(zm)
                stack.append((zm, wm, z2, w2, depth + 1))
                stack.append((z1, w1, zm, wm, depth + 1))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 1e-6:
        raise AdaptiveDepthExceeded(
            f"accumulated phase {total:.6f} is not a multiple of 2*pi")
    return int(round(w))


def winding_count(sd: SpectralData, rect) -> int:
    """Winding number of the resonance function f along a rectangle.

    The two vertical edges must keep clear of every eigenvalue and the
    boundary must avoid the branch cuts.
    """
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in rect)
    guard = 1e-10 * sd.scale
    for x in (x_lo, x_hi):
        d = float(np.min(np.abs(sd.lambdas - x)))
        if d < guard:
            raise EdgeTooCloseToEigenvalue(
                f"vertical edge x = {x} is {d:.3e} from an eigenvalue")
    if y_lo <= 0.0 <= y_hi and max(abs(x_lo), abs(x_hi)) >= 2.0:
        raise OnBranchCut("rectangle crosses the real axis outside (-2, 2)")

    def f(z):
        return complex(np.sum(_terms(sd, z)[1])) + cmath.exp(-1j * theta(z))

    return winding_number(f, rect)


# ---------------------------------------------------------------------------
# Boxes, counting, sweeping


@dataclass(frozen=True)
class ResonanceBox:
    """Real interval times [-depth, 0]; the search cell for one resonance."""

    x_lo: float
    x_hi: float
    depth: float
    n: int

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.depth > 0):
            raise ValueError(f"invalid box {self}")

    def contains(self, z: complex) -> bool:
        return (self.x_lo <= z.real <= self.x_hi
                and -self.depth <= z.imag <= 0.0)


@dataclass(frozen=True)
class Resonance:
    """One located resonance with its certificate data."""

    band: int
    n: int
    lambda_n: float
    a_n: float
    alpha_n: complex
    seed: complex
    z: complex
    residual: float
    box: ResonanceBox
    winding_verified: bool
    newton_iters: int


def count_in_box(sd: SpectralData, box: ResonanceBox) -> int:
    """Number of resonances in the closed box below the real axis.

    f has no zeros on or above the axis, so the contour is lifted to
    Im = +delta, a tenth of the closest approach of an enclosed eigenvalue to
    a vertical edge (clearing the real poles), and the eigenvalues strictly
    inside the real interval are added back to the winding number.
    """
    inside = sd.lambdas[(sd.lambdas > box.x_lo) & (sd.lambdas < box.x_hi)]
    P = len(inside)
    if P:
        delta = 0.1 * float(np.min(np.minimum(inside - box.x_lo,
                                              box.x_hi - inside)))
    else:
        delta = 0.1 * (box.x_hi - box.x_lo)
    W = winding_count(sd, (box.x_lo, box.x_hi, -box.depth, delta))
    return W + P


def _edge_ordered_members(sd: SpectralData, edge: EdgeData) -> np.ndarray:
    members = sd.band_members(edge.band_index)
    return members[::-1] if edge.side == "right" else members


def _box_for(sd: SpectralData, edge: EdgeData, n: int,
             depth: float) -> ResonanceBox:
    members = _edge_ordered_members(sd, edge)
    if n < 0:
        raise ValueError(f"resonance index n must be >= 0, got {n}")
    if n + 1 >= len(members):
        raise ValueError(f"need eigenvalue n+1 = {n + 1} inside the band, have "
                         f"{len(members)}")
    lam = sd.lambdas[members]
    lam_n = lam[n]
    lam_prev = 2.0 * edge.e0 - lam[0] if n == 0 else lam[n - 1]
    lam_next = lam[n + 1]
    a = 0.5 * (lam_prev + lam_n)
    b = 0.5 * (lam_n + lam_next)
    return ResonanceBox(x_lo=min(a, b), x_hi=max(a, b), depth=depth, n=n)


def _sweep_one(sd, edge, n, eps, C0, newton_tol, max_iter, strict):
    box = _box_for(sd, edge, n, depth=eps ** 5)  # checks n before any indexing
    members = _edge_ordered_members(sd, edge)
    local = int(sd.local_index[members[n]])
    alpha, seed = alpha_and_seed(sd, edge.band_index, local)
    z, residual, iters = newton_refine(sd, seed, max_iter=max_iter,
                                       tol=newton_tol)
    count = count_in_box(sd, box)
    shallow = C0 * (n + 1) / sd.L ** 2
    in_shallow = (box.x_lo <= z.real <= box.x_hi
                  and -shallow <= z.imag < 0.0)
    verified = (count == 1) and in_shallow and z.imag < 0.0 and box.contains(z)
    if strict and count != 1:
        raise UniquenessFailed(n, count)
    if strict and not verified:
        raise UniquenessFailed(
            n, count, f"resonance n={n}: z = {z} failed the box membership checks")
    lam_n = float(sd.lambdas[members[n]])
    return Resonance(
        band=edge.band_index, n=n, lambda_n=lam_n,
        a_n=float(sd.weights_end[members[n]]), alpha_n=alpha, seed=seed, z=z,
        residual=residual, box=box, winding_verified=verified,
        newton_iters=iters,
    )


def locate_resonance(sd: SpectralData, edge: EdgeData, n: int,
                     eps: float = 0.2, C0: float = 50.0,
                     newton_tol: float = 1e-11, max_iter: int = 50,
                     strict: bool = True) -> Resonance:
    """Locate and certify the single resonance attached to eigenvalue n."""
    if edge.classification not in (EdgeClassification.GENERIC_A,
                                   EdgeClassification.GENERIC_B):
        raise NonGenericEdge(
            f"edge {edge.e0} is {edge.classification.value}")
    return _sweep_one(sd, edge, n, eps, C0, newton_tol, max_iter, strict)


def sweep_band_edge(sd: SpectralData, edge: EdgeData,
                    eps: float = 0.2, C0: float = 50.0, C1: float = 10.0,
                    newton_tol: float = 1e-11, max_iter: int = 50,
                    strict: bool = True) -> list[Resonance]:
    """Locate and certify the resonance attached to each near-edge eigenvalue.

    For n = 0 .. floor(eps*L/C1): build the box between midpoints of
    neighbouring eigenvalues (reflecting through the edge for n = 0) with
    depth eps^5, refine the closed-form seed by Newton, and verify that the
    box holds exactly one resonance lying within the shallower cell of depth
    C0 (n+1)/L^2.  With strict=True any failed certificate raises
    UniquenessFailed; otherwise it is recorded on the Resonance.
    """
    if edge.classification not in (EdgeClassification.GENERIC_A,
                                   EdgeClassification.GENERIC_B):
        raise NonGenericEdge(
            f"edge {edge.e0} is {edge.classification.value}; sweep requires a "
            "generic edge")
    if not 0.0 < eps <= 0.3:
        raise ValueError(f"eps must be in (0, 0.3], got {eps}")
    if sd.L * eps / C1 < 3:
        raise ValueError(f"L*eps/C1 = {sd.L * eps / C1:.2f} < 3; increase L")
    if abs(edge.e0) >= 2.0:
        raise OnBranchCut(f"edge {edge.e0} is outside (-2, 2)")
    if sd.band_of is None:
        raise ValueError("run band_enumerate first")
    n_max = int(math.floor(eps * sd.L / C1))
    members = _edge_ordered_members(sd, edge)
    if n_max + 1 >= len(members):
        raise ValueError(
            f"band {edge.band_index} holds {len(members)} eigenvalues; need "
            f"{n_max + 2} for the requested sweep")

    return [_sweep_one(sd, edge, n, eps, C0, newton_tol, max_iter, strict)
            for n in range(n_max + 1)]


def free_region_check(sd: SpectralData, edge: EdgeData, eps: float,
                      bs: BandStructure) -> bool:
    """Certify the rectangle [e0 - eps, e0] x [-eps^5, 0] holds no resonance.

    Requires a left edge with an eigenvalue-free interval of width eps below
    it; an eigenvalue inside the interval raises EigenvalueInInterval.
    """
    if edge.side != "left":
        raise ValueError("free_region_check applies to left band edges")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if edge.band_index > 0:
        prev_top = bs.bands[edge.band_index - 1][1]
        if edge.e0 - eps < prev_top:
            raise ValueError(
                f"gap below the edge is narrower than eps = {eps}")
    lo, hi = edge.e0 - eps, edge.e0
    inside = sd.lambdas[(sd.lambdas >= lo) & (sd.lambdas <= hi)]
    if len(inside):
        raise EigenvalueInInterval(float(inside[0]))
    box = ResonanceBox(x_lo=lo, x_hi=hi, depth=eps ** 5, n=0)
    return count_in_box(sd, box) == 0


# ---------------------------------------------------------------------------
# Small-imaginary-part certificates


_CERTIFICATE_GRID = 30  # lattice points per side of the certificate strip


def no_root_certificate(sd: SpectralData, edge: EdgeData, n: int, eps: float,
                        C0: float = 50.0) -> tuple[float, float]:
    """(max |Im S_L|, min |Im exp(-i theta)|) over a lattice on the strip.

    The strip lies between the shallow cell of depth C0 (n+1)/L^2 and the
    box floor eps^5, sampled on a _CERTIFICATE_GRID x _CERTIFICATE_GRID
    lattice.  The first value strictly below the second certifies that the
    resonance equation has no solution there.
    """
    top = C0 * (n + 1) / sd.L ** 2
    bottom = eps ** 5
    if top >= bottom:
        raise EmptyRegion(
            f"C0*(n+1)/L^2 = {top:.3e} >= eps^5 = {bottom:.3e}; "
            "the strip between the shallow cell and the box floor is empty")
    box = _box_for(sd, edge, n, depth=bottom)
    xs = np.linspace(box.x_lo, box.x_hi, _CERTIFICATE_GRID)
    im_s, im_phase = 0.0, math.inf
    for y in np.linspace(-bottom, -top, _CERTIFICATE_GRID):
        for x in xs:
            z = complex(x, y)
            im_s = max(im_s, abs(complex(np.sum(_terms(sd, z)[1])).imag))
            im_phase = min(im_phase, abs(cmath.exp(-1j * theta(z)).imag))
    return im_s, im_phase
