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
from .boxes import (
    _RHO,
    ResonanceBox,
    _box_for,
    _boxes_for,
    sweep_indices,
    sweep_window,
)
from .floquet import BandStructure, EdgeData
from .spectrum import SpectralData

__all__ = [
    "ResonanceBox",
    "Resonance",
    "theta",
    "theta_prime",
    "s_l",
    "f_and_fprime",
    "alpha_and_seed",
    "newton_refine",
    "winding_number",
    "check_step_inputs",
    "check_region_inputs",
    "sweep_indices",
    "sweep_window",
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
_CHUNK = 1 << 13  # entries of a (points or boxes) x eigenvalues temporary

# Fixed constants of the certificate: the shallow cell of resonance n has
# depth SHALLOW_C0 (n+1)/L^2, and Newton stops at |f| <= NEWTON_TOL (or at
# its representability floor) within NEWTON_MAX_ITER steps.
SHALLOW_C0 = 50.0
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50


def _nearest(lambdas: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """(distance, index) of the eigenvalue nearest each real x, the lower
    index on a tie.

    The one nearest-eigenvalue search of the module: a binary search in the
    sorted eigenvalues, then the neighbours on either side.  For complex z
    the distance to the nearest eigenvalue is hypot(distance at Re z, Im z).
    """
    i = np.searchsorted(lambdas, x)
    below = np.abs(lambdas.take(i - 1, mode="clip") - x)
    above = np.abs(lambdas.take(i, mode="clip") - x)
    return (np.minimum(below, above),
            np.clip(i - (below <= above), 0, len(lambdas) - 1))


def _pole_error(sd: SpectralData, z: complex) -> PoleHit:
    """The PoleHit of a point z within _POLE_TOL*scale of an eigenvalue."""
    k = int(_nearest(sd.lambdas, z.real)[1])
    return PoleHit(f"E = {z} is within {_POLE_TOL:g}*scale of "
                   f"eigenvalue {sd.lambdas[k]} (k = {k})")


def _pole_hits(sd: SpectralData, z: np.ndarray) -> np.ndarray:
    """Whether each point of a complex array lies within _POLE_TOL*scale of
    an eigenvalue: the pole guard of every evaluator."""
    return (np.hypot(_nearest(sd.lambdas, z.real)[0], z.imag)
            < _POLE_TOL * sd.scale)


def s_l(sd: SpectralData, E) -> complex:
    """Sum of weight/(eigenvalue - E) over all L+1 eigenvalues (a window's
    lanes and its far term): the one-point call of _s_rows, which raises
    PoleHit at a pole."""
    return _one_row(sd, _s_rows, E)[0]


def f_and_fprime(sd: SpectralData, E) -> tuple[complex, complex]:
    """The resonance function f = S_L + exp(-i theta) and its derivative.

    The one-point call of _f_rows; a point within _POLE_TOL*scale of an
    eigenvalue raises PoleHit, a real point on the cuts OnBranchCut.
    """
    return _one_row(sd, _f_rows, E)


def _one_row(sd: SpectralData, kernel, E):
    z = complex(E)
    value = kernel(sd, [z])[0]
    if value is None:
        raise _pole_error(sd, z)
    return value


def _s_rows(sd: SpectralData, zs) -> list:
    """S_L and S_L' at each point of zs: the pair (S_L, S_L'), or None at a
    point within _POLE_TOL*scale of an eigenvalue (the guard of _pole_hits).

    The exact point kernel of S_L.  The terms w/(lambda - z) of a point are
    one contiguous row, and so are the terms w/(lambda - z)^2; numpy's sum
    along a row is the same pairwise sum as over that row alone, so a
    point's values do not depend on the other points of its block.  The
    rows run in blocks of at most _CHUNK entries.  A windowed section's
    rows hold its lanes and its far term's poles; a point off the poles'
    disc takes both values from the section's resolvent (FarTerm.exact).
    """
    zs = np.asarray(zs, dtype=complex)
    ok = np.flatnonzero(~_pole_hits(sd, zs))
    points = zs[ok].tolist()
    # the complex operands that the mixed real-complex arithmetic casts to
    lam = sd.lambdas.astype(complex)
    w = sd.weights_end.astype(complex)
    if sd.far is not None:
        lam = np.concatenate([lam, sd.far.poles])
        w = np.concatenate([w, sd.far.residues])
    rows = max(1, _CHUNK // len(lam))
    diffs = np.empty((min(len(points), rows), len(lam)), dtype=complex)
    terms = np.empty_like(diffs)
    sums = np.empty((2, len(points)), dtype=complex)
    for s in range(0, len(points), rows):
        block = points[s:s + rows]
        d, t = diffs[:len(block)], terms[:len(block)]
        for row, z in zip(d, block):
            np.subtract(lam, z, row)
        np.divide(w, d, t)
        sums[0, s:s + rows] = np.add.reduce(t, 1)
        np.divide(t, d, t)
        sums[1, s:s + rows] = np.add.reduce(t, 1)
    if sd.far is not None:
        sd.far.exact(zs[ok], sums, ~sd.far.covers(zs[ok]))
    out = [None] * len(zs)
    for i, pair in zip(ok.tolist(), zip(*sums.tolist())):
        out[i] = pair
    return out


def _f_rows(sd: SpectralData, zs) -> list:
    """f and f' at each point of zs: _s_rows with the phase exp(-i theta)
    and its derivative added per point in cmath, where theta raises at a
    real point on the cuts.  The exact kernel of the seeds' Newton steps.
    """
    out = _s_rows(sd, zs)
    for i, (z, value) in enumerate(zip(zs, out)):
        if value is not None:
            ph = cmath.exp(-1j * theta(z))
            out[i] = (value[0] + ph, value[1] - 1j * theta_prime(z) * ph)
    return out


# ---------------------------------------------------------------------------
# Closed-form seed and Newton refinement


def alpha_and_seed(sd: SpectralData, band: int, n: int) -> tuple[complex, complex]:
    """Pole-removed sum at lambda_n plus the phase term, and the seed it implies.

    alpha_n sums weight/(eigenvalue - lambda_n) over every *other* eigenvalue
    (outside-band ones included) and adds exp(-i theta(lambda_n)); the seed is
    lambda_n + a_n/alpha_n, always strictly below the real axis.  The
    one-index call of the sweep's batched seeds.
    """
    members = sd.band_members(band)
    if not (0 <= n < len(members) and members[n] >= 0):
        raise ValueError(f"band {band} has no local index {n} in the section")
    return _alpha_and_seed(sd, [int(members[n])])[0]


def _alpha_and_seed(sd: SpectralData, gs) -> list[tuple[complex, complex]]:
    """(alpha, seed) of each global index in gs, in order; the first index
    that fails its guards raises.

    theta refuses a lambda_g on the cuts, and of the sorted eigenvalues only
    g-1 and g+1 can coincide with lambda_g (PoleHit).  The sum of index g is
    the pairwise sum of its terms with term g left out, one row per index;
    a windowed section adds its far term's poles at lambda_g, which must
    lie on their disc, real as conjugate pairs (FarTerm.moments).
    """
    lam, w = sd.lambdas, sd.weights_end
    tail = np.zeros(len(gs))
    if sd.far is not None:
        at = lam[np.asarray(gs, dtype=int)]
        if not sd.far.covers(at).all():
            raise ValueError("an eigenvalue lies off the far term's disc of "
                             "the section's window")
        tail = sd.far.moments(at, 1)[0]
    alphas = []
    for g, far in zip(gs, tail.tolist()):
        lam_n = float(lam[g])
        phase = cmath.exp(-1j * theta(lam_n))
        near = [abs(float(lam[k]) - lam_n) for k in (g - 1, g + 1)
                if 0 <= k < len(lam)]
        if min(near, default=math.inf) <= _POLE_TOL * sd.scale:
            raise PoleHit(f"coincident eigenvalues at lambda = {lam_n}")
        d = lam - lam[g]
        d[g] = np.inf  # no division by zero at term g, which the sum skips
        t = w / d
        alpha = np.add.reduce(np.concatenate((t[:g], t[g + 1:])))
        alphas.append(complex(alpha + far) + phase)
    g = np.asarray(gs, dtype=int)
    seeds = lam[g] + w[g] / np.array(alphas, dtype=complex)
    return list(zip(alphas, seeds.tolist()))


def newton_refine(sd: SpectralData, seed: complex,
                  max_iter: int = NEWTON_MAX_ITER,
                  tol: float = NEWTON_TOL) -> tuple[complex, float, int]:
    """Damped Newton iteration on f from a lower-half-plane seed.

    Full step first, halved up to 8 times until |f| decreases; iterates are
    clamped below the real axis.  Divergence raises NoConvergence carrying
    the last iterate instead of returning a wrong root.  The one-seed call
    of _newton, which a sweep runs on all its seeds.
    """
    return _newton(sd, [seed], max_iter, tol)[0]


def _newton_steps(seed, max_iter: int, tol: float):
    """The damped Newton iteration of one seed, as a generator: it yields
    each point to evaluate and is sent (f, f') there, or thrown the point's
    PoleHit; it returns (z, |f(z)|, iterations)."""
    z = complex(seed)
    if z.imag >= 0:
        raise ValueError(f"seed {seed} must lie in the open lower half-plane")
    eps = math.ulp(1.0)
    fz, fpz = yield z
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
                fc, fpc = yield cand
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


def _newton(sd: SpectralData, seeds, max_iter: int,
            tol: float) -> list[tuple[complex, float, int]]:
    """newton_refine of every seed, in lockstep.

    Each round evaluates the next point of every seed still running in one
    _f_rows call; each seed keeps its own step, halvings and iteration
    count, so its result is that of newton_refine on it alone.  The first
    error met raises (a seed's ValueError, NoConvergence, the PoleHit of a
    seed at a pole, an arithmetic error): in the earliest round, the
    lowest-numbered seed's.
    """
    runs = [_newton_steps(seed, max_iter, tol) for seed in seeds]
    out, points = [None] * len(runs), {}

    def advance(k, resume, value):
        try:
            points[k] = resume(value)
        except StopIteration as done:
            out[k] = done.value

    for k, run in enumerate(runs):
        advance(k, run.send, None)
    while points:
        ks = sorted(points)
        zs = [points[k] for k in ks]
        points.clear()
        for k, z, value in zip(ks, zs, _f_rows(sd, zs)):
            if value is None:
                advance(k, runs[k].throw, _pole_error(sd, z))
            else:
                advance(k, runs[k].send, value)
    if sd.far is not None:
        out = sd.far.refine(out, lambda zs: _f_rows(sd, zs))
    return out


# ---------------------------------------------------------------------------
# Argument-principle counting


_SAMPLES_PER_EDGE = 16  # initial samples on each side of a contour
_MAX_DEPTH = 24  # bisection levels allowed below one initial sample interval


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack((a, b), axis=1).ravel()


def _windings(func, rects) -> list[int]:
    """Winding numbers of func along many rectangle boundaries at once.

    func(z, b) returns the values at the points z of rectangles b (integer
    indices into rects).  One adaptive loop serves every rectangle: each
    level evaluates all open segments of all rectangles in one call, and
    each rectangle's phase total is accumulated separately.  The first
    failure raises: an error of func, a vanishing or non-finite value, the
    depth limit or a phase total that is not a multiple of 2*pi
    (AdaptiveDepthExceeded), so among failing rectangles the one met at the
    earliest level.  The points of a rectangle stay contiguous and in its
    own order, so a rectangle's failure and its message are those of the
    rectangle traced alone.
    """
    rects = np.asarray(rects, dtype=float).reshape(-1, 4)
    B = len(rects)
    x_lo, x_hi, y_lo, y_hi = rects.T
    corners = np.stack([x_lo + 1j * y_lo, x_hi + 1j * y_lo, x_hi + 1j * y_hi,
                        x_lo + 1j * y_hi, x_lo + 1j * y_lo], axis=1)
    ts = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE + 1)[:-1]
    sides = (corners[:, 1:] - corners[:, :-1])[:, :, None]
    z1 = (corners[:, :-1, None] + sides * ts).reshape(B, 4 * _SAMPLES_PER_EDGE)
    box = np.repeat(np.arange(B), z1.shape[1])

    def values(z, b):
        w = np.broadcast_to(np.asarray(func(z, b), dtype=complex), z.shape)
        bad = np.flatnonzero((w == 0) | ~np.isfinite(w))
        if bad.size:
            raise AdaptiveDepthExceeded(
                f"boundary value vanished or blew up at {complex(z[bad[0]])}")
        return w

    w1 = values(z1.ravel(), box).reshape(z1.shape)
    z2, w2 = np.roll(z1, -1, axis=1).ravel(), np.roll(w1, -1, axis=1).ravel()
    z1, w1 = z1.ravel(), w1.ravel()
    total = np.zeros(B)
    depth = 0
    while True:
        dphi = np.angle(w2 / w1)
        ok = np.abs(dphi) < math.pi / 2.0
        total += np.bincount(box[ok], weights=dphi[ok], minlength=B)
        bad = np.flatnonzero(~ok)
        if not bad.size:
            break
        if depth >= _MAX_DEPTH:
            i = bad[0]
            raise AdaptiveDepthExceeded(
                f"phase step {dphi[i]:.3f} at depth {depth} near "
                f"{complex(z1[i])}")
        z1, w1, z2, w2, box = z1[bad], w1[bad], z2[bad], w2[bad], box[bad]
        zm = 0.5 * (z1 + z2)
        wm = values(zm, box)
        z1, z2 = _interleave(z1, zm), _interleave(zm, z2)
        w1, w2 = _interleave(w1, wm), _interleave(wm, w2)
        box = _interleave(box, box)
        depth += 1
    out = []
    for t in total.tolist():
        w = t / (2.0 * math.pi)
        if abs(w - round(w)) > 1e-6:
            raise AdaptiveDepthExceeded(
                f"accumulated phase {t:.6f} is not a multiple of 2*pi")
        out.append(int(round(w)))
    return out


def winding_number(func, rect) -> int:
    """Winding number of func along a rectangle boundary, positively oriented.

    func maps a 1-D complex array of boundary points to the array of its
    values.  Phase increments are tracked by adaptive sampling, one call per
    level: the 4 x _SAMPLES_PER_EDGE initial samples, then the midpoints of
    every segment whose increment is not below pi/2, up to _MAX_DEPTH
    levels.  Returns zeros minus poles enclosed; a vanishing or non-finite
    value, or failure to track the phase, raises AdaptiveDepthExceeded
    rather than quietly returning a miscount.  The one-rectangle call of
    the loop that count_in_box and sweep_band_edge run on many.
    """
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in rect)
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError(f"degenerate rectangle {rect}")
    return _windings(lambda z, b: func(z), [(x_lo, x_hi, y_lo, y_hi)])[0]


_MOMENTS = 19  # J: far tail below _RHO**J/(1 - _RHO) sum |w/(lambda - c)|


class _FarField:
    """f on the contours of a group of rectangles.

    Rectangle b has centre c on the axis and radius r = hypot(half-width,
    max |Im|), so each of its points z has |z - c| <= r.  Its near set, the
    eigenvalues within r/_RHO of c, is summed exactly in real arithmetic:
    with d = eigenvalue - Re z and y = Im z, q = w/(d^2 + y^2) and
    S = sum q d + i y sum q.  Every other eigenvalue enters through the
    real moments M_j = sum_far w/(lambda - c)^(j+1), j < _MOMENTS,
    evaluated by Horner in z - c in real arithmetic (numpy's complex
    multiply rounds by the array's length); the truncation error is below
    _RHO**_MOMENTS/(1 - _RHO) sum_far |w/(lambda - c)|.  A windowed
    section's far-term poles join the moments (FarTerm.moments), adding
    sum |rho/(zeta - c)| to that sum, where the rectangle's disc lies on
    the poles' disc and every pole beyond r/_RHO; elsewhere its points take
    S_L from the section's resolvent (FarTerm.exact).  The phase term is
    exp(i arccos(z/2)); the points must lie off the cuts |E| >= 2 of the
    real axis, which the guards of _count_boxes check.  Points within
    _POLE_TOL*scale of an eigenvalue raise PoleHit.
    Every temporary holds at most _CHUNK entries.
    """

    def __init__(self, sd: SpectralData, rects):
        self.sd = sd
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        x_lo, x_hi, y_lo, y_hi = rects.T
        self.centre = 0.5 * (x_lo + x_hi)
        reach = np.hypot(0.5 * (x_hi - x_lo),
                         np.maximum(np.abs(y_lo), np.abs(y_hi))) / _RHO
        lam, w = sd.lambdas, sd.weights_end
        self.lo = np.searchsorted(lam, self.centre - reach, side="left")
        self.hi = np.searchsorted(lam, self.centre + reach, side="right")
        self.moments = np.empty((_MOMENTS, len(rects)))  # M_j of box b: [j, b]
        rows = max(1, _CHUNK // len(lam))
        for s in range(0, len(rects), rows):
            u = lam - self.centre[s:s + rows, None]
            for row, lo, hi in zip(u, self.lo[s:], self.hi[s:]):
                row[lo:hi] = np.inf  # the near set has no moments
            np.divide(1.0, u, out=u)
            v = w * u
            for j in range(_MOMENTS):
                self.moments[j, s:s + rows] = np.add.reduce(v, 1)
                v *= u
        if sd.far is not None:
            # rectangles on the poles' disc with every pole beyond r/_RHO
            off = np.abs(self.centre - sd.far.centre)
            self.fold = ((off + _RHO * reach <= sd.far.radius)
                         & (off + reach <= sd.far.unit))
            self.moments[:, self.fold] += sd.far.moments(
                self.centre[self.fold], _MOMENTS)

    def __call__(self, z: np.ndarray, b: np.ndarray) -> np.ndarray:
        """f at points z of rectangles b; the first point at a pole raises
        its PoleHit."""
        hit = np.flatnonzero(_pole_hits(self.sd, z))
        if hit.size:
            raise _pole_error(self.sd, complex(z[hit[0]]))
        lam, w = self.sd.lambdas, self.sd.weights_end
        x, y = z.real, z.imag
        lo, size = self.lo[b], (self.hi - self.lo)[b]
        out = np.empty(len(z), dtype=complex)
        # blocks of points whose near sets have one size K: no row is
        # padded, so a point's sums are those of its own terms in any call
        s = 0
        for end in np.append(np.flatnonzero(np.diff(size)) + 1, len(z)):
            K = int(size[s])
            step = max(1, _CHUNK // max(1, K))
            for s in range(s, end, step):
                e = min(end, s + step)
                idx = lo[s:e, None] + np.arange(K)
                d = lam[idx] - x[s:e, None]
                ys = y[s:e]
                r = d * d
                r += (ys * ys)[:, None]
                q = w[idx] / r
                out.imag[s:e] = ys * np.add.reduce(q, 1)
                d *= q
                out.real[s:e] = np.add.reduce(d, 1)
            s = end
        # Horner in t = z - c: (fr, fi) <- (fr x - fi y + M_j, fr y + fi x)
        x = x - self.centre.take(b)
        fr, fi = self.moments[-1].take(b), np.zeros(len(z))
        for m in self.moments[-2::-1]:
            a = fi * y
            fi *= x
            fi += fr * y
            fr *= x
            fr -= a
            fr += m.take(b)
        out.real += fr
        out.imag += fi
        if self.sd.far is not None:
            self.sd.far.exact(z, out[None], ~self.fold.take(b))
        return out + np.exp(1j * np.arccos(z / 2.0))


# ---------------------------------------------------------------------------
# Boxes, counting, sweeping


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
    inside the real interval are added back to the winding number.  Both
    vertical edges cross the axis, so the guards of _count_boxes run first.
    The contour is evaluated by _FarField: the eigenvalues near the box
    exactly, the far ones through a few real Taylor moments.  The one-box
    call of _count_boxes, which sweep_band_edge runs on all its boxes, so a
    box raises the same error alone as in its sweep.
    """
    return _count_boxes(sd, [box])[0]


_GROUP = 2048 // (4 * _SAMPLES_PER_EDGE)  # boxes per winding loop


def _count_boxes(sd: SpectralData, boxes) -> list[int]:
    """count_in_box of each box, in two stages that each raise their first
    failure in box order.

    First the guards of every box, in one nearest-eigenvalue search: a
    vertical edge crossing the axis within 1e-10*scale of an eigenvalue
    (EdgeTooCloseToEigenvalue, x_lo before x_hi) or a box on the cuts
    |E| >= 2 (OnBranchCut); a box of a windowed section must lie in one
    span of its window (ValueError), where every eigenvalue is a lane.
    Then the contours, _GROUP boxes per winding
    loop; the first contour failure met raises (see _windings): in the
    earliest group, at its earliest subdivision level.
    """
    lam, out = sd.lambdas, []
    dist = _nearest(lam, [(box.x_lo, box.x_hi) for box in boxes])[0]
    for box, d in zip(boxes, dist.tolist()):
        for x, dx in zip((box.x_lo, box.x_hi), d):
            if dx < 1e-10 * sd.scale:
                raise EdgeTooCloseToEigenvalue(
                    f"vertical edge x = {x} is {dx:.3e} from an eigenvalue")
        if box.meets_cuts:
            raise OnBranchCut(f"box [{box.x_lo}, {box.x_hi}] meets the real "
                              "axis outside (-2, 2)")
        if sd.window is not None and not sd.window.holds(box.x_lo, box.x_hi):
            raise ValueError(f"box [{box.x_lo}, {box.x_hi}] leaves the "
                             "section's window")
    for s in range(0, len(boxes), _GROUP):
        group = boxes[s:s + _GROUP]
        x_lo = np.array([box.x_lo for box in group])
        x_hi = np.array([box.x_hi for box in group])
        first = np.searchsorted(lam, x_lo, side="right")
        stop = np.searchsorted(lam, x_hi, side="left")
        # the eigenvalues inside are sorted: the first and the last come
        # closest to the vertical edges
        delta = 0.1 * np.where(
            stop > first,
            np.minimum(lam.take(first, mode="clip") - x_lo,
                       x_hi - lam.take(stop - 1, mode="clip")),
            x_hi - x_lo)
        rects = [(box.x_lo, box.x_hi, -box.depth, top)
                 for box, top in zip(group, delta.tolist())]
        windings = _windings(_FarField(sd, rects), rects)
        out += [w + P for w, P in zip(windings, (stop - first).tolist())]
    return out


def _shallow_depth(C0: float, n: int, L: int) -> float:
    """Depth C0 (n+1)/L^2 of the shallow cell of resonance n."""
    return C0 * (n + 1) / L ** 2


def _resonances(sd, edge, steps, counts) -> list[Resonance]:
    """The resonance of each step (n, g, box), box n of global index g: its
    seed refined by Newton, and its verdict from the box's count.

    Every seed is built in one pass of per-index sums, then every seed is
    refined by _newton in lockstep; each stage raises its first failure.
    """
    seeded = _alpha_and_seed(sd, [g for _, g, _ in steps])
    roots = _newton(sd, [seed for _, seed in seeded], NEWTON_MAX_ITER,
                    NEWTON_TOL)
    out = []
    for (n, g, box), count, (alpha, seed), (z, residual, iters) in zip(
            steps, counts, seeded, roots):
        shallow = _shallow_depth(SHALLOW_C0, n, sd.L)
        verified = count == 1 and box.contains(z) and -shallow <= z.imag < 0.0
        out.append(Resonance(
            band=edge.band_index, n=n, lambda_n=float(sd.lambdas[g]),
            a_n=float(sd.weights_end[g]), alpha_n=alpha, seed=seed, z=z,
            residual=residual, box=box, winding_verified=verified,
            newton_iters=iters,
        ))
    return out


def check_step_inputs(edge: EdgeData, eps: float, *, L: int | None = None,
                      C1: float | None = None, n: int | None = None):
    """Refuse, in order, NaN failing each: C1 <= 0, an edge outside (-2, 2),
    a non-generic edge, an eps outside (0, 0.3], a sweep's L*eps/C1 < 3 or
    not finite, an eps^5 that underflows to 0 and a step's n < 0; the one
    input check of every box builder, run first."""
    if C1 is not None and not C1 > 0:
        raise ValueError(f"C1 must be positive, got {C1}")
    if not abs(edge.e0) < 2.0:
        raise ValueError(f"edge {edge.e0} lies outside (-2, 2); resonances "
                         "are located only at edges inside it")
    if not edge.is_generic:
        raise NonGenericEdge(
            f"edge {edge.e0} is {edge.classification.value}; resonances are "
            "located only at generic edges")
    if not 0.0 < eps <= 0.3:
        raise ValueError(f"eps must be in (0, 0.3], got {eps}")
    if C1 is not None and not L * eps / C1 >= 3:
        raise ValueError(f"L*eps/C1 = {L * eps / C1:.2f} < 3; increase L")
    if C1 is not None and not math.isfinite(L * eps / C1):
        raise ValueError(f"L*eps/C1 = {L * eps / C1} is not finite; "
                         "increase C1")
    if not eps ** 5 > 0:
        raise ValueError(f"eps = {eps} is too small: eps^5 underflows to 0")
    if n is not None and n < 0:
        raise ValueError(f"resonance index n must be >= 0, got {n}")


def locate_resonance(sd: SpectralData, edge: EdgeData, n: int,
                     eps: float = 0.2) -> Resonance:
    """Locate and certify the resonance of eigenvalue n: one sweep_band_edge step.

    As in the sweep, the box is counted before its seed is refined.  The
    inputs must pass check_step_inputs; a failed certificate raises
    UniquenessFailed.
    """
    check_step_inputs(edge, eps, n=n)
    g, box = _box_for(sd, edge, n, eps)
    count = count_in_box(sd, box)
    r, = _resonances(sd, edge, [(n, g, box)], [count])
    if not r.winding_verified:
        detail = f"resonance n={n}: z = {r.z} failed the box membership checks"
        raise UniquenessFailed(n, count, detail if count == 1 else None)
    return r


def sweep_band_edge(sd: SpectralData, edge: EdgeData,
                    eps: float = 0.2, C1: float = 10.0) -> list[Resonance]:
    """Locate and certify the resonance attached to each near-edge eigenvalue.

    For n = 0 .. floor(eps*L/C1): build the box between midpoints of
    neighbouring eigenvalues (reflecting through the edge for n = 0) with
    depth eps^5, refine the closed-form seed by Newton (tolerance
    NEWTON_TOL, at most NEWTON_MAX_ITER steps), and verify that the box holds
    exactly one resonance lying within the shallower cell of depth
    SHALLOW_C0 (n+1)/L^2.  Each verdict is recorded in winding_verified.

    Four stages, each raising the first failure it meets: every box is
    built (so a band too small for the sweep is refused before the
    numerics), every box is counted by _count_boxes (all the guards, then
    the contours), every seed is built in one pass, and every seed is
    refined by _newton in lockstep rounds of one kernel call each.
    """
    check_step_inputs(edge, eps, L=sd.L, C1=C1)
    ns = sweep_indices(sd.L, eps, C1)
    steps = [(n, *step) for n, step in zip(ns, _boxes_for(sd, edge, ns, eps))]
    counts = _count_boxes(sd, [box for _, _, box in steps])
    return _resonances(sd, edge, steps, counts)


def check_region_inputs(edge: EdgeData, eps: float,
                        bs: BandStructure) -> ResonanceBox:
    """The rectangle [e0 - eps, e0] x [-eps^5, 0] of free_region_check.

    Refuses, in order: a right edge, eps <= 0 or NaN, an eps too small to
    move e0 or with eps^5 = 0, a gap below the edge narrower than eps and a
    rectangle reaching |E| >= 2; the one input check of free_region_check,
    run before any section is built.  The interval's rules are checked on
    a box of unit depth, so a huge eps, whose eps^5 overflows, meets them.
    """
    if edge.side != "left":
        raise ValueError("free_region_check applies to left band edges")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if edge.e0 - eps == edge.e0 or (eps < 1.0 and eps ** 5 == 0):
        raise ValueError(f"eps = {eps} is too small for the edge {edge.e0}")
    box = ResonanceBox.between(edge.e0 - eps, edge.e0, 1.0)
    if edge.band_index > 0 and box.x_lo < bs.bands[edge.band_index - 1][1]:
        raise ValueError(f"gap below the edge is narrower than eps = {eps}")
    if box.meets_cuts:
        raise ValueError(f"rectangle [{box.x_lo}, {box.x_hi}] meets the "
                         "real axis outside (-2, 2)")
    return ResonanceBox.between(edge.e0 - eps, edge.e0, eps)


def free_region_check(sd: SpectralData, edge: EdgeData, eps: float,
                      bs: BandStructure) -> bool:
    """Certify the rectangle [e0 - eps, e0] x [-eps^5, 0] holds no resonance.

    The inputs must pass check_region_inputs; an eigenvalue in the closed
    interval [e0 - eps, e0] raises EigenvalueInInterval.
    """
    box = check_region_inputs(edge, eps, bs)
    lam = sd.lambdas
    inside = lam[np.searchsorted(lam, box.x_lo, side="left"):
                 np.searchsorted(lam, box.x_hi, side="right")]
    if len(inside):
        raise EigenvalueInInterval(float(inside[0]))
    return count_in_box(sd, box) == 0


# ---------------------------------------------------------------------------
# Small-imaginary-part certificate


def no_root_certificate(sd: SpectralData, edge: EdgeData, n: int, eps: float,
                        C0: float = SHALLOW_C0) -> tuple[float, float]:
    """(upper bound of |Im S_L|, lower bound of |Im exp(-i theta)|) on a strip.

    The strip is z = x - iy with x in box n's [x_lo, x_hi] and y between the
    shallow cell's depth top = C0 (n+1)/L^2 and the box floor bottom = eps^5.
    There Im S_L = y sum a_k/((lambda_k - x)^2 + y^2), at most
    bottom sum a_k/(dist_k^2 + top^2) with dist_k the distance of lambda_k
    from [x_lo, x_hi], inflated by the sum's rounding bound; and
    Im exp(-i theta) = Im z/2 + Re sqrt(1 - z^2/4) >= sqrt(1 - xm^2/4) -
    bottom/2 with xm = box.reach, since Re sqrt(w) >= sqrt(Re w).
    The first value strictly below the second proves, for the computed
    eigenvalues and weights, that the resonance equation has no solution on
    the strip.  The inputs must pass check_step_inputs.
    """
    check_step_inputs(edge, eps, n=n)
    sd.check_whole("no_root_certificate")
    _, box = _box_for(sd, edge, n, eps)
    top, bottom = _shallow_depth(C0, n, sd.L), box.depth
    if top >= bottom:
        raise EmptyRegion(
            f"C0*(n+1)/L^2 = {top:.3e} >= eps^5 = {bottom:.3e}; "
            "the strip between the shallow cell and the box floor is empty")
    if box.meets_cuts:
        raise OnBranchCut(f"the strip reaches |Re z| = {box.reach} >= 2")
    dist = np.maximum(0.0, np.maximum(box.x_lo - sd.lambdas,
                                      sd.lambdas - box.x_hi))
    im_s = bottom * float(np.sum(sd.weights_end / (dist ** 2 + top ** 2)))
    im_s *= 1.0 + 4.0 * (sd.L + 1) * math.ulp(1.0)
    return im_s, math.sqrt(1.0 - box.reach ** 2 / 4.0) - bottom / 2.0
