"""Oracles that the tests hold the package to; no command runs them.

Each one is an independent, slower or more precise route to a quantity the
package computes: the double-double sum of S_L, the finite-volume
quantization rule with its boundary phase, the density of states, the
seed-error ratios of a sweep, and two references for the eigensolve (the
plain twisted recurrences and the mpmath eigenpair).
"""

from __future__ import annotations

import mpmath
import numpy as np

from edgewatch import spectrum
from edgewatch.errors import OutsideSpectrum, SpectralError, TooFewPoints
from edgewatch.floquet import BandStructure, _theta_band, product_matrix
from edgewatch.potential import PeriodicPotential
from edgewatch.resonance import Resonance, _terms
from edgewatch.spectrum import BAND_TOL, SpectralData


class EdgeSingularity(SpectralError):
    """Density of states requested too close to a band edge."""


class DegenerateS(SpectralError):
    """Phase numerator vanished; boundary phase is undefined there."""


# ---------------------------------------------------------------------------
# Double-double summation


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _dd_real(values) -> float:
    # double-double accumulator: hi + lo tracks the running sum exactly
    # up to ~2^-106 relative
    hi = 0.0
    lo = 0.0
    for x in values:
        s, e = _two_sum(hi, x)
        e += lo
        hi, lo = _two_sum(s, e)
    return hi + lo


def dd_sum(arr: np.ndarray):
    """Double-double (error-free transformation) sum; the spot-check oracle."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return complex(_dd_real(arr.real.tolist()), _dd_real(arr.imag.tolist()))
    return _dd_real(arr.astype(np.float64, copy=False).tolist())


def s_l_dd(sd: SpectralData, E) -> complex:
    """Double-double summation oracle for s_l (spot checks only)."""
    return complex(dd_sum(_terms(sd, complex(E))[1]))


# ---------------------------------------------------------------------------
# Density of states and boundary phase


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
# Quantization rule and seed accuracy


def quantization_residuals(sd: SpectralData, bs: BandStructure,
                           V: PeriodicPotential,
                           band: int | None = None) -> np.ndarray:
    """Spacing residuals (L-j) * diff(theta_pL) - pi over in-band eigenvalue pairs.

    theta_pL subtracts the boundary phase divided by (L-j) from the
    quasi-momentum; differencing consecutive eigenvalues cancels the branch
    offset of the phase.  Eigenvalues within BAND_TOL of a band edge are
    left out (the phase numerator may vanish right at an edge).
    """
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
        theta = _theta_band(bs, b, lam)
        h = h_values(V, bs, sd.j, lam)
        theta_pl = theta - h / (sd.L - sd.j)
        res.append((sd.L - sd.j) * np.diff(theta_pl) - np.pi)
    if not res:
        raise TooFewPoints("no band has two interior eigenvalues")
    return np.concatenate(res)


def seed_accuracy(resonances: list[Resonance], L: int) -> np.ndarray:
    """Seed-error ratios |z - seed| * L^5 |alpha|^3 / (n+1)^4 per resonance."""
    if not resonances:
        raise TooFewPoints("no resonances given")
    ns = np.array([r.n for r in resonances], dtype=int)
    err = np.array([abs(r.z - r.seed) for r in resonances])
    alph = np.array([abs(r.alpha_n) for r in resonances])
    return err * float(L) ** 5 * alph ** 3 / (ns + 1.0) ** 4


# ---------------------------------------------------------------------------
# Eigensolve references


def _oracle_weights(diag, lam, dps):
    """(root, weight_end, weight_start) at dps digits: Newton on the
    characteristic polynomial from lam, then each end's weight 1/|phi|^2 of
    the eigenvector phi recurred from that end with phi = 1 there.

    A recurrence amplifies the root's error by up to e^(kappa L) towards the
    far end, so a single vector can lose every digit of a gap state's weight
    there; recurred from each end, that error enters only the far sites of
    the norm, where it stays below 10^-dps e^(kappa L).
    """
    with mpmath.workdps(dps):
        v = [mpmath.mpf(float(t)) for t in diag]
        x = mpmath.mpf(float(lam))
        for _ in range(50):
            p0, p1, d0, d1 = mpmath.mpf(1), v[0] - x, mpmath.mpf(0), mpmath.mpf(-1)
            for vi in v[1:]:
                p0, p1, d0, d1 = p1, (vi - x) * p1 - p0, d1, (vi - x) * d1 - p1 - d0
            step = p1 / d1
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (10 - dps):
                break
        weights = []
        for u in (v[::-1], v):
            phi = [mpmath.mpf(1), x - u[0]]
            for i in range(1, len(u) - 1):
                phi.append((x - u[i]) * phi[i] - phi[i - 1])
            weights.append(1 / mpmath.fsum(f * f for f in phi))
        return (x, *weights)


def _twisted_reference(v, x):
    """_twisted_slice kept plain: every pivot and ratio stored at every site.

    Each line is one floating-point operation in the order the kernel's
    docstring states, so the kernel must match it bit for bit.
    """
    n, m = len(v), len(x)
    nudge = spectrum._PIVOT_NUDGE
    dp, R, rho = np.empty((3, n, m))
    dp[0] = (v[0] - x) + nudge
    R[0] = rho[0] = 1.0
    for i in range(1, n):
        u = 1.0 / dp[i - 1]
        dp[i] = ((v[i] - x) - u) + nudge
        y = (u * u) * R[i - 1]
        R[i] = y + 1.0
        rho[i] = (rho[i - 1] * y) / R[i]
    dm, un, Q, sig = np.empty((4, n, m))
    dm[n - 1] = (v[n - 1] - x) + nudge
    un[n - 1] = 0.0
    Q[n - 1] = sig[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        un[i] = 1.0 / dm[i + 1]
        dm[i] = ((v[i] - x) - un[i]) + nudge
        y = (un[i] * un[i]) * Q[i + 1]
        Q[i] = y + 1.0
        sig[i] = (sig[i + 1] * y) / Q[i]
    g = dp - un
    r = np.argmin(np.abs(g), axis=0)   # the lowest site on a tie
    at = (lambda a: a[r, np.arange(m)])
    norm = (at(R) + at(Q)) - 1.0
    return ((at(sig) * at(Q)) / norm, (at(rho) * at(R)) / norm,
            np.abs(at(g)) / np.sqrt(norm), x + at(g) / norm)
