"""The boxes of a band-edge sweep.

Box n of a sweep lies between the midpoints from eigenvalue n of the edge
to its neighbours, with the certificate's floor eps^5; one rule
(_box_ends, _disc) gives each box's ends and the disc around its contour,
for the boxes of a solved section (_boxes_for) and for the window a sweep
asks of spectrum.eigensystem before any eigenvalue is known (sweep_window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floquet import BandStructure, EdgeData, predicted_eigenvalues
from .spectrum import SpectralData

_RHO = 0.125  # far eigenvalues lie beyond r/_RHO of a contour's centre


@dataclass(frozen=True)
class ResonanceBox:
    """[x_lo, x_hi] x [-depth, 0]: the search cell of one resonance, or the
    rectangle of a free-region certificate."""

    x_lo: float
    x_hi: float
    depth: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.depth > 0):
            raise ValueError(f"invalid box {self}")

    @classmethod
    def between(cls, a, b, eps: float) -> ResonanceBox:
        """The box over the interval between a and b with the certificate's
        floor eps^5, in Python floats."""
        return cls(x_lo=float(min(a, b)), x_hi=float(max(a, b)),
                   depth=float(eps) ** 5)

    @property
    def reach(self) -> float:
        """The largest |Re z| in the box."""
        return max(abs(self.x_lo), abs(self.x_hi))

    @property
    def meets_cuts(self) -> bool:
        """Whether the box meets the real axis outside (-2, 2)."""
        return self.reach >= 2.0

    def contains(self, z: complex) -> bool:
        return (self.x_lo <= z.real <= self.x_hi
                and -self.depth <= z.imag <= 0.0)


def sweep_indices(L: int, eps: float, C1: float) -> range:
    """The eigenvalues n = 0 .. floor(eps*L/C1) from the edge that a sweep
    boxes."""
    return range(int(math.floor(eps * L / C1)) + 1)


def _box_for(sd: SpectralData, edge: EdgeData, n: int,
             eps: float) -> tuple[int, ResonanceBox]:
    """(g, box) of eigenvalue n from the edge: the one-index call of
    _boxes_for."""
    return _boxes_for(sd, edge, [n], eps)[0]


def _boxes_for(sd: SpectralData, edge: EdgeData, ns,
               eps: float) -> list[tuple[int, ResonanceBox]]:
    """(g, box) of each eigenvalue n >= 0 of ns from the edge: its global
    index g and its box of floor eps^5 between the midpoints to lambda_{n-1}
    (lambda_0 reflected through the edge for n = 0) and lambda_{n+1}
    (_box_ends).  Eigenvalue n+1 must be in the band and n-1 .. n+1 lanes
    of the section; the first n of ns that fails raises ValueError."""
    members = sd.edge_members(edge)
    n = np.asarray(ns, dtype=int)
    idx = np.stack([np.maximum(n - 1, 0), n, n + 1])
    near = np.append(members, -1)[np.minimum(idx, len(members))]
    past = n + 1 >= len(members)
    bad = np.flatnonzero(past | (near < 0).any(axis=0))
    if len(bad):
        k = int(n[bad[0]])
        if past[bad[0]]:
            raise ValueError(f"need eigenvalue n+1 = {k + 1} inside the band, "
                             f"have {len(members)}")
        raise ValueError(f"eigenvalues {max(0, k - 1)}..{k + 1} from the edge "
                         "are not all in the section's window")
    a, b = _box_ends(edge, n, sd.lambdas[near])
    return [(g, ResonanceBox.between(x, y, eps))
            for g, x, y in zip(near[1].tolist(), a.tolist(), b.tolist())]


def _box_ends(edge: EdgeData, n, lam):
    """(a, b): the ends of the box of eigenvalue n from the edge, the
    midpoints to its neighbours, from lam = (lambda_{n-1}, lambda_n,
    lambda_{n+1}); lambda_{n-1} is unread at n = 0, where lambda_0
    reflected through the edge stands in.  Elementwise over arrays."""
    prev, lam_n, lam_next = lam
    prev = np.where(n == 0, 2.0 * edge.e0 - lam_n, prev)
    return 0.5 * (prev + lam_n), 0.5 * (lam_n + lam_next)


def _disc(a, b, eps: float):
    """(c, r): the centre on the axis of the box between a and b of floor
    eps^5 and a radius that bounds its contour, lifted by at most a tenth
    of its width (count_in_box).  Elementwise over arrays."""
    half = 0.5 * np.abs(b - a)
    return 0.5 * (a + b), np.hypot(half, np.maximum(float(eps) ** 5, half))


def sweep_window(bs: BandStructure, edge: EdgeData, L: int, ns,
                 eps: float) -> tuple[float, float] | None:
    """The window of spectrum.eigensystem for the boxes ns at the edge:
    the smallest interval that holds each box's r/_RHO disc (_disc), from
    the eigenvalues the discriminant predicts (predicted_eigenvalues).  A
    box whose eigenvalue n+1 would lie past the band is left to the sweep's
    refusal; with no box left the window is None, the whole section.
    spectrum.eigensystem decides whether the window pays (WINDOW_SHARE).
    """
    n = np.array([n for n in ns if bs.period * (n + 2) < L + 1])
    if not len(n):
        return None
    lam = predicted_eigenvalues(bs, edge, L, n.max() + 2)
    c, r = _disc(*_box_ends(edge, n, lam[np.stack([np.maximum(n - 1, 0), n,
                                                   n + 1])]), eps)
    return float(np.min(c - r / _RHO)), float(np.max(c + r / _RHO))
