"""Compensated and double-double summation.

The resonance sums are numpy pairwise sums, whose error stays within a few
units of roundoff relative to sum |terms| at every swept resonance, so
`compensated_sum` (pairwise blocks + Neumaier / Kahan-Babuska across them)
is no longer on the resonance path; it gained no digits there.  The
double-double accumulator built on error-free transformations, `dd_sum`,
is the in-project high-precision oracle for spot checks.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64


def _neumaier(values) -> float:
    s = 0.0
    comp = 0.0
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


def _compensated_real(arr: np.ndarray) -> float:
    n = arr.size
    if n == 0:
        return 0.0
    if n <= _BLOCK:
        return _neumaier(arr.tolist())
    nblocks = -(-n // _BLOCK)
    padded = np.zeros(nblocks * _BLOCK, dtype=np.float64)
    padded[:n] = arr
    # pairwise within blocks (numpy reduction), Kahan-compensated across them
    partial = padded.reshape(nblocks, _BLOCK).sum(axis=1)
    return _neumaier(partial.tolist())


def compensated_sum(arr: np.ndarray):
    """Pairwise + Kahan compensated sum of a real or complex array."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return complex(_compensated_real(arr.real), _compensated_real(arr.imag))
    return _compensated_real(arr.astype(np.float64, copy=False))


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
