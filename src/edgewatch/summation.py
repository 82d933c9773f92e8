"""Compensated summation, kept for the benchmark's probe alone.

The resonance sums are numpy pairwise sums, whose error stays within a few
units of roundoff relative to sum |terms| at every swept resonance, so
`compensated_sum` (pairwise blocks + Neumaier / Kahan-Babuska across them)
is no longer on the resonance path; it gained no digits there, and no
command imports this module.  The benchmark still times it.
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

