import math

import numpy as np
import pytest

from edgewatch.summation import compensated_sum

from oracles import dd_sum


def test_compensated_matches_fsum_cancellation():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(10, 3000))
        big = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(0, 12, n)
        arr = np.concatenate([big, -big, rng.uniform(-1, 1, n)])
        rng.shuffle(arr)
        exact = math.fsum(arr)
        got = compensated_sum(arr)
        scale = math.fsum(np.abs(arr))
        assert abs(got - exact) <= 1e-14 * scale


def test_dd_sum_matches_fsum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        arr = rng.uniform(-1, 1, 500) * 10.0 ** rng.integers(-8, 8, 500)
        exact = math.fsum(arr)
        got = dd_sum(arr)
        assert got == pytest.approx(exact, abs=1e-16 * math.fsum(np.abs(arr)))


def test_complex_sums():
    arr = np.array([1 + 1j, 1e-18 - 1j, -1 + 0j])
    c = compensated_sum(arr)
    d = dd_sum(arr)
    assert c.real == pytest.approx(1e-18, abs=1e-33)
    assert c.imag == 0.0
    assert d == c


def test_small_and_empty_arrays():
    assert compensated_sum(np.array([])) == 0.0
    assert compensated_sum(np.array([1.5])) == 1.5
    assert dd_sum(np.array([1.5, 2.5])) == 4.0
