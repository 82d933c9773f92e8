import dataclasses
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import edgewatch as ew
from edgewatch import floquet, spectrum
from edgewatch.errors import AmbiguousAssignment, ConvergenceFailure, TooFewPoints

from oracles import (
    _oracle_weights,
    _twisted_reference,
    h_values,
    quantization_residuals,
)


def test_assemble_shapes():
    V0 = ew.PeriodicPotential.from_values([0.0])
    H = ew.assemble(V0, 2)
    np.testing.assert_array_equal(H.diag, [0.0, 0.0, 0.0])

    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    H = ew.assemble(V, 4)
    np.testing.assert_array_equal(H.diag, [0.0, 3.0, 0.0, 3.0, 0.0])
    with pytest.raises(ValueError):
        ew.assemble(V, 0)


def test_eigensystem_free_chain_small():
    V0 = ew.PeriodicPotential.from_values([0.0])
    sd = ew.eigensystem(ew.assemble(V0, 2))
    np.testing.assert_allclose(sd.lambdas, [-np.sqrt(2), 0.0, np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(sd.weights_end, [0.25, 0.5, 0.25], atol=1e-12)
    np.testing.assert_allclose(sd.weights_start, [0.25, 0.5, 0.25], atol=1e-12)


def _sturm_counts(diag, x):
    """Number of eigenvalues below each shift in x (LDL^T pivot signs)."""
    q = diag[0] - x
    count = (q < 0).astype(int)
    for d in diag[1:]:
        q = np.where(q == 0.0, 1e-300, q)
        q = d - x - 1.0 / q
        count += q < 0
    return count


def _bisection_sections():
    yield [0.0, 3.0], 400
    yield [0.0, 3.0], 2000
    yield [1.0, -2.0, 0.5], 400
    yield [1.0, -2.0, 0.5], 2000
    rng = np.random.default_rng(20)
    for _ in range(3):
        yield rng.uniform(-2, 2, int(rng.integers(1, 6))), 400


def _newton_polish(diag, lam, abs_tol):
    """Two Newton passes on the characteristic recurrence, all shifts at once,
    each correction clipped to 10 * abs_tol; rescaled every step so p/p'
    stays representable for sections of any length."""
    out = lam.copy()
    for _ in range(2):
        p_prev, p_cur = np.ones_like(out), diag[0] - out
        d_prev, d_cur = np.zeros_like(out), -np.ones_like(out)
        for v in diag[1:]:
            a = v - out
            p_new = a * p_cur - p_prev
            d_new = a * d_cur - p_cur - d_prev
            m = np.maximum(np.maximum(np.abs(p_new), np.abs(d_new)), 1.0)
            p_prev, p_cur = p_cur / m, p_new / m
            d_prev, d_cur = d_cur / m, d_new / m
        safe = np.abs(d_cur) > 1e-300
        corr = np.zeros_like(out)
        corr[safe] = p_cur[safe] / d_cur[safe]
        out = out - np.clip(corr, -10.0 * abs_tol, 10.0 * abs_tol)
    return out


def test_eigenvalues_match_bisection():
    # Sturm bisection (LAPACK stebz) with its own Newton polish is the
    # reference
    for values, L in _bisection_sections():
        H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
        abs_tol = 1e-13 * (2.0 + np.max(np.abs(H.diag)))
        ref = eigh_tridiagonal(H.diag, np.ones(L), eigvals_only=True,
                               lapack_driver="stebz", tol=abs_tol)
        ref = np.sort(_newton_polish(H.diag, ref, abs_tol))
        lam = ew.eigensystem(H).lambdas
        assert len(lam) == L + 1
        eps = np.finfo(float).eps
        assert np.max(np.abs(lam - ref)) <= 4 * eps * max(1.0, np.max(np.abs(lam)))
        # exactly k+1 eigenvalues lie below the midpoint after lambda_k
        counts = _sturm_counts(H.diag, 0.5 * (lam[:-1] + lam[1:]))
        np.testing.assert_array_equal(counts, np.arange(1, L + 1))


def test_eigensystem_deterministic_given_seed():
    V = ew.PeriodicPotential.from_values([0.0, 3.0])
    a = ew.eigensystem(ew.assemble(V, 60))
    b = ew.eigensystem(ew.assemble(V, 60))
    np.testing.assert_array_equal(a.weights_end, b.weights_end)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)


def _assert_weights_match(diag, lam, w_end, w_start, indices, dps):
    """Hold the weights at `indices` to the oracle; return its roots."""
    roots = []
    for k in indices:
        root, *refs = _oracle_weights(diag, lam[k], dps)
        for ref, got in zip(refs, (w_end[k], w_start[k])):
            if ref >= mpmath.mpf("1e-250"):
                assert abs(got - float(ref)) <= 1e-11 * float(ref), (k, ref, got)
            else:
                assert abs(got) <= 1e-300, (k, ref, got)
        roots.append(root)
    return roots


def test_weights_match_mpmath_oracle():
    # the gap states, localised at one end, have weights down to 1e-105 at
    # the other (2e-347 at L = 1000); the near-edge weights feed every
    # resonance seed, and their eigenvalues are within eps of the exact ones
    # (at L = 1000 those of deep-sweep's edge 0.5)
    eps = np.finfo(float).eps
    for values, L, dps, edges in (([0.0, 3.0], 400, 200, None),
                                  ([1.0, -2.0, 0.5], 301, 200, None),
                                  ([1.0, -2.0, 0.5], 1000, 200, [0.5])):
        V = ew.PeriodicPotential.from_values(values)
        bs = ew.band_structure(V)
        H = ew.assemble(V, L)
        sd = ew.band_enumerate(ew.eigensystem(H), bs)
        picked = set(np.flatnonzero(sd.band_of < 0).tolist())
        for e0 in edges or [ep.energy for ep in bs.edge_points]:
            picked.update(np.argsort(np.abs(sd.lambdas - e0))[:4].tolist())
        picked = sorted(picked)
        roots = _assert_weights_match(H.diag, sd.lambdas, sd.weights_end,
                                      sd.weights_start, picked, dps)
        for k, root in zip(picked, roots):
            lam = sd.lambdas[k]
            assert abs(lam - root) <= eps * max(1.0, abs(lam)), (k, lam, root)


def test_weights_at_exact_floating_point_eigenvalues():
    # at these gap states the pivot recurrences meet their shift exactly (a
    # zero pivot every period), so |gamma| vanishes at most sites and the
    # smallest |gamma| alone twists where the norms overflow: only the
    # _twisted_stored fallback gives finite weights
    for values, L, x in (([0.0, 1.0, 3.0], 300, -0.3027756377319946),
                         ([1.0, 3.0, 0.0], 301, 0.585786437626905)):
        H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
        lam = np.array([x])
        widths, _ = spectrum._checkpoint_widths(H.diag)
        with np.errstate(all="ignore"):
            alone = spectrum._twisted_slice(H.diag, lam, widths)[:2]
        assert not np.isfinite(alone).all()
        w_end, w_start, _ = spectrum._boundary_weights(H.diag, lam)
        _assert_weights_match(H.diag, lam, w_end, w_start, [0], 200)


def test_weight_certificate_refuses_a_shifted_spectrum():
    # a twisted vector's residual is at least the distance to the spectrum
    H = ew.assemble(ew.PeriodicPotential.from_values([0.0, 3.0]), 200)
    lam = ew.eigensystem(H).lambdas
    with pytest.raises(ConvergenceFailure):
        spectrum._boundary_weights(H.diag, lam + 1e-6)


@pytest.mark.parametrize("values, L, workspace", [((0.0, 3.0), 400, None),
                                                  ((0.0, 3.0), 400, 20_000),
                                                  ((1.0, -2.0, 0.5), 301, None)])
def test_twisted_kernel_matches_plain_recurrences(monkeypatch, values, L,
                                                  workspace):
    # both passes of eigensystem's fallback, here at LAPACK's QR eigenvalues
    # and at their Rayleigh quotients; the small workspace forces three
    # checkpoint levels
    if workspace is not None:
        monkeypatch.setattr(spectrum, "WEIGHT_WORKSPACE_BYTES", workspace)
    H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
    widths, _ = spectrum._checkpoint_widths(H.diag)
    assert len(widths) == (2 if workspace is None else 3)
    x = eigh_tridiagonal(H.diag, np.ones(L), eigvals_only=True,
                         lapack_driver="stev")
    for _ in range(2):
        with np.errstate(all="ignore"):
            got = spectrum._twisted_slice(H.diag, x, widths)
            want = _twisted_reference(H.diag, x)
        assert np.isfinite(want).all()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        x = np.sort(got[3])


def _end_pivot_reference(v, x):
    """_end_pivot_steps kept plain: each end's pivot and derivative
    recurred over the whole lane, one floating-point operation per line,
    then the choice of step the kernel's docstring states."""
    nudge = spectrum._PIVOT_NUDGE
    steps, sizes = [], []
    for w in (v, v[::-1]):
        d = (w[0] - x) + nudge
        dd = np.full(len(x), -1.0)
        for vi in w[1:]:
            u = 1.0 / d
            d = ((vi - x) - u) + nudge
            dd = ((u * u) * dd) - 1.0
        steps.append(d / dd)
        sizes.append(np.abs(dd))
    bound = spectrum._END_STEP_TOL * max(1.0, np.max(np.abs(x)))
    ok = [np.isfinite(size) & (np.abs(step) <= bound)
          for step, size in zip(steps, sizes)]
    far = ok[1] & (~ok[0] | (sizes[1] < sizes[0]))
    taken = ok[0] | ok[1]
    return np.where(taken, x - np.where(far, steps[1], steps[0]), x), taken


def _long_double_roots(diag, lam, iters=4):
    """Newton on the characteristic polynomial in np.longdouble from lam,
    rescaled every site so p/p' stays representable."""
    v = diag.astype(np.longdouble)
    x = lam.astype(np.longdouble)
    for _ in range(iters):
        p_prev, p_cur = np.ones_like(x), v[0] - x
        d_prev, d_cur = np.zeros_like(x), -np.ones_like(x)
        for vi in v[1:]:
            a = vi - x
            p_new = a * p_cur - p_prev
            d_new = a * d_cur - p_cur - d_prev
            s = np.maximum(np.maximum(np.abs(p_new), np.abs(d_new)), 1)
            p_prev, p_cur = p_cur / s, p_new / s
            d_prev, d_cur = d_cur / s, d_new / s
        x = x - p_cur / d_cur
    return x


def _recording_boundary_weights(monkeypatch):
    """Record the shifts of every _boundary_weights call, which eigensystem
    makes only for the eigenvalues it redoes."""
    calls = []
    plain = spectrum._boundary_weights

    def record(diag, lam):
        calls.append(lam.copy())
        return plain(diag, lam)

    monkeypatch.setattr(spectrum, "_boundary_weights", record)
    return calls


@pytest.mark.parametrize("values, L", [((1.0, -2.0, 0.5), 1000),
                                       ((0.0, 3.0), 400)])
def test_end_pivot_steps_match_plain_recurrences(monkeypatch, values, L):
    # (1, -2, 0.5) at L = 1000 holds a gap state localised at site 0 whose
    # weight at site L is ~2e-347: the pivot from that end alone steps ~0.6
    # away, so every eigenvalue is within eps of its root only when each
    # shift can take the other end's step
    H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
    x = spectrum._start_values(H.diag, H.period)[0]
    with np.errstate(all="ignore"):
        want = _end_pivot_reference(H.diag, x)
    got = spectrum._end_pivot_steps(H.diag, x)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # slices change no bits: each shift's lanes are independent
    monkeypatch.setattr(spectrum, "WEIGHT_WORKSPACE_BYTES", 2_000)
    sliced = spectrum._end_pivot_steps(H.diag, x)
    assert all(np.array_equal(a, b) for a, b in zip(sliced, want))
    monkeypatch.undo()

    y, taken = got
    assert taken.all()
    # every step passes the weights pass's check: no eigenvalue is redone
    calls = _recording_boundary_weights(monkeypatch)
    sd = ew.eigensystem(H)
    assert calls == []
    np.testing.assert_array_equal(sd.lambdas, np.sort(y))

    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble has no extended precision here")
    eps = np.finfo(float).eps
    err = np.abs(y.astype(np.longdouble) - _long_double_roots(H.diag, y))
    assert np.all(err <= eps * np.maximum(1.0, np.abs(y)))


def test_eigensystem_redoes_steps_that_fail_their_check(monkeypatch):
    # on this long-period section some stepped eigenvalues miss their
    # twisted Rayleigh quotient by more than _QUOTIENT_TOL (8 of 201); each
    # is redone as the two-pass path computes it (quotient at the certified
    # start value, weights at that quotient), so its eigenvalue and weights
    # keep the two-pass bits
    values = np.round(np.random.default_rng(30).uniform(-3, 3, 20), 2)
    L = 200
    H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
    x = spectrum._start_values(H.diag, H.period)[0]
    rayleigh = spectrum._boundary_weights(H.diag, x)[2]
    two_pass = np.sort(rayleigh)
    w_end, w_start, _ = spectrum._boundary_weights(H.diag, two_pass)

    calls = _recording_boundary_weights(monkeypatch)
    sd = ew.eigensystem(H)
    assert len(calls) == 1 and 0 < len(calls[0]) < L + 1
    i = np.searchsorted(x, calls[0])
    np.testing.assert_array_equal(x[i], calls[0])
    redone = rayleigh[i]
    k = np.searchsorted(two_pass, redone)
    np.testing.assert_array_equal(two_pass[k], redone)
    np.testing.assert_array_equal(sd.lambdas[k], redone)
    np.testing.assert_array_equal(sd.weights_end[k], w_end[k])
    np.testing.assert_array_equal(sd.weights_start[k], w_start[k])
    monkeypatch.undo()
    # every eigenvalue, stepped or redone, passes the weight certificate
    spectrum._boundary_weights(H.diag, sd.lambdas)


def test_eigensystem_memory_stays_small():
    # the weights kernel keeps a few roots of L checkpointed pivots per
    # eigenvalue; at L = 4000 two levels of sqrt(L) checkpoints would need
    # ~4.7 MB, so it takes three (widths 256, 16, 1): 545 bytes per shift
    # with the residue table and working rows, ~2.2 MB in one slice
    H = ew.assemble(ew.PeriodicPotential.from_values([0.0, 3.0]), 4000)
    tracemalloc.start()
    try:
        ew.eigensystem(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def _bisection_eigenvalues(diag):
    """The reference of test_eigenvalues_match_bisection: LAPACK stebz with
    its own Newton polish, sorted."""
    abs_tol = 1e-13 * (2.0 + np.max(np.abs(diag)))
    ref = eigh_tridiagonal(diag, np.ones(len(diag) - 1), eigvals_only=True,
                           lapack_driver="stebz", tol=abs_tol)
    return np.sort(_newton_polish(diag, ref, abs_tol))


def _assert_start_values(diag, x, lo, hi):
    """Every start value within 4 eps max(1, max|lambda|) of the bisection
    reference, and each bracket holding its eigenvalue alone by the test's
    own Sturm count."""
    ref = _bisection_eigenvalues(diag)
    eps = np.finfo(float).eps
    assert len(x) == len(diag)
    assert np.max(np.abs(x - ref)) <= 4 * eps * max(1.0, np.max(np.abs(ref)))
    n = np.arange(len(diag))
    np.testing.assert_array_equal(_sturm_counts(diag, lo), n)
    np.testing.assert_array_equal(_sturm_counts(diag, hi), n + 1)
    assert np.all((lo <= x) & (x <= hi))


def _recording_bisect_counts(monkeypatch):
    """Record the indices of every _bisect_counts call: the repairs."""
    repaired = []
    plain = spectrum._bisect_counts

    def record(v, idx, x, lo, hi):
        repaired.extend(idx.tolist())
        plain(v, idx, x, lo, hi)

    monkeypatch.setattr(spectrum, "_bisect_counts", record)
    return repaired


@pytest.mark.parametrize("values, L, repairs", [
    ((0.0, 3.0), 400, 0),                # E = 0 is an exact eigenvalue
    ((0.13,) * 4, 50, 0),                # every gap is closed
    ((0.0,), 2, 0), ((0.0,), 9, 0), ((0.7,), 50, 0),   # period 1, no gap
    (tuple(np.round(np.random.default_rng(7).uniform(-2, 2, 37), 2)), 10, 0),
    ((2.0, 3.0, 2.0), 59, 3),            # a gap pair 5.9e-5 apart
    (tuple(np.round(np.random.default_rng(30).uniform(-3, 3, 20), 2)), 200,
     None),
])
def test_start_values_are_complete_and_accurate(monkeypatch, values, L,
                                                repairs):
    # the 37-value section is shorter than one period (N = 0); the gap pair
    # of (2, 3, 2) shares one cell of the gap grid, so the Sturm count
    # repairs the pair and one neighbour; on the deep wells of the rng(30)
    # section the sign of psi is rounding-dependent next to some roots, so
    # any repair is allowed there
    H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
    repaired = _recording_bisect_counts(monkeypatch)
    _assert_start_values(H.diag, *spectrum._start_values(H.diag, H.period))
    assert repairs is None or len(repaired) == repairs


@pytest.mark.parametrize("change", ["drop", "duplicate", "perturb"])
def test_start_values_repair_a_broken_root_stage(monkeypatch, change):
    # a lost or misplaced root of psi costs a bisection on the Sturm count,
    # never an eigenvalue: the misplaced one passes the count certificate
    # but no end-pivot step reaches its eigenvalue, so eigensystem bisects
    # it before the weights pass; a doubled root lies between two
    # separators of equal count and is passed over
    H = ew.assemble(ew.PeriodicPotential.from_values([1.0, -2.0, 0.5]), 301)
    k = 150
    roots = spectrum._monodromy_roots(H.diag, H.period)
    broken = {"drop": np.delete(roots, k),
              "duplicate": np.insert(roots, k, roots[k]),
              "perturb": roots + np.where(np.arange(len(roots)) == k,
                                          0.9 * (roots[k + 1] - roots[k]),
                                          0.0)}[change]
    monkeypatch.setattr(spectrum, "_monodromy_roots", lambda v, p: broken)
    repaired = _recording_bisect_counts(monkeypatch)
    x, lo, hi = spectrum._start_values(H.diag, H.period)
    if change != "perturb":
        _assert_start_values(H.diag, x, lo, hi)
    sd = ew.eigensystem(H)
    if change == "duplicate":
        assert repaired == []
        np.testing.assert_array_equal(x, np.delete(broken, k))
    else:
        assert repaired and set(repaired) <= {k - 1, k, k + 1}
    ref = _bisection_eigenvalues(H.diag)
    eps = np.finfo(float).eps
    assert (np.max(np.abs(sd.lambdas - ref))
            <= 4 * eps * max(1.0, np.max(np.abs(ref))))


def test_eigensystem_refuses_a_pair_closer_than_the_sturm_count():
    # two eigenvalues 3.8e-15 apart: the count cannot split them, and the
    # 1e-12 pair check refuses the section as before
    H = ew.assemble(ew.PeriodicPotential.from_values([1.0, -3.0, 1.0]), 323)
    with pytest.raises(ConvergenceFailure,
                       match="near-degenerate eigenvalue pair"):
        ew.eigensystem(H)
    # deep wells of a long period pair up within a few ulp at many indices;
    # the refusal names the lowest pair below 1e-12, not the closest, which
    # rounding decides
    values = np.round(np.random.default_rng(34).uniform(-2, 2, 37), 2)
    H = ew.assemble(ew.PeriodicPotential.from_values(values), 300)
    with pytest.raises(ConvergenceFailure,
                       match="near-degenerate eigenvalue pair at index 278$"
                       ) as failure:
        ew.eigensystem(H)
    assert failure.value.index == 278
    assert failure.value.residual < 1e-12


@pytest.mark.parametrize("values, L", [
    ((0.0, 3.0), 400),
    ((1.0, -2.0, 0.5), 301),
    (tuple(np.random.default_rng(37).uniform(-0.5, 0.5, 37)), 300)])
def test_eigensystem_sliced_weights_match_one_slice(monkeypatch, values, L):
    # a small workspace splits the spectrum into slices on three checkpoint
    # levels (7 slices at (0, 3), L = 400; 6 at (1, -2, 0.5), L = 301; 10
    # for the 37 residue rows of the long period, whose values stay within
    # 0.5: at |v| ~ 2 its cell-localised states pair up closer than the 1e-12
    # gap eigensystem requires); each shift's recurrence is independent, so
    # the results are bit-identical
    H = ew.assemble(ew.PeriodicPotential.from_values(values), L)
    whole = ew.eigensystem(H)
    monkeypatch.setattr(spectrum, "WEIGHT_WORKSPACE_BYTES", 20_000)
    widths, lane_bytes = spectrum._checkpoint_widths(H.diag)
    assert len(widths) == 3
    assert (L + 1) * lane_bytes > 5 * 20_000
    sliced = ew.eigensystem(H)
    for name in ("lambdas", "weights_end", "weights_start"):
        np.testing.assert_array_equal(getattr(sliced, name),
                                      getattr(whole, name))


def test_eigensystem_warns_beyond_length_cap(V03):
    # the warning is raised on entry, before the solve starts
    H = ew.assemble(V03, spectrum.L_SOFT_CAP + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="working-precision cap"):
            ew.eigensystem(H)


def test_band_enumerate_free_chain(free_chain):
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 30)), bs0)
    assert np.all(sd.band_of == 0)
    np.testing.assert_array_equal(sd.local_index, np.arange(31))
    assert np.count_nonzero(sd.band_of < 0) == 0


def test_band_enumerate_partition(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 40)), bs03)
    counts = [int(np.sum(sd.band_of == b)) for b in range(len(bs03.bands))]
    assert sum(counts) == 41 - np.count_nonzero(sd.band_of < 0)


def test_band_enumerate_ambiguous(bs03, sd400):
    # a second band starting half of BAND_TOL above the edge eigenvalue at 0
    close = dataclasses.replace(
        bs03, bands=((-1.0, 0.0), (0.5 * spectrum.BAND_TOL, 4.0)))
    assert sd400.lambdas[sd400.band_members(0)[-1]] == 0.0
    with pytest.raises(AmbiguousAssignment,
                       match=r"^eigenvalue 0\.0 matches bands \[0, 1\] "
                             r"within 1e-09$"):
        ew.band_enumerate(sd400, close)


def test_band_enumerate_outside_eigenvalues_stable():
    # this potential develops genuine gap states; at fixed residue they are
    # L-independent limits, so two lengths must agree pairwise
    V = ew.PeriodicPotential.from_values([0.0, 1.0, 3.0])
    bs = ew.band_structure(V)
    outs = []
    for L in (101, 107):  # both L mod 3 == 2
        sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V, L)), bs)
        outs.append(sd.lambdas[sd.band_of < 0])
    assert len(outs[0]) == len(outs[1]) > 0
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-6)


def test_quantization_free_chain(free_chain):
    V0, bs0 = free_chain
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V0, 50)), bs0)
    r = quantization_residuals(sd, bs0, V0)
    assert np.max(np.abs(r)) <= 1e-6


def test_quantization_0_3(V03, bs03, sd400):
    r = quantization_residuals(sd400, bs03, V03, band=0)
    assert len(r) >= 150
    assert np.max(np.abs(r)) <= 1e-5
    # the second band obeys the same rule
    r1 = quantization_residuals(sd400, bs03, V03, band=1)
    assert np.max(np.abs(r1)) <= 1e-5


def test_quantization_odd_residue(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 201)), bs03)
    r = quantization_residuals(sd, bs03, V03)
    assert np.max(np.abs(r)) <= 1e-5


def test_quantization_invariant_under_phase_offset(V03, bs03, sd400):
    # the spacing residual only sees differences of the boundary phase
    members = sd400.band_members(0)
    lam = sd400.lambdas[members]
    lam = lam[(lam > -1 + 1e-9) & (lam < -1e-9)]
    th = floquet._theta_band(bs03, 0, lam)
    h = h_values(V03, bs03, 0, lam)
    L, j = sd400.L, sd400.j
    base = (L - j) * np.diff(th - h / (L - j)) - np.pi
    shifted = (L - j) * np.diff(th - (h + 0.37 * np.pi) / (L - j)) - np.pi
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_weight_profile_row_count(sd400, edge_m1_j0, bs03):
    prof = ew.weight_profile(sd400, edge_m1_j0, 0.2, bs=bs03)
    eps, L = 0.2, 400
    assert 0.5 * eps * L / 10 <= len(prof) <= 2 * eps * L
    assert np.all(np.diff(np.abs(prof.offsets)) > 0)
    np.testing.assert_array_equal(prof.k, np.arange(len(prof)))


def test_weight_profile_too_few_points(V03, bs03):
    sd = ew.band_enumerate(ew.eigensystem(ew.assemble(V03, 30)), bs03)
    edge = ew.classify_edge(V03, bs03, -1.0, 0)
    with pytest.raises(TooFewPoints):
        ew.weight_profile(sd, edge, 0.05, bs=bs03)
    with pytest.raises(ValueError):
        ew.weight_profile(sd, edge, 0.7, bs=bs03)


def test_weight_profile_right_edge(V03, bs03, sd400, sd800):
    # j = 0 makes E0 = 0 an edge eigenvalue: the closest row sits exactly on
    # the edge, the rest strictly below it
    edge = ew.classify_edge(V03, bs03, 0.0, 0)
    for sd in (sd400, sd800):
        prof = ew.weight_profile(sd, edge, 0.2, bs=bs03)
        assert prof.offsets[0] == 0.0
        assert np.all(prof.offsets[1:] < 0)
        assert np.all(np.diff(np.abs(prof.offsets)) > 0)


def test_lipschitz_weight_bound_stable(sd400, sd800, edge_m1_j0, bs03):
    def lip(sd, L):
        prof = ew.weight_profile(sd, edge_m1_j0, 0.2, bs=bs03)
        lam = edge_m1_j0.e0 + prof.offsets
        a = prof.weights_end
        ii, jj = np.triu_indices(len(prof), k=1)
        return float(np.max(np.abs(a[ii] - a[jj]) * L / np.abs(lam[ii] - lam[jj])))

    l400 = lip(sd400, 400)
    l800 = lip(sd800, 800)
    assert np.isfinite(l400) and np.isfinite(l800)
    assert l800 <= 2.0 * l400


def test_near_edge_spacing_within_decade(sd400, edge_m1_j0, bs03):
    prof = ew.weight_profile(sd400, edge_m1_j0, 0.2, bs=bs03)
    lam = edge_m1_j0.e0 + prof.offsets
    k1 = prof.k + 1.0
    ii, jj = np.triu_indices(len(prof), k=1)
    ratio = np.abs(lam[ii] - lam[jj]) * 400 ** 2 / np.abs(k1[ii] ** 2 - k1[jj] ** 2)
    assert ratio.max() / ratio.min() <= 10.0
