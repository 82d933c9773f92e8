"""The site loops of the eigensolve: LDL^T pivot recurrences of H - x.

One Newton step on an end pivot of H - x (_end_pivot_steps) and one pass
of the twisted factorisation per shift (_twisted_rows; Dhillon & Parlett,
LAA 387, 2004), each vectorised over a slice of shifts at a time, over the
residue rows of the section's diagonal.

Both loops, like spectrum._sturm_counts and window._end_resolvent, take
each lane's last site (`ends`, n - 1 for every lane by default): a lane
of the leading block v[:e + 1] of the diagonal is read out at e going
forward and starts at e going backward, so the sections of one potential
that spectrum.eigensystem solves together share one pass of each loop.
What a lane computes past its last site is reset before it is read, and
every operation is elementwise, so a lane's values are those of its own
section solved alone.  A slice runs to its longest lane's last site.

The recurrences run as Python loops over the sites with one numpy call
per operation over the slice's eigenvalues.  At the eigensolve's lengths a
call's fixed cost (about 0.4-1 us on a 2-core Xeon) weighs as much as its
arithmetic, so the site loops keep a call discipline that changes no
rounding: array operands only, `out` passed by position, no temporaries,
and one masked copy to record the twist (see _twisted_slice).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure

# largest relative residual |gamma_r| / ||z|| of a twisted eigenvector
WEIGHT_RESIDUAL_TOL = 1e-8
# working memory of the boundary-weight kernel: per eigenvalue it keeps a
# few roots of n checkpointed pivots, a residue row per distinct diagonal
# value and _WORKING_ROWS more, and the eigenvalues are processed in slices
# that fit this budget (as are the lanes of every site loop: _lane_slices)
WEIGHT_WORKSPACE_BYTES = 2_500_000
# added to every pivot: it replaces an exact zero (E = 0 on (0,3) gives
# v_0 - lambda = 0) and leaves any pivot larger than ~1e-104 unchanged
_PIVOT_NUDGE = 1e-120
# float rows per shift that _twisted_slice holds besides its checkpoints and
# residue table, at its peak in _twist_record: three of scratch, the stacked
# state and its record at the twist (five each), the two backward pivot
# rows, the first forward pivot and the arrays of _PIVOT_NUDGE and 1.0
_WORKING_ROWS = 18
# weight of the twisted vector's squared norm in _twisted_stored's choice of
# twist: it decides only between sites whose |gamma| agree to ~1e-300 or
# whose norm is past ~1e280
_TWIST_TIE = 1e-300
# longest end-pivot Newton step taken, times max(1, max|v| + 2): a certified
# start value lies within a few eps of its root, so a longer step comes from
# an end that barely sees the eigenvector
_END_STEP_TOL = 1e-10


def _lane_slices(m: int, lane_bytes: int):
    """The fewest, most even slices of m lanes of lane_bytes each that fit
    WEIGHT_WORKSPACE_BYTES, yielded inside the one np.errstate of the site
    loops, whose pivots overflow or vanish by design."""
    count = max(1, -(-m // max(1, WEIGHT_WORKSPACE_BYTES // lane_bytes)))
    width = max(1, -(-m // count))
    with np.errstate(all="ignore"):
        for lo in range(0, m, width):
            yield slice(lo, lo + width)


def _lane_ends(ends, n: int, m: int) -> np.ndarray:
    """Each of m lanes' last site: ends, or n - 1 for every lane."""
    return np.full(m, n - 1, dtype=np.intp) if ends is None else ends


def _lanes_by_site(sites: np.ndarray) -> dict:
    """{site: positions of the lanes at that site} of the int array sites."""
    return {i: np.flatnonzero(sites == i) for i in set(sites.tolist())}


def _residue_rows(v: np.ndarray, x: np.ndarray, mirrored: bool = False):
    """(rows, row): the distinct residue rows v_i - x of H - x, at most p
    for period p (values told apart by bit pattern), and the index row[i]
    of site i's; x[:0] counts them.  With mirrored, site i's row is v_i - x
    then v_{n-1-i} - x, keyed by the two sites' value indices."""
    _, first, row = np.unique(v.view(np.int64), return_index=True,
                              return_inverse=True)
    sites = [first]
    if mirrored:
        _, first, row = np.unique(row * len(first) + row[::-1],
                                  return_index=True, return_inverse=True)
        sites = [first, len(v) - 1 - first]
    table = np.concatenate([v[i, None] - x for i in sites], axis=1)
    return list(table), row.tolist()


def _pivots_backward(a, lo, hi, d_lo, widths, bufs, u, d, nudge, visit):
    """Call visit(i, D+_i) for i = hi-1 down to lo, given D+_lo.

    The forward pivots are recomputed from nested checkpoints: the rows
    bufs[0][j] keep the pivot at every widths[0]-th site of [lo, hi), and
    each of those blocks is swept the same way one level down.  At the
    last level (width 1) bufs[0] holds every pivot of the block.  a[i] is
    the residue row v_i - x, u and d are scratch, and nudge holds
    _PIVOT_NUDGE in every lane.
    """
    w, ck = widths[0], bufs[0]
    blocks = -(-(hi - lo) // w)
    prev = d_lo
    for i in range(lo + 1, lo + (blocks - 1) * w + 1):
        dst = d if (i - lo) % w else ck[(i - lo) // w]
        np.reciprocal(prev, u)
        np.subtract(a[i], u, dst)
        np.add(dst, nudge, dst)
        prev = dst
    if w == 1:
        for k in range(hi - lo - 1, 0, -1):
            visit(lo + k, ck[k])
        visit(lo, d_lo)
        return
    for j in range(blocks - 1, -1, -1):
        _pivots_backward(a, lo + j * w, min(hi, lo + (j + 1) * w),
                         ck[j] if j else d_lo, widths[1:], bufs[1:], u, d,
                         nudge, visit)


def _twist_record(a, widths, nudge, one, first):
    """The backward pass of _twisted_slice over the residue rows a[i]:
    |gamma_r|, gamma_r, Q_r, sigma_r and r (as a float) at each shift's
    twist, stacked.  The lanes first[i] start at site i: their backward
    state and record are reset there, the state at site n - 1 of a whole
    section."""
    n, m = len(a), len(nudge)
    u, d, y = np.empty((3, m))
    better = np.empty(m, dtype=bool)
    # the state at site i and its record at the twist, by rows: |gamma_i|,
    # gamma_i, Q_i, sigma_i and i itself
    now = np.ones((5, m))
    mag, g, Q, sig, site = now
    fresh = np.array([[np.inf], [np.nan], [np.nan], [np.nan], [0.0]])
    kept = np.repeat(fresh, m, axis=1)
    best = kept[0]
    un = np.zeros(m)   # 1/D-_{i+1}
    dm = np.ones(m)

    def visit(i, dp):
        if i < n - 1:
            np.reciprocal(dm, un)
            np.subtract(a[i], un, dm)
            np.add(dm, nudge, dm)
            np.multiply(un, un, y)
            np.multiply(y, Q, y)
            np.add(y, one, Q)
            np.multiply(sig, y, sig)
            np.divide(sig, Q, sig)
        k = first.get(i)
        if k is not None:
            un[k] = 0.0
            dm[k] = a[i][k] + nudge[k]
            Q[k] = sig[k] = 1.0
            kept[:, k] = fresh
        np.subtract(dp, un, g)
        np.absolute(g, mag)
        np.less_equal(mag, best, better)
        site.fill(i)
        np.copyto(kept, now, where=better)

    spans = [n, *widths]
    bufs = [list(np.empty((-(-s // w), m))) for s, w in zip(spans, spans[1:])]
    _pivots_backward(a, 0, n, a[0] + nudge, widths, bufs, u, d, nudge, visit)
    return kept


def _twisted_slice(v: np.ndarray, x: np.ndarray, widths: list, ends=None):
    """Boundary weights, residuals and Rayleigh quotients of the twisted
    vectors at shifts x, each of the leading block v[:e + 1] of its last
    site e (ends; all of v by default).

    For each shift, with a_i = v_i - x, the forward pivots are
    D+_i = a_i - 1/D+_{i-1} and the backward pivots D-_i = a_i - 1/D-_{i+1};
    gamma_i = D+_i - 1/D-_{i+1}, and z with z_i = 1 solves
    (H - x) z = gamma_i e_i.  Norms are carried as ratios that cannot
    overflow through a pivot near zero: R_i = sum_{k<=i} z_k^2 / z_i^2 and
    rho_i = z_0^2 / sum_{k<=i} z_k^2 going forward, Q_i and sigma_i their
    mirror images going backward.  With N = R_r + Q_r - 1 = ||z||^2 at the
    twist r = argmin |gamma_i| (the lowest such site), the weights are
    rho_r R_r / N and sigma_r Q_r / N, the relative residual is
    |gamma_r| / sqrt(N) and the Rayleigh quotient z^T H z / N is
    x + gamma_r / N (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    Each operation is rounded in this order: a pivot is
    (a_i - 1/D) + _PIVOT_NUDGE, the ratio step is y = (u*u)*R,
    R' = y + 1, rho' = (rho*y)/R' with u the pivot's reciprocal (Q and
    sigma alike), and N = (R_r + Q_r) - 1.

    The backward pass meets the forward pivots site by site through
    _pivots_backward, whose checkpoints (block widths `widths`) keep the
    memory per shift at a few roots of n; a last forward pass carries R
    and rho to each shift's twist.  The forward pivots from site 0 serve
    every block; a shift's backward pivots, Q, sigma and twist search
    start at its block's last site.

    Every site costs a fixed number of numpy calls whatever the slice's
    width, about 0.4-1 us each on a 2-core Xeon, which at the eigensolve's
    lengths is as much as their arithmetic.  So the site loops make the
    fewest and cheapest calls that keep every rounding above: each v_i - x
    is a row of a residue table, built once for the backward pass and once
    in twist order for the last forward pass; every operand is an
    array (a Python scalar operand costs 0.5-0.9 us more) and `out` is
    passed by position (the keyword costs up to 0.5 us more); 1/D is
    np.reciprocal, which rounds as the division does; the state at each
    site and its record at the twist are stacked, so the twist is kept by
    one masked copy; and the last forward pass takes its suffix views only
    when the suffix changes.
    """
    first = _lanes_by_site(_lane_ends(ends, len(v), len(x)))
    v = v[:max(first) + 1]
    n, m = len(v), len(x)
    rows, row = _residue_rows(v, x)
    nudge, one = np.full(m, _PIVOT_NUDGE), np.ones(m)
    _, g_r, Q_r, sig_r, r = _twist_record([rows[k] for k in row], widths,
                                          nudge, one, first)
    del rows
    r = r.astype(np.intp)

    # with the shifts sorted by twist, those still short of their twist at
    # site i are a suffix of the slice
    order = np.argsort(r, kind="stable")
    start = np.searchsorted(r[order], np.arange(n)).tolist()
    rows = _residue_rows(v, x[order])[0]
    fwd = np.ones((5, m))   # D+_i, 1/D+_{i-1}, y, R_i, rho_i
    np.add(rows[row[0]], nudge, fwd[0])
    s = -1
    for i in range(1, n):
        if start[i] != s:
            s = start[i]
            if s == m:
                break
            dd, uu, yy, RR, rr = fwd[:, s:]
            tab, nud, on = [a[s:] for a in rows], nudge[s:], one[s:]
        np.reciprocal(dd, uu)
        np.subtract(tab[row[i]], uu, dd)
        np.add(dd, nud, dd)
        np.multiply(uu, uu, yy)
        np.multiply(yy, RR, yy)
        np.add(yy, on, RR)
        np.multiply(rr, yy, rr)
        np.divide(rr, RR, rr)
    R_rho = np.empty((2, m))
    R_rho[:, order] = fwd[3:]
    return _twisted_outputs(x, g_r, *R_rho, Q_r, sig_r)


def _twisted_outputs(x, g_r, R_r, rho_r, Q_r, sig_r):
    """(weights_end, weights_start, residual, rayleigh) at shifts x from
    the record at each twist, as _twisted_slice states them."""
    norm = R_r + Q_r - 1.0
    return (sig_r * Q_r / norm, rho_r * R_r / norm,
            np.abs(g_r) / np.sqrt(norm), x + g_r / norm)


def _twisted_stored(v: np.ndarray, x: np.ndarray):
    """_twisted_slice for a few shifts, keeping R at every site.

    A pivot that is exactly 0 after the nudge (a zero diagonal value at the
    shift +_PIVOT_NUDGE) becomes _PIVOT_NUDGE; _twisted_slice, which keeps
    its call discipline, sends such a shift here by its non-finite weights.
    The twist minimises |gamma_i| + _TWIST_TIE * ||z||^2 instead.  The norm
    term is below rounding unless gamma_i vanishes, which happens at many
    sites at once when a shift is an exact eigenvalue of the floating-point
    recurrences (gap states of integer potentials); there it picks the site
    of smallest norm, where argmin |gamma| may pick one whose norm
    overflows.
    """
    n, m = len(v), len(x)

    def pivot(a, u):
        # a pivot that is still exactly 0 after the nudge becomes the nudge
        d = a - u + _PIVOT_NUDGE
        return np.where(d == 0.0, _PIVOT_NUDGE, d)

    d = np.empty((n, m))
    R, rho = np.ones((2, n, m))
    d[0] = pivot(v[0] - x, 0.0)
    for i in range(1, n):
        u = 1.0 / d[i - 1]
        d[i] = pivot(v[i] - x, u)
        y = R[i - 1] * u * u
        R[i] = 1.0 + y
        rho[i] = rho[i - 1] * y / R[i]

    dm = pivot(v[n - 1] - x, 0.0)
    un = np.zeros(m)
    Q = np.ones(m)
    sig = np.ones(m)
    best = np.full(m, np.inf)
    g_r, R_r, rho_r, Q_r, sig_r = np.full((5, m), np.nan)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            un = 1.0 / dm
            dm = pivot(v[i] - x, un)
            y = Q * un * un
            Q = 1.0 + y
            sig = sig * y / Q
        g = d[i] - un
        key = np.abs(g) + _TWIST_TIE * (R[i] + Q)
        better = key <= best
        best = np.where(better, key, best)
        for mine, now in ((g_r, g), (R_r, R[i]), (rho_r, rho[i]), (Q_r, Q),
                          (sig_r, sig)):
            np.copyto(mine, now, where=better)
    return _twisted_outputs(x, g_r, R_r, rho_r, Q_r, sig_r)


def _checkpoint_widths(v: np.ndarray, m: int) -> tuple[list, int]:
    """Block widths for _pivots_backward on the diagonal v at m shifts,
    and the bytes _twisted_slice holds per shift.

    Two levels (blocks of ~sqrt(n) sites) when all m shifts fit one slice
    of WEIGHT_WORKSPACE_BYTES, else three (~n^(1/3) and ~n^(2/3)): one more
    recomputation of the forward pivots costs less than a second slice.
    A shift's lane holds the checkpoint rows, one residue row per distinct
    value of v and _WORKING_ROWS more, plus one byte of mask, so a long
    period narrows the slices.  The widths change no bits: the forward
    pivots are recomputed from their checkpoints by the same operations.
    """
    n = len(v)
    residues = len(_residue_rows(v, v[:0])[0])
    for levels in (2, 3):
        c = 1
        while c ** levels < n:
            c += 1
        widths = [c ** k for k in range(levels - 1, -1, -1)]
        spans = [n, *widths]
        rows = sum(-(-a // b) for a, b in zip(spans, spans[1:]))
        lane_bytes = 8 * (rows + residues + _WORKING_ROWS) + 1
        if m * lane_bytes <= WEIGHT_WORKSPACE_BYTES:
            break
    return widths, lane_bytes


def _twisted_rows(diag: np.ndarray, lam: np.ndarray, ends=None) -> np.ndarray:
    """Rows (weights_end, weights_start, residual, rayleigh) of the twisted
    vectors at lam, uncertified, each of the leading block of diag that
    ends at its last site (ends; all of diag by default).

    Shifts whose weights overflow under _twisted_slice are redone by
    _twisted_stored on their own block.
    """
    ends = _lane_ends(ends, len(diag), len(lam))
    widths, lane_bytes = _checkpoint_widths(diag, len(lam))
    out = np.empty((4, len(lam)))
    for s in _lane_slices(len(lam), lane_bytes):
        out[:, s] = _twisted_slice(diag, lam[s], widths, ends[s])
    redo = np.flatnonzero(~np.isfinite(out[:2]).all(axis=0))
    for e, k in _lanes_by_site(ends[redo]).items():
        for s in _lane_slices(len(k), 8 * 3 * (e + 1)):
            out[:, redo[k[s]]] = _twisted_stored(diag[:e + 1],
                                                 lam[redo[k[s]]])
    return out


def _uncertified(out: np.ndarray) -> np.ndarray:
    """Mask of the _twisted_rows columns whose twisted vector misses
    WEIGHT_RESIDUAL_TOL or whose weights are not finite."""
    w_end, w_start, resid, _ = out
    return ~((resid <= WEIGHT_RESIDUAL_TOL) & np.isfinite(w_end)
             & np.isfinite(w_start))


def _certify(out: np.ndarray, index=None):
    """Raise ConvergenceFailure at the first uncertified column of out,
    named by its eigenvalue's index (index[k] of column k, k by default)."""
    bad = _uncertified(out)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConvergenceFailure(k if index is None else int(index[k]),
                                 float(out[2, k]))


def _end_pivot_steps(v: np.ndarray, x: np.ndarray, ends=None):
    """(y, taken): x moved by one Newton step on an end pivot of H - x,
    each shift's H the leading block of v that ends at its last site
    (ends; all of v by default).

    The last pivot of the LDL^T factorisation from site 0,
    D_i = ((v_i - x) - u) + _PIVOT_NUDGE with u = 1/D_{i-1}, has the
    derivative D'_i = (u*u)*D'_{i-1} - 1 (D_0 = (v_0 - x) + _PIVOT_NUDGE,
    D'_0 = -1), and D' = -1/weight of that end at a root, so its Newton step
    D/D' is well conditioned where the eigenvector is large at that end.
    The mirror image from the block's last site gives the other end's step.
    Both run as 2m stacked lanes through one site loop of six numpy calls,
    over residue rows keyed by the pair (v_i, v_{n-1-i}), in slices of at
    most WEIGHT_WORKSPACE_BYTES: a first-end lane stops at its block's last
    site, and a last-end lane starts there.  An end is valid when D' is
    finite and |D/D'| <= _END_STEP_TOL * max(1, max|v| + 2) over the block,
    a bound of the section alone (Gershgorin: every eigenvalue lies within
    2 of a diagonal value), so each shift's step is decided by its own
    values whatever the other shifts; each shift takes the step of its
    valid end of smaller |D'|, y = x - D/D', and keeps y = x with taken
    False where neither end is valid.
    """
    n, m = len(v), len(x)
    ends = _lane_ends(ends, n, m)
    pairs = len(_residue_rows(v, x[:0], mirrored=True)[0])
    bound = _END_STEP_TOL * np.maximum(
        1.0, np.maximum.accumulate(np.abs(v))[ends] + 2.0)
    y, taken = x.copy(), np.zeros(m, dtype=bool)
    for s in _lane_slices(m, 16 * (pairs + 6)):
        xs, e = x[s], ends[s]
        top = int(e.max())
        rows, row = _residue_rows(v[:top + 1], xs, mirrored=True)
        a = [rows[k] for k in row]
        # the first end's lanes run from site 0 to e, the last end's from
        # e down to 0, which is step top - e of the mirrored rows
        first = _lanes_by_site(np.concatenate([np.zeros_like(e), top - e]))
        last = _lanes_by_site(np.concatenate([e, np.full_like(e, top)]))
        nudge, one = np.full(2 * len(xs), _PIVOT_NUDGE), np.ones(2 * len(xs))
        d, u, dd, end, dend = np.ones((5, 2 * len(xs)))
        for i in range(top + 1):
            if i:
                np.reciprocal(d, u)
                np.subtract(a[i], u, d)
                np.add(d, nudge, d)
                np.multiply(u, u, u)
                np.multiply(u, dd, dd)
                np.subtract(dd, one, dd)
            k = first.get(i)
            if k is not None:
                d[k] = a[i][k] + nudge[k]
                dd[k] = -1.0
            k = last.get(i)
            if k is not None:
                end[k], dend[k] = d[k], dd[k]
        step, size = (end / dend).reshape(2, -1), np.abs(dend).reshape(2, -1)
        ok = np.isfinite(size) & (np.abs(step) <= bound[s])
        far = ok[1] & (~ok[0] | (size[1] < size[0]))
        taken[s] = hit = ok[0] | ok[1]
        y[s] = np.where(hit, xs - np.where(far, step[1], step[0]), xs)
    return y, taken
