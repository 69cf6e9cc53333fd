"""Certified finite patches of Klein polyhedra.

The Klein polyhedron of a lattice and an orthant is the convex hull of the
nonzero lattice points in that (closed) orthant; its boundary is the sail.
A patch is computed inside the window [0, T)^n:

1. enumerate the window's line minima: for a short lattice vector v with
   ambient image >= 0, keep on each line parallel to v only its window point
   nearest the origin (exact interval-propagated ranges, exact membership
   filters); the line's other window points add multiples of v to it.
   Each line is scanned in one flat loop up to its first window point.
   Lines with no real point in the window are cut before they are visited,
   by eliminating the line parameter between each pair of rows that bound
   it (Fourier-Motzkin).  The cut is a relaxation over the reals of
   outward-rounded enclosures, so it loses no point; the scan visits, and
   counts against its budget, the same leaves as without it.
   For n = 2 only a small seed window is scanned: the window's Pareto set
   is a run of the sail's boundary lattice points, and the rest of the run
   follows from two of them by the minus continued fraction of the cone,
   one exact step per point (Klein's construction; Karpenkov, *Geometry of
   Continued Fractions*, ch. 1-2).  The line vector v and the 2D seed pair
   depend on the lattice alone: each is found once per lattice and cached
   on it, and every call charges its scans' leaves to its own budget,
2. prune points dominated in the componentwise order -- they are never
   vertices of the hull of points plus the orthant's recession cone; the
   line minima dominate the whole window, so they have its Pareto set,
3. close the hull with far points along integer rays whose ambient images
   are verified strictly positive (found once per lattice), each far enough
   that its coordinates are certainly >= T, so no bounded facet is ever cut
   off.
   The hull gives each facet its plane, as a primitive outward normal and
   offset, and its vertex cycle; nothing here derives them again,
4. certify each candidate facet on the bounded region between its
   hyperplane and the origin inside the closed orthant: certification
   passes iff that region holds no lattice point strictly below the plane.
   The region's window points are decided on the Pareto set, which
   dominates them, and only the rest is enumerated, one piece {x_i >= t}
   per axis (`certify_facet`).  Points exactly on the plane complete the
   facet's vertex set, so a certified facet carries the vertices of the
   *infinite* polyhedron's facet even when they fall outside the window.
   Only such an extended facet, one whose plane holds a point outside the
   window, has its vertex ring re-derived from the on-plane points; every
   other facet's ring is its hull cycle.

Everything in the trusted path is exact.  Search ranges and rankings read
the lattice's one numeric view, its cached integer enclosures (scale 2^64)
of the basis and, through the dual, of the inverse basis.  Every search
bound is an integer pair at that scale: the boxes of the window scans, of
the certification regions and of the T0 boxes (`normmin`).  `_narrowed`, in
`lattice`, is the one routine that narrows a multiplier range on them, and
`_box_filter`, beside it, the one leaf filter that decides every window or
box membership: each scan's leaves and each step of the 2D walk.  No float
enters this module.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import add, mul

from .hull import _order_facet_cycle, convex_hull_2d, convex_hull_3d
from .linalg import det, primitive_int_vector, subset_det_sum, unimodular_completion
from .lattice import (
    _ENUM_SHIFT, Lattice, _box_filter, _iv_dot, _iv_minor, _narrowed, _shifted,
    _window_bounds, irrationality_check,
)
from .numberfield import interval_at

__all__ = [
    "PointBudgetError", "Facet", "EdgeStar", "SailPatch",
    "enumerate_orthant_points", "build_sail_patch", "certify_facet", "edge_star",
    "detect_periodicity", "DEFAULT_POINT_BUDGET",
]

DEFAULT_POINT_BUDGET = 10**6
PATCH_SCHEMA = "kleinsail.patch/1"


class PointBudgetError(RuntimeError):
    """A lattice-point scan visited more leaves than its budget.  Where it
    leaves `build_sail_patch`, `theorem1_audit` or `check_t0_boxes`, it also
    names its site: the stage ("window", "certify" or "t0_box"), the
    lattice's provenance and the window."""

    def __init__(self, budget, stage=None, provenance=None, window=None):
        msg = f"point budget exceeded (budget={budget})"
        if stage is not None:
            msg += f" in stage {stage!r}, lattice {provenance!r}, window {window}"
        super().__init__(msg)
        self.budget = budget
        self.stage = stage
        self.provenance = provenance
        self.window = window

    def at(self, stage, lat, t):
        """The same error, naming its site."""
        return PointBudgetError(self.budget, stage, lat.provenance, t)


# ---------------------------------------------------------------------------
# the enumerator

class _Points(dict):
    """What `_enumerate_core` returns: each kept coefficient tuple, in scan
    order, mapped to its enclosures; `leaves` is the number of leaves the
    scan visited, the count its budget bounds."""

    leaves = 0


def _charge(leaves, budget):
    """Charge a cached scan's `leaves` to a call's `budget`: PointBudgetError
    iff the scan, run again under `budget`, would have raised it."""
    if leaves > budget:
        raise PointBudgetError(budget)


def _coeff_outer_ranges(lat, boxes, u_inv=None):
    """Integer ranges enclosing each coefficient's range over the raw
    coordinate box `boxes`, given per row as integer pairs at scale 2^64;
    with `u_inv`, of the coefficients U^-1 c of the basis B U.  The products
    of the two 2^64-scaled enclosures are exact at scale 2^128, and the sums
    round outward to integers by shifts."""
    dual = lat.dual().basis_interval_matrix()  # row i encloses column i of B^-1
    inv = list(zip(*dual)) if u_inv is None else [
        [_iv_dot(col, u_row) for col in dual] for u_row in u_inv]
    shift = 2 * _ENUM_SHIFT
    ranges = []
    for row in inv:
        lo = hi = 0
        for (elo, ehi), (blo, bhi) in zip(row, boxes):
            ps = (elo * blo, elo * bhi, ehi * blo, ehi * bhi)
            lo += min(ps)
            hi += max(ps)
        ranges.append((lo >> shift, -(-hi >> shift)))
    return ranges


def _ceil_div(a, b):
    return -((-a) // b)


def _line_cuts(a_col, v_col):
    """The row pairs of `_cut_lines`: (i, j, M) for rows i != j whose line
    enclosures v_col are certainly > 0 and whose minor M = v_j a_i - v_i a_j
    of the column enclosures a_col, v_col has a certain sign; M as its
    enclosure's two ends."""
    bounding = [i for i, (vlo, _) in enumerate(v_col) if vlo > 0]
    cuts = []
    for i in bounding:
        for j in bounding:
            if i != j:
                m_lo, m_hi = _iv_minor(v_col[j], a_col[i], v_col[i], a_col[j])
                if m_lo > 0 or m_hi < 0:
                    cuts.append((i, j, m_lo, m_hi))
    return cuts


def _cut_lines(lo, hi, cuts, v_col, boxes, partial):
    """[lo, hi] narrowed to the s for which the line c'_{n-2} = s can hold a
    real point of the boxes, by eliminating the line parameter lam
    (Fourier-Motzkin).

    Row i's coordinate is P_i + A_i s + V_i lam, with enclosures P_i (the
    outer levels' `partial`), A_i and V_i (columns n-2 and n-1).  For V_i,
    V_j > 0, row i's lower box end and row j's upper one admit a common real
    lam only if N <= s M, where N = V_j (blo_i - P_i) - V_i (bhi_j - P_j) and
    M = V_j A_i - V_i A_j.  On the enclosures that gives s >= min N/M where M
    is certainly > 0, and s <= max N/M where M is certainly < 0; both take
    N's lower end.  Every value that `_narrowed` reads the line's range from
    lies in these enclosures, so a cut line has no leaf."""
    for i, j, m_lo, m_hi in cuts:
        x = boxes[i][0] - partial[i][1]  # the lower end of blo_i - P_i
        y = boxes[j][1] - partial[j][0]  # the upper end of bhi_j - P_j
        n_lo = (x * (v_col[j][0] if x >= 0 else v_col[j][1])
                - y * (v_col[i][1] if y >= 0 else v_col[i][0]))
        if m_lo > 0:
            cand = _ceil_div(n_lo, m_hi if n_lo > 0 else m_lo)
            if cand > lo:
                lo = cand
        else:
            cand = n_lo // (m_lo if n_lo > 0 else m_hi)
            if cand < hi:
                hi = cand
    return lo, hi


def _enumerate_core(lat, boxes, leaf_filter, budget, basis=None, level=None,
                    first_per_line=False):
    """All integer coefficient vectors whose raw coordinates can lie in the
    given per-row boxes, passed through `leaf_filter` for exact membership.

    Box i is an integer pair (lo, hi) at scale 2^64, as the lattice's
    enclosures are: 2^64 x_i in [lo, hi].  The scan propagates certain
    fixed-point interval bounds at that scale, so no candidate is missed; the
    filter keeps only true members.  Each level narrows its coefficient's
    range by every row with `_narrowed`, the one narrowing routine.
    The levels above the last recurse; the last is one flat loop along each
    line c' + lam e_{n-1}.  The filter is called as leaf_filter(c, partial),
    `partial` holding the scaled enclosures of c's raw coordinates.

    With `basis` = (U, U^-1), U unimodular, the scan runs over the
    coefficients c' of the basis B U (c = U c'), c'_0 outermost; leaves
    reach the filter, and the output, as c, carried as a prefix sum of U's
    columns, one step per level.

    With `level` = (lo, hi), integers, c'_0 is pruned to [lo, hi] exactly.
    In a level-first basis, f U = e_0 for an integer functional f, c'_0 is
    the level f.c, so the scan visits only the levels lo <= f.c <= hi.

    With `first_per_line`, U's last column v must have an ambient image
    exactly >= 0.  On each line only the first leaf the filter accepts is
    kept: the line's later leaves are that point plus positive multiples of
    v, so each is dominated by it componentwise.  The boxes are then read as
    half-open at the top, as windows are: a line also ends at a leaf lying at
    or above the top of a box, since the coordinates only grow along v.
    Lines that hold no real point of the boxes are cut before they are
    visited, by pairwise elimination of the line parameter (`_cut_lines`).
    The cut is a relaxation over the reals of the outward-rounded
    enclosures, so a cut line holds no leaf, and no point is lost.  For
    n = 3 the lines are scanned by `_line_minima3`.

    `budget` bounds the leaves of the whole scan; the cut changes neither
    the leaves visited nor their count.  Returns a `_Points` dict from each
    kept c, in scan order, to its `partial`, with the leaves visited.
    n >= 2.
    """
    n = lat.n
    u, u_inv = basis if basis is not None else (None, None)
    tops = [bhi for _, bhi in boxes]
    outer = _coeff_outer_ranges(lat, boxes, u_inv)
    if level is not None:
        outer[0] = (max(outer[0][0], level[0]), min(outer[0][1], level[1]))
    # cols[k] = U e_k, so c = sum_k c'_k cols[k]; enc[k][i] encloses entry
    # (i, k) of B U
    matrix = lat.basis_interval_matrix()
    if u is None:
        cols = [(0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(n)]
        enc = list(zip(*matrix))
    else:
        cols = list(zip(*u))
        enc = [[_iv_dot(row, col) for row in matrix] for col in cols]
    # rest[k][i] encloses row i's sum over the levels j > k of enc[j][i] * outer[j]
    rest = [[(0, 0)] * n]
    for k in range(n - 1, 0, -1):
        rlo, rhi = outer[k]
        tail = []
        for (tlo, thi), (elo, ehi) in zip(rest[0], enc[k]):
            ps = (elo * rlo, elo * rhi, ehi * rlo, ehi * rhi)
            tail.append((tlo + min(ps), thi + max(ps)))
        rest.insert(0, tail)
    # bounds[k]: the rows that narrow level k, as `_narrowed` reads them
    bounds = [[(i, elo, ehi, blo - thi, bhi - tlo)
               for i, ((elo, ehi), (blo, bhi), (tlo, thi)) in enumerate(zip(enc[k], boxes, rest[k]))
               if elo > 0 or ehi < 0] for k in range(n)]
    last = n - 1
    cuts = _line_cuts(enc[last - 1], enc[last]) if first_per_line else ()

    out = _Points()
    count = 0

    def rec(k, partial, c):
        nonlocal count
        lo_k, hi_k = _narrowed(*outer[k], bounds[k], partial)
        if first_per_line and k == last - 1:
            lo_k, hi_k = _cut_lines(lo_k, hi_k, cuts, enc[last], boxes, partial)
            if n == 3:
                count = _line_minima3(range(lo_k, hi_k + 1), partial, c, cols, enc, boxes,
                                      outer[last], leaf_filter, out, count, budget)
                return
        for s in range(lo_k, hi_k + 1):
            nxt = _shifted(partial, enc[k], s)
            if k < last - 1:
                rec(k + 1, nxt, tuple([p + w * s for p, w in zip(c, cols[k])]))
                continue
            # the line c + s U e_k + lam U e_{n-1}: its leaves in one loop
            lo, hi = _narrowed(*outer[last], bounds[last], nxt)
            if lo > hi:
                continue
            leaf_c = tuple([p + w * s + x * lo for p, w, x in zip(c, cols[k], cols[last])])
            for lam in range(lo, hi + 1):
                count += 1
                if count > budget:
                    raise PointBudgetError(budget)
                leaf = _shifted(nxt, enc[last], lam)
                if leaf_filter(leaf_c, leaf):
                    out[leaf_c] = leaf
                    if first_per_line:
                        break  # the line's minimum
                elif first_per_line and any(e[0] >= top for e, top in zip(leaf, tops)):
                    break  # the line has left the top of a box
                leaf_c = tuple(map(add, leaf_c, cols[last]))

    try:
        rec(0, [(0, 0)] * n, (0,) * n)
    finally:
        del rec  # rec refers to itself: free the scan's state now, not at a collection
    out.leaves = count
    return out


def _line_minima3(s_range, partial, c, cols, enc, boxes, lam_range, leaf_filter, out, count,
                  budget):
    """`_enumerate_core`'s line loop for n = 3 with `first_per_line`, with its
    three rows unrolled into local scalars, which roughly halves the time of
    the 3D window scans.  On each line c + s U e_1 + lam U e_2, s in
    `s_range`, it visits the general loop's leaves in the same order, counts
    each against `budget`, passes it to `leaf_filter`, and stores the first
    accepted one in `out`.  As in `_narrowed`, the rows whose enclosure of
    the line column U e_2 is certainly positive bound lam; the others hold 0
    there and bound nothing.  Returns `count` plus the leaves visited."""
    (p0l, p0h), (p1l, p1h), (p2l, p2h) = partial
    (a0l, a0h), (a1l, a1h), (a2l, a2h) = enc[1]
    (v0l, v0h), (v1l, v1h), (v2l, v2h) = enc[2]
    (b0l, b0h), (b1l, b1h), (b2l, b2h) = boxes
    (c0, c1, c2), (w0, w1, w2), (x0, x1, x2) = c, cols[1], cols[2]
    for s in s_range:
        if s >= 0:  # the line's enclosures at lam = 0: partial + s U e_1
            n0l, n0h, n1l, n1h = p0l + a0l * s, p0h + a0h * s, p1l + a1l * s, p1h + a1h * s
            n2l, n2h = p2l + a2l * s, p2h + a2h * s
        else:
            n0l, n0h, n1l, n1h = p0l + a0h * s, p0h + a0l * s, p1l + a1h * s, p1h + a1l * s
            n2l, n2h = p2l + a2h * s, p2h + a2l * s
        lo, hi = lam_range
        if v0l > 0:
            r, q = b0l - n0h, b0h - n0l
            r = -(-r // (v0h if r > 0 else v0l))
            q = q // (v0l if q > 0 else v0h)
            if r > lo:
                lo = r
            if q < hi:
                hi = q
        if v1l > 0:
            r, q = b1l - n1h, b1h - n1l
            r = -(-r // (v1h if r > 0 else v1l))
            q = q // (v1l if q > 0 else v1h)
            if r > lo:
                lo = r
            if q < hi:
                hi = q
        if v2l > 0:
            r, q = b2l - n2h, b2h - n2l
            r = -(-r // (v2h if r > 0 else v2l))
            q = q // (v2l if q > 0 else v2h)
            if r > lo:
                lo = r
            if q < hi:
                hi = q
        for lam in range(lo, hi + 1):
            count += 1
            if count > budget:
                raise PointBudgetError(budget)
            if lam >= 0:
                l0, h0, l1, h1 = n0l + v0l * lam, n0h + v0h * lam, n1l + v1l * lam, n1h + v1h * lam
                l2, h2 = n2l + v2l * lam, n2h + v2h * lam
            else:
                l0, h0, l1, h1 = n0l + v0h * lam, n0h + v0l * lam, n1l + v1h * lam, n1h + v1l * lam
                l2, h2 = n2l + v2h * lam, n2h + v2l * lam
            leaf = [(l0, h0), (l1, h1), (l2, h2)]
            leaf_c = (c0 + w0 * s + x0 * lam, c1 + w1 * s + x1 * lam, c2 + w2 * s + x2 * lam)
            if leaf_filter(leaf_c, leaf):
                out[leaf_c] = leaf
                break  # the line's minimum
            if l0 >= b0h or l1 >= b1h or l2 >= b2h:
                break  # the line has left the top of a box
    return count


def _line_basis(lat, budget):
    """(U, U^-1) for the line scan: U unimodular with last column v, a
    primitive lattice vector whose ambient image is exactly >= 0.

    v is the point of least coordinate sum in the smallest closed window
    [0, t)^n, t = 2, 4, ..., that holds a lattice point; the number of lines
    that cross a window grows with that sum.  The window filter decides
    membership exactly; the sums of the scan's enclosure midpoints only rank
    the candidates, ties broken by c.

    The basis depends on the lattice alone: it is cached on the lattice
    (`_line_scan`) with the most leaves one of its scans visited, which every
    call charges to its `budget` (`_charge`); a search that raises caches
    nothing.
    """
    if lat._line_scan is None:
        t, leaves = Fraction(2), 0
        while True:
            boxes = [(0, lat.raw_window_interval(t)[1])] * lat.n
            pts = _enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), 0),
                                  budget)
            leaves = max(leaves, pts.leaves)
            if pts:
                break
            t *= 2
        v = min(pts, key=lambda c: (sum(lo + hi for lo, hi in pts[c]), c))
        lat._line_scan = leaves, unimodular_completion(primitive_int_vector(v))
    leaves, basis = lat._line_scan
    _charge(leaves, budget)
    return basis


def _enumerate_window(lat, t, budget):
    """The window's line minima, as `_enumerate_core` returns them: on every
    line along `_line_basis`'s vector v, the window point nearest the origin,
    with its enclosures.  Every window point is one of them plus a
    nonnegative multiple of v, so they dominate the window, and its
    Pareto-minimal points are theirs."""
    t = Fraction(t)
    boxes = [(0, lat.raw_window_interval(t)[1])] * lat.n
    filt = _box_filter(lat, _window_bounds(lat, t), 0)
    return _enumerate_core(lat, boxes, filt, budget, _line_basis(lat, budget),
                           first_per_line=True)


# The benchmark's tracer still wraps this name; the benchmark-only change
# (ROADMAP item 1) drops it there and here.
_enumerate_window_alpha = _enumerate_window


def enumerate_orthant_points(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Exactly the nonzero lattice points with all coordinates in (0, t), as
    sorted coefficient tuples.

    No library code calls this scan of the whole window; it stays as a
    brute-force reference for the tests."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    boxes = [(0, lat.raw_window_interval(t)[1])] * lat.n
    pts = _enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), 1), budget)
    return sorted(pts)


def _window_minima(lat, t, budget=DEFAULT_POINT_BUDGET):
    """(candidate count, the window's Pareto-minimal points in exact
    lexicographic order).

    Every nonzero lattice point of the window [0, t)^n is dominated
    componentwise by one of the returned points.  n = 3: the line minima of
    `_enumerate_window`, pruned; the count is of those line minima.  n = 2:
    the Pareto-minimal points of the closed quadrant are the boundary lattice
    points of its sail, and the window's are those of them inside it, a
    contiguous run.  The window path finds two of them in the smallest
    window t0 = 2, 4, ... that holds two, and `_sail_walk` goes on from the
    run's two ends; the window path at t itself answers when t0 reaches t.
    Each seed scan's leaves are bounded by `budget`, as every window scan's
    are; the walk's points count against it after the last seed scan's line
    minima.  The count is of those line minima plus the walk's points, so
    the count less the Pareto set is what the last seed scan pruned.  It is
    what `SailPatch.enumerated` and the patch JSON's `stats.enumerated` hold.

    Once t0 < t the seed (t0, the last seed scan's count and Pareto points)
    depends on the lattice alone: the first call that gets that far caches it
    on the lattice (`_seed`) with the most leaves one of its scans, the line
    basis's included, visited.  A later call with t > t0 charges that count
    to its `budget` (`_charge`) and walks on from the cached pair.
    """
    if lat.n == 3:
        window_pts = _enumerate_window(lat, t, budget)
        return len(window_pts), _pareto_minimal(lat, window_pts)
    if lat._seed is None or lat._seed[1] >= t:
        t0, leaves = Fraction(2), 0
        while True:
            window_pts = _enumerate_window(lat, min(t0, t), budget)
            leaves = max(leaves, window_pts.leaves)
            kept = _pareto_minimal(lat, window_pts)
            if t0 >= t:
                return len(window_pts), kept
            if len(kept) >= 2:
                break
            t0 *= 2
        lat._seed = max(leaves, lat._line_scan[0]), t0, len(window_pts), kept
    leaves, _, used, kept = lat._seed
    _charge(leaves, budget)
    head, used = _sail_walk(lat, kept[1], kept[0], 0, t, budget, used)
    tail, used = _sail_walk(lat, kept[-2], kept[-1], 1, t, budget, used)
    return used, head[::-1] + kept + tail


def _sail_walk(lat, prev, cur, i, t, budget, used):
    """(the boundary points past cur, `used` plus their number) of a 2D
    sail, walked from consecutive boundary points prev, cur toward the axis
    x_i = 0, while the other coordinate x_j stays below t.

    Consecutive boundary points are a lattice basis: the triangle 0, prev,
    cur holds no other lattice point.  The next point keeps that orientation,
    so it is a cur - prev for an integer a, and the least a with
    x_i(a cur - prev) >= 0 -- the minus (Hirzebruch-Jung) continued fraction
    of the cone.  a = 1 gives x_i(cur) - x_i(prev) < 0, so a >= 2, and x_j
    grows at every step while x_i falls.  The walk stops at an axis point,
    x_i = 0 exactly, or at the first point that the window's `_box_filter`
    refuses on its enclosures, where x_j reaches t.  The ratio of the cached
    enclosures of x_i(prev) and x_i(cur) guesses a, the last a where they
    cannot; exact `coord_sign` tests decide it.  Each point found counts
    against `budget`, after the `used` of the stages before.
    """
    enc = lat.basis_interval_matrix()
    window = _box_filter(lat, _window_bounds(lat, t), -1)
    out, a = [], 2

    def point(m):
        return tuple(m * x - y for x, y in zip(cur, prev))

    while lat.coord_sign(cur, i) > 0:
        p_lo, p_hi = _iv_dot(enc[i], prev)
        c_lo, c_hi = _iv_dot(enc[i], cur)
        if c_lo > 0:
            a = max(2, _ceil_div(p_lo + p_hi, c_lo + c_hi))
        a = _least_nonnegative(lambda m: lat.coord_sign(point(m), i), a)
        prev, cur = cur, point(a)
        if not window(cur, [_iv_dot(row, cur) for row in enc]):
            break
        used += 1
        if used > budget:
            raise PointBudgetError(budget)
        out.append(cur)
    return out, used


def _least_nonnegative(sign_of, a):
    """The least integer m with sign_of(m) >= 0, for sign_of nondecreasing
    with sign_of(1) < 0: from the guess a >= 2, test a and its neighbour,
    then gallop up to a bracket and bisect it."""
    lo, hi = 1, None  # sign_of(lo) < 0 <= sign_of(hi)
    if sign_of(a) >= 0:
        hi, a = a, a - 1
    else:
        lo, a = a, a + 1
    while hi is None or hi - lo > 1:
        if sign_of(a) >= 0:
            hi = a
        else:
            lo = a
        a = 2 * lo if hi is None else (lo + hi) // 2
    return hi


# ---------------------------------------------------------------------------
# Pareto pruning (componentwise minima)

def _pareto_minimal(lat, enclosures):
    """The points of `enclosures` that no other of its points dominates
    componentwise, in the exact lexicographic order of their coordinates.

    `enclosures` maps distinct coefficient tuples to the certified scaled
    enclosures of their coordinates, as `_enumerate_core` returns them.
    Dominated points are never vertices of hull(points) + positive cone, so
    the sail hull is unchanged.

    Both sweeps are the maxima algorithm of Kung, Luccio and Preparata
    (J. ACM 22, 1975).  `_certain_survivors` first drops, on the enclosures
    alone, the points another point certainly dominates; each of them is
    dominated by a minimal point, which stays.  Each coordinate of the
    survivors is then keyed by its exact dense rank (`_coordinate_ranks`):
    equal coordinates share a key, and a smaller coordinate has a smaller
    key.  The second sweep takes the survivors in lexicographic key order
    with a staircase over the (y, z) keys of the kept points (z = 0 for
    n = 2), and drops a point iff a kept point has y and z keys at most its
    own.  Only a point earlier in that order can dominate a later one, and
    the keys order ties exactly, so every dominance the staircase finds is
    real and none is missed: no exact pass over the kept points follows.
    They come out in key order, which is the exact lexicographic order, so
    the hull cycles built from them do not depend on the enclosures.
    """
    n = lat.n
    enclosures = _certain_survivors(enclosures, n)
    ranks = [_coordinate_ranks(lat, enclosures, i) for i in range(n)]
    keys = {c: tuple(r[c] for r in ranks) for c in enclosures}
    kept = []
    ys, zs = [], []  # the staircase of the kept points' (y, z) keys
    for c in sorted(enclosures, key=keys.__getitem__):
        key = keys[c]
        if _staircase_add(ys, zs, key[1], key[2] if n == 3 else 0):
            kept.append(c)
    return kept


def _certain_survivors(enclosures, n):
    """`enclosures` less the points another point certainly dominates: q
    drops p if q's enclosures lie below p's, strictly in x (so q != p) and
    weakly in y and z.

    In the order of the lower ends of x, every point q whose upper end of x
    lies strictly below p's lower end joins a staircase of the upper ends
    (y_hi, z_hi) before p is queried on its lower ends (y_lo, z_lo).
    """
    tops = sorted((e[0][1], e[1][1], e[2][1] if n == 3 else 0) for e in enclosures.values())
    out = {}
    ys, zs = [], []
    j, m = 0, len(tops)
    for c in sorted(enclosures, key=lambda c: enclosures[c][0][0]):
        e = enclosures[c]
        while j < m and tops[j][0] < e[0][0]:
            _staircase_add(ys, zs, tops[j][1], tops[j][2])
            j += 1
        if not _staircase_covers(ys, zs, e[1][0], e[2][0] if n == 3 else 0):
            out[c] = e
    return out


def _staircase_covers(ys, zs, y, z):
    """Whether a step of the staircase (ys ascending, zs strictly
    descending) is at most (y, z) in both keys."""
    i = bisect_right(ys, y)
    return bool(i) and zs[i - 1] <= z


def _staircase_add(ys, zs, y, z):
    """Add the step (y, z) unless the staircase covers it, dropping the
    steps it covers; whether it was added."""
    if _staircase_covers(ys, zs, y, z):
        return False
    i = j = bisect_left(ys, y)
    while j < len(ys) and zs[j] >= z:
        j += 1
    ys[i:j] = [y]
    zs[i:j] = [z]
    return True


def _coordinate_ranks(lat, enclosures, i):
    """Dense exact ranks of coordinate i over the points of `enclosures`:
    equal coordinates share a rank, and a smaller coordinate has a smaller
    one.

    Sorted by the lower ends of their enclosures, the points fall into runs
    whose enclosures chain by overlaps.  Enclosures of different runs are
    disjoint, so the runs are in order, and a run of one point takes no exact
    arithmetic.  The points of a longer run are grouped by their exact
    coordinate, `lat.coord`, and the groups ordered by `coord_cmp_points`.
    """
    pts = sorted(enclosures, key=lambda c: enclosures[c][i][0])
    before = cmp_to_key(lambda a, b: lat.coord_cmp_points(a[0], b[0], i))
    ranks = {}
    rank = k = 0
    m = len(pts)
    while k < m:
        j, top = k + 1, enclosures[pts[k]][i][1]
        while j < m and enclosures[pts[j]][i][0] <= top:
            top = max(top, enclosures[pts[j]][i][1])
            j += 1
        if j == k + 1:
            ranks[pts[k]] = rank
            rank += 1
        else:
            groups = {}
            for c in pts[k:j]:
                groups.setdefault(lat.coord(c, i), []).append(c)
            for group in sorted(groups.values(), key=before):
                for c in group:
                    ranks[c] = rank
                rank += 1
        k = j
    return ranks


# The benchmark's tracer still wraps this name; the benchmark-only change
# (ROADMAP item 1) drops it there and here.
_pareto_minimal_fast = _pareto_minimal


# ---------------------------------------------------------------------------
# closure rays

def _closure_rays(lat):
    """Integer coefficient vectors with verified strictly positive ambient
    images, one near each ambient axis (slightly tilted into the orthant).

    The candidate for axis i is B^-1 (e_i + 2^-b (1 - e_i)), read on the
    midpoints of the cached inverse enclosure and rounded to the nearest
    integers at scale 2^24; the bias b runs 4, ..., 12, then 2, until the
    exact signs accept it.
    """
    n = lat.n
    inv = list(zip(*lat.dual().basis_interval_matrix()))  # inv[j] encloses row j of B^-1
    rays = []
    for i in range(n):
        for b in (*range(4, 13), 2):
            # 2^b times the target, in integers; an enclosure's two ends sum
            # to twice its midpoint at scale 2^64, and cand is at scale 2^24
            target = [1 << b if k == i else 1 for k in range(n)]
            shift = _ENUM_SHIFT + 1 + b - 24
            cand = tuple(round(Fraction(sum(_iv_dot(row, target)), 1 << shift)) for row in inv)
            if not any(cand):
                continue
            cand = primitive_int_vector(cand)
            if all(lat.coord_sign(cand, k) > 0 for k in range(n)):
                rays.append(cand)
                break
        else:
            raise RuntimeError("could not build a verified positive closure ray")
    return rays


def _closure_points(lat, rays, mu, t):
    """mu times each closure ray, mu doubled until every coordinate of every
    such point is certainly >= t: on its enclosure where the lower end
    reaches the top of the raw window side's, else exactly by
    `coord_abs_lt`, as `_box_filter` decides a bound it cannot settle on the
    enclosure.  The rays' images are strictly positive, so |x_i| < t fails
    exactly when x_i >= t."""
    enc = lat.basis_interval_matrix()
    t_hi = lat.raw_window_interval(t)[1]
    while True:
        far = [tuple(mu * x for x in r) for r in rays]
        if all(_iv_dot(row, c)[0] >= t_hi or not lat.coord_abs_lt(c, i, t)
               for c in far for i, row in enumerate(enc)):
            return far
        mu *= 2


# ---------------------------------------------------------------------------
# certification

def _level_points(lat, w, d, budget, t=None):
    """Every lattice point of the closed orthant with 1 <= w . c <= d; with
    a window t, at least those with some normalized x_i >= t.

    Each x_i lies in [0, d / nu_i] for the raw normal nu = B^-T w, which must
    be strictly positive (else ValueError).  The boxes are integer pairs at
    scale 2^64: the top of row i is the ceiling of d 2^128 / nu_lo, nu_lo
    the lower end of nu_i's cached enclosure at scale 2^64.  Only a tiny
    nu_i, whose enclosure holds 0, is enclosed exactly, ever tighter, and
    d / nu_i scaled once.  Without t, one `_enumerate_core` walk covers that box; with
    t, piece i sets its row i to [t_lo, top_i], t_lo the lower end of the raw
    t's enclosure, and a piece exists iff that row is nonempty.  The pieces'
    union keeps each point once.  Each walk's basis is level-first: c' = A c
    for a unimodular A with first row w, so c'_0 is the level w . c, pruned
    to [1, d] exactly, and the leaf filter tests only the orthant.  A leaf
    needs an exact sign test only where the enclosure of one of its
    coordinates straddles 0.  `budget` bounds the leaves of all the pieces
    together: each piece runs under what the pieces before it left, and a
    PointBudgetError names the caller's `budget`.
    """
    n = lat.n
    dual = lat.dual()
    tops = []
    for i, row in enumerate(dual.basis_interval_matrix()):
        nu_lo = _iv_dot(row, w)[0]
        if nu_lo > 0:
            tops.append(_ceil_div(d << 2 * _ENUM_SHIFT, nu_lo))
            continue
        if dual.coord_sign(w, i) <= 0:
            raise ValueError("support normal not strictly positive")
        # nu_i > 0 is tiny: enclose it exactly, ever tighter
        x, e, width = dual.coord(w, i), lat.embeddings[i], Fraction(1, 2**120)
        while (nu := interval_at(x, e, width)[0]) <= 0:
            width /= 2**40
        tops.append(_ceil_div(d << _ENUM_SHIFT, nu))
    boxes = [(0, top) for top in tops]
    if t is None:
        pieces = [boxes]
    else:
        t_lo = lat.raw_window_interval(t)[0]
        pieces = [boxes[:i] + [(t_lo, top)] + boxes[i + 1:]
                  for i, top in enumerate(tops) if t_lo <= top]
    if not pieces:
        return {}
    # A = M^T with its last row, w, moved to the front (M's last column is w)
    m, m_inv = unimodular_completion(w)
    order = [n - 1] + list(range(n - 1))
    a = [tuple(m[j][k] for j in range(n)) for k in order]
    a_inv = [tuple(m_inv[k][j] for k in order) for j in range(n)]

    orthant = _box_filter(lat, [None] * n, 0)
    pts, leaves = {}, 0
    try:
        for piece in pieces:
            got = _enumerate_core(lat, piece, orthant, budget - leaves, (a_inv, a), (1, d))
            leaves += got.leaves
            pts.update(got)
    except PointBudgetError:
        raise PointBudgetError(budget) from None
    return pts


def certify_facet(lat, w, d, budget=DEFAULT_POINT_BUDGET, *, _window=None):
    """Exact emptiness check below the hyperplane w.c = d in the closed orthant.

    Once the normal B^-T w is strictly positive, every point of the closed
    orthant but the origin has w.c >= 1, and the region {x >= 0,
    1 <= w.c <= d} is bounded.  `_level_points` walks it; its points with
    w.c < d are `below`, and those with w.c = d are `on_plane`, the infinite
    facet's point set.  `budget` bounds the leaves of the walk, and a walk
    past it raises PointBudgetError: a facet it cannot decide is neither
    certified nor refused.

    `build_sail_patch` passes `_window` = (t, minima), its window and Pareto
    set.  A window point p is dominated by a minimum q, so w.q <= w.p, with
    equality only when q = p, as the normal is strictly positive.  So the
    minima decide the window: one below the plane refuses the facet with no
    walk, and `below` holds only such refusing minima; else the minima on
    the plane are the window's points on it, and the walk covers only the
    pieces of the region where some x_i >= t, under the one `budget`.

    Returns (certified, reason, on_plane, below).
    """
    signs = lat.support_normal_signs(w)
    if any(s <= 0 for s in signs):
        return False, "support normal not strictly positive", [], []
    on_plane, below, t = [], [], None
    if _window is not None:
        t, minima = _window
        for c in minima:
            level = sum(map(mul, w, c))
            if level <= d:
                (on_plane if level == d else below).append(c)
    if not below:
        pts = _level_points(lat, w, d, budget, t)
        seen = set(on_plane)
        for c in pts:
            if c not in seen:
                (on_plane if sum(x * y for x, y in zip(w, c)) == d else below).append(c)
    if below:
        return False, "lattice points strictly below the supporting plane", on_plane, below
    return True, "", on_plane, below


def _extreme_on_plane(on_plane, w, n):
    """Extreme points of the on-plane lattice point set (the facet's
    vertices) in cyclic order: in 3D ccw seen from outside (along -w) from
    the least one, as the hull orders a cycle; in 2D the two sorted."""
    pts = sorted(set(on_plane))
    if len(pts) <= 2:
        return pts
    if n == 2:
        return [pts[0], pts[-1]]
    ring = _order_facet_cycle(pts, range(len(pts)), [-x for x in w])
    k = ring.index(0)  # the least point is extreme
    return [pts[i] for i in ring[k:] + ring[:k]]


# ---------------------------------------------------------------------------
# patch data model

@dataclass(frozen=True)
class Facet:
    """A facet of the window hull, possibly certified as a true sail facet."""

    vertices: tuple          # authoritative vertex coeff tuples (sorted)
    cycle: tuple             # window-hull polygon cycle (coeff tuples, in order)
    support: tuple           # primitive integer functional w (coefficient space)
    dist: int                # D = w . v on the facet, positive for certified
    certified: bool
    artificial: bool         # touches a closure ray point
    extended: bool = False   # true facet extends beyond the window
    reason: str = ""
    ring: tuple = ()         # certified: the vertices in cyclic order; the
                             # hull cycle, re-derived only when extended


@dataclass(frozen=True)
class EdgeStar:
    center: tuple            # coeff tuple of the vertex
    vectors: tuple           # primitive integer edge vectors, sorted
    complete: bool


@dataclass
class SailPatch:
    lattice: Lattice
    t: Fraction
    facets: list
    hull_vertices: list       # coeff tuples of window-hull vertices (sorted); they hold
                              # every vertex of conv(window) + orthant (`norm_minimum_estimate`)
    edges: list               # sorted coeff-tuple pairs with >= 1 certified facet
    stars: dict               # coeff tuple -> EdgeStar (hull vertices on certified facets)
    irrationality: object
    enumerated: int           # line minima of the window scan (n = 2: of the last
                              # seed scan, plus the sail walk's points), not all window points
    pruned: int
    budget: int

    @property
    def n(self):
        return self.lattice.n

    def certified_facets(self):
        return [f for f in self.facets if f.certified]

    def certified_vertices(self):
        out = set()
        for f in self.certified_facets():
            out.update(f.vertices)
        return sorted(out)

    def interior_certified_vertices(self):
        lat = self.lattice
        return [c for c in self.certified_vertices()
                if all(lat.coord_sign(c, i) > 0 for i in range(lat.n))]

    def complete_star_vertices(self):
        return sorted(c for c, s in self.stars.items() if s.complete)

    def to_json(self):
        """The patch as a JSON document (schema `PATCH_SCHEMA`).

        Its "irrationality" part holds `ok`, the first 64 witnesses in
        sorted order and `witness_count`, the exact number of all of them; an
        alpha lattice has 2T, and the full list is never built here.
        """
        extra = []
        seen = set(self.hull_vertices)
        for f in self.facets:
            for c in list(f.vertices) + list(f.cycle):
                if c not in seen:
                    seen.add(c)
                    extra.append(c)
        extra.sort()
        all_pts = list(self.hull_vertices) + extra
        vid = {c: i for i, c in enumerate(all_pts)}
        doc = {
            "schema": PATCH_SCHEMA,
            "lattice": self.lattice.to_json(),
            "window": str(self.t),
            "includes_orthant_boundary": True,
            "vertices": [list(c) for c in all_pts],
            "facets": [
                {
                    "vertices": [vid[c] for c in f.vertices],
                    "cycle": [vid[c] for c in f.cycle],
                    "support": list(f.support),
                    "dist": f.dist,
                    "certified": f.certified,
                    "artificial": f.artificial,
                    "extended": f.extended,
                    "reason": f.reason,
                }
                for f in self.facets
            ],
            "edges": [[vid[a], vid[b]] for a, b in self.edges],
            "stars": [
                {
                    "vertex": vid[c],
                    "vectors": [list(v) for v in s.vectors],
                    "complete": s.complete,
                }
                for c, s in sorted(self.stars.items())
            ],
            "irrationality": {
                "ok": self.irrationality.ok,
                "witnesses": [list(w) for w in self.irrationality.witness_sample(64)],
                "witness_count": self.irrationality.witness_count,
            },
            "stats": {"enumerated": self.enumerated, "pruned": self.pruned,
                      "budget": self.budget},
        }
        return doc

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# patch construction

def build_sail_patch(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Certified sail patch of the positive orthant inside the window [0, t)^n.

    Boundary policy: lattice points with a zero coordinate break the paper's
    hypothesis.  Every `lattice_from_alpha` lattice has one, the point (0, 1)
    on the second axis, irrational alpha included, and `irrationality_check`
    reports such points as witnesses.  The sail hull includes them; every
    check made on the open orthant -- the log-plane cells (`project_patch`),
    the T0 box property (`check_t0_boxes`, as `boundary_points`), the
    pairing and 2D comparison of `check_Kast_in_Kcirc` (as `boundary_points`
    and `dual_boundary_points`) -- leaves them out and reports them.

    The irrationality report is attached to the patch.  Certified facets are
    sound facets of the infinite Klein polyhedron regardless.

    `budget` bounds the leaves of each window scan and certification walk.
    The line vector, the 2D seed, the closure rays and the coordinate kernels
    are cached on the lattice, and each call charges the cached scans' most
    leaves, so it returns the same patch, or raises the same PointBudgetError
    with the same stage, whatever calls came before.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    n = lat.n
    if n not in (2, 3):
        raise ValueError("patches are built for n = 2 or 3")
    report = irrationality_check(lat, t)

    try:
        enumerated, kept = _window_minima(lat, t, budget)
    except PointBudgetError as exc:
        raise exc.at("window", lat, t) from exc
    pruned = enumerated - len(kept)
    if not kept:
        raise ValueError("window contains no lattice points")

    if lat._rays is None:
        lat._rays = _closure_rays(lat)
    max_abs = max(abs(x) for c in kept for x in c)
    far = _closure_points(lat, lat._rays, 10**6 * (1 + max_abs) ** (n + 1), t)

    pts = kept + far
    far_set = set(far)
    kept_set = set(kept)

    # each hull facet as (cycle, primitive outward normal, offset on its plane)
    if n == 2:
        hull_ids = convex_hull_2d(pts)
        cyc = [pts[i] for i in hull_ids]
        raw_facets = []
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            normal = primitive_int_vector((b[1] - a[1], a[0] - b[0]))
            raw_facets.append(((a, b), normal, normal[0] * a[0] + normal[1] * a[1]))
    else:
        hull_facets, hull_ids = convex_hull_3d(pts)
        raw_facets = [(tuple(pts[i] for i in f.cycle), f.normal_out, f.offset)
                      for f in hull_facets]
    hull_vertex_set = {pts[i] for i in hull_ids} - far_set

    facets = []
    for cycle, normal, offset in raw_facets:
        if any(c in far_set for c in cycle):
            facets.append(Facet(vertices=tuple(sorted(c for c in cycle if c not in far_set)),
                                cycle=cycle, support=(), dist=0,
                                certified=False, artificial=True, reason="window closure"))
            continue
        if offset == 0:
            facets.append(Facet(vertices=tuple(sorted(cycle)), cycle=cycle,
                                support=(), dist=0, certified=False, artificial=False,
                                reason="facet hyperplane passes through the origin"))
            continue
        # the support (w, d) has w.c = d > 0 on the plane
        w, d = (normal, offset) if offset > 0 else (tuple(-x for x in normal), -offset)
        try:
            ok, reason, on_plane, below = certify_facet(lat, w, d, budget, _window=(t, kept))
        except PointBudgetError as exc:
            raise exc.at("certify", lat, t) from exc
        if not ok:
            facets.append(Facet(vertices=tuple(sorted(cycle)), cycle=cycle,
                                support=w, dist=d, certified=False,
                                artificial=False, reason=reason))
            continue
        if not set(cycle) <= set(on_plane):
            raise AssertionError("certified facet misses its own hull vertices")
        # The window's points on a certified plane are all Pareto minima, and
        # the window is convex, so the facet reaches past its window cycle iff
        # the plane holds a point outside `kept`; only then is it re-ringed.
        extended = not kept_set.issuperset(on_plane)
        ring = tuple(_extreme_on_plane(on_plane, w, n)) if extended else cycle
        facets.append(Facet(vertices=tuple(sorted(ring)), cycle=cycle,
                            support=w, dist=d, certified=True, artificial=False,
                            extended=extended, ring=ring))

    # deterministic facet order: certified first, then by vertex list
    facets.sort(key=lambda f: (not f.certified, f.vertices, f.cycle))
    patch = SailPatch(
        lattice=lat, t=t, facets=facets,
        hull_vertices=sorted(hull_vertex_set),
        edges=[], stars={}, irrationality=report,
        enumerated=enumerated, pruned=pruned, budget=budget,
    )
    _attach_edges_and_stars(patch)
    return patch


def _cycle_edges(cycle, n):
    """The sides of a facet cycle, as consecutive vertex pairs: closed around
    a polygon (n = 3), open along a segment (n = 2, or a degenerate cycle)."""
    m = len(cycle)
    return [(cycle[i], cycle[(i + 1) % m]) for i in range(m if n == 3 and m > 2 else m - 1)]


def _attach_edges_and_stars(patch):
    """The patch's edges, those of its facet cycles on a certified facet, and
    the edge star of every hull vertex on a certified facet, from one pass
    over the facets and one over the edges."""
    edge_cert = {}    # edge -> whether a certified facet has it
    vertex_cert = {}  # cycle vertex -> the certified flags of its facets
    for f in patch.facets:
        for a, b in _cycle_edges(f.cycle, patch.n):
            e = (a, b) if a <= b else (b, a)
            edge_cert[e] = edge_cert.get(e, False) or f.certified
        for c in f.cycle:
            vertex_cert.setdefault(c, []).append(f.certified)

    patch.edges = sorted(e for e, cert in edge_cert.items() if cert)
    vectors = {}
    for a, b in patch.edges:
        e = primitive_int_vector(tuple(y - x for x, y in zip(a, b)))
        vectors.setdefault(a, set()).add(e)
        vectors.setdefault(b, set()).add(tuple(-x for x in e))

    patch.stars = {v: EdgeStar(center=v, vectors=tuple(sorted(vectors.get(v, ()))),
                               complete=all(certified))
                   for v, certified in vertex_cert.items() if any(certified)}


# ---------------------------------------------------------------------------
# stars and periodicity

def edge_star(patch, vertex_coeffs):
    """EdgeStar at a certified vertex; errors on uncertified vertices."""
    v = tuple(vertex_coeffs)
    star = patch.stars.get(v)
    if star is None:
        raise ValueError("vertex is not certified in this patch")
    if star.complete and len(star.vectors) < patch.n:
        raise AssertionError("complete star with fewer than n edges")
    return star


def detect_periodicity(patch, u_matrix):
    """True iff the unimodular map sends every certified facet with in-window
    image to a certified facet with equal determinant data.

    Every entry of `u_matrix` must be exactly an integer: an int, or a
    Fraction with denominator 1, as `FieldElement.mul_matrix` gives them;
    anything else raises ValueError."""
    lat = patch.lattice
    n = lat.n
    if not all(isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1
               for row in u_matrix for x in row):
        raise ValueError("matrix entries must be exact integers")
    u = [tuple(int(x) for x in row) for row in u_matrix]
    if abs(det(u)) != 1:
        raise ValueError("matrix is not unimodular")
    lat.check_orthant_preserving(u)

    def apply(c):
        return tuple(sum(u[i][j] * c[j] for j in range(n)) for i in range(n))

    # the window's one leaf filter; it refuses c = 0, and a unimodular image
    # of a vertex is never 0
    enc = lat.basis_interval_matrix()
    window = _box_filter(lat, _window_bounds(lat, patch.t), 0)
    checked = matched = 0
    mismatches = []
    by_vertices = {f.vertices: f for f in patch.certified_facets()}
    for f in patch.certified_facets():
        img = tuple(sorted(apply(c) for c in f.vertices))
        if not all(window(c, [_iv_dot(row, c) for row in enc]) for c in img):
            continue
        checked += 1
        g = by_vertices.get(img)
        if g is None:
            mismatches.append((f.vertices, "image facet not certified"))
            continue
        if subset_det_sum(g.vertices, n) != subset_det_sum(f.vertices, n) or g.dist != f.dist:
            mismatches.append((f.vertices, "invariants differ"))
            continue
        matched += 1
    return {
        "checked": checked,
        "matched": matched,
        "mismatches": mismatches,
        "verdict": checked > 0 and not mismatches,
    }
