"""Certified finite patches of Klein polyhedra.

The Klein polyhedron of a lattice and an orthant is the convex hull of the
nonzero lattice points in that (closed) orthant; its boundary is the sail.
A patch is computed inside the window [0, T)^n:

1. enumerate the window's line minima: for a short lattice vector v with
   ambient image >= 0, keep on each line parallel to v only its window point
   nearest the origin (exact interval-propagated ranges, exact membership
   filters); the line's other window points add multiples of v to it,
2. prune points dominated in the componentwise order -- they are never
   vertices of the hull of points plus the orthant's recession cone; the
   line minima dominate the whole window, so they have its Pareto set,
3. close the hull with far points along integer rays whose ambient images
   are verified strictly positive, so no bounded facet is ever cut off,
4. certify each candidate facet by exhaustively enumerating the bounded
   region between its hyperplane and the origin inside the closed orthant:
   certification passes iff that region holds no lattice point strictly
   below the plane.  Points exactly on the plane complete the facet's
   vertex set, so a certified facet carries the vertices of the *infinite*
   polyhedron's facet even when they fall outside the window.

Everything in the trusted path is exact; floats only seed search ranges and
are always followed by exact verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .hull import convex_hull_2d, convex_hull_3d
from .linalg import det, mat_inverse, primitive_int_vector, unimodular_completion
from .lattice import Lattice, irrationality_check
from .numberfield import cmp_at, floor_at, sign_at

__all__ = [
    "PointBudgetError", "Facet", "EdgeStar", "SailPatch",
    "enumerate_orthant_points", "build_sail_patch", "facet_support",
    "edge_star", "detect_periodicity", "DEFAULT_POINT_BUDGET",
]

DEFAULT_POINT_BUDGET = 10**6
PATCH_SCHEMA = "kleinsail.patch/1"


class PointBudgetError(RuntimeError):
    def __init__(self, budget):
        super().__init__(f"point budget exceeded (budget={budget})")
        self.budget = budget


# ---------------------------------------------------------------------------
# interval helpers (rational endpoints; exact containment everywhere)

def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _iv_scale(a, k):
    lo, hi = a[0] * k, a[1] * k
    return (lo, hi) if k >= 0 else (hi, lo)


def _iv_mul_iv(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _iv_dot(ivs, ks):
    """Enclosure of sum_j ivs[j] * ks[j] for integers ks."""
    lo = hi = 0
    for (a, b), k in zip(ivs, ks):
        if k >= 0:
            lo, hi = lo + a * k, hi + b * k
        else:
            lo, hi = lo + b * k, hi + a * k
    return (lo, hi)


def _coeff_outer_ranges(lat, row_boxes, u_inv=None):
    """Integer ranges for coefficients compatible with raw coordinate boxes;
    with `u_inv`, for the coefficients U^-1 c of the basis B U."""
    inv = lat.coeff_interval_matrix()
    n = lat.n
    if u_inv is not None:
        inv = [[_iv_dot([inv[j][i] for j in range(n)], u_inv[k]) for i in range(n)]
               for k in range(n)]
    ranges = []
    for j in range(n):
        acc = (Fraction(0), Fraction(0))
        for i in range(n):
            acc = _iv_add(acc, _iv_mul_iv(inv[j][i], row_boxes[i]))
        lo = acc[0]
        hi = acc[1]
        ranges.append((int(lo.__floor__()), int(hi.__ceil__())))
    return ranges


_ENUM_SHIFT = 64  # fixed-point scale for the enumeration intervals


def _ceil_div(a, b):
    return -((-a) // b)


def _enumerate_core(lat, row_boxes, leaf_filter, budget, line=None):
    """All integer coefficient vectors whose raw coordinates can lie in the
    given per-row boxes, passed through `leaf_filter` for exact membership.

    The recursion propagates certain fixed-point interval bounds (integers
    scaled by 2^64), so no candidate is missed; the filter keeps only true
    members.  The leaf filter receives the scaled interval enclosures of the
    raw coordinates together with the scale shift.

    With `line` = (U, U^-1), U unimodular with a last column v whose ambient
    image is exactly >= 0, the scan runs over the coefficients c' of the
    basis B U (c = U c') and keeps, on each line c' + m e_n, only the first
    leaf the filter accepts: the line's later leaves are that point plus
    positive multiples of v, so each is dominated by it componentwise.
    The boxes are then read as half-open at the top, as windows are: a line
    also ends at a leaf lying at or above the top of a box, since the
    coordinates only grow along v.  Leaves reach the filter, and the
    output, as c.
    """
    n = lat.n
    u, u_inv = line if line is not None else (None, None)
    enc_q = lat.basis_interval_matrix()
    outer = _coeff_outer_ranges(lat, row_boxes, u_inv)
    scale = 1 << _ENUM_SHIFT
    # scaled integer enclosures: floor/ceil keep them certain
    enc = [[(int((e[0] * scale).__floor__()), int((e[1] * scale).__ceil__()))
            for e in row] for row in enc_q]
    if u is not None:
        enc = [[_iv_dot(row, [u[j][k] for j in range(n)]) for k in range(n)]
               for row in enc]
    boxes = [(int((b[0] * scale).__floor__()), int((b[1] * scale).__ceil__()))
             for b in row_boxes]
    # tail enclosures: sum over j > k of enc[i][j] * outer range j
    tails = [[(0, 0)] * (n + 1) for _ in range(n)]
    for i in range(n):
        for k in range(n - 1, -1, -1):
            tlo, thi = tails[i][k + 1]
            elo, ehi = enc[i][k]
            rlo, rhi = outer[k]
            ps = (elo * rlo, elo * rhi, ehi * rlo, ehi * rhi)
            tails[i][k] = (tlo + min(ps), thi + max(ps))

    out = []
    count = 0
    coeffs = [0] * n

    def rec(k, partial):
        nonlocal count
        if k == n:
            count += 1
            if count > budget:
                raise PointBudgetError(budget)
            if u is None:
                c = tuple(coeffs)
            else:
                c = tuple(sum(u[j][m] * coeffs[m] for m in range(n)) for j in range(n))
            if leaf_filter(c, partial):
                out.append(c)
                return True
            return False
        lo_k, hi_k = outer[k]
        for i in range(n):
            elo, ehi = enc[i][k]
            blo, bhi = boxes[i]
            tlo, thi = tails[i][k + 1]
            plo, phi = partial[i]
            lo_res = blo - phi - thi
            hi_res = bhi - plo - tlo
            if elo > 0:
                cand_lo = _ceil_div(lo_res, ehi) if lo_res > 0 else _ceil_div(lo_res, elo)
                cand_hi = hi_res // elo if hi_res > 0 else hi_res // ehi
            elif ehi < 0:
                cand_lo = _ceil_div(hi_res, ehi) if hi_res > 0 else _ceil_div(hi_res, elo)
                cand_hi = lo_res // elo if lo_res > 0 else lo_res // ehi
            else:
                continue
            if cand_lo > lo_k:
                lo_k = cand_lo
            if cand_hi < hi_k:
                hi_k = cand_hi
        first_only = u is not None and k == n - 1
        for v in range(lo_k, hi_k + 1):
            coeffs[k] = v
            nxt = []
            for i in range(n):
                elo, ehi = enc[i][k]
                plo, phi = partial[i]
                if v >= 0:
                    nxt.append((plo + elo * v, phi + ehi * v))
                else:
                    nxt.append((plo + ehi * v, phi + elo * v))
            if not first_only:
                rec(k + 1, nxt)
            elif rec(k + 1, nxt) or any(nxt[i][0] >= boxes[i][1] for i in range(n)):
                return  # the line's minimum, or the line has left the top of a box

    rec(0, [(0, 0)] * n)
    return out


def _window_leaf_filter(lat, t, include_boundary):
    """Interval-first window membership with exact fallback only at straddles."""
    t = Fraction(t)
    t_lo, t_hi = lat.raw_window_interval(t)
    scale = 1 << _ENUM_SHIFT
    t_lo_s = int((t_lo * scale).__floor__())
    t_hi_s = int((t_hi * scale).__ceil__())
    n = lat.n

    def filt(c, partial):
        if all(x == 0 for x in c):
            return False
        for i in range(n):
            lo, hi = partial[i]
            if hi < 0:
                return False
            if not lo > 0:
                s = lat.coord_sign(c, i)
                if s < 0 or (s == 0 and not include_boundary):
                    return False
            if not hi < t_lo_s:
                if lo > t_hi_s:
                    return False
                if not lat.coord_abs_lt(c, i, t):
                    return False
        return True

    return filt


def _line_basis(lat, budget):
    """(U, U^-1) for the line scan: U unimodular with last column v, a
    primitive lattice vector whose ambient image is exactly >= 0.

    v is the point of least coordinate sum in the smallest closed window
    [0, t)^n, t = 2, 4, ..., that holds a lattice point; the number of lines
    that cross a window grows with that sum.  The window filter decides
    membership exactly, so floats only rank the candidates.
    """
    n = lat.n
    t = Fraction(2)
    while True:
        boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * n
        pts = _enumerate_core(lat, boxes, _window_leaf_filter(lat, t, True), budget)
        if pts:
            v = min(pts, key=lambda c: (sum(lat.coord_float(c, i) for i in range(n)), c))
            return unimodular_completion(primitive_int_vector(v))
        t *= 2


def _enumerate_window(lat, t, include_boundary, budget, interval_store=None):
    """The window's line minima: on every line along `_line_basis`'s vector
    v, the window point nearest the origin.  Every window point is one of
    them plus a nonnegative multiple of v, so they dominate the window, and
    its Pareto-minimal points are theirs."""
    t = Fraction(t)
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * lat.n
    filt = _window_leaf_filter(lat, t, include_boundary)
    line = _line_basis(lat, budget)
    if interval_store is None:
        return _enumerate_core(lat, boxes, filt, budget, line)

    def recording(c, partial):
        if filt(c, partial):
            interval_store[c] = tuple(partial)
            return True
        return False

    return _enumerate_core(lat, boxes, recording, budget, line)


def _enumerate_window_alpha(lat, t, include_boundary, budget):
    """Column scan for alpha-shaped lattices: keeps, per column x1 = a, the
    minimal-x2 point (all other column points are dominated) -- exactly the
    candidates that can be hull vertices.  The scan solves for the product
    r*b, since x2 = s*a + r*b, and returns b.  The library scans these
    lattices with `_enumerate_window`, whose line vector here is (0, 1)."""
    t = Fraction(t)
    r = 1 if lat.basis[1][1] == 1 else -1
    a_lo = 0 if include_boundary else 1
    a_hi = int(t.__ceil__()) - (1 if t.denominator == 1 else 0)
    out = []
    count = 0
    e = lat.embeddings[1]
    for a in range(a_lo, a_hi + 1):
        count += 1
        if count > budget:
            raise PointBudgetError(budget)
        # the least b with x2 = s + b >= 0 (> 0 without the boundary)
        s = lat.basis[1][0] * a
        fl = floor_at(-s, e)
        b = fl if cmp_at(-s, fl, e) == 0 else fl + 1
        sgn = sign_at(s + b, e)
        if sgn < 0 or (sgn == 0 and not include_boundary):
            b += 1
        if cmp_at(s + b, t, e) >= 0:
            continue
        if a == 0 and b == 0:
            b = 1
            if t <= 1:
                continue
        out.append((a, r * b))
    return out


def enumerate_orthant_points(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Exactly the nonzero lattice points with all coordinates in (0, t)."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * lat.n
    pts = _enumerate_core(lat, boxes, _window_leaf_filter(lat, t, False), budget)
    return [lat.point(c) for c in sorted(pts)]


def _window_minima(lat, t, include_boundary=True, budget=DEFAULT_POINT_BUDGET):
    """(number of line minima, the window's Pareto-minimal points).

    Every nonzero lattice point of the window [0, t)^n (or (0, t)^n) is
    dominated componentwise by one of the returned points.  The count is of
    the line minima of `_enumerate_window`, not of all window points; it is
    what `SailPatch.enumerated` and the patch JSON's `stats.enumerated` hold.
    """
    if lat.field is None:  # Fraction coordinates sort exactly
        window_pts = _enumerate_window(lat, t, include_boundary, budget)
        return len(window_pts), _pareto_minimal_fast(lat, window_pts)
    interval_store = {}
    window_pts = _enumerate_window(lat, t, include_boundary, budget,
                                   interval_store=interval_store)
    return len(window_pts), _pareto_minimal(lat, window_pts, interval_store)


# ---------------------------------------------------------------------------
# Pareto pruning (componentwise minima)

def _pareto_minimal(lat, coeffs_list, intervals=None):
    """Prune points dominated in the componentwise order (exact).

    Dominated points are never vertices of hull(points) + positive cone, so
    the sail hull is unchanged.  Certified fixed-point coordinate intervals
    (from the enumeration) decide comparisons; removal falls back to exact
    sign tests only when intervals overlap.  Keeping an undominated point by
    mistake is impossible; keeping a dominated one would only add an
    uncertifiable hull vertex, and cannot happen either.
    """
    n = lat.n
    pts = list(dict.fromkeys(coeffs_list))
    if intervals is None:
        intervals = {}
    missing = [c for c in pts if c not in intervals]
    if missing:
        scale = 1 << _ENUM_SHIFT
        enc = lat.basis_interval_matrix()
        enc_s = [[(int((e[0] * scale).__floor__()), int((e[1] * scale).__ceil__()))
                  for e in row] for row in enc]
        for c in missing:
            ivs = []
            for i in range(n):
                lo = hi = 0
                for j, v in enumerate(c):
                    elo, ehi = enc_s[i][j]
                    if v >= 0:
                        lo += elo * v
                        hi += ehi * v
                    else:
                        lo += ehi * v
                        hi += elo * v
                ivs.append((lo, hi))
            intervals[c] = tuple(ivs)

    def dominates(q, p):
        # q <= p componentwise (and q != p, guaranteed by dedupe)
        for i in range(n):
            qlo, qhi = intervals[q][i]
            plo, phi = intervals[p][i]
            if qhi <= plo:
                continue
            if qlo > phi:
                return False
            if lat.coord_cmp_points(q, p, i) > 0:
                return False
        return True

    def mid(c):
        return tuple((lo + hi) >> 1 for lo, hi in intervals[c])

    pts.sort(key=mid)
    kept = []
    if n == 2:
        best = None  # point with the running-minimum second coordinate
        for p in pts:
            if best is not None and dominates(best, p):
                continue
            kept.append(p)
            if best is None or mid(p)[1] < mid(best)[1]:
                best = p
        return kept
    # n == 3: staircase of kept points over midpoint keys (y, z); every prune
    # is confirmed by the interval/exact dominance test
    from bisect import bisect_right
    stair = []  # (y_mid, z_mid, point), y ascending, z strictly descending

    for p in pts:
        my, mz = mid(p)[1], mid(p)[2]
        i = bisect_right(stair, (my, mz, p))
        cand = None
        if i > 0 and stair[i - 1][1] <= mz:
            cand = stair[i - 1][2]
        if cand is not None and dominates(cand, p):
            continue
        kept.append(p)
        if i > 0 and stair[i - 1][1] <= mz:
            continue  # not inserted: an existing entry already covers (y, z)
        j = i
        while j < len(stair) and stair[j][1] >= mz:
            j += 1
        stair[i:j] = [(my, mz, p)]
    return kept


def _pareto_minimal_fast(lat, coeffs_list):
    """`_pareto_minimal` for lattices over Q: exact Fraction coordinates
    are the sort keys, and a staircase decides dominance."""
    n = lat.n
    pts = list(dict.fromkeys(coeffs_list))
    coords = {c: tuple(lat.coord(c, i) for i in range(n)) for c in pts}
    pts.sort(key=lambda c: coords[c])
    kept = []
    if n == 2:
        best_y = None
        for p in pts:
            y = coords[p][1]
            if best_y is None or y < best_y:
                kept.append(p)
                best_y = y
        return kept
    # n == 3: staircase on (y, z) of kept points, sorted by x
    from bisect import bisect_right
    stair = []  # (y, z) with y ascending, z strictly descending

    def stair_dominated(y, z):
        i = bisect_right(stair, (y, Fraction(10) ** 40))
        if i == 0:
            return False
        return stair[i - 1][1] <= z

    def stair_insert(y, z):
        i = bisect_right(stair, (y, z))
        if i > 0 and stair[i - 1][1] <= z:
            return
        j = i
        while j < len(stair) and stair[j][1] >= z:
            j += 1
        stair[i:j] = [(y, z)]

    for p in pts:
        _, y, z = coords[p]
        if not stair_dominated(y, z):
            kept.append(p)
            stair_insert(y, z)
    return kept


# ---------------------------------------------------------------------------
# closure rays

def _closure_rays(lat):
    """Integer coefficient vectors with verified strictly positive ambient
    images, one near each ambient axis (slightly tilted into the orthant)."""
    n = lat.n
    # the float basis inverted exactly, then read as floats
    binv = [[float(x) for x in row]
            for row in mat_inverse([[Fraction(x) for x in row] for row in lat.basis_float()])]
    rays = []
    for i in range(n):
        for bias_exp in range(4, 14):
            bias = 2.0 ** -bias_exp if bias_exp < 13 else 0.25
            target = [1.0 if k == i else bias for k in range(n)]
            c = [sum(binv[j][k] * target[k] for k in range(n)) for j in range(n)]
            scale = 2**24
            cand = tuple(int(round(x * scale)) for x in c)
            if all(x == 0 for x in cand):
                continue
            cand = primitive_int_vector(cand)
            if all(lat.coord_sign(cand, k) > 0 for k in range(n)):
                rays.append(cand)
                break
        else:
            raise RuntimeError("could not build a verified positive closure ray")
    return rays


# ---------------------------------------------------------------------------
# facet support functionals

def facet_support(vertex_coeffs, n):
    """Primitive integer supporting functional (w, D) with w.c = D > 0 on the
    facet; raises if the affine hull passes through the origin."""
    vs = [tuple(int(x) for x in v) for v in vertex_coeffs]
    if len(vs) < n:
        raise ValueError("facet needs at least n vertices")
    if n == 2:
        a, b = vs[0], vs[1]
        d = (b[0] - a[0], b[1] - a[1])
        w = (d[1], -d[0])
    elif n == 3:
        a = vs[0]
        w = None
        for i in range(1, len(vs)):
            for j in range(i + 1, len(vs)):
                u = tuple(vs[i][k] - a[k] for k in range(3))
                v = tuple(vs[j][k] - a[k] for k in range(3))
                cr = (u[1] * v[2] - u[2] * v[1],
                      u[2] * v[0] - u[0] * v[2],
                      u[0] * v[1] - u[1] * v[0])
                if any(cr):
                    w = cr
                    break
            if w:
                break
        if w is None:
            raise ValueError("facet vertices are collinear")
    else:
        raise ValueError("supported dimensions: 2, 3")
    w = primitive_int_vector(w)
    d0 = sum(w[k] * vs[0][k] for k in range(n))
    if d0 == 0:
        raise ValueError("facet hyperplane passes through the origin")
    if d0 < 0:
        w = tuple(-x for x in w)
        d0 = -d0
    for v in vs:
        if sum(w[k] * v[k] for k in range(n)) != d0:
            raise ValueError("vertices are not coplanar")
    return w, d0


# ---------------------------------------------------------------------------
# certification

def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _solve_level(w, k):
    """One integer solution of w . c = k for primitive w."""
    n = len(w)
    if n == 2:
        g, x, y = _xgcd(w[0], w[1])
        base = (x * k, y * k)
    else:
        g01, x, y = _xgcd(w[0], w[1])
        g, s, t = _xgcd(g01, w[2])
        # s*(x*w0 + y*w1) + t*w2 = g = 1
        base = (x * s * k, y * s * k, t * k)
    if sum(wi * bi for wi, bi in zip(w, base)) != k:
        raise AssertionError("level solver produced a wrong level")
    return base


def _affine_nonneg_range(lat, base, step, cap=10**7):
    """Exact integer range of m with ambient(base + m*step) >= 0 in all rows.

    Returns (lo, hi) or None when empty; raises if unbounded (cannot happen
    for levels of a strictly positive functional).
    """
    n = lat.n
    lo, hi = None, None
    for i in range(n):
        e = lat.embeddings[i]
        x0 = lat.coord(base, i)
        s = lat.coord(step, i)
        s_sign = sign_at(s, e)
        if s_sign == 0:
            if sign_at(x0, e) < 0:
                return None
            continue
        bound = -x0 / s  # FieldElement or Fraction division
        fl = floor_at(bound, e)
        if s_sign > 0:
            m_min = fl if cmp_at(bound, fl, e) == 0 else fl + 1
            lo = m_min if lo is None else max(lo, m_min)
        else:
            hi = fl if hi is None else min(hi, fl)
    if lo is None or hi is None:
        raise RuntimeError("level range is unbounded; support normal not positive?")
    if hi - lo > cap:
        raise PointBudgetError(cap)
    if lo > hi:
        return None
    return lo, hi


def _level_points(lat, w, k, budget):
    """All lattice points of the closed positive orthant with w . c = k."""
    from .lattice import _integer_row_kernel

    n = lat.n
    base = _solve_level(w, k)
    kernel = _integer_row_kernel(list(w))
    if n == 2:
        (s,) = kernel
        rng = _affine_nonneg_range(lat, base, s, cap=budget)
        if rng is None:
            return []
        return [tuple(b + m * sv for b, sv in zip(base, s)) for m in range(rng[0], rng[1] + 1)]
    s1, s2 = kernel
    # outer range for m1 via interval enclosures, then exact inner ranges
    enc = lat.basis_interval_matrix()

    def row_iv(vec):
        out = []
        for i in range(n):
            acc = (Fraction(0), Fraction(0))
            for j in range(n):
                acc = _iv_add(acc, _iv_scale(enc[i][j], vec[j]))
            out.append(acc)
        return out

    base_iv, s1_iv, s2_iv = row_iv(base), row_iv(s1), row_iv(s2)
    s2_signs = [lat.coord_sign(s2, i) for i in range(n)]

    # Fourier-Motzkin: each (positive, negative) s2-sign row pair yields
    # alpha + beta*m1 >= 0 with alpha = X_j*S2_i - X_i*S2_j,
    # beta = U_j*S2_i - U_i*S2_j (j the negative row); s2-zero rows
    # constrain m1 directly.  Enclosure arithmetic only widens the range.
    cands = []
    for i in range(n):
        if s2_signs[i] <= 0:
            continue
        for j in range(n):
            if s2_signs[j] >= 0:
                continue
            alpha = _iv_sub(_iv_mul_iv(base_iv[j], s2_iv[i]),
                            _iv_mul_iv(base_iv[i], s2_iv[j]))
            beta = _iv_sub(_iv_mul_iv(s1_iv[j], s2_iv[i]),
                           _iv_mul_iv(s1_iv[i], s2_iv[j]))
            cands.append((alpha, beta))
    for i in range(n):
        if s2_signs[i] == 0:
            cands.append((base_iv[i], s1_iv[i]))

    m1_lo, m1_hi = None, None
    for alpha, beta in cands:
        # sup over enclosures of alpha + beta*m1 must be >= 0
        if beta[0] > 0:
            q1, q2 = -alpha[1] / beta[0], -alpha[1] / beta[1]
            v = int(min(q1, q2).__ceil__())
            m1_lo = v if m1_lo is None else max(m1_lo, v)
        elif beta[1] < 0:
            q1, q2 = -alpha[1] / beta[0], -alpha[1] / beta[1]
            v = int(max(q1, q2).__floor__())
            m1_hi = v if m1_hi is None else min(m1_hi, v)
    if m1_lo is None or m1_hi is None:
        raise RuntimeError("unbounded facet plane section")
    out = []
    count = 0
    for m1 in range(m1_lo, m1_hi + 1):
        shifted = tuple(b + m1 * sv for b, sv in zip(base, s1))
        rng = _affine_nonneg_range(lat, shifted, s2, cap=budget)
        if rng is None:
            continue
        for m2 in range(rng[0], rng[1] + 1):
            count += 1
            if count > budget:
                raise PointBudgetError(budget)
            out.append(tuple(sh + m2 * sv for sh, sv in zip(shifted, s2)))
    return out


def certify_facet(lat, w, d, budget=DEFAULT_POINT_BUDGET):
    """Exact emptiness check below the hyperplane w.c = d in the closed orthant.

    Any point of the closed orthant has w.c = <normal, x> > 0 once the normal
    is strictly positive, so the region below the plane meets the lattice in
    the integer levels w.c = 1..d-1; each level is walked exactly.  The level
    w.c = d is returned in full: it is the infinite facet's point set (the
    plane section of the orthant is bounded).

    Returns (certified, reason, on_plane, below).
    """
    signs = lat.support_normal_signs(w)
    if any(s <= 0 for s in signs):
        return False, "support normal not strictly positive", [], []
    try:
        below = []
        for k in range(1, d):
            below.extend(_level_points(lat, w, k, budget))
        on_plane = _level_points(lat, w, d, budget)
    except PointBudgetError:
        return False, "certification region exceeded the point budget", [], []
    if below:
        return False, "lattice points strictly below the supporting plane", on_plane, below
    return True, "", on_plane, below


def _extreme_on_plane(on_plane, w, n):
    """Extreme points of the on-plane lattice point set (the facet's vertices)."""
    pts = sorted(set(on_plane))
    if len(pts) <= 2:
        return pts
    if n == 2:
        return [pts[0], pts[-1]]
    k = max(range(n), key=lambda i: abs(w[i]))
    keep = [i for i in range(n) if i != k]
    proj = [(p[keep[0]], p[keep[1]]) for p in pts]
    idx = convex_hull_2d(proj)
    return sorted(pts[i] for i in idx)


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
    hull_vertices: list       # coeff tuples of window-hull vertices (sorted)
    edges: list               # sorted coeff-tuple pairs with >= 1 certified facet
    stars: dict               # coeff tuple -> EdgeStar (hull vertices on certified facets)
    irrationality: object
    enumerated: int           # line minima of the window scan, not all window points
    pruned: int
    budget: int
    include_boundary: bool = True
    minima: tuple = ()        # Pareto-minimal window points (coeff tuples)

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

    def vertex_facets(self):
        """hull vertex coeffs -> indices of incident window-hull facets."""
        out = {}
        for fi, f in enumerate(self.facets):
            for c in f.cycle:
                out.setdefault(c, set()).add(fi)
        return out

    def to_json(self):
        vid = {c: i for i, c in enumerate(self.hull_vertices)}
        extra = []
        seen = set(vid)
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
            "includes_orthant_boundary": self.include_boundary,
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
                "witnesses": [list(w.coeffs) for w in self.irrationality.witnesses[:64]],
            },
            "stats": {"enumerated": self.enumerated, "pruned": self.pruned,
                      "budget": self.budget},
        }
        return doc

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# patch construction

def build_sail_patch(lat, t, budget=DEFAULT_POINT_BUDGET, include_boundary=True):
    """Certified sail patch of the positive orthant inside the window [0, t)^n.

    Boundary policy: lattice points with a zero coordinate break the paper's
    hypothesis.  Every `lattice_from_alpha` lattice has one, the point (0, 1)
    on the second axis, irrational alpha included, and `irrationality_check`
    reports such points as witnesses.  The sail hull includes them; every
    check made on the open orthant -- the log-plane cells (`project_patch`),
    the T0 box property (`check_t0_boxes`, as `boundary_points`) -- leaves
    them out and reports them.

    The irrationality report is attached to the patch.  Certified facets are
    sound facets of the infinite Klein polyhedron regardless.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    n = lat.n
    if n not in (2, 3):
        raise ValueError("patches are built for n = 2 or 3")
    report = irrationality_check(lat, t)

    enumerated, kept = _window_minima(lat, t, include_boundary, budget)
    pruned = enumerated - len(kept)
    if not kept:
        raise ValueError("window contains no lattice points")

    rays = _closure_rays(lat)
    max_abs = max(abs(x) for c in kept for x in c)
    mu = 10**6 * (1 + max_abs) ** (n + 1)
    far = [tuple(mu * x for x in r) for r in rays]

    pts = kept + far
    far_set = set(far)

    facets = []
    if n == 2:
        idx = convex_hull_2d(pts)
        cyc = [pts[i] for i in idx]
        m = len(cyc)
        raw_facets = [(cyc[i], cyc[(i + 1) % m]) for i in range(m)]
    else:
        hull_facets, _ = convex_hull_3d(pts)
        raw_facets = [tuple(pts[i] for i in f.cycle) for f in hull_facets]

    hull_vertex_set = set()
    for cycle in raw_facets:
        hull_vertex_set.update(cycle)
    hull_vertex_set -= far_set

    for cycle in raw_facets:
        artificial = any(c in far_set for c in cycle)
        if artificial:
            facets.append(Facet(vertices=tuple(sorted(c for c in cycle if c not in far_set)),
                                cycle=tuple(cycle), support=(), dist=0,
                                certified=False, artificial=True, reason="window closure"))
            continue
        try:
            w, d0 = facet_support(cycle, n)
        except ValueError as exc:
            facets.append(Facet(vertices=tuple(sorted(cycle)), cycle=tuple(cycle),
                                support=(), dist=0, certified=False,
                                artificial=False, reason=str(exc)))
            continue
        ok, reason, on_plane, below = certify_facet(lat, w, d0, budget)
        if not ok:
            facets.append(Facet(vertices=tuple(sorted(cycle)), cycle=tuple(cycle),
                                support=w, dist=d0, certified=False,
                                artificial=False, reason=reason))
            continue
        if not set(cycle) <= set(on_plane):
            raise AssertionError("certified facet misses its own hull vertices")
        authoritative = _extreme_on_plane(on_plane, w, n)
        extended = set(authoritative) != set(cycle)
        facets.append(Facet(vertices=tuple(sorted(authoritative)), cycle=tuple(cycle),
                            support=w, dist=d0, certified=True,
                            artificial=False, extended=extended))

    # deterministic facet order: certified first, then by vertex list
    facets.sort(key=lambda f: (not f.certified, f.vertices, f.cycle))
    patch = SailPatch(
        lattice=lat, t=t, facets=facets,
        hull_vertices=sorted(hull_vertex_set),
        edges=[], stars={}, irrationality=report,
        enumerated=enumerated, pruned=pruned, budget=budget,
        include_boundary=include_boundary, minima=tuple(kept),
    )
    _attach_edges_and_stars(patch)
    _check_no_axis_parallel_certified(patch)
    return patch


def _attach_edges_and_stars(patch):
    n = patch.n
    vertex_facets = patch.vertex_facets()
    edge_map = {}
    for fi, f in enumerate(patch.facets):
        cyc = f.cycle
        m = len(cyc)
        if m < 2:
            continue
        rng = range(m) if (n == 3 and m > 2) else range(m - 1)
        for i in rng:
            e = tuple(sorted((cyc[i], cyc[(i + 1) % m])))
            edge_map.setdefault(e, set()).add(fi)

    edges = sorted(e for e, fs in edge_map.items()
                   if any(patch.facets[fi].certified for fi in fs))
    patch.edges = edges

    stars = {}
    for v, fids in vertex_facets.items():
        if not any(patch.facets[fi].certified for fi in fids):
            continue
        vectors = set()
        for (a, b), fs in edge_map.items():
            if v not in (a, b):
                continue
            if not any(patch.facets[fi].certified for fi in fs):
                continue
            other = b if a == v else a
            diff = tuple(x - y for x, y in zip(other, v))
            vectors.add(primitive_int_vector(diff))
        complete = all(patch.facets[fi].certified for fi in fids)
        stars[v] = EdgeStar(center=v, vectors=tuple(sorted(vectors)),
                            complete=complete)
    patch.stars = stars


def _check_no_axis_parallel_certified(patch):
    # an unbounded face would surface as a certified support normal with a
    # zero entry; certification already rejects those, so this is a guard
    for f in patch.facets:
        if f.certified:
            signs = patch.lattice.support_normal_signs(f.support)
            if any(s <= 0 for s in signs):
                raise AssertionError("certified facet with non-positive normal")


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
    image to a certified facet with equal determinant data."""
    lat = patch.lattice
    n = lat.n
    u = [tuple(int(x) for x in row) for row in u_matrix]
    if abs(det(u)) != 1:
        raise ValueError("matrix is not unimodular")
    lat.check_orthant_preserving(u)

    def apply(c):
        return tuple(sum(u[i][j] * c[j] for j in range(n)) for i in range(n))

    from .determinants import det_facet

    checked = matched = 0
    mismatches = []
    by_vertices = {f.vertices: f for f in patch.certified_facets()}
    for f in patch.certified_facets():
        img = tuple(sorted(apply(c) for c in f.vertices))
        if not all(lat.in_positive_window(c, patch.t, include_boundary=True)
                   for c in img):
            continue
        checked += 1
        g = by_vertices.get(img)
        if g is None:
            mismatches.append((f.vertices, "image facet not certified"))
            continue
        if det_facet(g) != det_facet(f) or g.dist != f.dist:
            mismatches.append((f.vertices, "invariants differ"))
            continue
        matched += 1
    return {
        "checked": checked,
        "matched": matched,
        "mismatches": mismatches,
        "verdict": checked > 0 and not mismatches,
    }
