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
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cmp_to_key

from .hull import convex_hull_2d, convex_hull_3d
from .linalg import det, mat_inverse, primitive_int_vector, unimodular_completion
from .lattice import Lattice, irrationality_check
from .numberfield import interval_at

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


def _enumerate_core(lat, row_boxes, leaf_filter, budget, basis=None, functional=None,
                    first_per_line=False):
    """All integer coefficient vectors whose raw coordinates can lie in the
    given per-row boxes, passed through `leaf_filter` for exact membership.

    The recursion propagates certain fixed-point interval bounds (integers
    scaled by 2^64), so no candidate is missed; the filter keeps only true
    members.  It is called as leaf_filter(c, partial), `partial` holding the
    scaled enclosures of c's raw coordinates.

    With `basis` = (U, U^-1), U unimodular, the scan runs over the
    coefficients c' of the basis B U (c = U c'), c'_0 outermost; leaves
    reach the filter, and the output, as c.

    With `functional` = (f, lo, hi), f an integer row, lo <= f.c <= hi is one
    more box row with exact entries, and its scaled value follows the n
    coordinates in `partial`.  When f U = e_0, c'_0 is pruned to [lo, hi]
    exactly.

    With `first_per_line`, U's last column v must have an ambient image
    exactly >= 0.  On each line c' + m e_n only the first leaf the filter
    accepts is kept: the line's later leaves are that point plus positive
    multiples of v, so each is dominated by it componentwise.  The boxes are
    then read as half-open at the top, as windows are: a line also ends at a
    leaf lying at or above the top of a box, since the coordinates only grow
    along v.

    `budget` bounds the leaves of the whole scan.  Returns a dict from each
    kept c, in scan order, to its `partial`.
    """
    n = lat.n
    u, u_inv = basis if basis is not None else (None, None)
    outer = _coeff_outer_ranges(lat, row_boxes, u_inv)
    scale = 1 << _ENUM_SHIFT
    # scaled integer enclosures: floor/ceil keep them certain
    enc = [[(int((e[0] * scale).__floor__()), int((e[1] * scale).__ceil__()))
            for e in row] for row in lat.basis_interval_matrix()]
    if u is not None:
        enc = [[_iv_dot(row, [u[j][k] for j in range(n)]) for k in range(n)]
               for row in enc]
    boxes = [(int((b[0] * scale).__floor__()), int((b[1] * scale).__ceil__()))
             for b in row_boxes]
    if functional is not None:
        f, f_lo, f_hi = functional
        f_u = f if u is None else [sum(f[j] * u[j][k] for j in range(n)) for k in range(n)]
        enc.append([(x * scale, x * scale) for x in f_u])
        boxes.append((f_lo * scale, f_hi * scale))
    rows = range(len(enc))
    # tail enclosures: sum over j > k of enc[i][j] * outer range j
    tails = [[(0, 0)] * (n + 1) for _ in rows]
    for i in rows:
        for k in range(n - 1, -1, -1):
            tlo, thi = tails[i][k + 1]
            elo, ehi = enc[i][k]
            rlo, rhi = outer[k]
            ps = (elo * rlo, elo * rhi, ehi * rlo, ehi * rhi)
            tails[i][k] = (tlo + min(ps), thi + max(ps))

    out = {}
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
                out[c] = partial
                return True
            return False
        lo_k, hi_k = outer[k]
        for i in rows:
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
        first_only = first_per_line and k == n - 1
        for v in range(lo_k, hi_k + 1):
            coeffs[k] = v
            nxt = []
            for i in rows:
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

    try:
        rec(0, [(0, 0)] * len(enc))
    finally:
        del rec  # rec refers to itself: free the scan's state now, not at a collection
    return out


def _box_filter(lat, bounds, min_sign):
    """The leaf filter of every `_enumerate_core` scan: c != 0, and for every
    coordinate i, sign(x_i) >= min_sign and, where bounds[i] is given,
    |x_i| < b_i.

    min_sign -1 allows any sign, 0 is the closed orthant and 1 the open one.
    bounds[i] = (lo, hi, below): lo <= 2^64 b_i <= hi certainly, and
    below(c, i) decides |x_i| < b_i exactly.  Each condition is decided on
    the leaf's enclosure of x_i; the exact sign and `below` run only where
    that enclosure straddles 0 or the bound.
    """
    n = lat.n

    def filt(c, partial):
        if not any(c):
            return False
        for i in range(n):
            lo, hi = partial[i]
            # [lo, hi] encloses 2^64 x_i in integers: lo >= min_sign proves
            # sign(x_i) >= min_sign, and hi < min_sign refutes it
            if min_sign >= 0 and lo < min_sign and (
                    hi < min_sign or lat.coord_sign(c, i) < min_sign):
                return False
            if bounds[i] is not None:
                b_lo, b_hi, below = bounds[i]
                if (hi >= b_lo or -lo >= b_lo) and (
                        lo > b_hi or -hi > b_hi or not below(c, i)):
                    return False
        return True

    return filt


def _window_bounds(lat, t):
    """`_box_filter` bounds for |x_i| < t in normalized coordinates, every i."""
    t = Fraction(t)
    t_lo, t_hi = lat.raw_window_interval(t)
    scale = 1 << _ENUM_SHIFT
    bound = (int((t_lo * scale).__floor__()), int((t_hi * scale).__ceil__()),
             lambda c, i: lat.coord_abs_lt(c, i, t))
    return [bound] * lat.n


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
        pts = _enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), 0), budget)
        if pts:
            v = min(pts, key=lambda c: (sum(lat.coord_float(c, i) for i in range(n)), c))
            return unimodular_completion(primitive_int_vector(v))
        t *= 2


def _enumerate_window(lat, t, include_boundary, budget):
    """The window's line minima, as `_enumerate_core` returns them: on every
    line along `_line_basis`'s vector v, the window point nearest the origin,
    with its enclosures.  Every window point is one of them plus a
    nonnegative multiple of v, so they dominate the window, and its
    Pareto-minimal points are theirs."""
    t = Fraction(t)
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * lat.n
    filt = _box_filter(lat, _window_bounds(lat, t), 0 if include_boundary else 1)
    return _enumerate_core(lat, boxes, filt, budget, _line_basis(lat, budget),
                           first_per_line=True)


# The benchmark's tracer still wraps this name; the benchmark-only change
# (ROADMAP item 1) drops it there and here.
_enumerate_window_alpha = _enumerate_window


def enumerate_orthant_points(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Exactly the nonzero lattice points with all coordinates in (0, t)."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * lat.n
    pts = _enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), 1), budget)
    return [lat.point(c) for c in sorted(pts)]


def _window_minima(lat, t, include_boundary=True, budget=DEFAULT_POINT_BUDGET):
    """(number of line minima, the window's Pareto-minimal points).

    Every nonzero lattice point of the window [0, t)^n (or (0, t)^n) is
    dominated componentwise by one of the returned points.  The count is of
    the line minima of `_enumerate_window`, not of all window points; it is
    what `SailPatch.enumerated` and the patch JSON's `stats.enumerated` hold.
    """
    window_pts = _enumerate_window(lat, t, include_boundary, budget)
    return len(window_pts), _pareto_minimal(lat, window_pts)


# ---------------------------------------------------------------------------
# Pareto pruning (componentwise minima)

def _pareto_minimal(lat, enclosures):
    """The points of `enclosures` that no other of its points dominates
    componentwise, in the exact lexicographic order of their coordinates.

    `enclosures` maps distinct coefficient tuples to the certified scaled
    enclosures of their coordinates, as `_enumerate_core` returns them.
    Dominated points are never vertices of hull(points) + positive cone, so
    the sail hull is unchanged.  Coordinates are compared on the enclosures,
    exactly only where two of them overlap.

    The sweep is the maxima algorithm of Kung, Luccio and Preparata (J. ACM
    22, 1975): points in ascending order of their x enclosure midpoints, and
    a staircase over the (y, z) midpoints of the kept points (z = 0 for
    n = 2).  A point is dropped only after an exact dominance test by a kept
    point, so no Pareto-minimal point is lost.  Midpoints misorder points
    whose enclosures overlap, exact ties included, so the sweep can keep a
    dominated point; a last exact pass over the k kept points, O(k^2) tests,
    removes every one that another kept point dominates.  The survivors are
    sorted exactly, so their order, and the hull cycles built from it, do not
    depend on the enclosures.
    """
    n = lat.n

    def cmp(p, q, i):
        # exact sign of coordinate i of p minus that of q
        plo, phi = enclosures[p][i]
        qlo, qhi = enclosures[q][i]
        if phi < qlo:
            return -1
        if plo > qhi:
            return 1
        return lat.coord_cmp_points(p, q, i)

    def dominates(q, p):  # for distinct points q and p
        for i in range(n):
            if cmp(q, p, i) > 0:
                return False
        return True

    def lex(p, q):
        for i in range(n):
            s = cmp(p, q, i)
            if s:
                return s
        return 0

    def mid(p, i):  # twice the midpoint of coordinate i's enclosure
        lo, hi = enclosures[p][i]
        return lo + hi

    kept = []
    stair = []  # (y, z, point) of kept points: y ascending, z strictly descending
    for p in sorted(enclosures, key=lambda c: mid(c, 0)):
        y, z = mid(p, 1), mid(p, 2) if n == 3 else 0
        i = bisect_right(stair, (y, z, p))
        covered = i > 0 and stair[i - 1][1] <= z
        if covered and dominates(stair[i - 1][2], p):
            continue
        kept.append(p)
        if not covered:
            j = i
            while j < len(stair) and stair[j][1] >= z:
                j += 1
            stair[i:j] = [(y, z, p)]
    kept = [p for p in kept if not any(q != p and dominates(q, p) for q in kept)]
    return sorted(kept, key=cmp_to_key(lex))


# The benchmark's tracer still wraps this name; the benchmark-only change
# (ROADMAP item 1) drops it there and here.
_pareto_minimal_fast = _pareto_minimal


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

def _level_points(lat, w, d, budget):
    """Every lattice point of the closed orthant with 1 <= w . c <= d.

    One `_enumerate_core` walk.  Its basis is level-first: c' = A c for a
    unimodular A with first row w, so c'_0 is the level w . c, pruned to
    [1, d] exactly.  Each x_i lies in [0, d / nu_i] for the strictly positive
    raw normal nu = B^-T w.  A leaf needs an exact sign test only where the
    enclosure of one of its coordinates straddles 0.  `budget` bounds the
    leaves of the whole walk.
    """
    n = lat.n
    inv = lat.coeff_interval_matrix()
    boxes = []
    for i in range(n):
        nu_lo = _iv_dot([inv[j][i] for j in range(n)], w)[0]
        if nu_lo <= 0:  # nu_i > 0 is tiny: enclose it exactly, ever tighter
            x, e, width = lat.dual().coord(w, i), lat.embeddings[i], Fraction(1, 2**120)
            while (nu_lo := interval_at(x, e, width)[0]) <= 0:
                width /= 2**40
        boxes.append((Fraction(0), d / nu_lo))
    # A = M^T with its last row, w, moved to the front (M's last column is w)
    m, m_inv = unimodular_completion(w)
    order = [n - 1] + list(range(n - 1))
    a = [tuple(m[j][k] for j in range(n)) for k in order]
    a_inv = [tuple(m_inv[k][j] for k in order) for j in range(n)]

    orthant = _box_filter(lat, [None] * n, 0)

    def filt(c, partial):
        return orthant(c, partial) and 1 <= sum(x * y for x, y in zip(w, c)) <= d

    return _enumerate_core(lat, boxes, filt, budget, (a_inv, a), (w, 1, d))


def certify_facet(lat, w, d, budget=DEFAULT_POINT_BUDGET):
    """Exact emptiness check below the hyperplane w.c = d in the closed orthant.

    Once the normal B^-T w is strictly positive, every point of the closed
    orthant but the origin has w.c >= 1, and the region {x >= 0,
    1 <= w.c <= d} is bounded.  `_level_points` walks it once; its points
    with w.c < d are `below`, and those with w.c = d are `on_plane`, the
    infinite facet's point set.  `budget` bounds the leaves of that walk.

    Returns (certified, reason, on_plane, below).
    """
    signs = lat.support_normal_signs(w)
    if any(s <= 0 for s in signs):
        return False, "support normal not strictly positive", [], []
    try:
        pts = _level_points(lat, w, d, budget)
    except PointBudgetError:
        return False, "certification region exceeded the point budget", [], []
    on_plane, below = [], []
    for c in pts:
        (on_plane if sum(x * y for x, y in zip(w, c)) == d else below).append(c)
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
                "witnesses": [list(w) for w in self.irrationality.witnesses[:64]],
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
