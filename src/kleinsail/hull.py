"""Exact convex hulls in dimensions 2 and 3.

Points are tuples of ints or Fractions; all predicates are exact sign
computations of small determinants, so the hulls are certified combinatorial
objects.

The 3D hull is randomized incremental with a conflict graph (Clarkson and
Shor, Discrete Comput. Geom. 4, 1989).  Points are inserted in a fixed
seeded shuffle.  Each triangle stores its integer plane, so a conflict test
is one dot product, and keeps the points strictly outside it; each point
keeps the triangles it is strictly outside of.  Those are exactly the
triangles a point removes when it is inserted, and a directed-edge map
finds the horizon across their edges.  A new triangle on horizon edge
(u, v) tests only the points outside the two old triangles on that edge: a
point strictly outside the new one was strictly outside one of them, so the
lists stay exact.  Coplanar triangles are merged afterwards into polygon
facets (facets may have more than n vertices).  Points lying on a facet's
plane but not extreme never become hull vertices.  Every facet cycle is
ccw seen from outside and starts at its least vertex index, so the output
does not depend on the insertion order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .linalg import gcd_vector

__all__ = [
    "orient2", "orient3", "convex_hull_2d", "convex_hull_3d", "HullFacet",
    "polygon_area", "polytope_volume",
]


def _sign(x):
    return (x > 0) - (x < 0)


def orient2(a, b, c):
    """Sign of the ccw turn a -> b -> c."""
    return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _normal(a, b, c):
    """The cross product (b - a) x (c - a) of three 3D points: a normal of
    their plane, zero iff they are collinear."""
    u0, u1, u2 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    v0, v1, v2 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def orient3(a, b, c, d):
    """Sign of det(b-a, c-a, d-a): +1 if d is on the ccw side of (a,b,c)."""
    nx, ny, nz = _normal(a, b, c)
    return _sign(nx * (d[0] - a[0]) + ny * (d[1] - a[1]) + nz * (d[2] - a[2]))


def convex_hull_2d(points):
    """Indices of hull vertices in ccw order (strictly extreme points only)."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    uniq = []
    for i in idx:
        if not uniq or points[i] != points[uniq[-1]]:
            uniq.append(i)
    if len(uniq) == 1:
        return uniq
    if len(uniq) == 2:
        return uniq

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orient2(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(uniq)
    upper = chain(reversed(uniq))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear: keep the two endpoints
        return [uniq[0], uniq[-1]]
    return hull


class HullFacet:
    """A (merged) facet of a 3D hull: outward plane and ccw vertex cycle."""

    __slots__ = ("normal_out", "offset", "cycle")

    def __init__(self, normal_out, offset, cycle):
        self.normal_out = normal_out  # primitive integer outward normal
        self.offset = offset          # normal_out . x = offset on the plane
        self.cycle = cycle            # vertex indices, convex cycle

    def __repr__(self):
        return f"HullFacet(n={self.normal_out}, off={self.offset}, cycle={self.cycle})"


# the 3D hull inserts its points in this seeded shuffle of their order; on
# the 3D sail patches of the benchmark, a sorted insertion made six times
# the conflict tests
_INSERTION_SEED = 0


def convex_hull_3d(points):
    """Merged-facet hull of integer 3D points.

    Returns (facets, vertex_ids): the HullFacet list, sorted by plane, and
    the set of hull vertex indices.  Equal points count once, under their
    least index.  Requires the point set to span 3 dimensions.
    """
    for p in points:
        for x in p:
            if not isinstance(x, int):
                raise TypeError("convex_hull_3d expects integer coordinates")
    first = {}
    for i, p in enumerate(points):
        first.setdefault(p, i)
    if len(first) < 4:
        raise ValueError("need at least 4 distinct points")
    order = list(first.values())
    random.Random(_INSERTION_SEED).shuffle(order)

    seed = _initial_simplex(points, order)
    if seed is None:
        raise ValueError("point set is degenerate (coplanar)")
    a, b, c, d = seed
    if orient3(points[a], points[b], points[c], points[d]) > 0:
        a, b = b, a

    tris = []       # triangle id -> (v0, v1, v2), ccw seen from outside
    planes = []     # triangle id -> (normal, offset): normal . q > offset outside
    conflicts = []  # triangle id -> points strictly outside it; None once deleted
    edge_tri = {}   # directed edge -> the triangle it bounds (newest write is live)
    sees = {q: set() for q in order}  # point -> live triangles it is outside of

    def add_tri(v0, v1, v2, candidates):
        x, y, z = pa = points[v0]
        nx, ny, nz = n = _normal(pa, points[v1], points[v2])
        off = nx * x + ny * y + nz * z
        tid = len(tris)
        outside = []
        for q in candidates:
            x, y, z = points[q]
            if nx * x + ny * y + nz * z > off:
                outside.append(q)
                sees[q].add(tid)
        tris.append((v0, v1, v2))
        planes.append((n, off))
        conflicts.append(outside)
        edge_tri[v0, v1] = edge_tri[v1, v2] = edge_tri[v2, v0] = tid

    rest = [i for i in order if i not in (a, b, c, d)]
    add_tri(a, b, c, rest)
    add_tri(a, c, d, rest)
    add_tri(a, d, b, rest)
    add_tri(b, d, c, rest)

    for p in rest:
        visible = sees.pop(p)
        if not visible:
            continue  # inside the hull so far, or on its boundary
        horizon = []
        for t in visible:
            t0, t1, t2 = tris[t]
            for u, v in ((t0, t1), (t1, t2), (t2, t0)):
                nb = edge_tri[v, u]
                if nb not in visible:
                    horizon.append((u, v, t, nb))
        for t in visible:
            for q in conflicts[t]:
                if q != p:
                    sees[q].discard(t)
        for u, v, t, nb in horizon:
            candidates = set(conflicts[t])
            candidates.update(conflicts[nb])
            candidates.discard(p)
            add_tri(u, v, p, candidates)
        for t in visible:
            conflicts[t] = None

    # merge coplanar triangles into polygon facets
    groups = {}
    for t, tri in enumerate(tris):
        if conflicts[t] is None:
            continue
        n, off = planes[t]
        g = gcd_vector(n)
        w = tuple(x // g for x in n)
        groups.setdefault((w, off // g), (tri, set()))[1].update(tri)

    facets = []
    hull_vertices = set()
    for (w, off), (tri, verts) in groups.items():
        cycle = list(tri) if len(verts) == 3 else _order_facet_cycle(points, list(verts), w)
        k = cycle.index(min(cycle))
        cycle = cycle[k:] + cycle[:k]
        facets.append(HullFacet(w, off, cycle))
        hull_vertices.update(cycle)
    facets.sort(key=lambda f: (f.normal_out, f.offset))
    return facets, hull_vertices


def _initial_simplex(points, order):
    a = order[0]
    b = order[1]
    c = next((i for i in order
              if any(_normal(points[a], points[b], points[i]))), None)
    if c is None:
        return None
    d = next((i for i in order
              if orient3(points[a], points[b], points[c], points[i]) != 0), None)
    if d is None:
        return None
    return a, b, c, d


def _order_facet_cycle(points, verts, normal):
    """Order coplanar points into the convex cycle of their strictly extreme
    ones, ccw seen from outside (along `normal`)."""
    # project out the largest normal coordinate
    k = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != k]
    proj = [(points[v][keep[0]], points[v][keep[1]]) for v in verts]
    cycle = [verts[i] for i in convex_hull_2d(proj)]
    # enforce ccw as seen along the outward normal
    n = _normal(*(points[v] for v in cycle[:3]))
    if sum(x * y for x, y in zip(n, normal)) < 0:
        cycle.reverse()
    return cycle


def polygon_area(points, indices=None):
    """Exact area of a 2D polygon given by its (convex-ordered) vertices."""
    if indices is None:
        indices = list(range(len(points)))
    acc = Fraction(0)
    m = len(indices)
    for i in range(m):
        x1, y1 = points[indices[i]]
        x2, y2 = points[indices[(i + 1) % m]]
        acc += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(acc) / 2


def polytope_volume(points):
    """Exact volume of the convex hull of rational points (dim 2 or 3)."""
    dim = len(points[0])
    if dim == 2:
        idx = convex_hull_2d(points)
        if len(idx) < 3:
            return Fraction(0)
        return polygon_area(points, idx)
    if dim != 3:
        raise ValueError("volume supported for dimensions 2 and 3")
    # clear denominators to integers, divide the volume back out
    den = lcm(*(x.denominator for p in points for x in p if isinstance(x, Fraction)))
    ipts = [tuple(int(x * den) for x in p) for p in points]
    try:
        facets, _ = convex_hull_3d(ipts)
    except ValueError:
        return Fraction(0)  # degenerate hull has zero volume
    o = ipts[0]
    total = Fraction(0)
    for f in facets:
        cyc = f.cycle
        for i in range(1, len(cyc) - 1):
            a, b, c = ipts[cyc[0]], ipts[cyc[i]], ipts[cyc[i + 1]]
            # det(a - o, b - o, c - o)
            total += sum(x * (y - z) for x, y, z in zip(_normal(o, a, b), c, o))
    return abs(total) / 6 / den**3

