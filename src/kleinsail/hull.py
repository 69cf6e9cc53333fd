"""Exact convex hulls in dimensions 2 and 3.

Points are tuples of ints or Fractions; all predicates are exact sign
computations of small determinants, so the hulls are certified combinatorial
objects.  The 3D hull is incremental with conflict lists; coplanar triangles
are merged afterwards into polygon facets (facets may have more than n
vertices).  Points lying on a facet's plane but not extreme never become
hull vertices.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import primitive_int_vector

__all__ = [
    "orient2", "orient3", "convex_hull_2d", "convex_hull_3d", "HullFacet",
    "polygon_area", "polytope_volume",
]


def _sign(x):
    return (x > 0) - (x < 0)


def orient2(a, b, c):
    """Sign of the ccw turn a -> b -> c."""
    return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def orient3(a, b, c, d):
    """Sign of det(b-a, c-a, d-a): +1 if d is on the ccw side of (a,b,c)."""
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    w = (d[0] - a[0], d[1] - a[1], d[2] - a[2])
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    return _sign(det)


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


def _plane_of_triangle(points, a, b, c):
    pa, pb, pc = points[a], points[b], points[c]
    u = (pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2])
    v = (pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2])
    n = (u[1] * v[2] - u[2] * v[1],
         u[2] * v[0] - u[0] * v[2],
         u[0] * v[1] - u[1] * v[0])
    return n


def convex_hull_3d(points):
    """Merged-facet hull of integer 3D points.

    Returns (facets, vertex_ids): HullFacet list and the set of hull vertex
    indices.  Requires the point set to span 3 dimensions.
    """
    for p in points:
        for x in p:
            if not isinstance(x, int):
                raise TypeError("convex_hull_3d expects integer coordinates")
    n_pts = len(points)
    order = sorted(range(n_pts), key=lambda i: points[i])
    uniq = []
    seen = set()
    for i in order:
        if points[i] not in seen:
            seen.add(points[i])
            uniq.append(i)
    if len(uniq) < 4:
        raise ValueError("need at least 4 distinct points")

    seed = _initial_simplex(points, uniq)
    if seed is None:
        raise ValueError("point set is degenerate (coplanar)")
    a, b, c, d = seed
    if orient3(points[a], points[b], points[c], points[d]) > 0:
        a, b = b, a

    # triangles as (v0, v1, v2), ccw seen from outside
    tris = {}
    tri_id = 0

    def add_tri(v0, v1, v2, candidates):
        nonlocal tri_id
        outside = []
        for p in candidates:
            if p in (v0, v1, v2):
                continue
            if orient3(points[v0], points[v1], points[v2], points[p]) > 0:
                outside.append(p)
        tris[tri_id] = [(v0, v1, v2), outside]
        tri_id += 1
        return tri_id - 1

    rest = [i for i in uniq if i not in (a, b, c, d)]
    add_tri(a, b, c, rest)
    add_tri(a, c, d, rest)
    add_tri(a, d, b, rest)
    add_tri(b, d, c, rest)

    while True:
        live = None
        for tid, (tri, outside) in tris.items():
            if outside:
                live = tid
                break
        if live is None:
            break
        tri, outside = tris[live]
        # take the farthest-ish conflict point (any works; pick max by the
        # exact predicate chain to keep determinism)
        p = outside[0]
        # find all triangles visible from p; adjacency isn't tracked, so scan
        visible = {tid for tid, (t, _) in tris.items()
                   if orient3(points[t[0]], points[t[1]], points[t[2]], points[p]) > 0}
        # horizon = directed edges of visible triangles whose reverse is not visible
        edge_count = {}
        for tid in visible:
            t = tris[tid][0]
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edge_count[e] = edge_count.get(e, 0) + 1
        horizon = []
        for tid in visible:
            t = tris[tid][0]
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if (e[1], e[0]) not in edge_count:
                    horizon.append(e)
        pool = set()
        for tid in visible:
            pool.update(tris[tid][1])
        pool.discard(p)
        for tid in visible:
            del tris[tid]
        for (u, v) in horizon:
            add_tri(u, v, p, pool)

    # merge coplanar triangles into polygon facets
    groups = {}
    for tri, _ in tris.values():
        n = _plane_of_triangle(points, *tri)
        w = primitive_int_vector(n)
        off = sum(w[k] * points[tri[0]][k] for k in range(3))
        groups.setdefault((w, off), set()).update(tri)

    facets = []
    hull_vertices = set()
    for (w, off), verts in groups.items():
        cycle = _order_facet_cycle(points, list(verts), w)
        facets.append(HullFacet(w, off, cycle))
        hull_vertices.update(cycle)
    facets.sort(key=lambda f: (f.normal_out, f.offset))
    return facets, hull_vertices


def _initial_simplex(points, uniq):
    a = uniq[0]
    b = next((i for i in uniq if points[i] != points[a]), None)
    if b is None:
        return None
    c = next((i for i in uniq
              if _noncollinear(points[a], points[b], points[i])), None)
    if c is None:
        return None
    d = next((i for i in uniq
              if orient3(points[a], points[b], points[c], points[i]) != 0), None)
    if d is None:
        return None
    return a, b, c, d


def _noncollinear(a, b, c):
    u = tuple(b[k] - a[k] for k in range(3))
    v = tuple(c[k] - a[k] for k in range(3))
    cross = (u[1] * v[2] - u[2] * v[1],
             u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return any(cross)


def _order_facet_cycle(points, verts, normal):
    """Order coplanar extreme points into a convex cycle (ccw from outside)."""
    if len(verts) == 3:
        a, b, c = verts
        n = _plane_of_triangle(points, a, b, c)
        if all(x == y for x, y in zip(primitive_int_vector(n), normal)):
            return [a, b, c]
        return [a, c, b]
    # project out the largest normal coordinate
    k = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != k]
    proj = [(points[v][keep[0]], points[v][keep[1]]) for v in verts]
    order = convex_hull_2d(proj)
    cycle = [verts[i] for i in order]
    # enforce ccw as seen along the outward normal
    a, b, c = cycle[0], cycle[1], cycle[2]
    n = _plane_of_triangle(points, a, b, c)
    dot = sum(x * y for x, y in zip(n, normal))
    if dot < 0:
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
    den = 1
    for p in points:
        for x in p:
            if isinstance(x, Fraction):
                den = den * x.denominator // _gcd(den, x.denominator)
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
            u = tuple(a[k] - o[k] for k in range(3))
            v = tuple(b[k] - o[k] for k in range(3))
            w = tuple(c[k] - o[k] for k in range(3))
            det = (u[0] * (v[1] * w[2] - v[2] * w[1])
                   - u[1] * (v[0] * w[2] - v[2] * w[0])
                   + u[2] * (v[0] * w[1] - v[1] * w[0]))
            total += Fraction(det)
    return abs(total) / 6 / den**3


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
