import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from kleinsail.hull import convex_hull_2d, convex_hull_3d, orient2, orient3, polytope_volume
from kleinsail.lattice import CUBIC49_MINPOLY, lattice_from_cubic_field, random_rational_lattice


def test_orientation_predicates():
    assert orient2((0, 0), (1, 0), (0, 1)) == 1
    assert orient2((0, 0), (1, 0), (2, 0)) == 0
    assert orient2((0, 0), (0, 1), (1, 0)) == -1
    assert orient3((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert orient3((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)) == 0


def test_hull_2d_square_with_interior_and_edge_points():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0), (0, 1)]
    hull = convex_hull_2d(pts)
    assert sorted(pts[i] for i in hull) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # ccw ordering
    m = len(hull)
    for i in range(m):
        a, b, c = (pts[hull[i]], pts[hull[(i + 1) % m]], pts[hull[(i + 2) % m]])
        assert orient2(a, b, c) == 1


def test_hull_2d_collinear():
    pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
    hull = convex_hull_2d(pts)
    assert sorted(pts[i] for i in hull) == [(0, 0), (3, 3)]


def test_hull_3d_cube():
    pts = list(product((0, 1), repeat=3)) + [(0, 0, 0)]  # duplicate too
    facets, verts = convex_hull_3d(pts)
    assert len(facets) == 6  # coplanar triangles merged into squares
    assert len(verts) == 8
    for f in facets:
        assert len(f.cycle) == 4
        # every point on the inner side
        for p in pts:
            assert sum(w * x for w, x in zip(f.normal_out, p)) <= f.offset


def test_hull_3d_excludes_face_interior_points():
    pts = list(product((0, 2), repeat=3)) + [(1, 1, 0), (1, 1, 1), (2, 1, 1)]
    facets, verts = convex_hull_3d(pts)
    vert_pts = {pts[i] for i in verts}
    assert (1, 1, 0) not in vert_pts       # face interior
    assert (1, 1, 1) not in vert_pts       # body interior
    assert (2, 1, 1) not in vert_pts       # face interior
    assert len(vert_pts) == 8


def test_hull_3d_simplex_and_volume():
    pts = [(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 1, 1)]
    facets, verts = convex_hull_3d(pts)
    assert len(facets) == 4
    assert polytope_volume(pts) == 36


def test_volume_rational_points():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
           (Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(1, 3))]
    assert polytope_volume(pts) == Fraction(1, 6)


def test_volume_cube_with_noise_points():
    rng = random.Random(0)
    pts = list(product((0, 3), repeat=3))
    for _ in range(30):
        pts.append((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)))
    assert polytope_volume(pts) == 27


def test_hull_3d_random_certification():
    rng = random.Random(1)
    pts = [(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
           for _ in range(60)]
    facets, verts = convex_hull_3d(pts)
    # support: no point strictly outside any facet
    for f in facets:
        for p in pts:
            assert sum(w * x for w, x in zip(f.normal_out, p)) <= f.offset
    # every edge is shared by exactly two facets
    edge_use = {}
    for fi, f in enumerate(facets):
        m = len(f.cycle)
        for i in range(m):
            e = tuple(sorted((f.cycle[i], f.cycle[(i + 1) % m])))
            edge_use.setdefault(e, []).append(fi)
    for e, fs in edge_use.items():
        assert len(fs) == 2
    # Euler's formula for the merged facet complex
    assert len(verts) - len(edge_use) + len(facets) == 2


def test_degenerate_3d_rejected():
    with pytest.raises(ValueError):
        convex_hull_3d([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def _dot(w, p):
    return w[0] * p[0] + w[1] * p[1] + w[2] * p[2]


def _cross(a, b, c):
    u = [b[k] - a[k] for k in range(3)]
    v = [c[k] - a[k] for k in range(3)]
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _hull_oracle(points):
    """The hull's facets by brute force, as {(outward primitive normal,
    offset, frozenset of vertex ids)}, ids the least index of equal points;
    None if the points do not span 3 dimensions.

    A facet plane passes through three points and has every point on one
    side.  A point of the plane is a vertex unless it lies on a segment or in
    a triangle of the plane's other points (Caratheodory)."""
    from math import gcd
    first = {}
    for i, p in enumerate(points):
        first.setdefault(p, i)
    ids = sorted(first.values())
    out = {}
    for a, b, c in combinations(ids, 3):
        n = _cross(points[a], points[b], points[c])
        if not any(n):
            continue
        g = gcd(gcd(n[0], n[1]), n[2])
        w = tuple(x // g for x in n)
        side = {(_dot(w, points[i]) > _dot(w, points[a])) - (_dot(w, points[i]) < _dot(w, points[a]))
                for i in ids}
        if side == {0}:
            return None
        if side == {-1, 0, 1}:
            continue
        if 1 in side:
            w = tuple(-x for x in w)
        off = _dot(w, points[a])
        if (w, off) in out:
            continue
        on = [i for i in ids if _dot(w, points[i]) == off]

        def orient(r, s, q):  # sign of the turn r -> s -> q seen along w
            d = _dot(w, _cross(points[r], points[s], points[q]))
            return (d > 0) - (d < 0)

        def covered(q):
            rest = [r for r in on if r != q]
            for r, s in combinations(rest, 2):
                if orient(r, s, q) == 0 and all(
                        min(points[r][k], points[s][k]) <= points[q][k] <= max(points[r][k], points[s][k])
                        for k in range(3)):
                    return True
            for r, s, t in combinations(rest, 3):
                o = orient(r, s, t)
                if o and orient(r, s, q) * o >= 0 and orient(s, t, q) * o >= 0 \
                        and orient(t, r, q) * o >= 0:
                    return True
            return False

        out[w, off] = frozenset(q for q in on if not covered(q))
    return {(w, off, verts) for (w, off), verts in out.items()} if out else None


def _check_against_oracle(points):
    want = _hull_oracle(points)
    if want is None:
        with pytest.raises(ValueError):
            convex_hull_3d(points)
        return
    facets, verts = convex_hull_3d(points)
    assert {(f.normal_out, f.offset, frozenset(f.cycle)) for f in facets} == want
    assert facets == sorted(facets, key=lambda f: (f.normal_out, f.offset))
    assert verts == set().union(*(f.cycle for f in facets))
    for f in facets:
        cyc = f.cycle
        assert cyc[0] == min(cyc) and len(set(cyc)) == len(cyc)
        m = len(cyc)
        for i in range(m):  # strictly convex, ccw seen from outside
            n = _cross(points[cyc[i]], points[cyc[(i + 1) % m]], points[cyc[(i + 2) % m]])
            assert _dot(f.normal_out, n) > 0


@pytest.mark.parametrize("seed", range(40))
def test_hull_3d_matches_bruteforce_on_degenerate_sets(seed):
    # a small grid, so most sets hold coplanar, collinear and equal points;
    # some seeds add runs along a line, a plane patch or copies on purpose
    rng = random.Random(seed)
    pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(3, 24))]
    kind = seed % 4
    if kind == 1:  # a run of collinear points
        p, d = pts[0], (rng.randint(-1, 1), rng.randint(-1, 1), 1)
        pts += [tuple(p[k] + j * d[k] for k in range(3)) for j in range(1, 5)]
    elif kind == 2:  # a patch of one plane, and sometimes nothing else
        z = rng.randint(-3, 3)
        plane = [(x, y, z) for x in range(-2, 3) for y in range(-2, 3) if rng.random() < 0.6]
        pts = plane if seed % 8 == 2 else pts + plane
    elif kind == 3:  # copies of some points
        pts += [rng.choice(pts) for _ in range(6)]
    rng.shuffle(pts)
    _check_against_oracle(pts)


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 16),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY).reflect((1, -1, 1)), 16),
    (lambda: random_rational_lattice(3, 0), 8),
    (lambda: random_rational_lattice(3, 2), 16),
], ids=["cubic49+++", "cubic49+-+", "rational3-0", "rational3-2"])
def test_hull_3d_matches_bruteforce_on_sail_inputs(make, t):
    # the patch's hull input: the window's Pareto points, and three far
    # points of 10^18 to 10^19 along the closure rays
    from kleinsail.sail import _closure_rays, _window_minima
    lat = make()
    kept = _window_minima(lat, t)[1]
    mu = 10**6 * (1 + max(abs(x) for c in kept for x in c)) ** 4
    far = [tuple(mu * x for x in r) for r in _closure_rays(lat)]
    assert max(abs(x) for c in far for x in c) > 10**18
    _check_against_oracle(kept + far)
