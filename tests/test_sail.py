from fractions import Fraction

import pytest

from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, Lattice, lattice_from_alpha,
    lattice_from_cubic_field, normalize_lattice, random_rational_lattice,
)
from kleinsail.linalg import mat_mul
from kleinsail.numberfield import NumberField
from kleinsail.sail import (
    PointBudgetError, build_sail_patch, certify_facet, detect_periodicity,
    edge_star, enumerate_orthant_points, facet_support,
)


@pytest.fixture(scope="module")
def golden_patch():
    fld = NumberField(GOLDEN_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    return build_sail_patch(lat, 60)


@pytest.fixture(scope="module")
def cubic_patch():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    return build_sail_patch(lat, 20)


def test_enumerate_identity_window():
    lat = normalize_lattice([(1, 0), (0, 1)])
    pts = enumerate_orthant_points(lat, Fraction(5, 2))
    assert sorted(p.coeffs for p in pts) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_matches_bruteforce():
    lat = lattice_from_alpha(Fraction(2, 5))
    pts = {p.coeffs for p in enumerate_orthant_points(lat, 3)}
    brute = set()
    for a in range(-20, 21):
        for b in range(-20, 21):
            x1 = Fraction(a)
            x2 = Fraction(3, 5) * a + b
            if 0 < x1 < 3 and 0 < x2 < 3:
                brute.add((a, b))
    assert pts == brute


def test_enumerate_empty_window():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert enumerate_orthant_points(lat, 1) == []


def test_enumerate_budget():
    lat = normalize_lattice([(1, 0), (0, 1)])
    with pytest.raises(PointBudgetError) as exc:
        enumerate_orthant_points(lat, 100, budget=17)
    assert "17" in str(exc.value)


def test_golden_patch_all_edge_dets_one(golden_patch):
    from kleinsail.determinants import det_facet

    certified = golden_patch.certified_facets()
    assert len(certified) >= 5
    for f in certified:
        assert det_facet(f) == 1
        assert f.dist == 1  # 2D sail edges always have integer distance 1


def test_golden_patch_is_path(golden_patch):
    # certified edges form a path: the vertex-edge incidence has exactly two
    # endpoints of degree 1 and the rest degree 2
    deg = {}
    for f in golden_patch.certified_facets():
        for v in f.vertices:
            deg[v] = deg.get(v, 0) + 1
    assert sorted(deg.values())[:2] == [1, 1]
    assert all(d == 2 for d in sorted(deg.values())[2:])


def test_lattice_point_on_bisector_2d():
    # a unimodular 2D lattice containing (1,1) always has (1,1) interior to a
    # sail edge, never a vertex (the triangle 0, v2, 2*(1,1)-v2 is empty by
    # Pick's theorem, so the line through the three points supports the hull)
    lat = normalize_lattice([(1, Fraction(-1, 3)), (1, Fraction(2, 3))])
    patch = build_sail_patch(lat, 10)
    assert (1, 0) not in patch.certified_vertices()  # ambient (1,1)
    on_plane = [f for f in patch.certified_facets()
                if sum(w * c for w, c in zip(f.support, (1, 0))) == f.dist]
    assert on_plane  # it lies on a certified facet's plane
    assert lat.phi((1, 0)) == 1


def test_bisector_vertex_cubic(cubic_patch):
    # the unit point of the degree-3 field lattice has raw ambient coordinates
    # exactly (1,1,1): the certified vertex nearest (here: on) the bisector,
    # with raw coordinate product exactly 1
    lat = cubic_patch.lattice
    assert (1, 0, 0) in cubic_patch.certified_vertices()
    assert lat.phi_raw((1, 0, 0)) == 1
    one = lat.module_element((1, 0, 0))
    assert one == lat.field.one()
    equal_coord = [c for c in cubic_patch.certified_vertices()
                   if all(lat.coord_cmp_points(c, c, 0) == 0 for _ in (0,))
                   and _all_coords_equal(lat, c)]
    assert equal_coord == [(1, 0, 0)]


def _all_coords_equal(lat, c):
    xi = lat.module_element(c)
    return xi.is_rational()


def test_cubic_patch_certification_and_distances(cubic_patch):
    lat = cubic_patch.lattice
    certified = cubic_patch.certified_facets()
    assert certified
    assert all(f.dist >= 1 for f in certified)
    # certification soundness re-checked by an independent window scan
    window = {p for p in _window_points_closed(lat, cubic_patch.t)}
    for f in certified[:10]:
        w, d = f.support, f.dist
        for c in window:
            assert sum(a * b for a, b in zip(w, c)) >= d


def _window_points_closed(lat, t):
    from kleinsail.sail import _enumerate_core, _window_leaf_filter
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * lat.n
    return _enumerate_core(lat, boxes, _window_leaf_filter(lat, t, True), 10**6)


def test_facet_support_unit_simplex():
    assert facet_support([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == ((1, 1, 1), 1)


def test_facet_support_distance_two_fixture():
    w, d = facet_support([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    assert (w, d) == ((2, 2, -1), 2)
    # oracle: minimum |det| over triples of lattice points in the plane
    pts = [(a, b, 2 * a + 2 * b - 2)
           for a in range(-3, 4) for b in range(-3, 4)]
    from kleinsail.linalg import det
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                v = abs(det([pts[i], pts[j], pts[k]]))
                if v:
                    best = v if best is None else min(best, v)
    assert best == d


def test_facet_support_2d_and_origin_error():
    assert facet_support([(1, 0), (0, 1)], 2) == ((1, 1), 1)
    with pytest.raises(ValueError):
        facet_support([(1, 0), (2, 0)], 2)  # hyperplane through the origin


def test_edge_star_2d(golden_patch):
    interior = golden_patch.complete_star_vertices()
    assert interior
    star = edge_star(golden_patch, interior[0])
    assert star.complete
    assert len(star.vectors) == 2
    # boundary vertex star is incomplete
    incomplete = [c for c, s in golden_patch.stars.items() if not s.complete]
    assert incomplete
    assert not golden_patch.stars[incomplete[0]].complete


def test_edge_star_uncertified_vertex_rejected(golden_patch):
    with pytest.raises(ValueError):
        edge_star(golden_patch, (999, -999))


def test_cubic_star_primitive_vectors(cubic_patch):
    from math import gcd
    centers = cubic_patch.complete_star_vertices()
    assert centers
    for c in centers:
        star = cubic_patch.stars[c]
        assert len(star.vectors) >= 3
        for v in star.vectors:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


def test_certify_rejects_nonpositive_normal():
    lat = normalize_lattice([(1, 0), (0, 1)])
    ok, reason, _, _ = certify_facet(lat, (1, -1), 1)
    assert not ok and "positive" in reason


def test_certify_finds_below_witness():
    lat = normalize_lattice([(1, 0), (0, 1)])
    # plane x1 + x2 = 3 has (1,1) etc. strictly below
    ok, reason, on_plane, below = certify_facet(lat, (1, 1), 3)
    assert not ok
    assert (1, 1) in below
    assert (1, 2) in on_plane


def test_certified_facet_extension_past_window():
    # 7/16 = [0;2,3,2]: at T=12 the terminal edge is visible only partially;
    # certification completes it to its true vertex at (16, 0)
    lat = lattice_from_alpha(Fraction(7, 16))
    patch = build_sail_patch(lat, 12)
    ext = [f for f in patch.certified_facets() if f.extended]
    assert ext
    assert (16, -9) in ext[0].vertices  # ambient (16, 0)


def test_monotone_stability_golden(golden_patch):
    fld = NumberField(GOLDEN_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    small = build_sail_patch(lat, 30)
    big_keys = {(f.vertices, f.support, f.dist) for f in golden_patch.certified_facets()}
    for f in small.certified_facets():
        assert (f.vertices, f.support, f.dist) in big_keys


def test_detect_periodicity_identity(cubic_patch):
    res = detect_periodicity(cubic_patch, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res["verdict"]
    assert res["checked"] == len(cubic_patch.certified_facets())


def test_detect_periodicity_unit_square(cubic_patch):
    fld = cubic_patch.lattice.field
    th = fld.gen()
    u = [[int(x) for x in row] for row in (th * th).mul_matrix()]
    res = detect_periodicity(cubic_patch, u)
    assert res["verdict"]
    assert res["checked"] > 0 and not res["mismatches"]


def test_detect_periodicity_rejects_non_unimodular(cubic_patch):
    with pytest.raises(ValueError, match="unimodular"):
        detect_periodicity(cubic_patch, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_detect_periodicity_rejects_orthant_breaker(cubic_patch):
    # theta itself is a unit but not totally positive
    fld = cubic_patch.lattice.field
    u = [[int(x) for x in row] for row in fld.gen().mul_matrix()]
    with pytest.raises(ValueError, match="totally positive"):
        detect_periodicity(cubic_patch, u)


def test_patch_json_roundtrip_deterministic(golden_patch):
    a = golden_patch.to_json_str()
    b = golden_patch.to_json_str()
    assert a == b
    import json
    doc = json.loads(a)
    assert doc["schema"] == "kleinsail.patch/1"
    assert doc["facets"]


def test_pareto_prune_preserves_hull():
    from kleinsail.sail import _pareto_minimal_fast
    lat = lattice_from_alpha(Fraction(5, 12))
    pts = [p.coeffs for p in enumerate_orthant_points(lat, 8)]
    kept = _pareto_minimal_fast(lat, pts)
    # hull of pruned set (with closure corners) = hull of full set
    from kleinsail.hull import convex_hull_2d
    big = Fraction(10**8)

    def hull_of(cs):
        amb = [(lat.coord(c, 0), lat.coord(c, 1)) for c in cs]
        amb += [(big, 0), (0, big)]
        return {amb[i] for i in convex_hull_2d(amb)}

    assert hull_of(pts) == hull_of(kept)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
def test_alpha_column_scan_matches_generic_enumeration(signs):
    # reflecting the second axis gives the alpha shape rows (1, 0), (s, -1)
    from kleinsail.sail import (
        _enumerate_core, _enumerate_window_alpha, _pareto_minimal, _window_leaf_filter,
    )
    lat = lattice_from_alpha(Fraction(13, 34)).reflect(signs)
    t = 30
    scan = _enumerate_window_alpha(lat, t, True, 10**6)
    assert all(lat.in_positive_window(c, t) for c in scan)
    boxes = [(Fraction(0), lat.raw_window_enclosure(t))] * 2
    full = _enumerate_core(lat, boxes, _window_leaf_filter(lat, t, True), 10**6)
    assert sorted(_pareto_minimal(lat, scan)) == sorted(_pareto_minimal(lat, full))


def test_zero_window_rejected():
    lat = normalize_lattice([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        build_sail_patch(lat, 0)


def _rebased(lat, u):
    """The same lattice in the basis B U."""
    if lat.kind == "rational":
        return Lattice.rational(mat_mul(lat.basis, u))
    if lat.kind == "field":
        return Lattice.single_field(lat.field, mat_mul(lat.basis, u), lat.root_index)
    gens = [sum((lat.gens[j] * u[j][k] for j in range(lat.n)), lat.field.zero())
            for k in range(lat.n)]
    return Lattice.module(lat.field, gens)


def _seeded_unimodular(n, seed):
    import random
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u = [[u[r][c] + (q * u[r][i] if c == j else 0) for c in range(n)] for r in range(n)]
    return u


@pytest.mark.parametrize("name, make, t", [
    ("golden", lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 40),
    ("sqrt2m1", lambda: lattice_from_alpha(NumberField(SQRT2M1_MINPOLY).gen(), root_index=1), 40),
    ("alpha-13/34", lambda: lattice_from_alpha(Fraction(13, 34)), 40),
    ("rational3-0", lambda: random_rational_lattice(3, 0), 6),
    ("rational3-1", lambda: random_rational_lattice(3, 1), 6),
    ("cubic49", lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 5),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_line_minima_match_full_window(name, make, t, seed):
    # the line scan keeps one point per line; the full scan keeps every
    # window point: their Pareto sets must agree in every basis and orthant
    from itertools import product
    from kleinsail.sail import _enumerate_window, _pareto_minimal
    base = make()
    lat0 = _rebased(base, _seeded_unimodular(base.n, seed))
    for signs in product((1, -1), repeat=lat0.n):
        lat = lat0.reflect(signs)
        for closed in (True, False):
            minima = _enumerate_window(lat, t, closed, 10**6)
            assert minima and len(set(minima)) == len(minima)
            assert all(lat.in_positive_window(c, t, include_boundary=closed) for c in minima)
            full = _window_points_closed(lat, t) if closed else [
                p.coeffs for p in enumerate_orthant_points(lat, t)]
            assert len(minima) < len(full)
            assert sorted(_pareto_minimal(lat, minima)) == sorted(_pareto_minimal(lat, full))


def test_golden_non_alpha_basis_certifies_t1000():
    from kleinsail.sail import DEFAULT_POINT_BUDGET
    alpha = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    u = ((1, 1), (0, 1))  # rows (1, 1), (1 - a, 2 - a)
    skew = _rebased(alpha, u)
    p_alpha = build_sail_patch(alpha, 1000)
    p_skew = build_sail_patch(skew, 1000, budget=DEFAULT_POINT_BUDGET)

    def point(c):
        return tuple(sum(u[i][j] * c[j] for j in range(2)) for i in range(2))

    def functional(w):  # w' = U^T w, so w = U^-T w'
        return (w[0], w[1] - w[0])

    mapped = {(tuple(sorted(point(c) for c in f.vertices)), functional(f.support), f.dist)
              for f in p_skew.certified_facets()}
    want = {(f.vertices, f.support, f.dist) for f in p_alpha.certified_facets()}
    assert len(want) >= 8 and mapped == want
