import random
from fractions import Fraction

import pytest

from kleinsail.contfrac import cf_value, continued_fraction, convergents
from kleinsail.determinants import (
    cf_correspondence, det_SF, det_edge_star, det_facet, det_report,
    integer_angle, integer_length, mixed_volume_segments,
)
from kleinsail.hull import polytope_volume
from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, Lattice,
    lattice_from_alpha, lattice_from_cubic_field, random_rational_lattice,
)
from kleinsail.normmin import norm_minimum_estimate
from kleinsail.numberfield import NumberField
from kleinsail.sail import EdgeStar, build_sail_patch
from shared_lattices import golden_module


def test_det_facet_trivial():
    assert det_facet([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert det_facet([(1, 0), (-1, 1)]) == 1


def test_det_facet_needs_n_vertices():
    with pytest.raises(ValueError):
        det_facet([(1, 0)])


def test_det_edge_star_values():
    assert det_edge_star([(1, 0), (0, 1)]) == 1
    assert det_edge_star([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 4


def test_det_edge_star_incomplete_rejected():
    star = EdgeStar(center=(0, 0), vectors=((1, 0), (0, 1)), complete=False)
    with pytest.raises(ValueError, match="truncated"):
        det_edge_star(star)


def test_sqrt2m1_edges_all_two():
    fld = NumberField(SQRT2M1_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    patch = build_sail_patch(lat, 100)
    dets = [det_facet(f) for f in patch.certified_facets()]
    assert dets and all(v == 2 for v in dets)


def test_mixed_volume_examples():
    assert mixed_volume_segments([(1, 0), (0, 1), (1, 1)]) == 3
    assert mixed_volume_segments([(1, 0), (0, 1)]) == 1


def test_mixed_volume_matches_zonotope_volume():
    rng = random.Random(2024)
    for trial in range(12):
        n = rng.choice((2, 3))
        m = rng.randint(n, 5)
        vecs = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(n)) for _ in range(m)]
        # zonotope = Minkowski sum of segments: hull of all subset sums
        sums = [tuple(Fraction(0) for _ in range(n))]
        for v in vecs:
            sums = sums + [tuple(a + b for a, b in zip(s, v)) for s in sums]
        vol = polytope_volume(sums)
        assert mixed_volume_segments(vecs) == vol


def test_det_SF_unit_corner():
    lat = Lattice.rational([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    from kleinsail.sail import Facet
    f = Facet(vertices=((0, 0, 1), (0, 1, 0), (1, 0, 0)),
              cycle=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
              support=(1, 1, 1), dist=1, certified=True, artificial=False)
    assert det_SF(f, lat) == 1


def test_det_SF_2d_is_product_of_intercepts():
    lat = lattice_from_alpha(Fraction(5, 12))
    patch = build_sail_patch(lat, 30)
    for f in patch.certified_facets():
        # oracle: line through the two ambient vertices; intercepts from scratch
        (a1, a2) = [(lat.coord(c, 0), lat.coord(c, 1))
                    for c in f.vertices]
        dx, dy = a2[0] - a1[0], a2[1] - a1[1]
        # line: (x - a1) x (d) = 0 -> crossing x-axis at y=0, y-axis at x=0
        t_x = a1[0] - a1[1] * dx / dy
        t_y = a1[1] - a1[0] * dy / dx
        assert det_SF(f, lat) == t_x * t_y
        assert det_SF(f, lat) >= det_facet(f)


def test_det_SF_ge_det_facet_cubic():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    patch = build_sail_patch(lat, 15)
    assert patch.certified_facets()
    for f in patch.certified_facets():
        assert det_SF(f, lat) >= det_facet(f)


def test_integer_length_and_angle():
    assert integer_length((0, 0), (2, 0)) == 2
    assert integer_length((0, 0), (3, 6)) == 3
    assert integer_length((1, 1), (2, 3)) == 1
    with pytest.raises(ValueError):
        integer_length((1, 1), (1, 1))
    assert integer_angle((1, 0), (0, 1)) == 1
    assert integer_angle((1, 0), (1, 2)) == 2
    with pytest.raises(ValueError):
        integer_angle((1, 0), (-1, 0))


def test_interior_vertex_angle_equals_star_det():
    lat = lattice_from_alpha(Fraction(5, 12))
    patch = build_sail_patch(lat, 30)
    for c in patch.complete_star_vertices():
        star = patch.stars[c]
        assert len(star.vectors) == 2
        assert det_edge_star(star) == integer_angle(*star.vectors)


def _golden_scaled():
    """The golden lattice with row 0 doubled: a field lattice of det 2."""
    golden = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    rows = [tuple(2 * x for x in golden.basis[0]), golden.basis[1]]
    return Lattice.single_field(golden.field, rows, golden.root_index)


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_alpha(Fraction(5, 12)), 20),
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 40),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 4),
    (lambda: random_rational_lattice(3, 0), 6),
    (lambda: _golden_scaled(), 40),
    (lambda: lattice_from_alpha(NumberField(SQRT2M1_MINPOLY).gen(), root_index=1), 40),
    (lambda: random_rational_lattice(2, 1), 40),
    (golden_module, 40),
], ids=["alpha-5/12", "golden", "cubic49", "rational3-0", "golden-scaled", "sqrt2m1",
        "rational2-1", "golden-module"])
def test_det_invariance_under_unimodular_basis_change(make, t):
    # the same lattice in the basis B U, in every orthant: certified facets,
    # their determinants and integer distances, and the complete edge stars
    # with their determinants must agree once coefficients are mapped by U
    from itertools import product
    from test_sail import _rebased, _seeded_unimodular
    base = make()
    n = base.n
    u = _seeded_unimodular(n, 0)
    rebased = _rebased(base, u)

    def remap(c):  # B' c' = B (U c')
        return tuple(sum(u[i][j] * c[j] for j in range(n)) for i in range(n))

    reps1, reps2 = {}, {}  # the orthant representatives' patches
    for signs in product((1, -1), repeat=n):
        p1 = build_sail_patch(base.reflect(signs), t)
        p2 = build_sail_patch(rebased.reflect(signs), t)
        if signs[0] == 1:
            reps1[signs], reps2[signs] = p1, p2
        f1 = {f.vertices: (det_facet(f), f.dist) for f in p1.certified_facets()}
        f2 = {tuple(sorted(remap(c) for c in f.vertices)): (det_facet(f), f.dist)
              for f in p2.certified_facets()}
        assert f1 and f1 == f2
        s1 = {c: det_edge_star(p1.stars[c]) for c in p1.complete_star_vertices()}
        s2 = {remap(c): det_edge_star(p2.stars[c]) for c in p2.complete_star_vertices()}
        assert s1 == s2
    # and the norm estimate's value (phi is irrational on the golden module)
    if base.scale_d is not None:
        assert (norm_minimum_estimate(base, t, patches=reps1)[0]
                == norm_minimum_estimate(rebased, t, patches=reps2)[0])


def test_scaled_field_lattice_matches_unscaled():
    # row 0 doubled and the determinant 2 normalized away is the diagonal
    # rescale (sqrt2, 1/sqrt2) of the golden lattice: the same sail in
    # coefficient space, seen through a different window
    golden = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    scaled = _golden_scaled()
    assert scaled.scale_d == 2
    p1 = build_sail_patch(golden, 40)
    p2 = build_sail_patch(scaled, 40)
    d1 = {f.vertices: (det_facet(f), f.dist) for f in p1.certified_facets()}
    d2 = {f.vertices: (det_facet(f), f.dist) for f in p2.certified_facets()}
    common = set(d1) & set(d2)
    assert len(common) >= 3
    assert all(d1[k] == d2[k] for k in common)


def test_det_invariance_under_diagonal_rescale():
    lat = lattice_from_alpha(Fraction(5, 12))
    resc = lat.diagonal_rescale((Fraction(3, 2), Fraction(2, 3)))
    p1 = build_sail_patch(lat, 24)
    p2 = build_sail_patch(resc, 24)
    d1 = {f.vertices: det_facet(f) for f in p1.certified_facets()}
    d2 = {f.vertices: det_facet(f) for f in p2.certified_facets()}
    common = set(d1) & set(d2)
    assert len(common) >= 2
    for k in common:
        assert d1[k] == d2[k]


def test_cf_utilities():
    assert continued_fraction(Fraction(7, 16)) == [0, 2, 3, 2]
    assert cf_value([0, 2, 3, 2]) == Fraction(7, 16)
    assert convergents([0, 2, 3, 2]) == [(0, 1), (1, 2), (3, 7), (7, 16)]
    fld = NumberField(GOLDEN_MINPOLY)
    assert continued_fraction(fld.gen(), max_terms=10, root_index=1) == [0] + [1] * 9


def test_cf_correspondence_golden():
    fld = NumberField(GOLDEN_MINPOLY)
    rep = cf_correspondence(fld.gen(), 60, root_index=1)
    assert rep.all_match
    assert all(r[1] == 1 for r in rep.edge_rows + rep.star_rows)
    assert rep.aligned >= 5


def test_cf_correspondence_sqrt2m1():
    fld = NumberField(SQRT2M1_MINPOLY)
    rep = cf_correspondence(fld.gen(), 200, root_index=1)
    assert rep.all_match
    assert rep.aligned >= 5
    assert all(r[1] == 2 for r in rep.edge_rows + rep.star_rows)


@pytest.mark.parametrize("minpoly, aligned", [(GOLDEN_MINPOLY, 50), (SQRT2M1_MINPOLY, 30)],
                         ids=["golden", "sqrt2m1"])
def test_cf_correspondence_at_window_1e12(minpoly, aligned):
    # the patch's 2D minima come from the sail walk, a minus continued
    # fraction; the regular continued fraction of alpha cross-checks it
    fld = NumberField(minpoly)
    rep = cf_correspondence(fld.gen(), 10**12, root_index=1)
    assert rep.all_match
    assert rep.aligned >= aligned


def test_cf_correspondence_finite_rational():
    rep = cf_correspondence(Fraction(7, 16), 20)
    assert rep.all_match
    assert rep.aligned == 3
    assert rep.quotients == [0, 2, 3, 2]


def test_cf_correspondence_window_too_small():
    with pytest.raises(ValueError, match="window too small"):
        cf_correspondence(Fraction(7, 16), 2)


@pytest.mark.parametrize("call", [
    lambda x: lattice_from_alpha(x),
    lambda x: continued_fraction(x),
    lambda x: cf_correspondence(x, 60),
], ids=["lattice_from_alpha", "continued_fraction", "cf_correspondence"])
def test_field_alpha_needs_its_embedding(call):
    # a field element has no default embedding: the caller names it
    with pytest.raises(ValueError, match="root_index"):
        call(NumberField(GOLDEN_MINPOLY).gen())


def test_det_report_csv_json():
    lat = lattice_from_alpha(Fraction(5, 12))
    patch = build_sail_patch(lat, 30)
    rep = det_report(patch)
    assert rep.max_det_facet >= 1
    csv_text = rep.facets_csv()
    assert csv_text.splitlines()[0] == "facet,dist,det_facet"
    assert len(csv_text.splitlines()) == len(rep.facet_dets) + 1
    doc = rep.to_json()
    assert doc["maxDetF"] == rep.max_det_facet
