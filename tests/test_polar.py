import dataclasses
import random
from fractions import Fraction

import pytest

from kleinsail.determinants import det_edge_star
from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, lattice_from_alpha,
    lattice_from_cubic_field, normalize_lattice, random_rational_lattice,
)
from kleinsail.numberfield import NumberField
from kleinsail.polar import (
    build_polar_patch, check_convex_hull_of_vertices, check_dimension_duality,
    check_inclusion_reversal, check_Kast_in_Kcirc, check_lemma5,
    det_polar_facet, polar_vertex_of_facet, simplicial_polar_identity,
    PolarFace, PolarPatch,
)
from kleinsail.sail import build_sail_patch


@pytest.fixture(scope="module")
def cubic_patch():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    return build_sail_patch(lat, 20)


@pytest.fixture(scope="module")
def golden_patch():
    fld = NumberField(GOLDEN_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    return build_sail_patch(lat, 60)


def test_polar_vertex_trivial_d1(golden_patch):
    for f in golden_patch.certified_facets():
        u = polar_vertex_of_facet(f)
        assert all(x.denominator == 1 for x in u)  # D = 1: u in dual lattice


def test_polar_vertex_distance_two_fixture(cubic_patch):
    # the degree-3 sail contains facets at integer distance 2: for those,
    # u is not a dual lattice point but 2u is (found by search, frozen here)
    d2 = [f for f in cubic_patch.certified_facets() if f.dist == 2]
    assert d2, "expected distance-2 facets on the disc-49 sail"
    for f in d2:
        u = polar_vertex_of_facet(f)
        assert any(x.denominator != 1 for x in u)
        assert all((2 * x).denominator == 1 for x in u)


def test_polar_patch_2d_structure(golden_patch):
    polar = build_polar_patch(golden_patch)
    # each complete vertex (2 incident edges) gives a polar edge with 2 vertices
    for face in polar.faces_of_source_dim(0):
        if face.complete:
            assert len(face.vertices) == 2
            assert face.dim == 1
    dd = check_dimension_duality(polar)
    assert dd.ok and dd.checked > 0


def test_polar_bijection_counts(cubic_patch):
    # the complete faces of each source dimension k map to polar faces of
    # dimension n - 1 - k, one for one
    polar = build_polar_patch(cubic_patch)
    for k in range(cubic_patch.n):
        faces = [f for f in polar.complete_faces() if f.source_dim == k]
        rep = check_dimension_duality(PolarPatch(polar.source, polar.vertex_by_facet, faces))
        assert rep.ok and rep.checked == len(faces) > 0


def test_inclusion_reversal_3d(cubic_patch):
    polar = build_polar_patch(cubic_patch)
    rep = check_inclusion_reversal(polar)
    assert rep.ok
    assert rep.checked > 50


def test_dimension_duality_3d(cubic_patch):
    polar = build_polar_patch(cubic_patch)
    rep = check_dimension_duality(polar)
    assert rep.ok and rep.checked > 0


def test_lemma4_membership(cubic_patch):
    # D u_F is the integer vector w: a point of the dual lattice
    facets = cubic_patch.certified_facets()
    assert facets
    for f in facets:
        assert tuple(f.dist * x for x in polar_vertex_of_facet(f)) == f.support


def test_halfspace_reconstruction(golden_patch):
    rep = check_convex_hull_of_vertices(golden_patch)
    assert rep.ok and rep.checked > 0


def test_halfspace_reconstruction_cubic(cubic_patch):
    rep = check_convex_hull_of_vertices(cubic_patch)
    assert rep.ok and rep.checked > 0


def test_hull_check_fails_on_a_raised_distance(cubic_patch):
    # a facet whose D is raised by 1 misses its own vertices: w . c = D < D + 1
    fi, f = next((i, f) for i, f in enumerate(cubic_patch.facets) if f.certified)
    facets = list(cubic_patch.facets)
    facets[fi] = dataclasses.replace(f, dist=f.dist + 1)
    rep = check_convex_hull_of_vertices(dataclasses.replace(cubic_patch, facets=facets))
    assert not rep.ok
    assert f.support in {support for _, support, _ in rep.witnesses}
    with pytest.raises(AssertionError, match="defining pairing"):
        build_polar_patch(dataclasses.replace(cubic_patch, facets=facets))


def test_kast_in_kcirc_2d_equality():
    fld = NumberField(GOLDEN_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    res = check_Kast_in_Kcirc(lat, 60)
    assert res["pairing"].ok
    eq = res["vertex_sets_equal"]
    assert eq["equal"]
    assert eq["overlap"] >= 3


def test_kast_in_kcirc_2d_no_overlap_is_not_compared():
    # alpha 5/12 at T = 5: the polar and dual vertex sets share no vertex, so
    # the equality is not compared, rather than failed
    golden = check_Kast_in_Kcirc(lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(),
                                                    root_index=1), 60)
    eq = check_Kast_in_Kcirc(lattice_from_alpha(Fraction(5, 12)), 5)["vertex_sets_equal"]
    assert eq == {"equal": None, "overlap": 0, "only_polar": [], "only_dual": []}
    assert eq.keys() == golden["vertex_sets_equal"].keys()


def test_kast_in_kcirc_reports_boundary_vertices():
    # the lattice of 5/12 meets the second axis at (0, 1), its dual the first
    # at (1, 0): the pairing and the 2D comparison leave them out, and the
    # result lists them
    lat = lattice_from_alpha(Fraction(5, 12))
    res = check_Kast_in_Kcirc(lat, 5)
    assert (0, 1) in res["boundary_points"]
    assert (1, 0) in res["dual_boundary_points"]
    for lt, key, count in ((lat, "boundary_points", "primal_vertices"),
                           (lat.dual(), "dual_boundary_points", "dual_vertices")):
        patch = build_sail_patch(lt, 5)
        assert len(res[key]) + res[count] == len(patch.certified_vertices())
        assert all(any(lt.coord_sign(c, i) == 0 for i in range(2)) for c in res[key])


def test_kast_in_kcirc_cubic(cubic_patch):
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    res = check_Kast_in_Kcirc(lat, 15)
    assert res["pairing"].ok
    assert res["pairing"].checked > 0


def test_kast_degenerate_window_rejected():
    lat = normalize_lattice([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="degenerate window"):
        check_Kast_in_Kcirc(lat, 5)


def test_det_polar_facet_values():
    face = PolarFace(source_dim=0, source_vertices=((0, 0),),
                     vertices=((Fraction(1), Fraction(2)),
                               (Fraction(3), Fraction(1))), complete=True)
    assert det_polar_facet(face) == 5
    scaled = PolarFace(source_dim=0, source_vertices=((0, 0),),
                       vertices=((Fraction(3), Fraction(6)),
                                 (Fraction(9), Fraction(3))), complete=True)
    assert det_polar_facet(scaled) == 45  # t^n homogeneity, t = 3
    incomplete = PolarFace(source_dim=0, source_vertices=((0, 0),),
                           vertices=(), complete=False)
    with pytest.raises(ValueError):
        det_polar_facet(incomplete)


def test_det_polar_facet_unimodular_star_fixture():
    # vertex whose star is the standard basis: the polar facet of v has
    # vertices w_i/D_i; with all D_i = 1 the determinant sum is 1/prod(D_i)
    face = PolarFace(source_dim=0, source_vertices=((1, 1, 1),),
                     vertices=((Fraction(1), Fraction(0), Fraction(0)),
                               (Fraction(0), Fraction(1), Fraction(0)),
                               (Fraction(0), Fraction(0), Fraction(1))),
                     complete=True)
    assert det_polar_facet(face) == 1


def test_lemma5_cubic(cubic_patch):
    rep = check_lemma5(cubic_patch)
    assert rep.ok
    assert rep.checked == len(cubic_patch.complete_star_vertices())
    assert rep.checked >= 5


def test_lemma5_random_3d():
    confirmed = 0
    for seed in (1, 2, 3):
        lat = random_rational_lattice(3, seed)
        patch = build_sail_patch(lat, 30)
        rep = check_lemma5(patch)
        assert rep.ok
        confirmed += rep.checked
    assert confirmed > 0


def test_lemma5_unimodular_star_bound(golden_patch):
    # 2D: det F_v = |det(u1, u2)| and det St_v bounds it with n-1 = 1
    polar = build_polar_patch(golden_patch)
    for face in polar.faces_of_source_dim(0):
        if face.complete:
            v = face.source_vertices[0]
            assert det_polar_facet(face) <= det_edge_star(golden_patch.stars[v])


def test_simplicial_identity_hand_case():
    lhs, rhs = simplicial_polar_identity([(1, 0), (0, 1)], (1, 1))
    assert lhs == rhs == 1


def test_simplicial_identity_random():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        while True:
            rs = [tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                        for _ in range(n)) for _ in range(n)]
            from kleinsail.linalg import det
            if det(rs) != 0:
                break
        lambdas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        lhs, rhs = simplicial_polar_identity(rs, lambdas)
        assert lhs == rhs


def test_simplicial_identity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        simplicial_polar_identity([(1, 0), (0, 1)], (1, 0))  # zero coefficient
    with pytest.raises(ValueError):
        simplicial_polar_identity([(1, 0), (2, 0)], (1, 1))  # degenerate basis


def test_hull_of_vertices(golden_patch, cubic_patch):
    for patch in (golden_patch, cubic_patch):
        rep = check_convex_hull_of_vertices(patch)
        assert rep.ok
        assert rep.checked > 0


def test_polar_json(cubic_patch):
    polar = build_polar_patch(cubic_patch)
    doc = polar.to_json()
    assert doc["schema"] == "kleinsail.polar/1"
    assert len(doc["polar_vertices"]) == len(cubic_patch.certified_facets())
