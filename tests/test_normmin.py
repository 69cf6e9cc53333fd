from fractions import Fraction

import pytest

from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, Lattice, lattice_from_alpha,
    lattice_from_cubic_field, normalize_lattice, random_rational_lattice,
)
from kleinsail.contfrac import cf_value
from kleinsail.numberfield import NumberField
from kleinsail.normmin import (
    T0Bound, audit_consistency, check_t0_boxes, enumerate_sym_box,
    norm_minimum_estimate, t0_bound, theorem1_audit, vertex_phi_inf,
)
from kleinsail.sail import build_sail_patch


@pytest.fixture(scope="module")
def cubic_lat():
    return lattice_from_cubic_field(CUBIC49_MINPOLY)


def test_estimate_identity_is_zero():
    lat = normalize_lattice([(1, 0), (0, 1)])
    val, witness = norm_minimum_estimate(lat, 5)
    assert val == 0  # axis points: the lattice fails the irrationality check
    from kleinsail.lattice import irrationality_check
    assert not irrationality_check(lat, 5).ok


def test_estimate_cubic_is_one_seventh(cubic_lat):
    val, witness = norm_minimum_estimate(cubic_lat, 10)
    assert val == Fraction(1, 7)
    # the witness is a unit of the ring (norm +-1)
    xi = cubic_lat.module_element(witness)
    assert abs(xi.norm()) == 1


def test_estimate_matches_bruteforce_quadratic():
    fld = NumberField(SQRT2M1_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    val, witness = norm_minimum_estimate(lat, 30)
    # brute force over a coefficient box
    best = None
    ri = lat.root_index
    for a in range(-80, 81):
        for b in range(-80, 81):
            if a == 0 and b == 0:
                continue
            if not lat.in_sym_box((a, b), 30):
                continue
            v = lat.phi((a, b))
            v = v if v.sign_at(ri) >= 0 else -v
            if best is None or (v - best).sign_at(ri) < 0:
                best = v
    assert (val if val.sign_at(ri) >= 0 else -val) == best


@pytest.mark.parametrize("run", [norm_minimum_estimate, theorem1_audit])
def test_module_2d_non_square_discriminant_is_refused(run):
    # Z[theta] for the golden field has d^2 = 5: phi is irrational
    fld = NumberField(GOLDEN_MINPOLY)
    lat = Lattice.module(fld, [fld.one(), fld.gen()])
    assert lat.scale_d is None
    with pytest.raises(NotImplementedError, match="non-square module discriminant"):
        run(lat, 10)


def test_estimate_matches_sym_box_random_rational():
    lat = random_rational_lattice(3, 0)
    val, witness = norm_minimum_estimate(lat, 8)
    best = min(abs(lat.phi(c)) for c in enumerate_sym_box(lat, 8))
    assert val == best == abs(lat.phi(witness))
    assert lat.in_sym_box(witness, 8)


def test_estimate_checks_the_patches_it_reuses():
    lat = lattice_from_alpha(Fraction(13, 34))
    reps = [(1, 1), (1, -1)]
    patches = {s: build_sail_patch(lat.reflect(s), 20) for s in reps}
    assert norm_minimum_estimate(lat, 20, patches=patches) == norm_minimum_estimate(lat, 20)
    with pytest.raises(ValueError):
        norm_minimum_estimate(lat, 30, patches=patches)
    with pytest.raises(ValueError):
        norm_minimum_estimate(lat, 20, patches={(1, 1): patches[(1, 1)]})
    with pytest.raises(ValueError):
        norm_minimum_estimate(lat, 20, patches={(1, 1): patches[(1, -1)],
                                                (1, -1): patches[(1, 1)]})


def test_estimate_monotone_in_window(cubic_lat):
    v1, _ = norm_minimum_estimate(cubic_lat, 5)
    v2, _ = norm_minimum_estimate(cubic_lat, 12)
    assert v2 <= v1


def test_sym_box_enumeration_counts():
    lat = normalize_lattice([(1, 0), (0, 1)])
    pts = enumerate_sym_box(lat, Fraction(5, 2))
    assert len(pts) == 24  # 5x5 integer box minus origin


def test_vertex_phi_inf_cubic(cubic_lat):
    patch = build_sail_patch(cubic_lat, 20)
    assert vertex_phi_inf(patch) == Fraction(1, 7)
    est, _ = norm_minimum_estimate(cubic_lat, 20)
    assert vertex_phi_inf(patch) >= est


def test_vertex_phi_inf_single_vertex(cubic_lat):
    patch = build_sail_patch(cubic_lat, 20)
    import copy
    small = copy.copy(patch)
    keep = patch.certified_facets()[0]
    small.facets = [keep]
    assert vertex_phi_inf(small) == min(cubic_lat.phi(c) for c in keep.vertices)


def test_t0_compare_examples():
    assert T0Bound(det_f=1, n=2).compare(1) == 1      # 1 > T0 = 2^-1/2
    assert T0Bound(det_f=8, n=2).compare(2) == 0      # 2 = T0 exactly
    assert T0Bound(det_f=8, n=2).compare(Fraction(199, 100)) == -1


def test_t0_compare_consistent_with_float():
    import random
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice((2, 3))
        det_f = rng.randint(1, 50)
        b = T0Bound(det_f=det_f, n=n)
        t = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        cmp_exact = b.compare(t)
        diff = float(t) - float(b)
        if abs(diff) > 1e-12:
            assert cmp_exact == (1 if diff > 0 else -1)


def test_t0_box_property_cubic(cubic_lat):
    patch = build_sail_patch(cubic_lat, 15)
    rep = check_t0_boxes(patch)
    assert rep["ok"]
    assert rep["facets_checked"] > 0


def test_t0_box_property_liouville():
    alpha = cf_value([0, 1, 2, 4, 8, 16, 32, 64, 128])
    lat = lattice_from_alpha(alpha)
    patch = build_sail_patch(lat, 1000)
    rep = check_t0_boxes(patch)
    assert rep["ok"]


def test_t0_box_reports_boundary_points():
    lat = lattice_from_alpha(Fraction(13, 34))
    rep = check_t0_boxes(build_sail_patch(lat, 40))
    assert rep["ok"]
    assert rep["boundary_points"]
    assert all(any(lat.coord_sign(c, i) == 0 for i in range(2))
               for c in rep["boundary_points"])


def test_audit_cubic_stable(cubic_lat):
    small = theorem1_audit(cubic_lat, 10)
    big = theorem1_audit(cubic_lat, 20)
    cons = audit_consistency(small, big)
    assert cons["norm_estimate_non_increasing"]
    assert cons["max_det_all_non_decreasing"]
    assert small.norm_min_estimate == big.norm_min_estimate == Fraction(1, 7)
    assert len(small.orthants) == 4


def test_audit_sqrt2m1_maxima():
    fld = NumberField(SQRT2M1_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    audit = theorem1_audit(lat, 150)
    assert audit.pos_max_det_facet == 2
    assert audit.pos_max_det_star == 2
    assert len(audit.orthants) == 2


def test_audit_sqrt2m1_consistency():
    fld = NumberField(SQRT2M1_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    cons = audit_consistency(theorem1_audit(lat, 30), theorem1_audit(lat, 60))
    assert cons["norm_estimate_non_increasing"]
    assert cons["max_det_all_non_decreasing"]


def test_audit_reflected_alpha_orthant_certifies():
    audit = theorem1_audit(lattice_from_alpha(Fraction(13, 34)), 40)
    assert [o["signs"] for o in audit.orthants] == [(1, 1), (1, -1)]
    assert all(o["certified_facets"] > 0 for o in audit.orthants)


def test_audit_liouville_growth():
    alpha = cf_value([0, 1, 2, 4, 8, 16, 32, 64, 128])
    lat = lattice_from_alpha(alpha)
    a1 = theorem1_audit(lat, 10)
    a2 = theorem1_audit(lat, 1000)
    assert a2.pos_max_det_facet > a1.pos_max_det_facet


def test_audit_json(cubic_lat):
    audit = theorem1_audit(cubic_lat, 10)
    doc = audit.to_json()
    assert doc["schema"] == "kleinsail.audit/1"
    assert doc["norm_minimum_estimate"] == "1/7"
    assert len(doc["orthants"]) == 4


def _t0_box_oracle(patch):
    """`check_t0_boxes` by brute force: per certified facet, an exact scan
    of Q(t') with t' above every side of its box, filtered by the box's
    exact inequality and split at zero coordinates."""
    from functools import cache
    from kleinsail.determinants import det_facet
    from kleinsail.numberfield import sign_at
    lat = patch.lattice
    n, e = lat.n, lat.embeddings
    signs = cache(lambda c: [lat.coord_sign(c, i) for i in range(n)])
    violations, boundary = [], set()
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        w = f.support
        lhs = lat.support_normal_product(w) ** 2 * Fraction(n) ** n
        rhs = [Fraction(det_facet(f)) ** 2 * lat.scale_d_sq ** 2
               * lat.dual().coord(w, i) ** (2 * n) for i in range(n)]
        # |x_i| < t' d^(1/n) holds on the box once (t' d^(1/n))^(2n) * lhs > rhs_i
        t = 1
        while any(sign_at(t ** (2 * n) * lat.scale_d_sq * lhs - rhs[i], e[i]) <= 0
                  for i in range(n)):
            t += 1
        inside = [c for c in enumerate_sym_box(lat, t) if min(signs(c)) >= 0
                  and all(sign_at(lat.coord(c, i) ** (2 * n) * lhs - rhs[i], e[i]) < 0
                          for i in range(n))]
        axis = {c for c in inside if min(signs(c)) == 0}
        boundary |= axis
        bad = sorted(set(inside) - axis)
        if bad:
            violations.append((fi, bad[:8]))
    return {"facets_checked": len(patch.certified_facets()), "violations": violations,
            "boundary_points": sorted(boundary), "ok": not violations}


@pytest.mark.parametrize("name, make, t, signs", [
    ("cubic49", lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 6, s)
    for s in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
] + [
    ("rational3-0", lambda: random_rational_lattice(3, 0), 6, (1, 1, 1)),
    ("alpha-13/34", lambda: lattice_from_alpha(Fraction(13, 34)), 20, (1, 1)),
])
def test_t0_boxes_match_brute_force(name, make, t, signs):
    patch = build_sail_patch(make().reflect(signs), t)
    assert check_t0_boxes(patch) == _t0_box_oracle(patch)
