from fractions import Fraction

import pytest

from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, lattice_from_alpha,
    lattice_from_cubic_field, normalize_lattice, random_rational_lattice,
)
from kleinsail.contfrac import cf_value
from kleinsail.numberfield import NumberField, cmp_at
from kleinsail.normmin import (
    audit_consistency, check_t0_boxes, enumerate_sym_box,
    norm_minimum_estimate, orthant_representatives, theorem1_audit, vertex_phi_inf,
)
from kleinsail.sail import PointBudgetError, build_sail_patch
from shared_lattices import golden_module, widened


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
    lat = golden_module()
    assert lat.scale_d is None
    with pytest.raises(NotImplementedError, match="non-square module discriminant"):
        run(lat, 10)


@pytest.mark.parametrize("make, t", [
    (lambda: random_rational_lattice(3, 0), 8),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 6),
    (lambda: random_rational_lattice(3, 1, denom_limit=7), 10),
    (lambda: random_rational_lattice(2, 1), 20),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 20),
], ids=["rational3-0-8", "cubic49-6", "rational3-d7-1-10", "rational2-1-20", "alpha-13/34-20"])
def test_estimate_matches_sym_box_random_rational(make, t):
    # the least |phi| over the patches' hull vertices is the least over the
    # whole box Q(t)
    lat = make()
    val, witness = norm_minimum_estimate(lat, t)
    best = min(abs(lat.phi(c)) for c in enumerate_sym_box(lat, t))
    assert val == best == abs(lat.phi(witness))
    assert lat.in_sym_box(witness, t)


@pytest.mark.parametrize("k", [1, 2])
def test_estimate_matches_window_pareto_sets(k):
    # the reference is the least |phi| over every representative's window
    # Pareto set, which dominates the window.  The certified vertices alone
    # do not give it here, since some lie past the window
    from kleinsail.sail import _window_minima
    lat, t = random_rational_lattice(3, k), 30
    reps = orthant_representatives(3)
    want = min(abs(lat.phi(c)) for s in reps for c in _window_minima(lat.reflect(s), t)[1])
    val, witness = norm_minimum_estimate(lat, t)
    assert val == want == abs(lat.phi(witness))
    certified = [c for s in reps for c in build_sail_patch(lat.reflect(s), t).certified_vertices()]
    assert min(abs(lat.phi(c)) for c in certified) != val


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 20),
    (lambda: random_rational_lattice(3, 0), 30),
    (lambda: random_rational_lattice(3, 1, denom_limit=7), 60),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 40),
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 10**4),
    (golden_module, 60),
], ids=["cubic49-20", "rational3-0-30", "rational3-d7-1-60", "alpha-13/34-40",
        "golden-alpha-10000", "golden-module-60"])
def test_closure_points_lie_beyond_the_window(make, t):
    # the premise of `norm_minimum_estimate`'s proof, which mu's definition
    # does not give: every closure point of the patch is componentwise >= t
    # in normalized coordinates, in every orthant representative
    from kleinsail.sail import _closure_rays, _window_minima
    base = make()
    n = base.n
    for signs in orthant_representatives(n):
        lat = base.reflect(signs)
        patch = build_sail_patch(lat, t)
        kept = _window_minima(lat, t)[1]
        mu = 10**6 * (1 + max(abs(x) for c in kept for x in c)) ** (n + 1)
        far = {tuple(mu * x for x in r) for r in _closure_rays(lat)}
        assert far <= {c for f in patch.facets if f.artificial for c in f.cycle}
        for c in far:
            assert all(lat.coord_sign(c, i) > 0 and not lat.coord_abs_lt(c, i, t)
                       for i in range(n)), (signs, c)


@pytest.mark.parametrize("run", [norm_minimum_estimate, theorem1_audit])
@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), Fraction(1, 2)),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 1),
], ids=["cubic49", "alpha-13/34"])
def test_empty_window_is_refused(make, t, run):
    with pytest.raises(ValueError, match="^window contains no lattice points$"):
        run(make(), t)


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


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 12),
    (lambda: random_rational_lattice(3, 0), 10),
], ids=["cubic49-12", "rational3-0-10"])
def test_audit_is_invariant_under_an_orthant_reflection(make, t):
    # a reflection permutes the orthants up to central symmetry, and keeps
    # |phi| and the box Q(t)
    def summary(audit):
        per_orthant = sorted((o["max_det_facet"], o["max_det_star"], o["certified_facets"],
                              o["complete_stars"]) for o in audit.orthants)
        return per_orthant, audit.max_det_facet_all, audit.norm_min_estimate

    lat = make()
    want = summary(theorem1_audit(lat, t))
    for signs in orthant_representatives(lat.n):
        assert summary(theorem1_audit(lat.reflect(signs), t)) == want


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


@pytest.mark.parametrize("make, t", [
    (lambda: random_rational_lattice(3, 0), 6),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 20),
], ids=["rational3-0", "alpha-13/34"])
def test_t0_box_sides_straddled_by_leaves_are_decided_exactly(make, t, monkeypatch):
    # once the patch is built, its lattice's basis enclosures are widened, so
    # the box scan's leaves straddle the sides of the boxes and the exact
    # comparison `below` decides them; the violations (rational3-0) and the
    # boundary points (alpha-13/34) must still be the brute-force oracle's
    from kleinsail import normmin
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return cmp_at(*args)

    patch = build_sail_patch(make(), t)
    widened(patch.lattice, 1 << 60)
    monkeypatch.setattr(normmin, "cmp_at", counted)
    got = check_t0_boxes(patch)
    assert calls[0] > 0
    monkeypatch.undo()
    assert got == _t0_box_oracle(patch)
    assert got["violations"] or got["boundary_points"]


def test_audit_and_t0_box_budget_errors_name_their_site(cubic_lat):
    with pytest.raises(PointBudgetError) as exc:
        theorem1_audit(cubic_lat, 10, budget=50)
    assert (exc.value.stage, exc.value.provenance, exc.value.window) == (
        "window", "cubic-field", 10)
    patch = build_sail_patch(cubic_lat, 10)
    with pytest.raises(PointBudgetError) as exc:
        check_t0_boxes(patch, budget=0)
    assert (exc.value.stage, exc.value.provenance, exc.value.window) == (
        "t0_box", "cubic-field", 10)
    assert "budget=0" in str(exc.value) and "'t0_box'" in str(exc.value)


@pytest.mark.parametrize("make, t", [
    (lambda: random_rational_lattice(3, 0), 8),
    (lambda: random_rational_lattice(3, 2), 8),
    (lambda: random_rational_lattice(3, 1).reflect((1, 1, -1)), 8),
    (lambda: random_rational_lattice(3, 2, denom_limit=7), 10),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 20),
], ids=["rational3-0", "rational3-2", "rational3-1--+", "rational3-d7-2", "alpha-13/34"])
def test_box_basis_scan_matches_the_lattice_basis_scan(make, t, monkeypatch):
    # the box scan runs in a box-reduced basis; on small boxes the scan in
    # the lattice's own basis is the oracle (a cubic49 box holds no point)
    from kleinsail import normmin
    patch = build_sail_patch(make(), t)
    facets = patch.certified_facets()
    got = [normmin._rotated_box_violations(patch.lattice, f) for f in facets]
    monkeypatch.setattr(normmin, "_box_basis", lambda lat, sides: None)
    assert got == [normmin._rotated_box_violations(patch.lattice, f) for f in facets]
    assert any(v or b for v, b in got)


def test_thin_t0_box_scans_in_its_reduced_basis():
    # this facet's box is thin along one axis: the scan in the lattice basis
    # took 97 s, and found these 662 violations and no boundary point
    import time
    from kleinsail.normmin import _rotated_box_violations
    lat = random_rational_lattice(3, 0).reflect((1, 1, -1))
    facet = next(f for f in build_sail_patch(lat, 20).certified_facets()
                 if f.support == (-199, -77, -121))
    assert facet.dist == 1
    t0 = time.perf_counter()
    violations, boundary = _rotated_box_violations(lat, facet)
    assert time.perf_counter() - t0 < 2
    assert boundary == []
    assert (len(violations), violations[0], violations[-1]) == (
        662, (-3565, 9040, -9134), (-37, 94, -95))
