import math
from fractions import Fraction

import pytest

from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, Lattice, irrationality_check,
    lattice_from_alpha, lattice_from_cubic_field, normalize_lattice, random_rational_lattice,
)
from kleinsail.linalg import mat_mul
from kleinsail.numberfield import NumberField
from kleinsail.sail import (
    PointBudgetError, build_sail_patch, certify_facet, detect_periodicity,
    edge_star, enumerate_orthant_points,
)
from shared_lattices import golden_module, widened
from test_same_outputs import CASES as SAME_OUTPUT_CASES


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
    assert pts == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_matches_bruteforce():
    lat = lattice_from_alpha(Fraction(2, 5))
    pts = set(enumerate_orthant_points(lat, 3))
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


@pytest.mark.parametrize("make, t, budget, stage, provenance", [
    (lambda: random_rational_lattice(3, 0), 10, 20, "window", "rational-random"),
    # the seed window [0, 2)^2 scans 7 leaves; the walk to T = 10^4 takes 10 steps more
    (lambda: _alpha_lattice(GOLDEN_MINPOLY), 10**4, 10, "window", "from-alpha"),
    # the window scan passes, and the first certification walk is starved
    (lambda: random_rational_lattice(3, 0), 10, 10**6, "certify", "rational-random"),
], ids=["rational3-0", "golden-walk", "rational3-0-certify"])
def test_patch_budget_error_names_stage_lattice_and_window(make, t, budget, stage, provenance,
                                                           monkeypatch):
    from kleinsail import sail
    lat = make()
    if stage == "certify":
        def starved(lat, w, d, budget, t=None):
            raise PointBudgetError(budget)

        monkeypatch.setattr(sail, "_level_points", starved)
    with pytest.raises(PointBudgetError) as exc:
        build_sail_patch(lat, t, budget=budget)
    err = exc.value
    assert (err.budget, err.stage, err.provenance, err.window) == (
        budget, stage, provenance, t)
    for part in (f"budget={budget}", f"'{stage}'", f"'{provenance}'", f"window {t}"):
        assert part in str(err)


def test_certify_budget_error_names_the_callers_budget(monkeypatch):
    # facet w = (23, 9, 14), d = 1 of random_rational_lattice(3, 0) at T = 10
    # walks two pieces, of 2 and 3 leaves, under one shared budget; a walk
    # that overruns it names the caller's budget, not what a piece was left
    from kleinsail import sail
    lat = random_rational_lattice(3, 0)
    minima = sail._window_minima(lat, 10)[1]
    assert certify_facet(lat, (23, 9, 14), 1, 5, _window=(10, minima))[0]
    for budget in (2, 3, 4):
        with pytest.raises(PointBudgetError) as exc:
            certify_facet(lat, (23, 9, 14), 1, budget, _window=(10, minima))
        assert exc.value.budget == budget
        assert f"budget={budget}" in str(exc.value)
    # and through build_sail_patch, whose window scan runs here unbudgeted
    # so that the real certification walks are the ones starved
    window_minima = sail._window_minima
    monkeypatch.setattr(sail, "_window_minima", lambda lat, t, budget: window_minima(lat, t))
    for budget in (2, 4):
        with pytest.raises(PointBudgetError) as exc:
            build_sail_patch(lat, 10, budget=budget)
        assert (exc.value.budget, exc.value.stage) == (budget, "certify")


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
    window = {p for p in _window_points(lat, cubic_patch.t)}
    for f in certified[:10]:
        w, d = f.support, f.dist
        for c in window:
            assert sum(a * b for a, b in zip(w, c)) >= d


def _in_closed_window(lat, c, t):
    """c lies in the window [0, t)^n, decided by the exact reference tests."""
    return lat.in_sym_box(c, t) and all(lat.coord_sign(c, i) >= 0 for i in range(lat.n))


def _window_points(lat, t, closed=True):
    """Every window point, mapped to its enclosures (the window (0, t)^n
    without `closed`)."""
    from kleinsail.sail import _box_filter, _enumerate_core, _window_bounds
    boxes = [(0, lat.raw_window_interval(t)[1])] * lat.n
    filt = _box_filter(lat, _window_bounds(lat, t), 0 if closed else 1)
    return _enumerate_core(lat, boxes, filt, 10**6)


def _assert_line_scan_matches_plain_scan(lat, t):
    """The line scan against the plain scan of the same boxes, in the same
    line basis, which visits every line in full, with no cut and no early
    stop.  On each line the line scan visits the plain scan's leaves up to
    the first one the filter accepts or one whose enclosures reach the top
    of a box, and keeps that first accepted leaf: the same leaves in the
    same order, and the same items -- keys, enclosures and order."""
    from kleinsail.sail import _box_filter, _enumerate_core, _line_basis, _window_bounds
    t = Fraction(t)
    basis = _line_basis(lat, 10**6)
    top = lat.raw_window_interval(t)[1]
    boxes = [(0, top)] * lat.n
    filt = _box_filter(lat, _window_bounds(lat, t), 0)
    plain, got_leaves = [], []

    def plain_filt(c, partial):
        plain.append((c, partial, filt(c, partial)))
        return plain[-1][2]

    def line_filt(c, partial):
        got_leaves.append(c)
        return filt(c, partial)

    _enumerate_core(lat, boxes, plain_filt, 10**6, basis)
    got = list(_enumerate_core(lat, boxes, line_filt, 10**6, basis, first_per_line=True).items())
    want, want_leaves, ended = [], [], set()
    for c, partial, accepted in plain:
        line = tuple(_dot(row, c) for row in basis[1][:-1])  # c'_0 .. c'_{n-2}
        if line in ended:
            continue
        want_leaves.append(c)
        if accepted:
            want.append((c, partial))
        if accepted or any(lo >= top for lo, _ in partial):
            ended.add(line)
    assert got_leaves == want_leaves
    assert got == want


def _pareto_oracle(lat, pts):
    """The points of `pts` that no other of them dominates componentwise.

    Brute force over all m^2 pairs, as bitsets: bit q of below[p] stays set
    while q's coordinates are exactly <= p's in every coordinate seen so
    far, so p is minimal iff below[p] ends with its own bit alone."""
    from functools import cmp_to_key
    from kleinsail.lattice import _iv_dot
    pts = list(pts)
    m = len(pts)
    below = [(1 << m) - 1] * m
    for i in range(lat.n):
        def cmp(a, b):
            return lat.coord_cmp_points(pts[a], pts[b], i)

        # sort by enclosure midpoints, then check each neighbouring pair exactly
        row = lat.basis_interval_matrix()[i]
        order = sorted(range(m), key=lambda a: sum(_iv_dot(row, pts[a])))
        steps = [cmp(a, b) for a, b in zip(order, order[1:])]
        if any(s > 0 for s in steps):
            order.sort(key=cmp_to_key(cmp))
            steps = [cmp(a, b) for a, b in zip(order, order[1:])]
        seen, start = 0, 0  # seen: the points at or below order[k] in coordinate i
        for k, p in enumerate(order):
            seen |= 1 << p
            if k == m - 1 or steps[k] < 0:  # the last of equal values
                for q in order[start:k + 1]:
                    below[q] &= seen
                start = k + 1
    return [p for k, p in enumerate(pts) if below[k] == 1 << k]


def _dot(w, c):
    return sum(x * y for x, y in zip(w, c))


@pytest.mark.parametrize("rows, support", [
    ([(1, 0), (0, 1)], (1, 1)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 1)),
], ids=["Z2", "Z3"])
def test_unit_simplex_support(rows, support):
    # the sail of Z^n has one bounded facet, the unit simplex x . c = 1
    patch = build_sail_patch(Lattice.rational(rows), 2)
    (f,) = patch.certified_facets()
    assert (f.support, f.dist) == (support, 1)
    assert f.vertices == tuple(sorted(tuple(rows)))


def test_hull_plane_distance_two_fixture():
    # the points lie on the far side of the plane from the origin, as a
    # sail's do: the hull's outward normal points to the origin, and the
    # patch's support (w, d) is its negation
    from kleinsail.hull import convex_hull_3d
    from kleinsail.linalg import det
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 2), (3, 3, 0)]
    (f,) = [f for f in convex_hull_3d(pts)[0] if sorted(f.cycle) == [0, 1, 2]]
    assert (f.normal_out, f.offset) == ((-2, -2, 1), -2)
    w, d = tuple(-x for x in f.normal_out), -f.offset
    # oracle: minimum |det| over triples of lattice points in the plane
    plane = [(a, b, 2 * a + 2 * b - 2) for a in range(-3, 4) for b in range(-3, 4)]
    assert all(_dot(w, p) == d for p in plane)
    best = None
    for i in range(len(plane)):
        for j in range(i + 1, len(plane)):
            for k in range(j + 1, len(plane)):
                v = abs(det([plane[i], plane[j], plane[k]]))
                if v:
                    best = v if best is None else min(best, v)
    assert best == d == 2


def test_hull_facet_through_the_origin_is_not_certified():
    lat = Lattice.rational([(Fraction(1, 3), 1, 0), (2, Fraction(1, 5), 0), (0, 0, 1)])
    facets = [f for f in build_sail_patch(lat, 12).facets
              if f.reason == "facet hyperplane passes through the origin"]
    assert facets
    assert all(not f.artificial and not f.certified and (f.support, f.dist) == ((), 0)
               for f in facets)


@pytest.mark.parametrize("make, t", [(m, t) for _, m, t in SAME_OUTPUT_CASES],
                         ids=[name for name, _, _ in SAME_OUTPUT_CASES])
def test_patch_supports_come_from_the_hull(make, t):
    # every window facet off the origin has a primitive support taking the
    # value dist on its cycle, and the Pareto minima lie on one side of its
    # plane: the far side from the origin, w . c >= dist, when it is certified
    from kleinsail.sail import _window_minima
    lat = make()
    patch = build_sail_patch(lat, t)
    minima = _window_minima(lat, t)[1]
    facets = [f for f in patch.facets if not f.artificial and f.dist > 0]
    assert any(f.certified for f in facets)
    for f in facets:
        assert math.gcd(*f.support) == 1
        assert {_dot(f.support, v) for v in f.cycle} == {f.dist}
        levels = [_dot(f.support, c) for c in minima]
        assert min(levels) == f.dist or (not f.certified and max(levels) == f.dist)


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


def test_level_points_refuses_a_normal_not_strictly_positive(cubic_patch):
    # the walk's bounds need every coordinate of the normal strictly
    # positive; a refused window facet's normal makes it raise, not loop
    from kleinsail.sail import _level_points
    refused = [f for f in cubic_patch.facets
               if f.reason == "support normal not strictly positive"]
    assert refused
    for f in refused:
        with pytest.raises(ValueError, match="not strictly positive"):
            _level_points(cubic_patch.lattice, f.support, f.dist, 10**6)


def test_certify_finds_below_witness():
    lat = normalize_lattice([(1, 0), (0, 1)])
    # plane x1 + x2 = 3 has (1,1) etc. strictly below
    ok, reason, on_plane, below = certify_facet(lat, (1, 1), 3)
    assert not ok
    assert (1, 1) in below
    assert (1, 2) in on_plane


def test_certify_budget_bounds_the_whole_walk():
    lat = normalize_lattice([(1, 0), (0, 1)])
    # the region 1 <= x1 + x2 <= 3 of the closed quadrant holds 9 points
    ok, _, on_plane, below = certify_facet(lat, (1, 1), 3, budget=100)
    assert len(on_plane) + len(below) == 9
    # a walk past its budget decides nothing, so it raises
    with pytest.raises(PointBudgetError):
        certify_facet(lat, (1, 1), 3, budget=8)


def test_certify_signs_straddling_leaves_exactly():
    # (1, 0) lies at ambient (1, -2^-70), inside every fixed-point enclosure
    # of the orthant: only the exact sign test keeps it out of the region
    lat = Lattice.rational([(1, 0), (-Fraction(1, 2**70), 1)])
    ok, _, on_plane, below = certify_facet(lat, (1, 1), 1)
    assert ok and on_plane == [(0, 1)] and below == []


def test_certify_wide_normal_enclosure_falls_back_to_exact():
    # a normal enclosure too wide to bound the region is tightened exactly
    lat = random_rational_lattice(3, 0)
    wide = random_rational_lattice(3, 0)
    one = 1 << 64  # the enclosures' scale
    for m in (wide, wide.dual()):
        m._basis_iv = [[(lo - 2 * one, hi + one) for lo, hi in row]
                       for row in m.basis_interval_matrix()]
    for f in build_sail_patch(lat, 6).facets:
        if f.support:
            want = certify_facet(lat, f.support, f.dist)
            got = certify_facet(wide, f.support, f.dist)
            assert got[:2] == want[:2]
            assert [sorted(x) for x in got[2:]] == [sorted(x) for x in want[2:]]


def _bruteforce_region(lat, w, d):
    """(below, on_plane) of the region {x >= 0, 1 <= w.c <= d} by a plain scan.

    The region is the simplex with vertices 0 and (d / nu_i) e_i, nu = B^-T w;
    its coefficient image spans 0 and the columns d / nu_i B^-1 e_i, which
    float bounds with a margin enclose.  The scan walks that box in every
    coefficient but one, solves 1 <= w.c <= d for the last in integers, and
    keeps the points whose coordinates are exactly >= 0.
    """
    import math
    from itertools import product
    from kleinsail.numberfield import mpf_at

    def float_at(x, e):
        return float(mpf_at(x, e, 60))

    n = lat.n
    inv = lat.inverse_rows()
    nu = [float_at(lat.dual().coord(w, i), lat.embeddings[i]) for i in range(n)]
    ranges = []
    for j in range(n):
        ends = [0.0] + [d / nu[i] * float_at(inv[j][i], lat.embeddings[i]) for i in range(n)]
        ranges.append((math.floor(min(ends) * (1 + 1e-6)) - 1,
                       math.ceil(max(ends) * (1 + 1e-6)) + 1))
    k = max((j for j in range(n) if w[j]), key=lambda j: ranges[j][1] - ranges[j][0])
    rest = [j for j in range(n) if j != k]
    below, on_plane = set(), set()
    for part in product(*(range(ranges[j][0], ranges[j][1] + 1) for j in rest)):
        c = [0] * n
        for j, v in zip(rest, part):
            c[j] = v
        s = sum(w[j] * c[j] for j in rest)
        a, b = (1 - s, d - s) if w[k] > 0 else (s - d, s - 1)
        for ck in range(max(-(-a // abs(w[k])), ranges[k][0]),
                        min(b // abs(w[k]), ranges[k][1]) + 1):
            c[k] = ck
            level = sum(x * y for x, y in zip(w, c))
            if all(lat.coord_sign(c, i) >= 0 for i in range(n)):
                (on_plane if level == d else below).add(tuple(c))
    return below, on_plane


@pytest.mark.parametrize("name, make, t", [
    ("cubic49", lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 6),
    ("golden-skew", lambda: _rebased(lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(),
                                                        root_index=1), ((1, -1), (-2, 1))), 60),
    ("rational3-0", lambda: random_rational_lattice(3, 0), 10),
    ("alpha-7/16", lambda: lattice_from_alpha(Fraction(7, 16)), 12),
    ("rational3-69", lambda: random_rational_lattice(3, 69), 10),
])
def test_certify_matches_bruteforce(name, make, t):
    # every non-artificial facet in every orthant: the walk's below and
    # on-plane sets are those of a plain scan of a box around the region
    from itertools import product
    base = make()
    deep = below_found = 0
    for signs in product((1, -1), repeat=base.n):
        lat = base.reflect(signs)
        for f in build_sail_patch(lat, t).facets:
            if f.artificial or not f.support:
                continue
            ok, reason, on_plane, below = certify_facet(lat, f.support, f.dist)
            if any(s <= 0 for s in lat.support_normal_signs(f.support)):
                assert not ok and "positive" in reason
                continue
            assert len(set(below)) == len(below) and len(set(on_plane)) == len(on_plane)
            assert (set(below), set(on_plane)) == _bruteforce_region(lat, f.support, f.dist)
            assert ok == (not below) == f.certified
            deep += f.dist >= 2
            below_found += bool(below)
    if name in ("cubic49", "rational3-0", "rational3-69"):
        assert deep
    if name == "rational3-69":
        assert below_found


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


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.9], ids=["fraction", "float"])
def test_detect_periodicity_refuses_a_matrix_that_is_not_integral(entry):
    # int() would truncate either entry to an integer and pass the identity
    patch = build_sail_patch(lattice_from_cubic_field(CUBIC49_MINPOLY), 10)
    with pytest.raises(ValueError, match="exact integers"):
        detect_periodicity(patch, [[entry, 0, 0], [0, 1, 0], [0, 0, 1]])
    u = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert detect_periodicity(patch, u)["checked"] == 21


def test_detect_periodicity_over_one_embedding(golden_patch):
    # every row under one embedding: the ambient map B U B^-1 itself must be
    # entrywise >= 0
    lat, t = golden_patch.lattice, golden_patch.t
    res = detect_periodicity(golden_patch, [[1, 0], [0, 1]])
    in_window = [f for f in golden_patch.certified_facets()
                 if all(_in_closed_window(lat, c, t) for c in f.vertices)]
    assert res["verdict"] and not res["mismatches"]
    assert res["checked"] == res["matched"] == len(in_window) > 0
    # B = ((1, 0), (1 - alpha, 1)): entry (1, 0) of B U B^-1 is -(1 - alpha)^2
    with pytest.raises(ValueError, match="positive orthant"):
        detect_periodicity(golden_patch, [[1, 1], [0, 1]])


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


def test_patch_json_witness_sample_is_bounded():
    # the JSON holds the first 64 witnesses and their exact count; at T = 10^4
    # as the full list gives them, and at T = 10^12 without that list
    import time
    lat = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    doc = build_sail_patch(lat, 10**4).to_json()["irrationality"]
    want = irrationality_check(lat, 10**4).witnesses
    assert doc["witnesses"] == [list(c) for c in want[:64]]
    assert doc["witness_count"] == len(want) == 2 * (10**4 - 1)
    patch = build_sail_patch(lat, 10**12)
    t0 = time.perf_counter()
    doc = patch.to_json()["irrationality"]
    assert time.perf_counter() - t0 < 1
    assert patch.irrationality._witnesses is None
    assert doc["witnesses"] == [[0, k - 10**12 + 1] for k in range(64)]
    assert doc["witness_count"] == 2 * (10**12 - 1)


def test_pareto_prune_preserves_hull():
    from kleinsail.sail import _pareto_minimal
    lat = lattice_from_alpha(Fraction(5, 12))
    pts = _window_points(lat, 8, closed=False)
    kept = _pareto_minimal(lat, pts)
    # hull of pruned set (with closure corners) = hull of full set
    from kleinsail.hull import convex_hull_2d
    big = Fraction(10**8)

    def hull_of(cs):
        amb = [(lat.coord(c, 0), lat.coord(c, 1)) for c in cs]
        amb += [(big, 0), (0, big)]
        return {amb[i] for i in convex_hull_2d(amb)}

    assert hull_of(pts) == hull_of(kept)


@pytest.mark.parametrize("name, make, t", [
    ("golden", lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 30),
    ("rational3-0", lambda: random_rational_lattice(3, 0), 5),
    ("cubic49", lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 4),
])
def test_box_filter_exact_path_matches_enclosures(name, make, t):
    # bounds widened to (0, 2^200) decide no leaf on the enclosures, so every
    # leaf takes the exact test; the kept points must not change
    from kleinsail.sail import _box_filter, _enumerate_core, _window_bounds
    lat = make()
    tight = _window_bounds(lat, t)
    wide = [(0, 2**200, below) for _, _, below in tight]
    hi = lat.raw_window_interval(t)[1]
    for min_sign in (-1, 0, 1):
        boxes = [(-hi if min_sign < 0 else 0, hi)] * lat.n
        got = [list(_enumerate_core(lat, boxes, _box_filter(lat, bounds, min_sign), 10**6))
               for bounds in (tight, wide)]
        assert got[0] and got[0] == got[1]
        assert all(lat.in_sym_box(c, t) and all(lat.coord_sign(c, i) >= min_sign
                                                for i in range(lat.n)) for c in got[0])


def test_box_filter_refutes_an_enclosure_on_the_bound():
    # golden alpha at T = 10^4: coordinate 1 of (0, +-T) is +-T, its
    # enclosure and the window side both exactly 2^64 T, so the enclosure
    # alone refutes |x_1| < T and the exact test never runs
    from kleinsail.lattice import _iv_dot
    from kleinsail.sail import _box_filter, _window_bounds
    lat = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    t = 10**4
    calls = []
    bounds = [(lo, hi, lambda c, i, below=below: calls.append((c, i)) or below(c, i))
              for lo, hi, below in _window_bounds(lat, t)]
    assert lat.raw_window_interval(t) == (t << 64, t << 64)
    for c in ((0, t), (0, -t)):
        partial = [_iv_dot(row, c) for row in lat.basis_interval_matrix()]
        assert partial[1] == (c[1] << 64, c[1] << 64)
        assert not lat.in_sym_box(c, t)
        for min_sign in (-1, 0):
            assert not _box_filter(lat, bounds, min_sign)(c, partial)
    assert calls == []


def _real_coeff_range(lat, boxes, u_inv, k):
    """Rational enclosures (lo, hi) of the least and of the greatest value of
    coefficient k of U^-1 B^-1 x over the box, from inverse entries enclosed
    to 2^-200."""
    from kleinsail.lattice import _iv_dot
    from kleinsail.numberfield import interval_at
    n = lat.n
    inv = [[interval_at(x, e, Fraction(1, 2**200)) for x, e in zip(row, lat.embeddings)]
           for row in lat.inverse_rows()]
    u_row = u_inv[k] if u_inv else [int(j == k) for j in range(n)]
    least, greatest = [0, 0], [0, 0]
    for i, (b_lo, b_hi) in enumerate(boxes):
        p, q = _iv_dot([inv[j][i] for j in range(n)], u_row)
        ends = [(min(p * x, q * x), max(p * x, q * x)) for x in (b_lo, b_hi)]
        least = [least[0] + min(e[0] for e in ends), least[1] + min(e[1] for e in ends)]
        greatest = [greatest[0] + max(e[0] for e in ends),
                    greatest[1] + max(e[1] for e in ends)]
    return least, greatest


@pytest.mark.parametrize("make, boxes", [
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1),
     [(Fraction(-7, 3), Fraction(11, 2)), (Fraction(1, 3), Fraction(37, 5))]),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY),
     [(Fraction(-7, 3), Fraction(5, 2)), (Fraction(1, 3), Fraction(17, 5)),
      (Fraction(-3), Fraction(-1, 7))]),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY).reflect((1, -1, -1)),
     [(Fraction(0), Fraction(4)), (Fraction(-9, 7), Fraction(2)), (Fraction(1, 5), Fraction(3))]),
    (lambda: random_rational_lattice(3, 0),
     [(Fraction(-2), Fraction(3, 2)), (Fraction(0), Fraction(10, 3)),
      (Fraction(-1, 3), Fraction(2))]),
    (lambda: random_rational_lattice(3, 1), None),
], ids=["golden", "cubic49", "cubic49-reflected", "rational-0", "rational-corner"])
@pytest.mark.parametrize("rebase", [False, True], ids=["basis", "u-basis"])
def test_coeff_outer_ranges_enclose_the_box(make, boxes, rebase):
    # the ranges must hold every lattice point of the box (a brute-force scan
    # over a wider grid finds them) and the box's real coefficient range
    from itertools import product
    from kleinsail.linalg import unimodular_completion
    from kleinsail.numberfield import cmp_at
    from kleinsail.lattice import _scale_out
    from kleinsail.sail import _coeff_outer_ranges
    lat = make()
    n = lat.n
    if boxes is None:  # a box with a lattice point at its lower corner
        corner = [lat.coord((1, -2, 3), i) for i in range(n)]
        boxes = [(x, x + Fraction(5, 2)) for x in corner]
    u, u_inv = unimodular_completion((2, 1, -1)[:n]) if rebase else (None, None)
    ranges = _coeff_outer_ranges(lat, [_scale_out(lo, hi) for lo, hi in boxes], u_inv)
    grid = []
    for k in range(n):
        least, greatest = _real_coeff_range(lat, boxes, u_inv, k)
        assert ranges[k][0] <= least[1] and greatest[0] <= ranges[k][1]
        grid.append(range(math.floor(least[0]) - 1, math.ceil(greatest[1]) + 2))
    found = 0
    for cp in product(*grid):
        c = cp if u is None else tuple(sum(u[j][m] * cp[m] for m in range(n)) for j in range(n))
        if all(cmp_at(lat.coord(c, i), lo, e) >= 0 and cmp_at(lat.coord(c, i), hi, e) <= 0
               for i, ((lo, hi), e) in enumerate(zip(boxes, lat.embeddings))):
            found += 1
            assert all(lo <= x <= hi for x, (lo, hi) in zip(cp, ranges))
    assert found >= 3


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
    # the alpha lattices' line vectors lie on an axis, so one row bounds each
    # line; here both rows do, and the 2D line cut runs
    ("rational2-0", lambda: random_rational_lattice(2, 0), 20),
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
        minima = _enumerate_window(lat, t, 10**6)
        assert minima and len(set(minima)) == len(minima)
        assert all(_in_closed_window(lat, c, t) for c in minima)
        full = _window_points(lat, t)
        assert len(minima) < len(full)
        assert sorted(_pareto_minimal(lat, minima)) == sorted(_pareto_oracle(lat, full))
        _assert_line_scan_matches_plain_scan(lat, t)


@pytest.mark.parametrize("name, make, t", [
    ("identity", lambda: normalize_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 6),
    ("integer-rows", lambda: normalize_lattice([(1, 2, 0), (0, 1, 3), (5, 0, 1)]), 9),
] + [(f"rational3-d7-{k}", lambda k=k: random_rational_lattice(3, k, denom_limit=7), 10)
     for k in range(6)] + [
    # widened enclosures chain into long runs, ranked exactly: the reflections
    # inherit them, and the oracle's exact order does not read them
    ("cubic49-wide", lambda: widened(lattice_from_cubic_field(CUBIC49_MINPOLY), 1 << 56), 6),
] + [(f"rational3-d7-{k}-wide",
      lambda k=k: widened(random_rational_lattice(3, k, denom_limit=7), 1 << 54), 8)
     for k in range(3)])
def test_pareto_sweep_matches_oracle(name, make, t):
    # small denominators give exact coordinate ties; the pruned set must be
    # exact, and in exact order
    from itertools import product
    from kleinsail.sail import _enumerate_window, _pareto_minimal
    base = make()
    for signs in product((1, -1), repeat=3):
        lat = base.reflect(signs)
        for closed in (True, False):
            full = _window_points(lat, t, closed)
            want = sorted(_pareto_oracle(lat, full))
            got = _pareto_minimal(lat, full)
            assert sorted(got) == want
            # in the exact lexicographic order of the coordinates
            for a, b in zip(got, got[1:]):
                assert next(s for s in (lat.coord_cmp_points(a, b, i) for i in range(3)) if s) < 0
            if closed:  # the line scan covers the closed window
                minima = _enumerate_window(lat, t, 10**6)
                assert sorted(_pareto_minimal(lat, minima)) == want
                # the identity's line vector has zero coordinates, rows that
                # bound no line; the widened enclosures give straddling minors
                _assert_line_scan_matches_plain_scan(lat, t)


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 20),
    (lambda: random_rational_lattice(3, 0), 30),
], ids=["cubic49-20", "rational3-0-30"])
def test_window_scan_budget_is_exact(make, t, monkeypatch):
    # the line scan's leaves, counted by wrapping its filter, are exactly
    # what its budget bounds: the scan passes at that budget, not one less
    from kleinsail import sail
    lat = make()
    core, leaves = sail._enumerate_core, [0]

    def counted(lat, boxes, filt, budget, *args, first_per_line=False, **kwargs):
        def leaf(c, partial):
            leaves[0] += 1
            return filt(c, partial)

        return core(lat, boxes, leaf if first_per_line else filt, budget, *args,
                    first_per_line=first_per_line, **kwargs)

    monkeypatch.setattr(sail, "_enumerate_core", counted)
    want = list(sail._enumerate_window(lat, t, 10**6).items())
    monkeypatch.undo()
    assert leaves[0] > len(want) > 0
    assert list(sail._enumerate_window(lat, t, leaves[0]).items()) == want
    with pytest.raises(PointBudgetError):
        sail._enumerate_window(lat, t, leaves[0] - 1)


def test_scan_state_is_freed_on_return():
    # the scan's recursion refers to itself; the cycle must not outlive it,
    # in the plain scan or the line scan
    import gc
    import weakref
    from kleinsail.sail import _box_filter, _enumerate_core, _line_basis, _window_bounds
    lat = random_rational_lattice(3, 0)
    boxes = [(0, lat.raw_window_interval(4)[1])] * 3
    basis = _line_basis(lat, 10**6)
    for kwargs in ({}, {"basis": basis, "first_per_line": True}):
        filt = _box_filter(lat, _window_bounds(lat, 4), 0)
        ref = weakref.ref(filt)
        gc.disable()
        try:
            assert _enumerate_core(lat, boxes, filt, 10**6, **kwargs)
            del filt
            assert ref() is None
        finally:
            gc.enable()


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



def _alpha_lattice(minpoly):
    return lattice_from_alpha(NumberField(minpoly).gen(), root_index=1)


def _cubic49(signs):
    return lattice_from_cubic_field(CUBIC49_MINPOLY).reflect(signs)


@pytest.mark.parametrize("make, rays, v", [
    (lambda: _cubic49((1, 1, 1)), [(-1061311, -3048875, 3801885), (3288419, -760377, -1370152),
                                   (3493584, 6850760, 3048875)], (1, 0, 0)),
    (lambda: _cubic49((1, 1, -1)), [(-1387312, -3962310, 3395369),
                                    (16116094, -4715320, -7257277),
                                    (-1722433, -7764195, -3455392)], (0, -1, 0)),
    (lambda: _cubic49((1, -1, 1)), [(-3113780, -2541957, 4715320),
                                    (-16397412, 4308803, 7764195),
                                    (1441115, 7357678, 3962310)], (-1, 1, 1)),
    (lambda: _cubic49((1, -1, -1)), [(-3439781, -3455392, 4308803),
                                     (-16723413, 3395369, 7357678),
                                     (-3774902, -7257277, -2541957)], (-2, 0, 1)),
    (lambda: _alpha_lattice(GOLDEN_MINPOLY), [(8388608, -2679875), (131072, 2047087)], (0, 1)),
    (lambda: _alpha_lattice(SQRT2M1_MINPOLY), [(8388608, -4389645), (524288, 8081487)], (0, 1)),
    (lambda: random_rational_lattice(3, 0), [(16543247, 27176873, -42302178),
                                             (-32554612, 10394397, 49123441),
                                             (12533106, -31962261, 34931707)], (0, -1, 2)),
    (lambda: _rebased(_alpha_lattice(GOLDEN_MINPOLY), ((1, 1), (0, 1))),
     [(11068483, -2679875), (-1916015, 2047087)], (-1, 1)),
], ids=["cubic49+++", "cubic49++-", "cubic49+-+", "cubic49+--", "golden", "sqrt2m1",
        "rational3-0", "golden-skew"])
def test_closure_rays_and_line_vector_are_pinned(make, rays, v):
    # the closure rays set the cycles of the artificial facets, and the line
    # vector v the patch JSON's stats.enumerated; no other test checks them
    from kleinsail.sail import DEFAULT_POINT_BUDGET, _closure_rays, _line_basis
    lat = make()
    assert _closure_rays(lat) == rays
    u, _ = _line_basis(lat, DEFAULT_POINT_BUDGET)
    assert tuple(row[-1] for row in u) == v


# the golden lattice's bases in the quad2d-skew benchmark, at seeds 1 and 2026
_GOLDEN_SKEW_BASES = [((1, -1), (-2, 1)), ((1, -1), (1, -2)), ((-1, 1), (-2, 1)),
                      ((1, -1), (2, -1)), ((-2, 1), (-1, 1)), ((1, 1), (1, 0))]

_WALK_LATTICES = [
    ("golden", lambda: _alpha_lattice(GOLDEN_MINPOLY)),
    ("sqrt2m1", lambda: _alpha_lattice(SQRT2M1_MINPOLY)),
] + [(f"golden-skew-{k}", lambda u=u: _rebased(_alpha_lattice(GOLDEN_MINPOLY), u))
     for k, u in enumerate(_GOLDEN_SKEW_BASES)] + [
    (f"rational2-{k}", lambda k=k: random_rational_lattice(2, k)) for k in range(8)] + [
    (f"alpha-{a}", lambda a=a: lattice_from_alpha(Fraction(a)))
    for a in ("5/12", "13/34", "7/16", "16/113", "1/2", "1/1000")] + [
    ("golden-module", golden_module),
]


@pytest.mark.parametrize("make", [m for _, m in _WALK_LATTICES],
                         ids=[name for name, _ in _WALK_LATTICES])
def test_sail_walk_matches_window_pareto(make):
    # the 2D minima come from a short window scan and the sail walk; the
    # full window scan and the Pareto sweep are the oracle, in every orthant
    # representative, at windows below the seed window too
    from kleinsail.sail import _enumerate_window, _pareto_minimal, _window_minima
    base = make()
    for signs in ((1, 1), (1, -1)):
        lat = base.reflect(signs)
        for t in (3, 5, 10, 20, 60, 100, 600, 10**4):
            want = _pareto_minimal(lat, _enumerate_window(lat, t, 10**7))
            assert _window_minima(lat, t)[1] == want, (signs, t)


_WINDOW_CERT_CASES = [
    (f"cubic49{''.join('+' if s > 0 else '-' for s in signs)}-{t}",
     lambda signs=signs: lattice_from_cubic_field(CUBIC49_MINPOLY).reflect(signs), t)
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)) for t in (6, 12, 20, 40)
] + [
    (f"rational3-{k}-{t}", lambda k=k: random_rational_lattice(3, k), t)
    for k in range(6) for t in (10, 30)
] + [
    ("golden-alpha-60", lambda: _alpha_lattice(GOLDEN_MINPOLY), 60),
    ("golden-skew-60", lambda: _rebased(_alpha_lattice(GOLDEN_MINPOLY), _GOLDEN_SKEW_BASES[0]), 60),
    ("golden-module-60", golden_module, 60),
]


@pytest.mark.parametrize("make, t", [(m, t) for _, m, t in _WINDOW_CERT_CASES],
                         ids=[name for name, _, _ in _WINDOW_CERT_CASES])
def test_window_certification_equals_full_walk(make, t, monkeypatch):
    # the patch decides a facet's window part on the Pareto minima and walks
    # only the region outside the window; certify_facet walks all of it
    from kleinsail import sail
    lat = make()
    patch = build_sail_patch(lat, t)
    minima = sail._window_minima(lat, t)[1]
    window = (patch.t, minima)
    facets = [f for f in patch.facets if not f.artificial and f.support]
    assert facets
    for f in facets:
        ok, reason, on_plane, below = certify_facet(lat, f.support, f.dist)
        assert (f.certified, f.reason) == (ok, reason)
        if ok:
            assert f.vertices == tuple(sorted(sail._extreme_on_plane(on_plane, f.support, lat.n)))
            assert f.extended == (not set(on_plane) <= set(minima))
        got = certify_facet(lat, f.support, f.dist, _window=window)
        assert got[:2] == (ok, reason)
        assert set(got[2]) <= set(on_plane) and set(got[3]) <= set(below)
        if ok:
            assert set(got[2]) == set(on_plane)

    # a certified facet's plane one level up has its own vertices below it:
    # the minima refuse it, and no region is walked
    def no_walk(*args, **kwargs):
        raise AssertionError("the minima alone decide this plane")

    monkeypatch.setattr(sail, "_level_points", no_walk)
    certified = [f for f in facets if f.certified]
    assert certified
    for f in certified:
        ok, reason, _, below = certify_facet(lat, f.support, f.dist + 1, _window=window)
        assert not ok and reason == "lattice points strictly below the supporting plane"
        assert set(f.vertices) & set(minima) <= set(below) <= set(minima)


def _exact_lex_sorted(lat, pts):
    from functools import cmp_to_key

    def cmp(a, b):
        return next((s for s in (lat.coord_cmp_points(a, b, i) for i in range(lat.n)) if s), 0)

    return sorted(pts, key=cmp_to_key(cmp))


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 64),
    # small denominators: exact coordinate ties among the points that the
    # enclosures cannot drop
    (lambda: random_rational_lattice(3, 0, denom_limit=7), 40),
    (lambda: random_rational_lattice(3, 1, denom_limit=7), 80),
], ids=["cubic49-64", "rational3-d7-0-40", "rational3-d7-1-80"])
def test_pareto_minimal_at_large_n(make, t):
    # thousands of line minima: the sweep equals the all-pairs exact filter,
    # in the exact lexicographic order
    from kleinsail.sail import _enumerate_window, _pareto_minimal
    lat = make()
    pts = _enumerate_window(lat, t, 10**6)
    assert len(pts) > 2000
    assert _pareto_minimal(lat, pts) == _exact_lex_sorted(lat, _pareto_oracle(lat, pts))
