import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import (
    from_man_exp, from_rational, ln2_fixed, mpf_add, mpf_log, mpf_mul,
)
from mpmath.libmp.libelefun import log_taylor_cached

from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, lattice_from_alpha,
    lattice_from_cubic_field, random_rational_lattice,
)
from kleinsail import logplane
from kleinsail.logplane import (
    EDGE_SAMPLES, TRANSLATION_TOL, LogCell, cell_covering_radius, cells_csv,
    check_phi_bounds, pi_log, pi_log_point, project_patch,
)
from kleinsail.normmin import orthant_representatives
from kleinsail.numberfield import NumberField, mpf_at
from kleinsail.sail import build_sail_patch


@pytest.fixture(scope="module")
def cubic_patch():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    return build_sail_patch(lat, 20)


@pytest.fixture(scope="module")
def cubic_patch_big():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    return build_sail_patch(lat, 40)


def _golden_alpha():
    return lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)


@pytest.fixture(scope="module")
def golden_patch():
    return build_sail_patch(_golden_alpha(), 60)


def test_pi_log_trivials():
    assert pi_log([1.0, 1.0, 1.0]) == (0.0, 0.0)
    # phi = 1 surface: pi_log is the plain log of the leading coordinates
    img = pi_log([2.0, 0.5])
    assert abs(img[0] - math.log(2)) < 1e-12


def test_pi_log_scale_invariance():
    a = pi_log([3.0, 5.0, 7.0])
    b = pi_log([3.0 * 11, 5.0 * 11, 7.0 * 11])
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_pi_log_point_rejects_boundary():
    lat = lattice_from_alpha(Fraction(5, 12))
    with pytest.raises(ValueError):
        pi_log_point(lat, (0, 1))  # ambient (0, 1)


def test_pi1_lands_on_unit_phi_surface(cubic_patch):
    lat = cubic_patch.lattice
    for c in cubic_patch.interior_certified_vertices()[:6]:
        vals = [mpf_at(lat.coord(c, i), lat.embeddings[i]) for i in range(3)]
        phi = vals[0] * vals[1] * vals[2]
        scaled = [v / phi ** (mpmath.mpf(1) / 3) for v in vals]
        prod = scaled[0] * scaled[1] * scaled[2]
        assert abs(float(prod) - 1.0) < 1e-12


def test_project_patch_2d_cells_are_disjoint_intervals(golden_patch):
    cells, skipped = project_patch(golden_patch)
    assert cells
    # each cell is an interval on the line; consecutive, non-overlapping
    intervals = sorted((min(s[0] for s in c.edge_samples),
                        max(s[0] for s in c.edge_samples)) for c in cells)
    for (l1, r1), (l2, r2) in zip(intervals, intervals[1:]):
        assert r1 <= l2 + 1e-9
    # the golden sail has an axis vertex: its facet is skipped
    assert skipped


def test_project_patch_3d_tiles(cubic_patch):
    cells, skipped = project_patch(cubic_patch)
    assert len(cells) == len(cubic_patch.certified_facets()) - len(skipped)
    interior = [c for c in cells if c.interior]
    assert interior
    # interior cells pairwise disjoint (sampled): centroids of distinct cells
    # are farther apart than the overlap tolerance
    for i, a in enumerate(interior):
        for b in interior[i + 1:]:
            assert math.dist(a.centroid, b.centroid) > 1e-9


def test_covering_radius_stabilizes(cubic_patch, cubic_patch_big):
    c1, _ = project_patch(cubic_patch)
    c2, _ = project_patch(cubic_patch_big)
    r1 = cell_covering_radius(c1)
    r2 = cell_covering_radius(c2)
    assert r1["max_cell_radius"] > 0
    # periodic sail: the maximal interior cell radius stabilizes (within 5%)
    assert abs(r1["max_cell_radius"] - r2["max_cell_radius"]) <= 0.05 * r2["max_cell_radius"]
    assert r2["covering_radius_estimate"] == 2 * r2["max_cell_radius"]


def test_covering_radius_single_cell(cubic_patch):
    cells, _ = project_patch(cubic_patch)
    one = [c for c in cells if c.interior][:1]
    rep = cell_covering_radius(one)
    assert rep["covering_radius_estimate"] == 2 * one[0].radius


def test_covering_radius_values_on_cubic49(cubic_patch):
    # recorded before the grid bounds were hoisted out of the loops
    cells, _ = project_patch(cubic_patch)
    assert cell_covering_radius(cells) == {
        "max_cell_radius": float.fromhex("0x1.28731b4d2a613p+0"),
        "covering_radius_estimate": float.fromhex("0x1.28731b4d2a613p+1"),
        "grid_max_needed_radius": float.fromhex("0x1.696efb20d6294p+1"),
        "grid_centers": 144,
        "interior_cells": 6,
    }


def test_covering_radius_on_a_2d_patch(golden_patch):
    # the log plane of a 2D sail is a line: the grid runs along its one axis,
    # at the pitch the 3D grid has along each of its two
    cells, _ = project_patch(golden_patch)
    interior = [c for c in cells if c.interior]
    rep = cell_covering_radius(cells)
    xs = [p[0] for c in interior for p in c.edge_samples]
    pitch = rep["max_cell_radius"] * logplane._GRID_PITCH
    assert rep["interior_cells"] == len(interior) == 3
    assert rep["max_cell_radius"] == max(c.radius for c in interior)
    assert rep["grid_centers"] == math.floor((max(xs) - min(xs)) / pitch) + 1
    assert rep["covering_radius_estimate"] == 2 * rep["max_cell_radius"]
    # a whole cell lies within D' of every center of the covered segment
    assert rep["max_cell_radius"] < rep["grid_max_needed_radius"]
    assert rep["grid_max_needed_radius"] <= rep["covering_radius_estimate"] * (1 + 1e-12)


def test_covering_radius_requires_interior():
    lat = lattice_from_alpha(Fraction(7, 16))
    patch = build_sail_patch(lat, 12)
    cells, _ = project_patch(patch)
    stripped = [c.__class__(**{**c.__dict__, "interior": False}) for c in cells]
    with pytest.raises(ValueError):
        cell_covering_radius(stripped)


def test_phi_bounds_cubic(cubic_patch):
    rep = check_phi_bounds(cubic_patch)
    assert rep.min_vertex_phi == Fraction(1, 7)
    assert rep.per_facet_ok
    assert rep.max_sample_phi < rep.max_det_sf


def test_phi_bounds_golden(golden_patch):
    rep = check_phi_bounds(golden_patch)
    assert rep.per_facet_ok
    assert rep.min_vertex_phi == 0  # the axis vertex of the alpha lattice


def _cubic49_orthants():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    return [lat.reflect(s) for s in orthant_representatives(3)]


@pytest.mark.parametrize("make, t", [
    *[(lambda k=k: _cubic49_orthants()[k], 6) for k in range(4)],
    (_golden_alpha, 60),
    (lambda: lattice_from_alpha(Fraction(13, 34)), 20),
    (lambda: random_rational_lattice(3, 0), 10),
], ids=["cubic49-o0", "cubic49-o1", "cubic49-o2", "cubic49-o3", "golden", "alpha-13/34",
        "rational3-0"])
def test_cell_samples_match_exact_mixes(make, t):
    # vertex images are pi_log_point's; every edge sample is the image of
    # the exact Fraction mix of its two ring vertices
    lat = make()
    patch = build_sail_patch(lat, t)
    cells, _ = project_patch(patch)
    assert cells
    for cell in cells:
        f = patch.facets[cell.facet_index]
        ring = _ring(f)
        m = len(ring)
        assert cell.vertex_images == tuple(pi_log_point(lat, c) for c in ring)
        want = []
        for k in range(m if (lat.n == 3 and m > 2) else m - 1):
            a, b = ring[k], ring[(k + 1) % m]
            for s in range(1, EDGE_SAMPLES):
                lam = Fraction(s, EDGE_SAMPLES)
                want.append(pi_log_point(lat, tuple(lam * x + (1 - lam) * y
                                                    for x, y in zip(a, b))))
        got = cell.edge_samples[m:]
        assert cell.edge_samples[:m] == cell.vertex_images
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert max(abs(x - y) for x, y in zip(p, q)) < 1e-12


@pytest.mark.parametrize("make, t, skips", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 6, False),
    (_golden_alpha, 60, True),   # the axis-vertex facet
], ids=["cubic49", "golden"])
def test_project_patch_straddling_enclosures_fall_back_to_exact(make, t, skips):
    # every basis enclosure (2^64-scaled) widened by 2^200 or more, the
    # dual's too: each coordinate enclosure straddles 0, with its midpoint
    # far below it, and only the exact sign test decides positivity and the
    # orthant boundary
    patch = build_sail_patch(make(), t)
    want = project_patch(patch)
    for lat in (patch.lattice, patch.lattice.dual()):
        lat._basis_iv = [[(lo - (1 << 201), hi + (1 << 200)) for lo, hi in row]
                         for row in lat.basis_interval_matrix()]
    assert project_patch(patch) == want
    assert bool(want[1]) == skips


def test_diagonal_rescale_translates_cells():
    # the T=20 sail of 13/34 has facets off both axes, so bounded cells
    lat = lattice_from_alpha(Fraction(13, 34))
    patch = build_sail_patch(lat, 20)
    resc = lat.diagonal_rescale((Fraction(4, 3), Fraction(3, 4)))
    patch2 = build_sail_patch(resc, 20)
    cells1, _ = project_patch(patch)
    cells2, _ = project_patch(patch2)
    by_facet1 = {patch.facets[c.facet_index].vertices: c for c in cells1}
    by_facet2 = {patch2.facets[c.facet_index].vertices: c for c in cells2}
    common = set(by_facet1) & set(by_facet2)
    assert common
    # expected translation: ln(4/3) - (1/2) ln(1) = ln(4/3)
    expected = math.log(4 / 3)
    for k in common:
        a, b = by_facet1[k], by_facet2[k]
        for p, q in zip(a.vertex_images, b.vertex_images):
            assert abs((q[0] - p[0]) - expected) < TRANSLATION_TOL


def test_equal_coordinate_vertex_phi_power(cubic_patch):
    # vertex with all coordinates equal: phi is the n-th power of the
    # coordinate; realized exactly by the unit point (1,1,1), raw phi 1
    lat = cubic_patch.lattice
    assert lat.phi_raw((1, 0, 0)) == 1


def test_cells_csv(cubic_patch):
    cells, _ = project_patch(cubic_patch)
    text = cells_csv(cells)
    assert text.splitlines()[0].startswith("cell,facet")
    assert len(text.splitlines()) == len(cells) + 1


def _ring(f):
    # the window cycle when it holds exactly the facet's vertices; else, from
    # the least vertex, each next vertex b is the one that leaves every other
    # vertex c to its left seen from outside the polyhedron (along -w):
    # w . ((b - a) x (c - a)) < 0.  A 2D facet's two vertices stay sorted
    if set(f.cycle) == set(f.vertices):
        return list(f.cycle)
    ring = [min(f.vertices)]
    while len(ring) < len(f.vertices):
        a = ring[-1]
        ring.append(next(b for b in f.vertices if b not in ring and all(
            _triple(f.support, [y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)]) < 0
            for c in f.vertices if c not in (a, b))))
    return ring


def _triple(w, u, v):
    return (w[0] * (u[1] * v[2] - u[2] * v[1]) + w[1] * (u[2] * v[0] - u[0] * v[2])
            + w[2] * (u[0] * v[1] - u[1] * v[0]))


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 20),
    (lambda: random_rational_lattice(3, 0), 10),
], ids=["cubic49", "rational3-0"])
def test_shared_vertices_and_edges_agree_across_cells(make, t):
    # a vertex shared by two cells has one image; an edge shared by two cells
    # has one sample list, read reversed by the cell that meets it the other way
    patch = build_sail_patch(make(), t)
    cells, _ = project_patch(patch)
    k = EDGE_SAMPLES - 1
    images, edges = {}, {}
    shared_vertices = shared_edges = reversed_edges = 0
    for cell in cells:
        ring = _ring(patch.facets[cell.facet_index])
        m = len(ring)
        for c, img in zip(ring, cell.vertex_images):
            if c in images:
                shared_vertices += 1
                assert images[c] == img
            images[c] = img
        for j in range(m):
            a, b = ring[j], ring[(j + 1) % m]
            got = cell.edge_samples[m + j * k:m + (j + 1) * k]
            assert len(got) == k
            if (a, b) in edges:
                shared_edges += 1
                assert edges[a, b] == got
            elif (b, a) in edges:
                shared_edges += 1
                reversed_edges += 1
                assert edges[b, a] == got[::-1]
            edges[a, b] = got
    assert shared_vertices and reversed_edges and shared_edges >= reversed_edges


def _pi_log_reference(values):
    # the logarithm and mean under mpmath's 113-bit context, as mpf values
    with mpmath.workprec(113):
        logs = [mpmath.log(v) for v in values]
        mean = sum(logs) / len(logs)
        return tuple(float(l - mean) for l in logs[:-1])


def _pi_log_inputs(prec):
    with mpmath.workprec(prec):
        return [
            [mpmath.sqrt(2), mpmath.pi],
            [mpmath.mpf(1) / 3, mpmath.e, mpmath.sqrt(7)],
            [mpmath.cbrt(49) / 5, mpmath.mpf(10) ** 20 / 7, mpmath.ln(3)],
            [1 + mpmath.mpf(2) ** -100, mpmath.mpf(1), 1 - mpmath.mpf(2) ** -90],
            [1 + mpmath.mpf(2) ** -(prec - 5), mpmath.mpf(1)],
        ]


@pytest.mark.parametrize("prec", [113, 121])
def test_pi_log_reads_mpf_at_its_own_precision(prec):
    # values made inside workprec and passed in outside it: bit for bit the
    # 113-bit mpmath.log of the unrounded value
    for vals in _pi_log_inputs(prec):
        assert pi_log(vals) == _pi_log_reference(vals)
    # the last two cases only differ from 1 below 53 bits
    for vals in _pi_log_inputs(prec)[-2:]:
        assert pi_log(vals) != pi_log([mpmath.mpf(v) for v in vals])
        assert all(x != 0 for x in pi_log(vals))


def _project_patch_reference(patch):
    # the per-facet algorithm: every facet forms its own vertex values and
    # samples each of its edges, with mpf arithmetic under workprec
    lat = patch.lattice
    cells, skipped = [], []
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        ring = _ring(f)
        if any(lat.coord_sign(c, i) <= 0 for c in ring for i in range(lat.n)):
            skipped.append(fi)
            continue
        vals = [[mpf_at(lat.coord(c, i), lat.embeddings[i], 113) for i in range(lat.n)]
                for c in ring]
        imgs = [_pi_log_reference(v) for v in vals]
        samples = list(imgs)
        m = len(ring)
        with mpmath.workprec(121):
            for k in range(m if (lat.n == 3 and m > 2) else m - 1):
                a, b = vals[k], vals[(k + 1) % m]
                for s in range(1, EDGE_SAMPLES):
                    lam = mpmath.mpf(s) / EDGE_SAMPLES
                    samples.append(_pi_log_reference([lam * x + (1 - lam) * y
                                                      for x, y in zip(a, b)]))
        centroid = tuple(sum(p[d] for p in imgs) / m for d in range(lat.n - 1))
        cells.append(LogCell(
            facet_index=fi, vertex_images=tuple(imgs), edge_samples=tuple(samples),
            centroid=centroid, radius=max(math.dist(centroid, p) for p in samples),
            interior=all(patch.stars.get(c) is not None and patch.stars[c].complete
                         for c in f.vertices)))
    return cells, skipped


@pytest.mark.parametrize("make, t", [
    *[(lambda k=k: _cubic49_orthants()[k], 6) for k in range(4)],
    (_golden_alpha, 60),
    (lambda: random_rational_lattice(3, 0), 10),
], ids=["cubic49-o0", "cubic49-o1", "cubic49-o2", "cubic49-o3", "golden", "rational3-0"])
def test_project_patch_equals_per_facet_reference(make, t):
    patch = build_sail_patch(make(), t)
    want = _project_patch_reference(patch)
    assert want[0]
    assert project_patch(patch) == want


def _raw_mpf(rng, prec, exp_range=300):
    man = (1 << (prec - 1)) | rng.getrandbits(prec - 1)
    return from_man_exp(man, rng.randint(-exp_range, exp_range) - prec)


def _near_one(rng, prec, bits):
    # within 2^-bits of 1, from above or below
    r = rng.getrandbits(prec - bits - 1) | 1
    if rng.random() < 0.5:
        return from_man_exp((1 << (prec - 1)) + r, 1 - prec)
    return from_man_exp((1 << prec) - r, -prec)


def _kernel_cases(seed):
    """(name, raw values) groups for the sample kernel: generic values, values
    near 1, exact cancellations and scaled near-cancellations."""
    rng = random.Random(seed)
    generic, near_one, cancel = [], [], []
    for _ in range(1500):
        n, prec = rng.choice((2, 3)), rng.choice((113, 121))
        generic.append([_raw_mpf(rng, prec) for _ in range(n)])
        near_one.append([_near_one(rng, prec, rng.randint(40, 60)) for _ in range(n)])
    for _ in range(200):
        # x1^2 = x2*x3 and x1 = x2: a coordinate of the image is exactly 0
        a, b = rng.getrandbits(56) | 1, rng.getrandbits(56) | 1
        e = rng.randint(-300, 300)
        cancel.append([from_man_exp(a * b, e), from_man_exp(a * a, e), from_man_exp(b * b, e)])
        x = _raw_mpf(rng, rng.choice((113, 121)))
        cancel.append([x, x])
        # one common scale 2^E, relative spread below 2^-60: the image is tiny
        # against sum |ln x_j|, whose rounding errors decide pi_log's floats
        prec = rng.choice((113, 121))
        base = (1 << (prec - 1)) | rng.getrandbits(prec - 1)
        e = rng.choice((-1, 1)) * rng.randint(150, 300)
        cancel.append([from_man_exp(base + rng.getrandbits(prec - 60 - rng.randint(0, 30)), e)
                       for _ in range(rng.choice((2, 3)))])
    with mpmath.workprec(121):
        cancel.append([(1 + mpmath.mpf(2) ** -100)._mpf_, mpmath.mpf(1)._mpf_,
                       (1 - mpmath.mpf(2) ** -90)._mpf_])
    return generic, near_one, cancel


def test_sample_kernel_equals_pi_log(monkeypatch):
    # a vertex x is read as sample EDGE_SAMPLES of the edge (x, x), whose mix
    # is x; bit for bit pi_log everywhere, from the kernel or its fallback;
    # the kernel answers almost every generic sample and most near 1 (B
    # bounds |ln x| near 1 by ln 2, so it declines where x is within about
    # 2^-55 of 1), and declines every cancellation
    fallback = []
    monkeypatch.setattr(logplane, "pi_log", lambda xs: fallback.append(xs) or pi_log(xs))
    generic, near_one, cancel = _kernel_cases(15)
    declined = []
    for group in (generic, near_one, cancel):
        fallback.clear()
        for xs in group:
            assert [logplane._mix(x, x, EDGE_SAMPLES) for x in xs] == xs
            want = pi_log([mpmath.mp.make_mpf(x) for x in xs])
            assert logplane._mix_images(xs, xs, [EDGE_SAMPLES]) == [want]
        declined.append(len(fallback))
    assert declined[0] <= 3
    assert declined[1] <= len(near_one) // 2
    assert declined[2] == len(cancel)


def test_edge_mix_is_the_121_bit_sum():
    # the exact integer mix rounds once at 121 bits, as the products' sum
    # does; at 113 bits some mixes differ
    rng = random.Random(16)
    rounded_113_differs = False
    for _ in range(200):
        x, y = _raw_mpf(rng, 113, 8), _raw_mpf(rng, 113, 8)
        for s in range(1, EDGE_SAMPLES):
            wa = from_rational(s, EDGE_SAMPLES, 121, "n")
            wb = from_rational(EDGE_SAMPLES - s, EDGE_SAMPLES, 121, "n")
            want = mpf_add(mpf_mul(wa, x), mpf_mul(wb, y), 121, "n")
            assert logplane._mix(x, y, s) == want
            rounded_113_differs |= mpf_add(mpf_mul(wa, x), mpf_mul(wb, y), 113, "n") != want
    assert rounded_113_differs


def _edge_cases(seed):
    """(name, edges) groups for the edge kernel, an edge a pair of lists of
    positive 113-bit raw values: generic ends, ends whose exponents differ by
    100 or more, ends near 1, and ends whose samples cancel to an image at or
    near 0."""
    rng = random.Random(seed)
    groups = {"generic": [], "far": [], "near_one": [], "cancel": []}
    for _ in range(60):
        n = rng.choice((2, 3))
        groups["generic"].append(([_raw_mpf(rng, 113) for _ in range(n)],
                                  [_raw_mpf(rng, 113) for _ in range(n)]))
        xa, xb = [], []
        for _ in range(n):
            x = _raw_mpf(rng, 113, 150)
            y = from_man_exp((1 << 112) | rng.getrandbits(112),
                             x[2] + rng.choice((1, -1)) * rng.randint(100, 200))
            if rng.getrandbits(1):
                x, y = y, x
            xa.append(x)
            xb.append(y)
        groups["far"].append((xa, xb))
        groups["near_one"].append(([_near_one(rng, 113, rng.randint(40, 60)) for _ in range(n)],
                                   [_near_one(rng, 113, rng.randint(40, 60)) for _ in range(n)]))
        # equal coordinates at both ends: every sample's image is exactly 0
        x, y = _raw_mpf(rng, 113), _raw_mpf(rng, 113)
        groups["cancel"].append(([x] * n, [y] * n))
        # one common scale, relative spread below 2^-60: tiny images
        e = rng.choice((-1, 1)) * rng.randint(150, 300)
        base = [(1 << 112) | rng.getrandbits(112) for _ in range(2)]
        groups["cancel"].append(tuple(
            [from_man_exp(b + rng.getrandbits(rng.randint(20, 50)), e) for _ in range(n)]
            for b in base))
    return groups


def test_edge_images_equal_pi_log_of_rounded_mixes(monkeypatch):
    # every sample, from the edge kernel or its fallback, is bit for bit
    # pi_log of the 121-bit mixes; the kernel answers every generic and far
    # sample, most near 1 (as it does on vertices), and no cancelled one
    fallback = []
    monkeypatch.setattr(logplane, "pi_log", lambda xs: fallback.append(xs) or pi_log(xs))
    for name, edges in _edge_cases(18).items():
        fallback.clear()
        for xa, xb in edges:
            assert len(xa) == len(xb)
            want = [pi_log([mpmath.mp.make_mpf(logplane._mix(x, y, s)) for x, y in zip(xa, xb)])
                    for s in range(1, EDGE_SAMPLES)]
            assert logplane._mix_images(xa, xb, range(1, EDGE_SAMPLES)) == want
        samples = len(edges) * (EDGE_SAMPLES - 1)
        if name == "cancel":
            assert len(fallback) == samples
        elif name == "near_one":
            assert len(fallback) <= samples // 2
        else:
            assert not fallback


def test_log_premises_of_the_kernel_bound():
    # mpf_log at 113 bits within 2^-112 |ln x| (1 ulp); log_taylor_cached at
    # _WP bits within _TAYLOR_ERR units; ln2_fixed within 1 unit
    rng = random.Random(17)
    wp = logplane._WP
    with mpmath.workprec(300):
        for k in range(600):
            prec = rng.choice((113, 121))
            x = _near_one(rng, prec, rng.randint(1, 100)) if k % 2 else _raw_mpf(rng, prec)
            exact = mpmath.log(mpmath.mp.make_mpf(x))
            got = mpmath.mp.make_mpf(mpf_log(x, 113, "n"))
            assert abs(got - exact) <= abs(exact) * mpmath.mpf(2) ** -112
        for k in range(600):
            t = (1 << (wp - 1)) + rng.getrandbits(wp - 1 - rng.choice((0, 40, 90)))
            if k % 2:
                t = (3 << (wp - 1)) - t      # near 1 from below
            exact = mpmath.log(mpmath.mpf(t) / mpmath.mpf(2) ** wp) * mpmath.mpf(2) ** wp
            assert abs(log_taylor_cached(t, wp) - exact) <= logplane._TAYLOR_ERR
        assert abs(ln2_fixed(wp) - mpmath.log(2) * mpmath.mpf(2) ** wp) < 1
    # a mix rounded at 121 bits lies within 2^-121 of it, relatively
    for _ in range(600):
        m = rng.getrandbits(rng.randint(122, 400)) | 1
        e = rng.randint(-300, 300)
        _, man, exp, _ = from_man_exp(m, e, 121, "n")
        assert abs(Fraction(man) * Fraction(2) ** exp - Fraction(m) * Fraction(2) ** e) \
            <= Fraction(m) * Fraction(2) ** (e - 121)


@pytest.mark.parametrize("k", range(3))
def test_cell_rings_follow_the_facet_polygon(k):
    # each cell lists its facet's vertex images in the polygon's cyclic
    # order: every two consecutive ring vertices span a side, with all other
    # vertices strictly on one side of it; extended facets included, whose
    # window cycle is not their vertex set
    lat = random_rational_lattice(3, k)
    patch = build_sail_patch(lat, 30)
    cells, _ = project_patch(patch)
    extended = 0
    for cell in cells:
        f = patch.facets[cell.facet_index]
        vertex_of = {pi_log_point(lat, c): c for c in f.vertices}
        ring = [vertex_of[img] for img in cell.vertex_images]
        assert sorted(ring) == list(f.vertices)
        m = len(ring)
        for j in range(m):
            a, b = ring[j], ring[(j + 1) % m]
            signs = {_triple(f.support, [y - x for x, y in zip(a, b)],
                             [y - x for x, y in zip(a, c)]) > 0
                     for c in f.vertices if c not in (a, b)}
            assert len(signs) == 1, (f.vertices, ring)
        extended += f.extended and m >= 4
    assert extended
