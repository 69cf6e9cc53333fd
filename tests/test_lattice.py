import itertools
from fractions import Fraction

import pytest

from kleinsail.contfrac import cf_value
from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, DegenerateBasisError, Lattice,
    OrthantSign, irrationality_check, lattice_from_alpha, lattice_from_cubic_field,
    normalize_lattice, random_rational_lattice,
)
from kleinsail.linalg import det, mat_mul, transpose
from kleinsail.numberfield import NumberField
from shared_lattices import golden_module, widened


def test_normalize_identity():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert lat.basis == [(1, 0), (0, 1)]
    assert lat.scale_d == 1


def test_normalize_diag2():
    lat = normalize_lattice([(2, 0), (0, 2)])
    assert lat.basis == [(1, 0), (0, 1)]
    assert lat.scale_d == 1


def test_normalize_tracks_non_cube_det():
    lat = normalize_lattice([(2, 0), (0, 1)])  # det 2, sqrt irrational
    assert lat.scale_d == 2
    assert lat.basis[0][0] == 2
    # normalized |x| < 3 for the point (2, 0) <=> 4 < 9*2
    assert lat.coord_abs_lt((1, 0), 0, 3)
    assert not lat.coord_abs_lt((1, 0), 0, 1)


def test_normalize_rejects_singular():
    with pytest.raises(DegenerateBasisError):
        normalize_lattice([(1, 2), (2, 4)])


def test_cubic_lattice_det_and_phi():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    assert lat.scale_d_sq == 49
    assert lat.scale_d == 7
    # phi of the element 1 is Norm(1)/7 = 1/7
    assert lat.phi((1, 0, 0)) == Fraction(1, 7)
    # theta is a unit: phi = Norm(theta)/7 = 1/7
    assert lat.phi((0, 1, 0)) == Fraction(1, 7)


def test_cubic_rejects_not_totally_real():
    with pytest.raises(ValueError, match="totally real"):
        lattice_from_cubic_field((-2, 0, 0))  # x^3 - 2


def test_dual_involution_random():
    for seed in range(20):
        lat = random_rational_lattice(2 if seed % 2 else 3, seed)
        dd = lat.dual().dual()
        assert dd.basis == lat.basis


def test_dual_2d_alpha_example():
    alpha = Fraction(2, 7)
    lat = lattice_from_alpha(alpha)
    dual = lat.dual()
    # dual basis columns are (1, 0) and (alpha - 1, 1)
    cols = transpose(dual.basis)
    assert cols[0] == (1, 0)
    assert cols[1] == (alpha - 1, 1)


def test_dual_pairing_is_identity():
    lat = random_rational_lattice(3, 11)
    dual = lat.dual()
    prod = mat_mul(transpose(dual.basis), lat.basis)
    from kleinsail.linalg import identity
    assert prod == identity(3)


def test_cubic_dual_pairing():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    dual = lat.dual()
    # trace pairing Tr(g_i * g*_j) = delta_ij
    for i in range(3):
        for j in range(3):
            tr = (lat.gens[i] * dual.gens[j]).trace()
            assert tr == (1 if i == j else 0)


def test_lattice_from_alpha_half():
    lat = lattice_from_alpha(Fraction(1, 2))
    cols = transpose(lat.basis)
    assert cols[0] == (1, Fraction(1, 2))
    assert cols[1] == (0, 1)


def test_lattice_from_alpha_golden_exact():
    fld = NumberField(GOLDEN_MINPOLY)
    alpha = fld.gen()  # positive root = (sqrt5-1)/2 at embedding 1
    lat = lattice_from_alpha(alpha, root_index=1)
    assert lat.kind == "field"
    assert lat.scale_d == 1
    # second coordinate of point (1, 0) is 1 - alpha = alpha^2 (golden identity)
    assert lat.coord_sign((1, 0), 1) == 1


def test_lattice_from_alpha_range_check():
    with pytest.raises(ValueError):
        lattice_from_alpha(Fraction(3, 2))
    with pytest.raises(ValueError):
        lattice_from_alpha(Fraction(0))


def test_alpha_det_one_many():
    import random
    rng = random.Random(5)
    for _ in range(50):
        a = Fraction(rng.randint(1, 999), 1000)
        lat = lattice_from_alpha(a)
        assert det(lat.basis) == 1


def test_orthant_reflect_identity_and_det():
    lat = random_rational_lattice(3, 3)
    same = lat.reflect(OrthantSign((1, 1, 1)))
    assert same.basis == lat.basis
    refl = lat.reflect(OrthantSign((1, -1, 1)))
    assert abs(det(refl.basis)) == abs(det(lat.basis))


def test_orthant_sign_validation():
    with pytest.raises(ValueError):
        OrthantSign((1, 0))


def test_phi_trivials():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert lat.phi((1, 1)) == 1
    assert lat.phi((0, 5)) == 0
    assert normalize_lattice([(2, 0), (0, Fraction(1, 2))]).phi((1, 1)) == 1


def test_irrationality_identity_flags_basis_vector():
    lat = normalize_lattice([(1, 0), (0, 1)])
    rep = irrationality_check(lat, 10)
    assert not rep.ok
    coeffs = set(rep.witnesses)
    assert (1, 0) in coeffs and (0, 1) in coeffs


def test_irrationality_alpha_witnesses_only_on_second_axis():
    # alpha = 355/113 folded into (0,1): use 16/113; denominator 113 > 100,
    # so inside Q(100) the only zero-coordinate points lie on the x2-axis
    # (the basis vector (0,1) direction, unavoidable for these lattices).
    lat = lattice_from_alpha(Fraction(16, 113))
    rep = irrationality_check(lat, 100)
    assert not rep.ok
    for w in rep.witnesses:
        assert w[0] == 0  # all witnesses are (0, b)
    # and none besides the x2-axis family: at T=120 the terminal point enters
    rep2 = irrationality_check(lat, 120)
    assert any(w[0] != 0 for w in rep2.witnesses)


def test_irrationality_cubic_always_clean():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    rep = irrationality_check(lat, 50)
    assert rep.ok


def test_json_roundtrip_rational():
    lat = random_rational_lattice(3, 123)
    doc = lat.to_json()
    back = Lattice.from_json(doc)
    assert back.basis == lat.basis
    assert back.scale_d == lat.scale_d


def test_json_roundtrip_field_and_module():
    fld = NumberField(GOLDEN_MINPOLY)
    lat = lattice_from_alpha(fld.gen(), root_index=1)
    back = Lattice.from_json(lat.to_json())
    assert back.kind == "field"
    assert all(a == b for ra, rb in zip(back.basis, lat.basis) for a, b in zip(ra, rb))

    cub = lattice_from_cubic_field(CUBIC49_MINPOLY)
    back = Lattice.from_json(cub.to_json())
    assert back.kind == "embedding"
    assert back.scale_d == 7
    assert [g.vec for g in back.gens] == [g.vec for g in cub.gens]
    assert cub.to_json()["field"]["kind"] == "cubic-embedding"

    quad = golden_module()
    doc = quad.to_json()
    assert doc["field"]["kind"] == "quadratic-embedding"
    back = Lattice.from_json(doc)
    assert back.kind == "embedding" and back.scale_d_sq == 5
    assert [g.vec for g in back.gens] == [g.vec for g in quad.gens]
    assert back.to_json() == doc


@pytest.mark.parametrize("make, key", [
    (lambda: random_rational_lattice(3, 0), "det_scale"),
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), "det_scale"),
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), "det_scale_sq"),
], ids=["rational", "field", "module"])
def test_json_scale_must_match_the_basis(make, key):
    # a scale 8 times the basis's once went through unchecked and changed
    # the certified facets
    doc = make().to_json()
    doc[key] = str(8 * Fraction(doc[key]))
    with pytest.raises(ValueError, match=key):
        Lattice.from_json(doc)


def test_json_row_signs_must_be_orthant_signs():
    # sign 2 once went through and doubled phi: phi((1, 0, 0)) read 2/7
    doc = lattice_from_cubic_field(CUBIC49_MINPOLY).to_json()
    assert Lattice.from_json(doc).phi((1, 0, 0)) == Fraction(1, 7)
    doc["row_signs"] = [2, 1, 1]
    with pytest.raises(ValueError, match="sign"):
        Lattice.from_json(doc)


def test_random_lattice_reproducible():
    a = random_rational_lattice(3, 42)
    b = random_rational_lattice(3, 42)
    assert a.basis == b.basis
    assert a.seed == 42


def test_support_normal_signs_rational():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert lat.support_normal_signs((1, 1)) == (1, 1)
    assert lat.support_normal_signs((1, -1)) == (1, -1)


def _exact_normal_signs(lat, w):
    from kleinsail.numberfield import sign_at
    dual = lat.dual()
    return tuple(sign_at(dual.coord(w, i), dual.embeddings[i]) for i in range(lat.n))


def _dual_coord_enclosure(lat, w, i):
    """The enclosure coord_sign reads first: coordinate i of w in the dual."""
    from kleinsail.lattice import _iv_dot
    return _iv_dot(lat.dual().basis_interval_matrix()[i], w)


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 12),
    (lambda: random_rational_lattice(3, 0), 10),
    (lambda: random_rational_lattice(3, 1), 10),
    (lambda: random_rational_lattice(3, 2), 10),
], ids=["cubic49", "rational-0", "rational-1", "rational-2"])
def test_support_normal_signs_match_exact_on_facet_supports(make, t):
    from kleinsail.normmin import orthant_representatives
    from kleinsail.sail import build_sail_patch
    lat = make()
    supports = 0
    for signs in orthant_representatives(3):
        refl = lat.reflect(signs)
        for f in build_sail_patch(refl, t).facets:
            if f.support:
                supports += 1
                assert refl.support_normal_signs(f.support) == _exact_normal_signs(refl, f.support)
    assert supports > 20


def _lattice_with_inverse(inv):
    """The rational lattice whose raw inverse basis is exactly `inv`."""
    from kleinsail.linalg import mat_inverse
    return Lattice.rational(mat_inverse([tuple(Fraction(x) for x in row) for row in inv]))


@pytest.mark.parametrize("e", [0, Fraction(1, 3**45), -Fraction(1, 3**45)],
                         ids=["zero", "tiny", "minus-tiny"])
@pytest.mark.parametrize("col, w0", [
    ((1, -1), (1, 1)),
    ((Fraction(1, 3), -Fraction(1, 3)), (1, 1)),
    ((Fraction(1, 3), Fraction(2, 3)), (2, -1)),   # rounded ends not symmetric about 0
], ids=["dyadic", "thirds", "uneven"])
def test_support_normal_signs_straddling_rational(e, col, w0):
    # the first dual column is col + (0, e/w0[1]); w = +-(w0, k) meets it in
    # +-e: its enclosure holds 0, and only the exact fallback decides
    lat = _lattice_with_inverse([(col[0], 0, 1), (col[1] + Fraction(e, w0[1]), 1, 0), (0, 2, 1)])
    for k in (0, 1, -1, -3):
        for s in (1, -1):
            w = (s * w0[0], s * w0[1], s * k)
            lo, hi = _dual_coord_enclosure(lat, w, 0)
            assert lo <= 0 <= hi
            got = lat.support_normal_signs(w)
            assert got == _exact_normal_signs(lat, w)
            assert got[0] == s * ((e > 0) - (e < 0))


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])
def test_support_normal_signs_straddling_cubic(signs):
    # alpha = theta^k g*_0 is in the dual module, with coordinates w_j =
    # Tr(alpha g_j); its second embedding, theta's of modulus 0.445, is tiny
    base = lattice_from_cubic_field(CUBIC49_MINPOLY)
    theta = base.field.gen()
    g0_dual = base.inverse_rows()[0][0]
    lat = base.reflect(signs)
    for k in range(50, 71, 4):
        alpha = theta ** k * g0_dual
        for w in (tuple(int((alpha * g).trace()) for g in base.gens),
                  tuple(-int((alpha * g).trace()) for g in base.gens)):
            lo, hi = _dual_coord_enclosure(lat, w, 1)
            assert lo <= 0 <= hi
            assert lat.support_normal_signs(w) == _exact_normal_signs(lat, w)


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])
def test_module_phi_raw_is_signed_norm(signs):
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY).reflect(signs)
    sgn = signs[0] * signs[1] * signs[2]
    for c in ((1, 0, 0), (0, 1, 0), (0, 0, 0), (2, -3, 5), (-7, 4, 1), (10**6, -3, 17),
              (Fraction(1, 2), Fraction(-2, 3), 3)):
        assert lat.phi_raw(c) == sgn * lat.module_element(c).norm()


def test_support_normal_product_cubic():
    lat = lattice_from_cubic_field(CUBIC49_MINPOLY)
    # w = (1,0,0): normalized normal product = Norm(g*_1) * 7
    val = lat.support_normal_product((1, 0, 0))
    assert val == lat.dual().gens[0].norm() * 7


def test_nth_root_fraction_integer_roots():
    from kleinsail.lattice import _nth_root_fraction
    assert _nth_root_fraction(Fraction((10**17 + 3) ** 2), 2) == 10**17 + 3
    assert _nth_root_fraction(Fraction(10**400), 2) == 10**200
    big = 10**40 + 17
    assert _nth_root_fraction(Fraction(big**3, 8), 3) == Fraction(big, 2)
    assert _nth_root_fraction(Fraction(big**3 + 1), 3) is None
    assert _nth_root_fraction(Fraction(2), 2) is None
    assert _nth_root_fraction(Fraction(4, 7), 2) is None


def _sweep_kernel_points(lat, kernel_gens, t):
    """Reference: one exact in_sym_box test per multiplier of a float-bounded
    box.  Each multiplier is bounded on the generators' ambient images v: by
    t / max_i |v_i| for one generator, and for a pair by Cramer's rule on its
    largest 2 x 2 minor (rows a, b), |k1| <= t (|v2_a| + |v2_b|) / |det| and
    |k2| <= t (|v1_a| + |v1_b|) / |det|."""
    if not kernel_gens:
        return []
    from kleinsail.numberfield import mpf_at
    n = lat.n
    fb = [[float(mpf_at(x, e, 60)) for x in row] for row, e in zip(lat.basis, lat.embeddings)]
    tf = lat.raw_window_interval(t)[1] / 2**64 * 1.01 + 1e-9
    v = [[sum(fb[i][j] * g[j] for j in range(n)) for i in range(n)] for g in kernel_gens]
    if len(kernel_gens) == 1:
        bounds = [tf / max(abs(x) for x in v[0])]
    else:
        det, a, b = max((abs(v[0][a] * v[1][b] - v[0][b] * v[1][a]), a, b)
                        for a in range(n) for b in range(a + 1, n))
        bounds = [tf * (abs(v[1][a]) + abs(v[1][b])) / det,
                  tf * (abs(v[0][a]) + abs(v[0][b])) / det]
    grids = [range(-int(k) - 2, int(k) + 3) for k in bounds]
    out = []
    for ks in itertools.product(*grids):
        c = tuple(sum(k * g[j] for k, g in zip(ks, kernel_gens)) for j in range(n))
        if any(c) and lat.in_sym_box(c, t):
            out.append(c)
    return out


def _golden_skew():
    base = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    u = ((1, 1), (0, 1))
    return Lattice.single_field(base.field, mat_mul(base.basis, u), base.root_index)


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 1000),
    (lambda: lattice_from_alpha(NumberField(SQRT2M1_MINPOLY).gen(), root_index=1), 1000),
    (lambda: lattice_from_alpha(cf_value([0, 1, 2, 4, 8, 16, 32, 64, 128])), 1000),
    (_golden_skew, 1000),
    (lambda: random_rational_lattice(3, 0), 30),
    (lambda: random_rational_lattice(3, 1), 30),
    (lambda: normalize_lattice([(1, 2, 0), (0, 1, 3), (5, 0, 1)]), 9),
    (lambda: random_rational_lattice(3, 1, denom_limit=7), 12),
])
def test_kernel_points_match_per_multiplier_sweep(make, t):
    from kleinsail.lattice import _kernel_rows, _row_points, _zero_coordinate_sublattice
    lat = make()
    for i in range(lat.n):
        kern = _zero_coordinate_sublattice(lat, i)
        pts = list(_row_points(*_kernel_rows(lat, kern, t)))
        assert len(pts) == len(set(pts))
        assert sorted(pts) == sorted(_sweep_kernel_points(lat, kern, t))


@pytest.mark.parametrize("rows", [
    [(10**40, 0), (0, Fraction(1, 10**40))],
    [(10**40, 0, 0), (0, Fraction(1, 10**20), 0), (0, 0, Fraction(1, 10**20))],
], ids=["rank1", "rank2"])
def test_kernel_finer_than_enclosures_is_refused(rows):
    # the kernel of x_0 = 0 meets the other axes at 10^-40 and 10^-20: below
    # the enclosures' 2^-64, the walk cannot bound it, and a box of side 2
    # would hold some 10^40 of its points
    lat = Lattice.rational(rows)
    with pytest.raises(DegenerateBasisError, match="finer than its 2"):
        irrationality_check(lat, 1)


@pytest.mark.parametrize("seed, signs", [
    pytest.param(seed, signs, id=f"{seed}-reflected" if signs[2] < 0 else f"{seed}")
    for seed in range(8) for signs in ((1, 1, 1), (1, 1, -1))])
def test_irrationality_witnesses_match_box_enumeration(seed, signs):
    # small denominators give rank-2 kernels whose generators are far from
    # orthogonal; a loose bound on the multiplier rows misses some points
    from kleinsail.normmin import enumerate_sym_box
    lat = random_rational_lattice(3, seed, denom_limit=7).reflect(signs)
    t = 12
    want = sorted(c for c in enumerate_sym_box(lat, t)
                  if any(lat.coord_sign(c, i) == 0 for i in range(3)))
    rep = irrationality_check(lat, t)
    got = rep.witnesses
    assert want and got == want
    assert rep.ok == (not got)


@pytest.mark.parametrize("seed", range(8))
def test_widened_kernel_rows_match_box_enumeration(seed, monkeypatch):
    # with every basis enclosure widened by 2^-8, the enclosures of some
    # kernel points straddle the window's sides, and the exact comparison
    # decides them; the witnesses must still be the unwidened box's
    from kleinsail.normmin import enumerate_sym_box
    t = 12
    lat = random_rational_lattice(3, seed, denom_limit=7)
    want = sorted(c for c in enumerate_sym_box(lat, t)
                  if any(lat.coord_sign(c, i) == 0 for i in range(3)))
    exact, calls = Lattice.coord_abs_lt, [0]

    def counted(*args):
        calls[0] += 1
        return exact(*args)

    monkeypatch.setattr(Lattice, "coord_abs_lt", counted)
    got = irrationality_check(widened(random_rational_lattice(3, seed, denom_limit=7), 1 << 56),
                              t).witnesses
    assert calls[0] > 0
    assert want and got == want


@pytest.mark.parametrize("make, t, ok", [
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 100, False),
    (golden_module, 100, True),
    (lambda: random_rational_lattice(3, 0), 30, True),
    (lambda: random_rational_lattice(3, 1, denom_limit=7), 12, False),
], ids=["golden", "golden-module", "rational3-0", "rational3-d7-1"])
def test_irrationality_ok_is_decided_before_the_witness_list(make, t, ok):
    # ok comes from the kernels' multiplier rows; the list is built on first read
    rep = irrationality_check(make(), t)
    assert rep._witnesses is None
    assert rep.ok is ok
    assert rep.ok == (not rep.witnesses)
    assert rep.witnesses is rep.witnesses


def test_window_1e12_patch_leaves_the_witness_list_unbuilt():
    # the golden alpha lattice has 2 * 10^12 witnesses (0, b) in Q(10^12)
    from kleinsail.sail import build_sail_patch
    lat = lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)
    rep = build_sail_patch(lat, 10**12).irrationality
    assert rep.ok is False
    assert rep._witnesses is None


def _encloses(lat, row_ivs):
    """Every scaled enclosure (lo, hi) of `row_ivs` holds its exact basis entry."""
    from kleinsail.numberfield import cmp_at
    one = 1 << 64
    return all(cmp_at(x, Fraction(lo, one), e) >= 0 and cmp_at(x, Fraction(hi, one), e) <= 0
               for row, ivs, e in zip(lat.basis, row_ivs, lat.embeddings)
               for x, (lo, hi) in zip(row, ivs))


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_cubic_field(CUBIC49_MINPOLY), 8),
    (golden_module, 60),
] + [(lambda k=k: random_rational_lattice(3, k), 8) for k in range(3)],
    ids=["cubic49", "golden-module", "rational3-0", "rational3-1", "rational3-2"])
def test_reflect_inherits_exact_caches(make, t):
    # a reflection copies its parent's enclosures, inverse and dual instead of
    # computing them again; the copies must enclose the reflected entries, and
    # the patches must be those of a lattice that computed its own
    from itertools import product
    from kleinsail.sail import build_sail_patch
    parent = make()
    parent.dual().basis_interval_matrix()
    parent.basis_interval_matrix()
    for signs in product((1, -1), repeat=parent.n):
        lat = parent.reflect(signs)
        assert lat._basis_iv is not None and lat._inv_basis is not None
        assert _encloses(lat, lat._basis_iv)
        assert _encloses(lat.dual(), lat.dual()._basis_iv)
        fresh = Lattice.from_json(lat.to_json())
        assert fresh._basis_iv is None and fresh._dual is None
        assert lat.inverse_rows() == fresh.inverse_rows()
        assert lat.dual().basis == fresh.dual().basis
        assert build_sail_patch(lat, t).to_json() == build_sail_patch(fresh, t).to_json()


@pytest.mark.parametrize("make, t", [
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 10),
    (lambda: lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1), 10**4),
    (lambda: normalize_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 5),
    (lambda: random_rational_lattice(3, 2, denom_limit=7), 12),
    (lambda: random_rational_lattice(3, 3, denom_limit=7).reflect((1, -1, 1)), 12),
    (golden_module, 100),
], ids=["golden-10", "golden-1e4", "identity", "rational3-d7-2", "rational3-d7-3-reflected",
        "golden-module"])
def test_witness_sample_and_count_read_the_rows(make, t):
    # the sample and the count come from the kernel rows, never from the
    # list; the identity and rational3-d7-3 have points on the axes, which
    # lie in two kernels and count once
    rep = irrationality_check(make(), t)
    sample, count = rep.witness_sample(64), rep.witness_count
    assert rep._witnesses is None
    assert sample == rep.witnesses[:64]
    assert count == len(rep.witnesses)
    assert rep.witness_sample(64) == sample
