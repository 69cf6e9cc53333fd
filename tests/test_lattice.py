from fractions import Fraction

import pytest

from kleinsail.contfrac import cf_value
from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, SQRT2M1_MINPOLY, DegenerateBasisError, Lattice,
    OrthantSign, dual_lattice, evaluate_phi, irrationality_check, lattice_from_alpha,
    lattice_from_cubic_field, normalize_lattice, orthant_reflect,
    random_rational_lattice,
)
from kleinsail.linalg import det, mat_mul, transpose
from kleinsail.numberfield import NumberField


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
        dd = dual_lattice(dual_lattice(lat))
        assert dd.basis == lat.basis


def test_dual_2d_alpha_example():
    alpha = Fraction(2, 7)
    lat = lattice_from_alpha(alpha)
    dual = dual_lattice(lat)
    # dual basis columns are (1, 0) and (alpha - 1, 1)
    cols = transpose(dual.basis)
    assert cols[0] == (1, 0)
    assert cols[1] == (alpha - 1, 1)


def test_dual_pairing_is_identity():
    lat = random_rational_lattice(3, 11)
    dual = dual_lattice(lat)
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
    same = orthant_reflect(lat, OrthantSign((1, 1, 1)))
    assert same.basis == lat.basis
    refl = orthant_reflect(lat, OrthantSign((1, -1, 1)))
    assert abs(det(refl.basis)) == abs(det(lat.basis))


def test_orthant_sign_validation():
    with pytest.raises(ValueError):
        OrthantSign((1, 0))


def test_evaluate_phi_trivials():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert evaluate_phi(lat.point((1, 1))) == 1
    assert evaluate_phi([Fraction(2), Fraction(1, 2)]) == 1
    assert evaluate_phi(lat.point((0, 5))) == 0


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

    quad = Lattice.module(fld, [fld.one(), fld.gen()])
    doc = quad.to_json()
    assert doc["field"]["kind"] == "quadratic-embedding"
    back = Lattice.from_json(doc)
    assert back.kind == "embedding" and back.scale_d_sq == 5
    assert [g.vec for g in back.gens] == [g.vec for g in quad.gens]
    assert back.to_json() == doc


def test_random_lattice_reproducible():
    a = random_rational_lattice(3, 42)
    b = random_rational_lattice(3, 42)
    assert a.basis == b.basis
    assert a.seed == 42


def test_support_normal_signs_rational():
    lat = normalize_lattice([(1, 0), (0, 1)])
    assert lat.support_normal_signs((1, 1)) == (1, 1)
    assert lat.support_normal_signs((1, -1)) == (1, -1)


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
    """Reference: one exact in_sym_box test per multiplier of a float-bounded box."""
    if not kernel_gens:
        return []
    n = lat.n
    fb = lat.basis_float()
    tf = float(lat.raw_window_enclosure(t)) * 1.01 + 1e-9
    bounds = [max(1, int(tf / max(1e-12, max(abs(sum(fb[i][j] * g[j] for j in range(n)))
                                            for i in range(n)))) + 2)
              for g in kernel_gens]
    grids = [range(-b, b + 1) for b in bounds]
    ks_list = ([(k,) for k in grids[0]] if len(kernel_gens) == 1
               else [(k1, k2) for k1 in grids[0] for k2 in grids[1]])
    out = []
    for ks in ks_list:
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
])
def test_kernel_points_match_per_multiplier_sweep(make, t):
    from kleinsail.lattice import _kernel_points_in_box, _zero_coordinate_sublattice
    lat = make()
    for i in range(lat.n):
        kern = _zero_coordinate_sublattice(lat, i)
        pts = _kernel_points_in_box(lat, kern, t)
        assert len(pts) == len(set(pts))
        assert sorted(pts) == sorted(_sweep_kernel_points(lat, kern, t))


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_irrationality_witnesses_match_box_enumeration(seed):
    # small denominators give rank-2 kernels whose generators are far from
    # orthogonal; a float-bounded multiplier box misses some of their points
    from kleinsail.normmin import enumerate_sym_box
    lat = random_rational_lattice(3, seed, denom_limit=7)
    t = 12
    want = sorted(c for c in enumerate_sym_box(lat, t)
                  if any(lat.coord_sign(c, i) == 0 for i in range(3)))
    got = irrationality_check(lat, t).witnesses
    assert want and got == want
