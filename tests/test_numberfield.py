from fractions import Fraction

import pytest

from kleinsail.numberfield import FieldElement, NotTotallyRealError, NumberField


GOLDEN = NumberField((-1, 1))      # x^2 + x - 1, roots (-1 +- sqrt5)/2
SQRT2M1 = NumberField((-1, 2))     # x^2 + 2x - 1, roots -1 +- sqrt2
CUBIC49 = NumberField((-1, -2, 1))  # x^3 + x^2 - 2x - 1, theta = 2cos(2pi/7)


def test_root_isolation_counts_and_order():
    assert GOLDEN.degree == 2
    ivs = [GOLDEN.root_interval(i) for i in range(2)]
    assert ivs[0][1] <= ivs[1][0]
    # positive root is the golden-ratio conjugate 0.618...
    lo, hi = GOLDEN.refine_root(1, Fraction(1, 10**6))
    assert Fraction(61, 100) < lo < hi < Fraction(62, 100)


def test_cubic_roots_match_known_values():
    vals = [CUBIC49.root_float(i) for i in range(3)]
    known = [-1.8019377358, -0.4450418679, 1.2469796037]
    for v, k in zip(vals, known):
        assert abs(v - k) < 1e-9


def test_not_totally_real_rejected():
    with pytest.raises(NotTotallyRealError):
        NumberField((-2, 0, 0))  # x^3 - 2 has one real root


def test_reducible_rejected():
    with pytest.raises(ValueError):
        NumberField((-4, 0))  # x^2 - 4
    with pytest.raises(ValueError):
        NumberField((1, 3, 3))  # (x+1)^3


def test_arithmetic_against_minimal_polynomial():
    th = CUBIC49.gen()
    # theta^3 + theta^2 - 2 theta - 1 = 0
    val = th**3 + th**2 - 2 * th - 1
    assert val.is_zero()


def test_inverse_and_division():
    for fld in (GOLDEN, SQRT2M1, CUBIC49):
        th = fld.gen()
        for x in (th**2 - th + 3, th, 3 * th - Fraction(1, 2), fld.element((Fraction(-2, 7),))):
            assert (x * x.inverse()) == fld.one()
            assert (x / x) == fld.one()


def test_norm_of_unit_is_one():
    th = CUBIC49.gen()
    assert th.norm() == 1          # product of roots = 1
    assert (th**2).norm() == 1
    assert CUBIC49.one().norm() == 1
    assert CUBIC49.element((2,)).norm() == 8


def test_trace():
    th = CUBIC49.gen()
    assert th.trace() == -1        # sum of roots = -a2


def test_sign_determination_all_embeddings():
    th = CUBIC49.gen()
    signs = [th.sign_at(i) for i in range(3)]
    assert signs == [-1, -1, 1]
    sq = th * th
    assert [sq.sign_at(i) for i in range(3)] == [1, 1, 1]  # totally positive
    assert CUBIC49.zero().sign_at(0) == 0


def test_floor_at():
    th = CUBIC49.gen()
    assert th.floor_at(2) == 1     # 1.2469...
    assert th.floor_at(0) == -2    # -1.8019...
    assert (th * 10).floor_at(1) == -5  # -4.4504...


def test_cmp_and_interval():
    golden = GOLDEN.gen()  # at embedding 1: 0.6180...
    assert golden.cmp_at(1, Fraction(1, 2)) == 1
    assert golden.cmp_at(1, 1) == -1
    lo, hi = golden.interval_at(1, Fraction(1, 10**12))
    assert lo <= Fraction(618034, 1000000) <= hi or (hi - lo) < Fraction(1, 10**10)


def test_to_mpf():
    import mpmath

    v = SQRT2M1.gen().to_mpf_at(1, prec=100)  # root -1 + sqrt2 = 0.41421...
    with mpmath.workprec(100):
        assert abs(v - (mpmath.sqrt(2) - 1)) < mpmath.mpf(2) ** -90


def test_quadratic_subcase_golden_value():
    # positive root of x^2 + x - 1 is (sqrt5 - 1)/2
    g = GOLDEN.gen()
    val = g * g + g - 1
    assert val.is_zero()
    assert g.sign_at(1) == 1
    assert (1 - g).sign_at(1) == 1  # inside (0, 1)


def test_refine_root_returns_narrow_interval_without_evaluating(monkeypatch):
    import kleinsail.numberfield as nf

    fld = NumberField((-1, -2, 1))
    want = fld.refine_root(2, Fraction(1, 2**40))
    calls = []
    poly_eval = nf._poly_eval

    def counted(coeffs, x):
        calls.append(x)
        return poly_eval(coeffs, x)

    monkeypatch.setattr(nf, "_poly_eval", counted)
    assert fld.refine_root(2, Fraction(1, 2**30)) == want
    assert fld.refine_root(2, want[1] - want[0]) == want
    assert calls == []
    # a single step (no width) still bisects once
    lo, hi = fld.refine_root(2)
    assert calls and hi - lo == (want[1] - want[0]) / 2
