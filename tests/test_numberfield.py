from fractions import Fraction

import pytest

from kleinsail.numberfield import NotTotallyRealError, NumberField, cmp_at


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
    vals = [float(CUBIC49.gen().to_mpf_at(i)) for i in range(3)]
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
    assert cmp_at(golden, Fraction(1, 2), 1) == 1
    assert cmp_at(golden, 1, 1) == -1
    lo, hi = golden.interval_at(1, Fraction(1, 10**12))
    assert lo <= Fraction(618034, 1000000) <= hi or (hi - lo) < Fraction(1, 10**10)


def test_to_mpf():
    import mpmath

    v = SQRT2M1.gen().to_mpf_at(1, prec=100)  # root -1 + sqrt2 = 0.41421...
    with mpmath.workprec(100):
        assert abs(v - (mpmath.sqrt(2) - 1)) < mpmath.mpf(2) ** -90


def _high_level_mpf_at(x, e, prec):
    # mpmath's mpf arithmetic under workprec: Horner's rule at the root
    # bracket's midpoint for a field element, one division for a Fraction
    import mpmath

    def quotient(q):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

    with mpmath.workprec(prec):
        if isinstance(x, Fraction):
            return quotient(x)
        lo, hi = x.field.refine_root(e, Fraction(1, 2 ** (prec + 16)))
        mid = quotient((lo + hi) / 2)
        acc = mpmath.mpf(0)
        for c in reversed(x.vec):
            acc = acc * mid + quotient(c)
        return acc


@pytest.mark.parametrize("prec", [60, 113, 200])
def test_mpf_at_matches_high_level_horner(prec):
    # bit for bit the high-level values, on operands longer than prec bits
    # (numerator and denominator each rounded) and on field elements
    import random

    from kleinsail.numberfield import mpf_at

    rng = random.Random(prec)
    long_q = [Fraction(rng.getrandbits(prec + 40) | 1, rng.getrandbits(prec + 30) | 1)
              * rng.choice((1, -1)) for _ in range(40)]
    long_q += [Fraction((1 << (prec + 5)) + 1, 3), Fraction(-7, (1 << (prec + 9)) - 1),
               Fraction(0), Fraction(5)]
    cases = [(q, 0) for q in long_q]
    for fld in (CUBIC49, GOLDEN):
        elems = [fld.gen(), fld.one(), fld.gen() * fld.gen() - 3]
        elems += [fld.element([rng.choice(long_q) for _ in range(fld.degree)]) for _ in range(8)]
        cases += [(x, e) for x in elems for e in range(fld.degree)]
    for x, e in cases:
        want = _high_level_mpf_at(x, e, prec)
        got = mpf_at(x, e, prec)
        assert type(got) is type(want)
        assert got._mpf_ == want._mpf_


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
    # half the current width bisects once
    lo, hi = fld.refine_root(2, (want[1] - want[0]) / 2)
    assert len(calls) == 2 and hi - lo == (want[1] - want[0]) / 2


@pytest.mark.parametrize("field", [GOLDEN, SQRT2M1, CUBIC49], ids=["golden", "sqrt2m1", "cubic49"])
def test_rational_scalar_product_matches_field_product(field):
    vecs = [(1,), (0, 1), (Fraction(-3, 7), 2, 5), (5, Fraction(1, 3), -2), (0, 0, Fraction(9, 4))]
    for vec in vecs:
        x = field.element(vec[:field.degree])
        for k in (0, 1, -1, 7, -12, 10**20, Fraction(-5, 4), Fraction(2, 9)):
            want = x * field.element((k,))
            for got in (x * k, k * x):
                assert got == want
                assert all(isinstance(v, Fraction) for v in got.vec)


def _isolate_by_halving_every_piece(coeffs):
    """Reference root isolation: halve every piece of the dyadic grid on
    [-bound, bound] at each depth, until exactly `degree` halves show a sign
    change; those are the brackets."""
    from kleinsail.numberfield import _poly_eval

    poly = tuple(Fraction(c) for c in coeffs) + (Fraction(1),)
    bound = 1 + max(abs(c) for c in poly[:-1])
    pieces = [(Fraction(-bound), Fraction(bound))]
    while True:
        new, roots = [], []
        for a, b in pieces:
            m = (a + b) / 2
            for seg in ((a, m), (m, b)):
                if _poly_eval(poly, seg[0]) * _poly_eval(poly, seg[1]) < 0:
                    roots.append(seg)
                else:
                    new.append(seg)
        if len(roots) == len(coeffs):
            return [list(ab) for ab in sorted(roots)]
        pieces = new + roots


def _minpoly_m(m):
    """x^2 + (2m + 1) x + m^2 + m - 1: discriminant 5, roots about 2.24
    apart near -m, far inside a Cauchy bound of about m^2."""
    return (m * m + m - 1, 2 * m + 1)


@pytest.mark.parametrize("minpoly", [
    (-1, 1), (-1, 2), (-1, -2, 1), (1, -3, -1), (-1, -3, 0), _minpoly_m(10), _minpoly_m(100),
], ids=["golden", "sqrt2m1", "cubic49", "cubic-1-3-1", "cubic-1-3-0", "m10", "m100"])
def test_root_brackets_equal_halving_every_piece(minpoly):
    fld = NumberField(minpoly)
    assert [fld.root_interval(i) for i in range(fld.degree)] == [
        tuple(ab) for ab in _isolate_by_halving_every_piece(minpoly)]


def test_root_isolation_splits_only_pieces_holding_a_root(monkeypatch):
    # halving every piece took 32,764 evaluations here, and 2^20 at m = 1000
    import kleinsail.numberfield as nf

    calls = []
    poly_eval = nf._poly_eval

    def counted(coeffs, x):
        calls.append(x)
        return poly_eval(coeffs, x)

    monkeypatch.setattr(nf, "_poly_eval", counted)
    NumberField(_minpoly_m(100))
    assert 0 < len(calls) < 1000
