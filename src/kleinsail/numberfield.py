"""Exact arithmetic in real quadratic and totally real cubic number fields.

A field is given by a monic integer polynomial of degree 2 or 3 that is
irreducible over Q and has only real roots.  Every real root is isolated in
a rational interval, so an element (a vector of rational coordinates over
the power basis) has a computable exact sign under each real embedding:
refine the isolating interval until interval evaluation of the element's
polynomial is sign-definite.  The element is exactly zero iff its coordinate
vector is zero, so the refinement loop terminates.

No floating point enters any predicate; floats appear only as search hints
for the initial root bracketing, and every bracket is verified by exact sign
changes of the polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .linalg import solve

__all__ = [
    "NumberField", "FieldElement", "NotTotallyRealError",
    "sign_at", "cmp_at", "interval_at", "float_at", "mpf_at",
]


class NotTotallyRealError(ValueError):
    """Raised when a defining polynomial has non-real roots."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _poly_eval(coeffs, x):
    # coeffs low-to-high, monic leading 1 included
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interval_mul(a_lo, a_hi, b_lo, b_hi):
    p1, p2, p3, p4 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _interval_eval(coeffs, lo, hi):
    """Interval Horner evaluation of sum(coeffs[k] * x^k) on [lo, hi]."""
    acc_lo = acc_hi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc_lo, acc_hi = _interval_mul(acc_lo, acc_hi, lo, hi)
        acc_lo += c
        acc_hi += c
    return acc_lo, acc_hi


def _is_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


class NumberField:
    """Q(theta) for theta a root of a monic integer quadratic or cubic.

    ``minpoly`` is given low-to-high without the leading 1, e.g.
    ``x^3 + x^2 - 2x - 1`` is ``(-1, -2, 1)``.  All real roots are isolated
    at construction and kept in ascending order; ``root_index`` selects the
    embedding used by single-embedding consumers.
    """

    def __init__(self, minpoly_low):
        coeffs = tuple(_as_fraction(c) for c in minpoly_low)
        self.degree = len(coeffs)
        if self.degree not in (2, 3):
            raise ValueError("only degree 2 and 3 fields are supported")
        for c in coeffs:
            if c.denominator != 1:
                raise ValueError("minimal polynomial must have integer coefficients")
        self.coeffs = coeffs + (Fraction(1),)  # monic, low-to-high
        self._check_irreducible()
        self.disc = self._discriminant()
        if self.disc <= 0:
            raise NotTotallyRealError("not totally real")
        self._roots = self._isolate_roots()
        if len(self._roots) != self.degree:
            raise NotTotallyRealError("not totally real")
        # reduction row: theta^degree = -(low coefficients)
        self._red = tuple(-c for c in coeffs)

    # -- construction checks -------------------------------------------------

    def _check_irreducible(self):
        # degree <= 3: reducible over Q iff there is a rational root, which
        # for a monic integer polynomial must be an integer dividing a0.
        a0 = int(self.coeffs[0])
        if a0 == 0:
            raise ValueError("reducible minimal polynomial (root 0)")
        if self.degree == 2:
            a1 = int(self.coeffs[1])
            if _is_square(a1 * a1 - 4 * a0):
                raise ValueError("reducible minimal polynomial")
            return
        for cand in _divisors_signed(a0):
            if _poly_eval(self.coeffs, Fraction(cand)) == 0:
                raise ValueError("reducible minimal polynomial")

    def _discriminant(self):
        if self.degree == 2:
            a0, a1 = self.coeffs[0], self.coeffs[1]
            return a1 * a1 - 4 * a0
        c, b, a = self.coeffs[0], self.coeffs[1], self.coeffs[2]
        # x^3 + a x^2 + b x + c
        return (18 * a * b * c - 4 * a**3 * c + a * a * b * b
                - 4 * b**3 - 27 * c * c)

    def _isolate_roots(self):
        # Cauchy bound, then bisect on a dyadic grid until each sign-change
        # bracket holds exactly one root (count known = degree).
        bound = 1 + max(abs(c) for c in self.coeffs[:-1])
        lo, hi = -bound, bound
        pieces = [(Fraction(lo), Fraction(hi))]
        roots = []
        # subdivide until we have `degree` sign-change brackets
        for _ in range(200):
            new = []
            roots = []
            for a, b in pieces:
                m = (a + b) / 2
                for seg in ((a, m), (m, b)):
                    fa = _poly_eval(self.coeffs, seg[0])
                    fb = _poly_eval(self.coeffs, seg[1])
                    if fa == 0 or fb == 0:
                        # nudge the grid so endpoints never sit on a root
                        seg = (seg[0] - Fraction(1, 10**9), seg[1] + Fraction(1, 10**9))
                        fa = _poly_eval(self.coeffs, seg[0])
                        fb = _poly_eval(self.coeffs, seg[1])
                    if fa * fb < 0:
                        roots.append(seg)
                    else:
                        new.append(seg)
            if len(roots) == self.degree:
                # disjointness comes free from the grid structure
                roots.sort(key=lambda ab: ab[0])
                return [list(ab) for ab in roots]
            pieces = new + roots
        return []

    # -- root interval management ---------------------------------------------

    def root_interval(self, i):
        lo, hi = self._roots[i]
        return lo, hi

    def refine_root(self, i, width=None):
        """Bisect root i's isolating interval (to `width` if given)."""
        lo, hi = self._roots[i]
        if width is not None and hi - lo <= width:
            return lo, hi
        flo = _poly_eval(self.coeffs, lo)
        while width is None or hi - lo > width:
            mid = (lo + hi) / 2
            fm = _poly_eval(self.coeffs, mid)
            if fm == 0:
                # rational midpoint cannot be a root (irreducible); nudge
                mid += (hi - lo) / 4
                fm = _poly_eval(self.coeffs, mid)
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if width is None:
                break
        self._roots[i] = [lo, hi]
        return lo, hi

    def root_float(self, i):
        lo, hi = self.refine_root(i, Fraction(1, 10**17))
        return float((lo + hi) / 2)

    # -- elements --------------------------------------------------------------

    def element(self, vec):
        vec = tuple(_as_fraction(v) for v in vec)
        if len(vec) > self.degree:
            raise ValueError("coordinate vector too long")
        vec = vec + (Fraction(0),) * (self.degree - len(vec))
        return FieldElement(self, vec)

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def gen(self):
        return self.element((0, 1))

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "minpoly": [str(c) for c in self.coeffs[:-1]],
            "root_intervals": [[str(lo), str(hi)] for lo, hi in self._roots],
        }

    @classmethod
    def from_json(cls, data):
        return cls([Fraction(c) for c in data["minpoly"]])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c)
        return f"NumberField({terms})"


def _divisors_signed(n):
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.extend((d, -d, n // d, -(n // d)))
    return out


class FieldElement:
    """An element of a NumberField, exact coordinates over the power basis."""

    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec

    # -- ring operations ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element((_as_fraction(other),))

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.vec, o.vec)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.vec))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.vec):
            if not a:
                continue
            for j, b in enumerate(o.vec):
                if b:
                    prod[i + j] += a * b
        red = self.field._red
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for j, r in enumerate(red):
                    prod[k - d + j] += c * r
        return FieldElement(self.field, tuple(prod[:d]))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        # self * y = 1 is the linear system M y = e_0, M = self.mul_matrix()
        e0 = (Fraction(1),) + (Fraction(0),) * (self.field.degree - 1)
        return FieldElement(self.field, solve(self.mul_matrix(), e0))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.vec == o.vec

    def __hash__(self):
        return hash((self.field, self.vec))

    def is_zero(self):
        return all(v == 0 for v in self.vec)

    def is_rational(self):
        return all(v == 0 for v in self.vec[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.vec[0]

    # -- norms and traces ---------------------------------------------------------

    def mul_matrix(self):
        """Matrix of multiplication by self over the power basis (rows)."""
        d = self.field.degree
        rows = []
        basis_img = []
        e = self.field.one()
        for _ in range(d):
            basis_img.append(e * self)
            e = e * self.field.gen()
        for j in range(d):
            rows.append(basis_img[j].vec)
        # rows[j] = coordinates of self * theta^j; the matrix acting on
        # column coordinate vectors has these as columns.
        return [tuple(rows[j][i] for j in range(d)) for i in range(d)]

    def norm(self):
        m = self.mul_matrix()
        d = self.field.degree
        if d == 2:
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def trace(self):
        m = self.mul_matrix()
        return sum(m[i][i] for i in range(self.field.degree))

    # -- exact sign determination ----------------------------------------------

    def sign_at(self, root_index):
        """Exact sign of the element under embedding `root_index`."""
        if self.is_zero():
            return 0
        if self.is_rational():
            v = self.vec[0]
            return (v > 0) - (v < 0)
        fld = self.field
        for _ in range(20000):
            lo, hi = fld.root_interval(root_index)
            vlo, vhi = _interval_eval(self.vec, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            fld.refine_root(root_index)
        raise RuntimeError("sign determination did not converge")

    def cmp_at(self, root_index, other):
        return (self - self._coerce(other)).sign_at(root_index)

    def floor_at(self, root_index):
        """Exact floor of the embedding value."""
        lo, hi = self.field.refine_root(root_index, Fraction(1, 2**40))
        vlo, vhi = _interval_eval(self.vec, lo, hi)
        guess = int(vlo) - 2
        while self.cmp_at(root_index, guess + 1) >= 0:
            guess += 1
        return guess

    def to_mpf_at(self, root_index, prec=113):
        """High-precision float of the embedding value (diagnostics only)."""
        import mpmath

        width = Fraction(1, 2 ** (prec + 16))
        lo, hi = self.field.refine_root(root_index, width)
        mid = (lo + hi) / 2
        with mpmath.workprec(prec):
            x = mpmath.mpf(mid.numerator) / mpmath.mpf(mid.denominator)
            acc = mpmath.mpf(0)
            for c in reversed(self.vec):
                acc = acc * x + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            return acc

    def interval_at(self, root_index, width=None):
        """A rational interval certainly containing the embedding value."""
        if width is not None:
            self.field.refine_root(root_index, width)
        lo, hi = self.field.root_interval(root_index)
        return _interval_eval(self.vec, lo, hi)

    def __repr__(self):
        return f"FieldElement{self.vec}"


# -- ordered scalars ------------------------------------------------------------
#
# A lattice coordinate is a Fraction, or a FieldElement read under one real
# embedding.  These operations take both, with the embedding index `e`
# (ignored for a Fraction), so callers never ask which one they hold.

def sign_at(x, e):
    """Exact sign of x (under embedding e)."""
    if isinstance(x, FieldElement):
        return x.sign_at(e)
    return (x > 0) - (x < 0)


def cmp_at(a, b, e):
    """Exact sign of a - b (under embedding e)."""
    return sign_at(a - b, e)


def interval_at(x, e, width=None):
    """A rational interval certainly containing x (under embedding e)."""
    if isinstance(x, FieldElement):
        return x.interval_at(e, width)
    return (x, x)


def float_at(x, e):
    """Float value of x (under embedding e); search hints only."""
    if isinstance(x, FieldElement):
        return float(x.to_mpf_at(e, 60))
    return float(x)


def mpf_at(x, e, prec=113):
    """mpmath value of x (under embedding e) at `prec` bits; diagnostics only."""
    if isinstance(x, FieldElement):
        return x.to_mpf_at(e, prec)
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
