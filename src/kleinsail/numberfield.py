"""Exact arithmetic in real quadratic and totally real cubic number fields.

A field is given by a monic integer polynomial of degree 2 or 3 that is
irreducible over Q and has only real roots.  Every real root is isolated in
a rational interval, so an element (a vector of rational coordinates over
the power basis) has a computable exact sign under each real embedding:
refine the isolating interval until interval evaluation of the element's
polynomial is sign-definite.  The element is exactly zero iff its coordinate
vector is zero, so the refinement loop terminates.

No float enters this module: roots are bracketed on a dyadic grid by exact
Sturm counts, and refined by exact sign changes.  A lattice reads its scalars once, as
certified integer enclosures of its basis (`interval_at`); the only floats
downstream are the log plane's, which is diagnostic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .linalg import det, solve

__all__ = [
    "NumberField", "FieldElement", "NotTotallyRealError",
    "sign_at", "cmp_at", "interval_at", "mpf_at",
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
        """Isolating intervals of the real roots, ascending: the halves of the
        dyadic grid on [-bound, bound] (Cauchy bound) at the first depth where
        each root has its own.  Each depth splits only the intervals that a
        Sturm count shows to hold a root; no grid point is a root, as the
        polynomial is irreducible."""
        bound = Fraction(1 + max(abs(c) for c in self.coeffs[:-1]))
        chain = _sturm_chain(self.coeffs)
        changes = {}

        def sign_changes(x):
            if x not in changes:
                signs = [v > 0 for v in (_poly_eval(p, x) for p in chain) if v]
                changes[x] = sum(a != b for a, b in zip(signs, signs[1:]))
            return changes[x]

        if sign_changes(-bound) - sign_changes(bound) != self.degree:
            raise NotTotallyRealError("not totally real")
        pieces = [(-bound, bound)]
        while len(pieces) < self.degree:
            halves = []
            for a, b in pieces:
                m = (a + b) / 2
                halves += [(lo, hi) for lo, hi in ((a, m), (m, b))
                           if sign_changes(lo) > sign_changes(hi)]
            pieces = halves
        return [list(ab) for ab in pieces]

    # -- root interval management ---------------------------------------------

    def root_interval(self, i):
        lo, hi = self._roots[i]
        return lo, hi

    def refine_root(self, i, width):
        """Bisect root i's isolating interval to `width` or less."""
        lo, hi = self._roots[i]
        if hi - lo <= width:
            return lo, hi
        flo = _poly_eval(self.coeffs, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            fm = _poly_eval(self.coeffs, mid)  # never 0: the polynomial is irreducible
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        self._roots[i] = [lo, hi]
        return lo, hi

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

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c)
        return f"NumberField({terms})"


def _sturm_chain(coeffs):
    """The Sturm sequence of a squarefree polynomial (coefficients low to
    high): p, p', then each next term the negated remainder of the two
    before, down to a constant.  The number of real roots in (a, b] is the
    drop in sign changes along the sequence from a to b."""
    chain = [tuple(coeffs), tuple(k * c for k, c in enumerate(coeffs))[1:]]
    while len(chain[-1]) > 1:
        rem = list(chain[-2])
        top = chain[-1]
        while len(rem) >= len(top):
            q = rem[-1] / top[-1]
            for k, c in enumerate(top, len(rem) - len(top)):
                rem[k] -= q * c
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        chain.append(tuple(-c for c in rem))
    return chain


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
        if isinstance(other, (int, Fraction)):  # a rational scales the coordinates
            return FieldElement(self.field, tuple(a * other for a in self.vec))
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
        return det(self.mul_matrix())

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
            fld.refine_root(root_index, (hi - lo) / 2)
        raise RuntimeError("sign determination did not converge")

    def floor_at(self, root_index):
        """Exact floor of the embedding value."""
        lo, hi = self.field.refine_root(root_index, Fraction(1, 2**40))
        vlo, vhi = _interval_eval(self.vec, lo, hi)
        guess = int(vlo) - 2
        while cmp_at(self, guess + 1, root_index) >= 0:
            guess += 1
        return guess

    def to_mpf_at(self, root_index, prec=113):
        """High-precision float of the embedding value (diagnostics only).

        Horner's rule at the midpoint of a root bracket of width
        2^-(prec + 16), on mpmath's raw layer: every integer, quotient,
        product and sum is rounded to nearest at `prec` bits, the roundings
        mpmath's `mpf` arithmetic makes under `workprec(prec)`."""
        import mpmath
        from mpmath.libmp import fzero, mpf_add, mpf_mul

        width = Fraction(1, 2 ** (prec + 16))
        lo, hi = self.field.refine_root(root_index, width)
        x = _raw_fraction((lo + hi) / 2, prec)
        acc = fzero
        for c in reversed(self.vec):
            acc = mpf_add(mpf_mul(acc, x, prec, "n"), _raw_fraction(c, prec), prec, "n")
        return mpmath.mp.make_mpf(acc)

    def interval_at(self, root_index, width):
        """A rational interval certainly containing the embedding value, read
        on a root bracket refined to `width`."""
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


def interval_at(x, e, width):
    """A rational interval certainly containing x (under embedding e), read on
    a root bracket of width at most `width`."""
    if isinstance(x, FieldElement):
        return x.interval_at(e, width)
    return (x, x)


def mpf_at(x, e, prec=113):
    """mpmath value of x (under embedding e) at `prec` bits; diagnostics only."""
    if isinstance(x, FieldElement):
        return x.to_mpf_at(e, prec)
    import mpmath

    return mpmath.mp.make_mpf(_raw_fraction(x, prec))


def _raw_fraction(q, prec):
    """Raw mpf of q's numerator over its denominator, each rounded to nearest
    at `prec` bits, and then their quotient."""
    from mpmath.libmp import from_int, mpf_div

    return mpf_div(from_int(q.numerator, prec, "n"), from_int(q.denominator, prec, "n"),
                   prec, "n")
