"""Unimodular lattices with exact coordinates.

A lattice is one n x n basis over one scalar ring: Fractions for a lattice
over Q, elements of one real quadratic or cubic field otherwise.  Row i is
ambient coordinate i, read under its own real embedding ``embeddings[i]``
(None over Q); an orthant reflection multiplies rows by +-1.  Every exact
predicate reads its scalars through the ordered-scalar operations of
`numberfield` (sign, compare, interval), whatever the ring.

The one numeric view of a lattice is the certified integer enclosure of its
basis at scale 2^64, cached once per lattice; the inverse basis is the
dual's.  A predicate decides on the enclosure, and exactly only where it
straddles 0.  Every search bound is an integer pair at that scale: a window
side (`raw_window_interval`), the boxes of the enumerator's scans and the
kernel rows of `irrationality_check`.  `_narrowed` is the one routine that
narrows a multiplier range on such bounds, and `_box_filter` the one test of
membership in a window or box: every scan of `sail` and `normmin`, the
kernel rows, the 2D sail walk and `detect_periodicity` decide by it.  No
float decides anything here: the only floats are the random draws of
`random_rational_lattice`, made exact convergents at once.

Only two decisions depend on how the rows relate, and both read it from the
data:

* all rows under one embedding (Q, or a field lattice such as the
  Klein-polygon lattice of a quadratic irrational): the inverse basis is the
  matrix inverse, and phi is the product of the coordinates;
* row i under embedding i, every row +- the same generators g_j (the lattice
  of a module in a totally real field): the inverse basis comes from the
  trace-dual generators, and phi is a signed norm over the determinant.

Determinant-one normalization never introduces irrational basis entries.
When |det| has a rational n-th root the basis is rescaled in place;
otherwise the raw basis is kept and the exact determinant ``d`` is tracked,
with window bounds and phi values rescaled through exact power comparisons
(the lattice behaves as ``d**(-1/n)`` times the raw basis).  Window bounds
``T`` are always in normalized coordinates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import combinations, groupby, islice
from math import ceil, floor, isqrt, lcm

from .linalg import (
    det, mat_inverse, mat_mul, primitive_int_vector, transpose, unimodular_completion, vec_dot,
)
from .numberfield import (
    FieldElement, NumberField, _as_fraction, cmp_at, interval_at, sign_at,
)

__all__ = [
    "Lattice", "OrthantSign", "DegenerateBasisError", "normalize_lattice",
    "lattice_from_alpha", "lattice_from_cubic_field", "irrationality_check",
    "IrrationalityReport", "random_rational_lattice",
    "GOLDEN_MINPOLY", "SQRT2M1_MINPOLY", "CUBIC49_MINPOLY",
]

GOLDEN_MINPOLY = (-1, 1)      # x^2 + x - 1; positive root (sqrt5 - 1)/2
SQRT2M1_MINPOLY = (-1, 2)     # x^2 + 2x - 1; positive root sqrt2 - 1
CUBIC49_MINPOLY = (-1, -2, 1)  # x^3 + x^2 - 2x - 1; theta = 2cos(2pi/7), disc 49

LATTICE_SCHEMA = "kleinsail.lattice/1"

_ENUM_SHIFT = 64  # fixed-point scale of the certified integer enclosures
_SCALE = 1 << _ENUM_SHIFT


class DegenerateBasisError(ValueError):
    pass


def _iroot(m, n):
    """Floor of the n-th root of an integer m >= 0, in integers."""
    if m < 2:
        return m
    if n == 2:
        return isqrt(m)
    x = 1 << -(-m.bit_length() // n)   # above the root; Newton steps descend
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _root_bounds(q_lo, q_hi, k, shift):
    """Integers (lo, hi) with lo <= 2^shift * q^(1/k) <= hi for every q in
    the rational interval [q_lo, q_hi], q_hi >= 0: the floor of the root's
    lower end and the ceiling of its upper end, in integers."""
    scale = 1 << (k * shift)
    lo = _iroot(max(0, floor(q_lo * scale)), k)
    m = q_hi * scale
    hi = _iroot(ceil(m), k)
    return lo, hi if hi ** k >= m else hi + 1


def _scale_out(lo, hi):
    """A rational interval as integers (a, b), a <= 2^64 lo and 2^64 hi <= b:
    scaled by 2^_ENUM_SHIFT and rounded outward."""
    return floor(lo * _SCALE), ceil(hi * _SCALE)


def _iv_dot(ivs, ks):
    """Enclosure of sum_j ivs[j] * ks[j] for exact rationals ks (integers
    mostly): the interval ends pair with each k by its sign."""
    lo = hi = 0
    for (a, b), k in zip(ivs, ks):
        if k >= 0:
            lo, hi = lo + a * k, hi + b * k
        else:
            lo, hi = lo + b * k, hi + a * k
    return (lo, hi)


def _iv_minor(a, b, c, d):
    """Enclosure of the 2 x 2 minor a b - c d of the enclosures a, b, c, d."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    q = (c[0] * d[0], c[0] * d[1], c[1] * d[0], c[1] * d[1])
    return min(p) - max(q), max(p) - min(q)


def _shifted(partial, col, m):
    """The enclosures `partial` plus m times the column enclosures `col`."""
    if m >= 0:
        return [(plo + elo * m, phi + ehi * m) for (plo, phi), (elo, ehi) in zip(partial, col)]
    return [(plo + ehi * m, phi + elo * m) for (plo, phi), (elo, ehi) in zip(partial, col)]


def _narrowed(lo, hi, bounds, partial):
    """[lo, hi] narrowed to the integers m for which every row of `bounds`
    can still meet its box: for (i, elo, ehi, lo_res, hi_res) there, the
    enclosure [elo, ehi] of the row's column holds no 0, and [lo_res, hi_res]
    less row i's `partial` encloses what the row's term in m may take.

    This is the one routine that narrows a multiplier range: every level of
    the enumerator's scans and every row of `_kernel_rows` call it."""
    for i, elo, ehi, lo_res, hi_res in bounds:
        plo, phi = partial[i]
        lo_res -= phi
        hi_res -= plo
        # ceilings inline, as -(-a // b): this runs for every line scanned
        if elo > 0:
            cand_lo = -(-lo_res // ehi) if lo_res > 0 else -(-lo_res // elo)
            cand_hi = hi_res // elo if hi_res > 0 else hi_res // ehi
        else:
            cand_lo = -(-hi_res // ehi) if hi_res > 0 else -(-hi_res // elo)
            cand_hi = lo_res // elo if lo_res > 0 else lo_res // ehi
        if cand_lo > lo:
            lo = cand_lo
        if cand_hi < hi:
            hi = cand_hi
    return lo, hi


def _box_filter(lat, bounds, min_sign):
    """The one leaf filter of every window or box membership: c != 0, and
    for every coordinate i, sign(x_i) >= min_sign and, where bounds[i] is
    given, |x_i| < b_i.  Every `_enumerate_core` scan, the kernel rows of
    `irrationality_check`, the 2D sail walk and `detect_periodicity` decide
    by it.

    min_sign -1 allows any sign, 0 is the closed orthant and 1 the open one.
    bounds[i] = (lo, hi, below): lo <= 2^64 b_i <= hi certainly, and
    below(c, i) decides |x_i| < b_i exactly.  Each condition is decided on
    the leaf's enclosure of x_i; the exact sign and `below` run only where
    that enclosure straddles 0 or the bound.
    """
    n = lat.n

    def filt(c, partial):
        if not any(c):
            return False
        for i in range(n):
            lo, hi = partial[i]
            # [lo, hi] encloses 2^64 x_i in integers: lo >= min_sign proves
            # sign(x_i) >= min_sign, and hi < min_sign refutes it
            if min_sign >= 0 and lo < min_sign and (
                    hi < min_sign or lat.coord_sign(c, i) < min_sign):
                return False
            if bounds[i] is not None:
                b_lo, b_hi, below = bounds[i]
                if (hi >= b_lo or -lo >= b_lo) and (
                        lo >= b_hi or -hi >= b_hi or not below(c, i)):
                    return False
        return True

    return filt


def _window_bounds(lat, t):
    """`_box_filter` bounds for |x_i| < t in normalized coordinates, every i."""
    t = Fraction(t)
    bound = lat.raw_window_interval(t) + (lambda c, i: lat.coord_abs_lt(c, i, t),)
    return [bound] * lat.n


def _nth_root_fraction(q, n):
    """Exact Fraction n-th root of q > 0, or None."""
    a, b = _iroot(q.numerator, n), _iroot(q.denominator, n)
    if a ** n != q.numerator or b ** n != q.denominator:
        return None
    return Fraction(a, b)


@dataclass(frozen=True)
class OrthantSign:
    """A vector of +-1 choosing one of the 2^n orthants."""

    signs: tuple

    def __post_init__(self):
        if not all(s in (1, -1) for s in self.signs):
            raise ValueError("orthant signs must be +1 or -1")

    def __iter__(self):
        return iter(self.signs)

    def __len__(self):
        return len(self.signs)


class Lattice:
    """An n-dimensional lattice normalized to determinant one (n = 2 or 3).

    `basis` holds the raw rows and `embeddings[i]` the embedding row i is
    read under.  `row_signs` records the orthant reflections applied since
    construction; a module lattice's JSON form names its orthant by them.

    Everything that depends on the lattice alone is computed on first use
    and cached here; nothing that depends on a window is.  `reflect` hands
    each filled cache to the reflected lattice as `_REFLECTED_CACHES` says:

    * `_basis_iv` (`basis_interval_matrix`): row i's enclosures negated;
    * `_inv_basis` (`inverse_rows`): column i negated;
    * `_dual` (`dual`): reflected by the same signs;
    * `_scale_root_iv` (`scale_root_interval`), `_gen_mul` (`phi_raw`):
      carried unchanged;
    * `_kernels`, the reduced coordinate kernels of `irrationality_check`:
      carried unchanged, since x_i = 0 iff -x_i = 0;
    * `_line_scan`, `_seed` and `_rays`, the plan of `sail`'s window scan
      (line vector, 2D seed pair) and closure: dropped, as they depend on
      the orthant;
    * `_reflected`, one memoized `reflect` per sign tuple: dropped.

    `_line_scan` and `_seed` also hold the most leaves one of their scans
    visited, which every later call charges against its own budget.
    """

    def __init__(self, basis, embeddings, field=None, *, scale_d_sq, row_signs=None,
                 provenance="", seed=None):
        self.basis = [tuple(r) for r in basis]
        self.n = len(self.basis)
        self.embeddings = tuple(embeddings)
        self.field = field
        self.row_signs = tuple(row_signs) if row_signs else (1,) * self.n
        # d = |det| of the raw basis: scale_d_sq = d^2 is always rational,
        # scale_d = d is its exact root, None for a module with non-square
        # discriminant.
        self.scale_d_sq = Fraction(scale_d_sq)
        self.scale_d = _nth_root_fraction(self.scale_d_sq, 2)
        self.provenance = provenance
        self.seed = seed
        self._one_embedding = len(set(self.embeddings)) == 1
        for name in _REFLECTED_CACHES:
            setattr(self, name, None)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def rational(cls, rows, **kw):
        rows = [tuple(_as_fraction(x) for x in r) for r in rows]
        d = det(rows)
        if d == 0:
            raise DegenerateBasisError("degenerate basis")
        return cls(rows, (None,) * len(rows), scale_d_sq=d * d, **kw)

    @classmethod
    def single_field(cls, field, rows, root_index, **kw):
        d = det(rows)
        if d.is_zero():
            raise DegenerateBasisError("degenerate basis")
        if not d.is_rational():
            raise DegenerateBasisError("field basis must have rational determinant")
        return cls(rows, (root_index,) * len(rows), field,
                   scale_d_sq=d.rational_value() ** 2, **kw)

    @classmethod
    def module(cls, field, gens, row_signs=None, **kw):
        n = field.degree
        gens = tuple(gens)
        if len(gens) != n:
            raise ValueError("need one generator per dimension")
        # d^2 = disc(minpoly) * det(gen coordinate matrix)^2
        h = [tuple(g.vec) for g in gens]
        dh = det(transpose(h))
        if dh == 0:
            raise DegenerateBasisError("degenerate module generators")
        signs = tuple(row_signs) if row_signs else (1,) * n
        if len(signs) != n or not all(s in (1, -1) for s in signs):
            raise ValueError("bad orthant sign vector")
        rows = [tuple(g if s > 0 else -g for g in gens) for s in signs]
        return cls(rows, range(n), field, row_signs=signs,
                   scale_d_sq=field.disc * dh * dh, **kw)

    # -- views -------------------------------------------------------------------

    @property
    def kind(self):
        """The JSON label: "rational", "field" (one embedding) or "embedding"."""
        if self.field is None:
            return "rational"
        return "field" if self._one_embedding else "embedding"

    @property
    def root_index(self):
        """The embedding every row is read under, or None (Q, or a module)."""
        return self.embeddings[0] if self._one_embedding else None

    @property
    def gens(self):
        """A module lattice's generators g_j, with row i = row_signs[i] * g;
        None when every row is read under one embedding."""
        if self._one_embedding:
            return None
        return tuple(x if self.row_signs[0] > 0 else -x for x in self.basis[0])

    @property
    def is_unit_scale(self):
        return self.scale_d == 1

    def inverse_rows(self):
        """The raw inverse basis, exact; entry [j][i] is read under row i's
        embedding.

        One shared embedding: the matrix inverse.  A module lattice: entry
        [j][i] is row_signs[i] * g*_j for the trace-dual generators g*_j
        (Tr(g_i g*_j) = delta_ij), as sum_j sigma_i(g_j) sigma_k(g*_j) =
        delta_ik.
        """
        if self._inv_basis is None:
            if self._one_embedding:
                self._inv_basis = mat_inverse(self.basis)
            else:
                self._inv_basis = [tuple(g if s > 0 else -g for s in self.row_signs)
                                   for g in self._trace_dual_gens()]
        return self._inv_basis

    def _trace_dual_gens(self):
        fld = self.field
        n = self.n
        gens = self.gens
        pow_basis = [fld.gen() ** k for k in range(n)]
        # rows: Tr(g_i * theta^k); column j of their inverse holds the power
        # basis coordinates of g*_j
        inv = mat_inverse([tuple((gens[i] * pow_basis[k]).trace() for k in range(n))
                           for i in range(n)])
        return [sum((inv[k][j] * pow_basis[k] for k in range(n)), fld.zero())
                for j in range(n)]

    # -- points ------------------------------------------------------------------

    def module_element(self, coeffs):
        """sum_j c_j g_j for a module lattice."""
        gens = self.gens
        if gens is None:
            raise ValueError("module elements exist only for module lattices")
        acc = self.field.zero()
        for c, g in zip(coeffs, gens):
            acc = acc + g * c
        return acc

    # -- exact coordinate predicates ----------------------------------------------

    def coord(self, coeffs, i):
        """Raw ambient coordinate i, exact: a scalar read under embeddings[i]."""
        row = self.basis[i]
        acc = row[0] * coeffs[0]
        for j in range(1, self.n):
            acc = acc + row[j] * coeffs[j]
        return acc

    def coord_sign(self, coeffs, i):
        """Sign of ambient coordinate i (raw = normalized sign): read off the
        cached basis enclosure, exactly only where it contains 0."""
        lo, hi = _iv_dot(self.basis_interval_matrix()[i], coeffs)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return sign_at(self.coord(coeffs, i), self.embeddings[i])

    def coord_abs_lt(self, coeffs, i, bound):
        """|normalized coordinate i| < bound, exact."""
        bound = _as_fraction(bound)
        if bound < 0:
            return False
        x, e = self.coord(coeffs, i), self.embeddings[i]
        if self.is_unit_scale:
            c = cmp_at(x if sign_at(x, e) >= 0 else -x, bound, e)
        else:
            # |x| < bound * d^(1/n)  <=>  x^(2n) < bound^(2n) * d^2
            k = 2 * self.n
            c = cmp_at(x ** k, bound ** k * self.scale_d_sq, e)
        return c < 0

    def coord_cmp_points(self, coeffs_a, coeffs_b, i):
        """Exact sign of (coordinate i of a) - (coordinate i of b)."""
        diff = tuple(x - y for x, y in zip(coeffs_a, coeffs_b))
        return self.coord_sign(diff, i)

    def in_sym_box(self, coeffs, t):
        """All normalized coordinates have |x_i| < t (the box Q(t)), exact.

        No library code calls this: `_box_filter` decides every window
        membership.  It stays as the tests' exact reference."""
        return all(self.coord_abs_lt(coeffs, i, t) for i in range(self.n))

    # -- phi -----------------------------------------------------------------------

    def phi_raw(self, coeffs):
        """Product of raw ambient coordinates, exact.

        Over one embedding, the product of the coordinate scalars.  For a
        module lattice the coordinates live in different embeddings, and
        their product is the module element's norm times the row signs: a
        rational, the determinant of the element's multiplication matrix.
        """
        if not self._one_embedding:
            # norm(sum_j c_j g_j) = det(sum_j c_j M(g_j)), as mul_matrix is
            # linear; the M(g_j) are cached as integers over one denominator
            if self._gen_mul is None:
                mats = [g.mul_matrix() for g in self.gens]
                den = lcm(*(x.denominator for m in mats for row in m for x in row))
                self._gen_mul = den, [[[int(x * den) for x in row] for row in m]
                                      for m in mats]
            den, mats = self._gen_mul
            n = self.n
            m = [[sum(c * mj[r][s] for c, mj in zip(coeffs, mats)) for s in range(n)]
                 for r in range(n)]
            sgn = 1
            for s in self.row_signs:
                sgn *= s
            return Fraction(sgn * det(m), den ** n)
        acc = self.coord(coeffs, 0)
        for i in range(1, self.n):
            acc = acc * self.coord(coeffs, i)
        return acc

    def phi(self, coeffs):
        """Normalized phi value; exact Fraction/FieldElement."""
        raw = self.phi_raw(coeffs)
        if self.scale_d is None:
            raise NotImplementedError(
                "phi is irrational for this lattice (non-square module discriminant)")
        if self.is_unit_scale:
            return raw
        return raw / self.scale_d

    def scalar_sign(self, v):
        """Exact sign of a scalar of this lattice (a phi value, a determinant);
        a FieldElement is read under the lattice's own embedding."""
        return sign_at(v, self.root_index)

    def scalar_cmp(self, a, b):
        """Exact sign of a - b for scalars of this lattice."""
        return self.scalar_sign(a - b)

    # -- functional geometry ---------------------------------------------------------

    def support_normal_signs(self, w):
        """Signs of the normalized ambient normal B^-T w, coordinatewise: the
        coordinate signs of the integer functional w in the dual lattice."""
        dual = self.dual()
        return tuple(dual.coord_sign(w, i) for i in range(self.n))

    def support_normal_product(self, w):
        """Product of the *normalized* ambient normal's coordinates, exact.

        For a coefficient functional w this is prod_i (B_norm^-T w)_i, the
        normalized phi of w in the dual lattice: the normalized
        inverse-transpose rescales each raw dual coordinate by d^(1/n), so
        the product picks up one full factor of d.
        """
        return self.dual().phi(w)

    # -- coefficient range enclosures ---------------------------------------------------

    def basis_interval_matrix(self):
        """Certified integer enclosures of the raw basis entries at scale
        2^_ENUM_SHIFT, rounded outward from root intervals of width <= 2^-96
        (cached).  The dual's are the inverse basis's, transposed: row i
        encloses column i of B^-1."""
        if self._basis_iv is None:
            width = Fraction(1, 2**96)
            self._basis_iv = tuple(
                tuple(_scale_out(*interval_at(x, e, width)) for x in row)
                for row, e in zip(self.basis, self.embeddings))
        return self._basis_iv

    def scale_root_interval(self):
        """Integers (lo, hi) with lo <= 2^128 d^(1/n) <= hi, d^(1/n) being
        (d^2)^(1/(2n)) and d^2 always rational (cached)."""
        if self._scale_root_iv is None:
            self._scale_root_iv = _root_bounds(self.scale_d_sq, self.scale_d_sq, 2 * self.n, 128)
        return self._scale_root_iv

    def raw_window_interval(self, t):
        """The certified integer enclosure (lo, hi) of 2^64 t d^(1/n), t >= 0,
        the raw side of the normalized window t: the floor and the ceiling of
        2^64 t times the ends of `scale_root_interval`."""
        t = _as_fraction(t)
        lo, hi = self.scale_root_interval()
        num, den = t.numerator, t.denominator << (128 - _ENUM_SHIFT)
        return num * lo // den, -(-num * hi // den)

    def check_orthant_preserving(self, u):
        """Raise ValueError unless c -> U c maps the closed positive orthant
        into itself.

        Over one embedding the ambient map B U B^-1 must be entrywise >= 0.
        A module lattice's off-diagonal entries mix embeddings, so there U
        must be multiplication by a totally positive element (the ambient map
        is then diagonal, its entries that element's embeddings).
        """
        n = self.n
        if self._one_embedding:
            a = mat_mul(mat_mul(self.basis, u), self.inverse_rows())
            if any(sign_at(x, self.root_index) < 0 for row in a for x in row):
                raise ValueError("map does not preserve the positive orthant")
            return
        xi = self.module_element(tuple(u[i][0] for i in range(n)))
        gens = self.gens
        mult = xi / gens[0]
        for j in range(n):
            img = self.module_element(tuple(u[i][j] for i in range(n)))
            if not (img - mult * gens[j]).is_zero():
                raise ValueError("map is not a module multiplication")
        for i in range(n):
            if mult.sign_at(i) <= 0:
                raise ValueError("multiplier is not totally positive")

    # -- transforms ------------------------------------------------------------------------

    def reflect(self, signs):
        """The lattice with ambient axis i negated where signs[i] = -1, built
        once per sign tuple (cached).

        It inherits every cache this lattice had filled when it was built,
        carried over exactly as `_REFLECTED_CACHES` says.
        """
        signs = tuple(signs)
        if len(signs) != self.n or not all(s in (1, -1) for s in signs):
            raise ValueError("bad orthant sign vector")
        if self._reflected is None:
            self._reflected = {}
        out = self._reflected.get(signs)
        if out is not None:
            return out
        rows = [tuple(x if s > 0 else -x for x in row) for s, row in zip(signs, self.basis)]
        out = Lattice(rows, self.embeddings, self.field,
                      row_signs=tuple(a * b for a, b in zip(self.row_signs, signs)),
                      scale_d_sq=self.scale_d_sq,
                      provenance=self.provenance, seed=self.seed)
        for name, carry in _REFLECTED_CACHES.items():
            value = getattr(self, name)
            if value is not None and carry is not None:
                setattr(out, name, carry(value, signs))
        self._reflected[signs] = out
        return out

    def diagonal_rescale(self, factors):
        """Rescale ambient axes by exact rationals with product 1."""
        factors = [_as_fraction(f) for f in factors]
        prod = Fraction(1)
        for f in factors:
            prod *= f
        if prod != 1:
            raise ValueError("diagonal rescale must have determinant 1")
        if not self._one_embedding:
            raise NotImplementedError("diagonal rescale keeps module lattices out of module form")
        rows = [tuple(x * f for x in row) for f, row in zip(factors, self.basis)]
        return Lattice(rows, self.embeddings, self.field, scale_d_sq=self.scale_d_sq,
                       provenance=self.provenance, seed=self.seed)

    def dual(self):
        """The dual lattice, raw basis B^-T, in the same embeddings (cached)."""
        if self._dual is None:
            self._dual = Lattice(
                transpose(self.inverse_rows()), self.embeddings, self.field,
                row_signs=self.row_signs, scale_d_sq=1 / self.scale_d_sq,
                provenance=f"dual({self.provenance})", seed=self.seed)
        return self._dual

    # -- serialization -----------------------------------------------------------------------

    def to_json(self):
        kind = self.kind
        doc = {
            "schema": LATTICE_SCHEMA,
            "dim": self.n,
            "kind": kind,
            "provenance": self.provenance,
            "seed": self.seed,
        }
        if kind == "rational":
            doc["field"] = {"kind": "rational"}
            doc["basis"] = [[str(x) for x in row] for row in self.basis]
            doc["det_scale"] = str(self.scale_d)
        elif kind == "field":
            doc["field"] = {
                "kind": "quadratic" if self.field.degree == 2 else "cubic",
                "minpoly": [str(c) for c in self.field.coeffs[:-1]],
                "root_index": self.root_index,
            }
            doc["basis"] = [[[str(c) for c in x.vec] for x in row] for row in self.basis]
            doc["det_scale"] = str(self.scale_d)
        else:
            doc["field"] = {
                "kind": ("quadratic" if self.field.degree == 2 else "cubic") + "-embedding",
                "minpoly": [str(c) for c in self.field.coeffs[:-1]],
            }
            doc["gens"] = [[str(c) for c in g.vec] for g in self.gens]
            doc["row_signs"] = list(self.row_signs)
            doc["det_scale_sq"] = str(self.scale_d_sq)
        return doc

    @classmethod
    def from_json(cls, doc):
        if doc.get("schema") != LATTICE_SCHEMA:
            raise ValueError(f"unknown lattice schema: {doc.get('schema')}")
        kind = doc["kind"]
        kw = {"provenance": doc.get("provenance", ""), "seed": doc.get("seed")}
        if kind == "rational":
            lat = cls.rational(doc["basis"], **kw)
        else:
            fld = NumberField([Fraction(c) for c in doc["field"]["minpoly"]])
            if kind == "field":
                rows = [tuple(fld.element([Fraction(c) for c in x]) for x in row)
                        for row in doc["basis"]]
                lat = cls.single_field(fld, rows, doc["field"]["root_index"], **kw)
            else:
                gens = [fld.element([Fraction(c) for c in g]) for g in doc["gens"]]
                lat = cls.module(fld, gens, row_signs=doc.get("row_signs"), **kw)
        # the scale the document records must be the rebuilt basis's
        for key, value in (("det_scale", lat.scale_d), ("det_scale_sq", lat.scale_d_sq)):
            if key in doc and Fraction(doc[key]) != value:
                raise ValueError(f"{key} {doc[key]} disagrees with the basis ({value})")
        return lat

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __repr__(self):
        return f"Lattice(kind={self.kind}, n={self.n}, provenance={self.provenance!r})"


# Every cache a Lattice fills on first use (`__init__` sets each to None),
# with its reflect rule as the `Lattice` docstring gives it: a function that
# carries a filled cache to the lattice whose ambient axis i is negated where
# signs[i] = -1, or None where the reflection drops it.
_REFLECTED_CACHES = {
    "_basis_iv": lambda iv, signs: tuple(
        row if s > 0 else tuple((-hi, -lo) for lo, hi in row) for s, row in zip(signs, iv)),
    "_inv_basis": lambda inv, signs: [
        tuple(x if s > 0 else -x for x, s in zip(row, signs)) for row in inv],
    "_dual": lambda dual, signs: dual.reflect(signs),
    "_scale_root_iv": lambda root, signs: root,
    "_gen_mul": lambda gen_mul, signs: gen_mul,
    "_kernels": lambda kernels, signs: kernels,
    "_line_scan": None,
    "_seed": None,
    "_rays": None,
    "_reflected": None,
}


# -- module-level operations -------------------------------------------------------


def normalize_lattice(raw_basis, provenance="", seed=None):
    """Scale a raw rational basis to |det| = 1.

    If |det|^(1/n) is rational the basis is rescaled exactly; otherwise the
    raw basis is kept with the determinant tracked, and all scale-sensitive
    quantities are rescaled through exact power comparisons.
    """
    rows = [tuple(_as_fraction(x) for x in row) for row in raw_basis]
    n = len(rows)
    d = det(rows)
    if d == 0:
        raise DegenerateBasisError("degenerate basis")
    root = _nth_root_fraction(abs(d), n)
    if root is not None:
        scaled = [tuple(x / root for x in row) for row in rows]
        return Lattice.rational(scaled, provenance=provenance or "rational-normalized",
                                seed=seed)
    return Lattice.rational(rows, provenance=provenance or "rational-tracked-det", seed=seed)


def lattice_from_alpha(alpha, root_index=None):
    """The Klein-polygon lattice of alpha in (0,1): columns (1, 1-alpha), (0, 1).

    A field alpha is read under the real embedding `root_index`, which it
    must name: no embedding is the default one."""
    if isinstance(alpha, FieldElement):
        fld = alpha.field
        if root_index is None:
            raise ValueError("a field alpha needs root_index, the embedding to read it under")
        if alpha.sign_at(root_index) <= 0 or (1 - alpha).sign_at(root_index) <= 0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        one, zero = fld.one(), fld.zero()
        rows = [(one, zero), (one - alpha, one)]
        return Lattice.single_field(fld, rows, root_index, provenance="from-alpha")
    a = _as_fraction(alpha)
    if not (0 < a < 1):
        raise ValueError("alpha must lie strictly between 0 and 1")
    rows = [(Fraction(1), Fraction(0)), (1 - a, Fraction(1))]
    return Lattice.rational(rows, provenance="from-alpha")


def lattice_from_cubic_field(minpoly_low):
    """Embedding lattice of Z[theta] for a totally real cubic, det tracked."""
    fld = NumberField(minpoly_low)
    if fld.degree != 3:
        raise ValueError("need a cubic minimal polynomial")
    gens = (fld.one(), fld.gen(), fld.gen() ** 2)
    return Lattice.module(fld, gens, provenance="cubic-field")


class IrrationalityReport:
    """The nonzero lattice points of the box Q(window) with a zero ambient
    coordinate.

    `ok` (there is none) is decided on the coordinate kernels' multiplier
    rows, as `_kernel_rows` gives them.  `witnesses`, the points themselves
    as sorted coefficient tuples, is built from those rows on first read and
    cached: an alpha lattice has 2T of them.  `witness_sample(k)` and
    `witness_count` read the rows without building that list.
    """

    def __init__(self, lattice, window, kernels):
        self._lattice = lattice
        self.window = window
        self._kernels = kernels  # per coordinate kernel: (generator pair, rows)
        # a row k1 = 0 runs through k2 = 0, the origin, which is no witness
        self.ok = not any(k1 or lo or hi for _, rows in kernels for k1, lo, hi in rows)
        self._witnesses = None
        self._count = None

    @property
    def witnesses(self):
        if self._witnesses is None:
            self._witnesses = sorted({c for gens, rows in self._kernels
                                      for c in _row_points(gens, rows)})
        return self._witnesses

    def witness_sample(self, k):
        """witnesses[:k], merged from the rows' increasing runs."""
        runs = [run for gens, rows in self._kernels for run in _row_runs(gens, rows)]
        return [c for c, _ in islice(groupby(merge(*runs)), k)]

    @property
    def witness_count(self):
        """len(witnesses), counted on the rows.  For n <= 3 a nonzero point
        lies in at most two coordinate kernels, and in two exactly when it
        lies on an axis (n = 3); those points are counted once more on the
        rows of each pair of kernels' intersection, and subtracted."""
        if self._count is None:
            lat, t = self._lattice, self.window
            assert lat.n <= 3, "a point of a larger lattice can lie in three kernels"
            kernels = _coordinate_kernels(lat)
            axes = [_kernel_rows(lat, _zero_coordinate_sublattice(lat, j, kernels[i]), t)
                    for i, j in combinations(range(lat.n), 2)]
            self._count = (sum(_row_count(rows) for _, rows in self._kernels)
                           - sum(_row_count(rows) for _, rows in axes))
        return self._count


def _zero_coordinate_sublattice(lat, i, kernels=None):
    """Integer kernel of 'ambient coordinate i = 0', as basis vectors; within
    the sublattice spanned by `kernels` if given.

    The coordinate sum_j B[i][j] c_j vanishes iff each of its rational
    power-basis coordinates does (a Fraction is its own single coordinate):
    intersect the integer kernels of those rows, one row at a time by
    `_intersect_kernels`, whose one integer Euclid is `unimodular_completion`'s.
    For a module lattice the generators are independent over Q, so the
    kernel is trivial.
    """
    n = lat.n
    vecs = [x.vec if isinstance(x, FieldElement) else (x,) for x in lat.basis[i]]
    if kernels is None:
        kernels = [tuple(1 if a == j else 0 for a in range(n)) for j in range(n)]
    for k in range(len(vecs[0])):
        row = [v[k] for v in vecs]
        if all(v == 0 for v in row):
            continue
        den = lcm(*(x.denominator for x in row))
        introw = [int(x * den) for x in row]
        kernels = _intersect_kernels(kernels, introw)
    return kernels


def _intersect_kernels(gens, introw):
    """Restrict a kernel lattice, given by generators, by one more integer
    row.  The combinations of the generators that the row sends to 0 are the
    integer kernel of their values' primitive vector v: with (U, U^-1) =
    `unimodular_completion(v)`, every row of U^-1 but the last is orthogonal
    to U's last column v, and together those rows span that kernel."""
    vals = [sum(r * g for r, g in zip(introw, gen)) for gen in gens]
    if not any(vals):
        return gens
    _, u_inv = unimodular_completion(primitive_int_vector(vals))
    return mat_mul(u_inv[:-1], gens)


def _coordinate_kernels(lat):
    """Per coordinate i, the generators of `_zero_coordinate_sublattice(lat,
    i)`, a rank-2 pair reduced by `_reduced_pair` (cached)."""
    if lat._kernels is None:
        lat._kernels = tuple(
            _reduced_pair(lat, gens) if len(gens) == 2 else tuple(gens)
            for gens in (_zero_coordinate_sublattice(lat, i) for i in range(lat.n)))
    return lat._kernels


def _reduced_pair(lat, gens):
    """The kernel pair `gens` Lagrange-reduced in the metric of the
    enclosure midpoints of its ambient images: |g0| <= |g1| and |g0 . g1| <=
    |g0|^2 / 2.  Such a pair is unique up to signs and ties, so the rows
    `_kernel_rows` bounds on it by Cramer's rule do not depend on which pair
    the intersections gave.  For two vectors this is LLL with Lovasz
    constant 1; `linalg.lll_reduce`'s 3/4 leaves the order of two nearly
    equal vectors open."""
    enc = lat.basis_interval_matrix()

    def image(g):
        return [sum(_iv_dot(row, g)) for row in enc]

    a, b = gens
    while True:
        ia, ib = image(a), image(b)
        if vec_dot(ib, ib) < vec_dot(ia, ia):
            a, b, ia, ib = b, a, ib, ia
        q = round(Fraction(vec_dot(ia, ib), vec_dot(ia, ia)))
        if not q:
            return a, b
        b = tuple(x - q * y for x, y in zip(b, a))


def irrationality_check(lat, t):
    """The nonzero lattice points of the box Q(t) with a zero ambient
    coordinate, as an `IrrationalityReport`.

    The zero set of each coordinate is a sublattice, so the search bounds
    the multipliers of its (at most (n-1)-dimensional) kernel directly
    instead of enumerating Q(t); the points are listed only when read.  The
    kernels are the lattice's (`_coordinate_kernels`); their rows at t are
    bounded on every call.
    """
    t = _as_fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    kernels = [_kernel_rows(lat, gens, t) for gens in _coordinate_kernels(lat)]
    return IrrationalityReport(lat, t, kernels)


_UNRESOLVED = "a coordinate kernel is finer than its 2^-64 enclosures resolve"


def _abs_lo(iv):
    """The least |x| over the interval iv = (lo, hi)."""
    lo, hi = iv
    return lo if lo > 0 else -hi if hi < 0 else 0


def _abs_hi(iv):
    """The greatest |x| over the interval iv = (lo, hi)."""
    return max(-iv[0], iv[1])


def _row_points(gens, rows):
    """The nonzero points of multiplier rows (k1, lo, hi) over the generator
    pair (g0, g1): k1 g0 + k2 g1 for lo <= k2 <= hi and, where k1 != 0,
    their negatives."""
    for run in _row_runs(gens, rows):
        yield from run


def _row_runs(gens, rows):
    """The points of `_row_points` as runs, each increasing in the
    lexicographic order: one per row (k1, lo, hi), and one for its negatives
    where k1 != 0.  Along a run the point moves by +-g1, so the run goes up
    or down k2 by the sign of that step."""
    g0, g1 = gens
    up = g1 > (0,) * len(g1)
    for k1, lo, hi in rows:
        for s in ((1, -1) if k1 else (1,)):
            k2s = range(lo, hi + 1) if up == (s > 0) else range(hi, lo - 1, -1)
            yield _run(g0, g1, k1, s, k2s)


def _run(g0, g1, k1, s, k2s):
    for k2 in k2s:
        if k1 or k2:
            yield tuple(s * (k1 * a + k2 * b) for a, b in zip(g0, g1))


def _row_count(rows):
    """The number of points `_row_points` lists for `rows`."""
    return sum((hi - lo + 1 - (k1 == 0 and lo <= 0 <= hi)) * (2 if k1 else 1)
               for k1, lo, hi in rows)


def _kernel_rows(lat, kernel_gens, t):
    """The multipliers of the kernel points inside Q(t), as (generator pair,
    rows); `_row_points` lists the points.

    Q(t) is convex and symmetric, and so are the in-box multipliers: one
    interval [-K, K] for a rank-1 kernel (g,), given as the one row (0, -K,
    K) of the pair (0, g); for rank 2, one interval of k2 per row k1, row -k1
    mirroring row k1, over the rows 0 <= k1 <= k1_top that hold a point.  K,
    k1_top and each row's interval are bounded on the generators' integer
    enclosures (scale 2^64), rounded outward: K and each row's interval by
    `_narrowed`, on the rows |x_i| < t whose enclosure of g_i (the second
    generator's, for rank 2) holds no 0.  Each such outward range is trimmed
    inward: its upper end steps down while its point lies outside Q(t), a
    row whose range empties holds no point, and then its lower end steps up.
    The inside multipliers of a row are one run, as Q(t) is convex, so the
    trimmed range is that run.  Membership is the window's `_box_filter` on
    the point's enclosures, exact only where one of them straddles +-t.  A
    kernel the enclosures cannot resolve -- every coordinate enclosure of a
    rank-1 generator, or every 2 x 2 determinant enclosure of a rank-2 pair,
    holds 0 -- is refused with DegenerateBasisError.
    """
    if not kernel_gens:
        return ((), ()), []
    n = lat.n
    enc = lat.basis_interval_matrix()
    t_hi = lat.raw_window_interval(t)[1]
    # g[m][i] encloses 2^64 times ambient coordinate i of generator m
    g = [[_iv_dot(enc[i], gen) for i in range(n)] for gen in kernel_gens]
    zero = [(0, 0)] * n
    # the rows of `_narrowed` for |k x_i| < t, k the last generator's multiplier
    bounds = [(i, lo, hi, -t_hi, t_hi) for i, (lo, hi) in enumerate(g[-1]) if lo > 0 or hi < 0]
    window = _box_filter(lat, _window_bounds(lat, t), -1)

    def inside(ks):
        c = tuple(sum(k * gen[j] for k, gen in zip(ks, kernel_gens)) for j in range(n))
        partial = zero
        for k, gen in zip(ks, g):
            partial = _shifted(partial, gen, k)
        # the filter refuses c = 0, which lies in Q(t)
        return not any(c) or window(c, partial)

    if len(kernel_gens) == 1:
        if not bounds:
            raise DegenerateBasisError(_UNRESOLVED)
        top = _narrowed(-t_hi, t_hi, bounds, zero)[1]
        while not inside((top,)):
            top -= 1
        return ((0,) * n, kernel_gens[0]), [(0, -top, top)]
    if len(kernel_gens) > 2:
        raise DegenerateBasisError("an ambient coordinate vanishes on the whole lattice")
    # rank 2: two coordinates r, q alone bound k1 and k2, by Cramer's rule on
    # (x_r, x_q) = k1 g0 + k2 g1 with |x_r|, |x_q| < t; the pair with the
    # largest certified |det| (scale 2^128) bounds them best
    g0, g1 = g
    dt, r, q = max(((_abs_lo(_iv_minor(g0[r], g1[q], g0[q], g1[r])), r, q)
                    for r in range(n) for q in range(r + 1, n)), key=lambda x: x[0])
    if not dt:
        raise DegenerateBasisError(_UNRESOLVED)
    k1_top = t_hi * (_abs_hi(g1[r]) + _abs_hi(g1[q])) // dt
    k2_top = t_hi * (_abs_hi(g0[r]) + _abs_hi(g0[q])) // dt
    rows = []
    for k1 in range(k1_top + 1):
        lo, hi = _narrowed(-k2_top, k2_top, bounds, _shifted(zero, g0, k1))
        while lo <= hi and not inside((k1, hi)):
            hi -= 1
        if lo > hi:
            continue
        while not inside((k1, lo)):
            lo += 1
        rows.append((k1, lo, hi))
    return tuple(kernel_gens), rows


def random_rational_lattice(n, seed, denom_limit=10**6):
    """Seeded random lattice: entries are convergents of sampled reals.

    Nearly singular draws (|det| < 1/20) are rejected and redrawn so that
    window enumerations stay well conditioned; the seed fully determines
    the result.
    """
    rng = random.Random(seed)
    while True:
        rows = [tuple(Fraction(rng.random()).limit_denominator(denom_limit)
                      for _ in range(n)) for _ in range(n)]
        d = det(rows)
        if abs(d) >= Fraction(1, 20):
            lat = normalize_lattice(rows, provenance="rational-random", seed=seed)
            return lat
