"""Unimodular lattices with exact coordinates.

A lattice is one n x n basis over one scalar ring: Fractions for a lattice
over Q, elements of one real quadratic or cubic field otherwise.  Row i is
ambient coordinate i, read under its own real embedding ``embeddings[i]``
(None over Q); an orthant reflection multiplies rows by +-1.  Every exact
predicate reads its scalars through the ordered-scalar operations of
`numberfield` (sign, compare, interval, float), whatever the ring.

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
from math import ceil, floor, gcd, isqrt

from .linalg import det, mat_inverse, mat_mul, solve, transpose
from .numberfield import (
    FieldElement, NumberField, cmp_at, float_at, interval_at, sign_at,
)

__all__ = [
    "Lattice", "LatticePoint", "OrthantSign", "DegenerateBasisError",
    "normalize_lattice", "dual_lattice", "lattice_from_alpha",
    "lattice_from_cubic_field", "orthant_reflect", "evaluate_phi",
    "irrationality_check", "IrrationalityReport", "random_rational_lattice",
    "GOLDEN_MINPOLY", "SQRT2M1_MINPOLY", "CUBIC49_MINPOLY",
]

GOLDEN_MINPOLY = (-1, 1)      # x^2 + x - 1; positive root (sqrt5 - 1)/2
SQRT2M1_MINPOLY = (-1, 2)     # x^2 + 2x - 1; positive root sqrt2 - 1
CUBIC49_MINPOLY = (-1, -2, 1)  # x^3 + x^2 - 2x - 1; theta = 2cos(2pi/7), disc 49

LATTICE_SCHEMA = "kleinsail.lattice/1"


class DegenerateBasisError(ValueError):
    pass


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


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
    """

    def __init__(self, basis, embeddings, field=None, *, row_signs=None,
                 scale_d=None, scale_d_sq=None, provenance="", seed=None):
        self.basis = [tuple(r) for r in basis]
        self.n = len(self.basis)
        self.embeddings = tuple(embeddings)
        self.field = field
        self.row_signs = tuple(row_signs) if row_signs else (1,) * self.n
        # |det| of the raw basis: scale_d exact Fraction when rational (None
        # for a module with non-square discriminant), scale_d_sq = d^2 always.
        self.scale_d = scale_d
        self.scale_d_sq = scale_d_sq if scale_d_sq is not None else (
            scale_d * scale_d if scale_d is not None else None)
        self.provenance = provenance
        self.seed = seed
        self._one_embedding = len(set(self.embeddings)) == 1
        self._float_basis = None
        self._inv_basis = None
        self._dual = None
        self._coeff_iv = None
        self._basis_iv = None
        self._scale_root_iv = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def rational(cls, rows, **kw):
        rows = [tuple(_fr(x) for x in r) for r in rows]
        d = det(rows)
        if d == 0:
            raise DegenerateBasisError("degenerate basis")
        kw.setdefault("scale_d", abs(d))
        return cls(rows, (None,) * len(rows), **kw)

    @classmethod
    def single_field(cls, field, rows, root_index, **kw):
        d = det(rows)
        if d.is_zero():
            raise DegenerateBasisError("degenerate basis")
        if not d.is_rational():
            raise DegenerateBasisError("field basis must have rational determinant")
        kw.setdefault("scale_d", abs(d.rational_value()))
        return cls(rows, (root_index,) * len(rows), field, **kw)

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
        d_sq = field.disc * dh * dh
        d = _nth_root_fraction(d_sq, 2)
        signs = tuple(row_signs) if row_signs else (1,) * n
        rows = [tuple(g if s > 0 else -g for g in gens) for s in signs]
        return cls(rows, range(n), field, row_signs=signs,
                   scale_d=d, scale_d_sq=d_sq, **kw)

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

    def basis_float(self):
        """Float approximation of the raw basis (search hints only)."""
        if self._float_basis is None:
            self._float_basis = [[float_at(x, e) for x in row]
                                 for row, e in zip(self.basis, self.embeddings)]
        return self._float_basis

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
        # rows: Tr(g_i * theta^k); solve for dual coordinates
        rows = [tuple((gens[i] * pow_basis[k]).trace() for k in range(n))
                for i in range(n)]
        duals = []
        for j in range(n):
            rhs = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            coords = solve(rows, rhs)
            duals.append(sum((coords[k] * pow_basis[k] for k in range(n)),
                             fld.zero()))
        return duals

    # -- points ------------------------------------------------------------------

    def point(self, coeffs):
        return LatticePoint(self, tuple(int(c) for c in coeffs))

    def module_element(self, coeffs):
        """sum_j c_j g_j for a module lattice."""
        gens = self.gens
        if gens is None:
            raise ValueError("module elements exist only for module lattices")
        acc = self.field.zero()
        for c, g in zip(coeffs, gens):
            acc = acc + self.field.element((c,)) * g
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
        """Sign of ambient coordinate i (raw = normalized sign)."""
        return sign_at(self.coord(coeffs, i), self.embeddings[i])

    def coord_float(self, coeffs, i):
        fb = self.basis_float()
        return sum(fb[i][j] * coeffs[j] for j in range(self.n))

    def coord_abs_lt(self, coeffs, i, bound):
        """|normalized coordinate i| < bound, exact."""
        bound = _fr(bound)
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

    def in_positive_window(self, coeffs, t, include_boundary=True):
        """All normalized coordinates in [0, t) (or (0, t) if not include_boundary)."""
        for i in range(self.n):
            s = self.coord_sign(coeffs, i)
            if s < 0 or (s == 0 and not include_boundary):
                return False
            if not self.coord_abs_lt(coeffs, i, t):
                return False
        return True

    def in_sym_box(self, coeffs, t):
        """All normalized coordinates have |x_i| < t (the box Q(t))."""
        return all(self.coord_abs_lt(coeffs, i, t) for i in range(self.n))

    # -- phi -----------------------------------------------------------------------

    def phi_raw(self, coeffs):
        """Product of raw ambient coordinates, exact.

        Over one embedding, the product of the coordinate scalars.  For a
        module lattice the coordinates live in different embeddings, and
        their product is the module element's norm times the row signs: a
        rational.
        """
        if not self._one_embedding:
            sgn = 1
            for s in self.row_signs:
                sgn *= s
            return sgn * self.module_element(coeffs).norm()
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
        coordinates of w in the dual lattice."""
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

    def coeff_interval_matrix(self):
        """Rational interval enclosures of the raw inverse basis entries, from
        root intervals of width <= 2^-80 (cached)."""
        if self._coeff_iv is None:
            width = Fraction(1, 2**80)
            self._coeff_iv = [[interval_at(x, e, width) for x, e in zip(row, self.embeddings)]
                              for row in self.inverse_rows()]
        return self._coeff_iv

    def basis_interval_matrix(self):
        """Rational interval enclosures of the raw basis entries, from root
        intervals of width <= 2^-96 (cached)."""
        if self._basis_iv is None:
            width = Fraction(1, 2**96)
            self._basis_iv = [[interval_at(x, e, width) for x in row]
                              for row, e in zip(self.basis, self.embeddings)]
        return self._basis_iv

    def scale_root_interval(self):
        """Certified rational bounds (lo, hi) for d^(1/n) = (d^2)^(1/(2n)),
        d^2 being always rational, to 2^-128 (cached)."""
        if self._scale_root_iv is None:
            lo, hi = _root_bounds(self.scale_d_sq, self.scale_d_sq, 2 * self.n, 128)
            self._scale_root_iv = (Fraction(lo, 1 << 128), Fraction(hi, 1 << 128))
        return self._scale_root_iv

    def raw_window_interval(self, t):
        """Certified rational bounds for t * d^(1/n)."""
        t = _fr(t)
        lo, hi = self.scale_root_interval()
        return (t * lo, t * hi)

    def raw_window_enclosure(self, t):
        """Rational upper bound >= t * d^(1/n) for raw-coordinate boxes."""
        return self.raw_window_interval(t)[1]

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
        signs = tuple(signs.signs if isinstance(signs, OrthantSign) else signs)
        if len(signs) != self.n or not all(s in (1, -1) for s in signs):
            raise ValueError("bad orthant sign vector")
        rows = [tuple(x if s > 0 else -x for x in row) for s, row in zip(signs, self.basis)]
        return Lattice(rows, self.embeddings, self.field,
                       row_signs=tuple(a * b for a, b in zip(self.row_signs, signs)),
                       scale_d=self.scale_d, scale_d_sq=self.scale_d_sq,
                       provenance=self.provenance, seed=self.seed)

    def diagonal_rescale(self, factors):
        """Rescale ambient axes by exact rationals with product 1."""
        factors = [_fr(f) for f in factors]
        prod = Fraction(1)
        for f in factors:
            prod *= f
        if prod != 1:
            raise ValueError("diagonal rescale must have determinant 1")
        if not self._one_embedding:
            raise NotImplementedError("diagonal rescale keeps module lattices out of module form")
        rows = [tuple(x * f for x in row) for f, row in zip(factors, self.basis)]
        return Lattice(rows, self.embeddings, self.field, scale_d=self.scale_d,
                       provenance=self.provenance, seed=self.seed)

    def dual(self):
        """The dual lattice, raw basis B^-T, in the same embeddings (cached)."""
        if self._dual is None:
            d = self.scale_d
            self._dual = Lattice(
                transpose(self.inverse_rows()), self.embeddings, self.field,
                row_signs=self.row_signs, scale_d=None if d is None else 1 / d,
                scale_d_sq=1 / self.scale_d_sq,
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
        if kind == "rational":
            return cls.rational(doc["basis"], scale_d=Fraction(doc["det_scale"]),
                                provenance=doc.get("provenance", ""), seed=doc.get("seed"))
        fld = NumberField([Fraction(c) for c in doc["field"]["minpoly"]])
        if kind == "field":
            rows = [tuple(fld.element([Fraction(c) for c in x]) for x in row)
                    for row in doc["basis"]]
            return cls.single_field(fld, rows, doc["field"]["root_index"],
                                    provenance=doc.get("provenance", ""),
                                    seed=doc.get("seed"))
        gens = [fld.element([Fraction(c) for c in g]) for g in doc["gens"]]
        return cls.module(fld, gens, row_signs=doc.get("row_signs"),
                          provenance=doc.get("provenance", ""), seed=doc.get("seed"))

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __repr__(self):
        return f"Lattice(kind={self.kind}, n={self.n}, provenance={self.provenance!r})"


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point: integer coordinates over the basis."""

    lattice: Lattice
    coeffs: tuple

    def phi(self):
        return self.lattice.phi(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


# -- module-level operations -------------------------------------------------------


def normalize_lattice(raw_basis, provenance="", seed=None):
    """Scale a raw rational basis to |det| = 1.

    If |det|^(1/n) is rational the basis is rescaled exactly; otherwise the
    raw basis is kept with the determinant tracked, and all scale-sensitive
    quantities are rescaled through exact power comparisons.
    """
    rows = [tuple(_fr(x) for x in row) for row in raw_basis]
    n = len(rows)
    d = det(rows)
    if d == 0:
        raise DegenerateBasisError("degenerate basis")
    root = _nth_root_fraction(abs(d), n)
    if root is not None:
        scaled = [tuple(x / root for x in row) for row in rows]
        return Lattice.rational(scaled, scale_d=Fraction(1),
                                provenance=provenance or "rational-normalized", seed=seed)
    return Lattice.rational(rows, scale_d=abs(d),
                            provenance=provenance or "rational-tracked-det", seed=seed)


def dual_lattice(lat):
    return lat.dual()


def lattice_from_alpha(alpha, root_index=None):
    """The Klein-polygon lattice of alpha in (0,1): columns (1, 1-alpha), (0, 1)."""
    if isinstance(alpha, FieldElement):
        fld = alpha.field
        ri = root_index if root_index is not None else fld.degree - 1
        if alpha.sign_at(ri) <= 0 or (1 - alpha).sign_at(ri) <= 0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        one, zero = fld.one(), fld.zero()
        rows = [(one, zero), (one - alpha, one)]
        return Lattice.single_field(fld, rows, ri, provenance="from-alpha")
    a = _fr(alpha)
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


def orthant_reflect(lat, signs):
    return lat.reflect(signs)


def evaluate_phi(x):
    """phi of a LatticePoint (normalized) or an exact ambient vector."""
    if isinstance(x, LatticePoint):
        return x.phi()
    acc = None
    for v in x:
        acc = v if acc is None else acc * v
    return acc


@dataclass
class IrrationalityReport:
    window: Fraction
    witnesses: list  # sorted coefficient tuples with a zero ambient coordinate

    @property
    def ok(self):
        return not self.witnesses


def _zero_coordinate_sublattice(lat, i):
    """Integer kernel of 'ambient coordinate i = 0', as basis vectors.

    The coordinate sum_j B[i][j] c_j vanishes iff each of its rational
    power-basis coordinates does (a Fraction is its own single coordinate):
    intersect the integer kernels of those rows.  For a module lattice the
    generators are independent over Q, so the kernel is trivial.
    """
    n = lat.n
    vecs = [x.vec if isinstance(x, FieldElement) else (x,) for x in lat.basis[i]]
    kernels = [tuple(1 if a == j else 0 for a in range(n)) for j in range(n)]
    for k in range(len(vecs[0])):
        row = [v[k] for v in vecs]
        if all(v == 0 for v in row):
            continue
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        introw = [int(x * den) for x in row]
        kernels = _intersect_kernels(kernels, introw)
    return kernels


def _intersect_kernels(gens, introw):
    """Restrict a kernel lattice (given by generators) by one more row."""
    vals = [sum(r * g for r, g in zip(introw, gen)) for gen in gens]
    m = len(gens)
    cols = [list(g) for g in gens]
    v = list(vals)
    while True:
        nz = [j for j in range(m) if v[j] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda j: abs(v[j]))
        j0 = nz[0]
        for j in nz[1:]:
            q = v[j] // v[j0]
            v[j] -= q * v[j0]
            cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
    return [tuple(cols[j]) for j in range(m) if v[j] == 0]


def irrationality_check(lat, t):
    """All nonzero lattice points of the box Q(t) with a zero ambient coordinate.

    The zero set of each coordinate is a sublattice, so the search walks the
    (at most (n-1)-dimensional) kernels directly instead of enumerating Q(t).
    """
    t = _fr(t)
    if t <= 0:
        raise ValueError("window must be positive")
    witnesses = set()
    for i in range(lat.n):
        kern = _zero_coordinate_sublattice(lat, i)
        witnesses.update(pt for pt in _kernel_points_in_box(lat, kern, t) if any(pt))
    return IrrationalityReport(window=t, witnesses=sorted(witnesses))


def _kernel_points_in_box(lat, kernel_gens, t):
    """Nonzero integer combinations of kernel generators inside Q(t).

    Q(t) is convex and symmetric, and so are the in-box multipliers: one
    interval [-K, K] for a rank-1 kernel; for rank 2, one interval of k2 per
    row k1, row -k1 mirroring row k1, over the rows a float bound on |k1|
    allows.  Floats seed each end; exact `in_sym_box` tests step it until
    the test flips.
    """
    if not kernel_gens:
        return []
    n = lat.n
    fb = lat.basis_float()
    tf = float(lat.raw_window_enclosure(t))
    g = [[sum(fb[i][j] * gen[j] for j in range(n)) for i in range(n)] for gen in kernel_gens]

    def point(ks):
        return tuple(sum(k * gen[j] for k, gen in zip(ks, kernel_gens)) for j in range(n))

    def inside(ks):
        return lat.in_sym_box(point(ks), t)

    if len(kernel_gens) == 1:
        seed = int(tf / max(1e-12, max(abs(x) for x in g[0])))
        top = _last_inside(lambda k: inside((k,)), 0, seed)
        return [point((k,)) for k in range(-top, top + 1) if k]
    if len(kernel_gens) > 2:
        raise DegenerateBasisError("an ambient coordinate vanishes on the whole lattice")
    # rank 2: the best-conditioned pair of coordinates alone bounds |k1|
    g0, g1 = g
    r, q = max(((r, q) for r in range(n) for q in range(r + 1, n)),
               key=lambda rq: abs(g0[rq[0]] * g1[rq[1]] - g0[rq[1]] * g1[rq[0]]))
    dt = abs(g0[r] * g1[q] - g0[q] * g1[r])
    k1_top = int(tf * (abs(g1[r]) + abs(g1[q])) / dt * (1 + 1e-9)) + 1
    out = []
    for k1 in range(k1_top + 1):
        lo_f, hi_f = -float("inf"), float("inf")
        for a, b in zip(g0, g1):
            a *= k1
            if b == 0:
                if abs(a) >= tf * (1 + 1e-9):
                    lo_f, hi_f = 1.0, 0.0
                continue
            e1, e2 = (-tf - a) / b, (tf - a) / b
            lo_f, hi_f = max(lo_f, min(e1, e2)), min(hi_f, max(e1, e2))
        slack = 1e-9 * (1 + abs(lo_f) + abs(hi_f)) if lo_f <= hi_f else 0.0
        lo_c, hi_c = ceil(lo_f - slack), floor(hi_f + slack)
        if lo_c > hi_c:
            continue
        known = (lo_c + hi_c) // 2
        if not inside((k1, known)):
            known = next((k for k in range(lo_c, hi_c + 1) if inside((k1, k))), None)
        if known is None:
            continue
        lo = -_last_inside(lambda k: inside((k1, -k)), -known, -lo_c)
        hi = _last_inside(lambda k: inside((k1, k)), known, hi_c)
        for k2 in range(lo, hi + 1):
            if k1 or k2:
                c = point((k1, k2))
                out.append(c)
                if k1:
                    out.append(tuple(-x for x in c))
    return out


def _last_inside(test, known, seed):
    """Largest k with test(k), for a test that holds on a run of integers
    containing `known`; the walk starts from `seed`."""
    k = max(known, seed)
    if test(k):
        while test(k + 1):
            k += 1
        return k
    k -= 1
    while not test(k):
        k -= 1
    return k


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
