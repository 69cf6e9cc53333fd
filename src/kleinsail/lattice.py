"""Unimodular lattices with exact coordinates.

Three representations cover every construction used here:

* ``rational`` -- an n x n basis of Fractions.
* ``field`` -- an n x n basis of elements of one quadratic/cubic field,
  all evaluated under a single fixed embedding (e.g. the Klein-polygon
  lattice of a quadratic irrational).
* ``embedding`` -- the lattice of a module in a totally real cubic field:
  ambient coordinate i of the point with integer coordinates c is the i-th
  real embedding of ``sum_j c_j g_j`` for module generators ``g_j``.  Row
  signs support orthant reflections.

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

from .linalg import det, mat_inverse, mat_vec, primitive_int_vector, solve, transpose
from .numberfield import FieldElement, NumberField

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
    """An n-dimensional lattice normalized to determinant one (n = 2 or 3)."""

    def __init__(self, kind, n, *, basis=None, field=None, gens=None,
                 row_signs=None, scale_d=None, scale_d_sq=None,
                 provenance="", seed=None, root_index=None):
        self.kind = kind
        self.n = n
        self.basis = basis            # rational/field kinds: list of row tuples
        self.field = field
        self.gens = gens              # embedding kind: module generators
        self.row_signs = tuple(row_signs) if row_signs else tuple([1] * n)
        # |det| of the raw basis: scale_d exact Fraction when rational,
        # scale_d_sq = d^2 always rational.
        self.scale_d = scale_d
        self.scale_d_sq = scale_d_sq if scale_d_sq is not None else (
            scale_d * scale_d if scale_d is not None else None)
        self.provenance = provenance
        self.seed = seed
        self.root_index = root_index  # field kind: the embedding in use
        self._float_basis = None
        self._inv_basis = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def rational(cls, rows, **kw):
        rows = [tuple(_fr(x) for x in r) for r in rows]
        n = len(rows)
        d = det(rows)
        if d == 0:
            raise DegenerateBasisError("degenerate basis")
        kw.setdefault("scale_d", abs(d))
        return cls("rational", n, basis=rows, **kw)

    @classmethod
    def single_field(cls, field, rows, root_index, **kw):
        n = len(rows)
        d = det(rows)
        if d.is_zero():
            raise DegenerateBasisError("degenerate basis")
        if not d.is_rational():
            raise DegenerateBasisError("field basis must have rational determinant")
        kw.setdefault("scale_d", abs(d.rational_value()))
        return cls("field", n, basis=[tuple(r) for r in rows], field=field,
                   root_index=root_index, **kw)

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
        return cls("embedding", n, field=field, gens=gens, row_signs=row_signs,
                   scale_d=d, scale_d_sq=d_sq, **kw)

    # -- basic data -------------------------------------------------------------

    @property
    def is_unit_scale(self):
        return self.scale_d == 1

    def basis_float(self):
        """Float approximation of the raw basis (search hints only)."""
        if self._float_basis is not None:
            return self._float_basis
        if self.kind == "rational":
            fb = [[float(x) for x in row] for row in self.basis]
        elif self.kind == "field":
            ri = self.root_index
            fb = [[float(x.to_mpf_at(ri, 60)) for x in row] for row in self.basis]
        else:
            fb = []
            for i in range(self.n):
                s = self.row_signs[i]
                fb.append([s * float(g.to_mpf_at(i, 60)) for g in self.gens])
        self._float_basis = fb
        return fb

    def inverse_rows(self):
        """Rows of the raw inverse basis, exact.

        rational/field kinds: a matrix over the same scalars.
        embedding kind: per-row field elements g*_j with
        inverse[j][i] = row_signs[i] * sigma_i(g*_j) (trace-dual generators).
        """
        if self._inv_basis is not None:
            return self._inv_basis
        if self.kind in ("rational", "field"):
            self._inv_basis = mat_inverse(self.basis)
        else:
            self._inv_basis = self._trace_dual_gens()
        return self._inv_basis

    def _trace_dual_gens(self):
        fld = self.field
        n = self.n
        pow_basis = [fld.gen() ** k for k in range(n)]
        # rows: Tr(g_i * theta^k); solve for dual coordinates
        rows = [tuple((self.gens[i] * pow_basis[k]).trace() for k in range(n))
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
        if self.kind != "embedding":
            raise ValueError("module elements exist only for embedding lattices")
        acc = self.field.zero()
        for c, g in zip(coeffs, self.gens):
            acc = acc + self.field.element((c,)) * g
        return acc

    # -- exact coordinate predicates ----------------------------------------------

    def coord_sign(self, coeffs, i):
        """Sign of ambient coordinate i (raw = normalized sign)."""
        if self.kind == "rational":
            v = sum(self.basis[i][j] * coeffs[j] for j in range(self.n))
            return (v > 0) - (v < 0)
        if self.kind == "field":
            acc = self.field.zero()
            for j in range(self.n):
                acc = acc + self.basis[i][j] * coeffs[j]
            return acc.sign_at(self.root_index)
        xi = self.module_element(coeffs)
        return self.row_signs[i] * xi.sign_at(i)

    def coord_fraction(self, coeffs, i):
        if self.kind != "rational":
            raise ValueError("exact Fraction coordinates exist only for rational lattices")
        return sum(self.basis[i][j] * coeffs[j] for j in range(self.n))

    def coord_float(self, coeffs, i):
        fb = self.basis_float()
        return sum(fb[i][j] * coeffs[j] for j in range(self.n))

    def coord_abs_lt(self, coeffs, i, bound, strict=True):
        """|normalized coordinate i| < bound (<= if strict=False), exact."""
        bound = _fr(bound)
        if bound < 0:
            return False
        n = self.n
        if self.kind == "rational":
            v = abs(self.coord_fraction(coeffs, i))
            if self.is_unit_scale:
                return v < bound if strict else v <= bound
            lhs, rhs = v ** n, bound ** n * self.scale_d
            return lhs < rhs if strict else lhs <= rhs
        if self.kind == "field":
            if not self.is_unit_scale:
                raise NotImplementedError("scaled single-field lattices are unsupported")
            acc = self.field.zero()
            for j in range(n):
                acc = acc + self.basis[i][j] * coeffs[j]
            s = acc.sign_at(self.root_index)
            if s < 0:
                acc = -acc
            c = acc.cmp_at(self.root_index, bound)
            return c < 0 if strict else c <= 0
        # embedding: compare x^(2n) against bound^(2n) * d^2, all rational-coeff
        xi = self.module_element(coeffs)
        elem = xi ** (2 * n) - self.field.element((bound ** (2 * n) * self.scale_d_sq,))
        s = elem.sign_at(i)
        return s < 0 if strict else s <= 0

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
            if not self.coord_abs_lt(coeffs, i, t, strict=True):
                return False
        return True

    def in_sym_box(self, coeffs, t):
        """All normalized coordinates have |x_i| < t (the box Q(t))."""
        return all(self.coord_abs_lt(coeffs, i, t, strict=True) for i in range(self.n))

    # -- phi -----------------------------------------------------------------------

    def phi_raw(self, coeffs):
        """Product of raw ambient coordinates, exact."""
        if self.kind == "rational":
            acc = Fraction(1)
            for i in range(self.n):
                acc *= self.coord_fraction(coeffs, i)
            return acc
        if self.kind == "field":
            acc = self.field.one()
            for i in range(self.n):
                row = self.field.zero()
                for j in range(self.n):
                    row = row + self.basis[i][j] * coeffs[j]
                acc = acc * row
            return acc
        xi = self.module_element(coeffs)
        sgn = 1
        for s in self.row_signs:
            sgn *= s
        return sgn * xi.norm()

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
        if isinstance(v, FieldElement):
            return v.sign_at(self.root_index)
        return (v > 0) - (v < 0)

    def scalar_cmp(self, a, b):
        """Exact sign of a - b for scalars of this lattice."""
        return self.scalar_sign(a - b)

    # -- functional geometry ---------------------------------------------------------

    def support_normal_signs(self, w):
        """Signs of the normalized ambient normal B^-T w, coordinatewise."""
        inv = self.inverse_rows()
        out = []
        if self.kind in ("rational", "field"):
            cols = transpose(inv)  # column i of inverse = ambient dual direction i
            for i in range(self.n):
                v = None
                for j in range(self.n):
                    term = inv[j][i] * w[j]
                    v = term if v is None else v + term
                if self.kind == "rational":
                    out.append((v > 0) - (v < 0))
                else:
                    out.append(v.sign_at(self.root_index))
            return tuple(out)
        w_hat = self._dual_combination(w)
        return tuple(self.row_signs[i] * w_hat.sign_at(i) for i in range(self.n))

    def _dual_combination(self, w):
        duals = self.inverse_rows()
        acc = self.field.zero()
        for j in range(self.n):
            acc = acc + self.field.element((w[j],)) * duals[j]
        return acc

    def support_normal_product(self, w):
        """Product of the *normalized* ambient normal's coordinates, exact.

        For a coefficient functional w this is prod_i (B_norm^-T w)_i; the
        normalized inverse-transpose rescales each raw dual coordinate by
        d^(1/n), so the product picks up one full factor of d.
        """
        if self.kind == "rational":
            inv = self.inverse_rows()
            acc = Fraction(1)
            for i in range(self.n):
                acc *= sum(inv[j][i] * w[j] for j in range(self.n))
            return acc * self.scale_d
        if self.kind == "field":
            if not self.is_unit_scale:
                raise NotImplementedError
            inv = self.inverse_rows()
            acc = self.field.one()
            for i in range(self.n):
                v = self.field.zero()
                for j in range(self.n):
                    v = v + inv[j][i] * w[j]
                acc = acc * v
            return acc
        if self.scale_d is None:
            raise NotImplementedError(
                "exact normal products need a square module discriminant")
        w_hat = self._dual_combination(w)
        sgn = 1
        for s in self.row_signs:
            sgn *= s
        return sgn * w_hat.norm() * self.scale_d

    # -- coefficient range enclosures ---------------------------------------------------

    def coeff_interval_matrix(self, width=Fraction(1, 2**80)):
        """Rational interval enclosures of the raw inverse basis entries."""
        inv = self.inverse_rows()
        out = []
        if self.kind == "rational":
            for j in range(self.n):
                out.append([(inv[j][i], inv[j][i]) for i in range(self.n)])
            return out
        if self.kind == "field":
            ri = self.root_index
            for j in range(self.n):
                out.append([inv[j][i].interval_at(ri, width) for i in range(self.n)])
            return out
        for j in range(self.n):
            row = []
            for i in range(self.n):
                lo, hi = inv[j].interval_at(i, width)
                if self.row_signs[i] < 0:
                    lo, hi = -hi, -lo
                row.append((lo, hi))
            out.append(row)
        return out

    def scale_root_interval(self):
        """Certified rational bounds (lo, hi) for d^(1/n), cached."""
        if getattr(self, "_scale_root_iv", None) is not None:
            return self._scale_root_iv
        n = self.n
        if self.is_unit_scale:
            iv = (Fraction(1), Fraction(1))
        elif self.scale_d is not None and _nth_root_fraction(self.scale_d, n):
            r = _nth_root_fraction(self.scale_d, n)
            iv = (r, r)
        else:
            # bisect y^(2n) = d^2 (always rational) to high precision
            target = self.scale_d_sq
            k = 2 * n
            lo, hi = Fraction(0), Fraction(1)
            while hi ** k < target:
                hi *= 2
            for _ in range(140):
                mid = (lo + hi) / 2
                if mid ** k < target:
                    lo = mid
                else:
                    hi = mid
            iv = (lo, hi)
        self._scale_root_iv = iv
        return iv

    def raw_window_interval(self, t):
        """Certified rational bounds for t * d^(1/n)."""
        t = _fr(t)
        lo, hi = self.scale_root_interval()
        return (t * lo, t * hi)

    def raw_window_enclosure(self, t):
        """Rational upper bound >= t * d^(1/n) for raw-coordinate boxes."""
        return self.raw_window_interval(t)[1]

    # -- transforms ------------------------------------------------------------------------

    def reflect(self, signs):
        signs = tuple(signs.signs if isinstance(signs, OrthantSign) else signs)
        if len(signs) != self.n or not all(s in (1, -1) for s in signs):
            raise ValueError("bad orthant sign vector")
        if self.kind in ("rational", "field"):
            rows = [tuple(signs[i] * x for x in self.basis[i]) for i in range(self.n)]
            if self.kind == "rational":
                return Lattice("rational", self.n, basis=rows, scale_d=self.scale_d,
                               provenance=self.provenance, seed=self.seed)
            return Lattice("field", self.n, basis=rows, field=self.field,
                           root_index=self.root_index, scale_d=self.scale_d,
                           provenance=self.provenance, seed=self.seed)
        new_signs = tuple(a * b for a, b in zip(self.row_signs, signs))
        return Lattice("embedding", self.n, field=self.field, gens=self.gens,
                       row_signs=new_signs, scale_d=self.scale_d,
                       scale_d_sq=self.scale_d_sq, provenance=self.provenance,
                       seed=self.seed)

    def diagonal_rescale(self, factors):
        """Rescale ambient axes by exact rationals with product 1."""
        factors = [_fr(f) for f in factors]
        prod = Fraction(1)
        for f in factors:
            prod *= f
        if prod != 1:
            raise ValueError("diagonal rescale must have determinant 1")
        if self.kind == "rational":
            rows = [tuple(factors[i] * x for x in self.basis[i]) for i in range(self.n)]
            return Lattice("rational", self.n, basis=rows, scale_d=self.scale_d,
                           provenance=self.provenance, seed=self.seed)
        if self.kind == "field":
            rows = [tuple(self.field.element((factors[i],)) * x for x in self.basis[i])
                    for i in range(self.n)]
            return Lattice("field", self.n, basis=rows, field=self.field,
                           root_index=self.root_index, scale_d=self.scale_d,
                           provenance=self.provenance, seed=self.seed)
        raise NotImplementedError("diagonal rescale keeps module lattices out of module form")

    def dual(self):
        if self.kind == "rational":
            inv_t = transpose(mat_inverse(self.basis))
            d = self.scale_d
            return Lattice("rational", self.n, basis=[tuple(r) for r in inv_t],
                           scale_d=Fraction(1) / d, provenance=f"dual({self.provenance})",
                           seed=self.seed)
        if self.kind == "field":
            inv_t = transpose(mat_inverse(self.basis))
            return Lattice("field", self.n, basis=[tuple(r) for r in inv_t],
                           field=self.field, root_index=self.root_index,
                           scale_d=Fraction(1) / self.scale_d,
                           provenance=f"dual({self.provenance})", seed=self.seed)
        duals = self.inverse_rows()
        return Lattice("embedding", self.n, field=self.field, gens=tuple(duals),
                       row_signs=self.row_signs,
                       scale_d=(Fraction(1) / self.scale_d) if self.scale_d else None,
                       scale_d_sq=Fraction(1) / self.scale_d_sq,
                       provenance=f"dual({self.provenance})", seed=self.seed)

    # -- serialization -----------------------------------------------------------------------

    def to_json(self):
        doc = {
            "schema": LATTICE_SCHEMA,
            "dim": self.n,
            "kind": self.kind,
            "provenance": self.provenance,
            "seed": self.seed,
        }
        if self.kind == "rational":
            doc["field"] = {"kind": "rational"}
            doc["basis"] = [[str(x) for x in row] for row in self.basis]
            doc["det_scale"] = str(self.scale_d)
        elif self.kind == "field":
            doc["field"] = {
                "kind": "quadratic" if self.field.degree == 2 else "cubic",
                "minpoly": [str(c) for c in self.field.coeffs[:-1]],
                "root_index": self.root_index,
            }
            doc["basis"] = [[[str(c) for c in x.vec] for x in row] for row in self.basis]
            doc["det_scale"] = str(self.scale_d)
        else:
            doc["field"] = {
                "kind": "cubic-embedding",
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
            lat = cls.rational(doc["basis"], provenance=doc.get("provenance", ""),
                               seed=doc.get("seed"))
            lat.scale_d = Fraction(doc["det_scale"])
            lat.scale_d_sq = lat.scale_d ** 2
            return lat
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

    def ambient_floats(self):
        return tuple(self.lattice.coord_float(self.coeffs, i)
                     for i in range(self.lattice.n))

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
        return Lattice("rational", n, basis=scaled, scale_d=Fraction(1),
                       provenance=provenance or "rational-normalized", seed=seed)
    return Lattice("rational", n, basis=rows, scale_d=abs(d),
                   provenance=provenance or "rational-tracked-det", seed=seed)


def dual_lattice(lat):
    return lat.dual()


def lattice_from_alpha(alpha, field=None, root_index=None):
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
    return Lattice("rational", 2, basis=rows, scale_d=Fraction(1),
                   provenance="from-alpha")


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
    witnesses: list  # LatticePoints with a zero ambient coordinate

    @property
    def ok(self):
        return not self.witnesses


def _integer_row_kernel(row):
    """Basis of the integer kernel of one integer row vector."""
    n = len(row)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    vals = list(row)
    # column reduction to a single nonzero pivot
    while True:
        nz = [j for j in range(n) if vals[j] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda j: abs(vals[j]))
        j0 = nz[0]
        for j in nz[1:]:
            q = vals[j] // vals[j0]
            vals[j] -= q * vals[j0]
            cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
    return [tuple(cols[j]) for j in range(n) if vals[j] == 0]


def _zero_coordinate_sublattice(lat, i):
    """Integer kernel of 'ambient coordinate i = 0', as basis vectors."""
    n = lat.n
    if lat.kind == "embedding":
        return []  # sigma_i(xi) = 0 forces xi = 0 exactly
    if lat.kind == "rational":
        row = [lat.basis[i][j] for j in range(n)]
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        introw = [int(x * den) for x in row]
        if all(v == 0 for v in introw):
            raise DegenerateBasisError("zero basis row")
        return _integer_row_kernel(introw)
    # field kind: the coordinate vanishes iff every power-basis coordinate of
    # sum_j B[i][j] c_j vanishes; intersect the integer kernels.
    deg = lat.field.degree
    kernels = None
    for k in range(deg):
        row = [lat.basis[i][j].vec[k] for j in range(n)]
        if all(v == 0 for v in row):
            continue
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        introw = [int(x * den) for x in row]
        kern = _integer_row_kernel(introw)
        if kernels is None:
            kernels = kern
        else:
            kernels = _intersect_kernels(kernels, introw)
    return kernels if kernels is not None else [
        tuple(1 if a == j else 0 for a in range(n)) for j in range(n)]


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
    witnesses = {}
    for i in range(lat.n):
        kern = _zero_coordinate_sublattice(lat, i)
        for pt in _kernel_points_in_box(lat, kern, t):
            if any(c != 0 for c in pt):
                witnesses[pt] = lat.point(pt)
    ordered = sorted(witnesses)
    return IrrationalityReport(window=t, witnesses=[witnesses[c] for c in ordered])


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
