"""Determinant invariants of sails.

Facet and edge-star determinants are the sums of absolute n x n minors over
all n-subsets of the relevant coefficient vectors; as the lattices are
unimodular these are exact integers and invariant under unimodular changes
of basis and under the diagonal determinant-one group acting on ambient
space.  The same subset sum realizes mixed volumes of segments.

The two-dimensional specialization ties the sail of the lattice of a number
alpha to the continued fraction of alpha: edge determinants (= integer
lengths) match odd-index partial quotients and vertex-star determinants
(= integer angles) match even-index ones.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .contfrac import continued_fraction, convergents
from .lattice import lattice_from_alpha
from .linalg import gcd_vector, subset_det_sum
from .numberfield import FieldElement
from .sail import DEFAULT_POINT_BUDGET, EdgeStar, Facet, build_sail_patch

__all__ = [
    "det_facet", "det_edge_star", "mixed_volume_segments", "det_SF",
    "integer_length", "integer_angle", "DetReport", "det_report",
    "cf_correspondence", "CorrespondenceReport",
]


def _vertices_of(f):
    if isinstance(f, Facet):
        return f.vertices
    return tuple(tuple(v) for v in f)


def det_facet(f):
    """Sum over all n-subsets of the facet's vertices of |det|, exact."""
    verts = _vertices_of(f)
    n = len(verts[0])
    val = subset_det_sum(verts, n)
    assert val.denominator == 1
    return int(val)


def det_edge_star(star):
    """Same subset sum over the primitive edge vectors at a vertex."""
    if isinstance(star, EdgeStar):
        if not star.complete:
            raise ValueError("star truncated by window")
        vecs = star.vectors
    else:
        vecs = tuple(tuple(v) for v in star)
    n = len(vecs[0])
    val = subset_det_sum(vecs, n)
    assert val.denominator == 1
    return int(val)


def mixed_volume_segments(vectors):
    """Mixed volume of the segments [0, x_i]: the volume of their Minkowski
    sum (a zonotope), equal to the sum of |det| over n-subsets."""
    vecs = [tuple(v) for v in vectors]
    n = len(vecs[0])
    return subset_det_sum(vecs, n)


def det_SF(facet, lat):
    """Determinant of S(F) = aff(F) intersected with the positive orthant.

    S(F) is the simplex with axis intercepts D/u_i for the normalized
    ambient normal u; n! times the volume of conv(S(F) u {0}) is then
    D^n / prod(u_i), which is also the vertex-subset determinant of S(F).
    """
    w, d = facet.support, facet.dist
    if not w:
        raise ValueError("facet has no support functional")
    signs = lat.support_normal_signs(w)
    if any(s <= 0 for s in signs):
        raise ValueError("support normal not strictly positive")
    prod = lat.support_normal_product(w)
    return Fraction(d) ** lat.n / prod


def integer_length(a, b):
    """Lattice length of the segment between lattice points a, b (coeffs)."""
    g = gcd_vector([int(x) - int(y) for x, y in zip(a, b)])
    if g == 0:
        raise ValueError("zero segment")
    return g


def integer_angle(r1, r2):
    """Index of the sublattice spanned by two primitive edge directions."""
    d = r1[0] * r2[1] - r1[1] * r2[0]
    if d == 0:
        raise ValueError("parallel edges")
    return abs(d)


# ---------------------------------------------------------------------------
# reports

@dataclass
class DetReport:
    facet_dets: list      # (facet index, D, det F) certified facets
    star_dets: list       # (vertex coeffs, det St) complete stars
    max_det_facet: int
    max_det_star: int
    histogram: dict

    def to_json(self):
        return {
            "maxDetF": self.max_det_facet,
            "maxDetSt": self.max_det_star,
            "counts": {
                "certified_facets": len(self.facet_dets),
                "complete_stars": len(self.star_dets),
            },
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def facets_csv(self):
        buf = io.StringIO()
        wtr = csv.writer(buf)
        wtr.writerow(["facet", "dist", "det_facet"])
        for row in self.facet_dets:
            wtr.writerow(row)
        return buf.getvalue()


def det_report(patch):
    facet_dets = []
    hist = {}
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        val = det_facet(f)
        facet_dets.append((fi, f.dist, val))
        hist[val] = hist.get(val, 0) + 1
    star_dets = []
    for coeffs in patch.complete_star_vertices():
        star = patch.stars[coeffs]
        star_dets.append((coeffs, det_edge_star(star)))
    return DetReport(
        facet_dets=facet_dets,
        star_dets=star_dets,
        max_det_facet=max((v for _, _, v in facet_dets), default=0),
        max_det_star=max((v for _, v in star_dets), default=0),
        histogram=hist,
    )


# ---------------------------------------------------------------------------
# continued-fraction correspondence

@dataclass
class CorrespondenceReport:
    quotients: list
    edge_rows: list    # (quotient index, expected, measured, ok)
    star_rows: list    # (quotient index, expected, measured, ok)
    aligned: int

    @property
    def all_match(self):
        return all(r[3] for r in self.edge_rows + self.star_rows)

    def to_json(self):
        return {
            "quotients": self.quotients,
            "edges": [list(r) for r in self.edge_rows],
            "stars": [list(r) for r in self.star_rows],
            "aligned_quotients": self.aligned,
            "all_match": self.all_match,
        }


def cf_correspondence(alpha, t, root_index=None, budget=DEFAULT_POINT_BUDGET):
    """Align the sail of the lattice of alpha with alpha's partial quotients.

    Sail vertices are located at the upper convergents (odd indices, plus the
    axis vertex as index -1); an edge between aligned vertices k and k+2 must
    have integer length a_{k+2}, and a complete star at aligned vertex k must
    have determinant a_{k+1}.  Only structure fully determined inside the
    window is compared.  A field alpha is read under the real embedding
    `root_index`, which it must name, as for `lattice_from_alpha`.
    """
    t = Fraction(t)
    if isinstance(alpha, FieldElement):
        lat = lattice_from_alpha(alpha, root_index=root_index)
        quotients = continued_fraction(alpha, max_terms=64, root_index=root_index)
        # expand until the convergent denominators leave the window
        convs = convergents(quotients)
        while convs[-1][1] <= t and len(quotients) < 256:
            quotients = continued_fraction(alpha, max_terms=len(quotients) + 16,
                                           root_index=root_index)
            convs = convergents(quotients)
    else:
        alpha = Fraction(alpha)
        lat = lattice_from_alpha(alpha)
        quotients = continued_fraction(alpha)
        convs = convergents(quotients)

    patch = build_sail_patch(lat, t, budget=budget)

    aligned = {}
    aligned[(0, 1)] = -1  # axis vertex, the "infinite" convergent
    m = len(quotients) - 1  # quotient indices run 1..m
    for k in range(1, m + 1, 2):  # upper convergents sit at odd indices
        p, q = convs[k]
        aligned[(q, p - q)] = k

    edge_rows = []
    for f in patch.certified_facets():
        if len(f.vertices) != 2:
            continue
        a, b = f.vertices
        ka, kb = aligned.get(a), aligned.get(b)
        if ka is None or kb is None:
            continue
        k_lo, k_hi = min(ka, kb), max(ka, kb)
        if k_hi != k_lo + 2:
            continue
        expected = quotients[k_hi]
        measured = integer_length(a, b)
        edge_rows.append((k_hi, expected, measured, expected == measured))

    star_rows = []
    for coeffs in patch.complete_star_vertices():
        k = aligned.get(coeffs)
        if k is None or k < 1 or k + 1 > m:
            continue
        expected = quotients[k + 1]
        measured = det_edge_star(patch.stars[coeffs])
        star_rows.append((k + 1, expected, measured, expected == measured))

    indices = {r[0] for r in edge_rows} | {r[0] for r in star_rows}
    if len(indices) < 3:
        raise ValueError(
            f"window too small: only {len(indices)} quotients aligned (need 3)")
    return CorrespondenceReport(
        quotients=quotients,
        edge_rows=sorted(edge_rows),
        star_rows=sorted(star_rows),
        aligned=len(indices),
    )
