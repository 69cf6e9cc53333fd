"""Norm-minimum estimates and the all-orthant determinant audit.

The norm minimum of a lattice is the infimum of |x1*...*xn| over nonzero
lattice points; no finite computation reaches it, so everything here is a
window statistic labelled as such: the minimum over the box Q(T) of
normalized sup-norm < T, exact and non-increasing in T.  For lattices of
totally real fields the estimate is certified externally by the integrality
of norms (any window containing a unit yields the exact value).

The audit ties the modules together: the positive-orthant sail's facet and
edge-star determinants, the facet determinants of all combinatorially
distinct orthant sails, and the norm-minimum estimate.  The box property
checks that no lattice point of the open positive orthant lies in the box
|x_i| < T0 * u_i / P^(1/n) of a certified facet, with u the facet's normal,
P the product of its coordinates and T0 = n^(-1/2) (det F)^(1/n).  T0 is
irrational, so `_rotated_box_violations` decides the box exactly on both
sides raised to the power 2n.  Which box the paper means is not settled
here: a cube below the facet after the diagonal map that makes the facet
orthogonal to the bisector is a different box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .determinants import det_facet, det_report
from .lattice import _ENUM_SHIFT, OrthantSign, _box_filter, _root_bounds, _window_bounds
from .linalg import lll_reduce
# the benchmark's tracer wraps `irrationality_check` under this module's name
from .lattice import irrationality_check  # noqa: F401
from .numberfield import cmp_at, interval_at
from .sail import DEFAULT_POINT_BUDGET, PointBudgetError, _enumerate_core, build_sail_patch

__all__ = [
    "enumerate_sym_box", "orthant_representatives", "norm_minimum_estimate", "vertex_phi_inf",
    "check_t0_boxes", "theorem1_audit", "AuditReport", "audit_consistency",
]


def enumerate_sym_box(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Nonzero lattice points of Q(t) = {max |x_i| < t}, exact.

    No library code calls this: the norm estimate reads the orthant patches'
    hull vertices.  It stays as the tests' brute-force reference for the
    irrationality witnesses, the norm minimum and the T0 boxes.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    hi = lat.raw_window_interval(t)[1]
    boxes = [(-hi, hi)] * lat.n
    return list(_enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), -1), budget))


def _least_abs_phi(lat, coeffs):
    """(least |phi| over the points `coeffs`, the first point reaching it)."""
    best = best_c = None
    for c in coeffs:
        v = lat.phi(c)
        if lat.scalar_sign(v) < 0:
            v = -v
        if best is None or lat.scalar_cmp(v, best) < 0:
            best, best_c = v, c
    return best, best_c


def norm_minimum_estimate(lat, t, budget=DEFAULT_POINT_BUDGET, patches=None):
    """Exact minimum of |phi| over the nonzero lattice points of Q(t).

    An upper bound for the norm minimum, non-increasing in t.  Returns
    (value, witness coefficients).  The value is a nonnegative Fraction, or
    a nonnegative FieldElement for single-field lattices; the witness is in
    the caller's basis.  `patches` maps each orthant representative's sign
    tuple to its sail patch at window t, as the audit passes them; they are
    built here otherwise, so an empty window raises ValueError.

    The value is the least |phi| over the patches' hull vertices.  Q(t)'s
    nonzero points are those of the windows W = [0, t)^n of the 2^(n-1)
    representatives and their negatives; x and -x have the same |phi|, and
    reflections keep coefficients.  On W, |phi| is a positive multiple of
    g^n, g(x) = (x_1...x_n)^(1/n), concave and nondecreasing on the closed
    orthant.  A point of P = conv(W) + orthant is a convex mix of P's
    vertices plus a vector >= 0, so g is least over W at a vertex v of P.
    v is Pareto-minimal in W, and a strictly positive functional a is least
    over P at v alone: take a inside P's normal cone at v, whose interior is
    not empty and lies in the open orthant.  `build_sail_patch` hulls W's
    Pareto set and closure points mu*r, in coefficients, a linear image.
    Every closure point is componentwise >= t in normalized coordinates:
    `build_sail_patch` doubles mu until its enclosures, or exact comparisons
    where they cannot settle it, show so (`sail._closure_points`).  So a is
    larger on each closure point than at v, whose coordinates are < t, and
    v is one of `hull_vertices`; the other hull vertices, points of W, read
    no lower.
    """
    t = Fraction(t)
    reps = [tuple(s) for s in orthant_representatives(lat.n)]
    if patches is None:
        patches = {s: build_sail_patch(lat.reflect(s), t, budget) for s in reps}
    if set(patches) != set(reps):
        raise ValueError("need one patch per orthant representative")
    for s in reps:
        p = patches[s]
        if p.t != t or p.lattice.to_json() != lat.reflect(s).to_json():
            raise ValueError(f"patch for {s} is not this lattice's closed window at {t}")
    return _least_abs_phi(lat, (c for s in reps for c in patches[s].hull_vertices))


def vertex_phi_inf(patch):
    """Exact minimum of phi (>= 0 on the closed orthant) over the patch's certified vertices."""
    verts = patch.certified_vertices()
    if not verts:
        raise ValueError("patch has no certified vertices")
    return _least_abs_phi(patch.lattice, verts)[0]


# ---------------------------------------------------------------------------
# the box Q(T0)

def _rotated_box_violations(lat, facet, budget=DEFAULT_POINT_BUDGET):
    """(violations, boundary points) of the facet's box.

    The box is, in raw coordinates,
      |x_i| < T0 * d^(2/n) * |u_i| / P^(1/n)   for every i,
    that is |x_i| < T0 * u_i / P^(1/n) on unit-scale lattices, with u the raw
    ambient normal of the facet's support functional, P the normalized
    normal coordinate product and d the tracked determinant scale.  It is
    decided exactly, never materialized: x is inside iff for every i
      x_i^(2n) * P^2 * n^n  <  (det F)^2 * d^4 * u_i^(2n).
    The scan's search box is bounded by certified enclosures of the sides,
    from the exact b_i^(2n) = (det F)^2 d^4 u_i^(2n) / (P^2 n^n).
    The scan runs in the box-reduced basis of `_box_basis`.  Violations are
    the box's lattice points in the open positive orthant; boundary points
    are its nonzero closed-orthant points with a zero coordinate, which the
    boundary policy leaves out.  Both are sorted coefficient tuples.
    """
    n = lat.n
    w = facet.support
    det_f = det_facet(facet)
    p_norm = lat.support_normal_product(w)  # prod of normalized normal coords
    d4 = lat.scale_d_sq ** 2
    lhs_const = p_norm ** 2 * Fraction(n) ** n
    rhs_const = Fraction(det_f) ** 2 * d4

    # the raw normal u = B^-T w: the coordinates of w in the dual lattice
    dual = lat.dual()
    u_raw = [dual.coord(w, i) for i in range(n)]
    rhs = [rhs_const * u ** (2 * n) for u in u_raw]
    e = lat.embeddings

    def below(c, i):
        return cmp_at(lat.coord(c, i) ** (2 * n) * lhs_const, rhs[i], e[i]) < 0

    bounds = []
    for i in range(n):
        q_lo, q_hi = interval_at(rhs[i] / lhs_const, e[i], Fraction(1, 2**96))
        bounds.append(_root_bounds(q_lo, q_hi, 2 * n, _ENUM_SHIFT) + (below,))
    boxes = [(0, b_hi) for _, b_hi, _ in bounds]
    pts = _enumerate_core(lat, boxes, _box_filter(lat, bounds, 0), budget,
                          _box_basis(lat, [b_hi for _, b_hi, _ in bounds]))
    violations, boundary = [], []
    for c, partial in sorted(pts.items()):
        on_axis = any(partial[i][0] <= 0 and lat.coord_sign(c, i) == 0 for i in range(n))
        (boundary if on_axis else violations).append(c)
    return violations, boundary


def _box_basis(lat, sides):
    """(U, U^-1) for the scan of a box whose side i is sides[i] > 0: U
    LLL-reduces the basis in the metric that divides axis i by sides[i], read
    on the midpoints of the cached basis enclosures.

    A box far thinner along one axis than along the others holds few points,
    but in the lattice's own basis each coefficient still sweeps a long
    range; in the reduced basis the coefficients of the box's points stay
    small.  Any unimodular U keeps the scan exact, since the enumerator's
    bounds are certified in every basis; this one only keeps it short.
    """
    enc = lat.basis_interval_matrix()
    return lll_reduce([[Fraction(enc[i][j][0] + enc[i][j][1], side)
                        for i, side in enumerate(sides)] for j in range(lat.n)])


def check_t0_boxes(patch, budget=DEFAULT_POINT_BUDGET):
    """The box property for every certified facet: no lattice point of the
    open positive orthant inside the facet's box (the box is given in
    `_rotated_box_violations`).

    Under the boundary policy of `build_sail_patch`, points with a zero
    coordinate are left out of `violations` and listed (sorted coefficient
    tuples) in `boundary_points`, so `ok` never hides that the hypothesis
    failed.
    """
    violations = []  # (facet index, its 8 least violations)
    boundary = set()
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        try:
            bad, edge = _rotated_box_violations(patch.lattice, f, budget)
        except PointBudgetError as exc:
            raise exc.at("t0_box", patch.lattice, patch.t) from exc
        boundary.update(edge)
        if bad:
            violations.append((fi, bad[:8]))
    return {"facets_checked": len(patch.certified_facets()),
            "violations": violations, "boundary_points": sorted(boundary),
            "ok": not violations}


# ---------------------------------------------------------------------------
# the audit

@dataclass
class AuditReport:
    window: Fraction
    orthants: list            # per-orthant dicts
    max_det_facet_all: int    # across all combinatorially distinct orthants
    pos_max_det_facet: int    # positive orthant only
    pos_max_det_star: int
    norm_min_estimate: object
    norm_min_witness: tuple
    pos_complete_stars: int
    pos_certified_facets: int
    lattice: object           # the audited lattice: orders field-valued estimates

    def to_json(self):
        return {
            "schema": "kleinsail.audit/1",
            "window": str(self.window),
            "orthants": [
                {
                    "signs": list(o["signs"]),
                    "max_det_facet": o["max_det_facet"],
                    "certified_facets": o["certified_facets"],
                    "complete_stars": o["complete_stars"],
                    "max_det_star": o["max_det_star"],
                    "irrationality_ok": o["irrationality_ok"],
                }
                for o in self.orthants
            ],
            "max_det_facet_all_orthants": self.max_det_facet_all,
            "positive_orthant": {
                "max_det_facet": self.pos_max_det_facet,
                "max_det_star": self.pos_max_det_star,
                "complete_stars": self.pos_complete_stars,
                "certified_facets": self.pos_certified_facets,
            },
            "norm_minimum_estimate": str(self.norm_min_estimate),
            "norm_minimum_witness": list(self.norm_min_witness),
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def orthant_representatives(n):
    """One sign vector per centrally symmetric pair (first component +1)."""
    return [OrthantSign((1,) + rest) for rest in iproduct((1, -1), repeat=n - 1)]


def theorem1_audit(lat, t, budget=DEFAULT_POINT_BUDGET):
    """Window data for the boundedness equivalences.

    Builds the sail patch of every combinatorially distinct orthant (the
    2^n orthants collapse to 2^(n-1) by central symmetry), collects the
    facet-determinant maxima across them, the facet and edge-star maxima of
    the positive orthant, and the norm-minimum estimate, which reads the
    hull vertices of these patches.
    """
    t = Fraction(t)
    orthants = []
    patches = {}
    max_all = 0
    pos_fac = pos_star = 0
    pos_stars_n = pos_cert_n = 0
    for signs in orthant_representatives(lat.n):
        patch = build_sail_patch(lat.reflect(signs), t, budget=budget)
        patches[tuple(signs)] = patch
        dr = det_report(patch)
        entry = {
            "signs": tuple(signs),
            "max_det_facet": dr.max_det_facet,
            "max_det_star": dr.max_det_star,
            "certified_facets": len(patch.certified_facets()),
            "complete_stars": len(patch.complete_star_vertices()),
            "irrationality_ok": patch.irrationality.ok,
        }
        orthants.append(entry)
        max_all = max(max_all, dr.max_det_facet)
        if all(s == 1 for s in signs):
            pos_fac, pos_star = dr.max_det_facet, dr.max_det_star
            pos_stars_n = len(patch.complete_star_vertices())
            pos_cert_n = len(patch.certified_facets())
    est, witness = norm_minimum_estimate(lat, t, budget, patches=patches)
    return AuditReport(
        window=t, orthants=orthants, max_det_facet_all=max_all,
        pos_max_det_facet=pos_fac, pos_max_det_star=pos_star,
        norm_min_estimate=est, norm_min_witness=witness,
        pos_complete_stars=pos_stars_n, pos_certified_facets=pos_cert_n,
        lattice=lat,
    )


def audit_consistency(small, big):
    """Monotonicity of the audit data between two windows (small.t < big.t):
    the norm estimate never increases and the determinant maxima never
    decrease as the window grows.  Field-valued estimates are ordered under
    the audited lattice's own embedding."""
    if not small.window < big.window:
        raise ValueError("expected increasing windows")
    lat = big.lattice
    return {
        "norm_estimate_non_increasing": lat.scalar_cmp(big.norm_min_estimate,
                                                       small.norm_min_estimate) <= 0,
        "max_det_all_non_decreasing": big.max_det_facet_all >= small.max_det_facet_all,
        "pos_max_det_non_decreasing": big.pos_max_det_facet >= small.pos_max_det_facet,
        "pos_max_star_non_decreasing": big.pos_max_det_star >= small.pos_max_det_star,
        "maxima_equal": (big.max_det_facet_all == small.max_det_facet_all
                         and big.pos_max_det_facet == small.pos_max_det_facet
                         and big.pos_max_det_star == small.pos_max_det_star),
    }
