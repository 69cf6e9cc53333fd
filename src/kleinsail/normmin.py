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
irrational, so it compares through the exact predicate
t^(2n) * n^n  vs  (det F)^2.  Which box the paper means is not settled
here: a cube below the facet after the diagonal map that makes the facet
orthogonal to the bisector is a different box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .determinants import det_report
from .lattice import OrthantSign, _root_bounds
# the benchmark's tracer wraps `irrationality_check` under this module's name
from .lattice import irrationality_check  # noqa: F401
from .numberfield import cmp_at, interval_at
from .sail import (
    DEFAULT_POINT_BUDGET, _ENUM_SHIFT, _box_filter, _enumerate_core, _window_bounds,
    _window_minima, build_sail_patch,
)

__all__ = [
    "norm_minimum_estimate", "vertex_phi_inf", "T0Bound", "t0_bound",
    "check_t0_boxes", "theorem1_audit", "AuditReport", "audit_consistency",
]


def enumerate_sym_box(lat, t, budget=DEFAULT_POINT_BUDGET, minimal=False, patches=None):
    """Nonzero lattice points of Q(t) = {max |x_i| < t}, exact.

    With `minimal`, only the Pareto-minimal points of the closed windows
    [0, t)^n of the 2^(n-1) orthant representatives, each once: Q(t) is the
    union of these windows and their negatives, and every window point is
    dominated by a minimal one, |y_i| <= |x_i| for every i.  Coefficients are
    in the caller's basis, since orthant reflections keep them.  `patches`
    maps each representative's sign tuple to its sail patch at window t; the
    minima are then read from the patches instead of enumerated again.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("window must be positive")
    if not minimal:
        hi = lat.raw_window_enclosure(t)
        boxes = [(-hi, hi)] * lat.n
        return list(_enumerate_core(lat, boxes, _box_filter(lat, _window_bounds(lat, t), -1),
                                    budget))
    reps = orthant_representatives(lat.n)
    if patches is not None and set(patches) != {tuple(s) for s in reps}:
        raise ValueError("need one patch per orthant representative")
    pts = []
    for signs in reps:
        refl = lat.reflect(signs)
        if patches is None:
            pts.extend(_window_minima(refl, t, budget=budget)[1])
            continue
        p = patches[tuple(signs)]
        if (p.t != t or not p.include_boundary
                or p.lattice.to_json() != refl.to_json()):
            raise ValueError(f"patch for {tuple(signs)} is not this lattice's closed "
                             f"window at {t}")
        pts.extend(p.minima)
    return list(dict.fromkeys(pts))


def norm_minimum_estimate(lat, t, budget=DEFAULT_POINT_BUDGET, patches=None):
    """Exact minimum of |phi| over the nonzero lattice points of Q(t).

    An upper bound for the norm minimum, non-increasing in t.  Returns
    (value, witness coefficients).  The value is a nonnegative Fraction, or
    a nonnegative FieldElement for single-field lattices; the witness is in
    the caller's basis.

    Only the minimal points of `enumerate_sym_box` are searched, not the
    whole box: if |y_i| <= |x_i| for every i then |phi(y)| <= |phi(x)|, and x
    and -x have the same |phi|, so the two minima agree.  `patches` (the
    audit's orthant patches at window t) saves enumerating the windows again.
    """
    pts = enumerate_sym_box(lat, t, budget, minimal=True, patches=patches)
    if not pts:
        raise ValueError("window contains no nonzero lattice points")
    best = None
    best_c = None
    for c in pts:
        v = lat.phi(c)
        if lat.scalar_sign(v) < 0:
            v = -v
        if best is None or lat.scalar_cmp(v, best) < 0:
            best, best_c = v, c
    return best, best_c


def vertex_phi_inf(patch):
    """Exact minimum of phi over the patch's certified vertices."""
    verts = patch.certified_vertices()
    if not verts:
        raise ValueError("patch has no certified vertices")
    lat = patch.lattice
    best = None
    for c in verts:
        v = lat.phi(c)
        if best is None or lat.scalar_cmp(v, best) < 0:
            best = v
    return best


# ---------------------------------------------------------------------------
# the box Q(T0)

@dataclass(frozen=True)
class T0Bound:
    """Exact comparison object for T0 = n^(-1/2) (det F)^(1/n).

    T0 itself is irrational; compare(t) decides t vs T0 through
    t^(2n) * n^n  vs  (det F)^2, exactly.
    """

    det_f: int
    n: int

    def compare(self, t):
        t = Fraction(t)
        if t < 0:
            return -1
        lhs = t ** (2 * self.n) * self.n ** self.n
        rhs = Fraction(self.det_f) ** 2
        return (lhs > rhs) - (lhs < rhs)

    def __float__(self):
        return self.n ** -0.5 * self.det_f ** (1.0 / self.n)


def t0_bound(facet, n=None):
    from .determinants import det_facet
    if n is None:
        n = len(facet.vertices[0])
    return T0Bound(det_f=det_facet(facet), n=n)


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
    Violations are the box's lattice points in the open positive orthant;
    boundary points are its nonzero closed-orthant points with a zero
    coordinate, which the boundary policy leaves out.
    """
    from .determinants import det_facet

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
    boxes = [(Fraction(0), Fraction(b_hi, 1 << _ENUM_SHIFT)) for _, b_hi, _ in bounds]
    pts = _enumerate_core(lat, boxes, _box_filter(lat, bounds, 0), budget)
    violations, boundary = [], []
    for c, partial in pts.items():
        on_axis = any(partial[i][0] <= 0 and lat.coord_sign(c, i) == 0 for i in range(n))
        (boundary if on_axis else violations).append(c)
    return violations, boundary


def check_t0_boxes(patch, budget=DEFAULT_POINT_BUDGET):
    """The box property for every certified facet: no lattice point of the
    open positive orthant inside the facet's box (the box is given in
    `_rotated_box_violations`).

    Under the boundary policy of `build_sail_patch`, points with a zero
    coordinate are left out of `violations` and listed (sorted coefficient
    tuples) in `boundary_points`, so `ok` never hides that the hypothesis
    failed.
    """
    violations = []
    boundary = set()
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        bad, edge = _rotated_box_violations(patch.lattice, f, budget)
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
    the positive orthant, and the norm-minimum estimate, which searches the
    Pareto-minimal window points the patches have already found.
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
