"""Polar polyhedra of Klein polyhedra and the face bijection.

The polar body of K (all x with <x, y> >= 1 on K) has one vertex per
bounded facet of K: the facet with support functional w and integer
distance D maps to u = w/D in dual-lattice coordinates, so every pairing
computation here is exact rational arithmetic on coefficient vectors --
no ambient irrationalities ever enter.  Faces of the polar body are built
combinatorially from the certified face poset: a face G of K maps to the
polar face with vertex set {u_F : F a certified facet containing G}, of
dimension n - 1 - dim G, reversing inclusions.

Window truncation is tracked by completeness flags inherited from the
source patch; every check skips incomplete faces and reports the skips.

Each check here can fail on a patch: dimension duality (which also gives
the face counts of the bijection), inclusion reversal, Lemma 5's bound,
the certified facet inequalities at every facet vertex and centroid, and
K* inside the polar body.  Lemma 4 holds by construction -- D u_F is the
integer vector w -- and `build_polar_patch` refuses a facet whose vertex
misses its own equation w . c = D.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .determinants import det_edge_star
from .linalg import affine_rank, det, solve, subset_det_sum, vec_dot
from .sail import DEFAULT_POINT_BUDGET, build_sail_patch

__all__ = [
    "PolarFace", "PolarPatch", "polar_vertex_of_facet", "build_polar_patch",
    "det_polar_facet", "check_lemma5", "check_Kast_in_Kcirc", "simplicial_polar_identity",
    "check_convex_hull_of_vertices", "check_dimension_duality", "check_inclusion_reversal",
    "CheckReport",
]


@dataclass
class CheckReport:
    checked: int
    passed: int
    skipped_incomplete: int
    witnesses: list

    @property
    def ok(self):
        return self.checked == self.passed

    def to_json(self):
        return {
            "checked": self.checked,
            "passed": self.passed,
            "skipped_incomplete": self.skipped_incomplete,
            "witnesses": [str(w) for w in self.witnesses[:32]],
        }


def polar_vertex_of_facet(facet):
    """The polar vertex of a certified facet, in dual-basis coordinates.

    D times the vertex is the integer vector w, i.e. a point of the dual
    lattice; the vertex itself lies in (1/D) times the dual lattice.
    """
    if not facet.certified:
        raise ValueError("polar vertices exist only for certified facets")
    d = Fraction(facet.dist)
    return tuple(Fraction(x) / d for x in facet.support)


@dataclass(frozen=True)
class PolarFace:
    source_dim: int
    source_vertices: tuple     # coeff tuples of the source face's vertices
    vertices: tuple            # polar vertices (tuples of Fractions), sorted
    complete: bool

    @property
    def dim(self):
        pts = [tuple(v) for v in self.vertices]
        return affine_rank(pts)


@dataclass
class PolarPatch:
    source: object             # SailPatch
    vertex_by_facet: dict      # facet index -> polar vertex
    faces: list                # PolarFace, all certified source faces

    def complete_faces(self):
        return [f for f in self.faces if f.complete]

    def faces_of_source_dim(self, k):
        return [f for f in self.faces if f.source_dim == k]

    def to_json(self):
        return {
            "schema": "kleinsail.polar/1",
            "window": str(self.source.t),
            "polar_vertices": [
                {"facet": fi, "coords": [str(x) for x in u]}
                for fi, u in sorted(self.vertex_by_facet.items())
            ],
            "faces": [
                {
                    "source_dim": f.source_dim,
                    "source_vertices": [list(c) for c in f.source_vertices],
                    "vertices": [[str(x) for x in u] for u in f.vertices],
                    "complete": f.complete,
                    "dim": f.dim if f.vertices else -1,
                }
                for f in self.faces
            ],
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def build_polar_patch(patch):
    """Polar faces of every certified face of the patch, via the bijection."""
    certified = [(fi, f) for fi, f in enumerate(patch.facets) if f.certified]
    if not certified:
        raise ValueError("empty patch has no polar")
    n = patch.n
    vertex_by_facet = {}
    facets_at = {}  # certified vertex -> the certified facets whose vertices hold it
    faces = []
    # facets -> polar vertices (0-faces), complete by certification
    for fi, f in certified:
        u = vertex_by_facet[fi] = polar_vertex_of_facet(f)
        for c in f.vertices:
            # the defining pairing <u_F, c> = 1, i.e. <w, c> = D, in integers
            if sum(w * x for w, x in zip(f.support, c)) != f.dist:
                raise AssertionError("polar vertex fails its defining pairing")
            facets_at.setdefault(c, set()).add(fi)
        faces.append(PolarFace(source_dim=n - 1, source_vertices=f.vertices,
                               vertices=(u,), complete=True))
    # edges (n = 3 only) -> (n-2)-faces
    if n == 3:
        for (a, b) in patch.edges:
            incident = facets_at.get(a, set()) & facets_at.get(b, set())
            if not incident:
                continue
            us = tuple(sorted(vertex_by_facet[fi] for fi in incident))
            faces.append(PolarFace(source_dim=1, source_vertices=(a, b),
                                   vertices=us, complete=len(incident) == 2))
    # vertices -> polar facets, complete iff the star is complete
    for v in sorted(facets_at):
        us = tuple(sorted(vertex_by_facet[fi] for fi in facets_at[v]))
        star = patch.stars.get(v)
        faces.append(PolarFace(source_dim=0, source_vertices=(v,),
                               vertices=us,
                               complete=bool(star) and star.complete))
    return PolarPatch(source=patch, vertex_by_facet=vertex_by_facet, faces=faces)


def check_dimension_duality(polar):
    """Statement: dim(polar face) = n - 1 - dim(source face), complete faces."""
    n = polar.source.n
    checked = passed = skipped = 0
    witnesses = []
    for f in polar.faces:
        if not f.complete:
            skipped += 1
            continue
        checked += 1
        if f.dim == n - 1 - f.source_dim:
            passed += 1
        else:
            witnesses.append((f.source_vertices, f.dim))
    return CheckReport(checked, passed, skipped, witnesses)


def check_inclusion_reversal(polar):
    """G subset H iff polar(H) subset polar(G), over complete face pairs."""
    faces = polar.complete_faces()
    checked = passed = 0
    witnesses = []
    for g in faces:
        gs = set(g.source_vertices)
        gp = set(g.vertices)
        for h in faces:
            if g is h:
                continue
            hs = set(h.source_vertices)
            hp = set(h.vertices)
            checked += 1
            fwd = gs <= hs
            rev = hp <= gp
            if fwd == rev or (gs == hs):
                passed += 1
            else:
                witnesses.append((g.source_vertices, h.source_vertices))
    skipped = len(polar.faces) - len(faces)
    return CheckReport(checked, passed, skipped, witnesses)


def det_polar_facet(face):
    """Generalized facet determinant of a polar face (exact rational)."""
    if not face.complete:
        raise ValueError("incomplete polar face")
    n = len(face.vertices[0])
    return subset_det_sum(face.vertices, n)


def check_lemma5(patch):
    """det(polar facet of v) <= (det St_v)^(n-1) at complete vertices."""
    polar = build_polar_patch(patch)
    n = patch.n
    checked = passed = skipped = 0
    witnesses = []
    for f in polar.faces_of_source_dim(0):
        if not f.complete:
            skipped += 1
            continue
        v = f.source_vertices[0]
        star = patch.stars[v]
        lhs = det_polar_facet(f)
        rhs = Fraction(det_edge_star(star)) ** (n - 1)
        checked += 1
        if lhs <= rhs:
            passed += 1
        else:
            witnesses.append((v, lhs, rhs))
    return CheckReport(checked, passed, skipped, witnesses)


def check_Kast_in_Kcirc(lat, t, budget=DEFAULT_POINT_BUDGET):
    """The dual lattice's Klein polyhedron sits inside the polar body.

    Pairings of lattice and dual-lattice points are integers, so for
    interior certified vertices y* of K* and v of K the product <y*, v>
    is a positive integer, hence >= 1; any violation is reported.  In
    dimension 2 the polar vertex set and the certified K* vertex set are
    compared on the common window (they coincide: K* = Kcirc).

    Under the boundary policy of `build_sail_patch`, both checks leave out
    the certified vertices with a zero coordinate, and the facets of K that
    meet one; those vertices are listed (sorted coefficient tuples) in
    `boundary_points` for K and `dual_boundary_points` for K*.
    """
    dual = lat.dual()
    patch = build_sail_patch(lat, t, budget=budget)
    dual_patch = build_sail_patch(dual, t, budget=budget)
    prim = patch.interior_certified_vertices()
    dstar = dual_patch.interior_certified_vertices()
    if not prim or not dstar:
        raise ValueError("degenerate window: no interior certified vertices")
    checked = passed = 0
    witnesses = []
    for cstar in dstar:
        for c in prim:
            checked += 1
            pairing = sum(int(a) * int(b) for a, b in zip(cstar, c))
            if pairing >= 1:
                passed += 1
            else:
                witnesses.append((cstar, c, pairing))
    result = {
        "pairing": CheckReport(checked, passed, 0, witnesses),
        "primal_vertices": len(prim),
        "dual_vertices": len(dstar),
        "boundary_points": sorted(set(patch.certified_vertices()).difference(prim)),
        "dual_boundary_points": sorted(set(dual_patch.certified_vertices()).difference(dstar)),
    }
    if lat.n == 2:
        result["vertex_sets_equal"] = _compare_2d_polar_sets(dual, patch, set(prim), set(dstar))
    return result


def _compare_2d_polar_sets(dual, patch, interior, dual_set):
    """K* = Kcirc in the plane: certified K* vertices vs polar vertices,
    restricted to the overlap of the two contiguous runs.

    The equality assumes orthant-boundary-free lattices, which the rational
    stand-ins never are (the lattice of alpha always meets one axis, its
    dual the other).  Only the interior certified vertices of K, `interior`,
    and of K*, `dual_set`, take part: facets of K that meet a boundary
    vertex are left out.  They carry exactly the axis artifacts, and the
    interior structure must agree; `check_Kast_in_Kcirc` reports the
    boundary vertices.  With no vertex in common there is nothing to
    compare, and `equal` is None, not False.
    """
    polar_set = set()
    for f in patch.certified_facets():
        if f.dist != 1:
            raise AssertionError("2D sail facet with integer distance > 1")
        if interior.issuperset(f.vertices):
            polar_set.add(f.support)
    if not (polar_set & dual_set):
        return {"equal": None, "overlap": 0, "only_polar": [], "only_dual": []}

    # both sets are points of the dual lattice, ordered exactly by their
    # first coordinate there
    key = cmp_to_key(lambda a, b: dual.coord_cmp_points(a, b, 0))
    lo = key(max(min(polar_set, key=key), min(dual_set, key=key), key=key))
    hi = key(min(max(polar_set, key=key), max(dual_set, key=key), key=key))
    mid_p = {c for c in polar_set if lo <= key(c) <= hi}
    mid_d = {c for c in dual_set if lo <= key(c) <= hi}
    return {
        "equal": mid_p == mid_d,
        "overlap": len(mid_p & mid_d),
        "only_polar": sorted(mid_p - mid_d),
        "only_dual": sorted(mid_d - mid_p),
    }


def simplicial_polar_identity(rs, lambdas):
    """Exact check of the simplicial polar determinant identity.

    Given a basis r_1..r_n and v = sum lambda_i r_i with all lambda_i > 0,
    the simplices F_i = conv({v, v+r_1, ..., v+r_n} minus {v+r_i}) have
    supporting functionals w_i with <w_i, x> = 1 on F_i, and
    |det(w_1..w_n)| = |det(r_1..r_n)|^(n-1) / (det F_1 ... det F_n).
    Returns (lhs, rhs); they are asserted equal.
    """
    rs = [tuple(Fraction(x) for x in r) for r in rs]
    n = len(rs)
    lambdas = [Fraction(x) for x in lambdas]
    if len(lambdas) != n:
        raise ValueError("need one coefficient per basis vector")
    if any(l <= 0 for l in lambdas):
        raise ValueError("v must have strictly positive coordinates in the basis")
    if det(rs) == 0:
        raise ValueError("degenerate basis")
    v = tuple(sum(l * r[k] for l, r in zip(lambdas, rs)) for k in range(n))
    ws = []
    det_fs = []
    for i in range(n):
        verts = [v] + [tuple(v[k] + rs[j][k] for k in range(n))
                       for j in range(n) if j != i]
        # <w, x> = 1 on all vertices
        w = solve(verts, tuple(Fraction(1) for _ in range(n)))
        ws.append(w)
        det_fs.append(abs(det(verts)))
    lhs = abs(det(ws))
    rhs = abs(det(rs)) ** (n - 1) / math.prod(det_fs)
    if lhs != rhs:
        raise AssertionError(f"polar identity violated: {lhs} != {rhs}")
    return lhs, rhs


def check_convex_hull_of_vertices(patch):
    """Window-scale statement that the polyhedron is the hull of its vertices:
    certified facet vertices and centroids satisfy every certified facet
    inequality w . x >= D, exactly."""
    checked = passed = 0
    witnesses = []
    certified = patch.certified_facets()
    samples = []
    for f in certified:
        vs = [tuple(Fraction(x) for x in c) for c in f.vertices]
        m = len(vs)
        centroid = tuple(sum(col) / m for col in zip(*vs))
        samples.extend(vs)
        samples.append(centroid)
    for x in samples:
        for g in certified:
            checked += 1
            if vec_dot([Fraction(w) for w in g.support], x) >= g.dist:
                passed += 1
            else:
                witnesses.append((x, g.support, g.dist))
    return CheckReport(checked, passed, 0, witnesses)
