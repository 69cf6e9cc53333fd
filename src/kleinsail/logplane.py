"""The logarithmic projection of a sail and its cell partition.

Points of the open positive orthant are first scaled onto the surface
{x1*...*xn = 1} and then mapped through coordinatewise logarithms to
R^(n-1); a sail projects to a partition of the plane into curvilinear
cells, one per facet.  Everything here is diagnostic: floats never flow
back into the exact modules.  A patch is projected in one pass: each
vertex's coordinates are formed exactly and read at 113 bits once, and its
image is shared by every cell that meets it; each edge is sampled once, and
a cell that meets it the other way reads the same samples reversed.  A
sample's coordinates are lambda*x(a) + (1 - lambda)*x(b) from its vertices'
values, the products exact and the sum rounded once at 121 bits.  Both
terms are positive, so samples are positive by convexity, with relative
error at most their vertices' plus 2^-120.  Logarithms are taken at 113
bits in mpmath's raw layer.  Comparison tolerances are fixed constants.

The phi-bound checks, by contrast, are exact: vertex and sample products
and the facet section determinants are rational, and the comparison
phi(x) < det S(F) is decided with no rounding at all.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import mpmath
from mpmath.libmp import (
    from_int, from_rational, mpf_add, mpf_div, mpf_log, mpf_mul, mpf_sub, to_float,
)

from .determinants import det_SF
from .numberfield import mpf_at

__all__ = [
    "pi_log", "pi_log_point", "LogCell", "project_patch",
    "cell_covering_radius", "check_phi_bounds", "PhiBoundReport",
    "TRANSLATION_TOL", "EDGE_SAMPLES",
]

TRANSLATION_TOL = 1e-6     # cell matching under diagonal rescales
EDGE_SAMPLES = 16          # sample points per curvilinear cell edge
_PREC = 113                # working precision in bits before ln
_MIX_PREC = _PREC + 8      # edge samples: exact products, one rounding
_GRID_PITCH = 0.25         # covering-radius grid pitch, in units of the largest cell radius
_INTERIOR_SAMPLES = 4      # phi samples per certified facet beyond its vertices
_make_mpf = mpmath.mp.make_mpf


def pi_log(values):
    """ln(x_i) - (1/n) ln(x_1...x_n) for i < n, from positive numbers, at
    _PREC bits and rounded to the nearest floats.

    Works on mpmath's raw values.  An mpf is read at its own precision, so a
    121-bit edge sample is not rounded before its logarithm; any other
    number is converted at _PREC bits.
    """
    logs = [mpf_log(_raw(v), _PREC, "n") for v in values]
    total = logs[0]
    for l in logs[1:]:
        total = mpf_add(total, l, _PREC, "n")
    mean = mpf_div(total, from_int(len(logs)), _PREC, "n")
    return tuple(to_float(mpf_sub(l, mean, _PREC, "n"), rnd="n") for l in logs[:-1])


def _raw(v):
    if isinstance(v, mpmath.mpf):
        return v._mpf_
    with mpmath.workprec(_PREC):
        return mpmath.mp.convert(v)._mpf_


def _coord_values(lat, coeffs):
    """A point's coordinates at _PREC bits, or None if one is not positive."""
    if any(lat.coord_sign(coeffs, i) <= 0 for i in range(lat.n)):
        return None
    return [mpf_at(lat.coord(coeffs, i), lat.embeddings[i], _PREC) for i in range(lat.n)]


def pi_log_point(lat, coeffs):
    """Log-plane image of a lattice point (or rational combination).

    Raw coordinates are used; the determinant normalization shifts every
    image by the same vector, which the partition geometry ignores.
    """
    vals = _coord_values(lat, coeffs)
    if vals is None:
        raise ValueError("log projection needs strictly positive coordinates")
    return pi_log(vals)


@dataclass
class LogCell:
    facet_index: int
    vertex_images: tuple      # one per facet vertex
    edge_samples: tuple       # sampled boundary points (floats)
    centroid: tuple
    radius: float             # max distance from centroid to any boundary point
    interior: bool            # every vertex of the facet has a complete star


def project_patch(patch, edge_samples=EDGE_SAMPLES):
    """One log-plane cell per certified facet, from one pass over the patch.

    Each vertex's values and image are computed once, and every cell that
    meets the vertex reads them.  A vertex with a zero coordinate (patches
    lie in the closed orthant) touches the boundary: its facets are skipped
    and reported, under `build_sail_patch`'s policy.  Each edge is sampled
    once.  Sample s of a -> b mixes the vertex values with weights s/k and
    (k - s)/k, k = `edge_samples`; the products are exact and their sum is
    rounded once, so it is bit for bit sample k - s of b -> a, and a cell
    that meets the edge the other way reads the same list reversed.  Samples
    take no exact arithmetic."""
    lat = patch.lattice
    verts, edges = {}, {}    # vertex -> (values, image) or None; (a, b) -> samples
    weights = [(from_rational(s, edge_samples, _MIX_PREC, "n"),
                from_rational(edge_samples - s, edge_samples, _MIX_PREC, "n"))
               for s in range(1, edge_samples)]

    def vertex(c):
        if c not in verts:
            vals = _coord_values(lat, c)
            verts[c] = None if vals is None else (vals, pi_log(vals))
        return verts[c]

    def edge(a, b):
        if (b, a) in edges:
            return edges[b, a][::-1]
        if (a, b) not in edges:
            xa = [x._mpf_ for x in verts[a][0]]
            xb = [x._mpf_ for x in verts[b][0]]
            edges[a, b] = [
                pi_log([_make_mpf(mpf_add(mpf_mul(wa, x), mpf_mul(wb, y), _MIX_PREC, "n"))
                        for x, y in zip(xa, xb)])
                for wa, wb in weights]
        return edges[a, b]

    cells = []
    skipped = []
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        ring = list(f.cycle) if set(f.cycle) == set(f.vertices) else sorted(f.vertices)
        if any(vertex(c) is None for c in ring):
            skipped.append(fi)
            continue
        imgs = [verts[c][1] for c in ring]
        samples = list(imgs)
        m = len(ring)
        for k in range(m if (lat.n == 3 and m > 2) else m - 1):
            samples.extend(edge(ring[k], ring[(k + 1) % m]))
        dim = len(imgs[0])
        centroid = tuple(sum(p[d] for p in imgs) / len(imgs) for d in range(dim))
        radius = max(math.dist(centroid, p) for p in samples)
        interior = all(patch.stars.get(c) is not None and patch.stars[c].complete
                       for c in f.vertices)
        cells.append(LogCell(facet_index=fi, vertex_images=tuple(imgs),
                             edge_samples=tuple(samples), centroid=centroid,
                             radius=radius, interior=interior))
    return cells, skipped


def cell_covering_radius(cells):
    """Covering-radius estimate for the cell partition.

    Interior cells are uniformly bounded; the estimate D' = 2 max r keeps a
    whole cell inside any ball of radius D' centered in the covered region,
    which is verified on a grid of centers (pitch r_max * _GRID_PITCH).
    """
    interior = [c for c in cells if c.interior]
    if not interior:
        raise ValueError("no interior cells in the window")
    r_max = max(c.radius for c in interior)
    d_prime = 2 * r_max
    dim = len(interior[0].centroid)
    if dim == 1:
        los = [min(s[0] for s in c.edge_samples) for c in interior]
        his = [max(s[0] for s in c.edge_samples) for c in interior]
        lo, hi = min(los), max(his)
        centers = [lo + k * r_max * _GRID_PITCH
                   for k in range(int((hi - lo) / (r_max * _GRID_PITCH)) + 1)]
        centers = [(c,) for c in centers]
    else:
        xs = [p[0] for c in interior for p in c.edge_samples]
        ys = [p[1] for c in interior for p in c.edge_samples]
        pitch = r_max * _GRID_PITCH
        centers = []
        x = min(xs)
        while x <= max(xs):
            y = min(ys)
            while y <= max(ys):
                centers.append((x, y))
                y += pitch
            x += pitch
    needed = 0.0
    for ctr in centers:
        best = min(math.dist(ctr, c.centroid) + c.radius for c in interior)
        needed = max(needed, best)
    return {
        "max_cell_radius": r_max,
        "covering_radius_estimate": d_prime,
        "grid_max_needed_radius": needed,
        "grid_centers": len(centers),
        "interior_cells": len(interior),
    }


@dataclass
class PhiBoundReport:
    min_vertex_phi: object        # exact scalar
    max_vertex_phi: object
    max_sample_phi: object
    max_det_sf: object
    per_facet_ok: bool            # phi(sample) < det S(F) for every sample
    samples: int

    def to_json(self):
        return {
            "min_vertex_phi": str(self.min_vertex_phi),
            "max_vertex_phi": str(self.max_vertex_phi),
            "max_sample_phi": str(self.max_sample_phi),
            "max_det_SF": str(self.max_det_sf),
            "phi_below_det_SF": self.per_facet_ok,
            "samples": self.samples,
        }


def check_phi_bounds(patch):
    """Exact phi statistics over the certified patch.

    For every certified facet, phi is evaluated exactly at its vertices and
    at rational interior samples, and compared exactly against the facet's
    det S(F); the minimum of phi over certified vertices is the patch's
    norm-minimum evidence.  Field values are ordered under the lattice's
    own embedding.
    """
    lat = patch.lattice
    order = cmp_to_key(lat.scalar_cmp)
    vertex_phis = [lat.phi(c) for c in patch.certified_vertices()]
    max_sample = None
    max_sf = None
    ok = True
    count = 0
    for f in patch.certified_facets():
        sf = det_SF(f, lat)
        if max_sf is None or lat.scalar_cmp(sf, max_sf) > 0:
            max_sf = sf
        samples = [tuple(Fraction(x) for x in c) for c in f.vertices]
        m = len(f.vertices)
        centroid = tuple(sum(col) / m for col in zip(*samples))
        mixes = [centroid]
        for k in range(1, _INTERIOR_SAMPLES):
            lam = Fraction(k, _INTERIOR_SAMPLES + 1)
            mixes.append(tuple(lam * a + (1 - lam) * b
                               for a, b in zip(samples[0], centroid)))
        for x in samples + mixes:
            val = lat.phi(x)
            count += 1
            if lat.scalar_cmp(val, sf) >= 0:
                ok = False
            if max_sample is None or lat.scalar_cmp(val, max_sample) > 0:
                max_sample = val
    return PhiBoundReport(
        min_vertex_phi=min(vertex_phis, key=order),
        max_vertex_phi=max(vertex_phis, key=order),
        max_sample_phi=max_sample,
        max_det_sf=max_sf,
        per_facet_ok=ok,
        samples=count,
    )


def cells_csv(cells):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["cell", "facet", "interior", "radius", "vertex_images"])
    for i, c in enumerate(cells):
        w.writerow([i, c.facet_index, c.interior, f"{c.radius:.12g}",
                    ";".join(",".join(f"{x:.12g}" for x in p)
                             for p in c.vertex_images)])
    return buf.getvalue()
