"""The logarithmic projection of a sail and its cell partition.

Points of the open positive orthant are first scaled onto the surface
{x1*...*xn = 1} and then mapped through coordinatewise logarithms to
R^(n-1); a sail projects to a partition of the plane into curvilinear
cells, one per facet.  Everything here is diagnostic: floats never flow
back into the exact modules.  Scalars are evaluated to >= 80 bits before
the logarithm; comparison tolerances are fixed constants recorded in the
outputs.

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

from .determinants import det_SF
from .numberfield import interval_at, mpf_at, sign_at

__all__ = [
    "pi_log", "pi_log_point", "LogCell", "project_patch",
    "cell_covering_radius", "check_phi_bounds", "PhiBoundReport",
    "CONSISTENCY_TOL", "TRANSLATION_TOL", "EDGE_SAMPLES",
]

CONSISTENCY_TOL = 1e-9     # shared-vertex agreement across adjacent cells
TRANSLATION_TOL = 1e-6     # cell matching under diagonal rescales
EDGE_SAMPLES = 16          # sample points per curvilinear cell edge
_PREC = 113                # working precision in bits before ln


def pi_log(values):
    """ln(x_i) - (1/n) ln(x_1...x_n) for i < n, from positive numbers."""
    n = len(values)
    with mpmath.workprec(_PREC):
        logs = [mpmath.log(v) for v in values]
        mean = sum(logs) / n
        return tuple(float(l - mean) for l in logs[:-1])


def pi_log_point(lat, coeffs):
    """Log-plane image of a lattice point (or rational combination).

    Raw coordinates are used; the determinant normalization shifts every
    image by the same vector, which the partition geometry ignores.
    """
    vals = []
    for i in range(lat.n):
        x, e = lat.coord(coeffs, i), lat.embeddings[i]
        if not interval_at(x, e)[0] > 0 and sign_at(x, e) <= 0:
            raise ValueError("log projection needs strictly positive coordinates")
        vals.append(mpf_at(x, e, _PREC))
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
    """One log-plane cell per certified facet; facets touching the orthant
    boundary are skipped (their images are unbounded) and reported, under
    the boundary policy of `build_sail_patch`."""
    lat = patch.lattice
    cells = []
    skipped = []
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        if any(lat.coord_sign(c, i) == 0
               for c in f.vertices for i in range(lat.n)):
            skipped.append(fi)
            continue
        ring = list(f.cycle) if set(f.cycle) == set(f.vertices) else sorted(f.vertices)
        imgs = [pi_log_point(lat, c) for c in ring]
        samples = list(imgs)
        m = len(ring)
        pair_count = m if (lat.n == 3 and m > 2) else m - 1
        for k in range(pair_count):
            a, b = ring[k], ring[(k + 1) % m]
            for s in range(1, edge_samples):
                lam = Fraction(s, edge_samples)
                mix = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
                samples.append(pi_log_point(lat, mix))
        dim = len(imgs[0])
        centroid = tuple(sum(p[d] for p in imgs) / len(imgs) for d in range(dim))
        radius = max(math.dist(centroid, p) for p in samples)
        interior = all(patch.stars.get(c) is not None and patch.stars[c].complete
                       for c in f.vertices)
        cells.append(LogCell(facet_index=fi, vertex_images=tuple(imgs),
                             edge_samples=tuple(samples), centroid=centroid,
                             radius=radius, interior=interior))
    _check_shared_vertices(patch, cells)
    return cells, skipped


def _check_shared_vertices(patch, cells):
    # adjacent cells must agree on the images of shared facet vertices
    seen = {}
    for cell in cells:
        f = patch.facets[cell.facet_index]
        ring = list(f.cycle) if set(f.cycle) == set(f.vertices) else sorted(f.vertices)
        for c, img in zip(ring, cell.vertex_images):
            if c in seen:
                if math.dist(seen[c], img) > CONSISTENCY_TOL:
                    raise AssertionError("inconsistent shared cell vertex image")
            else:
                seen[c] = img


def cell_covering_radius(cells, grid_pitch_factor=0.25):
    """Covering-radius estimate for the cell partition.

    Interior cells are uniformly bounded; the estimate D' = 2 max r keeps a
    whole cell inside any ball of radius D' centered in the covered region,
    which is verified on a grid of centers (pitch r_max * factor).
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
        centers = [lo + k * r_max * grid_pitch_factor
                   for k in range(int((hi - lo) / (r_max * grid_pitch_factor)) + 1)]
        centers = [(c,) for c in centers]
    else:
        xs = [p[0] for c in interior for p in c.edge_samples]
        ys = [p[1] for c in interior for p in c.edge_samples]
        pitch = r_max * grid_pitch_factor
        centers = []
        k = 0
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


def check_phi_bounds(patch, interior_samples=4):
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
        for k in range(1, interior_samples):
            lam = Fraction(k, interior_samples + 1)
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
