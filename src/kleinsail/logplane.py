"""The logarithmic projection of a sail and its cell partition.

Points of the open positive orthant are first scaled onto the surface
{x1*...*xn = 1} and then mapped through coordinatewise logarithms to
R^(n-1); a sail projects to a partition of the plane into curvilinear
cells, one per facet.  Everything here is diagnostic: floats never flow
back into the exact modules.  A patch is projected in one pass: each
vertex's coordinates are formed exactly and read at 113 bits once, and its
image is shared by every cell that meets it; each edge is sampled once, and
a cell that meets it the other way reads the same samples reversed.  A cell
rings its facet's vertices in the polygon's cyclic order.  A
sample's coordinates are lambda*x(a) + (1 - lambda)*x(b) from its vertices'
values, lambda = s/EDGE_SAMPLES with EDGE_SAMPLES a power of two: one exact
integer, rounded once at 121 bits.  Both terms are positive, so samples
are positive by convexity, with relative error at most their vertices'
plus 2^-120.  A vertex x is sample EDGE_SAMPLES of the edge (x, x), which
is x exactly: its mantissa of at most 113 bits fits in 121.  Comparison
tolerances are fixed constants.

`pi_log` is the reference image: n logarithms at 113 bits in mpmath's raw
layer, their mean and differences, each rounded, then rounded to floats.
Every image, vertex or edge sample, comes from one exact kernel entry,
`_mix_images`: it reads an edge's samples in one integer pass and returns
`pi_log`'s floats of the rounded samples bit for bit, or declines a
sample, which then goes to `pi_log` of its `_mix`:

- **The ratio identity.**  Coordinate i of the image is
  Y_i = ln(x_i^(n-1) / prod_{j != i} x_j) / n, so n - 1 logarithms of exact
  ratios of the coordinates' mantissas replace n logarithms, two sums, a
  division and two subtractions.  Each ratio is reduced to t * 2^K with t
  in [1/2, 1) and logged in _WP-bit fixed point by mpmath's
  `log_taylor_cached` plus K * `ln2_fixed`, the routine `mpf_log` runs.
- **The bound.**  Premise: `mpf_log` at 113 bits lies within 1 ulp of the
  exact logarithm (it works with 20 guard bits), and `log_taylor_cached`
  and `ln2_fixed` within _TAYLOR_ERR and 1 units of 2^-_WP; the tests check
  all three on seeded inputs.  mpmath's add, sub and div are correctly
  rounded, so `pi_log`'s 113-bit difference d_i of a point x' lies within
  3 * 2^-112 * A < B = 2^-110 * A of Y_i(x'), A = sum_j |ln x'_j| <=
  ln 2 * sum_j (|mag'_j| + 1), mag'_j the binary magnitude of x'_j.
- **The slack.**  The kernel logs a sample's exact mixes x_j, not the
  121-bit values x'_j = x_j (1 + delta_j), |delta_j| <= 2^-121, that `_mix`
  rounds them to and `pi_log` reads.  One slack per edge covers the
  difference.  The rounding term: ln of ratio i moves by at most
  (n - 1) * 2^-120 * (1 + 2^-120).  The magnitude term: a mix lies between
  its ends, and so does its rounding, so |mag'_j| <= max(|mag_a_j|,
  |mag_b_j|) + 1 bounds B.  On a vertex's edge (x, x) both terms hold with
  room to spare: delta_j = 0 and mag'_j = mag_j.
- **The decision.**  Both ends of [y - S - e, y + S + e], y the kernel's
  value, S the slack and e its own fixed-point error, are rounded to floats
  by one correctly rounded int/int division each.  Rounding to nearest is
  monotone, so where the two ends give one float that float is `to_float`
  of d_i, `pi_log`'s float.  Otherwise (Y_i close to a rounding boundary,
  or tiny against A) the sample falls back to `pi_log`.

The phi-bound checks, by contrast, are exact: vertex and sample products
and the facet section determinants are rational, and the comparison
phi(x) < det S(F) is decided with no rounding at all.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import mpmath
from mpmath.libmp import (
    from_int, from_man_exp, ln2_fixed, mpf_add, mpf_div, mpf_log, mpf_sub, to_float,
)

from .determinants import det_SF
from .numberfield import mpf_at
from .sail import _cycle_edges

__all__ = [
    "pi_log", "pi_log_point", "LogCell", "project_patch",
    "cell_covering_radius", "check_phi_bounds", "PhiBoundReport", "cells_csv",
    "TRANSLATION_TOL", "EDGE_SAMPLES",
]

TRANSLATION_TOL = 1e-6     # cell matching under diagonal rescales
EDGE_SAMPLES = 16          # sample points per curvilinear cell edge
assert EDGE_SAMPLES & (EDGE_SAMPLES - 1) == 0, "the exact dyadic mix needs a power of two"
_SAMPLE_SHIFT = EDGE_SAMPLES.bit_length() - 1
_PREC = 113                # working precision in bits before ln
_MIX_PREC = _PREC + 8      # edge samples: exact products, one rounding
_WP = _PREC + 20           # fixed-point bits of the sample kernel, mpf_log's own
_TAYLOR_ERR = 64           # bound on log_taylor_cached's error at _WP, in units of 2^-_WP
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


def _mix(xa, xb, s):
    """Raw mpf (s*xa + (EDGE_SAMPLES - s)*xb) / EDGE_SAMPLES of positive raw
    mpf values: one exact integer, rounded once at _MIX_PREC bits, which is
    the exact products' sum as `mpf_add` rounds it."""
    _, ma, ea, _ = xa
    _, mb, eb, _ = xb
    e = min(ea, eb)
    return from_man_exp((s * ma << (ea - e)) + ((EDGE_SAMPLES - s) * mb << (eb - e)),
                        e - _SAMPLE_SHIFT, _MIX_PREC, "n")


def _ratio_floats(mans, offsets, slack):
    """The kernel's floats, or None: for i < n - 1, n = len(mans), the _WP-bit
    fixed-point logarithm y of ratio i, mans[i]^(n-1) / prod_{j != i} mans[j]
    times 2^offsets[i], divided by n 2^_WP, where both ends of [y - e, y + e]
    give one float.

    In units of 2^-_WP, e = 3 + _TAYLOR_ERR + |K| + slack, K the ratio's
    binary exponent: 3 for t, the ratio reduced to [1/2, 1) and truncated by
    less than 1 unit at t >= 2^(_WP - 1), _TAYLOR_ERR for `log_taylor_cached`
    and 1 per multiple of `ln2_fixed`; `slack` is the caller's.  A nonzero
    end is at least 2^-_WP / n, far from underflow, so ends on either side of
    0 never give equal floats."""
    log_taylor = mpmath.libmp.libelefun.log_taylor_cached   # not in mpmath.libmp's exports
    ln2 = ln2_fixed(_WP)
    n = len(mans)
    scale = n << _WP
    slack += 3 + _TAYLOR_ERR
    out = []
    for i in range(n - 1):
        num = mans[i] ** (n - 1)
        den = math.prod(mans[:i] + mans[i + 1:])
        k = num.bit_length() - den.bit_length()     # num / den / 2^k in (1/2, 2)
        shift = _WP - k
        t = (num << shift) // den if shift >= 0 else num // (den << -shift)
        if t >> _WP:
            t >>= 1
            k += 1
        K = k + offsets[i]                         # ratio = t * 2^(K - _WP)
        y = log_taylor(t, _WP) + K * ln2
        err = slack + abs(K)
        lo = (y - err) / scale
        if lo != (y + err) / scale:
            return None
        out.append(lo)
    return tuple(out)


def _mix_images(xa, xb, samples):
    """`pi_log` of the given samples s of the edge between positive raw mpf
    values xa and xb, sample s being the `_mix`es of xa and xb's
    coordinates; s = EDGE_SAMPLES is xa itself, so the edge (x, x) reads a
    vertex.

    One exact pass: each coordinate's two mantissas are shifted to a common
    exponent once, A_j and B_j, and the ratio kernel logs sample s straight
    from the exact integers s A_j + (EDGE_SAMPLES - s) B_j, which `_mix`
    would round.  Its slack covers that rounding and bounds each sample's
    magnitudes by the ends' (module docstring); a sample it declines goes to
    `pi_log` of the rounded mixes."""
    n = len(xa)
    ends, exps = [], []
    mag = 0
    for (_, ma, ea, bca), (_, mb, eb, bcb) in zip(xa, xb):
        e = min(ea, eb)
        ends.append((ma << (ea - e), mb << (eb - e)))
        exps.append(e)
        mag += max(abs(ea + bca), abs(eb + bcb))
    esum = sum(exps)
    offsets = [n * e - esum for e in exps]
    # n * B with |mag_j| + 1 <= max(|mag_a_j|, |mag_b_j|) + 2, and the
    # rounding term (n - 1) * 2^-120 * (1 + 2^-120)
    slack = ((n * (2 * n + mag) << (_WP - _PREC + 3))
             + ((n - 1) << (_WP - _MIX_PREC + 1)) + 1)
    out = []
    for s in samples:
        r = EDGE_SAMPLES - s
        img = _ratio_floats([s * a + r * b for a, b in ends], offsets, slack)
        out.append(img or pi_log([_make_mpf(_mix(x, y, s)) for x, y in zip(xa, xb)]))
    return out


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
    vertex_images: tuple      # one per facet vertex, around the facet polygon
    edge_samples: tuple       # sampled boundary points (floats)
    centroid: tuple
    radius: float             # max distance from centroid to any boundary point
    interior: bool            # every vertex of the facet has a complete star


def project_patch(patch):
    """One log-plane cell per certified facet, from one pass over the patch.

    A cell lists its facet's vertex images around the facet polygon, in
    `Facet.ring` order.  Each vertex's values and image are computed once,
    the image as the edge (x, x)'s sample EDGE_SAMPLES, and every cell that
    meets the vertex reads them.  A vertex with a zero coordinate (patches
    lie in the closed orthant) touches the boundary: its facets are skipped
    and reported, under `build_sail_patch`'s policy.  Each edge is sampled
    once.  Sample s of a -> b mixes the vertex values with
    weights s/k and (k - s)/k, k = EDGE_SAMPLES, rounded once, so it is bit
    for bit sample k - s of b -> a, and a cell that meets the edge the other
    way reads the same list reversed.  Samples take no field arithmetic."""
    lat = patch.lattice
    verts, edges = {}, {}    # vertex -> (raw values, image) or None; (a, b) -> samples

    def vertex(c):
        if c not in verts:
            vals = _coord_values(lat, c)
            verts[c] = None
            if vals is not None:
                xs = [x._mpf_ for x in vals]
                verts[c] = (xs, _mix_images(xs, xs, [EDGE_SAMPLES])[0])
        return verts[c]

    def edge(a, b):
        if (b, a) in edges:
            return edges[b, a][::-1]
        if (a, b) not in edges:
            edges[a, b] = _mix_images(verts[a][0], verts[b][0], range(1, EDGE_SAMPLES))
        return edges[a, b]

    cells = []
    skipped = []
    for fi, f in enumerate(patch.facets):
        if not f.certified:
            continue
        ring = f.ring
        if any(vertex(c) is None for c in ring):
            skipped.append(fi)
            continue
        imgs = [verts[c][1] for c in ring]
        samples = list(imgs)
        for a, b in _cycle_edges(ring, lat.n):
            samples.extend(edge(a, b))
        dim = len(imgs[0])
        centroid = tuple(sum(p[d] for p in imgs) / len(imgs) for d in range(dim))
        radius = max(math.dist(centroid, p) for p in samples)
        interior = all(patch.stars.get(c) is not None and patch.stars[c].complete
                       for c in f.vertices)
        cells.append(LogCell(facet_index=fi, vertex_images=tuple(imgs),
                             edge_samples=tuple(samples), centroid=centroid,
                             radius=radius, interior=interior))
    return cells, skipped


def _grid_axis(values, pitch):
    """The grid's coordinates along one axis: from min(values), in steps of
    `pitch` added one at a time, up to max(values)."""
    x, hi = min(values), max(values)
    out = []
    while x <= hi:
        out.append(x)
        x += pitch
    return out


def cell_covering_radius(cells):
    """Covering-radius estimate for the cell partition.

    Interior cells are uniformly bounded; the estimate D' = 2 max r keeps a
    whole cell inside any ball of radius D' centered in the covered region,
    which is verified on a grid of centers: pitch r_max * _GRID_PITCH along
    each axis of the log plane, a line for n = 2 and a plane for n = 3.
    """
    interior = [c for c in cells if c.interior]
    if not interior:
        raise ValueError("no interior cells in the window")
    r_max = max(c.radius for c in interior)
    d_prime = 2 * r_max
    pitch = r_max * _GRID_PITCH
    centers = list(itertools.product(*(
        _grid_axis([p[k] for c in interior for p in c.edge_samples], pitch)
        for k in range(len(interior[0].centroid)))))
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
