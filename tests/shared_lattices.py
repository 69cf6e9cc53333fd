"""Lattices that several test modules build."""

from kleinsail.lattice import GOLDEN_MINPOLY, Lattice
from kleinsail.numberfield import NumberField


def golden_module():
    """The module [1, theta] of the golden field: no lattice point on an axis."""
    fld = NumberField(GOLDEN_MINPOLY)
    return Lattice.module(fld, [fld.one(), fld.gen()])


def widened(lat, pad):
    """`lat` with every cached basis enclosure widened by `pad` at scale 2^64."""
    lat._basis_iv = tuple(tuple((lo - pad, hi + pad) for lo, hi in row)
                          for row in lat.basis_interval_matrix())
    return lat
