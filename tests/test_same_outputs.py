"""Same outputs: patch, determinant, polar and audit documents and log-plane
cells of a fixed list of lattices, against a committed record.

Every performance change must leave these documents as they are.  A facet
cycle is compared up to rotation, and facets whose certified flag and
sorted vertex lists tie are compared in the order of their rotated cycles,
since those depend on where the hull starts a cycle.  The irrationality
report is compared on its `ok` flag and witness sample.  A log-plane cell
is recorded by its facet index, vertex images and edge samples, floats that
round-trip through JSON exactly; its centroid and radius are left out, since
they come from float sums and `math.dist`, which other Python versions may
round differently.

To write the record again from the current code (only when an output
changes by design, and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_same_outputs.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from kleinsail.determinants import det_report
from kleinsail.lattice import (
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, Lattice, lattice_from_alpha, lattice_from_cubic_field,
    random_rational_lattice,
)
from kleinsail.linalg import mat_mul
from kleinsail.logplane import project_patch
from kleinsail.normmin import orthant_representatives, theorem1_audit
from kleinsail.numberfield import NumberField
from kleinsail.polar import build_polar_patch
from kleinsail.sail import build_sail_patch
from shared_lattices import golden_module

RECORD = Path(__file__).parent / "data" / "same_outputs.json"


def _golden_alpha():
    return lattice_from_alpha(NumberField(GOLDEN_MINPOLY).gen(), root_index=1)


def _golden_skew():
    # the first quad2d-skew benchmark basis at seed 1: B U, U = ((1, -1), (-2, 1))
    base = _golden_alpha()
    return Lattice.single_field(base.field, mat_mul(base.basis, ((1, -1), (-2, 1))),
                                base.root_index)


CASES = [
    (f"cubic49{''.join('+' if s > 0 else '-' for s in signs)}",
     lambda signs=signs: lattice_from_cubic_field(CUBIC49_MINPOLY).reflect(signs), 12)
    for signs in orthant_representatives(3)
] + [
    (f"rational3-{k}", lambda k=k: random_rational_lattice(3, k), 10) for k in range(3)
] + [
    ("golden-alpha", _golden_alpha, 60),
    ("golden-skew", _golden_skew, 60),
    ("golden-module", golden_module, 60),
]


def outputs(make, t):
    """The documents of one case, as the record holds them."""
    lat = make()
    patch = build_sail_patch(lat, t)
    doc = patch.to_json()
    del doc["stats"]
    try:
        polar = build_polar_patch(patch).to_json()
    except ValueError:  # an empty patch has no polar
        polar = None
    try:
        audit = theorem1_audit(lat, t).to_json()
    except NotImplementedError:  # phi is irrational for this lattice
        audit = None
    cells, skipped = project_patch(patch)
    logplane = {"cells": [{"facet": c.facet_index, "vertex_images": c.vertex_images,
                           "edge_samples": c.edge_samples} for c in cells],
                "skipped": skipped}
    return {"patch": doc, "dets": det_report(patch).to_json(), "polar": polar,
            "audit": audit, "logplane": logplane}


def _rotated(cycle):
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def canonical(out):
    """`out` with every facet cycle started at its least index, and runs of
    facets with equal (certified, vertices) ordered by those cycles."""
    out = json.loads(json.dumps(out))
    doc = out["patch"]
    doc["irrationality"] = {k: doc["irrationality"][k] for k in ("ok", "witnesses")}
    facets = [dict(f, cycle=_rotated(f["cycle"])) for f in doc["facets"]]
    runs = []
    for f in facets:
        if runs and (runs[-1][0]["certified"], runs[-1][0]["vertices"]) == (
                f["certified"], f["vertices"]):
            runs[-1].append(f)
        else:
            runs.append([f])
    doc["facets"] = [f for run in runs for f in sorted(run, key=lambda f: f["cycle"])]
    return out


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("name, make, t", CASES, ids=[name for name, _, _ in CASES])
def test_outputs_match_the_record(record, name, make, t):
    assert canonical(outputs(make, t)) == canonical(record[name])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    RECORD.parent.mkdir(exist_ok=True)
    data = {name: outputs(make, t) for name, make, t in CASES}
    RECORD.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
