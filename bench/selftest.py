"""Tests of the benchmark itself (not of kleinsail).

    python3 bench/selftest.py        # or: python3 -m pytest bench/selftest.py

They check failure accounting, that the tracer restores what it patches and
does not change outputs, and the seeded input generators.  A few seconds.
"""

from __future__ import annotations

import json
import sys

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from kleinsail.lattice import (  # noqa: E402
    CUBIC49_MINPOLY, GOLDEN_MINPOLY, lattice_from_cubic_field, random_rational_lattice,
)


def _small_workload():
    """One lattice of each kind at small windows: skew golden, cubic with
    audit, rational."""
    skew = workloads.build("quad2d-skew", 3).jobs[0]
    skew.window = 60
    return workloads.Workload("small", [
        skew,
        workloads.Job("cubic49", lattice_from_cubic_field(CUBIC49_MINPOLY), 6, "cubic49/6",
                      audit=True),
        workloads.Job("rational", random_rational_lattice(3, 4), 10, "rational-4/10"),
    ], warmup_window=3)


def _invariants(it):
    return [(job.source, stage, json.dumps(inv, sort_keys=True))
            for job, stage, inv in workloads.invariants_of(it)]


def _reference_for(wl):
    """The workload's own outputs as its reference, keyed like reference.json."""
    it = workloads.run_iteration(wl)
    assert not it.failures, it.failures
    return {f"{stage}/{job.ref_key}": json.loads(json.dumps(inv))
            for job, stage, inv in workloads.invariants_of(it)}


def test_budget_failure_is_counted_and_the_run_continues():
    good = workloads.Job("golden-alpha", workloads._alpha_lattice(GOLDEN_MINPOLY), 100,
                         "golden/100")
    starved = workloads.build("quad2d-skew", 1).jobs[0]
    starved.budget = 50         # the generic enumerator needs ~T^2 leaves
    wl = workloads.Workload("budget", [starved, good], warmup_window=10)
    reference = _reference_for(workloads.Workload("ref", [good], warmup_window=10))

    r = run.Run(workloads, wl, reference)
    its = r.loop(0, at_least=2)

    assert len(its) == 2 and r.attempted == 16 and r.failed == 8
    first = its[0].failures[0]
    assert first["stage"] == "patch" and first["error"] == "PointBudgetError"
    assert first["lattice"] == starved.source and first["window"] == 600
    assert [f["stage"] for f in its[0].failures[1:]] == ["dets", "polar", "logplane"]
    # the healthy lattice still ran every stage, and passed the gate
    assert all(f["lattice"] == starved.source for it in its for f in it.failures)
    assert r.mismatches == 0
    # iterations with a failure are not timing samples
    assert r.clean == [] and not r.correct


def test_output_mismatch_is_a_failure():
    good = workloads.Job("golden-alpha", workloads._alpha_lattice(GOLDEN_MINPOLY), 100,
                         "golden/100")
    wl = workloads.Workload("gate", [good], warmup_window=10)
    reference = _reference_for(wl)
    reference["patch/golden/100"]["max_det_star"] += 1
    r = run.Run(workloads, wl, reference)
    r.iterate()
    assert r.mismatches == 1 and r.failed == 1 and not r.correct


def test_tracer_restores_originals_and_keeps_outputs():
    wl = _small_workload()
    workloads.warm_up(wl, print)
    plain = workloads.run_iteration(wl)
    originals = {}
    for path, *_ in tracing.TARGETS:
        owner, attr = tracing._resolve(path)
        originals[path] = (owner, attr, vars(owner)[attr])

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for o, a, f in originals.values())
        traced = workloads.run_iteration(wl)
    finally:
        tracer.uninstall()

    assert all(vars(o)[a] is f for o, a, f in originals.values())
    assert not plain.failures and not traced.failures
    assert _invariants(traced) == _invariants(plain)
    stats = tracer.stats
    assert stats["sail.patch.calls"] == 3 + 4        # three patches, four audit orthants
    assert stats["sail.enumerate.leaves"] >= stats["sail.enumerate.window_pts"] > 0
    assert stats["numberfield.sign_at.calls"] > 0 and stats["normmin.norm_min.pts"] > 0


def test_untraced_run_has_no_wrappers():
    for path, *_ in tracing.TARGETS:
        owner, attr = tracing._resolve(path)
        assert getattr(owner, attr).__module__.startswith("kleinsail"), path


def test_missing_name_marks_metric_absent():
    targets = tracing.TARGETS + [("kleinsail.sail:_no_such_stage", "span", "sail.gone", None,
                                  []),
                                 ("kleinsail.lattice:NoSuchClass.method", "count",
                                  "lattice.gone.calls", None, [])]
    tracer = tracing.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert "sail.gone.s" not in tracer.present and "lattice.gone.calls" not in tracer.present
    assert "sail.certify.s" in tracer.present


def test_seeded_inputs():
    for seed in range(200):
        us = workloads.skew_unimodulars(seed)
        assert us == workloads.skew_unimodulars(seed) and len(set(us)) == workloads.SKEW_BASES
        for u in us:
            assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1 and u[0][1] != 0
            assert all(-2 <= x <= 2 for row in u for x in row)
    assert ([j.source for j in workloads.build("quad2d-skew", 4).jobs]
            != [j.source for j in workloads.build("quad2d-skew", 5).jobs])


def test_skew_basis_change_maps_back():
    job = workloads.build("quad2d-skew", 7).jobs[0]
    c = (3, -5)
    back = job.to_ref.point(c)
    w = (2, 7)
    # w . c is basis independent once both are mapped
    assert sum(x * y for x, y in zip(job.to_ref.functional(w), back)) == 2 * 3 + 7 * -5


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
