"""Record the reference invariants that bench/run.py checks outputs against.

    python3 bench/record.py          # rewrites bench/reference.json

Run it only at a commit whose outputs are trusted: the references are the
output gate of every later run.  It takes about 10 s.
"""

from __future__ import annotations

import json

import run


def main():
    run.import_library()
    import workloads
    from kleinsail.lattice import GOLDEN_MINPOLY

    jobs = [job for name in ("quad2d-alpha", "cubic3d-audit", "rational3d")
            for job in workloads.build(name, workloads.DEFAULT_SEED).jobs]
    # quad2d-skew is checked against the same lattice in its alpha basis,
    # mapped through each seed's change of basis
    jobs.append(workloads.Job("golden-alpha", workloads._alpha_lattice(GOLDEN_MINPOLY), 600,
                              "golden/600"))
    it = workloads.run_iteration(workloads.Workload("record", jobs, warmup_window=5))
    if it.failures:
        raise SystemExit(f"record: operations failed: {it.failures}")
    lines = (f"{json.dumps(f'{stage}/{job.ref_key}')}: {json.dumps(inv, separators=(',', ':'))}"
             for job, stage, inv in sorted(workloads.invariants_of(it),
                                           key=lambda x: (x[1], x[0].ref_key)))
    (run.HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
