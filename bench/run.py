"""kleinsail benchmark: fixed lattice workloads, closed loop, one thread.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all        # every workload, one process each

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the last line of output is the end-to-end result: medians over
the run's iterations of iter_s, patch_s and derive_s, setup_s (median of
several fresh interpreters), peak_rss_mb and ok_ratio.  With --trace 1 it is
the per-layer result of a traced run.  Every output is checked against the
invariants in bench/reference.json (write them with bench/record.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"iter_s": "s", "patch_s": "s", "derive_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "fraction"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_library():
    """Import kleinsail from this checkout's src/, never from elsewhere."""
    if not (SRC / "kleinsail" / "__init__.py").is_file():
        raise SystemExit(f"bench: no kleinsail sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kleinsail
    if Path(kleinsail.__file__).resolve().parent != SRC / "kleinsail":
        raise SystemExit(f"bench: imported kleinsail from {kleinsail.__file__}, not {SRC}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def probe_setup(workload, seed):
    """Wall time from starting a fresh interpreter until it is ready to time.
    The child reports it against the start time it is given."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe", repr(time.time())]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout)


class Run:
    """Iterations of one workload, with failure accounting and the output gate."""

    def __init__(self, workloads, wl, reference):
        self.workloads, self.wl, self.reference = workloads, wl, reference
        self.attempted = self.failed = self.mismatches = 0
        self.clean = []   # iterations without failures: the timing samples

    def iterate(self):
        gc.collect()
        it = self.workloads.run_iteration(self.wl)
        self.mismatches += self.workloads.check(it, self.reference)
        it.outputs.clear()   # kept iterations must not hold patches: peak_rss_mb
        self.attempted += it.attempted
        self.failed += len(it.failures)
        for f in it.failures:
            log("failure: " + json.dumps(f))
        if not it.failures:
            self.clean.append(it)
        return it

    def loop(self, seconds, at_least=1):
        done = []
        t_end = time.perf_counter() + seconds
        while len(done) < at_least or time.perf_counter() < t_end:
            done.append(self.iterate())
        return done

    @property
    def correct(self):
        return self.mismatches == 0 and bool(self.clean)


def timings(its):
    return {"iter_s": [it.iter_s for it in its],
            "patch_s": [it.stage_s.get("patch", 0.0) for it in its],
            "derive_s": [it.stage_s.get("polar", 0.0) + it.stage_s.get("logplane", 0.0)
                         for it in its]}


def print_table(rows):
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, values, unit in rows:
        if not values:
            print(f"{name:34} {'absent':>14}")
            continue
        q1, q2, q3 = quartiles(values)
        print(f"{name:34} {q2:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d}  {unit}")


def end_to_end(args, workloads, reference):
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = workloads.build(args.workload, args.seed)
    workloads.warm_up(wl, log)
    run = Run(workloads, wl, reference)
    run.loop(args.seconds)
    samples = timings(run.clean)
    samples["setup_s"] = setup
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mb"] = [rss_mb]
    samples["ok_ratio"] = [(run.attempted - run.failed) / run.attempted]
    print(f"workload {args.workload} seed {args.seed}: {len(run.clean)} clean iterations, "
          f"{run.attempted} operations, {run.failed} failed")
    print_table([(k, samples[k], u) for k, u in END_TO_END_UNITS.items()])
    metrics = {k: {"value": statistics.median(samples[k]) if samples[k] else None, "unit": u}
               for k, u in END_TO_END_UNITS.items()}
    return run, metrics


def per_layer(args, workloads, reference, names):
    """Traced iterations for the first half of the time, untraced for the
    second; the difference of the medians is the tracing overhead.  Tracing
    starts right after set-up, so counts that repeat from the first traced
    iteration on show that set-up left nothing to warm."""
    import tracing

    wl = workloads.build(args.workload, args.seed)
    warmup_s = workloads.warm_up(wl, log)
    run = Run(workloads, wl, reference)
    tracer = tracing.Tracer()
    tracer.install()
    per_iter, traced = [], []
    try:
        t_end = time.perf_counter() + args.seconds / 2
        while len(traced) < 2 or time.perf_counter() < t_end:
            before = tracer.snapshot()
            traced.append(run.iterate())
            per_iter.append(tracing.iteration_metrics(before, tracer.snapshot(), tracer.present))
    finally:
        tracer.uninstall()
    plain = run.loop(args.seconds / 2)

    units = dict(names)
    counts = [n for n in tracer.present if units.get(n) == "count"]
    repeat = all(m[n] == per_iter[0][n] for m in per_iter for n in counts)
    if not repeat:
        log("per-layer counts differ between iterations: " + ", ".join(
            n for n in sorted(counts) if len({m[n] for m in per_iter}) > 1))
    t_plain = statistics.median(it.iter_s for it in plain)
    t_traced = statistics.median(it.iter_s for it in traced)
    derived = {"trace.iter_s": [t_traced], "trace.untraced_iter_s": [t_plain],
               "trace.overhead_s": [t_traced - t_plain], "trace.counts_repeat": [int(repeat)],
               "setup.warmup_s": [warmup_s]}
    rows, metrics = [], {}
    for name, unit in names:
        values = derived.get(name) or ([m[name] for m in per_iter] if name in tracer.present
                                       else [])
        rows.append((name, values, unit))
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = ({"value": middle(values), "unit": unit} if values
                         else {"value": None, "unit": unit, "absent": True})
    print(f"workload {args.workload} seed {args.seed}: {len(traced)} traced iterations, "
          f"then {len(plain)} untraced")
    print_table(rows)
    return run, metrics


def run_all(args, names):
    """Every workload in its own process, one table each."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_library()
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    if args.setup_probe is not None:
        workloads.warm_up(workloads.build(args.workload, args.seed), log)
        print(time.time() - args.setup_probe)
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        run, metrics = per_layer(args, workloads, reference, [(m["name"], m["unit"]) for m in spec])
    else:
        run, metrics = end_to_end(args, workloads, reference)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
