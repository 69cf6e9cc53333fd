"""The benchmark's per-layer tracer still reaches every metric it declares.

`bench/tracing.py` skips a traced name that the program no longer has, and
the metrics only that name fed then go missing from the report without an
error.  This test installs the tracer, checks that every per-layer metric of
`BENCHMARK.json` is fed by a target that resolves, and uninstalls it.  It
reads `bench/` and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# computed by bench/run.py from its own clocks and repeat runs, not traced
DERIVED_PREFIXES = ("trace.", "setup.")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_metric_has_a_resolving_target():
    tracing = _load_tracing()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith(DERIVED_PREFIXES)}
    before = {}
    for path, *_ in tracing.TARGETS:
        where = tracing._resolve(path)
        if where is not None:
            owner, attr = where
            before[path] = vars(owner).get(attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed
        present = set(tracer.present)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert wanted - present == set()
    for path, value in before.items():
        owner, attr = tracing._resolve(path)
        assert vars(owner).get(attr) is value, path
