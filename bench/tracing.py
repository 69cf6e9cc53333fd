"""Per-layer tracing from outside the program.

The traced run replaces names in the `kleinsail` modules and classes with
wrappers, each patched where its caller looks it up, and restores the
originals afterwards; the untraced run installs nothing.  Calls into a layer
become spans with inclusive time and self time (inclusive minus the timed
calls made inside it).  Hot leaf calls (`sign_at`, `floor_at`) are timed the
same way but only aggregated, and the hottest exact fallbacks are only
counted.  A name the program no longer has leaves the metrics it feeds
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _patch_facets(stats, args, kwargs, patch):
    _add(stats, "hull.facets", len(patch.facets))


def _window_pts(stats, args, kwargs, pts):
    _add(stats, "sail.enumerate.window_pts", len(pts))


def _alpha_columns(stats, args, kwargs, pts):
    # the column scan visits one leaf per integer column of the window [0, T)
    t = args[1] if len(args) > 1 else kwargs["t"]
    _add(stats, "sail.enumerate.leaves", math.ceil(t))


def _pareto_kept(stats, args, kwargs, kept):
    _add(stats, "sail.pareto.kept", len(kept))


def _certified(stats, args, kwargs, result):
    _add(stats, "sail.certify.certified", int(bool(result[0])))


def _level_pts(stats, args, kwargs, pts):
    _add(stats, "sail.certify.level_pts", len(pts))


def _box_pts(stats, args, kwargs, pts):
    _add(stats, "normmin.norm_min.pts", len(pts))


# (where the caller looks the name up, kind, metric, result hook, hook metrics)
# kind "span": timed, gives <metric>.s, .self_s and .calls; "count": calls
# only (none when metric is None, for hooks alone); "leaves": counts the
# leaf-filter calls of the generic enumerator.
TARGETS = [
    ("kleinsail.sail:build_sail_patch", "span", "sail.patch", _patch_facets, ["hull.facets"]),
    ("kleinsail.normmin:build_sail_patch", "span", "sail.patch", _patch_facets, ["hull.facets"]),
    ("kleinsail.sail:_enumerate_window", "span", "sail.enumerate", _window_pts,
     ["sail.enumerate.window_pts"]),
    ("kleinsail.sail:_enumerate_core", "leaves", "sail.enumerate.leaves", None, []),
    ("kleinsail.sail:_enumerate_window_alpha", "count", None, _alpha_columns,
     ["sail.enumerate.leaves"]),
    ("kleinsail.sail:_pareto_minimal", "span", "sail.pareto", _pareto_kept, ["sail.pareto.kept"]),
    ("kleinsail.sail:_pareto_minimal_fast", "span", "sail.pareto", _pareto_kept,
     ["sail.pareto.kept"]),
    ("kleinsail.sail:_closure_rays", "span", "sail.closure", None, []),
    ("kleinsail.sail:certify_facet", "span", "sail.certify", _certified,
     ["sail.certify.certified"]),
    ("kleinsail.sail:_level_points", "count", None, _level_pts, ["sail.certify.level_pts"]),
    ("kleinsail.sail:_attach_edges_and_stars", "span", "sail.stars", None, []),
    ("kleinsail.sail:convex_hull_2d", "span", "hull", None, []),
    ("kleinsail.sail:convex_hull_3d", "span", "hull", None, []),
    ("kleinsail.sail:irrationality_check", "span", "lattice.irrationality", None, []),
    ("kleinsail.normmin:irrationality_check", "span", "lattice.irrationality", None, []),
    ("kleinsail.lattice:Lattice.coord_sign", "count", "lattice.coord_sign.calls", None, []),
    ("kleinsail.lattice:Lattice.coord_abs_lt", "count", "lattice.coord_abs_lt.calls", None, []),
    ("kleinsail.numberfield:FieldElement.sign_at", "span", "numberfield.sign_at", None, []),
    ("kleinsail.numberfield:FieldElement.floor_at", "span", "numberfield.floor_at", None, []),
    ("kleinsail.numberfield:FieldElement.inverse", "count", "numberfield.inverse.calls", None, []),
    ("kleinsail.numberfield:NumberField.refine_root", "count", "numberfield.refine_root.calls",
     None, []),
    ("kleinsail.normmin:theorem1_audit", "span", "normmin.audit", None, []),
    ("kleinsail.normmin:norm_minimum_estimate", "span", "normmin.norm_min", None, []),
    ("kleinsail.normmin:enumerate_sym_box", "count", None, _box_pts, ["normmin.norm_min.pts"]),
    ("kleinsail.determinants:det_report", "span", "determinants.det_report", None, []),
    ("kleinsail.normmin:det_report", "span", "determinants.det_report", None, []),
    ("kleinsail.polar:build_polar_patch", "span", "polar.build", None, []),
    ("kleinsail.logplane:project_patch", "span", "logplane.project", None, []),
    ("kleinsail.logplane:pi_log", "count", "logplane.pi_log.calls", None, []),
]

_INHERITED = object()   # marks a class attribute found on a base class

# metrics computed from others: name -> (numerator, denominator)
RATIOS = {"sail.enumerate.useful_ratio": ("sail.pareto.kept", "sail.enumerate.leaves")}


def _resolve(path):
    """(owner, attribute) for "module:Class.attr" or "module:attr", or None."""
    mod_name, _, dotted = path.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = dotted.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def metric_names(kind, metric, hook_metrics):
    if kind == "span":
        return [f"{metric}.s", f"{metric}.self_s", f"{metric}.calls"] + hook_metrics
    return ([metric] if metric else []) + hook_metrics


class Tracer:
    """Installs the wrappers, accumulates `stats`, and restores on uninstall."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}
        self.present = set()      # metric names fed by an installed wrapper
        self._saved = []          # (owner, attr, original value)
        self._stack = []          # child-time accumulators of the open spans
        self._open = set()        # span names open now (re-entry is not re-timed)

    @property
    def installed(self):
        return bool(self._saved)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, kind, metric, hook, hook_metrics in self.targets:
            where = _resolve(path)
            if where is None:
                continue
            owner, attr = where
            make = {"span": self._span, "count": self._count, "leaves": self._leaves}[kind]
            self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, make(metric, getattr(owner, attr), hook))
            self.present.update(metric_names(kind, metric, hook_metrics))
        for name, (num, den) in RATIOS.items():
            if num in self.present and den in self.present:
                self.present.add(name)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._saved.clear()

    def snapshot(self):
        return dict(self.stats)

    def _span(self, name, fn, hook):
        stats, stack, open_ = self.stats, self._stack, self._open
        k_s, k_self, k_calls = f"{name}.s", f"{name}.self_s", f"{name}.calls"

        def span(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            open_.add(name)
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_.discard(name)
                if stack:
                    stack[-1][0] += dt
                stats[k_s] = stats.get(k_s, 0.0) + dt
                stats[k_self] = stats.get(k_self, 0.0) + dt - child[0]
                stats[k_calls] = stats.get(k_calls, 0) + 1
            if hook:
                hook(stats, args, kwargs, out)
            return out

        return span

    def _count(self, name, fn, hook):
        stats = self.stats

        def count(*args, **kwargs):
            if name:
                stats[name] = stats.get(name, 0) + 1
            out = fn(*args, **kwargs)
            if hook:
                hook(stats, args, kwargs, out)
            return out

        return count

    def _leaves(self, name, fn, hook):
        stats = self.stats

        def core(*args, **kwargs):
            inner = args[2] if len(args) > 2 else kwargs["leaf_filter"]

            def leaf(*a):
                stats[name] = stats.get(name, 0) + 1
                return inner(*a)

            if len(args) > 2:
                args = args[:2] + (leaf,) + args[3:]
            else:
                kwargs["leaf_filter"] = leaf
            return fn(*args, **kwargs)

        return core


def iteration_metrics(before, after, present):
    """Per-layer values of one iteration, from two snapshots."""
    out = {}
    for name in present:
        if name in RATIOS:
            continue
        out[name] = after.get(name, 0) - before.get(name, 0)
    for name, (num, den) in RATIOS.items():
        if name in present:
            out[name] = out[num] / out[den] if out[den] else 0.0
    return out
