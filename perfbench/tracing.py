"""Span tracing of shellreduce's public functions, from outside the package.

``install`` replaces each traced function at every import site (the defining
module and every ``shellreduce`` module that imported it by name), and each
traced method on its class, with a wrapper that records a span: name, start,
end, parent span and run id.  Parents are tracked per thread, so spans from
the ``compare3d`` thread pool nest correctly.  Spans stay in memory; the
child writes them out when it ends.  Untraced runs never call ``install``.

``layer_metrics`` turns the spans of one round into the per-layer metrics.
A span's ``.s`` metric is its self time: duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

import numpy as np


def _is_dual(field):
    return not isinstance(field, np.ndarray)


def _bundle_span(args, kwargs):
    slots = args[0] if args else kwargs["slots"]
    return ("geometry.surface_bundle_dual" if _is_dual(slots["d1"])
            else "geometry.surface_bundle_np")


def _density_span(args, kwargs):
    bundle = args[0] if args else kwargs["bundle"]
    return ("energy.density_dual" if _is_dual(bundle["a"])
            else "energy.density_np")


# (module, attribute, span name); a callable name picks it per call
TARGETS = (
    ("shellreduce.stencils", "derivative_matrix", "stencils.derivative_matrix"),
    ("shellreduce.stencils", "GridDerivatives.all_slots", "stencils.all_slots"),
    ("shellreduce.stencils", "GridDerivatives.scatter", "stencils.scatter"),
    ("shellreduce.geometry", "surface_bundle", _bundle_span),
    ("shellreduce.energy", "energy_density_fields", _density_span),
    ("shellreduce.energy", "orientation_violations", "energy.orientation"),
    ("shellreduce.energy", "deformed_state", "energy.deformed_state"),
    ("shellreduce.energy", "total_energy", "energy.total_energy"),
    ("shellreduce.minimizer", "minimize", "minimizer.minimize"),
    ("shellreduce.minimizer", "ShellObjective.value", "minimizer.value"),
    ("shellreduce.minimizer", "ShellObjective.value_and_grad",
     "minimizer.value_and_grad"),
    ("shellreduce.minimizer", "ShellObjective.metric_diagonal",
     "minimizer.metric_diagonal"),
    ("shellreduce.minimizer", "ShellObjective.feasible", "minimizer.feasible"),
    ("shellreduce.admissibility", "admissibility_report",
     "admissibility.report"),
    ("shellreduce.reference", "build_reference", "reference.build_reference"),
    ("shellreduce.oracle3d", "integrate_3d", "oracle3d.integrate_3d"),
    ("shellreduce.vtkio", "write_vtk", "vtkio.write"),
    ("shellreduce.vtkio", "write_csv", "vtkio.write"),
    ("shellreduce.vtkio", "read_vtk", "vtkio.read"),
)

# spans whose self time and call count are reported as "<name>.s"/".calls"
TIMED = ("stencils.all_slots", "stencils.scatter", "stencils.derivative_matrix",
         "geometry.surface_bundle_np", "geometry.surface_bundle_dual",
         "energy.density_np", "energy.density_dual", "energy.orientation",
         "minimizer.value", "minimizer.value_and_grad",
         "admissibility.report", "reference.build_reference",
         "oracle3d.integrate_3d", "vtkio.write")
# spans reported by self time only
SELF_ONLY = ("energy.deformed_state", "energy.total_energy",
             "minimizer.metric_diagonal", "vtkio.read")


def layer_metric_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in TIMED:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".s", "s", "lower"))
    for name in SELF_ONLY:
        out.append((name + ".s", "s", "lower"))
    out += [("minimizer.self_s", "s", "lower"),
            ("minimizer.iterations", "count", "lower"),
            ("minimizer.line_search_trials", "count", "lower"),
            ("minimizer.accept_ratio", "ratio", "higher"),
            ("minimizer.final_energy", "energy", "lower"),
            ("oracle3d.pool_busy_ratio", "ratio", "higher"),
            ("vtkio.write.bytes", "bytes", "lower"),
            ("trace.overhead", "ratio", "lower")]
    return out


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording."""

    def __init__(self):
        self.spans = []         # [id, name, start, end, parent, run, extra]
        self.enabled = False
        self.run_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([sid, name, time.perf_counter(), None,
                               stack[-1] if stack else None, self.run_id,
                               None])
        stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hasattr(result, "iterations"):            # MinimizeResult
                tracer.spans[sid][6] = {"iterations": result.iterations,
                                        "energy": result.energy}
            elif fn.__name__.startswith("write_"):
                tracer.spans[sid][6] = {"bytes": os.path.getsize(args[0])}
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run,
                                     "extra": extra}) + "\n")


def install(tracer):
    """Wrap every target at all of its import sites."""
    for modname, _, _ in TARGETS:
        importlib.import_module(modname)
    loaded = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "shellreduce"
                                    or name.startswith("shellreduce."))]
    for modname, attr, name in TARGETS:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), name))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def layer_metrics(spans):
    """Per-layer metrics of one round's spans (all but trace.overhead)."""
    duration = {}
    covered = {}
    for sid, name, start, end, parent, _, _ in spans:
        duration[sid] = end - start
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    calls = {}
    self_s = {}
    for sid, name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = (self_s.get(name, 0.0) + duration[sid]
                        - covered.get(sid, 0.0))

    out = {}
    for name in TIMED:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        out[name + ".s"] = self_s.get(name, 0.0)

    solves = [s for s in spans if s[1] == "minimizer.minimize"]
    solve_ids = {s[0] for s in solves}
    iterations = sum(s[6]["iterations"] for s in solves)
    trials = sum(1 for s in spans if s[1] == "geometry.surface_bundle_np"
                 and s[4] in solve_ids)
    out["minimizer.self_s"] = self_s.get("minimizer.minimize", 0.0)
    out["minimizer.iterations"] = iterations
    out["minimizer.line_search_trials"] = trials
    out["minimizer.accept_ratio"] = iterations / trials if trials else 0.0
    out["minimizer.final_energy"] = solves[-1][6]["energy"] if solves else 0.0

    busy = sum(duration[s[0]] for s in spans
               if s[1] == "oracle3d.integrate_3d")
    compare = sum(duration[s[0]] for s in spans if s[1] == "cli.compare3d")
    out["oracle3d.pool_busy_ratio"] = busy / compare if compare else 0.0
    out["vtkio.write.bytes"] = sum(s[6]["bytes"] for s in spans
                                   if s[1] == "vtkio.write")
    return out
