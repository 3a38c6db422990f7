"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of the
``torus_hartree`` modules in place (every module namespace that holds
the same object is patched, so ``from .x import f`` call sites are
covered) and ``uninstall`` restores them.  A span records its name,
start, end and parent, the innermost open span on the same thread; a
worker thread with no open span takes the main thread's innermost span
as parent, which links scan points to the scan that started them.
Spans stay in memory; ``layer_metrics`` turns one repetition's spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT = range(4)

# span name -> (module name, attribute) of a function to wrap.  Some spans
# feed no metric of their own (load_plan, evolve, make_potential, ...);
# they keep their time out of the self time of the layer that calls them.
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "scan.load_plan": ("scan", "load_plan"),
    "scan.run_scan": ("scan", "run_scan"),
    "scan.run_point": ("scan", "_run_point"),
    "scan.write_scan_csv": ("scan", "write_scan_csv"),
    "scan.iterated_limit_summary": ("scan", "iterated_limit_summary"),
    "evolution.evolve": ("evolution", "evolve"),
    "evolution.step_split": ("evolution", "step_split"),
    "evolution.step_rk4": ("evolution", "step_rk4"),
    "evolution.picard_solve": ("evolution", "picard_solve"),
    "evolution.lifespan_guard": ("evolution", "lifespan_guard"),
    "diagnostics.make_record": ("diagnostics", "make_record"),
    "diagnostics.energy_per_particle": ("diagnostics", "energy_per_particle"),
    "diagnostics.envelope_audit": ("diagnostics", "envelope_audit"),
    "diagnostics.write_trajectory_csv": ("diagnostics", "write_trajectory_csv"),
    "field.autocorrelation": ("field", "autocorrelation"),
    "field.make_state": ("field", "make_state"),
    "field.load_state": ("field", "load_state"),
    "field.save_state": ("field", "save_state"),
    "potential.make_potential": ("potential", "make_potential"),
}

# span name -> (module name, class name, method name)
METHODS = {
    "evolution.kernel.field": ("evolution", "_Kernel", "field"),
    "evolution.kernel.crop": ("evolution", "_Kernel", "crop"),
    "evolution.kernel.convolved_density": ("evolution", "_Kernel", "convolved_density"),
    "evolution.kernel.nonlinear": ("evolution", "_Kernel", "nonlinear"),
    "potential.fourier_profile_radial": ("potential", "GaussianPotential",
                                         "fourier_profile_radial"),
}

PROBE_SPAN = "timing.probe"

# Per-layer metric names in the order they are printed.
TIMED = ("calls", "self_s", "ms_per_call")
LAYER_METRICS = (
    ["cli.import_s", "cli.main.self_s",
     "scan.run_point.calls", "scan.run_point.sum_s", "scan.run_scan.wall_s",
     "scan.concurrency", "scan.write_outputs.self_s",
     "evolution.steps"]
    + [f"evolution.step_split.{m}" for m in TIMED]
    + [f"evolution.kernel.{k}.{m}" for k in ("field", "crop", "convolved_density",
                                             "nonlinear") for m in TIMED]
    + ["evolution.kernel.builds", "evolution.kernel.grid_points",
       "evolution.kernel.cube_bytes",
       "evolution.picard_solve.calls", "evolution.picard_solve.self_s"]
    + [f"diagnostics.make_record.{m}" for m in TIMED]
    + ["diagnostics.energy_per_particle.calls", "diagnostics.energy_per_particle.self_s",
       "diagnostics.envelope_audit.self_s",
       "diagnostics.write_trajectory_csv.self_s", "diagnostics.write_trajectory_csv.bytes",
       "field.autocorrelation.calls", "field.autocorrelation.self_s",
       "field.lattice_order.builds",
       "field.make_state.self_s", "field.load_state.self_s", "field.save_state.self_s",
       "potential.fourier_profile_radial.calls", "potential.fourier_profile_radial.points",
       "potential.fourier_profile_radial.self_s",
       "trace.solve_s", "trace.wall_s", "trace.probe_ms", "trace.reps"])


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(float)
        self.active = False
        self._local = threading.local()
        self._main_stack = []
        self._undo = []
        self._lock = threading.Lock()  # counters are bumped from scan worker threads

    def _count(self, name, value=1, combine=None):
        with self._lock:
            old = self.counts[name]
            self.counts[name] = combine(old, value) if combine else old + value

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, time.perf_counter(), None, tracer._parent(stack)]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def probe_span(self, start, end):
        """Record a timing probe that interrupted the main thread."""
        if self.active:
            self.spans.append([PROBE_SPAN, start, end, self._parent(self._main_stack)])

    def reset(self):
        self.spans = []
        self.counts.clear()

    # -- patching ----------------------------------------------------------

    def _modules(self):
        import importlib
        names = ("cli", "scan", "evolution", "diagnostics", "field", "potential")
        return {n: importlib.import_module(f"{self.package.__name__}.{n}") for n in names}

    def _replace_everywhere(self, original, replacement):
        for mod in [self.package, *self._modules().values()]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        mods = self._modules()

        def csv_bytes(args, kwargs):
            path = kwargs["path"] if "path" in kwargs else args[1]
            self._count("diagnostics.write_trajectory_csv.bytes", os.path.getsize(path))

        def vhat_points(args, kwargs):
            self._count("potential.fourier_profile_radial.points", np.size(args[1]))

        after = {"diagnostics.write_trajectory_csv": csv_bytes,
                 "potential.fourier_profile_radial": vhat_points}
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self._wrap(name, original, after.get(name)))
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original, after.get(name)))
            self._undo.append((cls, attr, original))

        kernel_cls = mods["evolution"]._Kernel
        init = kernel_cls.__init__

        def kernel_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            if self.active:
                self._count("evolution.kernel.builds")
                self._count("evolution.kernel.grid_points", kernel.G**3, max)

        kernel_cls.__init__ = kernel_init
        self._undo.append((kernel_cls, "__init__", init))

        order = mods["field"].TorusLattice.__dict__["order"]
        order_func = order.func

        def order_build(lattice):
            if self.active:
                self._count("field.lattice_order.builds")
            return order_func(lattice)

        order.func = order_build
        self._undo.append((order, "func", order_func))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo = []


# ---------------------------------------------------------------------------
# aggregation

def _covered(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_call_ms(spans):
    """{span name: inclusive milliseconds per call}."""
    calls, incl = defaultdict(int), defaultdict(float)
    for s in spans:
        calls[s[NAME]] += 1
        incl[s[NAME]] += s[END] - s[START]
    return {name: 1e3 * incl[name] / calls[name] for name in calls}


def layer_metrics(spans, counts):
    """One repetition's spans and counters as {per-layer metric: value}."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        dur = s[END] - s[START]
        kids = [(max(c[START], s[START]), min(c[END], s[END]))
                for c in children.get(id(s), ())]
        calls[s[NAME]] += 1
        incl[s[NAME]] += dur
        self_s[s[NAME]] += dur - _covered([k for k in kids if k[1] > k[0]])

    out = {}
    for layer in ("evolution.step_split", "evolution.kernel.field", "evolution.kernel.crop",
                  "evolution.kernel.convolved_density", "evolution.kernel.nonlinear",
                  "diagnostics.make_record"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.ms_per_call"] = 1e3 * incl[layer] / calls[layer] if calls[layer] else 0.0
    for layer in ("evolution.picard_solve", "diagnostics.energy_per_particle",
                  "field.autocorrelation", "potential.fourier_profile_radial"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in ("cli.main", "diagnostics.envelope_audit", "diagnostics.write_trajectory_csv",
                  "field.make_state", "field.load_state", "field.save_state"):
        out[f"{layer}.self_s"] = self_s[layer]

    scans = [s for s in spans if s[NAME] == "scan.run_scan"]
    points = [s for s in spans if s[NAME] == "scan.run_point"]
    out["scan.run_point.calls"] = len(points)
    out["scan.run_point.sum_s"] = incl["scan.run_point"]
    out["scan.run_scan.wall_s"] = incl["scan.run_scan"]
    out["scan.concurrency"] = (incl["scan.run_point"] / incl["scan.run_scan"]
                               if scans else 0.0)
    write = 0.0
    for s in scans:
        ends = [p[END] for p in points if p[PARENT] is s]
        write += s[END] - (max(ends) if ends else s[START])
    out["scan.write_outputs.self_s"] = write
    out["evolution.steps"] = (calls["evolution.step_split"] + calls["evolution.step_rk4"]
                              + calls["evolution.picard_solve"])
    out["evolution.kernel.builds"] = int(counts.get("evolution.kernel.builds", 0))
    grid = int(counts.get("evolution.kernel.grid_points", 0))
    out["evolution.kernel.grid_points"] = grid
    out["evolution.kernel.cube_bytes"] = 16 * grid
    out["field.lattice_order.builds"] = int(counts.get("field.lattice_order.builds", 0))
    out["diagnostics.write_trajectory_csv.bytes"] = int(
        counts.get("diagnostics.write_trajectory_csv.bytes", 0))
    out["potential.fourier_profile_radial.points"] = int(
        counts.get("potential.fourier_profile_radial.points", 0))
    return out
