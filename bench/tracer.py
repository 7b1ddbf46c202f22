"""Span tracing of isoflex layers from outside the package.

Wrappers are installed on the functions named in ``TARGETS``: on the module
or class that defines each one, and on every ``isoflex`` module that bound
the same object with ``from .x import name``.  Names imported inside a
function body resolve through the defining module at call time, so they
pick the wrapper up without further patching.

Each call records a span ``[name, start, end, parent]`` in memory; the
spans are summarised and written out when the run ends.  A
span's self time is its duration minus the time covered by its direct
children, which on one thread nest strictly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "isoflex"


def _diff1_mb(args, kwargs, result):
    # input + output bytes, computed from the array sizes (not measured)
    return (args[0].nbytes + result.nbytes) / 1e6


def _eval_points(args, kwargs, result):
    import numpy as np

    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _conformal_iterations(args, kwargs, result):
    return int(result.iterations)


def _stages_kept(args, kwargs, result):
    return sum(1 for rec in result[1] if rec.get("active"))


def _mesh_mb(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path) / 1e6


# (layer, qualified name inside the layer, {extra count name: extractor})
TARGETS = (
    ("grid", "pullback_metric", {}),
    ("grid", "ImmersionField.jacobian", {}),
    ("grid", "ImmersionField.min_singular_value", {}),
    ("grid", "_diff1", {"mb": _diff1_mb}),
    ("grid", "mollify", {}),
    ("grid", "holder_seminorm", {}),
    ("grid", "norm_report", {}),
    ("grid", "check_short", {}),
    ("corrugation", "build_corrugation", {}),
    ("corrugation", "CorrugationTable.eval", {"points": _eval_points}),
    ("decomposition", "solve_conformal", {"iterations": _conformal_iterations}),
    ("decomposition", "build_frame", {}),
    ("nash_step", "step", {}),
    ("nash_step", "stage", {}),
    ("nash_step", "add_metric_2d", {}),
    ("nash_step", "bootstrap_strong", {}),
    ("induction", "certify_adapted", {}),
    ("induction", "run_global", {}),
    ("induction", "inductive_pass", {"stages_kept": _stages_kept}),
    ("induction", "cutoffs", {}),
    ("induction", "SkeletonSet.distance_field", {}),
    ("induction", "rho_recursion_audit", {}),
    ("io", "export_mesh", {"mb": _mesh_mb}),
    ("scenario", "parse_scenario", {}),
    ("cli", "cmd_run", {}),
)

# counts derived from the span tree rather than from one call's arguments
DERIVED_COUNTS = ("induction.inductive_pass.stages_attempted",)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer, qual, extras in TARGETS:
        base = f"{layer}.{qual}"
        names.append((f"{base}.calls", "count"))
        names.append((f"{base}.self_s", "s"))
        for extra in extras:
            names.append((f"{base}.{extra}", "MB" if extra == "mb" else "count"))
    names.extend((name, "count") for name in DERIVED_COUNTS)
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    """Records nested spans and per-call extra counts on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, extras=None):
        extras = extras or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            for extra, count in extras.items():
                self.counts[f"{name}.{extra}"] += count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target everywhere the package bound it."""
        # import every layer first, so that no module binds a name after
        # the bindings were scanned
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer, _, _ in TARGETS}
        for layer, qual, extras in TARGETS:
            module = modules[layer]
            *owner_path, attr = qual.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(f"{layer}.{qual}", original, extras)
            self._patch(owner, attr, original, wrapped)
            if owner is module:
                for name, mod in list(sys.modules.items()):
                    if mod is module or not (name == PACKAGE
                                             or name.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """calls, self_s and extra counts for every target, zeros included."""
        calls = Counter(span[0] for span in self.spans)
        self_s = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_s[span[0]] += own
        out = {}
        for layer, qual, extras in TARGETS:
            base = f"{layer}.{qual}"
            out[f"{base}.calls"] = calls[base]
            out[f"{base}.self_s"] = float(self_s[base])
            for extra in extras:
                out[f"{base}.{extra}"] = self.counts[f"{base}.{extra}"]
        # a stage is attempted when the pass computes it, kept when the
        # pass returns it active
        out["induction.inductive_pass.stages_attempted"] = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "nash_step.add_metric_2d"
            and self.has_ancestor(i, "induction.inductive_pass"))
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
