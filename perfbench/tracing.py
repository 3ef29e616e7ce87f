"""Span wrappers around the public functions of each invpos module.

A wrapper is installed wherever the function is bound: in the module that
defines it and in every invpos module that imported it by name (for example
``invpos.energy.energy_direct``, ``invpos.positivity.energy_direct`` and
``invpos.symmetrize.energy_direct``), or on the class for a method.  The
wrappers are installed only while one case is recorded, so the untraced
calls of the same process run the original code.  Private helpers such as
``energy._pair_sum`` are not wrapped.

Each span is (name, start, end, parent span id, case id, work); spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute); "Class.method" patches the class.
TARGETS = (
    ("energy.energy_direct", "invpos.energy", "energy_direct"),
    ("fields.apply_region_map", "invpos.fields", "apply_region_map"),
    ("fields.coarsen", "invpos.fields", "coarsen"),
    ("positivity.positivity_defect", "invpos.positivity", "positivity_defect"),
    ("positivity.halfspace_representation", "invpos.positivity", "halfspace_representation"),
    ("positivity.reflected_energy", "invpos.positivity", "reflected_energy"),
    ("coverage.ball_coverage", "invpos.coverage", "ball_coverage"),
    ("coverage.halfspace_coverage", "invpos.coverage", "halfspace_coverage"),
    ("coverage.tail_mass_1d", "invpos.coverage", "tail_mass_1d"),
    ("symmetrize.symmetrization_step", "invpos.symmetrize", "symmetrization_step"),
    ("symmetrize.hemiball_radius", "invpos.symmetrize", "hemiball_radius"),
    ("symmetrize.hemispace_offset", "invpos.symmetrize", "hemispace_offset"),
    ("symmetrize.fit_extremizer", "invpos.symmetrize", "fit_extremizer"),
    ("lizhu.solve_mapping_ball", "invpos.lizhu", "solve_mapping_ball"),
    ("lizhu.check_mass_identity", "invpos.lizhu", "check_mass_identity"),
    ("lizhu.mass_in_ball", "invpos.lizhu", "Measure.mass_in_ball"),
    ("cli.parse_config", "invpos.cli", "parse_config"),
    ("cli.run", "invpos.cli", "run"),
    ("cli.report_write", "invpos.cli", "Report.write"),
)

# Work recorded with a span: grid cells of the first field argument.
WORK = {"energy.energy_direct": lambda args: args[0].grid.size}

BISECTIONS = ("symmetrize.hemiball_radius", "symmetrize.hemispace_offset")
MASS_EVALS = ("coverage.ball_coverage", "coverage.halfspace_coverage")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._case = None
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items()) if name == "invpos" or name.startswith("invpos.")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original, self._wrap(name, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._case, work(args) if work else 0)

        return traced

    @contextlib.contextmanager
    def recording(self, case_id):
        """Trace one case: install the wrappers and open its root span."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._case = case_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = ("case", start, end, -1, case_id, 0)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "case", "work"))
            for sid, span in enumerate(self.spans):
                out.writerow((sid,) + span)


def summarize(spans, n_cases: int) -> dict:
    """Per-span statistics over the traced cases.

    ``calls`` and ``cells`` are per case.  ``busy_share`` is the wall time
    inside a span and ``self_share`` that time minus what its child spans
    cover (children never overlap: one thread), both as shares of the time
    inside the root "case" spans.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    cells = defaultdict(int)
    child = defaultdict(float)
    mass_evals = 0
    for name, start, end, parent, _, work in spans:
        calls[name] += 1
        busy[name] += end - start
        cells[name] += work
        if parent >= 0:
            child[parent] += end - start
            if name in MASS_EVALS and spans[parent][0] in BISECTIONS:
                mass_evals += 1
    own = defaultdict(float)
    for sid, (name, start, end, *_rest) in enumerate(spans):
        own[name] += end - start - child[sid]
    per_case, total = 1.0 / max(n_cases, 1), busy["case"] or 1.0
    stats = {
        name: {"calls": calls[name] * per_case, "cells": cells[name] * per_case,
               "busy_share": busy[name] / total, "self_share": own[name] / total}
        for name in calls
    }
    bisections = sum(calls[name] for name in BISECTIONS)
    return {"spans": stats, "mass_evals_per_bisection": mass_evals / bisections if bisections else 0.0}
