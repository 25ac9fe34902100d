"""Spans and counts around impulsedde's public names, installed from outside.

A Tracer replaces public module attributes (and two `HistorySegment` methods)
with timing wrappers, and wraps a problem's V, U and G through
`dataclasses.replace`. `restore()` puts every original object back. Names are
wrapped in the namespace that calls them: `solve_mild` is reached as
`impulsedde.bounds.solve_mild` from `check_dependence`, so that attribute is
wrapped there. Private names are never wrapped, so the split survives
refactors that delete them.

Each wrapped call is a span. Calls that happen tens of thousands of times
per op (kernels, delayed-state reads and constructions, `pachpatte_bound`) are
aggregated per name instead of stored one by one; every other span is kept in
memory with its parent and op index and written out at the end of the run.

Per name the tracer keeps: calls, inclusive seconds, self seconds (the span
minus the spans it directly encloses) and an optional count taken from the
call (rows evaluated, bytes built, Picard sweeps, propagators built).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

# module -> public attributes wrapped there; each is called from that module
WRAPPED_ATTRIBUTES = {
    "solver": ("solve_mild", "solve_segment", "mild_residual", "jump_value",
               "validate", "propagator_stack"),
    "semigroup": ("operator_norm_bound", "propagator_stack"),
    "bounds": ("check_dependence", "solve_mild", "sigma_diff", "compute_Ck",
               "dependence_initial_bound", "dependence_parameter_bound",
               "dependence_function_bound"),
    "cli": ("run", "random_instance", "build_oracle_grid", "maximal_solution",
            "pachpatte_bound"),
}

# aggregated only: too frequent to keep one record per call
AGGREGATED = {"model.V", "model.U", "model.G", "trajectory.HistorySegment.__init__",
              "trajectory.HistorySegment.__call__", "bounds.pachpatte_bound"}


def _picard_sweeps(args, result):
    return sum(result[1].iterations_per_segment)


def _stack_length(args, result):
    return len(result)


def _segment_bytes(args, result):
    seg = args[0]
    return seg.theta_grid.nbytes + seg.values.nbytes


def _rows(args, result):
    return int(np.size(args[0]))


COUNTERS = {
    "solver.solve_mild": _picard_sweeps,
    "semigroup.propagator_stack": _stack_length,
    "trajectory.HistorySegment.__init__": _segment_bytes,
    "model.U": _rows,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """One traced pass: install and restore around each op, then read `stats`."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, parent id, op, name, start, end)
        self.stats = {}  # name -> [calls, inclusive s, self s, counted]
        self.op = None
        self._stack = [[0.0, None]]  # [enclosed child seconds, span id]
        self._next_id = 0
        self._originals = []  # (owner, attribute, original object)

    def wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counter = COUNTERS.get(name)
        keep = name not in AGGREGATED
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if keep:
                    spans.append((sid, parent[1], self.op, name, start, end))
            if counter is not None:
                stat[3] += counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attribute, name=None):
        original = vars(owner)[attribute]
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name or span_name(original)))

    def install(self):
        for module_name, attributes in WRAPPED_ATTRIBUTES.items():
            module = getattr(self.package, module_name)
            for attribute in attributes:
                self._replace(module, attribute)
        segment = self.package.trajectory.HistorySegment
        self._replace(segment, "__init__", "trajectory.HistorySegment.__init__")
        self._replace(segment, "__call__", "trajectory.HistorySegment.__call__")

    def restore(self) -> list:
        """Put every original back; return the attributes that are not the original."""
        originals, self._originals = self._originals, []
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        return [f"{getattr(owner, '__name__', owner)}.{attribute}"
                for owner, attribute, original in originals
                if vars(owner)[attribute] is not original]

    def wrap_problem(self, problem):
        return replace(problem,
                       V=self.wrap(problem.V, "model.V"),
                       U=self.wrap(problem.U, "model.U"),
                       G=self.wrap(problem.G, "model.G"))

    def counts(self) -> dict:
        return {name: (s[0], s[3]) for name, s in sorted(self.stats.items())}


def _get(stats, name, field):
    return stats.get(name, (0, 0.0, 0.0, 0))[field]


CALLS, INCLUSIVE, SELF, COUNTED = range(4)

# per-layer metric -> (unit, how it is read from the stats)
LAYER_METRICS = {
    "solver.solve_segment_s": ("s", INCLUSIVE, ("solver.solve_segment",)),
    "solver.mild_residual_s": ("s", INCLUSIVE, ("solver.mild_residual",)),
    "solver.jump_value_s": ("s", INCLUSIVE, ("solver.jump_value",)),
    "solver.self_s": ("s", SELF, "solver."),
    "solver.picard_sweeps": ("count", COUNTED, ("solver.solve_mild",)),
    "model.kernel_s": ("s", INCLUSIVE, ("model.V", "model.U", "model.G")),
    "model.V_calls": ("count", CALLS, ("model.V",)),
    "model.U_calls": ("count", CALLS, ("model.U",)),
    "model.G_calls": ("count", CALLS, ("model.G",)),
    "model.U_rows": ("count", COUNTED, ("model.U",)),
    "model.validate_s": ("s", INCLUSIVE, ("model.validate",)),
    "trajectory.segments_built": ("count", CALLS, ("trajectory.HistorySegment.__init__",)),
    # bytes of the samples each segment holds, computed from array sizes, not measured
    "trajectory.segment_mb": ("MB-computed", COUNTED, ("trajectory.HistorySegment.__init__",)),
    "trajectory.segment_eval_s": ("s", INCLUSIVE, ("trajectory.HistorySegment.__call__",)),
    "trajectory.sigma_diff_s": ("s", INCLUSIVE, ("trajectory.sigma_diff",)),
    "semigroup.propagator_stack_s": ("s", INCLUSIVE, ("semigroup.propagator_stack",)),
    "semigroup.propagators_built": ("count", COUNTED, ("semigroup.propagator_stack",)),
    "bounds.pachpatte_bound_s": ("s", INCLUSIVE, ("bounds.pachpatte_bound",)),
    "bounds.pachpatte_bound_calls": ("count", CALLS, ("bounds.pachpatte_bound",)),
    "bounds.maximal_solution_s": ("s", INCLUSIVE, ("bounds.maximal_solution",)),
    "bounds.random_instance_s": ("s", INCLUSIVE, ("bounds.random_instance",)),
    "bounds.compute_Ck_s": ("s", INCLUSIVE, ("bounds.compute_Ck",)),
    "bounds.dependence_bound_s": ("s", INCLUSIVE, ("bounds.dependence_initial_bound",
                                                   "bounds.dependence_parameter_bound",
                                                   "bounds.dependence_function_bound")),
    "cli.self_s": ("s", SELF, "cli."),
}

UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
UNITS.update({"semigroup.operator_norm_bound_s": "s",  # time in set-up, not per op
              "solver.scaling_exponent": "1",
              "trace.overhead_frac": "1"})

# counts that must repeat exactly between two traced passes over the same ops
COUNT_METRICS = tuple(name for name, (unit, _, _) in LAYER_METRICS.items()
                      if unit in ("count", "MB-computed"))


def layer_metrics(stats: dict, ops: int) -> dict:
    """Per-op means of every per-layer metric over one traced pass."""
    out = {}
    for metric, (unit, field, names) in LAYER_METRICS.items():
        if isinstance(names, str):  # every span of one layer
            names = [name for name in stats if name.startswith(names)]
        total = sum(_get(stats, name, field) for name in names)
        if metric == "trajectory.segment_mb":
            total /= 1e6
        out[metric] = total / ops
    return out


def write_spans(path: str, passes: list):
    """passes: (label, tracer) pairs; one JSON object per span, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, tracer in passes:
            for sid, parent, op, name, start, end in tracer.spans:
                fh.write(json.dumps({"pass": label, "id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"pass": label, "stats": tracer.stats}) + "\n")
