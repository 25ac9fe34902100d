"""Runs one workload in this process and prints one JSON line; started by run.py.

Modes:
  setup    set up (imports, catalog, operator_norm_bound, one warm-up op) and stop
  measure  set up, then run ops in a closed loop for --seconds, untraced
  trace    set up, then run each op of a fixed list three times: untraced,
           traced, traced again; check that tracing changed no output bit, that every
           wrapped attribute is the original object again, and that the two
           traced passes counted the same calls; report per-layer metrics
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import impulsedde
import tracer
from impulsedde import solver
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WARM_UP_SEED = 0


def attempt(workload, spec, wrap=None):
    """(seconds, output, error): one op, timed; its checks run outside the timing."""
    start = time.perf_counter()
    try:
        output = workload.run(spec) if wrap is None else workload.run(spec, wrap)
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        workload.check(spec, output)
    except Exception as exc:  # OpFailed, or an output of the wrong shape
        return elapsed, output, f"{type(exc).__name__}: {exc}"
    return elapsed, output, None


def _report_errors(errors):
    for error in errors[:5]:
        print(f"op failed: {error}", file=sys.stderr)


def measure(workload, specs, seconds):
    times, kinds, failed, errors = [], [], [], []
    begin = time.perf_counter()
    for spec in specs:
        elapsed, _, error = attempt(workload, spec)
        times.append(elapsed)
        kinds.append(workload.kind(spec))
        failed.append(error is not None)
        if error:
            errors.append(error)
        if time.perf_counter() - begin >= seconds:
            break
    phase = time.perf_counter() - begin
    _report_errors(errors)
    return {"times": times, "kinds": kinds, "failed": failed, "phase_s": phase}


def scaling_exponent(workload, spec):
    """Cost exponent p in time ~ N^p from solves at the op step and twice it."""
    probe = workload.scaling_problem(spec)
    if probe is None:
        return 0.0
    problem, step = probe
    points = []
    for h in (2.0 * step, step):
        disc = solver.Discretization(step=h)
        runs = []
        while sum(runs) < 1.0 and len(runs) < 50:
            start = time.perf_counter()
            traj, _ = solver.solve_mild(problem, disc, solver.PicardControl())
            runs.append(time.perf_counter() - start)
        points.append((statistics.median(runs), len(traj.main_times)))
    (t0, n0), (t1, n1) = points
    return math.log(t1 / t0) / math.log(n1 / n0)


def trace(workload, specs, setup_tracer, seed):
    passes = [("traced-1", tracer.Tracer(impulsedde)), ("traced-2", tracer.Tracer(impulsedde))]
    untraced, walls = 0.0, [0.0, 0.0]
    problems, mismatches, not_restored = [], [], []
    # interleaved per op, so drift in machine load falls on all three passes alike
    for i, spec in enumerate(specs):
        elapsed, output, error = attempt(workload, spec)
        untraced += elapsed
        problems.append(error)
        reference = None if output is None else workload.fingerprint(output)
        for p, (label, tr) in enumerate(passes):
            tr.op = i
            tr.install()
            try:
                elapsed, output, error = attempt(workload, spec, tr.wrap_problem)
            finally:
                not_restored += tr.restore()
            walls[p] += elapsed
            problems.append(error)
            if (None if output is None else workload.fingerprint(output)) != reference:
                mismatches.append(f"{label} op {i}")

    errors = [e for e in problems if e]
    _report_errors(errors)
    counts_repeat = passes[0][1].counts() == passes[1][1].counts()
    per_pass = [tracer.layer_metrics(tr.stats, len(specs)) for _, tr in passes]
    values = {name: (per_pass[0][name] if name in tracer.COUNT_METRICS
                     else 0.5 * (per_pass[0][name] + per_pass[1][name]))
              for name in per_pass[0]}
    values["semigroup.operator_norm_bound_s"] = setup_tracer.stats.get(
        "semigroup.operator_norm_bound", [0, 0.0])[1]
    values["solver.scaling_exponent"] = scaling_exponent(workload, specs[0])
    values["trace.overhead_frac"] = (statistics.mean(walls) - untraced) / untraced
    metrics = {name: {"value": value, "unit": tracer.UNITS[name]} for name, value in values.items()}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-{seed}.jsonl")
    tracer.write_spans(spans_path, [("setup", setup_tracer)] + passes)
    return {
        "ops": len(specs),
        "attempted": 3 * len(specs),
        "failed": len(errors),
        "metrics": metrics,
        "checks": {
            "bit_identical": not mismatches,
            "mismatches": mismatches[:5],
            "restored": not not_restored,
            "not_restored": not_restored,
            "counts_repeat": counts_repeat,
        },
        "spans": os.path.relpath(spans_path, ROOT),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    expected = os.path.realpath(os.path.join(ROOT, "src", "impulsedde"))
    if os.path.dirname(os.path.realpath(impulsedde.__file__)) != expected:
        raise SystemExit(f"imported impulsedde from {impulsedde.__file__}, not {expected}")

    setup_tracer = tracer.Tracer(impulsedde)
    if args.mode == "trace":  # only operator_norm_bound_s is read from set-up
        setup_tracer.install()
    try:
        workload = WORKLOADS[args.workload]()
    finally:
        not_restored = setup_tracer.restore()
    # the same warm-up op for every seed, so set-up time does not depend on the seed
    warm_up = next(workload.specs(np.random.default_rng(WARM_UP_SEED)))
    _, _, warm_error = attempt(workload, warm_up)
    result = {"ready": time.monotonic(), "warm_up_error": warm_error}
    specs = workload.specs(np.random.default_rng(args.seed))
    if args.mode == "measure":
        result.update(measure(workload, specs, args.seconds))
    elif args.mode == "trace":
        count = max(1, int(args.seconds / (3.0 * workload.nominal_op_s)))
        result.update(trace(workload, list(itertools.islice(specs, count)),
                            setup_tracer, args.seed))
        result["checks"]["not_restored"] += not_restored
        result["checks"]["restored"] = not result["checks"]["not_restored"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["input_size"] = workload.input_size
    print(json.dumps(result))


if __name__ == "__main__":
    main()
