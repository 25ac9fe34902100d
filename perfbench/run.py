"""Benchmark of impulsedde: three closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dependence_sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Workloads (see workloads.py): fine_solve, dependence_sweep,
inequality_campaign; `all` runs the three one after another. BENCHMARK.json
lists only dependence_sweep and inequality_campaign. fine_solve ops take
about 2.5 s and its set-up about 4 s a process, so a run holds only two or
three ops of each kind and takes half as long again as a run of the others;
it is run by hand for claims on the asymptotic regime. Each workload runs in
fresh processes of its own, started here with BLAS and OpenMP pinned to one
thread, so its set-up time and peak memory are its own. The package is
imported from src/ of the checkout; without it the benchmark exits with 2.

--trace 0 prints the end-to-end metrics, measured untraced. Op latency is
summarised per op kind (workloads.py) and averaged over kinds, so the mix of
kinds a seed draws does not move it. The result line holds:
  op_min_s     fastest op wall time, per kind, averaged over kinds
  setup_s      process start to ready (imports, catalog, operator_norm_bound,
               one untimed warm-up op), median over the measuring process
               and SETUP_EACH_SIDE set-up-only processes before it and as
               many after it
  peak_rss_mb  peak resident memory of the measuring process
and the lines above it also show:
  op_p50_s     median op wall time, per kind, averaged over kinds
  op_tail_s    highest percentile of all op times with at least 10 ops beyond
               it (the median when a run has at most 20 ops), with the
               percentile and op count
  ops_per_s    ops that passed their checks per second of the measured phase
  fail_frac    failed ops / attempted ops (also the result's failed /
               attempted; 0 on a correct program)
The host this benchmark was built on (2 vCPUs of a shared machine) can run
an op at half speed for seconds to minutes at a time, and that only ever
slows an op. The fastest op of a kind is what the program costs when the
host lets it run (the estimator timeit recommends), and it repeats from run
to run far more closely than any higher percentile; the median, tail and
rate move with the load of the host's other tenants, so they are shown but
not put in the result line, whose metrics BENCHMARK.json bounds.

--trace 1 runs a fixed, seed-determined list of ops untraced and then twice
traced (tracer.py), and prints per-op means of the per-layer metrics plus
trace.overhead_frac. The run is correct only if tracing changed no output
bit, every wrapped attribute is the original object afterwards, and both
traced passes counted exactly the same calls. Spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fine_solve", "dependence_sweep", "inequality_campaign")
SETUP_EACH_SIDE = 3
DEADLINE_S = 170.0  # per workload; the contract allows 180
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"op_min_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SHOWN_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s"}


class BenchError(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for name in THREAD_VARIABLES:
        env[name] = "1"  # every op is sequential; more threads only add noise
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process; setup_s is from its start to its ready mark."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_environment(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process did not finish in time") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(times: list):
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    n = len(times)
    if n <= 20:  # that percentile would lie below the median
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def per_kind(times: list, kinds: list, statistic) -> float:
    """Mean over op kinds of `statistic` of each kind's op times."""
    groups = {}
    for t, kind in zip(times, kinds):
        groups.setdefault(kind, []).append(t)
    return statistics.fmean(statistic(group) for group in groups.values())


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    def setup_s():
        return spawn(workload, seed, seconds, "setup", deadline)["setup_s"]

    before = [setup_s() for _ in range(SETUP_EACH_SIDE)]
    main = spawn(workload, seed, seconds, "measure", deadline)
    setups = before + [main["setup_s"]] + [setup_s() for _ in range(SETUP_EACH_SIDE)]
    phase = main["phase_s"]
    # a failed op misses every latency limit: it counts as the whole phase
    times = [phase if bad else t for t, bad in zip(main["times"], main["failed"])]
    kinds = main["kinds"]
    attempted, failed = len(times), sum(main["failed"])
    tail_value, tail_pct = tail(times)
    metrics = {
        "op_min_s": per_kind(times, kinds, min),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    shown = {
        "op_p50_s": per_kind(times, kinds, statistics.median),
        "op_tail_s": tail_value,
        "ops_per_s": (attempted - failed) / phase,
    }
    print(f"{workload}: {attempted} ops in {len(set(kinds))} op kinds, {phase:.2f} s "
          f"({main['input_size']}), closed loop, 1 client")
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {attempted} ops",
             "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups)}
    units = {**END_TO_END_UNITS, **SHOWN_UNITS}
    for name, value in {**metrics, **shown}.items():
        print(f"  {name:<12} {value:>12.6g} {units[name]:<4} {notes.get(name, '')}")
    print(f"  {'fail_frac':<12} {failed / attempted:>12.6g}      {failed} of {attempted} ops")
    correct = failed == 0 and main["warm_up_error"] is None
    if main["warm_up_error"]:
        print(f"  warm-up op failed: {main['warm_up_error']}")
    return correct, attempted, failed, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                                        for name, value in metrics.items()}


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    result = spawn(workload, seed, seconds, "trace", deadline)
    checks = result["checks"]
    print(f"{workload}: {result['ops']} ops x 3 passes (untraced, traced, traced), "
          f"{result['input_size']}; spans in {result['spans']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.8g} {metric['unit']}")
    print(f"  tracing left outputs bit-identical: {checks['bit_identical']} "
          f"{checks['mismatches'] or ''}")
    print(f"  wrapped attributes restored: {checks['restored']} {checks['not_restored'] or ''}")
    print(f"  counts repeat across traced passes: {checks['counts_repeat']}")
    correct = (result["failed"] == 0 and result["warm_up_error"] is None
               and checks["bit_identical"] and checks["restored"] and checks["counts_repeat"])
    return correct, result["attempted"], result["failed"], result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so spawn() stops its worker before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "impulsedde", "__init__.py")):
        print(f"no impulsedde sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run_one = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, n, bad, values = run_one(workload, args.seed, args.seconds,
                                         time.monotonic() + DEADLINE_S)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: metric for name, metric in values.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
