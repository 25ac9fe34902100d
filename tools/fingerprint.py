"""Fingerprint of impulsedde's end-to-end outputs, and a diff of two fingerprints.

    PYTHONPATH=src python3 tools/fingerprint.py --write tools/fingerprint.json
    PYTHONPATH=src python3 tools/fingerprint.py --diff tools/fingerprint.json new.json

An entry is a named list of records. A record is a float, an array or a text:
its sha256 (of the float64 bytes or of the UTF-8 text) and its recorded values
as `float.hex`. A float and an array of at most WHOLE values are recorded
whole; a longer array by its size, min, max, math.fsum and PROBES evenly spaced
elements; a text by the numbers it prints. The entries:

- the five catalog problems at steps 5e-3 and 1e-3: the blocks, right limits,
  jumps, Picard sweeps per segment and final_residual of `solve_mild`
- `apriori_bound` and the three dependence bounds on each catalog problem
- the 150 `check_dependence` pairs of acceptance criterion 8
- `inequality --samples 20` stdout and CSV for seeds 0-4
- `maximal_solution` and `pachpatte_curve` on 200 `random_instance` draws
  (Philox seed 777, oracle step 1e-3)

`--diff A B` prints each entry as identical (every sha256 equal) or changed,
with the max absolute change, max relative change and max ulps over the
recorded values of its changed records; a record's relative change is its
largest absolute change over its largest magnitude in A. A record whose bits
moved but whose recorded values did not is changed "in bits only". The diff
is a report and exits 0; tests/test_fingerprint.py is the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import tempfile
from dataclasses import replace
from itertools import chain

import numpy as np

from impulsedde import (Discretization, PicardControl, apriori_bound, build_catalog,
                        build_oracle_grid, check_dependence, cli, dependence_function_bound,
                        dependence_initial_bound, dependence_parameter_bound, get_entry,
                        maximal_solution, operator_norm_bound, pachpatte_curve, random_instance,
                        solve_mild, with_history)

WHOLE, PROBES = 64, 13
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def record(x) -> dict:
    """One float, array or text as its sha256 and its recorded values."""
    if isinstance(x, str):
        return {"sha256": hashlib.sha256(x.encode()).hexdigest(),
                "values": [float(v).hex() for v in NUMBER.findall(x)]}
    a = np.ascontiguousarray(x, dtype=float).ravel()
    values = a
    if a.size > WHOLE:
        picks = np.linspace(0, a.size - 1, PROBES).round().astype(int)
        values = [a.size, a.min(), a.max(), math.fsum(a.tolist()), *a[picks]]
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "values": [float(v).hex() for v in values]}


def _catalog():
    for entry in build_catalog():
        for step in (5e-3, 1e-3):
            traj, rep = solve_mild(entry.problem, Discretization(step=step), PicardControl())
            key = f"catalog/{entry.name}/{step:g}"
            yield f"{key}/blocks", [record(a) for block in traj.blocks for a in block]
            yield f"{key}/right_limits", [record(traj.right_limits)]
            yield f"{key}/jumps", [record(j) for j in rep.jumps]
            yield f"{key}/sweeps", [record(rep.iterations_per_segment)]
            yield f"{key}/final_residual", [record(rep.final_residual)]


def _bounds():
    for entry in build_catalog():
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        values = [apriori_bound(problem, lip, sg, Discretization(step=5e-3)),
                  dependence_initial_bound(problem, lip, sg, 0.1)]
        if lip.N_V_tilde is not None:
            values.append(dependence_parameter_bound(problem, lip, sg, 0.1, 0.1))
        gaps = replace(lip, P=0.1, J=0.1, N_k=(0.1,) * problem.num_impulses)
        values.append(dependence_function_bound(problem, gaps, sg))
        yield f"bounds/{entry.name}", [record(v) for v in values]


def _dependence_pairs():
    """(kind, problem_a, problem_b, entry, gaps) of criterion 8's pairs, in its order;
    the entry of a function pair carries its perturbation's P, J and N_k."""
    rng = np.random.default_rng(88)
    param, window = get_entry("parameter_family"), get_entry("windowed_impulse")

    def shifted(f, d, n):
        return lambda *a: np.atleast_1d(np.asarray(f(*a), dtype=float)).reshape(n) + d

    for i in range(50):
        entry = (param, window)[i % 2]
        a, d = entry.problem, float(rng.uniform(-0.3, 0.3))
        yield "initial", a, with_history(a, shifted(a.history, d, a.dimension)), entry, {}
    for i in range(50):
        drho, dmu = float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-0.25, 0.25))
        b, _ = param.instantiate(rho=1.0 + drho, mu=1.0 + dmu)
        yield "parameter", param.problem, b, param, {"rho_gap": abs(drho), "mu_gap": abs(dmu)}
    for i in range(50):
        entry = (param, window)[i % 2]
        a, n = entry.problem, entry.problem.dimension
        dP, dJ, dN = (float(rng.uniform(-0.1, 0.1)) for _ in range(3))
        b = replace(a, V=shifted(a.V, dP, n), history=shifted(a.history, dJ, n),
                    jump_maps=tuple(shifted(I, dN, n) for I in a.jump_maps))
        lip = replace(entry.lipschitz, P=abs(dP), J=abs(dJ), N_k=(abs(dN),) * a.num_impulses)
        yield "function", a, b, replace(entry, lipschitz=lip), {}


def _dependence():
    disc, ctrl, sgs, reports = Discretization(step=5e-3), PicardControl(), {}, {}
    for kind, a, b, entry, gaps in _dependence_pairs():
        if entry.name not in sgs:
            sgs[entry.name] = operator_norm_bound(a.generator, a.horizon)
        rep = check_dependence(kind, a, b, entry.lipschitz, sgs[entry.name], disc, ctrl, **gaps)
        reports.setdefault(kind, []).append(
            (rep.empirical, rep.theoretical, rep.residual_budget, rep.dominated))
    for kind, rows in reports.items():
        yield f"dependence/{kind}", [record(column) for column in zip(*rows)]


def _campaigns():
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(5):
            csv, out = f"{tmp}/{seed}.csv", io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(["inequality", "--samples", "20", "--seed", str(seed), "--out", csv])
            with open(csv) as fh:
                text = fh.read()
            # the last stdout line names the CSV's temporary path
            stdout = out.getvalue().rsplit("report written to", 1)[0]
            yield f"inequality/seed{seed}", [record(code), record(stdout), record(text)]


def _random_instances():
    rng = np.random.Generator(np.random.Philox(777))
    oracle, curve = [], []
    for _ in range(200):
        inst = random_instance(rng)
        grid = build_oracle_grid(inst, 1e-3)
        oracle.append(record(maximal_solution(inst, grid)))
        curve.append(record(pachpatte_curve(inst, grid)))
    yield "random_instance/maximal_solution", oracle
    yield "random_instance/pachpatte_curve", curve


def fingerprint() -> dict:
    return dict(chain(_catalog(), _bounds(), _dependence(), _campaigns(), _random_instances()))


def _ordered(x: float) -> int:
    """x's position among the float64s, so that adjacent floats differ by 1."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def change(ra: dict, rb: dict) -> tuple:
    """(max abs, max rel, max ulps) of record rb's values against ra's; all inf
    when their counts differ. Equal values and two NaNs count as no change."""
    va, vb = ([float.fromhex(v) for v in r["values"]] for r in (ra, rb))
    if len(va) != len(vb):
        return math.inf, math.inf, math.inf
    moved = [(x, y) for x, y in zip(va, vb) if not (x == y or x != x and y != y)]
    worst = max((abs(x - y) if x == x and y == y else math.inf for x, y in moved), default=0.0)
    scale = max((abs(x) for x in va if x == x), default=0.0)
    rel = worst / scale if scale else (math.inf if worst else 0.0)
    return worst, rel, max((abs(_ordered(x) - _ordered(y)) for x, y in moved), default=0)


def diff(ea: dict, eb: dict) -> None:
    names = list(ea) + [k for k in eb if k not in ea]
    changed, top = 0, (0.0, 0.0, 0)
    for name in names:  # an entry only one side has is changed in all its records
        a, b = ea.get(name, []), eb.get(name, [])
        moved = [change(ra, rb) for ra, rb in zip(a, b) if ra["sha256"] != rb["sha256"]]
        moved += [(math.inf,) * 3] * abs(len(a) - len(b))
        if not moved:
            print(f"{name}: identical")
            continue
        changed += 1
        worst = tuple(map(max, zip(*moved)))
        top = tuple(map(max, top, worst))
        print(f"{name}: changed in {len(moved)} of {max(len(a), len(b))} records "
              f"({moved.count((0.0, 0.0, 0))} in bits only), max abs {worst[0]:.3g}, "
              f"max rel {worst[1]:.3g}, max {worst[2]} ulps")
    print(f"total: {len(names) - changed} of {len(names)} entries identical, {changed} changed; "
          f"max abs {top[0]:.3g}, max rel {top[1]:.3g}, max {top[2]} ulps")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["entries"]


def write(path: str) -> None:
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    # one record a line, so a change of bits is a change of lines
    body = ",\n".join(f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, records)) + "\n]"
                      for name, records in fingerprint().items())
    with open(path, "w") as fh:
        fh.write(json.dumps(host)[:-1] + ', "entries": {\n' + body + "\n}}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.write:
        write(args.write)
    else:
        diff(*map(load, args.diff))
