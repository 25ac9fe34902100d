"""Records the fine_solve reference outputs in reference.json.

Run from the repository root (about half a minute):

    PYTHONPATH=src python3 perfbench/make_reference.py

Each parameter point of `paper_example` (r_eff = 1) is solved at the workload
step h and at 2h. The tolerance of each output is |q(h) - q(2h)|, about three
times the O(h^2) discretization error of q(h), floored at 1e-9 so that an
output that is exactly zero (the jump over the zero-width window) must stay
near zero. A change in rounding passes; a change of the discretization order
does not.
"""

from __future__ import annotations

import json
import os

import numpy as np

from impulsedde import Discretization, PicardControl, get_entry, solve_mild
from workloads import FineSolve, fine_outputs

STEP = FineSolve.step
TOLERANCE_FLOOR = 1e-9
# L_G stays below the certificate threshold 1 / (2 b M D_1) = 0.0338
POINTS = [(L_G, float(u)) for L_G, u in zip((0.001, 0.005, 0.01, 0.02, 0.03, 0.02, 0.01, 0.005),
                                              np.linspace(-1.0, 1.0, 8))]


def outputs(problem, step):
    traj, report = solve_mild(problem, Discretization(step=step), PicardControl())
    return fine_outputs(problem, traj, report)


def main():
    entry = get_entry("paper_example")
    points = []
    for L_G, u in POINTS:
        problem, _ = entry.instantiate(L_G=L_G, r_eff=1.0, u_constant=u)
        fine, coarse = outputs(problem, STEP), outputs(problem, 2.0 * STEP)
        point = {"L_G": L_G, "u_constant": u, **fine}
        for key in fine:
            point["tol_" + key] = max(abs(fine[key] - coarse[key]), TOLERANCE_FLOOR)
        points.append(point)
        print(point)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"problem": "paper_example", "r_eff": 1.0, "step": STEP, "points": points},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
