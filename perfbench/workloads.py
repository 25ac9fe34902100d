"""The benchmark's workloads: seeded op streams, the op, and its output checks.

Every workload is a closed loop: one client issues the next op only after the
previous one returned, in a single process. Ops are drawn from the workload
seed only; impulsedde receives nothing but the generated inputs. Each op has
a kind (`kind(spec)`), the problem and code path it runs; run.py summarises
latency per kind and averages over kinds, so the mix a seed draws does not
move it.

- fine_solve: one `solve_mild` of `paper_example` at step 5e-4 (N = 4002
  nodes, about 2000 delayed-state samples per node), residual included. The
  asymptotic regime: delayed-state construction and `mild_residual` dominate;
  the generator is scalar and no bound is evaluated.
- dependence_sweep: one `check_dependence` pair at step 5e-3 (about 200 nodes
  per solve). Many small solves make per-solve fixed costs (validation, kernel
  probing, the n = 2 propagator stacks, the jump window) a large share, so
  work moved into per-solve set-up shows here. One of its problems has a
  convolution kernel U(t, s, w_s) = 0.4 e^{-(t-s)} sin(w_s(-0.25)), which
  bypasses any path specialised to kernels that ignore t.
- inequality_campaign: one in-process `impulsedde inequality --samples 20`.
  Only `bounds` and `cli` run, so it is the bypass for every solver change;
  about 1190 scalar `pachpatte_bound` calls per op dominate it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import astuple, replace

import numpy as np

from impulsedde import bounds, cli, model, semigroup, solver

HERE = os.path.dirname(os.path.abspath(__file__))


class OpFailed(Exception):
    """An op returned, but its output failed a check."""


def _unchanged(problem):
    return problem


def _require_finite(traj, residual):
    arrays = [values for _, values in traj.blocks] + [traj.right_limits]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise OpFailed("non-finite trajectory")
    if not math.isfinite(residual):
        raise OpFailed(f"non-finite residual {residual}")


def _bits(x: float) -> str:
    return float(x).hex()


def fine_outputs(problem, traj, report) -> dict:
    """The fine_solve outputs compared with reference.json."""
    return {"sigma_norm": traj.sigma_norm(),
            "w_b": float(traj.eval(problem.horizon)[0]),
            "jump": float(report.jumps[0][0])}


class FineSolve:
    name = "fine_solve"
    nominal_op_s = 2.5
    step = 5e-4
    input_size = "1 solve per op, N=4002 nodes, delay 1, step 5e-4"

    def __init__(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        if reference["step"] != self.step:
            raise ValueError("reference.json was recorded at another step")
        self.points = reference["points"]
        self.entry = model.get_entry("paper_example")
        problem = self.entry.problem
        self.sg = semigroup.operator_norm_bound(problem.generator, problem.horizon)
        self.disc = solver.Discretization(step=self.step)
        self.control = solver.PicardControl()

    def specs(self, rng):
        """Indices of reference points, every point once per round of 8.

        Points differ in cost by up to a quarter; balanced rounds keep the
        mix the same from seed to seed.
        """
        while True:
            yield from (int(i) for i in rng.permutation(len(self.points)))

    def _instance(self, spec):
        point = self.points[spec]
        return self.entry.instantiate(L_G=point["L_G"], r_eff=1.0,
                                      u_constant=point["u_constant"])

    def run(self, spec, wrap=_unchanged):
        problem, _ = self._instance(spec)
        return solver.solve_mild(wrap(problem), self.disc, self.control)

    def kind(self, spec):
        return f"point {spec}"

    def scaling_problem(self, spec):
        return self._instance(spec)[0], self.step

    def check(self, spec, output):
        traj, report = output
        _require_finite(traj, report.final_residual)
        problem, lip = self._instance(spec)
        if not bounds.existence_certificate(problem, lip, self.sg).passed:
            raise OpFailed("existence certificate fails")
        point = self.points[spec]
        for key, value in fine_outputs(problem, traj, report).items():
            if not abs(value - point[key]) <= point["tol_" + key]:
                raise OpFailed(f"{key}={value!r} differs from the reference {point[key]!r} "
                               f"by more than {point['tol_' + key]:.3g}")

    def fingerprint(self, output):
        traj, report = output
        arrays = [a for block in traj.blocks for a in block] + [traj.right_limits]
        arrays += list(report.jumps)
        return (tuple(a.tobytes() for a in arrays), report.iterations_per_segment,
                _bits(report.final_residual))


def _convolution_U(t, s, w_s):
    # |e^{-(t-s)}| <= 1 for t >= s keeps the catalog modulus N_U = 0.4
    return 0.4 * np.exp(-(np.asarray(t) - s)) * np.sin(w_s(-0.25)[0])


def _shift(f, n, d):
    return lambda *a: np.atleast_1d(np.asarray(f(*a), dtype=float)).reshape(n) + d


class DependenceSweep:
    name = "dependence_sweep"
    nominal_op_s = 0.2
    step = 5e-3
    input_size = "2 solves per op, N=201-203 nodes each, step 5e-3"
    problems = ("windowed_impulse", "parameter_family", "convolution_family")

    def __init__(self):
        self.window = model.get_entry("windowed_impulse")
        self.family = model.get_entry("parameter_family")
        # the convolution variant shares parameter_family's generator and horizon
        self.sg = {entry.name: semigroup.operator_norm_bound(entry.problem.generator,
                                                             entry.problem.horizon)
                   for entry in (self.window, self.family)}
        self.disc = solver.Discretization(step=self.step)
        self.control = solver.PicardControl()

    def specs(self, rng):
        """(kind, problem, gaps), every (kind, problem) pair once per round of 8.

        The seed draws the order within each round and the gaps, whose ranges
        are those of acceptance criterion 8. Balanced rounds keep the mix, and
        so the median op, the same from seed to seed.
        """
        pairs = [(kind, name) for kind in ("initial", "parameter", "function")
                 for name in self.problems
                 if not (kind == "parameter" and name == "windowed_impulse")]
        while True:
            for i in rng.permutation(len(pairs)):
                kind, name = pairs[i]
                if kind == "parameter":
                    gaps = rng.uniform(-0.25, 0.25, size=2)
                elif kind == "initial":
                    gaps = rng.uniform(-0.3, 0.3, size=1)
                else:
                    gaps = rng.uniform(-0.1, 0.1, size=3)
                yield kind, name, tuple(float(g) for g in gaps)

    def _instance(self, name, **params):
        if name == "windowed_impulse":
            return self.window.instantiate(**params)
        problem, lip = self.family.instantiate(**params)
        if name == "convolution_family":
            problem = replace(problem, U=_convolution_U)
        return problem, lip

    def run(self, spec, wrap=_unchanged):
        kind, name, gaps = spec
        problem_a, lip = self._instance(name)
        n = problem_a.dimension
        rho_gap = mu_gap = 0.0
        if kind == "initial":
            problem_b = model.with_history(problem_a, _shift(problem_a.history, n, gaps[0]))
        elif kind == "parameter":
            problem_b, _ = self._instance(name, rho=1.0 + gaps[0], mu=1.0 + gaps[1])
            rho_gap, mu_gap = abs(gaps[0]), abs(gaps[1])
        else:
            dP, dJ, dN = gaps
            problem_b = replace(
                problem_a,
                V=_shift(problem_a.V, n, dP),
                history=_shift(problem_a.history, n, dJ),
                jump_maps=tuple(_shift(jump, n, dN) for jump in problem_a.jump_maps),
            )
            lip = replace(lip, P=abs(dP), J=abs(dJ), N_k=(abs(dN),) * problem_a.num_impulses)
        sg = self.sg["windowed_impulse" if name == "windowed_impulse" else "parameter_family"]
        return bounds.check_dependence(kind, wrap(problem_a), wrap(problem_b), lip, sg,
                                       self.disc, self.control,
                                       rho_gap=rho_gap, mu_gap=mu_gap)

    def kind(self, spec):
        return f"{spec[0]} {spec[1]}"

    def scaling_problem(self, spec):
        return self._instance(spec[1])[0], self.step

    def check(self, spec, report):
        values = (report.empirical, report.theoretical, report.residual_budget)
        if not all(math.isfinite(v) for v in values):
            raise OpFailed(f"non-finite report {report}")
        if not report.dominated:
            raise OpFailed(f"not dominated: {report}")

    def fingerprint(self, report):
        return tuple(_bits(v) if isinstance(v, float) else v for v in astuple(report))


class InequalityCampaign:
    name = "inequality_campaign"
    nominal_op_s = 0.5
    samples = 20
    input_size = "20 random inequality instances per op, oracle step 1e-3"

    def specs(self, rng):
        while True:
            yield int(rng.integers(2 ** 31))

    def run(self, spec, wrap=_unchanged):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["inequality", "--samples", str(self.samples), "--seed", str(spec)])
        return code, out.getvalue()

    def kind(self, spec):
        return "campaign"

    def scaling_problem(self, spec):
        return None  # no solver on this workload

    def check(self, spec, output):
        code, _ = output
        if code != 0:
            raise OpFailed(f"exit code {code}")

    def fingerprint(self, output):
        return output


WORKLOADS = {w.name: w for w in (FineSolve, DependenceSweep, InequalityCampaign)}
