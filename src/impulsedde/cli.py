"""Command-line front end: solve catalog problems, check certificates and bounds.

Configuration is a YAML file whose sections mirror RunConfig:

    seed: 42
    output_path: trajectory.csv
    problem:
      name: paper_example
      parameters: {L_G: 0.01}
    discretization: {step: 1.0e-3, quadrature: trapezoid}
    picard: {tolerance: 1.0e-10, max_iterations: 200, initial_iterate: constant}

Unknown keys anywhere in the file are hard errors. Exit codes: 0 success/PASS,
2 usage or config error, 3 certificate FAIL, 4 solver non-convergence,
5 inequality violation beyond tolerance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .bounds import (
    apriori_bound,
    build_oracle_grid,
    check_dependence,
    dependence_function_bound,
    dependence_initial_bound,
    dependence_parameter_bound,
    existence_certificate,
    maximal_solution,
    pachpatte_bound,  # noqa: F401  (kept as cli.pachpatte_bound; perfbench/tracer.py wraps it here)
    pachpatte_curve,
    random_instance,
)
from .model import CatalogEntry, as_state, get_entry, with_history
from .semigroup import operator_norm_bound
from .solver import ConvergenceError, Discretization, PicardControl, solve_mild
from .trajectory import PiecewiseTrajectory, sigma_diff

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "main"]

GENERATOR_ID = "philox4x64"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERT_FAIL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VIOLATION = 5


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    problem_name: str
    parameters: dict
    step: float
    quadrature: str
    tolerance: float
    max_iterations: int
    initial_iterate: str
    seed: int
    output_path: str | None

    @property
    def discretization(self) -> Discretization:
        return Discretization(step=self.step, quadrature=self.quadrature)

    @property
    def picard(self) -> PicardControl:
        return PicardControl(tolerance=self.tolerance, max_iterations=self.max_iterations,
                             initial_iterate=self.initial_iterate)


_SCHEMA = {
    "seed": int,
    "output_path": str,
    "problem": {"name": str, "parameters": dict},
    "discretization": {"step": float, "quadrature": str},
    "picard": {"tolerance": float, "max_iterations": int, "initial_iterate": str},
}


def _reject_unknown(data: dict, schema: dict, prefix: str = ""):
    for key, value in data.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown key: {path}")
        spec = schema[key]
        if isinstance(spec, dict) and spec is not dict:
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be a mapping")
            if spec == dict:
                continue
            _reject_unknown(value, spec, prefix=f"{path}.")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(data, _SCHEMA)
    problem = data.get("problem", {})
    if isinstance(problem.get("parameters"), dict):
        for key, value in problem["parameters"].items():
            if not isinstance(value, (int, float)):
                raise ConfigError(f"problem.parameters.{key} must be a number")
    disc = data.get("discretization", {})
    picard = data.get("picard", {})

    step = float(disc.get("step", 1e-3))
    if not step > 0.0:
        raise ConfigError(f"discretization.step must be > 0, got {step}")
    quadrature = str(disc.get("quadrature", "trapezoid"))
    if quadrature != "trapezoid":
        raise ConfigError(f"discretization.quadrature must be 'trapezoid', got {quadrature!r}")
    tolerance = float(picard.get("tolerance", 1e-10))
    if not tolerance > 0.0:
        raise ConfigError(f"picard.tolerance must be > 0, got {tolerance}")
    max_iterations = int(picard.get("max_iterations", 200))
    if max_iterations < 1:
        raise ConfigError(f"picard.max_iterations must be >= 1, got {max_iterations}")
    initial_iterate = str(picard.get("initial_iterate", "constant"))
    if initial_iterate not in ("constant", "ramp"):
        raise ConfigError(f"picard.initial_iterate must be constant|ramp, got {initial_iterate!r}")
    name = problem.get("name")
    if not isinstance(name, str):
        raise ConfigError("problem.name is required")
    return RunConfig(
        problem_name=name,
        parameters=dict(problem.get("parameters", {})),
        step=step,
        quadrature=quadrature,
        tolerance=tolerance,
        max_iterations=max_iterations,
        initial_iterate=initial_iterate,
        seed=int(data.get("seed", 0)),
        output_path=data.get("output_path"),
    )


def _resolve(cfg: RunConfig):
    try:
        entry = get_entry(cfg.problem_name)
    except KeyError as exc:
        raise ConfigError(f"problem.name: {exc.args[0]}") from exc
    try:
        problem, lip = entry.instantiate(**cfg.parameters)
    except ValueError as exc:
        raise ConfigError(f"problem.parameters: {exc}") from exc
    return entry, problem, lip


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: str, traj: PiecewiseTrajectory):
    n = traj.dimension
    header = "t,segment_index,is_right_limit," + ",".join(f"w_{i}" for i in range(n))
    lines = [header]
    ht, hv = traj.blocks[0]
    for t, v in zip(ht, hv):
        lines.append(",".join([_fmt(t), "-1", "0"] + [_fmt(x) for x in v]))
    for j, (bt, bv) in enumerate(traj.blocks[1:]):
        for i, (t, v) in enumerate(zip(bt, bv)):
            is_right = 1 if (j > 0 and i == 0) else 0
            lines.append(",".join([_fmt(t), str(j), str(is_right)] + [_fmt(x) for x in v]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path: str):
    """Parse a trajectory CSV into (t, segment_index, is_right_limit, values) arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    ncols = len(header)
    rows = [ln.split(",") for ln in lines[1:]]
    t = np.array([float(r[0]) for r in rows])
    seg = np.array([int(r[1]) for r in rows])
    right = np.array([int(r[2]) for r in rows])
    vals = np.array([[float(x) for x in r[3:ncols]] for r in rows])
    return t, seg, right, vals


# ---------------------------------------------------------------------------
# subcommands

def _cmd_certify(cfg: RunConfig) -> int:
    _, problem, lip = _resolve(cfg)
    sg = operator_norm_bound(problem.generator, problem.horizon)
    report = existence_certificate(problem, lip, sg)
    token = "PASS" if report.passed else "FAIL"
    print(f"M = {sg.M:.9g} (omega = 0, {sg.sample_count} samples on [0, {sg.horizon}])")
    print(f"certificate lhs = {report.lhs:.9g} threshold = {report.threshold:g} -> {token}")
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def _cmd_solve(cfg: RunConfig, out: str | None) -> int:
    _, problem, _ = _resolve(cfg)
    out = out or cfg.output_path
    if not out:
        raise ConfigError("output_path is required for solve (set it or pass --out)")
    traj, report = solve_mild(problem, cfg.discretization, cfg.picard)
    write_trajectory_csv(out, traj)
    print(f"sigma_norm = {traj.sigma_norm():.12g}")
    for k, jump in enumerate(report.jumps, start=1):
        print(f"|jump t_{k}| = {float(np.max(np.abs(jump))):.12g}")
    print(f"residual = {report.final_residual:.6g}")
    print(f"iterations = {list(report.iterations_per_segment)}")
    print(f"trajectory written to {out}")
    return EXIT_OK


def _cmd_apriori(cfg: RunConfig, with_solve: bool) -> int:
    _, problem, lip = _resolve(cfg)
    sg = operator_norm_bound(problem.generator, problem.horizon)
    bound = apriori_bound(problem, lip, sg, cfg.discretization)
    print(f"apriori bound K = {bound:.9g}")
    if with_solve:
        traj, _ = solve_mild(problem, cfg.discretization, cfg.picard)
        norm = traj.sigma_norm()
        verdict = "DOMINATED" if norm <= bound else "VIOLATED"
        print(f"solution sigma_norm = {norm:.9g} -> {verdict}")
    return EXIT_OK


def _perturbed_problem(kind: str, entry: CatalogEntry, cfg: RunConfig, problem, lip, args):
    if kind == "initial":
        gap = args.gap
        base = problem.history
        n = problem.dimension
        shifted = lambda t: as_state(base(t), n) + gap  # noqa: E731
        return with_history(problem, shifted), lip
    if kind == "parameter":
        for name in ("rho", "mu"):
            if name not in entry.free_parameters:
                raise ConfigError(f"problem {entry.name!r} has no free parameter {name!r};"
                                  " --empirical needs a rho/mu family")
        base = dict(cfg.parameters)
        rho = base.get("rho", entry.free_parameters["rho"].default)
        mu = base.get("mu", entry.free_parameters["mu"].default)
        base.update(rho=rho + args.rho_gap, mu=mu + args.mu_gap)
        problem_b, _ = entry.instantiate(**base)
        return problem_b, lip
    # function: constant shifts realize the sup deviations exactly
    n = problem.dimension
    V, hist = problem.V, problem.history
    p_gap, j_gap, n_gap = args.p_gap, args.j_gap, args.n_gap
    problem_b = replace(
        problem,
        V=lambda t, w_t, z: as_state(V(t, w_t, z), n) + p_gap,
        history=lambda t: as_state(hist(t), n) + j_gap,
        jump_maps=tuple(
            (lambda I: (lambda x: as_state(I(x), n) + n_gap))(I) for I in problem.jump_maps
        ),
    )
    lip_b = replace(lip, P=p_gap, J=j_gap, N_k=(n_gap,) * problem.num_impulses)
    return problem_b, lip_b


def _cmd_bound(cfg: RunConfig, args) -> int:
    entry, problem, lip = _resolve(cfg)
    sg = operator_norm_bound(problem.generator, problem.horizon)
    try:
        if args.kind == "initial":
            theoretical = dependence_initial_bound(problem, lip, sg, args.gap)
        elif args.kind == "parameter":
            theoretical = dependence_parameter_bound(problem, lip, sg, args.rho_gap, args.mu_gap)
        else:
            lip = replace(lip, P=args.p_gap, J=args.j_gap,
                          N_k=(args.n_gap,) * problem.num_impulses)
            theoretical = dependence_function_bound(problem, lip, sg)
    except ValueError as exc:
        raise ConfigError(f"bound not evaluable for {entry.name!r}: {exc}") from exc
    print(f"theoretical {args.kind} bound = {theoretical:.9g}")
    if args.empirical:
        problem_b, lip_b = _perturbed_problem(args.kind, entry, cfg, problem, lip, args)
        report = check_dependence(args.kind, problem, problem_b, lip_b, sg,
                                  cfg.discretization, cfg.picard,
                                  rho_gap=args.rho_gap, mu_gap=args.mu_gap)
        verdict = "DOMINATED" if report.dominated else "VIOLATED"
        print(f"empirical sigma_diff = {report.empirical:.9g} "
              f"(budget {report.residual_budget:.3g}) -> {verdict}")
    return EXIT_OK


def _cmd_inequality(samples: int, seed: int, out: str | None, step: float) -> int:
    if samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    tolerance = 1e-8 + 10.0 * step ** 2
    rows = []
    worst = -np.inf
    for idx in range(samples):
        inst = random_instance(rng)
        grid = build_oracle_grid(inst, step)
        u = maximal_solution(inst, grid)
        bound_vals = pachpatte_curve(inst, grid)
        violation = u - bound_vals
        j = int(np.argmax(violation))
        rows.append((idx, grid[j], float(violation[j]), inst.num_impulses,
                     float(bound_vals[-1])))
        worst = max(worst, float(violation[j]))
        ck = ", ".join(f"{c:.6g}" for c in inst.Ck_values) or "-"
        print(f"instance {idx}: max violation {violation[j]:.3e} at t={grid[j]:.6g} "
              f"(m={inst.num_impulses}, C_k = {ck})")
    print(f"max violation over {samples} instances: {worst:.3e} (tolerance {tolerance:.3e})")
    if out:
        lines = [f"# generator={GENERATOR_ID}", f"# seed={seed}", f"# step={_fmt(step)}",
                 "instance_id,t_max_violation,max_violation,num_impulses,bound_at_horizon"]
        for idx, t, v, m, bh in rows:
            lines.append(f"{idx},{_fmt(t)},{_fmt(v)},{m},{_fmt(bh)}")
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"report written to {out}")
    return EXIT_OK if worst <= tolerance else EXIT_VIOLATION


def _cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig) -> int:
    _, problem_a, _ = _resolve(cfg_a)
    _, problem_b, _ = _resolve(cfg_b)
    traj_a, _ = solve_mild(problem_a, cfg_a.discretization, cfg_a.picard)
    traj_b, _ = solve_mild(problem_b, cfg_b.discretization, cfg_b.picard)
    try:
        total = sigma_diff(traj_a, traj_b)
    except ValueError as exc:
        raise ConfigError(f"configs are not comparable: {exc}") from exc
    print(f"sigma_diff = {total:.9g}")
    for j, ((at, _), (bt, _)) in enumerate(zip(traj_a.blocks[1:], traj_b.blocks[1:])):
        grid = np.unique(np.concatenate([at, bt]))
        gap = float(np.max(np.abs(traj_a.eval_many(grid) - traj_b.eval_many(grid))))
        print(f"segment {j}: sup gap = {gap:.9g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="impulsedde",
                                     description="impulsive delay integro-differential solver "
                                                 "and bound verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, required=True):
        p.add_argument("--config", required=required, help="YAML run configuration")

    p = sub.add_parser("solve", help="solve a catalog problem and write the trajectory CSV")
    add_config(p)
    p.add_argument("--out", help="trajectory CSV path (overrides output_path)")

    p = sub.add_parser("certify", help="evaluate the existence certificate")
    add_config(p)

    p = sub.add_parser("apriori", help="evaluate the a-priori solution bound")
    add_config(p)
    p.add_argument("--with-solve", action="store_true", dest="with_solve",
                   help="also solve and report the domination verdict")

    p = sub.add_parser("bound", help="evaluate a dependence-on-data bound")
    add_config(p)
    p.add_argument("--kind", required=True, choices=("initial", "parameter", "function"))
    p.add_argument("--gap", type=float, default=0.0, help="history sup gap (kind=initial)")
    p.add_argument("--rho-gap", type=float, default=0.0, dest="rho_gap")
    p.add_argument("--mu-gap", type=float, default=0.0, dest="mu_gap")
    p.add_argument("--p-gap", type=float, default=0.0, dest="p_gap")
    p.add_argument("--j-gap", type=float, default=0.0, dest="j_gap")
    p.add_argument("--n-gap", type=float, default=0.0, dest="n_gap")
    p.add_argument("--empirical", action="store_true",
                   help="solve the pair and report the domination verdict")

    p = sub.add_parser("inequality", help="randomized inequality domination campaign")
    add_config(p, required=False)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", help="campaign report CSV path")

    p = sub.add_parser("compare", help="solve two configs and report their gap")
    add_config(p)
    p.add_argument("--config-b", required=True, dest="config_b")

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        if args.command == "solve":
            return _cmd_solve(load_config(args.config), args.out)
        if args.command == "certify":
            return _cmd_certify(load_config(args.config))
        if args.command == "apriori":
            return _cmd_apriori(load_config(args.config), args.with_solve)
        if args.command == "bound":
            return _cmd_bound(load_config(args.config), args)
        if args.command == "inequality":
            if args.config:
                cfg = load_config(args.config)
                seed, step = cfg.seed, cfg.step
            else:
                seed, step = 0, 1e-3
            if args.seed is not None:
                seed = args.seed
            return _cmd_inequality(args.samples, seed, args.out, step)
        if args.command == "compare":
            return _cmd_compare(load_config(args.config), load_config(args.config_b))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
