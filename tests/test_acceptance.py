"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (run with -s to see them on
success). Tolerances are pinned here, not configurable.
"""

import time
from dataclasses import replace

import numpy as np

from impulsedde import (
    Discretization,
    PicardControl,
    PiecewiseTrajectory,
    build_catalog,
    build_oracle_grid,
    check_dependence,
    dependence_initial_bound,
    evolve,
    existence_certificate,
    get_entry,
    maximal_solution,
    mild_residual,
    operator_norm_bound,
    pachpatte_bound,
    random_instance,
    sigma_diff,
    solve_mild,
    with_history,
)
from impulsedde.bounds import PachpatteInstance
from impulsedde.cli import run

E2 = float(np.exp(2.0))


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def steps_exact(t):
    if t <= 1.0:
        return 1.0 + t
    if t <= 2.0:
        return 1.0 + t + 0.5 * (t - 1.0) ** 2
    return 3.5 + (t - 2.0) + 0.5 * ((t - 1.0) ** 2 - 1.0) + (t - 2.0) ** 3 / 6.0


def certified_entries():
    out = []
    for entry in build_catalog():
        sg = operator_norm_bound(entry.problem.generator, entry.problem.horizon)
        if existence_certificate(entry.problem, entry.lipschitz, sg).passed:
            out.append((entry, sg))
    return out


def test_criterion_1_paper_example_certificate(tmp_path, capsys):
    t0 = time.perf_counter()
    sg = operator_norm_bound([[1.0]], 2.0)
    m_ok = E2 <= sg.M <= E2 * (1.0 + 2e-6)

    cfg = tmp_path / "c.yaml"
    cfg.write_text("problem:\n  name: paper_example\n  parameters: {L_G: 0.01}\n")
    code_pass = run(["certify", "--config", str(cfg)])
    out_pass = capsys.readouterr().out
    lhs = float(out_pass.split("lhs = ")[1].split()[0])

    cfg.write_text("problem:\n  name: paper_example\n  parameters: {L_G: 0.05}\n")
    code_fail = run(["certify", "--config", str(cfg)])
    out_fail = capsys.readouterr().out
    elapsed = time.perf_counter() - t0

    ok = (
        m_ok
        and 0.2955 <= lhs <= 0.2957
        and code_pass == 0 and "PASS" in out_pass
        and code_fail == 3 and "FAIL" in out_fail
        and elapsed < 1.0
    )
    report(1, ok, f"M={sg.M:.7f}, lhs={lhs:.6f}, exits=({code_pass},{code_fail}), "
                  f"{elapsed:.2f}s")


def test_criterion_2_paper_example_jump():
    t0 = time.perf_counter()
    problem = get_entry("paper_example").problem
    traj, rep = solve_mild(problem, Discretization(step=1e-3), PicardControl())
    elapsed = time.perf_counter() - t0
    jump = float(np.max(np.abs(rep.jumps[0])))
    cont = float(np.max(np.abs(traj.eval_right(1.0) - traj.eval(1.0))))
    ok = jump <= 1e-12 and cont <= 1e-12 and elapsed < 10.0
    report(2, ok, f"|jump|={jump:.2e}, continuity gap={cont:.2e}, {elapsed:.1f}s")


def test_criterion_3_method_of_steps_oracle():
    t0 = time.perf_counter()
    problem = get_entry("method_of_steps").problem
    traj, _ = solve_mild(problem, Discretization(step=1e-3), PicardControl())
    ts = traj.blocks[1][0]
    err = max(abs(traj.eval(float(t))[0] - steps_exact(float(t))) for t in ts[::5])

    # the b = 2 integrand is piecewise linear, hence reproduced exactly by the
    # trapezoid rule; the halving ratio is measured where curvature exists
    # (same equation continued to b = 3, closed form derived by one more step)
    problem3 = replace(problem, horizon=3.0)
    errs = {}
    for h in (2e-3, 1e-3):
        t3, _ = solve_mild(problem3, Discretization(step=h), PicardControl())
        nodes = t3.blocks[1][0]
        sel = nodes >= 2.0
        errs[h] = max(abs(t3.eval(float(t))[0] - steps_exact(float(t)))
                      for t in nodes[sel][::5])
    ratio = errs[2e-3] / errs[1e-3]
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-5 and ratio >= 3.0 and elapsed < 10.0
    report(3, ok, f"max err={err:.2e} (<=1e-5), halving ratio={ratio:.2f} (>=3), "
                  f"{elapsed:.1f}s")


def test_criterion_4_semigroup_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_spec = 0.0
    for _ in range(100):
        lam = rng.uniform(-2.0, 2.0, 4)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = Q @ np.diag(lam) @ Q.T
        t = float(rng.uniform(0.0, 2.0))
        x = rng.normal(size=4)
        ref = Q @ np.diag(np.exp(lam * t)) @ Q.T @ x
        rel = np.max(np.abs(evolve(A, t, x) - ref)) / (1.0 + np.max(np.abs(ref)))
        worst_spec = max(worst_spec, rel)
    worst_law = 0.0
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        A *= 2.0 / max(1.0, np.abs(A).sum(axis=1).max())
        s, t = rng.uniform(0.0, 1.0, 2)
        x = rng.normal(size=3)
        gap = np.max(np.abs(evolve(A, s, evolve(A, t, x)) - evolve(A, s + t, x)))
        worst_law = max(worst_law, gap / (1.0 + np.max(np.abs(x))))
    elapsed = time.perf_counter() - t0
    ok = worst_spec <= 1e-9 and worst_law <= 1e-10 and elapsed < 5.0
    report(4, ok, f"spectral={worst_spec:.2e} (<=1e-9), law={worst_law:.2e} (<=1e-10), "
                  f"{elapsed:.1f}s")


def test_criterion_5_pachpatte_domination():
    t0 = time.perf_counter()
    h = 1e-3
    tol = 1e-8 + 10.0 * h ** 2
    rng = np.random.Generator(np.random.Philox(20240807))
    worst = -np.inf
    for _ in range(100):
        inst = random_instance(rng)
        grid = build_oracle_grid(inst, h)
        u = maximal_solution(inst, grid)
        bound = np.array([pachpatte_bound(inst, float(t)).value for t in grid])
        worst = max(worst, float(np.max(u - bound)))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 60.0
    report(5, ok, f"worst oracle-bound gap={worst:.2e} (<= {tol:.1e}), {elapsed:.1f}s")


def test_criterion_6_gronwall_reduction():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(20):
        c0, c1 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        a0, amp = rng.uniform(0.0, 0.3), rng.uniform(0.1, 0.7)
        freq, ph = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2 * np.pi)
        f = lambda t, a=a0, b=amp, w=freq, p=ph: a + b * np.sin(w * t + p) ** 2  # noqa: E731
        m = int(rng.integers(0, 4))
        tk = np.sort(rng.uniform(0.2, 1.3, m))
        inst = PachpatteInstance(
            n=lambda t, c0=c0, c1=c1: c0 + c1 * t, f=f, g=lambda t: 0.0,
            impulse_times=tk, beta=np.zeros(m), theta=np.zeros(m), tau=np.zeros(m),
            horizon=1.5,
        )
        xs = inst.grid
        fv = np.array([f(float(x)) for x in xs])
        Fc = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (fv[1:] + fv[:-1]))])
        for _ in range(20):
            t = float(rng.uniform(0.0, 1.5))
            i = int(np.searchsorted(xs, t, side="right")) - 1
            Ft = Fc[i] if (xs[i] == t or i == len(xs) - 1) else (
                Fc[i] + 0.5 * (t - xs[i]) * (fv[i] + f(t))
            )
            ref = (c0 + c1 * t) * np.exp(Ft)
            got = pachpatte_bound(inst, t).value
            worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 1e-10
    report(6, ok, f"worst relative gap vs n(t)e^int f = {worst:.2e} (<=1e-10)")


def test_criterion_7_uniqueness():
    t0 = time.perf_counter()
    eps = 1e-10
    disc = Discretization(step=2e-3)
    worst, names = 0.0, []
    for entry, _ in certified_entries():
        names.append(entry.name)
        ta, _ = solve_mild(entry.problem, disc, PicardControl(tolerance=eps,
                                                              initial_iterate="constant"))
        tb, _ = solve_mild(entry.problem, disc, PicardControl(tolerance=eps,
                                                              initial_iterate="ramp"))
        worst = max(worst, sigma_diff(ta, tb))
    elapsed = time.perf_counter() - t0
    ok = worst <= 10.0 * eps and len(names) >= 3 and elapsed < 30.0
    report(7, ok, f"worst sigma_diff={worst:.2e} (<=1e-9) over {names}, {elapsed:.1f}s")


def test_criterion_8_dependence_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    disc = Discretization(step=5e-3)
    ctrl = PicardControl()
    failures = []

    param_entry = get_entry("parameter_family")
    window_entry = get_entry("windowed_impulse")
    sgs = {
        e.name: operator_norm_bound(e.problem.generator, e.problem.horizon)
        for e in (param_entry, window_entry)
    }

    for i in range(50):  # initial conditions
        entry = (param_entry, window_entry)[i % 2]
        delta = float(rng.uniform(-0.3, 0.3))
        problem_a = entry.problem
        base_hist = problem_a.history
        n = problem_a.dimension
        problem_b = with_history(
            problem_a,
            lambda t, f=base_hist, d=delta, n=n: np.atleast_1d(np.asarray(f(t), dtype=float)).reshape(n) + d,
        )
        rep = check_dependence("initial", problem_a, problem_b, entry.lipschitz,
                               sgs[entry.name], disc, ctrl)
        if not rep.dominated:
            failures.append(("initial", i, rep.empirical, rep.theoretical))

    for i in range(50):  # parameters
        drho = float(rng.uniform(-0.25, 0.25))
        dmu = float(rng.uniform(-0.25, 0.25))
        problem_a, lip = param_entry.problem, param_entry.lipschitz
        problem_b, _ = param_entry.instantiate(rho=1.0 + drho, mu=1.0 + dmu)
        rep = check_dependence("parameter", problem_a, problem_b, lip,
                               sgs["parameter_family"], disc, ctrl,
                               rho_gap=abs(drho), mu_gap=abs(dmu))
        if not rep.dominated:
            failures.append(("parameter", i, rep.empirical, rep.theoretical))

    for i in range(50):  # functions
        entry = (param_entry, window_entry)[i % 2]
        problem_a = entry.problem
        n = problem_a.dimension
        dP, dJ, dN = (float(rng.uniform(-0.1, 0.1)) for _ in range(3))
        V, hist = problem_a.V, problem_a.history

        def v_hat(t, w_t, z, V=V, d=dP, n=n):
            return np.atleast_1d(np.asarray(V(t, w_t, z), dtype=float)).reshape(n) + d

        def hist_hat(t, f=hist, d=dJ, n=n):
            return np.atleast_1d(np.asarray(f(t), dtype=float)).reshape(n) + d

        jumps_hat = tuple(
            (lambda I, d=dN, n=n: (lambda x: np.atleast_1d(np.asarray(I(x), dtype=float)).reshape(n) + d))(I)
            for I in problem_a.jump_maps
        )
        problem_b = replace(problem_a, V=v_hat, history=hist_hat, jump_maps=jumps_hat)
        lip = replace(entry.lipschitz, P=abs(dP), J=abs(dJ),
                      N_k=(abs(dN),) * problem_a.num_impulses)
        rep = check_dependence("function", problem_a, problem_b, lip,
                               sgs[entry.name], disc, ctrl)
        if not rep.dominated:
            failures.append(("function", i, rep.empirical, rep.theoretical))

    # exact linearity of the initial-condition bound in the history gap
    problem, lip = param_entry.problem, param_entry.lipschitz
    b1 = dependence_initial_bound(problem, lip, sgs["parameter_family"], 0.07)
    b2 = dependence_initial_bound(problem, lip, sgs["parameter_family"], 0.14)
    linear = abs(b2 / b1 - 2.0) <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = not failures and linear and elapsed < 300.0
    report(8, ok, f"150 pairs, {len(failures)} violations, linearity ratio gap="
                  f"{abs(b2 / b1 - 2.0):.1e}, {elapsed:.0f}s")


def test_criterion_9_apriori_bound():
    t0 = time.perf_counter()
    from impulsedde import apriori_bound

    disc = Discretization(step=2e-3)
    margins = {}
    for entry, sg in certified_entries():
        traj, _ = solve_mild(entry.problem, disc, PicardControl())
        K = apriori_bound(entry.problem, entry.lipschitz, sg, disc)
        margins[entry.name] = (traj.sigma_norm(), K)
    elapsed = time.perf_counter() - t0
    ok = all(norm <= K for norm, K in margins.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}: {n:.3g}<=K={K:.3g}" for k, (n, K) in margins.items())
    report(9, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_10_residual_consistency():
    eps = 1e-10
    problem = get_entry("paper_example").problem
    res = {}
    for h in (4e-3, 2e-3):
        _, rep = solve_mild(problem, Discretization(step=h),
                            PicardControl(tolerance=eps))
        res[h] = rep.final_residual
    C = res[4e-3] / (4e-3) ** 2  # h-halving estimate of the defect constant
    bound_ok = res[2e-3] <= 1.5 * C * (2e-3) ** 2 + 10.0 * eps

    steps = get_entry("method_of_steps").problem
    traj, _ = solve_mild(steps, Discretization(step=2e-3), PicardControl())
    bt, bv = traj.blocks[1]
    corrupted = bv.copy()
    corrupted[bt >= 1.0] += 0.1
    bad = PiecewiseTrajectory(1, 1.0, 2.0, [], (traj.blocks[0], (bt, corrupted)))
    bad_res = mild_residual(steps, bad)
    ok = bound_ok and bad_res >= 0.05
    report(10, ok, f"res(4e-3)={res[4e-3]:.2e}, res(2e-3)={res[2e-3]:.2e} "
                   f"(C h^2 bound holds: {bound_ok}), corrupted residual={bad_res:.3f} (>=0.05)")
