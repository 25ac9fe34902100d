from dataclasses import replace

import numpy as np
import pytest

from impulsedde import (
    Discretization,
    DivergenceError,
    PachpatteInstance,
    PicardControl,
    apriori_bound,
    build_catalog,
    build_oracle_grid,
    check_dependence,
    compute_Ck,
    dependence_function_bound,
    dependence_initial_bound,
    dependence_parameter_bound,
    existence_certificate,
    get_entry,
    maximal_solution,
    operator_norm_bound,
    pachpatte_bound,
    pachpatte_curve,
    random_instance,
    with_history,
)

E = float(np.e)
E2 = float(np.exp(2.0))


def plain_instance(**kw):
    base = dict(
        n=lambda t: 1.0, f=lambda t: 0.0, g=lambda t: 0.0,
        impulse_times=[], beta=[], theta=[], tau=[], horizon=2.0,
    )
    base.update(kw)
    return PachpatteInstance(**base)


class TestComputeCk:
    def test_no_growth_window_only(self):
        inst = plain_instance(impulse_times=[1.0], beta=[2.0], theta=[0.0], tau=[0.5])
        assert compute_Ck(inst, 1) == pytest.approx(2.0, abs=1e-12)

    def test_pure_exponential(self):
        inst = plain_instance(f=lambda t: 1.0, impulse_times=[1.0], beta=[0.0],
                              theta=[0.2], tau=[0.2])
        assert compute_Ck(inst, 1) == pytest.approx(E, rel=1e-9)

    def test_against_fine_grid_quadrature(self):
        # independent nested-trapezoid evaluation on a much finer grid
        f = lambda t: 0.4 + 0.3 * np.sin(2.1 * t + 0.3) ** 2  # noqa: E731
        g = lambda t: 0.2 + 0.5 * np.sin(1.3 * t + 1.1) ** 2  # noqa: E731
        inst = PachpatteInstance(n=lambda t: 1.0, f=f, g=g,
                                 impulse_times=[0.7, 1.4], beta=[1.2, 0.8],
                                 theta=[0.1, 0.05], tau=[0.5, 0.6], horizon=2.0)
        xs = np.linspace(0.0, 2.0, 80001)
        xs = np.unique(np.concatenate([xs, [0.7, 1.4], *(inst.window(k) for k in (1, 2))]))
        gv = g(xs)
        G = np.concatenate([[0], np.cumsum(0.5 * np.diff(xs) * (gv[1:] + gv[:-1]))])
        phi = f(xs) * (1.0 + G)
        Fc = np.concatenate([[0], np.cumsum(0.5 * np.diff(xs) * (phi[1:] + phi[:-1]))])

        def F(a, b):
            return np.interp(b, xs, Fc) - np.interp(a, xs, Fc)

        for k in (1, 2):
            t_prev = 0.0 if k == 1 else 0.7
            t_k = [0.7, 1.4][k - 1]
            lo, hi = inst.window(k)
            sel = (xs >= lo) & (xs <= hi)
            integrand = np.exp(Fc[sel] - np.interp(t_prev, xs, Fc))
            ref = np.exp(F(t_prev, t_k)) + [1.2, 0.8][k - 1] * np.trapezoid(integrand, xs[sel])
            assert compute_Ck(inst, k) == pytest.approx(ref, rel=1e-6)

    def test_Ck_at_least_one(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            for k in range(1, inst.num_impulses + 1):
                assert compute_Ck(inst, k) >= 1.0

    def test_bad_index(self):
        with pytest.raises(IndexError):
            compute_Ck(plain_instance(), 1)


class TestPachpatteBound:
    def test_all_factors_collapse(self):
        inst = plain_instance(n=lambda t: 5.0)
        for t in (0.0, 0.7, 2.0):
            assert pachpatte_bound(inst, t).value == pytest.approx(5.0, abs=1e-12)

    def test_classical_gronwall(self):
        inst = plain_instance(f=lambda t: 1.0)
        assert pachpatte_bound(inst, 1.0).value == pytest.approx(E, rel=1e-9)

    def test_single_window_product(self):
        inst = plain_instance(impulse_times=[1.0], beta=[2.0], theta=[0.0], tau=[0.5])
        report = pachpatte_bound(inst, 1.5)
        assert report.value == pytest.approx(2.0, abs=1e-12)
        assert report.alpha_index == 1
        assert report.Ck == (pytest.approx(2.0),)

    def test_gronwall_reduction_identity(self, rng):
        # beta = 0, g = 0: telescoping gives n(t) exp(int_0^t f) for every t
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
            Fc = np.concatenate([[0], np.cumsum(0.5 * np.diff(xs) * (fv[1:] + fv[:-1]))])
            ts = rng.uniform(0.0, 1.5, 20)
            curve = pachpatte_curve(inst, ts)
            for t, on_curve in zip(ts.tolist(), curve):
                i = int(np.searchsorted(xs, t, side="right")) - 1
                Ft = Fc[i] if (xs[i] == t or i == len(xs) - 1) else (
                    Fc[i] + 0.5 * (t - xs[i]) * (fv[i] + f(t))
                )
                ref = (c0 + c1 * t) * np.exp(Ft)
                assert pachpatte_bound(inst, t).value == pytest.approx(ref, rel=1e-10)
                assert on_curve == pytest.approx(ref, rel=1e-10)

    def test_monotone_in_data(self, rng):
        base = PachpatteInstance(
            n=lambda t: 1.0 + 0.2 * t,
            f=lambda t: 0.3 + 0.2 * np.sin(t) ** 2,
            g=lambda t: 0.4,
            impulse_times=[0.6, 1.2], beta=[0.5, 1.0],
            theta=[0.1, 0.1], tau=[0.4, 0.3], horizon=1.8,
        )
        bumps = {
            "n": replace(base, n=lambda t: 1.1 + 0.2 * t),
            "f": replace(base, f=lambda t: 0.35 + 0.2 * np.sin(t) ** 2),
            "g": replace(base, g=lambda t: 0.45),
            "beta": replace(base, beta=[0.6, 1.1]),
        }
        for t in rng.uniform(0.0, 1.8, 25):
            v0 = pachpatte_bound(base, float(t)).value
            for name, inst in bumps.items():
                assert pachpatte_bound(inst, float(t)).value >= v0 - 1e-12, name

    def test_domain_check(self):
        with pytest.raises(ValueError):
            pachpatte_bound(plain_instance(), 3.0)


class TestMaximalSolution:
    def test_no_integral_terms_gives_n(self):
        inst = plain_instance(n=lambda t: 1.5 + 0.5 * t)
        grid = build_oracle_grid(inst, 1e-2)
        u = maximal_solution(inst, grid)
        assert np.max(np.abs(u - (1.5 + 0.5 * grid))) <= 1e-12

    def test_exponential_solution(self):
        inst = plain_instance(f=lambda t: 1.0)
        grid = build_oracle_grid(inst, 1e-3)
        u = maximal_solution(inst, grid)
        assert np.max(np.abs(u - np.exp(grid))) <= 1e-4

    def test_dominated_by_bound(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            grid = build_oracle_grid(inst, 2e-3)
            u = maximal_solution(inst, grid)
            bound = np.array([pachpatte_bound(inst, float(t)).value for t in grid])
            assert np.max(u - bound) <= 1e-8 + 10.0 * (2e-3) ** 2

    def test_grid_must_contain_breakpoints(self):
        inst = plain_instance(impulse_times=[1.0], beta=[1.0], theta=[0.0], tau=[0.5])
        with pytest.raises(ValueError, match="breakpoint"):
            maximal_solution(inst, np.linspace(0.0, 2.0, 100))

    def test_divergence_detected(self):
        inst = plain_instance(f=lambda t: 1.0)
        grid = build_oracle_grid(inst, 1e-2)
        with pytest.raises(DivergenceError):
            maximal_solution(inst, grid, max_sweeps=2)


class TestExistenceCertificate:
    def test_zero_lipschitz_passes(self):
        entry = get_entry("paper_example")
        problem, lip = entry.instantiate(L_G=1e-6)
        sg = operator_norm_bound(problem.generator, problem.horizon)
        report = existence_certificate(problem, lip, sg)
        assert report.passed and report.lhs == pytest.approx(4e-6 * sg.M, rel=1e-12)

    def test_paper_example_values(self):
        entry = get_entry("paper_example")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        report = existence_certificate(problem, lip, sg)
        # 2 b M L_G D_1 = 4 M L_G with M ~ e^2
        assert report.lhs == pytest.approx(4.0 * E2 * 0.01, rel=1e-5)
        assert report.passed

    def test_large_lipschitz_fails(self):
        entry = get_entry("paper_example")
        problem, lip = entry.instantiate(L_G=1.0)
        sg = operator_norm_bound(problem.generator, problem.horizon)
        report = existence_certificate(problem, lip, sg)
        assert not report.passed
        assert report.lhs == pytest.approx(4.0 * E2, rel=1e-5)


class TestAprioriBound:
    def test_all_zero_data(self):
        problem = replace(
            get_entry("pure_semigroup").problem,
            generator=[[0.0]],
            history=lambda t: 0.0,
        )
        lip = get_entry("pure_semigroup").lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        assert apriori_bound(problem, lip, sg) == pytest.approx(0.0, abs=1e-15)

    def test_growth_factors_collapse(self):
        # N_V = 0 and L_G = 0: K = M ||history|| + H + Q with H, Q explicit
        problem = get_entry("pure_semigroup").problem
        lip = get_entry("pure_semigroup").lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        K = apriori_bound(problem, lip, sg)
        assert K == pytest.approx(sg.M * 1.0, rel=1e-12)  # H = Q = 0, ||history|| = 1

    def test_dominates_every_certified_catalog_solution(self, solve_cache):
        for entry in build_catalog():
            problem, lip = entry.problem, entry.lipschitz
            sg = operator_norm_bound(problem.generator, problem.horizon)
            if not existence_certificate(problem, lip, sg).passed:
                continue
            _, _, traj, _ = solve_cache(entry.name, step=2e-3)
            assert traj.sigma_norm() <= apriori_bound(problem, lip, sg), entry.name


@pytest.fixture(scope="module")
def paper():
    entry = get_entry("paper_example")
    problem, lip = entry.problem, entry.lipschitz
    sg = operator_norm_bound(problem.generator, problem.horizon)
    return problem, lip, sg


class TestDependenceBounds:

    def test_zero_gap_gives_zero(self, paper):
        problem, lip, sg = paper
        assert dependence_initial_bound(problem, lip, sg, 0.0) == 0.0
        assert dependence_function_bound(problem, lip, sg) == 0.0

    def test_linearity_in_gap(self, paper):
        problem, lip, sg = paper
        b1 = dependence_initial_bound(problem, lip, sg, 0.1)
        b2 = dependence_initial_bound(problem, lip, sg, 0.2)
        assert b2 / b1 == pytest.approx(2.0, abs=1e-12)

    def test_parameter_single_term(self):
        entry = get_entry("parameter_family")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        lip0 = replace(lip, Omega_2=0.0)
        got = dependence_parameter_bound(problem, lip0, sg, rho_gap=1.0, mu_gap=0.7)
        inst_like = dependence_parameter_bound(problem, lip0, sg, rho_gap=1.0, mu_gap=0.0)
        assert got == pytest.approx(inst_like, rel=1e-14)  # mu term vanished

    def test_function_bound_M_only(self):
        # J = 1, no impulses, N_V = 0: the bound collapses to M
        problem = get_entry("pure_semigroup").problem
        lip = replace(get_entry("pure_semigroup").lipschitz, J=1.0)
        sg = operator_norm_bound(problem.generator, problem.horizon)
        assert dependence_function_bound(problem, lip, sg) == pytest.approx(sg.M, rel=1e-12)

    def test_parameter_requires_tilde(self, paper):
        problem, lip, sg = paper
        with pytest.raises(ValueError, match="N_V_tilde"):
            dependence_parameter_bound(problem, lip, sg, 0.1, 0.1)

    def test_negative_gap_rejected(self, paper):
        problem, lip, sg = paper
        with pytest.raises(ValueError):
            dependence_initial_bound(problem, lip, sg, -0.1)


class TestCheckDependence:
    DISC = Discretization(step=5e-3)
    CTRL = PicardControl()

    def test_identical_problems(self):
        entry = get_entry("parameter_family")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        report = check_dependence("initial", problem, problem, lip, sg, self.DISC, self.CTRL)
        assert report.empirical == 0.0
        assert report.dominated

    def test_paper_example_initial_shift(self):
        entry = get_entry("paper_example")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        shifted = with_history(problem, lambda t: t + 0.1)
        report = check_dependence("initial", problem, shifted, lip, sg, self.DISC, self.CTRL)
        assert report.dominated
        assert report.empirical > 0.0

    def test_parameter_pair(self):
        entry = get_entry("parameter_family")
        problem_a, lip = entry.problem, entry.lipschitz
        problem_b, _ = entry.instantiate(rho=1.1, mu=0.9)
        sg = operator_norm_bound(problem_a.generator, problem_a.horizon)
        report = check_dependence("parameter", problem_a, problem_b, lip, sg,
                                  self.DISC, self.CTRL, rho_gap=0.1, mu_gap=0.1)
        assert report.dominated

    def test_unknown_kind(self):
        entry = get_entry("parameter_family")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        with pytest.raises(ValueError, match="kind"):
            check_dependence("spectral", problem, problem, lip, sg, self.DISC, self.CTRL)


class TestInstanceValidation:
    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            plain_instance(f=lambda t: -1.0)

    def test_decreasing_n_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            plain_instance(n=lambda t: 2.0 - t)

    def test_window_constraint(self):
        with pytest.raises(ValueError, match="window"):
            plain_instance(impulse_times=[1.0], beta=[1.0], theta=[0.0], tau=[1.5])

    def test_random_instances_valid(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            assert inst.horizon > 0
            for k in range(1, inst.num_impulses + 1):
                lo, hi = inst.window(k)
                assert lo <= hi
