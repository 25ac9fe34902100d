from dataclasses import replace

import math

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
from impulsedde import bounds
from impulsedde.bounds import _growth_tail, _reduction_instance
from impulsedde.model import as_state, node_rows
from impulsedde.quadrature import cumtrap, segment_grid, volterra_tri, window_nodes
from impulsedde.trajectory import _StateView

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

    def test_overflow_detected(self):
        # f = 1e200 takes u past the largest float in the second sweep
        inst = plain_instance(f=lambda t: 1e200)
        grid = build_oracle_grid(inst, 1e-2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="maximal-solution sweep overflowed"):
            maximal_solution(inst, grid)

    @pytest.mark.parametrize("settings", [dict(sweep_tol=float("nan")), dict(sweep_tol=-1e-12),
                                          dict(sweep_tol=0.0), dict(sweep_tol=float("inf")),
                                          dict(max_sweeps=0), dict(max_sweeps=-1)])
    def test_bad_sweep_settings_rejected_up_front(self, settings):
        inst = plain_instance(f=lambda t: 1.0)
        grid = build_oracle_grid(inst, 1e-2)
        with pytest.raises(ValueError, match="sweep_tol must be finite and > 0, and max_sweeps"):
            maximal_solution(inst, grid, **settings)

    @pytest.mark.parametrize("step", [-1.0, 0.0, float("inf"), float("nan")])
    def test_oracle_grid_rejects_bad_step(self, step):
        inst = plain_instance(impulse_times=[1.0], beta=[1.0], theta=[0.0], tau=[0.5])
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            build_oracle_grid(inst, step)

    @pytest.mark.parametrize("step", [-1.0, 0.0, float("inf"), float("nan")])
    def test_discretization_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            Discretization(step=step)


def reference_sweep(inst, grid, sweep_tol=1e-12):
    """The maximal-solution sweep as first written: three `cumtrap` calls, one
    `np.trapezoid` per window and a boolean mask past t_k, with every invariant
    recomputed in every sweep."""
    windows = []
    for k in range(1, inst.num_impulses + 1):
        lo, hi = inst.window(k)
        tk = float(inst.impulse_times[k - 1])
        if hi > lo:
            a = int(np.searchsorted(grid, lo, side="left"))
            b = int(np.searchsorted(grid, hi, side="left"))
            windows.append((k, slice(a, b + 1), grid > tk))
    fv, gv, nv = (np.array([float(fn(float(x))) for x in grid]) for fn in (inst.f, inst.g, inst.n))
    u = nv.copy()
    while True:
        unew = nv + cumtrap(grid, fv * u) + cumtrap(grid, fv * cumtrap(grid, gv * u))
        for k, sl, active in windows:
            unew[active] += float(inst.beta[k - 1]) * float(np.trapezoid(u[sl], grid[sl]))
        gap = float(np.max(np.abs(unew - u)))
        u = unew
        if gap <= sweep_tol * (1.0 + float(np.max(u))):
            return u


def reference_Ck(inst, k):
    """`compute_Ck` with its exponentials taken one list element at a time."""
    t_prev = 0.0 if k == 1 else float(inst.impulse_times[k - 2])
    F_prev, F_k = inst._F_at(np.array([t_prev, float(inst.impulse_times[k - 1])]))
    term1 = math.exp(F_k - F_prev)
    lo, hi = inst.window(k)
    if hi <= lo:
        return term1
    times = window_nodes(inst.grid, lo, hi)
    vals = np.array([math.exp(x) for x in (inst._F_at(times) - F_prev).tolist()])
    return term1 + float(inst.beta[k - 1]) * float(np.trapezoid(vals, times))


def reference_curve(inst, ts):
    """`pachpatte_curve` with its exponentials taken one list element at a time."""
    alpha = inst.impulse_times.searchsorted(ts, side="left")
    F_alpha, prods = inst._alpha_tables
    expo = (inst._F_at(ts) - F_alpha[alpha]).tolist()
    return np.array([float(inst.n(float(t))) for t in ts]) * prods[alpha] * np.array(
        [math.exp(x) for x in expo])


def smooth_instance(**kw):
    base = dict(
        n=lambda t: 1.0 + 0.5 * t,
        f=lambda t: 0.4 + 0.3 * math.sin(2.1 * t + 0.3) ** 2,
        g=lambda t: 0.2 + 0.5 * math.sin(1.3 * t + 1.1) ** 2,
        horizon=1.5, grid_points=257,
    )
    base.update(kw)
    return PachpatteInstance(**base)


EDGE_WINDOWS = [
    # a zero-width window (theta = tau) beside an ordinary one
    dict(impulse_times=[0.5, 1.1], beta=[1.3, 0.7], theta=[0.2, 0.1], tau=[0.2, 0.4]),
    # the first window starts at 0
    dict(impulse_times=[0.6], beta=[1.5], theta=[0.25], tau=[0.6]),
    # the last impulse sits on the horizon, so no node lies past it
    dict(impulse_times=[0.7, 1.5], beta=[0.9, 1.8], theta=[0.1, 0.3], tau=[0.5, 0.8]),
]
EDGE_IDS = ["zero-width", "from-zero", "at-horizon"]


class TestKeepsTheBits:
    """The sweep, the curve and C_k match the straightforward forms byte for byte."""

    @staticmethod
    def assert_same_bits(a, b):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    def test_sweep_on_random_instances(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(40):
            inst = random_instance(rng, grid_points=513)
            grid = build_oracle_grid(inst, 2e-3)
            self.assert_same_bits(maximal_solution(inst, grid), reference_sweep(inst, grid))

    @pytest.mark.parametrize("impulses", EDGE_WINDOWS, ids=EDGE_IDS)
    def test_sweep_edge_windows(self, impulses):
        inst = smooth_instance(**impulses)
        grid = build_oracle_grid(inst, 5e-3)
        self.assert_same_bits(maximal_solution(inst, grid), reference_sweep(inst, grid))

    @pytest.mark.parametrize("impulses", [
        *EDGE_WINDOWS,
        # the window ends at t_k (theta_k = 0)
        dict(impulse_times=[0.5, 1.2], beta=[1.1, 0.6], theta=[0.0, 0.0], tau=[0.3, 0.4]),
        # the window starts at t_(k-1) (tau_k = t_k - t_(k-1))
        dict(impulse_times=[0.5, 1.25], beta=[0.8, 1.4], theta=[0.1, 0.2], tau=[0.5, 0.75]),
        # 16 uniform nodes: every window end is a node the grid inserts
        dict(impulse_times=[0.37, 0.91], beta=[1.2, 0.9], theta=[0.03, 0.12], tau=[0.29, 0.47],
             grid_points=16),
    ], ids=[*EDGE_IDS, "ends-at-tk", "starts-at-prev", "inserted-ends"])
    def test_Ck_edge_windows(self, impulses):
        inst = smooth_instance(**impulses)
        for k in range(1, inst.num_impulses + 1):
            t_prev = 0.0 if k == 1 else float(inst.impulse_times[k - 2])
            # compute_Ck reads F at these four points as table entries
            assert np.isin([t_prev, float(inst.impulse_times[k - 1]), *inst.window(k)],
                           inst.grid).all()
            self.assert_same_bits(compute_Ck(inst, k), reference_Ck(inst, k))

    def test_curve_and_Ck(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(12):
            inst = random_instance(rng, grid_points=513)
            for k in range(1, inst.num_impulses + 1):
                self.assert_same_bits(compute_Ck(inst, k), reference_Ck(inst, k))
            # grid nodes and off-node times, in no order
            ts = np.concatenate([build_oracle_grid(inst, 1e-2),
                                 rng.uniform(0.0, inst.horizon, size=50)])
            self.assert_same_bits(pachpatte_curve(inst, ts), reference_curve(inst, ts))


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

    @staticmethod
    def reference_bound(problem, lip, sg, disc):
        """apriori_bound with its own Q loop: each jump window's trapezoid of G on
        the zero state, over window_nodes of the instance grid."""
        n, M = problem.dimension, sg.M
        inst = _reduction_instance(problem, lip, sg)
        xs = inst.grid
        hist = problem.history_values(segment_grid(-problem.delay, 0.0, disc.step))
        zero = _StateView(problem.delay, np.array([-problem.delay, problem.horizon]),
                          np.zeros((2, n)))
        windows = zero.windows(xs)
        z0 = volterra_tri(problem, xs, windows)
        H = M * float(np.trapezoid(np.max(np.abs(node_rows(problem.V, n, xs, windows, z0)),
                                          axis=1), xs))
        Q = 0.0
        for k in range(1, problem.num_impulses + 1):
            lo, hi = problem.jump_window(k)
            wI = np.zeros(n)
            if hi > lo:
                times = window_nodes(xs, lo, hi)
                wI = np.trapezoid(node_rows(problem.G, n, times, zero.windows(times)), times,
                                  axis=0)
            Q += M * float(np.max(np.abs(as_state(problem.jump_maps[k - 1](wI), n))))
        return (M * float(np.max(np.abs(hist))) + H + Q) * _growth_tail(inst)

    def test_equals_the_reference_q_loop(self):
        # the catalog's G is 0 on the zero state, so the s-dependent G is the case
        # where the window's node set shows
        window = get_entry("windowed_impulse")
        s_dependent = replace(window.problem, G=lambda s, w_s: np.array([np.cos(3 * s), 0.1]))
        cases = [(e.problem, e.lipschitz) for e in build_catalog()]
        cases.append((s_dependent, window.lipschitz))
        for problem, lip in cases:
            sg = operator_norm_bound(problem.generator, problem.horizon)
            for step in (5e-3, 1e-3):
                disc = Discretization(step=step)
                got = apriori_bound(problem, lip, sg, disc)
                assert got.hex() == self.reference_bound(problem, lip, sg, disc).hex()

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

    @pytest.mark.parametrize("name", [entry.name for entry in build_catalog()])
    def test_bounds_are_prefactors_times_the_curve_at_the_horizon(self, name):
        # the growth factor is the closed-form curve with n = 1 at t = b, bit for bit
        entry = get_entry(name)
        problem, b = entry.problem, entry.problem.horizon
        lip = replace(entry.lipschitz, P=0.1, J=0.2, N_k=(0.05,) * problem.num_impulses)
        sg = operator_norm_bound(problem.generator, b)
        M = sg.M

        def curve(tilde=False):
            inst = _reduction_instance(problem, lip, sg, tilde=tilde)
            return float(pachpatte_curve(inst, np.array([b]))[0])

        got = dependence_initial_bound(problem, lip, sg, 0.1)
        assert got.hex() == (M * 0.1 * curve()).hex()
        got = dependence_function_bound(problem, lip, sg)
        prefactor = M * lip.J + b * M * lip.P + sum(M * v for v in lip.N_k)
        assert got.hex() == (prefactor * curve()).hex()
        if lip.N_V_tilde is not None:
            got = dependence_parameter_bound(problem, lip, sg, 0.1, 0.2)
            prefactor = b * M * lip.Omega_1 * 0.1
            prefactor += sum(2.0 * b * M * lip.Omega_2 * d * 0.2 for d in lip.D_k)
            assert got.hex() == (prefactor * curve(tilde=True)).hex()

    def test_parameter_requires_tilde(self, paper):
        problem, lip, sg = paper
        with pytest.raises(ValueError, match="N_V_tilde"):
            dependence_parameter_bound(problem, lip, sg, 0.1, 0.1)

    def test_negative_gap_rejected(self, paper):
        problem, lip, sg = paper
        with pytest.raises(ValueError):
            dependence_initial_bound(problem, lip, sg, -0.1)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_non_finite_gap_rejected(self, paper, gap):
        problem, lip, sg = paper
        with pytest.raises(ValueError, match="varsigma_gap"):
            dependence_initial_bound(problem, lip, sg, gap)
        entry = get_entry("parameter_family")
        family, lip_f = entry.problem, entry.lipschitz
        sg_f = operator_norm_bound(family.generator, family.horizon)
        with pytest.raises(ValueError, match="parameter gaps"):
            dependence_parameter_bound(family, lip_f, sg_f, rho_gap=gap, mu_gap=0.1)
        with pytest.raises(ValueError, match="parameter gaps"):
            dependence_parameter_bound(family, lip_f, sg_f, rho_gap=0.1, mu_gap=gap)


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

    def test_bad_kind_or_gap_raises_before_solving(self, monkeypatch):
        entry = get_entry("parameter_family")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        solves = []
        solve_mild = bounds.solve_mild
        monkeypatch.setattr(bounds, "solve_mild", lambda *a: solves.append(a) or solve_mild(*a))
        with pytest.raises(ValueError, match="kind"):
            check_dependence("spectral", problem, problem, lip, sg, self.DISC, self.CTRL)
        with pytest.raises(ValueError, match="parameter gaps"):
            check_dependence("parameter", problem, problem, lip, sg, self.DISC, self.CTRL,
                             rho_gap=float("nan"))
        assert solves == []

    @pytest.mark.parametrize("change, message", [
        ("dimension", "different dimensions"),
        ("horizon", "different impulse structure"),
        ("impulse_times", "different impulse structure"),
    ])
    def test_incomparable_pair_raises_before_solving(self, change, message, monkeypatch):
        entry = get_entry("parameter_family")
        problem, lip = entry.problem, entry.lipschitz
        sg = operator_norm_bound(problem.generator, problem.horizon)
        other = {
            "dimension": get_entry("windowed_impulse").problem,
            "horizon": replace(problem, horizon=0.9),
            "impulse_times": replace(problem, impulse_times=[0.6]),
        }[change]
        solves = []
        solve_mild = bounds.solve_mild
        monkeypatch.setattr(bounds, "solve_mild", lambda *a: solves.append(a) or solve_mild(*a))
        with pytest.raises(ValueError, match=message):
            check_dependence("initial", problem, other, lip, sg, self.DISC, self.CTRL)
        assert solves == []


class TestInstanceValidation:
    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            plain_instance(f=lambda t: -1.0)

    def test_decreasing_n_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            plain_instance(n=lambda t: 2.0 - t)

    @pytest.mark.parametrize("name", ["n", "f", "g"])
    @pytest.mark.parametrize("fn", [
        lambda t: float("nan"), lambda t: float("inf"),
        lambda t: float("nan") if t == 2.0 else 1.0,  # one bad node: the last
    ], ids=["nan", "inf", "one-nan"])
    def test_non_finite_samples_rejected(self, name, fn):
        with pytest.raises(ValueError, match=rf"^{name}\(t\) must be finite"):
            plain_instance(**{name: fn})

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

    @pytest.mark.parametrize("data, message", [
        (dict(beta=[math.nan]), "beta_k must be finite"),
        (dict(beta=[math.inf]), "beta_k must be finite"),
        (dict(horizon=math.inf), "horizon must be finite"),
        (dict(horizon=math.nan), "horizon must be finite"),
        (dict(impulse_times=[math.nan]), "impulse times"),
        (dict(impulse_times=[0.5, math.nan], beta=[1.0, 1.0], theta=[0.0, 0.0], tau=[0.1, 0.1]),
         "impulse times"),
    ], ids=["beta-nan", "beta-inf", "horizon-inf", "horizon-nan", "time-nan", "second-time-nan"])
    def test_non_finite_parameters_rejected(self, data, message):
        base = dict(impulse_times=[1.0], beta=[1.0], theta=[0.0], tau=[0.5])
        with pytest.raises(ValueError, match=message):
            plain_instance(**{**base, **data})

    @pytest.mark.parametrize("where", [1, -1], ids=["interior", "last"])
    def test_oracle_grid_with_a_nan_node_rejected(self, where):
        inst = plain_instance(f=lambda t: 1.0)
        grid = build_oracle_grid(inst, 1e-2)
        grid[where] = math.nan
        with pytest.raises(ValueError, match="strictly increasing"):
            maximal_solution(inst, grid)

