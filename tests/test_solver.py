from dataclasses import replace

import numpy as np
import pytest

from impulsedde import (
    ConvergenceError,
    Discretization,
    ImpulsiveProblem,
    PicardControl,
    PiecewiseTrajectory,
    get_entry,
    jump_value,
    mild_residual,
    sigma_diff,
    solve_mild,
    solve_segment,
    volterra_term,
    window_integral,
)
from impulsedde.cli import read_trajectory_csv, write_trajectory_csv
from impulsedde.model import as_state
from impulsedde.quadrature import window_sum
from impulsedde.solver import _Duhamel, _mild_map
from impulsedde.trajectory import _StateView

DISC = Discretization(step=2e-3)
CTRL = PicardControl()


def constant_problem(U=None, G=None, impulses=False):
    """Scalar shell: A = 0, V = 0, configurable U/G, optional impulse at 0.9."""
    return ImpulsiveProblem(
        dimension=1,
        generator=[[0.0]],
        V=lambda t, w_t, z: 0.0,
        U=U or (lambda t, s, w_s: 0.0),
        G=G or (lambda s, w_s: 0.0),
        jump_maps=(lambda x: x,) if impulses else (),
        impulse_times=[0.9] if impulses else [],
        theta_offsets=[0.2] if impulses else [],
        tau_offsets=[0.7] if impulses else [],
        delay=1.0,
        history=lambda t: 1.0,
        horizon=2.0,
    )


def flat_trajectory(value=1.0, horizon=2.0, impulse_times=(), n_nodes=201):
    hist = (np.array([-1.0, 0.0]), np.full((2, 1), float(value)))
    ts = np.linspace(0.0, horizon, n_nodes)
    blocks = [hist]
    cuts = [0.0, *impulse_times, horizon]
    for a, b in zip(cuts[:-1], cuts[1:]):
        sub = ts[(ts >= a) & (ts <= b)]
        sub = np.unique(np.concatenate([[a], sub, [b]]))
        blocks.append((sub, np.full((len(sub), 1), float(value))))
    return PiecewiseTrajectory(1, 1.0, horizon, list(impulse_times), tuple(blocks))


def two_impulse_window():
    """windowed_impulse with impulses at 0.4 and 0.7, each fed by its own window."""
    problem = get_entry("windowed_impulse").problem
    return replace(problem, jump_maps=problem.jump_maps * 2, impulse_times=[0.4, 0.7],
                   theta_offsets=[0.1, 0.05], tau_offsets=[0.3, 0.25])


def per_block_residual(problem, traj):
    """mild_residual refined block by block: each main block's nodes and midpoints,
    concatenated, with the defect read at the stored nodes."""
    n = problem.dimension
    rts, rvs, natives = [], [], []
    for bt, bv in traj.blocks[1:]:
        rt = np.empty(2 * len(bt) - 1)
        rt[0::2], rt[1::2] = bt, 0.5 * (bt[:-1] + bt[1:])
        rv = np.empty((len(rt), n))
        rv[0::2], rv[1::2] = bv, 0.5 * (bv[:-1] + bv[1:])
        native = np.zeros(len(rt), dtype=bool)
        native[0::2] = True
        rts.append(rt)
        rvs.append(rv)
        natives.append(native)
    sigma, w_ref = np.concatenate(rts), np.concatenate(rvs, axis=0)
    ht, hv = traj.blocks[0]
    view = _StateView(problem.delay, np.concatenate([ht, sigma]),
                      np.concatenate([hv, w_ref], axis=0))
    x0 = np.zeros((len(sigma), n))
    x0[0] = hv[-1]
    for k in range(1, problem.num_impulses + 1):
        tk = float(problem.impulse_times[k - 1])
        wI = as_state(problem.jump_maps[k - 1](window_sum(problem, view, k)), n)
        x0[np.searchsorted(sigma, tk, side="right") - 1] += wI
    rhs = _mild_map(problem, view.windows(sigma, w_ref), _Duhamel(problem.generator, sigma), x0)
    return float(np.max(np.max(np.abs(w_ref - rhs), axis=1)[np.concatenate(natives)]))


def steps_problem(horizon=2.0):
    return replace(get_entry("method_of_steps").problem, horizon=horizon)


def steps_exact(t):
    """Closed form of w' = w(t-1), unit history, derived step by step."""
    if t <= 1.0:
        return 1.0 + t
    if t <= 2.0:
        return 1.0 + t + 0.5 * (t - 1.0) ** 2
    return 3.5 + (t - 2.0) + 0.5 * ((t - 1.0) ** 2 - 1.0) + (t - 2.0) ** 3 / 6.0


class TestVolterraTerm:
    def test_zero_kernel(self):
        problem = constant_problem()
        traj = flat_trajectory()
        assert volterra_term(problem, traj, 1.5)[0] == 0.0

    def test_constant_kernel_gives_length(self):
        problem = constant_problem(U=lambda t, s, w_s: 1.0)
        traj = flat_trajectory()
        assert volterra_term(problem, traj, 2.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_delayed_read_on_steps_solution(self):
        # U = w_s(-1): the integrand over [0, 1] is the unit history
        problem = constant_problem(U=lambda t, s, w_s: w_s(-1.0))
        hist = (np.array([-1.0, 0.0]), np.ones((2, 1)))
        ts = np.linspace(0.0, 1.0, 101)
        traj = PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, (ts, (1.0 + ts)[:, None])))
        assert volterra_term(problem, traj, 1.0)[0] == pytest.approx(1.0, abs=1e-10)

    def test_current_read_on_steps_solution(self):
        # U = w_s(0) = 1 + s on [0, 1]: integral r + r^2/2
        problem = constant_problem(U=lambda t, s, w_s: w_s(0.0))
        hist = (np.array([-1.0, 0.0]), np.ones((2, 1)))
        ts = np.linspace(0.0, 1.0, 101)
        traj = PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, (ts, (1.0 + ts)[:, None])))
        assert volterra_term(problem, traj, 1.0)[0] == pytest.approx(1.5, abs=1e-10)

    def test_domain_error(self):
        problem = constant_problem()
        with pytest.raises(ValueError):
            volterra_term(problem, flat_trajectory(horizon=1.0, n_nodes=51), 1.5)


class TestWindowIntegral:
    def test_zero_length_window_is_exactly_zero(self):
        problem = get_entry("paper_example").problem
        traj = flat_trajectory()
        w = window_integral(problem, traj, 1)
        assert w.shape == (1,)
        assert w[0] == 0.0

    def test_unit_integrand(self):
        # window [0.2, 0.7], G = 1 -> 0.5
        problem = constant_problem(G=lambda s, w_s: 1.0, impulses=True)
        traj = flat_trajectory(impulse_times=(0.9,))
        assert window_integral(problem, traj, 1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_integrand(self):
        problem = constant_problem(G=lambda s, w_s: 0.0, impulses=True)
        traj = flat_trajectory(impulse_times=(0.9,))
        assert window_integral(problem, traj, 1)[0] == 0.0

    def test_invalid_index(self):
        problem = constant_problem(impulses=True)
        with pytest.raises(IndexError):
            window_integral(problem, flat_trajectory(impulse_times=(0.9,)), 2)


class TestJumpValue:
    def test_paper_example_jump_is_sin_zero(self):
        problem = get_entry("paper_example").problem
        assert jump_value(problem, flat_trajectory(), 1)[0] == 0.0

    def test_identity_map(self):
        problem = constant_problem(G=lambda s, w_s: 1.0, impulses=True)
        assert jump_value(problem, flat_trajectory(impulse_times=(0.9,)), 1)[0] == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_zero_map(self):
        problem = replace(
            constant_problem(G=lambda s, w_s: 1.0, impulses=True),
            jump_maps=(lambda x: 0.0 * x,),
        )
        assert jump_value(problem, flat_trajectory(impulse_times=(0.9,)), 1)[0] == 0.0

    def test_window_from_the_previous_impulse_reads_its_right_limit(self):
        # w = 1 up to 0.5, then w(0.5^+) = 1 + 0.2 = 1.2 up to 1.0; the second window
        # [0.5, 0.9] starts at the first impulse, where G = w_s(0) is read as
        # w(0.5^+): 0.4 * 1.2 = 0.48 (the left limit there would give 0.479)
        problem = replace(constant_problem(G=lambda s, w_s: w_s(0.0)),
                          jump_maps=(lambda x: x, lambda x: x), impulse_times=[0.5, 1.0],
                          theta_offsets=[0.1, 0.1], tau_offsets=[0.3, 0.5])
        _, report = solve_mild(problem, Discretization(step=0.01))
        assert report.jumps[0][0] == pytest.approx(0.2, abs=1e-12)
        assert report.jumps[1][0] == pytest.approx(0.48, abs=1e-12)

    @pytest.mark.parametrize("impulses", [True, False], ids=["one-impulse", "no-impulse"])
    @pytest.mark.parametrize("past", [False, True], ids=["k=0", "k=m+1"])
    def test_index_out_of_range_names_the_range(self, impulses, past):
        # the index is checked by the window before any jump map is looked up
        problem = constant_problem(impulses=impulses)
        m = problem.num_impulses
        traj = flat_trajectory(impulse_times=tuple(problem.impulse_times))
        k = m + 1 if past else 0
        with pytest.raises(IndexError, match=rf"^impulse index {k} out of range 1\.\.{m}$"):
            jump_value(problem, traj, k)


class TestSolveSegment:
    def history_prefix(self, problem, step=2e-3):
        import math

        nh = max(1, math.ceil(problem.delay / step))
        ht = np.linspace(-problem.delay, 0.0, nh + 1)
        return PiecewiseTrajectory(
            problem.dimension, problem.delay, problem.horizon, problem.impulse_times,
            ((ht, problem.history_values(ht)),),
        )

    def test_pure_semigroup_segment(self):
        problem = get_entry("pure_semigroup").problem
        prefix = self.history_prefix(problem)
        times, values, iters = solve_segment(problem, prefix, 0, DISC, CTRL)
        assert np.max(np.abs(values[:, 0] - np.exp(times))) <= 1e-10
        assert iters <= 3

    def test_method_of_steps_first_segment(self):
        problem = steps_problem(horizon=1.0)
        prefix = self.history_prefix(problem)
        times, values, _ = solve_segment(problem, prefix, 0, DISC, CTRL)
        assert np.max(np.abs(values[:, 0] - (1.0 + times))) <= 1e-12

    def test_method_of_steps_second_step_closed_form(self):
        problem = steps_problem(horizon=2.0)
        traj, _ = solve_mild(problem, DISC, CTRL)
        ts = traj.blocks[1][0]
        errs = [abs(traj.eval(float(t))[0] - steps_exact(float(t))) for t in ts[::20]]
        assert max(errs) <= 1e-10

    @pytest.mark.parametrize("make", [lambda: get_entry("windowed_impulse").problem,
                                      two_impulse_window], ids=["one", "two"])
    def test_segments_from_prefixes_ending_before_each_jump(self, make):
        # each prefix ends at t_k^-; solve_segment starts from its end value plus
        # the jump, and reproduces solve_mild's blocks, right limits and jumps
        problem = make()
        n, tk = problem.dimension, problem.impulse_times
        disc = Discretization(step=5e-3)
        traj, report = solve_mild(problem, disc, CTRL)
        blocks, right_limits, jumps = [traj.blocks[0]], [], []
        for k in range(problem.num_impulses + 1):
            prefix = PiecewiseTrajectory(n, problem.delay, problem.horizon, tk, tuple(blocks))
            times, values, iters = solve_segment(problem, prefix, k, disc, CTRL)
            assert iters == report.iterations_per_segment[k]
            if k >= 1:
                w_left = blocks[-1][1][-1]
                assert values[0].tobytes() == (w_left + jump_value(problem, prefix, k)).tobytes()
                right_limits.append(values[0])
                jumps.append(values[0] - w_left)
            blocks.append((times, values))
        for (t, v), (want_t, want_v) in zip(blocks, traj.blocks, strict=True):
            assert t.tobytes() == want_t.tobytes()
            assert v.tobytes() == want_v.tobytes()
        assert np.reshape(right_limits, (-1, n)).tobytes() == traj.right_limits.tobytes()
        assert [j.tobytes() for j in jumps] == [j.tobytes() for j in report.jumps]

    @pytest.mark.parametrize("make", [lambda: get_entry("windowed_impulse").problem,
                                      two_impulse_window], ids=["one", "two"])
    def test_solve_builds_one_trajectory_per_segment(self, make, monkeypatch):
        # one prefix per segment and the assembled trajectory: m + 2 in all
        problem = make()
        m, built = problem.num_impulses, []
        post_init = PiecewiseTrajectory.__post_init__
        monkeypatch.setattr(PiecewiseTrajectory, "__post_init__",
                            lambda self: built.append(post_init(self)))
        solve_mild(problem, Discretization(step=5e-3), CTRL)
        assert len(built) == m + 2

    def test_segment_index_bounds(self):
        problem = get_entry("pure_semigroup").problem
        with pytest.raises(IndexError):
            solve_segment(problem, self.history_prefix(problem), 1, DISC, CTRL)


class TestSolveMild:
    def test_pure_semigroup_endpoint(self, solve_cache):
        _, _, traj, _ = solve_cache("pure_semigroup", step=1e-3)
        assert traj.eval(2.0)[0] == pytest.approx(np.exp(2.0), abs=1e-6)

    def test_paper_example_zero_jump(self, solve_cache):
        _, _, traj, report = solve_cache("paper_example", step=2e-3)
        assert abs(report.jumps[0][0]) <= 1e-12
        # continuous at t = 1
        assert np.array_equal(traj.eval_right(1.0), traj.eval(1.0))

    def test_method_of_steps_oracle(self, solve_cache):
        _, _, traj, _ = solve_cache("method_of_steps", step=1e-3)
        ts = traj.blocks[1][0]
        errs = [abs(traj.eval(float(t))[0] - steps_exact(float(t))) for t in ts[::10]]
        assert max(errs) <= 1e-6

    def test_jump_bookkeeping_bit_exact(self, solve_cache, tmp_path):
        # each right limit is one stored node: the property, eval_right, the
        # left value plus the reported jump and the CSV's right-limit row agree
        two = two_impulse_window()
        solves = [(two, *solve_mild(two, DISC, CTRL))]
        for name in ("paper_example", "windowed_impulse", "parameter_family"):
            problem, _, traj, report = solve_cache(name, step=2e-3)
            solves.append((problem, traj, report))
        for problem, traj, report in solves:
            write_trajectory_csv(tmp_path / "traj.csv", traj)
            t, _, right, vals = read_trajectory_csv(tmp_path / "traj.csv")
            assert t[right == 1].tobytes() == problem.impulse_times.tobytes()
            for k in range(1, problem.num_impulses + 1):
                tk, want = float(problem.impulse_times[k - 1]), traj.right_limits[k - 1]
                assert np.array_equal(traj.eval_right(tk) - traj.eval(tk), report.jumps[k - 1])
                assert traj.eval_right(tk).tobytes() == want.tobytes()
                assert (traj.eval(tk) + report.jumps[k - 1]).tobytes() == want.tobytes()
                assert vals[right == 1][k - 1].tobytes() == want.tobytes()

    def test_report_shapes(self, solve_cache):
        problem, _, _, report = solve_cache("windowed_impulse", step=2e-3)
        assert len(report.iterations_per_segment) == problem.num_impulses + 1
        assert len(report.jumps) == problem.num_impulses
        assert report.final_residual >= 0.0

    def test_invalid_problem_rejected(self):
        problem = replace(get_entry("paper_example").problem, tau_offsets=[1.5])
        with pytest.raises(ValueError, match="invalid problem"):
            solve_mild(problem, DISC, CTRL)

    def test_uniqueness_across_initial_iterates(self, solve_cache):
        for name in ("method_of_steps", "windowed_impulse", "parameter_family"):
            _, _, ta, _ = solve_cache(name, step=2e-3, iterate="constant")
            _, _, tb, _ = solve_cache(name, step=2e-3, iterate="ramp")
            assert sigma_diff(ta, tb) <= 1e-9

    def test_grid_refinement_order(self):
        # integrand curvature appears past t = 2, so measure on horizon 3
        problem = steps_problem(horizon=3.0)
        errs = {}
        for h in (4e-3, 2e-3):
            traj, _ = solve_mild(problem, Discretization(step=h), CTRL)
            ts = traj.blocks[1][0]
            sel = ts >= 2.0
            errs[h] = max(
                abs(traj.eval(float(t))[0] - steps_exact(float(t))) for t in ts[sel][::10]
            )
        assert errs[4e-3] / errs[2e-3] >= 3.0

    def test_convergence_failure_carries_diagnostics(self):
        # state-coupled kernel with one iteration allowed: cannot converge
        problem = replace(
            steps_problem(horizon=1.0),
            V=lambda t, w_t, z: w_t(0.0),
        )
        with pytest.raises(ConvergenceError) as err:
            solve_mild(problem, DISC, PicardControl(tolerance=1e-12, max_iterations=1))
        assert err.value.segment_index == 0
        assert err.value.last_gap > 1e-12

    def test_stiff_generator_decays_exactly(self):
        # forward propagation never forms e^{+400 tau}: w(t) = e^{-400 t} w(0), and
        # w(2) = e^{-800} underflows to 0.0
        problem = replace(get_entry("pure_semigroup").problem, generator=[[-400.0]])
        with np.errstate(over="raise", invalid="raise"):
            traj, report = solve_mild(problem, Discretization(step=1e-2), CTRL)
        assert all(np.all(np.isfinite(v)) for _, v in traj.blocks)
        assert np.exp(-800.0) == 0.0
        assert traj.eval(2.0).tolist() == [0.0]
        ts = traj.blocks[1][0]
        early = ts <= 1.5
        assert np.allclose(traj.blocks[1][1][early, 0], np.exp(-400.0 * ts[early]),
                           rtol=1e-12, atol=0.0)
        assert np.isfinite(report.final_residual)

    def test_stiff_generator_decays_exactly_across_an_impulse(self):
        # a zero jump at 1 splits the decay into two segments; the residual runs
        # over the whole horizon, where e^{+400 s} would overflow
        problem = replace(get_entry("pure_semigroup").problem, generator=[[-400.0]],
                          jump_maps=(lambda x: 0.0 * x,), impulse_times=[1.0],
                          theta_offsets=[0.0], tau_offsets=[0.0])
        with np.errstate(over="raise", invalid="raise"):
            traj, report = solve_mild(problem, Discretization(step=1e-2), CTRL)
        assert all(np.all(np.isfinite(v)) for _, v in traj.blocks)
        assert traj.eval(2.0).tolist() == [0.0]
        assert traj.eval(1.0)[0] == pytest.approx(np.exp(-400.0), rel=1e-12)
        assert np.isfinite(report.final_residual)

    def test_nan_residual_raises(self, monkeypatch):
        import impulsedde.solver as solver

        monkeypatch.setattr(solver, "mild_residual", lambda *args: float("nan"))
        with pytest.raises(ConvergenceError, match="residual") as err:
            solve_mild(get_entry("pure_semigroup").problem, Discretization(step=1e-2), CTRL)
        assert not np.isfinite(err.value.last_gap)

    def test_iteration_counts_stable_under_refinement(self):
        # contraction regime: counts stay finite and do not grow when h halves
        problem = get_entry("parameter_family").problem
        counts = {}
        for h in (4e-3, 2e-3):
            _, report = solve_mild(problem, Discretization(step=h), CTRL)
            counts[h] = max(report.iterations_per_segment)
        assert counts[2e-3] <= counts[4e-3] + 1

    def test_state_coupled_kernel_closed_form(self):
        # V reads w_t(0): w' = 0.5 w + 1, w(0) = 1  ->  w(t) = 3 e^{t/2} - 2
        problem = ImpulsiveProblem(
            dimension=1, generator=[[0.0]],
            V=lambda t, w_t, z: 0.5 * w_t(0.0) + 1.0,
            U=lambda t, s, w_s: 0.0, G=lambda s, w_s: 0.0,
            jump_maps=(), impulse_times=[], theta_offsets=[], tau_offsets=[],
            delay=0.5, history=lambda t: 1.0, horizon=1.0,
        )
        disc = Discretization(step=1e-3)
        traj, rep = solve_mild(problem, disc, CTRL)
        ts = traj.blocks[1][0]
        err = np.max(np.abs(traj.blocks[1][1][:, 0] - (3.0 * np.exp(0.5 * ts) - 2.0)))
        assert err <= 1e-6
        # a genuine contraction needs several sweeps, unlike delayed-only kernels
        assert rep.iterations_per_segment[0] >= 5
        other, _ = solve_mild(problem, disc, PicardControl(initial_iterate="ramp"))
        assert sigma_diff(traj, other) <= 1e-9

    def test_segment_grid_exact_breakpoints(self):
        from impulsedde.quadrature import segment_grid

        grid = segment_grid(0.0, 0.5, 1e-3, specials=(0.2, 0.4))
        assert 0.2 in grid and 0.4 in grid
        assert len(grid) >= 2
        assert np.all(np.diff(grid) > 0.0)
        assert np.max(np.diff(grid)) <= 1e-3 * (1.0 + 1e-9)


class TestMildResidual:
    def test_exact_semigroup_trajectory(self):
        problem = get_entry("pure_semigroup").problem
        hist = (np.array([-1.0, 0.0]), np.ones((2, 1)))
        ts = np.linspace(0.0, 2.0, 1001)
        traj = PiecewiseTrajectory(1, 1.0, 2.0, [], (hist, (ts, np.exp(ts)[:, None])))
        assert mild_residual(problem, traj) <= 1e-8

    def test_converged_solve_has_small_residual(self, solve_cache):
        _, _, _, report = solve_cache("method_of_steps", step=1e-3)
        assert report.final_residual <= 1e-10

    def test_perturbed_trajectory_detected(self, solve_cache):
        problem, _, traj, _ = solve_cache("method_of_steps", step=2e-3)
        bt, bv = traj.blocks[1]
        corrupted = bv.copy()
        corrupted[bt >= 1.0] += 0.1
        bad = PiecewiseTrajectory(1, 1.0, 2.0, [], (traj.blocks[0], (bt, corrupted)))
        assert mild_residual(problem, bad) >= 0.05

    @pytest.mark.parametrize("step", [5e-3, 1e-3])
    @pytest.mark.parametrize("name", ["paper_example", "windowed_impulse", "parameter_family",
                                      "two_impulse_window"])
    def test_matches_the_per_block_refinement(self, name, step, solve_cache):
        # the one strided pass puts no midpoint between the two copies of each t_k
        if name == "two_impulse_window":
            problem = two_impulse_window()
            traj, _ = solve_mild(problem, Discretization(step=step), CTRL)
        else:
            problem, _, traj, _ = solve_cache(name, step=step)
        assert mild_residual(problem, traj).hex() == per_block_residual(problem, traj).hex()

    def test_residual_second_order(self):
        problem = get_entry("paper_example").problem
        res = {}
        for h in (4e-3, 2e-3):
            _, report = solve_mild(problem, Discretization(step=h), CTRL)
            res[h] = report.final_residual
        order = np.log2(res[4e-3] / res[2e-3])
        assert order >= 1.9


class TestControls:
    def test_discretization_invariants(self):
        with pytest.raises(ValueError):
            Discretization(step=-1.0)
        with pytest.raises(TypeError):  # the trapezoid rule is not a field
            Discretization(quadrature="trapezoid")

    def test_picard_invariants(self):
        with pytest.raises(ValueError):
            PicardControl(tolerance=0.0)
        with pytest.raises(ValueError):
            PicardControl(max_iterations=0)
        with pytest.raises(ValueError):
            PicardControl(initial_iterate="noise")

    @pytest.mark.parametrize("control, field, value", [
        (PicardControl, "max_iterations", 2.5), (PicardControl, "max_iterations", 3.0),
        (PicardControl, "max_iterations", True), (PicardControl, "tolerance", True),
        (Discretization, "step", True),
    ])
    def test_rejects_values_it_cannot_use(self, control, field, value):
        # a float count used to fail mid-solve in range(), and True was taken as 1
        with pytest.raises(ValueError, match=f"^{field} must be"):
            control(**{field: value})

    def test_numpy_integer_iterations_are_valid(self):
        control = PicardControl(max_iterations=np.int64(50))
        _, report = solve_mild(steps_problem(), Discretization(step=5e-2), control)
        assert max(report.iterations_per_segment) <= 50

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan")])
    def test_picard_tolerance_must_be_finite(self, tolerance):
        # an infinite tolerance used to stop every segment after one sweep
        with pytest.raises(ValueError, match="tolerance"):
            PicardControl(tolerance=tolerance)
