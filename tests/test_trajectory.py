import numpy as np
import pytest

from impulsedde import HistorySegment, PiecewiseTrajectory, sigma_diff, volterra_term


def make_jump_trajectory():
    """Constant 0 before t=1, constant 1 after: a unit jump at t_1 = 1."""
    hist = (np.array([-1.0, -0.5, 0.0]), np.zeros((3, 1)))
    b1 = (np.array([0.0, 0.5, 1.0]), np.zeros((3, 1)))
    b2 = (np.array([1.0, 1.5, 2.0]), np.ones((3, 1)))
    return PiecewiseTrajectory(
        dimension=1, delay=1.0, horizon=2.0, impulse_times=[1.0],
        blocks=(hist, b1, b2),
    )


def make_constant(c, horizon=2.0):
    hist = (np.array([-1.0, 0.0]), np.full((2, 1), float(c)))
    b1 = (np.array([0.0, horizon]), np.full((2, 1), float(c)))
    return PiecewiseTrajectory(1, 1.0, horizon, [], (hist, b1))


class TestHistorySegment:
    def test_linear_interpolation_midpoint(self):
        seg = HistorySegment([-1.0, 0.0], [[0.0], [2.0]])
        assert seg(-0.5)[0] == pytest.approx(1.0)

    def test_endpoints_and_norm(self):
        seg = HistorySegment([-2.0, -1.0, 0.0], [[1.0], [-3.0], [2.0]])
        assert seg(-2.0)[0] == 1.0
        assert seg(0.0)[0] == 2.0
        assert seg.sup_norm() == 3.0
        assert seg.delay == 2.0

    def test_vectorized_matches_scalar(self):
        seg = HistorySegment([-1.0, -0.3, 0.0], [[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        thetas = np.linspace(-1.0, 0.0, 17)
        batch = seg(thetas)
        for i, th in enumerate(thetas):
            assert np.allclose(batch[i], seg(float(th)))

    def test_domain_errors(self):
        seg = HistorySegment([-1.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            seg(-1.5)
        with pytest.raises(ValueError):
            seg(0.5)

    def test_grid_must_end_at_zero(self):
        with pytest.raises(ValueError):
            HistorySegment([-1.0, -0.5], [[0.0], [1.0]])


class TestEval:
    def test_constant_everywhere(self):
        traj = make_constant(3.0)
        for t in (-1.0, -0.2, 0.0, 0.7, 2.0):
            assert traj.eval(t)[0] == 3.0

    def test_left_continuity_at_jump(self):
        traj = make_jump_trajectory()
        assert traj.eval(1.0)[0] == 0.0  # pre-jump value
        assert traj.eval_right(1.0)[0] == 1.0
        # limit from below along node times
        for eps in (1e-3, 1e-6, 1e-9):
            assert traj.eval(1.0 - eps)[0] == 0.0

    def test_jump_record(self):
        traj = make_jump_trajectory()
        assert traj.eval_right(1.0)[0] - traj.eval(1.0)[0] == 1.0

    def test_linear_interpolation(self):
        hist = (np.array([-1.0, 0.0]), np.zeros((2, 1)))
        b1 = (np.array([0.0, 1.0]), np.array([[0.0], [2.0]]))
        traj = PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, b1))
        assert traj.eval(0.5)[0] == pytest.approx(1.0)

    def test_eval_right_off_jumps_matches_eval(self):
        traj = make_jump_trajectory()
        for t in (0.3, 0.99, 1.2, 1.7):
            assert traj.eval_right(t)[0] == traj.eval(t)[0]

    def test_domain_error(self):
        traj = make_constant(1.0)
        with pytest.raises(ValueError):
            traj.eval(-1.5)
        with pytest.raises(ValueError):
            traj.eval(2.5)

    def test_right_limit_undefined_at_horizon(self):
        traj = make_constant(1.0)
        assert traj.eval(2.0)[0] == 1.0
        with pytest.raises(ValueError):
            traj.eval_right(2.0)

    def test_prefix_holds_no_right_limit_at_its_end(self, solve_cache):
        # w(t_1^+) is the next segment's to compute: a prefix ending at t_1 = 0.5
        # raises there instead of answering w(t_1^-), and the history alone at 0
        problem, _, traj, _ = solve_cache("windowed_impulse", step=5e-3)
        args = (traj.dimension, traj.delay, traj.horizon, traj.impulse_times)
        prefix = PiecewiseTrajectory(*args, traj.blocks[:2])
        assert prefix.coverage_end == float(problem.impulse_times[0]) == 0.5
        assert prefix.eval(0.5).tobytes() == traj.eval(0.5).tobytes()
        assert traj.eval_right(0.5).tobytes() == traj.right_limits[0].tobytes()
        with pytest.raises(ValueError, match="right limit undefined"):
            prefix.eval_right(0.5)
        with pytest.raises(ValueError, match="right limit undefined"):
            PiecewiseTrajectory(*args, traj.blocks[:1]).eval_right(0.0)


@pytest.mark.parametrize("read", [
    lambda problem, traj, t: traj.eval(t),
    lambda problem, traj, t: traj.eval_right(t),
    lambda problem, traj, t: traj.history_segment(t)(-0.1),
    lambda problem, traj, t: volterra_term(problem, traj, t),
    lambda problem, traj, t: traj.eval_many([0.5, t]),
], ids=["eval", "eval_right", "history_segment", "volterra_term", "eval_many"])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), 50.0, -7.0])
def test_times_outside_the_domain_raise(read, t, solve_cache):
    # a NaN time fails every comparison, so a check written as t < lo or t > hi
    # lets it through to read [nan nan]; a finite time past either end would be
    # clamped onto the end node
    problem, _, traj, _ = solve_cache("windowed_impulse")
    with pytest.raises(ValueError):
        read(problem, traj, t)


class TestHistorySegmentOp:
    def test_at_zero_reproduces_history_exactly(self):
        hist_t = np.linspace(-1.0, 0.0, 11)
        hist_v = np.sin(hist_t)[:, None]
        b1 = (np.array([0.0, 2.0]), np.array([[0.0], [0.0]]))
        traj = PiecewiseTrajectory(1, 1.0, 2.0, [], ((hist_t, hist_v), b1))
        seg = traj.history_segment(0.0)
        assert np.array_equal(seg.theta_grid, hist_t)
        assert np.array_equal(seg.values, hist_v)

    def test_constant_trajectory(self):
        traj = make_constant(4.0)
        seg = traj.history_segment(1.3)
        assert np.all(seg.values == 4.0)

    def test_method_of_steps_closed_form(self):
        # w'(t) = w(t-1), unit history: w = 1 + t on [0, 1]; the delayed-state
        # segment at t = 1 is 1 + (1 + theta)
        hist = (np.array([-1.0, 0.0]), np.ones((2, 1)))
        ts = np.linspace(0.0, 1.0, 11)
        b1 = (ts, (1.0 + ts)[:, None])
        traj = PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, b1))
        seg = traj.history_segment(1.0)
        for th in np.linspace(-1.0, 0.0, 21):
            assert seg(float(th))[0] == pytest.approx(1.0 + (1.0 + th), abs=1e-12)


class TestSigmaNorm:
    def test_constant(self):
        assert make_constant(3.0).sigma_norm() == 3.0

    def test_zero(self):
        assert make_constant(0.0).sigma_norm() == 0.0

    def test_max_of_block_sups(self):
        hist = (np.array([-1.0, 0.0]), np.zeros((2, 1)))
        b1 = (np.array([0.0, 1.0]), np.array([[0.0], [2.0]]))
        b2 = (np.array([1.0, 2.0]), np.array([[5.0], [1.0]]))
        traj = PiecewiseTrajectory(1, 1.0, 2.0, [1.0], (hist, b1, b2))
        assert traj.sigma_norm() == 5.0

    def test_history_excluded(self):
        hist = (np.array([-1.0, 0.0]), np.array([[9.0], [1.0]]))
        b1 = (np.array([0.0, 2.0]), np.array([[1.0], [1.0]]))
        traj = PiecewiseTrajectory(1, 1.0, 2.0, [], (hist, b1))
        assert traj.sigma_norm() == 1.0


class TestSigmaDiff:
    def test_identical(self):
        a = make_jump_trajectory()
        assert sigma_diff(a, a) == 0.0

    def test_constant_offset(self):
        a = make_constant(1.0)
        b = make_constant(1.5)
        assert sigma_diff(a, b) == pytest.approx(0.5)
        assert sigma_diff(b, a) == pytest.approx(0.5)

    def test_detects_jump_mismatch(self):
        a = make_jump_trajectory()
        hist = (np.array([-1.0, -0.5, 0.0]), np.zeros((3, 1)))
        b1 = (np.array([0.0, 0.5, 1.0]), np.zeros((3, 1)))
        b2 = (np.array([1.0, 1.5, 2.0]), np.full((3, 1), 0.25))
        b = PiecewiseTrajectory(1, 1.0, 2.0, [1.0], (hist, b1, b2))
        assert sigma_diff(a, b) == pytest.approx(0.75)
        # a NaN right limit is a NaN distance, though every left value agrees
        b2 = (b2[0], np.array([[np.nan], [1.0], [1.0]]))
        b = PiecewiseTrajectory(1, 1.0, 2.0, [1.0], (hist, b1, b2))
        assert np.isnan(sigma_diff(a, b)) and np.isnan(sigma_diff(b, a))

    def test_structural_mismatch(self):
        a = make_constant(1.0)
        b = make_jump_trajectory()
        with pytest.raises(ValueError):
            sigma_diff(a, b)
        # the same schedule, but a prefix ending at t_1 against the whole trajectory
        prefix = PiecewiseTrajectory(1, 1.0, 2.0, [1.0], b.blocks[:2])
        with pytest.raises(ValueError, match=r"cover up to 1\.0 and 2\.0"):
            sigma_diff(prefix, b)


class TestConstruction:
    def test_blocks_must_share_endpoints(self):
        hist = (np.array([-1.0, 0.0]), np.zeros((2, 1)))
        b1 = (np.array([0.0, 1.0]), np.array([[0.5], [1.0]]))  # disagrees at 0
        with pytest.raises(ValueError):
            PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, b1))

    def test_prefix_ends_before_its_last_jump(self):
        # a prefix ending at t_1 records no right limit there: w(t_1^+) is the next
        # segment's to compute
        hist, b1, _ = make_jump_trajectory().blocks
        PiecewiseTrajectory(1, 1.0, 2.0, [1.0], (hist, b1))

    def test_strictly_increasing_nodes(self):
        hist = (np.array([-1.0, 0.0]), np.zeros((2, 1)))
        b1 = (np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            PiecewiseTrajectory(1, 1.0, 1.0, [], (hist, b1))

    def test_nan_node_time_raises(self):
        # diff <= 0 is false at a NaN; the check must read "every diff > 0"
        hist = (np.array([-1.0, 0.0]), np.zeros((2, 1)))
        b1 = (np.array([0.0, 2.0]), np.zeros((2, 1)))
        nan_hist = (np.array([-1.0, np.nan, 0.0]), np.zeros((3, 1)))
        nan_b1 = (np.array([0.0, np.nan, 2.0]), np.zeros((3, 1)))
        for blocks in ((hist, nan_b1), (nan_hist, b1)):
            with pytest.raises(ValueError, match="strictly increasing"):
                PiecewiseTrajectory(1, 1.0, 2.0, [], blocks)

    def test_nan_theta_raises(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            HistorySegment([-1.0, np.nan, 0.0], [[0.0], [1.0], [2.0]])
