"""The batched kernel protocol: array window reads, array kernel calls and the
O(N) Volterra sums give the same bits as the node-by-node path they replace."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import (Discretization, PiecewiseTrajectory, batched, build_catalog,
                        get_entry, solve_mild, validate, volterra_term, window_integral)
from impulsedde.quadrature import KernelU, volterra_rect, volterra_tri
from impulsedde.trajectory import _EDGE_TOL, _Window
from test_window import HORIZON, thetas_for, trajectories


def bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()


# ---------------------------------------------------------------------------
# _Windows against _Window

@st.composite
def window_times(draw, traj):
    """Window times drawn as test_window.windows draws one: nodes, t - r onto a
    node and one ulp either side, impulse times and their neighbourhoods."""
    r = traj.delay
    nodes = np.concatenate([traj.blocks[0][0], traj.main_times]).tolist()
    specials = [0.0, 0.5 * r] + [float(tk) + d for tk in traj.impulse_times
                                  for d in (0.0, 1e-3, 0.5 * r, r)]
    out = []
    for _ in range(draw(st.integers(1, 6))):
        node = draw(st.sampled_from(nodes))
        near_node = [node, node + r, np.nextafter(node + r, np.inf),
                     np.nextafter(node + r, -np.inf)]
        t = draw(st.one_of(st.sampled_from(specials + near_node), st.floats(0.0, HORIZON)))
        out.append(float(min(max(t, 0.0), HORIZON)))
    return np.array(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_windows_rows_equal_scalar_windows(data):
    traj = data.draw(trajectories())
    ts = data.draw(window_times(traj))
    ends = None
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ends = rng.uniform(-10.0, 10.0, (len(ts), traj.dimension))
    view = traj._view
    windows = view.windows(ts, ends)
    singles = [_Window(view, t, None if ends is None else ends[i]) for i, t in enumerate(ts)]
    thetas = [th for t in ts[:2] for th in thetas_for(data.draw, traj, float(t))]
    for theta in thetas + [np.nextafter(-traj.delay, -np.inf), -0.0, 0.5 * _EDGE_TOL]:
        rows = windows(theta)
        assert rows.shape == (len(ts), traj.dimension)
        for i, single in enumerate(singles):
            assert bits(rows[i]) == bits(single(theta)), (theta, ts[i])
    for i in range(len(ts)):
        assert bits(windows[i](-0.5 * traj.delay)) == bits(singles[i](-0.5 * traj.delay))
    beyond = -traj.delay - 2.0 * _EDGE_TOL * (1.0 + traj.delay)
    with pytest.raises(ValueError):
        windows(beyond)
    with pytest.raises(ValueError):
        singles[0](beyond)


@pytest.mark.parametrize("hist_t, hist_v, t", [
    # t + theta rounds below the node that theta = node - t reads
    (np.linspace(-1.5, 0.0, 3), [-9.7, 6.3, 8.3], 0.253),
    # t - r rounds below the node at -0.8125, yet node - t rounds onto -r
    (np.array([-1.5, -0.8125, 0.0]), [1.0, 2.0, 3.0], float(np.nextafter(0.6875, -np.inf))),
    # the same, with values far enough apart that w(t - r) is not the node value
    (np.array([-1.5, -0.8125, 0.0]), [-9.7, 6.3, 8.3], float(np.nextafter(0.6875, -np.inf))),
])
def test_windows_brackets_settled_in_theta_space(hist_t, hist_v, t):
    hist = (hist_t, np.array(hist_v)[:, None])
    main = (np.array([0.0, HORIZON]), np.array([[hist_v[-1]], [1.0]]))
    traj = PiecewiseTrajectory(1, 1.5, HORIZON, [], (hist, main), np.zeros((0, 1)))
    ts = np.array([t, 0.5, t])
    windows = traj._view.windows(ts)
    for theta in [float(s - t) for s in hist_t[1:-1]] + [-1.5, -1.0, -0.5, 0.0]:
        rows = windows(theta)
        for i, ti in enumerate(ts):
            assert bits(rows[i]) == bits(_Window(traj._view, ti)(theta)), (theta, ti)


def test_windows_read_one_theta_at_a_time(solve_cache):
    _, _, traj, _ = solve_cache("paper_example")
    windows = traj._view.windows(traj.main_times[:5])
    with pytest.raises(TypeError):
        windows(np.array([-0.5, -0.25]))
    assert bits(windows(np.float64(-0.5))) == bits(windows(-0.5))


# ---------------------------------------------------------------------------
# marked catalog kernels against their node-by-node calls

def unmarked(problem):
    """The same problem with every kernel behind a wrapper that carries no mark."""

    def plain(fn):
        return lambda *a: fn(*a)

    return replace(problem, V=plain(problem.V), U=plain(problem.U), G=plain(problem.G),
                   history=plain(problem.history))


def outputs(problem, step):
    traj, report = solve_mild(problem, Discretization(step=step))
    out = [bits(a) for block in traj.blocks for a in block]
    out += [bits(traj.right_limits), report.final_residual.hex(), report.iterations_per_segment]
    out += [bits(j) for j in report.jumps]
    out += [bits(window_integral(problem, traj, k)) for k in range(1, problem.num_impulses + 1)]
    ts = [0.0, 0.3, problem.horizon, float(traj.main_times[5])]
    out += [bits(volterra_term(problem, traj, t)) for t in ts]
    return out


@pytest.mark.parametrize("step", [5e-3, 1e-3])
@pytest.mark.parametrize("name", [e.name for e in build_catalog()])
def test_marked_catalog_solves_equal_unmarked(name, step):
    problem = get_entry(name).problem
    for kernel in (problem.V, problem.U, problem.G, problem.history):
        assert kernel.batched
    assert outputs(problem, step) == outputs(unmarked(problem), step)


def test_marked_V_is_called_once_per_sweep():
    problem = get_entry("windowed_impulse").problem
    calls = []

    @batched
    def V(t, w_t, z):
        calls.append(np.shape(t))
        return problem.V(t, w_t, z)

    traj, report = solve_mild(replace(problem, V=V), Discretization(step=5e-3))
    array_calls = [shape for shape in calls if shape != ()]
    # one array call per sweep and one for the residual, plus validation's probe
    assert len(array_calls) == sum(report.iterations_per_segment) + 2
    # the scalar calls are validation's alone, a handful against ~400 nodes
    assert len(calls) - len(array_calls) <= 4 < len(traj.main_times)


# ---------------------------------------------------------------------------
# the O(N) sums against the column sweep

def column_tri(rows, nodes, n):
    """volterra_tri's column sweep for a U whose column i is rows[i] at every t."""
    T = len(nodes)
    z = np.zeros((T, n))
    d = np.diff(nodes)
    for i in range(T):
        left = d[i - 1] if i > 0 else 0.0
        right = d[i] if i < T - 1 else 0.0
        col = np.broadcast_to(rows[i], (T - i, n))
        if left != 0.0:
            z[i:] += 0.5 * left * col
        if right != 0.0:
            z[i + 1:] += 0.5 * right * col[1:]
    return z


def column_rect(rows, t_count, sigma, n):
    out = np.zeros((t_count, n))
    d = np.diff(sigma)
    w = np.zeros(len(sigma))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    for i, wi in enumerate(w):
        if wi != 0.0:
            out += wi * np.broadcast_to(rows[i], (t_count, n))
    return out


def row_kernel(n):
    """A KernelU over a U that ignores t: its window argument is the row itself."""
    return KernelU(SimpleNamespace(U=lambda t, s, row: row, dimension=n))


@st.composite
def node_rows_cases(draw):
    n = draw(st.integers(1, 3))
    T = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(1e-3, 0.1, T - 1)
    # zero-width intervals: duplicated and triplicated nodes, as at impulse times
    steps[draw(st.lists(st.integers(0, T - 2), max_size=4))] = 0.0
    nodes = np.concatenate([[rng.uniform(-1.0, 1.0)], steps]).cumsum()
    rows = rng.uniform(-5.0, 5.0, (T, n))
    # a non-finite row poisons both sums alike, except where the sweep skips it
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
    for i, j in draw(st.lists(st.tuples(st.integers(0, T - 1), st.integers(0, n - 1)),
                              max_size=6)):
        rows[i, j] = draw(st.sampled_from(special))
    if draw(st.booleans()):
        rows[:] = -0.0
    return nodes, rows, n


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(node_rows_cases())
def test_linear_volterra_sums_equal_column_sweep(case):
    nodes, rows, n = case
    segs = list(rows)
    kernel = row_kernel(n)
    got = volterra_tri(kernel, nodes, segs, n)
    assert kernel.t_free
    assert got.tobytes() == column_tri(rows, nodes, n).tobytes()
    t_nodes = np.linspace(0.0, 1.0, 4)
    got = volterra_rect(row_kernel(n), t_nodes, nodes, segs, n)
    assert got.tobytes() == column_rect(rows, len(t_nodes), nodes, n).tobytes()


def test_negative_zero_terms_sum_to_positive_zero():
    nodes = np.array([0.0, 0.5, 0.5, 1.0])
    rows = np.full((4, 1), -0.0)
    z = volterra_tri(row_kernel(1), nodes, list(rows), 1)
    assert z.tobytes() == np.zeros((4, 1)).tobytes()
    total = volterra_rect(row_kernel(1), np.array([0.0, 1.0]), nodes, list(rows), 1)
    assert total.tobytes() == np.zeros((2, 1)).tobytes()


def test_kernel_depending_on_t_keeps_the_column_sweep():
    problem = SimpleNamespace(U=lambda t, s, row: np.exp(-(np.asarray(t) - s)) * row[0],
                              dimension=1)
    kernel = KernelU(problem)
    nodes = np.linspace(0.0, 1.0, 9)
    rows = np.linspace(1.0, 2.0, 9)[:, None]
    z = volterra_tri(kernel, nodes, list(rows), 1)
    assert not kernel.t_free
    ref = np.zeros((9, 1))
    for j in range(1, 9):
        vals = np.exp(-(nodes[j] - nodes[:j + 1])) * rows[:j + 1, 0]
        ref[j, 0] = np.trapezoid(vals, nodes[:j + 1])
    np.testing.assert_allclose(z, ref, rtol=1e-14, atol=1e-15)


def test_one_outer_time_does_not_declare_t_free():
    # a single t cannot tell a row that ignores t from one that uses it
    kernel = row_kernel(1)
    volterra_rect(kernel, np.array([0.5]), np.array([0.0, 1.0]), [np.ones(1), np.ones(1)], 1)
    assert not kernel.t_free


# ---------------------------------------------------------------------------
# validation of marked kernels

def test_marked_kernel_reading_row_zero_is_a_violation():
    problem = get_entry("paper_example").problem
    c = 1.0 - np.sin(5.0)

    @batched
    def V(t, w_t, z):
        return c - np.sin(w_t(-1.0)[0]) + z[..., 0]  # w[0]: row 0 for every node

    bad = replace(problem, V=V)
    violations = validate(bad)
    assert len(violations) == 1 and violations[0].startswith("V is marked batched"), violations
    with pytest.raises(ValueError, match="V is marked batched"):
        solve_mild(bad, Discretization(step=5e-3))
    # the same kernel unmarked is fine: it is only ever called node by node
    assert validate(replace(problem, V=lambda t, w_t, z: V(t, w_t, z))) == []


def test_marked_kernel_with_wrong_shape_is_a_violation():
    problem = get_entry("windowed_impulse").problem
    # right for one node, one row short for an array of them
    bad = replace(problem, G=batched(lambda s, w_s: 0.05 * w_s(0.0).ravel()[:2]))
    assert any(v.startswith("batched G probe failed") for v in validate(bad))
    bad = replace(problem, history=batched(lambda t: np.array([0.2, -0.1]) + 0.0 * np.mean(t)))
    assert any("history" in v for v in validate(bad))
    # a marked history that takes arrays only
    bad = replace(get_entry("paper_example").problem,
                  history=batched(lambda t: np.asarray(t)[:, None] * 1.0))
    assert validate(bad)[0].startswith("batched history probe failed")


def test_batched_marks_the_function_itself():
    def f(t):
        return t

    assert batched(f) is f and f.batched
