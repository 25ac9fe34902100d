"""The batched kernel protocol: array window reads, array kernel calls and the
O(N) Volterra sums give the same bits as the node-by-node path they replace."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulsedde import (Discretization, PiecewiseTrajectory, apriori_bound, batched,
                        build_catalog, get_entry, mild_residual, operator_norm_bound, solve_mild,
                        validate, volterra_term, window_integral)
from impulsedde.model import probe_t
from impulsedde.quadrature import volterra_rect, volterra_tri
from impulsedde.trajectory import _EDGE_TOL
from test_window import HORIZON, thetas_for, trajectories


def bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()


# ---------------------------------------------------------------------------
# _Windows against the one-row windows of each time

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
    singles = [view.windows(ts[i:i + 1], None if ends is None else ends[i:i + 1])[0]
               for i in range(len(ts))]
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
    traj = PiecewiseTrajectory(1, 1.5, HORIZON, [], (hist, main))
    ts = np.array([t, 0.5, t])
    windows = traj._view.windows(ts)
    for theta in [float(s - t) for s in hist_t[1:-1]] + [-1.5, -1.0, -0.5, 0.0]:
        rows = windows(theta)
        for i, ti in enumerate(ts):
            single = traj._view.windows(np.array([ti]))[0]
            assert bits(rows[i]) == bits(single(theta)), (theta, ti)


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


def unmarked_lipschitz(lip):
    def plain(fn):
        return None if fn is None else (lambda t: fn(t))

    return replace(lip, N_V=plain(lip.N_V), N_U=plain(lip.N_U), N_V_tilde=plain(lip.N_V_tilde))


@pytest.mark.parametrize("step", [5e-3, 1e-3])
@pytest.mark.parametrize("name", [e.name for e in build_catalog()])
def test_marked_catalog_apriori_equals_unmarked(name, step):
    entry = get_entry(name)
    problem, lip = entry.problem, entry.lipschitz
    sg = operator_norm_bound(problem.generator, problem.horizon)
    disc = Discretization(step=step)
    marked = apriori_bound(problem, lip, sg, disc)
    plain = apriori_bound(unmarked(problem), unmarked_lipschitz(lip), sg, disc)
    assert marked.hex() == plain.hex()


def test_apriori_calls_marked_kernels_once():
    entry = get_entry("windowed_impulse")
    problem = entry.problem
    calls = []

    def counted(name, fn):
        def kernel(*args):
            calls.append((name, np.shape(args[0])))
            return fn(*args)
        return batched(kernel)

    sg = operator_norm_bound(problem.generator, problem.horizon)
    counted_problem = replace(problem, V=counted("V", problem.V), G=counted("G", problem.G))
    value = apriori_bound(counted_problem, entry.lipschitz, sg)
    assert value == apriori_bound(problem, entry.lipschitz, sg)
    assert [name for name, _ in calls] == ["V", "G"]
    assert all(len(shape) == 1 and shape[0] > 2 for _, shape in calls)


def test_marked_V_is_called_once_per_sweep():
    problem = get_entry("windowed_impulse").problem
    calls = []

    @batched
    def V(t, w_t, z):
        calls.append(np.shape(t))
        return problem.V(t, w_t, z)

    traj, report = solve_mild(replace(problem, V=V), Discretization(step=5e-3))
    assert report.iterations_per_segment == (2, 2)  # the third sweep of each is certified away
    array_calls = [shape for shape in calls if shape != ()]
    # one array call per sweep and one for the residual, plus validation's probe
    assert len(array_calls) == sum(report.iterations_per_segment) + 2
    # the scalar calls are validation's alone, a handful against ~400 nodes
    assert len(calls) - len(array_calls) <= 4 < len(traj.main_times)


def test_U_form_is_probed_once_per_problem():
    entry = get_entry("windowed_impulse")
    problem = entry.problem
    probes = []

    @batched
    def U(t, s, w_s):
        if np.ndim(t) == 1 and np.ndim(s) == 0:  # a vector of outer times at one s
            probes.append(len(t))
        return problem.U(t, s, w_s)

    counted = replace(problem, U=U)
    traj, report = solve_mild(counted, Discretization(step=5e-3))
    # validation's probe decides the form for both segments and the residual
    assert probes == [2]
    sg = operator_norm_bound(problem.generator, problem.horizon)
    assert mild_residual(counted, traj).hex() == report.final_residual.hex()
    volterra_term(counted, traj, 0.7)
    apriori_bound(counted, entry.lipschitz, sg)
    assert probes == [2]


def test_sums_on_a_history_that_fails_on_scalars_raise():
    # validation rejects the history; the bound, which skips validation, meets
    # the same failure when it first reads U's form
    entry = get_entry("paper_example")
    bad = replace(entry.problem, history=batched(lambda t: np.asarray(t)[:, None] * 1.0))
    assert validate(bad)[0].startswith("batched history probe failed")
    sg = operator_norm_bound(bad.generator, bad.horizon)
    with pytest.raises(IndexError):
        apriori_bound(bad, entry.lipschitz, sg)


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


def u_problem(U, n):
    """What the Volterra sums read of a problem: U, n and U's form, probed as
    `ImpulsiveProblem._u_form` probes it, here on a window that is a row itself."""
    form = probe_t(U, np.array([0.0, 1.0]), 0.0, np.ones(n), n)
    return SimpleNamespace(U=U, dimension=n, _u_form=form)


def row_problem(n):
    """A U that ignores t: its window argument is the row itself."""
    return u_problem(lambda t, s, row: row, n)


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


def assert_same_bits_but_nan_sign(got, want):
    """NaN at the same entries and the same bytes at every other one: IEEE 754
    leaves a NaN's sign unspecified, and numpy's cumsum and in-place += do not
    propagate the same operand."""
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(node_rows_cases())
# inf - inf: the O(N) sum gives a NaN with the sign bit set, the sweep a positive one
@example(case=(np.array([-0.91805295, -0.85399375, -0.82628486]),
               np.array([[np.inf], [-np.inf], [np.nan]]), 1))
def test_linear_volterra_sums_equal_column_sweep(case):
    nodes, rows, n = case
    segs = list(rows)
    problem = row_problem(n)
    assert problem._u_form == "t_free"
    got = volterra_tri(problem, nodes, segs)
    assert_same_bits_but_nan_sign(got, column_tri(rows, nodes, n))
    t_nodes = np.linspace(0.0, 1.0, 4)
    got = volterra_rect(problem, t_nodes, nodes, segs)
    assert_same_bits_but_nan_sign(got, column_rect(rows, len(t_nodes), nodes, n))


def test_negative_zero_terms_sum_to_positive_zero():
    nodes = np.array([0.0, 0.5, 0.5, 1.0])
    rows = np.full((4, 1), -0.0)
    z = volterra_tri(row_problem(1), nodes, list(rows))
    assert z.tobytes() == np.zeros((4, 1)).tobytes()
    total = volterra_rect(row_problem(1), np.array([0.0, 1.0]), nodes, list(rows))
    assert total.tobytes() == np.zeros((2, 1)).tobytes()


def test_kernel_depending_on_t_keeps_the_column_sweep():
    problem = u_problem(lambda t, s, row: np.exp(-(np.asarray(t) - s)) * row[0], 1)
    assert problem._u_form == "broadcast"
    nodes = np.linspace(0.0, 1.0, 9)
    rows = np.linspace(1.0, 2.0, 9)[:, None]
    z = volterra_tri(problem, nodes, list(rows))
    ref = np.zeros((9, 1))
    for j in range(1, 9):
        vals = np.exp(-(nodes[j] - nodes[:j + 1])) * rows[:j + 1, 0]
        ref[j, 0] = np.trapezoid(vals, nodes[:j + 1])
    np.testing.assert_allclose(z, ref, rtol=1e-14, atol=1e-15)


def test_kernel_disagreeing_with_its_scalar_calls_gets_the_scalar_loop():
    # one row for a vector of t, another value for each scalar t
    problem = u_problem(lambda t, s, row: row + np.ndim(t), 1)
    assert problem._u_form == "disagrees"
    nodes = np.linspace(0.0, 1.0, 5)
    rows = np.linspace(1.0, 2.0, 5)[:, None]
    z = volterra_tri(problem, nodes, list(rows))
    assert z.tobytes() == volterra_tri(row_problem(1), nodes, list(rows)).tobytes()


def test_volterra_term_of_a_t_free_U_marked_or_not(solve_cache):
    # the form is probed at two outer times, so volterra_term's one outer time
    # takes the O(N) sum, with the bits of the column sweep of a U that returns
    # a row per t
    problem, _, traj, _ = solve_cache("windowed_impulse")
    U = problem.U
    plain = replace(problem, U=lambda t, s, w_s: U(t, s, w_s))
    per_t = replace(problem, U=lambda t, s, w_s: np.zeros(np.shape(t) + (1,)) + U(s, s, w_s))
    assert [p._u_form for p in (problem, plain, per_t)] == ["t_free", "t_free", "broadcast"]
    for t in (0.3, 0.5, problem.horizon, float(traj.main_times[7])):
        want = bits(volterra_term(per_t, traj, t))
        assert bits(volterra_term(problem, traj, t)) == bits(volterra_term(plain, traj, t)) == want


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
