"""Property tests: lazy delayed-state reads equal reads of the sampled segment.

The reference builds the sample grid of w_t directly from the trajectory:
theta = -r with the left-continuous value at t - r, every distinct node
strictly inside the window (a repeated impulse time keeps its first,
pre-jump value), and theta = 0 with w(t^-) or the given end value.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impulsedde import Discretization, HistorySegment, PiecewiseTrajectory, get_entry, solve_mild
from impulsedde.model import node_rows
from impulsedde.trajectory import _EDGE_TOL, _KEPT_READS, _Windows

HORIZON = 2.0


def reference_segment(traj, t, end_value=None):
    r = traj.delay
    times = np.concatenate([traj.blocks[0][0], traj.main_times])
    values = np.concatenate([traj.blocks[0][1], traj.main_values])
    first = np.concatenate([[True], times[1:] > times[:-1]])
    inside = first & (times > t - r) & (times < t) & (times - t > -r)
    end = traj.eval(t) if end_value is None else end_value
    thetas = np.concatenate([[-r], times[inside] - t, [0.0]])
    samples = np.concatenate([traj.eval(t - r)[None], values[inside], end[None]])
    return HistorySegment(thetas, samples)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 2))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    impulses = sorted(draw(st.sets(st.sampled_from([0.25, 0.5, 1.0, 1.25]), max_size=2)))
    # full-precision samples, so a wrong bracket shows in the last bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(a, b):
        # a subset of a linspace grid, like the solver's: inexact node times,
        # spaced widely enough that distinct nodes give distinct thetas
        grid = np.linspace(a, b, draw(st.integers(1, 48)) + 1)
        keep = draw(st.sets(st.integers(1, len(grid) - 2), max_size=10)) if len(grid) > 2 else ()
        bt = grid[sorted({0, len(grid) - 1, *keep})]
        return bt, rng.uniform(-10.0, 10.0, (len(bt), n))

    blocks = [block(-r, 0.0)]
    cuts = [0.0] + impulses + [HORIZON]
    for j, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        bt, bv = block(a, b)
        if j == 0:
            bv[0] = blocks[0][1][-1]
        blocks.append((bt, bv))
    return PiecewiseTrajectory(n, r, HORIZON, impulses, tuple(blocks))


@st.composite
def windows(draw):
    """A trajectory and a time t, biased toward the awkward windows."""
    traj = draw(trajectories())
    r = traj.delay
    nodes = np.concatenate([traj.blocks[0][0], traj.main_times])
    specials = [0.0, 0.5 * r] + [float(tk) + d for tk in traj.impulse_times
                                  for d in (0.0, 1e-3, 0.5 * r, r)]
    node = draw(st.sampled_from(nodes.tolist()))
    near_node = [node, node + r, np.nextafter(node + r, np.inf), np.nextafter(node + r, -np.inf)]
    t = draw(st.one_of(st.sampled_from(specials + near_node), st.floats(0.0, HORIZON)))
    return traj, float(min(max(t, 0.0), HORIZON))


def thetas_for(draw, traj, t):
    r = traj.delay
    nodes = np.concatenate([traj.blocks[0][0], traj.main_times])
    on_node = [float(s - t) for s in nodes if -r < s - t < 0.0]
    on_node += [float(np.nextafter(th, d)) for th in on_node for d in (-1.0, 1.0)]
    picks = draw(st.lists(st.sampled_from(on_node), max_size=6)) if on_node else []
    off_node = draw(st.lists(st.floats(-r, 0.0), min_size=1, max_size=6))
    return [-r, 0.0, np.nextafter(-r, 0.0), -5e-324] + picks + off_node


def assert_reads_match(window, ref, thetas):
    # scalar reads first, while the lazy window has built no sample grid
    scalar = [window(th) for th in thetas]
    for th, value in zip(thetas, scalar):
        assert np.array_equal(value, ref(th)), th
    assert np.array_equal(window.theta_grid, ref.theta_grid)
    assert np.array_equal(window.values, ref.values)
    assert np.array_equal(window(np.array(thetas)), ref(np.array(thetas)))
    assert window.sup_norm() == ref.sup_norm()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_history_segment_reads_match_sampled_segment(data):
    traj, t = data.draw(windows())
    window = traj.history_segment(t)
    assert isinstance(window, HistorySegment)
    assert_reads_match(window, reference_segment(traj, t), thetas_for(data.draw, traj, t))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_end_value_override(data):
    traj, t = data.draw(windows())
    end = data.draw(arrays(float, (traj.dimension,), elements=st.floats(-10.0, 10.0)))
    window = traj._view.windows(np.array([t]), end[None])[0]
    assert_reads_match(window, reference_segment(traj, t, end), thetas_for(data.draw, traj, t))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reads_beyond_edge_tolerance_raise(data):
    traj, t = data.draw(windows())
    r = traj.delay
    pad = _EDGE_TOL * (1.0 + r)
    beyond = data.draw(st.sampled_from([-r - 2.0 * pad, 2.0 * pad, -r - 1.0, 1.0]))
    window = traj.history_segment(t)
    with pytest.raises(ValueError):
        window(beyond)
    with pytest.raises(ValueError):
        window(np.array([-0.5 * r, beyond]))
    # inside the tolerance the read clamps to the end sample
    assert np.array_equal(window(0.5 * pad), reference_segment(traj, t)(0.0))



@pytest.mark.parametrize("hist_t, hist_v, t", [
    # t + theta rounds below the node that theta = node - t reads
    (np.linspace(-1.5, 0.0, 3), [-9.7, 6.3, 8.3], 0.253),
    # t - r rounds below the node at -0.8125, yet node - t rounds onto -r
    (np.array([-1.5, -0.8125, 0.0]), [1.0, 2.0, 3.0], float(np.nextafter(0.6875, -np.inf))),
])
def test_brackets_settled_in_theta_space(hist_t, hist_v, t):
    hist = (hist_t, np.array(hist_v)[:, None])
    main = (np.array([0.0, HORIZON]), np.array([[hist_v[-1]], [1.0]]))
    traj = PiecewiseTrajectory(1, 1.5, HORIZON, [], (hist, main))
    thetas = [float(s - t) for s in hist_t[1:-1]] + [-1.5, -1.0, -0.5, 0.0]
    assert_reads_match(traj.history_segment(t), reference_segment(traj, t), thetas)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reads_past_coverage_end_continue_the_end_value(data):
    full = data.draw(trajectories())
    nblocks = data.draw(st.integers(1, len(full.blocks)))
    traj = PiecewiseTrajectory(full.dimension, full.delay, full.horizon, full.impulse_times,
                               full.blocks[:nblocks])
    end = traj.coverage_end
    for frac in (0.5, 1.0):
        # history_segment accepts t up to this far past the coverage end
        t = end + frac * _EDGE_TOL * (1.0 + traj.horizon)
        # the window keeps the end node's value exactly
        ref = reference_segment(traj, t, traj.eval(end))
        assert_reads_match(traj.history_segment(t), ref, thetas_for(data.draw, traj, t))


def test_window_just_before_zero_starts_at_the_first_node():
    # history_segment accepts t a little below 0, where t - r lies before the
    # first node; w(t - r) is then that node's value, its sign of zero included
    hist = (np.linspace(-1.0, 0.0, 3), np.array([[-0.0], [1.0], [2.0]]))
    main = (np.array([0.0, HORIZON]), np.array([[2.0], [3.0]]))
    traj = PiecewiseTrajectory(1, 1.0, HORIZON, [], (hist, main))
    window = traj.history_segment(-0.5 * _EDGE_TOL)
    assert window(np.nextafter(-1.0, -np.inf)).tobytes() == hist[1][0].tobytes()
    assert window.values[0].tobytes() == hist[1][0].tobytes()


@st.composite
def sampled_segments(draw):
    n = draw(st.integers(1, 2))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    inner = draw(st.lists(st.floats(-r, 0.0).filter(lambda x: -r < x < 0.0),
                          max_size=8, unique=True))
    grid = np.array([-r] + sorted(inner) + [0.0])
    sample = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    return HistorySegment(grid, draw(arrays(float, (len(grid), n), elements=sample)))


@settings(max_examples=200, deadline=None)
@given(sampled_segments(), st.lists(st.floats(-1.5, 0.0), max_size=4))
def test_scalar_reads_equal_array_reads(segment, extra):
    g = segment.theta_grid
    thetas = [th for node in g.tolist()
              for th in (node, np.nextafter(node, -np.inf), np.nextafter(node, np.inf))]
    thetas += [-0.0, float("nan")] + [th for th in extra if th >= g[0]]
    rows = segment(np.array(thetas))
    for th, row in zip(thetas, rows):
        assert segment(th).tobytes() == row.tobytes(), th
        assert segment(np.float64(th)).tobytes() == row.tobytes(), th
    # NaN reads the theta = 0 sample, as every window reader does
    assert segment(float("nan")).tobytes() == segment.values[-1].tobytes()


def ramp():
    return PiecewiseTrajectory(1, 1.0, HORIZON, [], (
        (np.linspace(-1.0, 0.0, 5), np.arange(5.0)[:, None]),
        (np.linspace(0.0, HORIZON, 9), np.arange(4.0, 13.0)[:, None]),
    ))


@pytest.fixture()
def window_reads(monkeypatch):
    """The theta of every `_Windows.__call__` made while the test runs."""
    reads = []
    read = _Windows.__call__

    def counted(self, theta):
        reads.append(theta)
        return read(self, theta)

    monkeypatch.setattr(_Windows, "__call__", counted)
    return reads


def test_rows_read_each_theta_once(window_reads):
    windows = ramp()._view.windows(np.linspace(0.3, 1.9, 7))

    def kernel(t, w):
        # NaN, -0.0 and 0.0 all read theta = 0
        return w(-0.3) + w(np.float64(-0.3)) + w(-0.75) + w(float("nan")) + w(-0.0) + w(0.0)

    rows = node_rows(kernel, 1, windows.times, windows)
    assert sorted(window_reads) == [-0.75, -0.3, 0.0]
    a, b, c = windows(-0.3), windows(-0.75), windows(0.0)
    assert rows.tobytes() == (a + a + b + c + c + c).tobytes()


def test_a_moving_theta_keeps_a_bounded_number_of_reads():
    windows = ramp()._view.windows(np.linspace(0.3, 1.9, 7))
    for theta in np.linspace(-1.0, 0.0, 3 * _KEPT_READS).tolist():
        assert windows[3](theta).tobytes() == windows(theta)[3].tobytes()
        assert len(windows._reads) <= _KEPT_READS


def test_rows_and_their_windows_form_no_cycle():
    windows = ramp()._view.windows(np.array([0.5, 1.0, 1.5]))
    row = windows[1]
    row(-0.5)
    row.values  # build the row's sample grid too
    parent, child = weakref.ref(windows), weakref.ref(row)
    gc.disable()
    try:
        del windows
        assert parent() is not None  # a live row keeps its windows alive
        del row
        # the last row's end frees both by reference counting, not by the collector
        assert child() is None and parent() is None
    finally:
        gc.enable()


def test_kernels_and_history_segment_get_one_type():
    assert type(ramp().history_segment(0.7)) is HistorySegment
    problem = get_entry("windowed_impulse").problem
    seen = set()

    def V(t, w_t, z):  # unmarked: called node by node on rows
        seen.add(type(w_t))
        return problem.V(t, w_t, z)

    solve_mild(replace(problem, V=V), Discretization(step=0.05))
    assert seen == {HistorySegment}


def test_sample_built_segment_reads_each_theta_once(window_reads):
    segment = HistorySegment([-1.0, -0.5, 0.0], [[1.0], [3.0], [2.0]])
    for theta in (-0.75, -0.75, np.float64(-0.75), -0.25, 0.0, -0.0, float("nan")):
        segment(theta)
    assert sorted(window_reads) == [-0.75, -0.25, 0.0]


def test_segments_are_immutable():
    rows = ramp()._view.windows(np.array([0.5, 1.0]))
    for segment in (HistorySegment([-1.0, 0.0], [[1.0], [2.0]]), rows[1]):
        for name in ("theta_grid", "values", "_i", "other"):
            with pytest.raises(AttributeError):
                setattr(segment, name, 0)
        with pytest.raises(AttributeError):
            del segment.values
        assert segment(-0.5).shape == (1,)


# ---------------------------------------------------------------------------
# reads that need no bracket search

def bracket_read(windows, theta):
    """`_Windows.__call__`'s bracket search, which also read theta = -r until that
    read became a copy of the sentinel row."""
    view, ts = windows._view, windows.times
    r = view.delay
    nodes, vals, j0, j1 = view.node_times, view.node_values, windows._j0, windows._j1
    last = len(nodes) - 1
    j = np.minimum(np.maximum(np.searchsorted(nodes, ts + theta, side="right"), j0), j1) - 1
    while True:
        up = (j + 1 < j1) & (nodes[np.minimum(j + 1, last)] - ts <= theta)
        if not up.any():
            break
        j += up
    while True:
        down = (j >= j0) & (nodes[np.maximum(j, 0)] - ts > theta)
        if not down.any():
            break
        j -= down
    ja, jb = np.maximum(j, 0), np.minimum(j + 1, last)
    ga, gb = nodes[ja] - ts, nodes[jb] - ts
    va, vb = vals[ja], vals[jb]
    below, above = j < j0, j + 1 >= j1
    ga[below], va[below] = -r, windows._low[below]
    gb[above], vb[above] = 0.0, windows._high[above]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = va + ((theta - ga) / (gb - ga))[:, None] * (vb - va)
    on = theta == ga
    out[on] = va[on]
    top = j + ~(on | above)
    top[below & (on | above)] = -1
    windows.reach = max(windows.reach, int(top.max()))
    windows.read_high |= bool((above & ~on).any())
    return out


def sentinel_reach(view, times):
    """The highest view node the sentinels w((t - r)^-) interpolate from: the node
    a t - r lands on, else the first node above it (its repeat counts as one node)."""
    nodes = view.node_times
    used = [np.flatnonzero(nodes >= q)[0] if q <= nodes[-1] else len(nodes) - 1
            for q in (times - view.delay).tolist()]
    return max(used)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_read_at_minus_r_equals_the_bracket_search(data):
    traj = data.draw(trajectories())
    r, view = traj.delay, traj._view
    node = data.draw(st.sampled_from(view.node_times.tolist()))
    # t - r on a node and one ulp to either side of it
    near = [node + r, np.nextafter(node + r, np.inf), np.nextafter(node + r, -np.inf)]
    picks = data.draw(st.lists(st.one_of(st.sampled_from(near), st.floats(0.0, HORIZON)),
                               min_size=1, max_size=6))
    times = np.clip(np.array(picks, dtype=float), 0.0, HORIZON)
    got, ref = view.windows(times), view.windows(times)
    assert got(-r).tobytes() == bracket_read(ref, -r).tobytes()
    assert (got.reach, got.read_high) == (ref.reach, ref.read_high)
    assert got.reach == sentinel_reach(view, times)


def test_a_read_at_a_kept_theta_has_the_kept_bits_and_is_a_fresh_copy():
    windows = ramp()._view.windows(np.linspace(0.3, 1.9, 7))
    for row in windows:
        row(-0.3)  # the rows' scalar reads keep W(-0.3)
    first, second = windows(-0.3), windows(np.float64(-0.3))
    assert first.tobytes() == second.tobytes() == windows._reads[-0.3].tobytes()
    first[:] = 99.0
    assert windows(-0.3).tobytes() == second.tobytes()


def test_iterated_rows_equal_indexed_rows():
    windows = ramp()._view.windows(np.linspace(0.3, 1.9, 7))
    rows = list(windows)
    assert len(rows) == 7
    for i, row in enumerate(rows):
        for index in (i, i - 7, np.int64(i)):
            assert windows[index]._i == row._i == i
        assert row(-0.4).tobytes() == windows[i](-0.4).tobytes() == windows(-0.4)[i].tobytes()
    for index in (7, -8, 100):
        with pytest.raises(IndexError):
            windows[index]
    for index in (1.0, "1", None):
        with pytest.raises(TypeError):
            windows[index]
