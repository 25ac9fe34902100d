"""Unmarked kernels: the t-dependent column sweep, the node loop and the shared
history samples give the bits of the per-call loops they replaced, and each
history is sampled once on the validation grid."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import (Discretization, check_dependence, get_entry, mild_residual,
                        operator_norm_bound, solve_mild, with_history)
from impulsedde.bounds import _history_gap
from impulsedde.model import as_state, node_rows, t_rows
from impulsedde.quadrature import segment_grid, volterra_tri
from test_batched import u_problem


def bits(x):
    return np.ascontiguousarray(x).tobytes()


# ---------------------------------------------------------------------------
# the t-dependent column sweep

def old_column(U, n):
    """The column reader before the sweep was slimmed: a broadcasting U's column
    normalised by `t_rows`; once an array call has failed, one scalar call per t."""
    scalar = []

    def column(ts, s, seg):
        if not scalar:
            try:
                return t_rows(U(np.asarray(ts, dtype=float), float(s), seg), len(ts), n)
            except TypeError:
                scalar.append(True)
        return np.stack([as_state(U(float(t), float(s), seg), n) for t in ts])
    return column


def old_tri(column, nodes, segs, n):
    """volterra_tri's column sweep as it was, for a U that depends on t."""
    T = len(nodes)
    z = np.zeros((T, n))
    d = np.diff(nodes)
    for i in range(T):
        left = d[i - 1] if i > 0 else 0.0
        right = d[i] if i < T - 1 else 0.0
        if left == 0.0 and right == 0.0:
            continue
        col = column(nodes[i:], nodes[i], segs[i])
        if left != 0.0:
            z[i:] += 0.5 * left * col
        if right != 0.0:
            z[i + 1:] += 0.5 * right * col[1:]
    return z


def flat_U(t, s, row):
    """(T,) for a vector of t when n = 1."""
    return np.exp(-(np.asarray(t) - s)) * row[0]


def row_U(t, s, row):
    """(T, n) for a vector of t."""
    return np.exp(-(np.asarray(t) - s))[..., None] * row


def scalar_U(t, s, row):
    """Broadcasts over nothing: math.exp takes one t at a time."""
    return math.exp(-(t - s)) * row


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 3))
    T = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.uniform(1e-3, 0.1, T - 1)
    # zero-width intervals: duplicated and triplicated nodes, as at impulse times
    steps[draw(st.lists(st.integers(0, T - 2), max_size=4))] = 0.0
    nodes = np.concatenate([[rng.uniform(-1.0, 1.0)], steps]).cumsum()
    rows = rng.uniform(-5.0, 5.0, (T, n))
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan]
    for i, j in draw(st.lists(st.tuples(st.integers(0, T - 1), st.integers(0, n - 1)),
                              max_size=4)):
        rows[i, j] = draw(st.sampled_from(special))
    if draw(st.booleans()):
        rows[:] = -0.0  # every column -0.0
    U = draw(st.sampled_from([row_U, scalar_U] + ([flat_U] if n == 1 else [])))
    return nodes, rows, n, U


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_column_sweep_equals_the_old_loop(case):
    nodes, rows, n, U = case
    segs = list(rows)
    problem = u_problem(U, n)
    assert problem._u_form == ("scalar" if U is scalar_U else "broadcast")
    got = volterra_tri(problem, nodes, segs)
    assert bits(got) == bits(old_tri(old_column(U, n), nodes, segs, n))


def test_long_sweep_equals_the_old_loop():
    rng = np.random.default_rng(3)
    nodes = np.concatenate([np.linspace(0.0, 1.0, 350), np.linspace(1.0, 2.0, 350)])
    rows = rng.uniform(-1.0, 1.0, (700, 2))
    got = volterra_tri(u_problem(row_U, 2), nodes, list(rows))
    assert bits(got) == bits(old_tri(old_column(row_U, 2), nodes, list(rows), 2))


def test_non_broadcasting_U_is_called_once_per_t():
    calls = []

    def U(t, s, row):
        calls.append(t)
        return scalar_U(t, s, row)

    problem = u_problem(U, 1)
    assert problem._u_form == "scalar"  # the probe's one array call fails
    calls.clear()
    nodes = np.array([0.0, 0.1, 0.1, 0.3, 0.6])
    rows = np.linspace(1.0, 2.0, 5)[:, None]
    volterra_tri(problem, nodes, list(rows))
    # every column calls U once per t, and the sweep makes no array call
    T = len(nodes)
    assert len(calls) == sum(T - i for i in range(T))
    assert all(type(t) is float for t in calls)


def test_long_sweep_allocates_no_square_array():
    T = 2048
    nodes = np.linspace(0.0, 1.0, T)
    segs = list(np.linspace(1.0, 2.0, T)[:, None])
    problem = u_problem(flat_U, 1)  # probed outside the traced run
    tracemalloc.start()
    try:
        volterra_tri(problem, nodes, segs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few (T,) arrays and lists of Python floats, about 0.25 MiB; one
    # T x T array would be 32 MiB
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the node loop of unmarked kernels

def old_node_rows(kernel, n, times, *args, lead=1):
    rows = np.empty((len(times), n))
    for i, node in enumerate(zip(*[times.tolist()] * lead, *args, strict=True)):
        rows[i] = as_state(kernel(*node), n)
    return rows


@pytest.mark.parametrize("n, kernel", [
    (1, lambda t: 0.1 * t - 0.0),  # Python float
    (1, lambda t: np.float64(-0.0) * t),  # numpy scalar
    (1, lambda t: np.asarray(np.sin(t))),  # 0-d array
    (1, lambda t: np.array([np.cos(t)])),  # (1,)
    (1, lambda t: t if t < 0.5 else np.array([t])),  # scalars and (1,) arrays mixed
    (2, lambda t: np.array([t, -t])),  # (n,)
    (3, lambda t: [t, 2.0 * t, np.inf]),  # a list
])
def test_node_loop_equals_per_row_conversion(n, kernel):
    times = np.linspace(0.0, 1.0, 17)
    got = node_rows(kernel, n, times)
    assert got.shape == (17, n)
    assert bits(got) == bits(old_node_rows(kernel, n, times))


@pytest.mark.parametrize("n, kernel", [
    (2, lambda t: t),  # a scalar for n = 2
    (2, lambda t: np.array([[t, t]])),  # (1, n)
    (1, lambda t: np.ones((1, 1))),  # (1, n) for n = 1
    (2, lambda t: np.zeros(2) if t < 0.5 else np.zeros(3)),  # ragged
    (1, lambda t: 1.0j),  # not a real number
])
def test_node_loop_raises_the_per_row_error(n, kernel):
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises((ValueError, TypeError)) as old:
        old_node_rows(kernel, n, times)
    with pytest.raises(old.type) as new:
        node_rows(kernel, n, times)
    assert str(new.value) == str(old.value)


def test_node_loop_of_no_nodes():
    assert node_rows(lambda t: t, 2, np.empty(0)).shape == (0, 2)
    assert node_rows(lambda t: t, 1, np.empty(0)).shape == (0, 1)


# ---------------------------------------------------------------------------
# each history sampled once

def counted(history, calls):
    def fn(t):
        calls.append(t)
        return history(t)
    return fn  # unmarked: one call per sample


def test_initial_pair_samples_each_history_once_on_the_validation_grid():
    entry = get_entry("parameter_family")
    base, lip = entry.instantiate()
    calls_a, calls_b = [], []
    a = with_history(base, counted(base.history, calls_a))
    b = with_history(base, counted(lambda t: base.history(t) + 0.1, calls_b))
    disc = Discretization(step=5e-3)
    sg = operator_norm_bound(base.generator, base.horizon)
    report = check_dependence("initial", a, b, lip, sg, disc)
    assert report.dominated
    # validation's 1,025 samples (which the gap reuses), its 9-sample kernel
    # probe, and the solver's history grid: no second pass of 1,025
    expected = 1025 + 9 + len(segment_grid(-base.delay, 0.0, disc.step))
    assert len(calls_a) == len(calls_b) == expected


def old_history_gap(a, b, samples=1025):
    ts = np.linspace(-min(a.delay, b.delay), 0.0, samples)
    return float(np.max(np.abs(a.history_values(ts) - b.history_values(ts))))


@pytest.mark.parametrize("delay_b", [0.5, 0.3, 0.7])
def test_history_gap_equals_fresh_sampling(delay_b):
    a = get_entry("parameter_family").problem
    b = replace(a, delay=delay_b, history=lambda t: 0.4 * (1.0 + t) + 0.05 * np.sin(7.0 * t))
    gap = _history_gap(a, b)
    assert gap > 0.0
    assert gap.hex() == old_history_gap(a, b).hex()


# ---------------------------------------------------------------------------
# mild_residual reads the trajectory's grid only

def test_mild_residual_ignores_the_discretization():
    problem = get_entry("windowed_impulse").problem
    traj, report = solve_mild(problem, Discretization(step=5e-3))
    # no discretization is passed: the refined grid comes from the trajectory
    again = mild_residual(problem, traj)
    fresh = mild_residual(get_entry("windowed_impulse").problem, traj)
    assert again.hex() == fresh.hex() == report.final_residual.hex()
