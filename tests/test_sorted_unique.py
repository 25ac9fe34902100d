"""`trajectory.sorted_unique` is `np.unique` for float arrays, bit for bit, and the
grids built with it are the grids `np.unique` built."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulsedde import PiecewiseTrajectory, random_instance, sigma_diff
from impulsedde.trajectory import sorted_unique

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def float_arrays(draw):
    # a few distinct values drawn many times, so most arrays hold repeats
    pool = draw(st.lists(st.floats(width=64) | st.sampled_from(SPECIAL), min_size=1, max_size=8))
    x = np.array(draw(st.lists(st.sampled_from(pool), max_size=40)), dtype=float)
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order == "sorted":
        x = np.sort(x)
    elif order == "reversed":
        x = np.sort(x)[::-1]  # a negative-stride view
    return x


@settings(max_examples=300, deadline=None)
@given(float_arrays())
@example(np.array([]))
@example(np.array([2.5]))
@example(np.array([math.inf, 1.0, -math.inf, 1.0, math.inf]))
@example(np.array([0.0, -0.0, -0.0, 0.0]))
@example(np.array([math.nan, 1.0, -math.nan, math.nan]))
def test_equals_np_unique_bit_for_bit(x):
    before = x.copy()
    assert same_bits(sorted_unique(x), np.unique(x))
    assert same_bits(x, before)  # the input is left as it was


def unique_grid(inst):
    """`PachpatteInstance.grid` as it was built with `np.unique`."""
    pts = [np.linspace(0.0, inst.horizon, inst.grid_points)]
    for k in range(1, inst.num_impulses + 1):
        lo, hi = inst.window(k)
        pts.append(np.array([lo, hi, float(inst.impulse_times[k - 1])]))
    return np.unique(np.concatenate(pts))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_instance_grid_equals_unique_grid(seed):
    inst = random_instance(np.random.default_rng(seed))
    assert same_bits(inst.grid, unique_grid(inst))


def unique_sigma_diff(a, b):
    """`sigma_diff` as it was computed with `np.unique`."""
    grid = np.unique(np.concatenate([a.main_times, b.main_times]))
    diff = np.concatenate([a.eval_many(grid) - b.eval_many(grid), a.right_limits - b.right_limits])
    return float(np.max(np.abs(diff), initial=0.0))


def random_trajectory(rng, n, impulse_times, share=None):
    """A trajectory on [-1, 2] with random nodes; with `share`, it keeps that
    trajectory's nodes and adds some of its own, so the two grids overlap."""
    ends = [0.0, *impulse_times, 2.0]
    times = [np.array([-1.0, 0.0])]
    for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        own = rng.uniform(lo, hi, rng.integers(0, 12))
        if share is not None:
            own = np.concatenate([own, share.blocks[j + 1][0]])
        times.append(np.unique(np.concatenate([[lo, hi], own])))
    values = [rng.standard_normal((len(t), n)) for t in times]
    values[1][0] = values[0][-1]
    return PiecewiseTrajectory(n, 1.0, 2.0, impulse_times, tuple(zip(times, values)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(),
       st.lists(st.sampled_from([0.5, 0.75, 1.0, 1.5]), max_size=3, unique=True))
def test_sigma_diff_equals_unique_sigma_diff(seed, n, shared, impulse_times):
    rng = np.random.default_rng(seed)
    impulse_times = sorted(impulse_times)
    a = random_trajectory(rng, n, impulse_times)
    b = random_trajectory(rng, n, impulse_times, share=a if shared else None)
    assert same_bits(np.float64(sigma_diff(a, b)), np.float64(unique_sigma_diff(a, b)))
