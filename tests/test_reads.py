"""Trajectory reads through the shared state view equal the per-block reads
they replaced, bit for bit.

The reference functions are the per-block code of `eval`, `eval_right` and
`eval_many` as it stood before the reads moved onto `_StateView`: the
history block answers t <= 0 (t < 0 for right limits), the concatenated main
blocks answer the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import PiecewiseTrajectory
from impulsedde.trajectory import _EDGE_TOL

from conftest import prefixes

HORIZON = 2.0


def ref_interp(grid, vals, ts):
    # a query past either end reads that end node exactly
    ts = np.clip(np.asarray(ts, dtype=float), grid[0], grid[-1])
    idx = np.searchsorted(grid, ts, side="left")
    idx = np.clip(idx, 0, len(grid) - 1)
    exact = grid[idx] == ts
    out = np.empty(ts.shape + (vals.shape[1],))
    out[exact] = vals[idx[exact]]
    rest = ~exact
    if np.any(rest):
        hi = np.clip(idx[rest], 1, len(grid) - 1)
        lo = hi - 1
        tq = ts[rest]
        span = grid[hi] - grid[lo]
        frac = np.where(span > 0.0, (tq - grid[lo]) / np.where(span > 0.0, span, 1.0), 0.0)
        frac = np.clip(frac, 0.0, 1.0)
        out[rest] = vals[lo] + frac[:, None] * (vals[hi] - vals[lo])
    return out


def ref_eval(traj, t):
    t = float(t)
    traj._check_domain(t)
    if t <= 0.0:
        ht, hv = traj.blocks[0]
        return ref_interp(ht, hv, np.array([t]))[0]
    return ref_interp(traj.main_times, traj.main_values, np.array([t]))[0]


def ref_eval_right(traj, t):
    t = float(t)
    if t >= traj.coverage_end:
        raise ValueError("no right limit at the end of coverage")
    traj._check_domain(t)
    if t < 0.0:
        ht, hv = traj.blocks[0]
        return ref_interp(ht, hv, np.array([t]))[0]
    mt, mv = traj.main_times, traj.main_values
    if len(mt) == 0:
        return traj.blocks[0][1][-1].copy()
    i = np.searchsorted(mt, t, side="right") - 1
    if i < 0:
        return mv[0].copy()
    if mt[i] == t:
        return mv[i].copy()
    if i + 1 >= len(mt):
        return mv[-1].copy()
    frac = (t - mt[i]) / (mt[i + 1] - mt[i])
    return mv[i] + frac * (mv[i + 1] - mv[i])


def ref_eval_many(traj, ts):
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape + (traj.dimension,))
    hist = ts <= 0.0
    if np.any(hist):
        ht, hv = traj.blocks[0]
        out[hist] = ref_interp(ht, hv, ts[hist])
    if np.any(~hist):
        out[~hist] = ref_interp(traj.main_times, traj.main_values, ts[~hist])
    return out


def query_points(traj, rng):
    r, end = traj.delay, traj.coverage_end
    pad = _EDGE_TOL * (1.0 + traj.horizon + traj.delay)
    nodes = np.concatenate([traj.blocks[0][0], traj.main_times]).tolist()
    pts = [0.0, -0.0, -r, end, -r - 0.5 * pad, end + 0.5 * pad, traj.horizon]
    pts += [float(t) for t in traj.impulse_times]
    for t in nodes:
        pts += [t, float(np.nextafter(t, -np.inf)), float(np.nextafter(t, np.inf))]
    pts += rng.uniform(-r, end, 50).tolist()
    return pts


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_reads(traj, rng):
    pts = query_points(traj, rng)
    ht, hv = traj.blocks[0]
    for t in pts:
        try:
            want = ref_eval(traj, t)
        except ValueError:
            with pytest.raises(ValueError):
                traj.eval(t)
        except IndexError:
            # a history-only prefix read just past t = 0: the old split found no
            # main node there; the shared view clamps to the history block
            assert len(traj.blocks) == 1
            assert_same_bits(traj.eval(t), ref_interp(ht, hv, np.array([t]))[0])
        else:
            assert_same_bits(traj.eval(t), want)
        try:
            want = ref_eval_right(traj, t)
        except ValueError:
            with pytest.raises(ValueError):
                traj.eval_right(t)
        else:
            assert_same_bits(traj.eval_right(t), want)
    inside = np.array([t for t in pts if -traj.delay <= t <= traj.coverage_end])
    assert_same_bits(traj.eval_many(inside), ref_eval_many(traj, inside))
    grid = inside[: 4 * (len(inside) // 4)].reshape(4, -1)
    assert_same_bits(traj.eval_many(grid), ref_eval_many(traj, grid))


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 2))
    r = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    impulses = sorted(draw(st.sets(st.sampled_from([0.25, 0.5, 1.0, 1.25]), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(a, b):
        grid = np.linspace(a, b, draw(st.integers(1, 24)) + 1)
        keep = draw(st.sets(st.integers(1, len(grid) - 2), max_size=8)) if len(grid) > 2 else ()
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


@settings(max_examples=40, deadline=None)
@given(traj=trajectories(), seed=st.integers(0, 2**32 - 1))
def test_hand_built_reads_equal_per_block_reads(traj, seed):
    rng = np.random.default_rng(seed)
    for prefix in prefixes(traj):
        check_reads(prefix, rng)


@pytest.mark.parametrize("name", ["paper_example", "windowed_impulse", "parameter_family",
                                  "method_of_steps"])
def test_solved_reads_equal_per_block_reads(solve_cache, name):
    _, _, traj, _ = solve_cache(name, step=5e-3)
    rng = np.random.default_rng(17)
    for prefix in prefixes(traj):
        check_reads(prefix, rng)
