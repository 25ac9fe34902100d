"""Reads that land on a stored sample return that sample bit for bit.

A query past either end of a trajectory, within the edge tolerance, reads the
end node itself. A window read at a theta that is one of its samples returns
the sample, -0.0 and infinities included, and the scalar, array and batched
readers agree bit for bit everywhere else too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impulsedde import PiecewiseTrajectory

from conftest import prefixes

HORIZON = 2.0


def random_trajectory(rng, n, samples=None):
    """History and main blocks on linspace subsets, impulses at 0.5 and 1.25."""
    r = float(rng.choice([0.25, 0.5, 1.0]))
    impulses = sorted(rng.choice([0.5, 1.25], size=rng.integers(0, 3), replace=False).tolist())
    draw = samples or (lambda size: rng.uniform(-10.0, 10.0, size))

    def block(a, b):
        grid = np.linspace(a, b, int(rng.integers(1, 30)) + 1)
        keep = rng.random(len(grid)) < 0.6
        keep[[0, -1]] = True
        return grid[keep], draw((int(keep.sum()), n))

    blocks = [block(-r, 0.0)]
    cuts = [0.0] + impulses + [HORIZON]
    for j, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        bt, bv = block(a, b)
        if j == 0:
            bv[0] = blocks[0][1][-1]
        blocks.append((bt, bv))
    return PiecewiseTrajectory(n, r, HORIZON, impulses, tuple(blocks))


def test_reads_past_either_end_are_the_end_values():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        full = random_trajectory(rng, int(rng.integers(1, 3)))
        for traj in prefixes(full):
            end, start = traj.coverage_end, -traj.delay
            for t, edge in ((end + 5e-10, end), (start - 5e-10, start)):
                assert traj.eval(t).tobytes() == traj.eval(edge).tobytes()
                assert traj.eval_many([t]).tobytes() == traj.eval_many([edge]).tobytes()
            assert traj.eval(end).tobytes() == traj.blocks[-1][1][-1].tobytes()


def test_main_arrays_are_the_main_blocks_in_order():
    rng = np.random.default_rng(7)
    for _ in range(100):
        full = random_trajectory(rng, int(rng.integers(1, 3)))
        n = full.dimension
        history_only = PiecewiseTrajectory(n, full.delay, full.horizon, full.impulse_times,
                                           full.blocks[:1])
        assert history_only.main_times.shape == (0,)
        assert history_only.main_values.shape == (0, n)
        for traj in list(prefixes(full))[1:]:  # past the history-only prefix
            main = traj.blocks[1:]
            assert traj.main_times.tobytes() == np.concatenate([t for t, _ in main]).tobytes()
            assert traj.main_values.shape == (len(traj.main_times), n)
            assert traj.main_values.tobytes() == np.concatenate([v for _, v in main]).tobytes()


def test_read_on_a_negative_zero_sample_keeps_its_sign():
    hist = (np.array([-1.0, -0.5, 0.0]), np.array([[1.0], [-0.0], [2.0]]))
    main = (np.array([0.0, HORIZON]), np.array([[2.0], [3.0]]))
    traj = PiecewiseTrajectory(1, 1.0, HORIZON, [], (hist, main))
    window = traj.history_segment(0.0)
    assert window(-0.5).tobytes() == np.array([-0.0]).tobytes()
    assert window(np.array([-0.5])).tobytes() == np.array([[-0.0]]).tobytes()


special = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_three_readers_agree_on_special_samples(seed, data):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    traj = random_trajectory(
        rng, n, lambda size: data.draw(arrays(float, size, elements=special)))
    r = traj.delay
    nodes = np.concatenate([traj.blocks[0][0], traj.main_times])
    ts = np.unique(np.concatenate([rng.choice(nodes[nodes >= 0.0], 4), rng.uniform(0.0, HORIZON, 4)]))
    batched = traj._view.windows(ts)
    with np.errstate(invalid="ignore"):
        for i, t in enumerate(ts.tolist()):
            window = traj.history_segment(t)
            on_sample = [float(s - t) for s in nodes if -r <= s - t <= 0.0]
            thetas = [-r, 0.0, -0.5 * r] + on_sample + rng.uniform(-r, 0.0, 4).tolist()
            rows = window(np.array(thetas))
            for theta, row in zip(thetas, rows):
                assert window(theta).tobytes() == row.tobytes(), (t, theta)
                assert batched(theta)[i].tobytes() == row.tobytes(), (t, theta)
