import numpy as np
import pytest

from impulsedde import Discretization, PicardControl, PiecewiseTrajectory, get_entry, solve_mild


def prefixes(traj):
    """Every prefix of a trajectory, one per block count: the history alone, then
    each prefix ending at t_k^- (or at the horizon)."""
    for nmain in range(len(traj.blocks)):
        yield PiecewiseTrajectory(traj.dimension, traj.delay, traj.horizon, traj.impulse_times,
                                  traj.blocks[: nmain + 1])


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized catalog solves shared across test modules."""
    cache = {}

    def get(name, step=2e-3, iterate="constant", **params):
        key = (name, step, iterate, tuple(sorted(params.items())))
        if key not in cache:
            entry = get_entry(name)
            problem, lip = entry.instantiate(**params)
            traj, report = solve_mild(
                problem,
                Discretization(step=step),
                PicardControl(initial_iterate=iterate),
            )
            cache[key] = (problem, lip, traj, report)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
