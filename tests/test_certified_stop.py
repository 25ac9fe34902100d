"""The certified Picard stop: `solve_segment` ends a segment, one sweep early, once
no read of the last sweep used a bit that sweep changed.

Each segment is checked against an independent sweep built here from the
solver's parts: the returned iterate must be its own image bit for bit, and a
plain loop under the gap rule alone must reach the same bits, one sweep later
where the stop was certified and at the same sweep where it could not be.
"""

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
    solve_mild,
    solve_segment,
)
from impulsedde.quadrature import segment_grid, volterra_rect
from impulsedde.solver import _Duhamel, _mild_map
from impulsedde.trajectory import _StateView

DISC = Discretization(step=5e-3)
CTRL = PicardControl()


def convolution_U(t, s, w_s):
    # depends on its outer time t, so the Volterra sums run column by column
    return 0.4 * np.exp(-(np.asarray(t) - s)) * np.sin(w_s(-0.25)[0])


def scalar_problem(V, horizon=1.0):
    return ImpulsiveProblem(
        dimension=1, generator=[[0.0]], V=V,
        U=lambda t, s, w_s: 0.0, G=lambda s, w_s: 0.0,
        jump_maps=(), impulse_times=[], theta_offsets=[], tau_offsets=[],
        delay=0.5, history=lambda t: 1.0, horizon=horizon,
    )


def problems():
    """name -> (problem, sweeps per segment)."""
    cases = {"paper_example": (1, 1), "pure_semigroup": (1,), "method_of_steps": (2,),
             "windowed_impulse": (2, 2), "parameter_family": (2, 2)}
    out = {name: (get_entry(name).problem, sweeps) for name, sweeps in cases.items()}
    out["convolution_family"] = (replace(get_entry("parameter_family").problem, U=convolution_U),
                                 (2, 2))
    # both read the iterate's own rows, so no stop is certified: the gap rule's counts.
    # w decreases, so the sup norm of w_t is w(t - r) and its bits settle as in
    # method_of_steps: the third sweep returns the second's iterate
    out["state_coupled"] = (scalar_problem(lambda t, w_t, z: 0.5 * w_t(0.0) + 1.0), (13,))
    out["sup_norm"] = (scalar_problem(lambda t, w_t, z: -0.5 * w_t.sup_norm()), (3,))
    # the last node's read at -0.003 brackets the iterate's own last row, the one
    # row still moving once the delayed read at -0.25 has settled
    out["own_row_at_end"] = (scalar_problem(
        lambda t, w_t, z: w_t(-0.25) + (w_t(-0.003) if t == 0.5 else 0.0), 0.5), (6,))
    # in the second sweep the last node's read at -0.2488 falls between the first
    # row that sweep moves and the row below: a reach that misses the upper bracket
    # node certifies one sweep too soon
    out["edge_bracket"] = (scalar_problem(lambda t, w_t, z: w_t(-0.2488), 0.5013), (3,))
    return out


PROBLEMS = problems()
CERTIFIED = {"paper_example", "pure_semigroup", "method_of_steps", "windowed_impulse",
             "parameter_family", "convolution_family", "edge_bracket"}


def segment_sweep(problem, prefix, k, times):
    """(w(t_k^+), one sweep of the mild map on segment k's nodes `times`)."""
    n = problem.dimension
    pre = prefix._view
    w_plus = pre.values[-1] + jump_value(problem, prefix, k) if k else pre.values[-1]
    duhamel = _Duhamel(problem.generator, times)
    x0 = np.zeros((len(times), n))
    x0[0] = w_plus
    pre_t = prefix.main_times
    z_rect = volterra_rect(problem, times, pre_t, pre.windows(pre_t, prefix.main_values))

    def sweep(values):
        view = _StateView(problem.delay, np.concatenate([pre.times, times]),
                          np.concatenate([pre.values, values]))
        return _mild_map(problem, view.windows(times, values), duhamel, x0, z_rect)

    return w_plus, sweep


def gap_rule_only(problem, prefix, k, times):
    """The constant-start Picard loop under the gap rule alone: (values, sweeps)."""
    w_plus, sweep = segment_sweep(problem, prefix, k, times)
    values = np.broadcast_to(w_plus, (len(times), problem.dimension)).copy()
    best_gap, stall = np.inf, 0
    for sweeps in range(1, CTRL.max_iterations + 1):
        new = sweep(values)
        gap = float(np.max(np.abs(new - values)))
        values = new
        if gap <= max(1e-3 * CTRL.tolerance, 1e-13 * (1.0 + float(np.max(np.abs(values))))):
            break
        if gap <= CTRL.tolerance:
            stall = stall + 1 if gap > 0.7 * best_gap else 0
            if stall >= 2:
                break
        best_gap = min(best_gap, gap)
    return values, sweeps


def segments(problem):
    """Every segment as solve_mild solves it: (k, prefix, times, values, sweeps)."""
    hist_t = segment_grid(-problem.delay, 0.0, DISC.step)
    blocks = [(hist_t, problem.history_values(hist_t))]
    for k in range(problem.num_impulses + 1):
        prefix = PiecewiseTrajectory(problem.dimension, problem.delay, problem.horizon,
                                     problem.impulse_times, tuple(blocks))
        times, values, sweeps = solve_segment(problem, prefix, k, DISC, CTRL)
        yield k, prefix, times, values, sweeps
        blocks.append((times, values))


# a contraction in w_t(0) stops on the gap rule one roundoff step short of a fixed point
@pytest.mark.parametrize("name", sorted(set(PROBLEMS) - {"state_coupled"}))
def test_returned_iterate_is_a_fixed_point(name):
    problem, _ = PROBLEMS[name]
    for k, prefix, times, values, _ in segments(problem):
        _, sweep = segment_sweep(problem, prefix, k, times)
        assert sweep(values).tobytes() == values.tobytes(), f"segment {k}"


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_same_bits_as_the_gap_rule_one_sweep_sooner(name):
    problem, expected = PROBLEMS[name]
    counts = []
    for k, prefix, times, values, sweeps in segments(problem):
        reference, ref_sweeps = gap_rule_only(problem, prefix, k, times)
        assert values.tobytes() == reference.tobytes(), f"segment {k}"
        assert sweeps == ref_sweeps - (name in CERTIFIED), f"segment {k}"
        counts.append(sweeps)
    assert tuple(counts) == expected


@pytest.mark.parametrize("name", ["pure_semigroup", "paper_example"])
def test_a_certificate_never_passes_the_iteration_cap(name):
    # one sweep is certified on both, but the cap allows no confirming sweep
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations"):
        solve_mild(PROBLEMS[name][0], DISC, PicardControl(max_iterations=1))


def test_a_gap_that_stalls_below_the_tolerance_stops_the_segment():
    # V reads its own row w_t(0), so no stop is certified, and adds 4e-12 on every
    # other sweep: the gap settles near 3e-12, below the tolerance but above the
    # floor rule, and the stall rule ends the segment
    def alternating_V():
        sweeps = [0]

        def V(t, w_t, z):
            if t == 0.0:  # the first node of each sweep
                sweeps[0] += 1
            return 0.5 * w_t(0.0) + 1.0 + (4e-12 if sweeps[0] % 2 else 0.0)
        return V

    disc = Discretization(step=0.05)
    problem = scalar_problem(alternating_V())
    hist_t = segment_grid(-problem.delay, 0.0, disc.step)
    prefix = PiecewiseTrajectory(1, problem.delay, problem.horizon, problem.impulse_times,
                                 ((hist_t, problem.history_values(hist_t)),))
    times, values, sweeps = solve_segment(problem, prefix, 0, disc, CTRL)

    w_plus, sweep = segment_sweep(scalar_problem(alternating_V()), prefix, 0, times)
    iterate = np.broadcast_to(w_plus, (len(times), 1)).copy()
    gaps = []
    for _ in range(sweeps):
        new = sweep(iterate)
        gaps.append(float(np.max(np.abs(new - iterate))))
        iterate = new
    assert iterate.tobytes() == values.tobytes()
    floor = max(1e-3 * CTRL.tolerance, 1e-13 * (1.0 + float(np.max(np.abs(values)))))
    assert sweeps == 14 and sweeps < CTRL.max_iterations // 10
    # the last two gaps sit below the tolerance, above the floor, and within 0.7 of
    # the best gap before them
    best = min(gaps[:-2])
    assert all(floor < g <= CTRL.tolerance and g > 0.7 * best for g in gaps[-2:])
