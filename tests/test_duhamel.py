"""The forward Duhamel step equals the trapezoid sum it replaced, and stays
stable where e^{-At} does not exist in floating point.

The reference is the sum as the solver formed it before: every node's
e^{+A tau} and e^{-A tau}, w(t) = e^{A tau} (w0 + cumtrap(e^{-A tau} v)), plus
each kick x_j carried forward by e^{A (tau - tau_j)}.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import impulsedde.solver as solver
from impulsedde import Discretization, ImpulsiveProblem, PicardControl, get_entry, solve_mild
from impulsedde.quadrature import cumtrap, segment_grid
from impulsedde.semigroup import apply_stack, propagator_stack
from impulsedde.solver import _Duhamel


def reference_step(A, times, x0, v):
    tau = times - times[0]
    fwd, bwd = propagator_stack(A, tau), propagator_stack(A, -tau)
    out = apply_stack(fwd, x0[0][None, :] + cumtrap(times, apply_stack(bwd, v)))
    for j in np.flatnonzero(np.any(x0[1:] != 0.0, axis=1)) + 1:
        kick = np.broadcast_to(x0[j], (len(times) - j, len(x0[j])))
        out[j:] += apply_stack(propagator_stack(A, times[j:] - times[j]), kick)
    return out


@st.composite
def duhamel_cases(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(-1.0, 1.0, (n, n))
    # a few step widths, as on a segment grid, and zero steps: duplicated nodes
    widths = rng.uniform(1e-3, 0.1, draw(st.integers(1, 4)))
    steps = draw(st.lists(st.integers(0, len(widths)), min_size=1, max_size=60))
    h = np.array([0.0 if i == len(widths) else widths[i] for i in steps])
    times = 0.25 + np.concatenate([[0.0], np.cumsum(h)])
    x0 = np.zeros((len(times), n))
    x0[0] = rng.uniform(-1.0, 1.0, n)
    kicks = draw(st.sets(st.integers(1, len(times) - 1), max_size=3)) if len(times) > 1 else ()
    for j in kicks:
        x0[j] = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, (len(times), n))
    return A, times, x0, v


@settings(max_examples=200, deadline=None)
@given(duhamel_cases())
def test_forward_step_equals_the_two_sided_sum(case):
    A, times, x0, v = case
    got = _Duhamel(A, times)(x0, v)
    want = reference_step(A, times, x0, v)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_step_leaves_its_inputs_alone():
    A, times = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.linspace(0.0, 1.0, 11)
    x0, v = np.zeros((11, 2)), np.ones((11, 2))
    x0[0] = [1.0, 2.0]
    kept = x0.copy()
    duhamel = _Duhamel(A, times)
    first = duhamel(x0, v)
    assert np.array_equal(x0, kept)
    assert np.array_equal(duhamel(x0, v), first)  # the plan is reused unchanged


def homogeneous_problem(A, w0, horizon=1.0):
    n = len(w0)
    zero = lambda *args: np.zeros(n)
    return ImpulsiveProblem(
        dimension=n, generator=A, V=zero, U=zero, G=zero,
        jump_maps=(), impulse_times=[], theta_offsets=[], tau_offsets=[],
        delay=0.5, history=lambda t: np.array(w0, dtype=float), horizon=horizon,
    )


def test_non_normal_generator_matches_expm():
    # ||e^{At}|| grows to about 7 before it decays to e^{-50}; e^{-At} reaches
    # e^{60}, where the two-sided sum lost every digit
    A = np.array([[-50.0, 1000.0], [0.0, -60.0]])
    w0 = np.array([0.3, -0.7])
    with np.errstate(over="raise", invalid="raise"):
        traj, report = solve_mild(homogeneous_problem(A, w0), Discretization(step=1e-2),
                                  PicardControl())
    times, values = traj.blocks[1]
    for t, w in zip(times, values):
        exact = scipy.linalg.expm(A * t) @ w0
        assert np.max(np.abs(w - exact)) <= 1e-10 * np.max(np.abs(exact)), t
    assert np.isfinite(report.final_residual)


def test_one_exponential_per_distinct_step(monkeypatch):
    calls = []

    def recording(A, dts):
        calls.append(np.asarray(dts, dtype=float))
        return propagator_stack(A, dts)

    monkeypatch.setattr(solver, "propagator_stack", recording)
    problem = get_entry("windowed_impulse").problem
    disc = Discretization(step=5e-3)
    solve_mild(problem, disc, PicardControl())
    # one call per segment, then one for the residual's refined grid
    assert len(calls) == problem.num_impulses + 2
    tk = float(problem.impulse_times[0])
    grids = [segment_grid(0.0, tk, disc.step, problem.jump_window(1)),
             segment_grid(tk, problem.horizon, disc.step)]
    for dts, grid in zip(calls, grids):
        assert np.array_equal(dts, np.unique(np.diff(grid)))
    assert len(np.unique(calls[-1])) == len(calls[-1])
    assert sum(len(dts) for dts in calls) <= 30
