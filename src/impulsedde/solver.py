"""Mild-solution solver: segment-wise Picard iteration with trapezoid quadrature.

Each inter-impulse segment [t_k, t_{k+1}] is solved as a fixed point of

    w(t) = T(t - t_k) w(t_k^+) + int_{t_k}^t T(t - s) V(s, w_s, z(s)) ds,
    z(s) = int_0^s U(s, sigma, w_sigma) dsigma,

restarting from the jumped value after each impulse. The Duhamel integral is
the trapezoid rule propagated forward, Y_{j+1} = E_j Y_j + (h_j/2)(E_j v_j +
v_{j+1}) with E_j = T(h_j), run as a doubling scan over a plan of forward
propagators that each segment builds once (`_Duhamel`); T(-s) is never formed,
so a stiff generator decays instead of overflowing. Each sweep reads the delayed
states of all its nodes through one `_Windows` view; a V or G marked
`batched` is called once over all nodes, any other once per node
(`node_rows`). The double Volterra integral is one O(N) cumulative sum for a
U that ignores its outer time t and is accumulated column by column otherwise,
each column added in place, so no N x N matrix is ever materialized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import ImpulsiveProblem, node_rows, validate
from .quadrature import segment_grid, volterra_rect, volterra_tri, window_jump, window_sum
from .semigroup import apply_stack, propagator_stack
from .trajectory import PiecewiseTrajectory, _StateView

__all__ = [
    "Discretization",
    "PicardControl",
    "SolveReport",
    "ConvergenceError",
    "volterra_term",
    "window_integral",
    "jump_value",
    "solve_segment",
    "solve_mild",
    "mild_residual",
]


@dataclass(frozen=True)
class Discretization:
    step: float = 1e-3

    def __post_init__(self):
        if isinstance(self.step, bool) or not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")


@dataclass(frozen=True)
class PicardControl:
    tolerance: float = 1e-10
    max_iterations: int = 200
    initial_iterate: str = "constant"

    def __post_init__(self):
        if isinstance(self.tolerance, bool) or not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")
        if self.initial_iterate not in ("constant", "ramp"):
            raise ValueError("initial_iterate must be 'constant' or 'ramp', "
                             f"got {self.initial_iterate!r}")


@dataclass(frozen=True)
class SolveReport:
    iterations_per_segment: tuple
    final_residual: float
    jumps: tuple


class ConvergenceError(RuntimeError):
    """Picard iteration failed to contract within the allotted iterations, or
    the solve produced a non-finite value (`reason` then says which)."""

    def __init__(self, segment_index: int, iterations: int, last_gap: float, reason=None):
        self.segment_index = segment_index
        self.iterations = iterations
        self.last_gap = last_gap
        super().__init__(reason or (
            f"segment {segment_index}: no convergence after {iterations} iterations "
            f"(last successive gap {last_gap:.3e})"
        ))


# ---------------------------------------------------------------------------
# public quadrature operations

def window_integral(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, k: int) -> np.ndarray:
    """int of G(s, w_s) over [t_k - tau_k, t_k - theta_k]; exactly zero when the
    window has zero length."""
    return window_sum(problem, traj._view, k)


def jump_value(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, k: int) -> np.ndarray:
    """I_k applied to the window integral: the state jump added at t_k."""
    return window_jump(problem, traj._view, k)


def volterra_term(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, t: float) -> np.ndarray:
    """int_0^t U(t, s, w_s) ds by composite trapezoid on the native nodes."""
    t = float(t)
    if not 0.0 <= t <= traj.coverage_end + 1e-12:
        raise ValueError(f"t={t} outside the trajectory's coverage [0, {traj.coverage_end}]")
    view = traj._view
    i1 = np.searchsorted(traj.main_times, t, side="left")
    times = np.concatenate([traj.main_times[:i1], [t]])
    values = np.concatenate([traj.main_values[:i1], traj.eval_many([t])])
    return volterra_rect(problem, np.array([t]), times, view.windows(times, values))[0]


# ---------------------------------------------------------------------------
# Picard iteration

class _Duhamel:
    """The trapezoid Duhamel step on the nodes `times`, propagated forward:
    Y_0 = x_0, Y_{j+1} = E_j Y_j + (h_j / 2)(E_j v_j + v_{j+1}) + x_{j+1}, E_j = e^{A h_j},
    so x_0 and each kick x_j are carried forward too. It runs as the doubling scan
    x[d:] += P_d x[:-d] with P_d = e^{A (t[d:] - t[:-d])}: exact span exponentials
    for n = 1, else products of one `propagator_stack` of the distinct steps."""

    def __init__(self, A: np.ndarray, times: np.ndarray):
        h = np.diff(times)
        self.half = 0.5 * h[:, None]
        self.strides = [1 << i for i in range((len(times) - 1).bit_length())]
        if A.shape[0] == 1:
            self.levels = [np.exp(A[0, 0] * (times[d:] - times[:-d]))[:, None] for d in self.strides]
            return
        widths, which = np.unique(h, return_inverse=True)
        self.levels = [propagator_stack(A, widths)[which]]
        for d in self.strides[:-1]:
            self.levels.append(self.levels[-1][d:] @ self.levels[-1][:-d])

    def __call__(self, x0: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = x0.copy()
        x[1:] += self.half * (apply_stack(self.levels[0], v[:-1]) + v[1:])
        for d, P in zip(self.strides, self.levels):
            x[d:] += apply_stack(P, x[:-d])
        return x


def _mild_map(problem, segs, duhamel, x0, z_rect=None):
    """The mild map at the nodes `segs.times` of the iterate whose windows are
    `segs` (a `_Windows` whose ends are the iterate's rows): `duhamel` on the plan
    of those times, from x0 (the start value in row 0 and any kicks). z_rect, the
    iterate-free part of the inner integral, is added when given (adding zeros
    would turn -0.0 to +0.0)."""
    z = volterra_tri(problem, segs.times, segs)
    if z_rect is not None:
        z = z_rect + z
    return duhamel(x0, node_rows(problem.V, problem.dimension, segs.times, segs, z))


def solve_segment(problem, prefix: PiecewiseTrajectory, k: int, disc: Discretization,
                  control: PicardControl):
    """Fixed point of the mild map on [t_k, t_{k+1}] given the solved prefix.

    The prefix ends at t_k^- (at 0 for k = 0), and values[0] is w(t_k^+): its end
    value plus `jump_value` at t_k when k >= 1. Returns (node times, node values,
    sweeps run). The iterate history reads use the previous sweep (full-step
    Picard); iteration stops once the successive sup-norm gap falls below the
    tolerance (it is driven further, toward the roundoff floor, so the limit does
    not depend on the initial iterate), or once the iterate is certified to be a
    fixed point: no read of the last sweep used a node whose bits that sweep
    changed (the sentinels w((t - r)^-) included), nor the iterate's own rows at
    theta = 0. The kernels are pure, so the next sweep would read the same bits
    and return the same iterate; that sweep is skipped, unless it would pass
    `max_iterations`.
    """
    n = problem.dimension
    m = problem.num_impulses
    if not 0 <= k <= m:
        raise IndexError(f"segment index {k} out of range 0..{m}")
    t_start = 0.0 if k == 0 else float(problem.impulse_times[k - 1])
    t_end = problem.horizon if k == m else float(problem.impulse_times[k])
    if abs(prefix.coverage_end - t_start) > 1e-12 * (1.0 + problem.horizon):
        raise ValueError(f"prefix covers up to {prefix.coverage_end}, segment starts at {t_start}")

    w_plus = prefix.blocks[-1][1][-1]
    if k >= 1:
        w_plus = w_plus + jump_value(problem, prefix, k)

    specials = problem.jump_window(k + 1) if k + 1 <= m else ()
    times = segment_grid(t_start, t_end, disc.step, specials)
    T = len(times)

    duhamel = _Duhamel(problem.generator, times)
    x0 = np.zeros((T, n))
    x0[0] = w_plus

    pre = prefix._view
    view_times = np.concatenate([pre.times, times])
    # the prefix part of the inner integral is iterate-independent
    pre_t = prefix.main_times
    z_rect = volterra_rect(problem, times, pre_t, pre.windows(pre_t, prefix.main_values))

    if control.initial_iterate == "constant":
        values = np.broadcast_to(w_plus, (T, n)).copy()
    else:
        values = w_plus[None, :] + (times - t_start)[:, None]

    tol = control.tolerance
    best_gap = np.inf
    stall = 0
    for iterations in range(1, control.max_iterations + 1):
        view = _StateView(problem.delay, view_times, np.concatenate([pre.values, values], axis=0))
        # the stored node value is the correct one-sided sample at theta = 0
        # (post-jump at a segment start, interior values elsewhere)
        segs = view.windows(times, values)
        new = _mild_map(problem, segs, duhamel, x0, z_rect)
        gap = float(np.max(np.abs(new - values)))
        if not math.isfinite(gap):
            # a NaN gap would fail every comparison below and run on silently
            raise ConvergenceError(k, iterations, gap, f"segment {k}: non-finite iterate "
                                   f"in sweep {iterations} (successive gap {gap})")
        # the first row whose bits moved (-0.0 and NaN count), as a view node; the
        # view keeps the prefix's copy of t_k in place of row 0
        moved = np.any(new.view(np.int64) != values.view(np.int64), axis=1)
        first_moved = len(view.node_times) - T + int(np.argmax(moved))
        values = new
        floor = 1e-13 * (1.0 + float(np.max(np.abs(values))))
        if gap <= max(1e-3 * tol, floor):
            break
        if gap <= tol:
            stall = stall + 1 if gap > 0.7 * best_gap else 0
            if stall >= 2:
                break  # roundoff floor reached below the tolerance
        best_gap = min(best_gap, gap)
        if iterations < control.max_iterations and segs.reach < first_moved and not segs.read_high:
            break  # certified: the next sweep would read the same bits, so return them
    else:
        if gap > tol:
            raise ConvergenceError(k, control.max_iterations, gap)
    return times, values, iterations


def solve_mild(problem: ImpulsiveProblem,
               disc: Discretization = Discretization(),
               control: PicardControl = PicardControl()):
    """Solve the full impulsive problem on [-r, b].

    History is sampled at the discretization step, then each segment is solved
    in turn from the trajectory so far (`solve_segment` applies the integral
    jump at its start); the assembled trajectory is checked against the
    defining identity (final_residual).
    """
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))
    n = problem.dimension
    r, b = problem.delay, problem.horizon
    hist_t = segment_grid(-r, 0.0, disc.step)
    blocks, iterations, m = [(hist_t, problem.history_values(hist_t))], [], problem.num_impulses

    def trajectory():
        return PiecewiseTrajectory(n, r, b, problem.impulse_times, tuple(blocks))

    for k in range(m + 1):
        times, values, iters = solve_segment(problem, trajectory(), k, disc, control)
        blocks.append((times, values))
        iterations.append(iters)

    traj = trajectory()
    jumps = tuple(v[0] - u[-1] for (_, u), (_, v) in zip(blocks[1:], blocks[2:]))
    residual = mild_residual(problem, traj)
    if not math.isfinite(residual):
        raise ConvergenceError(m, iterations[-1], residual, f"mild residual {residual} is not finite")
    report = SolveReport(tuple(iterations), residual, jumps)
    return traj, report


# ---------------------------------------------------------------------------
# defect of the defining identity

def mild_residual(problem: ImpulsiveProblem, traj: PiecewiseTrajectory) -> float:
    """Sup defect of w(t) against the mild formula at the native nodes.

    All integrals are recomputed on the trajectory's own nodes plus their
    midpoints; each jump enters as a kick at the post-jump copy of its t_k, so
    the right limit there is checked as a stored node.
    """
    n = problem.dimension
    if not traj.complete:
        raise ValueError("mild_residual needs a trajectory covering [0, horizon]")
    # midpoints follow the stored linear interpolation, so they add quadrature
    # nodes without changing w; each t_k's two copies (pre- and post-jump value)
    # bound a zero-width step, which gets none
    t, w = traj.main_times, traj.main_values
    sigma = np.empty(2 * len(t) - 1)
    sigma[0::2] = t
    sigma[1::2] = 0.5 * (t[:-1] + t[1:])
    w_ref = np.empty((len(sigma), n))
    w_ref[0::2] = w
    w_ref[1::2] = 0.5 * (w[:-1] + w[1:])
    keep = np.ones(len(sigma), dtype=bool)
    keep[1::2] = t[1:] != t[:-1]
    at = np.flatnonzero(keep)  # even positions are the stored nodes
    sigma, w_ref = sigma[at], w_ref[at]

    ht, hv = traj.blocks[0]
    view = _StateView(problem.delay, np.concatenate([ht, sigma]),
                      np.concatenate([hv, w_ref], axis=0))
    # each jump enters as a kick at the post-jump copy of t_k, where the step is 0
    x0 = np.zeros((len(sigma), n))
    x0[0] = hv[-1]
    for k in range(1, problem.num_impulses + 1):
        tk = float(problem.impulse_times[k - 1])
        x0[np.searchsorted(sigma, tk, side="right") - 1] += window_jump(problem, view, k)
    rhs = _mild_map(problem, view.windows(sigma, w_ref), _Duhamel(problem.generator, sigma), x0)

    defect = np.max(np.abs(w_ref - rhs), axis=1)
    return float(np.max(defect[at % 2 == 0]))
