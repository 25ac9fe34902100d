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
so no N x N matrix is ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ImpulsiveProblem, as_state, node_rows, validate
from .quadrature import KernelU, segment_grid, volterra_rect, volterra_tri, window_nodes
from .semigroup import apply_stack, propagator_stack
from .trajectory import PiecewiseTrajectory, _StateView, _interp_sorted

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
    quadrature: str = "trapezoid"

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if self.quadrature != "trapezoid":
            raise ValueError(f"quadrature must be 'trapezoid', got {self.quadrature!r}")


@dataclass(frozen=True)
class PicardControl:
    tolerance: float = 1e-10
    max_iterations: int = 200
    initial_iterate: str = "constant"

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
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

def _integrate_G(problem: ImpulsiveProblem, view: _StateView, k: int) -> np.ndarray:
    lo, hi = problem.jump_window(k)
    n = problem.dimension
    if hi == lo:
        return np.zeros(n)
    times = window_nodes(view.times, lo, hi)
    ends = _interp_sorted(view.times, view.values, times)
    # at an exact impulse time the integrand's one-sided value is the right limit
    for i in np.flatnonzero(np.isin(times, problem.impulse_times) & (times < hi)):
        ends[i] = view.eval_right(float(times[i]))
    vals = node_rows(problem.G, n, times, view.windows(times, ends))
    return np.trapezoid(vals, times, axis=0)


def window_integral(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, k: int) -> np.ndarray:
    """int of G(s, w_s) over [t_k - tau_k, t_k - theta_k]; exactly zero when the
    window has zero length."""
    lo, hi = problem.jump_window(k)
    if traj.coverage_end < hi - 1e-12:
        raise ValueError(f"trajectory covers only up to {traj.coverage_end}, window needs {hi}")
    return _integrate_G(problem, traj._view, k)


def jump_value(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, k: int) -> np.ndarray:
    """I_k applied to the window integral: the state jump added at t_k."""
    return as_state(problem.jump_maps[k - 1](window_integral(problem, traj, k)), problem.dimension)


def volterra_term(problem: ImpulsiveProblem, traj: PiecewiseTrajectory, t: float) -> np.ndarray:
    """int_0^t U(t, s, w_s) ds by composite trapezoid on the native nodes."""
    t = float(t)
    if t < 0.0 or t > traj.coverage_end + 1e-12:
        raise ValueError(f"t={t} outside the trajectory's coverage [0, {traj.coverage_end}]")
    n = problem.dimension
    if t == 0.0:
        return np.zeros(n)
    view = traj._view
    i1 = np.searchsorted(traj.main_times, t, side="left")
    times = np.concatenate([traj.main_times[:i1], [t]])
    values = np.concatenate([traj.main_values[:i1], traj.eval_many([t])])
    kernel = KernelU(problem)
    return volterra_rect(kernel, np.array([t]), times, view.windows(times, values), n)[0]


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


def _mild_map(problem, kernel, view, times, values, duhamel, x0, z_rect=None):
    """The mild map at the nodes `times` of the iterate `values`, read through
    `view`: `duhamel` on the plan of `times`, from x0 (the start value in row 0
    and any kicks). z_rect, the iterate-free part of the inner integral, is added
    when given (adding zeros would turn -0.0 to +0.0)."""
    n = problem.dimension
    # the stored node value is the correct one-sided sample at theta = 0
    # (post-jump at a segment start, interior values elsewhere)
    segs = view.windows(times, values)
    z = volterra_tri(kernel, times, segs, n)
    if z_rect is not None:
        z = z_rect + z
    return duhamel(x0, node_rows(problem.V, n, times, segs, z))


def solve_segment(problem, prefix: PiecewiseTrajectory, k: int, disc: Discretization,
                  control: PicardControl):
    """Fixed point of the mild map on [t_k, t_{k+1}] given the solved prefix.

    Returns (node times, node values, iteration count). The iterate history
    reads use the previous sweep (full-step Picard); iteration stops once the
    successive sup-norm gap falls below the tolerance (it is driven further,
    toward the roundoff floor, so the limit does not depend on the initial
    iterate).
    """
    n = problem.dimension
    m = problem.num_impulses
    if not 0 <= k <= m:
        raise IndexError(f"segment index {k} out of range 0..{m}")
    t_start = 0.0 if k == 0 else float(problem.impulse_times[k - 1])
    t_end = problem.horizon if k == m else float(problem.impulse_times[k])
    if abs(prefix.coverage_end - t_start) > 1e-12 * (1.0 + problem.horizon):
        raise ValueError(f"prefix covers up to {prefix.coverage_end}, segment starts at {t_start}")

    if k == 0:
        w_plus = prefix.blocks[0][1][-1]
    else:
        if len(prefix.right_limits) < k:
            raise ValueError(f"prefix lacks the right limit at t_{k}")
        w_plus = prefix.right_limits[k - 1]

    specials = problem.jump_window(k + 1) if k + 1 <= m else ()
    times = segment_grid(t_start, t_end, disc.step, specials)
    T = len(times)

    duhamel = _Duhamel(problem.generator, times)
    x0 = np.zeros((T, n))
    x0[0] = w_plus

    ht, hv = prefix.blocks[0]
    pre_t, pre_v = prefix.main_times, prefix.main_values
    kernel = KernelU(problem)
    view_times = np.concatenate([ht, pre_t, times])

    # the prefix part of the inner integral is iterate-independent
    if len(pre_t):
        z_rect = volterra_rect(kernel, times, pre_t, prefix._view.windows(pre_t, pre_v), n)
    else:
        z_rect = np.zeros((T, n))

    if control.initial_iterate == "constant":
        values = np.broadcast_to(w_plus, (T, n)).copy()
    else:
        values = w_plus[None, :] + (times - t_start)[:, None]

    tol = control.tolerance
    best_gap = np.inf
    stall = 0
    gap = np.inf
    iterations = 0
    for iterations in range(1, control.max_iterations + 1):
        view = _StateView(problem.delay, view_times, np.concatenate([hv, pre_v, values], axis=0))
        new = _mild_map(problem, kernel, view, times, values, duhamel, x0, z_rect)
        gap = float(np.max(np.abs(new - values)))
        if not math.isfinite(gap):
            # a NaN gap would fail every comparison below and run on silently
            raise ConvergenceError(k, iterations, gap, f"segment {k}: non-finite iterate "
                                   f"in sweep {iterations} (successive gap {gap})")
        values = new
        floor = 1e-13 * (1.0 + float(np.max(np.abs(values))))
        if gap <= max(1e-3 * tol, floor):
            break
        if gap <= tol:
            stall = stall + 1 if gap > 0.7 * best_gap else 0
            if stall >= 2:
                break  # roundoff floor reached below the tolerance
        best_gap = min(best_gap, gap)
    else:
        if gap > tol:
            raise ConvergenceError(k, control.max_iterations, gap)
    return times, values, iterations


def solve_mild(problem: ImpulsiveProblem,
               disc: Discretization = Discretization(),
               control: PicardControl = PicardControl()):
    """Solve the full impulsive problem on [-r, b].

    History is sampled at the discretization step, then each segment is solved
    in turn; the integral jump is applied at every impulse and the assembled
    trajectory is checked against the defining identity (final_residual).
    """
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))
    n = problem.dimension
    r, b = problem.delay, problem.horizon
    hist_t = segment_grid(-r, 0.0, disc.step)
    hist_v = problem.history_values(hist_t)

    blocks = [(hist_t, hist_v)]
    right_limits = np.zeros((0, n))
    jumps = []
    iterations = []
    m = problem.num_impulses
    for k in range(m + 1):
        prefix = PiecewiseTrajectory(n, r, b, problem.impulse_times, tuple(blocks), right_limits)
        times, values, iters = solve_segment(problem, prefix, k, disc, control)
        blocks.append((times, values))
        iterations.append(iters)
        if k < m:
            current = PiecewiseTrajectory(n, r, b, problem.impulse_times, tuple(blocks), right_limits)
            w_left = values[-1]
            w_right = w_left + jump_value(problem, current, k + 1)
            jumps.append(w_right - w_left)  # recorded as the stored difference
            right_limits = np.vstack([right_limits, w_right[None, :]])

    traj = PiecewiseTrajectory(n, r, b, problem.impulse_times, tuple(blocks), right_limits)
    residual = mild_residual(problem, traj, disc)
    if not math.isfinite(residual):
        raise ConvergenceError(m, iterations[-1], residual, f"mild residual {residual} is not finite")
    report = SolveReport(tuple(iterations), residual, tuple(jumps))
    return traj, report


# ---------------------------------------------------------------------------
# defect of the defining identity

def _refine_block(bt: np.ndarray, bv: np.ndarray):
    """Insert interval midpoints; values at midpoints follow the stored linear
    interpolation, so the refinement adds quadrature nodes without changing w."""
    T = len(bt)
    rt = np.empty(2 * T - 1)
    rv = np.empty((2 * T - 1, bv.shape[1]))
    rt[0::2] = bt
    rt[1::2] = 0.5 * (bt[:-1] + bt[1:])
    rv[0::2] = bv
    rv[1::2] = 0.5 * (bv[:-1] + bv[1:])
    native = np.zeros(2 * T - 1, dtype=bool)
    native[0::2] = True
    return rt, rv, native


def mild_residual(problem: ImpulsiveProblem, traj: PiecewiseTrajectory,
                  disc: Discretization = Discretization()) -> float:
    """Sup defect of w(t) against the mild formula at the native nodes.

    All integrals are recomputed on the trajectory's own nodes plus their
    midpoints; right limits at impulse times are checked via eval_right. `disc`
    is ignored: the refined grid comes from the trajectory alone.
    """
    n = problem.dimension
    if not traj.complete:
        raise ValueError("mild_residual needs a trajectory covering [0, horizon]")
    rts, rvs, natives = [], [], []
    for bt, bv in traj.blocks[1:]:
        # each block's first node already carries its one-sided (post-jump) value
        rt, rv, nat = _refine_block(bt, bv)
        rts.append(rt)
        rvs.append(rv)
        natives.append(nat)
    sigma = np.concatenate(rts)
    w_ref = np.concatenate(rvs, axis=0)
    native = np.concatenate(natives)

    ht, hv = traj.blocks[0]
    view = _StateView(problem.delay, np.concatenate([ht, sigma]),
                      np.concatenate([hv, w_ref], axis=0))
    # each jump enters as a kick at the post-jump copy of t_k, where the step is 0
    x0 = np.zeros((len(sigma), n))
    x0[0] = hv[-1]
    for k in range(1, problem.num_impulses + 1):
        tk = float(problem.impulse_times[k - 1])
        wI = as_state(problem.jump_maps[k - 1](_integrate_G(problem, view, k)), n)
        x0[np.searchsorted(sigma, tk, side="right") - 1] += wI
    rhs = _mild_map(problem, KernelU(problem), view, sigma, w_ref,
                    _Duhamel(problem.generator, sigma), x0)

    defect = np.max(np.abs(w_ref - rhs), axis=1)
    return float(np.max(defect[native]))
