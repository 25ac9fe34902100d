"""Impulse-aware integral inequality, existence certificate, and growth bounds.

The central object is the inequality instance

    u(t) <= n(t) + int_0^t f u + int_0^t f(s) (int_0^s g u) ds
            + sum_{0 < t_k < t} beta_k int_{t_k - tau_k}^{t_k - theta_k} u(s) ds,

whose closed-form consequence is u(t) <= n(t) * prod C_k * exp(int_{t_alpha}^t
f [1 + int_0^s g]), with per-impulse constants C_k. The a-priori solution bound
and the three data-dependence bounds all reduce to this machinery with
f = M N_V, g = N_U and beta_k = M L_G D_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .model import ImpulsiveProblem, LipschitzData, batched, node_rows
from .quadrature import cumtrap, segment_grid, volterra_tri, window_jump
from .semigroup import SemigroupBound
from .solver import Discretization, PicardControl, solve_mild
from .trajectory import _StateView, require_comparable, sigma_diff, sorted_unique

__all__ = [
    "PachpatteInstance",
    "BoundReport",
    "CertificateReport",
    "DependenceReport",
    "DivergenceError",
    "compute_Ck",
    "pachpatte_bound",
    "pachpatte_curve",
    "maximal_solution",
    "build_oracle_grid",
    "existence_certificate",
    "apriori_bound",
    "dependence_initial_bound",
    "dependence_parameter_bound",
    "dependence_function_bound",
    "check_dependence",
    "random_instance",
]


class DivergenceError(RuntimeError):
    """The maximal-solution sweep overflowed or exhausted its sweep budget."""


def _sample(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """fn at each x of the 1-D array xs, as floats: one call on a copy of xs when
    fn is marked `batched` (it must return xs's shape), else one call per point."""
    if getattr(fn, "batched", False):
        out = np.asarray(fn(xs.copy()), dtype=float)  # a copy: fn must not write into xs
        if out.shape != xs.shape:
            raise ValueError(f"a batched callable returned shape {out.shape} for times {xs.shape}")
        return out
    return np.array([float(fn(float(x))) for x in xs])


def _exp(xs: np.ndarray) -> np.ndarray:
    """math.exp of each element of the 1-D array xs.

    np.exp would be faster, but on 200,000 inputs in [-5, 5] it is 1 ulp off libm
    on 4.7% of them, and libm is the nearer in 297 of 300 of those (mpmath, 200
    bits); numpy also takes its SIMD float64 exp only on AVX512 CPUs, so the
    bounds' bits would depend on the CPU that runs them.
    """
    return np.fromiter(map(math.exp, xs.tolist()), float, len(xs))


@dataclass(frozen=True)
class PachpatteInstance:
    """Data of the impulsive inequality; hosts its quadrature tables.

    The horizon, each beta_k >= 0 and each impulse time must be finite; n must be
    finite, positive and nondecreasing, f and g finite and nonnegative (checked on
    the instance grid at construction), and each window [t_k - tau_k, t_k - theta_k]
    must sit inside the preceding inter-impulse interval.
    """

    n: Callable
    f: Callable
    g: Callable
    impulse_times: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    tau: np.ndarray
    horizon: float
    grid_points: int = 2048

    def __post_init__(self):
        for name in ("impulse_times", "beta", "theta", "tau"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "grid_points", int(self.grid_points))
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and > 0")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        m = len(self.impulse_times)
        if not (len(self.beta) == len(self.theta) == len(self.tau) == m):
            raise ValueError("beta, theta, tau must match the impulse count")
        if not np.all((self.beta >= 0.0) & (self.beta < math.inf)):
            raise ValueError("beta_k must be finite and >= 0")
        tk = self.impulse_times
        if not (np.all((tk > 0.0) & (tk <= self.horizon)) and np.all(np.diff(tk) > 0.0)):
            raise ValueError("impulse times must be strictly increasing inside (0, horizon]")
        prev = 0.0
        for k in range(m):
            if not (0.0 <= self.theta[k] <= self.tau[k] <= tk[k] - prev + 1e-12):
                raise ValueError(
                    f"window offsets violate 0 <= theta_k <= tau_k <= t_k - t_(k-1) at k={k + 1}"
                )
            prev = tk[k]
        # sampled finiteness, sign and monotonicity checks; NaN fails every
        # comparison, so each one states what a valid sample passes
        nv = _sample(self.n, self.grid)
        if (not np.all((nv > 0.0) & (nv < math.inf))
                or np.any(np.diff(nv) < -1e-12 * (1.0 + np.max(np.abs(nv))))):
            raise ValueError("n(t) must be finite, positive and nondecreasing on the grid")
        self._tables  # checks f and g on the samples it tabulates

    @property
    def num_impulses(self) -> int:
        return len(self.impulse_times)

    def window(self, k: int) -> tuple:
        tk = float(self.impulse_times[k - 1])
        return tk - float(self.tau[k - 1]), tk - float(self.theta[k - 1])

    @cached_property
    def grid(self) -> np.ndarray:
        """Master quadrature grid: uniform nodes joined with every breakpoint."""
        pts = [np.linspace(0.0, self.horizon, self.grid_points)]
        for k in range(1, self.num_impulses + 1):
            lo, hi = self.window(k)
            pts.append(np.array([lo, hi, float(self.impulse_times[k - 1])]))
        return sorted_unique(np.concatenate(pts))

    @cached_property
    def _tables(self):
        xs = self.grid
        fv, gv = _sample(self.f, xs), _sample(self.g, xs)
        for name, vals in (("f", fv), ("g", gv)):
            if not np.all((vals >= 0.0) & (vals < math.inf)):
                raise ValueError(f"{name}(t) must be finite and nonnegative on the grid")
        G = cumtrap(xs, gv)
        phi = fv * (1.0 + G)
        F = cumtrap(xs, phi)
        return fv, gv, G, phi, F

    def _F_at(self, ts: np.ndarray) -> np.ndarray:
        """int_0^t f[1 + int_0^s g] at each t: the table value on a grid node, else
        the node's value plus one trapezoid, with f and g sampled at the off-node
        t only."""
        xs = self.grid
        _, gv, G, phi, F = self._tables
        i = np.maximum(xs.searchsorted(ts, side="right") - 1, 0)
        out = F[i]
        off = np.nonzero((xs[i] != ts) & (i != len(xs) - 1))[0]
        if not off.size:
            return out
        t, i = ts[off], i[off]
        G_t = G[i] + 0.5 * (t - xs[i]) * (gv[i] + _sample(self.g, t))
        out[off] = F[i] + 0.5 * (t - xs[i]) * (phi[i] + _sample(self.f, t) * (1.0 + G_t))
        return out

    @cached_property
    def _alpha_tables(self) -> tuple:
        """F at t_alpha and prod_{k <= alpha} C_k, indexed by alpha = 0..m (t_0 = 0)."""
        F_alpha = self._F_at(np.concatenate([[0.0], self.impulse_times]))
        prods = np.array([float(np.prod(self.Ck_values[:a])) if a else 1.0
                          for a in range(self.num_impulses + 1)])
        return F_alpha, prods

    @cached_property
    def Ck_values(self) -> tuple:
        return tuple(compute_Ck(self, k) for k in range(1, self.num_impulses + 1))


@dataclass(frozen=True)
class BoundReport:
    Ck: tuple
    alpha_index: int
    value: float


@dataclass(frozen=True)
class CertificateReport:
    lhs: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class DependenceReport:
    kind: str
    empirical: float
    theoretical: float
    residual_budget: float
    dominated: bool


def compute_Ck(inst: PachpatteInstance, k: int) -> float:
    """Per-impulse amplification constant

    C_k = exp(int_{t_{k-1}}^{t_k} f[1 + int_0^s g])
          + beta_k int_{t_k-tau_k}^{t_k-theta_k} exp(int_{t_{k-1}}^s f[1 + int g]) ds.
    """
    if not 1 <= k <= inst.num_impulses:
        raise IndexError(f"impulse index {k} out of range 1..{inst.num_impulses}")
    t_prev = 0.0 if k == 1 else float(inst.impulse_times[k - 2])
    t_k = float(inst.impulse_times[k - 1])
    lo, hi = inst.window(k)
    # all four are grid nodes, where `_F_at` returns the F table's value exactly
    i_prev, i_k, a, b = inst.grid.searchsorted((t_prev, t_k, lo, hi))
    F = inst._tables[4]
    F_prev = F[i_prev]
    term1 = math.exp(F[i_k] - F_prev)
    if hi <= lo:
        return term1
    vals = _exp(F[a:b + 1] - F_prev)
    return term1 + float(inst.beta[k - 1]) * float(np.trapezoid(vals, inst.grid[a:b + 1]))


def pachpatte_curve(inst: PachpatteInstance, ts) -> np.ndarray:
    """Closed-form bound n(t) * prod_{t_k < t} C_k * exp(int_{t_alpha}^t f[1+int g])
    at every t of the 1-D array ts, in any order.

    alpha resolves to the last impulse strictly before t; with no impulse before
    t the exponential integrates from 0. n is sampled on ts, and f and g at the
    t off the instance grid.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-D array of times")
    bad = ts[~((ts >= 0.0) & (ts <= inst.horizon + 1e-12))]
    if bad.size:
        raise ValueError(f"t={bad[0]} outside [0, {inst.horizon}]")
    # strictly-before count: u is left-continuous at t_k, so at t = t_k the
    # resolved alpha must match the product's strict index set
    alpha = inst.impulse_times.searchsorted(ts, side="left")
    F_alpha, prods = inst._alpha_tables
    return _sample(inst.n, ts) * prods[alpha] * _exp(inst._F_at(ts) - F_alpha[alpha])


def pachpatte_bound(inst: PachpatteInstance, t: float) -> BoundReport:
    """The bound curve at one point, with alpha and the C_k; loops over many t
    should call `pachpatte_curve` once instead."""
    t = float(t)
    value = float(pachpatte_curve(inst, np.array([t]))[0])
    alpha = int(inst.impulse_times.searchsorted(t, side="left"))
    return BoundReport(Ck=inst.Ck_values, alpha_index=alpha, value=value)


def build_oracle_grid(inst: PachpatteInstance, step: float) -> np.ndarray:
    """Grid for the maximal-solution sweep: spacing <= step, all breakpoints exact."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    cuts = []
    for k in range(1, inst.num_impulses + 1):
        cuts.extend((*inst.window(k), float(inst.impulse_times[k - 1])))
    return segment_grid(0.0, inst.horizon, step, cuts)


def maximal_solution(inst: PachpatteInstance, grid: np.ndarray,
                     sweep_tol: float = 1e-12, max_sweeps: int = 10 ** 6) -> np.ndarray:
    """Discrete fixed point of the inequality taken with equality.

    Full sweeps u <- n + F(u) starting from u = n increase monotonically to the
    least fixed point, which dominates every u satisfying the inequality on the
    same grid. Divergence (overflow or sweep-budget exhaustion) raises.

    n, f and g are sampled once on the grid, f and g as the two rows of one
    array. The sweep's invariants (the half steps, each window's node range and
    steps, the first node past each t_k) and the buffers of its cumulative sums
    are made once; f u and g u are integrated in one pass, in place, two
    iterates swapping roles. Per element a sweep does `cumtrap`'s and
    `np.trapezoid`'s arithmetic in their order, so it returns their bits.
    """
    if not 0.0 < sweep_tol < math.inf or max_sweeps < 1:
        raise ValueError("sweep_tol must be finite and > 0, and max_sweeps >= 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing with >= 2 nodes")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - inst.horizon) > 1e-9:
        raise ValueError("grid must cover [0, horizon]")

    def locate(x: float) -> int:
        i = int(np.searchsorted(grid, x, side="left"))
        if i >= len(grid) or abs(grid[i] - x) > 1e-9:
            raise ValueError(f"grid must contain the breakpoint {x}")
        return i

    steps = np.diff(grid)
    half = 0.5 * steps
    # (beta_k, first window node, one past its last, its steps, first node > t_k)
    windows = []
    for k in range(1, inst.num_impulses + 1):
        lo, hi = inst.window(k)
        tk = float(inst.impulse_times[k - 1])
        locate(tk)
        if hi > lo:
            a, b = locate(lo), locate(hi) + 1
            windows.append((float(inst.beta[k - 1]), a, b, steps[a:b - 1],
                            int(grid.searchsorted(tk, side="right"))))
    nv, fg = _sample(inst.n, grid), np.array([_sample(inst.f, grid), _sample(inst.g, grid)])
    fv = fg[0]
    N = len(grid)
    fgu = np.empty((2, N))  # f u and g u, then their integrals
    fig = np.empty(N)  # f int_0^t g u, then its integral, then u's change
    pairs = np.empty((2, N - 1))

    def integrate(y: np.ndarray, pairs: np.ndarray) -> None:  # y <- cumtrap(grid, y), by rows
        np.add(y[..., 1:], y[..., :-1], out=pairs)
        np.multiply(half, pairs, out=pairs)
        pairs.cumsum(axis=-1, out=y[..., 1:])
        y[..., 0] = 0.0

    int_fu, int_gu = fgu
    u, unew = nv.copy(), np.empty(N)
    for _ in range(max_sweeps):
        np.multiply(fg, u, out=fgu)
        integrate(fgu, pairs)
        np.multiply(fv, int_gu, out=fig)
        integrate(fig, pairs[0])
        np.add(nv, int_fu, out=unew)
        np.add(unew, fig, out=unew)
        for beta, a, b, d, s in windows:  # np.trapezoid(u[a:b], grid[a:b])
            unew[s:] += beta * float((d * (u[a + 1:b] + u[a:b - 1]) / 2.0).sum())
        # u is n or an earlier unew, so the gap is finite exactly when unew is
        np.subtract(unew, u, out=fig)
        gap = float(np.abs(fig, out=fig).max())
        if not math.isfinite(gap):
            raise DivergenceError("maximal-solution sweep overflowed")
        u, unew = unew, u
        if gap <= sweep_tol * (1.0 + float(u.max())):
            return u
    raise DivergenceError(f"no convergence within {max_sweeps} sweeps")


# ---------------------------------------------------------------------------
# existence certificate and growth bounds

def existence_certificate(problem: ImpulsiveProblem, lip: LipschitzData,
                          sg: SemigroupBound) -> CertificateReport:
    """Contraction check sum_k 2 b M L_G D_k < 1 guaranteeing a mild solution."""
    if len(lip.D_k) != problem.num_impulses:
        raise ValueError("lip.D_k must have one entry per impulse")
    if sg.horizon < problem.horizon - 1e-12:
        raise ValueError("semigroup bound horizon is shorter than the problem horizon")
    lhs = 2.0 * problem.horizon * sg.M * lip.L_G * float(sum(lip.D_k))
    return CertificateReport(lhs=lhs, threshold=1.0, passed=lhs < 1.0)


def _reduction_instance(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                        tilde: bool = False) -> PachpatteInstance:
    """Inequality instance with f = M N_V, g = N_U, beta_k = M L_G D_k on the
    default 2,048-point grid."""
    if len(lip.D_k) != problem.num_impulses:
        raise ValueError("lip.D_k must have one entry per impulse")
    if tilde:
        if lip.N_V_tilde is None:
            raise ValueError("lip.N_V_tilde is required for the parameter bound")
        NV, LG = lip.N_V_tilde, lip.L_G_tilde
    else:
        NV, LG = lip.N_V, lip.L_G
    M = sg.M
    beta = np.array([M * LG * d for d in lip.D_k])
    marked = getattr(NV, "batched", False)
    f = batched(lambda t: M * NV(t)) if marked else (lambda t: M * float(NV(t)))
    return PachpatteInstance(
        n=batched(lambda t: np.ones(np.shape(t))),
        f=f,
        g=lip.N_U,
        impulse_times=problem.impulse_times,
        beta=beta,
        theta=problem.theta_offsets,
        tau=problem.tau_offsets,
        horizon=problem.horizon,
    )


def _growth_tail(inst: PachpatteInstance) -> float:
    """The bound curve at b for n = 1: prod_k C_k * exp(int_{t_m}^b f[1 + int g])."""
    return float(pachpatte_curve(inst, np.array([inst.horizon]))[0])


def apriori_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                  disc: Discretization = Discretization()) -> float:
    """Uniform bound on the solution's sigma norm.

    K = (M ||history|| + H + Q) * prod_k C_k * exp(int_{t_m}^b M N_V [1 + int N_U]),
    H integrating the zero-state forcing of V and Q summing the zero-state jumps.
    The kernels read the zero state through the solver's windows and adapters.
    """
    n = problem.dimension
    M = sg.M
    inst = _reduction_instance(problem, lip, sg)
    xs = inst.grid

    hist_t = segment_grid(-problem.delay, 0.0, disc.step)
    varsigma_norm = float(np.max(np.abs(problem.history_values(hist_t))))

    # the zero state on the instance grid: each jump window sums G on its nodes
    zero = _StateView(problem.delay, np.insert(xs, 0, -problem.delay), np.zeros((len(xs) + 1, n)))
    windows = zero.windows(xs)
    z0 = volterra_tri(problem, xs, windows)
    v0 = np.max(np.abs(node_rows(problem.V, n, xs, windows, z0)), axis=1)
    H = M * float(np.trapezoid(v0, xs))

    Q = 0.0
    for k in range(1, problem.num_impulses + 1):
        Q += M * float(np.max(np.abs(window_jump(problem, zero, k))))

    prefactor = M * varsigma_norm + H + Q
    return prefactor * _growth_tail(inst)


def dependence_initial_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                             varsigma_gap: float) -> float:
    """Sigma-norm gap bound for two solutions differing only in their histories."""
    if not 0.0 <= varsigma_gap < math.inf:
        raise ValueError(f"varsigma_gap must be finite and >= 0, got {varsigma_gap}")
    inst = _reduction_instance(problem, lip, sg)
    return sg.M * float(varsigma_gap) * _growth_tail(inst)


def dependence_parameter_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                               rho_gap: float, mu_gap: float) -> float:
    """Gap bound under parameter shifts rho in V and mu in G.

    Uses the parameter-uniform moduli N_V_tilde / L_G_tilde inside the growth
    factors and the sensitivities Omega_1 / Omega_2 in the prefactor.
    """
    if not (0.0 <= rho_gap < math.inf and 0.0 <= mu_gap < math.inf):
        raise ValueError(f"parameter gaps must be finite and >= 0, got {rho_gap}, {mu_gap}")
    b, M = problem.horizon, sg.M
    inst = _reduction_instance(problem, lip, sg, tilde=True)
    prefactor = b * M * lip.Omega_1 * float(rho_gap)
    prefactor += sum(2.0 * b * M * lip.Omega_2 * d * float(mu_gap) for d in lip.D_k)
    return prefactor * _growth_tail(inst)


def dependence_function_bound(problem: ImpulsiveProblem, lip: LipschitzData,
                              sg: SemigroupBound) -> float:
    """Gap bound against a perturbed system: (M J + b M P + sum M N_k) * growth."""
    b, M = problem.horizon, sg.M
    inst = _reduction_instance(problem, lip, sg)
    prefactor = M * lip.J + b * M * lip.P + sum(M * v for v in lip.N_k)
    return prefactor * _growth_tail(inst)


def _history_gap(a: ImpulsiveProblem, b: ImpulsiveProblem) -> float:
    """Sup gap of the histories at 1,025 points of [-min r, 0] (`validate`'s, at equal r)."""
    if a.delay == b.delay:
        return float(np.max(np.abs(a._history_samples - b._history_samples)))
    ts = np.linspace(-min(a.delay, b.delay), 0.0, 1025)
    return float(np.max(np.abs(a.history_values(ts) - b.history_values(ts))))


def check_dependence(kind: str, problem_a: ImpulsiveProblem, problem_b: ImpulsiveProblem,
                     lip: LipschitzData, sg: SemigroupBound,
                     disc: Discretization = Discretization(),
                     control: PicardControl = PicardControl(),
                     rho_gap: float = 0.0, mu_gap: float = 0.0) -> DependenceReport:
    """Solve both problems and compare their sigma distance with the matching bound.

    A pair that differs in dimension, horizon or impulse times is rejected
    first, and the bound is evaluated next, so an incomparable pair, a bad kind
    or a bad gap raises before any solve.

    The verdict allows a numerical budget of twice each solve's residual, since
    the bounds compare exact solutions.
    """
    require_comparable(problem_a, problem_b)
    if kind == "initial":
        theoretical = dependence_initial_bound(problem_a, lip, sg, _history_gap(problem_a, problem_b))
    elif kind == "parameter":
        theoretical = dependence_parameter_bound(problem_a, lip, sg, rho_gap, mu_gap)
    elif kind == "function":
        theoretical = dependence_function_bound(problem_a, lip, sg)
    else:
        raise ValueError(f"unknown dependence kind {kind!r}")
    traj_a, rep_a = solve_mild(problem_a, disc, control)
    traj_b, rep_b = solve_mild(problem_b, disc, control)
    empirical = sigma_diff(traj_a, traj_b)
    budget = 2.0 * (rep_a.final_residual + rep_b.final_residual)
    return DependenceReport(
        kind=kind,
        empirical=empirical,
        theoretical=theoretical,
        residual_budget=budget,
        dominated=empirical <= theoretical + budget,
    )


# ---------------------------------------------------------------------------
# randomized instances for inequality campaigns

def random_instance(rng: np.random.Generator, grid_points: int = 2048) -> PachpatteInstance:
    """Seeded random inequality instance with smooth bounded data.

    Amplitudes are capped so the growth factor stays desk-scale and float
    rounding cannot swamp the domination slack.
    """
    horizon = float(rng.uniform(0.8, 1.6))
    m = int(rng.integers(0, 4))  # 0 to 3 impulses
    for _ in range(64):
        tk = np.sort(rng.uniform(0.15 * horizon, 0.9 * horizon, size=m))
        if m < 2 or np.min(np.diff(tk)) > 0.05 * horizon:
            break
    beta = rng.uniform(0.0, 2.0, size=m)
    prev = np.concatenate([[0.0], tk[:-1]]) if m else np.empty(0)
    tau = rng.uniform(0.0, 1.0, size=m) * (tk - prev)
    theta = rng.uniform(0.0, 1.0, size=m) * tau

    def smooth(lo_amp, hi_amp):
        base = float(rng.uniform(0.0, lo_amp))
        amp = float(rng.uniform(0.1, hi_amp))
        freq = float(rng.uniform(0.5, 3.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        # s * s is correctly rounded on every machine, on scalars and arrays alike;
        # libm pow(s, 2.0) is not: on 200,000 sin values the two differ on 172
        # (0.086%), by 1 ulp, and s * s is the nearer in all 172 (mpmath, 200
        # bits). It costs about 1.5 ns a point against pow's 25.
        def data(t):
            s = np.sin(freq * t + phase)
            return base + amp * (s * s)
        return batched(data)

    c0 = float(rng.uniform(0.5, 2.0))
    c1 = float(rng.uniform(0.0, 1.0))
    return PachpatteInstance(
        n=batched(lambda t: c0 + c1 * t),
        f=smooth(0.3, 0.7),
        g=smooth(0.3, 0.7),
        impulse_times=tk,
        beta=beta,
        theta=theta,
        tau=tau,
        horizon=horizon,
        grid_points=grid_points,
    )
