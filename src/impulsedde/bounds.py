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
from typing import Callable, Optional

import numpy as np

from .model import ImpulsiveProblem, LipschitzData, as_state, batched, node_rows
from .quadrature import KernelU, cumtrap, segment_grid, volterra_tri, window_nodes
from .semigroup import SemigroupBound
from .solver import Discretization, PicardControl, solve_mild
from .trajectory import _StateView, sigma_diff

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


@dataclass(frozen=True)
class PachpatteInstance:
    """Data of the impulsive inequality; hosts its quadrature tables.

    n must be positive and nondecreasing, f and g nonnegative (checked on the
    instance grid at construction), and each window [t_k - tau_k, t_k - theta_k]
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
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        m = len(self.impulse_times)
        if not (len(self.beta) == len(self.theta) == len(self.tau) == m):
            raise ValueError("beta, theta, tau must match the impulse count")
        if np.any(self.beta < 0.0):
            raise ValueError("beta_k must be >= 0")
        tk = self.impulse_times
        if m and (np.any(tk <= 0.0) or np.any(tk > self.horizon) or np.any(np.diff(tk) <= 0.0)):
            raise ValueError("impulse times must be strictly increasing inside (0, horizon]")
        prev = 0.0
        for k in range(m):
            if not (0.0 <= self.theta[k] <= self.tau[k] <= tk[k] - prev + 1e-12):
                raise ValueError(
                    f"window offsets violate 0 <= theta_k <= tau_k <= t_k - t_(k-1) at k={k + 1}"
                )
            prev = tk[k]
        # sampled sign and monotonicity checks; the f and g samples are the tables'
        nv = _sample(self.n, self.grid)
        if np.any(nv <= 0.0) or np.any(np.diff(nv) < -1e-12 * (1.0 + np.max(np.abs(nv)))):
            raise ValueError("n(t) must be positive and nondecreasing on the grid")
        fv, gv = self._tables[:2]
        if np.any(fv < 0.0) or np.any(gv < 0.0):
            raise ValueError("f and g must be nonnegative on the grid")

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
        return np.unique(np.concatenate(pts))

    @cached_property
    def _tables(self):
        xs = self.grid
        fv = _sample(self.f, xs)
        gv = _sample(self.g, xs)
        G = cumtrap(xs, gv)
        phi = fv * (1.0 + G)
        F = cumtrap(xs, phi)
        return fv, gv, G, phi, F

    def _F_at(self, ts: np.ndarray) -> np.ndarray:
        """int_0^t f[1 + int_0^s g] at each t: the table value on a grid node, else
        the node's value plus one trapezoid, with f and g sampled at t itself
        (one `_sample` call each for all off-node t)."""
        xs = self.grid
        _, gv, G, phi, F = self._tables
        i = np.maximum(xs.searchsorted(ts, side="right") - 1, 0)
        out = F[i]
        off = np.nonzero((xs[i] != ts) & (i != len(xs) - 1))[0]
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
    F_prev, F_k = inst._F_at(np.array([t_prev, t_k]))
    term1 = math.exp(F_k - F_prev)
    lo, hi = inst.window(k)
    if hi <= lo:
        return term1
    times = window_nodes(inst.grid, lo, hi)
    vals = np.array([math.exp(x) for x in (inst._F_at(times) - F_prev).tolist()])
    return term1 + float(inst.beta[k - 1]) * float(np.trapezoid(vals, times))


def pachpatte_curve(inst: PachpatteInstance, ts) -> np.ndarray:
    """Closed-form bound n(t) * prod_{t_k < t} C_k * exp(int_{t_alpha}^t f[1+int g])
    at every t of the 1-D array ts, in any order.

    alpha resolves to the last impulse strictly before t; with no impulse before
    t the exponential integrates from 0.
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
    expo = (inst._F_at(ts) - F_alpha[alpha]).tolist()
    # math.exp per element: np.exp rounds some inputs differently, changing output bits
    return _sample(inst.n, ts) * prods[alpha] * np.array([math.exp(x) for x in expo])


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
    """
    if not 0.0 < sweep_tol < math.inf or max_sweeps < 1:
        raise ValueError("sweep_tol must be finite and > 0, and max_sweeps >= 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with >= 2 nodes")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - inst.horizon) > 1e-9:
        raise ValueError("grid must cover [0, horizon]")

    def locate(x: float) -> int:
        i = int(np.searchsorted(grid, x, side="left"))
        if i >= len(grid) or abs(grid[i] - x) > 1e-9:
            raise ValueError(f"grid must contain the breakpoint {x}")
        return i

    windows = []
    for k in range(1, inst.num_impulses + 1):
        lo, hi = inst.window(k)
        tk = float(inst.impulse_times[k - 1])
        locate(tk)
        if hi > lo:
            sl = slice(locate(lo), locate(hi) + 1)
            windows.append((k, sl, grid > tk))
    fv = _sample(inst.f, grid)
    gv = _sample(inst.g, grid)
    nv = _sample(inst.n, grid)

    u = nv.copy()
    for _ in range(max_sweeps):
        unew = nv + cumtrap(grid, fv * u) + cumtrap(grid, fv * cumtrap(grid, gv * u))
        for k, sl, active in windows:
            unew[active] += float(inst.beta[k - 1]) * float(np.trapezoid(u[sl], grid[sl]))
        if not np.all(np.isfinite(unew)):
            raise DivergenceError("maximal-solution sweep overflowed")
        gap = float(np.max(np.abs(unew - u)))
        u = unew
        if gap <= sweep_tol * (1.0 + float(np.max(u))):
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
                        tilde: bool = False, grid_points: int = 2048) -> PachpatteInstance:
    """Inequality instance with f = M N_V, g = N_U, beta_k = M L_G D_k."""
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
        grid_points=grid_points,
    )


def _growth_tail(inst: PachpatteInstance, t_query: float) -> float:
    """prod_{t_k < t_query} C_k * exp of the horizon-uniform exponential from t_alpha."""
    alpha = int(np.searchsorted(inst.impulse_times, t_query, side="left"))
    F_alpha, prods = inst._alpha_tables
    F_b = inst._F_at(np.array([inst.horizon]))[0]
    return float(prods[alpha]) * math.exp(F_b - F_alpha[alpha])


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

    zero = _StateView(problem.delay, np.array([-problem.delay, problem.horizon]), np.zeros((2, n)))
    windows = zero.windows(xs)
    z0 = volterra_tri(KernelU(problem), xs, windows, n)
    v0 = np.max(np.abs(node_rows(problem.V, n, xs, windows, z0)), axis=1)
    H = M * float(np.trapezoid(v0, xs))

    Q = 0.0
    for k in range(1, problem.num_impulses + 1):
        lo, hi = problem.jump_window(k)
        if hi > lo:
            times = window_nodes(xs, lo, hi)
            wI = np.trapezoid(node_rows(problem.G, n, times, zero.windows(times)), times, axis=0)
        else:
            wI = np.zeros(n)
        Q += M * float(np.max(np.abs(as_state(problem.jump_maps[k - 1](wI), n))))

    prefactor = M * varsigma_norm + H + Q
    return prefactor * _growth_tail(inst, problem.horizon)


def dependence_initial_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                             varsigma_gap: float, t_query: Optional[float] = None) -> float:
    """Sigma-norm gap bound for two solutions differing only in their histories."""
    if not 0.0 <= varsigma_gap < math.inf:
        raise ValueError(f"varsigma_gap must be finite and >= 0, got {varsigma_gap}")
    tq = problem.horizon if t_query is None else float(t_query)
    inst = _reduction_instance(problem, lip, sg)
    return sg.M * float(varsigma_gap) * _growth_tail(inst, tq)


def dependence_parameter_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                               rho_gap: float, mu_gap: float,
                               t_query: Optional[float] = None) -> float:
    """Gap bound under parameter shifts rho in V and mu in G.

    Uses the parameter-uniform moduli N_V_tilde / L_G_tilde inside the growth
    factors and the sensitivities Omega_1 / Omega_2 in the prefactor.
    """
    if not (0.0 <= rho_gap < math.inf and 0.0 <= mu_gap < math.inf):
        raise ValueError(f"parameter gaps must be finite and >= 0, got {rho_gap}, {mu_gap}")
    tq = problem.horizon if t_query is None else float(t_query)
    b, M = problem.horizon, sg.M
    inst = _reduction_instance(problem, lip, sg, tilde=True)
    prefactor = b * M * lip.Omega_1 * float(rho_gap)
    prefactor += sum(2.0 * b * M * lip.Omega_2 * d * float(mu_gap) for d in lip.D_k)
    return prefactor * _growth_tail(inst, tq)


def dependence_function_bound(problem: ImpulsiveProblem, lip: LipschitzData, sg: SemigroupBound,
                              t_query: Optional[float] = None) -> float:
    """Gap bound against a perturbed system: (M J + b M P + sum M N_k) * growth."""
    tq = problem.horizon if t_query is None else float(t_query)
    b, M = problem.horizon, sg.M
    inst = _reduction_instance(problem, lip, sg)
    prefactor = M * lip.J + b * M * lip.P + sum(M * v for v in lip.N_k)
    return prefactor * _growth_tail(inst, tq)


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

    The verdict allows a numerical budget of twice each solve's residual, since
    the bounds compare exact solutions.
    """
    traj_a, rep_a = solve_mild(problem_a, disc, control)
    traj_b, rep_b = solve_mild(problem_b, disc, control)
    empirical = sigma_diff(traj_a, traj_b)
    if kind == "initial":
        theoretical = dependence_initial_bound(problem_a, lip, sg, _history_gap(problem_a, problem_b))
    elif kind == "parameter":
        theoretical = dependence_parameter_bound(problem_a, lip, sg, rho_gap, mu_gap)
    elif kind == "function":
        theoretical = dependence_function_bound(problem_a, lip, sg)
    else:
        raise ValueError(f"unknown dependence kind {kind!r}")
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

def random_instance(rng: np.random.Generator, max_impulses: int = 3,
                    grid_points: int = 2048) -> PachpatteInstance:
    """Seeded random inequality instance with smooth bounded data.

    Amplitudes are capped so the growth factor stays desk-scale and float
    rounding cannot swamp the domination slack.
    """
    horizon = float(rng.uniform(0.8, 1.6))
    m = int(rng.integers(0, max_impulses + 1))
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
        # float_power rounds as Python's float ** does (libm pow), while numpy's
        # ** 2 squares arrays and rounds about 1 sample in 1,000 differently
        return batched(lambda t: base + amp * np.float_power(np.sin(freq * t + phase), 2.0))

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
