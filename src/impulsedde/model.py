"""Problem instances for the impulsive delay Volterra system and its constants.

An ImpulsiveProblem bundles everything that defines

    w'(t) = A w(t) + V(t, w_t, int_0^t U(t, s, w_s) ds),  t in [0, b], t != t_k,
    w(t)  = history(t) on [-r, 0],
    w(t_k^+) - w(t_k^-) = I_k( int_{t_k - tau_k}^{t_k - theta_k} G(s, w_s) ds ),

with state space R^n under the sup norm. Kernels receive the delayed state as a
HistorySegment.

V, U, G and the history may be marked with `batched`, and the mark alone decides
whether they are called on arrays: once over all T nodes, as V(ts, W, z),
U(ss, ss, W), G(ss, W) and history(ts), with ts, ss of shape (T,), z of shape
(T, n) and a window W(theta) -> (T, n) whose row i is w_{ts[i]}(theta). Each
returns (T, n), or (T,) when n = 1. Unmarked kernels are called node by node
(`node_rows`); `validate` checks that a marked kernel's rows equal its scalar
calls bit for bit. The catalog's kernels and constant Lipschitz moduli are all
marked and shape-generic (`w(theta)[..., 0]`, not `w(theta)[0]`).

Whether U broadcasts over its outer time t is found by one probe (`probe_t`,
run by `quadrature.KernelU` and `validate`): a vector-t call checked against
scalar calls at both ends. A U that returns one row for a vector of times
declares that it ignores t.

All callables must be pure; instances are immutable and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .trajectory import _StateView, _Windows

__all__ = [
    "ImpulsiveProblem",
    "LipschitzData",
    "FreeParameter",
    "CatalogEntry",
    "validate",
    "build_catalog",
    "get_entry",
    "as_state",
    "batched",
]


def as_state(x, n: int) -> np.ndarray:
    """Normalize a kernel return value to a length-n float vector."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if n != 1:
            raise ValueError(f"expected a length-{n} vector, got a scalar")
        return a.reshape(1)
    if a.shape == (n,):
        return a
    raise ValueError(f"expected a length-{n} vector, got shape {a.shape}")


def batched(fn):
    """Mark a kernel (V, U, G or the history) as taking whole node arrays."""
    fn.batched = True
    return fn


def as_rows(x, T: int, n: int) -> np.ndarray:
    """Normalize a batched kernel result to a fresh (T, n) float array."""
    a = np.array(x, dtype=float)
    if a.shape == (T, n):
        return a
    if n == 1 and a.shape == (T,):
        return a[:, None]
    raise ValueError(f"expected ({T}, {n}) rows from a batched kernel, got shape {a.shape}")


def node_rows(kernel, n: int, times: np.ndarray, *args, lead: int = 1) -> np.ndarray:
    """The kernel at every node: `lead` copies of the node time, then row i of
    each of `args` (the node's window first for V, U and G; none for the
    history). A marked kernel is called once over all nodes, unless its window
    is not a `_Windows`; any other kernel once per node, and its returns are
    converted together (row by row through `as_state` only to raise its error)."""
    if getattr(kernel, "batched", False) and (not args or isinstance(args[0], _Windows)):
        return as_rows(kernel(*(times,) * lead, *args), len(times), n)
    out = [kernel(*node) for node in zip(*[times.tolist()] * lead, *args, strict=True)]
    try:
        rows = np.array(out, dtype=float)
        if rows.shape == (len(out), n) or n == 1 and rows.shape == (len(out),):
            return rows.reshape(len(out), n)
    except (TypeError, ValueError):  # ragged returns
        pass
    return np.array([as_state(x, n) for x in out]).reshape(len(out), n)


def t_rows(raw, T: int, n: int) -> np.ndarray:
    """U's result for a vector of T outer times as (T, n) rows; one row (shape
    (n,) or (1, n), or a scalar when n = 1) holds for every t."""
    a = np.asarray(raw, dtype=float)
    if a.shape == (T, n) or n == 1 and a.shape == (T,):
        return a.reshape(T, n)
    if a.shape in ((n,), (1, n)) or n == 1 and a.shape == ():
        return np.broadcast_to(a.reshape(1, n), (T, n))
    raise ValueError(f"cannot read U's output of shape {a.shape} as ({T}, {n}) rows")


def probe_t(U, ts: np.ndarray, s: float, seg, n: int):
    """One call U(ts, s, seg) over a vector of outer times against scalar calls at
    both ends: None when it raises or gives another shape, else (rows, whether
    it gave one row for T >= 2 times, whether the end rows agree within 1e-10)."""
    try:
        raw = U(ts, s, seg)
        rows = t_rows(raw, len(ts), n)
    except Exception:  # noqa: BLE001 - scalar-only kernels are allowed
        return None
    first = as_state(U(float(ts[0]), s, seg), n)
    last = as_state(U(float(ts[-1]), s, seg), n)
    tol = 1e-10 * (1.0 + max(np.max(np.abs(first)), np.max(np.abs(last))))
    agrees = not (np.max(np.abs(rows[0] - first)) > tol or np.max(np.abs(rows[-1] - last)) > tol)
    return rows, len(ts) > 1 and np.size(raw) == n, agrees


@dataclass(frozen=True)
class ImpulsiveProblem:
    dimension: int
    generator: np.ndarray
    V: Callable
    U: Callable
    G: Callable
    jump_maps: tuple
    impulse_times: np.ndarray
    theta_offsets: np.ndarray
    tau_offsets: np.ndarray
    delay: float
    history: Callable
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "generator", np.asarray(self.generator, dtype=float))
        object.__setattr__(self, "jump_maps", tuple(self.jump_maps))
        for name in ("impulse_times", "theta_offsets", "tau_offsets"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "delay", float(self.delay))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def num_impulses(self) -> int:
        return len(self.impulse_times)

    def jump_window(self, k: int) -> tuple:
        """[t_k - tau_k, t_k - theta_k] for the 1-based impulse index k."""
        if not 1 <= k <= self.num_impulses:
            raise IndexError(f"impulse index {k} out of range 1..{self.num_impulses}")
        tk = float(self.impulse_times[k - 1])
        return tk - float(self.tau_offsets[k - 1]), tk - float(self.theta_offsets[k - 1])

    def history_values(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return node_rows(self.history, self.dimension, times)

    @cached_property
    def _history_samples(self) -> np.ndarray:
        """The history at 1,025 even points of [-r, 0], sampled once: `validate`
        checks them and `bounds` measures the initial gap on them."""
        return self.history_values(np.linspace(-self.delay, 0.0, 1025))


@dataclass(frozen=True)
class LipschitzData:
    """Constants and moduli feeding the growth and dependence bounds.

    N_V, N_U are the Lipschitz moduli of V and U; L_G and D_k those of G and
    the jump maps. Omega_1/Omega_2 bound the parameter sensitivity of V and G,
    N_V_tilde/L_G_tilde are the parameter-uniform moduli (with the range factor
    absorbed), and P, J, N_k are sup deviations against a perturbed system.
    """

    N_V: Callable
    N_U: Callable
    L_G: float
    D_k: tuple = ()
    Omega_1: float = 0.0
    Omega_2: float = 0.0
    N_V_tilde: Optional[Callable] = None
    L_G_tilde: float = 0.0
    P: float = 0.0
    J: float = 0.0
    N_k: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "D_k", tuple(float(d) for d in self.D_k))
        object.__setattr__(self, "N_k", tuple(float(v) for v in self.N_k))
        for name in ("L_G", "Omega_1", "Omega_2", "L_G_tilde", "P", "J"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not all(0.0 <= x < math.inf for x in self.D_k + self.N_k):
            raise ValueError("D_k and N_k entries must be finite and >= 0")


@dataclass(frozen=True)
class FreeParameter:
    default: float
    low: float
    high: float


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    problem: ImpulsiveProblem
    lipschitz: LipschitzData
    free_parameters: dict
    factory: Callable = field(repr=False, default=None)

    def instantiate(self, **overrides):
        """Build (problem, lipschitz) at the given parameter values.

        Unknown names and out-of-range values are rejected.
        """
        params = {}
        for name, fp in self.free_parameters.items():
            params[name] = fp.default
        for name, value in overrides.items():
            if name not in self.free_parameters:
                raise ValueError(f"{self.name} has no parameter {name!r}")
            fp = self.free_parameters[name]
            value = float(value)
            if not fp.low <= value <= fp.high:
                raise ValueError(
                    f"{self.name}.{name}={value} outside [{fp.low}, {fp.high}]"
                )
            params[name] = value
        return self.factory(**params)


# ---------------------------------------------------------------------------
# validation

def validate(problem: ImpulsiveProblem) -> list:
    """Check every structural invariant; returns a list of violation messages.

    Violations are data, not failures: an empty list means the instance is fit
    for the solver and the bound evaluators.
    """
    out = []
    n = problem.dimension
    if n < 1:
        out.append("dimension must be a positive integer")
        return out
    if problem.generator.shape != (n, n):
        out.append(f"generator must be {n}x{n}, got {problem.generator.shape}")
    elif not np.all(np.isfinite(problem.generator)):
        out.append("generator has non-finite entries")
    if not problem.delay > 0.0:
        out.append("delay must be > 0")
    if not problem.horizon > 0.0:
        out.append("horizon must be > 0")

    tk = problem.impulse_times
    m = len(tk)
    if len(problem.jump_maps) != m:
        out.append(f"jump_maps has length {len(problem.jump_maps)}, expected {m}")
    for name, arr in (("theta_offsets", problem.theta_offsets), ("tau_offsets", problem.tau_offsets)):
        if len(arr) != m:
            out.append(f"{name} has length {len(arr)}, expected {m}")
    for k in range(1, m):
        if tk[k] <= tk[k - 1]:
            out.append(f"impulse_times not strictly increasing at k={k + 1}")
    for k in range(m):
        if not 0.0 < tk[k] < problem.horizon:
            out.append(f"impulse time t_{k + 1}={tk[k]} outside (0, horizon)")
    if len(problem.theta_offsets) == m and len(problem.tau_offsets) == m:
        prev = 0.0
        for k in range(m):
            th, ta = problem.theta_offsets[k], problem.tau_offsets[k]
            gap = tk[k] - prev
            if not (0.0 <= th <= ta <= gap + 1e-12):
                out.append(
                    f"window offsets violate 0 <= theta_k <= tau_k <= t_k - t_(k-1) at k={k + 1}"
                )
            prev = tk[k]

    if out:
        return out

    # sampled continuity of the history and kernel shape probes
    try:
        hv = problem._history_samples
    except Exception as exc:  # noqa: BLE001 - report, do not crash validation
        out.append(f"history evaluation failed: {exc}")
        return out
    if not np.all(np.isfinite(hv)):
        out.append("history has non-finite samples")
        return out
    jumps = np.max(np.abs(np.diff(hv, axis=0)), axis=1)
    if np.max(jumps) > 0.1 * (1.0 + float(np.max(np.abs(hv)))):
        out.append("history fails the sampled continuity check")

    out += _kernel_probe(problem)
    zero = np.zeros(n)
    for k, jump in enumerate(problem.jump_maps, start=1):
        try:
            as_state(jump(zero), n)
        except Exception as exc:
            out.append(f"I_{k} probe failed: {exc}")
    return out


def _kernel_probe(problem: ImpulsiveProblem) -> list:
    """Call V, U, G and the history node by node on one 3-node probe window, then
    each kernel marked `batched` once over all nodes: its rows must equal its
    scalar calls bit for bit."""
    n, r = problem.dimension, problem.delay
    thetas = np.linspace(-r, 0.0, 9)
    try:  # scalar calls: the wrapper carries no mark
        hist = node_rows(lambda t: problem.history(t), n, thetas)
    except Exception as exc:  # noqa: BLE001 - a marked history may fail on scalars
        return [f"batched history probe failed: {exc}"]
    ts = np.array([0.0, 0.25 * r, 0.5 * r])
    ends = hist[[8, 6, 4]]  # the probe state goes on as w(t) = history(-t)
    view = _StateView(r, np.concatenate([thetas, ts]), np.concatenate([hist, ends]))
    windows = view.windows(ts, ends)
    probes = {
        "history": lambda f: node_rows(f, n, thetas),
        "V": lambda f: node_rows(f, n, ts, windows, ends),
        "U": lambda f: node_rows(f, n, ts, windows, lead=2),
        "G": lambda f: node_rows(f, n, ts, windows),
    }
    out = []
    for name, rows in probes.items():
        fn = getattr(problem, name)
        try:
            scalar = hist if name == "history" else rows(lambda *a: fn(*a))
            if name == "U":
                probe = probe_t(fn, np.array([0.0, 0.5 * problem.horizon]), 0.0, windows[0], n)
                if probe is not None and not probe[2]:  # scalar-only kernels are allowed
                    out.append("U broadcasts over its time argument but disagrees with "
                               "scalar calls")
        except Exception as exc:  # noqa: BLE001 - report, do not crash validation
            out.append(f"{name} probe failed: {exc}")
            continue
        if not getattr(fn, "batched", False):
            continue
        try:
            differ = rows(fn).tobytes() != scalar.tobytes()
        except Exception as exc:  # noqa: BLE001 - report, do not crash validation
            out.append(f"batched {name} probe failed: {exc}")
            continue
        if differ:
            out.append(f"{name} is marked batched, but its rows differ from its scalar calls")
    return out


# ---------------------------------------------------------------------------
# catalog

def _constant(c: float):
    """A constant Lipschitz modulus t -> c, marked and shape-generic."""
    return batched(lambda t: np.full(np.shape(t), c))

def _paper_example(L_G=0.01, r_eff=1.0, u_constant=-1.0):
    """Scalar Volterra delay problem with one zero-width integral impulse.

    The semigroup is T(t)x = e^t x; the delayed reads happen at -r_eff and the
    jump window [t_1 - tau_1, t_1 - theta_1] collapses to a point, so the jump
    sin(0) vanishes identically.
    """
    c = 1.0 - np.sin(5.0)

    @batched
    def V(t, w_t, z):
        return c - np.sin(w_t(-r_eff)[..., 0]) + z[..., 0]

    @batched
    def U(t, s, w_s):
        return u_constant + np.cos(w_s(-r_eff)[..., 0])

    @batched
    def G(s, w_s):
        return L_G * w_s(0.0)

    problem = ImpulsiveProblem(
        dimension=1,
        generator=[[1.0]],
        V=V,
        U=U,
        G=G,
        jump_maps=(np.sin,),
        impulse_times=[1.0],
        theta_offsets=[0.5],
        tau_offsets=[0.5],
        delay=r_eff,
        history=batched(lambda t: t),
        horizon=2.0,
    )
    lip = LipschitzData(
        N_V=_constant(1.0),
        N_U=_constant(1.0),
        L_G=L_G,
        D_k=(1.0,),
        P=0.0,
        J=0.0,
        N_k=(0.0,),
    )
    return problem, lip


def _pure_semigroup():
    problem = ImpulsiveProblem(
        dimension=1,
        generator=[[1.0]],
        V=batched(lambda t, w_t, z: np.zeros_like(t)),
        U=batched(lambda t, s, w_s: np.zeros_like(s)),
        G=batched(lambda s, w_s: np.zeros_like(s)),
        jump_maps=(),
        impulse_times=[],
        theta_offsets=[],
        tau_offsets=[],
        delay=1.0,
        history=batched(lambda t: np.ones_like(t)),
        horizon=2.0,
    )
    lip = LipschitzData(N_V=_constant(0.0), N_U=_constant(0.0), L_G=0.0)
    return problem, lip


def _method_of_steps(r=1.0):
    """w'(t) = w(t - r) with unit constant history: the classic stepping chain."""
    problem = ImpulsiveProblem(
        dimension=1,
        generator=[[0.0]],
        V=batched(lambda t, w_t, z: w_t(-r)),
        U=batched(lambda t, s, w_s: np.zeros_like(s)),
        G=batched(lambda s, w_s: np.zeros_like(s)),
        jump_maps=(),
        impulse_times=[],
        theta_offsets=[],
        tau_offsets=[],
        delay=r,
        history=batched(lambda t: np.ones_like(t)),
        horizon=2.0,
    )
    lip = LipschitzData(N_V=_constant(1.0), N_U=_constant(0.0), L_G=0.0)
    return problem, lip


def _windowed_impulse(L_G=0.05):
    """Planar problem with a genuine jump fed by a nonzero integration window."""
    A = [[0.0, 0.4], [-0.4, 0.0]]

    @batched
    def V(t, w_t, z):
        return 0.3 * np.sin(w_t(-0.5)) + 0.2 * z

    @batched
    def U(t, s, w_s):
        return 0.4 * np.tanh(w_s(-0.25))

    @batched
    def G(s, w_s):
        return L_G * w_s(0.0)

    @batched
    def history(t):
        out = np.empty(np.shape(t) + (2,))
        out[..., 0] = 0.2 + 0.1 * t
        out[..., 1] = -0.1
        return out

    problem = ImpulsiveProblem(
        dimension=2,
        generator=A,
        V=V,
        U=U,
        G=G,
        jump_maps=(lambda x: 0.8 * x,),
        impulse_times=[0.5],
        theta_offsets=[0.1],
        tau_offsets=[0.3],
        delay=0.5,
        history=history,
        horizon=1.0,
    )
    lip = LipschitzData(
        N_V=_constant(0.3),
        N_U=_constant(0.4),
        L_G=L_G,
        D_k=(0.8,),
        P=0.0,
        J=0.0,
        N_k=(0.0,),
    )
    return problem, lip


def _parameter_family(rho=1.0, mu=1.0):
    """Scalar family V(t, rho, ., .), G(t, mu, .) for the sensitivity bounds.

    The moduli N_V_tilde and L_G_tilde are uniform over the parameter ranges
    [0.5, 1.5], so one LipschitzData serves every instantiation.
    """

    @batched
    def V(t, w_t, z):
        return rho * (0.3 * np.sin(w_t(-0.5)[..., 0]) + 0.2 * np.tanh(z[..., 0]))

    @batched
    def U(t, s, w_s):
        return 0.4 * np.sin(w_s(-0.25)[..., 0])

    @batched
    def G(s, w_s):
        return mu * 0.1 * np.sin(w_s(0.0)[..., 0])

    problem = ImpulsiveProblem(
        dimension=1,
        generator=[[-0.5]],
        V=V,
        U=U,
        G=G,
        jump_maps=(lambda x: 0.5 * x,),
        impulse_times=[0.5],
        theta_offsets=[0.1],
        tau_offsets=[0.4],
        delay=0.5,
        history=batched(lambda t: 0.4 * (1.0 + t)),
        horizon=1.0,
    )
    lip = LipschitzData(
        N_V=_constant(0.3 * abs(rho)),
        N_U=_constant(0.4),
        L_G=0.1 * abs(mu),
        D_k=(0.5,),
        Omega_1=0.5,
        Omega_2=0.1,
        N_V_tilde=_constant(0.45),
        L_G_tilde=0.15,
        N_k=(0.0,),
    )
    return problem, lip


def build_catalog() -> list:
    """All built-in problems, each with its constants and free parameters."""
    entries = []

    p, l = _paper_example()
    entries.append(
        CatalogEntry(
            name="paper_example",
            problem=p,
            lipschitz=l,
            free_parameters={
                "L_G": FreeParameter(0.01, 1e-6, 1.0),
                "r_eff": FreeParameter(1.0, 0.05, 1.0),
                "u_constant": FreeParameter(-1.0, -1.0, 1.0),
            },
            factory=_paper_example,
        )
    )

    p, l = _pure_semigroup()
    entries.append(
        CatalogEntry(
            name="pure_semigroup",
            problem=p,
            lipschitz=l,
            free_parameters={},
            factory=lambda: _pure_semigroup(),
        )
    )

    p, l = _method_of_steps()
    entries.append(
        CatalogEntry(
            name="method_of_steps",
            problem=p,
            lipschitz=l,
            free_parameters={"r": FreeParameter(1.0, 0.25, 2.0)},
            factory=_method_of_steps,
        )
    )

    p, l = _windowed_impulse()
    entries.append(
        CatalogEntry(
            name="windowed_impulse",
            problem=p,
            lipschitz=l,
            free_parameters={"L_G": FreeParameter(0.05, 1e-6, 0.6)},
            factory=_windowed_impulse,
        )
    )

    p, l = _parameter_family()
    entries.append(
        CatalogEntry(
            name="parameter_family",
            problem=p,
            lipschitz=l,
            free_parameters={
                "rho": FreeParameter(1.0, 0.5, 1.5),
                "mu": FreeParameter(1.0, 0.5, 1.5),
            },
            factory=_parameter_family,
        )
    )
    return entries


def get_entry(name: str) -> CatalogEntry:
    for entry in build_catalog():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in build_catalog())
    raise KeyError(f"unknown catalog entry {name!r} (known: {known})")


def with_history(problem: ImpulsiveProblem, history: Callable) -> ImpulsiveProblem:
    """Copy of the problem with a replaced initial history."""
    return replace(problem, history=history)
