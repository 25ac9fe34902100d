"""Composite trapezoid rule shared by the solver and the bounds: cumulative
trapezoid, breakpoint grids, jump-window node sets, the G-window sum and jump
of every impulse (solve, residual and a-priori bound) and the Volterra sums of U.

The Volterra sums read U's form, probed once per problem (`model.probe_t`,
cached as the problem's `_u_form`). For a U that depends on its outer time t
they run column by column over U(t, sigma_i, w_sigma_i): one call over the
column's times for a U that broadcasts over t, else one call per t, each column
added in place to the rows it reaches. For a U that ignores t they take O(N)
form over the rows u_i = U(s_i, s_i, w_{s_i}) (one array call for a `batched`
U), adding the same terms in the same order, so the bits are the same, except a
NaN's sign.
"""

from __future__ import annotations

import math

import numpy as np

from .model import as_state, node_rows, t_rows
from .trajectory import _interp_sorted

__all__ = ["cumtrap", "segment_grid", "window_nodes", "window_sum", "window_jump", "volterra_rect",
           "volterra_tri"]


def cumtrap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int_{x[0]}^{x[i]} y for every i; y is (T,) or (T, n), integrated along axis 0."""
    d = 0.5 * np.diff(x)
    if y.ndim == 2:
        d = d[:, None]
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(d * (y[1:] + y[:-1]), axis=0, out=out[1:])
    return out


def segment_grid(a: float, b: float, h: float, specials=()) -> np.ndarray:
    """Nodes of [a, b] with spacing <= h, one `np.linspace` per piece between the
    special points, which are exact nodes."""
    cuts = [a]
    for s in sorted(set(float(x) for x in specials)):
        if a < s < b and s - cuts[-1] > 1e-14 * (1.0 + abs(b)):
            cuts.append(s)
    cuts.append(b)
    parts = [np.array([a])]
    for p, q in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, math.ceil((q - p) / h - 1e-9))
        parts.append(np.linspace(p, q, pieces + 1)[1:])
    return np.concatenate(parts)


def window_nodes(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Quadrature nodes of [lo, hi]: lo, every node strictly inside, hi."""
    i0 = np.searchsorted(nodes, lo, side="right")
    i1 = np.searchsorted(nodes, hi, side="left")
    return np.concatenate([[lo], nodes[i0:i1], [hi]])


def window_sum(problem, view, k: int) -> np.ndarray:
    """Trapezoid of G(s, w_s) over the jump window of impulse k on `window_nodes`
    of the `_StateView` `view`, which must cover the window; exactly zero when
    the window has zero length."""
    lo, hi = problem.jump_window(k)
    if view.times[-1] < hi - 1e-12:
        raise ValueError(f"trajectory covers only up to {float(view.times[-1])}, window needs {hi}")
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


def window_jump(problem, view, k: int) -> np.ndarray:
    """I_k of `window_sum`: the state jump added at t_k."""
    integral = window_sum(problem, view, k)  # checks k before I_k is looked up
    return as_state(problem.jump_maps[k - 1](integral), problem.dimension)


def _sequential_sum(weights, rows, skip):
    """The prefix sums of 0 + w_0 u_0 + w_1 u_1 + ..., added in this order. The
    +0.0 start is the zeros a column sweep adds into; a skipped term is -0.0,
    the one addend that leaves every sum as it is."""
    terms = np.empty((len(rows) + 1, rows.shape[1]))
    terms[0] = 0.0
    np.multiply(weights[:, None], rows, out=terms[1:])
    terms[1:][skip] = -0.0
    return np.cumsum(terms, axis=0)


def _u_column(problem, ts, s, seg) -> np.ndarray:
    """U(t, s, seg) at every t of ts as (T, n) rows: one call over ts for a U that
    broadcasts over t (read by `t_rows`, a view of a float result), else one call
    per t."""
    U, n = problem.U, problem.dimension
    if problem._u_form == "broadcast":
        return t_rows(U(ts, s, seg), len(ts), n)
    return np.stack([as_state(U(t, s, seg), n) for t in ts.tolist()])


def volterra_rect(problem, t_nodes, sigma_times, sigma_segs):
    """int over the whole sigma range of U(t, sigma, w_sigma), for every t."""
    n = problem.dimension
    out = np.zeros((len(t_nodes), n))
    if len(sigma_times) < 2:
        return out
    d = np.diff(sigma_times)
    w = np.zeros(len(sigma_times))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    if problem._u_form == "t_free":
        u = node_rows(problem.U, n, sigma_times, sigma_segs, lead=2)
        out[:] = _sequential_sum(w, u, w == 0.0)[-1]
        return out
    for wi, s, seg in zip(w.tolist(), sigma_times.tolist(), sigma_segs):
        if wi != 0.0:
            out += wi * _u_column(problem, t_nodes, s, seg)
    return out


def volterra_tri(problem, nodes, segs):
    """z[j] = int_{nodes[0]}^{nodes[j]} U(nodes[j], sigma, w_sigma) dsigma."""
    n = problem.dimension
    T = len(nodes)
    z = np.zeros((T, n))
    if T < 2:
        return z
    d = np.diff(nodes)
    if problem._u_form == "t_free":
        # column i adds R_i = (d_i / 2) u_i to z[i+1:] and L_i = (d_{i-1} / 2) u_i
        # to z[i:], so z[j] sums 0, R_0, L_1, R_1, ..., R_{j-1}, L_j in this order
        u = node_rows(problem.U, n, nodes, segs, lead=2)
        half = np.repeat(0.5 * d, 2)
        terms = np.empty((2 * T - 2, n))
        terms[0::2] = u[:-1]
        terms[1::2] = u[1:]
        return _sequential_sum(half, terms, np.repeat(d == 0.0, 2))[0::2]
    # column i adds (d_{i-1} / 2) col to z[i:], then (d_i / 2) col[1:] to z[i+1:]
    half = (0.5 * d).tolist()
    for i, (left, right, s, seg) in enumerate(zip([0.0] + half, half + [0.0], nodes.tolist(), segs)):
        if left == 0.0 and right == 0.0:
            continue
        col = _u_column(problem, nodes[i:], s, seg)
        zi = z[i:]
        if left != 0.0:
            zi += left * col
        if right != 0.0:
            zi = zi[1:]
            zi += right * col[1:]
    return z
