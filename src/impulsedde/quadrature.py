"""Composite trapezoid rule shared by the solver and the bounds: cumulative
trapezoid, breakpoint grids, jump-window node sets, the G-window sum and jump
of every impulse (solve, residual and a-priori bound) and the Volterra sums of U.

The Volterra sums read U's form, probed once per problem (`model.probe_t`,
cached as the problem's `_u_form`). For a U that depends on its outer time t
they run over the columns U(t, sigma_i, w_sigma_i): one call over the column's
times for a U that broadcasts over t, else one call per t. The columns are
added in blocks of at most 64 KiB of terms, one cumulative sum per block that
adds each term in the column-by-column order. For a U that ignores t they take
O(N) form over the rows u_i = U(s_i, s_i, w_{s_i}) (one array call for a
`batched` U), adding the same terms in the same order, so the bits are the
same, except a NaN's sign.
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
    """Nodes of [a, b] with spacing <= h; the special points are exact nodes."""
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


_BLOCK_FLOATS = 8192  # the terms of one block of U columns: 64 KiB


def _add_columns(problem, z, ts, sigma, segs, weights, tri):
    """Add the weighted columns of U to z (T, n), one column after another.

    Column i is U(ts[j], sigma[i], segs[i]) at the rows j >= i (`tri`) or at every
    row. Its term k (k = 0 only, or the left and right trapezoid weights k = 0, 1
    of `tri`) adds weights[i, k] times its value to the rows j >= i + k. A block of
    C columns is one cumulative sum over the rows [z, term 0 of column a, term 1
    of column a, term 0 of column a + 1, ...], which adds to each row of z what
    the column loop added, in its order; a skipped term is -0.0, the one addend
    that leaves every sum as it is. The weights are >= 0 (sorted nodes), so the
    -0.0 that pads a `tri` column above its first row stays -0.0. A column whose
    weights are all 0 calls no U.

    Which operand's NaN a sum of two NaNs keeps differs between numpy's add loops
    (and between the vector body and the tail of one loop), so a block whose z
    rows or columns hold a NaN adds its columns one by one in place, as the
    column loop did. Any NaN among a block's addends reaches the last row of its
    cumulative sum; without one, every NaN the sum makes is the default NaN, and
    the bits do not depend on the loop.
    """
    U, n, broadcast = problem.U, problem.dimension, problem._u_form == "broadcast"
    T, K = len(ts), weights.shape[1]
    live, skip, s_all = weights.any(axis=1).tolist(), weights == 0.0, sigma.tolist()
    rows = iter(segs)
    a = 0
    while a < len(s_all):
        top = a if tri else 0
        L = T - top
        C = min(len(s_all) - a, max(1, (_BLOCK_FLOATS // max(L * n, 1) - 1) // K))
        terms = np.empty((1 + K * C, L, n))
        terms[0] = z[top:]
        cols = np.full((C, L, n), -0.0)
        flat = cols[:, :, 0]
        for c in range(C):
            i, seg = a + c, next(rows)
            if not live[i]:
                continue
            j, t_col = (c, ts[i:]) if tri else (0, ts)
            s = s_all[i]
            if not broadcast:
                cols[c, j:] = [as_state(U(t, s, seg), n) for t in t_col.tolist()]
                continue
            raw = U(t_col, s, seg)
            if n == 1 and type(raw) is np.ndarray and raw.shape == (L - j,):
                flat[c, j:] = raw
            else:
                cols[c, j:] = t_rows(raw, L - j, n)
        w = weights[a:a + C, :, None, None]
        for k in range(K):
            np.multiply(w[:, k], cols, out=terms[1 + k::K])
        if tri:  # term 1 starts one row below its column
            c = np.arange(C)
            terms[2 + 2 * c, c] = -0.0
        terms[1:][skip[a:a + C].ravel()] = -0.0
        np.cumsum(terms, axis=0, out=terms)
        if not math.isnan(terms[-1].sum()):
            z[top:] = terms[-1]
        else:  # a NaN among the addends reaches the last row of the sum
            for c in range(C):
                i = a + c
                zi, col = (z[i:], cols[c, c:]) if tri else (z, cols[c])
                for k in range(K):
                    if not skip[i, k]:
                        zi[k:] += weights[i, k] * col[k:]
        a += C


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
    _add_columns(problem, out, t_nodes, sigma_times, sigma_segs, w[:, None], tri=False)
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
    weights = np.zeros((T, 2))
    weights[1:, 0] = weights[:-1, 1] = 0.5 * d
    _add_columns(problem, z, nodes, nodes, segs, weights, tri=True)
    return z
