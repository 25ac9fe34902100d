"""Composite trapezoid rule shared by the solver and the bounds: cumulative
trapezoid, breakpoint grids, jump-window node sets and the Volterra sums of U.

The Volterra sums run column by column over U(t, sigma_i, w_sigma_i) for a U
that depends on its outer time t. For a U that ignores t they take O(N) form
over the rows u_i = U(s_i, s_i, w_{s_i}) (one array call for a `batched` U),
adding the same terms in the same order, so the bits are the same.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ImpulsiveProblem, as_state, node_rows, probe_t, t_rows

__all__ = ["KernelU", "cumtrap", "segment_grid", "window_nodes", "volterra_rect", "volterra_tri"]


class KernelU:
    """Evaluates U over a vector of outer times.

    The first call probes whether U broadcasts over its time argument
    (`model.probe_t`: one vector-t call, checked against scalar calls at both
    ends); if not, every later call is a scalar loop. A broadcasting U that
    returns one row for two or more times ignores t, and `t_free` records that.
    A broadcast call's result is used as returned when it is already a float
    (T, n) array, or (T,) when n = 1.
    """

    def __init__(self, problem: ImpulsiveProblem):
        self._U = problem.U
        self._n = problem.dimension
        self._mode = None
        self.t_free = False

    def __call__(self, ts, s, seg) -> np.ndarray:
        if self._mode == "batch":
            col = self._U(ts, s, seg)
            if type(col) is np.ndarray and col.dtype == float:
                if col.shape == (len(ts), self._n):
                    return col
                if col.shape == (len(ts),) and self._n == 1:
                    return col[:, None]
            return t_rows(col, len(ts), self._n)
        ts = np.asarray(ts, dtype=float)
        s = float(s)
        if self._mode is None:
            probe = probe_t(self._U, ts, s, seg, self._n)
            if probe is not None and probe[2]:
                self._mode, self.t_free = "batch", probe[1]
                return probe[0]
            self._mode = "scalar"
        return np.stack([as_state(self._U(float(t), s, seg), self._n) for t in ts])

    def ignores_t(self, ts, ss, segs) -> bool:
        """Whether U ignores t; if U is not probed yet, probe it at (ts, ss[0], segs[0])."""
        if self._mode is None:
            self(ts, ss[0], segs[0])
        return self.t_free

    def rows(self, ss, segs) -> np.ndarray:
        """u_i = U(s_i, s_i, w_{s_i}) for every node, for a U that ignores t."""
        return node_rows(self._U, self._n, ss, segs, lead=2)


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


def _sequential_sum(weights, rows, skip):
    """The prefix sums of 0 + w_0 u_0 + w_1 u_1 + ..., added in this order. The
    +0.0 start is the zeros a column sweep adds into; a skipped term is -0.0,
    the one addend that leaves every sum as it is."""
    terms = np.empty((len(rows) + 1, rows.shape[1]))
    terms[0] = 0.0
    np.multiply(weights[:, None], rows, out=terms[1:])
    terms[1:][skip] = -0.0
    return np.cumsum(terms, axis=0)


def volterra_rect(kernel, t_nodes, sigma_times, sigma_segs, n):
    """int over the whole sigma range of U(t, sigma, w_sigma), for every t."""
    out = np.zeros((len(t_nodes), n))
    if len(sigma_times) < 2:
        return out
    d = np.diff(sigma_times)
    w = np.zeros(len(sigma_times))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    if kernel.ignores_t(t_nodes, sigma_times, sigma_segs):
        total = _sequential_sum(w, kernel.rows(sigma_times, sigma_segs), w == 0.0)[-1]
        out[:] = total
        return out
    for i, (wi, si) in enumerate(zip(w, sigma_times.tolist())):
        if wi == 0.0:
            continue
        out += wi * kernel(t_nodes, si, sigma_segs[i])
    return out


def volterra_tri(kernel, nodes, segs, n):
    """z[j] = int_{nodes[0]}^{nodes[j]} U(nodes[j], sigma, w_sigma) dsigma."""
    T = len(nodes)
    z = np.zeros((T, n))
    if T < 2:
        return z
    d = np.diff(nodes)
    if kernel.ignores_t(nodes, nodes, segs):
        # column i adds R_i = (d_i / 2) u_i to z[i+1:] and L_i = (d_{i-1} / 2) u_i
        # to z[i:], so z[j] sums 0, R_0, L_1, R_1, ..., R_{j-1}, L_j in this order
        u = kernel.rows(nodes, segs)
        half = np.repeat(0.5 * d, 2)
        terms = np.empty((2 * T - 2, n))
        terms[0::2] = u[:-1]
        terms[1::2] = u[1:]
        return _sequential_sum(half, terms, np.repeat(d == 0.0, 2))[0::2]
    # column i adds (d_{i-1} / 2) col to z[i:], then (d_i / 2) col[1:] to z[i+1:]
    half = (0.5 * d).tolist()
    for i, (left, right, s) in enumerate(zip([0.0] + half, half + [0.0], nodes.tolist())):
        if left == 0.0 and right == 0.0:
            continue
        col = kernel(nodes[i:], s, segs[i])
        zi = z[i:]
        if left != 0.0:
            zi += left * col
        if right != 0.0:
            zi = zi[1:]
            zi += right * col[1:]
    return z
