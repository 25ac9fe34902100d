"""Composite trapezoid rule shared by the solver and the bounds: cumulative
trapezoid, breakpoint grids, jump-window node sets and the Volterra sums of U."""

from __future__ import annotations

import math

import numpy as np

from .model import ImpulsiveProblem, as_state

__all__ = ["KernelU", "cumtrap", "segment_grid", "window_nodes", "volterra_rect", "volterra_tri"]


class KernelU:
    """Evaluates U over a vector of outer times.

    The first call probes whether U broadcasts over its time argument (and
    cross-checks two rows against scalar calls); if not, every later call
    falls back to a scalar loop.
    """

    def __init__(self, problem: ImpulsiveProblem):
        self._U = problem.U
        self._n = problem.dimension
        self._mode = None

    def _loop(self, ts, s, seg):
        return np.stack([as_state(self._U(float(t), s, seg), self._n) for t in ts])

    def _normalize(self, raw, T):
        arr = np.asarray(raw, dtype=float)
        n = self._n
        if arr.ndim == 0:
            return np.full((T, n), float(arr))
        if arr.shape == (T, n):
            return arr
        if n == 1:
            if arr.shape == (T,):
                return arr[:, None]
            if arr.shape in ((1,), (1, 1)):
                return np.full((T, 1), float(arr.reshape(())))
        if arr.shape == (n,):
            return np.broadcast_to(arr, (T, n)).copy()
        raise ValueError(f"cannot interpret batched kernel output of shape {arr.shape}")

    def __call__(self, ts, s, seg) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        T = len(ts)
        s = float(s)
        if self._mode == "scalar":
            return self._loop(ts, s, seg)
        try:
            arr = self._normalize(self._U(ts, s, seg), T)
        except Exception:
            if self._mode is None:
                self._mode = "scalar"
                return self._loop(ts, s, seg)
            raise
        if self._mode is None:
            first = as_state(self._U(float(ts[0]), s, seg), self._n)
            last = as_state(self._U(float(ts[-1]), s, seg), self._n)
            tol = 1e-10 * (1.0 + max(np.max(np.abs(first)), np.max(np.abs(last))))
            if np.max(np.abs(arr[0] - first)) > tol or np.max(np.abs(arr[-1] - last)) > tol:
                self._mode = "scalar"
                return self._loop(ts, s, seg)
            self._mode = "batch"
        return arr


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


def volterra_rect(kernel, t_nodes, sigma_times, sigma_segs, n):
    """int over the whole sigma range of U(t, sigma, w_sigma), for every t."""
    out = np.zeros((len(t_nodes), n))
    if len(sigma_times) < 2:
        return out
    d = np.diff(sigma_times)
    w = np.zeros(len(sigma_times))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    for i, wi in enumerate(w):
        if wi == 0.0:
            continue
        out += wi * kernel(t_nodes, sigma_times[i], sigma_segs[i])
    return out


def volterra_tri(kernel, nodes, segs, n):
    """z[j] = int_{nodes[0]}^{nodes[j]} U(nodes[j], sigma, w_sigma) dsigma."""
    T = len(nodes)
    z = np.zeros((T, n))
    if T < 2:
        return z
    d = np.diff(nodes)
    for i in range(T):
        left = d[i - 1] if i > 0 else 0.0
        right = d[i] if i < T - 1 else 0.0
        if left == 0.0 and right == 0.0:
            continue
        col = kernel(nodes[i:], nodes[i], segs[i])
        if left != 0.0:
            z[i:] += 0.5 * left * col
        if right != 0.0:
            z[i + 1 :] += 0.5 * right * col[1:]
    return z
