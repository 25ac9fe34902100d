"""Piecewise left-continuous trajectories on [-r, b] and delayed-state segments.

A trajectory is stored as node blocks separated by the impulse schedule. Values
are left-continuous at impulse times; the post-jump value at each t_k is kept
separately and doubles as the first node of the following block.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["HistorySegment", "PiecewiseTrajectory", "sigma_diff"]

_EDGE_TOL = 1e-9


def _as_nodes(times, values, n):
    t = np.ascontiguousarray(np.asarray(times, dtype=float))
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None] if n == 1 else v.reshape(len(t), n)
    if t.ndim != 1 or v.shape != (len(t), n):
        raise ValueError(f"block nodes must be (L,) times with (L, {n}) values")
    if len(t) < 2 or np.any(np.diff(t) <= 0.0):
        raise ValueError("block node times must be strictly increasing with >= 2 nodes")
    return t, np.ascontiguousarray(v)


def _interp_sorted(grid, vals, ts):
    """Linear interpolation of (grid, vals) at query times, vectorized.

    `grid` may contain repeated entries (zero-width intervals at jumps); exact
    hits resolve to the first occurrence, interior queries interpolate from the
    last occurrence below, which realizes the left-continuity convention.
    Queries outside the grid are clamped onto its end nodes, so they read the
    end values exactly.
    """
    ts = np.clip(np.asarray(ts, dtype=float), grid[0], grid[-1])
    idx = np.searchsorted(grid, ts, side="left")
    idx = np.clip(idx, 0, len(grid) - 1)
    exact = grid[idx] == ts
    out = np.empty(ts.shape + (vals.shape[1],))
    out[exact] = vals[idx[exact]]
    rest = ~exact
    if np.any(rest):
        hi = np.clip(idx[rest], 1, len(grid) - 1)
        lo = hi - 1
        tq = ts[rest]
        span = grid[hi] - grid[lo]
        frac = np.where(span > 0.0, (tq - grid[lo]) / np.where(span > 0.0, span, 1.0), 0.0)
        out[rest] = vals[lo] + frac[:, None] * (vals[hi] - vals[lo])
    return out


@dataclass(frozen=True)
class HistorySegment:
    """Sampled delayed state: theta -> w(t + theta) for theta in [-r, 0].

    Evaluation between samples is linear; the sample grid runs from -r to 0.
    Scalar and array reads both go through `_interp_sorted`: a read on a sample
    gives that sample exactly, and NaN reads the theta = 0 sample. The solver
    reads every node's window through one `_Windows` (`_StateView.windows`);
    kernels marked `batched` get it whole, the others its rows, `_Window`s
    that read the trajectory's node arrays in place and build `theta_grid`
    and `values` only when asked.
    """

    theta_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.theta_grid, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if g.ndim != 1 or len(g) < 2 or v.shape[0] != len(g):
            raise ValueError("theta_grid and values must be parallel with >= 2 samples")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("theta_grid must be strictly increasing")
        if g[0] >= 0.0 or g[-1] != 0.0:
            raise ValueError("theta_grid must start at -r < 0 and end exactly at 0")
        object.__setattr__(self, "theta_grid", g)
        object.__setattr__(self, "values", np.ascontiguousarray(v))

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def delay(self) -> float:
        return -float(self.theta_grid[0])

    def __call__(self, theta):
        g, theta = self.theta_grid, np.asarray(theta, dtype=float)
        pad = _EDGE_TOL * (1.0 + self.delay)
        if np.any(theta < g[0] - pad) or np.any(theta > pad):
            raise ValueError(f"theta={theta} outside [{g[0]}, 0]")
        # NaN reads the theta = 0 sample, as on every window reader
        return _interp_sorted(g, self.values, np.fmin(theta, 0.0))

    def sup_norm(self) -> float:
        """Sup norm over the samples (the C([-r,0]) norm on this grid)."""
        return float(np.max(np.abs(self.values)))


class _StateView:
    """Left-continuous evaluation over one array of history then main nodes.

    `times` is the history grid followed by the main nodes, so t = 0 appears
    twice and each impulse time t_k may appear twice: first with the pre-jump
    value, then with the post-jump value. Exact left reads resolve to the first
    occurrence and exact right reads to the last; interior reads interpolate
    from the nearest enclosing pair, which lands on the post-jump branch just
    past a jump. Delayed-state windows sample the nodes with each repeated time
    resolved to its first (pre-jump) value.
    """

    def __init__(self, delay: float, times: np.ndarray, values: np.ndarray):
        self.delay = delay
        self.times = times
        self.values = values
        self._time_list = times.tolist()
        keep = np.empty(len(times), dtype=bool)
        keep[0] = True
        np.greater(times[1:], times[:-1], out=keep[1:])
        self.node_times = times[keep]
        self.node_values = values[keep]
        self.node_list = self.node_times.tolist()

    def eval_right(self, t: float) -> np.ndarray:
        i = bisect_right(self._time_list, t) - 1
        if i >= 0 and self._time_list[i] == t:
            return self.values[i]
        return _interp_sorted(self.times, self.values, np.array([t]))[0]

    def windows(self, times: np.ndarray, ends=None) -> "_Windows":
        """The windows w_t for every t in `times` (each in [view start + r, view end]),
        read together; `ends` holds the theta = 0 rows (w(t^-) when None)."""
        return _Windows(self, times, ends)


class _Window(HistorySegment):
    """Row i of a `_Windows`: w_t read from a view's shared node arrays instead
    of a copied sample grid.

    The sample grid it stands for is theta = -r (value w((t - r)^-)), every
    view node strictly inside the window, and theta = 0 (the row's end value).
    Scalar reads give row i of the parent's reads bit for bit; `theta_grid`,
    `values` and array reads build the grid on first use and keep it.
    `_Window(view, t, end_value)` is the one row of `view.windows([t])`, with
    w(t^-) as its end value when `end_value` is None.
    """

    def __init__(self, view: _StateView, t: float, end_value=None):
        ends = None if end_value is None else np.reshape(end_value, (1, -1))
        vars(self).update(vars(view.windows(np.array([t]), ends)[0]))

    def __getattr__(self, name):
        # the sample grid is built on first use and kept in the instance dict,
        # where later lookups find it directly
        if name not in ("theta_grid", "values"):
            raise AttributeError(name)
        view, t, j0, j1 = self._view, self._t, self._j0, self._j1
        thetas = np.concatenate(([-view.delay], view.node_times[j0:j1] - t, [0.0]))
        values = np.concatenate((self._low[None, :], view.node_values[j0:j1], self._high[None, :]))
        HistorySegment.__init__(self, thetas, values)
        return vars(self)[name]

    def __call__(self, theta):
        if type(theta) is not float:
            if np.ndim(theta) != 0:
                return HistorySegment.__call__(self, theta)
            theta = float(theta)
        view, t = self._view, self._t
        r = view.delay
        pad = _EDGE_TOL * (1.0 + r)
        if theta < -r - pad or theta > pad:
            raise ValueError(f"theta={theta} outside [{-r}, 0]")
        if theta < -r:
            return self._low.copy()
        if not theta < 0.0:  # NaN too, as on every reader
            return self._high.copy()
        nodes, vals, j0, j1 = view.node_list, view.node_values, self._j0, self._j1
        # last sample at or below theta; j = j0 - 1 is the theta = -r sample.
        # t + theta is rounded, so the bracket is settled in theta-space.
        j = bisect_right(nodes, t + theta, j0, j1) - 1
        while j + 1 < j1 and nodes[j + 1] - t <= theta:
            j += 1
        while j >= j0 and nodes[j] - t > theta:
            j -= 1
        ga, va = (-r, self._low) if j < j0 else (nodes[j] - t, vals[j])
        if theta == ga:  # on a sample: the sample itself, not va + 0 * (vb - va)
            return va.copy()
        gb, vb = (nodes[j + 1] - t, vals[j + 1]) if j + 1 < j1 else (0.0, self._high)
        frac = (theta - ga) / (gb - ga)
        return va + frac * (vb - va)


class _Windows:
    """The windows w_t at every t of `times`, read together as one (T, n) array.

    Row i of `W(theta)` reads the window of times[i]: one searchsorted over the
    view's node arrays, bracket corrections in theta-space, the sentinels
    w((t - r)^-) at theta = -r and ends[i] (w(t^-) when `ends` is None) at
    theta = 0. `W[i]` is that row as a `_Window`, for kernels that are called
    node by node; its scalar reads give the same bits element by element.
    """

    def __init__(self, view: _StateView, times: np.ndarray, ends=None):
        nodes, r = view.node_times, view.delay
        last = len(nodes) - 1
        j0 = np.searchsorted(nodes, times - r, side="right")
        j1 = np.maximum(np.searchsorted(nodes, times, side="left"), j0)
        # a node one ulp inside the window can round onto theta = -r
        while True:
            inside = (j0 < j1) & (nodes[np.minimum(j0, last)] - times <= -r)
            if not inside.any():
                break
            j0 += inside
        self._view, self.times, self._ends, self._j0, self._j1 = view, times, ends, j0, j1

    def __getitem__(self, i: int) -> _Window:
        # a row holds no reference to its parent, so the two form no cycle
        row = _Window.__new__(_Window)
        t, j0, j1 = self._rows
        vars(row).update(_view=self._view, _t=t[i], _j0=j0[i], _j1=j1[i], _low=self._low[i],
                         _high=self._high[i])
        return row

    @cached_property
    def _rows(self) -> tuple:
        """Each row's time and brackets as Python lists, converted once."""
        return self.times.tolist(), self._j0.tolist(), self._j1.tolist()

    @cached_property
    def _low(self) -> np.ndarray:
        view = self._view
        # t - r below the first node (t just below 0) reads that node exactly
        return _interp_sorted(view.times, view.values, self.times - view.delay)

    @cached_property
    def _high(self) -> np.ndarray:
        if self._ends is not None:
            return np.asarray(self._ends, dtype=float)
        view = self._view
        return _interp_sorted(view.times, view.values, self.times)

    def __call__(self, theta) -> np.ndarray:
        if type(theta) is not float:
            if np.ndim(theta) != 0:
                raise TypeError("batched windows are read at one theta at a time")
            theta = float(theta)
        view, ts = self._view, self.times
        r = view.delay
        pad = _EDGE_TOL * (1.0 + r)
        if theta < -r - pad or theta > pad:
            raise ValueError(f"theta={theta} outside [{-r}, 0]")
        if theta < -r:
            return self._low.copy()
        if not theta < 0.0:  # NaN too, as on every reader
            return self._high.copy()
        nodes, vals, j0, j1 = view.node_times, view.node_values, self._j0, self._j1
        last = len(nodes) - 1
        j = np.minimum(np.maximum(np.searchsorted(nodes, ts + theta, side="right"), j0), j1) - 1
        ja, jb = np.maximum(j, 0), np.minimum(j + 1, last)
        ga, gb = nodes[ja] - ts, nodes[jb] - ts
        if ((gb <= theta) & (j + 1 < j1)).any() or ((ga > theta) & (j >= j0)).any():
            # t + theta was rounded: settle the brackets in theta-space
            while True:
                up = (j + 1 < j1) & (nodes[np.minimum(j + 1, last)] - ts <= theta)
                if not up.any():
                    break
                j += up
            while True:
                down = (j >= j0) & (nodes[np.maximum(j, 0)] - ts > theta)
                if not down.any():
                    break
                j -= down
            ja, jb = np.maximum(j, 0), np.minimum(j + 1, last)
            ga, gb = nodes[ja] - ts, nodes[jb] - ts
        va, vb = vals[ja], vals[jb]
        below = j < j0  # theta lies before the window's first node
        if below.any():
            ga[below] = -r
            va[below] = self._low[below]
        above = j + 1 >= j1  # theta lies past the window's last node
        if above.any():
            gb[above] = 0.0
            vb[above] = self._high[above]
        frac = (theta - ga) / (gb - ga)
        out = va + frac[:, None] * (vb - va)
        on = theta == ga  # a row on a sample reads the sample itself, as the scalar read does
        if on.any():
            out[on] = va[on]
        return out


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Left-continuous piecewise solution with recorded jumps.

    blocks[0] is the history block on [-r, 0]; blocks[j] for j >= 1 covers
    [t_{j-1}, t_j] with t_0 = 0 and the final block ending at the horizon.
    A partially built trajectory (prefix of the full block list) is allowed;
    `complete` tells the two apart. right_limits[k] is w(t_k^+) and equals the
    first node value of block k+2 once that block exists.
    """

    dimension: int
    delay: float
    horizon: float
    impulse_times: np.ndarray
    blocks: tuple
    right_limits: np.ndarray

    def __post_init__(self):
        n = int(self.dimension)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        tk = np.ascontiguousarray(np.asarray(self.impulse_times, dtype=float))
        object.__setattr__(self, "impulse_times", tk)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "delay", float(self.delay))
        object.__setattr__(self, "horizon", float(self.horizon))
        blocks = tuple((_as_nodes(t, v, n)) for t, v in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        rl = np.asarray(self.right_limits, dtype=float).reshape(-1, n)
        object.__setattr__(self, "right_limits", np.ascontiguousarray(rl))

        if len(blocks) < 1:
            raise ValueError("a trajectory needs at least the history block")
        ht, _ = blocks[0]
        if ht[0] != -self.delay or ht[-1] != 0.0:
            raise ValueError("history block must span exactly [-delay, 0]")
        m = len(tk)
        if np.any(tk <= 0.0) or np.any(tk >= self.horizon) or np.any(np.diff(tk) <= 0.0):
            raise ValueError("impulse times must be strictly increasing inside (0, horizon)")
        nmain = len(blocks) - 1
        if nmain > m + 1:
            raise ValueError("more main blocks than the impulse schedule allows")
        njump = rl.shape[0]
        if njump not in (max(nmain - 1, 0), min(nmain, m)):
            raise ValueError("right_limits length inconsistent with block count")
        for j in range(1, len(blocks)):
            bt, bv = blocks[j]
            start = 0.0 if j == 1 else tk[j - 2]
            if bt[0] != start:
                raise ValueError(f"block {j} must start at {start}, got {bt[0]}")
            end = self.horizon if j == m + 1 else tk[j - 1]
            if bt[-1] != end:
                raise ValueError(f"block {j} must end at {end}, got {bt[-1]}")
            if j == 1:
                # no impulse at 0: the shared node must agree bit-exactly
                if not np.array_equal(blocks[0][1][-1], bv[0]):
                    raise ValueError("history and first block disagree at t = 0")
            else:
                if not np.array_equal(rl[j - 2], bv[0]):
                    raise ValueError(f"block {j} first node must carry right_limits[{j - 2}]")

    # -- derived flat arrays used by evaluation -------------------------------

    @cached_property
    def main_times(self) -> np.ndarray:
        if len(self.blocks) == 1:
            return np.empty(0)
        return np.concatenate([t for t, _ in self.blocks[1:]])

    @cached_property
    def main_values(self) -> np.ndarray:
        if len(self.blocks) == 1:
            return np.empty((0, self.dimension))
        return np.concatenate([v for _, v in self.blocks[1:]], axis=0)

    @property
    def coverage_end(self) -> float:
        return float(self.blocks[-1][0][-1])

    @property
    def complete(self) -> bool:
        return len(self.blocks) == len(self.impulse_times) + 2

    def jump_at(self, k: int) -> np.ndarray:
        """Recorded jump w(t_k^+) - w(t_k^-) for the 1-based impulse index k."""
        if not 1 <= k <= len(self.right_limits):
            raise IndexError(f"impulse index {k} out of range")
        return self.right_limits[k - 1] - self.eval(float(self.impulse_times[k - 1]))

    # -- evaluation ------------------------------------------------------------

    def _check_domain(self, t: float, upper: float):
        pad = _EDGE_TOL * (1.0 + self.horizon + self.delay)
        if t < -self.delay - pad or t > upper + pad:
            raise ValueError(f"t={t} outside [{-self.delay}, {upper}]")

    def eval(self, t: float) -> np.ndarray:
        """Left-continuous value: at an impulse time this is w(t_k^-)."""
        t = float(t)
        self._check_domain(t, self.coverage_end)
        return self.eval_many(np.array([t]))[0]

    def eval_right(self, t: float) -> np.ndarray:
        """Right limit w(t^+); differs from eval only at impulse times.

        Defined on [-r, horizon): there is no right limit at the horizon.
        """
        t = float(t)
        if t >= self.horizon:
            raise ValueError(f"right limit undefined at t={t} >= horizon {self.horizon}")
        self._check_domain(t, self.coverage_end)
        if t == self.coverage_end and 0 < len(self.right_limits) == len(self.blocks) - 1:
            # coverage ends at an impulse whose jump is already recorded
            return self.right_limits[-1].copy()
        return self._view.eval_right(t).copy()

    def eval_many(self, ts) -> np.ndarray:
        """Vectorized left-continuous evaluation."""
        return _interp_sorted(self._view.times, self._view.values, ts)

    @cached_property
    def _view(self) -> _StateView:
        ht, hv = self.blocks[0]
        return _StateView(self.delay, np.concatenate([ht, self.main_times]),
                          np.concatenate([hv, self.main_values], axis=0))

    def history_segment(self, t: float) -> HistorySegment:
        """The element w_t of C([-r, 0]) sampled on the native nodes in [t-r, t]."""
        t = float(t)
        if t < -_EDGE_TOL or t > self.coverage_end + _EDGE_TOL * (1.0 + self.horizon):
            raise ValueError(f"t={t} outside [0, {self.coverage_end}]")
        return _Window(self._view, t)

    def sigma_norm(self) -> float:
        """Max over the blocks on [0, b] of the sup of node values (inf norm)."""
        if len(self.main_values) == 0:
            return 0.0
        return float(np.max(np.abs(self.main_values)))


def sigma_diff(a: PiecewiseTrajectory, b: PiecewiseTrajectory) -> float:
    """Sigma norm of a - b on the union of the two node grids.

    Right limits at each impulse time are compared as well, so a jump
    mismatch is picked up even when the left values agree.
    """
    if a.dimension != b.dimension:
        raise ValueError("trajectories have different dimensions")
    if a.horizon != b.horizon or not np.array_equal(a.impulse_times, b.impulse_times):
        raise ValueError("trajectories have different impulse structure")
    grid = np.unique(np.concatenate([a.main_times, b.main_times]))
    if len(grid) == 0:
        return 0.0
    gap = float(np.max(np.abs(a.eval_many(grid) - b.eval_many(grid))))
    for tk in a.impulse_times:
        tk = float(tk)
        if tk <= min(a.coverage_end, b.coverage_end):
            gap = max(gap, float(np.max(np.abs(a.eval_right(tk) - b.eval_right(tk)))))
    return gap
