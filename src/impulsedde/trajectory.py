"""Piecewise left-continuous trajectories on [-r, b] and delayed-state segments.

A trajectory is stored as node blocks separated by the impulse schedule. Values
are left-continuous at impulse times; the post-jump value at each t_k is the
first node of the following block. The delayed state w_t is a `HistorySegment`,
one row of the `_Windows` that read the windows of many times together.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

__all__ = ["HistorySegment", "PiecewiseTrajectory", "require_comparable", "sigma_diff"]

_EDGE_TOL = 1e-9
_KEPT_READS = 64  # distinct thetas a `_Windows` keeps the reads of for its rows


def _as_nodes(times, values, n):
    t = np.ascontiguousarray(np.asarray(times, dtype=float))
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None] if n == 1 else v.reshape(len(t), n)
    if t.ndim != 1 or v.shape != (len(t), n):
        raise ValueError(f"block nodes must be (L,) times with (L, {n}) values")
    if len(t) < 2 or not np.all(np.diff(t) > 0.0):  # a NaN time fails too
        raise ValueError("block node times must be strictly increasing with >= 2 nodes")
    return t, np.ascontiguousarray(v)


def sorted_unique(x):
    """`np.unique(x)` of a float array, bit for bit: its sorted values without
    repeats, NaNs counted as one.

    A plain `np.unique` calls `np.ma.is_masked`, which imports `numpy.ma`
    (about 1 MB) on first use; this sort needs no module beyond numpy's core.
    """
    s = np.sort(np.ravel(x))
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    keep[1:] = (s[1:] != s[:-1]) & ~np.isnan(s[:-1])  # NaNs sort last
    return s[keep]


def _interp_sorted(grid, vals, ts):
    """Linear interpolation of (grid, vals) at query times, vectorized.

    `grid` may contain repeated entries (zero-width intervals at jumps); exact
    hits resolve to the first occurrence, interior queries interpolate from the
    last occurrence below, which realizes the left-continuity convention.
    Queries outside the grid are clamped onto its end nodes, so they read the
    end values exactly.
    """
    ts = np.clip(np.asarray(ts, dtype=float), grid[0], grid[-1])
    # integer bounds by minimum and maximum: np.clip's wrapper costs more than its work
    idx = np.minimum(np.searchsorted(grid, ts, side="left"), len(grid) - 1)
    exact = grid[idx] == ts
    out = np.empty(ts.shape + (vals.shape[1],))
    out[exact] = vals[idx[exact]]
    rest = ~exact
    if rest.any():
        hi = np.maximum(idx[rest], 1)
        lo = hi - 1
        tq = ts[rest]
        span = grid[hi] - grid[lo]
        frac = np.where(span > 0.0, (tq - grid[lo]) / np.where(span > 0.0, span, 1.0), 0.0)
        out[rest] = vals[lo] + frac[:, None] * (vals[hi] - vals[lo])
    return out


def _samples(theta_grid, values):
    """A segment's samples as float arrays: theta_grid (m,), values (m, n)."""
    g = np.ascontiguousarray(np.asarray(theta_grid, dtype=float))
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if g.ndim != 1 or len(g) < 2 or v.shape[0] != len(g):
        raise ValueError("theta_grid and values must be parallel with >= 2 samples")
    if not np.all(np.diff(g) > 0.0):  # a NaN theta fails too
        raise ValueError("theta_grid must be strictly increasing")
    if g[0] >= 0.0 or g[-1] != 0.0:
        raise ValueError("theta_grid must start at -r < 0 and end exactly at 0")
    return g, np.ascontiguousarray(v)


class HistorySegment:
    """Delayed state: theta -> w(t + theta) for theta in [-r, 0].

    A segment is row `_i` of a `_Windows` `_parent`: the solver hands kernels
    the rows `W[i]` of the windows of every node, `history_segment(t)` is the
    one row of the windows at t, and `HistorySegment(theta_grid, values)` is the
    one row of the windows of its own samples at t = 0. A scalar read w(theta)
    copies row `_i` of `_parent(theta)`, which the rows share: it is made once
    per distinct theta and kept (at most _KEPT_READS of them, so a theta that
    moves from row to row costs a whole read per call but no T x T memory).
    NaN reads theta = 0.

    The sample grid is theta = -r (value w((t - r)^-)), every view node
    strictly inside the window and theta = 0 (the row's end value); a row
    builds `theta_grid` and `values` from its parent's arrays on first use and
    keeps them. Array reads interpolate on that grid through `_interp_sorted`,
    which gives the scalar reads' bits. Segments are immutable.
    """

    def __init__(self, theta_grid, values):
        g, v = _samples(theta_grid, values)
        parent = _StateView(-float(g[0]), g, v).windows(np.zeros(1))
        vars(self).update(_parent=parent, _i=0, theta_grid=g, values=v)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getattr__(self, name):
        # a row builds its sample grid on first use and keeps it in the instance
        # dict, where later lookups find it directly
        if name not in ("theta_grid", "values"):
            raise AttributeError(name)
        parent, i = self._parent, self._i
        view, j0, j1 = parent._view, parent._j0[i], parent._j1[i]
        parent.reach = max(parent.reach, int(j1) - 1)  # the whole window and both ends
        parent.read_high = True
        thetas = np.concatenate(([-view.delay], view.node_times[j0:j1] - parent.times[i], [0.0]))
        values = np.concatenate((parent._low[i:i + 1], view.node_values[j0:j1],
                                 parent._high[i:i + 1]))
        vars(self).update(zip(("theta_grid", "values"), _samples(thetas, values)))
        return vars(self)[name]

    def __repr__(self):
        return f"HistorySegment(theta_grid={self.theta_grid!r}, values={self.values!r})"

    @property
    def dimension(self) -> int:
        return self._parent._view.values.shape[1]

    @property
    def delay(self) -> float:
        return float(self._parent._view.delay)

    def __call__(self, theta):
        if type(theta) is not float:
            if np.ndim(theta) != 0:
                g, theta = self.theta_grid, np.asarray(theta, dtype=float)
                pad = _EDGE_TOL * (1.0 + self.delay)
                if np.any(theta < g[0] - pad) or np.any(theta > pad):
                    raise ValueError(f"theta={theta} outside [{g[0]}, 0]")
                return _interp_sorted(g, self.values, np.fmin(theta, 0.0))
            theta = float(theta)
        if theta != theta:  # NaN reads theta = 0, as on every reader, and is no key
            theta = 0.0
        reads = self._parent._reads
        rows = reads.get(theta)
        if rows is None:
            if len(reads) == _KEPT_READS:
                reads.clear()
            rows = reads[theta] = self._parent(theta)
        return rows[self._i].copy()

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
        keep = np.empty(len(times), dtype=bool)
        keep[0] = True
        np.greater(times[1:], times[:-1], out=keep[1:])
        self.node_times = times[keep]
        self.node_values = values[keep]

    def eval_right(self, t: float) -> np.ndarray:
        i = np.searchsorted(self.times, t, side="right") - 1
        if i >= 0 and self.times[i] == t:
            return self.values[i]
        return _interp_sorted(self.times, self.values, np.array([t]))[0]

    def windows(self, times: np.ndarray, ends=None) -> "_Windows":
        """The windows w_t for every t in `times` (each in [view start + r, view end]),
        read together; `ends` holds the theta = 0 rows (w(t^-) when None)."""
        return _Windows(self, times, ends)


class _Windows:
    """The windows w_t at every t of `times`, read together as one (T, n) array.

    Row i of `W(theta)` reads the window of times[i]: one searchsorted over the
    view's node arrays, bracket corrections in theta-space, the sentinels
    w((t - r)^-) at theta = -r and ends[i] (w(t^-) when `ends` is None) at
    theta = 0: the one bracket search of a delayed-state window. `W[i]` is row
    i as a `HistorySegment`, for kernels that are called node by node; its
    scalar reads are rows of `W(theta)`, so the first read at a theta reads
    every row there and later rows at that theta are lookups.

    The reads record what they used, for `solve_segment`'s certified stop:
    `reach`, the highest view node any read used (an interior read uses the node
    below t + theta and, unless it lands on it, the node above; the sentinels
    w((t - r)^-), built once, use the nodes around every t - r, a repeated time
    counting as one node), and whether any used an end row (`read_high`). A row
    whose `theta_grid` or `values` is built (array reads, `sup_norm`) has used
    its whole window and both sentinels.

    At theta <= -r every row reads its sentinel, so W(-r) is a copy of it
    without a bracket search, and a theta the rows' scalar reads have kept is a
    copy of that read.
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
        self._reads = {}  # theta -> W(theta), kept for the rows' scalar reads
        self.reach, self.read_high = -1, False

    def _row(self, i: int) -> HistorySegment:
        # a row refers to its parent, never the reverse, so the two form no cycle
        row = HistorySegment.__new__(HistorySegment)
        attrs = vars(row)
        attrs["_parent"], attrs["_i"] = self, i
        return row

    def __getitem__(self, i: int) -> HistorySegment:
        if not (type(i) is int and 0 <= i < len(self.times)):
            i = range(len(self.times))[i]  # negative, numpy and out-of-range indices
        return self._row(i)

    def __iter__(self):
        return map(self._row, range(len(self.times)))

    @cached_property
    def _low(self) -> np.ndarray:
        view = self._view
        q = self.times - view.delay
        # the highest node used is the first node at or above the highest t - r
        # (t - r below the first node, t just below 0, reads that node exactly)
        if len(q):
            top = np.searchsorted(view.node_times, q.max(), side="left")
            self.reach = max(self.reach, min(int(top), len(view.node_times) - 1))
        return _interp_sorted(view.times, view.values, q)

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
        kept = self._reads.get(theta)
        if kept is not None:
            return kept.copy()
        view, ts = self._view, self.times
        r = view.delay
        pad = _EDGE_TOL * (1.0 + r)
        if theta < -r - pad or theta > pad:
            raise ValueError(f"theta={theta} outside [{-r}, 0]")
        if theta <= -r:  # every row lies below its window's first node
            return self._low.copy()
        if not theta < 0.0:  # NaN too, as on every reader
            self.read_high = True
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
        # a row uses node j unless below, and node j + 1 unless on a sample or above
        top = j + ~(on | above)
        top[below & (on | above)] = -1
        self.reach = max(self.reach, int(top.max()))
        self.read_high |= bool((above & ~on).any())
        return out


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Left-continuous piecewise solution with recorded jumps.

    blocks[0] is the history block on [-r, 0]; blocks[j] for j >= 1 covers
    [t_{j-1}, t_j] with t_0 = 0 and the final block ending at the horizon.
    A partially built trajectory (a prefix of the full block list) ends at t_k^-
    and holds right limits only for the impulses strictly inside it; `complete`
    tells the two apart. right_limits[k] is w(t_k^+), the first node value of
    block k+2. `_view` lays the blocks end to end as one node array;
    `main_times` and `main_values` are its part past the history block.
    """

    dimension: int
    delay: float
    horizon: float
    impulse_times: np.ndarray
    blocks: tuple

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

        if len(blocks) < 1:
            raise ValueError("a trajectory needs at least the history block")
        ht, _ = blocks[0]
        if ht[0] != -self.delay or ht[-1] != 0.0:
            raise ValueError("history block must span exactly [-delay, 0]")
        m = len(tk)
        if np.any(tk <= 0.0) or np.any(tk >= self.horizon) or np.any(np.diff(tk) <= 0.0):
            raise ValueError("impulse times must be strictly increasing inside (0, horizon)")
        if len(blocks) > m + 2:
            raise ValueError("more main blocks than the impulse schedule allows")
        for j in range(1, len(blocks)):
            bt, bv = blocks[j]
            start = 0.0 if j == 1 else tk[j - 2]
            if bt[0] != start:
                raise ValueError(f"block {j} must start at {start}, got {bt[0]}")
            end = self.horizon if j == m + 1 else tk[j - 1]
            if bt[-1] != end:
                raise ValueError(f"block {j} must end at {end}, got {bt[-1]}")
            # no impulse at 0: the shared node must agree bit-exactly
            if j == 1 and not np.array_equal(blocks[0][1][-1], bv[0]):
                raise ValueError("history and first block disagree at t = 0")

    # -- the one flat node array: history then main nodes ---------------------

    @cached_property
    def _view(self) -> _StateView:
        return _StateView(self.delay, np.concatenate([t for t, _ in self.blocks]),
                          np.concatenate([v for _, v in self.blocks], axis=0))

    @property
    def main_times(self) -> np.ndarray:
        return self._view.times[len(self.blocks[0][0]):]

    @property
    def main_values(self) -> np.ndarray:
        return self._view.values[len(self.blocks[0][0]):]

    @property
    def right_limits(self) -> np.ndarray:
        """(m', n): w(t_k^+) for each impulse strictly inside the coverage."""
        return np.array([v[0] for _, v in self.blocks[2:]]).reshape(-1, self.dimension)

    @property
    def coverage_end(self) -> float:
        return float(self.blocks[-1][0][-1])

    @property
    def complete(self) -> bool:
        return len(self.blocks) == len(self.impulse_times) + 2

    # -- evaluation ------------------------------------------------------------

    def _check_domain(self, ts):
        """Raise unless every t lies in [-r, coverage_end], up to a rounding pad."""
        ts, upper = np.asarray(ts, dtype=float), self.coverage_end
        pad = _EDGE_TOL * (1.0 + self.horizon + self.delay)
        bad = ~((-self.delay - pad <= ts) & (ts <= upper + pad))  # NaN too
        if np.any(bad):
            raise ValueError(f"t={ts[bad].flat[0]} outside [{-self.delay}, {upper}]")

    def eval(self, t: float) -> np.ndarray:
        """Left-continuous value: at an impulse time this is w(t_k^-)."""
        return self.eval_many(np.array([float(t)]))[0]

    def eval_right(self, t: float) -> np.ndarray:
        """Right limit w(t^+); differs from eval only at impulse times.

        Defined on [-r, coverage_end): there is none at the horizon, and a prefix
        ending at t_k does not hold w(t_k^+).
        """
        t = float(t)
        if t >= self.coverage_end:
            raise ValueError(f"right limit undefined at t={t} >= coverage end {self.coverage_end}")
        self._check_domain(t)
        return self._view.eval_right(t).copy()

    def eval_many(self, ts) -> np.ndarray:
        """Vectorized left-continuous evaluation on [-r, coverage_end]."""
        self._check_domain(ts)
        return _interp_sorted(self._view.times, self._view.values, ts)

    def history_segment(self, t: float) -> HistorySegment:
        """The element w_t of C([-r, 0]) sampled on the native nodes in [t-r, t]."""
        t = float(t)
        if not -_EDGE_TOL <= t <= self.coverage_end + _EDGE_TOL * (1.0 + self.horizon):
            raise ValueError(f"t={t} outside [0, {self.coverage_end}]")
        return self._view.windows(np.array([t]))[0]

    def sigma_norm(self) -> float:
        """Max over the blocks on [0, b] of the sup of node values (inf norm)."""
        return float(np.max(np.abs(self.main_values), initial=0.0))


def require_comparable(a, b) -> None:
    """Raise ValueError unless a and b, two problems or two trajectories, share
    dimension, horizon and impulse times."""
    if a.dimension != b.dimension:
        raise ValueError("trajectories have different dimensions")
    if a.horizon != b.horizon or not np.array_equal(a.impulse_times, b.impulse_times):
        raise ValueError("trajectories have different impulse structure")


def sigma_diff(a: PiecewiseTrajectory, b: PiecewiseTrajectory) -> float:
    """Sigma norm of a - b on the union of the two node grids.

    The right limits are compared as well, so a jump mismatch is picked up
    even when the left values agree.
    """
    require_comparable(a, b)
    if a.coverage_end != b.coverage_end:
        raise ValueError(f"trajectories cover up to {a.coverage_end} and {b.coverage_end}")
    grid = sorted_unique(np.concatenate([a.main_times, b.main_times]))
    diff = np.concatenate([a.eval_many(grid) - b.eval_many(grid), a.right_limits - b.right_limits])
    return float(np.max(np.abs(diff), initial=0.0))
