"""The Volterra sums of a U that depends on t, added in byte-bounded blocks of
columns, give the bits and the U calls of the column-by-column loop they
replaced (copied here as `loop_tri` and `loop_rect`)."""

import math

import numpy as np
import pytest

from impulsedde.model import as_state, t_rows
from impulsedde.quadrature import _BLOCK_FLOATS, volterra_rect, volterra_tri
from test_batched import u_problem


def bits(x):
    return np.ascontiguousarray(x).tobytes()


def loop_column(problem, ts, s, seg):
    U, n = problem.U, problem.dimension
    if problem._u_form == "broadcast":
        return t_rows(U(ts, s, seg), len(ts), n)
    return np.stack([as_state(U(t, s, seg), n) for t in ts.tolist()])


def loop_tri(problem, nodes, segs):
    """volterra_tri's column loop: column i adds (d_{i-1} / 2) col to z[i:], then
    (d_i / 2) col[1:] to z[i+1:]."""
    z = np.zeros((len(nodes), problem.dimension))
    half = (0.5 * np.diff(nodes)).tolist()
    for i, (left, right, s) in enumerate(zip([0.0] + half, half + [0.0], nodes.tolist())):
        if left == 0.0 and right == 0.0:
            continue
        col = loop_column(problem, nodes[i:], s, segs[i])
        zi = z[i:]
        if left != 0.0:
            zi += left * col
        if right != 0.0:
            zi = zi[1:]
            zi += right * col[1:]
    return z


def loop_rect(problem, t_nodes, sigma_times, sigma_segs):
    """volterra_rect's column loop: out += w_i col_i for every w_i != 0."""
    out = np.zeros((len(t_nodes), problem.dimension))
    d = np.diff(sigma_times)
    w = np.zeros(len(sigma_times))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    for i, (wi, si) in enumerate(zip(w, sigma_times.tolist())):
        if wi != 0.0:
            out += wi * loop_column(problem, t_nodes, si, sigma_segs[i])
    return out


def flat_U(t, s, row):
    """(T,) for a vector of t when n = 1."""
    return np.sin(np.asarray(t) * s + 1.0) * row[0]


def rows_U(t, s, row):
    """(T, n) for a vector of t."""
    return np.exp(-(np.asarray(t) - s))[..., None] * np.cos(row + s)


def scalar_U(t, s, row):
    """One t at a time: math.exp takes no array."""
    return math.exp(-(t - s)) * np.sin(row)


def counted(U, n):
    """(problem, the number of points of every U call made after probing)."""
    problem = u_problem(U, n)
    calls = []

    def wrapped(t, s, row):
        calls.append(np.size(t))
        return U(t, s, row)

    problem.U = wrapped
    return problem, calls


KERNELS = [(flat_U, 1, "broadcast"), (rows_U, 1, "broadcast"), (rows_U, 2, "broadcast"),
           (scalar_U, 1, "scalar"), (scalar_U, 2, "scalar")]


def impulse_nodes(rng, T, impulses=3):
    """T sorted nodes with repeated impulse times, as `mild_residual` lays them out."""
    base = np.sort(rng.uniform(0.0, 2.0, T - impulses))
    return np.sort(np.concatenate([base, base[rng.choice(np.arange(1, len(base) - 1), impulses,
                                                         replace=False)]]))


def check(U, n, form, run, loop):
    problem, calls = counted(U, n)
    assert problem._u_form == form
    calls.clear()
    got = run(problem)
    got_calls = list(calls)
    calls.clear()
    assert bits(got) == bits(loop(problem))
    assert got_calls == calls


@pytest.mark.parametrize("U, n, form", KERNELS)
@pytest.mark.parametrize("T", [2, 3, 61, 403])
def test_tri_blocks_equal_the_column_loop(U, n, form, T):
    # at T = 403 the first block holds 9 columns (n = 1) or 4 (n = 2), and
    # neither divides 403
    assert T < 403 or 403 % ((_BLOCK_FLOATS // (403 * n) - 1) // 2) != 0
    rng = np.random.default_rng(T)
    nodes = impulse_nodes(rng, T, impulses=min(3, T - 2)) if T > 3 else np.sort(rng.random(T))
    segs = list(rng.uniform(-3.0, 3.0, (T, n)))
    check(U, n, form, lambda p: volterra_tri(p, nodes, segs),
          lambda p: loop_tri(p, nodes, segs))


def test_long_tri_equals_the_column_loop():
    rng = np.random.default_rng(2048)
    nodes = np.linspace(0.0, 1.0, 2048)
    segs = list(rng.uniform(-1.0, 1.0, (2048, 1)))
    check(flat_U, 1, "broadcast", lambda p: volterra_tri(p, nodes, segs),
          lambda p: loop_tri(p, nodes, segs))


@pytest.mark.parametrize("U, n, form", KERNELS)
@pytest.mark.parametrize("outer", [1, 2, 57])
def test_rect_blocks_equal_the_column_loop(U, n, form, outer):
    # one outer time is `volterra_term`: all of its columns fit one block, whose
    # sum has a single output element
    rng = np.random.default_rng(outer)
    sigma = impulse_nodes(rng, 211)
    segs = list(rng.uniform(-3.0, 3.0, (len(sigma), n)))
    t_nodes = np.sort(rng.uniform(2.0, 3.0, outer))
    check(U, n, form, lambda p: volterra_rect(p, t_nodes, sigma, segs),
          lambda p: loop_rect(p, t_nodes, sigma, segs))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_special_values_keep_their_bits():
    # -0.0 columns, infinities and NaNs next to zero-width steps
    nodes = np.array([0.0, 0.1, 0.1, 0.25, 0.25, 0.25, 0.4, 0.7])
    values = [-0.0, np.inf, -np.inf, np.nan, -0.0, 2.0, -0.0, 1.0]

    def U(t, s, row):
        return np.full(np.shape(t), row[0])

    segs = [np.array([v]) for v in values]
    check(U, 1, "broadcast", lambda p: volterra_tri(p, nodes, segs),
          lambda p: loop_tri(p, nodes, segs))
    check(U, 1, "broadcast", lambda p: volterra_rect(p, np.array([1.0]), nodes, segs),
          lambda p: loop_rect(p, np.array([1.0]), nodes, segs))
