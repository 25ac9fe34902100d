"""The shared trapezoid module: its functions equal the per-caller code they
replaced, and the bounds reach the solver only through its public names."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import build_oracle_grid, random_instance, solver
from impulsedde.quadrature import cumtrap, segment_grid


def old_cumtrap_columns(times, g):
    incr = 0.5 * np.diff(times)[:, None] * (g[1:] + g[:-1])
    out = np.empty_like(g)
    out[0] = 0.0
    np.cumsum(incr, axis=0, out=out[1:])
    return out


def old_cumtrap1d(x, y):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]), out=out[1:])
    return out


def old_oracle_grid(inst, step):
    cuts = {0.0, inst.horizon}
    for k in range(1, inst.num_impulses + 1):
        lo, hi = inst.window(k)
        cuts.update((lo, hi, float(inst.impulse_times[k - 1])))
    cuts = sorted(c for c in cuts if 0.0 <= c <= inst.horizon)
    parts = [np.array([0.0])]
    for p, q in zip(cuts[:-1], cuts[1:]):
        if q - p <= 0.0:
            continue
        pieces = max(1, math.ceil((q - p) / step - 1e-9))
        parts.append(np.linspace(p, q, pieces + 1)[1:])
    return np.concatenate(parts)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(2, 40), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_cumtrap_columns_equal_one_dimensional_calls(T, n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 1.0, T)) - rng.uniform(0.0, 2.0)
    y = rng.uniform(-10.0, 10.0, (T, n))
    got = cumtrap(x, y)
    assert got.tobytes() == old_cumtrap_columns(x, y).tobytes()
    for j in range(n):
        col = np.ascontiguousarray(y[:, j])
        assert got[:, j].tobytes() == cumtrap(x, col).tobytes()
        assert cumtrap(x, col).tobytes() == old_cumtrap1d(x, col).tobytes()


@pytest.mark.parametrize("step", [1e-3, 7e-3])
def test_oracle_grid_equals_old_builder(step):
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        assert build_oracle_grid(inst, step).tobytes() == old_oracle_grid(inst, step).tobytes()


# 0.9 / 0.03 rounds to 30.000000000000004, one piece too many without the 1e-9 slack
@pytest.mark.parametrize("r, h", [(1.0, 1e-3), (0.5, 5e-3), (0.25, 7e-3), (1.5, 0.4), (0.9, 0.03)])
def test_history_grid_equals_linspace(r, h):
    nh = max(1, math.ceil(r / h - 1e-9))
    assert segment_grid(-r, 0.0, h).tobytes() == np.linspace(-r, 0.0, nh + 1).tobytes()


def linspace_grid(a, b, h, specials=()):
    """segment_grid as one np.linspace per piece."""
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


@st.composite
def grid_cases(draw):
    a = draw(st.floats(-4.0, 2.0))
    b = a + draw(st.floats(1e-3, 3.0))
    m = draw(st.integers(1, 400))
    # spacings: any; a whole piece (k = 1); (b - a)/h within 1e-9 of the integer m
    h = draw(st.floats(1e-3, 2.0) | st.floats(b - a, 2.0 * (b - a) + 1.0)
             | st.sampled_from((0.0, 1e-10, -1e-10, 9e-10, -9e-10, 1e-9, -1e-9, 2e-9)).map(
                 lambda d: (b - a) / (m + d)))
    # specials: anywhere around [a, b], on a multiple of the spacing, or near a cut
    tol = 1e-14 * (1.0 + abs(b))
    base = (st.floats(a - 1.0, b + 1.0) | st.sampled_from((a, b))
            | st.integers(1, m).map(lambda j: a + j * ((b - a) / m)))
    nudge = st.sampled_from((0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0)).map(lambda c: c * tol)
    specials = draw(st.lists(st.builds(lambda s, d: s + d, base, nudge), max_size=8))
    for s in draw(st.lists(st.sampled_from(specials), max_size=3)) if specials else ():
        # a repeat, or a point within 1e-14 of a special
        specials.append(s + draw(nudge))
    return a, b, h, draw(st.permutations(specials))


@settings(max_examples=400, deadline=None)
@given(grid_cases())
def test_segment_grid_equals_one_linspace_per_piece(case):
    a, b, h, specials = case
    assert segment_grid(a, b, h, specials).tobytes() == linspace_grid(a, b, h, specials).tobytes()


@pytest.mark.parametrize("a, b, h, specials", [
    (0.0, 1.0, 2.0, ()),                         # one piece of one step
    (-1.0, 1.0, 0.3, (-0.5, 0.2, 0.2, 0.9)),     # a repeated special
    (0.0, 0.9, 0.03, ()),                        # 30.000000000000004 steps: 30
    (-0.5, 0.0, 1e-3, (-0.25, -0.25 + 5e-15)),   # a special within 1e-14 of a cut
    (0.0, 1.0, 0.1, (-1.0, 0.0, 1.0, 2.0)),      # specials on and outside the ends
    (0.0, 1.0, 0.1, (0.35, 0.3500000001)),       # a piece far shorter than h
])
def test_segment_grid_cases(a, b, h, specials):
    assert segment_grid(a, b, h, specials).tobytes() == linspace_grid(a, b, h, specials).tobytes()


def test_bounds_imports_only_public_solver_names():
    source = Path(solver.__file__).with_name("bounds.py").read_text()
    names = [alias.name for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "solver"
             for alias in node.names]
    assert names
    assert set(names) <= set(solver.__all__)
