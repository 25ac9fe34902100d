"""Property tests of `bounds._sample`, the one place where n, f and g are sampled.

`_sample(fn, xs)` calls fn once on an array only when fn is marked `batched`;
any other fn is called once per point. Either way its output must be, bit for
bit, the scalar loop `[float(fn(float(x))) for x in xs]`: for callables that
broadcast, for constants, for scalar-only callables, and for callables that
broadcast wrongly, return another shape or raise. A marked fn that returns
another shape than its times raises.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import (PachpatteInstance, batched, build_catalog, build_oracle_grid,
                        operator_norm_bound, random_instance)
from impulsedde.bounds import _reduction_instance, _sample


def scalar_loop(fn, xs):
    return np.array([float(fn(float(x))) for x in xs])


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


class Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


def smooth(base, amp, freq, phase):
    """The form of `random_instance`'s f and g: sin squared by one multiplication."""
    def data(t):
        s = np.sin(freq * t + phase)
        return base + amp * (s * s)
    return data


def only_scalar(fn):
    """fn on scalars; raises on arrays."""
    def wrapped(t):
        if np.ndim(t):
            raise RuntimeError("scalar input only")
        return fn(t)
    return wrapped


def on_arrays(array_fn):
    """t itself on scalars, array_fn(t) on arrays."""
    return lambda t: array_fn(t) if np.ndim(t) else t


def always_raises(t):
    raise ZeroDivisionError("no value here")


def doubling_in_place(t):
    if np.ndim(t):
        t *= 2.0
        return t
    return t


params = st.floats(0.0, 2.0)
BROADCASTING = st.one_of(
    st.builds(smooth, params, params, params, params),
    st.builds(lambda c0, c1: (lambda t: c0 + c1 * t), params, params),
)
CONSTANT = st.sampled_from((lambda t: 0.4, lambda t: np.float64(1.25), lambda t: 3,
                            lambda t: True))
SCALAR_ONLY = st.one_of(
    st.just(math.sin),
    st.floats(0.0, 8.0).map(lambda c: (lambda t: 1.0 if t < c else 2.0)),
)
WRONG = st.sampled_from((
    on_arrays(lambda t: t[::-1]),                   # reversed
    on_arrays(np.cumsum),                           # cumulative sum
    on_arrays(lambda t: t[:-1]),                    # one value short
    on_arrays(lambda t: np.stack([t, t])),          # 2-D
    on_arrays(lambda t: t.astype(complex)),         # not real
    only_scalar(lambda t: 2.0 * t),                 # raises on arrays
    doubling_in_place,                              # writes into its argument
))

# strictly increasing times on a dyadic lattice, as the instance and oracle grids
# are: sums and differences stay exact, so the wrong callables differ at an end
TIMES = st.lists(st.integers(0, 512), max_size=4, unique=True).map(
    lambda ks: np.array(sorted(ks), dtype=float) / 64.0)


@st.composite
def times(draw):
    xs = draw(TIMES)
    where = draw(st.sampled_from(("none", "first", "last")))
    if where == "first":
        xs = np.concatenate([[math.nan], xs])[:4]
    elif where == "last":
        xs = np.concatenate([xs, [math.nan]])[-4:]
    return xs


@settings(max_examples=300, deadline=None)
@given(st.one_of(BROADCASTING, CONSTANT, SCALAR_ONLY, WRONG), times())
def test_sample_equals_scalar_loop(fn, xs):
    before = xs.copy()
    assert same_bits(_sample(fn, xs), scalar_loop(fn, xs))
    assert same_bits(xs, before)


@settings(max_examples=100, deadline=None)
@given(BROADCASTING, TIMES)
def test_marked_callable_is_called_once_and_unmarked_once_per_point(fn, xs):
    marked = batched(Counted(fn))
    assert same_bits(_sample(marked, xs), scalar_loop(fn, xs))
    assert marked.calls == 1
    unmarked = Counted(fn)
    assert same_bits(_sample(unmarked, xs), scalar_loop(fn, xs))
    assert unmarked.calls == len(xs)


def test_interior_rounding_matches_scalar_loop():
    # numpy's ** 2 on an array rounds some interior samples unlike the scalar
    # calls, while both ends agree; an unmarked callable is never called on arrays
    fn = lambda t: np.sin(t) ** 2  # noqa: E731
    xs = np.linspace(0.0, 8.0, 100001)
    assert same_bits(_sample(fn, xs), scalar_loop(fn, xs))


WRONG_SHAPE = (lambda t: 1.0, lambda t: t[:-1], lambda t: np.stack([t, t]))


@pytest.mark.parametrize("fn", WRONG_SHAPE)
@pytest.mark.parametrize("name", ["n", "f", "g"])
def test_marked_data_of_the_wrong_shape_raises(name, fn):
    with pytest.raises(ValueError, match="batched"):
        _sample(batched(fn), np.linspace(0.0, 1.0, 5))
    data = {"n": lambda t: 1.0, "f": lambda t: 0.5, "g": lambda t: 0.25}
    data[name] = batched(fn)
    with pytest.raises(ValueError, match="batched"):
        PachpatteInstance(**data, impulse_times=[], beta=[], theta=[], tau=[], horizon=1.0,
                          grid_points=16)


@settings(max_examples=50, deadline=None)
@given(TIMES)
def test_raising_callable_raises_as_the_loop_does(xs):
    if len(xs):
        with pytest.raises(ZeroDivisionError):
            _sample(always_raises, xs)
    else:
        assert _sample(always_raises, xs).shape == (0,)


def test_sample_does_not_write_into_its_input():
    xs = np.linspace(0.0, 1.0, 5)
    out = _sample(doubling_in_place, xs)
    assert same_bits(xs, np.linspace(0.0, 1.0, 5))
    assert same_bits(out, xs)


@pytest.mark.parametrize("seed", range(50))
def test_random_instance_samples_match_scalar_loop(seed):
    inst = random_instance(np.random.default_rng(seed))
    xs = inst.grid
    fv, gv = scalar_loop(inst.f, xs), scalar_loop(inst.g, xs)
    G = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (gv[1:] + gv[:-1]))])
    phi = fv * (1.0 + G)
    F = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (phi[1:] + phi[:-1]))])
    for table, reference in zip(inst._tables, (fv, gv, G, phi, F)):
        assert same_bits(table, reference)
    grid = build_oracle_grid(inst, 1e-3)
    for fn in (inst.n, inst.f, inst.g):
        assert same_bits(_sample(fn, grid), scalar_loop(fn, grid))


REDUCTIONS = [(e, False) for e in build_catalog()]
REDUCTIONS += [(e, True) for e in build_catalog() if e.lipschitz.N_V_tilde is not None]


@pytest.mark.parametrize("entry, tilde", REDUCTIONS,
                         ids=[f"{e.name}-{'tilde' if t else 'plain'}" for e, t in REDUCTIONS])
def test_catalog_reduction_data_is_marked_and_equals_scalar_loop(entry, tilde):
    problem, lip = entry.problem, entry.lipschitz
    inst = _reduction_instance(problem, lip, operator_norm_bound(problem.generator, 2.0), tilde)
    for fn in (inst.n, inst.f, inst.g):
        assert fn.batched
        assert same_bits(_sample(fn, inst.grid), scalar_loop(fn, inst.grid))


def test_random_instance_data_is_marked():
    inst = random_instance(np.random.default_rng(0))
    assert inst.n.batched and inst.f.batched and inst.g.batched
