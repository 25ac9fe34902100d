"""Property tests of the Pachpatte bound curve.

`pachpatte_curve(inst, ts)` must give, element by element and bit for bit,
the value of `pachpatte_bound(inst, t)` and of the scalar definition the bound
had before it was vectorised (reimplemented below from the instance's public
data), whatever the order of `ts` and whatever else it holds. Times include
grid nodes, impulse times, window endpoints and their one-ulp neighbours,
where the off-node trapezoid extension and the left-continuous alpha switch.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import pachpatte_bound, pachpatte_curve, random_instance


@lru_cache(maxsize=None)
def instance(seed):
    return random_instance(np.random.default_rng(seed))


def scalar_reference(inst, t):
    """n(t) * prod_{t_k < t} C_k * exp(F(t) - F(t_alpha)), one t at a time."""
    xs = inst.grid
    fv = np.array([float(inst.f(float(x))) for x in xs])
    gv = np.array([float(inst.g(float(x))) for x in xs])
    G = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (gv[1:] + gv[:-1]))])
    phi = fv * (1.0 + G)
    F = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (phi[1:] + phi[:-1]))])

    def F_at(s):
        i = min(max(int(np.searchsorted(xs, s, side="right")) - 1, 0), len(xs) - 1)
        if xs[i] == s or i == len(xs) - 1:
            return float(F[i])
        G_s = G[i] + 0.5 * (s - xs[i]) * (gv[i] + float(inst.g(s)))
        return float(F[i] + 0.5 * (s - xs[i]) * (phi[i] + float(inst.f(s)) * (1.0 + G_s)))

    alpha = int(np.searchsorted(inst.impulse_times, t, side="left"))
    t_alpha = float(inst.impulse_times[alpha - 1]) if alpha else 0.0
    prod = float(np.prod(inst.Ck_values[:alpha])) if alpha else 1.0
    return float(inst.n(t)) * prod * math.exp(F_at(t) - F_at(t_alpha))


def anchors(inst):
    specials = [0.0, inst.horizon, inst.horizon + 1e-12, *inst.impulse_times.tolist()]
    for k in range(1, inst.num_impulses + 1):
        specials += inst.window(k)
    return (st.sampled_from(specials) | st.sampled_from(inst.grid.tolist())
            | st.floats(0.0, inst.horizon))


def ulp_shift(pair):
    t, step = pair
    return float(np.nextafter(t, math.copysign(math.inf, step))) if step else t


@st.composite
def instance_and_times(draw):
    inst = instance(draw(st.integers(0, 24)))
    in_domain = st.tuples(anchors(inst), st.sampled_from((-1, 0, 1))).map(ulp_shift).filter(
        lambda t: 0.0 <= t <= inst.horizon + 1e-12)
    ts = draw(st.lists(in_domain, min_size=1, max_size=30))
    ts += draw(st.lists(st.sampled_from(ts), max_size=5))  # duplicates
    return inst, draw(st.permutations(ts))


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(instance_and_times(), st.data())
def test_curve_matches_scalar_bound_bit_for_bit(case, data):
    inst, ts = case
    curve = pachpatte_curve(inst, np.array(ts))
    assert bits(curve) == bits(pachpatte_bound(inst, t).value for t in ts)
    assert bits(curve) == bits(scalar_reference(inst, t) for t in ts)
    order = data.draw(st.permutations(range(len(ts))))
    assert bits(pachpatte_curve(inst, np.array(ts)[order])) == bits(curve[order])
    sub = data.draw(st.lists(st.sampled_from(range(len(ts))), min_size=1))
    assert bits(pachpatte_curve(inst, np.array(ts)[sub])) == bits(curve[sub])


@settings(max_examples=40, deadline=None)
@given(instance_and_times(), st.sampled_from(("nan", "negative", "tiny_negative", "over")),
       st.data())
def test_out_of_domain_raises(case, kind, data):
    inst, ts = case
    bad = {"nan": math.nan, "negative": -0.5, "tiny_negative": -5e-324,
           "over": float(np.nextafter(inst.horizon + 1e-12, math.inf))}[kind]
    at = data.draw(st.integers(0, len(ts)))
    with pytest.raises(ValueError, match="outside"):
        pachpatte_curve(inst, np.array(ts[:at] + [bad] + ts[at:]))
    with pytest.raises(ValueError, match="outside"):
        pachpatte_bound(inst, bad)


def test_empty_and_non_1d_input():
    inst = instance(0)
    assert pachpatte_curve(inst, np.empty(0)).shape == (0,)
    with pytest.raises(ValueError, match="1-D"):
        pachpatte_curve(inst, np.zeros((2, 2)))
