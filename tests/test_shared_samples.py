"""The oracle and the bound curve each sample n, f and g on their own grid.

A `PachpatteInstance` samples n, f and g once on its own grid, for its checks
and tables. `maximal_solution` samples each function once per call on its
grid, and `pachpatte_curve` samples n on its t and f and g at its t off the
instance grid only. Their bits are checked on the campaign's path, on a grid
edited in place and on another grid of the same length: the sweep against
`reference_sweep` (scalar calls, `cumtrap` and `np.trapezoid`) and the curve
against a copy of the path that samples f and g at the off-node times only.
"""

import contextlib
import io
from dataclasses import fields, replace

import numpy as np
import pytest

from impulsedde import (build_oracle_grid, cli, maximal_solution, pachpatte_bound,
                        pachpatte_curve, random_instance)
from impulsedde.bounds import _exp, _growth_tail, _sample

from test_bounds import reference_sweep, smooth_instance


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def sampled_F_at(inst, ts):
    """`_F_at` with f and g sampled at the off-node times only."""
    xs = inst.grid
    _, gv, G, phi, F = inst._tables
    i = np.maximum(xs.searchsorted(ts, side="right") - 1, 0)
    out = F[i]
    off = np.nonzero((xs[i] != ts) & (i != len(xs) - 1))[0]
    if not off.size:
        return out
    t, i = ts[off], i[off]
    G_t = G[i] + 0.5 * (t - xs[i]) * (gv[i] + _sample(inst.g, t))
    out[off] = F[i] + 0.5 * (t - xs[i]) * (phi[i] + _sample(inst.f, t) * (1.0 + G_t))
    return out


def sampled_curve(inst, ts):
    """`pachpatte_curve` sampling n on ts and f and g through `sampled_F_at`."""
    ts = np.asarray(ts, dtype=float)
    alpha = inst.impulse_times.searchsorted(ts, side="left")
    F_alpha, prods = inst._alpha_tables
    return _sample(inst.n, ts) * prods[alpha] * _exp(sampled_F_at(inst, ts) - F_alpha[alpha])


class Counted:
    def __init__(self, fn):
        self.fn, self.calls, self.batched = fn, 0, getattr(fn, "batched", False)

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


def counted(inst):
    """inst with n, f and g wrapped in counters, marked as the originals are."""
    return replace(inst, n=Counted(inst.n), f=Counted(inst.f), g=Counted(inst.g))


def calls(inst):
    return inst.n.calls, inst.f.calls, inst.g.calls


def made_by(inst, fn, *args):
    """fn(*args) and the calls it made."""
    before = calls(inst)
    out = fn(*args)
    return out, tuple(c - b for c, b in zip(calls(inst), before))


def curve_calls(inst, ts):
    """The calls a curve on ts makes: n on ts, f and g at the t off the
    instance grid, in one call each when marked `batched`."""
    off = int(np.count_nonzero(~np.isin(ts, inst.grid)))
    per = (lambda k: int(k > 0)) if inst.f.batched else (lambda k: k)
    return per(len(ts)), per(off), per(off)


def instances_by_impulse_count():
    """Random instances with 0, 1, 2 and 3 impulses, three of each."""
    rng = np.random.Generator(np.random.Philox(25))
    found = {m: [] for m in range(4)}
    while any(len(v) < 3 for v in found.values()):
        inst = random_instance(rng, grid_points=513)
        if len(found[inst.num_impulses]) < 3:
            found[inst.num_impulses].append(inst)
    return [(m, i, inst) for m, insts in found.items() for i, inst in enumerate(insts)]


RANDOM = instances_by_impulse_count()
UNMARKED = [
    smooth_instance(impulse_times=[], beta=[], theta=[], tau=[]),
    smooth_instance(impulse_times=[0.5, 1.1], beta=[1.3, 0.7], theta=[0.2, 0.1], tau=[0.2, 0.4]),
    smooth_instance(impulse_times=[0.7, 1.5], beta=[0.9, 1.8], theta=[0.1, 0.3], tau=[0.5, 0.8]),
]


def check_campaign_path(inst, step, rng):
    """The campaign's oracle and curve on one grid, then scalar bounds."""
    grid = build_oracle_grid(inst, step)
    assert bits(maximal_solution(inst, grid)) == bits(reference_sweep(inst, grid))
    assert bits(pachpatte_curve(inst, grid)) == bits(sampled_curve(inst, grid))
    for t in [*rng.uniform(0.0, inst.horizon, size=3), *grid[[1, len(grid) // 2, -1]]]:
        assert bits(pachpatte_bound(inst, t).value) == bits(sampled_curve(inst, [t]))


@pytest.mark.parametrize("m, i, inst", RANDOM, ids=[f"m{m}-{i}" for m, i, _ in RANDOM])
def test_random_instances_keep_their_bits(m, i, inst):
    assert inst.num_impulses == m
    check_campaign_path(inst, 2e-3, np.random.default_rng(i))


@pytest.mark.parametrize("inst", UNMARKED, ids=["none", "two", "at-horizon"])
def test_unmarked_data_keep_their_bits(inst):
    assert not any(getattr(fn, "batched", False) for fn in (inst.n, inst.f, inst.g))
    check_campaign_path(inst, 5e-3, np.random.default_rng(3))


def test_campaign_samples_each_function_three_times_per_instance(monkeypatch):
    made = []

    def counted_instance(rng):
        made.append(counted(random_instance(rng)))
        return made[-1]

    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        assert cli.run(["inequality", "--samples", "6", "--seed", "4"]) == 0
    monkeypatch.setattr(cli, "random_instance", counted_instance)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["inequality", "--samples", "6", "--seed", "4"]) == 0
    assert out.getvalue() == plain.getvalue()
    assert len(made) == 6
    # on the instance grid, by the oracle on its grid, and by the curve on the
    # oracle grid (f and g at its t off the instance grid)
    assert [calls(inst) for inst in made] == [(3, 3, 3)] * 6


def test_unmarked_data_are_called_once_per_node_and_grid():
    inst = counted(UNMARKED[1])
    assert calls(inst) == (len(inst.grid),) * 3
    grid = build_oracle_grid(inst, 5e-3)
    _, _, by_oracle, by_curve = oracle_and_curve(inst, grid)
    assert by_oracle == (len(grid),) * 3
    assert by_curve == curve_calls(inst, grid)
    assert 0 < by_curve[1] < len(grid)


def nudged(inst, grid):
    """grid with each node that is not 0, the horizon or a breakpoint moved a
    quarter step right: the same length, still an oracle grid for inst."""
    keep = [0.0, inst.horizon, *inst.impulse_times]
    for k in range(1, inst.num_impulses + 1):
        keep += inst.window(k)
    move = np.flatnonzero(~np.isin(grid, keep))
    out = grid.copy()
    out[move] += 0.25 * (grid[move + 1] - grid[move])
    return out


def oracle_and_curve(inst, grid):
    """maximal_solution and pachpatte_curve on grid, and the calls each made."""
    u, by_oracle = made_by(inst, maximal_solution, inst, grid)
    curve, by_curve = made_by(inst, pachpatte_curve, inst, grid)
    return u, curve, by_oracle, by_curve


@pytest.mark.parametrize("inst", [RANDOM[7][2], UNMARKED[1]], ids=["marked", "unmarked"])
def test_grid_edited_in_place_is_sampled_again(inst):
    inst = counted(inst)
    grid = build_oracle_grid(inst, 5e-3)
    oracle_and_curve(inst, grid)
    grid[:] = nudged(inst, grid)
    u, curve, by_oracle, by_curve = oracle_and_curve(inst, grid)
    assert by_oracle == (1 if inst.f.batched else len(grid),) * 3
    assert by_curve == curve_calls(inst, grid)
    assert bits(u) == bits(reference_sweep(inst, grid))
    assert bits(curve) == bits(sampled_curve(inst, grid))


def test_another_grid_of_the_same_length_is_sampled_again():
    inst = counted(RANDOM[7][2])
    a = build_oracle_grid(inst, 2e-3)
    b = nudged(inst, a)
    assert len(a) == len(b) and bits(a) != bits(b)
    for grid in (a, b, a):
        u, curve, by_oracle, by_curve = oracle_and_curve(inst, grid)
        assert by_oracle == by_curve == (1, 1, 1)
        assert bits(u) == bits(reference_sweep(inst, grid))
        assert bits(curve) == bits(sampled_curve(inst, grid))


def test_a_curve_samples_n_on_its_t_and_f_and_g_off_the_nodes_only():
    inst = counted(replace(UNMARKED[1], grid_points=65))
    grid = build_oracle_grid(inst, 2e-2)
    maximal_solution(inst, grid)
    nodes = inst.grid[1::3][:20]
    mids = 0.5 * (inst.grid[:-1] + inst.grid[1:])[:20]
    curve, made = made_by(inst, pachpatte_curve, inst, nodes)
    assert made == (20, 0, 0)
    assert bits(curve) == bits(sampled_curve(inst, nodes))
    curve, made = made_by(inst, pachpatte_curve, inst, mids)
    assert made == (20, 20, 20)
    assert bits(curve) == bits(sampled_curve(inst, mids))
    F, made = made_by(inst, inst._F_at, mids)
    assert made == (0, 20, 20)
    assert bits(F) == bits(sampled_F_at(inst, mids))
    assert made_by(inst, _growth_tail, inst)[1] == (1, 0, 0)
    # on the oracle's grid too, after the oracle has sampled it
    curve, made = made_by(inst, pachpatte_curve, inst, grid)
    assert made == curve_calls(inst, grid)
    assert 0 < made[1] < len(grid)
    assert bits(curve) == bits(sampled_curve(inst, grid))


def test_an_instance_keeps_only_its_fields_and_tables():
    inst = RANDOM[7][2]
    grid = build_oracle_grid(inst, 5e-3)
    maximal_solution(inst, grid)
    pachpatte_curve(inst, grid)
    tables = {"grid", "_tables", "_alpha_tables", "Ck_values"}
    assert set(vars(inst)) == {f.name for f in fields(inst)} | tables
