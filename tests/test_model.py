from dataclasses import replace

import numpy as np
import pytest

from impulsedde import Discretization, batched, build_catalog, get_entry, solve_mild, validate
from impulsedde.trajectory import _Window, _Windows


@pytest.fixture(scope="module")
def catalog():
    return {e.name: e for e in build_catalog()}


class TestCatalog:
    def test_required_entries_present(self, catalog):
        for name in ("paper_example", "pure_semigroup", "method_of_steps"):
            assert name in catalog

    def test_paper_example_window_offsets(self, catalog):
        p = catalog["paper_example"].problem
        assert p.theta_offsets[0] == 0.5
        assert p.tau_offsets[0] == 0.5
        lo, hi = p.jump_window(1)
        assert hi - lo == 0.0  # zero-length window

    def test_paper_example_data(self, catalog):
        p = catalog["paper_example"].problem
        assert p.dimension == 1
        assert p.generator[0, 0] == 1.0
        assert p.horizon == 2.0
        assert list(p.impulse_times) == [1.0]
        assert p.history(-0.25) == -0.25

    def test_paper_example_lipschitz(self, catalog):
        lip = catalog["paper_example"].lipschitz
        assert lip.N_V(0.3) == 1.0
        assert lip.N_U(1.7) == 1.0
        assert lip.D_k == (1.0,)
        assert lip.L_G == pytest.approx(0.01)

    def test_pure_semigroup_V_is_zero(self, catalog):
        p = catalog["pure_semigroup"].problem
        seg = _probe(p)
        assert p.V(0.7, seg, np.zeros(1)) == 0.0
        assert p.U(0.7, 0.3, seg) == 0.0

    def test_method_of_steps_history(self, catalog):
        p = catalog["method_of_steps"].problem
        assert p.history(-0.3) == 1.0
        seg = _probe(p)
        assert p.V(0.0, seg, np.zeros(1))[0] == seg(-1.0)[0]

    def test_every_entry_validates(self, catalog):
        for entry in catalog.values():
            assert validate(entry.problem) == [], entry.name

    def test_instantiate_in_range(self, catalog):
        entry = catalog["paper_example"]
        problem, lip = entry.instantiate(L_G=0.3, r_eff=0.5)
        assert validate(problem) == []
        assert lip.L_G == pytest.approx(0.3)
        assert problem.delay == 0.5

    def test_instantiate_out_of_range(self, catalog):
        entry = catalog["paper_example"]
        with pytest.raises(ValueError, match="L_G"):
            entry.instantiate(L_G=5.0)
        with pytest.raises(ValueError, match="no parameter"):
            entry.instantiate(bogus=1.0)

    def test_u_sign_flag(self, catalog):
        entry = catalog["paper_example"]
        p_minus, _ = entry.instantiate(u_constant=-1.0)
        p_plus, _ = entry.instantiate(u_constant=1.0)
        seg = _probe(p_minus)
        lo = p_minus.U(0.0, 0.0, seg)
        hi = p_plus.U(0.0, 0.0, seg)
        assert hi - lo == pytest.approx(2.0)

    def test_get_entry_unknown(self):
        with pytest.raises(KeyError):
            get_entry("does_not_exist")


def _probe(problem):
    thetas = np.linspace(-problem.delay, 0.0, 5)
    return __import__("impulsedde").HistorySegment(thetas, problem.history_values(thetas))


class TestValidate:
    def test_window_violation_names_index(self, catalog):
        p = replace(catalog["paper_example"].problem, tau_offsets=[1.5])
        messages = validate(p)
        assert any("k=1" in msg for msg in messages)

    def test_ordering_violation(self, catalog):
        base = catalog["paper_example"].problem
        p = replace(
            base,
            impulse_times=[1.0, 0.5],
            theta_offsets=[0.1, 0.1],
            tau_offsets=[0.2, 0.2],
            jump_maps=(np.sin, np.sin),
        )
        messages = validate(p)
        assert any("increasing" in msg for msg in messages)

    def test_impulse_outside_horizon(self, catalog):
        p = replace(catalog["paper_example"].problem, impulse_times=[2.5])
        assert any("outside" in msg for msg in validate(p))

    def test_discontinuous_history_flagged(self, catalog):
        p = replace(
            catalog["paper_example"].problem,
            history=lambda t: 0.0 if t < -0.5 else 1.0,
        )
        assert any("continuity" in msg for msg in validate(p))

    @pytest.mark.parametrize("history", [
        lambda t: np.nan if abs(t + 0.25) < 1e-3 else 0.4 * (1.0 + t),  # NaN near -0.25
        lambda t: np.inf if t < -0.49 else 0.4 * (1.0 + t),  # inf below -0.49
    ])
    def test_non_finite_history_flagged(self, catalog, history):
        # NaN fails every comparison and inf - inf is NaN, so the continuity check
        # alone passed both; the solve then failed with "non-finite iterate"
        p = replace(catalog["parameter_family"].problem, history=history)
        assert validate(p) == ["history has non-finite samples"]
        with pytest.raises(ValueError, match="invalid problem: history has non-finite samples"):
            solve_mild(p, Discretization(step=5e-3))

    def test_bad_kernel_shape(self, catalog):
        p = replace(
            catalog["windowed_impulse"].problem,
            V=lambda t, w_t, z: np.zeros(3),  # wrong length for n=2
        )
        assert any("V probe" in msg for msg in validate(p))

    def test_u_broadcasting_unlike_its_scalar_calls_flagged(self, catalog):
        # one row for a vector of t, another value for each scalar t
        p = replace(catalog["paper_example"].problem, U=lambda t, s, w_s: 1.0 + np.ndim(t))
        message = "U broadcasts over its time argument but disagrees with scalar calls"
        assert validate(p) == [message]
        # a U that does not broadcast at all is allowed
        p = replace(p, U=lambda t, s, w_s: float(t) - s)
        assert validate(p) == []

    @pytest.mark.parametrize("mark", [False, True])
    def test_kernels_are_probed_on_window_rows(self, catalog, mark):
        base = catalog["windowed_impulse"].problem
        seen = {"V": set(), "U": set(), "G": set()}

        def recorded(name, kernel, at):
            def fn(*args):
                seen[name].add(type(args[at]))
                return kernel(*args)
            return batched(fn) if mark else fn

        p = replace(base, V=recorded("V", base.V, 1), U=recorded("U", base.U, 2),
                    G=recorded("G", base.G, 1))
        assert validate(p) == []
        # node by node on rows of the probe's windows; a marked kernel also gets them whole
        expected = {_Window, _Windows} if mark else {_Window}
        assert seen == {"V": expected, "U": expected, "G": expected}

    def test_mismatched_jump_list(self, catalog):
        p = replace(catalog["paper_example"].problem, jump_maps=())
        assert any("jump_maps" in msg for msg in validate(p))

    def test_lipschitz_scalars_nonnegative(self):
        from impulsedde import LipschitzData

        with pytest.raises(ValueError, match="L_G"):
            LipschitzData(N_V=lambda t: 1.0, N_U=lambda t: 0.0, L_G=-0.1)
        with pytest.raises(ValueError, match="D_k"):
            LipschitzData(N_V=lambda t: 1.0, N_U=lambda t: 0.0, L_G=0.0, D_k=(-1.0,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["L_G", "Omega_1", "Omega_2", "L_G_tilde", "P", "J"])
    def test_lipschitz_scalars_finite(self, name, value):
        from impulsedde import LipschitzData

        with pytest.raises(ValueError, match=name):
            LipschitzData(N_V=lambda t: 1.0, N_U=lambda t: 0.0, **{"L_G": 0.0, name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["D_k", "N_k"])
    def test_lipschitz_entries_finite(self, name, value):
        from impulsedde import LipschitzData

        with pytest.raises(ValueError, match=name):
            LipschitzData(N_V=lambda t: 1.0, N_U=lambda t: 0.0, L_G=0.0, **{name: (0.5, value)})
