import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsedde import SemigroupBound, evolve, operator_norm_bound
from impulsedde.semigroup import SAFETY_FACTOR, propagator_stack

E2 = float(np.exp(2.0))


class TestEvolve:
    def test_zero_generator_is_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(evolve(np.zeros((3, 3)), 1.7, x), x)

    def test_scalar_exponential(self):
        # T(t)x = e^t x
        assert evolve([[1.0]], 1.0, [1.0])[0] == pytest.approx(np.e, rel=1e-12)

    def test_nilpotent(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        assert np.allclose(evolve(A, 1.0, [0.0, 1.0]), [1.0, 1.0], atol=1e-14)

    def test_t_zero_exact(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        assert np.array_equal(evolve(A, 0.0, x), x)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve([[1.0]], -0.1, [1.0])

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            evolve([[0.0, 0.4], [-0.4, 0.0]], t, [1.0, 0.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            evolve(np.ones((2, 3)), 1.0, [1.0, 2.0])

    def test_spectral_oracle(self, rng):
        # diagonalizable via orthogonal similarity: exact reference
        worst = 0.0
        for _ in range(100):
            lam = rng.uniform(-2.0, 2.0, 4)
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            A = Q @ np.diag(lam) @ Q.T
            t = float(rng.uniform(0.0, 2.0))
            x = rng.normal(size=4)
            ref = Q @ np.diag(np.exp(lam * t)) @ Q.T @ x
            err = np.max(np.abs(evolve(A, t, x) - ref)) / (1.0 + np.max(np.abs(ref)))
            worst = max(worst, err)
        assert worst <= 1e-9

    def test_semigroup_law(self, rng):
        worst = 0.0
        for _ in range(100):
            A = rng.normal(size=(3, 3))
            A *= 2.0 / max(1.0, np.abs(A).sum(axis=1).max())
            s, t = rng.uniform(0.0, 1.0, 2)
            x = rng.normal(size=3)
            gap = np.max(np.abs(evolve(A, s, evolve(A, t, x)) - evolve(A, s + t, x)))
            worst = max(worst, gap / (1.0 + np.max(np.abs(x))))
        assert worst <= 1e-10


class TestOperatorNormBound:
    def test_identity_bound(self):
        sg = operator_norm_bound(np.zeros((2, 2)), 2.0)
        assert sg.M == pytest.approx(1.0, rel=2e-6)
        assert sg.M >= 1.0

    def test_scalar_growth(self):
        sg = operator_norm_bound([[1.0]], 2.0)
        assert sg.M == pytest.approx(E2, rel=2e-6)
        assert sg.M >= E2  # the safety factor keeps it conservative

    def test_decaying_clamped_to_one(self):
        sg = operator_norm_bound([[-1.0]], 2.0)
        assert sg.M == pytest.approx(1.0, rel=2e-6)

    def test_monotone_in_horizon(self):
        # nested grids: [0, 2b] at 2N-1 samples contains the [0, b] grid
        A = [[0.3, -1.0], [0.8, -0.2]]
        M1 = operator_norm_bound(A, 1.0, samples=513).M
        M2 = operator_norm_bound(A, 2.0, samples=1025).M
        assert M2 >= M1

    def test_bound_dominates_samples(self, rng):
        A = rng.normal(size=(3, 3))
        sg = operator_norm_bound(A, 1.5, samples=257)
        for t in np.linspace(0.0, 1.5, 257)[::8]:
            norm = np.abs(scipy.linalg.expm(A * t)).sum(axis=1).max()
            assert sg.M >= norm * (1.0 - 1e-9)

    def test_invariants(self):
        with pytest.raises(ValueError):
            SemigroupBound(M=0.5, horizon=1.0, sample_count=2)
        with pytest.raises(ValueError):
            operator_norm_bound([[1.0]], -1.0)
        with pytest.raises(ValueError):
            operator_norm_bound([[1.0]], 1.0, samples=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_horizon_and_M_rejected(self, value):
        # a NaN or infinite horizon used to give M = 1.000001 whatever A was
        with pytest.raises(ValueError, match="horizon"):
            operator_norm_bound([[1.0]], value)
        with pytest.raises(ValueError, match="M must be finite"):
            SemigroupBound(M=value, horizon=1.0, sample_count=2)


@pytest.mark.parametrize("A", [[[float("nan")]], [[1.0, float("inf")], [0.0, 1.0]],
                               [[-float("inf")]]])
def test_non_finite_generator_rejected(A):
    # such generators used to give M = 1.000001
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm_bound(A, 1.0)


@pytest.mark.parametrize("horizon, sample_count", [
    (float("nan"), 2), (float("inf"), 2), (-1.0, 2), (0.0, 2), (1.0, 1), (1.0, 0), (-1.0, 0)])
def test_bound_rejects_bad_horizon_and_sample_count(horizon, sample_count):
    # a NaN horizon used to pass existence_certificate's horizon check
    with pytest.raises(ValueError, match="horizon|sample_count"):
        SemigroupBound(M=1.0, horizon=horizon, sample_count=sample_count)
    SemigroupBound(M=1.0, horizon=1.0, sample_count=2)


def test_non_finite_exponential_rejected():
    # max(1.0, nan) is 1.0: NaN norms used to give M = 1.000001 for this generator
    A = [[0.0, 1e308], [0.0, 0.0]]
    assert operator_norm_bound(A, 1.0).M >= 1e308  # e^{At} = I + At exactly
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm_bound(A, 2.0)


def _row_error(got, ref):
    """Largest entry error of each matrix, relative to its largest reference entry."""
    return (np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))).max()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 4), shape=st.sampled_from([None, np.triu, np.tril]),
       norm=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_exponential_matches_scipy(n, shape, norm, seed):
    # entries of mixed magnitude make A far from normal
    r = np.random.default_rng(seed)
    A = r.normal(size=(n, n)) * 10.0 ** r.uniform(-2.0, 2.0, size=(n, n))
    if shape is not None:
        A = shape(A)
    A *= norm / np.abs(A).sum(axis=0).max()
    ref = scipy.linalg.expm(A)
    tol = 1e-12 if norm <= 1.0 else 1e-10
    assert _row_error(propagator_stack(A, [1.0])[0], ref) <= tol
    x = r.normal(size=n)
    assert np.abs(evolve(A, 1.0, x) - ref @ x).max() <= tol * np.abs(ref).max() * np.abs(x).sum()


def test_nilpotent_of_huge_norm():
    # scaling on ||A||_1 would square 2^664 times and underflow to e^A = 0
    A = np.array([[0.0, 1e200], [0.0, 0.0]])
    assert np.array_equal(propagator_stack(A, [1.0])[0], np.eye(2) + A)


def test_triangular_entries_spanning_many_orders():
    # the superdiagonal keeps its factor e through every squaring
    E = propagator_stack([[1.0, 1e250], [0.0, 1.0]], [1.0])[0]
    assert _row_error(E, np.e * np.array([[1.0, 1e250], [0.0, 1.0]])) <= 1e-15


def test_lower_triangular_entries_spanning_many_orders():
    # the transpose of the case above: the subdiagonal keeps its factor e too
    E = propagator_stack([[1.0, 0.0], [1e250, 1.0]], [1.0])[0]
    assert _row_error(E, np.e * np.array([[1.0, 0.0], [1e250, 1.0]])) <= 1e-15


def test_triangular_with_distant_diagonal_entries():
    # (e^{-1} - e^{-1500}) / 1499: e^{-1500} underflows, so a factor
    # e^{(a + b) / 2} sinch((a - b) / 2) of the superdiagonal would be 0 * inf
    E = propagator_stack([[-1.0, 1.0], [0.0, -1500.0]], [1.0])[0]
    ref = np.array([[np.exp(-1.0), np.exp(-1.0) / 1499.0], [0.0, 0.0]])
    assert _row_error(E, ref) <= 1e-15
    # a zero superdiagonal entry beside such a pair stays exactly zero
    A = np.array([[-1.0, 0.0, 1.0], [0.0, -1500.0, 0.0], [0.0, 0.0, -2.0]])
    E = propagator_stack(A, [1.0])[0]
    assert E[0, 1] == 0.0 and E[1, 2] == 0.0
    assert _row_error(E, scipy.linalg.expm(A)) <= 1e-15


def test_bound_of_triangular_with_distant_diagonal_entries():
    # row sums in closed form: e^{-400t} + (e^{-400t} - e^{-1000t}) / 600 and e^{-1000t}
    sg = operator_norm_bound([[-400.0, 1.0], [0.0, -1000.0]], 3.0)
    t = np.linspace(0.0, 3.0, sg.sample_count)
    a, c = np.exp(-400.0 * t), np.exp(-1000.0 * t)
    sup = max(1.0, np.maximum(a + (a - c) / 600.0, c).max())
    assert sg.M == pytest.approx(sup * SAFETY_FACTOR, rel=1e-15)


def test_triangular_stack_matches_closed_form():
    # the M-undershoot generator: e^{tA} in closed form, each t scaled on its own
    t = np.linspace(0.0, 10.0, 1024)
    a, c = np.exp(-50.0 * t), np.exp(-60.0 * t)
    ref = np.zeros((len(t), 2, 2))
    ref[:, 0, 0], ref[:, 0, 1], ref[:, 1, 1] = a, 100.0 * (a - c), c
    assert _row_error(propagator_stack([[-50.0, 1000.0], [0.0, -60.0]], t), ref) <= 1e-12


def test_mixed_norm_stack_matches_scipy(rng):
    # t from 0 to 5 spans squaring counts from 0 upward; each row keeps its accuracy
    A = rng.normal(size=(3, 3))
    t = np.linspace(0.0, 5.0, 1024)
    ref = scipy.linalg.expm(A[None] * t[:, None, None])
    assert _row_error(propagator_stack(A, t), ref) <= 1e-12


@pytest.mark.parametrize("a", [-400.0, -1.5, 0.0, 0.3, 2.0])
def test_scalar_generator_keeps_its_bits(a):
    # a 1x1 generator is diagonal: exp of a * dt, bit for bit, for negative steps
    # (the Duhamel weights pass -tau) and for steps whose exponential overflows
    dts = np.array([0.0, 1e-3, 0.5, -0.25, -3.0, 1e3, -1e3])
    with np.errstate(over="ignore"):
        ref = np.exp(a * dts)
        stack = propagator_stack([[a]], dts)
        assert stack.shape == (len(dts), 1, 1)
        assert stack.tobytes() == ref.tobytes()
        x = np.array([-2.3])
        for t in (0.0, 1e-3, 0.7, 3.0, 1e3):
            # equal, not bitwise: evolve's matrix product gives 0.0 where an underflowed
            # e^{at} times a negative x is -0.0
            assert np.array_equal(evolve([[a]], t, x), np.exp(a * t) * x)


# Higham (2005), Table 2.3: theta_m for the Pade degrees m = 3, 5, 7, 9 and 13
_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
           2.097847961257068, 5.371920351148152)


@pytest.mark.parametrize("A", [[[-1.0, 5.0, 0.3], [0.2, -2.0, 40.0], [0.01, 0.5, 0.7]],
                               [[0.0, 0.4], [-0.4, 0.0]]])
@pytest.mark.parametrize("theta", _THETAS)
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_exponential_at_degree_boundaries(A, theta, side):
    # t ||A||_1 just below and just above each threshold, where the degree switches
    A = np.array(A)
    norm = theta * (1.0 + side * 2.0 ** -20)
    t = norm / np.abs(A).sum(axis=0).max()
    ref = scipy.linalg.expm(t * A)
    tol = 1e-12 if norm <= 1.0 else 1e-10
    assert _row_error(propagator_stack(A, [t])[0], ref) <= tol
