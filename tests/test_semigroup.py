import numpy as np
import pytest

from impulsedde import SemigroupBound, evolve, operator_norm_bound

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
        import scipy.linalg

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
