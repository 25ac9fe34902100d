"""Matrix-exponential semigroup T(t) = e^{At} and its finite-horizon norm bound."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SemigroupBound", "evolve", "operator_norm_bound", "propagator_stack", "apply_stack"]

SAFETY_FACTOR = 1.0 + 1e-6


@dataclass(frozen=True)
class SemigroupBound:
    """Finite-horizon bound sup_{0<=t<=b} ||e^{At}|| <= M.

    The growth rate is absorbed into the horizon supremum, so M alone feeds
    every downstream estimate.
    """

    M: float
    horizon: float
    sample_count: int

    def __post_init__(self):
        if not 1.0 <= self.M < math.inf:
            raise ValueError(f"M must be finite and >= 1, got {self.M}")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.sample_count < 2:
            raise ValueError(f"sample_count must be >= 2, got {self.sample_count}")


def _check_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {A.shape}")
    return A


# Pade approximants r_m(X) = (V - U)^{-1}(V + U) of Higham (2005): degrees m with
# their thresholds theta_m (Table 2.3) and coefficients b_k. For m <= 9 the b_k
# are integers, exact in binary; those of m = 13 are divided by b_0 so that U and
# V stay in range. Row 0 of each coefficient matrix maps (I, X^2, ..., X^{m-1})
# to V, row 1 to U / X. For ||X||_1 <= theta_m the approximant is accurate to unit
# roundoff; up to m = 9, |c_{2m+1}| theta_m^{2m} <= 2^-53 makes the ell correction
# zero, so no X of a stack with max ||X||_1 <= theta_9 is scaled.
_PADE = tuple((theta, np.array(b, dtype=float).reshape(-1, 2).T) for theta, b in (
    (1.495585217958292e-2, [120, 60, 12, 1]),
    (2.539398330063230e-1, [30240, 15120, 3360, 420, 30, 1]),
    (9.504178996162932e-1, [17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1]),
    (2.097847961257068, [17643225600, 8821612800, 2075673600, 302702400, 30270240,
                         2162160, 110880, 3960, 90, 1]),
    (5.371920351148152, np.array([64764752532480000, 32382376266240000, 7771770303897600,
                                  1187353796428800, 129060195264000, 10559470521600,
                                  670442572800, 33522128640, 1323241920, 40840800, 960960,
                                  16380, 182, 1], dtype=float) / 64764752532480000.0)))
_THETA13 = _PADE[-1][0]
# log2 of c_27 = (13!)^2 / (26! 27!), the leading coefficient of r's error series
_LOG2_C27 = (2 * math.log2(math.factorial(13)) - math.log2(math.factorial(26))
             - math.log2(math.factorial(27)))


def _onenorm(X: np.ndarray) -> float:
    """Induced 1-norm: the largest absolute column sum."""
    return float(np.abs(X).sum(axis=0).max())


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _squarings(A: np.ndarray, t: np.ndarray, t_max: float, norm: float) -> np.ndarray:
    """The squaring count s of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31,
    2009) for each matrix tA, t = |ts|, t_max = max t and norm = t_max ||A||_1 >
    theta_13: from eta = min(max(d_6, d_8), max(d_8, d_10)), d_p =
    ||(tA)^p||_1^{1/p} exact, not from ||tA||_1, which over-scales non-normal A;
    then the backward-error correction ell(2^-s tA, 13)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # powers of C = t_max A, the widest matrix of the stack, not of A, so that a
        # tiny t cannot push them out of range; d_p and the norm are linear in t
        C = t_max * A
        C4 = np.linalg.matrix_power(C, 4)
        C6 = C4 @ C @ C
        d = [_onenorm(P) ** (1.0 / p) for p, P in ((6, C6), (8, C4 @ C4), (10, C4 @ C6))]
        # d_p <= ||C||_1; a power that overflowed (inf or NaN) leaves that bound
        d6, d8, d10 = np.where(np.isnan(d), np.inf, d)
        t = t / t_max
        s = np.maximum(np.ceil(np.log2(t * min(max(d6, d8), max(d8, d10), norm) / _THETA13)), 0.0)
        # ell: log2 of |c_27| ||(2^-s t|C|)^27||_1 / ||2^-s tC||_1 against u = 2^-53;
        # |C| / ||C||_1 has 1-norm 1, so its power cannot overflow
        tail = _onenorm(np.linalg.matrix_power(np.abs(C) / norm, 27))
        log2_alpha = _LOG2_C27 + 26.0 * (np.log2(t * norm) - s) + np.log2(tail)
        s += np.maximum(np.ceil((log2_alpha + 53.0) / 26.0), 0.0)
    return np.where(np.isfinite(s), s, 0.0).astype(int)


def _expm(A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """e^{tA} for each t of ts, shape (len(ts), n, n), vectorised over the stack:
    the lowest Pade degree 3, 5, 7, 9 or 13 whose threshold covers max|t| ||A||_1,
    unscaled; past theta_13 scaling and squaring with a squaring count for each t
    (`_squarings`) and degree 13. One evaluator serves every degree.

    A diagonal A (every 1x1 A and the zero generator included) gives exp of its
    diagonal. For an upper-triangular A, the diagonal and first superdiagonal
    are set from their closed form before and after each squaring (Al-Mohy &
    Higham 2009, Code Fragment 2.1), which keeps entries that span many orders
    accurate; a lower-triangular A is exponentiated through its transpose.
    Overflow leaves inf or NaN entries for the caller to reject.
    """
    n = A.shape[0]
    rows = A.tolist()  # n is small: plain floats are cheaper to scan than numpy calls
    above = any(rows[i][j] for i in range(n) for j in range(i + 1, n))
    below = any(rows[i][j] for i in range(n) for j in range(i))
    if not above:
        if below:
            # lower triangular: e^{tA} = (e^{tA^T})^T, so it gets the same exact bands
            return np.ascontiguousarray(_expm(A.T, ts).transpose(0, 2, 1))
        out = np.zeros((len(ts), n, n))
        idx = np.arange(n)
        out[:, idx, idx] = np.exp(ts[:, None] * A.diagonal())
        return out
    t = np.abs(ts)
    t_max = float(t.max(initial=0.0))
    norm = t_max * max(sum(abs(row[j]) for row in rows) for j in range(n))
    s = None
    if norm > _THETA13:
        s = _squarings(A, t, t_max, norm)
        ts = np.ldexp(ts, -s)
    # the lowest degree whose threshold covers the stack; degree 13 past theta_13
    coeffs = next((b for theta, b in _PADE if norm <= theta), _PADE[-1][1])
    X = ts[:, None, None] * A
    powers = np.empty((coeffs.shape[1],) + X.shape)  # I, X^2, ..., X^{m-1}
    powers[0] = _eye(n)
    np.matmul(X, X, out=powers[1])
    for k in range(2, len(powers)):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    V, U = (coeffs @ powers.reshape(len(powers), -1)).reshape((2,) + X.shape)
    U = X @ U
    # r = (V - U)^{-1}(V + U) = I + 2 (V - U)^{-1} U: near I the small part keeps
    # its relative accuracy, and the diagonal is rounded once
    R = np.linalg.solve(V - U, 2.0 * U)
    R += _eye(n)
    if not below:
        _exact_bands(R, ts[:, None], A.diagonal(), A.diagonal(1))
    while s is not None and s.any():
        go = s > 0
        R[go] = R[go] @ R[go]
        s = s - go
        if not below:
            ts = np.where(go, 2.0 * ts, ts)
            _exact_bands(R, ts[:, None], A.diagonal(), A.diagonal(1))
    return R


def _exact_bands(R: np.ndarray, t: np.ndarray, lam: np.ndarray, sup: np.ndarray):
    """Set the diagonal and first superdiagonal of each R[i] to those of e^{t_i T},
    T upper triangular with diagonal lam and first superdiagonal sup: e^{t lam_k}
    and t sup_k (e^{a} - e^{b}) / (a - b), a = t lam_k, b = t lam_{k+1}
    (Higham, Functions of Matrices, 2008, eq. 10.42). The divided difference is
    e^{max(a, b)} q(|a - b|) with q(g) = (1 - e^{-g}) / g in (0, 1], so it neither
    cancels nor overflows unless e^{max(a, b)} itself does; for g < 0.027, q is
    e^{-g/2} sinch(g/2) from a short series. A zero sup_k leaves exactly 0."""
    idx = np.arange(len(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = t * lam[:-1], t * lam[1:]
        gap = np.abs(a - b)
        small = gap < 0.027
        g = np.where(small, 1.0, gap)
        x2 = 0.25 * gap * gap
        q = np.where(small, np.exp(-0.5 * gap) * (1.0 + x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0))),
                     -np.expm1(-g) / g)
        R[:, idx, idx] = np.exp(t * lam)
        R[:, idx[:-1], idx[1:]] = np.where(sup != 0.0, t * sup * np.exp(np.maximum(a, b)) * q, 0.0)


def propagator_stack(A, dts) -> np.ndarray:
    """e^{A*dt} for every dt in dts, shape (len(dts), n, n).

    One Pade exponential vectorised over the stack (numpy only): the lowest
    degree that covers every dt A, degree 13 with a scaling chosen for each dt
    past that. A diagonal generator, every 1x1 one included, gives exp of its
    diagonal, bit for bit np.exp(a * dts).
    """
    return _expm(_check_square(A), np.asarray(dts, dtype=float))


def apply_stack(stack: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a (T, n, n) propagator stack to (T, n) vectors row by row; a (T, 1)
    stack of scalar propagators scales them."""
    if stack.ndim == 2:
        return stack * vecs
    return np.einsum("tij,tj->ti", stack, vecs)


def evolve(A, t: float, x) -> np.ndarray:
    """e^{At} x for finite t >= 0."""
    A = _check_square(A)
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"evolve is defined for finite t >= 0, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (A.shape[0],):
        raise ValueError(f"state must have length {A.shape[0]}")
    if t == 0.0:
        return x.copy()
    return _expm(A, np.array([t]))[0] @ x


def operator_norm_bound(A, horizon: float, samples: int = 1024) -> SemigroupBound:
    """Grid estimate of sup ||e^{At}|| over [0, horizon], inflated by a safety factor.

    The induced norm is the max absolute row sum (consistent with the sup norm
    on states); M never drops below 1.
    """
    A = _check_square(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("generator has non-finite entries")
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    ts = np.linspace(0.0, horizon, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        norms = np.abs(propagator_stack(A, ts)).sum(axis=2).max(axis=1)
    if not np.all(np.isfinite(norms)):
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        raise ValueError(f"the exponential e^(At) is non-finite at {bad} of {samples} "
                         f"samples on [0, {horizon}]")
    M = max(1.0, float(np.max(norms))) * SAFETY_FACTOR
    return SemigroupBound(M=M, horizon=horizon, sample_count=samples)
