"""Matrix-exponential semigroup T(t) = e^{At} and its finite-horizon norm bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def propagator_stack(A, dts) -> np.ndarray:
    """e^{A*dt} for every dt in dts, shape (len(dts), n, n).

    Scalar generators take the exp fast path; matrices go through the
    scaling-and-squaring Pade exponential, batched.
    """
    A = _check_square(A)
    dts = np.asarray(dts, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.exp(A[0, 0] * dts).reshape(-1, 1, 1)
    out = scipy.linalg.expm(A[None, :, :] * dts[:, None, None])
    zero = dts == 0.0
    if np.any(zero):
        out[zero] = np.eye(n)
    return out


def apply_stack(stack: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a (T, n, n) propagator stack to (T, n) vectors row by row; a (T, 1)
    stack of scalar propagators scales them."""
    if stack.ndim == 2:
        return stack * vecs
    return np.einsum("tij,tj->ti", stack, vecs)


def evolve(A, t: float, x) -> np.ndarray:
    """e^{At} x for t >= 0."""
    A = _check_square(A)
    t = float(t)
    if t < 0.0:
        raise ValueError("evolve is defined for t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (A.shape[0],):
        raise ValueError(f"state must have length {A.shape[0]}")
    if t == 0.0:
        return x.copy()
    if A.shape[0] == 1:
        return np.exp(A[0, 0] * t) * x
    return scipy.linalg.expm(A * t) @ x


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
    stack = propagator_stack(A, ts)
    norms = np.abs(stack).sum(axis=2).max(axis=1)
    M = max(1.0, float(np.max(norms))) * SAFETY_FACTOR
    return SemigroupBound(M=M, horizon=horizon, sample_count=samples)
