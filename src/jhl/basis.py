"""Jacobi polynomials, their orthonormalization, and the tridiagonal difference operator.

The measure on (-1, 1) is dmu(x) = (1-x)^alpha (1+x)^beta dx with alpha, beta > -1.
The orthonormal family p_n = w_n P_n diagonalizes the difference operator J whose
action is J(f)(n) = a_{n-1} f(n-1) + b_n f(n) + a_n f(n+1), with the two-term
boundary row J(f)(0) = b_0 f(0) + a_0 f(1); the eigenrelation reads
J(p_.(x))(n) = (x - 1) p_n(x), so the spectrum of J sits in [-2, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "normalization",
    "ortho_poly_at_one",
    "ortho_table",
    "coeff_a",
    "coeff_b",
    "generator_coefficients",
]


@dataclass(frozen=True)
class JacobiParams:
    """Parameter pair (alpha, beta) of the Jacobi measure, each > -1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= -1.0:
            raise ValueError("alpha must exceed -1")
        if self.beta <= -1.0:
            raise ValueError("beta must exceed -1")

    @property
    def positivity_regime(self) -> bool:
        """True when alpha >= beta >= -1/2, the range with nonnegative heat kernels."""
        return self.alpha >= self.beta >= -0.5

    def tag(self) -> str:
        return f"alpha{self.alpha:g}_beta{self.beta:g}"


def normalization(params: JacobiParams, n: int) -> float:
    """Constant w_n with w_n P_n of unit norm in L^2(dmu), computed in log space.

    w_n^2 = (2n+a+b+1) G(n+1) G(n+a+b+1) / (2^(a+b+1) G(n+a+1) G(n+b+1)) for n >= 1
    and w_0^2 = G(a+b+2) / (2^(a+b+1) G(a+1) G(b+1)), G the Gamma function.
    """
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    a, b = params.alpha, params.beta
    ab = a + b
    if n == 0:
        log_sq = math.lgamma(ab + 2.0) - (ab + 1.0) * math.log(2.0) \
            - math.lgamma(a + 1.0) - math.lgamma(b + 1.0)
    else:
        log_sq = math.log(2.0 * n + ab + 1.0) + math.lgamma(n + 1.0) \
            + math.lgamma(n + ab + 1.0) - (ab + 1.0) * math.log(2.0) \
            - math.lgamma(n + a + 1.0) - math.lgamma(n + b + 1.0)
    return math.exp(0.5 * log_sq)


def ortho_poly_at_one(params: JacobiParams, n: int) -> float:
    """p_n(1) = w_n * binom(n+alpha, n), strictly positive, grows like n^(alpha+1/2)."""
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    a = params.alpha
    log_binom = math.lgamma(n + a + 1.0) - math.lgamma(a + 1.0) - math.lgamma(n + 1.0)
    if n == 0:
        return normalization(params, 0)
    log_w = math.log(normalization(params, n))
    return math.exp(log_w + log_binom)


def ortho_table(params: JacobiParams, n_max: int, x: np.ndarray) -> np.ndarray:
    """Table p_n(x_k) for n = 0..n_max, shape (n_max+1, len(x)).

    Built from the orthonormal three-term recurrence
    x p_n = a_n p_{n+1} + (b_n + 1) p_n + a_{n-1} p_{n-1},
    which shares its coefficients with the difference operator.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, xv.size))
    out[0] = normalization(params, 0)
    if n_max == 0:
        return out
    a0 = coeff_a(params, 0)
    out[1] = (xv - (coeff_b(params, 0) + 1.0)) * out[0] / a0
    a_prev = a0
    for k in range(1, n_max):
        a_k = coeff_a(params, k)
        out[k + 1] = ((xv - (coeff_b(params, k) + 1.0)) * out[k] - a_prev * out[k - 1]) / a_k
        a_prev = a_k
    return out


def _ortho_table_near_one(params: JacobiParams, n_max: int, gap: np.ndarray) -> np.ndarray:
    """Table p_n(1 - gap) for n = 0..n_max, shape (n_max+1, len(gap)), with
    the relative accuracy of gap; `ortho_table` is its oracle.

    Forming x = 1 - gap rounds a small gap to an ulp of 1, which p_n, varying
    on the scale 1/n^2 next to x = 1, amplifies about n^2 times. So the
    recurrence runs on q_n = p_n(x) / p_n(1) and d_n = q_n - q_{n-1}, d_0 = 0:
    the recurrence at x = 1 - gap minus the one at x = 1 leaves
    a_n p_{n+1}(1) d_{n+1} = a_{n-1} p_{n-1}(1) d_n - gap p_n(1) q_n,
    in which gap enters only as a factor (Reinsch's modification of the
    recurrence next to an endpoint).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    gv = np.atleast_1d(np.asarray(gap, dtype=float))
    at_one = _at_one_by_ratios(params, n_max)
    out = np.empty((n_max + 1, gv.size))
    out[0] = at_one[0]
    q, d = np.ones_like(gv), np.zeros_like(gv)
    carry = 0.0  # a_{n-1} p_{n-1}(1)
    for n in range(n_max):
        a_n = coeff_a(params, n)
        lead = a_n * at_one[n + 1]
        d = (carry / lead) * d - (at_one[n] / lead) * (gv * q)
        q = q + d
        out[n + 1] = at_one[n + 1] * q
        carry = a_n * at_one[n]
    return out


def _at_one_by_ratios(params: JacobiParams, n_max: int) -> list:
    """p_n(1) for n = 0..n_max as running products of
    p_{n+1}(1) / p_n(1) = (w_{n+1} / w_n) (n + 1 + a) / (n + 1): about n ulps,
    where `ortho_poly_at_one`, a difference of log-gammas near n log n, is
    2.5e-13 relative off at n = 255 and 3.5e-12 at n = 2000 (Chebyshev)."""
    a, b = params.alpha, params.beta
    out = [ortho_poly_at_one(params, n) for n in range(min(n_max, 1) + 1)]
    for n in range(1, n_max):
        w_sq = (2.0 * n + a + b + 3.0) / (2.0 * n + a + b + 1.0) \
            * (n + 1.0) * (n + a + b + 1.0) / ((n + a + 1.0) * (n + b + 1.0))
        out.append(out[-1] * math.sqrt(w_sq) * (n + 1.0 + a) / (n + 1.0))
    return out


def coeff_a(params: JacobiParams, n: int) -> float:
    """Off-diagonal coefficient a_n of the difference operator."""
    if n < 0:
        raise ValueError("index n must be nonnegative")
    a, b = params.alpha, params.beta
    ab = a + b
    if n == 0:
        return 2.0 / (ab + 2.0) * math.sqrt((a + 1.0) * (b + 1.0) / (ab + 3.0))
    s = 2.0 * n + ab + 2.0
    inner = (n + 1.0) * (n + a + 1.0) * (n + b + 1.0) * (n + ab + 1.0) / ((s - 1.0) * (s + 1.0))
    return 2.0 / s * math.sqrt(inner)


def coeff_b(params: JacobiParams, n: int) -> float:
    """Diagonal coefficient b_n of the difference operator, always in [-2, 0]."""
    if n < 0:
        raise ValueError("index n must be nonnegative")
    a, b = params.alpha, params.beta
    if n == 0:
        return -(2.0 * a + 2.0) / (a + b + 2.0)
    s = 2.0 * n + a + b
    return (b * b - a * a) / (s * (s + 2.0)) - 1.0


def generator_coefficients(params: JacobiParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectors (b_0..b_{size-1}, a_0..a_{size-2}) filling the truncated operator."""
    if size < 1:
        raise ValueError("size must be positive")
    diag = np.array([coeff_b(params, n) for n in range(size)])
    off = np.array([coeff_a(params, n) for n in range(size - 1)])
    return diag, off

