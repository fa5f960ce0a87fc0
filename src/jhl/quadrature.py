"""Gauss quadrature for the two kernel routes: the Gauss-Jacobi rule from one
eigensolve of the truncated operator, its order from a Bessel-tail
certificate, and the Gauss-Laguerre rule of the large-t route.

The order-Q truncation J_Q of the difference operator is the Jacobi matrix of
the Q-point Gauss-Jacobi rule, shifted by -1 (Golub & Welsch, Math. Comp. 23,
1969): its eigenvalues are x_k - 1 at the nodes x_k, and its unit
eigenvector k has entries sqrt(w_k) p_n(x_k), n < Q, up to sign. A Q-point
rule integrates polynomials up to degree 2Q-1 exactly. `_jacobi_rows` takes
the eigenvalues of J_Q from numpy.linalg.eigvalsh and builds those rows. The
solver leaves each eigenvalue an absolute error of about an ulp, a large
relative error on the small gaps 1 -+ x_k next to the endpoints, and p_n,
which varies on the scale 1/n^2 there, amplifies it. So each gap takes one
Newton step on p_Q (`_node_columns`), with p_n evaluated relative to the gap
(`basis._ortho_table_near_one`), and the column at the refined gap is scaled
by the Christoffel weight: its entries are accurate relative to themselves
and its rows orthogonal to rounding, where eigh's eigenvectors are only
absolutely accurate.

`auto_order` certifies an order a priori, from the Chebyshev coefficients of
e^{tx}, which are Bessel values: Trefethen's error bound for Gauss quadrature
("Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50, 2008)
bounds the kernel error by a Bessel tail, and the tail is bounded in closed
form by Chernoff's inequality, since e^{-t} I_k(t) is the law of the
difference of two Poisson(t/2) variables. The bound uses only the rule's
exactness and the unit norm of p_n, so the order depends on (n_max, t_max,
tol) alone, and nothing is built or cached to choose it.

At large t, u = t(1 - x) turns the kernel integral into one against
u^alpha e^{-u} on (0, 2t), which a generalized Gauss-Laguerre rule resolves
with about size + 16 nodes where Gauss-Jacobi needs orders near 4 sqrt(t)
(Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP 2004,
sec. 1.4). That rule comes from Golub-Welsch by numpy.linalg.eigh too; its
order is size + 16, witnessed by the rule of twice that order
(`laguerre_order`).

Every rule is a dense eigensolve, so both routes share one order cap,
MAX_ORDER: 128 MB of matrix, and past the order 3,020 that a size-1024 kernel
needs just below `semigroup.laguerre_split`.
"""

from __future__ import annotations

import math

import numpy as np

from ._memo import memo
from .basis import JacobiParams, _ortho_table_near_one, coeff_a, generator_coefficients
from .errors import ConvergenceFailure, NumericFailure

__all__ = [
    "auto_order",
]

MAX_ORDER = 4096


def _eigh(diag: np.ndarray, off: np.ndarray, solver: str = "eigh"):
    """numpy.linalg.eigh (or eigvalsh, for the ascending eigenvalues alone) of
    the symmetric tridiagonal matrix with this diagonal and off-diagonal, on
    its dense lower triangle; NumericFailure if the solver fails."""
    try:
        return getattr(np.linalg, solver)(np.diag(diag) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigensolver failed at order {diag.size}") from exc


def _peak_scaled(table: np.ndarray) -> np.ndarray:
    """Each column over its largest magnitude, so that sums of squares stay
    finite where p_n(1) is large (about 1e164 at alpha = 100, n = 2255)."""
    return table / np.abs(table).max(axis=0)


def _node_columns(params: JacobiParams, gap: np.ndarray, order: int, size: int):
    """Gaps 1 - x_k to the zeros x_k of p_order next to x = 1, refined from
    `gap` by one Newton step, and the columns sqrt(w_k) p_n(x_k), n < size,
    of the Gauss-Jacobi rule there.

    At a zero of p_Q, Christoffel-Darboux gives p_Q' = S / (a_{Q-1} p_{Q-1}),
    S = sum_{n<Q} p_n^2, so the step is a_{Q-1} p_{Q-1} p_Q / S in the gap,
    and w_k = 1 / S is the Christoffel number (Gautschi, OUP 2004,
    sec. 3.1). The tables are `basis._ortho_table_near_one`, accurate
    relative to the gap.
    """
    table = _peak_scaled(_ortho_table_near_one(params, order, gap))
    total = np.einsum("ij,ij->j", table[:-1], table[:-1])
    gap = gap + coeff_a(params, order - 1) * table[-2] * table[-1] / total
    table = _peak_scaled(_ortho_table_near_one(params, order - 1, gap))
    return gap, table[:size] / np.sqrt(np.einsum("ij,ij->j", table, table))


def _jacobi_rows(params: JacobiParams, size: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam_k = x_k - 1 of the order-`order` truncation, and rows
    sqrt(w_k) p_n(x_k), n < size, of the Gauss-Jacobi rule, read-only: the
    Gram of the rows with weights e^{t lam} is the rule's K_t.

    A node right of 0 takes its gap 1 - x_k, and its column, from
    `_node_columns`; one left of it takes 1 + x_k and its column from the
    mirrored params, since p_n^(alpha, beta)(x) = (-1)^n p_n^(beta, alpha)(-x).
    """
    lam = _eigh(*generator_coefficients(params, order), solver="eigvalsh")
    rows = np.empty((size, order))
    left = lam <= -1.0
    gap, rows[:, ~left] = _node_columns(params, -lam[~left], order, size)
    lam[~left] = -gap
    gap, rows[:, left] = _node_columns(JacobiParams(params.beta, params.alpha),
                                       2.0 + lam[left], order, size)
    lam[left] = gap - 2.0
    rows[1::2, left] *= -1.0
    lam.setflags(write=False)
    rows.setflags(write=False)
    return lam, rows


def _bessel_tail_bound(d: int, t: float) -> float:
    """Chernoff bound on T(d, t) = sum_{k >= d} e^{-t} I_k(t), for t > 0:
    exp(sqrt(t^2 + d^2) - t - d asinh(d / t)) for d >= 1, and 1 for d <= 0.

    e^{-t} I_k(t) is the probability that N1 - N2 = k for independent
    Poisson(t/2) variables, whose difference has the moment generating
    function e^{t(cosh s - 1)}; Chernoff's inequality (Ann. Math. Statist. 23,
    1952) at sinh s = d / t gives the bound. sqrt(t^2 + d^2) - t is written
    d^2 / (t + hypot(t, d)), which does not cancel. Like T, the bound rises
    with t (its exponent's t-derivative is (hypot(t, d) - t) / t) and falls
    with d (-asinh(d / t)). Where it decides an order it is 4 to 19 times T
    for t from 1e-12 to 1e7, so the d it certifies exceeds the exact tail's
    by at most 1 below t = 10 and 5.2% above.
    """
    if d <= 0:
        return 1.0
    return math.exp(d * d / (t + math.hypot(t, d)) - d * math.asinh(d / t))


def _agree(coarse, fine, tol: float) -> bool:
    """True when every fine value is positive and finite and its coarse
    counterpart is within tol of it, relative. Kernel diagonals are positive,
    so a probe that underflowed to 0 or below never counts as agreement."""
    coarse, fine = np.asarray(coarse, dtype=float), np.asarray(fine, dtype=float)
    return bool(np.all((fine > 0.0) & (np.abs(coarse - fine) < tol * fine)))


def auto_order(n_max: int, t_max: float, tol: float) -> int:
    """Least order Q from n_max + 16 up to MAX_ORDER with
    16 B(2Q - 2n_max, t_max) <= tol, B the Bessel-tail bound of
    `_bessel_tail_bound`, found by bisection: the Gauss-Jacobi order for
    kernels of size n_max + 1 at times up to t_max, for every (alpha, beta).
    Nothing is built or cached.

    Truncating the Chebyshev series of e^{-t(1-x)} after degree 2Q - 2n - 1
    leaves an error of at most 2 T(2Q - 2n, t) on [-1, 1]; the Q-point rule
    integrates the truncated part times p_n^2 exactly, and both the rule and
    the measure give p_n^2 mass 1, so |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t)
    (Trefethen, SIAM Review 50, 2008), and B >= T. Nothing else about the
    measure enters. B grows with t and falls with d, so the order covers every
    smaller time and index.

    The bound is absolute, so where K_t is tiny it is loose relative: at
    (5/2, 1/2), n_max = 63 and t = 1e5 the certificate accepts order 1296,
    where K_t(63, 63), 1.2e-8, is 1.3e-10 relative off. Kernels of size up
    to 632 take t = 1e5 by Gauss-Laguerre (`semigroup.laguerre_split`)
    instead.

    Raises ConvergenceFailure if MAX_ORDER fails too; at tol = 1e-12 that
    happens from t_max of about 1.1e6 at n_max = 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")

    def certified(order):
        return 16.0 * _bessel_tail_bound(2 * order - 2 * n_max, t_max) <= tol

    low, high = n_max + 15, MAX_ORDER  # the least certified order is in (low, high]
    if low >= high or not certified(high):
        raise ConvergenceFailure(f"kernel quadrature did not converge below order cap {MAX_ORDER}")
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if certified(mid) else (mid, high)
    return high


def _laguerre_rule(alpha: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule for the probability weight
    u^alpha e^{-u} / Gamma(alpha + 1) on (0, inf): ascending nodes and weights
    summing to 1, memoised per (alpha, order) and read-only.

    Golub-Welsch on the dense Jacobi matrix, diagonal 2k + alpha + 1 and
    off-diagonal sqrt(k (k + alpha)) (Golub & Welsch, Math. Comp. 23, 1969;
    Gautschi, OUP 2004, sec. 1.4), by `_eigh`.
    """
    def compute():
        k = np.arange(order, dtype=float)
        _, vectors = _eigh(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)))
        # J = B B^T with B lower bidiagonal, diagonal sqrt(k + alpha + 1) and
        # subdiagonal sqrt(k + 1). The Rayleigh quotient |B^T v|^2 has the
        # eigenvector's relative accuracy, where eigh leaves an absolute error
        # of about eps |J| ~ 4 eps order: 2e-12 relative on the smallest node.
        lifted = np.sqrt(k + alpha + 1.0)[:, None] * vectors
        lifted[:-1] += np.sqrt(k[1:])[:, None] * vectors[1:]
        nodes, weights = np.einsum("ij,ij->j", lifted, lifted), vectors[0] ** 2
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights
    return memo(("laguerre", alpha, order), compute)


def _laguerre_scale(alpha: float, t: float) -> float:
    """Gamma(alpha + 1) t^(-alpha-1); in log space only where a factor would
    leave the float range, since exp of a large argument loses digits."""
    a1 = alpha + 1.0
    if alpha < 170.0 and a1 * math.log10(t) < 300.0:
        return math.gamma(a1) * t ** -a1
    return math.exp(math.lgamma(a1) - a1 * math.log(t))


def _laguerre_terms(params: JacobiParams, n_max: int, times, order: int) -> list:
    """Per time t, (table, weights, gap) of the Laguerre route
    K_t(n, m) = sum_k weights_k p_n(1 - gap_k) p_m(1 - gap_k).

    With u = t(1 - x), K_t(n, m) = t^(-a-1) int_0^{2t} u^a e^{-u} (2 - u/t)^b
    p_n(1 - u/t) p_m(1 - u/t) du. The rule's nodes above 2t are dropped, and
    gap = u / t; the weights are Gamma(a+1) t^(-a-1) w_k (2 - gap)^b. One
    `_ortho_table_near_one` call builds the tables of every time.
    """
    nodes, weights = _laguerre_rule(params.alpha, order)
    gaps, scaled = [], []
    for t in times:
        keep = nodes < 2.0 * t
        gap = nodes[keep] / t
        gaps.append(gap)
        scaled.append(_laguerre_scale(params.alpha, t) * weights[keep] * (2.0 - gap) ** params.beta)
    table = _ortho_table_near_one(params, n_max, np.concatenate(gaps))
    tables = np.split(table, np.cumsum([g.size for g in gaps])[:-1], axis=1)
    return list(zip(tables, scaled, gaps))


def laguerre_order(params: JacobiParams, n_max: int, t_lo: float, t_hi: float,
                   tol: float) -> int:
    """Order of the Gauss-Laguerre route for kernels of size n_max + 1 at times
    in [t_lo, t_hi]: n_max + 17 (the size plus 16), once every diagonal entry
    K_t(n, n), n <= n_max, at t_lo and at t_hi is within tol relative of its
    value under twice that order (`_agree`). Raises ConvergenceFailure if they
    disagree, or if twice the order passes MAX_ORDER.

    For beta = 0 the rule is exact once the order exceeds n_max, up to the
    nodes dropped above 2t; otherwise (2 - u/t)^beta is analytic with its
    singularity at u = 2t. The route is meant for t_lo >= size^2 / 4
    (`semigroup.laguerre_split`), where p_n(1 - u/t) is smooth on the scale
    of e^{-u}; there the two orders agree in every case measured, over
    exponents from -0.99 to 30 and sizes from 2 to 256.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and 0.0 < t_lo <= t_hi):
        raise ValueError("t_lo and t_hi must be finite with 0 < t_lo <= t_hi")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")

    def diagonals(order):
        return [(table * table) @ weights
                for table, weights, _ in _laguerre_terms(params, n_max, (t_lo, t_hi), order)]

    order = n_max + 17
    if 2 * order > MAX_ORDER:
        raise ConvergenceFailure(f"Laguerre order {2 * order} passes the cap {MAX_ORDER}")
    if not _agree(diagonals(order), diagonals(2 * order), tol):
        raise ConvergenceFailure(
            f"Laguerre quadrature at orders {order} and {2 * order} disagrees")
    return order
