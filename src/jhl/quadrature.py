"""Gauss-Jacobi quadrature from the eigenvalues of the Jacobi matrix.

Nodes are the eigenvalues of the symmetric tridiagonal recurrence matrix of the
measure, refined by one Newton step; the weight at node x is the Christoffel
number 1 / sum_{k<Q} p_k(x)^2 (Gautschi, Orthogonal Polynomials: Computation
and Approximation, OUP 2004, sec. 3.1). A Q-point rule integrates polynomials
up to degree 2Q-1 exactly. The one rule per (params, order) serves both the
order search and every output. Golub-Welsch (total mass times the squared first
eigenvector components) is the fallback where Christoffel weights fail the
checks, and the oracle the tests compare against.

The order search certifies an order a priori where it can, from the Chebyshev
coefficients of e^{tx}, which are Bessel values: Trefethen's error bound for
Gauss quadrature ("Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
Review 50, 2008) then bounds the kernel error by a Bessel tail, so no rule of
twice the order has to be built to confirm it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._memo import memo
from .basis import JacobiParams, coeff_a, generator_coefficients, normalization, ortho_table
from .errors import ConvergenceFailure, NumericFailure

__all__ = [
    "QuadratureRule",
    "total_mass",
    "build_rule",
    "integrate",
    "moments",
    "auto_order",
]

MAX_ORDER = 2 ** 16


def total_mass(params: JacobiParams) -> float:
    """mu((-1,1)) = 2^(alpha+beta+1) B(alpha+1, beta+1), via log-gamma."""
    a, b = params.alpha, params.beta
    log_m = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) \
        + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    return math.exp(log_m)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the Jacobi measure: strictly increasing nodes in (-1,1), positive weights."""

    params: JacobiParams
    order: int
    nodes: np.ndarray
    weights: np.ndarray


def build_rule(params: JacobiParams, order: int) -> QuadratureRule:
    """Gauss-Jacobi rule with `order` points: eigenvalue nodes after one Newton
    step, Christoffel weights, Golub-Welsch where those fail the checks.

    Rules are memoised per (params, order); their arrays are read-only.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if order > MAX_ORDER:
        raise ConvergenceFailure(f"quadrature order {order} exceeds cap {MAX_ORDER}")
    return memo(("rule", params.alpha, params.beta, order),
                lambda: _christoffel(params, order))


def _golub_welsch(params: JacobiParams, order: int) -> QuadratureRule:
    """Golub-Welsch rule: nodes and first eigenvector components from one
    tridiagonal eigensolve; the fallback of `_christoffel`."""
    mass = total_mass(params)
    b, off = generator_coefficients(params, order)
    try:
        nodes, vectors = scipy.linalg.eigh_tridiagonal(b + 1.0, off)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericFailure(f"tridiagonal eigensolver failed at order {order}") from exc
    return _checked_rule(params, order, nodes, mass * vectors[0, :] ** 2, mass)


def _christoffel(params: JacobiParams, order: int) -> QuadratureRule:
    """Eigenvalue nodes refined by one Newton step on p_order, and weights
    1 / sum_{k<order} p_k(x)^2; both stream the orthonormal three-term
    recurrence, so memory stays O(order)."""
    b, off = generator_coefficients(params, order)
    diag = b + 1.0
    try:
        nodes = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericFailure(f"tridiagonal eigensolver failed at order {order}") from exc
    off = np.append(off, coeff_a(params, order - 1))
    total, p_last, p_next = _christoffel_sums(params, diag, off, nodes)
    # At a zero of p_order, Christoffel-Darboux gives p_order' = total / (a p_{order-1}).
    nodes = nodes - off[-1] * p_last * p_next / total
    total = _christoffel_sums(params, diag, off, nodes)[0]
    try:
        return _checked_rule(params, order, nodes, 1.0 / total, total_mass(params))
    except NumericFailure:
        # A node's absolute error of an ulp moves its Christoffel weight by
        # about order^2 ulps relative next to an endpoint, which can break the
        # mass check for an exponent below -1/2; use Golub-Welsch there.
        return _golub_welsch(params, order)


def _christoffel_sums(params: JacobiParams, diag, off, x: np.ndarray):
    """sum_{k<Q} p_k(x)^2, p_{Q-1}(x) and p_Q(x) for Q = len(diag) = len(off),
    streaming the orthonormal recurrence in O(len(x)) memory."""
    p_prev, p_cur = np.zeros_like(x), np.full_like(x, normalization(params, 0))
    total = np.zeros_like(x)
    a_prev = 0.0
    for b, a in zip(diag.tolist(), off.tolist()):
        total += p_cur * p_cur
        p_prev, p_cur = p_cur, ((x - b) * p_cur - a_prev * p_prev) / a
        a_prev = a
    return total, p_prev, p_cur


def _checked_rule(params: JacobiParams, order: int, nodes: np.ndarray,
                  weights: np.ndarray, mass: float) -> QuadratureRule:
    """The rule, once its nodes rise strictly inside (-1, 1) and its positive
    weights sum to the total mass; arrays are made read-only."""
    if not (np.all(np.diff(nodes) > 0.0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise NumericFailure("quadrature nodes left (-1, 1) or lost strict ordering")
    if np.any(weights <= 0.0):
        raise NumericFailure("nonpositive quadrature weight")
    if abs(weights.sum() - mass) > 1e-12 * mass:
        raise NumericFailure("quadrature weights do not sum to the total mass")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(params=params, order=order, nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, f) -> float:
    """Apply the rule to a function or to an array of node values."""
    vals = np.asarray(f(rule.nodes) if callable(f) else f, dtype=float)
    if vals.shape != rule.nodes.shape:
        raise ValueError("integrand values must match the node count")
    if not np.all(np.isfinite(vals)):
        raise NumericFailure("integrand is not finite at a quadrature node")
    return float(rule.weights @ vals)


def moments(params: JacobiParams, k_max: int) -> np.ndarray:
    """Monomial moments m_k = int x^k dmu for k = 0..k_max.

    Integration by parts of d/dx [x^k (1-x)^(a+1) (1+x)^(b+1)] gives the
    two-term recursion m_{k+1} = (k m_{k-1} + (b - a) m_k) / (k + a + b + 2),
    seeded by the Beta-function value of m_0. Independent of the quadrature path.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    a, b = params.alpha, params.beta
    out = np.empty(k_max + 1)
    out[0] = total_mass(params)
    if k_max == 0:
        return out
    out[1] = (b - a) * out[0] / (a + b + 2.0)
    for k in range(1, k_max):
        out[k + 1] = (k * out[k - 1] + (b - a) * out[k]) / (k + a + b + 2.0)
    return out


def _diag_entries(params: JacobiParams, order: int, n: int, probes) -> list:
    """K_t(n, n) at each probe time t, from one rule and one table."""
    rule = build_rule(params, order)
    p_row = ortho_table(params, n, rule.nodes)[n]
    return [float(rule.weights @ (np.exp(-t * (1.0 - rule.nodes)) * p_row * p_row))
            for t in probes]


def _bessel_tail(d: int, t: float) -> float:
    """T(d, t) = sum_{k >= d} e^{-t} I_k(t) for d >= 0 and t > 0.

    e^{tx} = I_0(t) + 2 sum_{k>=1} I_k(t) T_k(x), so e^{-t}(I_0 + 2 sum I_k) = 1
    normalises the values. One table per t is memoised; beyond its last index,
    where T is below about e^{-72}, the last entry is returned, an upper bound
    since T falls with d. Where the table would run past 2 MAX_ORDER (t above
    about 1.2e8), 1 is returned, the bound T(0, t) <= 1, so the certificate
    stays out and the doubling test decides. No table is built there: its
    length grows like sqrt(t), and a recurrence started lower would give tails
    that are too small.
    """
    if 12.0 * math.sqrt(t) + 40.0 > 2 * MAX_ORDER:
        return 1.0
    tails = memo(("bessel_tail", t), lambda: _bessel_tail_table(t))
    return float(tails[min(d, len(tails) - 1)])


def _bessel_tail_table(t: float) -> np.ndarray:
    """T(d, t) for d = 0 .. ceil(12 sqrt(t) + 40), by Miller's backward
    recurrence I_{k-1} = (2k/t) I_k + I_{k+1} started twice that index up.

    The recurrence runs on the ratios r_k = I_k / I_{k-1} = t / (2k + t r_{k+1}),
    which lie in (0, 1], so nothing overflows; I_k / I_0 is their running
    product, and small values underflow to 0 where they are negligible.
    """
    last = math.ceil(12.0 * math.sqrt(t) + 40.0)
    ratios = []
    ratio = 0.0
    for k in range(2 * last, 0, -1):
        ratio = t / (2.0 * k + t * ratio)
        ratios.append(ratio)
    ratios.append(1.0)  # I_0 / I_0, the first factor of the running product
    scaled = np.cumprod(ratios[::-1])
    tails = np.cumsum(scaled[::-1])[::-1] / (2.0 * scaled.sum() - 1.0)
    return tails[:last + 1]


def auto_order(params: JacobiParams, n_max: int, t_max: float, tol: float) -> int:
    """Smallest order, doubling from n_max + 16, that a Bessel-tail certificate
    or a doubling test accepts for the stiffest kernel entry.

    Certificate: accept Q when 16 T(2Q - 2n_max, max(t_max, 1e-3)) <= tol, with
    T the Bessel tail of `_bessel_tail`. Truncating the Chebyshev series of
    e^{-t(1-x)} after degree 2Q - 2n - 1 leaves an error of at most 2 T(2Q - 2n, t)
    on [-1, 1]; the Q-point rule integrates the truncated part times p_n^2
    exactly, and both the rule and the measure give p_n^2 mass 1, so
    |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t) (Trefethen, SIAM Review 50, 2008).
    T grows with t (dT/dt = (e^{-t} I_{d-1} - e^{-t} I_d) / 2 > 0), so at both
    probe times the doubling test below could only have found a difference of
    at most tol / 2. Where the certificate does not fire, the doubling test
    decides: the diagonal entry at index n_max, probed at t in {t_max, 1e-3},
    must move by less than tol between order Q and 2Q. Entries are probed on
    `build_rule` rules, so the rule the test accepts is the rule the kernels
    then use.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    probes = (t_max, 1e-3)
    t_cert = max(probes)
    order = n_max + 16
    if order > MAX_ORDER:
        raise ConvergenceFailure(f"starting order {order} exceeds cap {MAX_ORDER}")
    cur = _diag_entries(params, order, n_max, probes)
    while True:
        if 2 * order > MAX_ORDER:
            raise ConvergenceFailure(
                f"kernel quadrature did not converge below order cap {MAX_ORDER}"
            )
        if 16.0 * _bessel_tail(2 * order - 2 * n_max, t_cert) <= tol:
            return order
        nxt = _diag_entries(params, 2 * order, n_max, probes)
        if max(abs(c - n) for c, n in zip(cur, nxt)) < tol:
            return order
        order *= 2
        cur = nxt
