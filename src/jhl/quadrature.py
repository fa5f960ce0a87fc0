"""Gauss-Jacobi quadrature from Newton's method on the three-term recurrence,
its order from a Bessel-tail certificate, and the Gauss-Laguerre rule of the
large-t kernel route.

Nodes are the zeros of p_Q, found by Newton's method from asymptotic guesses
(Gatteschi-Pittaluga in the interior, Bessel zeros next to the endpoints; Hale
& Townsend, SIAM J. Sci. Comput. 35, 2013) and refined by one
Christoffel-Darboux step; the weight at node x is the Christoffel number
1 / sum_{k<Q} p_k(x)^2 (Gautschi, Orthogonal Polynomials: Computation and
Approximation, OUP 2004, sec. 3.1). A Q-point rule integrates polynomials up
to degree 2Q-1 exactly. Golub-Welsch (total mass times the squared first
eigenvector components of the Jacobi matrix) is the fallback where Newton does
not converge or the Christoffel weights fail the checks, and the oracle the
tests compare against; it is the only code here that imports scipy.

`auto_order` certifies an order a priori, from the Chebyshev coefficients of
e^{tx}, which are Bessel values: Trefethen's error bound for Gauss quadrature
("Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50, 2008)
bounds the kernel error by a Bessel tail. The bound uses only the rule's
exactness and the unit norm of p_n, so the order depends on (n_max, t_max,
tol) alone, and no rule is built to choose it.

At large t, u = t(1 - x) turns the kernel integral into one against
u^alpha e^{-u} on (0, 2t), which a generalized Gauss-Laguerre rule resolves
with about size + 16 nodes where Gauss-Jacobi needs orders near 4 sqrt(t)
(Gautschi, OUP 2004, sec. 1.4). The rule comes from Golub-Welsch by
numpy.linalg.eigh, so scipy stays unloaded; its order from a relative
doubling test (`laguerre_order`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._memo import memo
from .basis import (JacobiParams, _ortho_table_near_one, coeff_a, generator_coefficients,
                    normalization)
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
NEWTON_STEPS = 10  # past this, the rule falls back to Golub-Welsch
BESSEL_GUESSES = 10  # nodes next to each endpoint guessed from Bessel zeros
LARGE_NU = 3.0  # above this, j_{nu,1} comes from its large-nu expansion
LAGUERRE_MAX_ORDER = 4096  # dense eigensolve: a 128 MB Jacobi matrix at the cap


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
    """Gauss-Jacobi rule with `order` points: Newton nodes after one
    Christoffel-Darboux step, Christoffel weights, Golub-Welsch where those
    fail.

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
    tridiagonal eigensolve; the fallback of `_christoffel`. scipy is imported
    here, so runs that never fall back do not load it."""
    import scipy.linalg

    mass = total_mass(params)
    b, off = generator_coefficients(params, order)
    try:
        nodes, vectors = scipy.linalg.eigh_tridiagonal(b + 1.0, off)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericFailure(f"tridiagonal eigensolver failed at order {order}") from exc
    return _checked_rule(params, order, nodes, mass * vectors[0, :] ** 2, mass)


def _christoffel(params: JacobiParams, order: int) -> QuadratureRule:
    """Newton nodes (`_newton_nodes`) refined by one Christoffel-Darboux step,
    and weights 1 / sum_{k<order} p_k(x)^2; all of it streams the orthonormal
    three-term recurrence, so memory stays O(order)."""
    b, off = generator_coefficients(params, order)
    diag = b + 1.0
    off = np.append(off, coeff_a(params, order - 1))
    try:
        nodes = _newton_nodes(params, diag, off)
        total, p_last, p_next = _christoffel_sums(params, diag, off, nodes, with_total=True)
        # At a zero of p_order, Christoffel-Darboux gives p_order' = total / (a p_{order-1}).
        nodes = nodes - off[-1] * p_last * p_next / total
        total = _christoffel_sums(params, diag, off, nodes, with_total=True)[0]
        return _checked_rule(params, order, nodes, 1.0 / total, total_mass(params))
    except NumericFailure:
        # Newton did not converge, or the checks failed: a node's absolute
        # error of an ulp moves its Christoffel weight by about order^2 ulps
        # relative next to an endpoint, which can break the mass check for an
        # exponent below -1/2. Use Golub-Welsch there.
        return _golub_welsch(params, order)


def _newton_nodes(params: JacobiParams, diag, off) -> np.ndarray:
    """Zeros of p_Q, Q = len(diag), ascending: asymptotic guesses, then Newton
    steps on the nodes whose last correction was 1e-15 or more.

    The derivative comes from (2Q+a+b)(1-x^2) P_Q' = Q(a-b-(2Q+a+b)x) P_Q
    + 2(Q+a)(Q+b) P_{Q-1} for the Jacobi polynomials P_n = p_n / w_n (Szego,
    Orthogonal Polynomials, sec. 4.5), which holds away from the zeros as
    well. Raises NumericFailure if a correction is still that large after
    NEWTON_STEPS steps, or is not finite.
    """
    order = len(diag)
    a, b = params.alpha, params.beta
    c = 2.0 * order + a + b
    c_last = 2.0 * (order + a) * (order + b) \
        * normalization(params, order) / normalization(params, order - 1)
    x = _node_guesses(params, order)
    active = np.arange(order)
    for _ in range(NEWTON_STEPS):
        xa = x[active]
        _, p_last, p_next = _christoffel_sums(params, diag, off, xa, with_total=False)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = c * (1.0 - xa) * (1.0 + xa) * p_next \
                / (order * (a - b - c * xa) * p_next + c_last * p_last)
        if not np.all(np.isfinite(step)):
            raise NumericFailure(f"Newton step overflowed at order {order}")
        x[active] = xa - step
        active = active[~(np.abs(step) < 1e-15)]
        if not active.size:
            return x
    raise NumericFailure(f"Newton iteration for the nodes did not converge at order {order}")


def _node_guesses(params: JacobiParams, order: int) -> np.ndarray:
    """Ascending guesses for the zeros of p_order; the half nearest -1 are
    the zeros of P_order^(b,a), mirrored."""
    a, b = params.alpha, params.beta
    return np.concatenate([-np.cos(_theta_guesses(order, b, a, order // 2)),
                           np.cos(_theta_guesses(order, a, b, (order + 1) // 2)[::-1])])


def _theta_guesses(order: int, a: float, b: float, count: int) -> np.ndarray:
    """theta_k ~ arccos of the k-th largest zero of P_order^(a,b), k = 1..count.

    Interior: Gatteschi-Pittaluga. The BESSEL_GUESSES zeros nearest x = 1:
    Gatteschi's formula in j_{a,k} / rho, rho = order + (a + b + 1) / 2 (Hale
    & Townsend, SIAM J. Sci. Comput. 35, 2013, sec. 3).
    """
    rho = order + 0.5 * (a + b + 1.0)
    phi = (np.arange(1, count + 1) + 0.5 * a - 0.25) * np.pi / rho
    theta = phi + ((0.25 - a * a) / np.tan(0.5 * phi)
                   - (0.25 - b * b) * np.tan(0.5 * phi)) / (2.0 * rho) ** 2
    near = min(count, BESSEL_GUESSES)
    phi = _bessel_zeros(a, near) / rho
    theta[:near] = phi + ((a * a - 0.25) * (1.0 - phi / np.tan(phi)) / (2.0 * phi)
                          - 0.25 * (a * a - b * b) * np.tan(0.5 * phi)) / rho ** 2
    return theta


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    """j_{nu,k}, k = 1..count, by McMahon's expansion in 1 / (8 beta_k),
    beta_k = (k + nu/2 - 1/4) pi (Abramowitz & Stegun 9.5.12).

    The series diverges at k = 1 as nu -> -1, where j_{nu,1} -> 0. The
    Euler-Rayleigh bound j_{nu,1}^2 < sigma_2 / sigma_3 = 2(nu+1)(nu+3), from
    the sums sigma_m = sum_k j_{nu,k}^{-2m}, caps it; the cap is the smaller
    value below about nu = -1/2, and there it is within 0.2% of the zero
    spacing. McMahon's j_{nu,1} also drifts high as nu grows (1.03 at
    nu = 30), so above LARGE_NU it comes from the large-nu expansion
    (A&S 9.5.14) instead; the two are equally good, 1.9e-4 off, at nu = 2.5.
    """
    beta = (np.arange(1, count + 1) + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    e = 1.0 / (8.0 * beta)
    series = 1.0 + e * e * (4.0 * (7.0 * mu - 31.0) / 3.0 + e * e * (
        32.0 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 15.0 + e * e
        * 64.0 * (6949.0 * mu ** 3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0) / 105.0))
    zeros = beta - (mu - 1.0) * e * series
    if count and nu > LARGE_NU:
        c = nu ** (1.0 / 3.0)
        zeros[0] = (nu + 1.8557571 * c + 1.033150 / c - 0.00397 / nu
                    - 0.0908 / c ** 5 + 0.043 / c ** 7)
    elif count:
        zeros[0] = min(zeros[0], math.sqrt(2.0 * (nu + 1.0) * (nu + 3.0)))
    return zeros


def _christoffel_sums(params: JacobiParams, diag, off, x: np.ndarray, with_total: bool):
    """sum_{k<Q} p_k(x)^2 (None unless with_total), p_{Q-1}(x) and p_Q(x) for
    Q = len(diag) = len(off), streaming the orthonormal recurrence in
    O(len(x)) memory.

    Raises NumericFailure if p_Q or the sum is not finite: at large exponents
    the recurrence overflows, and the rule then falls back to Golub-Welsch.
    """
    p_prev, p_cur = np.zeros_like(x), np.full_like(x, normalization(params, 0))
    total = np.zeros_like(x) if with_total else None
    a_prev = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b, a in zip(diag.tolist(), off.tolist()):
            if with_total:
                total += p_cur * p_cur
            p_prev, p_cur = p_cur, ((x - b) * p_cur - a_prev * p_prev) / a
            a_prev = a
    if not (np.all(np.isfinite(p_cur)) and (total is None or np.all(np.isfinite(total)))):
        raise NumericFailure(f"orthonormal recurrence overflowed at order {len(diag)}")
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


def _bessel_tail(d: int, t: float) -> float:
    """T(d, t) = sum_{k >= d} e^{-t} I_k(t) for d >= 0 and t > 0.

    e^{tx} = I_0(t) + 2 sum_{k>=1} I_k(t) T_k(x), so e^{-t}(I_0 + 2 sum I_k) = 1
    normalises the values. One table per t is memoised; beyond its last index,
    where T is below about e^{-72}, the last entry is returned, an upper bound
    since T falls with d. The table's length grows like sqrt(t), so
    `auto_order` asks for none past the reach of its order cap.
    """
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


def _agree(coarse, fine, tol: float) -> bool:
    """True when every fine value is positive and finite and its coarse
    counterpart is within tol of it, relative. Kernel diagonals are positive,
    so a probe that underflowed to 0 or below never counts as agreement."""
    coarse, fine = np.asarray(coarse, dtype=float), np.asarray(fine, dtype=float)
    return bool(np.all((fine > 0.0) & (np.abs(coarse - fine) < tol * fine)))


def auto_order(n_max: int, t_max: float, tol: float) -> int:
    """Smallest order Q, doubling from n_max + 16, with
    16 T(2Q - 2n_max, max(t_max, 1e-3)) <= tol, T the Bessel tail of
    `_bessel_tail`: the Gauss-Jacobi order for kernels of size n_max + 1 at
    times up to t_max, for every (alpha, beta).

    Truncating the Chebyshev series of e^{-t(1-x)} after degree 2Q - 2n - 1
    leaves an error of at most 2 T(2Q - 2n, t) on [-1, 1]; the Q-point rule
    integrates the truncated part times p_n^2 exactly, and both the rule and
    the measure give p_n^2 mass 1, so |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t)
    (Trefethen, SIAM Review 50, 2008). Nothing else about the measure enters.
    T grows with t (dT/dt = (e^{-t} I_{d-1} - e^{-t} I_d) / 2 > 0) and falls
    with d, so the order covers every smaller time and index.

    The bound is absolute, so where K_t is tiny it is loose relative: at
    (5/2, 1/2), n_max = 63 and t = 1e5 the certificate accepts order 1264,
    where K_t(63, 63) is 5.6e-10 relative off. Kernels of size up to 632 take
    t = 1e5 by Gauss-Laguerre (`semigroup.laguerre_split`) instead.

    Past t_max of about 1.2e8, where the Bessel table would run past
    2 MAX_ORDER entries, no order below the cap resolves e^{-t(1-x)}: the node
    nearest 1 sits about 2.9 / MAX_ORDER^2 below it, where the factor is below
    e^{-80}. The search raises ConvergenceFailure there at once, and wherever
    the order would pass MAX_ORDER.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if 12.0 * math.sqrt(t_max) + 40.0 > 2 * MAX_ORDER:
        raise ConvergenceFailure(
            f"t_max = {t_max:g} is past the reach of quadrature orders up to {MAX_ORDER}")
    t_cert = max(t_max, 1e-3)
    order = n_max + 16
    while order <= MAX_ORDER:
        if 16.0 * _bessel_tail(2 * order - 2 * n_max, t_cert) <= tol:
            return order
        order *= 2
    raise ConvergenceFailure(f"kernel quadrature did not converge below order cap {MAX_ORDER}")


def _laguerre_rule(alpha: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule for the probability weight
    u^alpha e^{-u} / Gamma(alpha + 1) on (0, inf): ascending nodes and weights
    summing to 1, memoised per (alpha, order) and read-only.

    Golub-Welsch on the dense Jacobi matrix, diagonal 2k + alpha + 1 and
    off-diagonal sqrt(k (k + alpha)) (Golub & Welsch, Math. Comp. 23, 1969;
    Gautschi, OUP 2004, sec. 1.4), by numpy.linalg.eigh, so scipy stays
    unloaded.
    """
    def compute():
        k = np.arange(order, dtype=float)
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        matrix = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
        try:
            _, vectors = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(f"Laguerre eigensolver failed at order {order}") from exc
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
    in [t_lo, t_hi]: the smallest order, doubling from n_max + 17 (the size
    plus 16), at which every diagonal entry K_t(n, n), n <= n_max, at t_lo and
    at t_hi is within tol relative of its value under twice the order
    (`_agree`).

    For beta = 0 the rule is exact once the order exceeds n_max, up to the
    nodes dropped above 2t; otherwise (2 - u/t)^beta is analytic with its
    singularity at u = 2t. The route is meant for t_lo >= size^2 / 4
    (`semigroup.laguerre_split`), where p_n(1 - u/t) is smooth on the scale
    of e^{-u}; there the first doubling already agrees.
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
    cur = diagonals(order)
    while True:
        if 2 * order > LAGUERRE_MAX_ORDER:
            raise ConvergenceFailure(
                f"Laguerre quadrature did not converge below order cap {LAGUERRE_MAX_ORDER}")
        nxt = diagonals(2 * order)
        if _agree(cur, nxt, tol):
            return order
        order *= 2
        cur = nxt
