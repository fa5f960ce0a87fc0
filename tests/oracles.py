"""Reference implementations that the tests hold the batch routes of `jhl` to.

No command runs these. Each computes its quantity directly, one degree, entry,
path or window at a time, and checks these routes:

- `jacobi_poly` and `ortho_poly`, the classical three-term recurrence in
  degree: `basis.ortho_table`;
- `build_generator`, the dense truncated difference operator: the
  eigenrelation of `basis.ortho_table`, and through its matrix exponential
  `semigroup.kernel_tensor`;
- `total_mass` and `golub_welsch`, the Gauss-Jacobi rule from scipy's
  tridiagonal eigensolver, exact on the monomial moments of `moments` (a
  two-term recursion); through `kernel_entry` and `kernel_dt_entry`, one
  entry of K_t or d/dt K_t from a given rule, it checks the Gauss-Jacobi
  route of `semigroup.kernel_tensor` and `kernel_dt_tensor`;
- `bessel_kernels`, K_t and d/dt K_t in closed form at (-1/2, -1/2) and
  (1/2, 1/2): both quadrature routes of `kernel_tensor` and
  `kernel_dt_tensor`, and the spectral `kernel_matrix`;
- `apply_heat`, W_t f by one kernel matrix: the heat paths of `kernel_tensor`;
- `brute_variation` and `brute_jump_count`, exhaustive on one path:
  `paths.variation_batch` and `paths.jump_count_batch`;
- `qn_kernel_matrix`, one window's difference-sum kernel summed directly, and
  `s_star`, the windowed maximal sum at one index with one `apply_heat` per
  lacunary time: the window prefix sums of `jhl.verify`, the "s_star" route of
  `verify.operator_images`;
- `weighted_norm`, (sum |f|^p w)^(1/p): at p = 1, `weights.weak_quasinorm`;
- `a1_constant`, the A_1 constant: an upper bound of `weights.ap_constant`.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import ive

from jhl.basis import JacobiParams, generator_coefficients, normalization, ortho_table
from jhl.errors import ConvergenceFailure
from jhl.paths import _local_mask
from jhl.semigroup import DEFAULT_QUAD_TOL, kernel_tensor


def jacobi_poly(params: JacobiParams, n: int, x):
    """The Jacobi polynomial P_n^(alpha,beta) at x, scalar or array, by the
    three-term recurrence in degree."""
    a, b = params.alpha, params.beta
    xv = np.asanyarray(x, dtype=float)
    p_prev = np.ones_like(xv)
    if n == 0:
        return p_prev if xv.ndim else float(p_prev)
    p_cur = 0.5 * (a + b + 2.0) * xv + 0.5 * (a - b)
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        c0 = 2.0 * k * (k + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p_prev, p_cur = p_cur, ((c2 * xv + c1) * p_cur - c3 * p_prev) / c0
    return p_cur if xv.ndim else float(p_cur)


def ortho_poly(params: JacobiParams, n: int, x):
    """The orthonormal polynomial p_n(x) = normalization(n) * P_n(x)."""
    return normalization(params, n) * jacobi_poly(params, n, x)


def build_generator(params: JacobiParams, size: int) -> np.ndarray:
    """The dense size x size truncation of the difference operator."""
    diag, off = generator_coefficients(params, size)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def total_mass(params: JacobiParams) -> float:
    """mu((-1,1)) = 2^(alpha+beta+1) B(alpha+1, beta+1), via log-gamma."""
    a, b = params.alpha, params.beta
    log_m = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) \
        + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    return math.exp(log_m)


class GaussRule(NamedTuple):
    """Gauss rule for the Jacobi measure: ascending nodes, their weights."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def golub_welsch(params: JacobiParams, order: int) -> GaussRule:
    """The order-point Gauss-Jacobi rule by Golub-Welsch (Math. Comp. 23,
    1969), from scipy's tridiagonal eigensolver: the nodes x_k are the
    eigenvalues of the Jacobi matrix, and eigenvector k is sqrt(w_k) p_n(x_k),
    n < order, up to sign.

    Each weight is read at its eigenvector's largest entry. The first entry,
    which gives the classical w_k = mu((-1, 1)) v_0k^2, is small next to an
    endpoint and carries the solver's absolute error: at (5/2, 1/2), order
    52, those weights are up to 1.6e-13 relative off, against 5.8e-14 here.
    """
    if order < 1:
        raise ValueError("order must be positive")
    diag, off = generator_coefficients(params, order)
    nodes, vectors = scipy.linalg.eigh_tridiagonal(diag + 1.0, off)
    peak, columns = np.argmax(np.abs(vectors), axis=0), np.arange(order)
    table = ortho_table(params, order - 1, nodes)
    return GaussRule(order, nodes, (vectors[peak, columns] / table[peak, columns]) ** 2)


def moments(params: JacobiParams, k_max: int) -> np.ndarray:
    """Monomial moments m_k = int x^k dmu for k = 0..k_max.

    Integration by parts of d/dx [x^k (1-x)^(a+1) (1+x)^(b+1)] gives the
    two-term recursion m_{k+1} = (k m_{k-1} + (b - a) m_k) / (k + a + b + 2),
    seeded by the Beta-function value of m_0.
    """
    a, b = params.alpha, params.beta
    out = np.empty(k_max + 1)
    out[0] = total_mass(params)
    if k_max == 0:
        return out
    out[1] = (b - a) * out[0] / (a + b + 2.0)
    for k in range(1, k_max):
        out[k + 1] = (k * out[k - 1] + (b - a) * out[k]) / (k + a + b + 2.0)
    return out


def _entry(params: JacobiParams, t: float, n: int, m: int, rule: GaussRule,
           derivative: bool) -> float:
    """Quadrature value of int (-(1-x))^d e^{-t(1-x)} p_n p_m dmu, d = derivative;
    raises ConvergenceFailure unless the rule is exact on the polynomial part."""
    degree = n + m + int(derivative)
    if 2 * rule.order - 1 < degree:
        raise ConvergenceFailure(
            f"rule of order {rule.order} is not exact for the degree {degree} polynomial part"
        )
    table = ortho_table(params, max(n, m), rule.nodes)
    g = 1.0 - rule.nodes
    factor = -g * np.exp(-t * g) if derivative else np.exp(-t * g)
    # table[n] * table[m] first: IEEE multiplication commutes, so the value
    # is bitwise symmetric in (n, m), which grouping exp * p_n * p_m is not.
    return float(rule.weights @ ((table[n] * table[m]) * factor))


def kernel_entry(params: JacobiParams, t: float, n: int, m: int,
                 rule: GaussRule) -> float:
    """Quadrature value of K_t(n, m); symmetric in (n, m) exactly."""
    return _entry(params, t, n, m, rule, derivative=False)


def kernel_dt_entry(params: JacobiParams, t: float, n: int, m: int,
                    rule: GaussRule) -> float:
    """Time derivative d/dt K_t(n, m) = -int (1-x) e^{-t(1-x)} p_n p_m dmu."""
    return _entry(params, t, n, m, rule, derivative=True)


def bessel_kernels(params: JacobiParams, times, size: int) -> tuple:
    """K_t and d/dt K_t for n, m < size at each time, each of shape
    (len(times), size, size), in closed form for the two Chebyshev measures.

    Both are reflected heat kernels of the discrete Laplacian on Z, so with
    E_k(t) = e^{-t} I_k(t) (`scipy.special.ive`):
    - (-1/2, -1/2): K_t(n, m) = c_n c_m (E_{|n-m|} + E_{n+m}) / 2, with
      c_0 = 1 and c_n = sqrt(2) for n >= 1;
    - (1/2, 1/2): K_t(n, m) = E_{|n-m|} - E_{n+m+2}.
    dK follows from d/dt E_k = (E_{k-1} + E_{k+1}) / 2 - E_k, with E_{-1} = E_1.
    """
    n = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    if (params.alpha, params.beta) == (-0.5, -0.5):
        c = np.where(np.arange(size) == 0, 1.0, np.sqrt(2.0))
        scale, sign, near, far = 0.5 * np.outer(c, c), 1.0, np.abs(n - m), n + m
    elif (params.alpha, params.beta) == (0.5, 0.5):
        scale, sign, near, far = 1.0, -1.0, np.abs(n - m), n + m + 2
    else:
        raise ValueError(f"no closed form at {params}")
    k = np.arange(2 * size + 1)
    kernels, derivatives = [], []
    for t in np.asarray(times, dtype=float):
        # E_k for k = 0..2 size + 1, then d/dt E_k for k = 0..2 size
        e = ive(np.arange(2 * size + 2), t)
        de = 0.5 * (e[np.abs(k - 1)] + e[k + 1]) - e[k]
        kernels.append(scale * (e[near] + sign * e[far]))
        derivatives.append(scale * (de[near] + sign * de[far]))
    return np.array(kernels), np.array(derivatives)


def apply_heat(params: JacobiParams, t: float, f: np.ndarray, size: int) -> np.ndarray:
    """W_t f on the truncated range, f padded with zeros to `size` entries."""
    fv = np.pad(np.asarray(f, dtype=float), (0, size - np.size(f)))
    return kernel_tensor(params, [t], size)[0] @ fv


def brute_variation(values: np.ndarray, rho: float) -> float:
    """rho-variation of one path, the maximum over all its subsequences."""
    vals = np.asarray(values, dtype=float)
    best = 0.0
    for size in range(2, vals.size + 1):
        for combo in itertools.combinations(range(vals.size), size):
            total = float(np.sum(np.abs(np.diff(vals[list(combo)])) ** rho))
            if total > best:
                best = total
    return best ** (1.0 / rho)


def brute_jump_count(values: np.ndarray, lam: float) -> int:
    """The largest number of pairs s_1 < t_1 <= s_2 < t_2 <= ... with
    |a_{t_i} - a_{s_i}| > lam on one path, by exhaustive search."""
    vals = np.asarray(values, dtype=float)
    length = vals.size
    memo: dict[int, int] = {}

    def best_from(start: int) -> int:
        if start >= length - 1:
            return 0
        hit = memo.get(start)
        if hit is not None:
            return hit
        best = 0
        for s in range(start, length - 1):
            for t in range(s + 1, length):
                if abs(vals[t] - vals[s]) > lam:
                    best = max(best, 1 + best_from(t))
        memo[start] = best
        return best

    return best_from(0)


def qn_kernel_matrix(params: JacobiParams, n1: int, n2: int, lac, bcoef, size: int,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Dense kernel sum_{j=n1}^{n2} b_j (K_{a_{j+1}} - K_{a_j}) of the difference
    sum over the window n1 < n2, with bcoef[i] the coefficient of index
    lac.j_min + i; its row n applied to f is the sum at index n. The kernels
    come from the one tensor over lac.values that the batch routes use."""
    mats = kernel_tensor(params, lac.values, size, quad_tol)
    total = np.zeros((size, size))
    for i in range(n1 - lac.j_min, n2 + 1 - lac.j_min):
        total += bcoef[i] * (mats[i + 1] - mats[i])
    return total


def s_star(params: JacobiParams, m_range: int, lac, bcoef, f: np.ndarray, n: int,
           size: int, variant: str = "full") -> float:
    """sup over windows -M <= n1 < n2 <= M of |difference sum| at index n, one
    `apply_heat` per lacunary time, with bcoef aligned as in `qn_kernel_matrix`.

    variant selects the input restriction: "local" keeps entries with
    n/2 <= m <= 3n/2, "global" keeps the complement, "full" keeps everything.
    All window sums are differences of one prefix array, so the sup is the
    prefix spread.
    """
    fv = np.pad(np.asarray(f, dtype=float), (0, size - np.size(f)))
    if variant != "full":
        local = _local_mask(size)[n]
        fv *= local if variant == "local" else ~local
    path = np.array([apply_heat(params, lac.value(j), fv, size)[n]
                     for j in range(-m_range, m_range + 2)])
    steps = bcoef[np.arange(-m_range, m_range + 1) - lac.j_min] * np.diff(path)
    prefix = np.concatenate(([0.0], np.cumsum(steps)))
    return float(prefix.max() - prefix.min())


def weighted_norm(f: np.ndarray, p: float, w: np.ndarray) -> float:
    """(sum |f|^p w)^(1/p) with f and w aligned from index 0."""
    fv = np.asarray(f, dtype=float)
    return float((np.abs(fv) ** p @ np.asarray(w, dtype=float)[: fv.size]) ** (1.0 / p))


def a1_constant(w: np.ndarray) -> float:
    """A_1 constant: sup over intervals of (average of w) * max(1/w) on the interval."""
    wv = np.asarray(w, dtype=float)
    cw = np.concatenate(([0.0], np.cumsum(wv)))
    inv = 1.0 / wv
    best = 0.0
    for n in range(wv.size):
        running = np.maximum.accumulate(inv[n:])
        m = np.arange(n, wv.size)
        cand = (cw[m + 1] - cw[n]) / (m - n + 1.0) * running
        best = max(best, float(cand.max()))
    return best
