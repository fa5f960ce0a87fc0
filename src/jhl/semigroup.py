"""Heat kernel of the Jacobi difference operator, by quadrature and by spectral truncation.

K_t(n, m) = int_{-1}^{1} e^{-t(1-x)} p_n(x) p_m(x) dmu(x) realizes e^{tJ}. The
quadrature route splits a batch of times at `laguerre_split`, about N^2 / 4
for size N. Below it, the integral is evaluated with the Gauss-Jacobi rule of
`build_rule`, at the order that `auto_order` certifies, from a Bessel tail
alone, for the largest of those times. At and above it, with
u = t(1 - x), it is an integral against u^alpha e^{-u} on (0, 2t), evaluated
with a Gauss-Laguerre rule whose nodes above 2t are dropped, one table of
p_n(1 - u/t) per time, at the order `laguerre_order` chooses. The spectral
route diagonalizes a 4N truncation of the operator and exponentiates; it is a
cross-check only well below t = N^2, so not in the Laguerre range. Every
derived value of the batch routes (rule, Laguerre order, table, eigenbasis,
tensor, p_n(1) vector) is memoised in `jhl._memo`, and `clear_caches` empties that
one cache; a quadrature `kernel_matrix` is a slice of its one-time tensor.
The scalar oracles `kernel_entry` and `kernel_dt_entry` take a Gauss-Jacobi
rule and build their own tables, so scalar calls do not grow the cache.
"""

from __future__ import annotations

import numpy as np

from ._memo import clear as clear_caches
from ._memo import memo
from .basis import JacobiParams, _at_one_by_ratios, generator_coefficients, ortho_table
from .errors import ConvergenceFailure, NumericFailure
from .quadrature import QuadratureRule, _laguerre_terms, auto_order, build_rule, laguerre_order

__all__ = [
    "kernel_entry",
    "kernel_dt_entry",
    "kernel_matrix",
    "kernel_tensor",
    "kernel_dt_tensor",
    "apply_heat",
    "apply_heat_tilde",
    "markov_defect",
    "semigroup_defect",
    "fourier_transform",
    "weight_at_one",
    "clear_caches",
]

DEFAULT_QUAD_TOL = 1e-12
POSITIVITY_FLOOR = -1e-12


def _eigenbasis(params: JacobiParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the size x size truncated operator, for
    the spectral route; the one place outside the Golub-Welsch fallback that
    imports scipy."""
    def compute():
        import scipy.linalg

        diag, off = generator_coefficients(params, size)
        try:
            return scipy.linalg.eigh_tridiagonal(diag, off)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise NumericFailure(f"generator eigensolver failed at size {size}") from exc
    return memo(("eig", params.alpha, params.beta, size), compute)


def _require_time(t: float) -> None:
    if not np.isfinite(t) or t < 0.0:
        raise ValueError("time t must be finite and nonnegative")


def _entry(params: JacobiParams, t: float, n: int, m: int, rule: QuadratureRule,
           derivative: bool) -> float:
    """Quadrature value of int (-(1-x))^d e^{-t(1-x)} p_n p_m dmu, d = derivative."""
    _require_time(t)
    if t == 0.0:
        raise ValueError("t = 0 is the identity and is not computed by quadrature")
    if n < 0 or m < 0:
        raise ValueError("kernel indices must be nonnegative")
    degree = n + m + int(derivative)
    if 2 * rule.order - 1 < degree:
        raise ConvergenceFailure(
            f"rule of order {rule.order} cannot integrate the degree {degree} polynomial part"
        )
    table = ortho_table(params, max(n, m), rule.nodes)
    g = 1.0 - rule.nodes
    factor = -g * np.exp(-t * g) if derivative else np.exp(-t * g)
    # table[n] * table[m] first: IEEE multiplication commutes, so the value
    # is bitwise symmetric in (n, m), which grouping exp * p_n * p_m is not.
    return float(rule.weights @ ((table[n] * table[m]) * factor))


def kernel_entry(params: JacobiParams, t: float, n: int, m: int,
                 rule: QuadratureRule) -> float:
    """Quadrature value of K_t(n, m); symmetric in (n, m) exactly. Tests check
    `kernel_matrix` and `kernel_tensor` against it."""
    return _entry(params, t, n, m, rule, derivative=False)


def kernel_dt_entry(params: JacobiParams, t: float, n: int, m: int,
                    rule: QuadratureRule) -> float:
    """Time derivative d/dt K_t(n, m) = -int (1-x) e^{-t(1-x)} p_n p_m dmu;
    tests check `kernel_dt_tensor` against it."""
    return _entry(params, t, n, m, rule, derivative=True)


def _check_positivity(params: JacobiParams, entries: np.ndarray) -> None:
    if params.positivity_regime:
        low = float(entries.min())
        if low < POSITIVITY_FLOOR:
            raise NumericFailure(
                f"kernel entry {low} below positivity floor in the alpha >= beta >= -1/2 regime"
            )


def _gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symmetrised (rows * weights) @ rows.T."""
    raw = (rows * weights) @ rows.T
    return 0.5 * (raw + raw.T)


def laguerre_split(params: JacobiParams, size: int) -> float:
    """Smallest time at which the quadrature route uses Gauss-Laguerre:
    size^2 / 4, and at least 2 (alpha + 16), so that u^alpha e^{-u} keeps
    less than e^{-58} of its mass past the dropped u = 2t."""
    return max(size * size / 4.0, 2.0 * (params.alpha + 16.0))


def _jacobi_kernels(out: np.ndarray, index: np.ndarray, params: JacobiParams, times,
                    size: int, tol: float, derivative: bool) -> None:
    """K_t (or d/dt K_t) into out[i] for i in index, from the one Gauss-Jacobi
    rule chosen for the largest of those times: weights w e^{-t(1-x)} for K,
    times -(1 - x) for dK."""
    order = auto_order(size - 1, float(np.max(times[index])), tol)
    rule = build_rule(params, order)
    table = memo(("table", params.alpha, params.beta, size - 1, order),
                 lambda: ortho_table(params, size - 1, rule.nodes))
    g = 1.0 - rule.nodes
    base = -rule.weights * g if derivative else rule.weights
    for i in index:
        out[i] = _gram(table, base * np.exp(-times[i] * g))


def _laguerre_kernels(out: np.ndarray, index: np.ndarray, params: JacobiParams, times,
                      size: int, tol: float, derivative: bool) -> None:
    """K_t (or d/dt K_t) into out[i] for i in index, from the Gauss-Laguerre
    rule in u = t(1 - x) that `laguerre_order` chooses for those times; dK
    takes the factor -u/t."""
    late = times[index]
    t_lo, t_hi = float(late.min()), float(late.max())
    order = memo(("laguerre_order", params.alpha, params.beta, size - 1, t_lo, t_hi, tol),
                 lambda: laguerre_order(params, size - 1, t_lo, t_hi, tol))
    for i, (table, weights, gap) in zip(index, _laguerre_terms(params, size - 1, late, order)):
        out[i] = _gram(table, -weights * gap if derivative else weights)


def _quad_kernels(params: JacobiParams, times, size: int, tol: float,
                  derivative: bool = False) -> np.ndarray:
    """Stack of K_t (or d/dt K_t) for every t: times below `laguerre_split`
    by Gauss-Jacobi, the others by Gauss-Laguerre."""
    out = np.empty((len(times), size, size))
    late = times >= laguerre_split(params, size)
    for route, index in ((_jacobi_kernels, np.flatnonzero(~late)),
                         (_laguerre_kernels, np.flatnonzero(late))):
        if index.size:
            route(out, index, params, times, size, tol, derivative)
    return out


def kernel_matrix(params: JacobiParams, t: float, size: int, method: str = "quadrature",
                  quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Read-only truncated kernel matrix (K_t(n, m))_{n,m < size} by the
    requested method.

    t = 0 returns the exact identity. The quadrature method returns
    `kernel_tensor(params, [t], size, quad_tol)[0]`. The spectral method
    diagonalizes the 4*size truncation of the operator and keeps the leading
    block.
    """
    _require_time(t)
    if size < 1:
        raise ValueError("size must be positive")
    if method not in ("quadrature", "spectral"):
        raise ValueError(f"unknown kernel method {method!r}")
    if t == 0.0:
        entries = np.eye(size)
    elif method == "quadrature":
        return kernel_tensor(params, [t], size, quad_tol)[0]
    else:
        lam, vec = _eigenbasis(params, 4 * size)
        entries = _gram(vec[:size, :], np.exp(t * lam))
        _check_positivity(params, entries)
    entries.setflags(write=False)
    return entries


def _tensor(params: JacobiParams, times, size: int, quad_tol: float,
            derivative: bool) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times <= 0.0):
        raise ValueError("time grid must be nonempty with positive entries")

    def compute() -> np.ndarray:
        out = _quad_kernels(params, times, size, quad_tol, derivative)
        if not derivative:
            _check_positivity(params, out)
        out.setflags(write=False)
        return out

    return memo(("dK" if derivative else "K", params.alpha, params.beta, size,
                 tuple(times.tolist()), quad_tol), compute)


def kernel_tensor(params: JacobiParams, times: np.ndarray, size: int,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Stack of quadrature kernel matrices over a time grid, shape (len(times), size, size)."""
    return _tensor(params, times, size, quad_tol, derivative=False)


def kernel_dt_tensor(params: JacobiParams, times: np.ndarray, size: int,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Stack of d/dt kernel matrices over a time grid."""
    return _tensor(params, times, size, quad_tol, derivative=True)


def _fit_signal(f: np.ndarray, size: int) -> np.ndarray:
    fv = np.asarray(f, dtype=float)
    if fv.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if fv.size > size:
        raise ValueError(f"signal support {fv.size} exceeds truncation {size}")
    if fv.size < size:
        fv = np.pad(fv, (0, size - fv.size))
    return fv


def apply_heat(params: JacobiParams, t: float, f: np.ndarray, size: int,
               method: str = "quadrature") -> np.ndarray:
    """W_t f on the truncated range, a kernel-matrix product."""
    fv = _fit_signal(f, size)
    if t == 0.0:
        return fv.copy()
    return kernel_matrix(params, t, size, method) @ fv


def weight_at_one(params: JacobiParams, size: int) -> np.ndarray:
    """The positive sequence p_n(1), n < size, as running products of the
    ratios p_{n+1}(1) / p_n(1) (`basis._at_one_by_ratios`); memoised and
    read-only."""
    def compute() -> np.ndarray:
        out = np.array(_at_one_by_ratios(params, size - 1))
        out.setflags(write=False)
        return out
    return memo(("at_one", params.alpha, params.beta, size), compute)


def apply_heat_tilde(params: JacobiParams, t: float, f: np.ndarray, size: int,
                     method: str = "quadrature") -> np.ndarray:
    """Conjugated semigroup W_t(p_.(1) f) / p_.(1); Markovian on the full lattice."""
    fv = _fit_signal(f, size)
    v = weight_at_one(params, size)
    return apply_heat(params, t, v * fv, size, method) / v


def markov_defect(params: JacobiParams, t: float, n: int, size: int) -> float:
    """Relative defect |sum_m K_t(n,m) p_m(1) - p_n(1)| / p_n(1) on the truncation.

    Meaningful only well inside the truncation, so n must stay below size/4.
    """
    if n < 0:
        raise ValueError("index n must be nonnegative")
    if n > size // 4:
        raise ValueError("markov defect requires n <= size/4, away from the truncation edge")
    if t == 0.0:
        return 0.0
    kern = kernel_matrix(params, t, size)
    v = weight_at_one(params, size)
    return float(abs(kern[n] @ v - v[n]) / v[n])


def semigroup_defect(params: JacobiParams, t: float, s: float, size: int) -> float:
    """Max-entry defect of K_t K_s = K_{t+s} on the leading size/4 block."""
    _require_time(t)
    _require_time(s)
    if t == 0.0 or s == 0.0:
        return 0.0
    block = max(1, size // 4)
    kt = kernel_matrix(params, t, size)
    ks = kernel_matrix(params, s, size)
    kts = kernel_matrix(params, t + s, size)
    prod = kt[:block] @ ks
    return float(np.abs(prod[:, :block] - kts[:block, :block]).max())


def fourier_transform(params: JacobiParams, f: np.ndarray, x):
    """Transform F(f)(x) = sum_n f(n) p_n(x), an isometry onto L^2(dmu)."""
    fv = np.asarray(f, dtype=float)
    if fv.ndim != 1 or fv.size == 0:
        raise ValueError("signal must be a nonempty one-dimensional array")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    table = ortho_table(params, fv.size - 1, xv)
    vals = fv @ table
    return vals if np.ndim(x) else float(vals[0])
