"""Heat kernel of the Jacobi difference operator, by quadrature and by spectral truncation.

K_t(n, m) = int_{-1}^{1} e^{-t(1-x)} p_n(x) p_m(x) dmu(x) realizes e^{tJ}. The
quadrature route evaluates this integral with the Gauss-Jacobi rule of
`build_rule`, at the order `auto_order` certifies for the largest time of a
batch (a priori, or by probing that same rule); the spectral route
diagonalizes a 4N truncation of the operator and exponentiates. Every derived
value of the batch routes (order, rule, table, eigenbasis, kernel, tensor,
p_n(1) vector) is memoised in `jhl._memo`, and `clear_caches` empties that
one cache. The scalar oracles `kernel_entry` and `kernel_dt_entry` build their
own tables, so scalar calls do not grow the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._memo import clear as clear_caches
from ._memo import memo
from .basis import JacobiParams, generator_coefficients, ortho_poly_at_one, ortho_table
from .errors import ConvergenceFailure, NumericFailure
from .quadrature import QuadratureRule, auto_order, build_rule

__all__ = [
    "HeatKernel",
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
    "parseval_defect",
    "weight_at_one",
    "clear_caches",
]

DEFAULT_QUAD_TOL = 1e-12
POSITIVITY_FLOOR = -1e-12


def _eigenbasis(params: JacobiParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    def compute():
        diag, off = generator_coefficients(params, size)
        try:
            return scipy.linalg.eigh_tridiagonal(diag, off)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise NumericFailure(f"generator eigensolver failed at size {size}") from exc
    return memo(("eig", params.alpha, params.beta, size), compute)


@dataclass(frozen=True)
class HeatKernel:
    """Dense truncated heat kernel at one time, tagged with how it was computed."""

    params: JacobiParams
    t: float
    size: int
    entries: np.ndarray
    method: str
    order_info: int


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
    """Quadrature value of K_t(n, m); symmetric in (n, m) exactly."""
    return _entry(params, t, n, m, rule, derivative=False)


def kernel_dt_entry(params: JacobiParams, t: float, n: int, m: int,
                    rule: QuadratureRule) -> float:
    """Time derivative d/dt K_t(n, m) = -int (1-x) e^{-t(1-x)} p_n p_m dmu."""
    return _entry(params, t, n, m, rule, derivative=True)


def _identity_kernel(params: JacobiParams, size: int, method: str) -> HeatKernel:
    entries = np.eye(size)
    entries.setflags(write=False)
    return HeatKernel(params=params, t=0.0, size=size, entries=entries,
                      method=method, order_info=0)


def _check_positivity(params: JacobiParams, entries: np.ndarray) -> None:
    if params.positivity_regime:
        low = float(entries.min())
        if low < POSITIVITY_FLOOR:
            raise NumericFailure(
                f"kernel entry {low} below positivity floor in the alpha >= beta >= -1/2 regime"
            )


def _assemble(rows: np.ndarray, base, rate: np.ndarray, times) -> np.ndarray:
    """Stack over t of the symmetrised (rows * (base * e^{-t rate})) @ rows.T."""
    out = np.empty((len(times), rows.shape[0], rows.shape[0]))
    for i, t in enumerate(times):
        raw = (rows * (base * np.exp(-t * rate))) @ rows.T
        out[i] = 0.5 * (raw + raw.T)
    return out


def _quad_kernels(params: JacobiParams, times, size: int, tol: float,
                  derivative: bool = False) -> tuple[int, np.ndarray]:
    """Quadrature order and stack of K_t (or d/dt K_t) for every t, from the
    one rule chosen for max(times): weights w for K, -w (1 - x) for dK."""
    t_max = max(float(np.max(times)), 1e-3)
    order = memo(("order", params.alpha, params.beta, size - 1, t_max, tol),
                 lambda: auto_order(params, size - 1, t_max, tol))
    rule = build_rule(params, order)
    table = memo(("table", params.alpha, params.beta, size - 1, order),
                 lambda: ortho_table(params, size - 1, rule.nodes))
    g = 1.0 - rule.nodes
    base = -rule.weights * g if derivative else rule.weights
    return order, _assemble(table, base, g, times)


def kernel_matrix(params: JacobiParams, t: float, size: int, method: str = "quadrature",
                  quad_tol: float = DEFAULT_QUAD_TOL) -> HeatKernel:
    """Truncated kernel matrix (K_t(n, m))_{n,m < size} by the requested method.

    t = 0 returns the exact identity. The spectral method diagonalizes the
    4*size truncation of the operator and keeps the leading block.
    """
    _require_time(t)
    if size < 1:
        raise ValueError("size must be positive")
    if method not in ("quadrature", "spectral"):
        raise ValueError(f"unknown kernel method {method!r}")

    def compute() -> HeatKernel:
        if t == 0.0:
            return _identity_kernel(params, size, method)
        if method == "quadrature":
            order, stack = _quad_kernels(params, [t], size, quad_tol)
        else:
            order = 4 * size
            lam, vec = _eigenbasis(params, order)
            stack = _assemble(vec[:size, :], 1.0, -lam, [t])  # e^{t lam}, exactly
        entries = stack[0]
        _check_positivity(params, entries)
        entries.setflags(write=False)  # memoised object is shared across callers
        return HeatKernel(params=params, t=t, size=size, entries=entries,
                          method=method, order_info=order)

    return memo(("kernel", params.alpha, params.beta, t, size, method, quad_tol), compute)


def _tensor(params: JacobiParams, times, size: int, quad_tol: float,
            derivative: bool) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times <= 0.0):
        raise ValueError("time grid must be nonempty with positive entries")

    def compute() -> np.ndarray:
        out = _quad_kernels(params, times, size, quad_tol, derivative)[1]
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
    return kernel_matrix(params, t, size, method).entries @ fv


def weight_at_one(params: JacobiParams, size: int) -> np.ndarray:
    """The positive sequence p_n(1), n < size; memoised and read-only."""
    def compute() -> np.ndarray:
        out = np.array([ortho_poly_at_one(params, n) for n in range(size)])
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
    return float(abs(kern.entries[n] @ v - v[n]) / v[n])


def semigroup_defect(params: JacobiParams, t: float, s: float, size: int) -> float:
    """Max-entry defect of K_t K_s = K_{t+s} on the leading size/4 block."""
    _require_time(t)
    _require_time(s)
    if t == 0.0 or s == 0.0:
        return 0.0
    block = max(1, size // 4)
    kt = kernel_matrix(params, t, size).entries
    ks = kernel_matrix(params, s, size).entries
    kts = kernel_matrix(params, t + s, size).entries
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


def parseval_defect(params: JacobiParams, f: np.ndarray, rule: QuadratureRule) -> float:
    """|  ||f||^2_{l^2} - int |F(f)|^2 dmu  | under the given rule."""
    fv = np.asarray(f, dtype=float)
    vals = fourier_transform(params, fv, rule.nodes)
    return float(abs(fv @ fv - rule.weights @ (vals * vals)))
