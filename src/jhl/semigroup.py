"""Heat kernel of the Jacobi difference operator, by quadrature and by spectral truncation.

K_t(n, m) = int_{-1}^{1} e^{-t(1-x)} p_n(x) p_m(x) dmu(x) realizes e^{tJ}. The
quadrature route splits a batch of times at `laguerre_split`, about N^2 / 4
for size N. Below it, the integral is evaluated with the Q-point Gauss-Jacobi
rule, whose Jacobi matrix is the order-Q truncation of the operator shifted
by 1: one eigensolve gives its nodes, and with them the rows
sqrt(w_k) p_n(x_k) (`quadrature._jacobi_rows`); K_t is the Gram of the rows
with weights e^{t lam}, lam = x - 1. Q is the least order that `auto_order`
certifies for the largest of those times from a closed-form bound on the
tail of the Chebyshev series of e^{-t(1-x)}, whose coefficients are Bessel
values; it depends on the size, that time and the tolerance alone. At and
above it, with u = t(1 - x), it is an integral against u^alpha e^{-u} on
(0, 2t), evaluated with a Gauss-Laguerre rule whose nodes above 2t are
dropped, one table of p_n(1 - u/t) per time, at the order `laguerre_order`
chooses. The spectral route diagonalizes, with numpy.linalg.eigh, the M x M
truncation of the operator, M = min(4N, N + d) with d the least margin that a
Poisson tail bound certifies to the tolerance at the largest of its times
(`_truncation`), and exponentiates its raw eigenvectors at each time: the
bound rises with t, so one eigensolve serves every time of a batch. It is a
cross-check only well below t = N^2, so not in the Laguerre range; it is
`kernel_matrices` (and `kernel_matrix` for one time), and the quadrature
route is `kernel_tensor` and `kernel_dt_tensor`. The eigen-rows, Laguerre
orders and Laguerre rules of the quadrature route are memoised in
`jhl._memo`, which `clear_caches` empties; each tensor is built anew. The
spectral route's eigenbasis lives only as long as its generator.
The tests check both routes entry by entry against scalar oracles that take
a Golub-Welsch rule (`tests/oracles.py`), against the matrix exponential of
the truncation, and the whole kernel at (-1/2, -1/2) and (1/2, 1/2) against
its closed form in Bessel functions.

Every route forms its kernels in one place, `_gram`: the exactly symmetric
product B B^T of B = rows sqrt(|w|), over the modes of nonzero weight w, with
the weights' one sign applied after. Each entry whose magnitude is at most
sqrt(Q') eps sqrt(d_n d_m), Q' the modes kept and d the product's diagonal,
is set to +0.0: that is the scale of the summed rounding errors of Q' terms,
which grow like sqrt(Q') rather than Q' (Higham & Mary, SIAM J. Sci. Comput.
41, 2019). Left in place, such entries read about 1e-17 where the true value
is far smaller; a zeroed entry is accurate to the floor in absolute terms, as
every other entry is to rounding. On `jhl kernel` at size 256, 77-99% of each
matrix is then exactly 0.

The diagnostics take the truncated kernels they measure and hold them to two
identities of the full lattice: K_t p_.(1) = p_.(1) (`markov_defect`, with
p_n(1) from `weight_at_one`) and K_t K_s = K_{t+s} (`semigroup_defect`).
"""

from __future__ import annotations

import math

import numpy as np

from ._memo import clear as clear_caches
from ._memo import memo
from .basis import JacobiParams, _at_one_by_ratios, generator_coefficients
from .errors import NumericFailure
from .quadrature import _eigh, _jacobi_rows, _laguerre_terms, auto_order, laguerre_order

__all__ = [
    "kernel_matrices",
    "kernel_matrix",
    "kernel_tensor",
    "kernel_dt_tensor",
    "markov_defect",
    "semigroup_defect",
    "weight_at_one",
    "clear_caches",
]

DEFAULT_QUAD_TOL = 1e-12
POSITIVITY_FLOOR = -1e-12


def _poisson_tail(t: float, k) -> np.ndarray:
    """Chernoff bound e^{-t} (e t / k)^k on P(Poisson(t) >= k) where k > t,
    and 1 elsewhere."""
    return np.where(k > t, np.exp(k * (1.0 + np.log(t) - np.log(k)) - t), 1.0)


def _truncation(t: float, size: int, tol: float) -> int:
    """Size M = min(4 size, size + d) of the truncation the spectral route
    diagonalizes at time t > 0, with d the least margin such that
    t P(Poisson(t) >= 2d + 1) <= tol.

    Write J = X - I with ||X|| <= 1. As e^{uJ} = e^{-u} e^{uX} and X^k(i, j)
    = 0 for k < |i - j|, |e^{uJ}(i, j)| <= P(Poisson(u) >= |i - j|), for J
    and for its M x M truncation J_M alike. Duhamel's formula
    across the one cut link, a_{M-1} <= 1, gives K_t - K_t^(M) as the
    integral over s in (0, t) of a_{M-1} e^{(t-s)J}(n, M) e^{sJ_M}(M-1, m).
    For n, m < size the two factors are at most P(Poisson(t - s) >= M - n)
    and P(Poisson(s) >= M - 1 - m); those variables are independent and add
    to Poisson(t), so |K_t(n, m) - K_t^(M)(n, m)| <= t P(Poisson(t) >=
    2(M - size) + 1)."""
    margins = np.arange(3 * size)
    fits = t * _poisson_tail(t, 2 * margins + 1) <= tol
    return size + int(np.argmax(np.append(fits, True)))


def _check_positivity(params: JacobiParams, entries: np.ndarray) -> None:
    if params.positivity_regime:
        low = float(entries.min())
        if low < POSITIVITY_FLOOR:
            raise NumericFailure(
                f"kernel entry {low} below positivity floor in the alpha >= beta >= -1/2 regime"
            )


def _gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows * weights) @ rows.T, exactly symmetric, with every entry at or
    below its rounding floor set to +0.0.

    Modes of weight exactly 0 (an underflowed e^{t lam}) are dropped; the Q'
    left must share one sign s, or ValueError. With B = rows sqrt(|w|) the
    Gram is s B B^T, and numpy forms B @ B.T as a symmetric rank-k update, so
    it is symmetric bit for bit and its diagonal is d_n = sum_k rows_nk^2 |w_k|.
    Entry (n, m) sums Q' products whose magnitudes add up to at most
    sqrt(d_n d_m) (Cauchy-Schwarz), and their rounding errors, which grow like
    the square root of their count (Higham & Mary, SIAM J. Sci. Comput. 41,
    2019), to about sqrt(Q') eps sqrt(d_n d_m). An entry no larger than that
    floor holds no digit of its value, so it is set to 0, which is within the
    floor of the true value in absolute terms. With eps alone as the factor,
    `jhl kernel` at sizes [64, 128, 256] writes 29.4 MB of CSV against 17.7 MB
    and the markov defect at (5/2, 1/2) keeps its noise, 1.3e-10 against
    1.2e-13; with Q' eps the floor removes real digits, and the markov and
    semigroup defects of the default config rise 3 to 15 times.
    """
    keep = weights != 0.0
    if not keep.all():
        rows, weights = rows[:, keep], weights[keep]
    low, high = weights.min(initial=0.0), weights.max(initial=0.0)
    if low < 0.0 < high:
        raise ValueError("Gram weights must share one sign")
    scaled = rows * np.sqrt(np.abs(weights))
    gram = scaled @ scaled.T
    scale = np.sqrt(gram.diagonal())
    floor = np.multiply.outer(scale, math.sqrt(weights.size) * np.finfo(float).eps * scale)
    # |K| <= floor as two comparisons, with no N x N temporary for |K|
    small = gram <= floor
    small &= gram >= np.negative(floor, out=floor)
    gram[small] = 0.0
    if low < 0.0:
        np.subtract(0.0, gram, out=gram)  # 0 - x, unlike -x, keeps 0 as +0.0
    return gram


def laguerre_split(params: JacobiParams, size: int) -> float:
    """Smallest time at which the quadrature route uses Gauss-Laguerre:
    size^2 / 4, and at least 2 (alpha + 16), so that u^alpha e^{-u} keeps
    less than e^{-58} of its mass past the dropped u = 2t."""
    return max(size * size / 4.0, 2.0 * (params.alpha + 16.0))


def _jacobi_kernels(out: np.ndarray, index: np.ndarray, params: JacobiParams, times,
                    size: int, tol: float, derivative: bool) -> None:
    """K_t (or d/dt K_t) into out[i] for i in index, from the eigen-rows of
    the one truncation whose order `auto_order` certifies for the largest of
    those times: weights e^{t lam} for K, times lam for dK."""
    order = auto_order(size - 1, float(np.max(times[index])), tol)
    lam, rows = memo(("rows", params.alpha, params.beta, size, order),
                     lambda: _jacobi_rows(params, size, order))
    for i in index:
        decay = np.exp(times[i] * lam)
        out[i] = _gram(rows, lam * decay if derivative else decay)


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


def kernel_matrices(params: JacobiParams, times, size: int,
                    quad_tol: float = DEFAULT_QUAD_TOL):
    """Generator of read-only truncated kernel matrices (K_t(n, m))_{n,m <
    size}, one per t > 0 of times, in the order given, by the spectral route.

    At the first next() it diagonalizes, once, the truncation of size M =
    `_truncation(max(times), size, quad_tol)`; each matrix is the Gram of the
    leading block of those eigenvectors with weights e^{t lam}. The bound
    t P(Poisson(t) >= 2(M - size) + 1) that certifies M rises with t, and so
    does its Chernoff form in `_poisson_tail`, so the M certified for the
    largest time certifies every smaller one: wherever M is below 4*size,
    each matrix is within quad_tol of the full lattice's kernel on the
    leading block. ValueError, at the first next(), if times is empty or
    not all finite and positive.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)) or np.any(times <= 0.0):
        raise ValueError("times must be nonempty, finite and positive")
    if size < 1:
        raise ValueError("size must be positive")
    lam, vec = _eigh(*generator_coefficients(
        params, _truncation(float(times.max()), size, quad_tol)))
    rows = vec[:size]
    for t in times:
        entries = _gram(rows, np.exp(t * lam))
        _check_positivity(params, entries)
        entries.setflags(write=False)
        yield entries


def kernel_matrix(params: JacobiParams, t: float, size: int,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """The spectral K_t of one time t > 0: the one matrix of
    `kernel_matrices(params, [t], size, quad_tol)`."""
    return next(kernel_matrices(params, [t], size, quad_tol))


def _tensor(params: JacobiParams, times, size: int, quad_tol: float,
            derivative: bool) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times <= 0.0):
        raise ValueError("time grid must be nonempty with positive entries")
    out = _quad_kernels(params, times, size, quad_tol, derivative)
    if not np.all(np.isfinite(out)):
        raise NumericFailure(
            f"{'dK' if derivative else 'K'} tensor at size {size} has non-finite entries")
    if not derivative:
        _check_positivity(params, out)
    out.setflags(write=False)
    return out


def kernel_tensor(params: JacobiParams, times: np.ndarray, size: int,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Stack of quadrature kernel matrices over a time grid, shape (len(times), size, size)."""
    return _tensor(params, times, size, quad_tol, derivative=False)


def kernel_dt_tensor(params: JacobiParams, times: np.ndarray, size: int,
                     quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Stack of d/dt kernel matrices over a time grid."""
    return _tensor(params, times, size, quad_tol, derivative=True)


def weight_at_one(params: JacobiParams, size: int) -> np.ndarray:
    """The positive sequence p_n(1), n < size, as running products of the
    ratios p_{n+1}(1) / p_n(1) (`basis._at_one_by_ratios`)."""
    return np.array(_at_one_by_ratios(params, size - 1))


def markov_defect(rows: np.ndarray, at_one: np.ndarray) -> float:
    """Largest relative defect |sum_m K_t(n,m) p_m(1) - p_n(1)| / p_n(1) over
    the given leading rows K_t(n, .) of a size-N truncated kernel, with
    at_one the N values p_n(1) (`weight_at_one`), which a caller computes
    once for all the kernels of one params.

    Meaningful only well inside the truncation, so at most N/4 + 1 rows.
    """
    size = rows.shape[1]
    if not 0 < rows.shape[0] <= size // 4 + 1:
        raise ValueError("markov defect takes 1 to size/4 + 1 leading rows, "
                         "away from the truncation edge")
    return max(float(abs(rows[n] @ at_one - at_one[n]) / at_one[n])
               for n in range(rows.shape[0]))


def semigroup_defect(kt: np.ndarray, ks: np.ndarray, kts: np.ndarray) -> float:
    """Max-entry defect of K_t K_s = K_{t+s} on the leading size/4 block,
    from the three size-N truncated kernels."""
    block = max(1, kt.shape[0] // 4)
    prod = kt[:block] @ ks
    return float(np.abs(prod[:, :block] - kts[:block, :block]).max())
