"""Empirical verification of kernel estimates and operator-norm boundedness.

Each verifier sweeps truncation sizes, extracts the best empirical constant per
size, and grades stability by the ratio of the two largest sizes: at most 1.10
is "stable" and anything larger is "growing". An exception propagates and ends
the run; no verdict is "failed" until failures are isolated per cell. The
module measures, it does not prove.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._memo import memo
from .basis import JacobiParams, normalization, ortho_table
from .paths import (
    LacunarySequence,
    TimeGrid,
    default_bands,
    default_time_grid,
    hl_maximal_all,
    jump_count_batch,
    oscillation_batch,
    variation_batch,
    _resolve_bcoef,
)
from .semigroup import DEFAULT_QUAD_TOL, kernel_dt_tensor, kernel_tensor
from .weights import ProbePolicy, WeightSpec, norm_ratio_max, probe_matrix, weak_quasinorm

__all__ = [
    "EstimateReport",
    "STABILITY_THRESHOLD",
    "DEFAULT_RHO",
    "DEFAULT_LAMBDAS",
    "majorant_batch",
    "operator_images",
    "verify_kernel_decay",
    "verify_kernel_smoothness",
    "verify_dt_sup",
    "verify_qn_bounds",
    "verify_lacunary_tail",
    "verify_cotlar",
    "verify_poly_bound",
    "verify_theorem_norms",
]

STABILITY_THRESHOLD = 1.10
DEFAULT_RHO = 2.5
DEFAULT_LAMBDAS = tuple(2.0 ** k for k in range(-5, 3))
_TINY = 1e-300


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimate sweep.

    constants holds the headline constant per size (the max over routes when an
    estimate tracks several); stability_ratio is the worst per-route ratio of
    the two largest sizes; extras carries estimate-specific series and counts.
    """

    name: str
    params: JacobiParams
    sizes: tuple
    constants: tuple
    stability_ratio: float
    verdict: str
    runtime: float
    extras: dict = field(default_factory=dict)

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "name": self.name,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "sizes": list(self.sizes),
            "constants": list(self.constants),
            "stability_ratio": self.stability_ratio,
            "verdict": self.verdict,
            "extras": self.extras,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def _ratio(series) -> float:
    if len(series) < 2:
        return 1.0
    prev, last = float(series[-2]), float(series[-1])
    if prev <= _TINY:
        return 1.0 if last <= _TINY else float("inf")
    return last / prev


def _finish(name: str, params: JacobiParams, sizes, route_series: dict,
            started: float, extras: dict | None = None) -> EstimateReport:
    """Assemble a report from per-route constant series (dict name -> list)."""
    routes = {k: [float(c) for c in v] for k, v in route_series.items()}
    n_sizes = len(next(iter(routes.values())))
    headline = [max(routes[k][i] for k in routes) for i in range(n_sizes)]
    ratios = {k: _ratio(v) for k, v in routes.items()}
    worst = max(ratios.values())
    verdict = "stable" if worst <= STABILITY_THRESHOLD else "growing"
    full_extras = dict(extras or {})
    if len(routes) > 1:
        for k, v in routes.items():
            full_extras[f"route_{k}"] = v
        full_extras["route_ratios"] = ratios
    return EstimateReport(
        name=name,
        params=params,
        sizes=tuple(int(s) for s in sizes),
        constants=tuple(headline),
        stability_ratio=worst,
        verdict=verdict,
        runtime=time.perf_counter() - started,
        extras=full_extras,
    )


def _check_sizes(sizes) -> tuple:
    out = tuple(int(s) for s in sizes)
    if len(out) < 2 or any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("need at least two strictly increasing sizes")
    return out


def majorant_batch(d_paths: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integral majorant of |path derivative| along the last axis.

    Per interval the larger endpoint magnitude is charged (never below the grid
    increment for resolved paths), plus endpoint tails: the left rectangle
    t_0 |d(t_0)| and the right tail 2 t_last |d(t_last)| from the t^(-3/2) decay.
    """
    mag = np.abs(np.asarray(d_paths, dtype=float))
    dt = np.diff(np.asarray(times, dtype=float))
    core = (np.maximum(mag[..., :-1], mag[..., 1:]) * dt).sum(axis=-1)
    left = mag[..., 0] * times[0]
    right = 2.0 * times[-1] * mag[..., -1]
    return core + left + right


def _sep(size: int) -> np.ndarray:
    idx = np.arange(size)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def verify_kernel_decay(params: JacobiParams, sizes, grid: TimeGrid | None = None,
                        rho: float = DEFAULT_RHO,
                        quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Constant sup |n-m| * ||K_.(n,m)||_rho by two routes: majorant and variation.

    Indices run over 1 <= n != m < size; the rho-variation of each kernel path
    must sit below its derivative-integral majorant, and both route constants
    must stabilize for a stable verdict.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    grid = grid or default_time_grid()
    c_maj, c_var = [], []
    for size in sizes:
        kt = kernel_tensor(params, grid.times, size, quad_tol)
        dkt = kernel_dt_tensor(params, grid.times, size, quad_tol)
        sep = _sep(size)
        mask = (sep > 0.0)
        mask[0, :] = False
        mask[:, 0] = False
        maj = majorant_batch(dkt.transpose(1, 2, 0), grid.times)
        var = variation_batch(kt.transpose(1, 2, 0), rho)
        c_maj.append((sep * maj)[mask].max())
        c_var.append((sep * var)[mask].max())
    return _finish("kernel_decay", params, sizes,
                   {"majorant": c_maj, "variation": c_var}, started,
                   {"rho": rho})


def _smoothness_mask(size: int) -> np.ndarray:
    """Pairs (n, m) admissible for the first-difference smoothness bound.

    Requires n != m, |n - m| > 2, and both n and n+1 inside [m/2, 3m/2].
    Row n of a differenced array stands for the pair (n+1, n).
    """
    n = np.arange(size - 1)[:, None]
    m = np.arange(size)[None, :]
    return (n != m) & (np.abs(n - m) > 2) & (2 * n >= m) & (2 * (n + 1) <= 3 * m)


def verify_kernel_smoothness(params: JacobiParams, sizes, grid: TimeGrid | None = None,
                             rho: float = DEFAULT_RHO,
                             quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Constant sup |n-m|^2 * ||K_.(n+1,m) - K_.(n,m)||_rho on the local region."""
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    grid = grid or default_time_grid()
    c_maj, c_var = [], []
    excluded = []
    for size in sizes:
        kt = kernel_tensor(params, grid.times, size, quad_tol)
        dkt = kernel_dt_tensor(params, grid.times, size, quad_tol)
        diff = kt[:, 1:, :] - kt[:, :-1, :]
        ddiff = dkt[:, 1:, :] - dkt[:, :-1, :]
        n = np.arange(size - 1)[:, None]
        m = np.arange(size)[None, :]
        sep2 = (n - m).astype(float) ** 2
        mask = _smoothness_mask(size)
        excluded.append(int(((n != m) & ~mask).sum()))
        maj = majorant_batch(ddiff.transpose(1, 2, 0), grid.times)
        var = variation_batch(diff.transpose(1, 2, 0), rho)
        c_maj.append((sep2 * maj)[mask].max())
        c_var.append((sep2 * var)[mask].max())
    return _finish("kernel_smoothness", params, sizes,
                   {"majorant": c_maj, "variation": c_var}, started,
                   {"rho": rho, "excluded_pairs": excluded})


def verify_dt_sup(params: JacobiParams, sizes, grid: TimeGrid | None = None,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Constant sup over n != m of |n-m|^3 * sup_t |d/dt K_t(n,m)|."""
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    grid = grid or default_time_grid()
    constants = []
    for size in sizes:
        dkt = kernel_dt_tensor(params, grid.times, size, quad_tol)
        sup_t = np.abs(dkt).max(axis=0)
        sep = _sep(size)
        constants.append((sep ** 3 * sup_t)[sep > 0.0].max())
    return _finish("dt_sup", params, sizes, {"dt_sup": constants}, started)


def _lacunary_step_matrices(params: JacobiParams, lac: LacunarySequence, coef: np.ndarray,
                            size: int, quad_tol: float) -> np.ndarray:
    """Stack coef_j * (K_{a_{j+1}} - K_{a_j}) for j = j_min..j_max-1, from one
    kernel tensor whose order is chosen for max(lac.values)."""
    mats = kernel_tensor(params, lac.values, size, quad_tol)
    return coef[:, None, None] * np.diff(mats, axis=0)


def _window_prefix(steps: np.ndarray, lac: LacunarySequence, m_range: int) -> np.ndarray:
    """Zero row, then running sums of the steps j = -M..M: every window sum over
    n1 <= j <= n2 is prefix[n2 + M + 1] - prefix[n1 + M]."""
    offset = -m_range - lac.j_min
    window = steps[offset:offset + 2 * m_range + 1]
    return np.concatenate([np.zeros((1,) + window.shape[1:]), np.cumsum(window, axis=0)])


def verify_qn_bounds(params: JacobiParams, lac: LacunarySequence, bcoef, m_range: int,
                     sizes, quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Size and smoothness of difference-sum kernels over every window in [-M, M].

    Tracks sup |n-m| |Q(n,m)| pooled over windows and the differenced analogue
    sup |n-m|^2 |Q(n+1,m) - Q(n,m)| on the local region; extras report each
    window's size constant and whether all of them sit within 10% of the
    pooled max.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    if m_range <= 0:
        raise ValueError("window range M must be positive")
    if lac.j_min > -m_range or lac.j_max < m_range + 1:
        raise ValueError("lacunary window must cover [-M, M+1]")
    b = _resolve_bcoef(bcoef, lac)
    windows = [(n1, n2) for n1 in range(-m_range, m_range)
               for n2 in range(n1 + 1, m_range + 1)]
    c_size, c_smooth = [], []
    per_window_last = None
    uniformity = None
    window_series: dict[tuple, list] = {w: [] for w in windows}
    for size in sizes:
        prefix = _window_prefix(_lacunary_step_matrices(params, lac, b, size, quad_tol),
                                lac, m_range)
        sep = _sep(size)
        mask_a = sep > 0.0
        n = np.arange(size - 1)[:, None]
        m = np.arange(size)[None, :]
        sep2 = (n - m).astype(float) ** 2
        mask_b = _smoothness_mask(size)
        best_a = best_b = 0.0
        per_window = []
        for n1, n2 in windows:
            q = prefix[n2 + m_range + 1] - prefix[n1 + m_range]
            ca = float((sep * np.abs(q))[mask_a].max())
            dq = q[1:, :] - q[:-1, :]
            cb = float((sep2 * np.abs(dq))[mask_b].max())
            per_window.append([n1, n2, ca])
            window_series[(n1, n2)].append(ca)
            best_a = max(best_a, ca)
            best_b = max(best_b, cb)
        c_size.append(best_a)
        c_smooth.append(best_b)
        lowest = min(c for _, _, c in per_window)
        uniformity = lowest / best_a if best_a > 0.0 else 1.0
        per_window_last = per_window
    window_stability = max(_ratio(v) for v in window_series.values())
    extras = {
        "windows": len(windows),
        "per_window_size_constants": per_window_last,
        "uniformity_ratio": uniformity,
        "uniform_within_10pct": bool(uniformity >= 0.9),
        "window_stability_ratio": window_stability,
        "windows_stable": bool(window_stability <= STABILITY_THRESHOLD),
    }
    return _finish("qn_bounds", params, sizes,
                   {"window_size": c_size, "window_smoothness": c_smooth},
                   started, extras)


def verify_lacunary_tail(params: JacobiParams, lac: LacunarySequence, vcoef, sizes,
                         quad_tol: float = DEFAULT_QUAD_TOL,
                         cutoff_c: float = 1.0) -> EstimateReport:
    """Suffix and geometric-tail bounds for lacunary difference sums.

    Route "suffix": sup over k, n, m of sqrt(a_k) |sum_{j>=k} v_j dK_j(n,m)|.
    Route "tail": sup over k > l and |n-m| > cutoff_c sqrt(a_k) of
    ratio^(k-l+1) sqrt(a_k) |sum_{j<l} v_j dK_j(n,m)|; sensitivity of the tail
    constant to cutoff_c in {1, 2, 4} lands in extras.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    v = _resolve_bcoef(vcoef, lac)
    lam = lac.ratio
    j_lo, j_hi = lac.j_min, lac.j_max
    c_suffix, c_tail = [], []
    sensitivity = {}
    for size in sizes:
        steps = _lacunary_step_matrices(params, lac, v, size, quad_tol)
        suffix = np.cumsum(steps[::-1], axis=0)[::-1]
        best = 0.0
        for k in range(j_lo, j_hi):
            a_k = lac.value(k)
            best = max(best, float(np.sqrt(a_k) * np.abs(suffix[k - j_lo]).max()))
        c_suffix.append(best)
        prefix = np.cumsum(steps, axis=0)
        sep = _sep(size)
        for c_cut in sorted({1.0, 2.0, 4.0, float(cutoff_c)}):
            best_t = 0.0
            for l in range(j_lo + 1, j_hi):
                part = np.abs(prefix[l - 1 - j_lo])
                for k in range(l + 1, j_hi + 1):
                    a_k = lac.value(k)
                    mask = sep > c_cut * np.sqrt(a_k)
                    if not mask.any():
                        continue
                    best_t = max(best_t, float(
                        lam ** (k - l + 1) * np.sqrt(a_k) * part[mask].max()))
            sensitivity.setdefault(c_cut, []).append(best_t)
        c_tail.append(sensitivity[cutoff_c][-1])
    extras = {
        "cutoff_c": cutoff_c,
        "tail_sensitivity": {f"c={c:g}": vals for c, vals in sensitivity.items()},
    }
    return _finish("lacunary_tail", params, sizes,
                   {"suffix": c_suffix, "tail": c_tail}, started, extras)


def _local_mask(size: int) -> np.ndarray:
    n = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    return (2 * m >= n) & (2 * m <= 3 * n)


def _hl_columns(g: np.ndarray) -> np.ndarray:
    return np.stack([hl_maximal_all(g[:, j]) for j in range(g.shape[1])], axis=1)


def verify_cotlar(params: JacobiParams, m_range: int, lac: LacunarySequence, bcoef,
                  q: float, sizes, seed: int = 0, n_random: int = 20,
                  quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Pointwise domination of the windowed sup by maximal functions.

    Constant: sup over probes f and indices n of
    S*_loc f(n) / (M(S_(-M,M),loc f)(n) + M_q f(n)), denominators below 1e-14
    skipped and counted.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    if q < 1.0:
        raise ValueError("q must be at least 1")
    if m_range <= 0:
        raise ValueError("window range M must be positive")
    if lac.j_min > -m_range or lac.j_max < m_range + 1:
        raise ValueError("lacunary window must cover [-M, M+1]")
    b = _resolve_bcoef(bcoef, lac)
    constants, skipped = [], []
    for size in sizes:
        rng = np.random.default_rng(seed)
        probes = np.concatenate(
            [np.eye(size), rng.standard_normal((size, n_random))], axis=1)
        steps = _lacunary_step_matrices(params, lac, b, size, quad_tol)
        images = _window_prefix(steps * _local_mask(size), lac, m_range) @ probes
        s_star_loc = images.max(axis=0) - images.min(axis=0)
        g = images[-1] - images[0]
        denom = _hl_columns(np.abs(g)) + _hl_columns(np.abs(probes) ** q) ** (1.0 / q)
        keep = denom >= 1e-14
        skipped.append(int((~keep).sum()))
        constants.append(float((s_star_loc[keep] / denom[keep]).max()) if keep.any() else 0.0)
    return _finish("cotlar", params, sizes, {"cotlar": constants}, started,
                   {"q": q, "skipped_small_denominators": skipped})


def verify_poly_bound(params: JacobiParams, sizes, x_grid: np.ndarray | None = None) -> EstimateReport:
    """Envelope constant sup_k sup_x |P_k(x)| sqrt(k) (1-x)^(a/2+1/4) (1+x)^(b/2+1/4).

    sizes are degree thresholds; the constant per size takes k = 1..size on an
    interior grid.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    if x_grid is None:
        x_grid = np.cos(np.linspace(0.01, np.pi - 0.01, 601))[::-1].copy()
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.abs(x_grid) >= 1.0):
        raise ValueError("x_grid must stay strictly inside (-1, 1)")
    n_max = max(sizes)
    table = ortho_table(params, n_max, x_grid)
    w = np.array([normalization(params, n) for n in range(n_max + 1)])
    plain = table / w[:, None]
    env = (1.0 - x_grid) ** (params.alpha / 2.0 + 0.25) \
        * (1.0 + x_grid) ** (params.beta / 2.0 + 0.25)
    k = np.arange(1, n_max + 1)[:, None]
    quantity = np.abs(plain[1:]) * np.sqrt(k) * env[None, :]
    per_degree = quantity.max(axis=1)
    constants = [float(per_degree[:size].max()) for size in sizes]
    return _finish("poly_bound", params, sizes, {"poly_envelope": constants}, started)


def operator_images(params: JacobiParams, operator: str, size: int, grid: TimeGrid,
                    rho: float, lambdas, lac: LacunarySequence | None, b, m_range: int,
                    probes: np.ndarray, quad_tol: float) -> np.ndarray:
    """Images of one operator of heat paths on a probe matrix (size, P) or on
    one signal (size,), one entry per index and probe.

    "jump" stacks one image per lambda; "s_star" is the spread of the window
    prefix sums over [-M, M] with step coefficients b.
    """
    if operator == "s_star":
        if lac is None:
            raise ValueError("s_star sweeps need a lacunary sequence")
        steps = _lacunary_step_matrices(params, lac, b, size, quad_tol)
        sums = _window_prefix(steps, lac, m_range) @ probes
        return sums.max(axis=0) - sums.min(axis=0)
    if operator not in ("variation", "oscillation", "jump"):
        raise ValueError(f"unknown operator choice {operator!r}")
    kt = kernel_tensor(params, grid.times, size, quad_tol)
    paths = np.moveaxis(np.tensordot(kt, probes, axes=([2], [0])), 0, -1)
    if operator == "variation":
        return variation_batch(paths, rho)
    if operator == "oscillation":
        return oscillation_batch(grid.times, paths, default_bands(grid))
    return np.stack([lam * jump_count_batch(paths, lam) ** (1.0 / rho) for lam in lambdas])


def _operator_images(params: JacobiParams, operator: str, size: int, grid: TimeGrid,
                     rho: float, lambdas, lac: LacunarySequence | None, bcoef,
                     m_range: int, seed: int, n_random: int,
                     quad_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Probe matrix and its `operator_images`, memoised per call key."""
    lac_key = None if lac is None else (lac.j_min, tuple(lac.values), lac.ratio)
    b = _resolve_bcoef(bcoef, lac) if operator == "s_star" and lac is not None else None
    key = ("images", operator, params.alpha, params.beta, size, tuple(grid.times), rho,
           tuple(lambdas), lac_key, None if b is None else tuple(b), m_range, seed,
           n_random, quad_tol)

    def compute() -> tuple[np.ndarray, np.ndarray]:
        probes = probe_matrix(ProbePolicy(size=size, n_random=n_random, seed=seed))
        return probes, operator_images(params, operator, size, grid, rho, lambdas, lac,
                                       b, m_range, probes, quad_tol)

    return memo(key, compute)


def verify_theorem_norms(params: JacobiParams, operator: str, p: float,
                         weight_spec: WeightSpec, sizes,
                         grid: TimeGrid | None = None, rho: float = DEFAULT_RHO,
                         lambdas=DEFAULT_LAMBDAS, lac: LacunarySequence | None = None,
                         bcoef=None, m_range: int = 6, seed: int = 0,
                         n_random: int = 8, mode: str = "strong",
                         quad_tol: float = DEFAULT_QUAD_TOL) -> EstimateReport:
    """Operator-norm sweep of a path operator on l^p(w) over truncation sizes.

    mode "strong" maxes ||Tf||/||f|| over delta and random probes (for jump,
    additionally over the lambda family); mode "weak11" uses delta probes and
    the weak-l^1 quasinorm against the weighted l^1 norm.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    if mode not in ("strong", "weak11"):
        raise ValueError(f"unknown mode {mode!r}")
    if p < 1.0:
        raise ValueError("p must be at least 1")
    grid = grid or default_time_grid()
    if operator == "s_star" and lac is None:
        lac = LacunarySequence.geometric(2.0, -m_range - 1, m_range + 2)
        bcoef = np.ones(lac.values.size - 1)
    constants = []
    for size in sizes:
        probes, images = _operator_images(params, operator, size, grid, rho, lambdas,
                                          lac, bcoef, m_range, seed, n_random, quad_tol)
        w = weight_spec.resolve(size)
        per_family = images if images.ndim == 3 else images[None, ...]
        best = 0.0
        for fam in per_family:
            if mode == "strong":
                best = max(best, norm_ratio_max(fam, probes, p, w))
            else:
                ratios = weak_quasinorm(fam[:, :size], w) / w
                best = max(best, float(ratios.max()))
        constants.append(best)
    name = f"theorem_norms_{operator}" + ("_weak11" if mode == "weak11" else "")
    extras = {"p": p, "weight": weight_spec.label(), "mode": mode, "rho": rho}
    return _finish(name, params, sizes, {"norm": constants}, started, extras)
