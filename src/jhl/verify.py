"""Empirical verification of kernel estimates and operator-norm boundedness.

Each verifier sweeps truncation sizes, extracts the best empirical constant per
size, and grades stability by the ratio of the two largest sizes: at most 1.10
is "stable" and anything larger is "growing". A kernel entry K_t(n, m) does not
depend on the truncation, so each sweep takes the kernels it reads, built by
its caller at the largest size, and reads every smaller size from their
leading block; the module builds no kernel. An exception propagates and ends
the run; no verdict is "failed" until failures are isolated per cell. The
module measures, it does not prove.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import JacobiParams, normalization, ortho_table
from .errors import NumericFailure
from .paths import (
    LacunarySequence,
    TimeGrid,
    default_bands,
    hl_maximal_all,
    jump_count_batch,
    oscillation_batch,
    variation_batch,
    _local_mask,
    _resolve_bcoef,
)
from .weights import norm_ratio_max, probe_matrix, weak_quasinorm

__all__ = [
    "EstimateReport",
    "STABILITY_THRESHOLD",
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
_TINY = 1e-300
# `_pair_values` gathers the kernel paths of this many (n, m) pairs at a time;
# a path's functional does not depend on the others in its batch.
_PAIR_BLOCK = 8192


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "sizes": list(self.sizes),
            "constants": list(self.constants),
            "stability_ratio": self.stability_ratio,
            "verdict": self.verdict,
            "extras": self.extras,
        }


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


def _check_finite(*stacks) -> None:
    """min and max carry any nan or infinity, and need no mask of the stack."""
    if not all(np.isfinite(stack.min()) and np.isfinite(stack.max()) for stack in stacks):
        raise NumericFailure("kernels have non-finite entries")


def _check_sizes(sizes, *stacks, steps: int | None = None) -> tuple:
    """sizes as ints, at least two and strictly increasing; each stack must
    hold finite matrices of the largest size, one per time if steps is given."""
    out = tuple(int(s) for s in sizes)
    if len(out) < 2 or any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("need at least two strictly increasing sizes")
    if any(stack.shape[1:] != (out[-1], out[-1]) for stack in stacks):
        raise ValueError(f"kernels must be {out[-1]} x {out[-1]}, the largest size")
    if steps is not None and any(len(stack) != steps for stack in stacks):
        raise ValueError(f"kernels must hold {steps} matrices, one per time")
    _check_finite(*stacks)
    return out


def majorant_batch(d_paths: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integral majorant of |path derivative| along the first (time) axis.

    Per interval the larger endpoint magnitude is charged (never below the grid
    increment for resolved paths), plus endpoint tails: the left rectangle
    t_0 |d(t_0)| and the right tail 2 t_last |d(t_last)| from the t^(-3/2) decay.
    The intervals are summed left to right, so a path's value does not depend
    on the memory layout of d_paths or on the other paths in it.
    """
    mag = np.abs(np.asarray(d_paths, dtype=float))
    times = np.asarray(times, dtype=float)
    core = np.zeros(mag.shape[1:])
    for k, dt in enumerate(np.diff(times)):
        core += np.maximum(mag[k], mag[k + 1]) * dt
    return core + mag[0] * times[0] + 2.0 * times[-1] * mag[-1]


def _sep(size: int) -> np.ndarray:
    idx = np.arange(size)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def _leading_max(q: np.ndarray, sizes, lag: int = 0) -> list:
    """Constant per size s: the max of q over rows below s - lag and columns
    below s. q holds one nonnegative value per entry at the largest size, with
    0 where masked; lag 1 suits a first difference in n."""
    return [float(q[:s - lag, :s].max()) for s in sizes]


def _paths(tensor: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The paths t -> tensor[t, n, m] at the flat indices idx of (n, m), shape
    (len(tensor), len(idx))."""
    return np.take(tensor.reshape(len(tensor), -1), idx, axis=1)


def _pair_values(functional, keep: np.ndarray, mirror: bool = False) -> np.ndarray:
    """functional(idx) at each pair (n, m) that keep marks and 0 elsewhere,
    shape (..., *keep.shape). idx holds the flat indices n * keep.shape[1] + m
    of _PAIR_BLOCK pairs at a time, and functional gives one value per pair
    along its last axis (families, if any, before it); mirror also writes each
    value at (m, n). With no pair marked the result is zeros of keep's shape."""
    rows, cols = np.nonzero(keep)
    out = None
    for lo in range(0, rows.size, _PAIR_BLOCK):
        n, m = rows[lo:lo + _PAIR_BLOCK], cols[lo:lo + _PAIR_BLOCK]
        values = functional(n * keep.shape[1] + m)
        if out is None:
            out = np.zeros(values.shape[:-1] + keep.shape)
        out[..., n, m] = values
        if mirror:
            out[..., m, n] = values
    return np.zeros(keep.shape) if out is None else out


def verify_kernel_decay(params: JacobiParams, sizes, kt: np.ndarray, dkt: np.ndarray,
                        times: np.ndarray, rho: float) -> EstimateReport:
    """Constant sup |n-m| * ||K_.(n,m)||_rho by two routes, majorant and
    variation, from the K and dK tensors over the increasing times.

    Indices run over 1 <= n != m < size; the rho-variation of each kernel path
    must sit below its derivative-integral majorant, and both route constants
    must stabilize for a stable verdict. The kernels and the weight are
    symmetric bit for bit and every leading block is square, so both routes
    run on the pairs 1 <= n < m only.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes, kt, dkt, steps=len(times))
    size = sizes[-1]
    sep = _sep(size)
    sep[0, :] = 0.0
    sep[:, 0] = 0.0
    keep = np.triu(sep) > 0.0
    maj = _pair_values(lambda idx: majorant_batch(_paths(dkt, idx), times), keep)
    var = _pair_values(lambda idx: variation_batch(_paths(kt, idx).T, rho), keep)
    return _finish("kernel_decay", params, sizes,
                   {"majorant": _leading_max(sep * maj, sizes),
                    "variation": _leading_max(sep * var, sizes)},
                   started, {"rho": rho})


def _smoothness_mask(size: int) -> np.ndarray:
    """Pairs (n, m) admissible for the first-difference smoothness bound.

    Requires n != m, |n - m| > 2, and both n and n+1 inside [m/2, 3m/2].
    Row n of a differenced array stands for the pair (n+1, n).
    """
    n = np.arange(size - 1)[:, None]
    m = np.arange(size)[None, :]
    return (n != m) & (np.abs(n - m) > 2) & (2 * n >= m) & (2 * (n + 1) <= 3 * m)


def verify_kernel_smoothness(params: JacobiParams, sizes, kt: np.ndarray,
                             dkt: np.ndarray, times: np.ndarray,
                             rho: float) -> EstimateReport:
    """Constant sup |n-m|^2 * ||K_.(n+1,m) - K_.(n,m)||_rho on the local region,
    from the K and dK tensors over the increasing times; both routes run on
    the `_smoothness_mask` pairs only, each forming its differenced paths per
    batch of pairs."""
    started = time.perf_counter()
    sizes = _check_sizes(sizes, kt, dkt, steps=len(times))
    size = sizes[-1]
    sep = _sep(size)[:-1]
    mask = _smoothness_mask(size)
    excluded = (sep > 0.0) & ~mask

    def diff(tensor, idx):
        # the flat index of (n + 1, m) is that of (n, m) plus size
        return _paths(tensor, idx + size) - _paths(tensor, idx)

    maj = _pair_values(lambda idx: majorant_batch(diff(dkt, idx), times), mask)
    var = _pair_values(lambda idx: variation_batch(diff(kt, idx).T, rho), mask)
    return _finish("kernel_smoothness", params, sizes,
                   {"majorant": _leading_max(sep ** 2 * maj, sizes, lag=1),
                    "variation": _leading_max(sep ** 2 * var, sizes, lag=1)},
                   started,
                   {"rho": rho,
                    "excluded_pairs": [int(excluded[:s - 1, :s].sum()) for s in sizes]})


def verify_dt_sup(params: JacobiParams, sizes, dkt: np.ndarray) -> EstimateReport:
    """Constant sup over n != m of |n-m|^3 * sup_t |d/dt K_t(n,m)|, over the
    times of the dK tensor."""
    started = time.perf_counter()
    sizes = _check_sizes(sizes, dkt)
    size = sizes[-1]
    # negation is exact, so this is max |dK| over t without an |dK| tensor
    sup_t = np.maximum(dkt.max(axis=0), -dkt.min(axis=0))
    return _finish("dt_sup", params, sizes,
                   {"dt_sup": _leading_max(_sep(size) ** 3 * sup_t, sizes)}, started)


def _lacunary_steps(stack: np.ndarray, lac: LacunarySequence, coef) -> np.ndarray:
    """Stack b_j (K_{a_{j+1}} - K_{a_j}) for j = j_min..j_max-1, from the stack
    of K over lac.values and the coefficients coef (`_resolve_bcoef`)."""
    steps = np.diff(stack, axis=0)
    steps *= _resolve_bcoef(coef, lac)[:, None, None]
    return steps


def _window_prefix(steps: np.ndarray, lac: LacunarySequence, m_range: int) -> np.ndarray:
    """Zero row, then running sums of the steps j = -M..M: every window sum over
    n1 <= j <= n2 is prefix[n2 + M + 1] - prefix[n1 + M]. Needs M > 0 and lac
    to cover [-M, M+1]."""
    if m_range <= 0:
        raise ValueError("window range M must be positive")
    if lac.j_min > -m_range or lac.j_max < m_range + 1:
        raise ValueError("lacunary window must cover [-M, M+1]")
    offset = -m_range - lac.j_min
    window = steps[offset:offset + 2 * m_range + 1]
    prefix = np.zeros((window.shape[0] + 1,) + window.shape[1:])
    np.cumsum(window, axis=0, out=prefix[1:])
    return prefix


def verify_qn_bounds(params: JacobiParams, lac: LacunarySequence, bcoef, m_range: int,
                     sizes, stack: np.ndarray) -> EstimateReport:
    """Size and smoothness of difference-sum kernels over every window in [-M, M],
    from the stack of K over lac.values.

    Tracks sup |n-m| |Q(n,m)| pooled over windows and the differenced analogue
    sup |n-m|^2 |Q(n+1,m) - Q(n,m)| on the local region; extras report each
    window's size constant and whether all of them sit within 10% of the
    pooled max.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes, stack, steps=lac.values.size)
    size = sizes[-1]
    prefix = s_star_kernels(stack, lac, bcoef, m_range)
    sep = _sep(size)
    sep2 = np.where(_smoothness_mask(size), sep[:-1] ** 2, 0.0)
    window_series, smooth_series = {}, []
    for n1 in range(-m_range, m_range):
        for n2 in range(n1 + 1, m_range + 1):
            q = prefix[n2 + m_range + 1] - prefix[n1 + m_range]
            window_series[(n1, n2)] = _leading_max(sep * np.abs(q), sizes)
            smooth_series.append(_leading_max(sep2 * np.abs(np.diff(q, axis=0)), sizes,
                                              lag=1))
    c_size = np.max(list(window_series.values()), axis=0)
    best_a = float(c_size[-1])
    lowest = min(c[-1] for c in window_series.values())
    uniformity = lowest / best_a if best_a > 0.0 else 1.0
    window_stability = max(_ratio(v) for v in window_series.values())
    extras = {
        "windows": len(window_series),
        "per_window_size_constants": [[n1, n2, c[-1]]
                                      for (n1, n2), c in window_series.items()],
        "uniformity_ratio": uniformity,
        "uniform_within_10pct": bool(uniformity >= 0.9),
        "window_stability_ratio": window_stability,
        "windows_stable": bool(window_stability <= STABILITY_THRESHOLD),
    }
    return _finish("qn_bounds", params, sizes,
                   {"window_size": c_size,
                    "window_smoothness": np.max(smooth_series, axis=0)}, started, extras)


def verify_lacunary_tail(params: JacobiParams, lac: LacunarySequence, vcoef, sizes,
                         stack: np.ndarray) -> EstimateReport:
    """Suffix and geometric-tail bounds for lacunary difference sums, from the
    stack of K over lac.values.

    Route "suffix": sup over k, n, m of sqrt(a_k) |sum_{j>=k} v_j dK_j(n,m)|.
    Route "tail": sup over k > l and |n-m| > c sqrt(a_k) of
    ratio^(k-l+1) sqrt(a_k) |sum_{j<l} v_j dK_j(n,m)| at cutoff c = 1; the
    tail constants at c in {1, 2, 4} land in extras.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes, stack, steps=lac.values.size)
    lam = lac.ratio
    j_lo, j_hi = lac.j_min, lac.j_max
    size = sizes[-1]
    steps = _lacunary_steps(stack, lac, vcoef)
    suffix = np.cumsum(steps[::-1], axis=0)[::-1]
    c_suffix = _leading_max(np.max([np.sqrt(lac.value(k)) * np.abs(suffix[k - j_lo])
                                    for k in range(j_lo, j_hi)], axis=0), sizes)
    prefix = np.cumsum(steps, axis=0)
    sep = _sep(size)
    sensitivity = {}
    for c_cut in (1.0, 2.0, 4.0):
        tail = np.zeros((size, size))
        for l in range(j_lo + 1, j_hi):
            part = np.abs(prefix[l - 1 - j_lo])
            for k in range(l + 1, j_hi + 1):
                root = np.sqrt(lac.value(k))
                far = np.where(sep > c_cut * root, lam ** (k - l + 1) * root * part, 0.0)
                tail = np.maximum(tail, far)
        sensitivity[f"c={c_cut:g}"] = _leading_max(tail, sizes)
    extras = {"cutoff_c": 1.0, "tail_sensitivity": sensitivity}
    return _finish("lacunary_tail", params, sizes,
                   {"suffix": c_suffix, "tail": sensitivity["c=1"]}, started, extras)


def _hl_columns(g: np.ndarray) -> np.ndarray:
    return np.stack([hl_maximal_all(g[:, j]) for j in range(g.shape[1])], axis=1)


def verify_cotlar(params: JacobiParams, m_range: int, lac: LacunarySequence, bcoef,
                  q: float, sizes, stack: np.ndarray, seed: int = 0,
                  n_random: int = 20) -> EstimateReport:
    """Pointwise domination of the windowed sup by maximal functions, from the
    stack of K over lac.values.

    Constant: sup over probes f and indices n of
    S*_loc f(n) / (M(S_(-M,M),loc f)(n) + M_q f(n)), denominators below 1e-14
    skipped and counted.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes, stack, steps=lac.values.size)
    if q < 1.0:
        raise ValueError("q must be at least 1")
    prefix = _window_prefix(_lacunary_steps(stack, lac, bcoef) * _local_mask(sizes[-1]),
                            lac, m_range)
    constants, skipped = [], []
    for size in sizes:
        rng = np.random.default_rng(seed)
        probes = np.concatenate(
            [np.eye(size), rng.standard_normal((size, n_random))], axis=1)
        images = prefix[:, :size, :size] @ probes
        s_star_loc = images.max(axis=0) - images.min(axis=0)
        g = images[-1] - images[0]
        denom = _hl_columns(np.abs(g)) + _hl_columns(np.abs(probes) ** q) ** (1.0 / q)
        keep = denom >= 1e-14
        skipped.append(int((~keep).sum()))
        constants.append(float((s_star_loc[keep] / denom[keep]).max()) if keep.any() else 0.0)
    return _finish("cotlar", params, sizes, {"cotlar": constants}, started,
                   {"q": q, "skipped_small_denominators": skipped})


def verify_poly_bound(params: JacobiParams, sizes) -> EstimateReport:
    """Envelope constant sup_k sup_x |P_k(x)| sqrt(k) (1-x)^(a/2+1/4) (1+x)^(b/2+1/4).

    sizes are degree thresholds; the constant per size takes k = 1..size on an
    interior grid.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes)
    x_grid = np.cos(np.linspace(0.01, np.pi - 0.01, 601))[::-1].copy()
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


def s_star_kernels(stack: np.ndarray, lac: LacunarySequence, b, m_range: int) -> np.ndarray:
    """The kernels "s_star" reads, one matrix per path step: the zero matrix
    and the running sums of the steps b_j (K_{a_{j+1}} - K_{a_j}),
    j = -M..M, from the stack of K over lac.values."""
    return _window_prefix(_lacunary_steps(stack, lac, b), lac, m_range)


def _functional(operator: str, paths: np.ndarray, grid: TimeGrid, rho: float,
                lambdas) -> np.ndarray:
    """The operator's value on each path: heat paths lie along the last axis,
    and "s_star" paths of window prefix sums along the first, whose spread it
    takes. "jump" stacks one value per lambda along a new leading axis."""
    if operator == "s_star":
        return paths.max(axis=0) - paths.min(axis=0)
    if operator == "variation":
        return variation_batch(paths, rho)
    if operator == "oscillation":
        return oscillation_batch(grid.times, paths, default_bands(grid))
    if operator != "jump":
        raise ValueError(f"unknown operator choice {operator!r}")
    lams = np.asarray(lambdas, dtype=float)
    return (lams.reshape((-1,) + (1,) * (paths.ndim - 1))
            * jump_count_batch(paths, lams) ** (1.0 / rho))


def _delta_images(operator: str, kernels: np.ndarray, grid: TimeGrid, rho: float,
                  lambdas) -> np.ndarray:
    """Images of every delta probe through `kernels`, shape (..., size, size):
    the image of delta_m at n is the functional of the path of kernels[:, n, m].
    The kernels are symmetric bit for bit, so the functional runs on the pairs
    n <= m and is mirrored."""
    def images(idx):
        paths = _paths(kernels, idx)
        return _functional(operator, paths if operator == "s_star" else paths.T, grid,
                           rho, lambdas)

    size = kernels.shape[-1]
    return _pair_values(images, np.triu(np.ones((size, size), dtype=bool)), mirror=True)


def operator_images(operator: str, kernels: np.ndarray, probes: np.ndarray,
                    grid: TimeGrid, rho: float, lambdas) -> np.ndarray:
    """Images of one operator of heat paths on a probe matrix (k, P) or on
    one signal (k,), one entry per index n < k and probe.

    kernels are the operator's, one matrix per path step: K over grid.times,
    or for "s_star" its `s_star_kernels`, whose spread is the image. The
    probes act through their leading k x k block, k = probes.shape[0], and
    raise NumericFailure if that block has a non-finite entry. "jump" stacks
    one image per lambda along a new leading axis.
    """
    k = probes.shape[0]
    kernels = kernels[:, :k, :k]
    _check_finite(kernels)
    if operator == "s_star":
        paths = kernels @ probes
    else:
        paths = np.moveaxis(np.tensordot(kernels, probes, axes=([2], [0])), 0, -1)
    return _functional(operator, paths, grid, rho, lambdas)


def verify_theorem_norms(params: JacobiParams, operator: str, cells, sizes,
                         kernels: np.ndarray, grid: TimeGrid, rho: float, lambdas,
                         seed: int = 0, n_random: int = 8) -> list:
    """Operator-norm sweep of a path operator on l^p(w) over truncation sizes,
    one report per (p, weight_spec, mode) cell, in cell order.

    kernels are the operator's at max(sizes), as `operator_images` takes
    them. Size s takes probes on the first s indices through their leading
    block; their images are taken once and reduced for every cell. The delta
    probes' images come from the upper triangle of the kernels once per
    sweep, each size reading their leading block, so per size only the random
    probes pass through `operator_images`. Every report carries the wall time
    of the whole sweep.

    mode "strong" maxes ||Tf||/||f|| over delta and random probes (for jump,
    additionally over the lambda family); mode "weak11" uses delta probes and
    the weak-l^1 quasinorm against the weighted l^1 norm. Per size, the strong
    cells of each distinct p share one `norm_ratio_max` call, which takes
    |images|^p and |probes|^p once for all their weights, and the weak11 cells
    share one `weak_quasinorm` call, which sorts the delta images once; each
    call reduces every family, and each distinct weight once for all the cells
    that share it. Raises NumericFailure if a kernel or an image has a
    non-finite entry: a jump count compares with nan as false, so a nan kernel
    could leave every image finite.
    """
    started = time.perf_counter()
    sizes = _check_sizes(sizes, kernels,
                         steps=None if operator == "s_star" else grid.times.size)
    for p, _, mode in cells:
        if mode not in ("strong", "weak11"):
            raise ValueError(f"unknown mode {mode!r}")
        if p < 1.0:
            raise ValueError("p must be at least 1")
    delta_block = _delta_images(operator, kernels, grid, rho, lambdas)
    # a weight's entries do not depend on the size it is resolved at, so each
    # is resolved once and every size reads its leading entries
    full_weights = {spec: spec.resolve(sizes[-1]) for _, spec, _ in cells}
    # one reduction per group, strong cells by p, then the weak11 cells, which
    # do not depend on p; each group reduces a weight once for every cell with it
    groups: dict = {}
    for i, (p, spec, mode) in enumerate(cells):
        groups.setdefault(p if mode == "strong" else "weak11", {}).setdefault(
            spec, []).append(i)
    constants = [[] for _ in cells]
    for size in sizes:
        probes = probe_matrix(size, n_random, seed)
        images = np.concatenate(
            [delta_block[..., :size, :size],
             operator_images(operator, kernels, probes[:, size:], grid, rho, lambdas)],
            axis=-1)
        if not np.all(np.isfinite(images)):
            raise NumericFailure(
                f"{operator} images at size {size} have non-finite entries")
        for key, members in groups.items():
            weights = np.stack([full_weights[spec][:size] for spec in members])
            if key == "weak11":
                # (k, families, size): the images of the delta probes, each
                # family's sorted along the index axis
                deltas = np.moveaxis(images[..., :size], -2, 0)
                values = [(best / w).max()
                          for best, w in zip(weak_quasinorm(deltas, weights), weights)]
            else:
                values = norm_ratio_max(images, probes, key, weights)
            for shared, value in zip(members.values(), values):
                for i in shared:
                    constants[i].append(float(value))
    reports = [
        _finish(f"theorem_norms_{operator}" + ("_weak11" if mode == "weak11" else ""),
                params, sizes, {"norm": series}, started,
                {"p": p, "weight": weight_spec.label(), "mode": mode, "rho": rho})
        for (p, weight_spec, mode), series in zip(cells, constants)]
    elapsed = time.perf_counter() - started
    return [replace(report, runtime=elapsed) for report in reports]
