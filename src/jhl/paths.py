"""Path functionals along heat flows and the discrete operators built from them.

A sampled path is the restriction of t -> W_t f(n) to a finite decreasing-time
view; variation, oscillation and jump counts are computed exactly on the grid,
so they are lower bounds for the continuous-parameter functionals that only
improve under refinement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import JacobiParams
from .semigroup import DEFAULT_QUAD_TOL, _fit_signal, apply_heat, kernel_tensor

__all__ = [
    "TimeGrid",
    "SampledPath",
    "BandSequence",
    "LacunarySequence",
    "DifferenceWindow",
    "default_time_grid",
    "default_bands",
    "rho_variation",
    "variation_batch",
    "brute_variation",
    "oscillation",
    "oscillation_batch",
    "jump_count",
    "jump_count_batch",
    "brute_jump_count",
    "jump_functional",
    "heat_path",
    "qn_kernel_matrix",
    "s_star",
    "hardy_upper",
    "hardy_lower",
    "hl_maximal",
    "hl_maximal_all",
    "hl_maximal_q",
]

BRUTE_VARIATION_CAP = 16


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("time grid must be a nonempty 1-D array")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be positive and strictly increasing")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def geometric(cls, t_min: float, t_max: float, count: int) -> "TimeGrid":
        if count < 2 or t_min <= 0.0 or t_max <= t_min:
            raise ValueError("need count >= 2 and 0 < t_min < t_max")
        return cls(np.geomspace(t_min, t_max, count))


def default_time_grid() -> TimeGrid:
    """96 log-uniform times spanning [1e-3, 1e2]."""
    return TimeGrid.geometric(1e-3, 1e2, 96)


@dataclass(frozen=True)
class SampledPath:
    """Values of one path over a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.times.shape:
            raise ValueError("path values must align with the time grid")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class BandSequence:
    """Decreasing positive band edges t_1 > t_2 > ...; band j is [t_{j+1}, t_j]."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("band sequence needs at least two edges")
        if e[-1] <= 0.0 or np.any(np.diff(e) >= 0.0):
            raise ValueError("band edges must be positive and strictly decreasing")
        object.__setattr__(self, "edges", e)


def default_bands(grid: TimeGrid) -> BandSequence:
    """Dyadic band edges t_max, t_max/2, ... staying inside the grid span."""
    t_min, t_max = float(grid.times[0]), float(grid.times[-1])
    edges = [t_max]
    while edges[-1] / 2.0 >= t_min:
        edges.append(edges[-1] / 2.0)
    return BandSequence(np.array(edges))


@dataclass(frozen=True)
class LacunarySequence:
    """Increasing positive times a_j, j = j_min..j_max, with ratio control.

    Consecutive ratios must be at least `ratio` (> 1); when `pinned` is set the
    ratios must also stay at or below ratio^2.
    """

    j_min: int
    values: np.ndarray
    ratio: float
    pinned: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("lacunary sequence needs at least two values")
        if v[0] <= 0.0:
            raise ValueError("lacunary values must be positive")
        if self.ratio <= 1.0:
            raise ValueError("lacunary ratio must exceed 1")
        r = v[1:] / v[:-1]
        if np.any(r < self.ratio * (1.0 - 1e-12)):
            raise ValueError("consecutive ratios fall below the declared lower bound")
        if self.pinned and np.any(r > self.ratio ** 2 * (1.0 + 1e-12)):
            raise ValueError("pinned sequence has a ratio above ratio^2")
        object.__setattr__(self, "values", v)

    @property
    def j_max(self) -> int:
        return self.j_min + self.values.size - 1

    def value(self, j: int) -> float:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"index {j} outside lacunary window [{self.j_min}, {self.j_max}]")
        return float(self.values[j - self.j_min])

    @classmethod
    def geometric(cls, ratio: float, j_min: int, j_max: int, scale: float = 1.0,
                  pinned: bool = True) -> "LacunarySequence":
        if j_max <= j_min:
            raise ValueError("need j_max > j_min")
        j = np.arange(j_min, j_max + 1, dtype=float)
        return cls(j_min=j_min, values=scale * ratio ** j, ratio=ratio, pinned=pinned)


@dataclass(frozen=True)
class DifferenceWindow:
    """Index window (n1, n2) of a difference sum, n1 < n2."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 >= self.n2:
            raise ValueError("window needs n1 < n2")


def rho_variation(path: SampledPath, rho: float) -> float:
    """Largest (sum |increments|^rho)^(1/rho) over subsequences of the grid.

    Dynamic program over chain endpoints: best[i] = max_{j<i} best[j] + |a_i - a_j|^rho.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    return float(variation_batch(path.values[None, :], rho)[0])


def _turning_mask(flat: np.ndarray) -> np.ndarray:
    """Endpoints, plus each point whose incoming step is nonzero and whose
    outgoing step does not continue in the same direction: every reversal and
    every plateau start.

    For rho > 1 increments along a monotone run are superadditive, so the
    rho-variation is attained on endpoints and turning points (Butkus &
    Norvaisa, "Computation of p-variation", Lithuanian Math. J. 58, 2018). A
    turning plateau is kept by its first point; plateaus inside a monotone run
    are kept too, which only widens the program.
    """
    sign = np.sign(np.diff(flat, axis=1))
    keep = np.ones(flat.shape, dtype=bool)
    keep[:, 1:-1] = (sign[:, :-1] != 0.0) & (sign[:, 1:] != sign[:, :-1])
    return keep


def variation_batch(values: np.ndarray, rho: float) -> np.ndarray:
    """Vectorized rho-variation along the last axis.

    Dynamic program best[i] = max_{j<i} best[j] + |a_i - a_j|^rho over the
    points `_turning_mask` keeps. Paths are grouped by their count of kept
    points and padded to the group's largest count with their last value;
    padding adds zero increments, so the maximum is unchanged. The result is
    the program over every point, bit for bit once rho is away from 1; near
    rho = 1 superadditivity fades below rounding, and a sum along a monotone
    run that rounds up can make the full program one ulp larger.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    v = np.asarray(values, dtype=float)
    lead = v.shape[:-1]
    length = v.shape[-1]
    flat = v.reshape(-1, length)
    keep = _turning_mask(flat)
    rank = np.cumsum(keep, axis=1)
    counts = rank[:, -1]
    # kept[r, k] is the k-th kept position of path r; padding repeats the last
    kept = np.full((flat.shape[0], counts.max(initial=1)), length - 1)
    row, col = np.nonzero(keep)
    kept[row, rank[row, col] - 1] = col
    by_count = np.argsort(counts)
    sorted_counts = counts[by_count]
    total = np.zeros(flat.shape[0])
    start = 0
    while start < by_count.size:
        # one group spans counts up to 5/4 of its smallest
        low = int(sorted_counts[start])
        stop = int(np.searchsorted(sorted_counts, low + low // 4, side="right"))
        rows = by_count[start:stop]
        width = int(sorted_counts[stop - 1])
        points = flat[rows[:, None], kept[rows, :width]]
        best = np.zeros_like(points)
        for i in range(1, width):
            cand = best[:, :i] + np.abs(points[:, i, None] - points[:, :i]) ** rho
            best[:, i] = cand.max(axis=1)
        total[rows] = best.max(axis=1)
        start = stop
    return (total ** (1.0 / rho)).reshape(lead)


def brute_variation(path: SampledPath, rho: float) -> float:
    """Exhaustive maximum over all subsequences; oracle for the dynamic program."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    vals = path.values
    length = vals.size
    if length > BRUTE_VARIATION_CAP:
        raise ValueError(f"brute-force variation capped at length {BRUTE_VARIATION_CAP}")
    best = 0.0
    for size in range(2, length + 1):
        for combo in itertools.combinations(range(length), size):
            picked = vals[list(combo)]
            total = float(np.sum(np.abs(np.diff(picked)) ** rho))
            if total > best:
                best = total
    return best ** (1.0 / rho)


def _band_slices(times: np.ndarray, bands: BandSequence) -> list[np.ndarray]:
    t_min, t_max = float(times[0]), float(times[-1])
    if bands.edges[0] > t_max * (1.0 + 1e-12) or bands.edges[-1] < t_min * (1.0 - 1e-12):
        raise ValueError("band edges leave the closed span of the time grid")
    out = []
    for j in range(bands.edges.size - 1):
        hi, lo = bands.edges[j], bands.edges[j + 1]
        out.append(np.nonzero((times >= lo) & (times <= hi))[0])
    return out


def oscillation(path: SampledPath, bands: BandSequence) -> float:
    """Square root of the summed squared per-band value spreads.

    A band holding fewer than two grid points contributes zero.
    """
    return float(oscillation_batch(path.grid.times, path.values[None, :], bands)[0])


def oscillation_batch(times: np.ndarray, values: np.ndarray, bands: BandSequence) -> np.ndarray:
    """Vectorized oscillation along the last axis."""
    v = np.asarray(values, dtype=float)
    total = np.zeros(v.shape[:-1])
    for idx in _band_slices(np.asarray(times, dtype=float), bands):
        if idx.size < 2:
            continue
        segment = v[..., idx]
        spread = segment.max(axis=-1) - segment.min(axis=-1)
        total += spread * spread
    return np.sqrt(total)


def jump_count(path: SampledPath, lam: float) -> int:
    """Greedy count of moves larger than lam, scanning in increasing time.

    Keeps the running min and max since the last counted jump; a point farther
    than lam from either extreme closes a jump and resets both extremes there.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return int(jump_count_batch(path.values[None, :], lam)[0])


def jump_count_batch(values: np.ndarray, lam: float) -> np.ndarray:
    """Vectorized greedy jump count along the last axis."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    v = np.asarray(values, dtype=float)
    lead = v.shape[:-1]
    flat = v.reshape(-1, v.shape[-1])
    run_min = flat[:, 0].copy()
    run_max = flat[:, 0].copy()
    count = np.zeros(flat.shape[0], dtype=int)
    for i in range(1, flat.shape[1]):
        cur = flat[:, i]
        jumped = (cur - run_min > lam) | (run_max - cur > lam)
        count += jumped
        run_min = np.where(jumped, cur, np.minimum(run_min, cur))
        run_max = np.where(jumped, cur, np.maximum(run_max, cur))
    return count.reshape(lead)


def brute_jump_count(path: SampledPath, lam: float) -> int:
    """Exhaustive maximal pairing s_1 < t_1 <= s_2 < t_2 <= ... with |a_{t_i} - a_{s_i}| > lam."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    vals = path.values
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
                    cand = 1 + best_from(t)
                    if cand > best:
                        best = cand
        memo[start] = best
        return best

    return best_from(0)


def jump_functional(path: SampledPath, lam: float, rho: float) -> float:
    """lam * (jump count)^(1/rho)."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    return lam * jump_count(path, lam) ** (1.0 / rho)


def heat_path(params: JacobiParams, f: np.ndarray, n: int, grid: TimeGrid,
              size: int) -> SampledPath:
    """The path t -> W_t f(n) over the grid, on the size-truncation."""
    if not 0 <= n < size:
        raise ValueError("index n must lie in the truncated range")
    fv = _fit_signal(f, size)
    tensor = kernel_tensor(params, grid.times, size)
    return SampledPath(grid=grid, values=tensor[:, n, :] @ fv)


def _resolve_bcoef(bcoef, lac: LacunarySequence) -> np.ndarray:
    """Coefficients b_j aligned with lac indices j_min..j_max-1."""
    if callable(bcoef):
        return np.array([float(bcoef(j)) for j in range(lac.j_min, lac.j_max)])
    arr = np.asarray(bcoef, dtype=float)
    if arr.ndim != 1 or arr.size < lac.values.size - 1:
        raise ValueError("bcoef must cover every step of the lacunary window")
    return arr[: lac.values.size - 1]


def qn_kernel_matrix(params: JacobiParams, window: DifferenceWindow, lac: LacunarySequence,
                     bcoef, size: int, quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """Dense kernel sum_{j=n1}^{n2} b_j (K_{a_{j+1}} - K_{a_j}) of the difference
    sum; its row n applied to f is the sum at index n. The kernels come from the
    one tensor over lac.values that the batch routes use; the window is summed
    directly, so this stays the oracle for batch window sums."""
    if window.n1 < lac.j_min or window.n2 + 1 > lac.j_max:
        raise ValueError("difference window leaves the lacunary index range")
    b = _resolve_bcoef(bcoef, lac)
    mats = kernel_tensor(params, lac.values, size, quad_tol)
    total = np.zeros((size, size))
    for i in range(window.n1 - lac.j_min, window.n2 + 1 - lac.j_min):
        total += b[i] * (mats[i + 1] - mats[i])
    return total


def s_star(params: JacobiParams, m_range: int, lac: LacunarySequence, bcoef,
           f: np.ndarray, n: int, size: int, variant: str = "full") -> float:
    """sup over windows -M <= n1 < n2 <= M of |difference sum| at index n.

    variant selects the input restriction: "local" keeps entries with
    n/2 <= m <= 3n/2, "global" keeps the complement, "full" keeps everything.
    All window sums are differences of one prefix array, so the sup is the
    prefix spread.
    """
    if m_range <= 0:
        raise ValueError("window range M must be positive")
    if variant not in ("full", "local", "global"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 <= n < size:
        raise ValueError("index n must lie in the truncated range")
    if lac.j_min > -m_range or lac.j_max < m_range + 1:
        raise ValueError("lacunary window must cover [-M, M+1]")
    fv = _fit_signal(f, size).copy()
    if variant != "full":
        m_idx = np.arange(size)
        local = (2 * m_idx >= n) & (2 * m_idx <= 3 * n)
        fv *= local if variant == "local" else ~local
    b = _resolve_bcoef(bcoef, lac)
    path = np.array([apply_heat(params, lac.value(j), fv, size)[n]
                     for j in range(-m_range, m_range + 2)])
    steps = b[np.arange(-m_range, m_range + 1) - lac.j_min] * np.diff(path)
    prefix = np.concatenate(([0.0], np.cumsum(steps)))
    return float(prefix.max() - prefix.min())


def hardy_upper(f: np.ndarray, n: int) -> float:
    """Left Hardy average (1/n) sum_{m<n} |f(m)|; defined for n >= 1."""
    if n < 1:
        raise ValueError("the averaged Hardy term needs n >= 1")
    fv = np.abs(np.asarray(f, dtype=float))
    return float(fv[:n].sum() / n)


def hardy_lower(f: np.ndarray, n: int) -> float:
    """Right Hardy tail sum_{m>n} |f(m)| / m."""
    if n < 0:
        raise ValueError("index n must be nonnegative")
    fv = np.abs(np.asarray(f, dtype=float))
    idx = np.arange(fv.size)
    keep = idx > n
    if not keep.any():
        return 0.0
    return float((fv[keep] / idx[keep]).sum())


def hl_maximal(f: np.ndarray, n: int) -> float:
    """Centered Hardy-Littlewood maximal average over balls {m >= 0 : |m-n| < r}.

    Balls live in the nonnegative integers but their counting measure includes
    every lattice point of the ball, support or not; only integer radii change
    the ball, so finitely many averages realize the sup.
    """
    if n < 0:
        raise ValueError("index n must be nonnegative")
    return float(hl_maximal_all(f, n + 1)[n])


def hl_maximal_all(f: np.ndarray, size: int | None = None) -> np.ndarray:
    """Maximal function at every index 0..size-1, vectorized over radii."""
    fv = np.abs(np.asarray(f, dtype=float))
    length = fv.size
    if size is None:
        size = length
    cs = np.concatenate(([0.0], np.cumsum(fv)))
    n = np.arange(size)[:, None]
    d_max = max(size - 1, length - 1)
    d = np.arange(d_max + 1)[None, :]
    lo = np.clip(n - d, 0, length)
    hi = np.minimum(n + d, length - 1)
    sums = cs[hi + 1] - cs[lo]
    counts = (n + d) - np.maximum(n - d, 0) + 1
    return (sums / counts).max(axis=1)


def hl_maximal_q(f: np.ndarray, n: int, q: float) -> float:
    """(M(|f|^q)(n))^(1/q) for q >= 1."""
    if q < 1.0:
        raise ValueError("q must be at least 1")
    fv = np.abs(np.asarray(f, dtype=float)) ** q
    return float(hl_maximal(fv, n) ** (1.0 / q))
